#ifndef ENTROPYDB_QUERY_PARSER_H_
#define ENTROPYDB_QUERY_PARSER_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "query/aggregate.h"
#include "query/counting_query.h"
#include "storage/domain.h"

namespace entropydb {

/// \brief A parsed aggregate query over a summarized relation.
struct ParsedQuery {
  enum class Aggregate { kCount, kSum, kAvg, kQuantile, kTopK };
  Aggregate aggregate = Aggregate::kCount;
  /// Aggregated attribute (SUM/AVG/QUANTILE/TOPK).
  AttrId agg_attr = 0;
  /// Quantile rank in (0, 1) — validated at parse time (QUANTILE only).
  double quantile = 0.5;
  /// Number of largest cells to report, >= 1 (TOPK only).
  uint64_t top_k = 1;
  /// The conjunctive filter (kAny everywhere when no WHERE clause).
  CountingQuery where;

  std::string AggregateName() const;
};

/// \brief A parsed two-relation equi-join aggregate (the --join dialect).
struct ParsedJoinQuery {
  enum class Aggregate { kCount, kSum };
  Aggregate aggregate = Aggregate::kCount;
  /// Left-side summed attribute (SUM only).
  AttrId agg_attr = 0;
  /// The join attributes (left / right relation).
  AttrId left_join = 0;
  AttrId right_join = 0;
  /// Per-side conjunctive filters.
  CountingQuery left_where;
  CountingQuery right_where;

  std::string AggregateName() const;
};

/// \brief Parses the paper's query dialect against a summary's attribute
/// names and domains:
///
///   COUNT(*) [WHERE cond [AND cond]...]
///   SUM(attr) [WHERE ...]      AVG(attr) [WHERE ...]
///   QUANTILE(attr, q) [WHERE ...]       q in (0, 1), e.g. 0.5 = median
///   TOPK(attr, k) [WHERE ...]           k >= 1 largest value groups
///
///   cond := attr = value
///         | attr BETWEEN lo AND hi        (raw-value range)
///         | attr IN (v1, v2, ...)
///
/// Values are categorical labels (optionally 'quoted') or numbers; numeric
/// values are mapped through the attribute's bucketized domain, exactly as
/// the paper transforms "a user's query into our domain" (Sec 6.1).
/// Keywords are case-insensitive; attribute names are case-sensitive.
Result<ParsedQuery> ParseQuery(const std::string& text,
                               const std::vector<std::string>& attr_names,
                               const std::vector<Domain>& domains);

/// \brief Parses the two-relation join dialect against BOTH schemas:
///
///   COUNT(*) ON j [WHERE jcond [AND jcond]...]
///   SUM(attr) ON j [WHERE ...]           attr is a LEFT-side attribute
///
///   j     := attr | left_attr = right_attr
///   jcond := left.attr <op> ... | right.attr <op> ...   (ops as above)
///
/// The bare `ON attr` form resolves the same name in both schemas; the
/// two-name form joins differently named attributes. Every WHERE condition
/// must carry a `left.` or `right.` prefix naming its relation. SUM's
/// attribute accepts an optional `left.` prefix.
Result<ParsedJoinQuery> ParseJoinQuery(
    const std::string& text, const std::vector<std::string>& left_names,
    const std::vector<Domain>& left_domains,
    const std::vector<std::string>& right_names,
    const std::vector<Domain>& right_domains);

/// \brief The AggregateQuery a parsed query asks an engine for. SUM, AVG
/// and QUANTILE weight `agg_attr` by BucketWeights over `domains`, the
/// domains the query was parsed against.
AggregateQuery ToAggregateQuery(const ParsedQuery& parsed,
                                const std::vector<Domain>& domains);

/// \brief The fused-join AggregateQuery a parsed join asks the LEFT engine
/// for (EntropyEngine::AnswerJoin). JOIN_SUM weights the left-side
/// `agg_attr` by BucketWeights over `left_domains`.
AggregateQuery ToAggregateQuery(const ParsedJoinQuery& parsed,
                                const std::vector<Domain>& left_domains);

}  // namespace entropydb

#endif  // ENTROPYDB_QUERY_PARSER_H_
