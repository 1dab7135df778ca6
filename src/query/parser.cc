#include "query/parser.h"

#include <algorithm>
#include <cctype>
#include <cmath>

#include "common/str_util.h"

namespace entropydb {

namespace {

/// Flat token stream: identifiers/numbers/quoted strings plus the symbols
/// ( ) , = *.
struct Tokenizer {
  std::vector<std::string> tokens;
  size_t pos = 0;

  static Result<Tokenizer> Split(const std::string& text) {
    Tokenizer t;
    size_t i = 0;
    while (i < text.size()) {
      char c = text[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (c == '(' || c == ')' || c == ',' || c == '=' || c == '*') {
        t.tokens.emplace_back(1, c);
        ++i;
        continue;
      }
      if (c == '\'') {
        size_t end = text.find('\'', i + 1);
        if (end == std::string::npos) {
          return Status::InvalidArgument("unterminated quoted string");
        }
        t.tokens.push_back(text.substr(i + 1, end - i - 1));
        i = end + 1;
        continue;
      }
      size_t start = i;
      while (i < text.size() &&
             !std::isspace(static_cast<unsigned char>(text[i])) &&
             text[i] != '(' && text[i] != ')' && text[i] != ',' &&
             text[i] != '=') {
        ++i;
      }
      t.tokens.push_back(text.substr(start, i - start));
    }
    return t;
  }

  bool Done() const { return pos >= tokens.size(); }
  const std::string& Peek() const { return tokens[pos]; }
  std::string Next() { return tokens[pos++]; }

  /// Case-insensitive keyword check, consuming on match.
  bool Eat(const std::string& keyword) {
    if (Done()) return false;
    const std::string& t = tokens[pos];
    if (t.size() != keyword.size()) return false;
    for (size_t i = 0; i < t.size(); ++i) {
      if (std::toupper(static_cast<unsigned char>(t[i])) != keyword[i]) {
        return false;
      }
    }
    ++pos;
    return true;
  }

  Status Expect(const std::string& keyword) {
    if (Eat(keyword)) return Status::OK();
    return Status::InvalidArgument(
        "expected '" + keyword + "'" +
        (Done() ? " at end of query" : (", got '" + Peek() + "'")));
  }
};

Result<AttrId> ResolveAttr(const std::string& name,
                           const std::vector<std::string>& attr_names) {
  for (AttrId a = 0; a < attr_names.size(); ++a) {
    if (attr_names[a] == name) return a;
  }
  return Status::NotFound("no attribute named '" + name + "'");
}

/// Maps a raw token (label or number) to a code of `domain`.
Result<Code> ResolveValue(const std::string& token, const Domain& domain) {
  if (domain.is_categorical()) {
    return domain.Encode(Value(token));
  }
  ASSIGN_OR_RETURN(double v, ParseDouble(token));
  return domain.BucketOf(v);
}

/// The operator half of a condition (everything after the attribute name),
/// shared by the single-relation and join dialects.
Status ParseConditionOps(Tokenizer& tok, AttrId attr, const Domain& domain,
                         const std::string& display_name,
                         CountingQuery* where) {
  if (tok.Eat("=")) {
    if (tok.Done()) return Status::InvalidArgument("missing value after =");
    ASSIGN_OR_RETURN(Code code, ResolveValue(tok.Next(), domain));
    where->Where(attr, AttrPredicate::Point(code));
    return Status::OK();
  }
  if (tok.Eat("BETWEEN")) {
    if (tok.Done()) return Status::InvalidArgument("missing BETWEEN bounds");
    std::string lo_tok = tok.Next();
    RETURN_NOT_OK(tok.Expect("AND"));
    if (tok.Done()) return Status::InvalidArgument("missing upper bound");
    std::string hi_tok = tok.Next();
    if (domain.is_categorical()) {
      ASSIGN_OR_RETURN(Code lo, ResolveValue(lo_tok, domain));
      ASSIGN_OR_RETURN(Code hi, ResolveValue(hi_tok, domain));
      if (hi < lo) std::swap(lo, hi);
      where->Where(attr, AttrPredicate::Range(lo, hi));
    } else {
      ASSIGN_OR_RETURN(double lo, ParseDouble(lo_tok));
      ASSIGN_OR_RETURN(double hi, ParseDouble(hi_tok));
      auto [clo, chi] = domain.BucketRange(lo, hi);
      if (chi < clo) {
        where->Where(attr, AttrPredicate::InSet({}));  // empty range
      } else {
        where->Where(attr, AttrPredicate::Range(clo, chi));
      }
    }
    return Status::OK();
  }
  if (tok.Eat("IN")) {
    RETURN_NOT_OK(tok.Expect("("));
    std::vector<Code> codes;
    while (!tok.Eat(")")) {
      if (tok.Done()) return Status::InvalidArgument("unterminated IN list");
      if (tok.Eat(",")) continue;
      ASSIGN_OR_RETURN(Code code, ResolveValue(tok.Next(), domain));
      codes.push_back(code);
    }
    where->Where(attr, AttrPredicate::InSet(std::move(codes)));
    return Status::OK();
  }
  return Status::InvalidArgument("expected =, BETWEEN, or IN after '" +
                                 display_name + "'");
}

Status ParseCondition(Tokenizer& tok, const std::vector<std::string>& names,
                      const std::vector<Domain>& domains,
                      CountingQuery* where) {
  if (tok.Done()) return Status::InvalidArgument("dangling WHERE/AND");
  ASSIGN_OR_RETURN(AttrId attr, ResolveAttr(tok.Next(), names));
  return ParseConditionOps(tok, attr, domains[attr], names[attr], where);
}

/// Strips a "left." / "right." qualifier from a join-dialect token.
/// Returns the side through `is_left` and the bare name through `rest`.
Status SplitSide(const std::string& token, bool* is_left, std::string* rest) {
  const size_t dot = token.find('.');
  if (dot == std::string::npos) {
    return Status::InvalidArgument(
        "join conditions must qualify attributes with 'left.' or "
        "'right.', got '" +
        token + "'");
  }
  const std::string side = token.substr(0, dot);
  *rest = token.substr(dot + 1);
  if (side == "left") {
    *is_left = true;
  } else if (side == "right") {
    *is_left = false;
  } else {
    return Status::InvalidArgument("unknown join side '" + side +
                                   "' (use left.<attr> or right.<attr>)");
  }
  return Status::OK();
}

}  // namespace

std::string ParsedQuery::AggregateName() const {
  switch (aggregate) {
    case Aggregate::kCount:
      return "COUNT";
    case Aggregate::kSum:
      return "SUM";
    case Aggregate::kAvg:
      return "AVG";
    case Aggregate::kQuantile:
      return "QUANTILE";
    case Aggregate::kTopK:
      return "TOPK";
  }
  return "?";
}

std::string ParsedJoinQuery::AggregateName() const {
  return aggregate == Aggregate::kCount ? "JOIN_COUNT" : "JOIN_SUM";
}

Result<ParsedQuery> ParseQuery(const std::string& text,
                               const std::vector<std::string>& attr_names,
                               const std::vector<Domain>& domains) {
  if (attr_names.size() != domains.size()) {
    return Status::InvalidArgument("attribute/domain arity mismatch");
  }
  ASSIGN_OR_RETURN(Tokenizer tok, Tokenizer::Split(text));
  ParsedQuery out;
  out.where = CountingQuery(attr_names.size());

  auto parse_agg_attr = [&]() -> Status {
    RETURN_NOT_OK(tok.Expect("("));
    if (tok.Done()) return Status::InvalidArgument("missing aggregate attr");
    ASSIGN_OR_RETURN(out.agg_attr, ResolveAttr(tok.Next(), attr_names));
    return tok.Expect(")");
  };

  if (tok.Eat("COUNT")) {
    out.aggregate = ParsedQuery::Aggregate::kCount;
    RETURN_NOT_OK(tok.Expect("("));
    RETURN_NOT_OK(tok.Expect("*"));
    RETURN_NOT_OK(tok.Expect(")"));
  } else if (tok.Eat("SUM")) {
    out.aggregate = ParsedQuery::Aggregate::kSum;
    RETURN_NOT_OK(parse_agg_attr());
  } else if (tok.Eat("AVG")) {
    out.aggregate = ParsedQuery::Aggregate::kAvg;
    RETURN_NOT_OK(parse_agg_attr());
  } else if (tok.Eat("QUANTILE")) {
    out.aggregate = ParsedQuery::Aggregate::kQuantile;
    RETURN_NOT_OK(tok.Expect("("));
    if (tok.Done()) return Status::InvalidArgument("missing aggregate attr");
    ASSIGN_OR_RETURN(out.agg_attr, ResolveAttr(tok.Next(), attr_names));
    RETURN_NOT_OK(tok.Expect(","));
    if (tok.Done()) return Status::InvalidArgument("missing quantile rank");
    ASSIGN_OR_RETURN(out.quantile, ParseDouble(tok.Next()));
    if (!(out.quantile > 0.0) || !(out.quantile < 1.0)) {
      return Status::InvalidArgument("quantile rank must be in (0, 1)");
    }
    RETURN_NOT_OK(tok.Expect(")"));
  } else if (tok.Eat("TOPK")) {
    out.aggregate = ParsedQuery::Aggregate::kTopK;
    RETURN_NOT_OK(tok.Expect("("));
    if (tok.Done()) return Status::InvalidArgument("missing aggregate attr");
    ASSIGN_OR_RETURN(out.agg_attr, ResolveAttr(tok.Next(), attr_names));
    RETURN_NOT_OK(tok.Expect(","));
    if (tok.Done()) return Status::InvalidArgument("missing top-k count");
    ASSIGN_OR_RETURN(const double k, ParseDouble(tok.Next()));
    // Bounded before the cast: a double past 2^53 is no exact count, and
    // one past 2^64 (or inf) would overflow it.
    if (!(k >= 1.0 && k <= 0x1p53) || k != std::floor(k)) {
      return Status::InvalidArgument("TOPK count must be a positive integer");
    }
    out.top_k = static_cast<uint64_t>(k);
    RETURN_NOT_OK(tok.Expect(")"));
  } else {
    return Status::InvalidArgument(
        "query must start with COUNT, SUM, AVG, QUANTILE or TOPK");
  }

  if (tok.Done()) return out;
  RETURN_NOT_OK(tok.Expect("WHERE"));
  do {
    RETURN_NOT_OK(ParseCondition(tok, attr_names, domains, &out.where));
  } while (tok.Eat("AND"));

  if (!tok.Done()) {
    return Status::InvalidArgument("trailing tokens after query: '" +
                                   tok.Peek() + "'");
  }
  return out;
}

Result<ParsedJoinQuery> ParseJoinQuery(
    const std::string& text, const std::vector<std::string>& left_names,
    const std::vector<Domain>& left_domains,
    const std::vector<std::string>& right_names,
    const std::vector<Domain>& right_domains) {
  if (left_names.size() != left_domains.size() ||
      right_names.size() != right_domains.size()) {
    return Status::InvalidArgument("attribute/domain arity mismatch");
  }
  ASSIGN_OR_RETURN(Tokenizer tok, Tokenizer::Split(text));
  ParsedJoinQuery out;
  out.left_where = CountingQuery(left_names.size());
  out.right_where = CountingQuery(right_names.size());

  if (tok.Eat("COUNT")) {
    out.aggregate = ParsedJoinQuery::Aggregate::kCount;
    RETURN_NOT_OK(tok.Expect("("));
    RETURN_NOT_OK(tok.Expect("*"));
    RETURN_NOT_OK(tok.Expect(")"));
  } else if (tok.Eat("SUM")) {
    out.aggregate = ParsedJoinQuery::Aggregate::kSum;
    RETURN_NOT_OK(tok.Expect("("));
    if (tok.Done()) return Status::InvalidArgument("missing aggregate attr");
    // SUM aggregates a LEFT-side attribute; the qualifier is optional.
    std::string name = tok.Next();
    if (name.rfind("left.", 0) == 0) name = name.substr(5);
    ASSIGN_OR_RETURN(out.agg_attr, ResolveAttr(name, left_names));
    RETURN_NOT_OK(tok.Expect(")"));
  } else {
    return Status::InvalidArgument(
        "join query must start with COUNT or SUM");
  }

  RETURN_NOT_OK(tok.Expect("ON"));
  if (tok.Done()) return Status::InvalidArgument("missing join attribute");
  const std::string left_tok = tok.Next();
  ASSIGN_OR_RETURN(out.left_join, ResolveAttr(left_tok, left_names));
  if (tok.Eat("=")) {
    if (tok.Done()) {
      return Status::InvalidArgument("missing right join attribute");
    }
    ASSIGN_OR_RETURN(out.right_join, ResolveAttr(tok.Next(), right_names));
  } else {
    // The bare form joins the SAME name on both sides.
    ASSIGN_OR_RETURN(out.right_join, ResolveAttr(left_tok, right_names));
  }

  if (tok.Done()) return out;
  RETURN_NOT_OK(tok.Expect("WHERE"));
  do {
    if (tok.Done()) return Status::InvalidArgument("dangling WHERE/AND");
    bool is_left = true;
    std::string name;
    RETURN_NOT_OK(SplitSide(tok.Next(), &is_left, &name));
    const std::vector<std::string>& names = is_left ? left_names : right_names;
    const std::vector<Domain>& domains = is_left ? left_domains : right_domains;
    CountingQuery* where = is_left ? &out.left_where : &out.right_where;
    ASSIGN_OR_RETURN(AttrId attr, ResolveAttr(name, names));
    RETURN_NOT_OK(
        ParseConditionOps(tok, attr, domains[attr], names[attr], where));
  } while (tok.Eat("AND"));

  if (!tok.Done()) {
    return Status::InvalidArgument("trailing tokens after query: '" +
                                   tok.Peek() + "'");
  }
  return out;
}

AggregateQuery ToAggregateQuery(const ParsedQuery& parsed,
                                const std::vector<Domain>& domains) {
  const AttrId a = parsed.agg_attr;
  const CountingQuery& where = parsed.where;
  const auto weights = [&] { return BucketWeights(domains[a]); };
  switch (parsed.aggregate) {
    case ParsedQuery::Aggregate::kCount:
      break;
    case ParsedQuery::Aggregate::kSum:
      return AggregateQuery::Sum(a, weights(), where);
    case ParsedQuery::Aggregate::kAvg:
      return AggregateQuery::Avg(a, weights(), where);
    case ParsedQuery::Aggregate::kQuantile:
      return AggregateQuery::Quantile(a, weights(), parsed.quantile, where);
    case ParsedQuery::Aggregate::kTopK:
      return AggregateQuery::TopK(a, parsed.top_k, where);
  }
  return AggregateQuery::Count(where);
}

AggregateQuery ToAggregateQuery(const ParsedJoinQuery& parsed,
                                const std::vector<Domain>& left_domains) {
  if (parsed.aggregate == ParsedJoinQuery::Aggregate::kCount) {
    return AggregateQuery::JoinCount(parsed.left_join, parsed.right_join,
                                     parsed.left_where, parsed.right_where);
  }
  return AggregateQuery::JoinSum(
      parsed.agg_attr, BucketWeights(left_domains[parsed.agg_attr]),
      parsed.left_join, parsed.right_join, parsed.left_where,
      parsed.right_where);
}

}  // namespace entropydb
