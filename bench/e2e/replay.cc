#include "replay.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace e2e {

using namespace entropydb;

Result<QueryResult> AnswerParsed(const EntropyEngine& engine,
                                 const ParsedQuery& parsed) {
  const auto weights = [&] {
    return BucketWeights(engine.domains()[parsed.agg_attr]);
  };
  switch (parsed.aggregate) {
    case ParsedQuery::Aggregate::kCount:
      return engine.Answer(AggregateQuery::Count(parsed.where));
    case ParsedQuery::Aggregate::kSum:
      return engine.Answer(
          AggregateQuery::Sum(parsed.agg_attr, weights(), parsed.where));
    case ParsedQuery::Aggregate::kAvg:
      return engine.Answer(
          AggregateQuery::Avg(parsed.agg_attr, weights(), parsed.where));
    case ParsedQuery::Aggregate::kQuantile:
      return engine.Answer(AggregateQuery::Quantile(
          parsed.agg_attr, weights(), parsed.quantile, parsed.where));
    case ParsedQuery::Aggregate::kTopK:
      return engine.Answer(
          AggregateQuery::TopK(parsed.agg_attr, parsed.top_k, parsed.where));
  }
  return Status::Internal("unhandled aggregate");
}

std::vector<std::string> ResultLines(const QueryResult& result) {
  std::vector<std::string> lines;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "estimate %.17g %.17g",
                result.estimate.expectation, result.estimate.variance);
  lines.push_back(buf);
  if (result.has_bound) {
    std::snprintf(buf, sizeof(buf), "bound %.17g %.17g", result.bound_lo,
                  result.bound_hi);
    lines.push_back(buf);
  }
  for (const GroupCell& cell : result.cells) {
    std::snprintf(buf, sizeof(buf), "cell %llu %.17g %.17g",
                  static_cast<unsigned long long>(cell.code),
                  cell.estimate.expectation, cell.estimate.variance);
    lines.push_back(buf);
  }
  return lines;
}

namespace {

constexpr std::chrono::milliseconds kDeadline(30000);

const char* KindOf(ParsedQuery::Aggregate a) {
  switch (a) {
    case ParsedQuery::Aggregate::kCount:
      return "count";
    case ParsedQuery::Aggregate::kSum:
      return "sum";
    case ParsedQuery::Aggregate::kAvg:
      return "avg";
    case ParsedQuery::Aggregate::kQuantile:
      return "quantile";
    case ParsedQuery::Aggregate::kTopK:
      return "topk";
  }
  return "?";
}

/// Client frame -> server FrameDecoder -> ParseRequest.
Result<Request> DecodeRequest(const Request& req) {
  FrameDecoder decoder;
  decoder.Feed(EncodeFrame(EncodeRequest(req)));
  ASSIGN_OR_RETURN(std::optional<std::string> payload, decoder.Next());
  if (!payload.has_value()) return Status::Internal("incomplete frame");
  return ParseRequest(*payload);
}

/// Server EncodeOkResponse + EncodeFrame -> client FrameDecoder ->
/// ParseResponse.
Status RoundTripResponse(const std::vector<std::string>& lines) {
  FrameDecoder decoder;
  decoder.Feed(EncodeFrame(EncodeOkResponse(lines)));
  ASSIGN_OR_RETURN(std::optional<std::string> payload, decoder.Next());
  if (!payload.has_value()) return Status::Internal("incomplete frame");
  return ParseResponse(*payload).status();
}

}  // namespace

Replayer::Replayer(std::shared_ptr<const EntropyEngine> engine)
    : engine_(std::move(engine)),
      cache_(4096),
      batcher_(QueryBatcher::Options()) {}

template <typename Q>
int64_t Replayer::Shards(const Q& q, const CountingQuery& where,
                         int64_t start, int32_t parent, uint64_t id,
                         SpanLog* log) {
  const ShardedStore* sharded = engine_->sharded();
  if (sharded == nullptr) return 0;
  std::vector<int64_t> shard_ns;
  int64_t cursor = start;
  for (size_t s = 0; s < sharded->num_shards(); ++s) {
    const auto zone = sharded->zone_map(s);
    if (sharded->zone_map_pruning() && zone != nullptr &&
        !zone->MightMatch(where, nullptr)) {
      ++shards_pruned_;
      continue;
    }
    ++shards_scanned_;
    RouteDecision d;
    const int64_t a = NowNs();
    const bool shard_ok = sharded->shard_engine(s).Answer(q, &d).ok();
    const int64_t b = NowNs();
    const SourceStore& store = sharded->shard(s);
    const bool sample = d.from_sample;
    const bool source_ok =
        sample ? store.sample_source(d.sample_index).Answer(q).ok()
               : store.summary(d.index).Answer(q).ok();
    const int64_t c = NowNs();
    if (!shard_ok || !source_ok) continue;
    ++routes_;
    sample_routes_ += sample;
    shard_ns.push_back(b - a);
    Sample("shard.answer_us", b - a);
    Sample("router.route_us", (b - a) - (c - b));
    Sample(sample ? "sampling.eval_us" : "maxent.eval_us", c - b);
    const int32_t span =
        log->Add("shard.answer", cursor, cursor + (b - a), parent, id);
    log->Add(sample ? "sampling.eval" : "maxent.eval",
             cursor + std::max<int64_t>(0, (b - a) - (c - b)),
             cursor + (b - a), span, id);
    cursor += b - a;
  }
  int64_t total = 0, slowest = 0;
  for (int64_t ns : shard_ns) {
    total += ns;
    slowest = std::max(slowest, ns);
  }
  if (!shard_ns.empty()) {
    samples_["shard.fanout"].push_back(static_cast<double>(shard_ns.size()));
    samples_["shard.skew"].push_back(static_cast<double>(slowest) *
                                     shard_ns.size() /
                                     std::max<int64_t>(1, total));
  }
  return total;
}

Status Replayer::Query(const std::string& text, uint64_t id, SpanLog* log) {
  const int64_t t0 = NowNs();
  const int32_t root = log->Add("request", t0, t0, -1, id);
  Request wire;
  wire.type = CommandType::kQuery;
  wire.query = text;
  ASSIGN_OR_RETURN(Request req, DecodeRequest(wire));
  const int64_t t1 = NowNs();
  log->Add("wire.codec", t0, t1, root, id);

  ASSIGN_OR_RETURN(
      ParsedQuery parsed,
      ParseQuery(req.query, engine_->attr_names(), engine_->domains()));
  const int64_t t2 = NowNs();
  log->Add("parser.parse", t1, t2, root, id);

  const std::string key = CanonicalQueryKey(parsed);
  std::optional<QueryResult> cached = cache_.Get(0, key);
  const int64_t t3 = NowNs();
  log->Add("cache.probe", t2, t3, root, id);

  QueryResult result;
  int64_t t4 = t3;
  const std::string kind = KindOf(parsed.aggregate);
  if (cached.has_value()) {
    result = *cached;
  } else if (parsed.aggregate == ParsedQuery::Aggregate::kCount) {
    // The server's COUNT path: admission queue, dispatcher wake-up,
    // AnswerAll, future.
    ASSIGN_OR_RETURN(QueryEstimate est,
                     batcher_.Submit(engine_, parsed.where, kDeadline));
    t4 = NowNs();
    result.estimate = est;
    result.count = est;
    result.has_moments = true;
    cache_.Put(0, key, result);
  } else {
    ASSIGN_OR_RETURN(result, AnswerParsed(*engine_, parsed));
    t4 = NowNs();
    cache_.Put(0, key, result);
  }

  const int64_t t5 = NowNs();
  std::vector<std::string> lines = ResultLines(result);
  lines.push_back(cached.has_value() ? "cached 1" : "cached 0");
  RETURN_NOT_OK(RoundTripResponse(lines));
  const int64_t t6 = NowNs();
  log->Add("wire.codec", t5, t6, root, id);
  log->End(root, t6);
  Sample("request_us", t6 - t0);
  Sample("request_us." + kind, t6 - t0);
  Sample("wire.codec_us", (t1 - t0) + (t6 - t5));
  Sample("parser.parse_us", t2 - t1);
  Sample("cache.probe_us", t3 - t2);
  if (cached.has_value()) return Status::OK();

  // The request is over; what follows re-times the layers under the
  // answer and draws them inside the spans they belong to.
  if (parsed.aggregate == ParsedQuery::Aggregate::kCount) {
    // The batcher's share is its span minus the engine's own answer,
    // which is drawn at the end of the batcher span.
    const int32_t hop = log->Add("batcher.submit", t3, t4, root, id);
    const int64_t e0 = NowNs();
    RETURN_NOT_OK(engine_->Answer(parsed.where).status());
    const int64_t engine_ns = NowNs() - e0;
    const int64_t start = std::max(t3, t4 - engine_ns);
    const int32_t engine = log->Add("engine.answer", start, t4, hop, id);
    const int64_t shards =
        Shards(parsed.where, parsed.where, start, engine, id, log);
    Sample("batcher.hop_us", (t4 - t3) - engine_ns);
    Sample("engine.answer_us." + kind, engine_ns);
    Sample("engine.answer_us", engine_ns);
    Sample("shard.merge_us", engine_ns - shards);
    return Status::OK();
  }
  const int32_t engine = log->Add("engine.answer", t3, t4, root, id);
  Sample("engine.answer_us." + kind, t4 - t3);
  Sample("engine.answer_us", t4 - t3);
  // SUM and AVG merge per-shard answers; QUANTILE and TOPK derive from
  // merged group-by marginals at the facade, so they get no shard split.
  if (parsed.aggregate == ParsedQuery::Aggregate::kSum ||
      parsed.aggregate == ParsedQuery::Aggregate::kAvg) {
    const std::vector<double> weights =
        BucketWeights(engine_->domains()[parsed.agg_attr]);
    const AggregateQuery q =
        parsed.aggregate == ParsedQuery::Aggregate::kSum
            ? AggregateQuery::Sum(parsed.agg_attr, weights, parsed.where)
            : AggregateQuery::Avg(parsed.agg_attr, weights, parsed.where);
    const int64_t shards = Shards(q, parsed.where, t3, engine, id, log);
    Sample("shard.merge_us", (t4 - t3) - shards);
  }
  return Status::OK();
}

Status Replayer::Batch(const std::vector<std::string>& texts, uint64_t id,
                       SpanLog* log) {
  const int64_t t0 = NowNs();
  const int32_t root = log->Add("request", t0, t0, -1, id);
  Request wire;
  wire.type = CommandType::kBatch;
  wire.queries = texts;
  ASSIGN_OR_RETURN(Request req, DecodeRequest(wire));
  const int64_t t1 = NowNs();
  log->Add("wire.codec", t0, t1, root, id);

  std::vector<CountingQuery> queries;
  std::vector<std::string> keys;
  for (const std::string& text : req.queries) {
    ASSIGN_OR_RETURN(
        ParsedQuery parsed,
        ParseQuery(text, engine_->attr_names(), engine_->domains()));
    keys.push_back(CanonicalQueryKey(parsed));
    queries.push_back(parsed.where);
  }
  const int64_t t2 = NowNs();
  log->Add("parser.parse", t1, t2, root, id);

  // A BATCH probes the cache for every slot before submitting the misses.
  std::vector<std::optional<QueryResult>> cached;
  for (const std::string& key : keys) cached.push_back(cache_.Get(0, key));
  const int64_t t3 = NowNs();
  log->Add("cache.probe", t2, t3, root, id);

  const auto deadline = std::chrono::steady_clock::now() + kDeadline;
  std::vector<std::future<Result<QueryEstimate>>> futures(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (cached[i].has_value()) continue;
    ASSIGN_OR_RETURN(futures[i],
                     batcher_.SubmitAsync(engine_, queries[i], deadline));
  }
  std::vector<std::string> lines;
  for (size_t i = 0; i < queries.size(); ++i) {
    QueryResult result;
    if (cached[i].has_value()) {
      result = *cached[i];
    } else {
      ASSIGN_OR_RETURN(result.estimate, futures[i].get());
      result.count = result.estimate;
      result.has_moments = true;
      cache_.Put(0, keys[i], result);
    }
    lines.push_back(ResultLines(result).front());
  }
  const int64_t t4 = NowNs();
  RETURN_NOT_OK(RoundTripResponse(lines));
  const int64_t t5 = NowNs();
  log->Add("wire.codec", t4, t5, root, id);
  log->End(root, t5);
  const double per_q = static_cast<double>(queries.size());
  Sample("request_us", t5 - t0);
  Sample("request_us.count", t5 - t0);
  samples_["wire.codec_us"].push_back(((t1 - t0) + (t5 - t4)) / 1e3 / per_q);
  samples_["parser.parse_us"].push_back((t2 - t1) / 1e3 / per_q);
  samples_["cache.probe_us"].push_back((t3 - t2) / 1e3 / per_q);

  // Re-time the engine's AnswerAll of the same queries and draw it at
  // the end of the batcher span.
  const int32_t hop = log->Add("batcher.submit", t3, t4, root, id);
  const int64_t e0 = NowNs();
  RETURN_NOT_OK(engine_->AnswerAll(queries).status());
  const int64_t all_ns = NowNs() - e0;
  log->Add("engine.answer_all", std::max(t3, t4 - all_ns), t4, hop, id);
  samples_["engine.answer_all_us_per_q"].push_back(all_ns / 1e3 / per_q);
  return Status::OK();
}

}  // namespace e2e
