#include "server/batcher.h"

#include <vector>

namespace entropydb {

QueryBatcher::QueryBatcher(Options options) : options_(options) {
  if (options_.start_worker) {
    worker_ = std::thread([this] { WorkerLoop(); });
  }
}

QueryBatcher::~QueryBatcher() { Stop(); }

Status QueryBatcher::AdmitLocked(size_t n) {
  if (stopped_) {
    return Status::ResourceExhausted("batcher stopped");
  }
  if (in_flight_ + n > options_.queue_capacity) {
    ++stats_.rejected;
    return Status::ResourceExhausted("admission queue full");
  }
  in_flight_ += n;
  stats_.accepted += n;
  return Status::OK();
}

void QueryBatcher::Release(size_t n, uint64_t expired) {
  std::lock_guard<std::mutex> lock(mu_);
  in_flight_ -= n;
  stats_.expired += expired;
}

template <typename T>
Result<T> QueryBatcher::Finish(size_t n,
                               std::chrono::steady_clock::time_point deadline,
                               Result<T> answer) {
  const auto now = std::chrono::steady_clock::now();
  const bool late = answer.ok() && deadline <= now;
  Release(n, late ? 1 : 0);
  if (late) return Status::DeadlineExceeded("query deadline exceeded");
  return answer;
}

Result<std::future<Result<QueryEstimate>>> QueryBatcher::SubmitAsync(
    std::shared_ptr<const EntropyEngine> engine, CountingQuery query,
    std::chrono::steady_clock::time_point deadline) {
  if (engine == nullptr) {
    return Status::InvalidArgument("null engine submitted");
  }
  std::future<Result<QueryEstimate>> future;
  {
    std::lock_guard<std::mutex> lock(mu_);
    RETURN_NOT_OK(AdmitLocked(1));
    Pending pending;
    pending.engine = std::move(engine);
    pending.query = std::move(query);
    pending.deadline = deadline;
    future = pending.promise.get_future();
    queue_.push_back(std::move(pending));
  }
  cv_.notify_one();
  return future;
}

Result<QueryEstimate> QueryBatcher::Submit(
    std::shared_ptr<const EntropyEngine> engine, CountingQuery query,
    std::chrono::milliseconds deadline) {
  const auto deadline_at = std::chrono::steady_clock::now() + deadline;
  if (engine == nullptr) {
    return Status::InvalidArgument("null engine submitted");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    RETURN_NOT_OK(AdmitLocked(1));
  }
  return Finish(1, deadline_at, engine->Answer(query));
}

Result<std::vector<QueryEstimate>> QueryBatcher::SubmitAll(
    std::shared_ptr<const EntropyEngine> engine,
    const std::vector<CountingQuery>& queries,
    std::chrono::milliseconds deadline) {
  const auto deadline_at = std::chrono::steady_clock::now() + deadline;
  if (engine == nullptr) {
    return Status::InvalidArgument("null engine submitted");
  }
  if (queries.empty()) return std::vector<QueryEstimate>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    RETURN_NOT_OK(AdmitLocked(queries.size()));
  }
  return Finish(queries.size(), deadline_at, engine->AnswerAll(queries));
}

std::vector<QueryBatcher::Pending> QueryBatcher::TakeBatchLocked() {
  std::vector<Pending> batch;
  if (queue_.empty()) return batch;
  const EntropyEngine* engine = queue_.front().engine.get();
  // One dispatch never mixes engines (= versions); entries for other
  // engines keep their order for a later dispatch.
  for (auto it = queue_.begin();
       it != queue_.end() && batch.size() < options_.max_batch;) {
    if (it->engine.get() == engine) {
      batch.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  return batch;
}

size_t QueryBatcher::DrainOnce() {
  std::vector<Pending> batch;
  {
    std::lock_guard<std::mutex> lock(mu_);
    batch = TakeBatchLocked();
    if (batch.empty()) return 0;
    ++stats_.batches;
  }
  // Fail entries whose deadline already passed instead of spending answer
  // work on a result nobody is waiting for. Slots are released before
  // promises resolve, so a caller holding its answer also sees its
  // admission slot free again.
  const auto now = std::chrono::steady_clock::now();
  std::vector<Pending> live;
  std::vector<Pending> expired;
  for (Pending& p : batch) {
    (p.deadline <= now ? expired : live).push_back(std::move(p));
  }
  if (!expired.empty()) {
    Release(expired.size(), expired.size());
    for (Pending& p : expired) {
      p.promise.set_value(Status::DeadlineExceeded("expired in queue"));
    }
  }
  if (live.empty()) return batch.size();

  std::vector<CountingQuery> queries;
  queries.reserve(live.size());
  for (const Pending& p : live) queries.push_back(p.query);
  auto answers = live.front().engine->AnswerAll(queries);
  std::vector<Result<QueryEstimate>> results;
  results.reserve(live.size());
  if (answers.ok()) {
    for (const QueryEstimate& est : *answers) results.emplace_back(est);
  } else {
    // AnswerAll fails as a whole when any one query does (an arity
    // mismatch, say); answered alone, each query's error reaches only its
    // own caller. Answer is bitwise AnswerAll's slot, so the others' values
    // do not depend on the failure.
    for (const Pending& p : live) results.push_back(p.engine->Answer(p.query));
  }
  Release(live.size(), 0);
  for (size_t i = 0; i < live.size(); ++i) {
    live[i].promise.set_value(std::move(results[i]));
  }
  return batch.size();
}

void QueryBatcher::WorkerLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopped_ || !queue_.empty(); });
      if (stopped_) return;
    }
    DrainOnce();
  }
}

void QueryBatcher::Stop() {
  std::deque<Pending> leftover;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
    leftover.swap(queue_);
    in_flight_ -= leftover.size();
  }
  cv_.notify_all();
  if (worker_.joinable()) worker_.join();
  for (Pending& p : leftover) {
    p.promise.set_value(Status::ResourceExhausted("batcher stopped"));
  }
}

QueryBatcher::Stats QueryBatcher::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace entropydb
