#include "server/batcher.h"

namespace entropydb {

Status QueryBatcher::Admit(size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  if (in_flight_ + n > options_.queue_capacity) {
    ++stats_.rejected;
    return Status::ResourceExhausted("admission queue full");
  }
  in_flight_ += n;
  stats_.accepted += n;
  return Status::OK();
}

Status QueryBatcher::Release(size_t n, bool ok,
                             std::chrono::steady_clock::time_point deadline) {
  const bool late = ok && deadline <= std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  in_flight_ -= n;
  if (!late) return Status::OK();
  ++stats_.expired;
  return Status::DeadlineExceeded("query deadline exceeded");
}

Result<QueryEstimate> QueryBatcher::Submit(
    std::shared_ptr<const EntropyEngine> engine, CountingQuery query,
    std::chrono::milliseconds deadline) {
  if (engine == nullptr) {
    return Status::InvalidArgument("null engine submitted");
  }
  const auto deadline_at = std::chrono::steady_clock::now() + deadline;
  return Run(1, deadline_at, [&] { return engine->Answer(query); });
}

Result<std::future<Result<QueryEstimate>>> QueryBatcher::SubmitAsync(
    std::shared_ptr<const EntropyEngine> engine, CountingQuery query,
    std::chrono::steady_clock::time_point deadline) {
  if (engine == nullptr) {
    return Status::InvalidArgument("null engine submitted");
  }
  bool admitted = false;
  Result<QueryEstimate> answer = Run(1, deadline, [&] {
    admitted = true;
    return engine->Answer(query);
  });
  if (!admitted) return answer.status();
  std::promise<Result<QueryEstimate>> answered;
  answered.set_value(std::move(answer));
  return answered.get_future();
}

QueryBatcher::Stats QueryBatcher::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace entropydb
