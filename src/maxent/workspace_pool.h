#ifndef ENTROPYDB_MAXENT_WORKSPACE_POOL_H_
#define ENTROPYDB_MAXENT_WORKSPACE_POOL_H_

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "maxent/polynomial.h"
#include "maxent/variable_registry.h"

namespace entropydb {

/// \brief A lock-free pool of EvalWorkspaces over one (polynomial, state)
/// pair, so concurrent queries on one summary scale with cores instead of
/// serializing behind a mutex.
///
/// Construction warms ONE workspace fully (the O(all groups) factor-cache
/// build) and hands its immutable cache to every other slot by shared_ptr;
/// a slot's private masked scratch is then built lazily the first time a
/// thread acquires it, and reused across queries after that. Because every
/// slot computes against the identical factor cache, estimates are
/// bitwise-stable regardless of which slot (or thread) serves a query.
///
/// Acquire() claims a slot with one atomic exchange per probe — no mutex,
/// no blocking. When every slot is busy (more concurrent queries than
/// slots) it falls back to a transient heap workspace sharing the same
/// cache: always correct, just paying a scratch allocation, so the pool
/// never becomes a queue.
class WorkspacePool {
  struct Slot;  // defined below; forward-declared for Lease

 public:
  /// `capacity` = 0 sizes the pool to the hardware (at least 2 slots, so
  /// single-core hosts still exercise the multi-slot path under test
  /// threads). Every workspace serves `poly` and `state`; `state` must
  /// already be solved and must not change while the pool lives.
  WorkspacePool(const CompressedPolynomial& poly, const ModelState& state,
                size_t capacity = 0) {
    if (capacity == 0) {
      unsigned hw = std::thread::hardware_concurrency();
      capacity = hw > 2 ? hw : 2;
    }
    slots_ = std::vector<Slot>(capacity);
    // Warm slot 0 eagerly: builds the shared factor cache and gives the
    // caller the unmasked P without a separate evaluation.
    full_value_ = poly.PrepareWorkspace(state, &slots_[0].ws).value;
    for (size_t i = 1; i < slots_.size(); ++i) {
      slots_[i].ws.ShareCacheWith(slots_[0].ws);
    }
  }

  WorkspacePool(const WorkspacePool&) = delete;
  WorkspacePool& operator=(const WorkspacePool&) = delete;

  /// RAII claim on one workspace; releases the slot (or frees the transient
  /// overflow workspace) on destruction.
  class Lease {
   public:
    Lease(Lease&& o) noexcept
        : ws_(o.ws_), slot_(o.slot_), overflow_(std::move(o.overflow_)) {
      o.ws_ = nullptr;
      o.slot_ = nullptr;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease& operator=(Lease&&) = delete;
    ~Lease() {
      if (slot_ != nullptr) slot_->busy.store(false, std::memory_order_release);
    }

    EvalWorkspace* get() const { return ws_; }
    EvalWorkspace* operator->() const { return ws_; }
    EvalWorkspace& operator*() const { return *ws_; }
    /// True when this lease had to allocate outside the fixed slots.
    bool is_overflow() const { return overflow_ != nullptr; }

   private:
    friend class WorkspacePool;
    Lease(EvalWorkspace* ws, Slot* slot,
          std::unique_ptr<EvalWorkspace> overflow)
        : ws_(ws), slot_(slot), overflow_(std::move(overflow)) {}

    EvalWorkspace* ws_;
    Slot* slot_;
    std::unique_ptr<EvalWorkspace> overflow_;
  };

  /// Claims a free workspace (lock-free; never blocks). The rotating start
  /// hint spreads concurrent callers across slots so the common case is one
  /// successful exchange.
  Lease Acquire() const {
    const size_t n = slots_.size();
    const size_t start = next_.fetch_add(1, std::memory_order_relaxed) % n;
    for (size_t probe = 0; probe < n; ++probe) {
      Slot& slot = slots_[(start + probe) % n];
      if (slot.busy.load(std::memory_order_relaxed)) continue;
      if (!slot.busy.exchange(true, std::memory_order_acquire)) {
        return Lease(&slot.ws, &slot, nullptr);
      }
    }
    // All slots busy: transient workspace sharing the warm cache.
    auto ws = std::make_unique<EvalWorkspace>();
    ws->ShareCacheWith(slots_[0].ws);
    EvalWorkspace* raw = ws.get();
    return Lease(raw, nullptr, std::move(ws));
  }

  size_t capacity() const { return slots_.size(); }
  /// Unmasked P, from the eager warm-up.
  double full_value() const { return full_value_; }

 private:
  struct Slot {
    std::atomic<bool> busy{false};
    EvalWorkspace ws;
  };

  mutable std::vector<Slot> slots_;
  mutable std::atomic<size_t> next_{0};
  double full_value_ = 0.0;
};

}  // namespace entropydb

#endif  // ENTROPYDB_MAXENT_WORKSPACE_POOL_H_
