// Store-backend decorator: times every Push and Fetch from outside and tallies
// the encoded bytes each iteration published.
//
// PlanAheadOptions::store accepts any InstructionStoreInterface, so the
// benchmark hands the service this wrapper around the workload's real backend
// (shared-memory segment or mux client). The mux client and its server live
// for the whole run, like a long-lived plan store, while each pass builds a
// fresh service. The service's teardown Shutdown is therefore forwarded only
// when plans are still resident (an aborted pass, whose parked publishers
// must be released); a drained pass leaves the backend armed for the next.
#ifndef PERFBENCH_DRIVER_TIMED_STORE_H_
#define PERFBENCH_DRIVER_TIMED_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "perfbench/driver/spans.h"
#include "src/runtime/instruction_store.h"

namespace perfbench {

class TimedStore final : public dynapipe::runtime::InstructionStoreInterface {
 public:
  explicit TimedStore(
      std::shared_ptr<dynapipe::runtime::InstructionStoreInterface> backend)
      : backend_(std::move(backend)) {}

  void Push(int64_t iteration, int32_t replica,
            dynapipe::sim::ExecutionPlan plan) override {
    // The service publishes from one thread at a time, so the byte delta
    // around this Push is this plan's alone.
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++pushing_;
    }
    const int64_t before = backend_->serialized_bytes_total();
    {
      ScopedSpan span("transport.publish", iteration);
      backend_->Push(iteration, replica, std::move(plan));
    }
    const int64_t bytes = backend_->serialized_bytes_total() - before;
    std::lock_guard<std::mutex> lock(mu_);
    bytes_by_iteration_[iteration] += bytes;
    --pushing_;
    ++resident_;
  }

  dynapipe::sim::ExecutionPlan Fetch(int64_t iteration,
                                     int32_t replica) override {
    dynapipe::sim::ExecutionPlan plan;
    {
      ScopedSpan span("transport.fetch", iteration);
      plan = backend_->Fetch(iteration, replica);
    }
    std::lock_guard<std::mutex> lock(mu_);
    --resident_;
    return plan;
  }

  bool Contains(int64_t iteration, int32_t replica) const override {
    return backend_->Contains(iteration, replica);
  }
  size_t size() const override { return backend_->size(); }
  int64_t serialized_bytes_total() const override {
    return backend_->serialized_bytes_total();
  }

  void Shutdown() override {
    bool drained = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      drained = resident_ == 0 && pushing_ == 0;
    }
    if (!drained) {
      backend_->Shutdown();
    }
  }

  // Encoded bytes published for `iteration` (summed over its replicas).
  int64_t BytesFor(int64_t iteration) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = bytes_by_iteration_.find(iteration);
    return it == bytes_by_iteration_.end() ? 0 : it->second;
  }

 private:
  std::shared_ptr<dynapipe::runtime::InstructionStoreInterface> backend_;
  mutable std::mutex mu_;
  std::map<int64_t, int64_t> bytes_by_iteration_;  // guarded by mu_
  int64_t pushing_ = 0;                            // guarded by mu_
  int64_t resident_ = 0;                           // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_TIMED_STORE_H_
