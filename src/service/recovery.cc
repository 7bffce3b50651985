#include "src/service/recovery.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/common/check.h"
#include "src/common/metrics.h"

namespace dynapipe::service {

RecoveryCoordinator::RecoveryCoordinator(
    runtime::InstructionStoreInterface* store, HeartbeatMonitor* monitor,
    RecoveryOptions options)
    : store_(store), monitor_(monitor), options_(std::move(options)) {
  DYNAPIPE_CHECK(options_.spare_keys != nullptr);
  monitor_->set_event_callback(
      [this](const ReplicaEvent& event) { OnEvent(event); });
}

RecoveryCoordinator::~RecoveryCoordinator() {
  // Drains in-flight deliveries before returning, so OnEvent can never run
  // on a destroyed coordinator.
  monitor_->set_event_callback(nullptr);
}

void RecoveryCoordinator::set_downstream(
    std::function<void(const ReplicaEvent&)> downstream) {
  std::unique_lock<std::mutex> lock(mu_);
  downstream_ = std::move(downstream);
  // Swapping the downstream out (to nullptr at subscriber teardown) must not
  // return while a delivery is mid-flight on another thread — the subscriber
  // is about to be destroyed. New deliveries see the new downstream.
  downstream_cv_.wait(lock, [&] { return downstream_in_flight_ == 0; });
}

RecoveryReport RecoveryCoordinator::report() const {
  std::lock_guard<std::mutex> lock(mu_);
  return report_;
}

void RecoveryCoordinator::OnEvent(const ReplicaEvent& event) {
  if (event.to == ReplicaLiveness::kDead) {
    const auto t0 = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lock(mu_);
    report_.dead_replicas.push_back(event.replica);
    if (options_.policy == FailurePolicy::kFailFast) {
      report_.fail_fast_triggered = true;
      lock.unlock();
      // Unblocks every Push parked in capacity backpressure (including ones
      // stalled on the dead replica's unfetched slots) and disarms future
      // pushes: the epoch is over.
      store_->Shutdown();
      lock.lock();
    } else {
      // Survivors: the configured set minus everyone declared dead so far,
      // minus anyone fenced mid-drain — a leaver handing off its own backlog
      // must not inherit a dead replica's. (The store-level fence catches the
      // race where the drain lands after this snapshot: the Repost comes back
      // kDestinationTaken and the key chain advances.)
      std::vector<int32_t> survivors;
      for (const int32_t replica : options_.replicas) {
        if (std::find(report_.dead_replicas.begin(),
                      report_.dead_replicas.end(),
                      replica) == report_.dead_replicas.end() &&
            !store_->IsReplicaFenced(replica)) {
          survivors.push_back(replica);
        }
      }
      const std::vector<int64_t> pending =
          store_->PendingIterations(event.replica);
      if (survivors.empty()) {
        // Nobody left to take the work; free the slots so parked pushes
        // unblock, and record the loss.
        report_.dropped_iterations +=
            static_cast<int64_t>(store_->DropReplica(event.replica));
      } else {
        size_t next_survivor = 0;
        for (const int64_t iteration : pending) {
          const int32_t survivor = survivors[next_survivor];
          next_survivor = (next_survivor + 1) % survivors.size();
          // Spare keys are burned on allocation: a taken destination means
          // *that key* is unusable (someone else published there), not that
          // the plan is unrecoverable — advance to the next key and retry.
          // Collapsing the two failure modes used to wedge the survivor's
          // counter on a taken key and silently lose every later repost.
          for (int attempt = 0; attempt < 16; ++attempt) {
            const int64_t dst_iteration = options_.spare_keys->Next(survivor);
            const runtime::RepostOutcome outcome = store_->Repost(
                iteration, event.replica, dst_iteration, survivor);
            if (outcome == runtime::RepostOutcome::kDestinationTaken) {
              continue;
            }
            if (outcome == runtime::RepostOutcome::kMoved) {
              ++report_.replanned_iterations;
              static common::Counter& reposts =
                  common::MetricsRegistry::Instance().GetCounter(
                      "recovery_reposts_total");
              reposts.Add();
            }
            // kSourceGone: fetched in a race — the work already happened.
            // kUnsupported: this store cannot move plans; nothing to do.
            break;
          }
        }
      }
    }
    const double recovery_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    report_.recovery_ms += recovery_ms;
    lock.unlock();
    static common::LatencyHistogram& recovery_us =
        common::MetricsRegistry::Instance().GetHistogram("recovery_us");
    recovery_us.RecordMs(recovery_ms);
  }
  std::function<void(const ReplicaEvent&)> downstream;
  {
    std::lock_guard<std::mutex> lock(mu_);
    downstream = downstream_;
    if (downstream) {
      ++downstream_in_flight_;
    }
  }
  if (downstream) {
    downstream(event);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --downstream_in_flight_;
    }
    downstream_cv_.notify_all();
  }
}

}  // namespace dynapipe::service
