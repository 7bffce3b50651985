#include "src/service/rebalance.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"

namespace dynapipe::service {

namespace {
bool Contains(const std::vector<int32_t>& v, int32_t x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}
}  // namespace

RebalanceCoordinator::RebalanceCoordinator(
    runtime::InstructionStoreInterface* store, HeartbeatMonitor* monitor,
    RebalanceOptions options)
    : store_(store), monitor_(monitor), options_(std::move(options)) {
  DYNAPIPE_CHECK(options_.spare_keys != nullptr);
  monitor_->set_straggler_callback(
      [this](const IterationHeartbeatStats& stats) {
        OnIterationComplete(stats);
      });
}

RebalanceCoordinator::~RebalanceCoordinator() {
  // Drains in-flight deliveries before returning, so OnIterationComplete can
  // never run on a destroyed coordinator.
  monitor_->set_straggler_callback(nullptr);
}

RebalanceReport RebalanceCoordinator::report() const {
  std::lock_guard<std::mutex> lock(mu_);
  return report_;
}

void RebalanceCoordinator::OnIterationComplete(
    const IterationHeartbeatStats& stats) {
  std::lock_guard<std::mutex> lock(mu_);
  // Streak bookkeeping: the callback fires only on complete report sets, so
  // every configured replica either straggled this iteration or kept pace —
  // keeping pace resets its streak.
  for (const int32_t replica : options_.replicas) {
    if (Contains(stats.stragglers, replica)) {
      ++consecutive_[replica];
    } else {
      consecutive_[replica] = 0;
    }
  }

  for (const int32_t slow : stats.stragglers) {
    if (!Contains(options_.replicas, slow)) {
      continue;
    }
    if (consecutive_[slow] < options_.consecutive_flags) {
      continue;  // not persistent yet
    }
    const auto cooldown = cooldown_until_.find(slow);
    if (cooldown != cooldown_until_.end() &&
        stats.iteration < cooldown->second) {
      continue;  // hysteresis: recently shed work, let it show in the walls
    }
    if (monitor_->Liveness(slow) == ReplicaLiveness::kDead) {
      continue;  // recovery's problem now, not rebalance's
    }
    // Fast replicas: configured, kept pace this iteration, not dead, and
    // not fenced mid-drain. (A drain landing after this snapshot is still
    // safe: the store-level fence answers the Repost with kDestinationTaken
    // and the key chain retries.)
    std::vector<int32_t> destinations;
    for (const int32_t replica : options_.replicas) {
      if (replica == slow || Contains(stats.stragglers, replica) ||
          monitor_->Liveness(replica) == ReplicaLiveness::kDead ||
          store_->IsReplicaFenced(replica)) {
        continue;
      }
      destinations.push_back(replica);
    }
    if (destinations.empty()) {
      continue;  // everyone else is slow, dead, or fenced — nothing to do
    }
    // Steal from the *tail* of the backlog: the slow replica keeps the
    // iterations it reaches next (its fetch may already be in flight), and
    // the furthest-future plans are the ones a fast replica overtakes.
    const std::vector<int64_t> pending = store_->PendingIterations(slow);
    int32_t moved = 0;
    size_t next_destination = 0;
    for (auto it = pending.rbegin();
         it != pending.rend() && moved < options_.max_moves_per_event; ++it) {
      const int32_t destination =
          destinations[next_destination % destinations.size()];
      // Same burn-on-allocation discipline as recovery: a taken key advances,
      // a vanished source means the slow replica fetched it after all.
      for (int attempt = 0; attempt < 16; ++attempt) {
        const int64_t dst_iteration = options_.spare_keys->Next(destination);
        const runtime::RepostOutcome outcome =
            store_->Repost(*it, slow, dst_iteration, destination);
        if (outcome == runtime::RepostOutcome::kDestinationTaken) {
          continue;
        }
        if (outcome == runtime::RepostOutcome::kMoved) {
          common::TraceSpan span("rebalanced", "plan", *it, slow);
          ++moved;
          ++next_destination;
          // The straggler is alive and still polling in key order: release
          // the vacated key so any later repost to it fills the gap rather
          // than landing beyond a hole it will never cross.
          options_.spare_keys->Release(slow, *it);
          static common::Counter& moved_total =
              common::MetricsRegistry::Instance().GetCounter(
                  "rebalance_moved_total");
          moved_total.Add();
        }
        break;
      }
    }
    if (moved > 0) {
      ++report_.events;
      report_.moved_iterations += moved;
      if (!Contains(report_.sources, slow)) {
        report_.sources.push_back(slow);
      }
      cooldown_until_[slow] =
          stats.iteration + options_.hysteresis_iterations;
      consecutive_[slow] = 0;  // a fresh streak must build before the next
      static common::Counter& events =
          common::MetricsRegistry::Instance().GetCounter(
              "rebalance_events_total");
      events.Add();
    }
  }
}

}  // namespace dynapipe::service
