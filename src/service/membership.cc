#include "src/service/membership.h"

#include <algorithm>
#include <utility>

#include "src/common/check.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"

namespace dynapipe::service {

MembershipCoordinator::MembershipCoordinator(
    runtime::InstructionStoreInterface* store, HeartbeatMonitor* monitor,
    RecoveryCoordinator* recovery, MembershipOptions options)
    : store_(store),
      monitor_(monitor),
      recovery_(recovery),
      options_(std::move(options)) {
  DYNAPIPE_CHECK(options_.spare_keys != nullptr);
  members_.insert(options_.initial_replicas.begin(),
                  options_.initial_replicas.end());
  recovery_->set_downstream(
      [this](const ReplicaEvent& event) { OnEvent(event); });
}

MembershipCoordinator::~MembershipCoordinator() {
  // set_downstream holds recovery's lock while swapping, and OnEvent is
  // invoked outside it — after this returns no new delivery can start on a
  // destroyed coordinator (the monitor's callback-drain protocol already
  // serialized the in-flight ones behind recovery's OnEvent).
  recovery_->set_downstream(nullptr);
}

MembershipReport MembershipCoordinator::report() const {
  std::lock_guard<std::mutex> lock(mu_);
  return report_;
}

std::vector<int32_t> MembershipCoordinator::ActiveMembers() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<int32_t> active;
  for (const int32_t replica : members_) {
    if (dead_.count(replica) == 0 && draining_.count(replica) == 0) {
      active.push_back(replica);
    }
  }
  return active;
}

int32_t MembershipCoordinator::ExpectedLocked() const {
  int32_t expected = 0;
  for (const int32_t replica : members_) {
    if (dead_.count(replica) == 0 && draining_.count(replica) == 0) {
      ++expected;
    }
  }
  return expected;
}

void MembershipCoordinator::OnEvent(const ReplicaEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (event.to) {
    case ReplicaLiveness::kAlive: {
      if (members_.count(event.replica) != 0 ||
          dead_.count(event.replica) != 0) {
        break;  // a known member proving liveness, or a zombie — not a join
      }
      // Join: admit, grow the expected fleet, seed the joiner with a fair
      // share of the most-loaded member's tail backlog. Admission keys off
      // the liveness event, not the attach frame: a wire joiner declared
      // intent with kAttachCapJoin, a shm joiner just announced itself —
      // both surface here as an unknown replica turning alive.
      common::TraceSpan span("join", "membership", /*iteration=*/0,
                             event.replica);
      members_.insert(event.replica);
      store_->UnfenceReplica(event.replica);  // re-admission after a drain
      const int32_t expected = ExpectedLocked();
      monitor_->set_expected_replicas(expected);
      report_.joined.push_back(event.replica);
      static common::Counter& joins =
          common::MetricsRegistry::Instance().GetCounter(
              "membership_joins_total");
      joins.Add();

      // Donor: the member with the deepest unfetched backlog that is alive
      // and not mid-drain.
      int32_t donor = -1;
      std::vector<int64_t> donor_pending;
      for (const int32_t member : members_) {
        if (member == event.replica || dead_.count(member) != 0 ||
            draining_.count(member) != 0 ||
            store_->IsReplicaFenced(member)) {
          continue;
        }
        std::vector<int64_t> pending = store_->PendingIterations(member);
        if (pending.size() > donor_pending.size()) {
          donor = member;
          donor_pending = std::move(pending);
        }
      }
      if (donor < 0 || donor_pending.empty()) {
        break;  // nothing resident to share; the joiner picks up reposts
      }
      int64_t share = static_cast<int64_t>(donor_pending.size()) /
                      std::max<int32_t>(expected, 1);
      if (options_.join_steal_max > 0) {
        share = std::min<int64_t>(share, options_.join_steal_max);
      }
      // Tail steal, like rebalance: the donor keeps the iterations it
      // reaches next (its fetch may already be in flight).
      int64_t moved = 0;
      for (auto it = donor_pending.rbegin();
           it != donor_pending.rend() && moved < share; ++it) {
        // Burn-on-allocation: a taken key advances, a vanished source means
        // the donor fetched it after all.
        for (int attempt = 0; attempt < 16; ++attempt) {
          const int64_t dst_iteration =
              options_.spare_keys->Next(event.replica);
          const runtime::RepostOutcome outcome =
              store_->Repost(*it, donor, dst_iteration, event.replica);
          if (outcome == runtime::RepostOutcome::kDestinationTaken) {
            continue;
          }
          if (outcome == runtime::RepostOutcome::kMoved) {
            ++moved;
            // The donor's poll loop stops at its first missing key, so hand
            // the vacated key back for reuse: a later repost to the donor
            // fills the gap instead of stranding a plan beyond it.
            options_.spare_keys->Release(donor, *it);
          }
          break;
        }
      }
      report_.join_stolen_iterations += moved;
      break;
    }
    case ReplicaLiveness::kDraining: {
      if (dead_.count(event.replica) != 0 ||
          draining_.count(event.replica) != 0) {
        break;  // zombie or duplicate request
      }
      // Drain: fence first so no in-flight rebalance/recovery move lands on
      // the leaver from here on, then hand its backlog to the survivors.
      common::TraceSpan span("drain", "membership", /*iteration=*/0,
                             event.replica);
      store_->FenceReplica(event.replica);
      draining_.insert(event.replica);
      members_.insert(event.replica);  // a drain implies membership
      std::vector<int32_t> survivors;
      for (const int32_t member : members_) {
        if (member == event.replica || dead_.count(member) != 0 ||
            draining_.count(member) != 0 ||
            store_->IsReplicaFenced(member)) {
          continue;
        }
        survivors.push_back(member);
      }
      const std::vector<int64_t> pending =
          store_->PendingIterations(event.replica);
      int64_t moved = 0;
      if (!survivors.empty()) {
        size_t next_survivor = 0;
        for (const int64_t iteration : pending) {
          const int32_t survivor = survivors[next_survivor];
          next_survivor = (next_survivor + 1) % survivors.size();
          for (int attempt = 0; attempt < 16; ++attempt) {
            const int64_t dst_iteration = options_.spare_keys->Next(survivor);
            const runtime::RepostOutcome outcome = store_->Repost(
                iteration, event.replica, dst_iteration, survivor);
            if (outcome == runtime::RepostOutcome::kDestinationTaken) {
              continue;
            }
            if (outcome == runtime::RepostOutcome::kMoved) {
              ++moved;
            }
            // kSourceGone: the leaver fetched it — in-flight work it will
            // finish before detaching. Nothing to move.
            break;
          }
        }
      }
      report_.drain_reposted_iterations += moved;
      // Shrink the expected fleet *after* the handoff: a retroactively
      // completed report set must see the reposted work already off the
      // leaver's key.
      monitor_->set_expected_replicas(ExpectedLocked());
      report_.drained.push_back(event.replica);
      static common::Counter& drains =
          common::MetricsRegistry::Instance().GetCounter(
              "membership_drains_total");
      drains.Add();
      // Green light. Over the wire the server replies kDrainAck when the
      // synchronous event chain (which ends here) returns; on shm this hook
      // flips the slot's drain word.
      if (options_.drain_ack) {
        options_.drain_ack(event.replica);
      }
      break;
    }
    case ReplicaLiveness::kDead: {
      // Recovery already moved (or dropped) the backlog; membership only
      // re-gates the fleet size. The fence, if any, stays: a dead replica
      // must never be a repost destination again.
      dead_.insert(event.replica);
      draining_.erase(event.replica);
      if (members_.count(event.replica) != 0) {
        monitor_->set_expected_replicas(ExpectedLocked());
      }
      break;
    }
    case ReplicaLiveness::kDetached: {
      if (draining_.count(event.replica) != 0) {
        // Clean exit of a drainer: the handoff already happened and the
        // expected count already shrank — just retire the member. The fence
        // stays up so a late rebalance can never target the departed id; a
        // re-join lifts it.
        draining_.erase(event.replica);
        members_.erase(event.replica);
      }
      break;
    }
    default:
      break;
  }
}

}  // namespace dynapipe::service
