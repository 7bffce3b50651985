// Degraded-mode recovery: the reaction half of the failure control loop.
//
// The HeartbeatMonitor *detects* (liveness state machine, ReplicaEvent
// stream); RecoveryCoordinator *acts*. It subscribes to the monitor's events
// and, on a kDead transition, executes the re-publish protocol:
//
//   1. snapshot the dead replica's unfetched backlog
//      (InstructionStore::PendingIterations);
//   2. move each resident plan to a surviving replica, round-robin, at a
//      *spare* iteration number (store-level Repost — plans are byte-stable
//      and keyed by (iteration, replica), so re-publish is a key move, no
//      re-plan, no re-encode). Spare numbers come from the shared
//      SpareKeyAllocator, whose base is the epoch's iteration count and
//      which grows per survivor, because an open-ended executor that
//      drained its own epoch keeps polling exactly there — the reposted
//      work is what it finds;
//   3. record the recovery (dead replicas, replanned iteration count,
//      detect-to-repost wall ms) for IterationRecord/EpochResult.
//
// FailurePolicy::kFailFast instead shuts the store down on the first death —
// every Push parked in capacity backpressure unblocks, the epoch aborts, and
// the caller reads fail_fast_triggered. kDegradeAndContinue (the default) is
// the paper-adjacent elastic behavior: finish the epoch on the survivors.
//
// Thread-safe: events arrive from server connection handlers and the
// monitor's watchdog concurrently. The coordinator unregisters itself from
// the monitor on destruction (construct it after the monitor, destroy it
// first).
#ifndef DYNAPIPE_SRC_SERVICE_RECOVERY_H_
#define DYNAPIPE_SRC_SERVICE_RECOVERY_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "src/runtime/instruction_store.h"
#include "src/service/heartbeat_monitor.h"

namespace dynapipe::service {

// Hands out spare destination iteration numbers for re-published plans, one
// monotonic counter per destination replica starting at `base`. A key is
// burned the moment it is handed out — never reissued — so a destination
// that turns out taken (RepostOutcome::kDestinationTaken) is simply skipped
// and the next key tried, instead of being retried forever (the bug that
// silently lost every subsequent repost to that survivor). One allocator is
// *shared* by every coordinator moving plans into the same store (recovery +
// rebalance + membership), so their spare keys can never collide either.
//
// Release() is the hole-filler for *live* steal victims. An executor polls
// its keys strictly in order and gives up at the first gap, so a replica's
// pending set must stay contiguous from its poll cursor. A tail steal (join
// admission, straggler rebalance) vacates the victim's highest keys; if a
// later repost targeted that victim at a fresh key *beyond* the gap, the
// victim would idle out at the gap and strand the plan forever. Movers
// therefore release each stolen source key, and Next() reissues released
// keys smallest-first before minting fresh ones — reposts fill the gap,
// and any keys left unfilled form a trailing gap the victim cleanly ends
// on. (Keys of *dead* replicas are never released: the dead are never
// repost destinations, so their gaps are unreachable either way.)
// Thread-safe.
class SpareKeyAllocator {
 public:
  explicit SpareKeyAllocator(int64_t base) : base_(base) {}

  int64_t Next(int32_t replica) {
    std::lock_guard<std::mutex> lock(mu_);
    auto freed = released_.find(replica);
    if (freed != released_.end() && !freed->second.empty()) {
      const int64_t key = *freed->second.begin();
      freed->second.erase(freed->second.begin());
      return key;
    }
    auto [it, inserted] = next_.emplace(replica, base_);
    return it->second++;
  }

  // A tail steal vacated `key` on `replica`; reissue it before any fresh
  // key so reposts to that replica fill the gap in its poll sequence.
  void Release(int32_t replica, int64_t key) {
    std::lock_guard<std::mutex> lock(mu_);
    released_[replica].insert(key);
  }

 private:
  const int64_t base_;
  std::mutex mu_;
  std::map<int32_t, int64_t> next_;  // replica -> next spare iteration
  std::map<int32_t, std::set<int64_t>> released_;  // vacated, smallest first
};

enum class FailurePolicy : uint8_t {
  // First kDead aborts the epoch: the store shuts down (unblocking parked
  // pushes) and no plans move.
  kFailFast = 0,
  // Re-publish the dead replica's backlog to survivors and keep going.
  kDegradeAndContinue,
};

struct RecoveryOptions {
  FailurePolicy policy = FailurePolicy::kDegradeAndContinue;
  // The full replica set; survivors = replicas minus the dead so far. A
  // death outside this set (an unknown attacher) is recorded but moves no
  // plans — there is nothing published under its id.
  std::vector<int32_t> replicas;
  // Spare-key source (required). Its base is the first iteration number
  // free on every survivor — normally the epoch's iteration count, so
  // reposts land exactly where an open-ended executor polls after draining
  // its own share. Shared with every other coordinator moving plans into
  // the same store, so they can never pick colliding destination keys.
  std::shared_ptr<SpareKeyAllocator> spare_keys;
};

// What recovery has done so far; copied into EpochResult by the trainer.
struct RecoveryReport {
  std::vector<int32_t> dead_replicas;  // declaration order
  int64_t replanned_iterations = 0;    // plans moved to survivors
  int64_t dropped_iterations = 0;      // no survivor left to take them
  double recovery_ms = 0.0;            // total detect -> re-publish wall time
  bool fail_fast_triggered = false;
};

class RecoveryCoordinator {
 public:
  // Registers itself as `monitor`'s event callback. Neither pointer is
  // owned; both must outlive the coordinator. The store must be one with a
  // recovery surface (supports_recovery()) — the in-process store or the shm
  // segment; recovery always runs in the process where the plans live.
  RecoveryCoordinator(runtime::InstructionStoreInterface* store,
                      HeartbeatMonitor* monitor, RecoveryOptions options);
  ~RecoveryCoordinator();

  RecoveryCoordinator(const RecoveryCoordinator&) = delete;
  RecoveryCoordinator& operator=(const RecoveryCoordinator&) = delete;

  // Forwards every ReplicaEvent (after recovery acted on it) to `downstream`
  // — the MembershipCoordinator's subscription point, and an observation tap
  // for tests and logging. Same drain rule as the monitor's callbacks:
  // swapping the downstream out (to nullptr at subscriber teardown) does not
  // return while a delivery is mid-flight on another thread.
  void set_downstream(std::function<void(const ReplicaEvent&)> downstream);

  RecoveryReport report() const;

 private:
  void OnEvent(const ReplicaEvent& event);

  runtime::InstructionStoreInterface* store_;
  HeartbeatMonitor* monitor_;
  RecoveryOptions options_;

  mutable std::mutex mu_;
  RecoveryReport report_;                    // guarded by mu_
  std::function<void(const ReplicaEvent&)> downstream_;  // guarded by mu_
  // Downstream deliveries currently running outside mu_; set_downstream
  // drains them so the subscriber can unregister at its own teardown.
  int downstream_in_flight_ = 0;  // guarded by mu_
  mutable std::condition_variable downstream_cv_;
};

}  // namespace dynapipe::service

#endif  // DYNAPIPE_SRC_SERVICE_RECOVERY_H_
