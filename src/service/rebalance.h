// Mid-epoch straggler rebalancing: the performance half of the reaction path.
//
// RecoveryCoordinator reacts to *death*; RebalanceCoordinator reacts to
// *slowness*. It subscribes to the HeartbeatMonitor's straggler signal (the
// per-iteration stats fired when an iteration's report set completes) and,
// when a replica has been flagged on enough consecutive iterations, moves
// part of its *unfetched* pending backlog onto fast replicas — the same
// store-level Repost key move recovery uses, at spare iteration numbers from
// the same SpareKeyAllocator (shared, so the two coordinators can never pick
// colliding destinations). The slow replica keeps the iterations it will
// reach first; only the tail of its backlog migrates, because that is the
// work a faster replica can overtake.
//
// Three policy knobs keep one noisy iteration from thrashing plans around:
//   - consecutive_flags: a replica must straggle this many iterations in a
//     row before anything moves (a single GC pause or page-fault storm never
//     triggers);
//   - max_moves_per_event: at most this many plans migrate per trigger, so a
//     borderline replica sheds load gradually;
//   - hysteresis_iterations: after moving, the replica is immune for this
//     many iterations — time for the lighter backlog to show up in its wall
//     times before it can be flagged again.
//
// Destinations are the configured replicas that neither straggled on the
// triggering iteration, nor are declared dead, nor are fenced mid-drain.
//
// Thread-safe: the straggler callback arrives from whatever thread delivered
// the completing heartbeat (a server connection handler or the shm
// poller). Construct after the monitor, destroy first — the
// destructor unregisters the callback and drains in-flight deliveries.
#ifndef DYNAPIPE_SRC_SERVICE_REBALANCE_H_
#define DYNAPIPE_SRC_SERVICE_REBALANCE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "src/runtime/instruction_store.h"
#include "src/service/heartbeat_monitor.h"
#include "src/service/recovery.h"

namespace dynapipe::service {

struct RebalanceOptions {
  // Consecutive straggler-flagged iterations before a replica sheds work.
  int32_t consecutive_flags = 3;
  // Plans migrated per trigger.
  int32_t max_moves_per_event = 2;
  // Iterations a replica is immune after shedding work.
  int64_t hysteresis_iterations = 4;
  // The replica set rebalancing may move work between.
  std::vector<int32_t> replicas;
  // Spare-key source (required), shared with the RecoveryCoordinator and
  // MembershipCoordinator moving plans into the same store.
  std::shared_ptr<SpareKeyAllocator> spare_keys;
};

// What rebalancing has done so far.
struct RebalanceReport {
  int64_t events = 0;            // triggers that actually moved >= 1 plan
  int64_t moved_iterations = 0;  // plans migrated in total
  // Replicas that shed work, in first-trigger order (no duplicates).
  std::vector<int32_t> sources;
};

class RebalanceCoordinator {
 public:
  // Registers itself as `monitor`'s straggler callback (requires the
  // monitor's expected_replicas to be set — with an unknown fleet size no
  // iteration ever "completes" and the signal never fires). Neither pointer
  // is owned; both must outlive the coordinator.
  RebalanceCoordinator(runtime::InstructionStoreInterface* store,
                       HeartbeatMonitor* monitor, RebalanceOptions options);
  ~RebalanceCoordinator();

  RebalanceCoordinator(const RebalanceCoordinator&) = delete;
  RebalanceCoordinator& operator=(const RebalanceCoordinator&) = delete;

  RebalanceReport report() const;

 private:
  void OnIterationComplete(const IterationHeartbeatStats& stats);

  runtime::InstructionStoreInterface* store_;
  HeartbeatMonitor* monitor_;
  RebalanceOptions options_;

  mutable std::mutex mu_;
  RebalanceReport report_;                     // guarded by mu_
  std::map<int32_t, int32_t> consecutive_;     // replica -> flags in a row
  std::map<int32_t, int64_t> cooldown_until_;  // replica -> immune below this
};

}  // namespace dynapipe::service

#endif  // DYNAPIPE_SRC_SERVICE_REBALANCE_H_
