// Elastic executor membership: join, drain, and mid-epoch handoff.
//
// Recovery reacts to replicas that *die*; membership reacts to replicas that
// *arrive* or *leave on purpose*. The MembershipCoordinator subscribes to the
// liveness event stream downstream of RecoveryCoordinator (recovery acts
// first on every event, then forwards it here) and closes the two elastic
// loops:
//
//   join  — a replica outside the known fleet turns kAlive (a wire attach
//           with the kAttachCapJoin capability, or a bare shm
//           AnnounceReplica: admission is driven by the liveness event, so
//           the shm path needs no attach frame at all). The coordinator
//           admits it, grows the monitor's expected fleet size, and steals a
//           fair share of the most-loaded member's *tail* backlog to the
//           joiner at spare iteration keys — the joiner polls at the spare
//           base, so the stolen work is exactly what it finds.
//
//   drain — a member turns kDraining (wire kDrainRequest or the shm slot's
//           drain word). The coordinator fences it in the store (so a racing
//           rebalance or recovery move reads kDestinationTaken and retries
//           elsewhere), reposts its unfetched backlog round-robin to the
//           surviving members at spare keys, shrinks the expected fleet
//           size (which may retroactively complete straggler report sets),
//           and acknowledges — over the wire the server's kDrainAck reply
//           *is* the ack (the event chain runs synchronously inside
//           NotifyReplicaDrainRequested); on shm the coordinator calls the
//           drain_ack hook (ShmInstructionStore::AcknowledgeDrain). The
//           drainer then finishes in-flight work and detaches cleanly.
//
// Spare keys come from the same SpareKeyAllocator recovery and rebalance
// share, so the three coordinators moving plans into one store can never
// pick colliding destination keys.
//
// Thread-safe: events arrive from server connection handlers, the shm
// poller, and the watchdog concurrently. Construct after the
// RecoveryCoordinator (it registers as recovery's downstream) and destroy
// before it.
#ifndef DYNAPIPE_SRC_SERVICE_MEMBERSHIP_H_
#define DYNAPIPE_SRC_SERVICE_MEMBERSHIP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "src/runtime/instruction_store.h"
#include "src/service/heartbeat_monitor.h"
#include "src/service/recovery.h"

namespace dynapipe::service {

struct MembershipOptions {
  // The fleet configured at epoch start; replicas outside this set that turn
  // alive are joiners.
  std::vector<int32_t> initial_replicas;
  // Spare-key source (required), shared with recovery and rebalance so
  // destination keys never collide. Its base is normally the epoch's
  // iteration count (where open-ended executors poll).
  std::shared_ptr<SpareKeyAllocator> spare_keys;
  // Cap on backlog stolen for one joiner; 0 = the fair share
  // (donor backlog / new fleet size) with no cap.
  int32_t join_steal_max = 0;
  // Backend acknowledgement for a completed drain handoff. The shm path
  // passes ShmInstructionStore::AcknowledgeDrain; the wire path leaves it
  // null because the server's kDrainAck reply (sent after the synchronous
  // event chain returns) is the acknowledgement.
  std::function<void(int32_t)> drain_ack;
};

// What membership has done so far.
struct MembershipReport {
  std::vector<int32_t> joined;   // admission order
  std::vector<int32_t> drained;  // acknowledgement order
  int64_t join_stolen_iterations = 0;    // backlog moved to joiners
  int64_t drain_reposted_iterations = 0;  // backlog moved off drainers
};

class MembershipCoordinator {
 public:
  // Registers itself as `recovery`'s downstream event tap. No pointer is
  // owned; all must outlive the coordinator. The store must have a recovery
  // surface (supports_recovery()) — membership moves plans the same way
  // recovery does.
  MembershipCoordinator(runtime::InstructionStoreInterface* store,
                        HeartbeatMonitor* monitor,
                        RecoveryCoordinator* recovery,
                        MembershipOptions options);
  ~MembershipCoordinator();

  MembershipCoordinator(const MembershipCoordinator&) = delete;
  MembershipCoordinator& operator=(const MembershipCoordinator&) = delete;

  MembershipReport report() const;

  // The members currently counted toward the expected fleet size (admitted,
  // not dead, not draining), ascending. Diagnostic/test surface.
  std::vector<int32_t> ActiveMembers() const;

 private:
  void OnEvent(const ReplicaEvent& event);
  // Members currently expected to report each iteration. Caller holds mu_.
  int32_t ExpectedLocked() const;

  runtime::InstructionStoreInterface* store_;
  HeartbeatMonitor* monitor_;
  RecoveryCoordinator* recovery_;
  MembershipOptions options_;

  mutable std::mutex mu_;
  std::set<int32_t> members_;   // admitted fleet (initial + joiners)
  std::set<int32_t> draining_;  // drain handled, detach pending
  std::set<int32_t> dead_;      // sticky, mirrors the monitor
  MembershipReport report_;     // guarded by mu_
};

}  // namespace dynapipe::service

#endif  // DYNAPIPE_SRC_SERVICE_MEMBERSHIP_H_
