// The publisher-side control plane: heartbeats in, plan moves out.
//
//   executors ─> server (mux wire) | poller (shm slots) ─> HeartbeatMonitor
//   HeartbeatMonitor ─events─> RecoveryCoordinator ─> MembershipCoordinator
//   HeartbeatMonitor ─straggler signal─> RebalanceCoordinator
//
// ControlPlane owns that whole stack, so its construction and teardown order
// lives in one place: member declaration order. First the monitor, then the
// backend (a serialized InstructionStore whose heartbeat sink is the
// monitor plus the socket transport, or the shm segment), then one
// SpareKeyAllocator shared by every coordinator, then the optional
// coordinators, and last the event source (InstructionStoreServer or
// ShmHeartbeatPoller). Two ordering rules follow:
//   - Subscribe before serving. The socket is bound (or the segment exists)
//     once the constructor returns, so an executor may already be waiting;
//     its attach, death or join is only delivered after Start(), by which
//     time every coordinator is subscribed. Between the two, callers may
//     pre-publish a backlog through store().
//   - The event source stops first: it is destroyed before any coordinator
//     unsubscribes and before the store or monitor die.
// ControlPlane itself starts no thread.
#ifndef DYNAPIPE_SRC_TRANSPORT_CONTROL_PLANE_H_
#define DYNAPIPE_SRC_TRANSPORT_CONTROL_PLANE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/runtime/instruction_store.h"
#include "src/service/heartbeat_monitor.h"
#include "src/service/membership.h"
#include "src/service/rebalance.h"
#include "src/service/recovery.h"
#include "src/transport/shm_store.h"
#include "src/transport/store_server.h"
#include "src/transport/transport.h"

namespace dynapipe::transport {

struct ControlPlaneOptions {
  // --- Backend endpoint (deployment) ---
  enum class Backend : uint8_t {
    kUnixSocketMux,  // serve a serialized store on `endpoint`, a socket path
    kSharedMemory,   // create the segment named `endpoint` ("/name")
  };
  Backend backend = Backend::kUnixSocketMux;
  std::string endpoint;
  // Resident-plan bound of the store (Push backpressure); 0 = unbounded.
  size_t store_capacity = 0;

  service::HeartbeatMonitorOptions monitor;
  // The replicas plans are published for. Fills RecoveryOptions::replicas,
  // RebalanceOptions::replicas and MembershipOptions::initial_replicas.
  std::vector<int32_t> fleet;
  // First spare iteration key of the shared allocator — normally the
  // epoch's iteration count, where open-ended executors poll once they have
  // drained their own share.
  int64_t spare_base = 0;
  // Coordinators; unset ones are not built. The control plane overwrites
  // each one's replica list, spare_keys and drain_ack. Membership requires
  // recovery (it subscribes downstream of it).
  std::optional<service::RecoveryOptions> recovery;
  std::optional<service::RebalanceOptions> rebalance;
  std::optional<service::MembershipOptions> membership;
};

// The coordinators' reports, each empty when that coordinator is unset.
struct ControlPlaneReport {
  service::RecoveryReport recovery;
  service::RebalanceReport rebalance;
  service::MembershipReport membership;
  // MembershipCoordinator::ActiveMembers at report time.
  std::vector<int32_t> active_members;
};

class ControlPlane {
 public:
  // Builds every member and subscribes every coordinator; nothing is
  // delivered to them until Start().
  explicit ControlPlane(ControlPlaneOptions options);

  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  // Starts serving (mux) or polling the segment's heartbeat slots (shm).
  // Call once.
  void Start();

  // The store plans are published into: the server-side InstructionStore
  // (mux) or the segment (shm).
  std::shared_ptr<runtime::InstructionStoreInterface> store() const;
  service::HeartbeatMonitor& monitor() { return monitor_; }

  // Fleet barrier: waits until the monitor knows at least `replicas`
  // replicas (attached executors); false when `timeout_ms` passes first.
  bool AwaitReplicas(int32_t replicas, double timeout_ms) const;

  // Mux only: each stats-capable attached executor's metrics snapshot
  // (InstructionStoreServer::CollectRemoteStats). Empty on shm or before
  // Start().
  std::vector<RemoteReplicaStats> CollectRemoteStats(int timeout_ms);

  ControlPlaneReport report() const;

 private:
  service::HeartbeatMonitor monitor_;
  std::shared_ptr<runtime::InstructionStore> wire_store_;  // mux
  std::optional<UnixSocketTransport> transport_;           // mux
  std::shared_ptr<ShmInstructionStore> shm_store_;         // shm
  std::shared_ptr<service::SpareKeyAllocator> spare_keys_;
  std::optional<service::RecoveryCoordinator> recovery_;
  std::optional<service::RebalanceCoordinator> rebalance_;
  std::optional<service::MembershipCoordinator> membership_;
  // Event sources, created by Start() and destroyed first.
  std::optional<InstructionStoreServer> server_;  // mux
  std::optional<ShmHeartbeatPoller> poller_;      // shm
};

}  // namespace dynapipe::transport

#endif  // DYNAPIPE_SRC_TRANSPORT_CONTROL_PLANE_H_
