#include "src/transport/control_plane.h"

#include <chrono>
#include <thread>
#include <utility>

#include "src/common/check.h"

namespace dynapipe::transport {

ControlPlane::ControlPlane(ControlPlaneOptions options)
    : monitor_(options.monitor),
      spare_keys_(
          std::make_shared<service::SpareKeyAllocator>(options.spare_base)) {
  DYNAPIPE_CHECK_MSG(!options.membership || options.recovery,
                     "membership subscribes downstream of recovery");
  runtime::InstructionStoreInterface* store = nullptr;
  if (options.backend == ControlPlaneOptions::Backend::kUnixSocketMux) {
    wire_store_ = std::make_shared<runtime::InstructionStore>(
        runtime::InstructionStoreOptions{/*serialized=*/true,
                                         options.store_capacity});
    // kHeartbeat, attach, detach and drain frames reach the monitor through
    // the store's heartbeat sink.
    wire_store_->set_heartbeat_sink(&monitor_);
    transport_.emplace(options.endpoint);
    store = wire_store_.get();
  } else {
    ShmStoreOptions shm_options;
    shm_options.capacity = options.store_capacity;
    shm_store_ = ShmInstructionStore::Create(options.endpoint, shm_options);
    store = shm_store_.get();
  }

  if (options.recovery) {
    options.recovery->replicas = options.fleet;
    options.recovery->spare_keys = spare_keys_;
    recovery_.emplace(store, &monitor_, std::move(*options.recovery));
  }
  if (options.rebalance) {
    options.rebalance->replicas = options.fleet;
    options.rebalance->spare_keys = spare_keys_;
    rebalance_.emplace(store, &monitor_, std::move(*options.rebalance));
  }
  if (options.membership) {
    options.membership->initial_replicas = options.fleet;
    options.membership->spare_keys = spare_keys_;
    options.membership->drain_ack = nullptr;
    if (shm_store_ != nullptr) {
      options.membership->drain_ack = [shm = shm_store_.get()](int32_t r) {
        shm->AcknowledgeDrain(r);
      };
    }
    membership_.emplace(store, &monitor_, &*recovery_,
                        std::move(*options.membership));
  }
}

void ControlPlane::Start() {
  DYNAPIPE_CHECK(!server_.has_value() && !poller_.has_value());
  if (wire_store_ != nullptr) {
    server_.emplace(&*transport_, wire_store_.get());
  } else {
    poller_.emplace(shm_store_, &monitor_);
  }
}

std::shared_ptr<runtime::InstructionStoreInterface> ControlPlane::store()
    const {
  if (wire_store_ != nullptr) {
    return wire_store_;
  }
  return shm_store_;
}

bool ControlPlane::AwaitReplicas(int32_t replicas, double timeout_ms) const {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double, std::milli>(timeout_ms);
  while (static_cast<int32_t>(monitor_.KnownReplicas().size()) < replicas) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

std::vector<RemoteReplicaStats> ControlPlane::CollectRemoteStats(
    int timeout_ms) {
  if (!server_.has_value()) {
    return {};
  }
  return server_->CollectRemoteStats(timeout_ms);
}

ControlPlaneReport ControlPlane::report() const {
  ControlPlaneReport report;
  if (recovery_.has_value()) {
    report.recovery = recovery_->report();
  }
  if (rebalance_.has_value()) {
    report.rebalance = rebalance_->report();
  }
  if (membership_.has_value()) {
    report.membership = membership_->report();
    report.active_members = membership_->ActiveMembers();
  }
  return report;
}

}  // namespace dynapipe::transport
