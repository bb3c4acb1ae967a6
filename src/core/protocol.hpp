// Replica-coordination protocol: shared types and the replica-node base.
//
// This module is the paper's primary contribution. The protocol rules map to
// code as follows:
//   P1 — PrimaryNode::HandleIoCompletion / InjectInput: buffer the
//        interrupt, relay [E, Int] to the backup.
//   P2 — PrimaryNode boundary processing: send [Tme_p]; (original variant)
//        await acknowledgments for everything sent; add timer interrupts
//        based on Tme_p; deliver buffered interrupts; send [end, E].
//   P3 — the backup's hypervisor never connects real device interrupts to the
//        guest; completions reach it only as relayed messages.
//   P4 — BackupNode::OnMessage: acknowledge and buffer for delivery at the
//        end of epoch E.
//   P5 — BackupNode boundary processing: await [Tme_p], resynchronise clocks,
//        await [end, E], deliver.
//   P6 — BackupNode::PromoteAtBoundary after the failure detector fires.
//   P7 — uncertain interrupts synthesised for every outstanding I/O
//        operation at the end of a failover epoch, generically across every
//        registered device.
//
// The revised protocol of section 4.3 ("New" in Table 1) drops the ack wait
// in P2 and instead gates every device interaction on all-acked (output
// commit): ProtocolVariant::kRevised.
//
// The protocol is stated over the I/O axioms IO1/IO2, not over any concrete
// device: this layer sees devices only as DeviceId-tagged IoDescriptor
// initiations and IoCompletionPayload completions, dispatched through the
// node's DeviceRegistry (devices/virtual_device.hpp). Adding a device never
// touches core/.
//
// Chain extension (beyond the paper's pair): replicas form a chain
// primary -> backup_1 -> ... -> backup_k. Each interior backup relays the
// protocol stream it receives to its own backup and defers its upstream
// acknowledgment until the relay is acknowledged downstream, so the
// output-commit guarantee holds transitively: nothing the environment can
// observe depends on state that any surviving backup might not reach. A
// promoted backup re-protects itself by continuing to replicate to its own
// backup (rules P1/P2 with itself in the primary role).
#ifndef HBFT_CORE_PROTOCOL_HPP_
#define HBFT_CORE_PROTOCOL_HPP_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/snapshot.hpp"
#include "common/time.hpp"
#include "core/state_transfer.hpp"
#include "hypervisor/hypervisor.hpp"
#include "net/channel.hpp"

namespace hbft {

enum class ProtocolVariant {
  kOriginal,  // P2 awaits acknowledgments at every epoch boundary ("Old").
  kRevised,   // No boundary wait; acks required before device output ("New").
};

struct ReplicationConfig {
  uint64_t epoch_length = 4096;
  ProtocolVariant variant = ProtocolVariant::kOriginal;
  bool tlb_takeover = true;
  // Record a virtual-machine state fingerprint at every epoch boundary on
  // all replicas (lockstep audit; used by tests, off for benchmarks).
  bool audit_lockstep = false;

  // Epoch pipelining, generalising the original protocol's P2 ack wait: at
  // the boundary of epoch E the active replica waits only until everything
  // sent through epoch E - pipeline_depth is acknowledged, so up to
  // pipeline_depth epochs of protocol traffic may be in flight while the
  // guest runs ahead. 0 = the paper's exact rule (wait for everything,
  // including epoch E's own messages). The revised variant's output-commit
  // wait is never relaxed — device output still requires all-acked.
  uint32_t pipeline_depth = 0;

  // Ack batching (backup side): coalesce up to this many P4 acknowledgments
  // into one cumulative ack. Boundary messages ([Tme_p], [end, E]) and any
  // transition into a blocked state flush the batch, so no wait in the
  // protocol can starve. 1 = ack every message (the paper's behaviour).
  uint32_t ack_batch = 1;

  // Live state transfer (repair): pacing window, delta-convergence
  // threshold, and the pre-copy round cap.
  StateTransferConfig resync;
};

// The guest software to boot: an assembled image plus its interface symbols.
struct GuestProgram {
  const AssembledImage* image = nullptr;
  uint32_t entry_pc = 0;
  uint32_t wait_loop_begin = 0;  // Idle spin loop, for exact fast-forward.
  uint32_t wait_loop_end = 0;
};

// Injection point for the simulation's virtual-time events.
class EventScheduler {
 public:
  virtual ~EventScheduler() = default;
  virtual void ScheduleAt(SimTime t, std::function<void()> fn) = 0;
  // Earliest pending event, or SimTime::Max(). Nodes cap their run horizon
  // with this so events they scheduled themselves mid-slice (device
  // completions, timers) are handled at the right virtual time.
  virtual SimTime NextEventTime() const = 0;
};

// A schedulable actor (replica node or bare node) driven by the world loop.
class NodeActor {
 public:
  virtual ~NodeActor() = default;

  // Advances the node until its clock reaches `until`, it blocks on a
  // protocol wait, or it halts/dies.
  virtual void RunSlice(SimTime until) = 0;
  virtual bool runnable() const = 0;
  virtual SimTime clock() const = 0;
  virtual bool halted() const = 0;
  virtual bool dead() const = 0;
  // A replica still receiving a state transfer: parked, but neither halted
  // nor dead — the world must not wait on it to call a run complete.
  virtual bool joining() const { return false; }
};

// Protocol phases at which a failure can be injected, fired by whichever
// replica currently drives the devices (the primary, or a promoted backup).
enum class FailPhase {
  kNone,
  kBeforeSendTme,   // Epoch complete, [Tme_p] not yet sent.
  kAfterSendTme,    // [Tme_p] sent, acks not yet awaited.
  kAfterAckWait,    // Acks received, interrupts not yet delivered.
  kAfterDeliver,    // Interrupts delivered, [end, E] not yet sent.
  kAfterSendEnd,    // [end, E] sent, next epoch not yet started.
  kBeforeIoIssue,   // Guest initiated I/O; real device not yet touched.
  kAfterIoIssue,    // Real device operation in flight.
};

const char* FailPhaseName(FailPhase phase);

// A replica's place in the chain: the channels to its neighbours. Every
// field may be null — the primary has no upstream, the last backup has no
// downstream, and a pair degenerates to exactly the paper's topology.
struct NodeLinks {
  Channel* up_in = nullptr;     // Protocol stream from the upstream replica.
  Channel* up_out = nullptr;    // Acknowledgments to the upstream replica.
  Channel* down_out = nullptr;  // Protocol stream to the downstream replica.
  Channel* down_in = nullptr;   // Acknowledgments from the downstream replica.
};

// A real-device operation in flight at a crash, for IO2 resolution.
struct PendingRealOp {
  DeviceId device_id = DeviceId::kNone;
  uint64_t op_id = 0;
};

// Shared machinery for primary and backup replicas: the hypervisor (which
// owns the node's DeviceRegistry), channel endpoints, and bookkeeping.
// "Real device" methods are used by the primary from the start and by a
// backup after promotion.
class ReplicaNodeBase : public NodeActor {
 public:
  ReplicaNodeBase(int id, const GuestProgram& guest, const MachineConfig& machine_config,
                  const ReplicationConfig& replication, const CostModel& costs,
                  std::unique_ptr<DeviceRegistry> devices, const NodeLinks& links,
                  EventScheduler* scheduler);
  ~ReplicaNodeBase() override = default;

  SimTime clock() const override { return hv_.clock(); }
  bool runnable() const override { return runnable_ && !halted_ && !dead_; }
  bool halted() const override { return halted_; }
  bool dead() const override { return dead_; }
  bool joining() const override { return joining_; }

  Hypervisor& hypervisor() { return hv_; }
  const Hypervisor& hypervisor() const { return hv_; }
  DeviceRegistry& devices() { return hv_.devices(); }
  uint64_t epoch() const { return epoch_; }
  int id() const { return id_; }

  // Pending real-device operations (world resolves them at a crash).
  std::vector<PendingRealOp> PendingRealOps() const;

  // --- Repair: live state transfer (world wiring) ---------------------------

  // Source side: adopt a fresh joining downstream — point the node at the
  // new channel pair, reset downstream ack bookkeeping, and begin the
  // pre-copy stream. The node keeps executing; replication to the joiner
  // starts only at the cut.
  void AttachJoiningDownstream(Channel* down_out, Channel* down_in, SimTime t);

  // Receiver side: park the node in joining mode (memory zeroed, guest
  // never runs) until the transfer's control chunk restores a complete
  // machine, at which point it becomes a normal standing backup.
  void StartAsJoiner();

  bool transfer_active() const { return transfer_active_; }
  // Non-null from AttachJoiningDownstream on; the report survives the cut.
  const StateTransferSource* transfer_source() const { return transfer_.get(); }

  // Whether this node can adopt a joiner right now: it must have no
  // downstream it still believes alive. A node whose downstream died but
  // whose failure-detection event has not fired yet is NOT ready — attaching
  // then would race the pending detection callback into the fresh transfer.
  virtual bool CanAdoptJoiner() const = 0;

  // Joiner-side outcome, for scenario reports.
  bool joined() const { return joined_; }
  SimTime join_time() const { return join_time_; }
  uint64_t join_epoch() const { return join_epoch_; }

  // World callbacks: the source's cut (with its final report) and the
  // joiner's restore completion (with the epoch it resumes at).
  void set_on_resync_cut(std::function<void(SimTime, const StateTransferSource::Report&)> fn) {
    on_resync_cut_ = std::move(fn);
  }
  void set_on_joined(std::function<void(SimTime, uint64_t)> fn) { on_joined_ = std::move(fn); }

  // Environment input bound for the guest (console characters, NIC
  // packets), shaped by the owning device model into the one generic
  // completion path. Role-specific: the active replica buffers and relays;
  // a standing backup queues until promotion.
  virtual void InjectInput(DeviceId device, const std::vector<uint8_t>& payload, SimTime t) = 0;

  // Wired by the world: delivers queued channel messages to this node,
  // merging the upstream protocol stream and downstream acknowledgments in
  // arrival order.
  void PollIncoming(SimTime now);

  // Fail-stop crash: the node stops executing and its outbound channels
  // break; messages already sent still arrive (paper failure model).
  void Kill(SimTime t) {
    dead_ = true;
    runnable_ = false;
    if (up_out_ != nullptr) {
      up_out_->Break(t);
    }
    if (down_out_ != nullptr) {
      down_out_->Break(t);
    }
  }

  // The world's notification that this node's downstream backup died (the
  // failure detector saw its acknowledgments stop). The node stops
  // replicating downstream and releases any wait on the dead node's acks.
  virtual void OnDownstreamFailureDetected(SimTime t) = 0;

  struct Stats {
    uint64_t messages_sent = 0;
    uint64_t messages_received = 0;
    uint64_t acks_received = 0;
    uint64_t relays_forwarded = 0;
    uint64_t env_values = 0;
    uint64_t io_issued = 0;
    uint64_t io_suppressed = 0;
    uint64_t uncertain_synthesised = 0;
    uint64_t retransmit_rounds = 0;  // Go-back-N window re-sends triggered.
    uint64_t epochs = 0;
    SimTime ack_wait_time = SimTime::Zero();
    SimTime boundary_time = SimTime::Zero();  // Total epoch-boundary processing.
  };
  const Stats& stats() const { return stats_; }

  // Lockstep audit trail: one VM-state fingerprint per completed epoch
  // boundary, recorded at the identical instruction-stream point on all
  // replicas (requires ReplicationConfig::audit_lockstep).
  const std::vector<uint64_t>& boundary_fingerprints() const { return boundary_fingerprints_; }

  // Failure-injection hook, fired at each protocol phase of the node that
  // currently drives the devices, with the current epoch and the guest I/O
  // sequence number (0 outside I/O phases).
  void set_phase_hook(std::function<void(FailPhase, uint64_t, uint64_t)> hook) {
    phase_hook_ = std::move(hook);
  }

  // World wiring: wakes the neighbour so it polls at a message's arrival.
  void set_schedule_down_poll(std::function<void(SimTime)> fn) {
    schedule_down_poll_ = std::move(fn);
  }
  void set_schedule_up_poll(std::function<void(SimTime)> fn) {
    schedule_up_poll_ = std::move(fn);
  }

 protected:
  // Sends a protocol message downstream (primary role), charging CPU cost
  // and scheduling the downstream node's poll at the arrival time.
  void SendDown(Message msg);

  // Sends a message upstream (acknowledgments), same accounting.
  void SendUp(Message msg);

  void Phase(FailPhase phase, uint64_t io_seq = 0) {
    if (phase_hook_) {
      phase_hook_(phase, epoch_, io_seq);
    }
  }

  // Issues a guest I/O command against the real device backend; schedules
  // the completion event. Only the active replica calls this.
  void IssueRealIo(const IoDescriptor& io);

  // Handles a real device completion (primary role or promoted backup),
  // uniformly for every registered device. Pure: every concrete role must
  // say what a completion means for it, so a completion can never land on a
  // role that has no handler.
  virtual void HandleIoCompletion(const IoDescriptor& io, IoCompletionPayload payload,
                                  SimTime event_time) = 0;

  // Buffers `payload` for end-of-epoch delivery and relays it downstream
  // when `relay` is set: the shared half of P1 both roles call from their
  // HandleIoCompletion (and P7's synthesis path). Takes the payload by value
  // so the relay message can steal it — a disk-read completion carries an 8K
  // block.
  void BufferAndRelay(IoCompletionPayload payload, bool relay);

  uint64_t TodNow() const { return static_cast<uint64_t>(costs_.TodFromTime(hv_.clock())); }

  // The node handles an event no earlier than its wall-clock instant.
  void CatchUpClock(SimTime t) {
    if (hv_.clock() < t) {
      hv_.SetClock(t);
    }
  }

  int id_ = 0;
  ReplicationConfig replication_;
  CostModel costs_;
  Hypervisor hv_;
  Channel* up_in_ = nullptr;
  Channel* up_out_ = nullptr;
  Channel* down_out_ = nullptr;
  Channel* down_in_ = nullptr;
  EventScheduler* scheduler_ = nullptr;
  std::function<void(SimTime)> schedule_down_poll_;
  std::function<void(SimTime)> schedule_up_poll_;
  std::function<void(FailPhase, uint64_t, uint64_t)> phase_hook_;

  uint64_t epoch_ = 0;
  bool runnable_ = true;
  bool halted_ = false;
  bool dead_ = false;

  // Downstream ack accounting (paper P2/P4): down_out_->messages_enqueued()
  // vs acks seen on down_in_. The comparison is against unique messages
  // accepted by the channel, never wire sends — retransmissions must not
  // inflate the ack requirement. Vacuously true without a downstream
  // replica.
  uint64_t down_acked_count_ = 0;
  bool AllDownAcked() const {
    return down_out_ == nullptr || down_acked_count_ >= down_out_->messages_enqueued();
  }

  // Records a downstream cumulative ack: advances the ack count, releases
  // the channel's go-back-N window, and lets a paced state transfer send
  // its next chunks.
  void NoteDownAck(uint64_t ack_seq);

  // The pipelined boundary ack rule (see ReplicationConfig::pipeline_depth).
  // Falls back to the strict all-acked rule when no mark exists for the
  // window's trailing epoch (e.g. pre-promotion epochs on a promoted
  // backup) — running ahead is an optimisation, stalling is always safe.
  bool BoundaryAcksSatisfied() const;

  // Snapshot of messages enqueued downstream through this epoch's [end, E];
  // the pipelined wait at epoch E compares acks against the mark of epoch
  // E - pipeline_depth.
  void RecordEpochSentMark();
  std::map<uint64_t, uint64_t> epoch_sent_marks_;

  // --- Go-back-N retransmission driver (lossy links only) -------------------
  // One timer per node covers its downstream channel; the channel itself
  // decides whether a resend is due. The timer re-arms while the unacked
  // window is non-empty and dies with the node (or with its downstream).
  void EnsureRetransmitTimer();
  void OnRetransmitTimer(SimTime t);
  bool retx_timer_armed_ = false;

  // In-flight real-device operations: (device, backend op id) -> initiating
  // descriptor.
  std::map<std::pair<DeviceId, uint64_t>, IoDescriptor> pending_real_;

  // --- Live state transfer (source side) ------------------------------------
  // Chunks ride SendDown like protocol messages; pacing compares the
  // downstream channel's enqueued count against the cumulative acks.

  void BeginStateTransfer(SimTime t);
  // Sends chunks while the unacked window has room.
  void PumpStateTransfer();
  // Sends the queue head (a zero run or one page). `head_nonzero` says the
  // head is already known non-zero; returns whether the new head is.
  bool SendNextStateChunk(bool head_nonzero);
  // Called at the end of every completed epoch boundary: runs the delta
  // round, and performs the quiesce + cut once the dirty rate converges.
  void TransferBoundaryHook();
  // The joiner died mid-transfer: stop streaming and drop the tracking.
  void AbortStateTransfer();
  uint64_t UnackedDownstream() const;

  // Role-specific halves of the transfer. CaptureResyncNodeState writes the
  // protocol-layer state the joiner needs (epoch, environment-value
  // numbering, boundary bookkeeping, outstanding operations);
  // OnStateTransferCut flips the role into replicating to the joiner;
  // OnDownstreamAttached resets role bookkeeping tied to a previous
  // (now dead) downstream.
  virtual void CaptureResyncNodeState(SnapshotWriter& w) const = 0;
  virtual void OnStateTransferCut() = 0;
  virtual void OnDownstreamAttached() {}

  // Serialises the in-flight real operations (sorted by guest sequence
  // number): an active source's contribution to the joiner's outstanding
  // set — its guest has issued them, and a later P7 would re-drive them.
  void CaptureOutstandingRealOps(SnapshotWriter& w) const;

  bool joining_ = false;
  bool transfer_active_ = false;
  std::unique_ptr<StateTransferSource> transfer_;
  bool joined_ = false;
  SimTime join_time_ = SimTime::Zero();
  uint64_t join_epoch_ = 0;
  std::function<void(SimTime, const StateTransferSource::Report&)> on_resync_cut_;
  std::function<void(SimTime, uint64_t)> on_joined_;

  Stats stats_;

  void RecordBoundaryFingerprint() {
    if (replication_.audit_lockstep) {
      boundary_fingerprints_.push_back(hv_.machine().Fingerprint());
    }
  }
  std::vector<uint64_t> boundary_fingerprints_;

 private:
  friend class World;
  virtual void OnMessage(const Message& msg, SimTime now) = 0;

  // The upstream channel discarded stale/post-gap frames: repeat the
  // cumulative acknowledgment so a lost final ack cannot wedge the sender's
  // retransmit window. Only backups (which ack upstream) act on it.
  virtual void OnTransportReackNeeded(SimTime now) { (void)now; }

  // Completion event for a scheduled real operation: completes it at the
  // backend and hands the payload to the role's HandleIoCompletion.
  void OnRealOpComplete(DeviceId device_id, uint64_t op_id, SimTime event_time);
};

}  // namespace hbft

#endif  // HBFT_CORE_PROTOCOL_HPP_
