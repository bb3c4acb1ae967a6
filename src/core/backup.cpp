#include "core/backup.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "common/logging.hpp"

namespace hbft {

void BackupNode::RunSlice(SimTime until) {
  while (!dead_ && !halted_ && runnable_ && hv_.clock() < until) {
    switch (state_) {
      case State::kRun: {
        SimTime horizon = scheduler_->NextEventTime();
        if (horizon > until) {
          horizon = until;
        }
        if (hv_.clock() >= horizon) {
          return;
        }
        GuestEvent event = hv_.RunGuest(horizon);
        if (dead_) {
          return;
        }
        switch (event.kind) {
          case GuestEvent::Kind::kNone:
            return;

          case GuestEvent::Kind::kTodRead:
            ServeTodRead();
            break;

          case GuestEvent::Kind::kIoCommand: {
            if (active_) {
              HandleIoInitiation(event.io);
            } else {
              // P3 / section 2.2 case (i): suppress, record as outstanding.
              outstanding_io_[event.io.guest_op_seq] = event.io;
              ++stats_.io_suppressed;
              hv_.CompleteIoCommand();
            }
            break;
          }

          case GuestEvent::Kind::kEpochEnd:
            RecordBoundaryFingerprint();
            if (active_) {
              ActiveBoundary();
            } else {
              state_ = State::kAwaitTme;
              TryAdvanceBoundary();
            }
            break;

          case GuestEvent::Kind::kHalted:
            FlushPendingAcks();  // The upstream may still be waiting on these.
            halted_ = true;
            return;
        }
        break;
      }
      case State::kStallTod:
        ServeTodRead();
        if (state_ == State::kStallTod) {
          FlushPendingAcks();  // Nothing else to do: don't sit on batched acks.
          runnable_ = false;
          return;
        }
        break;
      case State::kAwaitTme:
      case State::kAwaitEnd:
        TryAdvanceBoundary();
        if (state_ == State::kAwaitTme || state_ == State::kAwaitEnd) {
          FlushPendingAcks();
          runnable_ = false;
          return;
        }
        break;
      case State::kAwaitDownAcks:
      case State::kIoAwaitDownAcks:
        // Blocked states are resolved in OnMessage; nothing to do here.
        runnable_ = false;
        return;
    }
  }
}

void BackupNode::ServeTodRead() {
  // Forwarded values are consumed in order even after promotion: the dead
  // primary may have revealed I/O that depended on them.
  if (!env_values_.empty()) {
    const Message& msg = env_values_.front();
    HBFT_CHECK_EQ(msg.env_seq, next_env_seq_);
    ++next_env_seq_;
    ++stats_.env_values;
    hv_.CompleteTodRead(msg.env_value);
    env_values_.pop_front();
    state_ = State::kRun;
    runnable_ = true;
    return;
  }
  if (active_) {
    ServeTodLocally();
    return;
  }
  if (failure_detected_) {
    // The value never arrived, so the primary died before executing this
    // instruction; nothing after it reached the environment. Promote here.
    PromoteMidEpoch();
    ServeTodLocally();
    return;
  }
  state_ = State::kStallTod;  // Await the [E, seq, value] message.
}

void BackupNode::ServeTodLocally() {
  uint64_t value = TodNow();
  if (replicating_down()) {
    // Primary role: forward the environment value, continuing the dead
    // primary's numbering (all earlier values were relayed on receipt).
    Message msg;
    msg.type = MsgType::kEnvValue;
    msg.epoch = epoch_;
    msg.env_seq = down_env_seq_++;
    msg.env_value = value;
    SendDown(std::move(msg));
    ++stats_.env_values;
  }
  hv_.CompleteTodRead(value);
  state_ = State::kRun;
  runnable_ = true;
}

uint32_t BackupNode::DeliverForEpoch(uint64_t tme) {
  return hv_.DeliverEpochInterrupts(epoch_, tme, [this](const VirtualInterrupt& vi) {
    if (vi.io.has_value() && vi.io->guest_op_seq != 0) {
      outstanding_io_.erase(vi.io->guest_op_seq);
    }
  });
}

void BackupNode::TryAdvanceBoundary() {
  if (state_ == State::kAwaitTme) {
    if (!tme_queue_.empty()) {
      hv_.AdvanceClock(costs_.backup_boundary_cost);
      boundary_tme_ = tme_queue_.front();
      boundary_tme_valid_ = true;
      tme_queue_.pop_front();
      state_ = State::kAwaitEnd;
    } else if (failure_detected_) {
      PromoteAtBoundary();
      return;
    } else {
      return;  // Blocked.
    }
  }
  if (state_ == State::kAwaitEnd) {
    if (ends_received_ > epoch_) {
      // [end, E] received: deliver exactly what the primary delivered.
      DeliverForEpoch(boundary_tme_);
      boundary_tme_valid_ = false;
      ++epoch_;
      ++stats_.epochs;
      hv_.BeginEpoch();
      state_ = State::kRun;
      runnable_ = true;
      TransferBoundaryHook();
    } else if (failure_detected_) {
      PromoteAtBoundary();
    }
  }
}

void BackupNode::SynthesiseUncertainInterrupts() {
  // P7: every outstanding operation gets an uncertain completion, forcing the
  // guest driver down its retry path — the environment cannot distinguish
  // this from a transient device fault. The owning device model shapes each
  // completion, so every registered device is covered uniformly.
  for (const auto& [seq, io] : outstanding_io_) {
    VirtualDevice* device = hv_.devices().by_id(io.device_id);
    HBFT_CHECK(device != nullptr);
    IoCompletionPayload payload = device->MakeUncertainCompletion(io);
    // P1 in the primary role when relaying: the downstream backup must see
    // the same uncertain completions so it retires the same outstanding set.
    BufferAndRelay(std::move(payload), replicating_down());
    ++stats_.uncertain_synthesised;
  }
  outstanding_io_.clear();
}

void BackupNode::PromoteAtBoundary() {
  // P6: the expected [end, E] will never come. Deliver what the primary
  // relayed for this epoch, re-drive everything else via P7, take over.
  promoted_ = true;
  active_ = true;
  promotion_time_ = hv_.clock();
  // Completions relayed for epochs beyond E will never be delivered through
  // the protocol; drop them and let the uncertain path re-drive the ops.
  // (Channel FIFO order makes this vacuous — nothing sent after the missing
  // [end, E] can have arrived — but it is cheap insurance.)
  hv_.PurgeBufferedAfter(epoch_);
  deferred_up_acks_.clear();  // The upstream that expected them is dead.
  ack_pending_ = false;
  pending_ack_count_ = 0;
  uint64_t tme = boundary_tme_valid_ ? boundary_tme_ : TodNow();
  if (replicating_down() && !boundary_tme_valid_) {
    // The dead primary never prescribed this boundary: prescribe it for the
    // downstream backup ourselves. (If [Tme_p] did arrive, its relay already
    // went downstream.)
    Message msg;
    msg.type = MsgType::kTimeSync;
    msg.epoch = epoch_;
    msg.tod_value = tme;
    SendDown(std::move(msg));
  }
  SynthesiseUncertainInterrupts();
  FlushPendingInputs();
  DeliverForEpoch(tme);
  boundary_tme_valid_ = false;
  if (replicating_down()) {
    Message end;
    end.type = MsgType::kEpochEnd;
    end.epoch = epoch_;
    SendDown(std::move(end));
  }
  ++epoch_;
  ++stats_.epochs;
  hv_.BeginEpoch();
  state_ = State::kRun;
  runnable_ = true;
  TransferBoundaryHook();
}

void BackupNode::PromoteMidEpoch() {
  promoted_ = true;
  active_ = true;
  promotion_time_ = hv_.clock();
  hv_.PurgeBufferedAfter(epoch_);
  deferred_up_acks_.clear();
  ack_pending_ = false;
  pending_ack_count_ = 0;
  FlushPendingInputs();
  // Outstanding operations get their uncertain interrupts at the end of this
  // (failover) epoch, per P7 — ActiveBoundary handles it.
}

void BackupNode::FlushPendingInputs() {
  while (!pending_inputs_.empty()) {
    BufferAndRelay(std::move(pending_inputs_.front()), replicating_down());
    pending_inputs_.pop_front();
  }
}

void BackupNode::InjectInput(DeviceId device, const std::vector<uint8_t>& payload, SimTime t) {
  if (dead_ || halted_ || joining_) {
    return;  // A joiner never serves the environment; the world routes around it.
  }
  VirtualDevice* dev = hv_.devices().by_id(device);
  HBFT_CHECK(dev != nullptr);
  IoCompletionPayload completion;
  if (!dev->MakeInputCompletion(payload, &completion)) {
    return;
  }
  if (!active_) {
    pending_inputs_.push_back(std::move(completion));
    return;
  }
  CatchUpClock(t);
  hv_.AdvanceClock(costs_.hv_interrupt_deliver_cost);
  BufferAndRelay(std::move(completion), replicating_down());
}

void BackupNode::ActiveBoundary() {
  boundary_started_ = hv_.clock();
  Phase(FailPhase::kBeforeSendTme);
  if (dead_) {
    return;
  }
  hv_.AdvanceClock(costs_.epoch_boundary_fixed_cost);
  active_tme_ = TodNow();
  if (replicating_down()) {
    Message msg;
    msg.type = MsgType::kTimeSync;
    msg.epoch = epoch_;
    msg.tod_value = active_tme_;
    SendDown(std::move(msg));
  }
  Phase(FailPhase::kAfterSendTme);
  if (dead_) {
    return;
  }
  if (replicating_down() && replication_.variant == ProtocolVariant::kOriginal &&
      !BoundaryAcksSatisfied()) {
    state_ = State::kAwaitDownAcks;
    ack_wait_started_ = hv_.clock();
    runnable_ = false;
    return;
  }
  FinishActiveBoundary();
}

void BackupNode::FinishActiveBoundary() {
  Phase(FailPhase::kAfterAckWait);
  if (dead_) {
    return;
  }
  SynthesiseUncertainInterrupts();  // No-op except right after promotion.
  DeliverForEpoch(active_tme_);
  Phase(FailPhase::kAfterDeliver);
  if (dead_) {
    return;
  }
  if (replicating_down()) {
    Message end;
    end.type = MsgType::kEpochEnd;
    end.epoch = epoch_;
    SendDown(std::move(end));
    RecordEpochSentMark();
  }
  Phase(FailPhase::kAfterSendEnd);
  if (dead_) {
    return;
  }
  stats_.boundary_time += hv_.clock() - boundary_started_;
  ++epoch_;
  ++stats_.epochs;
  hv_.BeginEpoch();
  state_ = State::kRun;
  runnable_ = true;
  TransferBoundaryHook();
}

void BackupNode::HandleIoInitiation(const IoDescriptor& io) {
  Phase(FailPhase::kBeforeIoIssue, io.guest_op_seq);
  if (dead_) {
    return;
  }
  if (replicating_down() && replication_.variant == ProtocolVariant::kRevised &&
      !AllDownAcked()) {
    // Output commit, primary role (section 4.3).
    state_ = State::kIoAwaitDownAcks;
    gated_io_ = io;
    ack_wait_started_ = hv_.clock();
    runnable_ = false;
    return;
  }
  IssueRealIo(io);
  Phase(FailPhase::kAfterIoIssue, io.guest_op_seq);
  if (dead_) {
    return;
  }
  hv_.CompleteIoCommand();
}

void BackupNode::CompleteGatedIo() {
  HBFT_CHECK(gated_io_.has_value());
  stats_.ack_wait_time += hv_.clock() - ack_wait_started_;
  IoDescriptor io = *gated_io_;
  gated_io_.reset();
  state_ = State::kRun;
  runnable_ = true;
  IssueRealIo(io);
  Phase(FailPhase::kAfterIoIssue, io.guest_op_seq);
  if (dead_) {
    return;
  }
  hv_.CompleteIoCommand();
}

void BackupNode::RelayDownstream(const Message& msg) {
  Message copy = msg;  // The channel re-assigns the sequence number.
  SendDown(std::move(copy));
  ++stats_.relays_forwarded;
}

void BackupNode::ReleaseDeferredAcks() {
  // The i-th relay sent downstream releases the i-th deferred upstream ack
  // (both channels are FIFO, and once this node relays every downstream send
  // is a relay; `down_ack_base_` discounts the state-transfer chunks that a
  // rejoin put on the channel first). With ack batching one cumulative ack
  // covers every release in the batch.
  const bool coalesce = replication_.ack_batch > 1;
  bool released = false;
  uint64_t last = 0;
  while (!deferred_up_acks_.empty() && deferred_released_ + down_ack_base_ < down_acked_count_) {
    uint64_t seq = deferred_up_acks_.front();
    deferred_up_acks_.pop_front();
    ++deferred_released_;
    if (coalesce) {
      released = true;
      last = seq;
    } else {
      SendAckUp(seq);
    }
  }
  if (released) {
    SendAckUp(last);
  }
}

void BackupNode::OnMessage(const Message& msg, SimTime now) {
  if (dead_) {
    return;
  }
  CatchUpClock(now);

  if (msg.type == MsgType::kStateChunk) {
    // Live state transfer: only a joining replica consumes chunks, and FIFO
    // order means everything before the control chunk is a chunk.
    HBFT_CHECK(joining_) << "state chunk delivered to a non-joining replica";
    hv_.AdvanceClock(costs_.msg_receive_cpu_cost);
    ++stats_.messages_received;
    ApplyStateChunk(msg, now);
    // Ack immediately (never batched): the source's pre-copy window is paced
    // by these, and a parked joiner has no boundary to flush a batch at.
    SendAckUp(msg.seq);
    return;
  }
  HBFT_CHECK(!joining_) << "protocol message reached a replica still joining";

  if (msg.type == MsgType::kAck) {
    // Acknowledgment from this node's own downstream backup.
    hv_.AdvanceClock(costs_.ack_receive_cpu_cost);
    ++stats_.messages_received;
    ++stats_.acks_received;
    NoteDownAck(msg.ack_seq);
    ReleaseDeferredAcks();
    if (state_ == State::kAwaitDownAcks && BoundaryAcksSatisfied()) {
      stats_.ack_wait_time += hv_.clock() - ack_wait_started_;
      state_ = State::kRun;
      runnable_ = true;
      FinishActiveBoundary();
    } else if (state_ == State::kIoAwaitDownAcks && AllDownAcked()) {
      CompleteGatedIo();
    }
    return;
  }

  hv_.AdvanceClock(costs_.msg_receive_cpu_cost);
  ++stats_.messages_received;

  switch (msg.type) {
    case MsgType::kInterrupt: {
      VirtualInterrupt vi;
      vi.irq_line = msg.irq_lines;
      vi.epoch = msg.epoch;
      vi.io = msg.io;
      hv_.BufferInterrupt(vi);  // P4: buffer for delivery at end of epoch E.
      break;
    }
    case MsgType::kEnvValue:
      env_values_.push_back(msg);
      break;
    case MsgType::kTimeSync:
      tme_queue_.push_back(msg.tod_value);
      break;
    case MsgType::kEpochEnd:
      HBFT_CHECK_EQ(msg.epoch, ends_received_);
      ++ends_received_;
      break;
    case MsgType::kAck:
    case MsgType::kStateChunk:
      break;  // Both handled above.
  }

  if (replicating_down()) {
    // Chain: pass the protocol stream on, and ack upstream only once the
    // downstream backup has acknowledged the relay (cascaded acks), so the
    // primary's output-commit wait covers every surviving replica.
    RelayDownstream(msg);
    if (msg.type == MsgType::kEnvValue) {
      HBFT_CHECK_EQ(msg.env_seq, down_env_seq_);
      ++down_env_seq_;
    }
    deferred_up_acks_.push_back(msg.seq);
  } else {
    // P4. Boundary messages flush the batch: the sender's P2 wait begins
    // right after them, and a withheld ack would stall it.
    MaybeAckUp(msg.seq,
               msg.type == MsgType::kTimeSync || msg.type == MsgType::kEpochEnd);
  }

  // Unblock protocol waits satisfied by this message.
  if (state_ == State::kStallTod) {
    ServeTodRead();
  } else if (state_ == State::kAwaitTme || state_ == State::kAwaitEnd) {
    TryAdvanceBoundary();
  }
  if (state_ != State::kRun) {
    // Still parked: no RunSlice flush point will come until the sender makes
    // progress, and the sender may be waiting on exactly these acks.
    FlushPendingAcks();
  }
}

void BackupNode::SendAckUp(uint64_t seq) {
  Message ack;
  ack.type = MsgType::kAck;
  ack.ack_seq = seq;
  up_acked_any_ = true;
  last_up_ack_seq_ = seq;
  SendUp(std::move(ack));
}

void BackupNode::MaybeAckUp(uint64_t seq, bool force) {
  if (replication_.ack_batch <= 1) {
    SendAckUp(seq);
    return;
  }
  ack_pending_ = true;
  pending_ack_seq_ = seq;
  ++pending_ack_count_;
  if (force || pending_ack_count_ >= replication_.ack_batch) {
    FlushPendingAcks();
  }
}

void BackupNode::FlushPendingAcks() {
  if (!ack_pending_ || dead_) {
    return;
  }
  ack_pending_ = false;
  pending_ack_count_ = 0;
  SendAckUp(pending_ack_seq_);
}

void BackupNode::OnTransportReackNeeded(SimTime now) {
  // The upstream channel dropped stale frames: repeat the cumulative ack so
  // a lost final acknowledgment cannot leave the sender retransmitting
  // forever. Nothing to repeat before the first ack (the sender's own timer
  // keeps the window moving until one lands).
  if (dead_ || promoted_ || up_out_ == nullptr || !up_acked_any_) {
    return;
  }
  CatchUpClock(now);
  SendAckUp(last_up_ack_seq_);
}

void BackupNode::OnFailureDetected(SimTime t) {
  if (dead_ || halted_) {
    return;
  }
  failure_detected_ = true;
  CatchUpClock(t);
  if (state_ == State::kStallTod) {
    ServeTodRead();
  } else if (state_ == State::kAwaitTme || state_ == State::kAwaitEnd) {
    TryAdvanceBoundary();
  }
}

void BackupNode::OnDownstreamFailureDetected(SimTime t) {
  if (dead_ || halted_ || down_lost_) {
    return;
  }
  AbortStateTransfer();  // No-op unless the dead downstream was mid-join.
  down_lost_ = true;
  CatchUpClock(t);
  if (down_out_ != nullptr) {
    down_out_->AbandonRetransmits();  // Nothing will ever ack the window.
  }
  // Upstream acknowledgments deferred on the dead node's acks must go out
  // now or the primary stalls forever; one cumulative ack suffices.
  if (!deferred_up_acks_.empty()) {
    uint64_t last = deferred_up_acks_.back();
    deferred_up_acks_.clear();
    SendAckUp(last);
  }
  // Release any active-role wait on the dead node's acknowledgments.
  if (state_ == State::kAwaitDownAcks) {
    stats_.ack_wait_time += hv_.clock() - ack_wait_started_;
    state_ = State::kRun;
    runnable_ = true;
    FinishActiveBoundary();
  } else if (state_ == State::kIoAwaitDownAcks) {
    CompleteGatedIo();
  }
}

void BackupNode::HandleIoCompletion(const IoDescriptor& io, IoCompletionPayload payload,
                                    SimTime event_time) {
  // Active (promoted) role only: this node now drives the real devices.
  HBFT_CHECK(active_);
  (void)io;
  CatchUpClock(event_time);
  hv_.AdvanceClock(costs_.hv_interrupt_deliver_cost);
  BufferAndRelay(std::move(payload), replicating_down());  // P1, primary role.
}

void BackupNode::OnDownstreamAttached() {
  // The previous downstream (if any) is dead and its deferred acks were
  // flushed when its failure was detected; start clean for the joiner.
  down_lost_ = false;
  deferred_up_acks_.clear();
  deferred_released_ = 0;
  down_ack_base_ = 0;
}

void BackupNode::OnStateTransferCut() {
  // From here every upstream message is relayed to (or, when active, every
  // environment value is generated for) the joiner: its numbering continues
  // exactly after the values the snapshot already carries.
  down_env_seq_ = next_env_seq_ + env_values_.size();
  deferred_released_ = 0;
  down_ack_base_ = down_out_->messages_enqueued();
}

void BackupNode::CaptureResyncNodeState(SnapshotWriter& w) const {
  w.U64(epoch_);
  w.U64(next_env_seq_);
  w.U32(static_cast<uint32_t>(env_values_.size()));
  for (const Message& msg : env_values_) {
    w.U64(msg.env_seq);
    w.U64(msg.env_value);
  }
  // Standing source: the joiner mirrors this node's P5 bookkeeping — the
  // boundary messages received ahead of the cut travel in the snapshot, and
  // only post-cut messages are relayed. Active source: the joiner's next
  // [end, E] comes from this node's own boundary and carries E = epoch_.
  w.U64(active_ ? epoch_ : ends_received_);
  w.U32(static_cast<uint32_t>(tme_queue_.size()));
  for (uint64_t tme : tme_queue_) {
    w.U64(tme);
  }
  // Outstanding operations (the joiner's P7 re-drive set on a later
  // failover): suppressed initiations while standing, real in-flight
  // operations while active.
  if (active_) {
    CaptureOutstandingRealOps(w);
  } else {
    w.U32(static_cast<uint32_t>(outstanding_io_.size()));
    for (const auto& [seq, io] : outstanding_io_) {
      CaptureIoDescriptor(w, io);
    }
  }
}

void BackupNode::ApplyStateChunk(const Message& msg, SimTime now) {
  PhysicalMemory& memory = hv_.machine().memory();
  switch (msg.state_kind) {
    case StateChunkKind::kPage: {
      HBFT_CHECK_EQ(msg.state_data.size(), static_cast<size_t>(kPageBytes));
      HBFT_CHECK(msg.state_page < memory.PageCount());
      memory.WriteBlock(msg.state_page * kPageBytes, msg.state_data.data(), kPageBytes);
      break;
    }
    case StateChunkKind::kZeroRun: {
      HBFT_CHECK(msg.state_page_count > 0 &&
                 msg.state_page + msg.state_page_count <= memory.PageCount());
      // Later deltas may re-zero a page sent earlier: zero, don't assume.
      memory.ZeroPages(msg.state_page, msg.state_page_count);
      break;
    }
    case StateChunkKind::kControl: {
      SnapshotReader reader(msg.state_data);
      HBFT_CHECK(ReadSnapshotHeader(reader)) << "resync control snapshot: bad header";
      HBFT_CHECK(RestoreFromResync(reader)) << "resync control snapshot: malformed";
      HBFT_CHECK(reader.AtEnd()) << "resync control snapshot: trailing bytes";
      joining_ = false;
      joined_ = true;
      state_ = State::kRun;
      runnable_ = true;
      // The restored clock is the source's at the cut; this node handles the
      // arrival no earlier than now.
      CatchUpClock(now);
      join_time_ = hv_.clock();
      join_epoch_ = epoch_;
      if (on_joined_) {
        on_joined_(join_time_, join_epoch_);
      }
      break;
    }
  }
}

bool BackupNode::RestoreFromResync(SnapshotReader& r) {
  if (!hv_.RestoreState(r, /*include_memory=*/false)) {
    return false;
  }
  uint64_t env_count = 0;
  uint32_t env_count32 = 0;
  if (!r.U64(&epoch_) || !r.U64(&next_env_seq_) || !r.U32(&env_count32)) {
    return false;
  }
  env_count = env_count32;
  env_values_.clear();
  for (uint64_t i = 0; i < env_count; ++i) {
    Message msg;
    msg.type = MsgType::kEnvValue;
    if (!r.U64(&msg.env_seq) || !r.U64(&msg.env_value)) {
      return false;
    }
    env_values_.push_back(std::move(msg));
  }
  uint32_t tme_count = 0;
  if (!r.U64(&ends_received_) || !r.U32(&tme_count)) {
    return false;
  }
  tme_queue_.clear();
  for (uint32_t i = 0; i < tme_count; ++i) {
    uint64_t tme = 0;
    if (!r.U64(&tme)) {
      return false;
    }
    tme_queue_.push_back(tme);
  }
  uint32_t outstanding_count = 0;
  if (!r.U32(&outstanding_count)) {
    return false;
  }
  outstanding_io_.clear();
  for (uint32_t i = 0; i < outstanding_count; ++i) {
    IoDescriptor io;
    if (!RestoreIoDescriptor(r, &io)) {
      return false;
    }
    outstanding_io_[io.guest_op_seq] = std::move(io);
  }
  return true;
}

}  // namespace hbft
