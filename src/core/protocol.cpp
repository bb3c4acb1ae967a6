#include "core/protocol.hpp"

#include <algorithm>
#include <vector>

#include "common/check.hpp"
#include "common/logging.hpp"

namespace hbft {

const char* FailPhaseName(FailPhase phase) {
  switch (phase) {
    case FailPhase::kNone:
      return "none";
    case FailPhase::kBeforeSendTme:
      return "before-send-tme";
    case FailPhase::kAfterSendTme:
      return "after-send-tme";
    case FailPhase::kAfterAckWait:
      return "after-ack-wait";
    case FailPhase::kAfterDeliver:
      return "after-deliver";
    case FailPhase::kAfterSendEnd:
      return "after-send-end";
    case FailPhase::kBeforeIoIssue:
      return "before-io-issue";
    case FailPhase::kAfterIoIssue:
      return "after-io-issue";
  }
  return "unknown";
}

namespace {

MachineConfig WithHostFirst(MachineConfig config, int node_id) {
  config.trap_mode = TrapMode::kHostFirst;
  // Per-machine hardware nondeterminism (TLB victim choice) is seeded by the
  // node id — different on every replica, as on real hardware.
  config.machine_seed = config.machine_seed * 1000003ULL + static_cast<uint64_t>(node_id) + 1;
  return config;
}

HypervisorConfig HvConfigFrom(const ReplicationConfig& replication) {
  HypervisorConfig hv;
  hv.epoch_length = replication.epoch_length;
  hv.tlb_takeover = replication.tlb_takeover;
  return hv;
}

}  // namespace

ReplicaNodeBase::ReplicaNodeBase(int id, const GuestProgram& guest,
                                 const MachineConfig& machine_config,
                                 const ReplicationConfig& replication, const CostModel& costs,
                                 std::unique_ptr<DeviceRegistry> devices, const NodeLinks& links,
                                 EventScheduler* scheduler)
    : id_(id),
      replication_(replication),
      costs_(costs),
      hv_(WithHostFirst(machine_config, id), HvConfigFrom(replication), costs,
          std::move(devices)),
      up_in_(links.up_in),
      up_out_(links.up_out),
      down_out_(links.down_out),
      down_in_(links.down_in),
      scheduler_(scheduler) {
  HBFT_CHECK(guest.image != nullptr);
  hv_.machine().LoadImage(*guest.image);
  hv_.machine().cpu().pc = guest.entry_pc;
  if (guest.wait_loop_end > guest.wait_loop_begin) {
    hv_.machine().ConfigureIdleLoop(guest.wait_loop_begin, guest.wait_loop_end);
  }
  // The guest boots at virtual privilege 0 = real privilege 1, VM off, IE off.
  hv_.machine().cpu().cr[kCrStatus] = 1;
  hv_.BeginEpoch();
}

std::vector<PendingRealOp> ReplicaNodeBase::PendingRealOps() const {
  std::vector<PendingRealOp> ops;
  ops.reserve(pending_real_.size());
  for (const auto& [key, io] : pending_real_) {
    ops.push_back(PendingRealOp{key.first, key.second});
  }
  return ops;
}

void ReplicaNodeBase::PollIncoming(SimTime now) {
  if (dead_) {
    return;
  }
  // Merge the two inbound channels by arrival time (upstream first on ties,
  // deterministically).
  while (true) {
    std::optional<SimTime> up = up_in_ != nullptr ? up_in_->NextArrival() : std::nullopt;
    std::optional<SimTime> down = down_in_ != nullptr ? down_in_->NextArrival() : std::nullopt;
    Channel* source = nullptr;
    if (up.has_value() && *up <= now && (!down.has_value() || *up <= *down)) {
      source = up_in_;
    } else if (down.has_value() && *down <= now) {
      source = down_in_;
    } else {
      break;
    }
    auto msg = source->Receive(now);
    if (!msg.has_value()) {
      continue;  // Lossy link: stale/post-gap frames were consumed and discarded.
    }
    OnMessage(*msg, now);
    if (dead_) {
      return;
    }
  }
  if (up_in_ != nullptr && up_in_->TakeReackRequested()) {
    OnTransportReackNeeded(now);
  }
}

void ReplicaNodeBase::SendDown(Message msg) {
  HBFT_CHECK(down_out_ != nullptr);
  hv_.AdvanceClock(costs_.msg_send_cpu_cost);
  auto arrival = down_out_->Send(std::move(msg), hv_.clock());
  if (!arrival.has_value()) {
    return;  // Channel broken: the message vanishes with the receiver.
  }
  ++stats_.messages_sent;
  if (schedule_down_poll_) {
    schedule_down_poll_(*arrival);
  }
  EnsureRetransmitTimer();
}

void ReplicaNodeBase::EnsureRetransmitTimer() {
  if (retx_timer_armed_ || down_out_ == nullptr || !down_out_->NeedsRetransmitTimer()) {
    return;
  }
  auto deadline = down_out_->NextRetransmitDeadline();
  if (!deadline.has_value()) {
    return;
  }
  SimTime at = std::max(*deadline, hv_.clock());
  retx_timer_armed_ = true;
  scheduler_->ScheduleAt(at, [this, at] { OnRetransmitTimer(at); });
}

void ReplicaNodeBase::OnRetransmitTimer(SimTime t) {
  retx_timer_armed_ = false;
  if (dead_ || down_out_ == nullptr) {
    return;
  }
  Channel::RetransmitResult result = down_out_->MaybeRetransmit(t);
  if (result.frames > 0) {
    ++stats_.retransmit_rounds;
    if (result.last_arrival.has_value() && schedule_down_poll_) {
      schedule_down_poll_(*result.last_arrival);
    }
  }
  EnsureRetransmitTimer();  // Re-arm while the unacked window is non-empty.
}

bool ReplicaNodeBase::BoundaryAcksSatisfied() const {
  if (down_out_ == nullptr) {
    return true;
  }
  const uint32_t depth = replication_.pipeline_depth;
  if (depth == 0) {
    return AllDownAcked();
  }
  if (epoch_ < depth) {
    return true;  // The pipeline has not filled yet.
  }
  auto it = epoch_sent_marks_.find(epoch_ - depth);
  if (it == epoch_sent_marks_.end()) {
    return AllDownAcked();
  }
  return down_acked_count_ >= it->second;
}

void ReplicaNodeBase::RecordEpochSentMark() {
  if (down_out_ == nullptr || replication_.pipeline_depth == 0) {
    return;
  }
  epoch_sent_marks_[epoch_] = down_out_->messages_enqueued();
  // Marks older than the pipeline window can never be consulted again.
  while (!epoch_sent_marks_.empty() &&
         epoch_sent_marks_.begin()->first + replication_.pipeline_depth < epoch_) {
    epoch_sent_marks_.erase(epoch_sent_marks_.begin());
  }
}

void ReplicaNodeBase::SendUp(Message msg) {
  HBFT_CHECK(up_out_ != nullptr);
  hv_.AdvanceClock(costs_.msg_send_cpu_cost);
  auto arrival = up_out_->Send(std::move(msg), hv_.clock());
  if (!arrival.has_value()) {
    return;
  }
  ++stats_.messages_sent;
  if (schedule_up_poll_) {
    schedule_up_poll_(*arrival);
  }
}

void ReplicaNodeBase::IssueRealIo(const IoDescriptor& io) {
  ++stats_.io_issued;
  VirtualDevice* device = hv_.devices().by_id(io.device_id);
  HBFT_CHECK(device != nullptr) << "I/O for unregistered device "
                                << static_cast<uint32_t>(io.device_id);
  DeviceBackend* backend = device->backend();
  HBFT_CHECK(backend != nullptr) << device->name() << " has no backend";
  backend->SetIssueClock(hv_.clock());
  DeviceBackend::Issued issued = backend->Issue(io, id_);
  pending_real_[{io.device_id, issued.op_id}] = io;
  SimTime completion = hv_.clock() + issued.latency;
  const DeviceId device_id = io.device_id;
  const uint64_t op_id = issued.op_id;
  scheduler_->ScheduleAt(completion, [this, device_id, op_id, completion] {
    if (!dead_ && !halted_) {
      OnRealOpComplete(device_id, op_id, completion);
    }
  });
}

void ReplicaNodeBase::OnRealOpComplete(DeviceId device_id, uint64_t op_id, SimTime event_time) {
  auto it = pending_real_.find({device_id, op_id});
  HBFT_CHECK(it != pending_real_.end());
  IoDescriptor io = std::move(it->second);
  pending_real_.erase(it);
  DeviceBackend* backend = hv_.devices().by_id(device_id)->backend();
  IoCompletionPayload payload = backend->Complete(op_id, io);
  HandleIoCompletion(io, std::move(payload), event_time);
}

void ReplicaNodeBase::NoteDownAck(uint64_t ack_seq) {
  if (ack_seq + 1 > down_acked_count_) {
    down_acked_count_ = ack_seq + 1;
  }
  if (down_out_ != nullptr) {
    down_out_->OnCumulativeAck(down_acked_count_, hv_.clock());
  }
  PumpStateTransfer();
}

void ReplicaNodeBase::StartAsJoiner() {
  joining_ = true;
  runnable_ = false;
  // The constructor booted the guest image; the transferred pages replace
  // everything, and untouched pages must read as the source's zeroes.
  hv_.machine().memory().Fill(0);
}

void ReplicaNodeBase::AttachJoiningDownstream(Channel* down_out, Channel* down_in, SimTime t) {
  HBFT_CHECK(down_out != nullptr && down_in != nullptr);
  HBFT_CHECK(!transfer_active_) << "a transfer is already streaming from this node";
  down_out_ = down_out;
  down_in_ = down_in;
  // Ack bookkeeping restarts with the fresh channel pair: counts against a
  // dead downstream's channel are meaningless for the new one.
  down_acked_count_ = 0;
  epoch_sent_marks_.clear();
  OnDownstreamAttached();
  BeginStateTransfer(t);
}

void ReplicaNodeBase::BeginStateTransfer(SimTime t) {
  CatchUpClock(t);
  PhysicalMemory& memory = hv_.machine().memory();
  memory.BeginTransferTracking();
  transfer_ = std::make_unique<StateTransferSource>(memory.PageCount(), replication_.resync,
                                                    hv_.clock());
  transfer_active_ = true;
  PumpStateTransfer();
}

uint64_t ReplicaNodeBase::UnackedDownstream() const {
  uint64_t enqueued = down_out_->messages_enqueued();
  return enqueued > down_acked_count_ ? enqueued - down_acked_count_ : 0;
}

void ReplicaNodeBase::PumpStateTransfer() {
  if (!transfer_active_ || dead_ || halted_) {
    return;
  }
  // The guest does not run inside this loop, so a page found non-zero while
  // ending one chunk's zero run is still non-zero when it heads the next.
  bool head_nonzero = false;
  while (transfer_->HasPending() && UnackedDownstream() < transfer_->window()) {
    head_nonzero = SendNextStateChunk(head_nonzero);
  }
}

bool ReplicaNodeBase::SendNextStateChunk(bool head_nonzero) {
  PhysicalMemory& memory = hv_.machine().memory();
  uint32_t page = transfer_->PopPage();
  Message msg;
  msg.type = MsgType::kStateChunk;
  msg.epoch = epoch_;
  bool next_nonzero = false;
  if (!head_nonzero && memory.PageIsZero(page)) {
    // Coalesce the run of consecutive queued zero pages into one chunk.
    uint32_t count = 1;
    while (transfer_->HasPending() && transfer_->PeekPage() == page + count) {
      if (!memory.PageIsZero(transfer_->PeekPage())) {
        next_nonzero = true;
        break;
      }
      transfer_->PopPage();
      ++count;
    }
    msg.state_kind = StateChunkKind::kZeroRun;
    msg.state_page = page;
    msg.state_page_count = count;
    transfer_->NoteZeroRun(msg.WireSize());
  } else {
    msg.state_kind = StateChunkKind::kPage;
    msg.state_page = page;
    msg.state_data.resize(kPageBytes);
    memory.ReadBlock(page * kPageBytes, msg.state_data.data(), kPageBytes);
    transfer_->NotePageChunk(msg.WireSize());
  }
  SendDown(std::move(msg));
  return next_nonzero;
}

void ReplicaNodeBase::AbortStateTransfer() {
  if (!transfer_active_) {
    return;
  }
  hv_.machine().memory().EndTransferTracking();
  transfer_active_ = false;
}

void ReplicaNodeBase::CaptureOutstandingRealOps(SnapshotWriter& w) const {
  std::vector<const IoDescriptor*> outstanding;
  outstanding.reserve(pending_real_.size());
  for (const auto& [key, io] : pending_real_) {
    outstanding.push_back(&io);
  }
  std::sort(outstanding.begin(), outstanding.end(),
            [](const IoDescriptor* a, const IoDescriptor* b) {
              return a->guest_op_seq < b->guest_op_seq;
            });
  w.U32(static_cast<uint32_t>(outstanding.size()));
  for (const IoDescriptor* io : outstanding) {
    CaptureIoDescriptor(w, *io);
  }
}

void ReplicaNodeBase::TransferBoundaryHook() {
  if (!transfer_active_ || dead_ || halted_) {
    return;
  }
  PhysicalMemory& memory = hv_.machine().memory();
  std::vector<uint32_t> dirty = memory.TakeTransferDirtyPages();
  if (!transfer_->ReadyToCut(dirty.size())) {
    transfer_->EnqueueDelta(dirty);
    PumpStateTransfer();
    return;
  }

  // Quiesce + cut: the final dirty pages and the control snapshot leave
  // before the guest executes another instruction, so the stream up to here
  // is exactly the machine at the start of epoch `epoch_`. FIFO order makes
  // every post-cut protocol message land on a fully-restored joiner.
  transfer_->EnqueueDelta(dirty);
  bool head_nonzero = false;
  while (transfer_->HasPending()) {
    head_nonzero = SendNextStateChunk(head_nonzero);
  }
  Snapshot control;
  SnapshotWriter w(&control);
  WriteSnapshotHeader(w);
  hv_.CaptureState(w, /*include_memory=*/false);
  CaptureResyncNodeState(w);
  Message done;
  done.type = MsgType::kStateChunk;
  done.state_kind = StateChunkKind::kControl;
  done.epoch = epoch_;
  done.state_data = std::move(control.bytes);
  transfer_->NoteControl(done.WireSize());
  SendDown(std::move(done));

  memory.EndTransferTracking();
  transfer_active_ = false;
  transfer_->MarkCut(hv_.clock(), epoch_);
  OnStateTransferCut();
  if (on_resync_cut_) {
    on_resync_cut_(hv_.clock(), transfer_->report());
  }
}

void ReplicaNodeBase::BufferAndRelay(IoCompletionPayload payload, bool relay) {
  VirtualInterrupt vi;
  vi.irq_line = payload.device_irq;
  vi.epoch = epoch_;
  vi.io = payload;
  hv_.BufferInterrupt(vi);  // P1: buffer for delivery at the end of the epoch.

  if (relay) {
    Message msg;  // P1: send [E, Int] (with any read data: the paper's
    msg.type = MsgType::kInterrupt;  // "9 messages for an 8K block").
    msg.epoch = epoch_;
    msg.irq_lines = payload.device_irq;
    msg.io = std::move(payload);
    SendDown(std::move(msg));
  }
}

}  // namespace hbft
