// Hypervisor tests: privileged-instruction simulation, virtual status
// mapping, epoch control, interrupt buffering/delivery, TLB takeover, MMIO
// virtualisation through the device registry, and cost accounting.
#include <gtest/gtest.h>

#include "devices/console.hpp"
#include "devices/disk.hpp"
#include "hypervisor/hypervisor.hpp"
#include "isa/assembler.hpp"
#include "sim/scenario.hpp"

namespace hbft {
namespace {

// Builds a hypervisor running the given source with the guest entered at
// real privilege 1 ("virtual privilege 0"), as the replication layer does.
struct HvHarness {
  explicit HvHarness(const std::string& source, uint64_t epoch_len = 1u << 30) {
    auto assembled = Assemble(source);
    EXPECT_TRUE(assembled.ok()) << (assembled.ok() ? "" : assembled.error().ToString());
    image = assembled.value();
    MachineConfig machine_config;
    HypervisorConfig hv_config;
    hv_config.epoch_length = epoch_len;
    hv = std::make_unique<Hypervisor>(machine_config, hv_config, CostModel{});
    hv->machine().LoadImage(image);
    hv->machine().cpu().pc = 0;
    hv->machine().cpu().cr[kCrStatus] = 1;  // Real privilege 1.
    hv->BeginEpoch();
  }

  const DiskDevice::State& vdisk() const {
    return static_cast<const DiskDevice*>(hv->devices().by_id(DeviceId::kDisk))->state();
  }
  const ConsoleDevice::State& vconsole() const {
    return static_cast<const ConsoleDevice*>(hv->devices().by_id(DeviceId::kConsole))->state();
  }

  AssembledImage image;
  std::unique_ptr<Hypervisor> hv;
};

TEST(Hypervisor, SimulatesPrivilegedInstructions) {
  HvHarness h(R"(
    li r1, 0x1234
    mtcr scratch0, r1    ; privileged: trapped and simulated
    mfcr r2, scratch0
    halt
  )");
  GuestEvent event = h.hv->RunGuest(SimTime::Seconds(1));
  EXPECT_EQ(event.kind, GuestEvent::Kind::kHalted);
  EXPECT_EQ(h.hv->machine().cpu().gpr[2], 0x1234u);
  EXPECT_GE(h.hv->stats().privileged_simulated, 3u);  // mtcr + mfcr + halt.
}

TEST(Hypervisor, ChargesPaperCostPerSimulatedInstruction) {
  HvHarness h(R"(
    mtcr scratch0, r1
    mtcr scratch1, r1
    mtcr scratch2, r1
    halt
  )");
  h.hv->RunGuest(SimTime::Seconds(1));
  // 4 simulated instructions at 15.12 us plus 4 ordinary-instruction... the
  // trapped instructions themselves execute no machine cycles, so the clock
  // is n_sim * 15.12us exactly.
  EXPECT_EQ(h.hv->stats().privileged_simulated, 4u);
  EXPECT_NEAR(h.hv->clock().micros_f(), 4 * 15.12, 0.01);
}

TEST(Hypervisor, VirtualStatusHidesRealPrivilege) {
  HvHarness h(R"(
    mfcr r1, status      ; virtual view: privilege 0
    halt
  )");
  h.hv->RunGuest(SimTime::Seconds(1));
  EXPECT_EQ(h.hv->machine().cpu().gpr[1] & StatusBits::kPrivMask, 0u);
  // The real register still says privilege 1.
  EXPECT_EQ(h.hv->machine().cpu().priv(), 1u);
}

TEST(Hypervisor, VirtualPridIsZero) {
  HvHarness h(R"(
    mfcr r1, prid
    halt
  )");
  h.hv->RunGuest(SimTime::Seconds(1));
  EXPECT_EQ(h.hv->machine().cpu().gpr[1], 0u);
}

TEST(Hypervisor, TodReadSurfacesAsEnvironmentEvent) {
  HvHarness h(R"(
    mfcr r1, tod
    halt
  )");
  GuestEvent event = h.hv->RunGuest(SimTime::Seconds(1));
  EXPECT_EQ(event.kind, GuestEvent::Kind::kTodRead);
  h.hv->CompleteTodRead(987654);
  event = h.hv->RunGuest(SimTime::Seconds(1));
  EXPECT_EQ(event.kind, GuestEvent::Kind::kHalted);
  EXPECT_EQ(h.hv->machine().cpu().gpr[1], 987654u);
}

TEST(Hypervisor, EpochEndsAfterExactInstructionCount) {
  HvHarness h(R"(
loop:
    addi r1, r1, 1
    j loop
  )",
              /*epoch_len=*/500);
  GuestEvent event = h.hv->RunGuest(SimTime::Seconds(10));
  EXPECT_EQ(event.kind, GuestEvent::Kind::kEpochEnd);
  EXPECT_EQ(h.hv->machine().cpu().instret, 500u);
  h.hv->BeginEpoch();
  event = h.hv->RunGuest(SimTime::Seconds(10));
  EXPECT_EQ(event.kind, GuestEvent::Kind::kEpochEnd);
  EXPECT_EQ(h.hv->machine().cpu().instret, 1000u);
  EXPECT_EQ(h.hv->stats().epochs_completed, 2u);
}

// Every boundary a replica's hypervisor ends is one the protocol runs (and,
// with the lockstep audit on, fingerprints), on the primary and the backup.
TEST(Hypervisor, EpochsCompletedCountsEveryReplicatedBoundary) {
  WorkloadSpec spec = WorkloadSpec::PaperCpu();
  spec.iterations = 2000;
  ScenarioResult r = Scenario::Replicated(spec).Epoch(1024).AuditLockstep().Run();
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.exited_flag, 1u);
  ASSERT_GT(r.primary_boundary_fingerprints().size(), 0u);
  EXPECT_EQ(r.primary_hv_stats().epochs_completed, r.primary_boundary_fingerprints().size());
  EXPECT_EQ(r.backup_hv_stats().epochs_completed, r.backup_boundary_fingerprints().size());
  EXPECT_EQ(r.primary_hv_stats().epochs_completed, r.primary_stats().epochs);
}

TEST(Hypervisor, SimulatedInstructionsCountTowardEpochs) {
  HvHarness h(R"(
loop:
    mtcr scratch0, r1    ; every instruction is simulated
    j loop
  )",
              /*epoch_len=*/10);
  GuestEvent event = h.hv->RunGuest(SimTime::Seconds(10));
  EXPECT_EQ(event.kind, GuestEvent::Kind::kEpochEnd);
  EXPECT_EQ(h.hv->machine().cpu().instret, 10u);
}

TEST(Hypervisor, MmioVirtualDiskCommandSequence) {
  HvHarness h(R"(
    ; map MMIO via wired TLB entries as MiniOS does, then enable VM... not
    ; needed: VM off, kernel at real privilege 1 reaches MMIO physically.
    li r1, 0xF0000000
    li r2, 17
    sw r2, 8(r1)         ; BLOCK = 17
    li r2, 1
    sw r2, 12(r1)        ; COUNT = 1
    li r2, 0x3000
    sw r2, 16(r1)        ; DMA = 0x3000
    li r2, 2
    sw r2, 0(r1)         ; CMD = write
    halt
  )");
  GuestEvent event = h.hv->RunGuest(SimTime::Seconds(1));
  ASSERT_EQ(event.kind, GuestEvent::Kind::kIoCommand);
  EXPECT_EQ(event.io.device_id, DeviceId::kDisk);
  EXPECT_EQ(event.io.opcode, kDiskOpWrite);
  EXPECT_EQ(event.io.arg0, 17u);       // Block.
  EXPECT_EQ(event.io.arg1, 0x3000u);   // DMA address.
  EXPECT_EQ(event.io.guest_op_seq, 1u);
  EXPECT_EQ(event.io.payload.size(), kDiskBlockBytes);
  EXPECT_TRUE(h.vdisk().busy);
  EXPECT_EQ(h.vdisk().reg_status & kDiskStatusBusy, kDiskStatusBusy);
  h.hv->CompleteIoCommand();
  event = h.hv->RunGuest(SimTime::Seconds(1));
  EXPECT_EQ(event.kind, GuestEvent::Kind::kHalted);
}

TEST(Hypervisor, DiskWriteSnapshotsDmaBufferAtIssue) {
  HvHarness h(R"(
    li r3, 0x3000
    li r4, 0xABCD
    sw r4, 0(r3)         ; buffer contents before issue
    li r1, 0xF0000000
    li r2, 0x3000
    sw r2, 16(r1)
    li r2, 2
    sw r2, 0(r1)
    halt
  )");
  GuestEvent event = h.hv->RunGuest(SimTime::Seconds(1));
  ASSERT_EQ(event.kind, GuestEvent::Kind::kIoCommand);
  EXPECT_EQ(event.io.payload[0], 0xCD);
  EXPECT_EQ(event.io.payload[1], 0xAB);
}

TEST(Hypervisor, InterruptDeliveryAppliesDmaAndVectors) {
  HvHarness h(R"(
    la r1, handler
    mtcr tvec, r1
    li r1, 0xF0000000
    li r2, 0x3000
    sw r2, 16(r1)        ; DMA
    li r2, 1
    sw r2, 0(r1)         ; CMD = read
    mfcr r3, status
    ori r3, r3, 4        ; enable interrupts
    mtcr status, r3
spin:
    j spin
handler:
    mfcr r4, ecause
    li r5, 0xF0000000
    lw r6, 0x14(r5)      ; RESULT register
    lw r7, 0x3000(zero)  ; DMA'd data
    halt
  )",
              /*epoch_len=*/100000);
  GuestEvent event = h.hv->RunGuest(SimTime::Seconds(1));
  ASSERT_EQ(event.kind, GuestEvent::Kind::kIoCommand);
  h.hv->CompleteIoCommand();

  // Simulate the replication layer: completion arrives with DMA data.
  VirtualInterrupt vi;
  vi.irq_line = kIrqDisk;
  vi.epoch = 0;
  IoCompletionPayload payload;
  payload.device_irq = kIrqDisk;
  payload.guest_op_seq = 1;
  payload.result_code = kDiskResultOk;
  payload.has_dma_data = true;
  payload.dma_guest_paddr = 0x3000;
  payload.dma_data.assign(kDiskBlockBytes, 0);
  payload.dma_data[0] = 0x99;
  vi.io = payload;
  h.hv->BufferInterrupt(vi);

  // Let the guest spin a little (interrupts are NOT delivered mid-epoch).
  event = h.hv->RunGuest(h.hv->clock() + SimTime::Micros(50));
  EXPECT_EQ(event.kind, GuestEvent::Kind::kNone);
  EXPECT_EQ(h.hv->machine().cpu().gpr[4], 0u) << "interrupt must wait for the boundary";

  uint32_t delivered = h.hv->DeliverEpochInterrupts(/*epoch=*/0, /*tme=*/0);
  EXPECT_EQ(delivered, 1u);
  event = h.hv->RunGuest(SimTime::Seconds(1));
  EXPECT_EQ(event.kind, GuestEvent::Kind::kHalted);
  EXPECT_EQ(h.hv->machine().cpu().gpr[4], static_cast<uint32_t>(TrapCause::kInterrupt));
  EXPECT_EQ(h.hv->machine().cpu().gpr[6], kDiskResultOk);
  EXPECT_EQ(h.hv->machine().cpu().gpr[7], 0x99u);
  EXPECT_FALSE(h.vdisk().busy);
}

TEST(Hypervisor, TimerInterruptFromTmeComparison) {
  HvHarness h(R"(
    la r1, handler
    mtcr tvec, r1
    li r2, 5000
    mtcr itmr, r2
    mfcr r3, status
    ori r3, r3, 4
    mtcr status, r3
spin:
    j spin
handler:
    mfcr r4, ecause
    halt
  )",
              /*epoch_len=*/100000);
  GuestEvent event = h.hv->RunGuest(h.hv->clock() + SimTime::Micros(100));
  EXPECT_EQ(event.kind, GuestEvent::Kind::kNone);
  EXPECT_TRUE(h.hv->timer_armed());
  EXPECT_EQ(h.hv->virtual_itmr(), 5000u);
  // Boundary with Tme below the comparator: no interrupt.
  EXPECT_EQ(h.hv->DeliverEpochInterrupts(0, /*tme=*/4999), 0u);
  // Boundary with Tme past it: timer fires.
  EXPECT_EQ(h.hv->DeliverEpochInterrupts(0, /*tme=*/5001), 1u);
  event = h.hv->RunGuest(SimTime::Seconds(1));
  EXPECT_EQ(event.kind, GuestEvent::Kind::kHalted);
  EXPECT_EQ(h.hv->machine().cpu().gpr[4], static_cast<uint32_t>(TrapCause::kInterrupt));
}

TEST(Hypervisor, DeliveryDeferredUntilGuestEnablesInterrupts) {
  HvHarness h(R"(
    la r1, handler
    mtcr tvec, r1
    li r2, 10
    mtcr itmr, r2
    ; interrupts DISABLED; do some work, then enable.
    li r3, 0
    addi r3, r3, 1
    addi r3, r3, 2
    mfcr r4, status
    ori r4, r4, 4
    mtcr status, r4      ; <- delivery must happen exactly here
    addi r3, r3, 4       ; skipped (handler halts first)
    halt
handler:
    mfcr r5, ecause
    halt
  )",
              /*epoch_len=*/100000);
  // Deliver the timer with IE still off: latched but not vectored.
  h.hv->DeliverEpochInterrupts(0, /*tme=*/11);  // itmr not yet written: no-op.
  GuestEvent event = h.hv->RunGuest(SimTime::Seconds(1));
  EXPECT_EQ(event.kind, GuestEvent::Kind::kHalted);
  EXPECT_EQ(h.hv->machine().cpu().gpr[5], 0u);  // Sanity: that run had no irq.

  // Fresh harness: raise EIRR while IE is off, then run.
  HvHarness h2(R"(
    la r1, handler
    mtcr tvec, r1
    li r3, 0
    addi r3, r3, 1
    mfcr r4, status
    ori r4, r4, 4
    mtcr status, r4
    addi r3, r3, 100
    halt
handler:
    mfcr r5, ecause
    mv r6, r3
    halt
  )");
  h2.hv->machine().RaiseIrq(kIrqTimer);
  GuestEvent event2 = h2.hv->RunGuest(SimTime::Seconds(1));
  EXPECT_EQ(event2.kind, GuestEvent::Kind::kHalted);
  EXPECT_EQ(h2.hv->machine().cpu().gpr[5], static_cast<uint32_t>(TrapCause::kInterrupt));
  // Handler ran at the IE-enable point, before the addi 100.
  EXPECT_EQ(h2.hv->machine().cpu().gpr[6], 1u);
}

TEST(Hypervisor, TlbTakeoverHidesMissesFromGuest) {
  // Kernel builds a valid PT entry, enables VM, and touches the page; with
  // takeover the guest's TVEC handler must never run for the miss.
  HvHarness h(R"(
    la r1, handler
    mtcr tvec, r1
    li r1, 0x8000
    mtcr ptbase, r1
    ; PT[2] = identity V|W|X
    li r2, 0x2007
    sw r2, 8(r1)
    ; PT[0..1] identity too (we execute from page 0)
    li r2, 0x0007
    sw r2, 0(r1)
    li r2, 0x1007
    sw r2, 4(r1)
    ; PT[8] maps the page table page itself
    li r2, 0x8007
    sw r2, 32(r1)
    ; wire page 0 so the fetch after enabling VM works
    li r3, 0
    li r4, 0x17
    tlbi r3, r4
    mfcr r5, status
    ori r5, r5, 0x80
    mtcr status, r5
    li r6, 0x2100
    li r7, 0x77
    sw r7, 0(r6)         ; vpn 2 miss -> hypervisor fills
    lw r8, 0(r6)
    halt
handler:
    li r9, 0xBAD
    halt
  )");
  GuestEvent event = h.hv->RunGuest(SimTime::Seconds(1));
  EXPECT_EQ(event.kind, GuestEvent::Kind::kHalted);
  EXPECT_EQ(h.hv->machine().cpu().gpr[8], 0x77u);
  EXPECT_EQ(h.hv->machine().cpu().gpr[9], 0u) << "guest saw a TLB miss despite takeover";
  EXPECT_GE(h.hv->stats().tlb_fills, 1u);
}

TEST(Hypervisor, InvalidPteReflectsPageFault) {
  HvHarness h(R"(
    la r1, handler
    mtcr tvec, r1
    li r1, 0x8000
    mtcr ptbase, r1
    li r2, 0x0007
    sw r2, 0(r1)
    ; PT[2] left invalid
    li r3, 0
    li r4, 0x17
    tlbi r3, r4
    mfcr r5, status
    ori r5, r5, 0x80
    mtcr status, r5
    li r6, 0x2100
    lw r7, 0(r6)         ; invalid PTE -> guest page fault
    halt
handler:
    mfcr r8, ecause
    mfcr r9, evaddr
    halt
  )");
  GuestEvent event = h.hv->RunGuest(SimTime::Seconds(1));
  EXPECT_EQ(event.kind, GuestEvent::Kind::kHalted);
  EXPECT_EQ(h.hv->machine().cpu().gpr[8], static_cast<uint32_t>(TrapCause::kPageFault));
  EXPECT_EQ(h.hv->machine().cpu().gpr[9], 0x2100u);
}

TEST(Hypervisor, SyscallReflectsToGuestKernelAtRealPrivilege1) {
  HvHarness h(R"(
    la r1, handler
    mtcr tvec, r1
    ; user mode needs translation: wire user-accessible identity pages
    li r2, 0
wire_loop:
    slli r3, r2, 12
    ori r4, r3, 0x1F     ; V|W|X|U|WIRED
    tlbi r3, r4
    addi r2, r2, 1
    li r5, 4
    bltu r2, r5, wire_loop
    ; drop to virtual user (real 3) with VM on
    li r1, 0xB8          ; VM | prev_priv=3 | prev_ie
    mtcr status, r1
    la r2, user
    mtcr epc, r2
    rfi
user:
    syscall 7
    halt                 ; unreachable: handler halts
handler:
    mfcr r3, ecause
    mfcr r4, status
    halt
  )");
  GuestEvent event = h.hv->RunGuest(SimTime::Seconds(1));
  EXPECT_EQ(event.kind, GuestEvent::Kind::kHalted);
  EXPECT_EQ(h.hv->machine().cpu().gpr[3], static_cast<uint32_t>(TrapCause::kSyscall));
  // Virtual view of STATUS in the handler: privilege 0, previous privilege 3.
  uint32_t virt_status = h.hv->machine().cpu().gpr[4];
  EXPECT_EQ(virt_status & StatusBits::kPrivMask, 0u);
  EXPECT_EQ((virt_status & StatusBits::kPrevPrivMask) >> StatusBits::kPrevPrivShift, 3u);
}

TEST(Hypervisor, ConsoleTxFlowWithUncertainRetrySignal) {
  HvHarness h(R"(
    li r1, 0xF0001000
    li r2, 65            ; 'A'
    sw r2, 0(r1)         ; TX
    lw r3, 0x08(r1)      ; STATUS: tx busy
    halt
  )");
  GuestEvent event = h.hv->RunGuest(SimTime::Seconds(1));
  ASSERT_EQ(event.kind, GuestEvent::Kind::kIoCommand);
  EXPECT_EQ(event.io.device_id, DeviceId::kConsole);
  EXPECT_EQ(event.io.opcode, kConsoleOpTx);
  ASSERT_EQ(event.io.payload.size(), 1u);
  EXPECT_EQ(event.io.payload[0], static_cast<uint8_t>('A'));
  h.hv->CompleteIoCommand();
  event = h.hv->RunGuest(SimTime::Seconds(1));
  EXPECT_EQ(event.kind, GuestEvent::Kind::kHalted);
  EXPECT_EQ(h.hv->machine().cpu().gpr[3] & 2u, 2u);  // TX busy bit set.

  // Deliver an uncertain TX completion (P7 synthesis at failover): the
  // result register must tell the driver to retry.
  VirtualInterrupt vi;
  vi.irq_line = kIrqConsoleTx;
  vi.epoch = 0;
  IoCompletionPayload payload;
  payload.device_irq = kIrqConsoleTx;
  payload.guest_op_seq = 1;
  payload.result_code = kDiskResultCheckCondition;
  vi.io = payload;
  h.hv->BufferInterrupt(vi);
  h.hv->DeliverEpochInterrupts(0, 0);
  EXPECT_FALSE(h.vconsole().tx_busy);
  EXPECT_EQ(h.vconsole().reg_result, kConsoleResultUncertain);
}

TEST(Hypervisor, ConsoleIntAckClearsSelectedLinesOnly) {
  HvHarness h(R"(
    li r1, 0xF0001000
    li r2, 2             ; ack TX only
    sw r2, 0x0C(r1)
    halt
  )");
  // Pre-raise both console lines and mark RX ready. Console RX rides the
  // generic completion payload: the character travels in result_code.
  h.hv->machine().RaiseIrq(kIrqConsoleRx | kIrqConsoleTx);
  VirtualInterrupt rx;
  rx.irq_line = kIrqConsoleRx;
  rx.epoch = 0;
  IoCompletionPayload rx_payload;
  rx_payload.device_irq = kIrqConsoleRx;
  rx_payload.result_code = static_cast<uint32_t>('z');
  rx.io = rx_payload;
  h.hv->BufferInterrupt(rx);
  h.hv->DeliverEpochInterrupts(0, 0);  // Sets rx_ready.
  GuestEvent event = h.hv->RunGuest(SimTime::Seconds(1));
  EXPECT_EQ(event.kind, GuestEvent::Kind::kHalted);
  EXPECT_EQ(h.hv->machine().pending_irqs() & kIrqConsoleTx, 0u);
  EXPECT_NE(h.hv->machine().pending_irqs() & kIrqConsoleRx, 0u) << "RX must stay pending";
  EXPECT_TRUE(h.vconsole().rx_ready) << "RX data must survive a TX-only ack";
  EXPECT_EQ(h.vconsole().rx_char, static_cast<uint32_t>('z'));
}

TEST(Hypervisor, InstretIsVirtualisedToGuestInstructionCount) {
  HvHarness h(R"(
    addi r1, r1, 1
    addi r1, r1, 1
    addi r1, r1, 1
    mfcr r2, instret     ; simulated: must count guest instructions only
    halt
  )");
  GuestEvent event = h.hv->RunGuest(SimTime::Seconds(1));
  EXPECT_EQ(event.kind, GuestEvent::Kind::kHalted);
  EXPECT_EQ(h.hv->machine().cpu().gpr[2], 3u);
}

TEST(Hypervisor, PurgeBufferedAfterDropsLaterEpochs) {
  HvHarness h("halt\n");
  for (uint64_t epoch : {3u, 4u, 5u, 7u}) {
    VirtualInterrupt vi;
    vi.irq_line = kIrqConsoleTx;
    vi.epoch = epoch;
    IoCompletionPayload payload;
    payload.device_irq = kIrqConsoleTx;
    payload.guest_op_seq = epoch;
    vi.io = payload;
    h.hv->BufferInterrupt(vi);
  }
  auto purged = h.hv->PurgeBufferedAfter(4);
  ASSERT_EQ(purged.size(), 2u);
  EXPECT_EQ(purged[0].epoch, 5u);
  EXPECT_EQ(purged[1].epoch, 7u);
  EXPECT_EQ(h.hv->DeliverEpochInterrupts(4, 0), 2u);
}

}  // namespace
}  // namespace hbft
