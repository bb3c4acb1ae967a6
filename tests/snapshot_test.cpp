// Snapshot tests: the canonical codec, byte-identical round trips at every
// layer (CPU, memory, TLB, machine, devices, hypervisor), equivalence of a
// restored machine under further execution, and the strictness guarantees
// the state-transfer decoder inherits (reject truncation at every prefix,
// trailing bytes, and non-canonical flag bytes).
#include <gtest/gtest.h>

#include "common/snapshot.hpp"
#include "devices/nic.hpp"
#include "hypervisor/hypervisor.hpp"
#include "isa/assembler.hpp"
#include "machine/machine.hpp"

namespace hbft {
namespace {

MachineConfig TinyConfig() {
  MachineConfig config;
  config.ram_bytes = 4 * kPageBytes;  // Small RAM keeps prefix sweeps fast.
  config.tlb_entries = 4;
  config.machine_seed = 7;
  return config;
}

// A machine with non-trivial state: registers written, pages dirtied, TLB
// populated, recovery counter armed.
std::unique_ptr<Machine> BusyMachine() {
  auto machine = std::make_unique<Machine>(TinyConfig());
  auto assembled = Assemble(R"(
    li r1, 0xABCD
    li r2, 0x3000
    sw r1, 0(r2)
    sw r1, 4(r2)
    halt
  )");
  EXPECT_TRUE(assembled.ok());
  machine->LoadImage(assembled.value());
  machine->SetRecoveryCounter(1000);
  machine->SetRctrEnabled(true);
  machine->tlb().Insert(3, 0x3013, /*wired=*/true);
  machine->Run(4);  // Stop before HALT: mid-stream state.
  return machine;
}

TEST(Snapshot, MachineRoundTripIsByteIdentical) {
  auto original = BusyMachine();
  Snapshot first;
  SnapshotWriter w1(&first);
  original->CaptureState(w1, /*include_memory=*/true);

  Machine restored(TinyConfig());
  SnapshotReader r(first);
  ASSERT_TRUE(restored.RestoreState(r, /*include_memory=*/true));
  EXPECT_TRUE(r.AtEnd());

  Snapshot second;
  SnapshotWriter w2(&second);
  restored.CaptureState(w2, /*include_memory=*/true);
  EXPECT_EQ(first.bytes, second.bytes);
  EXPECT_EQ(original->Fingerprint(), restored.Fingerprint());
}

// A restored machine is not just byte-identical at rest: running both
// machines onward produces identical state — capture really is the complete
// execution context.
TEST(Snapshot, RestoredMachineExecutesIdentically) {
  auto original = BusyMachine();
  Snapshot snap;
  SnapshotWriter w(&snap);
  original->CaptureState(w, /*include_memory=*/true);

  Machine restored(TinyConfig());
  SnapshotReader r(snap);
  ASSERT_TRUE(restored.RestoreState(r, /*include_memory=*/true));

  MachineExit a = original->Run(100);
  MachineExit b = restored.Run(100);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(original->cpu().pc, restored.cpu().pc);
  EXPECT_EQ(original->Fingerprint(), restored.Fingerprint());

  Snapshot sa;
  SnapshotWriter wa(&sa);
  original->CaptureState(wa, true);
  Snapshot sb;
  SnapshotWriter wb(&sb);
  restored.CaptureState(wb, true);
  EXPECT_EQ(sa.bytes, sb.bytes);
}

TEST(Snapshot, MachineRestoreRejectsMismatchedRamSize) {
  auto original = BusyMachine();
  Snapshot snap;
  SnapshotWriter w(&snap);
  original->CaptureState(w, /*include_memory=*/true);

  MachineConfig bigger = TinyConfig();
  bigger.ram_bytes = 8 * kPageBytes;
  Machine restored(bigger);
  SnapshotReader r(snap);
  EXPECT_FALSE(restored.RestoreState(r, /*include_memory=*/true));
}

// Every strict prefix of a headered snapshot must be rejected — the same
// property the wire codec guarantees, extended to the snapshot decoder the
// state transfer relies on.
TEST(Snapshot, RestoreRejectsEveryTruncationAndTrailingBytes) {
  auto machine = BusyMachine();
  Snapshot snap;
  SnapshotWriter w(&snap);
  WriteSnapshotHeader(w);
  machine->CaptureState(w, /*include_memory=*/true);

  for (size_t len = 0; len < snap.bytes.size(); ++len) {
    Snapshot prefix;
    prefix.bytes.assign(snap.bytes.begin(), snap.bytes.begin() + static_cast<ptrdiff_t>(len));
    SnapshotReader r(prefix);
    Machine target(TinyConfig());
    bool ok = ReadSnapshotHeader(r) && target.RestoreState(r, /*include_memory=*/true) &&
              r.AtEnd();
    EXPECT_FALSE(ok) << "accepted a " << len << "-byte prefix of " << snap.bytes.size();
  }

  Snapshot padded = snap;
  padded.bytes.push_back(0);
  SnapshotReader r(padded);
  Machine target(TinyConfig());
  EXPECT_TRUE(ReadSnapshotHeader(r) && target.RestoreState(r, /*include_memory=*/true));
  EXPECT_FALSE(r.AtEnd());  // Trailing garbage is visible and must be rejected.
}

// The memory image is a u32 size and then the raw pages, read page by page.
// A size other than the live RAM's, or an image cut short anywhere (even
// inside the last page), is refused with false and never aborts.
TEST(Snapshot, MemoryRestoreRefusesWrongSizeAndTruncatedImages) {
  PhysicalMemory source(4 * kPageBytes);
  source.Write32(kPageBytes + 8, 0xFEEDF00D);
  Snapshot image;
  SnapshotWriter w(&image);
  source.CaptureState(w);
  ASSERT_EQ(image.size(), 4u + 4u * kPageBytes);

  PhysicalMemory bigger(8 * kPageBytes);
  SnapshotReader wrong_size(image);
  EXPECT_FALSE(bigger.RestoreState(wrong_size));

  for (size_t len : {size_t{0}, size_t{3}, size_t{4}, size_t{4 + kPageBytes},
                     size_t{4 + 2 * kPageBytes + 100}, image.size() - 1}) {
    std::vector<uint8_t> prefix(image.bytes.begin(),
                                image.bytes.begin() + static_cast<ptrdiff_t>(len));
    SnapshotReader r(prefix);
    PhysicalMemory target(4 * kPageBytes);
    EXPECT_FALSE(target.RestoreState(r)) << "accepted a " << len << "-byte prefix";
  }

  PhysicalMemory target(4 * kPageBytes);
  SnapshotReader whole(image);
  ASSERT_TRUE(target.RestoreState(whole));
  EXPECT_TRUE(whole.AtEnd());
  EXPECT_EQ(target.Read32(kPageBytes + 8), 0xFEEDF00Du);
  EXPECT_EQ(target.populated_pages(), 1u);  // Zero pages share the zero frame.
}

TEST(Snapshot, RestoreRejectsNonCanonicalFlagBytes) {
  auto machine = BusyMachine();
  Snapshot snap;
  SnapshotWriter w(&snap);
  machine->CaptureState(w, /*include_memory=*/true);

  // Layout: CPU (32 GPRs + 16 CRs + pc + instret = 204 bytes), then the TLB
  // slot count (4 bytes), then slot 0's `valid` flag byte.
  const size_t valid_flag_pos = 204 + 4;
  ASSERT_LE(snap.bytes[valid_flag_pos], 1u);
  snap.bytes[valid_flag_pos] = 2;
  SnapshotReader r(snap);
  Machine target(TinyConfig());
  EXPECT_FALSE(target.RestoreState(r, /*include_memory=*/true));
}

// A transferred TLB image with two valid slots for one VPN is one Insert can
// never produce, and the hinted lookup assumes it cannot exist: restore
// refuses it with false, and the same image with distinct VPNs is accepted.
TEST(Snapshot, TlbRestoreRefusesDuplicateValidVpn) {
  auto machine = BusyMachine();
  Snapshot snap;
  SnapshotWriter w(&snap);
  machine->CaptureState(w, /*include_memory=*/true);

  // Layout: CPU (204 bytes), TLB slot count (4 bytes), then 10-byte slots
  // (valid, wired, vpn, pte). Slot 0 holds the wired mapping of VPN 3.
  const size_t slot0 = 204 + 4;
  const size_t slot1 = slot0 + 10;
  ASSERT_EQ(snap.bytes[slot0], 1u);
  ASSERT_EQ(snap.bytes[slot0 + 2], 3u);
  ASSERT_EQ(snap.bytes[slot1], 0u);
  auto with_slot1_vpn = [&](uint8_t vpn) {
    Snapshot patched = snap;
    patched.bytes[slot1] = 1;  // valid
    patched.bytes[slot1 + 2] = vpn;
    return patched;
  };

  Snapshot duplicate = with_slot1_vpn(3);
  SnapshotReader bad(duplicate);
  Machine refused(TinyConfig());
  EXPECT_FALSE(refused.RestoreState(bad, /*include_memory=*/true));

  Snapshot distinct = with_slot1_vpn(5);
  SnapshotReader good(distinct);
  Machine accepted(TinyConfig());
  ASSERT_TRUE(accepted.RestoreState(good, /*include_memory=*/true));
  EXPECT_TRUE(good.AtEnd());
  EXPECT_EQ(accepted.tlb().Lookup(5), std::optional<uint32_t>(0));
  EXPECT_EQ(accepted.tlb().Lookup(3), std::optional<uint32_t>(0x3013));
}

TEST(Snapshot, HeaderVersioningIsEnforced) {
  Snapshot snap;
  SnapshotWriter w(&snap);
  WriteSnapshotHeader(w);
  {
    SnapshotReader r(snap);
    EXPECT_TRUE(ReadSnapshotHeader(r));
  }
  Snapshot wrong_magic = snap;
  wrong_magic.bytes[0] ^= 0xFF;
  {
    SnapshotReader r(wrong_magic);
    EXPECT_FALSE(ReadSnapshotHeader(r));
  }
  Snapshot wrong_version = snap;
  wrong_version.bytes[4] ^= 0xFF;
  {
    SnapshotReader r(wrong_version);
    EXPECT_FALSE(ReadSnapshotHeader(r));
  }
}

// Hypervisor-level round trip: virtual clock, timer, buffered interrupts
// (with DMA payloads), device register models, and the machine beneath.
TEST(Snapshot, HypervisorRoundTripIncludesBufferedInterruptsAndDevices) {
  MachineConfig machine_config = TinyConfig();
  HypervisorConfig hv_config;
  hv_config.epoch_length = 4096;
  Hypervisor original(machine_config, hv_config, CostModel{});
  original.BeginEpoch();
  original.SetClock(SimTime::Millis(7));
  VirtualInterrupt vi;
  vi.irq_line = kIrqDisk;
  vi.epoch = 3;
  IoCompletionPayload io;
  io.device_irq = kIrqDisk;
  io.guest_op_seq = 11;
  io.has_dma_data = true;
  io.dma_guest_paddr = 0x2000;
  io.dma_data.assign(64, 0x77);
  vi.io = io;
  original.BufferInterrupt(vi);

  Snapshot first;
  SnapshotWriter w1(&first);
  original.CaptureState(w1, /*include_memory=*/true);

  Hypervisor restored(machine_config, hv_config, CostModel{});
  SnapshotReader r(first);
  ASSERT_TRUE(restored.RestoreState(r, /*include_memory=*/true));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(restored.clock(), original.clock());

  Snapshot second;
  SnapshotWriter w2(&second);
  restored.CaptureState(w2, /*include_memory=*/true);
  EXPECT_EQ(first.bytes, second.bytes);
}

// A registry snapshot only restores into an identically-shaped registry:
// device sets are hardware configuration, not transferable state.
TEST(Snapshot, RegistryRestoreRejectsShapeMismatch) {
  auto disk_console = CreateDefaultRegistry();
  Snapshot snap;
  SnapshotWriter w(&snap);
  disk_console->CaptureState(w);

  auto with_nic = CreateDefaultRegistry();
  with_nic->Add(std::make_unique<NicDevice>());
  SnapshotReader r(snap);
  EXPECT_FALSE(with_nic->RestoreState(r));
}

TEST(Snapshot, IoDescriptorCodecRoundTripsAndRejectsTruncation) {
  IoDescriptor io;
  io.device_id = DeviceId::kDisk;
  io.guest_op_seq = 42;
  io.opcode = 2;
  io.arg0 = 17;
  io.arg1 = 0x3000;
  io.payload = {1, 2, 3, 4, 5};

  Snapshot snap;
  SnapshotWriter w(&snap);
  CaptureIoDescriptor(w, io);
  {
    SnapshotReader r(snap);
    IoDescriptor decoded;
    ASSERT_TRUE(RestoreIoDescriptor(r, &decoded));
    EXPECT_TRUE(r.AtEnd());
    EXPECT_EQ(decoded.device_id, io.device_id);
    EXPECT_EQ(decoded.guest_op_seq, io.guest_op_seq);
    EXPECT_EQ(decoded.payload, io.payload);
  }
  for (size_t len = 0; len < snap.bytes.size(); ++len) {
    Snapshot prefix;
    prefix.bytes.assign(snap.bytes.begin(), snap.bytes.begin() + static_cast<ptrdiff_t>(len));
    SnapshotReader r(prefix);
    IoDescriptor decoded;
    EXPECT_FALSE(RestoreIoDescriptor(r, &decoded)) << "accepted prefix " << len;
  }
}

TEST(Snapshot, ReaderBoolRejectsNonCanonicalValues) {
  Snapshot snap;
  snap.bytes = {0, 1, 2};
  SnapshotReader r(snap);
  bool v = false;
  EXPECT_TRUE(r.Bool(&v));
  EXPECT_FALSE(v);
  EXPECT_TRUE(r.Bool(&v));
  EXPECT_TRUE(v);
  EXPECT_FALSE(r.Bool(&v));  // 2 is corruption, not "true".
}

}  // namespace
}  // namespace hbft
