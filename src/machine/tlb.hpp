// Software-managed translation lookaside buffer.
//
// The paper (section 3.2) found that the HP 9000/720's TLB replacement is
// nondeterministic: identical reference strings on primary and backup lead to
// different TLB contents, which becomes visible through software-handled miss
// traps and breaks lockstep. This model reproduces both the problem (the
// kHardwareRandom policy draws victims from a per-machine seed) and the fix
// (the hypervisor takes over miss handling so the guest never observes them).
#ifndef HBFT_MACHINE_TLB_HPP_
#define HBFT_MACHINE_TLB_HPP_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "isa/isa.hpp"

namespace hbft {

enum class TlbPolicy {
  kRoundRobin,      // Deterministic; same contents on both replicas.
  kHardwareRandom,  // Victim drawn from a per-machine seed; replicas diverge.
};

class Tlb : public Snapshotable {
 public:
  Tlb(uint32_t entries, TlbPolicy policy, uint64_t machine_seed);

  // Returns the PTE mapping `vpn`, or nullopt on miss. A hit on the slot the
  // hint table names costs O(1); only a hint miss scans the slots.
  std::optional<uint32_t> Lookup(uint32_t vpn) {
    ++lookups_;
    const uint32_t slot = FindSlot(vpn);
    if (slot == kNoSlot) {
      ++misses_;
      return std::nullopt;
    }
    return slots_[slot].pte;
  }

  // Inserts a mapping, evicting a victim according to the policy if full.
  // Wired entries are never chosen as victims.
  void Insert(uint32_t vpn, uint32_t pte, bool wired);

  // Removes all non-wired entries (TLBF instruction).
  void FlushUnwired();

  // Removes every entry including wired ones (machine reset).
  void Reset();

  uint32_t capacity() const { return static_cast<uint32_t>(slots_.size()); }
  uint64_t lookups() const { return lookups_; }
  uint64_t misses() const { return misses_; }

  // Bumped by every mutation of the mapping (Insert, FlushUnwired, Reset,
  // RestoreState), so a translation memoised at generation g is exactly the
  // translation a fresh lookup would give while generation() == g.
  uint64_t generation() const { return generation_; }

  // Accounts `n` hitting lookups without searching. The cached interpreter
  // translates a superblock's fetch once but the slow path looks up every
  // instruction fetch — and the counters are snapshot state, so the
  // guaranteed-hit lookups it skips must still be credited.
  void CreditLookups(uint64_t n) { lookups_ += n; }

  // Snapshot: slot contents plus the replacement state (round-robin cursor
  // and "hardware" RNG stream), so a restored TLB evicts identically.
  // Restore requires matching capacity; the policy is construction-time
  // hardware configuration and is not serialised. An image holding two valid
  // slots for one VPN (which Insert never produces) is refused, and a refused
  // image leaves the TLB unchanged.
  void CaptureState(SnapshotWriter& w) const override;
  bool RestoreState(SnapshotReader& r) override;

 private:
  struct Slot {
    bool valid = false;
    bool wired = false;
    uint32_t vpn = 0;
    uint32_t pte = 0;
  };

  static constexpr uint32_t kNoSlot = ~0u;

  // Index of the valid slot mapping `vpn`, or kNoSlot. Valid slots never
  // share a VPN, so the hinted slot, once checked, is the only match.
  uint32_t FindSlot(uint32_t vpn) {
    uint32_t& hint = HintFor(vpn);
    const Slot& slot = slots_[hint];
    if (slot.valid && slot.vpn == vpn) {
      return hint;
    }
    return ScanSlot(vpn, &hint);
  }
  uint32_t& HintFor(uint32_t vpn) { return hint_[(vpn * 0x9E3779B1u) >> hint_shift_]; }
  uint32_t ScanSlot(uint32_t vpn, uint32_t* hint);
  uint32_t PickVictim();

  std::vector<Slot> slots_;
  TlbPolicy policy_;  // hbft-lint: derived-state — construction-time config; identical on every replica.
  // Slot hints indexed by a multiplicative hash of the VPN (low VPN bits
  // alone would alias code and data pages a power of two apart). A hint is
  // only a guess, checked against the slot before use.
  // hbft-lint: derived-state — rebuilt by lookups; a stale hint fails its check.
  std::vector<uint32_t> hint_;
  uint32_t hint_shift_ = 0;  // hbft-lint: derived-state — fixed by the capacity.
  uint64_t generation_ = 1;  // hbft-lint: derived-state — local change counter for translation memos.
  DeterministicRng rng_;
  uint32_t next_victim_ = 0;
  uint64_t lookups_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace hbft

#endif  // HBFT_MACHINE_TLB_HPP_
