#include "machine/tlb.hpp"

#include <algorithm>
#include <bit>

#include "common/check.hpp"

namespace hbft {

Tlb::Tlb(uint32_t entries, TlbPolicy policy, uint64_t machine_seed)
    : policy_(policy), rng_(machine_seed ^ 0x7718BFD5C0FFEE00ULL) {
  HBFT_CHECK_GT(entries, 0u);
  slots_.resize(entries);
  // Four hints per slot keep two live VPNs from sharing a hint most of the
  // time; a shared hint costs a scan, never a wrong answer.
  const uint32_t hints = std::bit_ceil(4 * entries);
  hint_.assign(hints, 0);
  hint_shift_ = 32 - std::countr_zero(hints);
}

uint32_t Tlb::ScanSlot(uint32_t vpn, uint32_t* hint) {
  for (uint32_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].valid && slots_[i].vpn == vpn) {
      *hint = i;
      return i;
    }
  }
  return kNoSlot;
}

uint32_t Tlb::PickVictim() {
  // Prefer the first invalid slot; otherwise the policy picks the n-th
  // non-wired slot.
  uint32_t unwired = 0;
  for (uint32_t i = 0; i < slots_.size(); ++i) {
    if (!slots_[i].valid) {
      return i;
    }
    if (!slots_[i].wired) {
      ++unwired;
    }
  }
  HBFT_CHECK(unwired != 0) << "TLB entirely wired; cannot insert";
  uint32_t nth = 0;
  switch (policy_) {
    case TlbPolicy::kRoundRobin:
      nth = next_victim_ % unwired;
      next_victim_ = (next_victim_ + 1) % unwired;
      break;
    case TlbPolicy::kHardwareRandom:
      nth = static_cast<uint32_t>(rng_.NextBelow(unwired));
      break;
  }
  for (uint32_t i = 0;; ++i) {
    if (!slots_[i].wired && nth-- == 0) {
      return i;
    }
  }
}

void Tlb::Insert(uint32_t vpn, uint32_t pte, bool wired) {
  ++generation_;
  // Replace an existing mapping for the same VPN in place.
  uint32_t index = FindSlot(vpn);
  if (index == kNoSlot) {
    index = PickVictim();
    HintFor(vpn) = index;
  }
  Slot& slot = slots_[index];
  slot.valid = true;
  slot.wired = wired;
  slot.vpn = vpn;
  slot.pte = pte;
}

void Tlb::FlushUnwired() {
  ++generation_;
  for (Slot& slot : slots_) {
    if (!slot.wired) {
      slot.valid = false;
    }
  }
}

void Tlb::Reset() {
  ++generation_;
  for (Slot& slot : slots_) {
    slot = Slot{};
  }
  next_victim_ = 0;
}

void Tlb::CaptureState(SnapshotWriter& w) const {
  w.U32(static_cast<uint32_t>(slots_.size()));
  for (const Slot& slot : slots_) {
    w.Bool(slot.valid);
    w.Bool(slot.wired);
    w.U32(slot.vpn);
    w.U32(slot.pte);
  }
  w.U32(next_victim_);
  w.U64(rng_.state());
  w.U64(lookups_);
  w.U64(misses_);
}

bool Tlb::RestoreState(SnapshotReader& r) {
  ++generation_;
  uint32_t count = 0;
  if (!r.U32(&count) || count != slots_.size()) {
    return false;
  }
  // Decode into locals so a refused image leaves the TLB as it was.
  std::vector<Slot> slots(count);
  for (Slot& slot : slots) {
    if (!r.Bool(&slot.valid) || !r.Bool(&slot.wired) || !r.U32(&slot.vpn) || !r.U32(&slot.pte)) {
      return false;
    }
  }
  uint32_t next_victim = 0;
  uint64_t rng_state = 0;
  uint64_t lookups = 0;
  uint64_t misses = 0;
  if (!r.U32(&next_victim) || !r.U64(&rng_state) || !r.U64(&lookups) || !r.U64(&misses)) {
    return false;
  }
  // Lookups trust that a VPN has at most one valid slot.
  std::vector<uint32_t> vpns;
  for (const Slot& slot : slots) {
    if (slot.valid) {
      vpns.push_back(slot.vpn);
    }
  }
  std::sort(vpns.begin(), vpns.end());
  if (std::adjacent_find(vpns.begin(), vpns.end()) != vpns.end()) {
    return false;
  }
  slots_ = std::move(slots);
  next_victim_ = next_victim;
  rng_.set_state(rng_state);
  lookups_ = lookups;
  misses_ = misses;
  return true;
}

}  // namespace hbft
