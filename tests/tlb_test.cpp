// TLB tests: lookup/insert/flush semantics, wiring, and the replacement
// policies — including the nondeterminism that drives the paper's section 3.2
// discovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "common/snapshot.hpp"
#include "machine/tlb.hpp"

namespace hbft {
namespace {

TEST(Tlb, HitAfterInsertMissOtherwise) {
  Tlb tlb(4, TlbPolicy::kRoundRobin, 1);
  EXPECT_FALSE(tlb.Lookup(5).has_value());
  tlb.Insert(5, 0x5007, false);
  auto pte = tlb.Lookup(5);
  ASSERT_TRUE(pte.has_value());
  EXPECT_EQ(*pte, 0x5007u);
  EXPECT_FALSE(tlb.Lookup(6).has_value());
  EXPECT_EQ(tlb.misses(), 2u);
  EXPECT_EQ(tlb.lookups(), 3u);
}

TEST(Tlb, SameVpnReplacesInPlace) {
  Tlb tlb(2, TlbPolicy::kRoundRobin, 1);
  tlb.Insert(5, 0x5007, false);
  tlb.Insert(5, 0x500F, false);
  EXPECT_EQ(*tlb.Lookup(5), 0x500Fu);
  // Still room for one more without eviction.
  tlb.Insert(6, 0x6007, false);
  EXPECT_TRUE(tlb.Lookup(5).has_value());
  EXPECT_TRUE(tlb.Lookup(6).has_value());
}

TEST(Tlb, EvictionRespectsCapacity) {
  Tlb tlb(4, TlbPolicy::kRoundRobin, 1);
  for (uint32_t vpn = 0; vpn < 8; ++vpn) {
    tlb.Insert(vpn, (vpn << 12) | 1, false);
  }
  int present = 0;
  for (uint32_t vpn = 0; vpn < 8; ++vpn) {
    if (tlb.Lookup(vpn).has_value()) {
      ++present;
    }
  }
  EXPECT_EQ(present, 4);
}

TEST(Tlb, WiredEntriesSurviveEvictionAndFlush) {
  Tlb tlb(4, TlbPolicy::kHardwareRandom, 99);
  tlb.Insert(100, 0x100 << 12 | 1, true);
  tlb.Insert(101, 0x101 << 12 | 1, true);
  for (uint32_t vpn = 0; vpn < 64; ++vpn) {
    tlb.Insert(vpn, (vpn << 12) | 1, false);
  }
  EXPECT_TRUE(tlb.Lookup(100).has_value());
  EXPECT_TRUE(tlb.Lookup(101).has_value());
  tlb.FlushUnwired();
  EXPECT_TRUE(tlb.Lookup(100).has_value());
  int unwired_present = 0;
  for (uint32_t vpn = 0; vpn < 64; ++vpn) {
    if (tlb.Lookup(vpn).has_value()) {
      ++unwired_present;
    }
  }
  EXPECT_EQ(unwired_present, 0);
}

TEST(Tlb, ResetClearsEverything) {
  Tlb tlb(4, TlbPolicy::kRoundRobin, 1);
  tlb.Insert(1, 0x1001, true);
  tlb.Insert(2, 0x2001, false);
  tlb.Reset();
  EXPECT_FALSE(tlb.Lookup(1).has_value());
  EXPECT_FALSE(tlb.Lookup(2).has_value());
}

// The paper's observation: identical reference strings on two processors
// yield different TLB contents under the hardware's nondeterministic
// replacement — visible only through software-handled misses.
TEST(Tlb, HardwareRandomPolicyDivergesAcrossMachines) {
  Tlb a(8, TlbPolicy::kHardwareRandom, /*machine_seed=*/1);
  Tlb b(8, TlbPolicy::kHardwareRandom, /*machine_seed=*/2);
  // Identical insert sequences.
  for (uint32_t vpn = 0; vpn < 64; ++vpn) {
    a.Insert(vpn, (vpn << 12) | 1, false);
    b.Insert(vpn, (vpn << 12) | 1, false);
  }
  int differing = 0;
  for (uint32_t vpn = 0; vpn < 64; ++vpn) {
    if (a.Lookup(vpn).has_value() != b.Lookup(vpn).has_value()) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0) << "seeds should produce different resident sets";
}

TEST(Tlb, RoundRobinPolicyIsIdenticalAcrossMachines) {
  Tlb a(8, TlbPolicy::kRoundRobin, 1);
  Tlb b(8, TlbPolicy::kRoundRobin, 2);  // Seed must not matter.
  for (uint32_t vpn = 0; vpn < 64; ++vpn) {
    a.Insert(vpn, (vpn << 12) | 1, false);
    b.Insert(vpn, (vpn << 12) | 1, false);
  }
  for (uint32_t vpn = 0; vpn < 64; ++vpn) {
    EXPECT_EQ(a.Lookup(vpn).has_value(), b.Lookup(vpn).has_value()) << "vpn " << vpn;
  }
}

TEST(Tlb, SameSeedSamePolicyIsReproducible) {
  Tlb a(8, TlbPolicy::kHardwareRandom, 7);
  Tlb b(8, TlbPolicy::kHardwareRandom, 7);
  for (uint32_t vpn = 0; vpn < 200; ++vpn) {
    a.Insert(vpn, (vpn << 12) | 1, false);
    b.Insert(vpn, (vpn << 12) | 1, false);
  }
  for (uint32_t vpn = 0; vpn < 200; ++vpn) {
    EXPECT_EQ(a.Lookup(vpn).has_value(), b.Lookup(vpn).has_value()) << "vpn " << vpn;
  }
}

// The plain linear-scan TLB the hinted one must be indistinguishable from:
// the same slots, replacement stream and counters, and the same snapshot
// bytes. Victim selection lists the non-wired candidates explicitly.
struct ReferenceTlb {
  struct Slot {
    bool valid = false;
    bool wired = false;
    uint32_t vpn = 0;
    uint32_t pte = 0;
  };

  ReferenceTlb(uint32_t entries, TlbPolicy policy, uint64_t machine_seed)
      : slots(entries), policy(policy), rng(machine_seed ^ 0x7718BFD5C0FFEE00ULL) {}

  std::optional<uint32_t> Lookup(uint32_t vpn) {
    ++lookups;
    for (const Slot& slot : slots) {
      if (slot.valid && slot.vpn == vpn) {
        return slot.pte;
      }
    }
    ++misses;
    return std::nullopt;
  }

  uint32_t PickVictim() {
    for (uint32_t i = 0; i < slots.size(); ++i) {
      if (!slots[i].valid) {
        return i;
      }
    }
    std::vector<uint32_t> candidates;
    for (uint32_t i = 0; i < slots.size(); ++i) {
      if (!slots[i].wired) {
        candidates.push_back(i);
      }
    }
    if (policy == TlbPolicy::kRoundRobin) {
      uint32_t victim = candidates[next_victim % candidates.size()];
      next_victim = (next_victim + 1) % static_cast<uint32_t>(candidates.size());
      return victim;
    }
    return candidates[rng.NextBelow(candidates.size())];
  }

  void Insert(uint32_t vpn, uint32_t pte, bool wired) {
    for (Slot& slot : slots) {
      if (slot.valid && slot.vpn == vpn) {
        slot.pte = pte;
        slot.wired = wired;
        return;
      }
    }
    slots[PickVictim()] = Slot{true, wired, vpn, pte};
  }

  void FlushUnwired() {
    for (Slot& slot : slots) {
      if (!slot.wired) {
        slot.valid = false;
      }
    }
  }

  void Reset() {
    for (Slot& slot : slots) {
      slot = Slot{};
    }
    next_victim = 0;
  }

  bool HasDuplicateVpn() const {
    std::set<uint32_t> seen;
    for (const Slot& slot : slots) {
      if (slot.valid && !seen.insert(slot.vpn).second) {
        return true;
      }
    }
    return false;
  }

  uint32_t WiredCount() const {
    return static_cast<uint32_t>(std::count_if(slots.begin(), slots.end(), [](const Slot& slot) {
      return slot.valid && slot.wired;
    }));
  }

  std::vector<uint8_t> Capture() const {
    Snapshot snap;
    SnapshotWriter w(&snap);
    w.U32(static_cast<uint32_t>(slots.size()));
    for (const Slot& slot : slots) {
      w.Bool(slot.valid);
      w.Bool(slot.wired);
      w.U32(slot.vpn);
      w.U32(slot.pte);
    }
    w.U32(next_victim);
    w.U64(rng.state());
    w.U64(lookups);
    w.U64(misses);
    return snap.bytes;
  }

  std::vector<Slot> slots;
  TlbPolicy policy;
  DeterministicRng rng;
  uint32_t next_victim = 0;
  uint64_t lookups = 0;
  uint64_t misses = 0;
};

std::vector<uint8_t> CaptureBytes(const Tlb& tlb) {
  Snapshot snap;
  SnapshotWriter w(&snap);
  tlb.CaptureState(w);
  return snap.bytes;
}

// A seeded random mix of every TLB operation on the hinted TLB and on the
// reference scan, in step: every lookup returns the same PTE, and after every
// step the counters and snapshot bytes are equal. Every mutation (and only a
// mutation) moves generation(). The VPN pool mixes a dense low range with
// pages 0x200/0x300 apart, the pattern of code and data pages.
TEST(TlbHint, DifferentialAgainstLinearScanReference) {
  std::mt19937 gen(20261020);
  auto uniform = [&gen](uint32_t lo, uint32_t hi) {
    return std::uniform_int_distribution<uint32_t>(lo, hi)(gen);
  };
  std::vector<uint32_t> pool;
  for (uint32_t vpn = 0; vpn < 48; ++vpn) {
    pool.push_back(vpn);
  }
  for (uint32_t vpn : {0x200u, 0x201u, 0x240u, 0x300u, 0x301u, 0x340u, 0x3FFu, 0xFFFFFu}) {
    pool.push_back(vpn);
  }
  auto random_vpn = [&]() { return pool[uniform(0, static_cast<uint32_t>(pool.size()) - 1)]; };

  for (uint32_t entries : {1u, 4u, 8u, 32u, 64u}) {
    for (TlbPolicy policy : {TlbPolicy::kRoundRobin, TlbPolicy::kHardwareRandom}) {
      const uint64_t seed = uniform(0, 1000);
      Tlb tlb(entries, policy, seed);
      ReferenceTlb ref(entries, policy, seed);
      for (int step = 0; step < 4000; ++step) {
        const uint64_t generation = tlb.generation();
        const uint32_t op = uniform(0, 99);
        bool mutated = true;
        if (op < 50) {
          const uint32_t vpn = random_vpn();
          ASSERT_EQ(tlb.Lookup(vpn), ref.Lookup(vpn)) << "step " << step << " vpn " << vpn;
          mutated = false;
        } else if (op < 88) {
          const uint32_t vpn = random_vpn();
          const uint32_t pte = uniform(0, 0xFFFFFFFF);
          // Wire rarely, and never the last unwired slot: a fully wired TLB
          // cannot take an insert.
          const bool wired = uniform(0, 9) == 0 && ref.WiredCount() + 1 < entries;
          tlb.Insert(vpn, pte, wired);
          ref.Insert(vpn, pte, wired);
        } else if (op < 93) {
          tlb.FlushUnwired();
          ref.FlushUnwired();
        } else if (op < 95) {
          tlb.Reset();
          ref.Reset();
        } else {
          // Restore a random image. Some carry one VPN in two valid slots
          // or are truncated; both are refused and leave the TLB unchanged.
          ReferenceTlb image(entries, policy, uniform(0, 1000));
          for (ReferenceTlb::Slot& slot : image.slots) {
            slot = ReferenceTlb::Slot{uniform(0, 3) != 0, uniform(0, 7) == 0, random_vpn(),
                                      uniform(0, 0xFFFFFFFF)};
          }
          image.next_victim = uniform(0, 100);
          image.lookups = uniform(0, 1u << 20);
          image.misses = uniform(0, 1u << 10);
          if (image.WiredCount() == entries) {
            image.slots[0].wired = false;
          }
          if (!image.HasDuplicateVpn() && entries > 1 && uniform(0, 3) == 0) {
            image.slots[0] = image.slots[1];
            image.slots[0].valid = image.slots[1].valid = true;
          }
          std::vector<uint8_t> bytes = image.Capture();
          const bool truncated = uniform(0, 9) == 0;
          if (truncated) {
            bytes.resize(uniform(0, static_cast<uint32_t>(bytes.size()) - 1));
          }
          SnapshotReader r(bytes);
          const bool accept = !truncated && !image.HasDuplicateVpn();
          ASSERT_EQ(tlb.RestoreState(r), accept) << "step " << step;
          if (accept) {
            ref.slots = image.slots;
            ref.next_victim = image.next_victim;
            ref.rng = image.rng;
            ref.lookups = image.lookups;
            ref.misses = image.misses;
          }
        }
        ASSERT_EQ(tlb.lookups(), ref.lookups) << "step " << step;
        ASSERT_EQ(tlb.misses(), ref.misses) << "step " << step;
        ASSERT_EQ(CaptureBytes(tlb), ref.Capture()) << "step " << step;
        if (mutated) {
          ASSERT_GT(tlb.generation(), generation) << "step " << step;
        } else {
          ASSERT_EQ(tlb.generation(), generation) << "step " << step;
        }
      }
    }
  }
}

}  // namespace
}  // namespace hbft
