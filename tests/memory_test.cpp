// Physical memory tests: endianness, bounds, bulk copies, the incremental
// fingerprint, a differential check of the sparse frame table against a
// dense byte array, and the host-memory footprint of real machines.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "common/hash.hpp"
#include "guest/workloads.hpp"
#include "machine/machine.hpp"
#include "machine/memory.hpp"
#include "sim/scenario.hpp"
#include "sim/world.hpp"

namespace hbft {
namespace {

TEST(Memory, LittleEndianAccessors) {
  PhysicalMemory memory(64 * 1024);
  memory.Write32(0x100, 0x11223344);
  EXPECT_EQ(memory.Read8(0x100), 0x44);
  EXPECT_EQ(memory.Read8(0x103), 0x11);
  EXPECT_EQ(memory.Read16(0x100), 0x3344);
  EXPECT_EQ(memory.Read16(0x102), 0x1122);
  EXPECT_EQ(memory.Read32(0x100), 0x11223344u);
  memory.Write16(0x200, 0xBEEF);
  EXPECT_EQ(memory.Read8(0x200), 0xEF);
  EXPECT_EQ(memory.Read8(0x201), 0xBE);
}

TEST(Memory, ContainsBoundsChecks) {
  PhysicalMemory memory(8192);
  EXPECT_TRUE(memory.Contains(0, 1));
  EXPECT_TRUE(memory.Contains(8188, 4));
  EXPECT_FALSE(memory.Contains(8189, 4));
  EXPECT_FALSE(memory.Contains(8192, 1));
  EXPECT_FALSE(memory.Contains(0xFFFFFFFF, 4));  // Overflow-safe.
}

TEST(Memory, BlockCopies) {
  PhysicalMemory memory(64 * 1024);
  std::vector<uint8_t> data(300);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<uint8_t>(i * 7);
  }
  memory.WriteBlock(0xF00, data.data(), static_cast<uint32_t>(data.size()));
  std::vector<uint8_t> out(300);
  memory.ReadBlock(0xF00, out.data(), static_cast<uint32_t>(out.size()));
  EXPECT_EQ(data, out);
}

TEST(MemoryFingerprint, StableAndIncremental) {
  PhysicalMemory a(64 * 1024);
  PhysicalMemory b(64 * 1024);
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());

  a.Write32(0x1234, 99);
  uint64_t after_write = a.Fingerprint();
  EXPECT_NE(after_write, b.Fingerprint());

  b.Write32(0x1234, 99);
  EXPECT_EQ(after_write, b.Fingerprint());

  // Reverting the write restores the original fingerprint (XOR page scheme).
  a.Write32(0x1234, 0);
  EXPECT_EQ(a.Fingerprint(), PhysicalMemory(64 * 1024).Fingerprint());
}

TEST(MemoryFingerprint, DistinguishesPagePositions) {
  // Identical page contents at different addresses must fingerprint
  // differently (page index is hashed in).
  PhysicalMemory a(64 * 1024);
  PhysicalMemory b(64 * 1024);
  a.Write32(0x0000, 7);
  b.Write32(0x1000, 7);
  EXPECT_NE(a.Fingerprint(), b.Fingerprint());
}

TEST(MemoryFingerprint, CheapWhenClean) {
  PhysicalMemory memory(4 * 1024 * 1024);
  memory.Fingerprint();
  // A second call with no writes touches no pages; just verify stability.
  EXPECT_EQ(memory.Fingerprint(), memory.Fingerprint());
}

// --- Sparse frame table vs. a dense reference ---------------------------------

// The memory model before the frame table: one flat byte array, per-page
// write counters, a transfer dirty set, and the byte-wise fingerprint.
struct DenseReference {
  explicit DenseReference(uint32_t bytes)
      : ram(bytes, 0), versions(bytes / kPageBytes, 0), transfer_dirty(bytes / kPageBytes, 0) {}

  uint32_t pages() const { return static_cast<uint32_t>(versions.size()); }
  void Touch(uint32_t first_page, uint32_t last_page) {
    for (uint32_t page = first_page; page <= last_page; ++page) {
      ++versions[page];
      if (tracking) {
        transfer_dirty[page] = 1;
      }
    }
  }
  void Write(uint32_t paddr, const uint8_t* src, uint32_t len) {
    std::copy(src, src + len, ram.begin() + paddr);
    Touch(paddr / kPageBytes, (paddr + len - 1) / kPageBytes);
  }
  // Little-endian store/load of `width` bytes.
  void Store(uint32_t paddr, uint32_t value, uint32_t width) {
    uint8_t le[4];
    for (uint32_t i = 0; i < width; ++i) {
      le[i] = static_cast<uint8_t>(value >> (8 * i));
    }
    Write(paddr, le, width);
  }
  uint32_t Load(uint32_t paddr, uint32_t width) const {
    uint32_t value = 0;
    for (uint32_t i = 0; i < width; ++i) {
      value |= static_cast<uint32_t>(ram[paddr + i]) << (8 * i);
    }
    return value;
  }
  bool PageIsZero(uint32_t page) const {
    auto begin = ram.begin() + static_cast<ptrdiff_t>(page) * kPageBytes;
    return std::all_of(begin, begin + kPageBytes, [](uint8_t b) { return b == 0; });
  }
  uint64_t Fingerprint() const {
    uint64_t combined = 0;
    for (uint32_t page = 0; page < pages(); ++page) {
      Fnv1aHasher hasher;
      hasher.UpdateU32(page);
      hasher.Update(ram.data() + static_cast<size_t>(page) * kPageBytes, kPageBytes);
      combined ^= hasher.digest();
    }
    return combined;
  }
  std::vector<uint32_t> TakeTransferDirtyPages() {
    std::vector<uint32_t> taken;
    for (uint32_t page = 0; page < pages(); ++page) {
      if (transfer_dirty[page] != 0) {
        transfer_dirty[page] = 0;
        taken.push_back(page);
      }
    }
    return taken;
  }

  std::vector<uint8_t> ram;
  std::vector<uint32_t> versions;
  std::vector<uint8_t> transfer_dirty;
  bool tracking = false;
};

std::vector<uint8_t> CaptureBytes(const PhysicalMemory& memory) {
  Snapshot snapshot;
  SnapshotWriter w(&snapshot);
  memory.CaptureState(w);
  return snapshot.bytes;
}

void ExpectMatchesReference(const PhysicalMemory& memory, const DenseReference& ref,
                            int step) {
  std::vector<uint8_t> all(ref.ram.size());
  memory.ReadBlock(0, all.data(), static_cast<uint32_t>(all.size()));
  ASSERT_EQ(all, ref.ram) << "step " << step;
  for (uint32_t page = 0; page < ref.pages(); ++page) {
    ASSERT_EQ(memory.PageIsZero(page), ref.PageIsZero(page)) << "step " << step << " page " << page;
    ASSERT_EQ(memory.PageVersion(page), ref.versions[page]) << "step " << step << " page " << page;
  }
  ASSERT_LE(memory.populated_pages(), ref.pages());
}

// A seeded random mix of every mutation the memory supports, applied to the
// sparse memory and to the dense reference in step. After every step the two
// must agree byte for byte, page for page, and on the fingerprint; the
// snapshot must be the dense array's canonical Blob encoding.
TEST(MemorySparse, DifferentialAgainstDenseReference) {
  constexpr uint32_t kBytes = 16 * kPageBytes;
  PhysicalMemory memory(kBytes);
  DenseReference ref(kBytes);
  std::mt19937 rng(20260415);
  auto uniform = [&rng](uint32_t lo, uint32_t hi) {
    return std::uniform_int_distribution<uint32_t>(lo, hi)(rng);
  };
  // Values are zero a third of the time, so written pages keep zero words and
  // sometimes return to all-zero.
  auto value = [&]() { return uniform(0, 2) == 0 ? 0u : uniform(1, 0xFFFFFFFF); };
  // Page-dense random images: some pages all zero, the rest random bytes.
  auto random_image = [&]() {
    std::vector<uint8_t> image(kBytes, 0);
    for (uint32_t page = 0; page < kBytes / kPageBytes; ++page) {
      if (uniform(0, 1) == 0) {
        for (uint32_t i = 0; i < kPageBytes; ++i) {
          image[page * kPageBytes + i] = static_cast<uint8_t>(value());
        }
      }
    }
    return image;
  };

  for (int step = 0; step < 1500; ++step) {
    const uint32_t op = uniform(0, 99);
    if (op < 25) {
      uint32_t paddr = uniform(0, kBytes - 1);
      uint8_t v = static_cast<uint8_t>(value());
      memory.Write8(paddr, v);
      ref.Store(paddr, v, 1);
    } else if (op < 40) {
      uint32_t paddr = uniform(0, kBytes / 2 - 1) * 2;
      uint16_t v = static_cast<uint16_t>(value());
      memory.Write16(paddr, v);
      ref.Store(paddr, v, 2);
    } else if (op < 55) {
      uint32_t paddr = uniform(0, kBytes / 4 - 1) * 4;
      uint32_t v = value();
      memory.Write32(paddr, v);
      ref.Store(paddr, v, 4);
    } else if (op < 70) {
      // Up to three pages long, from anywhere: most blocks straddle a page.
      uint32_t len = uniform(1, 3 * kPageBytes);
      uint32_t paddr = uniform(0, kBytes - len);
      std::vector<uint8_t> block(len, 0);
      if (uniform(0, 3) != 0) {
        for (uint8_t& b : block) {
          b = static_cast<uint8_t>(value());
        }
      }
      memory.WriteBlock(paddr, block.data(), len);
      ref.Write(paddr, block.data(), len);
    } else if (op < 78) {
      uint32_t len = uniform(1, 3 * kPageBytes);
      uint32_t paddr = uniform(0, kBytes - len);
      std::vector<uint8_t> out(len);
      memory.ReadBlock(paddr, out.data(), len);
      ASSERT_TRUE(std::equal(out.begin(), out.end(), ref.ram.begin() + paddr)) << "step " << step;
      uint32_t aligned = paddr & ~3u;
      ASSERT_EQ(memory.Read8(paddr), ref.Load(paddr, 1));
      ASSERT_EQ(memory.Read16(aligned + 2), ref.Load(aligned + 2, 2));
      ASSERT_EQ(memory.Read32(aligned), ref.Load(aligned, 4));
    } else if (op < 84) {
      uint32_t first = uniform(0, ref.pages() - 1);
      uint32_t count = uniform(0, ref.pages() - first);
      memory.ZeroPages(first, count);
      std::fill(ref.ram.begin() + first * kPageBytes,
                ref.ram.begin() + (first + count) * kPageBytes, 0);
      if (count > 0) {
        ref.Touch(first, first + count - 1);
      }
    } else if (op < 86) {
      uint8_t fill = uniform(0, 1) == 0 ? 0 : 0x5A;
      memory.Fill(fill);
      std::fill(ref.ram.begin(), ref.ram.end(), fill);
      ref.Touch(0, ref.pages() - 1);
    } else if (op < 90) {
      std::vector<uint8_t> image = uniform(0, 2) == 0 ? std::vector<uint8_t>(kBytes, 0)
                                                      : random_image();
      Snapshot snapshot;
      SnapshotWriter w(&snapshot);
      w.Blob(image);
      SnapshotReader r(snapshot);
      ASSERT_TRUE(memory.RestoreState(r));
      ASSERT_TRUE(r.AtEnd());
      ref.ram = image;
      ref.Touch(0, ref.pages() - 1);
    } else if (op < 95) {
      if (ref.tracking) {
        memory.EndTransferTracking();
      } else {
        memory.BeginTransferTracking();
        std::fill(ref.transfer_dirty.begin(), ref.transfer_dirty.end(), 0);
      }
      ref.tracking = !ref.tracking;
      ASSERT_EQ(memory.transfer_tracking(), ref.tracking);
    } else if (ref.tracking) {
      ASSERT_EQ(memory.TakeTransferDirtyPages(), ref.TakeTransferDirtyPages()) << "step " << step;
    }

    ExpectMatchesReference(memory, ref, step);
    // Fingerprint at most steps, not all: skipped steps leave several pages
    // dirty at once for the next incremental fingerprint.
    if (uniform(0, 3) != 0) {
      ASSERT_EQ(memory.Fingerprint(), ref.Fingerprint()) << "step " << step;
    }
    if (step % 50 == 0) {
      Snapshot dense;
      SnapshotWriter w(&dense);
      w.Blob(ref.ram);
      ASSERT_EQ(CaptureBytes(memory), dense.bytes) << "step " << step;
    }
  }
}

TEST(MemorySparse, WritesPopulateAndZeroingReleases) {
  PhysicalMemory memory(8 * kPageBytes);
  EXPECT_EQ(memory.populated_pages(), 0u);
  EXPECT_TRUE(memory.PageIsZero(3));
  // A store of zero still gives the page its own frame; the page reads zero.
  memory.Write32(3 * kPageBytes, 0);
  EXPECT_EQ(memory.populated_pages(), 1u);
  EXPECT_TRUE(memory.PageIsZero(3));
  // A block across a page boundary populates both pages.
  uint8_t block[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  memory.WriteBlock(5 * kPageBytes - 4, block, 8);
  EXPECT_EQ(memory.populated_pages(), 3u);
  memory.ZeroPages(4, 2);
  EXPECT_EQ(memory.populated_pages(), 1u);
  memory.Fill(0x5A);
  EXPECT_EQ(memory.populated_pages(), 8u);
  memory.Fill(0);
  EXPECT_EQ(memory.populated_pages(), 0u);
}

// --- Host-memory footprint ----------------------------------------------------
// A count of private frames repeats exactly run to run, unlike host RSS, so
// these lock in that a replica costs what its guest wrote.

TEST(MemoryFootprint, FreshMachineHasNoPopulatedPages) {
  Machine machine(MachineConfig{});
  EXPECT_EQ(machine.memory().PageCount(), 1024u);
  EXPECT_EQ(machine.memory().populated_pages(), 0u);
}

TEST(MemoryFootprint, BootedCpuWorkloadPopulatesAFewDozenPages) {
  std::unique_ptr<World> world = Scenario::Replicated(WorkloadSpec::PaperCpu()).BuildWorld();
  ScenarioResult result;
  world->Run(&result);
  ASSERT_TRUE(result.completed);
  for (size_t i = 0; i < world->replica_count(); ++i) {
    const PhysicalMemory& memory = world->replica(i)->hypervisor().machine().memory();
    EXPECT_GT(memory.populated_pages(), 0u);
    EXPECT_LE(memory.populated_pages(), 32u) << "replica " << i << " of 1024 pages";
  }
}

}  // namespace
}  // namespace hbft
