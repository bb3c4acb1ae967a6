#include "machine/memory.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/check.hpp"
#include "common/hash.hpp"

namespace hbft {

namespace {

constexpr uint64_t FnvPrimePower(uint32_t n) {
  uint64_t power = 1;
  for (uint32_t i = 0; i < n; ++i) {
    power *= Fnv1aHasher::kPrime;
  }
  return power;
}

// FNV-1a over a zero byte is `h ^= 0; h *= prime`, a bare multiply, so a run
// of n zero bytes multiplies the running hash by prime^n (mod 2^64).
constexpr uint64_t kZeroWordFactor = FnvPrimePower(8);
constexpr uint64_t kZeroPageFactor = FnvPrimePower(kPageBytes);

uint64_t LoadWord(const uint8_t* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

// FNV-1a of (u32 page index, page bytes): the byte-wise hash, with each
// all-zero 8-byte word folded into one multiply.
uint64_t HashPage(uint32_t page, const uint8_t* frame) {
  Fnv1aHasher hasher;
  hasher.UpdateU32(page);
  uint64_t hash = hasher.digest();
  for (uint32_t offset = 0; offset < kPageBytes; offset += 8) {
    if (LoadWord(frame + offset) == 0) {
      hash *= kZeroWordFactor;
      continue;
    }
    for (uint32_t i = 0; i < 8; ++i) {
      hash ^= frame[offset + i];
      hash *= Fnv1aHasher::kPrime;
    }
  }
  return hash;
}

uint64_t HashZeroPage(uint32_t page) {
  Fnv1aHasher hasher;
  hasher.UpdateU32(page);
  return hasher.digest() * kZeroPageFactor;
}

}  // namespace

PhysicalMemory::PhysicalMemory(uint32_t bytes) {
  HBFT_CHECK_GT(bytes, 0u);
  HBFT_CHECK_EQ(bytes % kPageBytes, 0u);
  uint32_t pages = bytes / kPageBytes;
  frames_.assign(pages, kZeroFrame);
  dirty_.assign(pages, 1);  // Every page starts "dirty" so first Fingerprint hashes all.
  versions_.assign(pages, 0);
  page_hashes_.assign(pages, 0);
}

PhysicalMemory::~PhysicalMemory() {
  for (uint32_t page = 0; page < PageCount(); ++page) {
    Release(page);
  }
}

uint8_t* PhysicalMemory::Populate(uint32_t page) {
  auto* frame = new uint8_t[kPageBytes]();
  frames_[page] = frame;
  return frame;
}

void PhysicalMemory::Release(uint32_t page) {
  if (frames_[page] != kZeroFrame) {
    delete[] frames_[page];
    frames_[page] = kZeroFrame;
  }
}

uint32_t PhysicalMemory::populated_pages() const {
  return static_cast<uint32_t>(
      std::count_if(frames_.begin(), frames_.end(),
                    [](const uint8_t* frame) { return frame != kZeroFrame; }));
}

void PhysicalMemory::WriteBlock(uint32_t paddr, const uint8_t* data, uint32_t len) {
  HBFT_CHECK(Contains(paddr, len)) << "WriteBlock out of range paddr=" << paddr << " len=" << len;
  while (len > 0) {
    uint32_t chunk = std::min(len, kPageBytes - (paddr & kOffsetMask));
    std::memcpy(WritableAt(paddr), data, chunk);
    paddr += chunk;
    data += chunk;
    len -= chunk;
  }
}

void PhysicalMemory::ReadBlock(uint32_t paddr, uint8_t* out, uint32_t len) const {
  HBFT_CHECK(Contains(paddr, len)) << "ReadBlock out of range paddr=" << paddr << " len=" << len;
  while (len > 0) {
    uint32_t chunk = std::min(len, kPageBytes - (paddr & kOffsetMask));
    std::memcpy(out, FrameOf(paddr) + (paddr & kOffsetMask), chunk);
    paddr += chunk;
    out += chunk;
    len -= chunk;
  }
}

uint64_t PhysicalMemory::Fingerprint() {
  for (uint32_t page = 0; page < dirty_.size(); ++page) {
    if (dirty_[page] == 0) {
      continue;
    }
    dirty_[page] = 0;
    uint64_t fresh =
        frames_[page] == kZeroFrame ? HashZeroPage(page) : HashPage(page, frames_[page]);
    combined_ ^= page_hashes_[page];
    combined_ ^= fresh;
    page_hashes_[page] = fresh;
  }
  return combined_;
}

bool PhysicalMemory::AllZero(const uint8_t* frame) {
  return std::memcmp(frame, kZeroFrame, kPageBytes) == 0;
}

bool PhysicalMemory::PageIsZero(uint32_t page) const {
  return frames_[page] == kZeroFrame || AllZero(frames_[page]);
}

void PhysicalMemory::Fill(uint8_t value) {
  for (uint32_t page = 0; page < PageCount(); ++page) {
    if (value == 0) {
      Release(page);
    } else {
      std::memset(PrivateFrame(page), value, kPageBytes);
    }
  }
  std::fill(dirty_.begin(), dirty_.end(), 1);
  for (uint32_t& version : versions_) {
    ++version;
  }
  if (transfer_tracking_) {
    std::fill(transfer_dirty_.begin(), transfer_dirty_.end(), 1);
  }
}

void PhysicalMemory::ZeroPages(uint32_t first, uint32_t count) {
  HBFT_CHECK(first <= PageCount() && count <= PageCount() - first)
      << "ZeroPages out of range first=" << first << " count=" << count;
  for (uint32_t page = first; page < first + count; ++page) {
    Release(page);
    MarkDirty(page);
  }
}

void PhysicalMemory::BeginTransferTracking() {
  transfer_tracking_ = true;
  transfer_dirty_.assign(dirty_.size(), 0);
}

void PhysicalMemory::EndTransferTracking() {
  transfer_tracking_ = false;
  transfer_dirty_.clear();
}

std::vector<uint32_t> PhysicalMemory::TakeTransferDirtyPages() {
  HBFT_CHECK(transfer_tracking_);
  std::vector<uint32_t> pages;
  for (uint32_t page = 0; page < transfer_dirty_.size(); ++page) {
    if (transfer_dirty_[page] != 0) {
      transfer_dirty_[page] = 0;
      pages.push_back(page);
    }
  }
  return pages;
}

void PhysicalMemory::CaptureState(SnapshotWriter& w) const {
  w.Reserve(sizeof(uint32_t) + size());  // One allocation, as for a single Blob.
  w.U32(size());
  for (const uint8_t* frame : frames_) {
    w.Bytes(frame, kPageBytes);
  }
}

bool PhysicalMemory::RestoreState(SnapshotReader& r) {
  uint32_t image_size = 0;
  if (!r.U32(&image_size) || image_size != size()) {
    return false;
  }
  std::fill(dirty_.begin(), dirty_.end(), 1);  // Re-hash everything lazily.
  for (uint32_t& version : versions_) {
    ++version;  // Every page may change; stale superblocks must rebuild.
  }
  if (transfer_tracking_) {
    std::fill(transfer_dirty_.begin(), transfer_dirty_.end(), 1);
  }
  std::array<uint8_t, kPageBytes> incoming;
  for (uint32_t page = 0; page < PageCount(); ++page) {
    if (!r.Bytes(incoming.data(), kPageBytes)) {
      return false;
    }
    if (AllZero(incoming.data())) {
      Release(page);
    } else {
      std::memcpy(PrivateFrame(page), incoming.data(), kPageBytes);
    }
  }
  return true;
}

}  // namespace hbft
