// Physical memory with per-page dirty tracking and incremental fingerprinting.
//
// RAM is a frame table: one pointer per 4 KiB page. A page that was never
// written points at a single shared, static, read-only zero frame; its first
// write allocates a private zeroed frame. A replica therefore costs host
// memory in proportion to the pages its guest actually wrote, not to the
// configured RAM size, while every guest-visible byte, fingerprint and
// snapshot is exactly what a dense array would give.
//
// Replica-coordination tests need a state fingerprint at every epoch boundary;
// rehashing all of RAM each epoch would dominate runtime, so memory keeps one
// FNV hash per page, re-hashes only pages dirtied since the last fingerprint,
// and combines page hashes with XOR (order-independent, incrementally
// updatable). An unwritten page hashes in O(1) (see memory.cpp).
#ifndef HBFT_MACHINE_MEMORY_HPP_
#define HBFT_MACHINE_MEMORY_HPP_

#include <cstdint>
#include <vector>

#include "common/snapshot.hpp"
#include "isa/isa.hpp"

namespace hbft {

class PhysicalMemory : public Snapshotable {
 public:
  explicit PhysicalMemory(uint32_t bytes);
  ~PhysicalMemory() override;
  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  uint32_t size() const { return PageCount() * kPageBytes; }
  bool Contains(uint32_t paddr, uint32_t access_bytes) const {
    return paddr + access_bytes <= size() && paddr + access_bytes >= paddr;
  }

  // Raw accessors; callers must bounds-check via Contains. Little-endian.
  // 16- and 32-bit accesses must be naturally aligned (unaligned guest
  // accesses trap before reaching memory), so they never straddle a page.
  uint8_t Read8(uint32_t paddr) const { return FrameOf(paddr)[paddr & kOffsetMask]; }
  uint16_t Read16(uint32_t paddr) const {
    const uint8_t* p = FrameOf(paddr) + (paddr & kOffsetMask);
    return static_cast<uint16_t>(p[0] | (p[1] << 8));
  }
  uint32_t Read32(uint32_t paddr) const {
    const uint8_t* p = FrameOf(paddr) + (paddr & kOffsetMask);
    return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
  }
  void Write8(uint32_t paddr, uint8_t value) { WritableAt(paddr)[0] = value; }
  void Write16(uint32_t paddr, uint16_t value) {
    uint8_t* p = WritableAt(paddr);
    p[0] = static_cast<uint8_t>(value);
    p[1] = static_cast<uint8_t>(value >> 8);
  }
  void Write32(uint32_t paddr, uint32_t value) {
    uint8_t* p = WritableAt(paddr);
    p[0] = static_cast<uint8_t>(value);
    p[1] = static_cast<uint8_t>(value >> 8);
    p[2] = static_cast<uint8_t>(value >> 16);
    p[3] = static_cast<uint8_t>(value >> 24);
  }

  // Bulk copy used by loaders and (virtualised) DMA. Marks pages dirty.
  void WriteBlock(uint32_t paddr, const uint8_t* data, uint32_t len);
  void ReadBlock(uint32_t paddr, uint8_t* out, uint32_t len) const;

  // XOR-combined per-page FNV fingerprint of all of RAM. Amortised cost is
  // proportional to pages dirtied since the previous call.
  uint64_t Fingerprint();

  // --- Page view (state transfer) -------------------------------------------

  uint32_t PageCount() const { return static_cast<uint32_t>(frames_.size()); }
  // O(1) for a page that was never written; a scan of the frame otherwise.
  bool PageIsZero(uint32_t page) const;

  // Monotonic per-page write counter, bumped by every mutation of the page
  // (stores, WriteBlock/DMA, Fill, ZeroPages, snapshot restore). The
  // translation cache keys predecoded superblocks on it so guest writes to
  // code pages invalidate stale blocks. Derived bookkeeping: never serialised.
  uint32_t PageVersion(uint32_t page) const { return versions_[page]; }

  // Overwrites all of RAM with `value` (a joining replica zeroes its memory
  // before applying transferred pages). Marks everything dirty. Fill(0)
  // releases every private frame.
  void Fill(uint8_t value);
  // Zeroes pages [first, first + count) and releases their frames. Marks
  // them dirty, exactly as writing a page of zeroes would.
  void ZeroPages(uint32_t first, uint32_t count);

  // Pages backed by a private frame: the host-memory footprint in pages.
  // Derived from the frame table; never serialised.
  uint32_t populated_pages() const;

  // --- Transfer dirty tracking ----------------------------------------------
  // A second dirty channel, independent of the fingerprint's (which clears
  // its flags on every Fingerprint call): the state-transfer source needs
  // "pages dirtied since my last delta round" regardless of who fingerprints
  // in between. Only one tracker exists per memory; Begin resets it.

  void BeginTransferTracking();
  void EndTransferTracking();
  bool transfer_tracking() const { return transfer_tracking_; }
  // All pages dirtied since the previous call (or since Begin), ascending.
  std::vector<uint32_t> TakeTransferDirtyPages();

  // --- Snapshotable ----------------------------------------------------------
  // Canonical image: u32 byte size + raw contents, the same bytes a dense
  // array would give. Restore requires the identical size (RAM is hardware;
  // a snapshot never resizes it) and re-shares the zero frame for every
  // all-zero page it reads.
  void CaptureState(SnapshotWriter& w) const override;
  bool RestoreState(SnapshotReader& r) override;

 private:
  static constexpr uint32_t kOffsetMask = kPageBytes - 1;

  const uint8_t* FrameOf(uint32_t paddr) const { return frames_[paddr >> kPageShift]; }
  // The byte at `paddr` in a private frame (allocated on the page's first
  // write), with the page marked dirty.
  uint8_t* WritableAt(uint32_t paddr) {
    uint32_t page = paddr >> kPageShift;
    MarkDirty(page);
    return PrivateFrame(page) + (paddr & kOffsetMask);
  }
  uint8_t* PrivateFrame(uint32_t page) {
    if (frames_[page] == kZeroFrame) {
      return Populate(page);
    }
    // Every frame but the zero frame was allocated writable by Populate.
    return const_cast<uint8_t*>(frames_[page]);
  }
  static bool AllZero(const uint8_t* frame);
  uint8_t* Populate(uint32_t page);  // Gives the page a private zeroed frame.
  void Release(uint32_t page);       // Back to the shared zero frame.
  void MarkDirty(uint32_t page) {
    dirty_[page] = 1;
    ++versions_[page];
    if (transfer_tracking_) {
      transfer_dirty_[page] = 1;
    }
  }

  // The frame every unwritten page reads. It lives in constant storage, is
  // shared by all machines on all threads, and is never handed out for writing.
  alignas(64) static constexpr uint8_t kZeroFrame[kPageBytes] = {};

  // Per page: a private frame (owned, from Populate) or kZeroFrame.
  std::vector<const uint8_t*> frames_;
  std::vector<uint8_t> dirty_;        // Per-page dirty flags.
  std::vector<uint32_t> versions_;    // Per-page write counters (see PageVersion).
  // hbft-lint: derived-state — hash cache, rebuilt lazily from frames_/versions_.
  std::vector<uint64_t> page_hashes_; // Cached per-page hashes.
  uint64_t combined_ = 0;  // hbft-lint: derived-state — see page_hashes_ above.
  bool transfer_tracking_ = false;
  std::vector<uint8_t> transfer_dirty_;
};

}  // namespace hbft

#endif  // HBFT_MACHINE_MEMORY_HPP_
