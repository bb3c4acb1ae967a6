// Predecoded-superblock translation cache for the cached interpreter.
//
// A superblock is a straight-line run of predecoded instructions starting at
// a dispatch PC and ending at the first control transfer / system instruction
// (OpTraits::ends_superblock), page boundary, idle-loop boundary, or
// undecodable word. Blocks are keyed by (entry vaddr, entry paddr) and carry
// the code page's version counter at build time: a guest write to the page
// bumps the version (PhysicalMemory::PageVersion) and the next dispatch
// rebuilds the block from current bytes, so self-modifying code executes
// exactly as the fetch-every-instruction slow path would.
//
// The cache is an exact table: every key has its own entry, so blocks whose
// addresses share low bits (kernel code at x and user code at 0x200000 + x
// under the identity mapping) never displace each other. It holds only the
// blocks actually built, up to a configured bound; past the bound it recycles
// entries in the order they were first filled.
//
// The cache is pure derived state — rebuildable from memory at any time — so
// it is never serialised; Machine invalidates it after a snapshot restore.
#ifndef HBFT_MACHINE_TCACHE_HPP_
#define HBFT_MACHINE_TCACHE_HPP_

#include <cstdint>
#include <deque>
#include <vector>

#include "isa/isa.hpp"
#include "machine/memory.hpp"

namespace hbft {

// One predecoded instruction: the decoded fields plus everything the dispatch
// loop would otherwise recompute per execution (raw word for the trace ring,
// the immediate as the execute stage consumes it, static branch targets, and
// the memory-access class).
struct PredecodedInstr {
  DecodedInstr instr;
  uint32_t word = 0;
  uint32_t imm_u = 0;      // static_cast<uint32_t>(instr.imm).
  uint32_t target = 0;     // pc + 4 + imm*4 for B/J formats.
  uint8_t mem_bytes = 0;   // Access width; 0 = not a memory instruction.
  bool mem_store = false;
  bool mem_physical = false;  // LWP/SWP: privileged physical window.
  bool privileged = false;
};

struct Superblock {
  bool valid = false;
  uint32_t entry_vaddr = 0;
  uint32_t entry_paddr = 0;
  uint32_t page = 0;     // entry_paddr >> kPageShift.
  uint32_t version = 0;  // Code page version at build time.
  std::vector<PredecodedInstr> code;
};

// Open-addressing block table keyed by (entry vaddr, entry paddr). Blocks
// live in a deque, so a Superblock* stays valid while the table grows; a
// stale block is found by the very dispatch that would have executed it and
// is rebuilt in its own entry.
class TranslationCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;       // No block for the key (cold or evicted).
    uint64_t stale = 0;        // Key present but the code page was written.
    uint64_t evictions = 0;    // A different key displaced a live block.
    uint64_t builds = 0;
    uint64_t flushes = 0;      // InvalidateAll calls.
  };

  // `max_blocks` is rounded up to a power of two (minimum 1).
  explicit TranslationCache(uint32_t max_blocks);

  // The valid block for the key at `page_version`, or nullptr (miss or
  // stale; a stale block is invalidated so the caller rebuilds in place).
  Superblock* Find(uint32_t vaddr, uint32_t paddr, uint32_t page_version);

  // The entry a rebuilt block for the key goes into, cleared and re-keyed:
  // the key's own entry, a new one, or — at the bound — the next entry in
  // first-fill order (counted as an eviction when that block was live). The
  // caller fills it via BuildSuperblock.
  Superblock* Claim(uint32_t vaddr, uint32_t paddr);

  void InvalidateAll();

  const Stats& stats() const { return stats_; }
  // The bound on resident blocks.
  uint32_t capacity() const { return max_blocks_; }

 private:
  static constexpr uint32_t kEmpty = ~0u;

  size_t Home(uint32_t vaddr, uint32_t paddr) const;
  // The index_ position holding the key, or the empty position where it
  // would go.
  size_t Probe(uint32_t vaddr, uint32_t paddr) const;
  void Unlink(size_t pos);
  void Rehash(size_t index_size);

  uint32_t max_blocks_;
  std::deque<Superblock> blocks_;
  std::vector<uint32_t> index_;  // Linear probing; kEmpty or a blocks_ index.
  uint32_t index_shift_ = 0;     // 64 - log2(index_.size()).
  uint32_t next_victim_ = 0;     // Next entry to recycle, once at the bound.
  Stats stats_;
};

// Predecodes the superblock starting at (vaddr, paddr) from physical memory.
// When `clip` is set, `clip_lo`/`clip_hi` (the configured idle-loop bounds)
// never appear as interior PCs — blocks stop just before them — so every
// sequential arrival at an idle boundary is a dispatch point and the cached
// idle-loop dynamics match the slow path's per-instruction checks exactly.
// Leaves `out->valid == false` when the entry word itself is undecodable.
void BuildSuperblock(const PhysicalMemory& memory, uint32_t vaddr, uint32_t paddr, bool clip,
                     uint32_t clip_lo, uint32_t clip_hi, Superblock* out);

}  // namespace hbft

#endif  // HBFT_MACHINE_TCACHE_HPP_
