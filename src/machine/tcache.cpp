#include "machine/tcache.hpp"

#include <bit>

namespace hbft {

namespace {

uint32_t RoundUpPow2(uint32_t v) {
  uint32_t p = 1;
  while (p < v && p < (1u << 30)) {
    p <<= 1;
  }
  return p;
}

constexpr size_t kInitialIndexSize = 16;

}  // namespace

TranslationCache::TranslationCache(uint32_t max_blocks)
    : max_blocks_(RoundUpPow2(max_blocks == 0 ? 1 : max_blocks)) {
  Rehash(kInitialIndexSize);
}

size_t TranslationCache::Home(uint32_t vaddr, uint32_t paddr) const {
  // Fibonacci hashing of the whole 64-bit key: the top bits of the product
  // depend on every key bit, unlike the low bits of a 32-bit product.
  const uint64_t key = (uint64_t{vaddr} << 32) | paddr;
  return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> index_shift_);
}

size_t TranslationCache::Probe(uint32_t vaddr, uint32_t paddr) const {
  const size_t mask = index_.size() - 1;
  for (size_t pos = Home(vaddr, paddr);; pos = (pos + 1) & mask) {
    const uint32_t entry = index_[pos];
    if (entry == kEmpty ||
        (blocks_[entry].entry_vaddr == vaddr && blocks_[entry].entry_paddr == paddr)) {
      return pos;
    }
  }
}

void TranslationCache::Unlink(size_t pos) {
  // Backward-shift deletion: pull later members of the probe run into the
  // hole when their home position allows it, so no tombstones accumulate.
  const size_t mask = index_.size() - 1;
  size_t hole = pos;
  for (size_t next = (hole + 1) & mask; index_[next] != kEmpty; next = (next + 1) & mask) {
    const Superblock& block = blocks_[index_[next]];
    const size_t home = Home(block.entry_vaddr, block.entry_paddr);
    if (((next - home) & mask) >= ((next - hole) & mask)) {
      index_[hole] = index_[next];
      hole = next;
    }
  }
  index_[hole] = kEmpty;
}

void TranslationCache::Rehash(size_t index_size) {
  index_.assign(index_size, kEmpty);
  index_shift_ = static_cast<uint32_t>(64 - std::countr_zero(index_size));
  for (uint32_t i = 0; i < blocks_.size(); ++i) {
    index_[Probe(blocks_[i].entry_vaddr, blocks_[i].entry_paddr)] = i;
  }
}

Superblock* TranslationCache::Find(uint32_t vaddr, uint32_t paddr, uint32_t page_version) {
  const uint32_t entry = index_[Probe(vaddr, paddr)];
  if (entry == kEmpty || !blocks_[entry].valid) {
    ++stats_.misses;
    return nullptr;
  }
  Superblock& block = blocks_[entry];
  if (block.version != page_version) {
    ++stats_.stale;
    block.valid = false;
    return nullptr;
  }
  ++stats_.hits;
  return &block;
}

Superblock* TranslationCache::Claim(uint32_t vaddr, uint32_t paddr) {
  size_t pos = Probe(vaddr, paddr);
  uint32_t entry = index_[pos];
  if (entry == kEmpty) {
    if (blocks_.size() < max_blocks_) {
      entry = static_cast<uint32_t>(blocks_.size());
      blocks_.emplace_back();
    } else {
      entry = next_victim_;
      next_victim_ = (next_victim_ + 1) & (max_blocks_ - 1);
      const Superblock& victim = blocks_[entry];
      if (victim.valid) {
        ++stats_.evictions;
      }
      Unlink(Probe(victim.entry_vaddr, victim.entry_paddr));
      pos = Probe(vaddr, paddr);
    }
    Superblock& block = blocks_[entry];
    block.entry_vaddr = vaddr;
    block.entry_paddr = paddr;
    index_[pos] = entry;
    if (2 * blocks_.size() > index_.size()) {
      Rehash(2 * index_.size());  // Keep the load factor at most 1/2.
    }
  }
  Superblock& block = blocks_[entry];
  block.valid = false;
  block.code.clear();
  ++stats_.builds;
  return &block;
}

void TranslationCache::InvalidateAll() {
  std::deque<Superblock>().swap(blocks_);
  next_victim_ = 0;
  Rehash(kInitialIndexSize);
  ++stats_.flushes;
}

void BuildSuperblock(const PhysicalMemory& memory, uint32_t vaddr, uint32_t paddr, bool clip,
                     uint32_t clip_lo, uint32_t clip_hi, Superblock* out) {
  out->page = paddr >> kPageShift;
  out->version = memory.PageVersion(out->page);
  out->code.clear();
  const uint32_t page_end = (paddr & ~(kPageBytes - 1)) + kPageBytes;
  uint32_t v = vaddr;
  uint32_t p = paddr;
  while (p < page_end) {
    if (clip && v != vaddr && (v == clip_lo || v == clip_hi)) {
      break;
    }
    const uint32_t word = memory.Read32(p);
    const OpTraits& traits = TraitsFor(static_cast<uint8_t>(word >> 26));
    if (!traits.valid) {
      break;  // The undecodable word traps at its own dispatch.
    }
    PredecodedInstr pi;
    pi.instr = *Decode(word);
    pi.word = word;
    pi.imm_u = static_cast<uint32_t>(pi.instr.imm);
    pi.privileged = traits.privileged;
    switch (pi.instr.op) {
      case Opcode::kLw:
      case Opcode::kLwp:
      case Opcode::kSw:
      case Opcode::kSwp:
        pi.mem_bytes = 4;
        break;
      case Opcode::kLh:
      case Opcode::kLhu:
      case Opcode::kSh:
        pi.mem_bytes = 2;
        break;
      case Opcode::kLb:
      case Opcode::kLbu:
      case Opcode::kSb:
        pi.mem_bytes = 1;
        break;
      default:
        break;
    }
    pi.mem_store = pi.instr.op == Opcode::kSw || pi.instr.op == Opcode::kSh ||
                   pi.instr.op == Opcode::kSb || pi.instr.op == Opcode::kSwp;
    pi.mem_physical = pi.instr.op == Opcode::kLwp || pi.instr.op == Opcode::kSwp;
    if (traits.format == InstrFormat::kB || traits.format == InstrFormat::kJ) {
      pi.target = v + 4 + pi.imm_u * 4;
    }
    out->code.push_back(pi);
    if (traits.ends_superblock) {
      break;
    }
    v += 4;
    p += 4;
  }
  out->valid = !out->code.empty();
}

}  // namespace hbft
