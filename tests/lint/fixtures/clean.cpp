// Fixture: an entirely clean file — ordered containers, seeded randomness
// threaded in from outside, symmetric codec, complete snapshot, and deleted
// copy operations (an operator declaration is not a data member).
#include <cstdint>
#include <map>

namespace fixture {

class SnapshotWriter;
class SnapshotReader;

class Ledger {
 public:
  Ledger() = default;
  Ledger(const Ledger&) = delete;
  Ledger& operator=(const Ledger&) = delete;

  void Record(uint64_t key, uint64_t value) { entries_[key] = value; }

  void CaptureState(SnapshotWriter& w) const {
    w.U32(static_cast<uint32_t>(entries_.size()));
    for (const auto& [key, value] : entries_) {
      w.U64(key);
      w.U64(value);
    }
    w.U64(sum_);
  }
  bool RestoreState(SnapshotReader& r) {
    uint32_t count = 0;
    if (!r.U32(&count)) {
      return false;
    }
    entries_.clear();
    for (uint32_t i = 0; i < count; ++i) {
      uint64_t key = 0;
      uint64_t value = 0;
      if (!r.U64(&key) || !r.U64(&value)) {
        return false;
      }
      entries_[key] = value;
    }
    return r.U64(&sum_);
  }

 private:
  std::map<uint64_t, uint64_t> entries_;
  uint64_t sum_ = 0;
};

}  // namespace fixture
