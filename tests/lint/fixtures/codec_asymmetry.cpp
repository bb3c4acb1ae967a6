// Fixture: codec-symmetry rule. Three broken pairs: a width mismatch (writes
// U64 where the reader expects U32), a count mismatch (a trailing field the
// reader never consumes), and a raw image (u32 length + raw bytes) read back
// as one length-prefixed blob.
#include <cstdint>

namespace fixture {

class SnapshotWriter;
class SnapshotReader;

class WidthSkew {
 public:
  void Serialize(SnapshotWriter& w) const {
    w.U32(head_);
    w.U64(body_);  // VIOLATION: codec-symmetry (reader uses U32)
  }
  bool Deserialize(SnapshotReader& r) {
    uint32_t narrowed = 0;
    return r.U32(&head_) && r.U32(&narrowed);
  }

 private:
  uint32_t head_ = 0;
  uint64_t body_ = 0;
};

class CountSkew {
 public:
  void EncodeHeader(SnapshotWriter& w) const {
    w.U32(kind_);
    w.U32(flags_);  // VIOLATION: codec-symmetry (reader stops after kind_)
  }
  bool DecodeHeader(SnapshotReader& r) { return r.U32(&kind_); }

 private:
  uint32_t kind_ = 0;
  uint32_t flags_ = 0;
};

class RawImage {
 public:
  void CaptureImage(SnapshotWriter& w) const {
    w.U32(4);  // VIOLATION: codec-symmetry (reader takes one Blob)
    w.Bytes(image_, 4);
  }
  bool RestoreImage(SnapshotReader& r) { return r.Blob(&restored_); }

 private:
  uint8_t image_[4] = {};
  uint8_t restored_[4] = {};
};

}  // namespace fixture
