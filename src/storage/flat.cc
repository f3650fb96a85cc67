#include "storage/flat.h"

#include <bit>
#include <cstring>
#include <utility>
#include <variant>

namespace modb {

namespace {

constexpr uint32_t kMagic = 0x4d4f4442;  // "MODB"
/// magic + root size + array count.
constexpr std::size_t kBlobHeaderBytes = 12;

// -- encoding ----------------------------------------------------------------
//
// Every type has ONE encoder, Encode(W*, const T&), written against a
// sink W that receives the root record and then each database array in
// order: Begin(num_arrays) opens the root, Array() opens the next array,
// End() closes the value. Three sinks run it:
//  - SizeSink counts the SerializeFlat bytes, so buffers are sized once;
//  - BlobSink writes the SerializeFlat bytes through a raw cursor into
//    space sized by SizeSink (AppendAttribute);
//  - ValueSink builds a FlatValue, root and arrays as strings (ToFlat).
// Values are little-endian: the records are memcpy'd.
static_assert(std::endian::native == std::endian::little,
              "flat records are little-endian byte copies");

class SizeSink {
 public:
  void Begin(uint32_t) { n_ += kBlobHeaderBytes; }
  void Array() { n_ += sizeof(uint32_t); }
  void End() {}
  void Put(const void*, std::size_t k) { n_ += k; }
  void Zeros(std::size_t k) { n_ += k; }
  std::size_t bytes() const { return n_; }

 private:
  std::size_t n_ = 0;
};

class BlobSink {
 public:
  explicit BlobSink(char* p) : p_(p) {}
  void Begin(uint32_t num_arrays) {
    Put(&kMagic, sizeof kMagic);
    Open();
    Put(&num_arrays, sizeof num_arrays);
    start_ = p_;  // the root record; its size is patched by Close()
  }
  void Array() {
    Close();
    Open();
  }
  void End() { Close(); }
  void Put(const void* v, std::size_t k) {
    std::memcpy(p_, v, k);
    p_ += k;
  }
  void Zeros(std::size_t k) {
    std::memset(p_, 0, k);
    p_ += k;
  }

 private:
  // Reserves a section's u32 size field; Close() fills it in.
  void Open() {
    size_at_ = p_;
    p_ += sizeof(uint32_t);
    start_ = p_;
  }
  void Close() {
    const uint32_t n = uint32_t(p_ - start_);
    std::memcpy(size_at_, &n, sizeof n);
  }

  char* p_;
  char* size_at_ = nullptr;
  char* start_ = nullptr;
};

class ValueSink {
 public:
  void Begin(uint32_t num_arrays) {
    value_.arrays.reserve(num_arrays);
    cur_ = &value_.root;
  }
  void Array() { cur_ = &value_.arrays.emplace_back(); }
  void End() {}
  void Put(const void* v, std::size_t k) {
    cur_->append(static_cast<const char*>(v), k);
  }
  void Zeros(std::size_t k) { cur_->append(k, '\0'); }
  FlatValue Take() { return std::move(value_); }

 private:
  FlatValue value_;
  std::string* cur_ = nullptr;
};

template <typename W>
void PutU8(W* w, uint8_t v) {
  w->Put(&v, sizeof v);
}
template <typename W>
void PutU32(W* w, uint32_t v) {
  w->Put(&v, sizeof v);
}
template <typename W>
void PutI32(W* w, int32_t v) {
  w->Put(&v, sizeof v);
}
template <typename W>
void PutI64(W* w, int64_t v) {
  w->Put(&v, sizeof v);
}
template <typename W>
void PutF64(W* w, double v) {
  w->Put(&v, sizeof v);
}

// -- shared record helpers ---------------------------------------------------

// Reads fixed-size records whose bytes one length check has already
// covered: no per-field bounds checks.
class RecordReader {
 public:
  explicit RecordReader(const char* p) : p_(p) {}
  template <typename T>
  T Get() {
    T v;
    std::memcpy(&v, p_, sizeof v);
    p_ += sizeof v;
    return v;
  }
  std::string_view View(std::size_t n) {
    std::string_view v(p_, n);
    p_ += n;
    return v;
  }

 private:
  const char* p_;
};

// Record sizes of the fixed-width records (bytes on the wire).
constexpr std::size_t kIntervalBytes = 18;   // 2 f64 + 2 u8
constexpr std::size_t kMotionBytes = 32;     // 4 f64
constexpr std::size_t kStringBytes = 1 + kMaxStringLength;  // u8 len + chars
constexpr std::size_t kURealBytes = 25;      // 3 f64 + u8
constexpr std::size_t kPointBytes = 16;      // 2 f64
constexpr std::size_t kLineHsBytes = 33;     // seg + left_dominating u8
constexpr std::size_t kRegionHsBytes = 46;   // seg + 2 u8 + 3 i32
constexpr std::size_t kCycleRecBytes = 17;   // 3 i32 + u8 + i32
constexpr std::size_t kFaceRecBytes = 8;     // 2 i32
constexpr std::size_t kSubarrayRefBytes = 8; // offset u32 + count u32

// One bounds check for a whole record, then field reads through a
// RecordReader.
Status GetRecord(ByteReader* r, std::size_t n, RecordReader* out) {
  std::string_view v;
  MODB_RETURN_IF_ERROR(r->GetView(n, &v));
  *out = RecordReader(v.data());
  return Status::OK();
}

template <typename W>
void PutInterval(W* w, const TimeInterval& iv) {
  PutF64(w, iv.start());
  PutF64(w, iv.end());
  PutU8(w, iv.left_closed() ? 1 : 0);
  PutU8(w, iv.right_closed() ? 1 : 0);
}

Result<TimeInterval> GetInterval(RecordReader* r) {
  const double s = r->Get<double>();
  const double e = r->Get<double>();
  const uint8_t lc = r->Get<uint8_t>();
  const uint8_t rc = r->Get<uint8_t>();
  return TimeInterval::Make(s, e, lc != 0, rc != 0);
}

Result<TimeInterval> GetInterval(ByteReader* r) {
  RecordReader rec(nullptr);
  MODB_RETURN_IF_ERROR(GetRecord(r, kIntervalBytes, &rec));
  return GetInterval(&rec);
}

template <typename W>
void PutMotion(W* w, const LinearMotion& m) {
  PutF64(w, m.x0);
  PutF64(w, m.x1);
  PutF64(w, m.y0);
  PutF64(w, m.y1);
}

LinearMotion GetMotion(RecordReader* r) {
  LinearMotion m;
  m.x0 = r->Get<double>();
  m.x1 = r->Get<double>();
  m.y0 = r->Get<double>();
  m.y1 = r->Get<double>();
  return m;
}

Status GetMotion(ByteReader* r, LinearMotion* m) {
  RecordReader rec(nullptr);
  MODB_RETURN_IF_ERROR(GetRecord(r, kMotionBytes, &rec));
  *m = GetMotion(&rec);
  return Status::OK();
}

template <typename W>
void PutMSeg(W* w, const MSeg& m) {
  PutMotion(w, m.s());
  PutMotion(w, m.e());
}

Result<MSeg> GetMSeg(ByteReader* r) {
  LinearMotion s, e;
  MODB_RETURN_IF_ERROR(GetMotion(r, &s));
  MODB_RETURN_IF_ERROR(GetMotion(r, &e));
  return MSeg::Make(s, e);
}

template <typename W>
void PutRect(W* w, const Rect& r) {
  PutF64(w, r.min_x);
  PutF64(w, r.min_y);
  PutF64(w, r.max_x);
  PutF64(w, r.max_y);
}

Status GetRect(ByteReader* r, Rect* out) {
  MODB_RETURN_IF_ERROR(r->GetF64(&out->min_x));
  MODB_RETURN_IF_ERROR(r->GetF64(&out->min_y));
  MODB_RETURN_IF_ERROR(r->GetF64(&out->max_x));
  MODB_RETURN_IF_ERROR(r->GetF64(&out->max_y));
  return Status::OK();
}

template <typename W>
void PutSeg(W* w, const Seg& s) {
  PutF64(w, s.a().x);
  PutF64(w, s.a().y);
  PutF64(w, s.b().x);
  PutF64(w, s.b().y);
}

Result<Seg> GetSeg(ByteReader* r) {
  double ax, ay, bx, by;
  MODB_RETURN_IF_ERROR(r->GetF64(&ax));
  MODB_RETURN_IF_ERROR(r->GetF64(&ay));
  MODB_RETURN_IF_ERROR(r->GetF64(&bx));
  MODB_RETURN_IF_ERROR(r->GetF64(&by));
  return Seg::Make(Point(ax, ay), Point(bx, by));
}

// A string as its fixed-length character array: u8 length, then
// kMaxStringLength bytes, zero padded (Section 4.1 footnote).
template <typename W>
void PutPaddedString(W* w, const std::string& s) {
  PutU8(w, uint8_t(s.size()));
  w->Put(s.data(), s.size());
  w->Zeros(kMaxStringLength - s.size());
}

Result<std::string> GetPaddedString(RecordReader* r) {
  const uint8_t len = r->Get<uint8_t>();
  const std::string_view padded = r->View(kMaxStringLength);
  if (len > kMaxStringLength) {
    return Status::InvalidArgument("bad string length");
  }
  return std::string(padded.substr(0, len));
}

// A corrupted count field must not drive a huge allocation before the
// per-record short-read checks get a chance to fire: every record
// consumes at least `min_record_bytes` of the backing array, so any
// count beyond remaining/min_record_bytes is corruption — reject it up
// front instead of reserving for it.
Status CheckCount(uint32_t n, std::size_t remaining,
                  std::size_t min_record_bytes) {
  if (std::size_t(n) > remaining / min_record_bytes) {
    return Status::InvalidArgument("count field exceeds its database array");
  }
  return Status::OK();
}

Status CheckArity(const FlatView& f, std::size_t arrays, const char* type) {
  if (f.num_arrays != arrays) {
    return Status::InvalidArgument(std::string(type) + " arity");
  }
  return Status::OK();
}

// Decoders read their record or array to the end: bytes a writer never
// produces are corruption, not padding.
Status CheckConsumed(const ByteReader& r, const char* what) {
  if (!r.AtEnd()) {
    return Status::InvalidArgument(std::to_string(r.Remaining()) +
                                   " unconsumed bytes in " + what);
  }
  return Status::OK();
}

// -- base types --------------------------------------------------------------

template <typename W>
void Encode(W* w, const IntValue& v) {
  w->Begin(0);
  PutU8(w, v.defined() ? 1 : 0);
  PutI64(w, v.defined() ? v.value() : 0);
  w->End();
}

template <typename W>
void Encode(W* w, const RealValue& v) {
  w->Begin(0);
  PutU8(w, v.defined() ? 1 : 0);
  PutF64(w, v.defined() ? v.value() : 0);
  w->End();
}

template <typename W>
void Encode(W* w, const BoolValue& v) {
  w->Begin(0);
  PutU8(w, v.defined() ? 1 : 0);
  PutU8(w, v.defined() && v.value() ? 1 : 0);
  w->End();
}

// Strings must pass CheckStrings first.
template <typename W>
void Encode(W* w, const StringValue& v) {
  static const std::string kEmpty;
  w->Begin(0);
  PutU8(w, v.defined() ? 1 : 0);
  PutPaddedString(w, v.defined() ? v.value() : kEmpty);
  w->End();
}

// -- spatial types -----------------------------------------------------------

template <typename W>
void Encode(W* w, const Point& p) {
  w->Begin(0);
  PutF64(w, p.x);
  PutF64(w, p.y);
  w->End();
}

template <typename W>
void Encode(W* w, const Points& ps) {
  w->Begin(1);
  PutU32(w, uint32_t(ps.Size()));
  PutRect(w, ps.BoundingBox());
  w->Array();
  for (const Point& p : ps.points()) {
    PutF64(w, p.x);
    PutF64(w, p.y);
  }
  w->End();
}

template <typename W>
void Encode(W* w, const Line& l) {
  w->Begin(1);
  PutU32(w, uint32_t(l.NumSegments()));
  PutF64(w, l.Length());
  PutRect(w, l.BoundingBox());
  w->Array();
  // Halfsegment array, sorted (Section 4.1).
  for (const HalfSegment& h : l.HalfSegments()) {
    PutSeg(w, h.seg);
    PutU8(w, h.left_dominating ? 1 : 0);
  }
  w->End();
}

template <typename W>
void Encode(W* w, const Region& reg) {
  w->Begin(3);
  PutU32(w, uint32_t(reg.halfsegments().size()));
  PutU32(w, uint32_t(reg.NumCycles()));
  PutU32(w, uint32_t(reg.NumFaces()));
  PutF64(w, reg.Area());
  PutF64(w, reg.Perimeter());
  PutRect(w, reg.BoundingBox());
  w->Array();
  for (const HalfSegment& h : reg.halfsegments()) {
    PutSeg(w, h.seg);
    PutU8(w, h.left_dominating ? 1 : 0);
    PutU8(w, h.inside_above ? 1 : 0);
    PutI32(w, h.cycle);
    PutI32(w, h.face);
    PutI32(w, h.next_in_cycle);
  }
  w->Array();
  for (const CycleRecord& c : reg.cycles()) {
    PutI32(w, c.first_halfsegment);
    PutI32(w, c.next_cycle_in_face);
    PutI32(w, c.face);
    PutU8(w, c.is_hole ? 1 : 0);
    PutI32(w, c.size);
  }
  w->Array();
  for (const FaceRecord& fc : reg.faces()) {
    PutI32(w, fc.first_cycle);
    PutI32(w, fc.num_holes);
  }
  w->End();
}

// -- range types -------------------------------------------------------------

template <typename W>
void Encode(W* w, const Periods& p) {
  w->Begin(1);
  PutU32(w, uint32_t(p.NumIntervals()));
  w->Array();
  for (const TimeInterval& iv : p.intervals()) PutInterval(w, iv);
  w->End();
}

// -- sliced representations --------------------------------------------------

// Unit payloads of the fixed-size-unit mappings.
template <typename W>
void PutValue(W* w, const UBool& u) {
  PutU8(w, u.value() ? 1 : 0);
}
template <typename W>
void PutValue(W* w, const UInt& u) {
  PutI64(w, u.value());
}
template <typename W>
void PutValue(W* w, const UString& u) {
  PutPaddedString(w, u.value());
}
template <typename W>
void PutValue(W* w, const UReal& u) {
  PutF64(w, u.a());
  PutF64(w, u.b());
  PutF64(w, u.c());
  PutU8(w, u.root() ? 1 : 0);
}
template <typename W>
void PutValue(W* w, const UPoint& u) {
  PutMotion(w, u.motion());
}

// Fixed-size-unit mappings (mbool, mint, mstring, mreal, mpoint): one
// `units` array (Figure 7 with k = 0 subarrays), each record the unit
// interval and then the unit payload. The subarray layouts below are
// more specialized overloads.
template <typename W, typename U>
void Encode(W* w, const Mapping<U>& m) {
  w->Begin(1);
  PutU32(w, uint32_t(m.NumUnits()));
  w->Array();
  for (const U& u : m.units()) {
    PutInterval(w, u.interval());
    PutValue(w, u);
  }
  w->End();
}

// Figure 7 layout: a units array with subarray references into one
// shared array of unit components (motions, msegments).
template <typename W>
void Encode(W* w, const MovingPoints& m) {
  w->Begin(2);
  PutU32(w, uint32_t(m.NumUnits()));
  w->Array();
  uint32_t offset = 0;
  for (const UPoints& u : m.units()) {
    PutInterval(w, u.interval());
    PutU32(w, offset);
    PutU32(w, uint32_t(u.Size()));
    offset += uint32_t(u.Size());
  }
  w->Array();
  for (const UPoints& u : m.units()) {
    for (const LinearMotion& mo : u.motions()) PutMotion(w, mo);
  }
  w->End();
}

template <typename W>
void Encode(W* w, const MovingLine& m) {
  w->Begin(2);
  PutU32(w, uint32_t(m.NumUnits()));
  w->Array();
  uint32_t offset = 0;
  for (const ULine& u : m.units()) {
    PutInterval(w, u.interval());
    PutU32(w, offset);
    PutU32(w, uint32_t(u.Size()));
    offset += uint32_t(u.Size());
  }
  w->Array();
  for (const ULine& u : m.units()) {
    for (const MSeg& s : u.msegs()) PutMSeg(w, s);
  }
  w->End();
}

// Figure 7 + Section 4.2: units reference mfaces, which reference
// mcycles (outer first, then holes), which reference runs of the shared
// msegments array.
template <typename W>
void Encode(W* w, const MovingRegion& m) {
  w->Begin(4);
  PutU32(w, uint32_t(m.NumUnits()));
  w->Array();
  uint32_t face_off = 0;
  for (const URegion& u : m.units()) {
    PutInterval(w, u.interval());
    PutU32(w, face_off);
    PutU32(w, uint32_t(u.faces().size()));
    face_off += uint32_t(u.faces().size());
  }
  w->Array();
  uint32_t cycle_off = 0;
  for (const URegion& u : m.units()) {
    for (const MFace& fc : u.faces()) {
      PutU32(w, cycle_off);
      PutU32(w, uint32_t(1 + fc.holes.size()));
      cycle_off += uint32_t(1 + fc.holes.size());
    }
  }
  w->Array();
  uint32_t mseg_off = 0;
  auto put_cycle = [&](const MCycle& cyc, bool is_hole) {
    PutU32(w, mseg_off);
    PutU32(w, uint32_t(cyc.size()));
    PutU8(w, is_hole ? 1 : 0);
    mseg_off += uint32_t(cyc.size());
  };
  for (const URegion& u : m.units()) {
    for (const MFace& fc : u.faces()) {
      put_cycle(fc.outer, false);
      for (const MCycle& h : fc.holes) put_cycle(h, true);
    }
  }
  w->Array();
  for (const URegion& u : m.units()) {
    for (const MFace& fc : u.faces()) {
      for (const MSeg& s : fc.outer) PutMSeg(w, s);
      for (const MCycle& h : fc.holes) {
        for (const MSeg& s : h) PutMSeg(w, s);
      }
    }
  }
  w->End();
}

// Strings longer than kMaxStringLength are rejected before anything is
// written; every other value is always encodable.
Status CheckStrings(const StringValue& v) {
  if (v.defined() && !FitsFlatString(v.value())) {
    return Status::InvalidArgument("string exceeds fixed attribute length");
  }
  return Status::OK();
}
Status CheckStrings(const MovingString& m) {
  for (const UString& u : m.units()) {
    if (!FitsFlatString(u.value())) {
      return Status::InvalidArgument("string exceeds fixed attribute length");
    }
  }
  return Status::OK();
}
template <typename T>
Status CheckStrings(const T&) {
  return Status::OK();
}

template <typename T>
std::size_t BlobBytes(const T& v) {
  SizeSink size;
  Encode(&size, v);
  return size.bytes();
}

template <typename T>
FlatValue EncodeValue(const T& v) {
  ValueSink sink;
  Encode(&sink, v);
  return sink.Take();
}

}  // namespace

FlatView::FlatView(const FlatValue& value)
    : root(value.root), num_arrays(value.arrays.size()) {
  for (std::size_t i = 0; i < num_arrays && i < kMaxFlatArrays; ++i) {
    arrays[i] = value.arrays[i];
  }
}

// -- blob packing ------------------------------------------------------------

std::string SerializeFlat(const FlatValue& value) {
  ByteWriter w;
  w.PutU32(kMagic);
  w.PutU32(uint32_t(value.root.size()));
  w.PutU32(uint32_t(value.arrays.size()));
  w.PutBytes(value.root);
  for (const std::string& a : value.arrays) {
    w.PutU32(uint32_t(a.size()));
    w.PutBytes(a);
  }
  return w.Take();
}

Result<FlatView> ParseFlatView(std::string_view blob) {
  ByteReader r(blob);
  uint32_t magic, root_size, num_arrays;
  MODB_RETURN_IF_ERROR(r.GetU32(&magic));
  if (magic != kMagic) return Status::InvalidArgument("bad magic");
  MODB_RETURN_IF_ERROR(r.GetU32(&root_size));
  MODB_RETURN_IF_ERROR(r.GetU32(&num_arrays));
  if (num_arrays > kMaxFlatArrays) {
    return Status::InvalidArgument("more database arrays than any type has");
  }
  FlatView out;
  out.num_arrays = num_arrays;
  MODB_RETURN_IF_ERROR(r.GetView(root_size, &out.root));
  for (uint32_t i = 0; i < num_arrays; ++i) {
    uint32_t n;
    MODB_RETURN_IF_ERROR(r.GetU32(&n));
    MODB_RETURN_IF_ERROR(r.GetView(n, &out.arrays[i]));
  }
  if (!r.AtEnd()) return Status::InvalidArgument("trailing bytes");
  return out;
}

Result<FlatValue> ParseFlat(std::string_view blob) {
  Result<FlatView> view = ParseFlatView(blob);
  MODB_RETURN_IF_ERROR(view.status());
  FlatValue out{std::string(view->root), {}};
  for (std::size_t i = 0; i < view->num_arrays; ++i) {
    out.arrays.emplace_back(view->arrays[i]);
  }
  return out;
}

// -- base types --------------------------------------------------------------

FlatValue ToFlat(const IntValue& v) { return EncodeValue(v); }

Result<IntValue> IntFromFlat(const FlatView& f) {
  MODB_RETURN_IF_ERROR(CheckArity(f, 0, "int"));
  ByteReader r(f.root);
  uint8_t defined;
  int64_t value;
  MODB_RETURN_IF_ERROR(r.GetU8(&defined));
  MODB_RETURN_IF_ERROR(r.GetI64(&value));
  MODB_RETURN_IF_ERROR(CheckConsumed(r, "int root"));
  return defined ? IntValue(value) : IntValue::Undefined();
}

FlatValue ToFlat(const RealValue& v) { return EncodeValue(v); }

Result<RealValue> RealFromFlat(const FlatView& f) {
  MODB_RETURN_IF_ERROR(CheckArity(f, 0, "real"));
  ByteReader r(f.root);
  uint8_t defined;
  double value;
  MODB_RETURN_IF_ERROR(r.GetU8(&defined));
  MODB_RETURN_IF_ERROR(r.GetF64(&value));
  MODB_RETURN_IF_ERROR(CheckConsumed(r, "real root"));
  return defined ? RealValue(value) : RealValue::Undefined();
}

FlatValue ToFlat(const BoolValue& v) { return EncodeValue(v); }

Result<BoolValue> BoolFromFlat(const FlatView& f) {
  MODB_RETURN_IF_ERROR(CheckArity(f, 0, "bool"));
  ByteReader r(f.root);
  uint8_t defined, value;
  MODB_RETURN_IF_ERROR(r.GetU8(&defined));
  MODB_RETURN_IF_ERROR(r.GetU8(&value));
  MODB_RETURN_IF_ERROR(CheckConsumed(r, "bool root"));
  return defined ? BoolValue(value != 0) : BoolValue::Undefined();
}

Result<FlatValue> ToFlat(const StringValue& v) {
  MODB_RETURN_IF_ERROR(CheckStrings(v));
  return EncodeValue(v);
}

Result<StringValue> StringFromFlat(const FlatView& f) {
  MODB_RETURN_IF_ERROR(CheckArity(f, 0, "string"));
  ByteReader r(f.root);
  uint8_t defined;
  RecordReader rec(nullptr);
  MODB_RETURN_IF_ERROR(r.GetU8(&defined));
  MODB_RETURN_IF_ERROR(GetRecord(&r, kStringBytes, &rec));
  Result<std::string> s = GetPaddedString(&rec);
  MODB_RETURN_IF_ERROR(s.status());
  MODB_RETURN_IF_ERROR(CheckConsumed(r, "string root"));
  if (!defined) return StringValue::Undefined();
  return StringValue(*std::move(s));
}

// -- spatial types -----------------------------------------------------------

FlatValue ToFlat(const Point& p) { return EncodeValue(p); }

Result<Point> PointFromFlat(const FlatView& f) {
  MODB_RETURN_IF_ERROR(CheckArity(f, 0, "point"));
  ByteReader r(f.root);
  Point p;
  MODB_RETURN_IF_ERROR(r.GetF64(&p.x));
  MODB_RETURN_IF_ERROR(r.GetF64(&p.y));
  MODB_RETURN_IF_ERROR(CheckConsumed(r, "point root"));
  return p;
}

FlatValue ToFlat(const Points& ps) { return EncodeValue(ps); }

Result<Points> PointsFromFlat(const FlatView& f) {
  MODB_RETURN_IF_ERROR(CheckArity(f, 1, "points"));
  ByteReader root(f.root);
  uint32_t n;
  MODB_RETURN_IF_ERROR(root.GetU32(&n));
  MODB_RETURN_IF_ERROR(CheckCount(n, f.arrays[0].size(), kPointBytes));
  ByteReader arr(f.arrays[0]);
  std::vector<Point> pts(n);
  for (uint32_t i = 0; i < n; ++i) {
    MODB_RETURN_IF_ERROR(arr.GetF64(&pts[i].x));
    MODB_RETURN_IF_ERROR(arr.GetF64(&pts[i].y));
  }
  MODB_RETURN_IF_ERROR(CheckConsumed(arr, "points array"));
  return Points::FromVector(std::move(pts));
}

FlatValue ToFlat(const Line& l) { return EncodeValue(l); }

Result<Line> LineFromFlat(const FlatView& f) {
  MODB_RETURN_IF_ERROR(CheckArity(f, 1, "line"));
  ByteReader root(f.root);
  uint32_t n;
  MODB_RETURN_IF_ERROR(root.GetU32(&n));
  MODB_RETURN_IF_ERROR(CheckCount(n, f.arrays[0].size() / 2, kLineHsBytes));
  ByteReader arr(f.arrays[0]);
  std::vector<Seg> segs;
  segs.reserve(n);
  for (uint32_t i = 0; i < 2 * n; ++i) {
    Result<Seg> s = GetSeg(&arr);
    if (!s.ok()) return s.status();
    uint8_t ldp;
    MODB_RETURN_IF_ERROR(arr.GetU8(&ldp));
    if (ldp) segs.push_back(*s);
  }
  MODB_RETURN_IF_ERROR(CheckConsumed(arr, "line array"));
  return Line::Make(std::move(segs));
}

FlatValue ToFlat(const Region& reg) { return EncodeValue(reg); }

Result<Region> RegionFromFlat(const FlatView& f) {
  MODB_RETURN_IF_ERROR(CheckArity(f, 3, "region"));
  ByteReader root(f.root);
  uint32_t n_hs, n_cy, n_fa;
  double area, perimeter;
  Rect bbox;
  MODB_RETURN_IF_ERROR(root.GetU32(&n_hs));
  MODB_RETURN_IF_ERROR(root.GetU32(&n_cy));
  MODB_RETURN_IF_ERROR(root.GetU32(&n_fa));
  MODB_RETURN_IF_ERROR(root.GetF64(&area));
  MODB_RETURN_IF_ERROR(root.GetF64(&perimeter));
  MODB_RETURN_IF_ERROR(GetRect(&root, &bbox));
  if (n_hs == 0) return Region();
  MODB_RETURN_IF_ERROR(CheckCount(n_hs, f.arrays[0].size(), kRegionHsBytes));
  MODB_RETURN_IF_ERROR(CheckCount(n_cy, f.arrays[1].size(), kCycleRecBytes));
  MODB_RETURN_IF_ERROR(CheckCount(n_fa, f.arrays[2].size(), kFaceRecBytes));
  ByteReader hsr(f.arrays[0]);
  std::vector<HalfSegment> hs;
  hs.reserve(n_hs);
  for (uint32_t i = 0; i < n_hs; ++i) {
    Result<Seg> s = GetSeg(&hsr);
    if (!s.ok()) return s.status();
    uint8_t ldp, ia;
    MODB_RETURN_IF_ERROR(hsr.GetU8(&ldp));
    MODB_RETURN_IF_ERROR(hsr.GetU8(&ia));
    HalfSegment h{.seg = *s, .left_dominating = ldp != 0,
                  .inside_above = ia != 0};
    MODB_RETURN_IF_ERROR(hsr.GetI32(&h.cycle));
    MODB_RETURN_IF_ERROR(hsr.GetI32(&h.face));
    MODB_RETURN_IF_ERROR(hsr.GetI32(&h.next_in_cycle));
    hs.push_back(h);
  }
  ByteReader cyr(f.arrays[1]);
  std::vector<CycleRecord> cycles(n_cy);
  for (uint32_t i = 0; i < n_cy; ++i) {
    uint8_t hole;
    MODB_RETURN_IF_ERROR(cyr.GetI32(&cycles[i].first_halfsegment));
    MODB_RETURN_IF_ERROR(cyr.GetI32(&cycles[i].next_cycle_in_face));
    MODB_RETURN_IF_ERROR(cyr.GetI32(&cycles[i].face));
    MODB_RETURN_IF_ERROR(cyr.GetU8(&hole));
    cycles[i].is_hole = hole != 0;
    MODB_RETURN_IF_ERROR(cyr.GetI32(&cycles[i].size));
  }
  ByteReader far(f.arrays[2]);
  std::vector<FaceRecord> faces(n_fa);
  for (uint32_t i = 0; i < n_fa; ++i) {
    MODB_RETURN_IF_ERROR(far.GetI32(&faces[i].first_cycle));
    MODB_RETURN_IF_ERROR(far.GetI32(&faces[i].num_holes));
  }
  return Region::FromParts(std::move(hs), std::move(cycles), std::move(faces),
                           area, perimeter, bbox);
}

// -- range types -------------------------------------------------------------

FlatValue ToFlat(const Periods& p) { return EncodeValue(p); }

Result<Periods> PeriodsFromFlat(const FlatView& f) {
  MODB_RETURN_IF_ERROR(CheckArity(f, 1, "periods"));
  ByteReader root(f.root);
  uint32_t n;
  MODB_RETURN_IF_ERROR(root.GetU32(&n));
  MODB_RETURN_IF_ERROR(CheckCount(n, f.arrays[0].size(), kIntervalBytes));
  ByteReader arr(f.arrays[0]);
  std::vector<TimeInterval> ivs;
  ivs.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Result<TimeInterval> iv = GetInterval(&arr);
    if (!iv.ok()) return iv.status();
    ivs.push_back(*iv);
  }
  MODB_RETURN_IF_ERROR(CheckConsumed(arr, "periods array"));
  return Periods::FromIntervals(std::move(ivs));
}

// -- sliced representations --------------------------------------------------

namespace {

// Every unit record is the interval plus `value_bytes`, so one length
// check covers every read: the units array must hold exactly n records.
template <typename U, typename GetUnit>
Result<Mapping<U>> FixedMappingFromFlat(const FlatView& f,
                                        std::size_t value_bytes, GetUnit get) {
  MODB_RETURN_IF_ERROR(CheckArity(f, 1, "mapping"));
  ByteReader root(f.root);
  uint32_t n;
  MODB_RETURN_IF_ERROR(root.GetU32(&n));
  const std::string_view units = f.arrays[0];
  MODB_RETURN_IF_ERROR(CheckCount(n, units.size(), kIntervalBytes));
  const std::size_t bytes = std::size_t(n) * (kIntervalBytes + value_bytes);
  if (units.size() < bytes) return Status::OutOfRange("short read");
  if (units.size() > bytes) {
    return Status::InvalidArgument(std::to_string(units.size() - bytes) +
                                   " unconsumed bytes in units array");
  }
  RecordReader r(units.data());
  std::vector<U> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Result<TimeInterval> iv = GetInterval(&r);
    if (!iv.ok()) return iv.status();
    Result<U> u = get(&r, *iv);
    if (!u.ok()) return u.status();
    out.push_back(std::move(*u));
  }
  return Mapping<U>::Make(std::move(out));
}

}  // namespace

FlatValue ToFlat(const MovingBool& m) { return EncodeValue(m); }

Result<MovingBool> MovingBoolFromFlat(const FlatView& f) {
  return FixedMappingFromFlat<UBool>(
      f, 1, [](RecordReader* r, TimeInterval iv) {
        return UBool::Make(iv, r->Get<uint8_t>() != 0);
      });
}

FlatValue ToFlat(const MovingInt& m) { return EncodeValue(m); }

Result<MovingInt> MovingIntFromFlat(const FlatView& f) {
  return FixedMappingFromFlat<UInt>(
      f, 8, [](RecordReader* r, TimeInterval iv) {
        return UInt::Make(iv, r->Get<int64_t>());
      });
}

Result<FlatValue> ToFlat(const MovingString& m) {
  MODB_RETURN_IF_ERROR(CheckStrings(m));
  return EncodeValue(m);
}

Result<MovingString> MovingStringFromFlat(const FlatView& f) {
  return FixedMappingFromFlat<UString>(
      f, kStringBytes, [](RecordReader* r, TimeInterval iv) -> Result<UString> {
        Result<std::string> s = GetPaddedString(r);
        MODB_RETURN_IF_ERROR(s.status());
        return UString::Make(iv, *std::move(s));
      });
}

FlatValue ToFlat(const MovingReal& m) { return EncodeValue(m); }

Result<MovingReal> MovingRealFromFlat(const FlatView& f) {
  return FixedMappingFromFlat<UReal>(
      f, kURealBytes, [](RecordReader* r, TimeInterval iv) {
        const double a = r->Get<double>();
        const double b = r->Get<double>();
        const double c = r->Get<double>();
        return UReal::Make(iv, a, b, c, r->Get<uint8_t>() != 0);
      });
}

FlatValue ToFlat(const MovingPoint& m) { return EncodeValue(m); }

Result<MovingPoint> MovingPointFromFlat(const FlatView& f) {
  return FixedMappingFromFlat<UPoint>(
      f, kMotionBytes, [](RecordReader* r, TimeInterval iv) {
        return UPoint::Make(iv, GetMotion(r));
      });
}

FlatValue ToFlat(const MovingPoints& m) { return EncodeValue(m); }

Result<MovingPoints> MovingPointsFromFlat(const FlatView& f) {
  MODB_RETURN_IF_ERROR(CheckArity(f, 2, "mpoints"));
  ByteReader root(f.root);
  uint32_t n;
  MODB_RETURN_IF_ERROR(root.GetU32(&n));
  ByteReader units(f.arrays[0]);
  ByteReader motions(f.arrays[1]);
  // Decode the shared motions array once.
  std::vector<LinearMotion> all;
  while (!motions.AtEnd()) {
    LinearMotion mo;
    MODB_RETURN_IF_ERROR(GetMotion(&motions, &mo));
    all.push_back(mo);
  }
  MODB_RETURN_IF_ERROR(
      CheckCount(n, f.arrays[0].size(), kIntervalBytes + kSubarrayRefBytes));
  std::vector<UPoints> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Result<TimeInterval> iv = GetInterval(&units);
    if (!iv.ok()) return iv.status();
    uint32_t start, count;
    MODB_RETURN_IF_ERROR(units.GetU32(&start));
    MODB_RETURN_IF_ERROR(units.GetU32(&count));
    if (std::size_t(start) + count > all.size()) {
      return Status::OutOfRange("motion subarray out of range");
    }
    out.push_back(UPoints::MakeTrusted(
        *iv, std::vector<LinearMotion>(all.begin() + start,
                                       all.begin() + start + count)));
  }
  return MovingPoints::Make(std::move(out));
}

FlatValue ToFlat(const MovingLine& m) { return EncodeValue(m); }

Result<MovingLine> MovingLineFromFlat(const FlatView& f) {
  MODB_RETURN_IF_ERROR(CheckArity(f, 2, "mline"));
  ByteReader root(f.root);
  uint32_t n;
  MODB_RETURN_IF_ERROR(root.GetU32(&n));
  ByteReader units(f.arrays[0]);
  ByteReader msr(f.arrays[1]);
  std::vector<MSeg> all;
  while (!msr.AtEnd()) {
    Result<MSeg> ms = GetMSeg(&msr);
    if (!ms.ok()) return ms.status();
    all.push_back(*ms);
  }
  MODB_RETURN_IF_ERROR(
      CheckCount(n, f.arrays[0].size(), kIntervalBytes + kSubarrayRefBytes));
  std::vector<ULine> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Result<TimeInterval> iv = GetInterval(&units);
    if (!iv.ok()) return iv.status();
    uint32_t start, count;
    MODB_RETURN_IF_ERROR(units.GetU32(&start));
    MODB_RETURN_IF_ERROR(units.GetU32(&count));
    if (std::size_t(start) + count > all.size()) {
      return Status::OutOfRange("mseg subarray out of range");
    }
    out.push_back(ULine::MakeTrusted(
        *iv, std::vector<MSeg>(all.begin() + start, all.begin() + start +
                                                        count)));
  }
  return MovingLine::Make(std::move(out));
}

FlatValue ToFlat(const MovingRegion& m) { return EncodeValue(m); }

Result<MovingRegion> MovingRegionFromFlat(const FlatView& f) {
  MODB_RETURN_IF_ERROR(CheckArity(f, 4, "mregion"));
  ByteReader root(f.root);
  uint32_t n;
  MODB_RETURN_IF_ERROR(root.GetU32(&n));
  ByteReader units(f.arrays[0]);
  ByteReader mfr(f.arrays[1]);
  ByteReader mcr(f.arrays[2]);
  ByteReader msr(f.arrays[3]);
  std::vector<MSeg> all_msegs;
  while (!msr.AtEnd()) {
    Result<MSeg> ms = GetMSeg(&msr);
    if (!ms.ok()) return ms.status();
    all_msegs.push_back(*ms);
  }
  struct CycleRef {
    uint32_t start, count;
    bool is_hole;
  };
  std::vector<CycleRef> all_cycles;
  while (!mcr.AtEnd()) {
    CycleRef c;
    uint8_t hole;
    MODB_RETURN_IF_ERROR(mcr.GetU32(&c.start));
    MODB_RETURN_IF_ERROR(mcr.GetU32(&c.count));
    MODB_RETURN_IF_ERROR(mcr.GetU8(&hole));
    c.is_hole = hole != 0;
    if (std::size_t(c.start) + c.count > all_msegs.size()) {
      return Status::OutOfRange("mseg run out of range");
    }
    all_cycles.push_back(c);
  }
  struct FaceRef {
    uint32_t start, count;
  };
  std::vector<FaceRef> all_faces;
  while (!mfr.AtEnd()) {
    FaceRef fc;
    MODB_RETURN_IF_ERROR(mfr.GetU32(&fc.start));
    MODB_RETURN_IF_ERROR(mfr.GetU32(&fc.count));
    if (std::size_t(fc.start) + fc.count > all_cycles.size()) {
      return Status::OutOfRange("cycle run out of range");
    }
    all_faces.push_back(fc);
  }
  auto build_cycle = [&](const CycleRef& c) {
    return MCycle(all_msegs.begin() + c.start,
                  all_msegs.begin() + c.start + c.count);
  };
  MODB_RETURN_IF_ERROR(
      CheckCount(n, f.arrays[0].size(), kIntervalBytes + kSubarrayRefBytes));
  std::vector<URegion> out;
  out.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Result<TimeInterval> iv = GetInterval(&units);
    if (!iv.ok()) return iv.status();
    uint32_t start, count;
    MODB_RETURN_IF_ERROR(units.GetU32(&start));
    MODB_RETURN_IF_ERROR(units.GetU32(&count));
    if (std::size_t(start) + count > all_faces.size()) {
      return Status::OutOfRange("face run out of range");
    }
    std::vector<MFace> faces;
    for (uint32_t k = start; k < start + count; ++k) {
      const FaceRef& fr = all_faces[k];
      MFace face;
      bool first = true;
      for (uint32_t c = fr.start; c < fr.start + fr.count; ++c) {
        const CycleRef& cr = all_cycles[c];
        if (first && cr.is_hole) {
          return Status::InvalidArgument("face starts with a hole cycle");
        }
        if (first) {
          face.outer = build_cycle(cr);
          first = false;
        } else {
          face.holes.push_back(build_cycle(cr));
        }
      }
      faces.push_back(std::move(face));
    }
    out.push_back(URegion::MakeTrusted(*iv, std::move(faces)));
  }
  return MovingRegion::Make(std::move(out));
}

// -- attribute values --------------------------------------------------------

Status AppendAttribute(std::string* out, const AttributeValue& value) {
  return std::visit(
      [out, &value](const auto& v) -> Status {
        MODB_RETURN_IF_ERROR(CheckStrings(v));
        const std::size_t at = out->size();
        out->resize(at + 1 + BlobBytes(v));
        char* p = out->data() + at;
        *p = char(TypeOf(value));
        BlobSink blob(p + 1);
        Encode(&blob, v);
        return Status::OK();
      },
      value);
}

std::size_t AttributeBytes(const AttributeValue& value) {
  return std::visit([](const auto& v) { return 1 + BlobBytes(v); }, value);
}

Result<AttributeValue> ParseAttribute(std::string_view blob) {
  ByteReader r(blob);
  uint8_t tag;
  MODB_RETURN_IF_ERROR(r.GetU8(&tag));
  if (tag > uint8_t(AttributeType::kMovingRegion)) {
    return Status::InvalidArgument("bad attribute type tag");
  }
  Result<FlatView> flat = ParseFlatView(blob.substr(1));
  MODB_RETURN_IF_ERROR(flat.status());
  auto wrap = [](auto result) -> Result<AttributeValue> {
    if (!result.ok()) return result.status();
    return AttributeValue(std::move(*result));
  };
  switch (AttributeType(tag)) {
    case AttributeType::kInt:
      return wrap(IntFromFlat(*flat));
    case AttributeType::kReal:
      return wrap(RealFromFlat(*flat));
    case AttributeType::kBool:
      return wrap(BoolFromFlat(*flat));
    case AttributeType::kString:
      return wrap(StringFromFlat(*flat));
    case AttributeType::kPoint:
      return wrap(PointFromFlat(*flat));
    case AttributeType::kPoints:
      return wrap(PointsFromFlat(*flat));
    case AttributeType::kLine:
      return wrap(LineFromFlat(*flat));
    case AttributeType::kRegion:
      return wrap(RegionFromFlat(*flat));
    case AttributeType::kPeriods:
      return wrap(PeriodsFromFlat(*flat));
    case AttributeType::kMovingBool:
      return wrap(MovingBoolFromFlat(*flat));
    case AttributeType::kMovingInt:
      return wrap(MovingIntFromFlat(*flat));
    case AttributeType::kMovingString:
      return wrap(MovingStringFromFlat(*flat));
    case AttributeType::kMovingReal:
      return wrap(MovingRealFromFlat(*flat));
    case AttributeType::kMovingPoint:
      return wrap(MovingPointFromFlat(*flat));
    case AttributeType::kMovingPoints:
      return wrap(MovingPointsFromFlat(*flat));
    case AttributeType::kMovingLine:
      return wrap(MovingLineFromFlat(*flat));
    case AttributeType::kMovingRegion:
      return wrap(MovingRegionFromFlat(*flat));
  }
  return Status::InvalidArgument("bad attribute type tag");
}

// -- AttributeStore ----------------------------------------------------------

std::string AttributeStore::Put(const FlatValue& value) {
  ByteWriter w;
  w.PutU32(kMagic);
  w.PutU32(uint32_t(value.root.size()));
  w.PutU32(uint32_t(value.arrays.size()));
  w.PutBytes(value.root);
  for (const std::string& a : value.arrays) {
    if (a.size() <= inline_threshold_) {
      w.PutU8(1);  // Inline.
      w.PutU32(uint32_t(a.size()));
      w.PutBytes(a);
    } else {
      w.PutU8(0);  // Paged.
      PageExtent e = store_.Write(a);
      w.PutU32(e.first_page);
      w.PutU32(e.num_pages);
      w.PutU32(e.num_bytes);
    }
  }
  return w.Take();
}

Result<FlatValue> AttributeStore::Get(std::string_view tuple) const {
  ByteReader r(tuple);
  uint32_t magic, root_size, num_arrays;
  MODB_RETURN_IF_ERROR(r.GetU32(&magic));
  if (magic != kMagic) return Status::InvalidArgument("bad magic");
  MODB_RETURN_IF_ERROR(r.GetU32(&root_size));
  MODB_RETURN_IF_ERROR(r.GetU32(&num_arrays));
  FlatValue out;
  MODB_RETURN_IF_ERROR(r.GetBytes(root_size, &out.root));
  for (uint32_t i = 0; i < num_arrays; ++i) {
    uint8_t is_inline;
    MODB_RETURN_IF_ERROR(r.GetU8(&is_inline));
    if (is_inline) {
      uint32_t n;
      MODB_RETURN_IF_ERROR(r.GetU32(&n));
      std::string a;
      MODB_RETURN_IF_ERROR(r.GetBytes(n, &a));
      out.arrays.push_back(std::move(a));
    } else {
      PageExtent e;
      MODB_RETURN_IF_ERROR(r.GetU32(&e.first_page));
      MODB_RETURN_IF_ERROR(r.GetU32(&e.num_pages));
      MODB_RETURN_IF_ERROR(r.GetU32(&e.num_bytes));
      Result<std::string> a = store_.Read(e);
      if (!a.ok()) return a.status();
      out.arrays.push_back(std::move(*a));
    }
  }
  return out;
}

}  // namespace modb
