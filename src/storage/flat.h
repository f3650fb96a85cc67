// Flat, pointer-free attribute representations (Section 4).
//
// Every data type is represented as a fixed-size *root record* plus zero
// or more *database arrays*; all cross references are array indices. A
// FlatValue holds exactly that decomposition. SerializeFlat/ParseFlat
// pack it into one byte blob; AttributeStore additionally emulates the
// [DG98] policy of storing small arrays inline in the tuple and large
// arrays in separate page extents.
//
// Because the representation is pointer-free, a value moves as blocks:
// AppendAttribute writes a value's blob straight into a caller's buffer
// (the wire codec's reply, a relation file), and ParseAttribute /
// ParseFlatView decode from views of a received buffer without copying
// the root or the arrays. Each type has exactly one encoder (behind
// ToFlat, AppendAttribute and AttributeBytes) and one decoder (the
// XFromFlat function, which takes a FlatView).

#ifndef MODB_STORAGE_FLAT_H_
#define MODB_STORAGE_FLAT_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "core/base_types.h"
#include "core/range_set.h"
#include "core/status.h"
#include "db/value.h"
#include "spatial/line.h"
#include "spatial/points.h"
#include "spatial/region.h"
#include "storage/page_store.h"
#include "temporal/moving.h"

namespace modb {

/// A root record plus database arrays — the decomposition the paper
/// requires of every attribute type.
struct FlatValue {
  std::string root;
  std::vector<std::string> arrays;

  std::size_t TotalBytes() const {
    std::size_t n = root.size();
    for (const std::string& a : arrays) n += a.size();
    return n;
  }
};

/// The most database arrays any type uses (moving region: units,
/// mfaces, mcycles, msegments).
inline constexpr std::size_t kMaxFlatArrays = 4;

/// A non-owning FlatValue: the root record and database arrays as views
/// of a blob (ParseFlatView) or of a FlatValue. Every XFromFlat decoder
/// takes one; a FlatValue converts implicitly. `num_arrays` is the
/// value's true arity — decoders check it before indexing `arrays`,
/// which holds only the first kMaxFlatArrays views.
struct FlatView {
  FlatView() = default;
  FlatView(const FlatValue& value);  // NOLINT(google-explicit-constructor)

  std::string_view root;
  std::string_view arrays[kMaxFlatArrays];
  std::size_t num_arrays = 0;
};

/// Little-endian append-only byte writer.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { buf_.push_back(char(v)); }
  void PutU32(uint32_t v) { Append(&v, sizeof v); }
  void PutI32(int32_t v) { Append(&v, sizeof v); }
  void PutI64(int64_t v) { Append(&v, sizeof v); }
  void PutF64(double v) { Append(&v, sizeof v); }
  void PutBytes(std::string_view s) { buf_.append(s.data(), s.size()); }

  std::string Take() { return std::move(buf_); }
  std::size_t Size() const { return buf_.size(); }

 private:
  void Append(const void* p, std::size_t n) {
    buf_.append(reinterpret_cast<const char*>(p), n);
  }
  std::string buf_;
};

/// Bounds-checked little-endian byte reader.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Status GetU8(uint8_t* v) { return Get(v, sizeof *v); }
  Status GetU32(uint32_t* v) { return Get(v, sizeof *v); }
  Status GetI32(int32_t* v) { return Get(v, sizeof *v); }
  Status GetI64(int64_t* v) { return Get(v, sizeof *v); }
  Status GetF64(double* v) { return Get(v, sizeof *v); }
  Status GetBytes(std::size_t n, std::string* out) {
    std::string_view v;
    MODB_RETURN_IF_ERROR(GetView(n, &v));
    out->assign(v);
    return Status::OK();
  }
  /// The next n bytes as a view of the underlying data (no copy).
  Status GetView(std::size_t n, std::string_view* out) {
    if (n > data_.size() - pos_) return Status::OutOfRange("short read");
    *out = data_.substr(pos_, n);
    pos_ += n;
    return Status::OK();
  }
  bool AtEnd() const { return pos_ == data_.size(); }
  std::size_t Remaining() const { return data_.size() - pos_; }

 private:
  Status Get(void* p, std::size_t n) {
    if (n > data_.size() - pos_) return Status::OutOfRange("short read");
    std::memcpy(p, data_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }
  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Packs a FlatValue into one contiguous blob.
std::string SerializeFlat(const FlatValue& value);
/// Inverse of SerializeFlat. Rejects trailing bytes and more than
/// kMaxFlatArrays arrays (no type has more).
Result<FlatValue> ParseFlat(std::string_view blob);
/// ParseFlat without the copies: the views point into `blob`.
Result<FlatView> ParseFlatView(std::string_view blob);

// -- attribute values --------------------------------------------------------
//
// An attribute blob is the value's type tag (u8 AttributeType) followed
// by its SerializeFlat bytes.

/// Appends `value`'s attribute blob to *out, writing the records in
/// place. InvalidArgument (and nothing appended) if a string exceeds
/// kMaxStringLength.
Status AppendAttribute(std::string* out, const AttributeValue& value);
/// The number of bytes AppendAttribute appends for `value`.
std::size_t AttributeBytes(const AttributeValue& value);
/// Decodes one attribute blob through the validating decoders below,
/// reading the root and arrays in place. Trailing bytes are rejected.
Result<AttributeValue> ParseAttribute(std::string_view blob);

// -- base types --------------------------------------------------------------

FlatValue ToFlat(const IntValue& v);
Result<IntValue> IntFromFlat(const FlatView& f);
FlatValue ToFlat(const RealValue& v);
Result<RealValue> RealFromFlat(const FlatView& f);
FlatValue ToFlat(const BoolValue& v);
Result<BoolValue> BoolFromFlat(const FlatView& f);
/// Strings longer than kMaxStringLength are rejected on write (fixed
/// length array of characters, Section 4.1 footnote).
Result<FlatValue> ToFlat(const StringValue& v);
Result<StringValue> StringFromFlat(const FlatView& f);

// -- spatial types -----------------------------------------------------------

FlatValue ToFlat(const Point& p);
Result<Point> PointFromFlat(const FlatView& f);
FlatValue ToFlat(const Points& ps);
Result<Points> PointsFromFlat(const FlatView& f);
FlatValue ToFlat(const Line& l);
Result<Line> LineFromFlat(const FlatView& f);
FlatValue ToFlat(const Region& r);
Result<Region> RegionFromFlat(const FlatView& f);

// -- range types -------------------------------------------------------------

FlatValue ToFlat(const Periods& p);
Result<Periods> PeriodsFromFlat(const FlatView& f);

// -- sliced representations (Figure 7) ---------------------------------------

FlatValue ToFlat(const MovingBool& m);
Result<MovingBool> MovingBoolFromFlat(const FlatView& f);
FlatValue ToFlat(const MovingInt& m);
Result<MovingInt> MovingIntFromFlat(const FlatView& f);
Result<FlatValue> ToFlat(const MovingString& m);
Result<MovingString> MovingStringFromFlat(const FlatView& f);
FlatValue ToFlat(const MovingReal& m);
Result<MovingReal> MovingRealFromFlat(const FlatView& f);
FlatValue ToFlat(const MovingPoint& m);
Result<MovingPoint> MovingPointFromFlat(const FlatView& f);
FlatValue ToFlat(const MovingPoints& m);
Result<MovingPoints> MovingPointsFromFlat(const FlatView& f);
FlatValue ToFlat(const MovingLine& m);
Result<MovingLine> MovingLineFromFlat(const FlatView& f);
FlatValue ToFlat(const MovingRegion& m);
Result<MovingRegion> MovingRegionFromFlat(const FlatView& f);

// -- [DG98]-style tuple placement --------------------------------------------

/// Stores attribute values as tuple blobs; database arrays whose size
/// exceeds `inline_threshold` go to a page store and are referenced from
/// the tuple by extent, smaller ones are embedded inline.
class AttributeStore {
 public:
  explicit AttributeStore(std::size_t inline_threshold = 256)
      : inline_threshold_(inline_threshold) {}

  /// Returns the tuple representation of the value.
  std::string Put(const FlatValue& value);
  /// Reassembles the FlatValue from a tuple blob.
  Result<FlatValue> Get(std::string_view tuple) const;

  const PageStore& page_store() const { return store_; }
  std::size_t inline_threshold() const { return inline_threshold_; }

 private:
  std::size_t inline_threshold_;
  PageStore store_;
};

}  // namespace modb

#endif  // MODB_STORAGE_FLAT_H_
