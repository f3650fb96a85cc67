// The mapping(α) type constructor (Section 3.2.4) — the sliced
// representation. A mapping is a finite set of temporal units with
//   (i)  equal intervals ⇒ equal unit functions,
//   (ii) distinct intervals ⇒ disjoint, and adjacent ⇒ distinct unit
//        functions,
// stored as an array of unit records ordered by time interval (Section
// 4.3, Figure 7). Units are located by binary search (the O(log n) step
// of the atinstant algorithm, Section 5.1).
//
// A unit type U must provide:
//   using ValueType = ...;
//   const TimeInterval& interval() const;
//   ValueType ValueAt(Instant) const;
//   static bool FunctionEqual(const U&, const U&);
//   Result<U> WithInterval(TimeInterval) const;

#ifndef MODB_TEMPORAL_MAPPING_H_
#define MODB_TEMPORAL_MAPPING_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/interval.h"
#include "core/intime.h"
#include "core/range_set.h"
#include "core/status.h"
#include "spatial/bbox.h"

namespace modb {

/// Optional SoA side-structure for a Mapping (built on demand by
/// Mapping::BuildSearchIndex): the unit intervals unpacked into
/// contiguous start/end arrays so the FindUnit binary search probes
/// packed doubles instead of striding over full unit records, plus a
/// cached deftime bounding interval and (for spatial unit types) the
/// union of the unit bounding cubes.
struct MappingSearchIndex {
  static constexpr std::uint8_t kLeftClosed = 1;
  static constexpr std::uint8_t kRightClosed = 2;

  std::vector<Instant> start;
  std::vector<Instant> end;
  std::vector<std::uint8_t> closed;  // kLeftClosed | kRightClosed bits.

  /// Branchless search keys folding the closedness flags into the
  /// comparison value:
  ///   end_key[i]   <  t  ⟺  unit i lies entirely before t
  ///   start_key[i] <= t  ⟺  unit i starts at or before t
  /// (an open bound is nudged one ulp inward), so search probes are a
  /// single double compare on one packed array. Both arrays carry one
  /// trailing +inf sentinel slot (index = unit count) so merge sweeps
  /// can advance and test containment without bounds checks: the
  /// sentinel is never "before" any t and never "starts by" any t.
  std::vector<Instant> start_key;
  std::vector<Instant> end_key;

  /// Bounding interval of the deftime: [min start, max end]. Only
  /// meaningful when `start` is non-empty.
  Instant min_start = 0;
  Instant max_end = 0;

  /// Union of the unit bounding cubes for unit types exposing
  /// BoundingCube(); left empty (IsEmpty()) otherwise.
  Cube bbox;

  /// Packed linear-motion coefficients (x = x0 + x1·t, y = y0 + y1·t)
  /// for unit types exposing motion() with those fields (upoint); empty
  /// for other unit types. The batch kernels evaluate positions off
  /// these four contiguous arrays — including via the AVX2 gather path —
  /// instead of striding over the full unit records.
  std::vector<double> motion_x0, motion_x1, motion_y0, motion_y1;

  /// True when the packed motion arrays are populated (one slot per
  /// unit).
  bool has_motion() const { return !motion_x0.empty(); }

  bool left_closed(std::size_t i) const {
    return (closed[i] & kLeftClosed) != 0;
  }
  bool right_closed(std::size_t i) const {
    return (closed[i] & kRightClosed) != 0;
  }

  /// Membership of t in unit i's interval, on the packed arrays.
  bool Contains(std::size_t i, Instant t) const {
    if (t < start[i] || end[i] < t) return false;
    if (t == start[i] && !left_closed(i)) return false;
    if (t == end[i] && !right_closed(i)) return false;
    return true;
  }
};

template <typename U>
class Mapping {
 public:
  using UnitType = U;
  using ValueType = typename U::ValueType;

  /// The empty mapping (a moving value that is nowhere defined).
  Mapping() = default;

  /// Validating factory: enforces the Mapping(S) constraints.
  static Result<Mapping> Make(std::vector<U> units) {
    auto by_interval = [](const U& a, const U& b) {
      return a.interval() < b.interval();
    };
    // Decoded and generated units arrive sorted; skip the sort then.
    if (!std::is_sorted(units.begin(), units.end(), by_interval)) {
      std::sort(units.begin(), units.end(), by_interval);
    }
    for (std::size_t i = 0; i + 1 < units.size(); ++i) {
      const TimeInterval& u = units[i].interval();
      const TimeInterval& v = units[i + 1].interval();
      if (!TimeInterval::Disjoint(u, v)) {
        return Status::InvalidArgument(
            "mapping units overlap in time: " + u.ToString() + " and " +
            v.ToString());
      }
      if (TimeInterval::Adjacent(u, v) &&
          U::FunctionEqual(units[i], units[i + 1])) {
        return Status::InvalidArgument(
            "adjacent mapping units with equal unit function (not minimal): " +
            u.ToString() + " and " + v.ToString());
      }
    }
    return Mapping(std::move(units));
  }

  /// Non-validating factory for the storage layer: `units` must already
  /// be sorted and satisfy the Mapping(S) constraints.
  static Mapping MakeTrusted(std::vector<U> units) {
    return Mapping(std::move(units));
  }

  bool IsEmpty() const { return units_.empty(); }
  std::size_t NumUnits() const { return units_.size(); }
  const std::vector<U>& units() const { return units_; }
  const U& unit(std::size_t i) const { return units_[i]; }

  /// Builds the SoA search index (idempotent). Copies of the mapping
  /// share the index; it stays valid because a Mapping's unit list never
  /// changes after construction.
  void BuildSearchIndex() {
    if (index_) return;
    auto ix = std::make_shared<MappingSearchIndex>();
    ix->start.reserve(units_.size());
    ix->end.reserve(units_.size());
    ix->closed.reserve(units_.size());
    ix->start_key.reserve(units_.size() + 1);
    ix->end_key.reserve(units_.size() + 1);
    constexpr Instant kInf = std::numeric_limits<Instant>::infinity();
    for (const U& u : units_) {
      const TimeInterval& iv = u.interval();
      ix->start.push_back(iv.start());
      ix->end.push_back(iv.end());
      ix->closed.push_back(
          std::uint8_t((iv.left_closed() ? MappingSearchIndex::kLeftClosed : 0) |
                       (iv.right_closed() ? MappingSearchIndex::kRightClosed
                                          : 0)));
      ix->start_key.push_back(iv.left_closed()
                                  ? iv.start()
                                  : std::nextafter(iv.start(), kInf));
      ix->end_key.push_back(iv.right_closed()
                                ? iv.end()
                                : std::nextafter(iv.end(), -kInf));
      if constexpr (requires(const U& un) {
                      { un.BoundingCube() } -> std::convertible_to<Cube>;
                    }) {
        ix->bbox.Extend(u.BoundingCube());
      }
      if constexpr (requires(const U& un) {
                      { un.motion().x0 } -> std::convertible_to<double>;
                      { un.motion().x1 } -> std::convertible_to<double>;
                      { un.motion().y0 } -> std::convertible_to<double>;
                      { un.motion().y1 } -> std::convertible_to<double>;
                    }) {
        ix->motion_x0.push_back(u.motion().x0);
        ix->motion_x1.push_back(u.motion().x1);
        ix->motion_y0.push_back(u.motion().y0);
        ix->motion_y1.push_back(u.motion().y1);
      }
    }
    if (!units_.empty()) {
      ix->min_start = ix->start.front();
      ix->max_end = ix->end.back();
    }
    // Sentinel slots (see the field comment): unguarded sweeps stop
    // here instead of bounds-checking every advance.
    ix->start_key.push_back(kInf);
    ix->end_key.push_back(kInf);
    index_ = std::move(ix);
  }

  bool HasSearchIndex() const { return index_ != nullptr; }

  /// The SoA index, or nullptr when BuildSearchIndex was never called.
  const MappingSearchIndex* search_index() const { return index_.get(); }

  /// Binary search for the unit whose interval contains t (the first step
  /// of the atinstant algorithm of Section 5.1). O(log n). Probes the
  /// packed SoA arrays when the search index has been built.
  std::optional<std::size_t> FindUnit(Instant t) const {
    if (const MappingSearchIndex* ix = index_.get()) {
      if (ix->start.empty() || t < ix->min_start || ix->max_end < t) {
        return std::nullopt;
      }
      // First unit not entirely before t; it contains t iff it starts at
      // or before t (single-compare probes on the packed key arrays).
      auto it =
          std::lower_bound(ix->end_key.begin(), ix->end_key.end(), t);
      if (it == ix->end_key.end()) return std::nullopt;
      std::size_t idx = std::size_t(std::distance(ix->end_key.begin(), it));
      if (ix->start_key[idx] <= t) return idx;
      return std::nullopt;
    }
    auto it = std::upper_bound(
        units_.begin(), units_.end(), t, [](Instant v, const U& u) {
          return v < u.interval().start();
        });
    if (it == units_.begin()) return std::nullopt;
    std::size_t idx = std::size_t(std::distance(units_.begin(), it)) - 1;
    if (units_[idx].interval().Contains(t)) return idx;
    // t may coincide with the left-open start of units_[idx] while the
    // previous unit ends (closed) exactly there.
    if (idx > 0 && units_[idx - 1].interval().Contains(t)) return idx - 1;
    return std::nullopt;
  }

  /// Linear-scan variant (the baseline against which bench_atinstant
  /// demonstrates the O(log n) claim).
  std::optional<std::size_t> FindUnitLinear(Instant t) const {
    for (std::size_t i = 0; i < units_.size(); ++i) {
      if (units_[i].interval().Contains(t)) return i;
      if (units_[i].interval().start() > t) break;
    }
    return std::nullopt;
  }

  /// atinstant: the value at time t, or an undefined Intime.
  Intime<ValueType> AtInstant(Instant t) const {
    std::optional<std::size_t> idx = FindUnit(t);
    if (!idx) return Intime<ValueType>::Undefined();
    return Intime<ValueType>(t, units_[*idx].ValueAt(t));
  }

  /// present: is the moving value defined at t?
  bool Present(Instant t) const { return FindUnit(t).has_value(); }

  /// present lifted to periods: defined at some instant of the periods?
  /// Two-pointer merge over the two sorted interval sequences, O(n + m)
  /// (Section 5.2).
  bool Present(const Periods& periods) const {
    const std::vector<TimeInterval>& ivs = periods.intervals();
    std::size_t i = 0, j = 0;
    while (i < units_.size() && j < ivs.size()) {
      const TimeInterval& u = units_[i].interval();
      const TimeInterval& v = ivs[j];
      if (TimeInterval::RDisjoint(u, v)) {
        ++i;
      } else if (TimeInterval::RDisjoint(v, u)) {
        ++j;
      } else {
        return true;
      }
    }
    return false;
  }

  /// deftime: the projection onto the time domain.
  Periods DefTime() const {
    std::vector<TimeInterval> ivs;
    ivs.reserve(units_.size());
    for (const U& u : units_) ivs.push_back(u.interval());
    return Periods::FromIntervals(std::move(ivs));
  }

  /// atperiods: restriction of the moving value to the given periods.
  /// Two-pointer merge over the sorted unit and period sequences,
  /// O(n + m + output) (Section 5.2).
  Result<Mapping> AtPeriods(const Periods& periods) const {
    const std::vector<TimeInterval>& ivs = periods.intervals();
    std::vector<U> out;
    std::size_t i = 0, j = 0;
    while (i < units_.size() && j < ivs.size()) {
      const TimeInterval& u = units_[i].interval();
      const TimeInterval& v = ivs[j];
      if (TimeInterval::RDisjoint(u, v)) {
        ++i;
        continue;
      }
      if (TimeInterval::RDisjoint(v, u)) {
        ++j;
        continue;
      }
      if (auto inter = TimeInterval::Intersect(u, v)) {
        Result<U> piece = units_[i].WithInterval(*inter);
        if (!piece.ok()) return piece.status();
        out.push_back(std::move(*piece));
      }
      // Advance the side whose interval ends first; the other may still
      // overlap what follows.
      if (u.end() < v.end() ||
          (u.end() == v.end() && !u.right_closed())) {
        ++i;
      } else {
        ++j;
      }
    }
    return Make(std::move(out));
  }

  /// initial: the (instant, value) pair at the earliest defined instant.
  Intime<ValueType> Initial() const {
    if (units_.empty()) return Intime<ValueType>::Undefined();
    const U& u = units_.front();
    return Intime<ValueType>(u.interval().start(),
                             u.ValueAt(u.interval().start()));
  }

  /// final: the (instant, value) pair at the latest defined instant.
  Intime<ValueType> Final() const {
    if (units_.empty()) return Intime<ValueType>::Undefined();
    const U& u = units_.back();
    return Intime<ValueType>(u.interval().end(), u.ValueAt(u.interval().end()));
  }

  /// Total time span covered.
  double TotalDuration() const {
    double d = 0;
    for (const U& u : units_) d += Duration(u.interval());
    return d;
  }

 private:
  explicit Mapping(std::vector<U> sorted_units)
      : units_(std::move(sorted_units)) {}

  std::vector<U> units_;
  // Shared across copies; never mutated after construction.
  std::shared_ptr<const MappingSearchIndex> index_;
};

/// Builder that assembles a mapping unit by unit, merging units with
/// adjacent intervals and equal unit functions (keeping the
/// representation minimal, as `concat` in Section 5.2 does in O(1) per
/// append). Appends must be in increasing time order.
template <typename U>
class MappingBuilder {
 public:
  /// Appends a unit; merges with the previous one when the intervals are
  /// adjacent and the unit functions equal.
  Status Append(U unit) {
    if (!units_.empty()) {
      const TimeInterval& prev = units_.back().interval();
      const TimeInterval& cur = unit.interval();
      if (!TimeInterval::Disjoint(prev, cur)) {
        return Status::InvalidArgument(
            "units appended out of order or overlapping: " + prev.ToString() +
            " then " + cur.ToString());
      }
      if (!TimeInterval::RDisjoint(prev, cur)) {
        return Status::InvalidArgument("units appended out of time order");
      }
      if (TimeInterval::Adjacent(prev, cur) &&
          U::FunctionEqual(units_.back(), unit)) {
        TimeInterval merged = TimeInterval::Merge(prev, cur);
        Result<U> m = unit.WithInterval(merged);
        if (!m.ok()) return m.status();
        units_.back() = std::move(*m);
        return Status::OK();
      }
    }
    units_.push_back(std::move(unit));
    return Status::OK();
  }

  std::size_t NumUnits() const { return units_.size(); }

  /// Pre-allocates capacity for n units (bulk assembly fast path).
  void Reserve(std::size_t n) { units_.reserve(n); }

  /// Finalizes into a mapping. The builder is left empty.
  Result<Mapping<U>> Build() {
    return Mapping<U>::Make(std::move(units_));
  }

 private:
  std::vector<U> units_;
};

}  // namespace modb

#endif  // MODB_TEMPORAL_MAPPING_H_
