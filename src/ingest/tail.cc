#include "ingest/tail.h"

#include <utility>

#include "core/interval.h"

namespace modb {
namespace ingest {

Status TailSeries::Absorb(Instant t, const Point& p) {
  if (!has_fix_) {
    has_fix_ = true;
    last_t_ = t;
    last_p_ = p;
    return Status::OK();
  }
  if (!(t > last_t_)) {
    return Status::OutOfRange(
        "fix at t = " + std::to_string(t) +
        " is not after the object's last fix at t = " + std::to_string(last_t_));
  }

  // The current last unit is about to gain a successor: flip its right
  // bound open, matching the generator convention (interior units
  // right-open). The motion coefficients and the bounding cube are both
  // closedness-independent, so this is representation-only.
  if (!units_.empty() && units_.back().interval().right_closed()) {
    const UPoint& back = units_.back();
    Result<TimeInterval> open =
        TimeInterval::Make(back.interval().start(), back.interval().end(),
                           back.interval().left_closed(), false);
    MODB_RETURN_IF_ERROR(open.status());
    Result<UPoint> flipped = UPoint::Make(*open, back.motion());
    MODB_RETURN_IF_ERROR(flipped.status());
    units_.back() = *std::move(flipped);
  }

  Result<TimeInterval> iv = TimeInterval::Make(last_t_, t, true, true);
  MODB_RETURN_IF_ERROR(iv.status());
  Result<UPoint> unit = UPoint::FromEndpoints(*iv, last_p_, p);
  MODB_RETURN_IF_ERROR(unit.status());

  // MappingBuilder::Append's merge rule, verbatim: adjacent interval +
  // equal unit function collapse into one unit that keeps the NEW
  // unit's coefficients over the merged interval. Replicating the exact
  // rule (not just an equivalent one) is what keeps the incremental
  // unit vector bitwise equal to the bulk-built one.
  if (!units_.empty() &&
      TimeInterval::Adjacent(units_.back().interval(), unit->interval()) &&
      UPoint::FunctionEqual(units_.back(), *unit)) {
    TimeInterval merged =
        TimeInterval::Merge(units_.back().interval(), unit->interval());
    Result<UPoint> m = unit->WithInterval(merged);
    MODB_RETURN_IF_ERROR(m.status());
    units_.back() = *std::move(m);
    // The merge target was the (mutable) last unit, so the frontier can
    // only have pointed at or below it; clamp for safety.
    if (sealed_ >= units_.size()) sealed_ = units_.size() - 1;
  } else {
    units_.push_back(*std::move(unit));
  }
  last_t_ = t;
  last_p_ = p;
  return Status::OK();
}

std::size_t TailSeries::Seal() {
  if (!units_.empty()) sealed_ = units_.size() - 1;
  AppendSealedBlocks();
  return sealed_;
}

void TailSeries::AppendSealedBlocks() {
  for (std::size_t b = sealed_blocks_.size();
       (b + 1) * kUnitsPerBlock <= sealed_; ++b) {
    Cube block;
    for (std::size_t u = b * kUnitsPerBlock; u < (b + 1) * kUnitsPerBlock;
         ++u) {
      block.Extend(units_[u].BoundingCube());
    }
    sealed_blocks_.push_back(block);
  }
}

Result<MovingPoint> TailSeries::Materialize() const {
  // The validating factory re-checks disjointness/minimality — a free
  // structural audit of the absorb algorithm on every materialization.
  return MovingPoint::Make(units_);
}

Result<TailSeries> TailSeries::Resume(const MovingPoint& persisted,
                                      Instant last_t, const Point& last_p) {
  TailSeries tail;
  tail.units_ = persisted.units();
  if (!tail.units_.empty()) {
    const TimeInterval& back = tail.units_.back().interval();
    if (!back.right_closed() || back.end() != last_t) {
      return Status::InvalidArgument(
          "persisted tail does not end closed at the recorded last fix (" +
          back.ToString() + " vs t = " + std::to_string(last_t) + ")");
    }
    tail.sealed_ = tail.units_.size() - 1;
    tail.AppendSealedBlocks();
  }
  tail.has_fix_ = true;
  tail.last_t_ = last_t;
  tail.last_p_ = last_p;
  return tail;
}

}  // namespace ingest
}  // namespace modb
