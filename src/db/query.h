// Minimal functional query operators over Relation: scan-based selection,
// projection, and (nested-loop or index-accelerated) join. These are what
// the examples and benchmarks use to express the Section-2 queries.
//
// All operators share one entrypoint shape: they take an ExecOptions
// (execution policy + optional ExecStats sink) and return
// Result<Relation>. Serial vs parallel execution is a policy knob, not a
// separate function.

#ifndef MODB_DB_QUERY_H_
#define MODB_DB_QUERY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/status.h"
#include "db/parallel.h"
#include "db/relation.h"
#include "index/rtree3d.h"
#include "obs/exec_stats.h"

namespace modb {

// ParallelOptions, kMaxQueryThreads, ValidateParallelOptions, and
// ExecOptions live in db/parallel.h so the sanity bound is validated by
// one shared helper — and the entrypoint shape is shared — across the
// query operators, the exec engine, and the temporal batch kernels.

/// σ: tuples of `rel` satisfying `pred`.
Result<Relation> Select(const Relation& rel,
                        const std::function<bool(const Tuple&)>& pred,
                        const ExecOptions& options = {});

/// π: the named attributes, in the given order. Always serial (it is a
/// pure copy); `options` only supplies the stats sink.
Result<Relation> Project(const Relation& rel,
                         const std::vector<std::string>& attributes,
                         const ExecOptions& options = {});

/// Nested-loop join with an arbitrary predicate over the two tuples.
/// For a self join pass the same relation twice; `pred` receives
/// (left tuple, left index, right tuple, right index) so self-join pairs
/// can be deduplicated by index.
Result<Relation> NestedLoopJoin(
    const Relation& a, const Relation& b,
    const std::function<bool(const Tuple&, std::size_t, const Tuple&,
                             std::size_t)>& pred,
    const ExecOptions& options = {});

/// Builds the R-tree the index join probes: one entry per unit bounding
/// cube of `b`'s moving-point attribute, entry id = owning tuple index.
/// Build it once and pass it to the prebuilt-index join overload to
/// amortize the build across repeated joins against the same inner
/// relation (the tree stays valid as long as `b` is unchanged).
Result<RTree3D> BuildMovingPointIndex(const Relation& b, int attr_b);

/// Reusable per-worker buffers of the index-join probe
/// (exec::CollectJoinCandidates). One instance per worker keeps the
/// probe loop allocation-free after warmup; its size is bounded by the
/// inner row count (stamps) and the run cap (run), not by history.
struct ProbeScratch {
  /// The current outer row's distinct candidate ids.
  std::vector<int64_t> candidates;
  /// Per inner row: the generation of the last outer row that admitted
  /// it, so a repeat visit is one compare instead of a push + dedupe.
  std::vector<std::uint32_t> stamps;
  std::uint32_t generation = 0;
  /// Member cubes of the run being probed, in time order.
  std::vector<Cube> run;
  /// The units the last probe walked into runs or rechecked exactly
  /// (ExecStats units_scanned).
  std::uint64_t units_scanned = 0;
};

/// Index nested-loop join specialized for spatio-temporal joins over
/// moving-point attributes: an R-tree over the unit bounding cubes of
/// `b`'s attribute prunes candidate pairs before `pred` runs. `expand`
/// grows each query cube by a spatial slack (e.g. the join distance).
/// The R-tree is built once (serially), then probed per outer chunk;
/// ExecStats.index_builds records the build (1 here, 0 when a prebuilt
/// index is supplied).
Result<Relation> IndexJoinOnMovingPoint(
    const Relation& a, int attr_a, const Relation& b, int attr_b,
    double expand,
    const std::function<bool(const Tuple&, std::size_t, const Tuple&,
                             std::size_t)>& pred,
    const ExecOptions& options = {});

/// Prebuilt-index overload: probes `index` (from BuildMovingPointIndex
/// over `b`'s join attribute) instead of rebuilding the R-tree — the
/// output is identical to the building overload's. The caller owns the
/// index and must keep it consistent with `b`.
Result<Relation> IndexJoinOnMovingPoint(
    const Relation& a, int attr_a, const Relation& b, const RTree3D& index,
    double expand,
    const std::function<bool(const Tuple&, std::size_t, const Tuple&,
                             std::size_t)>& pred,
    const ExecOptions& options = {});

}  // namespace modb

#endif  // MODB_DB_QUERY_H_
