// The pipelined execution engine: a physical query plan is a small DAG
// of steps — index builds and *pipelines* — scheduled in topological
// order. A pipeline streams fixed-size morsels (row ranges over its
// source) through a fused stage chain
//
//   Scan → Select* → (Project | Join probe | Window sweep | Batch probe
//                     | none) → Sink
//
// with work-stealing across a shared ThreadPool: each worker claims a
// morsel, runs it through every stage on its own stack (no Relation is
// materialized between stages), and deposits the result tuples in the
// morsel's output slot. The sink concatenates slots in morsel order,
// so output is byte-identical to the serial single-operator path for
// any worker count and any steal schedule.
//
// Determinism argument, in full:
//   1. Morsel boundaries depend only on (row count, worker count,
//      requested morsel size) — never on scheduling.
//   2. Each morsel is claimed exactly once, and its stage chain is a
//      pure function of the morsel's rows (per-worker scratch is
//      reset per morsel; stats are commutative counters).
//   3. The sink concatenates per-morsel outputs in ascending sequence
//      order, which equals ascending source-row order — exactly the
//      order a serial loop produces. The window sweep's sink folds
//      per-morsel records into per-window totals in that same order,
//      so every floating-point sum sees its operands in row order. A
//      batch probe has no concatenation at all: its sink is an array
//      sized before the morsels run, and source row i writes only its
//      own fixed slots [i*k, (i+1)*k), so the layout is the serial one
//      whichever worker wrote which row.
//
// Plans are built by the rule-based planner (exec/planner.h); the
// db/query.h operators are thin wrappers that plan and run here.

#ifndef MODB_EXEC_PIPELINE_H_
#define MODB_EXEC_PIPELINE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/instant.h"
#include "core/status.h"
#include "db/query.h"
#include "db/relation.h"
#include "exec/morsel.h"
#include "exec/spilled_relation.h"
#include "index/delta_index.h"
#include "index/rtree3d.h"
#include "obs/exec_stats.h"
#include "spatial/bbox.h"

namespace modb {
namespace exec {

/// A conservative time-window annotation on a predicate: the predicate
/// is false for any tuple whose moving attribute `attr` has no unit
/// intersecting the closed window [t0, t1]. The planner pushes the
/// window into spilled scans (stats-only test, no page faults); the
/// exact predicate still runs on every tuple that survives the scan.
struct TimeWindow {
  int attr = -1;
  Instant t0 = 0;
  Instant t1 = 0;
};

/// A selection predicate: the exact row test plus the planner-facing
/// shape (plan-cache key component) and optional pushdown window.
struct Predicate {
  std::function<bool(const Tuple&)> fn;
  std::string shape = "user";
  std::optional<TimeWindow> window;
};

/// A join predicate over (outer tuple, outer row, inner tuple, inner
/// row). In a pipelined plan the outer row id is the SOURCE row index
/// (stable under upstream filters), not the ordinal within the
/// filtered stream.
struct JoinPred {
  std::function<bool(const Tuple&, std::size_t, const Tuple&, std::size_t)>
      fn;
  std::string shape = "user";
};

/// Terminal projection stage: emit the given attribute slots, in order.
struct ProjectOp {
  std::vector<int> indices;
};

/// Terminal join-probe stage. kIndex probes an index over the inner
/// attribute's unit bounding cubes (a single tree — prebuilt or produced
/// by a build step of the same plan — or a live relation's layered
/// base/delta/mem stack) with each outer unit cube expanded by
/// `expand`; kNestedLoop tests every inner row. Both emit surviving
/// pairs as (outer row ascending, inner row ascending), so their
/// outputs coincide whenever the predicate implies the expanded-cube
/// envelope — the contract under which the planner may choose freely.
/// The probe evaluates the predicate on a set of distinct candidate
/// ids in ascending order (CollectJoinCandidates), so any layering of
/// the same entry set (one tree, or base+delta+mem) yields
/// byte-identical output.
struct JoinProbeOp {
  enum class Kind { kIndex, kNestedLoop };
  Kind kind = Kind::kIndex;
  const Relation* inner = nullptr;
  int attr_outer = -1;
  double expand = 0;
  JoinPred pred;
  /// Pairs with inner row <= outer row are never tested: set only when
  /// `pred` rejects every such pair (a distinct-pairs self join), so
  /// dropping them unseen leaves the output unchanged.
  bool distinct_pairs = false;
  /// Layered index view (kIndex only): probes a live relation's
  /// base/delta/mem stack. Takes precedence over tree/build_step.
  std::optional<IndexLayersView> layers;
  /// Block cubes of the outer attribute, row-aligned with the source
  /// (kIndex only): rows with blocks probe once per block
  /// (CollectJoinCandidates).
  std::optional<UnitBlocksView> outer_blocks;
  /// Prebuilt index (kIndex only); when null and `layers` is unset,
  /// `build_step` names the plan step whose output tree this probe uses.
  const RTree3D* tree = nullptr;
  int build_step = -1;
};

/// The index-join candidates of one outer row: the ascending, distinct
/// ids of the inner rows owning an entry of `view` whose cube
/// intersects some unit cube of `mp` grown by `op.expand` — only ids
/// greater than `outer_row` when `op.distinct_pairs`. Leaves them in
/// `scratch->candidates`.
///
/// When `op.outer_blocks` gives the row block cubes, each block of
/// kUnitsPerBlock leading units costs one traversal with its grown cube
/// (none when that misses the index bounds). The remaining probe cubes
/// are walked in time order and merged greedily into runs of at most 64
/// while a run's bounding cube stays within 2x the summed volume of its
/// members; each run costs one traversal. A hit of a block or of a
/// multi-unit run is rechecked exactly (Cube::Intersect, the
/// traversal's own closed test) against the members that overlap it in
/// time, so the set is exactly the one-traversal-per-unit probe's.
/// Leaves the units walked or rechecked in `scratch->units_scanned`.
/// Fails with kInternal when the index yields an id that is not a row
/// of `op.inner`.
Status CollectJoinCandidates(const MovingPoint& mp, std::size_t outer_row,
                             const JoinProbeOp& op,
                             const IndexLayersView& view,
                             ProbeScratch* scratch);

/// Terminal window-aggregate stage over the moving-point attribute
/// `attr`: window i is [s_i, s_i + width) with s_i = t0 + i*step, for
/// i < num_windows. Per window the sink emits one row {w_start, w_end,
/// count, distance, avg_speed}: how many surviving rows qualify (are
/// inside `rect` at some instant of the window — any defined instant
/// when `rect` is unset), and the distance / time those rows cover in
/// it, clipped by the window only. Each unit of a row visits just the
/// windows it overlaps, found by binary search on s_i + width >= start
/// from a per-row cursor that only moves forward.
struct WindowSweepOp {
  int attr = -1;
  Instant t0 = 0;
  Instant step = 0;
  Instant width = 0;
  std::uint64_t num_windows = 0;
  std::optional<Rect> rect;

  /// s_i, computed from i by one multiply (never accumulated), so every
  /// boundary is bit-reproducible; non-decreasing in i.
  Instant Start(std::uint64_t i) const { return t0 + double(i) * step; }
};

/// Terminal batch-probe stage: evaluates every source row's
/// moving-point attribute `attr` at the shared ascending `instants` —
/// the paper's atinstant (kAtInstantXY: position and defined flag) or
/// present (kPresent: defined flag only) over a whole relation. Takes
/// no filters, so source row i owns cells [i*k, (i+1)*k) of the
/// BatchOutput (k = instants.size()). Unsorted instants fail the plan
/// with InvalidArgument.
struct BatchProbeOp {
  enum class Kind { kAtInstantXY, kPresent };
  Kind kind = Kind::kAtInstantXY;
  int attr = -1;
  std::vector<Instant> instants;
};

/// The caller-owned sink of a batch-probe plan, row-major
/// [source row][instant]. RunPlan sizes it to rows × instants before
/// any morsel runs: `flags` holds the defined (kAtInstantXY) or present
/// (kPresent) bytes, `xs`/`ys` the positions (0 where undefined; left
/// empty for kPresent). Cleared when the plan fails.
struct BatchOutput {
  std::vector<double> xs;
  std::vector<double> ys;
  std::vector<std::uint8_t> flags;
};

/// The number of windows the grid [t0, t1) cut at `step` emits: the
/// count of i >= 0 with t0 + i*step < t1, found by binary search on
/// that exact predicate (never from a rounded (t1 - t0) / step).
/// Returns limit + 1 when the count exceeds `limit`. Requires finite
/// t0/t1 and step > 0.
std::uint64_t CountWindows(Instant t0, Instant t1, Instant step,
                           std::uint64_t limit);

/// One streaming pipeline: exactly one source (in-memory relation or
/// spilled relation), filters, and at most one terminal op.
struct Pipeline {
  const Relation* rel = nullptr;
  SpilledRelation* spilled = nullptr;
  /// Pushdown window applied at the spilled scan: rows whose stats
  /// cannot intersect are skipped without faulting pages.
  std::optional<TimeWindow> scan_window;
  std::vector<Predicate> filters;
  std::optional<ProjectOp> project;
  std::optional<JoinProbeOp> join;
  std::optional<WindowSweepOp> window;
  std::optional<BatchProbeOp> batch;
  /// Rows per morsel; 0 = PickMorselRows default (capped for a window
  /// sweep so one morsel buffers a bounded number of records).
  std::size_t morsel_rows = 0;

  std::size_t NumSourceRows() const {
    return rel != nullptr ? rel->NumTuples() : spilled->NumTuples();
  }
};

/// A step of the plan DAG: exactly one of `build` (serial R-tree
/// construction over an inner relation's moving-point attribute) or
/// `pipe` (a morsel-parallel pipeline). `deps` are step indices that
/// must complete first.
struct BuildIndexOp {
  const Relation* rel = nullptr;
  int attr = -1;
};

struct PlanStep {
  std::vector<std::size_t> deps;
  std::optional<BuildIndexOp> build;
  std::optional<Pipeline> pipe;
};

/// A physical plan: topologically scheduled steps, the last pipeline
/// step producing the output relation (out_name / out_schema).
/// legacy_tuples_in carries the operator-semantics cardinality for the
/// root ExecStats node (outer + inner for joins, as the materializing
/// operators reported; rows × instants for a batch probe).
struct PhysicalPlan {
  std::vector<PlanStep> steps;
  std::string out_name;
  Schema out_schema;
  std::string root_op = "pipeline";
  std::uint64_t legacy_tuples_in = 0;
};

/// Executes the plan. Steps run in deterministic topological order
/// (lowest ready index first); each pipeline step runs morsel-parallel
/// per `options.parallel` with per-worker ExecStats accumulation.
/// When `options.stats` is set, the node gets one child per stage
/// ("build_index", "scan", "select", "project", "join_probe",
/// "window_sweep", "batch") with rows in/out, morsels scheduled/stolen,
/// units scanned, and pushdown skips (a window sweep's rows out are its
/// qualifying (row, window) pairs and the root's tuples out the emitted
/// windows; a batch probe's rows out, and the root's tuples out, are
/// its set flags); the root's `materializations` counts outputs the
/// plan materialized — always exactly 1 (the sink), which is what
/// "zero intermediate materializations" means operationally.
///
/// A plan whose pipeline ends in a batch probe writes its cells into
/// `*batch` and returns an empty relation; `batch` must be set for such
/// plans and null for all others. The caller bounds rows × instants
/// before running it.
Result<Relation> RunPlan(const PhysicalPlan& plan, const ExecOptions& options,
                         BatchOutput* batch = nullptr);

}  // namespace exec
}  // namespace modb

#endif  // MODB_EXEC_PIPELINE_H_
