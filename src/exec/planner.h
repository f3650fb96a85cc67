// The rule-based planner: turns a LogicalQuery (source, filters,
// terminal) into a PhysicalPlan for the pipelined engine. Three rules:
//
//   1. Predicate pushdown — a filter annotated with a TimeWindow on the
//      source's spilled attribute becomes the pipeline's scan window:
//      the scan tests each row's resident SpilledStats record and skips
//      rows that provably cannot qualify WITHOUT faulting their pages
//      into the BufferPool. The exact predicate still runs on every
//      surviving row, so pushdown never changes the result.
//
//   2. Join algorithm choice — kAuto picks IndexJoinOnMovingPoint vs
//      nested loop from cheap cardinality stats (outer rows × inner
//      rows vs index build cost measured in inner units; for spilled
//      outers the resident deftime/bbox stats). kAuto is only sound
//      under the envelope contract: the predicate must imply that some
//      outer unit cube expanded by `expand` intersects a matching inner
//      unit cube — the same contract under which a caller may choose
//      IndexJoinOnMovingPoint by hand. Callers whose predicate does not
//      satisfy it must pin kNestedLoop.
//
//   3. Plan caching — planning decisions are memoized under a key built
//      from the schema signatures and predicate shapes, so repeated
//      queries of the same shape skip the costing pass. The cache holds
//      decisions (algorithm, pushdown applicability), never pointers,
//      so entries are safe across relation lifetimes.

#ifndef MODB_EXEC_PLANNER_H_
#define MODB_EXEC_PLANNER_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/status.h"
#include "exec/pipeline.h"

namespace modb {
namespace exec {

/// Declarative query description. Exactly one of rel/spilled is the
/// source; filters apply in order; at most one of project/join/window/
/// batch is the terminal. The planner copies predicates into the plan
/// but only points at relations/indexes — sources must outlive the
/// returned PhysicalPlan's execution.
struct LogicalQuery {
  const Relation* rel = nullptr;
  SpilledRelation* spilled = nullptr;

  std::vector<Predicate> filters;

  /// Projection: attribute slots of the source schema, in output order.
  std::optional<std::vector<int>> project;

  struct JoinSpec {
    enum class Algorithm { kAuto, kNestedLoop, kIndex };
    Algorithm algorithm = Algorithm::kAuto;
    const Relation* inner = nullptr;
    /// Moving-point join attributes (outer slot in the source schema,
    /// inner slot in `inner`'s). Only consulted for the index variant,
    /// but kAuto requires both so either choice is executable.
    int attr_outer = -1;
    int attr_inner = -1;
    /// Spatial slack added to each probe cube (the join distance).
    double expand = 0;
    JoinPred pred;
    /// `pred` rejects every pair with inner row <= outer row (a
    /// distinct-pairs self join): the probe skips those pairs unseen.
    bool distinct_pairs = false;
    /// Optional prebuilt R-tree over `inner`'s join attribute; forces
    /// the index variant without a build step.
    const RTree3D* prebuilt = nullptr;
    /// Optional layered index view (live relations: base + delta + mem
    /// over `inner`'s join attribute); forces the index variant without
    /// a build step and takes precedence over `prebuilt`. The referenced
    /// layers must outlive the plan's execution.
    std::optional<IndexLayersView> layers;
    /// Optional block cubes of the source's join attribute, row-aligned
    /// with the source (a live outer's sealed history): the probe tests
    /// a block's cube before its units. Must outlive the execution.
    std::optional<UnitBlocksView> outer_blocks;
  };
  std::optional<JoinSpec> join;

  /// Window aggregation over a moving-point attribute of the source;
  /// the output is one row per window (exec/pipeline.h WindowSweepOp).
  std::optional<WindowSweepOp> window;

  /// Batch probe of a moving-point attribute of the source at shared
  /// instants; the output is cells, not rows (exec/pipeline.h
  /// BatchProbeOp), and the query takes no filters.
  std::optional<BatchProbeOp> batch;

  /// Output relation name; "" derives the legacy operator-chain name
  /// (source + "_sel" / "_proj" / "_x_" / "_ix_" suffixes, or source +
  /// "_win" for a window sweep whatever its filters, or source +
  /// "_batch" for a batch probe), which is what keeps pipelined output
  /// byte-identical to composed operators.
  std::string out_name;
  /// Root ExecStats op label ("select", "pipeline", ...).
  std::string root_op = "pipeline";
  /// Rows per morsel; 0 = engine default.
  std::size_t morsel_rows = 0;
};

/// Plans `q`. Fails with InvalidArgument on malformed queries (no
/// source, two terminals, filters on a batch probe, attribute slots out
/// of range or of the wrong type for the chosen terminal).
Result<PhysicalPlan> PlanQuery(const LogicalQuery& q);

/// The cache key PlanQuery memoizes under — exposed so tests can assert
/// hit/miss behavior for specific query shapes.
std::string PlanCacheKey(const LogicalQuery& q);

/// Number of cached planning decisions / reset (tests).
std::size_t PlanCacheSize();
void PlanCacheClear();

}  // namespace exec
}  // namespace modb

#endif  // MODB_EXEC_PLANNER_H_
