#include "exec/planner.h"

#include <algorithm>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "db/value.h"
#include "obs/metrics.h"

namespace modb {
namespace exec {

namespace {

// Below this many predicate evaluations a nested loop beats paying for
// an R-tree build: at ~a few thousand evals the O(U log U) bulk load
// plus per-probe descents cost more than just testing every pair.
constexpr std::uint64_t kNestedLoopEvalBudget = 4096;

// What the plan cache remembers for a query shape. Decisions only —
// never pointers — so entries survive relation lifetimes.
struct PlanDecision {
  bool use_index_join = false;
  bool pushdown = false;
};

struct PlanCache {
  std::mutex mu;
  std::unordered_map<std::string, PlanDecision> entries;
};

PlanCache& Cache() {
  static PlanCache* cache = new PlanCache();
  return *cache;
}

// Coarse log2 cardinality bucket for the cache key: the join-choice
// rule depends on input sizes, so same-shape queries share a cached
// decision only within a ~2x size band.
std::size_t SizeBucket(std::uint64_t n) {
  std::size_t b = 0;
  while (n > 1) {
    n >>= 1;
    ++b;
  }
  return b;
}

void AppendSchemaSig(const Schema& schema, std::string* key) {
  for (const AttributeDef& def : schema.attributes()) {
    key->push_back(' ');
    *key += def.name;
    key->push_back(':');
    *key += AttributeTypeName(def.type);
  }
}

const Schema& SourceSchema(const LogicalQuery& q) {
  return q.rel != nullptr ? q.rel->schema() : q.spilled->schema();
}

Status ValidateQuery(const LogicalQuery& q) {
  if ((q.rel != nullptr) == (q.spilled != nullptr)) {
    return Status::InvalidArgument(
        "logical query needs exactly one source (rel or spilled)");
  }
  if (int(q.project.has_value()) + int(q.join.has_value()) +
          int(q.window.has_value()) + int(q.batch.has_value()) >
      1) {
    return Status::InvalidArgument(
        "a pipeline has at most one terminal: projection, join, window "
        "sweep, or batch probe");
  }
  const Schema& schema = SourceSchema(q);
  auto is_moving_point = [&schema](int attr) {
    return attr >= 0 && std::size_t(attr) < schema.NumAttributes() &&
           schema.attribute(std::size_t(attr)).type ==
               AttributeType::kMovingPoint;
  };
  if (q.batch) {
    if (!is_moving_point(q.batch->attr)) {
      return Status::InvalidArgument("batch probe attribute " +
                                     std::to_string(q.batch->attr) +
                                     " is not a moving point of the source");
    }
    // Every source row must reach the sink: row i owns cells
    // [i*k, (i+1)*k) only because no filter drops rows before it.
    if (!q.filters.empty()) {
      return Status::InvalidArgument("a batch probe takes no filters");
    }
  }
  if (q.window) {
    if (!is_moving_point(q.window->attr)) {
      return Status::InvalidArgument("window sweep attribute " +
                                     std::to_string(q.window->attr) +
                                     " is not a moving point of the source");
    }
    if (!(q.window->step > 0) || !(q.window->width > 0)) {
      return Status::InvalidArgument(
          "window sweep needs step > 0 and width > 0");
    }
  }
  for (const Predicate& p : q.filters) {
    if (!p.fn) {
      return Status::InvalidArgument("filter predicate is empty");
    }
    if (p.window && (p.window->attr < 0 ||
                     std::size_t(p.window->attr) >= schema.NumAttributes())) {
      return Status::InvalidArgument(
          "predicate window attribute " + std::to_string(p.window->attr) +
          " out of range");
    }
  }
  if (q.project) {
    for (int idx : *q.project) {
      if (idx < 0 || std::size_t(idx) >= schema.NumAttributes()) {
        return Status::InvalidArgument("projection attribute " +
                                       std::to_string(idx) + " out of range");
      }
    }
  }
  if (q.join) {
    const LogicalQuery::JoinSpec& j = *q.join;
    if (j.inner == nullptr) {
      return Status::InvalidArgument("join has no inner relation");
    }
    if (!j.pred.fn) {
      return Status::InvalidArgument("join predicate is empty");
    }
    const bool may_use_index =
        j.algorithm != LogicalQuery::JoinSpec::Algorithm::kNestedLoop;
    if (may_use_index) {
      if (j.attr_outer < 0 ||
          std::size_t(j.attr_outer) >= schema.NumAttributes()) {
        return Status::InvalidArgument(
            "join outer attribute " + std::to_string(j.attr_outer) +
            " out of range");
      }
      if (schema.attribute(std::size_t(j.attr_outer)).type !=
          AttributeType::kMovingPoint) {
        return Status::InvalidArgument(
            "join outer attribute " + std::to_string(j.attr_outer) +
            " is not a moving point");
      }
      if (j.prebuilt == nullptr && !j.layers &&
          (j.attr_inner < 0 ||
           std::size_t(j.attr_inner) >= j.inner->schema().NumAttributes())) {
        return Status::InvalidArgument(
            "join inner attribute " + std::to_string(j.attr_inner) +
            " out of range");
      }
    }
  }
  return Status::OK();
}

// Cost rule for kAuto: compare the nested loop's predicate evaluations
// (outer rows × inner rows) against a budget that stands in for the
// index build + probe overhead. Tiny inputs stay nested-loop; anything
// sizable takes the index. A prebuilt tree makes the index free, so it
// always wins.
bool ChooseIndexJoin(const LogicalQuery& q) {
  const LogicalQuery::JoinSpec& j = *q.join;
  if (j.prebuilt != nullptr || j.layers) return true;
  const std::uint64_t outer_rows =
      q.rel != nullptr ? q.rel->NumTuples() : q.spilled->NumTuples();
  const std::uint64_t nl_evals = outer_rows * j.inner->NumTuples();
  return nl_evals > kNestedLoopEvalBudget;
}

// Pushdown rule: the tightest window over the source's spilled
// attribute, intersected across all annotated filters. nullopt when the
// source is in-memory or no filter annotates the spilled slot.
std::optional<TimeWindow> PushdownWindow(const LogicalQuery& q) {
  if (q.spilled == nullptr) return std::nullopt;
  std::optional<TimeWindow> window;
  for (const Predicate& p : q.filters) {
    if (!p.window || p.window->attr != q.spilled->spilled_attr()) continue;
    if (!window) {
      window = *p.window;
    } else {
      window->t0 = std::max(window->t0, p.window->t0);
      window->t1 = std::min(window->t1, p.window->t1);
    }
  }
  return window;
}

std::string DeriveOutName(const LogicalQuery& q, bool use_index_join) {
  std::string name = q.rel != nullptr ? q.rel->name() : q.spilled->name();
  if (q.window) return name + "_win";
  if (q.batch) return name + "_batch";
  if (!q.filters.empty()) name += "_sel";
  if (q.join) {
    name += use_index_join ? "_ix_" : "_x_";
    name += q.join->inner->name();
  } else if (q.project) {
    name += "_proj";
  }
  return name;
}

}  // namespace

std::string PlanCacheKey(const LogicalQuery& q) {
  std::string key = q.spilled != nullptr
                        ? "spill[" + std::to_string(q.spilled->spilled_attr()) +
                              "]"
                        : "mem";
  AppendSchemaSig(SourceSchema(q), &key);
  key += " n~" + std::to_string(SizeBucket(
                     q.rel != nullptr ? q.rel->NumTuples()
                                      : q.spilled->NumTuples()));
  key += "|filters";
  for (const Predicate& p : q.filters) {
    key.push_back(' ');
    key += p.shape;
    if (p.window) key += "@w" + std::to_string(p.window->attr);
  }
  if (q.project) {
    key += "|proj";
    for (int idx : *q.project) key += " " + std::to_string(idx);
  }
  if (q.join) {
    const LogicalQuery::JoinSpec& j = *q.join;
    key += "|join ";
    key += j.algorithm == LogicalQuery::JoinSpec::Algorithm::kAuto
               ? "auto"
               : (j.algorithm == LogicalQuery::JoinSpec::Algorithm::kIndex
                      ? "index"
                      : "nl");
    key += j.layers ? " layers" : (j.prebuilt != nullptr ? " prebuilt" : " build");
    key += " " + std::to_string(j.attr_outer) + "/" +
           std::to_string(j.attr_inner) + " ";
    key += j.pred.shape;
    if (j.distinct_pairs) key += " distinct";
    AppendSchemaSig(j.inner->schema(), &key);
    key += " m~" + std::to_string(SizeBucket(j.inner->NumTuples()));
  }
  if (q.window) key += "|window " + std::to_string(q.window->attr);
  if (q.batch) {
    key += q.batch->kind == BatchProbeOp::Kind::kAtInstantXY ? "|atinstant "
                                                             : "|present ";
    key += std::to_string(q.batch->attr);
  }
  return key;
}

std::size_t PlanCacheSize() {
  PlanCache& cache = Cache();
  std::lock_guard<std::mutex> lock(cache.mu);
  return cache.entries.size();
}

void PlanCacheClear() {
  PlanCache& cache = Cache();
  std::lock_guard<std::mutex> lock(cache.mu);
  cache.entries.clear();
}

Result<PhysicalPlan> PlanQuery(const LogicalQuery& q) {
  MODB_RETURN_IF_ERROR(ValidateQuery(q));

  // Rule 3: look the decision up before costing. The cached value is
  // only a decision (never validity — validation always runs above).
  const std::string key = PlanCacheKey(q);
  PlanDecision decision;
  bool cached = false;
  {
    PlanCache& cache = Cache();
    std::lock_guard<std::mutex> lock(cache.mu);
    auto it = cache.entries.find(key);
    if (it != cache.entries.end()) {
      decision = it->second;
      cached = true;
    }
  }
  if (cached) {
    MODB_COUNTER_INC("exec.plan_cache.hits");
  } else {
    MODB_COUNTER_INC("exec.plan_cache.misses");
    if (q.join) {
      switch (q.join->algorithm) {
        case LogicalQuery::JoinSpec::Algorithm::kIndex:
          decision.use_index_join = true;
          break;
        case LogicalQuery::JoinSpec::Algorithm::kNestedLoop:
          decision.use_index_join = false;
          break;
        case LogicalQuery::JoinSpec::Algorithm::kAuto:
          decision.use_index_join = ChooseIndexJoin(q);
          break;
      }
    }
    decision.pushdown = PushdownWindow(q).has_value();
    PlanCache& cache = Cache();
    std::lock_guard<std::mutex> lock(cache.mu);
    cache.entries.emplace(key, decision);
  }
  if (q.join) {
    MODB_COUNTER_INC(decision.use_index_join ? "exec.planner.chose_index_join"
                                             : "exec.planner.chose_nested_loop");
  }
  if (decision.pushdown) MODB_COUNTER_INC("exec.planner.pushdown_applied");

  PhysicalPlan plan;
  plan.root_op = q.root_op;
  plan.out_name = !q.out_name.empty()
                      ? q.out_name
                      : DeriveOutName(q, decision.use_index_join);

  Pipeline pipe;
  pipe.rel = q.rel;
  pipe.spilled = q.spilled;
  pipe.filters = q.filters;
  pipe.morsel_rows = q.morsel_rows;
  if (decision.pushdown) pipe.scan_window = PushdownWindow(q);

  const Schema& schema = SourceSchema(q);
  const std::uint64_t source_rows =
      q.rel != nullptr ? q.rel->NumTuples() : q.spilled->NumTuples();
  plan.legacy_tuples_in = source_rows;

  PlanStep pipe_step;
  if (q.join) {
    const LogicalQuery::JoinSpec& j = *q.join;
    plan.legacy_tuples_in += j.inner->NumTuples();
    const std::string outer_name =
        (q.rel != nullptr ? q.rel->name() : q.spilled->name()) +
        (q.filters.empty() ? "" : "_sel");
    plan.out_schema =
        Schema::Concat(schema, outer_name + ".", j.inner->schema(),
                       j.inner->name() + ".");
    JoinProbeOp op;
    op.kind = decision.use_index_join ? JoinProbeOp::Kind::kIndex
                                      : JoinProbeOp::Kind::kNestedLoop;
    op.inner = j.inner;
    op.attr_outer = j.attr_outer;
    op.expand = j.expand;
    op.pred = j.pred;
    op.distinct_pairs = j.distinct_pairs;
    if (decision.use_index_join) {
      op.outer_blocks = j.outer_blocks;
      if (j.layers) {
        op.layers = j.layers;
      } else if (j.prebuilt != nullptr) {
        op.tree = j.prebuilt;
      } else {
        PlanStep build;
        build.build = BuildIndexOp{j.inner, j.attr_inner};
        plan.steps.push_back(std::move(build));
        op.build_step = int(plan.steps.size()) - 1;
        pipe_step.deps.push_back(plan.steps.size() - 1);
      }
    }
    pipe.join = std::move(op);
  } else if (q.project) {
    std::vector<AttributeDef> defs;
    defs.reserve(q.project->size());
    for (int idx : *q.project) defs.push_back(schema.attribute(std::size_t(idx)));
    plan.out_schema = Schema(std::move(defs));
    pipe.project = ProjectOp{*q.project};
  } else if (q.batch) {
    plan.legacy_tuples_in = source_rows * q.batch->instants.size();
    pipe.batch = q.batch;
  } else if (q.window) {
    plan.out_schema = Schema({{"w_start", AttributeType::kReal},
                              {"w_end", AttributeType::kReal},
                              {"count", AttributeType::kInt},
                              {"distance", AttributeType::kReal},
                              {"avg_speed", AttributeType::kReal}});
    pipe.window = q.window;
  } else {
    plan.out_schema = schema;
  }

  pipe_step.pipe = std::move(pipe);
  plan.steps.push_back(std::move(pipe_step));
  return plan;
}

}  // namespace exec
}  // namespace modb
