#include "db/modb.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/interval.h"
#include "core/range_set.h"
#include "db/query.h"
#include "exec/pipeline.h"
#include "exec/planner.h"
#include "obs/metrics.h"
#include "temporal/lifted_ops.h"
#include "temporal/moving.h"

namespace modb {
namespace {

// Resolves `attr` in `schema` and checks its declared type, naming the
// attribute, the relation, and both types on failure so a remote caller
// can fix the request from the message alone.
Result<int> ResolveSlot(const Relation& rel, const std::string& attr,
                        AttributeType want) {
  const int slot = rel.schema().IndexOf(attr);
  if (slot < 0) {
    return Status::InvalidArgument("relation '" + rel.name() +
                                   "' has no attribute '" + attr + "'");
  }
  const AttributeType got = rel.schema().attribute(slot).type;
  if (got != want) {
    return Status::InvalidArgument(
        "attribute '" + attr + "' of relation '" + rel.name() + "' is " +
        AttributeTypeName(got) + ", expected " + AttributeTypeName(want));
  }
  return slot;
}

// Lowers one FilterSpec to an exec::Predicate. The shape strings key the
// plan cache, so they identify the filter template (kind + slot), not
// its constants.
Result<exec::Predicate> LowerFilter(const Relation& rel,
                                    const FilterSpec& f) {
  exec::Predicate p;
  switch (f.kind) {
    case FilterSpec::Kind::kStringEquals: {
      Result<int> slot = ResolveSlot(rel, f.attr, AttributeType::kString);
      MODB_RETURN_IF_ERROR(slot.status());
      const int s = *slot;
      const std::string value = f.value;
      p.fn = [s, value](const Tuple& t) {
        return std::get<StringValue>(t[s]).value() == value;
      };
      p.shape = "modb.string_eq:" + std::to_string(s);
      return p;
    }
    case FilterSpec::Kind::kTrajectoryLengthAtLeast: {
      Result<int> slot = ResolveSlot(rel, f.attr, AttributeType::kMovingPoint);
      MODB_RETURN_IF_ERROR(slot.status());
      const int s = *slot;
      const double threshold = f.threshold;
      p.fn = [s, threshold](const Tuple& t) {
        return Trajectory(std::get<MovingPoint>(t[s])).Length() >= threshold;
      };
      p.shape = "modb.trajlen_ge:" + std::to_string(s);
      return p;
    }
    case FilterSpec::Kind::kPresentAt: {
      Result<int> slot = ResolveSlot(rel, f.attr, AttributeType::kMovingPoint);
      MODB_RETURN_IF_ERROR(slot.status());
      const int s = *slot;
      const Instant t0 = f.t0;
      p.fn = [s, t0](const Tuple& t) {
        return std::get<MovingPoint>(t[s]).Present(t0);
      };
      p.shape = "modb.present_at:" + std::to_string(s);
      p.window = exec::TimeWindow{s, t0, t0};
      return p;
    }
    case FilterSpec::Kind::kDeftimeIntersects: {
      Result<int> slot = ResolveSlot(rel, f.attr, AttributeType::kMovingPoint);
      MODB_RETURN_IF_ERROR(slot.status());
      if (!(f.t0 <= f.t1)) {
        return Status::InvalidArgument(
            "deftime_intersects window is empty: t0 = " +
            std::to_string(f.t0) + " > t1 = " + std::to_string(f.t1));
      }
      const int s = *slot;
      Result<Interval<Instant>> iv = Interval<Instant>::Closed(f.t0, f.t1);
      MODB_RETURN_IF_ERROR(iv.status());
      const Periods window = Periods::Of(*iv);
      p.fn = [s, window](const Tuple& t) {
        return std::get<MovingPoint>(t[s]).Present(window);
      };
      p.shape = "modb.deftime_x:" + std::to_string(s);
      p.window = exec::TimeWindow{s, f.t0, f.t1};
      return p;
    }
  }
  return Status::InvalidArgument("unknown filter kind " +
                                 std::to_string(int(f.kind)));
}

// Hard ceiling on emitted windows: one row each, so this bounds both
// the response size and the sweep's per-window totals.
constexpr std::uint64_t kMaxWindows = std::uint64_t(1) << 20;

// Hard ceiling on a batch request's tuples × instants cells. An xy cell
// is 17 bytes (x, y, defined), so the largest reply is ~34 MiB and
// fits one wire frame.
constexpr std::uint64_t kMaxBatchCells = std::uint64_t(1) << 21;

// MutationResult <-> the live relation's stored ack type (identical
// fields; live_relation.h cannot see MutationResult without a cycle).
ingest::IngestAck ToIngestAck(const MutationResult& ack) {
  return {ack.accepted, ack.objects,      ack.mem_units, ack.delta_entries,
          ack.base_entries, ack.merges, ack.epoch};
}

MutationResult FromIngestAck(const ingest::IngestAck& a) {
  MutationResult ack;
  ack.accepted = a.accepted;
  ack.objects = a.objects;
  ack.mem_units = a.mem_units;
  ack.delta_entries = a.delta_entries;
  ack.base_entries = a.base_entries;
  ack.merges = a.merges;
  ack.epoch = a.epoch;
  return ack;
}

// The Q2 predicate template: ever closer than `dist`, optionally only
// distinct (i < j) pairs.
exec::JoinPred EverCloserPred(int slot_a, int slot_b, double dist,
                              bool distinct_pairs) {
  exec::JoinPred p;
  p.fn = [slot_a, slot_b, dist, distinct_pairs](
             const Tuple& a, std::size_t i, const Tuple& b, std::size_t j) {
    if (distinct_pairs && i >= j) return false;
    return EverCloserThan(std::get<MovingPoint>(a[slot_a]),
                          std::get<MovingPoint>(b[slot_b]), dist);
  };
  p.shape = "modb.ever_closer:" + std::to_string(slot_a) + ":" +
            std::to_string(slot_b) + (distinct_pairs ? ":distinct" : "");
  return p;
}

}  // namespace

Status Db::Register(Relation rel) {
  if (rel.name().empty()) {
    return Status::InvalidArgument("relation name must be non-empty");
  }
  std::unique_lock lock(mu_);
  auto [it, inserted] = relations_.try_emplace(rel.name());
  if (!inserted) {
    return Status::FailedPrecondition("relation '" + rel.name() +
                                      "' is already registered");
  }
  it->second.rel = std::move(rel);
  return Status::OK();
}

Status Db::Drop(const std::string& name) {
  std::unique_lock lock(mu_);
  if (relations_.erase(name) == 0) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  return Status::OK();
}

Status Db::BuildIndex(const std::string& relation, const std::string& attr) {
  std::unique_lock lock(mu_);
  auto it = relations_.find(relation);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '" + relation + "'");
  }
  if (it->second.live != nullptr) {
    return Status::FailedPrecondition(
        "relation '" + relation +
        "' is live and maintains its own layered index");
  }
  Result<int> slot =
      ResolveSlot(it->second.rel, attr, AttributeType::kMovingPoint);
  MODB_RETURN_IF_ERROR(slot.status());
  Result<RTree3D> tree = BuildMovingPointIndex(it->second.rel, *slot);
  MODB_RETURN_IF_ERROR(tree.status());
  it->second.indexes.insert_or_assign(*slot, *std::move(tree));
  return Status::OK();
}

std::vector<std::string> Db::RelationNames() const {
  std::shared_lock lock(mu_);
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, entry] : relations_) names.push_back(name);
  return names;
}

Result<std::uint64_t> Db::NumTuples(const std::string& name) const {
  std::shared_lock lock(mu_);
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  return std::uint64_t{RelOf(it->second).NumTuples()};
}

Status Db::RegisterLive(const std::string& name, ingest::LiveOptions options) {
  if (name.empty()) {
    return Status::InvalidArgument("relation name must be non-empty");
  }
  std::unique_lock lock(mu_);
  auto [it, inserted] = relations_.try_emplace(name);
  if (!inserted) {
    return Status::FailedPrecondition("relation '" + name +
                                      "' is already registered");
  }
  it->second.live = std::make_unique<ingest::LiveRelation>(name, options);
  return Status::OK();
}

Status Db::AttachLiveStore(const std::string& name,
                           VersionedSpillStore* store) {
  std::unique_lock lock(mu_);
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  if (it->second.live == nullptr) {
    return Status::FailedPrecondition("relation '" + name +
                                      "' is not a live relation");
  }
  return it->second.live->AttachStore(store);
}

Result<MutationResult> Db::Apply(const MutationRequest& req) {
  std::unique_lock lock(mu_);
  MutationResult ack;
  switch (req.kind) {
    case MutationRequest::Kind::kRegisterLive: {
      if (req.relation.empty()) {
        return Status::InvalidArgument("relation name must be non-empty");
      }
      auto [it, inserted] = relations_.try_emplace(req.relation);
      if (!inserted) {
        return Status::FailedPrecondition("relation '" + req.relation +
                                          "' is already registered");
      }
      ingest::LiveOptions options;
      if (req.seal_units > 0) {
        options.seal_units = std::size_t(req.seal_units);
      }
      it->second.live =
          std::make_unique<ingest::LiveRelation>(req.relation, options);
      return ack;
    }

    case MutationRequest::Kind::kDropRelation: {
      if (relations_.erase(req.relation) == 0) {
        return Status::NotFound("no relation named '" + req.relation + "'");
      }
      return ack;
    }

    case MutationRequest::Kind::kIngest: {
      auto it = relations_.find(req.relation);
      if (it == relations_.end()) {
        return Status::NotFound("no relation named '" + req.relation +
                                "' (ingest target)");
      }
      ingest::LiveRelation* live = it->second.live.get();
      if (live == nullptr) {
        return Status::FailedPrecondition("relation '" + req.relation +
                                          "' is not a live relation");
      }
      // Idempotency: a keyed batch the window already remembers was
      // applied by an earlier attempt whose ack the client never saw —
      // re-ack with the original stats, touch nothing.
      if (!req.client_id.empty()) {
        if (std::optional<ingest::IngestAck> hit =
                live->DedupLookup(req.client_id, req.batch_seq)) {
          MODB_COUNTER_INC("ingest.dedup_hits");
          return FromIngestAck(*hit);
        }
      }
      std::vector<ingest::IngestFix> fixes;
      fixes.reserve(req.fixes.size());
      for (const MutationRequest::Fix& f : req.fixes) {
        fixes.push_back({f.object_id, f.t, f.x, f.y});
      }
      MODB_RETURN_IF_ERROR(live->Ingest(fixes));
      ack.accepted = fixes.size();
      ack.objects = live->NumObjects();
      ack.mem_units = live->index().MemEntries();
      ack.delta_entries = live->index().DeltaEntries();
      ack.base_entries = live->index().BaseEntries();
      ack.merges = live->index().merges();
      ack.epoch = live->epoch();
      if (!live->HasStore()) {
        if (!req.client_id.empty()) {
          live->RecordAck(req.client_id, req.batch_seq, ToIngestAck(ack));
        }
        return ack;
      }

      // Keyed + store-backed: the dedup entry must ride in the SAME
      // commit as the batch it remembers, so it is recorded before
      // Persist with the epoch that commit will create (epoch() + 1 —
      // Persist commits exactly once). A racing ingest can slip its
      // own Persist in first, making the epoch this request ultimately
      // returns larger; the post-Persist RecordAck below re-records
      // the ack actually sent, so a retry always re-acks those bytes.
      if (!req.client_id.empty()) {
        ingest::IngestAck predicted = ToIngestAck(ack);
        predicted.epoch = live->epoch() + 1;
        live->RecordAck(req.client_id, req.batch_seq, predicted);
      }

      // Durability before the ack: a store-backed ingest is committed
      // as one epoch, so a crash after the reply loses nothing the
      // client was told about. The commit's I/O runs under the READER
      // lock — queries proceed concurrently (pinned to the epoch they
      // started on); only the in-memory mutation above excluded them.
      // Persist-vs-Persist is serialized inside LiveRelation, and
      // Persist's reads cannot overlap an Ingest because Ingest holds
      // the writer lock, which waits out our reader lock.
      lock.unlock();
      std::shared_lock rlock(mu_);
      auto again = relations_.find(req.relation);
      if (again == relations_.end() || again->second.live.get() != live) {
        return Status::FailedPrecondition(
            "relation '" + req.relation +
            "' was dropped before its ingest batch became durable");
      }
      // A failed Persist deliberately KEEPS the dedup entry: the batch
      // is applied in memory and the client saw an error, so a retry
      // must re-ack, not re-apply; the next successful Persist makes
      // both the batch and its entry durable together.
      MODB_RETURN_IF_ERROR(live->Persist());
      ack.epoch = live->epoch();
      if (!req.client_id.empty()) {
        live->RecordAck(req.client_id, req.batch_seq, ToIngestAck(ack));
      }
      return ack;
    }
  }
  return Status::InvalidArgument("unknown mutation kind " +
                                 std::to_string(int(req.kind)));
}

Status Db::MergeLive(const std::string& name) {
  std::optional<MergePlan> plan;
  int fanout = 16;
  {
    std::shared_lock lock(mu_);
    auto it = relations_.find(name);
    if (it == relations_.end()) {
      return Status::NotFound("no relation named '" + name + "'");
    }
    if (it->second.live == nullptr) {
      return Status::FailedPrecondition("relation '" + name +
                                        "' is not a live relation");
    }
    fanout = it->second.live->options().fanout;
    plan = it->second.live->PrepareMerge();
  }
  if (!plan) return Status::OK();  // empty delta — nothing to compact

  // The expensive part runs with NO lock held.
  RTree3D merged = RTree3D::BulkLoad(plan->entries, fanout);

  std::unique_lock lock(mu_);
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  if (it->second.live == nullptr) {
    return Status::FailedPrecondition("relation '" + name +
                                      "' is not a live relation");
  }
  // A stale generation (a seal raced the build) is a clean no-op; the
  // next maintenance round re-prepares against the new generation.
  (void)it->second.live->ApplyMerge(*plan, std::move(merged));
  return Status::OK();
}

Status Db::DrainLive(const std::string& name) {
  std::unique_lock lock(mu_);
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation named '" + name + "'");
  }
  if (it->second.live == nullptr) {
    return Status::FailedPrecondition("relation '" + name +
                                      "' is not a live relation");
  }
  it->second.live->SealAll();
  if (it->second.live->HasStore()) {
    return it->second.live->Persist();
  }
  return Status::OK();
}

Result<QueryResult> Db::Run(const QueryRequest& req,
                            const ExecOptions& options) const {
  MODB_RETURN_IF_ERROR(ValidateParallelOptions(options.parallel));
  // A NaN distance would match nothing and an infinite one everything
  // overlapping in time; refuse both before touching any relation.
  if ((req.kind == QueryRequest::Kind::kJoin ||
       req.kind == QueryRequest::Kind::kIndexJoin) &&
      !std::isfinite(req.distance)) {
    return Status::InvalidArgument("join distance must be finite, got " +
                                   std::to_string(req.distance));
  }
  std::shared_lock lock(mu_);

  auto src_it = relations_.find(req.relation);
  if (src_it == relations_.end()) {
    return Status::NotFound("no relation named '" + req.relation + "'");
  }
  const Entry& src = src_it->second;
  const Relation& src_rel = RelOf(src);

  // Store-backed live source: pin its committed epoch for the whole
  // request. A concurrent ingest may commit later epochs while we run
  // (its Persist holds only the reader lock too), but deferred
  // reclamation keeps every page of the pinned snapshot intact until
  // this pin drains with the request.
  VersionedSpillStore::EpochPin epoch_pin;
  if (src.live != nullptr) epoch_pin = src.live->PinStoreEpoch();

  QueryResult result;
  ExecOptions run = options;
  run.stats = &result.stats;

  switch (req.kind) {
    case QueryRequest::Kind::kSelect:
    case QueryRequest::Kind::kProject:
    case QueryRequest::Kind::kJoin:
    case QueryRequest::Kind::kIndexJoin: {
      exec::LogicalQuery q;
      q.rel = &src_rel;
      for (const FilterSpec& f : req.filters) {
        Result<exec::Predicate> p = LowerFilter(src_rel, f);
        MODB_RETURN_IF_ERROR(p.status());
        q.filters.push_back(*std::move(p));
      }
      if (req.kind == QueryRequest::Kind::kProject) {
        if (req.project.empty()) {
          return Status::InvalidArgument(
              "project requires at least one attribute");
        }
        std::vector<int> slots;
        for (const std::string& name : req.project) {
          const int slot = src_rel.schema().IndexOf(name);
          if (slot < 0) {
            return Status::InvalidArgument("relation '" + req.relation +
                                           "' has no attribute '" + name +
                                           "'");
          }
          slots.push_back(slot);
        }
        q.project = std::move(slots);
      } else if (req.kind != QueryRequest::Kind::kSelect) {
        auto inner_it = relations_.find(req.join_relation);
        if (inner_it == relations_.end()) {
          return Status::NotFound("no relation named '" + req.join_relation +
                                  "' (join inner)");
        }
        const Entry& inner = inner_it->second;
        const Relation& inner_rel = RelOf(inner);
        Result<int> outer_slot =
            ResolveSlot(src_rel, req.attr, AttributeType::kMovingPoint);
        MODB_RETURN_IF_ERROR(outer_slot.status());
        Result<int> inner_slot =
            ResolveSlot(inner_rel, req.join_attr, AttributeType::kMovingPoint);
        MODB_RETURN_IF_ERROR(inner_slot.status());
        exec::LogicalQuery::JoinSpec join;
        join.inner = &inner_rel;
        join.attr_outer = *outer_slot;
        join.attr_inner = *inner_slot;
        join.expand = req.distance;
        join.pred = EverCloserPred(*outer_slot, *inner_slot, req.distance,
                                   req.distinct_pairs);
        // The predicate rejects every j <= i of a distinct-pairs join,
        // so the probe may drop those pairs unseen.
        join.distinct_pairs = req.distinct_pairs;
        if (req.kind == QueryRequest::Kind::kJoin) {
          join.algorithm = exec::LogicalQuery::JoinSpec::Algorithm::kNestedLoop;
        } else {
          join.algorithm = exec::LogicalQuery::JoinSpec::Algorithm::kIndex;
          if (src.live != nullptr &&
              *outer_slot == ingest::LiveRelation::kTrailSlot) {
            // Live outer: its sealed history probes once per block of
            // units, whatever the inner side is.
            join.outer_blocks = src.live->Blocks();
          }
          if (inner.live != nullptr &&
              *inner_slot == ingest::LiveRelation::kTrailSlot) {
            // Live inner: probe the base/delta/mem stack instead of
            // building a throwaway tree. The probe collects a set of
            // distinct candidates, so the layering is invisible in the
            // output.
            join.layers = inner.live->View();
          } else {
            auto tree = inner.indexes.find(*inner_slot);
            if (tree != inner.indexes.end()) join.prebuilt = &tree->second;
          }
        }
        q.join = std::move(join);
      }
      Result<exec::PhysicalPlan> plan = exec::PlanQuery(q);
      MODB_RETURN_IF_ERROR(plan.status());
      Result<Relation> rows = exec::RunPlan(*plan, run);
      MODB_RETURN_IF_ERROR(rows.status());
      result.payload = QueryResult::Payload::kRows;
      result.rows = *std::move(rows);
      break;
    }

    case QueryRequest::Kind::kAtInstantBatch:
    case QueryRequest::Kind::kPresentBatch: {
      Result<int> slot =
          ResolveSlot(src_rel, req.attr, AttributeType::kMovingPoint);
      MODB_RETURN_IF_ERROR(slot.status());
      const std::uint64_t tuples = src_rel.NumTuples();
      const std::uint64_t instants = req.instants.size();
      // tuples * instants <= kMaxBatchCells, checked without forming the
      // product, before anything is allocated.
      if (instants != 0 && tuples > kMaxBatchCells / instants) {
        return Status::InvalidArgument(
            "batch of " + std::to_string(tuples) + " tuples x " +
            std::to_string(instants) + " instants exceeds " +
            std::to_string(kMaxBatchCells) + " cells");
      }
      const bool xy = req.kind == QueryRequest::Kind::kAtInstantBatch;
      exec::LogicalQuery q;
      q.rel = &src_rel;
      q.batch = exec::BatchProbeOp{xy ? exec::BatchProbeOp::Kind::kAtInstantXY
                                      : exec::BatchProbeOp::Kind::kPresent,
                                   *slot, req.instants};
      q.root_op = xy ? "atinstant_batch_many_xy" : "present_batch_many";
      Result<exec::PhysicalPlan> plan = exec::PlanQuery(q);
      MODB_RETURN_IF_ERROR(plan.status());
      exec::BatchOutput cells;
      MODB_RETURN_IF_ERROR(exec::RunPlan(*plan, run, &cells).status());
      result.batch_tuples = tuples;
      result.batch_instants = instants;
      if (xy) {
        result.payload = QueryResult::Payload::kXY;
        result.xs = std::move(cells.xs);
        result.ys = std::move(cells.ys);
        result.defined = std::move(cells.flags);
      } else {
        result.payload = QueryResult::Payload::kPresent;
        result.present = std::move(cells.flags);
      }
      break;
    }

    case QueryRequest::Kind::kWindowAggregate: {
      Result<int> slot =
          ResolveSlot(src_rel, req.attr, AttributeType::kMovingPoint);
      MODB_RETURN_IF_ERROR(slot.status());
      if (!(req.window_width > 0) || !(req.window_step > 0)) {
        return Status::InvalidArgument(
            "window aggregate requires window_width > 0 and window_step > 0");
      }
      if (!std::isfinite(req.window_t0) || !std::isfinite(req.window_t1) ||
          !std::isfinite(req.window_width) || !std::isfinite(req.window_step)) {
        return Status::InvalidArgument(
            "window aggregate fields must be finite");
      }
      if (req.window_t1 < req.window_t0) {
        return Status::InvalidArgument(
            "window sweep is inverted: window_t1 < window_t0");
      }
      // Counted with the emission predicate itself, so the cap bounds
      // exactly the rows the sweep emits.
      const std::uint64_t num_windows = exec::CountWindows(
          req.window_t0, req.window_t1, req.window_step, kMaxWindows);
      if (num_windows > kMaxWindows) {
        return Status::InvalidArgument(
            "window sweep would emit more than " +
            std::to_string(kMaxWindows) + " windows");
      }

      // Filters and the sweep run as one pipeline, so pushdown, stats,
      // and deadlines behave exactly as for kSelect.
      exec::LogicalQuery q;
      q.rel = &src_rel;
      for (const FilterSpec& f : req.filters) {
        Result<exec::Predicate> p = LowerFilter(src_rel, f);
        MODB_RETURN_IF_ERROR(p.status());
        q.filters.push_back(*std::move(p));
      }
      exec::WindowSweepOp window;
      window.attr = *slot;
      window.t0 = req.window_t0;
      window.step = req.window_step;
      window.width = req.window_width;
      window.num_windows = num_windows;
      // The rect is optional: an inverted rect means no spatial
      // constraint (every defined instant qualifies).
      if (req.min_x <= req.max_x && req.min_y <= req.max_y) {
        window.rect = Rect(req.min_x, req.min_y, req.max_x, req.max_y);
      }
      q.window = window;
      q.root_op = "window_aggregate";
      Result<exec::PhysicalPlan> plan = exec::PlanQuery(q);
      MODB_RETURN_IF_ERROR(plan.status());
      Result<Relation> out = exec::RunPlan(*plan, run);
      MODB_RETURN_IF_ERROR(out.status());
      result.payload = QueryResult::Payload::kRows;
      result.rows = *std::move(out);
      break;
    }

    default:
      return Status::InvalidArgument("unknown query kind " +
                                     std::to_string(int(req.kind)));
  }

  if (options.stats != nullptr) *options.stats = result.stats;
  return result;
}

}  // namespace modb
