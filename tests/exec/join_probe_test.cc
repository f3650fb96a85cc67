// The index-join probe (exec::CollectJoinCandidates) traverses the
// index once per time-ordered run of a row's probe cubes and rechecks
// each hit of a multi-unit run exactly against the run's members. It
// is pinned here to the one-traversal-per-unit probe it replaced, which
// lives on below as the reference: for every outer row the candidate
// lists must be identical, and every served join's result block must be
// BYTE-IDENTICAL (serve::EncodeResultBlock) to the reference's, over
//   - seeded random walks with small steps (runs form), straight routes
//     with long steps (runs do not), and trails of degenerate units on an integer
//     lattice (zero-duration, stationary, and boundaries at equal
//     instants and coordinates);
//   - join distances 0, 50 and 1000, distinct pairs on and off;
//   - a built tree, a prebuilt tree, hand-split base/delta/mem layers
//     and a live relation's own layers with unsealed units;
//   - 1, 2 and 4 threads.
// A live outer's sealed history probes once per block of kUnitsPerBlock
// units and rechecks each block hit against the block's units; that
// path is pinned the same way over trails with zero, one and many full
// blocks, seal frontiers inside a block, and pairs that meet inside a
// block, only at a block's boundary instant, or only in the unsealed
// suffix — against the live relation's own layers and against a static
// prebuilt inner.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "db/modb.h"
#include "db/query.h"
#include "exec/pipeline.h"
#include "gen/trajectory_gen.h"
#include "index/delta_index.h"
#include "ingest/live_relation.h"
#include "obs/metrics.h"
#include "serve/wire.h"
#include "temporal/lifted_ops.h"

namespace modb {
namespace {

constexpr double kDistances[] = {0, 50, 1000};
constexpr bool kDistinct[] = {false, true};
constexpr int kThreads[] = {1, 2, 4};
constexpr int kTrailSlot = 1;

// ---- the reference: one traversal per unit, sort + unique ---------------

std::vector<std::int64_t> ReferenceCandidates(const MovingPoint& mp,
                                              std::size_t outer_row,
                                              double expand, bool distinct,
                                              const IndexLayersView& view) {
  std::vector<std::int64_t> ids;
  RTree3D::QueryCounters counters;
  for (const UPoint& u : mp.units()) {
    Cube c = u.BoundingCube();
    c.rect.min_x -= expand;
    c.rect.min_y -= expand;
    c.rect.max_x += expand;
    c.rect.max_y += expand;
    if (!Cube::Intersect(c, view.Bounds())) continue;
    view.QueryVisit(
        c, [&ids](std::int64_t id) { ids.push_back(id); }, &counters);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  if (distinct) {
    std::erase_if(ids, [outer_row](std::int64_t j) {
      return j <= std::int64_t(outer_row);
    });
  }
  return ids;
}

// The served join's predicate (Db's ever-closer join): a distinct-pairs
// join rejects j <= i itself, so the reference evaluates every
// candidate, as the per-unit probe did.
bool JoinPredicate(const Tuple& a, std::size_t i, const Tuple& b,
                   std::size_t j, double d, bool distinct) {
  if (distinct && i >= j) return false;
  return EverCloserThan(std::get<MovingPoint>(a[kTrailSlot]),
                        std::get<MovingPoint>(b[kTrailSlot]), d);
}

// The reference join of `outer` with `inner`, named and typed like
// `like`.
QueryResult ReferenceJoin(const Relation& outer, const Relation& inner,
                          double d, bool distinct, const Relation& like) {
  Result<RTree3D> tree = BuildMovingPointIndex(inner, kTrailSlot);
  EXPECT_TRUE(tree.ok()) << tree.status();
  const IndexLayersView view = IndexLayersView::Single(&*tree);
  QueryResult r;
  r.payload = QueryResult::Payload::kRows;
  r.rows = Relation(like.name(), like.schema());
  for (std::size_t i = 0; i < outer.NumTuples(); ++i) {
    const Tuple& a = outer.tuple(i);
    const MovingPoint& mp = std::get<MovingPoint>(a[kTrailSlot]);
    for (std::int64_t j : ReferenceCandidates(mp, i, d, false, view)) {
      const Tuple& b = inner.tuple(std::size_t(j));
      if (!JoinPredicate(a, i, b, std::size_t(j), d, distinct)) continue;
      Tuple joined = a;
      joined.insert(joined.end(), b.begin(), b.end());
      EXPECT_TRUE(r.rows.Insert(std::move(joined)).ok());
    }
  }
  return r;
}

std::string Block(const QueryResult& result) {
  Result<std::string> block = serve::EncodeResultBlock(result);
  EXPECT_TRUE(block.ok()) << block.status();
  return block.ok() ? *block : std::string();
}

// ---- sources ------------------------------------------------------------

Schema TrailSchema() {
  return Schema({{"id", AttributeType::kString},
                 {"trail", AttributeType::kMovingPoint}});
}

Relation Walks(const std::string& name, int objects, int units,
               double max_step, double extent, double stop_probability,
               std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  TrajectoryOptions opts;
  opts.num_units = units;
  opts.extent = extent;
  opts.max_step = max_step;
  opts.stop_probability = stop_probability;
  Relation rel(name, TrailSchema());
  for (int o = 0; o < objects; ++o) {
    opts.start_time = o % 5;
    Result<MovingPoint> mp = RandomWalkPoint(rng, opts);
    EXPECT_TRUE(mp.ok()) << mp.status();
    EXPECT_TRUE(
        rel.Insert({StringValue("w" + std::to_string(o)), *std::move(mp)})
            .ok());
  }
  return rel;
}

// Trails on an integer lattice mixing moving units, stationary units
// and zero-duration units [t, t] (each followed by a left-open unit),
// so unit cubes touch at equal instants and equal coordinates — the
// closed-test edge cases of both the traversal and the recheck.
Relation Degenerate(int objects, int units, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Relation rel("degenerate", TrailSchema());
  for (int o = 0; o < objects; ++o) {
    MappingBuilder<UPoint> builder;
    Point pos(double(rng() % 12), double(rng() % 12));
    Instant t = double(o % 3);
    bool left_closed = true;
    for (int k = 0; k < units; ++k) {
      const std::uint64_t r = rng() % 10;
      if (r < 2 && left_closed) {
        Result<UPoint> u = UPoint::FromEndpoints(TimeInterval::At(t), pos, pos);
        EXPECT_TRUE(u.ok()) << u.status();
        EXPECT_TRUE(builder.Append(*u).ok());
        left_closed = false;
        continue;
      }
      Point next = pos;
      if (r >= 5) {
        next.x += double(int(rng() % 7) - 3);
        next.y += double(int(rng() % 7) - 3);
      }
      const double dur = double(1 + rng() % 2);
      Result<TimeInterval> iv =
          TimeInterval::Make(t, t + dur, left_closed, false);
      EXPECT_TRUE(iv.ok()) << iv.status();
      Result<UPoint> u = UPoint::FromEndpoints(*iv, pos, next);
      EXPECT_TRUE(u.ok()) << u.status();
      EXPECT_TRUE(builder.Append(*u).ok());
      pos = next;
      t += dur;
      left_closed = true;
    }
    Result<MovingPoint> mp = builder.Build();
    EXPECT_TRUE(mp.ok()) << mp.status();
    EXPECT_TRUE(
        rel.Insert({StringValue("d" + std::to_string(o)), *std::move(mp)})
            .ok());
  }
  return rel;
}

// Steps of at most 4 against distances of 0 to 1000, with stops.
Relation SmallSteps() { return Walks("small_steps", 24, 300, 4, 400, 0.2, 11); }

// Straight diagonal routes of 40 units, each at least 200 long per
// axis, as the planes fly: at distance 50 two consecutive cubes of one
// heading exceed a run's volume bound, so (nearly) every unit probes
// alone — a unit the route builder merged from several slices may
// still absorb a short neighbor.
Relation LongSteps() {
  std::mt19937_64 rng(12);
  std::uniform_real_distribution<double> coord(0, 20000);
  std::uniform_real_distribution<double> leg(8000, 16000);
  Relation rel("long_steps", TrailSchema());
  for (int o = 0; o < 24; ++o) {
    const Point from(coord(rng), coord(rng));
    const Point to(from.x + (o % 2 == 0 ? 1 : -1) * leg(rng),
                   from.y + (o % 4 < 2 ? 1 : -1) * leg(rng));
    Result<MovingPoint> mp = StraightRoute(from, to, o % 5, 40, 40);
    EXPECT_TRUE(mp.ok()) << mp.status();
    EXPECT_TRUE(
        rel.Insert({StringValue("r" + std::to_string(o)), *std::move(mp)})
            .ok());
  }
  return rel;
}

std::vector<Relation> StaticSources() {
  std::vector<Relation> out;
  out.push_back(SmallSteps());
  out.push_back(LongSteps());
  out.push_back(Degenerate(16, 60, 13));
  return out;
}

std::vector<RTree3D::Entry> TrailEntries(const Relation& rel) {
  std::vector<RTree3D::Entry> entries;
  for (std::size_t i = 0; i < rel.NumTuples(); ++i) {
    const auto& mp = std::get<MovingPoint>(rel.tuple(i)[kTrailSlot]);
    for (const UPoint& u : mp.units()) {
      entries.push_back({u.BoundingCube(), std::int64_t(i)});
    }
  }
  return entries;
}

// Candidate lists of every row of `rel` against `view` (an index over
// `inner`, `rel` itself by default), new vs reference; the probe reads
// `rel`'s block cubes from `blocks` when given. Returns the total
// candidate count.
std::uint64_t ExpectSameCandidates(
    const Relation& rel, const IndexLayersView& view, double d,
    bool distinct, ProbeScratch* scratch,
    std::optional<UnitBlocksView> blocks = std::nullopt,
    const Relation* inner = nullptr) {
  exec::JoinProbeOp op;
  op.inner = inner != nullptr ? inner : &rel;
  op.attr_outer = kTrailSlot;
  op.expand = d;
  op.distinct_pairs = distinct;
  op.outer_blocks = blocks;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < rel.NumTuples(); ++i) {
    const auto& mp = std::get<MovingPoint>(rel.tuple(i)[kTrailSlot]);
    const Status s = exec::CollectJoinCandidates(mp, i, op, view, scratch);
    EXPECT_TRUE(s.ok()) << s;
    EXPECT_EQ(scratch->candidates,
              ReferenceCandidates(mp, i, d, distinct, view))
        << rel.name() << " row " << i << " d " << d << " distinct "
        << distinct;
    total += scratch->candidates.size();
  }
  return total;
}

TEST(JoinProbe, CandidatesMatchPerUnitProbeOnTreesAndLayers) {
  for (const Relation& rel : StaticSources()) {
    std::vector<RTree3D::Entry> entries = TrailEntries(rel);
    const RTree3D single = RTree3D::BulkLoad(entries, 16);
    // The same entries split 50/30/20 across base, delta and mem.
    const std::size_t base_end = entries.size() / 2;
    const std::size_t delta_end = entries.size() * 4 / 5;
    IndexSnapshot layers;
    layers.ResetBase({entries.begin(), entries.begin() + base_end}, 8);
    layers.AppendToDelta({entries.begin() + base_end,
                          entries.begin() + delta_end},
                         8);
    layers.SetMem({entries.begin() + delta_end, entries.end()});
    ASSERT_GT(layers.MemEntries(), 0u);
    ASSERT_GT(layers.DeltaEntries(), 0u);
    ASSERT_GT(layers.BaseEntries(), 0u);
    for (double d : kDistances) {
      for (bool distinct : kDistinct) {
        ProbeScratch scratch;
        const std::uint64_t on_tree = ExpectSameCandidates(
            rel, IndexLayersView::Single(&single), d, distinct, &scratch);
        const std::uint64_t on_layers = ExpectSameCandidates(
            rel, layers.View(), d, distinct, &scratch);
        EXPECT_EQ(on_tree, on_layers);
        // Every row finds itself at least (minus j <= i when distinct).
        if (!distinct) {
          EXPECT_GE(on_tree, rel.NumTuples()) << rel.name();
        }
      }
    }
  }
}

#ifndef MODB_NO_METRICS
// Runs form on small steps and (almost) not on long ones: traversals
// per probed unit at distance 50, read off index.rtree3d.queries (one
// per traversal).
TEST(JoinProbe, SmallStepsGroupIntoRunsLongStepsDoNot) {
  obs::Counter* queries = obs::Metrics::Global().counter("index.rtree3d.queries");
  auto traversals = [&](const Relation& rel) {
    std::vector<RTree3D::Entry> entries = TrailEntries(rel);
    const RTree3D tree = RTree3D::BulkLoad(entries, 16);
    exec::JoinProbeOp op;
    op.inner = &rel;
    op.expand = 50;
    ProbeScratch scratch;
    const std::uint64_t before = queries->value();
    for (std::size_t i = 0; i < rel.NumTuples(); ++i) {
      const auto& mp = std::get<MovingPoint>(rel.tuple(i)[kTrailSlot]);
      EXPECT_TRUE(exec::CollectJoinCandidates(
                      mp, i, op, IndexLayersView::Single(&tree), &scratch)
                      .ok());
    }
    return double(queries->value() - before) / double(entries.size());
  };
  EXPECT_LT(traversals(SmallSteps()), 0.25);
  EXPECT_GT(traversals(LongSteps()), 0.95);
}
#endif

TEST(JoinProbe, GenerationWrapForgetsEveryStamp) {
  const Relation rel = SmallSteps();
  const RTree3D tree = RTree3D::BulkLoad(TrailEntries(rel), 16);
  const IndexLayersView view = IndexLayersView::Single(&tree);
  exec::JoinProbeOp op;
  op.inner = &rel;
  op.expand = 50;
  ProbeScratch scratch;
  for (std::size_t i = 0; i < rel.NumTuples(); ++i) {
    // The next generation wraps to 1, which every stamp holds: only a
    // reset keeps them from reading as already admitted.
    scratch.stamps.assign(rel.NumTuples(), 1);
    scratch.generation = std::numeric_limits<std::uint32_t>::max();
    const auto& mp = std::get<MovingPoint>(rel.tuple(i)[kTrailSlot]);
    ASSERT_TRUE(exec::CollectJoinCandidates(mp, i, op, view, &scratch).ok());
    EXPECT_EQ(scratch.generation, 1u);
    EXPECT_EQ(scratch.candidates,
              ReferenceCandidates(mp, i, 50, false, view));
  }
}

TEST(JoinProbe, EntryIdOutsideInnerRelationIsInternal) {
  const Relation rel = Walks("tiny", 4, 20, 4, 100, 0.2, 3);
  const auto& mp = std::get<MovingPoint>(rel.tuple(0)[kTrailSlot]);
  exec::JoinProbeOp op;
  op.inner = &rel;
  op.expand = 1000;
  for (std::int64_t bad : {std::int64_t(-1), std::int64_t(rel.NumTuples())}) {
    std::vector<RTree3D::Entry> entries = TrailEntries(rel);
    entries.push_back({mp.units()[0].BoundingCube(), bad});
    const RTree3D tree = RTree3D::BulkLoad(entries, 16);
    ProbeScratch scratch;
    const Status s = exec::CollectJoinCandidates(
        mp, 0, op, IndexLayersView::Single(&tree), &scratch);
    EXPECT_EQ(s.code(), StatusCode::kInternal) << s;
  }
}

// ---- served joins: byte identity at every thread count -----------------

QueryRequest SelfJoin(const std::string& rel, double d, bool distinct) {
  QueryRequest q;
  q.kind = QueryRequest::Kind::kIndexJoin;
  q.relation = rel;
  q.attr = "trail";
  q.join_relation = rel;
  q.join_attr = "trail";
  q.distance = d;
  q.distinct_pairs = distinct;
  return q;
}

// Every served join of `name` with `inner_name` (a self join by
// default) against the reference, at every distance, distinct setting
// and thread count; returns the rows seen.
std::uint64_t ExpectServedJoinsMatch(const Db& db, const std::string& name,
                                     const std::string& inner_name = "") {
  const std::string inner = inner_name.empty() ? name : inner_name;
  QueryRequest all;
  all.relation = name;
  Result<QueryResult> rows = db.Run(all);
  EXPECT_TRUE(rows.ok()) << rows.status();
  all.relation = inner;
  Result<QueryResult> inner_rows = db.Run(all);
  EXPECT_TRUE(inner_rows.ok()) << inner_rows.status();
  std::uint64_t seen = 0;
  for (double d : kDistances) {
    for (bool distinct : kDistinct) {
      std::string want;
      std::uint64_t want_candidates = 0;
      for (int threads : kThreads) {
        ExecOptions options;
        options.parallel.num_threads = threads;
        QueryRequest join = SelfJoin(name, d, distinct);
        join.join_relation = inner;
        Result<QueryResult> got = db.Run(join, options);
        EXPECT_TRUE(got.ok()) << got.status();
        if (!got.ok()) continue;
        if (threads == kThreads[0]) {
          want = Block(ReferenceJoin(rows->rows, inner_rows->rows, d,
                                     distinct, got->rows));
          want_candidates = got->stats.index_candidates;
          seen += got->rows.NumTuples();
        }
        EXPECT_EQ(want, Block(*got)) << name << " d " << d << " distinct "
                                     << distinct << " threads " << threads;
        EXPECT_EQ(want_candidates, got->stats.index_candidates);
      }
    }
  }
  return seen;
}

TEST(JoinProbe, ServedStaticJoinsAreByteIdenticalToPerUnitProbe) {
  Db db;
  std::vector<std::string> names;
  for (Relation& rel : StaticSources()) {
    names.push_back(rel.name());
    ASSERT_TRUE(db.Register(std::move(rel)).ok());
  }
  // The first source probes a prebuilt tree, the others a built one.
  ASSERT_TRUE(db.BuildIndex(names[0], "trail").ok());
  for (const std::string& name : names) {
    EXPECT_GT(ExpectServedJoinsMatch(db, name), 0u) << name;
  }
}

TEST(JoinProbe, ServedLiveJoinsAreByteIdenticalToPerUnitProbe) {
  Db db;
  ingest::LiveOptions live;
  live.seal_units = 4;
  live.merge_threshold = 1000;
  live.fanout = 8;
  ASSERT_TRUE(db.RegisterLive("fleet", live).ok());
  // 16 integer-lattice walks with stops, 300 fixes each, in batches of
  // 64: small steps, so runs form, and a mem layer of unsealed units.
  std::mt19937_64 rng(21);
  std::vector<Point> pos;
  for (int o = 0; o < 16; ++o) {
    pos.emplace_back(double((o % 4) * 40), double((o / 4) * 40));
  }
  MutationRequest batch;
  batch.relation = "fleet";
  MutationResult last;
  for (int t = 0; t < 300; ++t) {
    for (int o = 0; o < 16; ++o) {
      if (rng() % 5 != 0) {
        pos[std::size_t(o)].x += double(int(rng() % 7) - 3);
        pos[std::size_t(o)].y += double(int(rng() % 7) - 3);
      }
      batch.fixes.push_back({"obj" + std::to_string(o), double(t),
                             pos[std::size_t(o)].x, pos[std::size_t(o)].y});
      if (batch.fixes.size() == 64) {
        Result<MutationResult> ack = db.Apply(batch);
        ASSERT_TRUE(ack.ok()) << ack.status();
        last = *ack;
        batch.fixes.clear();
      }
    }
  }
  ASSERT_GT(last.base_entries, 0u);
  ASSERT_GT(last.delta_entries, 0u);
  ASSERT_GT(last.mem_units, 0u);
  EXPECT_GT(ExpectServedJoinsMatch(db, "fleet"), 0u);
}


// ---- live outers: one traversal per sealed block ------------------------

// One object of the block fleet: fixes at t = start .. start + fixes - 1
// in lane y = lane. The x velocity alternates (1.5, 0.5) and y wiggles,
// so no two consecutive units merge and unit k of the trail starts at
// t = start + k.
struct LaneObject {
  int start;
  int fixes;
  double lane;
};

Point LanePoint(const LaneObject& o, int t) {
  const int k = t - o.start;
  return Point(double(t) + 0.5 * double(k % 2), o.lane + 0.25 * double(k % 3));
}

// Lanes and the planned meetings (d = 50 separates lanes 30 apart from
// lanes 1000 apart; d = 1000 joins neighbouring lanes):
//   0, 1   1099 units each (four full blocks, frontier inside the fifth),
//          30 apart for their whole history;
//   2, 3   meet at t = 300 only, inside block 1 of both: object 2 leaves
//          its lane for one fix;
//   4, 5   meet at t = 512 only, the boundary instant of blocks 1 and 2:
//          object 5 visits object 4 for one fix;
//   6, 7   meet at the last fix only, in the unsealed suffix;
//   8      200 units: no full block;
//   9      400 units: one full block, frontier inside the second;
//   10     starts at t = 600 beside lanes 0 and 1: blocks that do not
//          start at the others' block boundaries;
//   11, 12 object 12 starts at t = 512 inside the x range of object 11's
//          unit 511 (the last of its block 1), not of its unit 512, and
//          leaves the lane: the cubes touch only at t = 512, the end of
//          object 11's block 1 and the start of object 12's block 0;
//   13     starts at t = 1024 inside the x range of object 11's unit
//          1024 only, its first unit after the last full block.
const std::vector<LaneObject>& BlockFleet() {
  static const std::vector<LaneObject> fleet = {
      {0, 1100, 0},     {0, 1100, 30},   {0, 1100, 3000}, {0, 1100, 4000},
      {0, 1100, 6000},  {0, 1100, 7000}, {0, 1100, 9000}, {0, 1100, 10000},
      {0, 201, 12000},  {0, 401, 14000}, {600, 500, 60},  {0, 1100, 16000},
      {512, 588, 16000}, {1024, 76, 16000}};
  return fleet;
}

Point BlockFleetPoint(std::size_t o, int t) {
  const std::vector<LaneObject>& fleet = BlockFleet();
  const LaneObject& obj = fleet[o];
  if (o == 2 && t == 300) return LanePoint(fleet[3], t);
  if (o == 5 && t == 512) return LanePoint(fleet[4], t);
  if (o == 7 && t == obj.start + obj.fixes - 1) return LanePoint(fleet[6], t);
  if (o == 12 || o == 13) {
    // Unit 511 of object 11 spans x [511.5, 512], y [16000.25, 16000.5],
    // and its unit 512 starts at x = 512; unit 1024 spans x
    // [1024, 1025.5], between units ending and starting outside it.
    const int k = t - obj.start;
    return Point(o == 12 ? 511.7 : 1024.7,
                 16000.3 + 500.0 * k + 10.0 * (k % 2));
  }
  return LanePoint(obj, t);
}

// The block fleet's fixes in time order, in batches of 64.
std::vector<std::vector<ingest::IngestFix>> BlockFleetBatches() {
  std::vector<std::vector<ingest::IngestFix>> batches(1);
  const std::vector<LaneObject>& fleet = BlockFleet();
  for (int t = 0; t < 1100; ++t) {
    for (std::size_t o = 0; o < fleet.size(); ++o) {
      if (t < fleet[o].start || t >= fleet[o].start + fleet[o].fixes) continue;
      const Point p = BlockFleetPoint(o, t);
      if (batches.back().size() == 64) batches.emplace_back();
      batches.back().push_back(
          {"lane" + std::to_string(o), double(t), p.x, p.y});
    }
  }
  return batches;
}

ingest::LiveOptions BlockFleetOptions() {
  ingest::LiveOptions live;
  live.seal_units = 8;
  live.merge_threshold = 2048;
  live.fanout = 16;
  return live;
}

// A static relation of straight routes crossing the block fleet's lanes.
Relation Crossers() {
  Relation rel("crossers", TrailSchema());
  for (int o = 0; o < 6; ++o) {
    const Point from(100.0 + 150.0 * o, -500);
    const Point to(300.0 + 150.0 * o, 15000);
    Result<MovingPoint> mp = StraightRoute(from, to, 40.0 * o, 600, 30);
    EXPECT_TRUE(mp.ok()) << mp.status();
    EXPECT_TRUE(
        rel.Insert({StringValue("c" + std::to_string(o)), *std::move(mp)})
            .ok());
  }
  return rel;
}

TEST(JoinProbe, BlockCandidatesMatchPerUnitProbe) {
  ingest::LiveRelation live("fleet", BlockFleetOptions());
  for (const auto& batch : BlockFleetBatches()) {
    ASSERT_TRUE(live.Ingest(batch).ok());
  }
  const Relation& rel = live.relation();
  const UnitBlocksView blocks = live.Blocks();
  // Rows register in order of first fix, so look them up by object.
  auto row = [&live](int o) {
    return std::int64_t(*live.RowOf("lane" + std::to_string(o)));
  };
  // Zero, one and many full blocks, and frontiers inside a block.
  const std::size_t expect_blocks[] = {4, 4, 4, 4, 4, 4, 4,
                                       4, 0, 1, 1, 4, 2, 0};
  ASSERT_EQ(rel.NumTuples(), BlockFleet().size());
  for (int o = 0; o < int(BlockFleet().size()); ++o) {
    const std::size_t i = std::size_t(row(o));
    EXPECT_EQ(blocks.Row(i).size(), expect_blocks[o]) << "object " << o;
    if (expect_blocks[o] > 0) {
      EXPECT_NE(live.tail(i).sealed() % kUnitsPerBlock, 0u) << "object " << o;
    }
  }
  EXPECT_TRUE(blocks.Row(rel.NumTuples()).empty());
  const Relation crossers = Crossers();
  const RTree3D static_tree = RTree3D::BulkLoad(TrailEntries(crossers), 16);
  for (double d : kDistances) {
    for (bool distinct : kDistinct) {
      ProbeScratch scratch;
      const std::uint64_t self = ExpectSameCandidates(
          rel, live.View(), d, distinct, &scratch, blocks);
      EXPECT_GT(self, 0u);
      ExpectSameCandidates(rel, IndexLayersView::Single(&static_tree), d,
                           distinct, &scratch, blocks, &crossers);
    }
  }
  // The planned meetings are candidates at d = 0; lanes 30 apart are not.
  ProbeScratch scratch;
  exec::JoinProbeOp op;
  op.inner = &rel;
  op.attr_outer = kTrailSlot;
  op.outer_blocks = blocks;
  // The candidate rows of object o, as sorted object numbers.
  auto candidates = [&](int o) {
    const std::size_t i = std::size_t(row(o));
    const auto& mp = std::get<MovingPoint>(rel.tuple(i)[kTrailSlot]);
    EXPECT_TRUE(
        exec::CollectJoinCandidates(mp, i, op, live.View(), &scratch).ok());
    std::vector<int> objects;
    for (int p = 0; p < int(BlockFleet().size()); ++p) {
      if (std::count(scratch.candidates.begin(), scratch.candidates.end(),
                     row(p)) != 0) {
        objects.push_back(p);
      }
    }
    return objects;
  };
  using Ids = std::vector<int>;
  EXPECT_EQ(candidates(0), (Ids{0}));
  EXPECT_EQ(candidates(2), (Ids{2, 3}));
  EXPECT_EQ(candidates(4), (Ids{4, 5}));
  EXPECT_EQ(candidates(6), (Ids{6, 7}));
  EXPECT_EQ(candidates(11), (Ids{11, 12, 13}));
  EXPECT_EQ(candidates(12), (Ids{11, 12}));
  EXPECT_EQ(candidates(13), (Ids{11, 13}));
  // A lone lane rechecks a handful of its own units, not its history.
  const std::size_t units_9 =
      std::get<MovingPoint>(rel.tuple(std::size_t(row(9)))[kTrailSlot])
          .units()
          .size();
  EXPECT_EQ(candidates(9), (Ids{9}));
  EXPECT_LT(scratch.units_scanned, units_9 - kUnitsPerBlock + 8);
}

TEST(JoinProbe, ServedBlockJoinsAreByteIdenticalToPerUnitProbe) {
  Db db;
  ASSERT_TRUE(db.RegisterLive("fleet", BlockFleetOptions()).ok());
  for (const auto& batch : BlockFleetBatches()) {
    MutationRequest m;
    m.relation = "fleet";
    m.fixes.reserve(batch.size());
    for (const ingest::IngestFix& f : batch) {
      m.fixes.push_back({f.object_id, f.t, f.x, f.y});
    }
    ASSERT_TRUE(db.Apply(m).ok());
  }
  ASSERT_TRUE(db.Register(Crossers()).ok());
  ASSERT_TRUE(db.BuildIndex("crossers", "trail").ok());
  // Live outer x live inner, and live outer x static prebuilt inner.
  EXPECT_GT(ExpectServedJoinsMatch(db, "fleet"), 0u);
  EXPECT_GT(ExpectServedJoinsMatch(db, "fleet", "crossers"), 0u);

  // The join's stats count the units the probe touched: far fewer than
  // the history when no block meets another trail.
  std::uint64_t units = 0;
  for (const LaneObject& o : BlockFleet()) units += std::uint64_t(o.fixes - 1);
  Result<QueryResult> join = db.Run(SelfJoin("fleet", 0, true));
  ASSERT_TRUE(join.ok()) << join.status();
  EXPECT_GT(join->stats.units_scanned, 0u);
  EXPECT_LT(join->stats.units_scanned, units / 4);
}


// Live joins read the block cubes while ingest appends to them (under
// the Db lock): queries interleaved with every batch stay well-formed,
// and the final join still matches the reference. The tsan preset runs
// this with no suppressions.
TEST(JoinProbe, BlockJoinsRunBesideIngest) {
  Db db;
  ASSERT_TRUE(db.RegisterLive("fleet", BlockFleetOptions()).ok());
  std::atomic<int> applied{0};
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (const auto& batch : BlockFleetBatches()) {
      MutationRequest m;
      m.relation = "fleet";
      for (const ingest::IngestFix& f : batch) {
        m.fixes.push_back({f.object_id, f.t, f.x, f.y});
      }
      EXPECT_TRUE(db.Apply(m).ok());
      ++applied;
    }
    done = true;
  });
  // At most one join per reader per batch, so readers cannot keep the
  // writer off the lock.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      ExecOptions options;
      options.parallel.num_threads = 2;
      for (int seen = -1; !done;) {
        if (applied == seen) {
          std::this_thread::yield();
          continue;
        }
        seen = applied;
        Result<QueryResult> got =
            db.Run(SelfJoin("fleet", r == 0 ? 0 : 50, r == 0), options);
        ASSERT_TRUE(got.ok()) << got.status();
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_GT(ExpectServedJoinsMatch(db, "fleet"), 0u);
}

}  // namespace
}  // namespace modb
