// Experiments Q1/Q2 (Section 2): the two example queries on the planes
// relation, plus the D4 ablation (unit bounding cubes + R-tree for the
// spatio-temporal join), per-period window aggregates over the fleet as
// a function of the window count, the two batch query kinds, and the
// wire codec's result blocks for those replies.

#include <benchmark/benchmark.h>

#include "db/modb.h"
#include "db/query.h"
#include "gen/flights_gen.h"
#include "serve/wire.h"
#include "temporal/lifted_ops.h"

namespace modb {
namespace {

Relation Planes(int flights) {
  FlightsOptions opts;
  opts.num_airports = 12;
  opts.num_flights = flights;
  opts.extent = 10000;
  opts.units_per_flight = 8;
  opts.speed = 800;
  opts.departure_window = 24;
  opts.seed = 99;
  return *GeneratePlanes(opts);
}

// Q1: SELECT … WHERE airline = "Lufthansa" AND
//     length(trajectory(flight)) > 5000.
void BM_Q1_TrajectoryLength(benchmark::State& state) {
  Relation planes = Planes(int(state.range(0)));
  for (auto _ : state) {
    Relation r = *Select(planes, [](const Tuple& t) {
      return std::get<StringValue>(t[kFlightAttrAirline]).value() ==
                 "Lufthansa" &&
             Trajectory(std::get<MovingPoint>(t[kFlightAttrFlight]))
                     .Length() > 5000;
    });
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Q1_TrajectoryLength)->RangeMultiplier(2)->Range(16, 256)
    ->Complexity(benchmark::oN);

bool ClosePred(const Tuple& a, std::size_t i, const Tuple& b, std::size_t j,
               double dist) {
  if (i >= j) return false;
  return EverCloserThan(std::get<MovingPoint>(a[kFlightAttrFlight]),
                        std::get<MovingPoint>(b[kFlightAttrFlight]), dist);
}

// Q2: the spatio-temporal join via
//     val(initial(atmin(distance(p, q)))) < 50.
void BM_Q2_Join_NestedLoop(benchmark::State& state) {
  Relation planes = Planes(int(state.range(0)));
  for (auto _ : state) {
    Relation r = *NestedLoopJoin(
        planes, planes,
        [](const Tuple& a, std::size_t i, const Tuple& b, std::size_t j) {
          return ClosePred(a, i, b, j, 50);
        });
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Q2_Join_NestedLoop)->RangeMultiplier(2)->Range(16, 256)
    ->Complexity(benchmark::oNSquared);

// D4 ablation: R-tree over unit bounding cubes prunes candidate pairs.
void BM_Q2_Join_RTree(benchmark::State& state) {
  Relation planes = Planes(int(state.range(0)));
  for (auto _ : state) {
    Relation r = *IndexJoinOnMovingPoint(
        planes, kFlightAttrFlight, planes, kFlightAttrFlight, 50,
        [](const Tuple& a, std::size_t i, const Tuple& b, std::size_t j) {
          return ClosePred(a, i, b, j, 50);
        });
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Q2_Join_RTree)->RangeMultiplier(2)->Range(16, 256)
    ->Complexity();

// The probe loop in isolation: the R-tree is built once outside the
// timed region, so iterations measure candidate probing + refinement
// only — the loop the flattened SoA layout and zero-allocation scratch
// target.
void BM_Q2_Join_RTree_Prebuilt(benchmark::State& state) {
  Relation planes = Planes(int(state.range(0)));
  RTree3D index = *BuildMovingPointIndex(planes, kFlightAttrFlight);
  for (auto _ : state) {
    Relation r = *IndexJoinOnMovingPoint(
        planes, kFlightAttrFlight, planes, index, 50,
        [](const Tuple& a, std::size_t i, const Tuple& b, std::size_t j) {
          return ClosePred(a, i, b, j, 50);
        });
    benchmark::DoNotOptimize(r);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Q2_Join_RTree_Prebuilt)->RangeMultiplier(2)->Range(16, 256)
    ->Complexity();

// The composed join predicate in isolation: distance + atmin + initial.
void BM_Q2_PredicateOnly(benchmark::State& state) {
  Relation planes = Planes(64);
  for (auto _ : state) {
    int hits = 0;
    const auto& p = std::get<MovingPoint>(planes.tuple(0)[kFlightAttrFlight]);
    for (std::size_t j = 1; j < planes.NumTuples(); ++j) {
      const auto& q =
          std::get<MovingPoint>(planes.tuple(j)[kFlightAttrFlight]);
      auto d = LiftedDistance(p, q);
      if (!d.ok() || d->IsEmpty()) continue;
      auto am = AtMin(*d);
      if (am.ok() && !am->IsEmpty() && am->Initial().val() < 50) ++hits;
    }
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_Q2_PredicateOnly);

// Q2 as served: Db::Run of the analytic_scan join request (a distinct-
// pair self index join at distance 50) on the prebuilt R-tree.
void BM_Q2_IndexJoin_Db(benchmark::State& state) {
  Db db;
  if (!db.Register(Planes(int(state.range(0)))).ok() ||
      !db.BuildIndex("planes", "flight").ok()) {
    state.SkipWithError("registering and indexing the planes failed");
    return;
  }
  QueryRequest q;
  q.kind = QueryRequest::Kind::kIndexJoin;
  q.relation = "planes";
  q.attr = "flight";
  q.join_relation = "planes";
  q.join_attr = "flight";
  q.distance = 50;
  q.distinct_pairs = true;
  for (auto _ : state) {
    Result<QueryResult> r = db.Run(q);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_Q2_IndexJoin_Db)->Arg(1024)->Unit(benchmark::kMillisecond);

// Sliding window aggregates (width = 2 × step) over the day through
// Db::Run on 1024 flights, with a 5000 × 5000 qualification rect —
// the analytic_scan request shape at 64, 1024 and 16384 windows. The
// unit sweep's cost grows with the (unit, window) overlaps, not with
// windows × rows.
void BM_WindowAggregate(benchmark::State& state) {
  Db db;
  if (!db.Register(Planes(1024)).ok()) {
    state.SkipWithError("registering the planes relation failed");
    return;
  }
  QueryRequest q;
  q.kind = QueryRequest::Kind::kWindowAggregate;
  q.relation = "planes";
  q.attr = "flight";
  q.window_t0 = 0;
  q.window_t1 = 24;
  q.window_step = 24.0 / double(state.range(0));
  q.window_width = 2 * q.window_step;
  q.min_x = 2500;
  q.min_y = 2500;
  q.max_x = 7500;
  q.max_y = 7500;
  for (auto _ : state) {
    Result<QueryResult> r = db.Run(q);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_WindowAggregate)->Arg(64)->Arg(1024)->Arg(16384)
    ->Unit(benchmark::kMillisecond);

// The batch kinds through Db::Run: every flight evaluated at 49
// half-hourly instants — the analytic_scan atinstant grid (1024
// flights) and the point_lookup present request (64 flights).
void BM_BatchKinds_Db(benchmark::State& state, QueryRequest::Kind kind,
                      int flights) {
  Db db;
  if (!db.Register(Planes(flights)).ok()) {
    state.SkipWithError("registering the planes relation failed");
    return;
  }
  QueryRequest q;
  q.kind = kind;
  q.relation = "planes";
  q.attr = "flight";
  for (int i = 0; i <= 48; ++i) q.instants.push_back(0.25 + 0.5 * i);
  for (auto _ : state) {
    Result<QueryResult> r = db.Run(q);
    if (!r.ok()) {
      state.SkipWithError(r.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK_CAPTURE(BM_BatchKinds_Db, atinstant,
                  QueryRequest::Kind::kAtInstantBatch, 1024)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_BatchKinds_Db, present, QueryRequest::Kind::kPresentBatch,
                  64)
    ->Unit(benchmark::kMicrosecond);

// The result blocks of the analytic_scan replies, as the wire codec
// moves them: the Q2 distinct-pair join (rows: 2 airline + 2 id
// strings and 2 mpoints per pair), the atinstant grid (xy) and the
// present grid (present) at 49 instants, over 64, 256 and 1024 flights.
// The 1024-flight rows block is the Q2 join reply (~4.6 MB).
Result<QueryResult> ReplyResult(QueryRequest::Kind kind, int flights) {
  Db db;
  MODB_RETURN_IF_ERROR(db.Register(Planes(flights)));
  MODB_RETURN_IF_ERROR(db.BuildIndex("planes", "flight"));
  QueryRequest q;
  q.kind = kind;
  q.relation = "planes";
  q.attr = "flight";
  q.join_relation = "planes";
  q.join_attr = "flight";
  q.distance = 50;
  q.distinct_pairs = true;
  if (kind != QueryRequest::Kind::kIndexJoin) {
    for (int i = 0; i <= 48; ++i) q.instants.push_back(0.25 + 0.5 * i);
  }
  return db.Run(q);
}

void BM_EncodeResultBlock(benchmark::State& state, QueryRequest::Kind kind) {
  Result<QueryResult> result = ReplyResult(kind, int(state.range(0)));
  if (!result.ok()) {
    state.SkipWithError(result.status().ToString().c_str());
    return;
  }
  std::size_t bytes = 0;
  for (auto _ : state) {
    Result<std::string> block = serve::EncodeResultBlock(*result);
    if (!block.ok()) {
      state.SkipWithError(block.status().ToString().c_str());
      return;
    }
    bytes = block->size();
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(std::int64_t(state.iterations() * bytes));
}

void BM_DecodeResultBlock(benchmark::State& state, QueryRequest::Kind kind) {
  Result<QueryResult> result = ReplyResult(kind, int(state.range(0)));
  Result<std::string> block =
      result.ok() ? serve::EncodeResultBlock(*result) : result.status();
  if (!block.ok()) {
    state.SkipWithError(block.status().ToString().c_str());
    return;
  }
  for (auto _ : state) {
    Result<QueryResult> back = serve::DecodeResultBlock(*block);
    if (!back.ok()) {
      state.SkipWithError(back.status().ToString().c_str());
      return;
    }
    benchmark::DoNotOptimize(back);
  }
  state.SetBytesProcessed(std::int64_t(state.iterations() * block->size()));
}

#define MODB_CODEC_BENCH(fn, name, kind)                              \
  BENCHMARK_CAPTURE(fn, name, QueryRequest::Kind::kind)->Arg(64)->Arg(256) \
      ->Arg(1024)->Unit(benchmark::kMicrosecond)
MODB_CODEC_BENCH(BM_EncodeResultBlock, rows, kIndexJoin);
MODB_CODEC_BENCH(BM_EncodeResultBlock, xy, kAtInstantBatch);
MODB_CODEC_BENCH(BM_EncodeResultBlock, present, kPresentBatch);
MODB_CODEC_BENCH(BM_DecodeResultBlock, rows, kIndexJoin);
MODB_CODEC_BENCH(BM_DecodeResultBlock, xy, kAtInstantBatch);
MODB_CODEC_BENCH(BM_DecodeResultBlock, present, kPresentBatch);
#undef MODB_CODEC_BENCH

}  // namespace
}  // namespace modb
