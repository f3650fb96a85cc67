// Thread-scaling sweep (Experiment P6): the same three workloads at
// every thread count from --modb_threads (default 1,2,4,8), each run on
// a dedicated ThreadPool of exactly that size so the reported real time
// measures that concurrency and nothing else. Benchmarks are registered
// at runtime via the strong RegisterScalingBenchmarks override (the
// weak default in bench_main.cc is a no-op for the other binaries):
//
//   BM_Scaling_Select/T             σ with the Q1 trajectory predicate
//   BM_Scaling_IndexJoin/T          prebuilt R-tree spatio-temporal join
//   BM_Scaling_PipelinedSelectJoin/T  fused Select→Join plan (exec engine)
//
// bench_compare --scaling gates the /1 vs /4 real-time ratio of the
// pipelined plan. Real time (not CPU time) is the honest scaling
// metric: pool workers' CPU seconds grow with T even when wall time
// does not.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "db/parallel.h"
#include "db/query.h"
#include "exec/pipeline.h"
#include "exec/planner.h"
#include "gen/flights_gen.h"
#include "temporal/lifted_ops.h"

namespace modb_bench {

// Strong override of the weak hook in bench_main.cc.
void RegisterScalingBenchmarks(const std::vector<int>& threads);

namespace {

using namespace modb;  // NOLINT — bench TU, mirrors bench_queries.cc idiom.

// Same generator settings as bench_queries.cc so numbers line up with
// the Q1/Q2 records.
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

bool Q1Pred(const Tuple& t) {
  return std::get<StringValue>(t[kFlightAttrAirline]).value() == "Lufthansa" &&
         Trajectory(std::get<MovingPoint>(t[kFlightAttrFlight])).Length() >
             5000;
}

bool ClosePred(const Tuple& a, std::size_t i, const Tuple& b, std::size_t j,
               double dist) {
  if (i >= j) return false;
  return EverCloserThan(std::get<MovingPoint>(a[kFlightAttrFlight]),
                        std::get<MovingPoint>(b[kFlightAttrFlight]), dist);
}

// Relations, prebuilt trees, and the fused plan live here; the plan
// holds pointers into this struct, so it is heap-allocated once and
// shared by every registered benchmark.
struct ScalingContext {
  Relation select_src;
  Relation join_src;
  RTree3D join_tree;
  Relation pipe_src;
  RTree3D pipe_tree;
  exec::PhysicalPlan pipe_plan;
};

std::shared_ptr<ScalingContext> MakeContext() {
  auto ctx = std::make_shared<ScalingContext>();
  ctx->select_src = Planes(256);
  ctx->join_src = Planes(64);
  ctx->join_tree = *BuildMovingPointIndex(ctx->join_src, kFlightAttrFlight);
  ctx->pipe_src = Planes(96);
  ctx->pipe_tree = *BuildMovingPointIndex(ctx->pipe_src, kFlightAttrFlight);

  // The fused plan: filter out one airline, index-join the survivors
  // against the full relation on the prebuilt tree. Cheap filter +
  // heavy probe keeps the morsel stage chain dominated by
  // parallelizable work.
  exec::LogicalQuery q;
  q.rel = &ctx->pipe_src;
  q.filters.push_back(exec::Predicate{
      [](const Tuple& t) {
        return std::get<StringValue>(t[kFlightAttrAirline]).value() !=
               "Lufthansa";
      },
      "not_lufthansa",
      std::nullopt});
  exec::LogicalQuery::JoinSpec join;
  join.algorithm = exec::LogicalQuery::JoinSpec::Algorithm::kIndex;
  join.inner = &ctx->pipe_src;
  join.attr_outer = kFlightAttrFlight;
  join.attr_inner = kFlightAttrFlight;
  join.expand = 50;
  join.pred = exec::JoinPred{
      [](const Tuple& a, std::size_t i, const Tuple& b, std::size_t j) {
        return ClosePred(a, i, b, j, 50);
      },
      "close_50"};
  join.prebuilt = &ctx->pipe_tree;
  q.join = std::move(join);
  ctx->pipe_plan = *exec::PlanQuery(q);
  return ctx;
}

ExecOptions PoolOptions(ThreadPool* pool, int threads) {
  ExecOptions options;
  options.parallel.num_threads = threads;
  options.parallel.pool = pool;
  return options;
}

void RunSelect(benchmark::State& state, std::shared_ptr<ScalingContext> ctx,
               int threads) {
  ThreadPool pool(threads);
  const ExecOptions options = PoolOptions(&pool, threads);
  for (auto _ : state) {
    Relation r = *Select(ctx->select_src, Q1Pred, options);
    benchmark::DoNotOptimize(r);
  }
}

void RunIndexJoin(benchmark::State& state, std::shared_ptr<ScalingContext> ctx,
                  int threads) {
  ThreadPool pool(threads);
  const ExecOptions options = PoolOptions(&pool, threads);
  for (auto _ : state) {
    Relation r = *IndexJoinOnMovingPoint(
        ctx->join_src, kFlightAttrFlight, ctx->join_src, ctx->join_tree, 50,
        [](const Tuple& a, std::size_t i, const Tuple& b, std::size_t j) {
          return ClosePred(a, i, b, j, 50);
        },
        options);
    benchmark::DoNotOptimize(r);
  }
}

void RunPipelinedSelectJoin(benchmark::State& state,
                            std::shared_ptr<ScalingContext> ctx, int threads) {
  ThreadPool pool(threads);
  const ExecOptions options = PoolOptions(&pool, threads);
  for (auto _ : state) {
    Relation r = *exec::RunPlan(ctx->pipe_plan, options);
    benchmark::DoNotOptimize(r);
  }
}

}  // namespace

void RegisterScalingBenchmarks(const std::vector<int>& threads) {
  auto ctx = MakeContext();
  for (int t : threads) {
    const std::string suffix = "/" + std::to_string(t);
    benchmark::RegisterBenchmark(("BM_Scaling_Select" + suffix).c_str(),
                                 RunSelect, ctx, t)
        ->UseRealTime()
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(("BM_Scaling_IndexJoin" + suffix).c_str(),
                                 RunIndexJoin, ctx, t)
        ->UseRealTime()
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("BM_Scaling_PipelinedSelectJoin" + suffix).c_str(),
        RunPipelinedSelectJoin, ctx, t)
        ->UseRealTime()
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace modb_bench
