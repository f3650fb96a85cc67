// Lifted-operation pipeline benchmarks: the per-unit-pair scheme of
// Section 5.2 applied to distance, comparison, and atmin — the building
// blocks of the Q2 join predicate — plus trajectory and speed
// projections.

#include <benchmark/benchmark.h>

#include <random>

#include "gen/trajectory_gen.h"
#include "temporal/lifted_ops.h"

namespace modb {
namespace {

MovingPoint Track(int units, uint64_t seed) {
  std::mt19937_64 rng(seed);
  TrajectoryOptions opts;
  opts.num_units = units;
  opts.extent = 1000;
  opts.max_step = 30;
  return *RandomWalkPoint(rng, opts);
}

void BM_LiftedDistance(benchmark::State& state) {
  MovingPoint a = Track(int(state.range(0)), 1);
  MovingPoint b = Track(int(state.range(0)), 2);
  for (auto _ : state) {
    auto d = LiftedDistance(a, b);
    benchmark::DoNotOptimize(d);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LiftedDistance)->RangeMultiplier(4)->Range(16, 16384)
    ->Complexity(benchmark::oN);

void BM_Compare_Const(benchmark::State& state) {
  MovingPoint a = Track(int(state.range(0)), 1);
  MovingPoint b = Track(int(state.range(0)), 2);
  MovingReal d = *LiftedDistance(a, b);
  for (auto _ : state) {
    auto c = Compare(d, 100.0, CmpOp::kLt);
    benchmark::DoNotOptimize(c);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Compare_Const)->RangeMultiplier(4)->Range(16, 16384)
    ->Complexity(benchmark::oN);

void BM_AtMin(benchmark::State& state) {
  MovingPoint a = Track(int(state.range(0)), 1);
  MovingPoint b = Track(int(state.range(0)), 2);
  MovingReal d = *LiftedDistance(a, b);
  for (auto _ : state) {
    auto m = AtMin(d);
    benchmark::DoNotOptimize(m);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AtMin)->RangeMultiplier(4)->Range(16, 16384)
    ->Complexity(benchmark::oN);

// The full Q2 predicate pipeline on one pair.
void BM_JoinPredicatePipeline(benchmark::State& state) {
  MovingPoint a = Track(int(state.range(0)), 1);
  MovingPoint b = Track(int(state.range(0)), 2);
  for (auto _ : state) {
    auto d = LiftedDistance(a, b);
    auto m = AtMin(*d);
    benchmark::DoNotOptimize(m->Initial().val());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_JoinPredicatePipeline)->RangeMultiplier(4)->Range(16, 4096)
    ->Complexity(benchmark::oN);

// The same predicate decided in one allocation-free pass over the unit
// pairs (EverCloserThan), against the composed pipeline above.
void BM_EverCloser(benchmark::State& state) {
  MovingPoint a = Track(int(state.range(0)), 1);
  MovingPoint b = Track(int(state.range(0)), 2);
  for (auto _ : state) {
    bool close = EverCloserThan(a, b, 50);
    benchmark::DoNotOptimize(close);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EverCloser)->RangeMultiplier(4)->Range(16, 4096)
    ->Complexity(benchmark::oN);

void BM_Trajectory(benchmark::State& state) {
  MovingPoint a = Track(int(state.range(0)), 3);
  for (auto _ : state) {
    Line l = Trajectory(a);
    benchmark::DoNotOptimize(l);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Trajectory)->RangeMultiplier(4)->Range(16, 1024);

void BM_Speed(benchmark::State& state) {
  MovingPoint a = Track(int(state.range(0)), 3);
  for (auto _ : state) {
    auto s = Speed(a);
    benchmark::DoNotOptimize(s);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Speed)->RangeMultiplier(4)->Range(16, 16384)
    ->Complexity(benchmark::oN);

void BM_Equals(benchmark::State& state) {
  MovingPoint a = Track(int(state.range(0)), 1);
  MovingPoint b = Track(int(state.range(0)), 2);
  for (auto _ : state) {
    auto e = Equals(a, b);
    benchmark::DoNotOptimize(e);
  }
}
BENCHMARK(BM_Equals)->RangeMultiplier(4)->Range(16, 4096);

}  // namespace
}  // namespace modb
