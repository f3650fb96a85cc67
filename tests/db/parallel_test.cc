#include "db/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <vector>

#include "db/query.h"
#include "db/relation_io.h"
#include "gen/flights_gen.h"

namespace modb {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool.
// ---------------------------------------------------------------------------

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3);
  std::atomic<int> count{0};
  std::mutex mu;
  std::condition_variable cv;
  constexpr int kTasks = 64;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      if (count.fetch_add(1) + 1 == kTasks) cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return count.load() == kTasks; });
  EXPECT_EQ(count.load(), kTasks);
}

TEST(ThreadPool, DefaultSizeIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.num_threads(), 1);
  EXPECT_GE(ThreadPool::Shared().num_threads(), 1);
}

// ---------------------------------------------------------------------------
// Parallel operators: byte-identical to the serial operators at every
// thread count (per-chunk buffers merged in chunk order).
// ---------------------------------------------------------------------------

// AttributeValue has no operator==, so compare through the storage
// serialization: two relations are byte-identical iff every serialized
// attribute of every tuple matches, in order.
void ExpectByteIdentical(const Relation& a, const Relation& b) {
  EXPECT_EQ(a.name(), b.name());
  ASSERT_EQ(a.schema().NumAttributes(), b.schema().NumAttributes());
  ASSERT_EQ(a.NumTuples(), b.NumTuples());
  for (std::size_t i = 0; i < a.NumTuples(); ++i) {
    const Tuple& ta = a.tuple(i);
    const Tuple& tb = b.tuple(i);
    ASSERT_EQ(ta.size(), tb.size());
    for (std::size_t j = 0; j < ta.size(); ++j) {
      auto sa = SerializeAttribute(ta[j]);
      auto sb = SerializeAttribute(tb[j]);
      ASSERT_TRUE(sa.ok() && sb.ok());
      ASSERT_EQ(*sa, *sb) << "tuple " << i << " attr " << j;
    }
  }
}

Relation TestPlanes(int num_flights, std::uint64_t seed) {
  FlightsOptions opt;
  opt.num_flights = num_flights;
  opt.seed = seed;
  auto rel = GeneratePlanes(opt);
  EXPECT_TRUE(rel.ok()) << rel.status();
  return *rel;
}

const std::vector<int> kThreadCounts = {1, 2, 4, 7};

// ExecOptions running on a pool (one chunk per pool thread).
ExecOptions PoolOptions(ThreadPool* pool) {
  ExecOptions options;
  options.parallel.num_threads = 0;
  options.parallel.pool = pool;
  return options;
}

TEST(ParallelOperators, SelectMatchesSerial) {
  Relation planes = TestPlanes(60, 1);
  auto pred = [](const Tuple& t) {
    const auto& mp = std::get<MovingPoint>(t[std::size_t(kFlightAttrFlight)]);
    return mp.NumUnits() % 2 == 0;
  };
  Relation serial = *Select(planes, pred);
  EXPECT_GT(serial.NumTuples(), 0u);
  EXPECT_LT(serial.NumTuples(), planes.NumTuples());
  for (int threads : kThreadCounts) {
    ThreadPool pool(threads);
    ExpectByteIdentical(serial, *Select(planes, pred, PoolOptions(&pool)));
    // num_threads overrides chunking without a private pool.
    ExecOptions by_count;
    by_count.parallel.num_threads = threads;
    ExpectByteIdentical(serial, *Select(planes, pred, by_count));
  }
}

TEST(ParallelOperators, NestedLoopJoinMatchesSerial) {
  Relation a = TestPlanes(24, 2);
  Relation b = TestPlanes(24, 3);
  // Join flights whose deftimes overlap.
  auto pred = [&](const Tuple& ta, std::size_t, const Tuple& tb,
                  std::size_t) {
    const auto& ma = std::get<MovingPoint>(ta[std::size_t(kFlightAttrFlight)]);
    const auto& mb = std::get<MovingPoint>(tb[std::size_t(kFlightAttrFlight)]);
    if (ma.IsEmpty() || mb.IsEmpty()) return false;
    return ma.units().front().interval().start() <=
               mb.units().back().interval().end() &&
           mb.units().front().interval().start() <=
               ma.units().back().interval().end();
  };
  Relation serial = *NestedLoopJoin(a, b, pred);
  EXPECT_GT(serial.NumTuples(), 0u);
  for (int threads : kThreadCounts) {
    ThreadPool pool(threads);
    ExpectByteIdentical(serial, *NestedLoopJoin(a, b, pred,
                                                PoolOptions(&pool)));
  }
}

TEST(ParallelOperators, IndexJoinMatchesSerial) {
  Relation a = TestPlanes(32, 4);
  Relation b = TestPlanes(32, 5);
  auto pred = [](const Tuple&, std::size_t i, const Tuple&, std::size_t j) {
    return i != j;
  };
  Relation serial =
      *IndexJoinOnMovingPoint(a, kFlightAttrFlight, b, kFlightAttrFlight,
                              500.0, pred);
  EXPECT_GT(serial.NumTuples(), 0u);
  for (int threads : kThreadCounts) {
    ThreadPool pool(threads);
    Relation par =
        *IndexJoinOnMovingPoint(a, kFlightAttrFlight, b, kFlightAttrFlight,
                                500.0, pred, PoolOptions(&pool));
    ExpectByteIdentical(serial, par);
  }
}

// Satellite: the prebuilt-index overload must produce a byte-identical
// relation to the building overload, serial and parallel, and the
// ExecStats tree must expose the rebuild count (1 building, 0 reusing).
TEST(ParallelOperators, PrebuiltIndexMatchesBuildingOverload) {
  Relation a = TestPlanes(32, 4);
  Relation b = TestPlanes(32, 5);
  auto pred = [](const Tuple&, std::size_t i, const Tuple&, std::size_t j) {
    return i != j;
  };
  ExecStats stats_built;
  ExecOptions opts_built;
  opts_built.stats = &stats_built;
  Relation built = *IndexJoinOnMovingPoint(a, kFlightAttrFlight, b,
                                           kFlightAttrFlight, 500.0, pred,
                                           opts_built);
  EXPECT_EQ(stats_built.index_builds, 1u);

  Result<RTree3D> index = BuildMovingPointIndex(b, kFlightAttrFlight);
  ASSERT_TRUE(index.ok());
  ExecStats stats_pre;
  ExecOptions opts_pre;
  opts_pre.stats = &stats_pre;
  Relation pre = *IndexJoinOnMovingPoint(a, kFlightAttrFlight, b, *index,
                                         500.0, pred, opts_pre);
  ExpectByteIdentical(built, pre);
  EXPECT_EQ(stats_pre.index_builds, 0u);

  for (int threads : kThreadCounts) {
    ThreadPool pool(threads);
    Relation par = *IndexJoinOnMovingPoint(a, kFlightAttrFlight, b, *index,
                                           500.0, pred, PoolOptions(&pool));
    ExpectByteIdentical(built, par);
  }

  // Bad attribute index / non-moving-point attribute are rejected, not
  // fatal.
  EXPECT_FALSE(BuildMovingPointIndex(b, 999).ok());
  EXPECT_FALSE(BuildMovingPointIndex(b, -1).ok());
}

TEST(ParallelOperators, EmptyRelationAndMoreChunksThanTuples) {
  Relation planes = TestPlanes(3, 6);
  Relation empty("planes", planes.schema());
  auto all = [](const Tuple&) { return true; };
  ExecOptions options;
  options.parallel.num_threads = 8;  // more chunks than tuples
  ExpectByteIdentical(*Select(empty, all), *Select(empty, all, options));
  ExpectByteIdentical(*Select(planes, all), *Select(planes, all, options));
}

TEST(ParallelOperators, RejectsAbsurdThreadCounts) {
  Relation planes = TestPlanes(3, 6);
  auto all = [](const Tuple&) { return true; };
  ExecOptions options;
  options.parallel.num_threads = kMaxQueryThreads + 1;
  auto r = Select(planes, all, options);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // <= 0 means "auto" and stays valid.
  options.parallel.num_threads = -5;
  EXPECT_TRUE(Select(planes, all, options).ok());
  options.parallel.num_threads = kMaxQueryThreads;
  EXPECT_TRUE(Select(planes, all, options).ok());
}

// Requesting an ExecStats sink must not change the produced relation
// (the differential guarantee the instrumentation relies on), and the
// tree must describe the work that actually happened.
TEST(ParallelOperators, StatsSinkDoesNotChangeOutput) {
  Relation planes = TestPlanes(40, 7);
  auto pred = [](const Tuple& t) {
    const auto& mp = std::get<MovingPoint>(t[std::size_t(kFlightAttrFlight)]);
    return mp.NumUnits() % 2 == 1;
  };
  Relation plain = *Select(planes, pred);
  for (int threads : kThreadCounts) {
    ThreadPool pool(threads);
    ExecStats stats;
    ExecOptions options = PoolOptions(&pool);
    options.stats = &stats;
    ExpectByteIdentical(plain, *Select(planes, pred, options));
    EXPECT_EQ(stats.op, "select");
    EXPECT_EQ(stats.tuples_in, planes.NumTuples());
    EXPECT_EQ(stats.tuples_out, plain.NumTuples());
    EXPECT_EQ(stats.predicate_evals, planes.NumTuples());
    EXPECT_EQ(stats.workers, std::uint64_t(threads));
    // The pipelined engine reports one child per fused stage: the scan,
    // the selection, and the ordered sink.
    ASSERT_EQ(stats.children.size(), 3u);
    EXPECT_EQ(stats.children[0].op, "scan");
    EXPECT_EQ(stats.children[1].op, "select");
    EXPECT_EQ(stats.children[2].op, "sink");
    EXPECT_EQ(stats.children[0].tuples_in, planes.NumTuples());
    EXPECT_EQ(stats.children[1].predicate_evals, planes.NumTuples());
    EXPECT_EQ(stats.children[2].tuples_out, plain.NumTuples());
    // Exactly one relation materialized (the sink), every morsel
    // accounted for.
    EXPECT_EQ(stats.materializations, 1u);
    EXPECT_GE(stats.morsels, 1u);
  }
}

}  // namespace
}  // namespace modb
