// The batch probe (exec/pipeline.h BatchProbeOp) serves kAtInstantBatch
// and kPresentBatch on the morsel pipeline. It is pinned here to the
// per-tuple loop it replaced: that loop lives on below as the
// reference, and every served result block must be BYTE-IDENTICAL to
// the reference's (serve::EncodeResultBlock bytes) for 0/1/7/64/1024
// rows × both kinds × 0/1/49/300 instants × 1/2/3/4/8 threads, under a
// test hook that permutes the morsel schedule, on static and live
// relations. The error paths (unsorted instants, deadlines), the
// ExecStats tree and the planner's batch-terminal rules are pinned too.

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "db/modb.h"
#include "db/relation.h"
#include "exec/morsel.h"
#include "exec/pipeline.h"
#include "exec/planner.h"
#include "gen/flights_gen.h"
#include "serve/wire.h"
#include "temporal/batch_ops.h"

namespace modb {
namespace {

constexpr int kRowCounts[] = {0, 1, 7, 64, 1024};
constexpr std::size_t kInstantCounts[] = {0, 1, 49, 300};
constexpr int kThreads[] = {1, 2, 3, 4, 8};
constexpr QueryRequest::Kind kKinds[] = {QueryRequest::Kind::kAtInstantBatch,
                                         QueryRequest::Kind::kPresentBatch};

std::string Block(const QueryResult& result) {
  Result<std::string> block = serve::EncodeResultBlock(result);
  EXPECT_TRUE(block.ok()) << block.status();
  return block.ok() ? *block : std::string();
}

// ---- the reference: one kernel call per tuple, concatenated ------------

QueryResult ReferenceResult(const Relation& rel, int slot,
                            QueryRequest::Kind kind,
                            const std::vector<Instant>& instants) {
  QueryResult r;
  r.batch_tuples = rel.NumTuples();
  r.batch_instants = instants.size();
  BatchScratch scratch;
  BatchXYOutput xy;
  std::vector<std::uint8_t> present;
  for (const Tuple& t : rel.tuples()) {
    const MovingPoint& mp = std::get<MovingPoint>(t[std::size_t(slot)]);
    if (kind == QueryRequest::Kind::kAtInstantBatch) {
      EXPECT_TRUE(AtInstantBatchXYInto(mp, instants, &xy, &scratch).ok());
      r.xs.insert(r.xs.end(), xy.xs.begin(), xy.xs.end());
      r.ys.insert(r.ys.end(), xy.ys.begin(), xy.ys.end());
      r.defined.insert(r.defined.end(), xy.defined.begin(), xy.defined.end());
    } else {
      EXPECT_TRUE(PresentBatchInto(mp, instants, &present).ok());
      r.present.insert(r.present.end(), present.begin(), present.end());
    }
  }
  r.payload = kind == QueryRequest::Kind::kAtInstantBatch
                  ? QueryResult::Payload::kXY
                  : QueryResult::Payload::kPresent;
  return r;
}

// ---- sources -------------------------------------------------------------

// k ascending instants over [lo, hi], one of them repeated (ascending
// is non-strict), so both ends and the gaps between deftimes are hit.
std::vector<Instant> Instants(std::size_t k, Instant lo, Instant hi) {
  std::vector<Instant> out;
  for (std::size_t i = 0; i < k; ++i) {
    out.push_back(k == 1 ? (lo + hi) / 2
                         : lo + (hi - lo) * double(i) / double(k - 1));
  }
  if (k > 2) out[k / 2] = out[k / 2 - 1];
  return out;
}

Relation StaticPlanes(int flights) {
  FlightsOptions gen;
  gen.num_flights = flights;
  gen.seed = 31;
  Result<Relation> planes = GeneratePlanes(gen);
  EXPECT_TRUE(planes.ok()) << planes.status();
  Relation out("planes_" + std::to_string(flights), planes->schema());
  for (const Tuple& t : planes->tuples()) EXPECT_TRUE(out.Insert(t).ok());
  return out;
}

// A live fleet of `objects` objects, object o with 2 + o % 6 fixes one
// time unit apart starting at o / 100, ingested in interleaved batches.
void IngestFleet(Db* db, const std::string& name, int objects) {
  ingest::LiveOptions options;
  options.seal_units = 3;
  ASSERT_TRUE(db->RegisterLive(name, options).ok());
  MutationRequest req;
  req.kind = MutationRequest::Kind::kIngest;
  req.relation = name;
  for (int j = 0; j < 8; ++j) {
    for (int o = 0; o < objects; ++o) {
      if (j >= 2 + o % 6) continue;
      req.fixes.push_back({"obj" + std::to_string(o), o / 100.0 + j,
                           o * 10.0 + j * 3.0, double((j * j) % 7)});
      if (req.fixes.size() == 50) {
        ASSERT_TRUE(db->Apply(req).ok());
        req.fixes.clear();
      }
    }
  }
  if (!req.fixes.empty()) {
    ASSERT_TRUE(db->Apply(req).ok());
  }
}

struct Source {
  std::string relation;
  std::string attr;
  Instant lo;
  Instant hi;
};

// One Db holding a static and a live relation of every row count.
struct Sources {
  Db db;
  std::vector<Source> all;
  Sources() {
    for (int rows : kRowCounts) {
      Relation planes = StaticPlanes(rows);
      all.push_back({planes.name(), "flight", -1, 30});
      EXPECT_TRUE(db.Register(std::move(planes)).ok());
      const std::string live = "fleet_" + std::to_string(rows);
      IngestFleet(&db, live, rows);
      all.push_back({live, "trail", -0.5, 18});
    }
  }

  // The source's tuples in row order (a filterless select).
  Relation Rows(const std::string& relation) const {
    QueryRequest q;
    q.relation = relation;
    Result<QueryResult> r = db.Run(q);
    EXPECT_TRUE(r.ok()) << r.status();
    return r.ok() ? std::move(r->rows) : Relation();
  }
};

QueryRequest BatchRequest(const Source& src, QueryRequest::Kind kind,
                          std::vector<Instant> instants) {
  QueryRequest q;
  q.kind = kind;
  q.relation = src.relation;
  q.attr = src.attr;
  q.instants = std::move(instants);
  return q;
}

Result<QueryResult> RunAt(const Db& db, const QueryRequest& q, int threads,
                          ExecStats* stats = nullptr) {
  ExecOptions options;
  options.parallel.num_threads = threads;
  options.stats = stats;
  return db.Run(q, options);
}

// ---- the differential test ---------------------------------------------

TEST(BatchSink, ByteIdenticalToPerTupleLoopAtEveryThreadCount) {
  Sources sources;
  // Stall a shape-dependent subset of morsels so completion order
  // differs from sequence order across runs.
  std::uint64_t salt = 0;
  exec::ExecTestHooks hooks;
  hooks.before_morsel = [&salt](std::size_t worker, std::size_t seq) {
    if ((seq * 7 + worker + salt) % 4 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(40));
    } else {
      std::this_thread::yield();
    }
  };
  exec::SetExecTestHooks(&hooks);

  std::uint64_t set_cells = 0;
  for (const Source& src : sources.all) {
    const Relation rows = sources.Rows(src.relation);
    const int slot = rows.schema().IndexOf(src.attr);
    ASSERT_GE(slot, 0);
    for (std::size_t k : kInstantCounts) {
      const std::vector<Instant> instants = Instants(k, src.lo, src.hi);
      for (QueryRequest::Kind kind : kKinds) {
        const QueryResult want = ReferenceResult(rows, slot, kind, instants);
        for (std::uint8_t f : want.defined) set_cells += f;
        for (std::uint8_t f : want.present) set_cells += f;
        const std::string want_block = Block(want);
        const QueryRequest q = BatchRequest(src, kind, instants);
        for (int threads : kThreads) {
          salt = k + std::uint64_t(threads) + rows.NumTuples();
          Result<QueryResult> got = RunAt(sources.db, q, threads);
          ASSERT_TRUE(got.ok()) << got.status();
          EXPECT_EQ(want_block, Block(*got))
              << src.relation << " kind " << int(kind) << " k " << k
              << " threads " << threads;
        }
      }
    }
  }
  exec::SetExecTestHooks(nullptr);
  // The shapes provably hit defined cells, not only the gaps.
  EXPECT_GT(set_cells, 10000u);
}

TEST(BatchSink, UnsortedInstantsAreInvalidArgumentAtEveryThreadCount) {
  Sources sources;
  std::vector<Instant> unsorted = Instants(300, -1, 30);
  std::swap(unsorted[200], unsorted[201]);
  for (const Source& src : sources.all) {
    if (src.relation != "planes_64" && src.relation != "fleet_1024") {
      continue;
    }
    for (QueryRequest::Kind kind : kKinds) {
      for (const std::vector<Instant>& instants :
           {std::vector<Instant>{2.0, 1.0}, unsorted}) {
        const QueryRequest q = BatchRequest(src, kind, instants);
        for (int threads : kThreads) {
          EXPECT_EQ(StatusCode::kInvalidArgument,
                    RunAt(sources.db, q, threads).status().code())
              << src.relation << " kind " << int(kind) << " threads "
              << threads;
        }
      }
    }
  }
}

// ---- deadlines -----------------------------------------------------------

exec::PhysicalPlan BatchPlan(const Relation& rel,
                             exec::BatchProbeOp::Kind kind) {
  exec::LogicalQuery q;
  q.rel = &rel;
  q.batch = exec::BatchProbeOp{kind, kFlightAttrFlight, Instants(49, 0, 24)};
  Result<exec::PhysicalPlan> plan = exec::PlanQuery(q);
  EXPECT_TRUE(plan.ok()) << plan.status();
  return *std::move(plan);
}

TEST(BatchSink, DeadlineExpiringMidProbeLeavesNoCells) {
  const Relation planes = StaticPlanes(64);
  Db db;
  ASSERT_TRUE(db.Register(StaticPlanes(64)).ok());
  const Source src{"planes_64", "flight", -1, 30};

  // 64 rows on one worker split into 4 morsels; each stalls 100 ms, so
  // a 150 ms deadline passes the first two checkpoints and expires at
  // the third.
  std::uint64_t morsels_started = 0;
  exec::ExecTestHooks hooks;
  hooks.before_morsel = [&morsels_started](std::size_t, std::size_t) {
    ++morsels_started;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  };
  exec::SetExecTestHooks(&hooks);
  for (auto kind :
       {exec::BatchProbeOp::Kind::kAtInstantXY, exec::BatchProbeOp::Kind::kPresent}) {
    morsels_started = 0;
    ExecOptions options;
    options.parallel.num_threads = 1;
    options.deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(150);
    exec::BatchOutput cells;
    cells.flags = {1, 2, 3};  // a reused sink is cleared on failure too
    Result<Relation> r = exec::RunPlan(BatchPlan(planes, kind), options, &cells);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(StatusCode::kDeadlineExceeded, r.status().code()) << r.status();
    EXPECT_TRUE(cells.xs.empty());
    EXPECT_TRUE(cells.ys.empty());
    EXPECT_TRUE(cells.flags.empty());
    EXPECT_GE(morsels_started, 1u);
    EXPECT_LT(morsels_started, 4u);
  }

  // Served: the same stall through Db::Run is a typed error, no payload.
  for (QueryRequest::Kind kind : kKinds) {
    ExecOptions options;
    options.parallel.num_threads = 1;
    options.deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(150);
    Result<QueryResult> r =
        db.Run(BatchRequest(src, kind, Instants(49, 0, 24)), options);
    EXPECT_EQ(StatusCode::kDeadlineExceeded, r.status().code()) << r.status();
  }
  exec::SetExecTestHooks(nullptr);

  // Expired on arrival: refused before any morsel starts.
  morsels_started = 0;
  exec::SetExecTestHooks(&hooks);
  ExecOptions expired;
  expired.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
  for (QueryRequest::Kind kind : kKinds) {
    EXPECT_EQ(StatusCode::kDeadlineExceeded,
              db.Run(BatchRequest(src, kind, Instants(49, 0, 24)), expired)
                  .status()
                  .code());
  }
  exec::SetExecTestHooks(nullptr);
  EXPECT_EQ(0u, morsels_started);
}

// ---- stats ---------------------------------------------------------------

TEST(BatchSink, StatsRootCountsCellsWithScanAndBatchChildren) {
  Db db;
  ASSERT_TRUE(db.Register(StaticPlanes(64)).ok());
  const Source src{"planes_64", "flight", -1, 30};
  const std::vector<Instant> instants = Instants(49, -1, 30);
  for (QueryRequest::Kind kind : kKinds) {
    ExecStats stats;
    Result<QueryResult> r =
        RunAt(db, BatchRequest(src, kind, instants), 3, &stats);
    ASSERT_TRUE(r.ok()) << r.status();
    const std::vector<std::uint8_t>& flags =
        kind == QueryRequest::Kind::kAtInstantBatch ? r->defined : r->present;
    std::uint64_t set = 0;
    for (std::uint8_t f : flags) set += f;
    ASSERT_GT(set, 0u);
    ASSERT_LT(set, flags.size());

    EXPECT_EQ(kind == QueryRequest::Kind::kAtInstantBatch
                  ? "atinstant_batch_many_xy"
                  : "present_batch_many",
              stats.op);
    EXPECT_EQ(64u * 49u, stats.tuples_in);
    EXPECT_EQ(set, stats.tuples_out);
    EXPECT_EQ(3u, stats.workers);
    EXPECT_GE(stats.morsels, 1u);
    EXPECT_EQ(1u, stats.materializations);
    EXPECT_GT(stats.wall_ns, 0u);
    ASSERT_EQ(2u, stats.children.size());
    EXPECT_EQ("scan", stats.children[0].op);
    EXPECT_EQ(64u, stats.children[0].tuples_in);
    EXPECT_EQ(64u, stats.children[0].tuples_out);
    EXPECT_EQ("batch", stats.children[1].op);
    EXPECT_EQ(64u, stats.children[1].tuples_in);
    EXPECT_EQ(set, stats.children[1].tuples_out);
    // The same tree rides on the result.
    EXPECT_EQ(stats.op, r->stats.op);
    EXPECT_EQ(stats.tuples_out, r->stats.tuples_out);
  }
}

// ---- planner and plan rules ----------------------------------------------

TEST(BatchSink, PlannerRejectsMalformedBatchTerminals) {
  const Relation planes = StaticPlanes(7);
  exec::LogicalQuery q;
  q.rel = &planes;
  q.batch = exec::BatchProbeOp{exec::BatchProbeOp::Kind::kPresent,
                               kFlightAttrFlight, {1.0}};
  ASSERT_TRUE(exec::PlanQuery(q).ok());

  exec::LogicalQuery filtered = q;
  filtered.filters.push_back({[](const Tuple&) { return true; }, "all", {}});
  EXPECT_EQ(StatusCode::kInvalidArgument,
            exec::PlanQuery(filtered).status().code());

  exec::LogicalQuery not_moving = q;
  not_moving.batch->attr = kFlightAttrAirline;
  EXPECT_EQ(StatusCode::kInvalidArgument,
            exec::PlanQuery(not_moving).status().code());
  not_moving.batch->attr = 3;
  EXPECT_EQ(StatusCode::kInvalidArgument,
            exec::PlanQuery(not_moving).status().code());

  exec::LogicalQuery two_terminals = q;
  two_terminals.project = std::vector<int>{kFlightAttrId};
  EXPECT_EQ(StatusCode::kInvalidArgument,
            exec::PlanQuery(two_terminals).status().code());

  // A BatchOutput goes with a batch plan and only with one.
  EXPECT_EQ(StatusCode::kInvalidArgument,
            exec::RunPlan(*exec::PlanQuery(q), ExecOptions()).status().code());
  exec::LogicalQuery select;
  select.rel = &planes;
  exec::BatchOutput cells;
  EXPECT_EQ(StatusCode::kInvalidArgument,
            exec::RunPlan(*exec::PlanQuery(select), ExecOptions(), &cells)
                .status()
                .code());
}

}  // namespace
}  // namespace modb
