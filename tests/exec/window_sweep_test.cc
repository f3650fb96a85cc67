// The window-aggregate unit sweep (exec/pipeline.h WindowSweepOp) is
// pinned to the windows × rows nested loop it replaced: that loop lives
// on below as the reference, and every request's result block must be
// BYTE-IDENTICAL to the reference's (serve::EncodeResultBlock bytes,
// compared with memcmp) at every thread count, under a test hook that
// permutes the morsel schedule. The requests cover tumbling, sliding
// and gapped grids, fixes and unit ends exactly on window edges, a t0
// so large that s_i rounds (and repeats), inverted / degenerate /
// ordinary rects, filters, and static and live relations.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/interval.h"
#include "db/modb.h"
#include "db/relation.h"
#include "db/value.h"
#include "exec/morsel.h"
#include "exec/pipeline.h"
#include "gen/flights_gen.h"
#include "serve/wire.h"
#include "temporal/mapping.h"
#include "temporal/upoint.h"

namespace modb {
namespace {

// ---- the reference: per window, per row, scan the row's units ----------

struct TRange {
  double lo = 0;
  double hi = 0;
  bool lc = true;
  bool rc = true;
  bool empty = false;
};

TRange EmptyRange() {
  TRange r;
  r.empty = true;
  return r;
}

TRange IntersectRanges(const TRange& a, const TRange& b) {
  if (a.empty || b.empty) return EmptyRange();
  TRange r;
  if (a.lo > b.lo) {
    r.lo = a.lo;
    r.lc = a.lc;
  } else if (b.lo > a.lo) {
    r.lo = b.lo;
    r.lc = b.lc;
  } else {
    r.lo = a.lo;
    r.lc = a.lc && b.lc;
  }
  if (a.hi < b.hi) {
    r.hi = a.hi;
    r.rc = a.rc;
  } else if (b.hi < a.hi) {
    r.hi = b.hi;
    r.rc = b.rc;
  } else {
    r.hi = a.hi;
    r.rc = a.rc && b.rc;
  }
  if (r.lo > r.hi || (r.lo == r.hi && !(r.lc && r.rc))) return EmptyRange();
  return r;
}

TRange AxisCrossingRange(double c0, double c1, double lo, double hi) {
  TRange r;
  if (c1 == 0) {
    if (c0 < lo || c0 > hi) return EmptyRange();
    r.lo = -std::numeric_limits<double>::infinity();
    r.hi = std::numeric_limits<double>::infinity();
    return r;
  }
  double a = (lo - c0) / c1;
  double b = (hi - c0) / c1;
  if (a > b) std::swap(a, b);
  r.lo = a;
  r.hi = b;
  return r;
}

TRange RangeOfInterval(const TimeInterval& iv) {
  TRange r;
  r.lo = iv.start();
  r.hi = iv.end();
  r.lc = iv.left_closed();
  r.rc = iv.right_closed();
  return r;
}

struct WindowRowAgg {
  bool qualifies = false;
  double distance = 0;
  double covered = 0;
};

WindowRowAgg AggregateRowWindow(const MovingPoint& mp, const TRange& window,
                                bool has_rect, double min_x, double min_y,
                                double max_x, double max_y) {
  WindowRowAgg agg;
  for (const UPoint& u : mp.units()) {
    const TimeInterval& iv = u.interval();
    if (iv.end() < window.lo) continue;
    if (iv.start() > window.hi) break;
    const TRange clip = IntersectRanges(RangeOfInterval(iv), window);
    if (clip.empty) continue;
    const double dur = clip.hi - clip.lo;
    agg.distance += u.Speed() * dur;
    agg.covered += dur;
    if (!agg.qualifies) {
      if (!has_rect) {
        agg.qualifies = true;
      } else {
        const LinearMotion& m = u.motion();
        const TRange q = IntersectRanges(
            IntersectRanges(clip, AxisCrossingRange(m.x0, m.x1, min_x, max_x)),
            AxisCrossingRange(m.y0, m.y1, min_y, max_y));
        if (!q.empty) agg.qualifies = true;
      }
    }
  }
  return agg;
}

// The reference result block: the filters through a serial kSelect, then
// the windows × rows loop.
std::string ReferenceBlock(const Db& db, const QueryRequest& req) {
  QueryRequest select;
  select.kind = QueryRequest::Kind::kSelect;
  select.relation = req.relation;
  select.filters = req.filters;
  Result<QueryResult> filtered = db.Run(select);
  EXPECT_TRUE(filtered.ok()) << filtered.status();
  if (!filtered.ok()) return std::string();
  const int slot = filtered->rows.schema().IndexOf(req.attr);
  const bool has_rect = req.min_x <= req.max_x && req.min_y <= req.max_y;

  QueryResult result;
  result.rows = Relation(req.relation + "_win",
                         Schema({{"w_start", AttributeType::kReal},
                                 {"w_end", AttributeType::kReal},
                                 {"count", AttributeType::kInt},
                                 {"distance", AttributeType::kReal},
                                 {"avg_speed", AttributeType::kReal}}));
  for (std::uint64_t i = 0;; ++i) {
    const Instant s = req.window_t0 + double(i) * req.window_step;
    if (!(s < req.window_t1)) break;
    TRange window;
    window.lo = s;
    window.hi = s + req.window_width;
    window.rc = false;
    std::uint64_t count = 0;
    double distance = 0;
    double covered = 0;
    for (const Tuple& t : filtered->rows.tuples()) {
      const WindowRowAgg agg = AggregateRowWindow(
          std::get<MovingPoint>(t[std::size_t(slot)]), window, has_rect,
          req.min_x, req.min_y, req.max_x, req.max_y);
      if (!agg.qualifies) continue;
      ++count;
      distance += agg.distance;
      covered += agg.covered;
    }
    Tuple row;
    row.emplace_back(RealValue(window.lo));
    row.emplace_back(RealValue(window.hi));
    row.emplace_back(IntValue(std::int64_t(count)));
    row.emplace_back(RealValue(distance));
    row.emplace_back(RealValue(covered > 0 ? distance / covered : 0.0));
    EXPECT_TRUE(result.rows.Insert(std::move(row)).ok());
  }
  Result<std::string> block = serve::EncodeResultBlock(result);
  EXPECT_TRUE(block.ok());
  return block.ok() ? *block : std::string();
}

std::string SweepBlock(const Db& db, const QueryRequest& req, int threads) {
  ExecOptions options;
  options.parallel.num_threads = threads;
  Result<QueryResult> result = db.Run(req, options);
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok()) return std::string();
  Result<std::string> block = serve::EncodeResultBlock(*result);
  EXPECT_TRUE(block.ok());
  return block.ok() ? *block : std::string();
}

bool SameBytes(const std::string& a, const std::string& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size()) == 0;
}

// ---- fixtures ----------------------------------------------------------

struct Rng {
  std::uint64_t s;
  std::uint64_t Next() {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return s >> 33;
  }
  int Int(int lo, int hi) {
    return lo + int(Next() % std::uint64_t(hi - lo + 1));
  }
  double Uniform(double lo, double hi) {
    return lo + (hi - lo) * double(Next() % 1000000) / 1000000.0;
  }
};

struct Fix {
  std::string id;
  Instant t;
  double x, y;
};

// Fixes at t = t_base + k * dt on an integer grid; a third of the steps
// stand still (constant motion), so rect tests hit both crossing cases.
std::vector<Fix> GridFixes(int objects, int steps, Instant t_base, Instant dt,
                           std::uint64_t seed) {
  Rng rng{seed};
  std::vector<double> px(std::size_t(objects), 0), py(std::size_t(objects), 0);
  std::vector<Fix> fixes;
  for (int k = 0; k < steps; ++k) {
    for (int o = 0; o < objects; ++o) {
      double& x = px[std::size_t(o)];
      double& y = py[std::size_t(o)];
      if (k > 0 && rng.Int(0, 2) != 0) {
        x += rng.Int(-3, 3);
        y += rng.Int(-3, 3);
      }
      fixes.push_back({"obj" + std::to_string(o), t_base + k * dt, x, y});
    }
  }
  return fixes;
}

Relation BulkRelation(const std::string& name, const std::vector<Fix>& fixes,
                      int objects) {
  Relation rel(name, Schema({{"id", AttributeType::kString},
                             {"trail", AttributeType::kMovingPoint}}));
  for (int o = 0; o < objects; ++o) {
    const std::string id = "obj" + std::to_string(o);
    std::vector<Fix> own;
    for (const Fix& f : fixes) {
      if (f.id == id) own.push_back(f);
    }
    MappingBuilder<UPoint> builder;
    for (std::size_t i = 0; i + 1 < own.size(); ++i) {
      const bool last = i + 2 == own.size();
      Result<TimeInterval> iv =
          TimeInterval::Make(own[i].t, own[i + 1].t, true, last);
      EXPECT_TRUE(iv.ok());
      Result<UPoint> u = UPoint::FromEndpoints(
          *iv, Point(own[i].x, own[i].y), Point(own[i + 1].x, own[i + 1].y));
      EXPECT_TRUE(u.ok());
      EXPECT_TRUE(builder.Append(*u).ok());
    }
    Result<MovingPoint> mp = builder.Build();
    EXPECT_TRUE(mp.ok());
    Tuple tuple;
    tuple.emplace_back(StringValue(id));
    tuple.emplace_back(*std::move(mp));
    EXPECT_TRUE(rel.Insert(std::move(tuple)).ok());
  }
  return rel;
}

void IngestLive(Db* db, const std::string& name,
                const std::vector<Fix>& fixes) {
  ingest::LiveOptions options;
  options.seal_units = 3;
  ASSERT_TRUE(db->RegisterLive(name, options).ok());
  MutationRequest req;
  req.kind = MutationRequest::Kind::kIngest;
  req.relation = name;
  for (const Fix& f : fixes) {
    req.fixes.push_back({f.id, f.t, f.x, f.y});
    if (req.fixes.size() >= 7) {
      ASSERT_TRUE(db->Apply(req).ok());
      req.fixes.clear();
    }
  }
  if (!req.fixes.empty()) {
    ASSERT_TRUE(db->Apply(req).ok());
  }
}

constexpr int kFleetObjects = 12;
constexpr int kFleetSteps = 24;
constexpr Instant kFarT0 = 1e15;  // ulp 0.125: s_i = t0 + i*step rounds

Relation Planes(int flights) {
  FlightsOptions gen;
  gen.num_flights = flights;
  gen.seed = 77;
  Result<Relation> planes = GeneratePlanes(gen);
  EXPECT_TRUE(planes.ok()) << planes.status();
  return *std::move(planes);
}

// One Db holding every source the requests draw from.
struct Sources {
  Db db;
  Sources() {
    EXPECT_TRUE(db.Register(Planes(64)).ok());
    const std::vector<Fix> near =
        GridFixes(kFleetObjects, kFleetSteps, 0, 1, 5);
    const std::vector<Fix> far =
        GridFixes(kFleetObjects, kFleetSteps, kFarT0, 0.5, 6);
    EXPECT_TRUE(db.Register(BulkRelation("fleet", near, kFleetObjects)).ok());
    EXPECT_TRUE(db.Register(BulkRelation("far", far, kFleetObjects)).ok());
    IngestLive(&db, "fleet_live", near);
    IngestLive(&db, "far_live", far);
  }
};

// A seeded window request over one of the sources.
QueryRequest RandomRequest(std::uint64_t seed) {
  Rng rng{seed * 2654435761ULL + 17};
  QueryRequest q;
  q.kind = QueryRequest::Kind::kWindowAggregate;
  const int source = int(seed % 5);
  const bool planes = source == 0;
  const bool far = source >= 3;
  q.relation = planes ? "planes"
               : source == 1 ? "fleet"
               : source == 2 ? "fleet_live"
               : source == 3 ? "far"
                             : "far_live";
  q.attr = planes ? "flight" : "trail";

  // The grid: dyadic steps over the integer-time fleets put window
  // edges exactly on fixes and unit ends; far steps round, and steps
  // below the ulp repeat s_i.
  double step;
  if (planes) {
    step = rng.Uniform(0.05, 2.0);
    q.window_t0 = rng.Uniform(-2, 6);
    q.window_t1 = q.window_t0 + rng.Uniform(0, 30);
  } else if (!far) {
    static const double kSteps[] = {0.25, 0.5, 1, 2, 3, 0.3};
    step = kSteps[rng.Int(0, 5)];
    q.window_t0 = rng.Int(-4, 8) * 0.5;
    q.window_t1 = q.window_t0 + rng.Int(0, 30);
  } else {
    static const double kSteps[] = {0.3, 0.125, 0.05, 1, 0.7};
    step = kSteps[rng.Int(0, 4)];
    q.window_t0 = kFarT0 + rng.Int(-4, 8) * 0.5;
    q.window_t1 = q.window_t0 + rng.Int(0, 14);
  }
  q.window_step = step;
  switch (rng.Int(0, 2)) {
    case 0:  // tumbling
      q.window_width = step;
      break;
    case 1:  // sliding
      q.window_width = step * rng.Int(2, 4);
      break;
    default:  // gapped: width < step
      q.window_width = step * (far || !planes ? 0.5 : rng.Uniform(0.1, 0.9));
      break;
  }

  // The rect: inverted (none), degenerate (a line or a point on the
  // integer grid the fleets move on), or an ordinary box.
  const double extent = planes ? 10000 : 20;
  switch (rng.Int(0, 3)) {
    case 0:
      break;  // the default inverted rect
    case 1:
      q.min_x = q.max_x = planes ? rng.Uniform(0, extent) : rng.Int(-6, 6);
      q.min_y = -extent;
      q.max_y = extent;
      break;
    case 2:
      q.min_x = q.max_x = planes ? rng.Uniform(0, extent) : rng.Int(-3, 3);
      q.min_y = q.max_y = planes ? rng.Uniform(0, extent) : rng.Int(-3, 3);
      break;
    default: {
      const double cx = planes ? rng.Uniform(0, extent) : rng.Int(-6, 6);
      const double cy = planes ? rng.Uniform(0, extent) : rng.Int(-6, 6);
      const double r = planes ? rng.Uniform(500, 4000) : rng.Int(1, 6);
      q.min_x = cx - r;
      q.max_x = cx + r;
      q.min_y = cy - r;
      q.max_y = cy + r;
      break;
    }
  }

  // Filters: none, one, or two, from every FilterSpec kind.
  const Instant base = far ? kFarT0 : 0;
  const Instant span = planes ? 24 : kFleetSteps * (far ? 0.5 : 1);
  const int filters = rng.Int(0, 2);
  for (int f = 0; f < filters; ++f) {
    switch (rng.Int(0, 3)) {
      case 0:
        if (planes) {
          static const char* kAirlines[] = {"Lufthansa", "Alitalia", "KLM"};
          q.filters.push_back({FilterSpec::Kind::kStringEquals, "airline",
                               kAirlines[rng.Int(0, 2)], 0, 0, 0});
        } else {
          q.filters.push_back({FilterSpec::Kind::kStringEquals, "id",
                               "obj" + std::to_string(rng.Int(0, 11)), 0, 0,
                               0});
        }
        break;
      case 1:
        q.filters.push_back({FilterSpec::Kind::kTrajectoryLengthAtLeast,
                             q.attr, "",
                             planes ? rng.Uniform(1000, 6000)
                                    : double(rng.Int(5, 40)),
                             0, 0});
        break;
      case 2:
        q.filters.push_back({FilterSpec::Kind::kPresentAt, q.attr, "", 0,
                             base + rng.Uniform(0, span), 0});
        break;
      default: {
        const Instant a = base + rng.Uniform(0, span);
        q.filters.push_back({FilterSpec::Kind::kDeftimeIntersects, q.attr, "",
                             0, a, a + rng.Uniform(0, span / 2)});
        break;
      }
    }
  }
  return q;
}

// ---- the differential test ---------------------------------------------

TEST(WindowSweep, ByteIdenticalToNestedLoopAtEveryThreadCount) {
  Sources sources;
  constexpr std::uint64_t kRequests = 520;
  const int kThreads[] = {1, 2, 3, 4, 8};

  // Stall a request-dependent subset of morsels so completion order
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

  std::uint64_t nonempty = 0;
  for (std::uint64_t seed = 0; seed < kRequests; ++seed) {
    const QueryRequest q = RandomRequest(seed);
    const std::string want = ReferenceBlock(sources.db, q);
    for (int threads : kThreads) {
      salt = seed + std::uint64_t(threads);
      const std::string got = SweepBlock(sources.db, q, threads);
      EXPECT_TRUE(SameBytes(want, got))
          << "request " << seed << " on " << q.relation << " diverged at "
          << threads << " threads (t0 = " << q.window_t0
          << ", t1 = " << q.window_t1 << ", step = " << q.window_step
          << ", width = " << q.window_width << ")";
    }
    // Count requests that emitted at least one non-zero window, so the
    // generator provably exercises the aggregation, not just the grid.
    Result<QueryResult> r = sources.db.Run(q);
    ASSERT_TRUE(r.ok());
    for (const Tuple& row : r->rows.tuples()) {
      if (std::get<IntValue>(row[2]).value() > 0) {
        ++nonempty;
        break;
      }
    }
  }
  exec::SetExecTestHooks(nullptr);
  EXPECT_GE(nonempty, kRequests / 2);
}

TEST(WindowSweep, CountWindowsIsTheEmissionPredicate) {
  // Per the rounded quotient this grid fits in 2^20 windows, but
  // t0 + i*step < t1 still holds at i = 2^20.
  const Instant t0 = -171372.0013984514;
  const Instant step = 3.6712389471470495;
  const Instant t1 = 3678201.0488452134;
  const std::uint64_t cap = std::uint64_t(1) << 20;
  ASSERT_LE((t1 - t0) / step, double(cap));
  EXPECT_EQ(cap + 1, exec::CountWindows(t0, t1, step, cap));
  EXPECT_EQ(cap + 1, exec::CountWindows(t0, t1, step, cap + 1));

  EXPECT_EQ(0u, exec::CountWindows(5, 5, 1, cap));
  EXPECT_EQ(1u, exec::CountWindows(5, 5.5, 1, cap));
  EXPECT_EQ(4u, exec::CountWindows(0, 8, 2, cap));  // 8 itself is excluded
  EXPECT_EQ(5u, exec::CountWindows(0, 8.000001, 2, cap));
  // Steps below the ulp of t0: s_i repeats, and the count still follows
  // the predicate exactly.
  std::uint64_t brute = 0;
  while (kFarT0 + double(brute) * 0.05 < kFarT0 + 1) ++brute;
  EXPECT_EQ(brute, exec::CountWindows(kFarT0, kFarT0 + 1, 0.05, cap));
}

TEST(WindowSweep, StatsCoverTheWholeRequest) {
  Sources sources;
  QueryRequest q;
  q.kind = QueryRequest::Kind::kWindowAggregate;
  q.relation = "planes";
  q.attr = "flight";
  q.filters.push_back(
      {FilterSpec::Kind::kStringEquals, "airline", "KLM", 0, 0, 0});
  q.window_t0 = -1;
  q.window_t1 = 40;  // covers every flight, so every unit is visited
  q.window_step = 0.5;
  q.window_width = 1;

  QueryRequest select = q;
  select.kind = QueryRequest::Kind::kSelect;
  Result<QueryResult> filtered = sources.db.Run(select);
  ASSERT_TRUE(filtered.ok());
  std::uint64_t units = 0;
  for (const Tuple& t : filtered->rows.tuples()) {
    units += std::get<MovingPoint>(t[kFlightAttrFlight]).units().size();
  }
  ASSERT_GT(units, 0u);

  ExecStats stats;
  ExecOptions options;
  options.stats = &stats;
  options.parallel.num_threads = 3;
  Result<QueryResult> r = sources.db.Run(q, options);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ("window_aggregate", stats.op);
  EXPECT_EQ(64u, stats.tuples_in);
  EXPECT_EQ(82u, stats.tuples_out);  // windows emitted: s = -1, ..., 39.5
  EXPECT_EQ(r->rows.NumTuples(), stats.tuples_out);
  EXPECT_EQ(units, stats.units_scanned);
  EXPECT_GT(stats.wall_ns, 0u);
  EXPECT_GT(stats.morsels, 0u);

  const ExecStats* sweep = nullptr;
  for (const ExecStats& child : stats.children) {
    if (child.op == "window_sweep") sweep = &child;
  }
  ASSERT_NE(nullptr, sweep);
  EXPECT_EQ(filtered->rows.NumTuples(), sweep->tuples_in);
  EXPECT_EQ(units, sweep->units_scanned);
  // The sweep's rows out are its qualifying (row, window) pairs: the
  // per-window counts sum to exactly that.
  std::uint64_t pairs = 0;
  for (const Tuple& row : r->rows.tuples()) {
    pairs += std::uint64_t(std::get<IntValue>(row[2]).value());
  }
  EXPECT_GT(pairs, 0u);
  EXPECT_EQ(pairs, sweep->tuples_out);
  // The stats also ride on the result itself.
  EXPECT_EQ(stats.units_scanned, r->stats.units_scanned);
}

TEST(WindowSweep, DeadlineExpiringMidSweepReturnsNoRows) {
  Sources sources;
  QueryRequest q;
  q.kind = QueryRequest::Kind::kWindowAggregate;
  q.relation = "planes";
  q.attr = "flight";
  q.window_t0 = 0;
  q.window_t1 = 24;
  q.window_step = 24.0 / 1024;
  q.window_width = 2 * q.window_step;

  // 64 flights on one worker split into 4 morsels; each stalls 100 ms,
  // so a 150 ms deadline passes the first two checkpoints and expires at
  // the third, with half the rows swept.
  std::uint64_t morsels_started = 0;
  exec::ExecTestHooks hooks;
  hooks.before_morsel = [&morsels_started](std::size_t, std::size_t) {
    ++morsels_started;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  };
  exec::SetExecTestHooks(&hooks);
  ExecOptions options;
  options.parallel.num_threads = 1;
  options.deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(150);
  Result<QueryResult> r = sources.db.Run(q, options);
  exec::SetExecTestHooks(nullptr);

  ASSERT_FALSE(r.ok());
  EXPECT_EQ(StatusCode::kDeadlineExceeded, r.status().code()) << r.status();
  EXPECT_NE(r.status().message().find("deadline"), std::string::npos);
  EXPECT_GE(morsels_started, 1u);
  EXPECT_LT(morsels_started, 4u);

  // Without the stall and the deadline the same request completes.
  Result<QueryResult> full = sources.db.Run(q);
  ASSERT_TRUE(full.ok()) << full.status();
  EXPECT_EQ(1024u, full->rows.NumTuples());
}

}  // namespace
}  // namespace modb
