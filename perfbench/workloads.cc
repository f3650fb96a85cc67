#include "workloads.h"

#include <cstdio>

namespace perfbench {

namespace {

using modb::FilterSpec;
using modb::QueryRequest;

// splitmix64: the benchmark's only source of request parameters.
std::uint64_t Mix(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Uniform(std::uint64_t* state, double lo, double hi) {
  return lo + (hi - lo) * double(Mix(state) >> 11) * 0x1.0p-53;
}

// The 49 half-hour instants of the day, shifted by `offset` hours.
std::vector<modb::Instant> HalfHours(double offset) {
  std::vector<modb::Instant> ts;
  for (int i = 0; i <= 48; ++i) ts.push_back(offset + 0.5 * i);
  return ts;
}

QueryRequest OnPlanes(QueryRequest::Kind kind) {
  QueryRequest q;
  q.kind = kind;
  q.relation = "planes";
  q.attr = "flight";
  return q;
}

QueryRequest OnFleet(QueryRequest::Kind kind) {
  QueryRequest q;
  q.kind = kind;
  q.relation = kLiveRelation;
  q.attr = "trail";
  return q;
}

QueryRequest SelfIndexJoin(QueryRequest q, double distance) {
  q.join_relation = q.relation;
  q.join_attr = q.attr;
  q.distance = distance;
  q.distinct_pairs = true;
  return q;
}

// Small requests on the default 64-flight relation: each runs for tens
// of microseconds inside Db::Run, so framing, socket I/O, admission and
// the wire codecs dominate the round trip.
Workload PointLookup(std::uint64_t seed) {
  const char* airlines[] = {"Lufthansa", "Alitalia", "KLM", "Iberia"};
  Workload w;
  w.name = "point_lookup";
  w.flights = 64;
  w.query_connections = 3;
  QueryKind select{"q1_select", {}};
  QueryKind project{"project", {}};
  QueryKind present{"present_batch", {}};
  QueryKind atinstant{"atinstant_batch", {}};
  for (int v = 0; v < 4; ++v) {
    QueryRequest q1 = OnPlanes(QueryRequest::Kind::kSelect);
    q1.filters.push_back(
        {FilterSpec::Kind::kStringEquals, "airline", airlines[v], 0, 0, 0});
    q1.filters.push_back({FilterSpec::Kind::kTrajectoryLengthAtLeast,
                          "flight", "", Uniform(&seed, 2000, 8000), 0, 0});
    select.variants.push_back(q1);

    QueryRequest pr = OnPlanes(QueryRequest::Kind::kProject);
    pr.filters.push_back({FilterSpec::Kind::kPresentAt, "flight", "", 0,
                          Uniform(&seed, 6, 18), 0});
    pr.project = {"airline", "id"};
    project.variants.push_back(pr);

    QueryRequest pb = OnPlanes(QueryRequest::Kind::kPresentBatch);
    pb.instants = HalfHours(Uniform(&seed, 0, 0.5));
    present.variants.push_back(pb);

    QueryRequest ai = OnPlanes(QueryRequest::Kind::kAtInstantBatch);
    ai.instants = {Uniform(&seed, 0, 24)};
    atinstant.variants.push_back(ai);
  }
  w.kinds = {select, project, present, atinstant};
  return w;
}

// Heavy requests on 1024 flights: Q2's self join through the prebuilt
// R-tree, ~1024 sliding windows over the day (per-period moving-object
// aggregates), and a whole-fleet atinstant grid. Db::Run is most of
// every round trip.
Workload AnalyticScan(std::uint64_t seed) {
  Workload w;
  w.name = "analytic_scan";
  w.flights = 1024;
  w.query_connections = 2;
  w.warmup_s = 2.0;
  QueryKind join{"q2_index_join",
                 {SelfIndexJoin(OnPlanes(QueryRequest::Kind::kIndexJoin), 50)}};

  // Eight rects and eight instant grids per run: a run's cost averages
  // over them instead of hanging on one draw.
  QueryKind window{"window_aggregate", {}};
  QueryKind atinstant{"atinstant_batch", {}};
  for (int v = 0; v < 8; ++v) {
    QueryRequest win = OnPlanes(QueryRequest::Kind::kWindowAggregate);
    win.window_t0 = 0;
    win.window_t1 = 24;
    win.window_step = 24.0 / 1024;
    win.window_width = 2 * win.window_step;
    const double cx = Uniform(&seed, 2500, 7500);
    const double cy = Uniform(&seed, 2500, 7500);
    win.min_x = cx - 2500;
    win.max_x = cx + 2500;
    win.min_y = cy - 2500;
    win.max_y = cy + 2500;
    window.variants.push_back(win);

    QueryRequest ai = OnPlanes(QueryRequest::Kind::kAtInstantBatch);
    ai.instants = HalfHours(Uniform(&seed, 0, 0.5));
    atinstant.variants.push_back(ai);
  }
  w.kinds = {join, window, atinstant};
  return w;
}

// Queries over the preloaded history [0, kPreloadFixesPerObject] of the
// live relation while one connection keeps appending to it.
Workload LiveIngest() {
  Workload w;
  w.name = "live_ingest";
  w.flights = 64;
  w.query_connections = 2;
  w.think_ms = 50;
  w.live = true;
  const double depth = kPreloadFixesPerObject;

  QueryKind select{"live_select", {}};
  for (int o = 0; o < kLiveObjects; ++o) {
    QueryRequest q = OnFleet(QueryRequest::Kind::kSelect);
    q.filters.push_back(
        {FilterSpec::Kind::kStringEquals, "id", FleetObjectId(o), 0, 0, 0});
    select.variants.push_back(q);
  }

  QueryRequest ai = OnFleet(QueryRequest::Kind::kAtInstantBatch);
  for (double t = 0; t <= depth; t += depth / 16) ai.instants.push_back(t);

  QueryRequest win = OnFleet(QueryRequest::Kind::kWindowAggregate);
  win.window_t0 = 0;
  win.window_t1 = depth;
  win.window_width = depth / 16;
  win.window_step = depth / 32;

  // live_select comes twice per cycle so the pooled median falls inside
  // one kind's latencies instead of in the gap between two kinds.
  w.kinds = {select,
             {"live_atinstant", {ai}},
             select,
             {"live_window", {win}},
             {"live_index_join",
              {SelfIndexJoin(OnFleet(QueryRequest::Kind::kIndexJoin), 50)}}};
  return w;
}

}  // namespace

std::optional<Workload> MakeWorkload(const std::string& name,
                                     std::uint64_t seed) {
  if (name == "point_lookup") return PointLookup(seed);
  if (name == "analytic_scan") return AnalyticScan(seed);
  if (name == "live_ingest") return LiveIngest();
  return std::nullopt;
}

std::vector<std::string> ServerFlags(const Workload& w) {
  std::vector<std::string> flags = {"--flights=" + std::to_string(w.flights),
                                    "--seed=" + std::to_string(kPlanesSeed)};
  if (w.live) {
    flags.push_back(std::string("--live=") + kLiveRelation);
    flags.push_back("--merge-interval-ms=" + std::to_string(kMergeIntervalMs));
  }
  return flags;
}

std::string FleetObjectId(int object) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "obj%05d", object);
  return buf;
}

FleetWalk::FleetWalk(std::uint64_t seed) {
  for (int o = 0; o < kLiveObjects; ++o) {
    rng_.push_back(seed * 6364136223846793005ULL +
                   (std::uint64_t(o) + 1) * 1442695040888963407ULL);
    // A 4-wide grid 1000 apart: a walk drifts ~365 units per axis over
    // 4000 steps, so pairs rarely come within the join distance and the
    // join's cost (probing every unit) hardly depends on the seed.
    x_.push_back((o % 4) * 1000.0);
    y_.push_back((o / 4) * 1000.0);
    ids_.push_back(FleetObjectId(o));
  }
}

double FleetWalk::Step(std::size_t object) {
  std::uint64_t& r = rng_[object];
  r = r * 6364136223846793005ULL + 1442695040888963407ULL;
  return double(std::int64_t((r >> 33) % 2001) - 1000) / 100.0;
}

modb::MutationRequest FleetWalk::NextBatch(int n) {
  modb::MutationRequest batch;
  batch.kind = modb::MutationRequest::Kind::kIngest;
  batch.relation = kLiveRelation;
  for (int i = 0; i < n; ++i, ++next_) {
    const std::size_t o = std::size_t(next_ % kLiveObjects);
    x_[o] += Step(o);
    y_[o] += Step(o);
    batch.fixes.push_back(
        {ids_[o], double(next_ / kLiveObjects), x_[o], y_[o]});
  }
  return batch;
}

}  // namespace perfbench
