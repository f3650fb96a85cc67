// The benchmark's three workloads: which server each one talks to, how
// many connections it opens, and the requests and ingest batches it
// sends. Every request parameter and every ingested fix is drawn here
// from the workload seed; modbd receives only its flags (ServerFlags)
// and these requests. METRICS.md gives the reason for each workload and
// what it should move.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "db/modb.h"

namespace perfbench {

/// One query kind of a workload: its metric label and the request
/// variants a connection cycles through.
struct QueryKind {
  std::string name;
  std::vector<modb::QueryRequest> variants;
};

/// The resident planes relation is generated from one fixed seed
/// (modbd's default) in every run, so runs with different workload seeds
/// measure the same data; the seed varies the traffic.
inline constexpr std::uint64_t kPlanesSeed = 99;

struct Workload {
  std::string name;
  /// modbd --flights (the resident planes relation).
  int flights = 64;
  int query_connections = 1;
  /// Pause between a reply and the connection's next request (a
  /// dashboard's refresh interval); 0 sends back to back.
  int think_ms = 0;
  /// Seconds of traffic before timing starts (connections, plan cache,
  /// page cache and the server's allocator reach steady state).
  double warmup_s = 1.0;
  /// Whether one extra connection streams durable ingest batches into
  /// the store-backed live relation kLiveRelation.
  bool live = false;
  std::vector<QueryKind> kinds;
};

/// Live-ingest shape: kLiveObjects objects whose stores start
/// kPreloadFixesPerObject fixes deep; the run appends keyed batches of
/// kIngestBatch fixes, each acknowledged after one committed epoch.
/// Fixes arrive at the gateway at kIngestFixesPerSecond: a batch is sent
/// once its fixes have arrived and the previous ack is back, so the
/// history a query sees at a given moment does not depend on how fast
/// the host ran the ingest before it.
inline constexpr const char* kLiveRelation = "fleet";
inline constexpr int kLiveObjects = 16;
inline constexpr int kPreloadFixesPerObject = 2048;
inline constexpr int kPreloadBatch = 1024;
inline constexpr int kIngestBatch = 64;
inline constexpr int kIngestFixesPerSecond = 1024;
inline constexpr int kMergeIntervalMs = 500;

/// The named workload with its requests drawn from `seed`, or nullopt.
std::optional<Workload> MakeWorkload(const std::string& name,
                                     std::uint64_t seed);

/// modbd's flags for `w`, except --store (the caller's copy of the
/// preloaded store for live workloads).
std::vector<std::string> ServerFlags(const Workload& w);

/// Deterministic random walks, one per object, continuing forever: fix
/// i belongs to object i % kLiveObjects at time i / kLiveObjects. The
/// preload and the run draw from the same sequence, so the run's
/// batches continue each object's walk where the preloaded store ends.
class FleetWalk {
 public:
  explicit FleetWalk(std::uint64_t seed);
  /// The next `n` fixes as one ingest request on kLiveRelation.
  modb::MutationRequest NextBatch(int n);
  std::uint64_t fixes_generated() const { return next_; }

 private:
  double Step(std::size_t object);

  std::vector<std::uint64_t> rng_;
  std::vector<double> x_;
  std::vector<double> y_;
  std::vector<std::string> ids_;
  std::uint64_t next_ = 0;
};

/// Object id of walk `object` (the live_select variants look them up).
std::string FleetObjectId(int object);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
