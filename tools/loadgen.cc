// loadgen: closed-loop load generator for modbd, and the over-the-wire
// check of the byte-identity contract (live = bulk, proxied = direct).
// Every mode runs one Workload:
//
//   * a query mix that --clients connections issue back to back;
//   * ingest batches streamed on one more connection: none, plain, or
//     keyed (client_id + batch_seq);
//   * a transport: straight to the server, or through a chaosproxy with
//     RetryingClient;
//   * a stop rule: --requests per client, or until ingest finishes.
//
// Per-kind p50/p99 latencies, error counts and throughput land in a
// google-benchmark-schema JSON (--out) that bench_compare --serving or
// --ingest gates.
//
// Serve mode (default): the static mix over the resident "planes"
// relation (Q1 select, filtered project, the Q2 index join, atinstant
// batch, present batch), no ingest, direct, --requests per client.
//
//   loadgen --port=P [--host=127.0.0.1] [--clients=4] [--requests=32]
//           [--num-threads=1] [--flights=64] [--seed=99]
//           [--out=BENCH_serving.json] [--metrics-out=FILE]
//           [--verify] [--expect-rejections] [--timeout-ms=30000]
//
// --verify rebuilds the server's deterministic Db locally (same
// --flights/--seed) and fails unless every client's reply bytes are
// identical to the locally executed query. --expect-rejections flips the
// exit criterion for the overload probe: the run must observe at least
// one typed rejection and no hard errors.
//
// Ingest mode (--ingest): the live mix over --relation (select,
// atinstant batch, self index join, window aggregate), plain batches,
// direct, until ingest finishes.
//
//   loadgen --ingest --port=P [--relation=fleet] [--objects=16]
//           [--fixes=4096] [--batch=64] [--clients=2] [--t0=0]
//           [--seal-units=0] [--out=BENCH_ingest.json] [--verify]
//
// The batches are deterministic per-object random walks (seeded by
// --seed; dt = 1 starting at --t0). --verify then quiesces and replays
// the identical batches into a local Db, failing unless the server's
// reply bytes for every query kind equal the local ones: the
// over-the-wire form of the bulk-vs-incremental identity theorem
// (docs/INGEST.md).
//
// Chaos mode (--chaos, the hostile-network drill, PROTOCOL.md §9): the
// live mix and keyed batches through the chaosproxy at --port, until
// ingest finishes.
//
//   loadgen --chaos --port=PROXY_PORT --direct-port=MODBD_PORT
//           [ingest mode's flags] [--timeout-ms=30000] [--verify]
//
// Every delay, stall, reset and truncation must be absorbed by timeouts
// and idempotent retries. Afterwards, on the quiesced state: every query
// kind must be byte-identical via proxy and direct; the newest acked
// batches are re-sent verbatim and must re-ack byte-equal from the
// dedup window; the accepted-fix total must equal the fixes sent
// (exactly-once); and --verify compares the direct replies with the
// local replay. Control-plane work (register, dedup probes, the final
// comparisons, /metrics) goes to --direct-port: chaos belongs on the
// data path under test. No BENCH json unless --out is given.
//
// All socket I/O in every mode is bounded by --timeout-ms (typed
// kDeadlineExceeded instead of a hang when the server stalls).
//
// exit 0: no errors, and verification/rejection expectations held.
// exit 1: an error, or a check failed.
// exit 2: a bad flag; nothing was connected or started.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "db/modb.h"
#include "flags.h"
#include "gen/flights_gen.h"
#include "obs/json.h"
#include "serve/client.h"
#include "serve/wire.h"

#ifndef MODB_BUILD_TYPE
#define MODB_BUILD_TYPE "unknown"
#endif

namespace {

using modb::FilterSpec;
using modb::MutationRequest;
using modb::QueryRequest;
using modb::serve::Client;
using modb::serve::RetryingClient;

// A thread per client; more than this is a typo, not a load level.
constexpr long kMaxClients = 1024;
// Retry budgets through the proxy. The ingest budget is generous so
// that only a dead proxy or server fails the run, never injected faults.
constexpr int kQueryAttempts = 8;
constexpr int kIngestAttempts = 25;

struct Options {
  std::string host = "127.0.0.1";
  int port = 0;
  long clients = 4;
  long requests = 32;  // per client, serve mode
  long num_threads = 1;
  int flights = 64;
  long seed = 99;
  std::string out;
  bool out_set = false;
  std::string metrics_out;
  bool verify = false;
  bool expect_rejections = false;

  // Ingest and chaos modes.
  bool ingest = false;
  std::string relation = "fleet";
  long objects = 16;
  long fixes = 4096;  // total across all objects
  long batch = 64;    // fixes per mutation frame
  double t0 = 0;      // first fix timestamp (restarted stores continue)
  long seal_units = 0;

  // Chaos mode.
  bool chaos = false;
  int direct_port = 0;     // the real server, bypassing the proxy
  long timeout_ms = 30000; // every mode's socket I/O bound
};

struct QueryKind {
  const char* name;
  QueryRequest request;
};

struct Workload {
  std::vector<QueryKind> kinds;          // the query mix, in issue order
  std::vector<MutationRequest> batches;  // streamed in order; empty: none
  int data_port = 0;     // where the clients and the ingest stream go
  bool proxied = false;  // data_port is a chaosproxy: retry through it
  int control_port = 0;  // the server itself
  // The stop rule: a live workload's clients query until ingest
  // finishes, a static one's issue --requests each.
  bool live() const { return !batches.empty(); }
};

std::vector<modb::Instant> EvalInstants() {
  std::vector<modb::Instant> ts;
  for (double t = 0; t <= 24.0; t += 0.5) ts.push_back(t);
  return ts;
}

// The static mix. Every request targets the resident "planes" relation
// modbd builds at startup.
std::vector<QueryKind> PlanesMix() {
  std::vector<QueryKind> kinds;
  {
    QueryRequest q;  // Q1: airline = Lufthansa AND trajectory length
    q.kind = QueryRequest::Kind::kSelect;
    q.relation = "planes";
    q.filters.push_back({FilterSpec::Kind::kStringEquals, "airline",
                         "Lufthansa", 0, 0, 0});
    q.filters.push_back(
        {FilterSpec::Kind::kTrajectoryLengthAtLeast, "flight", "", 5000, 0,
         0});
    kinds.push_back({"q1_select", q});
  }
  {
    QueryRequest q;  // flights in the air at noon, id+airline only
    q.kind = QueryRequest::Kind::kProject;
    q.relation = "planes";
    q.filters.push_back(
        {FilterSpec::Kind::kPresentAt, "flight", "", 0, 12.0, 0});
    q.project = {"airline", "id"};
    kinds.push_back({"project", q});
  }
  {
    QueryRequest q;  // Q2: pairs of planes ever closer than 50
    q.kind = QueryRequest::Kind::kIndexJoin;
    q.relation = "planes";
    q.join_relation = "planes";
    q.attr = "flight";
    q.join_attr = "flight";
    q.distance = 50;
    q.distinct_pairs = true;
    kinds.push_back({"q2_index_join", q});
  }
  {
    QueryRequest q;  // every position at every half hour
    q.kind = QueryRequest::Kind::kAtInstantBatch;
    q.relation = "planes";
    q.attr = "flight";
    q.instants = EvalInstants();
    kinds.push_back({"atinstant_batch", q});
  }
  {
    QueryRequest q;  // presence mask over the same grid
    q.kind = QueryRequest::Kind::kPresentBatch;
    q.relation = "planes";
    q.attr = "flight";
    q.instants = EvalInstants();
    kinds.push_back({"present_batch", q});
  }
  return kinds;
}

// The live mix. Windows cover the whole fix time range [t0, t0 + steps].
std::vector<QueryKind> LiveMix(const Options& opt) {
  const double steps = double(opt.fixes / opt.objects);
  std::vector<QueryKind> kinds;
  {
    QueryRequest q;  // the whole fleet, ids + trails
    q.kind = QueryRequest::Kind::kSelect;
    q.relation = opt.relation;
    kinds.push_back({"live_select", q});
  }
  {
    QueryRequest q;  // positions on a coarse instant grid
    q.kind = QueryRequest::Kind::kAtInstantBatch;
    q.relation = opt.relation;
    q.attr = "trail";
    const double dt = std::max(1.0, steps / 16.0);
    for (double t = opt.t0; t <= opt.t0 + steps; t += dt) {
      q.instants.push_back(t);
    }
    kinds.push_back({"live_atinstant", q});
  }
  {
    QueryRequest q;  // fleet pairs ever closer than 50
    q.kind = QueryRequest::Kind::kIndexJoin;
    q.relation = opt.relation;
    q.join_relation = opt.relation;
    q.attr = "trail";
    q.join_attr = "trail";
    q.distance = 50;
    q.distinct_pairs = true;
    kinds.push_back({"live_index_join", q});
  }
  {
    QueryRequest q;  // sliding windows over the whole ingest range
    q.kind = QueryRequest::Kind::kWindowAggregate;
    q.relation = opt.relation;
    q.attr = "trail";
    q.window_t0 = opt.t0;
    q.window_t1 = opt.t0 + steps + 1;
    q.window_width = std::max(1.0, steps / 4.0);
    q.window_step = q.window_width / 2;
    kinds.push_back({"live_window", q});
  }
  return kinds;
}

// The deterministic fleet: object o's walk is seeded from (seed, o), dt
// is 1 starting at --t0, and fixes interleave round-robin across
// objects so every batch advances the whole fleet. Both the wire path
// and the local replay use these batches, identical by construction.
std::vector<MutationRequest> GenBatches(const Options& opt) {
  const std::size_t n = std::size_t(opt.objects);
  std::vector<std::uint64_t> rng(n);
  std::vector<double> px(n), py(n);
  std::vector<std::string> ids(n);
  for (std::size_t o = 0; o < n; ++o) {
    rng[o] = std::uint64_t(opt.seed) * 6364136223846793005ULL +
             (std::uint64_t(o) + 1) * 1442695040888963407ULL;
    px[o] = double(o) * 10.0;
    py[o] = double(o) * -7.0;
    char buf[32];
    std::snprintf(buf, sizeof buf, "obj%05zu", o);
    ids[o] = buf;
  }
  auto step = [&rng](std::size_t o) {
    rng[o] = rng[o] * 6364136223846793005ULL + 1442695040888963407ULL;
    return double(std::int64_t((rng[o] >> 33) % 2001) - 1000) / 100.0;
  };
  std::vector<MutationRequest> batches;
  for (long i = 0; i < opt.fixes; ++i) {
    if (i % opt.batch == 0) {
      batches.emplace_back();
      batches.back().kind = MutationRequest::Kind::kIngest;
      batches.back().relation = opt.relation;
    }
    const std::size_t o = std::size_t(i) % n;
    const double t = opt.t0 + double(i / long(n));
    px[o] += step(o);
    py[o] += step(o);
    batches.back().fixes.push_back({ids[o], t, px[o], py[o]});
  }
  return batches;
}

Workload MakeWorkload(const Options& opt) {
  Workload w;
  w.data_port = opt.port;
  w.control_port = opt.port;
  if (!opt.ingest && !opt.chaos) {
    w.kinds = PlanesMix();
  } else {
    w.kinds = LiveMix(opt);
    w.batches = GenBatches(opt);
  }
  for (QueryKind& k : w.kinds) k.request.num_threads = opt.num_threads;
  if (opt.chaos) {
    w.proxied = true;
    w.control_port = opt.direct_port;
    // The idempotency key is what makes retrying a mutation through a
    // connection-killing proxy safe.
    for (std::size_t i = 0; i < w.batches.size(); ++i) {
      w.batches[i].client_id = "chaos-loadgen";
      w.batches[i].batch_seq = i + 1;
    }
  }
  return w;
}

// A connection that tries each request `attempts` times, reconnecting
// after transport errors and backing off with jitter from `seed`. On
// the data path straight to the server a request gets one try, so a
// transport error ends the connection; through the proxy retries absorb
// the injected faults.
RetryingClient Connection(const Options& opt, int port, int attempts,
                          std::uint64_t seed) {
  modb::serve::ClientOptions net;
  net.connect_timeout_ms = int(opt.timeout_ms);
  net.io_timeout_ms = int(opt.timeout_ms);
  modb::serve::RetryPolicy policy;
  policy.max_attempts = attempts;
  policy.base_backoff_ms = 5;
  policy.max_backoff_ms = 200;
  policy.jitter_seed = seed;
  return RetryingClient(opt.host, port, net, policy);
}

std::uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count());
}

struct ClientStats {
  // One latency vector per query kind, ns.
  std::vector<std::vector<std::uint64_t>> latency_ns;
  // First successful reply's result block per kind (identity checks).
  std::vector<std::string> first_block;
  std::uint64_t errors = 0;
  std::uint64_t rejected = 0;
  std::uint64_t retries = 0;
  std::string first_error;
};

// One client: loops over the query mix on its own connection until the
// stop rule holds. Typed overload or deadline rejections are counted,
// not errors; a transport error ends the client (the direct connection
// is unusable, or the proxied one has exhausted its retries).
void RunClient(const Options& opt, const Workload& w,
               const std::atomic<bool>& ingest_done, std::uint64_t seed,
               ClientStats* stats) {
  stats->latency_ns.resize(w.kinds.size());
  stats->first_block.resize(w.kinds.size());
  auto note_error = [stats](const std::string& what) {
    ++stats->errors;
    if (stats->first_error.empty()) stats->first_error = what;
  };
  RetryingClient conn =
      Connection(opt, w.data_port, w.proxied ? kQueryAttempts : 1, seed);
  if (modb::Status s = conn.Connect(); !s.ok()) {
    note_error("connect: " + s.ToString());
    return;
  }
  for (long r = 0; w.live() ? !ingest_done.load(std::memory_order_relaxed)
                            : r < opt.requests;
       ++r) {
    const std::size_t k = std::size_t(r) % w.kinds.size();
    const auto start = std::chrono::steady_clock::now();
    modb::Result<Client::Reply> reply = conn.Query(w.kinds[k].request);
    const std::uint64_t ns = ElapsedNs(start);
    if (!reply.ok()) {
      note_error(std::string(w.kinds[k].name) + ": transport: " +
                 reply.status().ToString());
      break;
    }
    const modb::StatusCode code = reply->status.code();
    if (code == modb::StatusCode::kResourceExhausted ||
        code == modb::StatusCode::kDeadlineExceeded) {
      ++stats->rejected;
      continue;
    }
    if (!reply->status.ok()) {
      note_error(std::string(w.kinds[k].name) + ": " +
                 reply->status.ToString());
      continue;
    }
    stats->latency_ns[k].push_back(ns);
    if (stats->first_block[k].empty()) {
      stats->first_block[k] = reply->result_block;
    }
  }
  stats->retries = conn.retries();
}

struct QueryTotals {
  std::vector<std::vector<std::uint64_t>> latency_ns;  // per kind, sorted
  std::vector<std::uint64_t> all;                      // sorted
  std::uint64_t completed = 0, errors = 0, rejected = 0, retries = 0;
  std::string first_error;
};

QueryTotals Merge(const std::vector<ClientStats>& stats, std::size_t kinds) {
  QueryTotals t;
  t.latency_ns.resize(kinds);
  for (const ClientStats& s : stats) {
    t.errors += s.errors;
    t.rejected += s.rejected;
    t.retries += s.retries;
    if (t.first_error.empty()) t.first_error = s.first_error;
    for (std::size_t k = 0; k < kinds; ++k) {
      t.latency_ns[k].insert(t.latency_ns[k].end(), s.latency_ns[k].begin(),
                             s.latency_ns[k].end());
    }
  }
  for (std::vector<std::uint64_t>& m : t.latency_ns) {
    std::sort(m.begin(), m.end());
    t.all.insert(t.all.end(), m.begin(), m.end());
  }
  std::sort(t.all.begin(), t.all.end());
  t.completed = t.all.size();
  return t;
}

struct IngestStats {
  std::vector<std::uint64_t> batch_ns;     // per acked batch, sorted
  std::vector<modb::MutationResult> acks;  // in batch order
  std::uint64_t accepted = 0, errors = 0, retries = 0, wall_ns = 0;
  std::string first_error;
};

// Streams the batches on one connection, one batch per round trip. A
// transport error ends the stream; a rejected batch leaves the server
// untouched, so the stream goes on.
IngestStats RunIngest(const Options& opt, const Workload& w) {
  IngestStats in;
  if (w.batches.empty()) return in;
  auto note_error = [&in](std::size_t i, const std::string& what) {
    ++in.errors;
    if (in.first_error.empty()) {
      in.first_error = "ingest batch " + std::to_string(i + 1) + ": " + what;
    }
  };
  RetryingClient conn = Connection(opt, w.data_port,
                                  w.proxied ? kIngestAttempts : 1,
                                  std::uint64_t(opt.seed));
  if (modb::Status s = conn.Connect(); !s.ok()) {
    ++in.errors;
    in.first_error = "ingest: connect: " + s.ToString();
    return in;
  }
  const auto wall_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < w.batches.size(); ++i) {
    const auto start = std::chrono::steady_clock::now();
    modb::Result<Client::MutationReply> r = conn.Mutate(w.batches[i]);
    const std::uint64_t ns = ElapsedNs(start);
    if (!r.ok()) {
      note_error(i, "transport: " + r.status().ToString());
      break;
    }
    if (!r->status.ok()) {
      note_error(i, r->status.ToString());
      continue;
    }
    in.batch_ns.push_back(ns);
    in.acks.push_back(r->ack);
    in.accepted += r->ack.accepted;
  }
  in.wall_ns = ElapsedNs(wall_start);
  in.retries = conn.retries();
  std::sort(in.batch_ns.begin(), in.batch_ns.end());
  return in;
}

// Executes the query mix in-process on the state the server must hold:
// the planes Db modbd generates from the same --flights and --seed, or
// ONE application of every batch to an empty live relation. Appends
// each kind's result block to *blocks.
bool LocalBlocks(const Options& opt, const Workload& w,
                 std::vector<std::string>* blocks) {
  modb::Db db;
  if (w.live()) {
    modb::ingest::LiveOptions live;
    if (opt.seal_units > 0) live.seal_units = std::size_t(opt.seal_units);
    if (!db.RegisterLive(opt.relation, live).ok()) return false;
    for (const MutationRequest& b : w.batches) {
      if (!db.Apply(b).ok()) return false;
    }
  } else {
    modb::FlightsOptions gen;
    gen.num_flights = opt.flights;
    gen.seed = std::uint64_t(opt.seed);
    modb::Result<modb::Relation> planes = modb::GeneratePlanes(gen);
    if (!planes.ok()) return false;
    if (!db.Register(*std::move(planes)).ok()) return false;
    if (!db.BuildIndex("planes", "flight").ok()) return false;
  }
  for (const QueryKind& k : w.kinds) {
    modb::ExecOptions options;
    options.parallel.num_threads = int(k.request.num_threads);
    modb::Result<modb::QueryResult> result = db.Run(k.request, options);
    if (!result.ok()) {
      std::fprintf(stderr, "loadgen: local %s failed: %s\n", k.name,
                   result.status().ToString().c_str());
      return false;
    }
    modb::Result<std::string> block = modb::serve::EncodeResultBlock(*result);
    if (!block.ok()) return false;
    blocks->push_back(*std::move(block));
  }
  return true;
}

// Fetches every kind's reply on `conn`; an empty block marks a failure.
std::vector<std::string> FetchBlocks(const Workload& w, RetryingClient& conn,
                                     const char* path, int* failures) {
  std::vector<std::string> blocks;
  for (const QueryKind& k : w.kinds) {
    modb::Result<Client::Reply> r = conn.Query(k.request);
    if (!r.ok() || !r->status.ok()) {
      std::fprintf(stderr, "loadgen: final %s query %s failed\n", k.name,
                   path);
      ++*failures;
      blocks.emplace_back();
      continue;
    }
    blocks.push_back(r->result_block);
  }
  return blocks;
}

// Byte-compares the replies `got` with `want` per kind, skipping kinds
// that lack a reply on either side. Returns the mismatches.
int CompareBlocks(const Workload& w, const std::vector<std::string>& got,
                  const std::vector<std::string>& want, const char* what) {
  int mismatches = 0;
  for (std::size_t k = 0; k < w.kinds.size(); ++k) {
    if (got[k].empty() || want[k].empty() || got[k] == want[k]) continue;
    std::fprintf(stderr, "loadgen: VERIFY FAILED: %s reply %s\n",
                 w.kinds[k].name, what);
    ++mismatches;
  }
  return mismatches;
}

bool SameAck(const modb::MutationResult& a, const modb::MutationResult& b) {
  return a.accepted == b.accepted && a.objects == b.objects &&
         a.mem_units == b.mem_units && a.delta_entries == b.delta_entries &&
         a.base_entries == b.base_entries && a.merges == b.merges &&
         a.epoch == b.epoch;
}

std::uint64_t Percentile(const std::vector<std::uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const std::size_t idx =
      std::size_t(double(sorted.size() - 1) * p + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

// Writes the run as google-benchmark-schema JSON: a static workload's
// summary under context.modb_serving with SERVE_* rows, a live one's
// under context.modb_ingest with INGEST_batch and LIVE_* rows.
bool WriteReport(const Options& opt, const Workload& w, const QueryTotals& q,
                 const IngestStats& in, std::uint64_t wall_ns, double qps,
                 double fix_rate) {
  using modb::obs::JsonValue;
  JsonValue context = JsonValue::Object();
  context.Set("num_cpus", JsonValue::Int(std::max(
                              1u, std::thread::hardware_concurrency())));
  context.Set("modb_build_type", JsonValue::Str(MODB_BUILD_TYPE));
  JsonValue summary = JsonValue::Object();
  if (!w.live()) {
    summary.Set("clients", JsonValue::Int(std::uint64_t(opt.clients)));
    summary.Set("requests_per_client",
                JsonValue::Int(std::uint64_t(opt.requests)));
    summary.Set("completed", JsonValue::Int(q.completed));
    summary.Set("errors", JsonValue::Int(q.errors));
    summary.Set("rejected", JsonValue::Int(q.rejected));
    summary.Set("wall_ns", JsonValue::Int(wall_ns));
    summary.Set("qps", JsonValue::Number(qps));
    context.Set("modb_serving", std::move(summary));
  } else {
    const modb::MutationResult last =
        in.acks.empty() ? modb::MutationResult() : in.acks.back();
    std::uint64_t max_delta = 0;
    for (const modb::MutationResult& a : in.acks) {
      max_delta = std::max(max_delta, a.delta_entries);
    }
    summary.Set("objects", JsonValue::Int(std::uint64_t(opt.objects)));
    summary.Set("fixes_sent", JsonValue::Int(std::uint64_t(opt.fixes)));
    summary.Set("fixes_accepted", JsonValue::Int(in.accepted));
    summary.Set("batches", JsonValue::Int(std::uint64_t(w.batches.size())));
    summary.Set("errors", JsonValue::Int(in.errors + q.errors));
    summary.Set("rejected", JsonValue::Int(q.rejected));
    summary.Set("queries_completed", JsonValue::Int(q.completed));
    summary.Set("wall_ns", JsonValue::Int(in.wall_ns));
    summary.Set("fix_rate", JsonValue::Number(fix_rate));
    summary.Set("max_delta_entries", JsonValue::Int(max_delta));
    summary.Set("final_base_entries", JsonValue::Int(last.base_entries));
    summary.Set("final_delta_entries", JsonValue::Int(last.delta_entries));
    summary.Set("final_mem_units", JsonValue::Int(last.mem_units));
    summary.Set("merges", JsonValue::Int(last.merges));
    summary.Set("final_epoch", JsonValue::Int(last.epoch));
    context.Set("modb_ingest", std::move(summary));
  }
  JsonValue benchmarks = JsonValue::Array();
  auto add_rows = [&benchmarks](const std::string& name,
                                const std::vector<std::uint64_t>& sorted) {
    for (const double p : {0.50, 0.99}) {
      JsonValue row = JsonValue::Object();
      const std::uint64_t ns = Percentile(sorted, p);
      row.Set("name", JsonValue::Str(name + (p < 0.9 ? "/p50" : "/p99")));
      row.Set("run_type", JsonValue::Str("iteration"));
      row.Set("iterations", JsonValue::Int(sorted.size()));
      row.Set("real_time", JsonValue::Int(ns));
      row.Set("cpu_time", JsonValue::Int(ns));
      row.Set("time_unit", JsonValue::Str("ns"));
      benchmarks.Append(std::move(row));
    }
  };
  const std::string prefix = w.live() ? "LIVE_" : "SERVE_";
  if (w.live()) add_rows("INGEST_batch", in.batch_ns);
  for (std::size_t k = 0; k < w.kinds.size(); ++k) {
    add_rows(prefix + w.kinds[k].name, q.latency_ns[k]);
  }
  add_rows(prefix + "all", q.all);
  JsonValue doc = JsonValue::Object();
  doc.Set("context", std::move(context));
  doc.Set("benchmarks", std::move(benchmarks));
  std::ofstream out(opt.out, std::ios::binary | std::ios::trunc);
  out << doc.Write() << "\n";
  if (!out) {
    std::fprintf(stderr, "loadgen: cannot write %s\n", opt.out.c_str());
    return false;
  }
  std::printf("loadgen: wrote %s\n", opt.out.c_str());
  return true;
}

// Writes the server's /metrics JSON to --metrics-out.
bool DumpMetrics(const Options& opt, int port) {
  modb::Result<std::string> metrics =
      modb::serve::FetchMetricsJson(opt.host, port, int(opt.timeout_ms));
  if (!metrics.ok()) {
    std::fprintf(stderr, "loadgen: fetching /metrics: %s\n",
                 metrics.status().ToString().c_str());
    return false;
  }
  std::ofstream out(opt.metrics_out, std::ios::binary | std::ios::trunc);
  out << *metrics;
  if (!out) {
    std::fprintf(stderr, "loadgen: cannot write %s\n",
                 opt.metrics_out.c_str());
    return false;
  }
  std::printf("loadgen: wrote %s\n", opt.metrics_out.c_str());
  return true;
}

int Run(const Options& opt) {
  const Workload w = MakeWorkload(opt);
  // Control plane: one try per request, straight to the server.
  RetryingClient ctl = Connection(opt, w.control_port, 1, 0);
  if (w.live()) {
    MutationRequest reg;
    reg.kind = MutationRequest::Kind::kRegisterLive;
    reg.relation = opt.relation;
    reg.seal_units = std::uint64_t(opt.seal_units < 0 ? 0 : opt.seal_units);
    modb::Result<Client::MutationReply> r = ctl.Mutate(reg);
    if (!r.ok()) {
      std::fprintf(stderr, "loadgen: register: transport: %s\n",
                   r.status().ToString().c_str());
      return 1;
    }
    // FailedPrecondition = already registered (modbd --live, or a rerun
    // against a recovered store): the ingest target exists either way.
    if (!r->status.ok() &&
        r->status.code() != modb::StatusCode::kFailedPrecondition) {
      std::fprintf(stderr, "loadgen: register: %s\n",
                   r->status.ToString().c_str());
      return 1;
    }
  }

  std::atomic<bool> ingest_done{false};
  std::vector<ClientStats> stats(std::size_t(opt.clients));
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < stats.size(); ++c) {
    threads.emplace_back([&, c] {
      RunClient(opt, w, ingest_done, std::uint64_t(opt.seed) + c + 1,
                &stats[c]);
    });
  }
  const IngestStats in = RunIngest(opt, w);
  ingest_done.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  const std::uint64_t wall_ns = ElapsedNs(wall_start);
  const QueryTotals q = Merge(stats, w.kinds.size());
  const double qps = wall_ns > 0 ? double(q.completed) * 1e9 / double(wall_ns)
                                 : 0;
  const double fix_rate =
      in.wall_ns > 0 ? double(in.accepted) * 1e9 / double(in.wall_ns) : 0;

  // Quiesced checks. Layering on the server (sealed vs merged vs
  // in-tail) is invisible by the identity theorem, so no flush is
  // needed, only quiescence.
  int failures = 0;
  std::vector<std::string> direct;
  if (w.live() && (opt.verify || w.proxied)) {
    direct = FetchBlocks(w, ctl, "direct", &failures);
  }
  // Every fix sent must be acked once: a dropped or double-applied
  // batch, or a lost ack counted as delivered, breaks the count.
  if (w.live() && in.errors == 0 && in.accepted != std::uint64_t(opt.fixes)) {
    std::fprintf(stderr,
                 "loadgen: accepted %llu fixes != %ld sent (dropped or "
                 "double-applied batch)\n",
                 (unsigned long long)in.accepted, opt.fixes);
    ++failures;
  }
  std::size_t probes = 0;
  if (w.proxied) {
    // The proxy must be invisible in the bytes.
    RetryingClient proxied = Connection(opt, w.data_port, kQueryAttempts,
                                        std::uint64_t(opt.seed) + 1000);
    const std::vector<std::string> via_proxy =
        FetchBlocks(w, proxied, "via proxy", &failures);
    failures += CompareBlocks(w, via_proxy, direct,
                              "via proxy differs from the direct reply");
    // Re-send the NEWEST acked batches verbatim over the direct path
    // (the newest are sure to be inside the bounded dedup window). The
    // server must re-ack each byte-equal the original ack, applying
    // nothing, which also makes ingest.dedup_hits > 0 for the metrics
    // gate.
    if (in.errors == 0) {
      for (std::size_t j = 0; j < std::min<std::size_t>(3, in.acks.size());
           ++j) {
        const std::size_t i = in.acks.size() - 1 - j;
        ++probes;
        modb::Result<Client::MutationReply> r = ctl.Mutate(w.batches[i]);
        if (!r.ok() || !r->status.ok() || !SameAck(r->ack, in.acks[i])) {
          std::fprintf(stderr,
                       "loadgen: CHAOS FAILED: re-sent batch %llu was not "
                       "re-acked identically from the dedup window\n",
                       (unsigned long long)w.batches[i].batch_seq);
          ++failures;
        }
      }
    }
    if (probes == 0) {
      std::fprintf(stderr, "loadgen: CHAOS FAILED: no dedup re-ack checked\n");
      ++failures;
    }
  }
  if (opt.verify && in.errors == 0) {
    // The server state must equal the local reference: a double-applied
    // or dropped-but-acked batch diverges here.
    std::vector<std::string> local;
    if (!LocalBlocks(opt, w, &local)) {
      std::fprintf(stderr, "loadgen: building the local reference failed\n");
      return 1;
    }
    // A live workload's replies are comparable only once quiesced; a
    // static one's are all comparable.
    const char* what = "differs from the local reference";
    if (w.live()) {
      failures += CompareBlocks(w, direct, local, what);
    } else {
      for (const ClientStats& s : stats) {
        failures += CompareBlocks(w, s.first_block, local, what);
      }
    }
    if (failures == 0) {
      std::printf("loadgen: verify passed: %zu query kinds byte-identical "
                  "to the local reference\n",
                  w.kinds.size());
    }
  }

  std::printf("loadgen: %ld clients: %llu queries ok, %llu rejected, %llu "
              "errors, %.1f qps",
              opt.clients, (unsigned long long)q.completed,
              (unsigned long long)q.rejected,
              (unsigned long long)(q.errors + in.errors), qps);
  if (w.live()) {
    std::printf("; ingest %llu/%ld fixes in %zu/%zu batches (%.0f "
                "fixes/s), epoch %llu",
                (unsigned long long)in.accepted, opt.fixes, in.acks.size(),
                w.batches.size(), fix_rate,
                (unsigned long long)(in.acks.empty() ? 0
                                                     : in.acks.back().epoch));
  }
  if (w.proxied) {
    std::printf("; via proxy: %llu ingest retries, %llu query retries, "
                "%zu dedup re-acks checked",
                (unsigned long long)in.retries,
                (unsigned long long)q.retries, probes);
  }
  std::printf("\n");
  const std::string& first_error =
      in.first_error.empty() ? q.first_error : in.first_error;
  if (!first_error.empty()) {
    std::fprintf(stderr, "loadgen: first error: %s\n", first_error.c_str());
  }

  if (!opt.out.empty() &&
      !WriteReport(opt, w, q, in, wall_ns, qps, fix_rate)) {
    return 1;
  }
  if (!opt.metrics_out.empty() && !DumpMetrics(opt, w.control_port)) {
    return 1;
  }

  if (q.errors != 0 || in.errors != 0 || failures != 0) {
    return 1;
  }
  if (opt.expect_rejections && q.rejected == 0) {
    std::fprintf(stderr,
                 "loadgen: expected typed rejections under overload, saw "
                 "none\n");
    return 1;
  }
  if (!w.live() && !opt.expect_rejections && q.completed == 0) {
    std::fprintf(stderr, "loadgen: no request completed\n");
    return 1;
  }
  if (w.proxied) {
    std::printf("loadgen: chaos checks passed: exactly-once ingest, %zu "
                "dedup re-acks identical, %zu query kinds byte-identical via "
                "proxy and direct\n",
                probes, w.kinds.size());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using modb::tools::ParseInt;
  using modb::tools::ParseStr;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    long v;
    if (ParseInt(argv[i], "--port", &v)) {
      opt.port = int(v);
    } else if (ParseInt(argv[i], "--clients", &v)) {
      opt.clients = v;
    } else if (ParseInt(argv[i], "--requests", &v)) {
      opt.requests = v;
    } else if (ParseInt(argv[i], "--num-threads", &v)) {
      opt.num_threads = v;
    } else if (ParseInt(argv[i], "--flights", &v)) {
      opt.flights = int(v);
    } else if (ParseInt(argv[i], "--seed", &v)) {
      opt.seed = v;
    } else if (ParseInt(argv[i], "--objects", &v)) {
      opt.objects = v;
    } else if (ParseInt(argv[i], "--fixes", &v)) {
      opt.fixes = v;
    } else if (ParseInt(argv[i], "--batch", &v)) {
      opt.batch = v;
    } else if (ParseInt(argv[i], "--seal-units", &v)) {
      opt.seal_units = v;
    } else if (ParseInt(argv[i], "--t0", &v)) {
      opt.t0 = double(v);
    } else if (ParseInt(argv[i], "--direct-port", &v)) {
      opt.direct_port = int(v);
    } else if (ParseInt(argv[i], "--timeout-ms", &v)) {
      opt.timeout_ms = v;
    } else if (ParseStr(argv[i], "--host", &opt.host) ||
               ParseStr(argv[i], "--relation", &opt.relation) ||
               ParseStr(argv[i], "--metrics-out", &opt.metrics_out)) {
    } else if (ParseStr(argv[i], "--out", &opt.out)) {
      opt.out_set = true;
    } else if (std::strcmp(argv[i], "--ingest") == 0) {
      opt.ingest = true;
    } else if (std::strcmp(argv[i], "--chaos") == 0) {
      opt.chaos = true;
    } else if (std::strcmp(argv[i], "--verify") == 0) {
      opt.verify = true;
    } else if (std::strcmp(argv[i], "--expect-rejections") == 0) {
      opt.expect_rejections = true;
    } else {
      std::fprintf(stderr, "loadgen: unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (opt.port == 0) {
    std::fprintf(stderr, "loadgen: --port is required\n");
    return 2;
  }
  if (opt.chaos && opt.direct_port == 0) {
    std::fprintf(stderr, "loadgen: --chaos requires --direct-port\n");
    return 2;
  }
  const struct {
    const char* flag;
    long value;
    long max;
  } bounded[] = {
      {"--clients", opt.clients, kMaxClients},
      {"--requests", opt.requests, LONG_MAX},
      {"--timeout-ms", opt.timeout_ms, INT_MAX},
      {"--objects", opt.objects, LONG_MAX},
      {"--fixes", opt.fixes, LONG_MAX},
      {"--batch", opt.batch, LONG_MAX},
  };
  for (const auto& f : bounded) {
    if (f.value < 1 || f.value > f.max) {
      std::fprintf(stderr, "loadgen: %s must be in [1, %ld], got %ld\n",
                   f.flag, f.max, f.value);
      return 2;
    }
  }
  if (!opt.out_set && !opt.chaos) {
    opt.out = opt.ingest ? "BENCH_ingest.json" : "BENCH_serving.json";
  }
  return Run(opt);
}
