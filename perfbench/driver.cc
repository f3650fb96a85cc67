// perfdrive: the benchmark's load driver. run.py builds it beside modbd
// and calls it in three forms:
//
//   perfdrive flags --workload=W
//       prints modbd's flags for workload W, one per line.
//
//   perfdrive prep --dir=D --seed=S
//       writes D/preload.store, the store live_ingest starts from:
//       kLiveObjects objects, kPreloadFixesPerObject fixes each, as a
//       drained modbd leaves it.
//
//   perfdrive run --workload=W --seed=S --seconds=T --trace=0|1
//                 --port=P --dir=D
//       drives workload W against the modbd listening on 127.0.0.1:P
//       in a closed loop (each connection waits for its reply before
//       sending the next request), checks every reply, and prints one
//       JSON object on stdout: {"attempted", "failed", "mismatches",
//       "metrics": {name: value}}.
//
// --trace=0 times T seconds of traffic after the warm-up and reports the
// end-to-end query metrics. --trace=1 times T/2 seconds untraced, then
// T/2 seconds in which every operation is followed by the in-process
// replay of the identical request into a mirror of the server's state,
// recording one span per layer boundary (trace.h); it reports the
// per-layer metrics (METRICS.md) and writes the spans to D/spans.tsv.
//
// Correctness: every static query reply is byte-compared with the
// result block the mirror Db computes for the same request. For
// live_ingest every ack must accept its whole batch and advance the
// store epoch, and once the load stops every live query kind must
// match a replay of the acknowledged batches.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "db/modb.h"
#include "gen/flights_gen.h"
#include "ingest/live_relation.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/wire.h"
#include "storage/recovery.h"
#include "trace.h"
#include "workloads.h"

namespace {

using modb::MutationRequest;
using modb::QueryRequest;
using modb::obs::JsonValue;
using perfbench::Clock;
using perfbench::kIngestBatch;
using perfbench::kLiveRelation;
using perfbench::SpanBuffer;
using perfbench::Workload;

// Every kind any workload issues, and the joins among them. The traced
// run reports the per-kind metrics of all of them (zero for kinds the
// workload does not issue), so every run prints the same metric set.
const char* const kAllKinds[] = {
    "q1_select",     "project",          "present_batch",  "atinstant_batch",
    "q2_index_join", "window_aggregate", "live_select",    "live_atinstant",
    "live_window",   "live_index_join"};
const char* const kJoinKinds[] = {"q2_index_join", "live_index_join"};

constexpr int kIoTimeoutMs = 60000;
constexpr int kPreloadFixes =
    perfbench::kLiveObjects * perfbench::kPreloadFixesPerObject;
constexpr int kPreloadBatches = kPreloadFixes / perfbench::kPreloadBatch;
constexpr const char* kIngestClient = "perfbench";

struct Args {
  std::string cmd;
  std::string workload;
  std::string dir;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int port = 0;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc < 2) return false;
  a->cmd = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) return false;
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "workload") {
      a->workload = value;
    } else if (key == "dir") {
      a->dir = value;
    } else if (key == "seed") {
      a->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "seconds") {
      a->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "trace") {
      a->trace = value == "1";
    } else if (key == "port") {
      a->port = std::atoi(value.c_str());
    } else {
      return false;
    }
  }
  return a->cmd == "flags" || !a->dir.empty();
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

double Sec(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// Linear interpolation between closest ranks; 0 for no samples.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = std::size_t(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::string PreloadPath(const std::string& dir) {
  return dir + "/preload.store";
}

// Copies the preloaded store to D/name and returns the copy's path, so
// every reader opens a private store and the original stays pristine.
modb::Result<std::string> CopyPreload(const std::string& dir,
                                      const std::string& name) {
  const std::string to = dir + "/" + name;
  std::error_code ec;
  std::filesystem::copy_file(PreloadPath(dir), to,
                             std::filesystem::copy_options::overwrite_existing,
                             ec);
  if (ec) return modb::Status::Internal("copying the store: " + ec.message());
  return to;
}

std::vector<modb::ingest::IngestFix> ToFixes(const MutationRequest& b) {
  std::vector<modb::ingest::IngestFix> fixes;
  fixes.reserve(b.fixes.size());
  for (const MutationRequest::Fix& f : b.fixes) {
    fixes.push_back({f.object_id, f.t, f.x, f.y});
  }
  return fixes;
}

// ---------------------------------------------------------------------------
// prep

int Prep(const Args& args) {
  const std::string path = PreloadPath(args.dir);
  std::filesystem::remove(path);
  modb::Result<modb::VersionedSpillStore> store =
      modb::VersionedSpillStore::Create(path);
  if (!store.ok()) {
    std::fprintf(stderr, "perfdrive: %s\n", store.status().ToString().c_str());
    return 1;
  }
  modb::Db db;
  modb::Status s = db.RegisterLive(kLiveRelation);
  if (s.ok()) s = db.AttachLiveStore(kLiveRelation, &*store);
  perfbench::FleetWalk walk(args.seed);
  for (int i = 0; s.ok() && i < kPreloadBatches; ++i) {
    s = db.Apply(walk.NextBatch(perfbench::kPreloadBatch)).status();
  }
  if (s.ok()) s = db.DrainLive(kLiveRelation);
  if (!s.ok()) {
    std::fprintf(stderr, "perfdrive: preloading: %s\n", s.ToString().c_str());
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// run

// The in-process mirror of the server: the same planes relation (and,
// for live_ingest in the traced run, the same store-backed live
// relation), plus a standalone live relation on its own store copy so
// Ingest and Persist can be timed apart from Db::Apply.
struct Mirror {
  std::optional<modb::VersionedSpillStore> db_store;  // outlives db
  modb::Db db;
  std::optional<modb::VersionedSpillStore> rel_store;  // outlives rel
  std::unique_ptr<modb::ingest::LiveRelation> rel;
};

// Per-kind sums of the ExecStats root counters the server replied with.
struct KindCounters {
  double n = 0;
  double tuples_in = 0;
  double tuples_out = 0;
  double predicate_evals = 0;
  double morsels = 0;
  double candidates = 0;
  double hits = 0;
  double builds = 0;
  double units_scanned = 0;

  void Add(const modb::ExecStats& s) {
    n += 1;
    tuples_in += double(s.tuples_in);
    tuples_out += double(s.tuples_out);
    predicate_evals += double(s.predicate_evals);
    morsels += double(s.morsels);
    candidates += double(s.index_candidates);
    hits += double(s.index_hits);
    builds += double(s.index_builds);
    units_scanned += double(s.units_scanned);
  }
  void Merge(const KindCounters& o) {
    n += o.n;
    tuples_in += o.tuples_in;
    tuples_out += o.tuples_out;
    predicate_evals += o.predicate_evals;
    morsels += o.morsels;
    candidates += o.candidates;
    hits += o.hits;
    builds += o.builds;
    units_scanned += o.units_scanned;
  }
};

// Phase 0 is the warm-up, 1 the untraced timed window, 2 the traced
// window (empty unless --trace=1). An operation belongs to the phase in
// which it was issued and is measured only if it also ends in it.
struct Phases {
  Clock::time_point timed;
  Clock::time_point traced;
  Clock::time_point end;

  int At(Clock::time_point t) const {
    return t < timed ? 0 : (t < traced ? 1 : 2);
  }
  Clock::time_point EndOf(int phase) const {
    return phase == 0 ? timed : (phase == 1 ? traced : end);
  }
  double Length(int phase) const {
    return phase == 1 ? Sec(traced - timed) : Sec(end - traced);
  }
};

// One connection's results. Only its own thread writes it.
struct ConnStats {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t mismatches = 0;
  std::string first_error;
  std::vector<double> latency_ms[3];
  std::map<std::string, KindCounters> kinds;
  // Traced queries: round trip minus the replayed decode, run, encode
  // and reply decode; wire sizes; atinstant_batch cells and run time.
  std::vector<double> overhead_us;
  double request_bytes = 0;
  double reply_bytes = 0;
  double traced_ops = 0;
  double atinstant_cells = 0;
  double atinstant_run_s = 0;
  // Per kind: traced replays and the temporal batch kernels' units
  // scanned during them (the batch kinds carry none in ExecStats).
  std::map<std::string, std::pair<double, double>> batch_units;

  void Fail(const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  }
};

// Acknowledged ingest batches, in order (the mirror replays them).
struct IngestLog {
  std::vector<MutationRequest> acked;
  modb::MutationResult last_ack;
  std::uint64_t fixes_sent = 0;
  std::uint64_t fixes_accepted = 0;
  std::uint64_t delta_entries_max = 0;
  /// Acked batches the traced-run mirrors hold.
  std::size_t mirrored = 0;
};

struct Ctx {
  const Workload* workload = nullptr;
  Args args;
  Phases phases;
  Mirror* mirror = nullptr;
  // expected[kind][variant]: the mirror's result block (static data).
  std::vector<std::vector<std::string>> expected;
  // Serializes query replays, so the mirror's process-wide counter
  // deltas around one Db::Run belong to that request alone.
  std::mutex replay_mu;
};

modb::serve::ClientOptions NetOptions() {
  modb::serve::ClientOptions o;
  o.connect_timeout_ms = 5000;
  o.io_timeout_ms = kIoTimeoutMs;
  return o;
}

void ReplayQuery(Ctx& ctx, const std::string& kind, const QueryRequest& req,
                 Clock::time_point t0, Clock::time_point t1, ConnStats* st,
                 SpanBuffer* spans) {
  namespace wire = modb::serve;
  static modb::obs::Counter* const batch_units =
      modb::obs::Metrics::Global().counter("temporal.batch.units_scanned");
  const std::uint64_t root = spans->BeginRoot("client.query", kind, t0);
  spans->Child(root, "serve.roundtrip", t0, t1);
  const std::string payload = wire::EncodeQueryRequest(req);
  std::lock_guard<std::mutex> lock(ctx.replay_mu);
  const Clock::time_point a = Clock::now();
  modb::Result<QueryRequest> decoded = wire::DecodeQueryRequest(payload);
  const Clock::time_point b = Clock::now();
  spans->Child(root, "wire.decode_request", a, b);
  if (!decoded.ok()) {
    st->Fail("mirror decode: " + decoded.status().ToString());
    spans->EndRoot(root, b);
    return;
  }
  const std::uint64_t units_before = batch_units->value();
  const Clock::time_point b2 = Clock::now();
  modb::ExecOptions options;  // the server's: serial, no deadline
  modb::Result<modb::QueryResult> result =
      ctx.mirror->db.Run(*decoded, options);
  const Clock::time_point c = Clock::now();
  spans->Child(root, "db.run", b2, c);
  std::pair<double, double>& units = st->batch_units[kind];
  units.first += 1;
  units.second += double(batch_units->value() - units_before);
  if (!result.ok()) {
    st->Fail("mirror run: " + result.status().ToString());
    spans->EndRoot(root, c);
    return;
  }
  const Clock::time_point c2 = Clock::now();
  modb::Result<std::string> reply =
      wire::EncodeReply(modb::Status::OK(), &*result);
  const Clock::time_point d = Clock::now();
  spans->Child(root, "wire.encode_reply", c2, d);
  if (!reply.ok()) {
    st->Fail("mirror encode: " + reply.status().ToString());
    spans->EndRoot(root, d);
    return;
  }
  // What Client::Query does with a reply frame's payload.
  modb::Result<wire::WireReply> back = wire::DecodeReply(*reply);
  bool decoded_ok = back.ok() && back->status.ok() &&
                    wire::DecodeResultBlock(back->result_block).ok() &&
                    modb::ExecStats::FromJson(back->stats_json).ok();
  const Clock::time_point e = Clock::now();
  spans->Child(root, "wire.decode_reply", d, e);
  spans->EndRoot(root, Clock::now());
  if (!decoded_ok) st->Fail("mirror reply does not decode");

  st->overhead_us.push_back(
      1e3 * (Ms(t1 - t0) - Ms(b - a) - Ms(c - b2) - Ms(d - c2) - Ms(e - d)));
  st->request_bytes += double(wire::kFrameHeaderBytes + payload.size());
  st->reply_bytes += double(wire::kFrameHeaderBytes + reply->size());
  st->traced_ops += 1;
  if (kind == "atinstant_batch") {
    st->atinstant_cells +=
        double(result->batch_tuples * result->batch_instants);
    st->atinstant_run_s += Sec(c - b2);
  }
}

void RunQueries(Ctx* ctx, int conn, ConnStats* st, SpanBuffer* spans) {
  const std::vector<perfbench::QueryKind>& kinds = ctx->workload->kinds;
  std::optional<modb::serve::Client> client;
  for (std::uint64_t r = 0;; ++r) {
    const Clock::time_point t0 = Clock::now();
    if (t0 >= ctx->phases.end) break;
    if (!client.has_value()) {
      modb::Result<modb::serve::Client> c =
          modb::serve::Client::Connect("127.0.0.1", ctx->args.port,
                                       NetOptions());
      if (!c.ok()) {
        ++st->attempted;
        st->Fail("connect: " + c.status().ToString());
        return;
      }
      client.emplace(std::move(*c));
    }
    const int phase = ctx->phases.At(t0);
    const std::size_t k = (r + std::size_t(conn)) % kinds.size();
    const std::vector<QueryRequest>& variants = kinds[k].variants;
    const std::size_t v =
        (r / kinds.size() + std::size_t(conn)) % variants.size();
    const QueryRequest& req = variants[v];
    ++st->attempted;
    modb::Result<modb::serve::Client::Reply> reply = client->Query(req);
    const Clock::time_point t1 = Clock::now();
    if (!reply.ok()) {
      st->Fail(kinds[k].name + ": transport: " + reply.status().ToString());
      client.reset();  // unusable after a transport error
      continue;
    }
    if (!reply->status.ok()) {
      st->Fail(kinds[k].name + ": " + reply->status.ToString());
      continue;
    }
    if (!ctx->expected.empty() && reply->result_block != ctx->expected[k][v]) {
      ++st->mismatches;
      st->Fail(kinds[k].name + ": reply differs from the mirror Db");
    }
    if (phase != 0 && t1 <= ctx->phases.EndOf(phase)) {
      st->latency_ms[phase].push_back(Ms(t1 - t0));
      st->kinds[kinds[k].name].Add(reply->result.stats);
      if (phase == 2) ReplayQuery(*ctx, kinds[k].name, req, t0, t1, st, spans);
    }
    if (ctx->workload->think_ms > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(ctx->workload->think_ms));
    }
  }
}

// Applies acknowledged batches [from, to) to the mirror Db (and to the
// standalone relation of the traced run) as one untimed batch: tails
// absorb fix by fix, so batch boundaries do not change the state.
modb::Status CatchUpMirror(const Ctx& ctx, const IngestLog& log,
                           std::size_t from, std::size_t to) {
  if (from >= to) return modb::Status::OK();
  MutationRequest all;
  all.kind = MutationRequest::Kind::kIngest;
  all.relation = kLiveRelation;
  for (std::size_t i = from; i < to; ++i) {
    all.fixes.insert(all.fixes.end(), log.acked[i].fixes.begin(),
                     log.acked[i].fixes.end());
  }
  MODB_RETURN_IF_ERROR(ctx.mirror->db.Apply(all).status());
  if (ctx.mirror->rel == nullptr) return modb::Status::OK();
  MODB_RETURN_IF_ERROR(ctx.mirror->rel->Ingest(ToFixes(all)));
  return ctx.mirror->rel->Persist();
}

void ReplayIngest(const Ctx& ctx, const MutationRequest& batch,
                  Clock::time_point t0, Clock::time_point t1, ConnStats* st,
                  SpanBuffer* spans) {
  namespace wire = modb::serve;
  const std::uint64_t root = spans->BeginRoot("client.mutate", "ingest", t0);
  spans->Child(root, "serve.roundtrip", t0, t1);
  const std::string payload = wire::EncodeMutationRequest(batch);
  const std::vector<modb::ingest::IngestFix> fixes = ToFixes(batch);
  const Clock::time_point a = Clock::now();
  modb::Result<MutationRequest> decoded = wire::DecodeMutationRequest(payload);
  const Clock::time_point b = Clock::now();
  spans->Child(root, "wire.decode_request", a, b);
  modb::Result<modb::MutationResult> ack =
      decoded.ok() ? ctx.mirror->db.Apply(*decoded)
                   : modb::Result<modb::MutationResult>(decoded.status());
  const Clock::time_point c = Clock::now();
  spans->Child(root, "db.apply", b, c);
  const modb::Status ingested = ctx.mirror->rel->Ingest(fixes);
  const Clock::time_point d = Clock::now();
  spans->Child(root, "ingest.ingest", c, d);
  const modb::Status persisted =
      ingested.ok() ? ctx.mirror->rel->Persist() : ingested;
  const Clock::time_point e = Clock::now();
  spans->Child(root, "storage.persist", d, e);
  modb::Result<std::string> reply =
      ack.ok() ? wire::EncodeMutationReply(modb::Status::OK(), &*ack)
               : modb::Result<std::string>(ack.status());
  const Clock::time_point f = Clock::now();
  spans->Child(root, "wire.encode_reply", e, f);
  bool decoded_ok = false;
  if (reply.ok()) {
    modb::Result<wire::WireReply> back = wire::DecodeReply(*reply);
    decoded_ok = back.ok() && wire::DecodeMutationAck(back->result_block).ok();
  }
  const Clock::time_point g = Clock::now();
  spans->Child(root, "wire.decode_reply", f, g);
  spans->EndRoot(root, Clock::now());
  if (!ack.ok()) st->Fail("mirror apply: " + ack.status().ToString());
  if (!persisted.ok()) st->Fail("mirror ingest: " + persisted.ToString());
  if (ack.ok() && !decoded_ok) st->Fail("mirror ack does not decode");
  st->request_bytes += double(wire::kFrameHeaderBytes + payload.size());
  if (reply.ok()) {
    st->reply_bytes += double(wire::kFrameHeaderBytes + reply->size());
  }
  st->traced_ops += 1;
}

void RunIngest(const Ctx* ctx, perfbench::FleetWalk* walk, ConnStats* st,
               SpanBuffer* spans, IngestLog* log) {
  modb::Result<modb::serve::Client> client =
      modb::serve::Client::Connect("127.0.0.1", ctx->args.port, NetOptions());
  if (!client.ok()) {
    ++st->attempted;
    st->Fail("ingest connect: " + client.status().ToString());
    return;
  }
  std::uint64_t last_epoch = 0;
  const Clock::time_point first_due = Clock::now();
  Clock::time_point last_merge = first_due;
  for (std::uint64_t seq = 1;; ++seq) {
    // Batch seq is complete once its last fix has arrived.
    std::this_thread::sleep_until(
        first_due + std::chrono::microseconds(
                        std::int64_t(seq) * kIngestBatch * 1000000 /
                        perfbench::kIngestFixesPerSecond));
    const Clock::time_point t0 = Clock::now();
    if (t0 >= ctx->phases.end) break;
    const int phase = ctx->phases.At(t0);
    MutationRequest batch = walk->NextBatch(kIngestBatch);
    batch.client_id = kIngestClient;
    batch.batch_seq = seq;
    ++st->attempted;
    log->fixes_sent += batch.fixes.size();
    modb::Result<modb::serve::Client::MutationReply> r = client->Mutate(batch);
    const Clock::time_point t1 = Clock::now();
    if (!r.ok()) {
      // The batch's fate is unknown; the final check reports the gap.
      st->Fail("ingest: transport: " + r.status().ToString());
      return;
    }
    if (!r->status.ok()) {
      st->Fail("ingest: " + r->status.ToString());
      continue;
    }
    const modb::MutationResult& ack = r->ack;
    if (ack.accepted != batch.fixes.size() || ack.epoch <= last_epoch) {
      st->Fail("ingest: ack accepted " + std::to_string(ack.accepted) +
               " of " + std::to_string(batch.fixes.size()) + " at epoch " +
               std::to_string(ack.epoch) + " after " +
               std::to_string(last_epoch));
    }
    last_epoch = ack.epoch;
    log->fixes_accepted += ack.accepted;
    log->acked.push_back(batch);
    log->last_ack = ack;
    if (phase == 0 || t1 > ctx->phases.EndOf(phase)) continue;
    log->delta_entries_max =
        std::max(log->delta_entries_max, ack.delta_entries);
    st->latency_ms[phase].push_back(Ms(t1 - t0));
    if (phase != 2) continue;
    if (modb::Status s =
            CatchUpMirror(*ctx, *log, log->mirrored, log->acked.size() - 1);
        !s.ok()) {
      st->Fail("mirror catch-up: " + s.ToString());
      return;
    }
    ReplayIngest(*ctx, batch, t0, t1, st, spans);
    log->mirrored = log->acked.size();
    // modbd merges on its own thread every kMergeIntervalMs; the mirror
    // runs the same rounds between batches so they can be timed.
    if (Clock::now() - last_merge >=
        std::chrono::milliseconds(perfbench::kMergeIntervalMs)) {
      const Clock::time_point m0 = Clock::now();
      const modb::Status merged = ctx->mirror->db.MergeLive(kLiveRelation);
      const Clock::time_point m1 = Clock::now();
      spans->EndRoot(spans->BeginRoot("db.merge", "maintenance", m0), m1);
      if (!merged.ok()) st->Fail("mirror merge: " + merged.ToString());
      last_merge = m1;
    }
  }
}

std::map<std::string, double> FetchCounters(int port) {
  std::map<std::string, double> out;
  modb::Result<std::string> text =
      modb::serve::FetchMetricsJson("127.0.0.1", port);
  if (!text.ok()) return out;
  modb::Result<JsonValue> doc = JsonValue::Parse(*text);
  if (!doc.ok()) return out;
  if (const JsonValue* counters = doc->Find("counters")) {
    for (const auto& [name, value] : counters->members()) {
      out[name] = value.number_value();
    }
  }
  return out;
}

// Compares every live query kind and variant on the quiesced server with
// the mirror.
void VerifyLive(const Ctx& ctx, modb::serve::Client* client, ConnStats* st) {
  for (const perfbench::QueryKind& kind : ctx.workload->kinds) {
    for (const QueryRequest& req : kind.variants) {
      ++st->attempted;
      modb::Result<modb::QueryResult> local = ctx.mirror->db.Run(req);
      modb::Result<std::string> block =
          local.ok() ? modb::serve::EncodeResultBlock(*local)
                     : modb::Result<std::string>(local.status());
      modb::Result<modb::serve::Client::Reply> remote = client->Query(req);
      if (!block.ok() || !remote.ok() || !remote->status.ok()) {
        st->Fail(kind.name + ": quiesced check could not run");
        continue;
      }
      if (remote->result_block != *block) {
        ++st->mismatches;
        st->Fail(kind.name + ": quiesced reply differs from the replay");
      }
    }
  }
}

int Run(const Args& args) {
  const std::optional<Workload> workload =
      perfbench::MakeWorkload(args.workload, args.seed);
  if (!workload.has_value()) {
    std::fprintf(stderr, "perfdrive: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  JsonValue metrics = JsonValue::Object();
  auto put = [&metrics](const std::string& name, double v) {
    metrics.Set(name, JsonValue::Number(v));
  };

  // --- mirror and expected results (untimed for the end-to-end metrics)
  auto mirror = std::make_unique<Mirror>();
  Ctx ctx;
  ctx.workload = &*workload;
  ctx.args = args;
  ctx.mirror = mirror.get();
  modb::FlightsOptions gen;
  gen.num_flights = workload->flights;
  gen.seed = perfbench::kPlanesSeed;
  const Clock::time_point g0 = Clock::now();
  modb::Result<modb::Relation> planes = modb::GeneratePlanes(gen);
  const Clock::time_point g1 = Clock::now();
  modb::Status s = planes.status();
  if (s.ok()) s = mirror->db.Register(*std::move(planes));
  const Clock::time_point g2 = Clock::now();
  if (s.ok()) s = mirror->db.BuildIndex("planes", "flight");
  const Clock::time_point g3 = Clock::now();
  put("gen.planes_s", Sec(g1 - g0));
  put("index.bulk_load_s", Sec(g3 - g2));

  double recovery_s = 0;
  if (s.ok() && workload->live && args.trace) {
    modb::Result<std::string> db_copy =
        CopyPreload(args.dir, "mirror_db.store");
    modb::Result<std::string> rel_copy =
        CopyPreload(args.dir, "mirror_rel.store");
    modb::Result<modb::VersionedSpillStore> db_store =
        db_copy.ok()
            ? modb::VersionedSpillStore::Open(*db_copy)
            : modb::Result<modb::VersionedSpillStore>(db_copy.status());
    s = db_store.status();
    if (s.ok()) {
      mirror->db_store.emplace(std::move(*db_store));
      s = mirror->db.RegisterLive(kLiveRelation);
    }
    if (s.ok()) {
      s = mirror->db.AttachLiveStore(kLiveRelation, &*mirror->db_store);
    }
    if (s.ok()) s = rel_copy.status();
    if (s.ok()) {
      const Clock::time_point r0 = Clock::now();
      modb::Result<modb::VersionedSpillStore> rel_store =
          modb::VersionedSpillStore::Open(*rel_copy);
      s = rel_store.status();
      if (s.ok()) {
        mirror->rel_store.emplace(std::move(*rel_store));
        mirror->rel =
            std::make_unique<modb::ingest::LiveRelation>(kLiveRelation);
        s = mirror->rel->AttachStore(&*mirror->rel_store);
      }
      recovery_s = Sec(Clock::now() - r0);
    }
  }
  if (s.ok() && !workload->live) {
    for (const perfbench::QueryKind& kind : workload->kinds) {
      std::vector<std::string> blocks;
      for (const QueryRequest& req : kind.variants) {
        modb::Result<modb::QueryResult> r = mirror->db.Run(req);
        modb::Result<std::string> block =
            r.ok() ? modb::serve::EncodeResultBlock(*r)
                   : modb::Result<std::string>(r.status());
        if (!block.ok()) {
          s = block.status();
          break;
        }
        blocks.push_back(*std::move(block));
      }
      ctx.expected.push_back(std::move(blocks));
    }
  }
  if (!s.ok()) {
    std::fprintf(stderr, "perfdrive: building the mirror: %s\n",
                 s.ToString().c_str());
    return 1;
  }

  perfbench::FleetWalk walk(args.seed);
  if (workload->live) {
    for (int i = 0; i < kPreloadBatches; ++i) {
      (void)walk.NextBatch(perfbench::kPreloadBatch);
    }
  }

  // --- traffic
  const std::map<std::string, double> before = FetchCounters(args.port);
  const Clock::time_point start = Clock::now();
  const auto span = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };
  ctx.phases.timed = start + span(workload->warmup_s);
  ctx.phases.end = ctx.phases.timed + span(args.seconds);
  ctx.phases.traced = args.trace ? ctx.phases.timed + span(args.seconds / 2)
                                 : ctx.phases.end;

  const int conns = workload->query_connections;
  std::vector<ConnStats> stats(std::size_t(conns) + 1);
  std::vector<std::unique_ptr<SpanBuffer>> buffers;
  for (int c = 0; c <= conns; ++c) {
    buffers.push_back(std::make_unique<SpanBuffer>(c + 1));
  }
  IngestLog log;
  std::vector<std::thread> threads;
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back(RunQueries, &ctx, c, &stats[std::size_t(c)],
                         buffers[std::size_t(c)].get());
  }
  if (workload->live) {
    threads.emplace_back(RunIngest, &ctx, &walk, &stats.back(),
                         buffers.back().get(), &log);
  }
  for (std::thread& t : threads) t.join();
  const std::map<std::string, double> after = FetchCounters(args.port);
  auto delta = [&](const std::string& name) {
    auto a = after.find(name);
    auto b = before.find(name);
    return (a == after.end() ? 0 : a->second) -
           (b == before.end() ? 0 : b->second);
  };

  // --- quiesced correctness check of the live relation
  ConnStats verify;
  if (workload->live) {
    modb::Status m;
    if (args.trace) {
      m = CatchUpMirror(ctx, log, log.mirrored, log.acked.size());
    } else {
      // Untraced runs build the replay only now: preload + every ack.
      m = mirror->db.RegisterLive(kLiveRelation);
      perfbench::FleetWalk preload(args.seed);
      for (int i = 0; m.ok() && i < kPreloadBatches; ++i) {
        m = mirror->db.Apply(preload.NextBatch(perfbench::kPreloadBatch))
                .status();
      }
      if (m.ok()) m = CatchUpMirror(ctx, log, 0, log.acked.size());
    }
    modb::Result<modb::serve::Client> client =
        modb::serve::Client::Connect("127.0.0.1", args.port, NetOptions());
    if (!m.ok()) {
      verify.Fail("building the replay: " + m.ToString());
    } else if (!client.ok()) {
      verify.Fail("verify connect: " + client.status().ToString());
    } else {
      VerifyLive(ctx, &*client, &verify);
    }
    if (log.fixes_accepted != log.fixes_sent) {
      verify.Fail("acknowledged " + std::to_string(log.fixes_accepted) +
                  " of " + std::to_string(log.fixes_sent) + " fixes sent");
    }
  }

  // --- totals
  std::uint64_t attempted = 0, failed = 0, mismatches = 0;
  std::string first_error;
  std::vector<double> query_ms[3];
  std::map<std::string, KindCounters> kinds;
  std::vector<double> overhead_us;
  double request_bytes = 0, reply_bytes = 0, traced_ops = 0;
  double cells = 0, cells_run_s = 0;
  std::map<std::string, std::pair<double, double>> batch_units;
  stats.push_back(verify);
  for (std::size_t c = 0; c < stats.size(); ++c) {
    const ConnStats& st = stats[c];
    attempted += st.attempted;
    failed += st.failed;
    mismatches += st.mismatches;
    if (first_error.empty()) first_error = st.first_error;
    if (c < std::size_t(conns)) {
      for (int p = 0; p < 3; ++p) {
        query_ms[p].insert(query_ms[p].end(), st.latency_ms[p].begin(),
                           st.latency_ms[p].end());
      }
    }
    for (const auto& [name, k] : st.kinds) kinds[name].Merge(k);
    overhead_us.insert(overhead_us.end(), st.overhead_us.begin(),
                       st.overhead_us.end());
    request_bytes += st.request_bytes;
    reply_bytes += st.reply_bytes;
    traced_ops += st.traced_ops;
    cells += st.atinstant_cells;
    cells_run_s += st.atinstant_run_s;
    for (const auto& [name, u] : st.batch_units) {
      batch_units[name].first += u.first;
      batch_units[name].second += u.second;
    }
  }
  const ConnStats& ingest = stats[std::size_t(conns)];
  const double timed_s = ctx.phases.Length(1);

  JsonValue extra = JsonValue::Object();
  extra.Set("query_samples", JsonValue::Int(query_ms[1].size()));
  extra.Set("timed_s", JsonValue::Number(timed_s));
  extra.Set("fixes_stored", JsonValue::Int(std::uint64_t(
      workload->live ? kPreloadFixes + log.fixes_accepted : 0)));

  if (!args.trace) {
    put("query_p50_ms", Quantile(query_ms[1], 0.5));
    put("query_p90_ms", Quantile(query_ms[1], 0.9));
    put("query_qps", double(query_ms[1].size()) / timed_s);
  } else {
    const std::vector<const SpanBuffer*> views = [&] {
      std::vector<const SpanBuffer*> v;
      for (const auto& b : buffers) v.push_back(b.get());
      return v;
    }();
    if (!perfbench::WriteSpans(args.dir + "/spans.tsv", views, start)) {
      std::fprintf(stderr, "perfdrive: cannot write the spans\n");
      return 1;
    }
    const perfbench::TraceSummary trace = perfbench::Summarize(views);
    // Self times of the spans named `name`, for one kind or pooled over
    // every query kind ("" = queries, i.e. neither ingest nor merges).
    auto spans_of = [&trace](const std::string& name, const std::string& kind) {
      std::vector<double> out;
      for (const auto& [key, layer] : trace.layers) {
        const bool query =
            key.second != "ingest" && key.second != "maintenance";
        if (key.first == name && (kind.empty() ? query : key.second == kind)) {
          out.insert(out.end(), layer.begin(), layer.end());
        }
      }
      return out;
    };
    auto q = [](const std::vector<double>& ns, double quantile, double unit) {
      return Quantile(ns, quantile) / unit;
    };
    constexpr double kUs = 1e3, kMsNs = 1e6;

    put("serve.overhead_us.p50", Quantile(overhead_us, 0.5));
    put("serve.request_bytes.mean", Ratio(request_bytes, traced_ops));
    put("serve.reply_bytes.mean", Ratio(reply_bytes, traced_ops));
    put("serve.rejected", delta("serve.rejected"));
    put("serve.errors", delta("serve.errors"));
    put("serve.timeouts", delta("serve.timeouts"));

    auto pooled = [&](const std::string& name) {
      std::vector<double> all = spans_of(name, "");
      const std::vector<double> in = spans_of(name, "ingest");
      all.insert(all.end(), in.begin(), in.end());
      return all;
    };
    put("wire.decode_request_us.p50",
        q(pooled("wire.decode_request"), 0.5, kUs));
    put("wire.encode_reply_us.p50", q(pooled("wire.encode_reply"), 0.5, kUs));
    put("wire.decode_reply_us.p50", q(pooled("wire.decode_reply"), 0.5, kUs));

    for (const char* kind : kAllKinds) {
      const std::vector<double> run = spans_of("db.run", kind);
      put(std::string("db.run_ms.") + kind + ".p50", q(run, 0.5, kMsNs));
      put(std::string("db.run_ms.") + kind + ".p90", q(run, 0.9, kMsNs));
    }
    const std::vector<double> apply = spans_of("db.apply", "ingest");
    put("db.apply_ms.p50", q(apply, 0.5, kMsNs));
    put("db.apply_ms.p90", q(apply, 0.9, kMsNs));
    put("db.merge_ms.p50", q(spans_of("db.merge", "maintenance"), 0.5, kMsNs));
    put("db.merges", delta("index.delta.merges"));

    for (const char* kind : kAllKinds) {
      const KindCounters& k = kinds[kind];
      const std::string suffix = std::string(".") + kind;
      put("exec.tuples_in" + suffix, Ratio(k.tuples_in, k.n));
      put("exec.examined_per_result" + suffix,
          Ratio(k.tuples_in, k.tuples_out));
      put("exec.predicate_evals" + suffix, Ratio(k.predicate_evals, k.n));
      put("exec.morsels" + suffix, Ratio(k.morsels, k.n));
      const std::pair<double, double>& batch = batch_units[kind];
      put("temporal.units_scanned" + suffix,
          Ratio(k.units_scanned, k.n) + Ratio(batch.second, batch.first));
    }
    put("exec.plan_cache_hit_ratio",
        Ratio(delta("exec.plan_cache.hits"),
              delta("exec.plan_cache.hits") + delta("exec.plan_cache.misses")));
    for (const char* kind : kJoinKinds) {
      const KindCounters& k = kinds[kind];
      const std::string suffix = std::string(".") + kind;
      put("index.candidates" + suffix, Ratio(k.candidates, k.n));
      put("index.hits" + suffix, Ratio(k.hits, k.n));
      put("index.hit_ratio" + suffix, Ratio(k.hits, k.candidates));
      put("index.builds" + suffix, Ratio(k.builds, k.n));
    }
    const modb::MutationResult& last_ack = log.last_ack;
    put("index.mem_units", double(last_ack.mem_units));
    put("index.delta_entries.max", double(log.delta_entries_max));
    put("index.base_entries", double(last_ack.base_entries));
    put("index.delta_rebuilds", delta("index.delta.rebuilds"));
    put("index.merge_stale", delta("index.delta.merge_stale"));
    put("temporal.cells_per_s.atinstant_batch", Ratio(cells, cells_run_s));

    const std::vector<double> ingested = spans_of("ingest.ingest", "ingest");
    put("ingest.ingest_ms.p50", q(ingested, 0.5, kMsNs));
    put("ingest.ingest_ms.p90", q(ingested, 0.9, kMsNs));
    {
      // Spans are in issue order: the history slope over the phase.
      const std::size_t tenth = ingested.size() / 10;
      const std::vector<double> first(ingested.begin(),
                                      ingested.begin() + tenth);
      const std::vector<double> last(ingested.end() - tenth, ingested.end());
      put("ingest.ingest_ms.growth",
          Ratio(Quantile(last, 0.5), Quantile(first, 0.5)));
    }
    put("ingest.batches", double(log.acked.size()));
    const std::vector<double> persisted = spans_of("storage.persist", "ingest");
    put("storage.persist_ms.p50", q(persisted, 0.5, kMsNs));
    put("storage.persist_ms.p90", q(persisted, 0.9, kMsNs));
    put("storage.bytes_staged_per_fix",
        Ratio(delta("storage.spill.bytes_spilled"),
              double(log.fixes_accepted)));
    put("storage.page_writes_per_batch",
        Ratio(delta("storage.file_device.page_writes"),
              double(log.acked.size())));
    put("storage.commits", delta("storage.recovery.commits"));
    put("storage.pages_retired", delta("storage.recovery.pages_retired"));
    put("storage.pages_reused", delta("storage.recovery.pages_reused"));
    put("storage.epoch_pins", delta("storage.recovery.epoch_pins"));
    put("storage.recovery_s", recovery_s);

    const double untraced_p50 = Quantile(query_ms[1], 0.5);
    const double traced_p50 = q(spans_of("serve.roundtrip", ""), 0.5, kMsNs);
    put("trace.overhead_frac",
        untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1 : 0);
    const double query_rt = Sum(spans_of("serve.roundtrip", ""));
    const double run_share = Ratio(Sum(spans_of("db.run", "")), query_rt);
    put("trace.db_run_share", run_share);
    put("trace.serve_wire_share", query_rt > 0 ? 1 - run_share : 0);
    put("trace.ingest_storage_share",
        Ratio(Sum(ingested) + Sum(persisted),
              Sum(spans_of("serve.roundtrip", "ingest"))));
    put("trace.span_violations", double(trace.violations));
    extra.Set("spans", JsonValue::Int(trace.spans));
    extra.Set("traced_roots", JsonValue::Int(trace.roots));

    const std::vector<double>& acks = ingest.latency_ms[1];
    put("ingest_fix_rate", double(acks.size()) * kIngestBatch / timed_s);
    put("ingest_ack_p50_ms", Quantile(acks, 0.5));
    put("ingest_ack_p90_ms", Quantile(acks, 0.9));
    put("ops_failed_frac", Ratio(double(failed), double(attempted)));
    if (trace.violations != 0) {
      ++failed;
      if (first_error.empty()) first_error = "inconsistent spans";
    }
  }

  JsonValue out = JsonValue::Object();
  out.Set("attempted", JsonValue::Int(attempted));
  out.Set("failed", JsonValue::Int(failed));
  out.Set("mismatches", JsonValue::Int(mismatches));
  out.Set("first_error", JsonValue::Str(first_error));
  out.Set("extra", std::move(extra));
  out.Set("metrics", std::move(metrics));
  std::printf("%s\n", out.Write().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args) ||
      (args.cmd != "prep" && args.cmd != "run" && args.cmd != "flags")) {
    std::fprintf(stderr,
                 "usage: perfdrive flags --workload=W\n"
                 "       perfdrive prep --dir=D --seed=S\n"
                 "       perfdrive run --workload=W --seed=S --seconds=T "
                 "--trace=0|1 --port=P --dir=D\n");
    return 2;
  }
  if (args.cmd == "flags") {
    const std::optional<Workload> w = perfbench::MakeWorkload(args.workload, 0);
    if (!w.has_value()) return 2;
    for (const std::string& flag : perfbench::ServerFlags(*w)) {
      std::printf("%s\n", flag.c_str());
    }
    return 0;
  }
  return args.cmd == "prep" ? Prep(args) : Run(args);
}
