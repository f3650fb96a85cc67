// bench_compare: perf gates over google-benchmark JSON export files.
//
// Modes (the bounds are the constants below):
//   bench_compare BASELINE.json CURRENT.json
//       Regression gate. Benchmarks are matched by name (aggregate rows
//       like *_mean are ignored); a benchmark whose cpu_time grew by
//       more than 15 % relative to the baseline fails the run.
//       Benchmarks present in only one file are reported but never fail
//       — the suite is allowed to grow.
//   bench_compare --scaling FILE.json
//       Thread-scaling gate over a bench_scaling export: the pipelined
//       Select+Join plan must be at least 2x faster (real time) at 4
//       threads than at 1. Hosts with fewer than 4 CPUs cannot honestly
//       run this check, so it warns and passes there.
//   bench_compare --serving FILE.json
//   bench_compare --ingest FILE.json
//       Load gate over a loadgen export: BENCH_serving.json (serve
//       mode) or BENCH_ingest.json (--ingest). The run must have
//       completed requests (serving) or accepted fixes (ingest) with
//       zero hard errors (typed admission rejections are NOT errors),
//       and every */p99 latency row (for ingest: batches AND the
//       concurrent live queries) must stay under 5000 ms. The qps
//       (serving) or fix-rate (ingest) floor is a throughput gate, so —
//       like --scaling — it warns and passes on hosts with fewer than 4
//       CPUs, where throughput numbers are not honest.
//   bench_compare --storage FILE.json
//       Storage-device gate over a bench_storage export: the warm
//       spilled sequential scan on the mmap device must be at least
//       1.5x faster (real time) than on the file device — a
//       single-threaded ratio, honest on any host, so it never skips.
//       The epoch-pinned concurrent-reader items/s floor warns and
//       passes on hosts with fewer than 4 CPUs.
//   --require-release (composable with every mode, or alone with one
//       file) rejects a run whose JSON context was not produced by a
//       Release build. The authoritative key is "modb_build_type"
//       (stamped by bench_main from the CMake config that compiled the
//       binary); "library_build_type" only describes how libbenchmark
//       itself was built, so it is a fallback.
//
//   exit 0  all gates passed (or were honestly skipped with a warning)
//   exit 1  a gate failed
//   exit 2  usage / parse error
//
// tools/verify.sh runs this against the repo-root BENCH_*.json
// snapshots so a perf regression fails CI the same way a test failure
// does.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.h"

namespace {

// Gate bounds. tools/verify.sh gates every snapshot with these values;
// a bound that moves is a change to the gate, reviewed as one.
constexpr double kRegressionThreshold = 0.15;  // cpu_time growth
constexpr double kMinSpeedup = 2.0;            // 1 -> 4 threads
constexpr double kMaxP99Ms = 5000;             // every loadgen */p99 row
constexpr double kMinQps = 25;                 // serving throughput
constexpr double kMinFixRate = 1000;           // ingest fixes/s
constexpr double kMinRatio = 1.5;              // warm mmap vs file scan
constexpr double kMinReaderItems = 50000;      // pinned reads/s

struct BenchRow {
  std::string name;
  double cpu_time = 0;  // normalized to nanoseconds
  double real_time = 0;
  double items_per_second = 0;  // 0 when the bench reported none
};

struct BenchContext {
  std::string build_type;  // lowercased; empty when absent
  int num_cpus = 0;
  modb::obs::JsonValue json;  // the whole "context" object
};

double UnitToNs(const std::string& unit) {
  if (unit == "us") return 1e3;
  if (unit == "ms") return 1e6;
  if (unit == "s") return 1e9;
  return 1.0;  // ns (google-benchmark's default)
}

std::string LowerCase(std::string s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = char(c - 'A' + 'a');
  }
  return s;
}

bool LoadFile(const char* path, std::vector<BenchRow>* rows,
              BenchContext* context) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "bench_compare: cannot open %s\n", path);
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto parsed = modb::obs::JsonValue::Parse(buf.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "bench_compare: %s: %s\n", path,
                 parsed.status().ToString().c_str());
    return false;
  }
  if (const modb::obs::JsonValue* ctx = parsed->Find("context")) {
    context->json = *ctx;
    const modb::obs::JsonValue* build = ctx->Find("modb_build_type");
    if (build == nullptr) build = ctx->Find("library_build_type");
    if (build != nullptr) context->build_type = LowerCase(build->string_value());
    if (const modb::obs::JsonValue* cpus = ctx->Find("num_cpus")) {
      context->num_cpus = int(cpus->number_value());
    }
  }
  const modb::obs::JsonValue* benches = parsed->Find("benchmarks");
  if (benches == nullptr ||
      benches->kind() != modb::obs::JsonValue::Kind::kArray) {
    std::fprintf(stderr, "bench_compare: %s has no \"benchmarks\" array\n",
                 path);
    return false;
  }
  for (const modb::obs::JsonValue& b : benches->items()) {
    if (b.kind() != modb::obs::JsonValue::Kind::kObject) continue;
    const modb::obs::JsonValue* run_type = b.Find("run_type");
    if (run_type != nullptr && run_type->string_value() != "iteration") {
      continue;  // skip _mean/_median/_stddev aggregates
    }
    const modb::obs::JsonValue* name = b.Find("name");
    const modb::obs::JsonValue* cpu = b.Find("cpu_time");
    const modb::obs::JsonValue* real = b.Find("real_time");
    if (name == nullptr || cpu == nullptr || real == nullptr) continue;
    double scale = 1.0;
    if (const modb::obs::JsonValue* unit = b.Find("time_unit")) {
      scale = UnitToNs(unit->string_value());
    }
    double items = 0;
    if (const modb::obs::JsonValue* ips = b.Find("items_per_second")) {
      items = ips->number_value();
    }
    rows->push_back({name->string_value(), cpu->number_value() * scale,
                     real->number_value() * scale, items});
  }
  return true;
}

const BenchRow* FindRow(const std::vector<BenchRow>& rows,
                        const std::string& name) {
  for (const BenchRow& r : rows) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

// 0 = pass, 1 = fail.
int CheckRelease(const char* path, const BenchContext& context) {
  if (context.build_type == "release") return 0;
  std::fprintf(stderr,
               "bench_compare: %s was not recorded from a release build "
               "(modb_build_type=\"%s\"); rebuild with --preset release\n",
               path, context.build_type.c_str());
  return 1;
}

int RunScalingGate(const char* path, bool require_release) {
  std::vector<BenchRow> rows;
  BenchContext context;
  if (!LoadFile(path, &rows, &context)) return 2;
  if (require_release && CheckRelease(path, context) != 0) return 1;
  // UseRealTime() benchmarks report as "<name>/T/real_time"; accept the
  // bare name too so hand-rolled exports still gate.
  const char* kPlan = "BM_Scaling_PipelinedSelectJoin";
  auto find_threads = [&rows](const std::string& base) -> const BenchRow* {
    if (const BenchRow* r = FindRow(rows, base + "/real_time")) return r;
    return FindRow(rows, base);
  };
  const BenchRow* one = find_threads(std::string(kPlan) + "/1");
  const BenchRow* four = find_threads(std::string(kPlan) + "/4");
  if (one == nullptr || four == nullptr) {
    std::fprintf(stderr,
                 "bench_compare: %s is missing %s/1 or %s/4 (run "
                 "bench_scaling with --modb_threads including 1 and 4)\n",
                 path, kPlan, kPlan);
    return 2;
  }
  const double speedup =
      four->real_time > 0 ? one->real_time / four->real_time : 0;
  std::printf("  scaling  %-50s %12.0f -> %12.0f ns  (%.2fx @ 4 threads)\n",
              kPlan, one->real_time, four->real_time, speedup);
  if (context.num_cpus < 4) {
    std::printf(
        "bench_compare: WARNING: host has %d CPUs (< 4); scaling gate "
        "skipped — the %.1fx floor only applies on >= 4 cores\n",
        context.num_cpus, kMinSpeedup);
    return 0;
  }
  if (speedup < kMinSpeedup) {
    std::fprintf(stderr,
                 "bench_compare: scaling gate FAILED: %.2fx at 4 threads "
                 "(floor %.1fx on a %d-CPU host)\n",
                 speedup, kMinSpeedup, context.num_cpus);
    return 1;
  }
  std::printf("bench_compare: scaling gate passed (%.2fx >= %.1fx)\n", speedup,
              kMinSpeedup);
  return 0;
}

// The serving and ingest exports differ only in the context block
// loadgen writes and in which of its fields the gate reads.
struct LoadGate {
  const char* name;   // the mode, "serving" or "ingest"
  const char* block;  // context block loadgen writes
  // The summary fields: {printed label, block key}. `count` must be
  // positive, `other` is reported only, `rate` is held to min_rate.
  struct Field {
    const char* label;
    const char* key;
  } count, other, rate;
  const char* rate_unit;  // "/s" suffix on the summary line, or ""
  const char* nothing;    // the failure when count is 0
  const char* floor;      // the throughput floor's name
  const char* unit;       // the throughput unit
  int digits;             // printed decimals of the throughput
  double min_rate;
};

constexpr LoadGate kServingGate = {
    "serving", "modb_serving",
    {"completed", "completed"}, {"rejected", "rejected"}, {"qps", "qps"},
    "", "no request completed", "qps", "qps", 1, kMinQps};
constexpr LoadGate kIngestGate = {
    "ingest", "modb_ingest",
    {"accepted", "fixes_accepted"}, {"queries", "queries_completed"},
    {"fix_rate", "fix_rate"}, "/s", "no fix accepted", "fix-rate",
    "fixes/s", 0, kMinFixRate};

int RunLoadGate(const LoadGate& gate, const char* path,
                bool require_release) {
  std::vector<BenchRow> rows;
  BenchContext context;
  if (!LoadFile(path, &rows, &context)) return 2;
  if (require_release && CheckRelease(path, context) != 0) return 1;

  const modb::obs::JsonValue* summary = context.json.Find(gate.block);
  if (summary == nullptr) {
    std::fprintf(stderr,
                 "bench_compare: %s has no context.%s block (not a "
                 "loadgen export?)\n",
                 path, gate.block);
    return 2;
  }
  auto num = [summary](const char* key) -> double {
    const modb::obs::JsonValue* v = summary->Find(key);
    return v != nullptr ? v->number_value() : 0;
  };
  const double count = num(gate.count.key);
  const double errors = num("errors");
  const double rejected = num("rejected");
  const double rate = num(gate.rate.key);
  std::printf("  %-8s %s=%.0f errors=%.0f %s=%.0f %s=%.*f%s\n", gate.name,
              gate.count.label, count, errors, gate.other.label,
              num(gate.other.key), gate.rate.label, gate.digits, rate,
              gate.rate_unit);

  int failures = 0;
  if (count <= 0) {
    std::fprintf(stderr, "bench_compare: %s gate FAILED: %s\n", gate.name,
                 gate.nothing);
    ++failures;
  }
  if (errors != 0) {
    std::fprintf(stderr,
                 "bench_compare: %s gate FAILED: %.0f hard errors "
                 "(typed rejections are counted separately: %.0f)\n",
                 gate.name, errors, rejected);
    ++failures;
  }
  const double max_p99_ns = kMaxP99Ms * 1e6;
  for (const BenchRow& r : rows) {
    const std::string suffix = "/p99";
    if (r.name.size() < suffix.size() ||
        r.name.compare(r.name.size() - suffix.size(), suffix.size(),
                       suffix) != 0) {
      continue;
    }
    const bool bad = r.real_time > max_p99_ns;
    std::printf("  %-8s %-50s %12.0f ns\n", bad ? "SLOW" : "ok",
                r.name.c_str(), r.real_time);
    if (bad) {
      std::fprintf(stderr,
                   "bench_compare: %s gate FAILED: %s = %.1f ms exceeds "
                   "the %.0f ms p99 ceiling\n",
                   gate.name, r.name.c_str(), r.real_time / 1e6, kMaxP99Ms);
      ++failures;
    }
  }
  if (rate < gate.min_rate) {
    if (context.num_cpus < 4) {
      std::printf(
          "bench_compare: WARNING: host has %d CPUs (< 4); %s floor "
          "skipped — %.*f %s measured, %.*f required on >= 4 cores\n",
          context.num_cpus, gate.floor, gate.digits, rate, gate.unit,
          gate.digits, gate.min_rate);
    } else {
      std::fprintf(stderr,
                   "bench_compare: %s gate FAILED: %.*f %s below the %.*f "
                   "floor on a %d-CPU host\n",
                   gate.name, gate.digits, rate, gate.unit, gate.digits,
                   gate.min_rate, context.num_cpus);
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("bench_compare: %s gate passed\n", gate.name);
  }
  return failures == 0 ? 0 : 1;
}

int RunStorageGate(const char* path, bool require_release) {
  std::vector<BenchRow> rows;
  BenchContext context;
  if (!LoadFile(path, &rows, &context)) return 2;
  if (require_release && CheckRelease(path, context) != 0) return 1;

  const BenchRow* warm_file = FindRow(rows, "BM_SpilledScanWarm_File");
  const BenchRow* warm_mmap = FindRow(rows, "BM_SpilledScanWarm_Mmap");
  if (warm_file == nullptr || warm_mmap == nullptr) {
    std::fprintf(stderr,
                 "bench_compare: %s is missing BM_SpilledScanWarm_File or "
                 "BM_SpilledScanWarm_Mmap (re-run bench_storage)\n",
                 path);
    return 2;
  }
  if (const BenchRow* cold_file = FindRow(rows, "BM_SpilledScanCold_File")) {
    std::printf("  storage  %-50s %12.0f ns\n", cold_file->name.c_str(),
                cold_file->real_time);
  }
  if (const BenchRow* cold_mmap = FindRow(rows, "BM_SpilledScanCold_Mmap")) {
    std::printf("  storage  %-50s %12.0f ns\n", cold_mmap->name.c_str(),
                cold_mmap->real_time);
  }
  const double ratio = warm_mmap->real_time > 0
                           ? warm_file->real_time / warm_mmap->real_time
                           : 0;
  std::printf(
      "  storage  warm scan file %.0f ns vs mmap %.0f ns  (%.2fx)\n",
      warm_file->real_time, warm_mmap->real_time, ratio);

  int failures = 0;
  // The warm-scan ratio is single-threaded, so it is honest on any
  // host: no CPU-count skip, this is the hard gate.
  if (ratio < kMinRatio) {
    std::fprintf(stderr,
                 "bench_compare: storage gate FAILED: warm mmap scan is only "
                 "%.2fx faster than file (floor %.1fx)\n",
                 ratio, kMinRatio);
    ++failures;
  }

  // Concurrent pinned readers: a throughput floor, honest only with
  // enough cores to actually run the reader threads in parallel.
  const BenchRow* readers = nullptr;
  for (const BenchRow& r : rows) {
    if (r.name.rfind("BM_EpochPinnedReaders", 0) == 0) {
      readers = &r;
      break;
    }
  }
  if (readers == nullptr) {
    std::fprintf(stderr,
                 "bench_compare: %s is missing BM_EpochPinnedReaders\n", path);
    return 2;
  }
  std::printf("  storage  %-50s %12.0f items/s\n", readers->name.c_str(),
              readers->items_per_second);
  if (readers->items_per_second < kMinReaderItems) {
    if (context.num_cpus < 4) {
      std::printf(
          "bench_compare: WARNING: host has %d CPUs (< 4); pinned-reader "
          "floor skipped — %.0f items/s measured, %.0f required on >= 4 "
          "cores\n",
          context.num_cpus, readers->items_per_second, kMinReaderItems);
    } else {
      std::fprintf(stderr,
                   "bench_compare: storage gate FAILED: %.0f pinned reads/s "
                   "below the %.0f floor on a %d-CPU host\n",
                   readers->items_per_second, kMinReaderItems,
                   context.num_cpus);
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("bench_compare: storage gate passed (%.2fx >= %.1fx)\n", ratio,
                kMinRatio);
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const LoadGate* load = nullptr;
  bool scaling = false;
  bool storage = false;
  bool require_release = false;
  std::vector<const char*> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scaling") == 0) {
      scaling = true;
    } else if (std::strcmp(argv[i], "--serving") == 0) {
      if (load == nullptr) load = &kServingGate;  // --ingest takes precedence
    } else if (std::strcmp(argv[i], "--ingest") == 0) {
      load = &kIngestGate;
    } else if (std::strcmp(argv[i], "--storage") == 0) {
      storage = true;
    } else if (std::strcmp(argv[i], "--require-release") == 0) {
      require_release = true;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr, "bench_compare: unknown flag %s\n", argv[i]);
      return 2;
    } else {
      files.push_back(argv[i]);
    }
  }

  if (storage) {
    if (files.size() != 1) {
      std::fprintf(stderr,
                   "usage: bench_compare --storage FILE.json "
                   "[--require-release]\n");
      return 2;
    }
    return RunStorageGate(files[0], require_release);
  }

  if (load != nullptr) {
    if (files.size() != 1) {
      std::fprintf(stderr,
                   "usage: bench_compare --%s FILE.json "
                   "[--require-release]\n",
                   load->name);
      return 2;
    }
    return RunLoadGate(*load, files[0], require_release);
  }

  if (scaling) {
    if (files.size() != 1) {
      std::fprintf(stderr,
                   "usage: bench_compare --scaling FILE.json "
                   "[--require-release]\n");
      return 2;
    }
    return RunScalingGate(files[0], require_release);
  }

  if (files.size() == 1 && require_release) {
    // Build-type check only.
    std::vector<BenchRow> rows;
    BenchContext context;
    if (!LoadFile(files[0], &rows, &context)) return 2;
    if (CheckRelease(files[0], context) != 0) return 1;
    std::printf("bench_compare: %s is a release-build record\n", files[0]);
    return 0;
  }

  if (files.size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_compare BASELINE.json CURRENT.json "
                 "[--require-release]\n"
                 "       bench_compare --scaling FILE.json\n"
                 "       bench_compare --require-release FILE.json\n");
    return 2;
  }
  std::vector<BenchRow> baseline, current;
  BenchContext base_ctx, cur_ctx;
  if (!LoadFile(files[0], &baseline, &base_ctx) ||
      !LoadFile(files[1], &current, &cur_ctx)) {
    return 2;
  }
  if (require_release && CheckRelease(files[1], cur_ctx) != 0) return 1;
  int regressions = 0, compared = 0;
  for (const BenchRow& cur : current) {
    const BenchRow* base = FindRow(baseline, cur.name);
    if (base == nullptr) {
      std::printf("  NEW      %-50s %12.0f ns\n", cur.name.c_str(),
                  cur.cpu_time);
      continue;
    }
    ++compared;
    const double ratio =
        base->cpu_time > 0 ? cur.cpu_time / base->cpu_time : 1.0;
    const bool bad = ratio > 1.0 + kRegressionThreshold;
    std::printf("  %-8s %-50s %12.0f -> %12.0f ns  (%+.1f%%)\n",
                bad ? "REGRESS" : "ok", cur.name.c_str(), base->cpu_time,
                cur.cpu_time, (ratio - 1.0) * 100.0);
    if (bad) ++regressions;
  }
  for (const BenchRow& base : baseline) {
    if (FindRow(current, base.name) == nullptr) {
      std::printf("  GONE     %s\n", base.name.c_str());
    }
  }
  std::printf("bench_compare: %d compared, %d regressed (threshold %+.0f%%)\n",
              compared, regressions, kRegressionThreshold * 100.0);
  return regressions == 0 ? 0 : 1;
}
