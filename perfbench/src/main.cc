// burtree benchmark program.
//
//   perfbench --workload track_mem|query_mem|durable_ingest --seed N
//             --seconds S --trace 0|1 [--work-dir DIR]
//   perfbench --self-test [--work-dir DIR]
//
// One run: set the index up kSetups times (setup_s is their median; the
// last one is kept), warm it up untimed, measure S seconds of closed-loop
// client load, then check the quiesced index. --trace 1 additionally
// records spans, takes window counter deltas, runs a one-client pass and
// the single-threaded layer probe, and reports per-layer metrics instead
// of end-to-end ones. The last stdout line is the result object; the line
// before it ("# report ...") carries everything else the run measured.
#include <stdlib.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace perfbench {
namespace {

using namespace burtree;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool self_test = false;
  std::string work_dir = ".bench_build/work";
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n"
               "       perfbench --self-test [--work-dir DIR]\n"
               "workloads:",
               why);
  for (const WorkloadSpec& w : Workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseU64(const char* s, uint64_t* out) {
  if (*s == '\0' || *s == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

/// Returns 0 on success, else the exit code.
int ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    uint64_t n = 0;
    if (flag == "--workload") {
      a->workload = v;
    } else if (flag == "--seed") {
      if (!ParseU64(v, &a->seed)) return Usage("bad --seed");
    } else if (flag == "--seconds") {
      if (!ParseU64(v, &n) || n == 0 || n > 600) return Usage("bad --seconds");
      a->seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (!ParseU64(v, &n) || n > 1) return Usage("bad --trace");
      a->trace = static_cast<int>(n);
    } else if (flag == "--work-dir") {
      a->work_dir = v;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!a->self_test && FindWorkload(a->workload) == nullptr) {
    return Usage("unknown or missing --workload");
  }
  return 0;
}

// ---- Output ----------------------------------------------------------------

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Compact form for configuration values.
std::string Short(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += (ch == '\n') ? ' ' : ch;
  }
  return out + "\"";
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  int64_t samples = -1;       ///< latency sample count; -1 = not a latency
  std::vector<double> parts;  ///< the per-slice values `value` is a median of
};

/// Measured and kept in the report line, but not in the result object:
/// a kNN waits out every in-flight op at the compound-SMO gate, so its
/// tail follows the shared host's stalls, and its run-to-run spread
/// (0.10-0.25 of the median) is too wide to bound (see README.md).
bool ReportOnly(const Metric& m) { return m.name == "knn_p99_us"; }

/// `detail` (the report line) adds each metric's sample count and
/// per-slice values and keeps the report-only metrics; without it each
/// object has exactly value and unit.
std::string MetricsJson(const std::vector<Metric>& ms, bool detail) {
  std::string out = "{";
  for (const Metric& m : ms) {
    if (!detail && ReportOnly(m)) continue;
    if (out.size() > 1) out += ", ";
    out += Quote(m.name) + ": {\"value\": " + Num(m.value) +
           ", \"unit\": " + Quote(m.unit);
    if (detail && m.samples >= 0) {
      out += ", \"samples\": " + std::to_string(m.samples);
    }
    if (detail && !m.parts.empty()) {
      out += ", \"slices\": [";
      for (size_t j = 0; j < m.parts.size(); ++j) {
        out += (j ? ", " : "") + Num(m.parts[j]);
      }
      out += "]";
    }
    out += "}";
  }
  return out + "}";
}

/// Per-layer metric table: name and unit, in report order. The probe and
/// the counter deltas fill the values by name.
const std::vector<std::pair<const char*, const char*>>& LayerTable() {
  static const std::vector<std::pair<const char*, const char*>> kTable = {
      {"ingest.ops_per_batch", "count"},
      {"ingest.abort_retries_per_kop", "count/kop"},
      {"ingest.submit_us", "us"},
      {"ingest.complete_us", "us"},
      {"ingest.self_us", "us"},
      {"cc.dgl_acq_per_op", "count/op"},
      {"cc.dgl_waits_per_kop", "count/kop"},
      {"cc.dgl_aborts_per_kop", "count/kop"},
      {"cc.latch_try_fail_ratio", "ratio"},
      {"cc.descent_restarts_per_kop", "count/kop"},
      {"cc.coupled_escalations_per_kop", "count/kop"},
      {"cc.compound_smos_per_kop", "count/kop"},
      {"cc.optimistic_fallbacks_per_kop", "count/kop"},
      {"cc.pruned_query_ratio", "ratio"},
      {"cc.update_us", "us"},
      {"cc.query_us", "us"},
      {"cc.knn_us", "us"},
      {"cc.update_self_us", "us"},
      {"cc.query_self_us", "us"},
      {"cc.scaling_4c_over_1c", "x"},
      {"update.path_share.in_place", "ratio"},
      {"update.path_share.extend", "ratio"},
      {"update.path_share.sibling", "ratio"},
      {"update.path_share.ascend", "ratio"},
      {"update.path_share.root_insert", "ratio"},
      {"update.strategy_us", "us"},
      {"update.executor_query_us", "us"},
      {"rtree.query_us", "us"},
      {"rtree.leaf_splits_per_kop", "count/kop"},
      {"rtree.condenses_per_kop", "count/kop"},
      {"rtree.height", "levels"},
      {"oid_index.lookup_us", "us"},
      {"storage.hash_reads_per_op", "count/op"},
      {"summary.table_bytes", "B"},
      {"summary.pruning_saving_us", "us"},
      {"buffer.hit_ratio", "ratio"},
      {"buffer.fetches_per_op", "count/op"},
      {"buffer.evictions_per_op", "count/op"},
      {"buffer.shard_imbalance", "ratio"},
      {"buffer.hit_fetch_us", "us"},
      {"buffer.miss_fetch_us", "us"},
      {"storage.tree_reads_per_op", "count/op"},
      {"storage.tree_writes_per_op", "count/op"},
      {"storage.read_us", "us"},
      {"wal.bytes_per_update", "B/update"},
      {"wal.updates_per_fsync", "count"},
      {"wal.fsyncs_per_s", "1/s"},
      {"wal.durable_wait_us", "us"},
  };
  return kTable;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// p50 and p99 of one op type. The p50 is the median of the per-slice
/// p50s. The p99 is taken per group of consecutive slices, with as many
/// groups as keep at least kTailSamples samples in each, so every group's
/// p99 has ten samples beyond it. The result is the lower quartile of the
/// group p99s: interference from other tenants of the shared host only
/// adds time and inflates tails far more than medians, and it comes in
/// periods of seconds, so the least disturbed quarter of the window is
/// the steady estimate of the index's own tail.
void AddLatency(std::vector<Metric>* ms, const char* name,
                const std::vector<Client>& clients, Samples Client::*field) {
  constexpr size_t kTailSamples = 1000;
  std::vector<std::vector<uint64_t>> slices(kSlices);
  size_t n = 0;
  for (int s = 0; s < kSlices; ++s) {
    for (const Client& c : clients) {
      const std::vector<uint64_t>& v = (c.*field).ns[s];
      slices[s].insert(slices[s].end(), v.begin(), v.end());
    }
    n += slices[s].size();
  }
  std::vector<double> p50, p99;
  for (std::vector<uint64_t>& slice : slices) {
    if (!slice.empty()) p50.push_back(PercentileUs(slice, 50.0));
  }
  const size_t groups =
      std::clamp<size_t>(n / kTailSamples, 1, static_cast<size_t>(kSlices));
  for (size_t g = 0; g < groups; ++g) {
    std::vector<uint64_t> group;
    for (size_t s = g * kSlices / groups; s < (g + 1) * kSlices / groups; ++s) {
      group.insert(group.end(), slices[s].begin(), slices[s].end());
    }
    if (!group.empty()) p99.push_back(PercentileUs(group, 99.0));
  }
  const auto count = static_cast<int64_t>(n);
  ms->push_back({std::string(name) + "_p50_us", "us", Median(p50), count, p50});
  ms->push_back(
      {std::string(name) + "_p99_us", "us", Quantile(p99, 0.25), count, p99});
}

Status WriteSpans(const std::string& path,
                  const std::vector<Client>& clients) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  std::fprintf(f, "client,request,parent,name,start_ns,end_ns\n");
  for (const Client& c : clients) {
    for (const Span& s : c.spans) {
      std::fprintf(f, "%u,%" PRIu64 ",%" PRIu64 ",%s,%" PRId64 ",%" PRId64 "\n",
                   c.id, s.request, s.parent, kSpanNames[s.name], s.start_ns,
                   s.end_ns);
    }
  }
  return std::fclose(f) == 0 ? Status::OK()
                             : Status::IoError("cannot write " + path);
}

int Run(const Args& args) {
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  const bool trace = args.trace == 1;
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  std::string scratch = args.work_dir + "/run-XXXXXX";
  if (ec || mkdtemp(scratch.data()) == nullptr) {
    std::fprintf(stderr, "perfbench: cannot create a scratch directory in %s\n",
                 args.work_dir.c_str());
    return 2;
  }
  // Declared before the fixture, so it is removed after the fixture has
  // closed its files, on every return path.
  struct RemoveOnExit {
    std::string path;
    ~RemoveOnExit() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } scratch_guard{scratch};

  std::ostringstream config;
  config << "{\"workload\": " << Quote(spec.name)
         << ", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
         << ", \"trace\": " << args.trace << ", \"objects\": " << kObjects
         << ", \"clients\": " << kClients
         << ", \"distribution\": \"uniform\", \"max_move\": " << Short(kMaxMove)
         << ", \"query_max_dim\": " << Short(kQueryMaxDim)
         << ", \"knn_k\": " << kKnnK << ", \"update_share\": "
         << Short(spec.update_share) << ", \"query_share\": "
         << Short(spec.query_share) << ", \"knn_share\": "
         << Short(1.0 - spec.update_share - spec.query_share)
         << ", \"strategy\": \"GBU\", \"latch_mode\": \"coupled\""
         << ", \"read_mode\": \"optimistic\", \"build\": \"STR\""
         << ", \"bulk_fill\": " << Short(kBulkFill)
         << ", \"page_size\": " << kPageSize
         << ", \"backend\": " << Quote(spec.durable ? "file" : "mem")
         << ", \"io_engine\": \"sync\", \"wal\": "
         << (spec.durable ? "true" : "false")
         << ", \"group_commit_us\": " << kGroupCommitUs
         << ", \"pool_fraction\": " << Short(spec.pool_fraction)
         << ", \"buffer_shards\": " << kBufferShards
         << ", \"ingest\": " << (spec.durable ? "\"workers=2,batch=64\"" : "null")
         << ", \"in_flight_per_client\": " << (spec.durable ? kInFlight : 1)
         << ", \"setups\": " << kSetups << ", \"warmup_s\": "
         << Short(spec.warmup_s) << "}";
  std::printf("# config %s\n", config.str().c_str());
  std::fflush(stdout);

  // ---- Setup, kSetups times; the last fixture is kept. ----
  World world;
  world.spec = &spec;
  auto fx = std::make_unique<Fixture>();
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    fx.reset();  // tear-down is not set-up time
    const Clock::time_point t0 = Clock::now();
    Gen gen(SubSeed(args.seed, 0x1417));
    std::vector<Point> positions(kObjects);
    for (Point& p : positions) p = gen.UniformPoint();
    fx = std::make_unique<Fixture>();
    const Status st = BuildFixture(spec, positions, scratch, fx.get());
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    setup_s.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    world.acked = std::move(positions);
  }
  world.fx = fx.get();
  if (spec.durable) world.submitted = world.acked;
  world.epoch = Clock::now();

  std::vector<Client> clients(kClients);
  for (uint32_t i = 0; i < kClients; ++i) {
    clients[i].id = i;
    clients[i].lo = kObjects * i / kClients;
    clients[i].hi = kObjects * (i + 1) / kClients;
  }

  // ---- Untimed warm-up: page the tree in (it fits on the mem
  // workloads), then run the mix until the pool and the log settle. ----
  uint64_t failed = 0;
  if (!spec.durable) {
    const Status st = fx->system->tree().Query(
        Rect(0.0, 0.0, 1.0, 1.0), [](ObjectId, const Rect&) {});
    if (!st.ok()) ++failed;
  }
  failed += RunPass(world, clients, spec.warmup_s, args.seed, 0, false, false)
                .failed;

  // ---- Measured window. ----
  const Counters before = TakeCounters(*fx);
  const PassResult window =
      RunPass(world, clients, args.seconds, args.seed, 1, true, trace);
  const Counters after = TakeCounters(*fx);
  failed += window.failed;
  uint64_t durable_lsn = 0, appended_lsn = 0;
  if (fx->wal() != nullptr) {
    durable_lsn = fx->wal()->durable_lsn();
    appended_lsn = fx->wal()->appended_lsn();
  }

  std::vector<Metric> e2e;
  e2e.push_back({"setup_s", "s", Median(setup_s), -1, setup_s});
  e2e.push_back({"ops_per_s", "1/s", window.ops_per_s, -1,
                 window.slice_ops_per_s});
  AddLatency(&e2e, "update", clients, &Client::update);
  AddLatency(&e2e, "query", clients, &Client::query);
  AddLatency(&e2e, "knn", clients, &Client::knn);
  uint64_t queries = 0;
  for (const Client& c : clients) queries += c.queries_done;

  // ---- Traced extras: counters, one-client pass, layer probe. ----
  MetricMap layers;
  if (trace) {
    CounterMetrics(before, after, window, queries, *fx, &layers);
    std::vector<uint64_t> waits;
    for (const Client& c : clients) {
      waits.insert(waits.end(), c.durable_wait_ns.begin(),
                   c.durable_wait_ns.end());
    }
    layers["wal.durable_wait_us"] = MedianUs(waits);
    std::vector<Client> one(1);
    one[0].id = 0;
    one[0].lo = clients[0].lo;
    one[0].hi = clients[0].hi;
    one[0].seq = clients[0].seq;
    const double one_s = std::max(2.0, args.seconds / 3.0);
    const PassResult single =
        RunPass(world, one, one_s, args.seed, 2, false, true);
    failed += single.failed;
    layers["cc.scaling_4c_over_1c"] = window.ops_per_s / single.ops_per_s;
    const Status st = RunProbe(world, args.seed, &layers);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: probe failed: %s\n",
                   st.ToString().c_str());
      ++failed;
    }
  }

  // ---- Checks on the quiesced index. ----
  IndexSystem& sys = *fx->system;
  std::vector<CheckResult> checks;
  checks.push_back(CheckNoFailures(failed, window.attempted));
  if (spec.durable) checks.push_back(CheckDurable(durable_lsn, appended_lsn));
  checks.push_back(CheckValidate(sys));
  checks.push_back(CheckPopulation(sys, kObjects));
  checks.push_back(CheckPositions(sys, SampleOids(clients, 1000, args.seed),
                                  world.acked));
  bool correct = true;
  for (const CheckResult& c : checks) {
    correct = correct && c.ok;
    std::fprintf(stderr, "check %-12s %s  %s\n", c.name.c_str(),
                 c.ok ? "ok  " : "FAIL", c.detail.c_str());
  }
  for (const Client& c : clients) {
    if (!c.first_error.empty()) {
      std::fprintf(stderr, "client %u first error: %s\n", c.id,
                   c.first_error.c_str());
    }
  }

  const double pages = static_cast<double>(sys.file().live_pages() +
                                           sys.oid_index()->page_count());
  e2e.push_back({"store_bytes_per_object", "B",
                 pages * static_cast<double>(kPageSize) /
                     static_cast<double>(kObjects),
                 -1, {}});
  e2e.push_back({"peak_rss_mb", "MB", PeakRssMb(), -1, {}});

  std::string trace_path;
  if (trace) {
    trace_path = args.work_dir + "/spans-" + spec.name + ".csv";
    const Status st = WriteSpans(trace_path, clients);
    if (!st.ok()) std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
  }

  std::vector<Metric> layer_metrics;
  for (const auto& [name, unit] : LayerTable()) {
    layer_metrics.push_back(
        {name, unit, layers.count(name) ? layers[name] : 0.0, -1, {}});
  }

  // ---- Report. ----
  std::string check_json = "[";
  for (size_t i = 0; i < checks.size(); ++i) {
    check_json += std::string(i ? ", " : "") + "{\"name\": " +
                  Quote(checks[i].name) + ", \"ok\": " +
                  (checks[i].ok ? "true" : "false") +
                  ", \"detail\": " + Quote(checks[i].detail) + "}";
  }
  check_json += "]";
  std::printf(
      "# report {\"config\": %s, \"window_s\": %s, "
      "\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"end_to_end\": %s, \"per_layer\": %s, \"checks\": %s, "
      "\"spans\": %s}\n",
      config.str().c_str(), Num(window.elapsed_s).c_str(),
      window.attempted, failed, MetricsJson(e2e, true).c_str(),
      trace ? MetricsJson(layer_metrics, false).c_str() : "null",
      check_json.c_str(), trace ? Quote(trace_path).c_str() : "null");
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
              correct ? "true" : "false", window.attempted, failed,
              MetricsJson(trace ? layer_metrics : e2e, false).c_str());
  std::fflush(stdout);

  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (const int rc = perfbench::ParseArgs(argc, argv, &args); rc != 0) {
    return rc;
  }
  if (args.self_test) return perfbench::RunSelfTest(args.work_dir);
  return perfbench::Run(args);
}
