// Shared declarations of the burtree benchmark program: the workload
// table, the seeded input generator, the assembled index fixture, the
// client load loops, the single-threaded layer probe and the post-run
// correctness checks. The benchmark reaches burtree only through its public
// headers; the library never sees anything but the generated inputs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cc/concurrent_index.h"
#include "ingest/ingest_pool.h"
#include "update/gbu.h"
#include "update/index_system.h"
#include "update/query_executor.h"

namespace perfbench {

using burtree::ObjectId;
using burtree::Point;
using burtree::Rect;
using burtree::Status;

// ---- Fixed configuration (printed with every run) -------------------------

inline constexpr uint64_t kObjects = 1'000'000;   // GSTD-uniform points
inline constexpr uint32_t kClients = 4;           // nproc of the test box
inline constexpr double kMaxMove = 0.001;         // per-report displacement
inline constexpr double kQueryMaxDim = 0.01;      // window side in [0, 0.01]
inline constexpr size_t kKnnK = 10;
inline constexpr size_t kBufferShards = 64;
inline constexpr size_t kPageSize = 1024;
inline constexpr double kBulkFill = 0.66;         // STR node utilization
inline constexpr uint32_t kIngestWorkers = 2;
inline constexpr size_t kIngestBatch = 64;
inline constexpr size_t kInFlight = 32;           // per durable client
inline constexpr uint64_t kGroupCommitUs = 200;
inline constexpr int kSetups = 5;                 // setup_s = their median
inline constexpr uint64_t kTraceEvery = 8;        // span sampling stride
/// The measured window is cut into kSlices equal slices. Throughput and
/// p50s are medians of per-slice values, so a transient stall of the
/// shared host moves one slice, not the result. See AddLatency for p99.
inline constexpr int kSlices = 15;

/// One benchmark workload. Shares are per client op: an update with
/// probability update_share, a window query with query_share, a kNN
/// query otherwise.
struct WorkloadSpec {
  const char* name;
  bool durable;          ///< file backend + WAL + IngestPool write path
  double update_share;
  double query_share;
  double pool_fraction;  ///< tree buffer pool as a share of tree pages
  double warmup_s;       ///< untimed mixed-load warm-up before the window
  const char* why;
};

const WorkloadSpec* FindWorkload(const std::string& name);
const std::vector<WorkloadSpec>& Workloads();

// ---- Seeded input generation ----------------------------------------------

/// xoshiro256** seeded through splitmix64. The benchmark owns its
/// generator so that its inputs do not change when the library's
/// workload module does.
class Gen {
 public:
  explicit Gen(uint64_t seed);
  uint64_t Next();
  double Uniform();                 ///< [0, 1)
  uint64_t Below(uint64_t n);       ///< [0, n), n > 0
  Point UniformPoint() { return Point{Uniform(), Uniform()}; }
  /// GSTD move: uniform distance in [0, kMaxMove], uniform direction,
  /// reflected off the unit-square walls.
  Point Move(const Point& from);
  /// Window with width and height uniform in [0, kQueryMaxDim].
  Rect Window();

 private:
  uint64_t s_[4];
};

/// Derives an independent stream seed from the run seed and a salt.
uint64_t SubSeed(uint64_t seed, uint64_t salt);

// ---- The assembled index --------------------------------------------------

/// IndexSystem + GBU strategy + summary-pruned executor + ConcurrentIndex
/// (coupled latching, optimistic reads) and, on durable workloads, the
/// IngestPool. Members are declared so that destruction runs top-down:
/// the pool drains before the index it feeds, the index before the
/// system it wraps.
struct Fixture {
  std::unique_ptr<burtree::IndexSystem> system;
  std::unique_ptr<burtree::GeneralizedBottomUpStrategy> strategy;
  std::unique_ptr<burtree::QueryExecutor> executor;
  std::unique_ptr<burtree::ConcurrentIndex> index;
  std::unique_ptr<burtree::IngestPool> ingest;

  burtree::WalManager* wal() const { return system->wal(); }
};

/// Builds, STR-loads, sizes the pool and checkpoints a fixture over
/// `positions` (oid = index). `scratch_dir` holds the durable workload's
/// page and log files.
Status BuildFixture(const WorkloadSpec& spec,
                    const std::vector<Point>& positions,
                    const std::string& scratch_dir, Fixture* out);

// ---- Client load ----------------------------------------------------------

/// One span recorded by the benchmark around its own call into a layer.
/// Times are nanoseconds since the run's trace epoch.
struct Span {
  uint64_t request = 0;  ///< shared by every span of one client request
  uint64_t parent = 0;   ///< request id of the causing span (0 = root)
  uint32_t name = 0;     ///< index into kSpanNames
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

extern const char* const kSpanNames[];
enum SpanName : uint32_t {
  kSpanCcUpdate,
  kSpanCcQuery,
  kSpanCcKnn,
  kSpanClientUpdate,   ///< durable: submit -> durable acknowledgement
  kSpanIngestSubmit,
  kSpanIngestWait,     ///< durable: wait for the oldest in-flight handle
  kSpanWalWaitDurable,
};

/// Latency samples (ns) of one op type, by window slice of completion.
struct Samples {
  std::vector<uint64_t> ns[kSlices];
  void Clear() {
    for (auto& v : ns) v.clear();
  }
};

/// Per-client state; owned by main() so positions and samples
/// survive across passes.
struct Client {
  uint32_t id = 0;
  ObjectId lo = 0;  ///< owned oids [lo, hi)
  ObjectId hi = 0;
  uint64_t seq = 0;  ///< request counter (span ids, trace sampling)
  // Per-pass outputs (cleared by RunPass).
  Samples update, query, knn;
  uint64_t done[kSlices] = {};  ///< ops counted in ops_per_s, by slice
  std::vector<uint64_t> durable_wait_ns;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t updates_done = 0;
  uint64_t queries_done = 0;  ///< window queries (the pruned-ratio base)
  std::string first_error;
  std::vector<Span> spans;
};

/// Shared client-side state: the last acknowledged position of every
/// object and, on durable workloads, the last submitted one.
struct World {
  const WorkloadSpec* spec = nullptr;
  Fixture* fx = nullptr;
  std::vector<Point> acked;
  std::vector<Point> submitted;
  std::chrono::steady_clock::time_point epoch;
};

struct PassResult {
  double elapsed_s = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t updates = 0;
  /// Median over slices of the ops completed in the slice per second
  /// (all ops on the mem workloads, durable acknowledgements on the
  /// durable one).
  double ops_per_s = 0.0;
  std::vector<double> slice_ops_per_s;
};

/// Runs `clients` concurrently for `seconds` (closed loop; the durable
/// workload keeps kInFlight reports outstanding per client) and joins
/// them. `record` keeps latency samples, `trace` keeps spans. Each pass
/// seeds the clients' generators from (seed, pass). Ops completing after
/// the window (the durable clients' drain) count in no slice.
PassResult RunPass(World& world, std::vector<Client>& clients,
                   double seconds, uint64_t seed, uint64_t pass,
                   bool record, bool trace);

// ---- Window counters ------------------------------------------------------

/// Snapshot of every public stats accessor on the op path.
struct Counters {
  burtree::LockStats lock;
  burtree::LatchModeStats latch;
  burtree::LatchTableStats latch_table;
  burtree::UpdatePathCounts paths;
  burtree::RTreeStats tree;
  burtree::BufferPoolStats buffer;
  burtree::IoSnapshot tree_io;
  burtree::IoSnapshot hash_io;
  burtree::WalStats wal;
  burtree::IngestStats ingest;
};
Counters TakeCounters(Fixture& fx);

/// Per-layer metric values by name; main.cc's table fixes their order
/// and units.
using MetricMap = std::map<std::string, double>;

/// Window-delta counter metrics of the traced run.
void CounterMetrics(const Counters& before, const Counters& after,
                    const PassResult& pass, uint64_t queries,
                    const Fixture& fx, MetricMap* out);

/// Single-threaded probe on the quiesced index: the same sampled ops
/// issued one layer lower each time; fills the per-layer *_us metrics.
/// Moves sampled objects (keeping world.acked current).
Status RunProbe(World& world, uint64_t seed, MetricMap* out);

// ---- Correctness checks ---------------------------------------------------

struct CheckResult {
  std::string name;
  bool ok = false;
  std::string detail;
};

CheckResult CheckValidate(burtree::IndexSystem& sys);
CheckResult CheckPopulation(burtree::IndexSystem& sys, uint64_t expected);
/// Every sampled oid is stored exactly at `expected[oid]`.
CheckResult CheckPositions(burtree::IndexSystem& sys,
                           const std::vector<ObjectId>& oids,
                           const std::vector<Point>& expected);
CheckResult CheckNoFailures(uint64_t failed, uint64_t attempted);
CheckResult CheckDurable(uint64_t durable_lsn, uint64_t required_lsn);

/// Deterministic per-client sample of owned oids for CheckPositions.
std::vector<ObjectId> SampleOids(const std::vector<Client>& clients,
                                 size_t per_client, uint64_t seed);

/// Runs every check against a small durable index, first with the true
/// expectations (all must pass), then with a deliberately wrong one each
/// (each must fail). Returns the process exit code.
int RunSelfTest(const std::string& work_dir);

// ---- Helpers --------------------------------------------------------------

/// Nearest-rank percentile of nanosecond samples, in microseconds;
/// reorders `v`. 0 for an empty vector. The benchmark keeps its own
/// statistics so that no library change can alter how it measures.
double PercentileUs(std::vector<uint64_t>& v, double p);
double MedianUs(std::vector<uint64_t>& v);
/// Linearly interpolated quantile q in [0, 1] of the values (0 for none).
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

inline int64_t NsSince(std::chrono::steady_clock::time_point epoch) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

}  // namespace perfbench
