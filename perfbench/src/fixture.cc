// Workload table, seeded input generation and index assembly.
#include <cmath>

#include "bench.h"

namespace perfbench {

using namespace burtree;

const std::vector<WorkloadSpec>& Workloads() {
  // track_mem carries a thin kNN share and durable_ingest thin query and
  // kNN shares so that every workload reports every op type's latency;
  // 0.1% still yields over 1000 kNN samples in a 15 s window. The
  // dominant mix is the one each rationale describes.
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"track_mem", false, 0.95, 0.049, 1.25, 1.0,
       "95% small moves in RAM: DGL, latches and the GBU leaf-local "
       "update path, with storage idle"},
      {"query_mem", false, 0.10, 0.88, 1.25, 1.0,
       "88% window queries beside 10% moves and 2% kNN: buffer hit path, "
       "summary-pruned optimistic reads, compound-SMO gate"},
      {"durable_ingest", true, 0.979, 0.02, 0.01, 2.0,
       "durable position reports through IngestPool, WAL group commit "
       "and a 1% pool on the file backend: miss path, storage, WAL"},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

namespace {
uint64_t SplitMix(uint64_t& x) {
  uint64_t z = (x += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}
uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  uint64_t x = seed ^ Rotl(salt * 0xD1B54A32D192ED03ULL, 17);
  return SplitMix(x);
}

Gen::Gen(uint64_t seed) {
  for (uint64_t& s : s_) s = SplitMix(seed);
}

uint64_t Gen::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Gen::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t Gen::Below(uint64_t n) {
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(Next()) * n) >> 64);
}

Point Gen::Move(const Point& from) {
  const double dist = Uniform() * kMaxMove;
  const double angle = Uniform() * 2.0 * M_PI;
  double x = from.x + dist * std::cos(angle);
  double y = from.y + dist * std::sin(angle);
  if (x < 0.0) x = -x;
  if (x > 1.0) x = 2.0 - x;
  if (y < 0.0) y = -y;
  if (y > 1.0) y = 2.0 - y;
  return Point{x, y};
}

Rect Gen::Window() {
  const double w = Uniform() * kQueryMaxDim;
  const double h = Uniform() * kQueryMaxDim;
  const double x = Uniform() * (1.0 - w);
  const double y = Uniform() * (1.0 - h);
  return Rect(x, y, x + w, y + h);
}

Status BuildFixture(const WorkloadSpec& spec,
                    const std::vector<Point>& positions,
                    const std::string& scratch_dir, Fixture* out) {
  IndexSystemOptions opts;
  opts.tree.page_size = kPageSize;
  opts.buffer_shards = kBufferShards;
  opts.storage.backend =
      spec.durable ? StorageBackend::kFile : StorageBackend::kMem;
  opts.storage.io_engine = IoEngineKind::kSync;
  if (spec.durable) {
    opts.storage.file_dir = scratch_dir;
    opts.storage.wal.enabled = true;
    opts.storage.wal.dir = scratch_dir;
    opts.storage.wal.group_commit_us = kGroupCommitUs;
  }
  opts.enable_oid_index = true;
  opts.enable_summary = true;
  opts.hash = HashIndexOptions::MemoryResident();
  opts.hash.page_size = kPageSize;
  opts.hash.buffer_shards = kBufferShards;
  opts.hash.storage = opts.storage;
  opts.hash.storage.wal = WalOptions{};  // the hash index is rebuildable
  if (spec.durable) {
    opts.ingest.workers = kIngestWorkers;
    opts.ingest.max_batch = kIngestBatch;
  }

  Fixture fx;
  fx.system = std::make_unique<IndexSystem>(opts);
  IndexSystem& sys = *fx.system;
  std::vector<LeafEntry> entries;
  entries.reserve(positions.size());
  for (ObjectId oid = 0; oid < positions.size(); ++oid) {
    entries.push_back(LeafEntry{Rect::FromPoint(positions[oid]), oid});
  }
  Status st = sys.BulkLoad(std::move(entries), kBulkFill);
  if (!st.ok()) return st;
  sys.SetBufferFraction(spec.pool_fraction);
  st = sys.Checkpoint();
  if (!st.ok()) return st;
  st = sys.FlushAll();
  if (!st.ok()) return st;

  fx.strategy = std::make_unique<GeneralizedBottomUpStrategy>(&sys,
                                                              GbuOptions{});
  fx.executor = std::make_unique<QueryExecutor>(&sys, /*use_summary=*/true);
  ConcurrencyOptions copts;
  copts.io_latency_us = 0;  // real time only: no simulated disk charge
  copts.latch_mode = LatchMode::kCoupled;
  copts.read_mode = ReadMode::kOptimistic;
  fx.index = std::make_unique<ConcurrentIndex>(&sys, fx.strategy.get(),
                                               fx.executor.get(), copts);
  if (spec.durable) {
    fx.ingest = std::make_unique<IngestPool>(fx.index.get(), opts.ingest);
  }
  *out = std::move(fx);
  return Status::OK();
}

}  // namespace perfbench
