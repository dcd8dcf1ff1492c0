// Per-layer measurement: window deltas of the public stats accessors,
// and the single-threaded probe that issues the same sampled ops one
// layer lower each time so that each layer's self time is a difference
// of medians.
#include <algorithm>

#include "bench.h"

namespace perfbench {

using namespace burtree;

namespace {

using Clock = std::chrono::steady_clock;

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double D(uint64_t after, uint64_t before) {
  return static_cast<double>(after - before);
}

uint64_t Ns(Clock::time_point t0, Clock::time_point t1) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

template <typename Fn>
uint64_t TimeNs(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return Ns(t0, Clock::now());
}

constexpr size_t kProbeUpdates = 2000;
constexpr size_t kProbeQueries = 1000;
constexpr size_t kProbeKnn = 200;
constexpr size_t kProbeMisses = 1000;
constexpr size_t kMissPoolFrames = 256;

}  // namespace

Counters TakeCounters(Fixture& fx) {
  IndexSystem& sys = *fx.system;
  Counters c;
  c.lock = fx.index->lock_manager().stats();
  c.latch = fx.index->latch_stats();
  c.latch_table = fx.index->latch_table_stats();
  c.paths = fx.strategy->path_counts();
  c.tree = sys.tree().stats();
  c.buffer = sys.buffer().pool_stats();
  c.tree_io = IoSnapshot::Take(sys.file().io_stats());
  c.hash_io = IoSnapshot::Take(sys.oid_index()->io_stats());
  if (fx.wal() != nullptr) c.wal = fx.wal()->stats();
  if (fx.ingest != nullptr) c.ingest = fx.ingest->stats();
  return c;
}

void CounterMetrics(const Counters& b, const Counters& a,
                    const PassResult& pass, uint64_t queries,
                    const Fixture& fx, MetricMap* out) {
  MetricMap& m = *out;
  const double ops = static_cast<double>(pass.attempted);
  const double kops = ops / 1000.0;
  const double updates = static_cast<double>(pass.updates);

  m["ingest.ops_per_batch"] =
      Ratio(D(a.ingest.batched_ops, b.ingest.batched_ops),
            D(a.ingest.batches, b.ingest.batches));
  m["ingest.abort_retries_per_kop"] =
      Ratio(D(a.ingest.abort_retries, b.ingest.abort_retries), kops);

  m["cc.dgl_acq_per_op"] =
      Ratio(D(a.lock.acquisitions, b.lock.acquisitions), ops);
  m["cc.dgl_waits_per_kop"] = Ratio(D(a.lock.waits, b.lock.waits), kops);
  m["cc.dgl_aborts_per_kop"] = Ratio(D(a.lock.aborts, b.lock.aborts), kops);
  m["cc.latch_try_fail_ratio"] =
      Ratio(D(a.latch_table.try_failures, b.latch_table.try_failures),
            D(a.latch_table.try_acquires, b.latch_table.try_acquires));
  m["cc.descent_restarts_per_kop"] =
      Ratio(D(a.latch.descent_restarts, b.latch.descent_restarts), kops);
  m["cc.coupled_escalations_per_kop"] =
      Ratio(D(a.latch.coupled_escalations, b.latch.coupled_escalations),
            kops);
  m["cc.compound_smos_per_kop"] =
      Ratio(D(a.latch.compound_smos, b.latch.compound_smos), kops);
  m["cc.optimistic_fallbacks_per_kop"] =
      Ratio(D(a.latch.optimistic_fallbacks, b.latch.optimistic_fallbacks),
            kops);
  m["cc.pruned_query_ratio"] =
      Ratio(D(a.latch.pruned_queries, b.latch.pruned_queries),
            static_cast<double>(queries));

  const double paths = D(a.paths.total(), b.paths.total());
  m["update.path_share.in_place"] =
      Ratio(D(a.paths.in_place, b.paths.in_place), paths);
  m["update.path_share.extend"] =
      Ratio(D(a.paths.extend, b.paths.extend), paths);
  m["update.path_share.sibling"] =
      Ratio(D(a.paths.sibling, b.paths.sibling), paths);
  m["update.path_share.ascend"] =
      Ratio(D(a.paths.ascend, b.paths.ascend), paths);
  m["update.path_share.root_insert"] =
      Ratio(D(a.paths.root_insert, b.paths.root_insert), paths);

  m["rtree.leaf_splits_per_kop"] =
      Ratio(D(a.tree.leaf_splits, b.tree.leaf_splits), kops);
  m["rtree.condenses_per_kop"] =
      Ratio(D(a.tree.underflow_condenses, b.tree.underflow_condenses), kops);
  m["rtree.height"] = fx.system->tree().height();

  m["storage.hash_reads_per_op"] = Ratio(D(a.hash_io.reads, b.hash_io.reads),
                                         ops);
  m["summary.table_bytes"] =
      static_cast<double>(fx.system->summary()->table_bytes());

  // Buffer: totals and the per-shard spread of the window's fetches.
  uint64_t hits = 0, misses = 0, evictions = 0, max_shard = 0;
  const size_t shards = a.buffer.shards.size();
  for (size_t s = 0; s < shards; ++s) {
    const BufferStats& sa = a.buffer.shards[s];
    const BufferStats& sb = b.buffer.shards[s];
    const uint64_t h = sa.hits - sb.hits;
    const uint64_t mi = sa.misses - sb.misses;
    hits += h;
    misses += mi;
    evictions += sa.evictions - sb.evictions;
    max_shard = std::max(max_shard, h + mi);
  }
  const double fetches = static_cast<double>(hits + misses);
  m["buffer.hit_ratio"] = Ratio(static_cast<double>(hits), fetches);
  m["buffer.fetches_per_op"] = Ratio(fetches, ops);
  m["buffer.evictions_per_op"] = Ratio(static_cast<double>(evictions), ops);
  m["buffer.shard_imbalance"] =
      Ratio(static_cast<double>(max_shard) * static_cast<double>(shards),
            fetches);

  m["storage.tree_reads_per_op"] = Ratio(D(a.tree_io.reads, b.tree_io.reads),
                                         ops);
  m["storage.tree_writes_per_op"] =
      Ratio(D(a.tree_io.writes, b.tree_io.writes), ops);

  const double fsyncs = D(a.wal.fsyncs, b.wal.fsyncs);
  m["wal.bytes_per_update"] =
      Ratio(D(a.wal.appended_bytes, b.wal.appended_bytes), updates);
  m["wal.updates_per_fsync"] = Ratio(updates, fsyncs);
  m["wal.fsyncs_per_s"] = Ratio(fsyncs, pass.elapsed_s);
}

Status RunProbe(World& world, uint64_t seed, MetricMap* out) {
  Fixture& fx = *world.fx;
  IndexSystem& sys = *fx.system;
  BufferPool& pool = sys.buffer();
  Gen rng(SubSeed(seed, 0x9e0be));
  const bool track_submitted = !world.submitted.empty();

  // Mem workloads run no ingest pool; the probe brings up an idle one so
  // the ingest layer's fixed cost is priced on every workload.
  std::unique_ptr<IngestPool> temp_pool;
  IngestPool* ingest = fx.ingest.get();
  if (ingest == nullptr) {
    IngestOptions io;
    io.workers = kIngestWorkers;
    io.max_batch = kIngestBatch;
    temp_pool = std::make_unique<IngestPool>(fx.index.get(), io);
    ingest = temp_pool.get();
  }

  std::vector<uint64_t> submit, complete, cc_update, strategy, lookup,
      hit_fetch, store_read;
  std::vector<uint8_t> page_buf(sys.file().page_size());
  Status err;
  auto move = [&](ObjectId oid, const auto& call) {
    const Point from = world.acked[oid];
    const Point to = rng.Move(from);
    const Status st = call(oid, from, to);
    if (!st.ok()) {
      if (err.ok()) err = st;
      return;
    }
    world.acked[oid] = to;
    if (track_submitted) world.submitted[oid] = to;
  };

  for (size_t i = 0; i < kProbeUpdates && err.ok(); ++i) {
    const ObjectId oid = rng.Below(world.acked.size());
    // Untimed touch: every timed level then runs on a resident leaf
    // (the miss path is priced separately below).
    StatusOr<PageId> leaf = sys.oid_index()->Lookup(oid);
    if (!leaf.ok()) return leaf.status();
    StatusOr<Page*> pg = pool.FetchPage(leaf.value());
    if (!pg.ok()) return pg.status();
    pool.UnpinPage(leaf.value(), false);

    move(oid, [&](ObjectId o, const Point& f, const Point& t) {
      UpdateHandle h;
      const Clock::time_point t0 = Clock::now();
      h = ingest->SubmitUpdate(o, f, t);
      const Clock::time_point t1 = Clock::now();
      const Status st = h.Wait();
      const Clock::time_point t2 = Clock::now();
      submit.push_back(Ns(t0, t1));
      complete.push_back(Ns(t0, t2));
      return st;
    });
    move(oid, [&](ObjectId o, const Point& f, const Point& t) {
      Status st;
      cc_update.push_back(TimeNs([&] { st = fx.index->Update(o, f, t); }));
      return st;
    });
    move(oid, [&](ObjectId o, const Point& f, const Point& t) {
      Status st;
      strategy.push_back(TimeNs([&] {
        WalOpScope scope(sys.wal());  // one record per update, as in cc
        st = fx.strategy->Update(o, f, t).status();
      }));
      return st;
    });
    StatusOr<PageId> found = Status::NotFound();
    lookup.push_back(TimeNs([&] { found = sys.oid_index()->Lookup(oid); }));
    if (!found.ok()) return found.status();
    const PageId page = found.value();
    pg = pool.FetchPage(page);  // make resident, then time a pure hit
    if (!pg.ok()) return pg.status();
    pool.UnpinPage(page, false);
    Status fst;
    hit_fetch.push_back(TimeNs([&] {
      StatusOr<Page*> p = pool.FetchPage(page);
      fst = p.status();
      if (p.ok()) pool.UnpinPage(page, false);
    }));
    if (!fst.ok()) return fst;
    Status rst;
    store_read.push_back(
        TimeNs([&] { rst = sys.file().Read(page, page_buf.data()); }));
    if (!rst.ok()) return rst;
  }
  if (!err.ok()) return err;
  temp_pool.reset();

  std::vector<uint64_t> cc_query, executor_query, rtree_query, cc_knn;
  for (size_t i = 0; i < kProbeQueries; ++i) {
    const Rect w = rng.Window();
    StatusOr<size_t> r = fx.executor->Query(w);  // untimed warm touch
    if (!r.ok()) return r.status();
    cc_query.push_back(TimeNs([&] { r = fx.index->Query(w); }));
    if (!r.ok()) return r.status();
    executor_query.push_back(TimeNs([&] { r = fx.executor->Query(w); }));
    if (!r.ok()) return r.status();
    Status st;
    size_t n = 0;
    rtree_query.push_back(TimeNs([&] {
      st = sys.tree().Query(w, [&](ObjectId, const Rect&) { ++n; });
    }));
    if (!st.ok()) return st;
  }
  for (size_t i = 0; i < kProbeKnn; ++i) {
    const Point p = rng.UniformPoint();
    StatusOr<size_t> r = Status::NotFound();
    cc_knn.push_back(TimeNs([&] { r = fx.index->Knn(p, kKnnK); }));
    if (!r.ok()) return r.status();
  }

  // Miss path: shrink the pool so random leaves are almost never
  // resident, keep only fetches the pool itself counted as misses, then
  // restore the capacity.
  std::vector<uint64_t> miss_fetch;
  const size_t capacity = pool.capacity();
  pool.Resize(std::min(capacity, kMissPoolFrames));
  for (size_t i = 0; i < kProbeMisses; ++i) {
    StatusOr<PageId> leaf =
        sys.oid_index()->Lookup(rng.Below(world.acked.size()));
    if (!leaf.ok()) return leaf.status();
    const uint64_t misses_before = pool.stats().misses;
    Status fst;
    const uint64_t ns = TimeNs([&] {
      StatusOr<Page*> p = pool.FetchPage(leaf.value());
      fst = p.status();
      if (p.ok()) pool.UnpinPage(leaf.value(), false);
    });
    if (!fst.ok()) return fst;
    if (pool.stats().misses > misses_before) miss_fetch.push_back(ns);
  }
  pool.Resize(capacity);

  MetricMap& m = *out;
  m["ingest.submit_us"] = MedianUs(submit);
  m["ingest.complete_us"] = MedianUs(complete);
  m["cc.update_us"] = MedianUs(cc_update);
  m["cc.query_us"] = MedianUs(cc_query);
  m["cc.knn_us"] = MedianUs(cc_knn);
  m["update.strategy_us"] = MedianUs(strategy);
  m["update.executor_query_us"] = MedianUs(executor_query);
  m["rtree.query_us"] = MedianUs(rtree_query);
  m["oid_index.lookup_us"] = MedianUs(lookup);
  m["buffer.hit_fetch_us"] = MedianUs(hit_fetch);
  m["buffer.miss_fetch_us"] = MedianUs(miss_fetch);
  m["storage.read_us"] = MedianUs(store_read);
  // Self times: each layer's median minus the median of the layer below.
  m["ingest.self_us"] = m["ingest.complete_us"] - m["cc.update_us"];
  m["cc.update_self_us"] = m["cc.update_us"] - m["update.strategy_us"];
  m["cc.query_self_us"] = m["cc.query_us"] - m["update.executor_query_us"];
  m["summary.pruning_saving_us"] =
      m["rtree.query_us"] - m["update.executor_query_us"];
  return Status::OK();
}

double PercentileUs(std::vector<uint64_t>& v, double p) {
  if (v.empty()) return 0.0;
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(v.size()));
  if (rank >= v.size()) rank = v.size() - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank), v.end());
  return static_cast<double>(v[rank]) / 1000.0;
}

double MedianUs(std::vector<uint64_t>& v) { return PercentileUs(v, 50.0); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + (pos - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

}  // namespace perfbench
