// Client load loops. Each client owns a disjoint oid range, so the
// acknowledged-position table needs no locking: only the owner writes
// an object's entry, and the main thread reads it after the join.
#include <algorithm>
#include <iterator>
#include <thread>

#include "bench.h"

namespace perfbench {

using namespace burtree;

const char* const kSpanNames[] = {
    "cc.Update",        "cc.Query",          "cc.Knn",
    "client.update",    "ingest.SubmitUpdate", "ingest.Wait",
    "wal.WaitDurable",
};

namespace {

using Clock = std::chrono::steady_clock;

struct PassContext {
  World* world;
  const std::atomic<bool>* stop;
  bool record;
  bool trace;
  Clock::time_point start;
  int64_t slice_ns;

  /// Window slice an op completing at `t` counts in; -1 past the end.
  int SliceOf(Clock::time_point t) const {
    const int64_t s =
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - start)
            .count() /
        slice_ns;
    return s < kSlices ? static_cast<int>(s) : -1;
  }
};

uint64_t Ns(Clock::time_point t0, Clock::time_point t1) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
}

/// Files one completed op under its slice; `counts` marks the ops that
/// make up ops_per_s.
void Record(const PassContext& ctx, Client& c, Samples& samples, bool counts,
            Clock::time_point t0, Clock::time_point t1) {
  const int slice = ctx.SliceOf(t1);
  if (slice < 0) return;
  if (counts) ++c.done[slice];
  if (ctx.record) samples.ns[slice].push_back(Ns(t0, t1));
}

void Fail(Client& c, const Status& st, const char* what) {
  ++c.failed;
  if (c.first_error.empty()) {
    c.first_error = std::string(what) + ": " + st.ToString();
  }
}

uint64_t RequestId(const Client& c) {
  return (static_cast<uint64_t>(c.id + 1) << 40) | c.seq;
}

bool Sampled(const Client& c) { return c.seq % kTraceEvery == 0; }

void AddSpan(Client& c, uint64_t request, uint64_t parent, SpanName name,
             Clock::time_point t0, Clock::time_point t1,
             Clock::time_point epoch) {
  using std::chrono::duration_cast;
  using std::chrono::nanoseconds;
  c.spans.push_back(Span{request, parent, name,
                         duration_cast<nanoseconds>(t0 - epoch).count(),
                         duration_cast<nanoseconds>(t1 - epoch).count()});
}

/// Issues one synchronous window query or kNN query (the read half of
/// every workload's mix).
void ReadOp(const PassContext& ctx, Client& c, Gen& rng, bool knn) {
  ConcurrentIndex& index = *ctx.world->fx->index;
  const bool traced = ctx.trace && Sampled(c);
  const uint64_t request = RequestId(c);
  if (knn) {
    const Point q = rng.UniformPoint();
    const Clock::time_point t0 = Clock::now();
    StatusOr<size_t> r = index.Knn(q, kKnnK);
    const Clock::time_point t1 = Clock::now();
    if (!r.ok()) {
      Fail(c, r.status(), "knn");
    } else if (r.value() != kKnnK) {
      Fail(c, Status::Corruption("knn returned " +
                                 std::to_string(r.value()) + " neighbors"),
           "knn");
    }
    Record(ctx, c, c.knn, !ctx.world->spec->durable, t0, t1);
    if (traced) AddSpan(c, request, 0, kSpanCcKnn, t0, t1, ctx.world->epoch);
  } else {
    const Rect w = rng.Window();
    const Clock::time_point t0 = Clock::now();
    StatusOr<size_t> r = index.Query(w);
    const Clock::time_point t1 = Clock::now();
    if (r.ok()) {
      ++c.queries_done;
    } else {
      Fail(c, r.status(), "query");
    }
    Record(ctx, c, c.query, !ctx.world->spec->durable, t0, t1);
    if (traced) AddSpan(c, request, 0, kSpanCcQuery, t0, t1, ctx.world->epoch);
  }
}

/// Closed loop over ConcurrentIndex: one op outstanding per client.
void MemClient(const PassContext& ctx, Client& c, Gen& rng) {
  World& w = *ctx.world;
  const WorkloadSpec& spec = *w.spec;
  ConcurrentIndex& index = *w.fx->index;
  const uint64_t span = c.hi - c.lo;
  while (!ctx.stop->load(std::memory_order_relaxed)) {
    ++c.seq;
    ++c.attempted;
    const double r = rng.Uniform();
    if (r >= spec.update_share) {
      ReadOp(ctx, c, rng, r >= spec.update_share + spec.query_share);
      continue;
    }
    const ObjectId oid = c.lo + rng.Below(span);
    const Point from = w.acked[oid];
    const Point to = rng.Move(from);
    const Clock::time_point t0 = Clock::now();
    const Status st = index.Update(oid, from, to);
    const Clock::time_point t1 = Clock::now();
    if (st.ok()) {
      w.acked[oid] = to;
      ++c.updates_done;
    } else {
      Fail(c, st, "update");
    }
    Record(ctx, c, c.update, true, t0, t1);
    if (ctx.trace && Sampled(c)) {
      AddSpan(c, RequestId(c), 0, kSpanCcUpdate, t0, t1, w.epoch);
    }
  }
}

struct InFlight {
  UpdateHandle handle;
  ObjectId oid = 0;
  Point to;
  uint64_t request = 0;
  bool traced = false;
  bool ok = false;
  Clock::time_point submitted;
};

/// Windowed closed loop over IngestPool: keeps kInFlight reports
/// outstanding. A report is acknowledged once its handle completed and
/// WalManager::WaitDurable returned past the log end read after that
/// completion (the handle completes before its record is durable).
void DurableClient(const PassContext& ctx, Client& c, Gen& rng) {
  World& w = *ctx.world;
  const WorkloadSpec& spec = *w.spec;
  IngestPool& pool = *w.fx->ingest;
  WalManager& wal = *w.fx->wal();
  const uint64_t span = c.hi - c.lo;
  std::vector<InFlight> ring(kInFlight);
  size_t head = 0;  // oldest outstanding report
  size_t count = 0;
  std::vector<InFlight> reaped;
  reaped.reserve(kInFlight);

  auto reap = [&]() {
    // Wait for the oldest, then sweep every later one already done.
    InFlight& front = ring[head];
    const Clock::time_point w0 = Clock::now();
    Status st = front.handle.Wait();
    const Clock::time_point w1 = Clock::now();
    if (front.traced) {
      AddSpan(c, front.request, front.request, kSpanIngestWait, w0, w1,
              w.epoch);
    }
    reaped.clear();
    for (;;) {
      InFlight& f = ring[head];
      f.ok = st.ok();
      if (!f.ok) Fail(c, st, "ingest update");
      reaped.push_back(std::move(f));
      head = (head + 1) % kInFlight;
      --count;
      if (count == 0 || !ring[head].handle.done()) break;
      st = ring[head].handle.Wait();
    }
    const uint64_t lsn = wal.appended_lsn();
    const Clock::time_point d0 = Clock::now();
    const Status dst = wal.WaitDurable(lsn);
    const Clock::time_point d1 = Clock::now();
    if (!dst.ok()) Fail(c, dst, "wait durable");
    if (ctx.trace) c.durable_wait_ns.push_back(Ns(d0, d1));
    for (InFlight& f : reaped) {
      if (!f.ok || !dst.ok()) continue;
      w.acked[f.oid] = f.to;
      ++c.updates_done;
      Record(ctx, c, c.update, true, f.submitted, d1);
      if (f.traced) {
        AddSpan(c, f.request, f.request, kSpanWalWaitDurable, d0, d1,
                w.epoch);
        AddSpan(c, f.request, 0, kSpanClientUpdate, f.submitted, d1,
                w.epoch);
      }
    }
  };

  while (!ctx.stop->load(std::memory_order_relaxed)) {
    if (count == kInFlight) {
      reap();
      continue;
    }
    ++c.seq;
    ++c.attempted;
    const double r = rng.Uniform();
    if (r >= spec.update_share) {
      ReadOp(ctx, c, rng, r >= spec.update_share + spec.query_share);
      continue;
    }
    const ObjectId oid = c.lo + rng.Below(span);
    InFlight& f = ring[(head + count) % kInFlight];
    const Point from = w.submitted[oid];
    f.oid = oid;
    f.to = rng.Move(from);
    f.request = RequestId(c);
    f.traced = ctx.trace && Sampled(c);
    f.submitted = Clock::now();
    f.handle = pool.SubmitUpdate(oid, from, f.to);
    if (f.traced) {
      AddSpan(c, f.request, f.request, kSpanIngestSubmit, f.submitted,
              Clock::now(), w.epoch);
    }
    w.submitted[oid] = f.to;
    ++count;
  }
  while (count > 0) reap();
}

}  // namespace

PassResult RunPass(World& world, std::vector<Client>& clients,
                   double seconds, uint64_t seed, uint64_t pass, bool record,
                   bool trace) {
  for (Client& c : clients) {
    c.update.Clear();
    c.query.Clear();
    c.knn.Clear();
    std::fill(std::begin(c.done), std::end(c.done), 0);
    c.durable_wait_ns.clear();
    c.attempted = c.failed = c.updates_done = c.queries_done = 0;
  }
  std::atomic<bool> stop{false};
  const Clock::time_point start = Clock::now();
  const PassContext ctx{&world, &stop, record, trace, start,
                        static_cast<int64_t>(seconds * 1e9 / kSlices)};
  std::vector<std::thread> threads;
  for (Client& c : clients) {
    threads.emplace_back([&ctx, &c, seed, pass]() {
      Gen rng(SubSeed(seed, (pass << 8) | c.id));
      if (ctx.world->spec->durable) {
        DurableClient(ctx, c, rng);
      } else {
        MemClient(ctx, c, rng);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  PassResult res;
  res.elapsed_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (const Client& c : clients) {
    res.attempted += c.attempted;
    res.failed += c.failed;
    res.updates += c.updates_done;
  }
  for (int s = 0; s < kSlices; ++s) {
    uint64_t n = 0;
    for (const Client& c : clients) n += c.done[s];
    res.slice_ops_per_s.push_back(static_cast<double>(n) * kSlices / seconds);
  }
  res.ops_per_s = Median(res.slice_ops_per_s);
  return res;
}

}  // namespace perfbench
