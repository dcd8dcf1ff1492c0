// Post-run correctness checks on the quiesced index, and the self-test
// that proves each check rejects a deliberately wrong expectation.
#include <cstdio>
#include <filesystem>

#include "bench.h"
#include "rtree/node.h"

namespace perfbench {

using namespace burtree;

CheckResult CheckValidate(IndexSystem& sys) {
  // STR leaves the last node of each level below the minimum fill, so the
  // fill invariant is not part of a bulk-built tree's contract.
  const Status st = sys.tree().Validate(/*check_min_fill=*/false);
  if (!st.ok()) return {"validate", false, st.ToString()};
  if (!sys.summary()->SelfCheck()) {
    return {"validate", false, "summary structure self-check failed"};
  }
  return {"validate", true, "tree and summary consistent"};
}

CheckResult CheckPopulation(IndexSystem& sys, uint64_t expected) {
  uint64_t n = 0;
  const Status st =
      sys.tree().Query(Rect(0.0, 0.0, 1.0, 1.0),
                       [&](ObjectId, const Rect&) { ++n; });
  if (!st.ok()) return {"population", false, st.ToString()};
  return {"population", n == expected,
          std::to_string(n) + " objects found, " + std::to_string(expected) +
              " expected"};
}

CheckResult CheckPositions(IndexSystem& sys,
                           const std::vector<ObjectId>& oids,
                           const std::vector<Point>& expected) {
  size_t wrong = 0;
  std::string first;
  for (ObjectId oid : oids) {
    const Rect at = Rect::FromPoint(expected[oid]);
    bool found = false;
    const Status st = sys.tree().Query(at, [&](ObjectId o, const Rect& r) {
      if (o == oid && r == at) found = true;
    });
    if (!st.ok()) return {"positions", false, st.ToString()};
    if (!found) {
      if (wrong++ == 0) {
        first = "oid " + std::to_string(oid) + " not at " +
                expected[oid].ToString();
      }
    }
  }
  std::string detail = std::to_string(oids.size() - wrong) + "/" +
                       std::to_string(oids.size()) +
                       " sampled objects at their acknowledged position";
  if (wrong > 0) detail += "; first miss: " + first;
  return {"positions", wrong == 0 && !oids.empty(), detail};
}

CheckResult CheckNoFailures(uint64_t failed, uint64_t attempted) {
  return {"no_failures", failed == 0 && attempted > 0,
          std::to_string(failed) + " of " + std::to_string(attempted) +
              " ops failed"};
}

CheckResult CheckDurable(uint64_t durable_lsn, uint64_t required_lsn) {
  return {"durable", durable_lsn >= required_lsn,
          "durable_lsn " + std::to_string(durable_lsn) + ", required " +
              std::to_string(required_lsn)};
}

std::vector<ObjectId> SampleOids(const std::vector<Client>& clients,
                                 size_t per_client, uint64_t seed) {
  Gen rng(SubSeed(seed, 0xc4ec));
  std::vector<ObjectId> oids;
  for (const Client& c : clients) {
    for (size_t i = 0; i < per_client; ++i) {
      oids.push_back(c.lo + rng.Below(c.hi - c.lo));
    }
  }
  return oids;
}

namespace {

/// Moves one entry of `oid`'s leaf far outside the leaf's MBR, through
/// the buffer pool, so that Validate has a real fault to find.
Status CorruptLeafEntry(IndexSystem& sys, ObjectId oid) {
  StatusOr<PageId> leaf = sys.oid_index()->Lookup(oid);
  if (!leaf.ok()) return leaf.status();
  StatusOr<Page*> page = sys.buffer().FetchPage(leaf.value());
  if (!page.ok()) return page.status();
  NodeView v(page.value()->data(), sys.file().page_size(),
             sys.tree().options().parent_pointers);
  for (uint32_t i = 0; i < v.count(); ++i) {
    LeafEntry e = v.leaf_entry(i);
    if (e.oid == oid) {
      e.rect = Rect::FromPoint(Point{7.0, 7.0});
      v.set_leaf_entry(i, e);
    }
  }
  sys.buffer().UnpinPage(leaf.value(), /*dirty=*/true);
  return Status::OK();
}

}  // namespace

int RunSelfTest(const std::string& work_dir) {
  constexpr uint64_t kSmall = 20000;
  const WorkloadSpec& spec = *FindWorkload("durable_ingest");
  std::error_code ec;
  const std::string dir = work_dir + "/selftest";
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "self-test: cannot create %s\n", dir.c_str());
    return 2;
  }

  Gen gen(SubSeed(1, 0x5e1f));
  World world;
  world.spec = &spec;
  world.epoch = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < kSmall; ++i) world.acked.push_back(gen.UniformPoint());
  world.submitted = world.acked;
  auto fx = std::make_unique<Fixture>();
  Status st = BuildFixture(spec, world.acked, dir, fx.get());
  if (!st.ok()) {
    std::fprintf(stderr, "self-test: build failed: %s\n",
                 st.ToString().c_str());
    return 2;
  }
  world.fx = fx.get();
  std::vector<Client> clients(2);
  for (uint32_t i = 0; i < clients.size(); ++i) {
    clients[i].id = i;
    clients[i].lo = kSmall * i / clients.size();
    clients[i].hi = kSmall * (i + 1) / clients.size();
  }
  const PassResult pass = RunPass(world, clients, 0.5, 1, 0, false, false);
  WalManager& wal = *fx->wal();
  const uint64_t durable = wal.durable_lsn();
  const uint64_t appended = wal.appended_lsn();
  const std::vector<ObjectId> oids = SampleOids(clients, 200, 1);
  std::vector<Point> moved = world.acked;
  moved[oids[0]].x = moved[oids[0]].x > 0.5 ? moved[oids[0]].x - 1e-4
                                            : moved[oids[0]].x + 1e-4;

  IndexSystem& sys = *fx->system;
  struct Case {
    CheckResult result;
    bool want_ok;
  };
  std::vector<Case> cases;
  cases.push_back({CheckValidate(sys), true});
  cases.push_back({CheckPopulation(sys, kSmall), true});
  cases.push_back({CheckPopulation(sys, kSmall + 1), false});
  cases.push_back({CheckPositions(sys, oids, world.acked), true});
  cases.push_back({CheckPositions(sys, oids, moved), false});
  cases.push_back({CheckNoFailures(pass.failed, pass.attempted), true});
  cases.push_back({CheckNoFailures(1, pass.attempted), false});
  cases.push_back({CheckDurable(durable, appended), true});
  cases.push_back({CheckDurable(durable, appended + 1), false});
  st = CorruptLeafEntry(sys, oids[0]);
  if (!st.ok()) {
    std::fprintf(stderr, "self-test: corruption failed: %s\n",
                 st.ToString().c_str());
    return 2;
  }
  cases.push_back({CheckValidate(sys), false});

  bool all = true;
  for (const Case& c : cases) {
    const bool as_expected = c.result.ok == c.want_ok;
    all = all && as_expected;
    std::printf("%-4s %-12s expected %-6s got %-6s (%s)\n",
                as_expected ? "ok" : "FAIL", c.result.name.c_str(),
                c.want_ok ? "pass" : "reject",
                c.result.ok ? "pass" : "reject", c.result.detail.c_str());
  }
  fx.reset();
  std::filesystem::remove_all(dir, ec);
  std::printf("self-test %s\n", all ? "passed" : "FAILED");
  return all ? 0 : 1;
}

}  // namespace perfbench
