// The benchmark's own tests: metric arithmetic, and that every property
// check fires on a result that breaks it.
#include "perfbench.hpp"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

/// A consistent two-processor record of `app`/`version` on `kind`.
SimRecord record(const std::string& app, const std::string& version,
                 rsvm::PlatformKind kind) {
  SimRecord r;
  r.app = app;
  r.version = version;
  r.kind = kind;
  r.procs = 2;
  r.result.stats.procs.resize(2);
  for (int p = 0; p < 2; ++p) {
    rsvm::ProcStats& s = r.result.stats.procs[static_cast<std::size_t>(p)];
    s[rsvm::Bucket::Compute] = 100 + 10 * p;
    s[rsvm::Bucket::DataWait] = 50;
    s.reads = 30;
    s.writes = 10;
    s.lock_acquires = 2;
    s.barriers = 1;
  }
  r.result.stats.exec_cycles = 160;
  r.result.stats.host_wall_ms = 500.0;
  r.slow_accesses = 20;
  r.create_s = 0.25;
  r.run_s = 1.0;
  return r;
}

std::vector<SimRecord> platforms(const std::string& app,
                                 const std::string& version) {
  return {record(app, version, rsvm::PlatformKind::SVM),
          record(app, version, rsvm::PlatformKind::SMP),
          record(app, version, rsvm::PlatformKind::NUMA)};
}

TEST(Arithmetic, Median) {
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(Arithmetic, EndToEndSplitsSetupFromTimedSections) {
  PassResult p;
  p.wall_s = 7.0;
  p.records = {record("lu", "2d", rsvm::PlatformKind::SVM),
               record("lu", "2d", rsvm::PlatformKind::SMP)};
  const EndToEnd e = endToEnd(p);
  EXPECT_DOUBLE_EQ(e.wall_s, 7.0);
  // (0.25 create + 1.0 run - 0.5 timed) per simulation.
  EXPECT_DOUBLE_EQ(e.setup_s, 1.5);
  // 80 refs per simulation over 0.5 s of timed section each.
  EXPECT_DOUBLE_EQ(e.sim_refs_per_s, 160.0);
}

TEST(Arithmetic, PerLayer) {
  PassResult u;
  u.workers = 4;
  u.wall_s = 2.0;
  u.point_wall_s_sum = 5.0;
  u.max_point_s = 1.5;
  u.records = {record("lu", "2d", rsvm::PlatformKind::SVM),
               record("server", "orig", rsvm::PlatformKind::SMP)};
  u.records[1].result.stats.procs[0].page_faults = 6;
  PassResult t = u;
  for (SimRecord& r : t.records) {
    r.result.stats.host_wall_ms = 600.0;
    r.tally.replayed = 1000;
    r.tally.replay_s = 2e-6;
  }
  const auto m = perLayer(u, t, 12.5);
  EXPECT_DOUBLE_EQ(m.at("core.pool_idle_s"), 3.0);
  EXPECT_DOUBLE_EQ(m.at("core.max_point_s"), 1.5);
  EXPECT_DOUBLE_EQ(m.at("runtime.run_s"), 1.0);
  EXPECT_DOUBLE_EQ(m.at("runtime.slow_accesses"), 40.0);
  EXPECT_DOUBLE_EQ(m.at("runtime.fastpath_hit_ratio"), 0.75);
  EXPECT_DOUBLE_EQ(m.at("apps.lu.run_s"), 1.0);
  EXPECT_DOUBLE_EQ(m.at("mem.cache_access_ns"), 2.0);
  EXPECT_DOUBLE_EQ(m.at("sim.fiber_switch_ns"), 12.5);
  // 1 s of timed sections over 6 faults + 8 lock acquires + 4 barriers.
  EXPECT_DOUBLE_EQ(m.at("proto.host_us_per_sync_event"), 1e6 / 18.0);
  EXPECT_DOUBLE_EQ(m.at("trace.overhead_ratio"), 1.2);

  const rsvm::PlatformKind smp = rsvm::PlatformKind::SMP;
  const auto only = perLayer(u, t, 12.5, &smp);
  EXPECT_DOUBLE_EQ(only.at("runtime.run_s"), 0.5);
  EXPECT_DOUBLE_EQ(only.at("proto.page_faults"), 6.0);
  EXPECT_EQ(only.count("apps.lu.run_s"), 0u);
}

TEST(Checks, ConsistentRecordsPass) {
  auto recs = platforms("lu", "2d");
  for (SimRecord& r : platforms("server", "orig")) recs.push_back(r);
  EXPECT_EQ(checkRecords(recs), 0u);
  for (const SimRecord& r : recs) EXPECT_TRUE(r.failures.empty());
}

TEST(Checks, BucketSumThatDoesNotAddUpFails) {
  auto recs = platforms("barnes", "orig");
  recs[1].result.stats.procs[1][rsvm::Bucket::LockWait] += 7;
  EXPECT_EQ(checkRecords(recs), 1u);
  EXPECT_FALSE(recs[1].failures.empty());
}

TEST(Checks, ApplicationVerificationFails) {
  auto recs = platforms("radix", "orig");
  recs[0].result.correct = false;
  recs[0].result.note = "unsorted";
  EXPECT_EQ(checkRecords(recs), 1u);
  EXPECT_NE(recs[0].failures[0].find("unsorted"), std::string::npos);
}

TEST(Checks, SweepErrorFails) {
  auto recs = platforms("ocean", "2d");
  recs[2].sweep_error = "baseline threw";
  EXPECT_EQ(checkRecords(recs), 1u);
}

TEST(Checks, MoreSlowAccessesThanReferencesFails) {
  auto recs = platforms("volrend", "orig");
  recs[0].slow_accesses = recs[0].refs() + 1;
  EXPECT_EQ(checkRecords(recs), 1u);
}

TEST(Checks, ReferenceCountMustNotDependOnPlatform) {
  auto recs = platforms("lu", "2d");
  recs[2].result.stats.procs[0].reads += 1;
  EXPECT_EQ(checkRecords(recs), 1u);
  EXPECT_FALSE(recs[2].failures.empty());
  // Apps whose reference stream follows the protocol are not held to it.
  auto barnes = platforms("barnes", "orig");
  barnes[2].result.stats.procs[0].reads += 1;
  EXPECT_EQ(checkRecords(barnes), 0u);
}

TEST(Checks, ServerDigestsMustAgreeAcrossPlatformsAndVersions) {
  auto recs = platforms("server", "orig");
  for (SimRecord& r : platforms("server", "pa")) recs.push_back(r);
  for (SimRecord& r : recs) r.result.state_hash = r.result.result_hash = 9;
  recs[4].result.result_hash = 10;
  EXPECT_EQ(checkRecords(recs), 1u);
  EXPECT_FALSE(recs[4].failures.empty());
}

TEST(Checks, IndexDigestsAgreeWithinOneFamily) {
  auto recs = platforms("index", "hash-orig");
  for (SimRecord& r : platforms("index", "btree-orig")) {
    r.result.state_hash = 5;
    recs.push_back(r);
  }
  EXPECT_EQ(checkRecords(recs), 0u);
  recs[0].result.state_hash = 6;
  EXPECT_EQ(checkRecords(recs), 1u);
}

TEST(Checks, TraceTalliesMustMatchCounters) {
  auto recs = platforms("server", "orig");
  for (SimRecord& r : recs) {
    r.traced = true;
    r.tally.shared_accesses = r.refs();
    r.tally.lock_grants = 4;
    r.tally.barrier_arrivals = 2;
  }
  EXPECT_EQ(checkRecords(recs), 0u);
  recs[0].tally.shared_accesses -= 1;
  recs[1].tally.lock_grants += 1;
  recs[2].tally.barrier_arrivals = 0;
  EXPECT_EQ(checkRecords(recs), 3u);
}

TEST(Checks, TracedRunMustSimulateTheSame) {
  const auto untraced = platforms("lu", "2d");
  auto traced = untraced;
  EXPECT_EQ(checkSameSimulation(untraced, traced), 0u);
  EXPECT_EQ(passDigest(untraced), passDigest(traced));
  traced[1].result.stats.procs[0].l1_misses += 1;
  EXPECT_NE(passDigest(untraced), passDigest(traced));
  EXPECT_EQ(checkSameSimulation(untraced, traced), 1u);
  EXPECT_FALSE(traced[1].failures.empty());
}

TEST(Checks, DigestIgnoresHostTimes) {
  SimRecord a = record("lu", "2d", rsvm::PlatformKind::SVM);
  SimRecord b = a;
  b.run_s = 99.0;
  b.result.stats.host_wall_ms = 1.0;
  EXPECT_EQ(simDigest(a), simDigest(b));
}

// The real program at integration-test scale, through both pass kinds.
Workload tiny(bool sweep) {
  rsvm::registerAllApps();
  Workload w;
  w.name = "tiny";
  w.sweep = sweep;
  for (const char* app : {"lu", "server"}) {
    const rsvm::AppDesc* a = rsvm::Registry::instance().find(app);
    for (const rsvm::PlatformKind k :
         {rsvm::PlatformKind::SVM, rsvm::PlatformKind::SMP}) {
      w.sims.push_back(SimSpec{a->name, a->original().name, k, a->tiny, 4});
    }
  }
  return w;
}

TEST(Passes, SequentialTracedAndUntracedAgree) {
  const Workload w = tiny(false);
  PassOptions opt;
  const PassResult u = runPass(w, opt);
  ASSERT_EQ(u.records.size(), 4u);
  for (const SimRecord& r : u.records) {
    EXPECT_TRUE(r.failures.empty()) << r.key();
    EXPECT_GT(r.refs(), 0u);
    EXPECT_LE(r.hostRunS(), r.run_s);
  }
  std::map<std::string, std::uint64_t> refs;
  for (const SimRecord& r : u.records) refs[r.key()] = r.refs();
  opt.traced = true;
  opt.refs_by_key = &refs;
  PassResult t = runPass(w, opt);
  EXPECT_EQ(checkSameSimulation(u.records, t.records), 0u);
  for (const SimRecord& r : t.records) {
    EXPECT_TRUE(r.traced);
    EXPECT_TRUE(r.failures.empty()) << r.key();
    EXPECT_GT(r.tally.replayed, 0u);
    // The trace hook turns the access fast path off.
    EXPECT_EQ(r.slow_accesses, r.refs());
  }
}

TEST(Passes, SweepRecordsPointsAndBaselines) {
  const Workload w = tiny(true);
  PassOptions opt;
  opt.jobs = 2;
  const PassResult p = runPass(w, opt);
  // Four points plus one uniprocessor baseline per (app, platform).
  ASSERT_EQ(p.records.size(), 8u);
  std::size_t baselines = 0;
  for (const SimRecord& r : p.records) {
    EXPECT_TRUE(r.failures.empty()) << r.key();
    if (r.baseline) {
      ++baselines;
    } else {
      EXPECT_GT(r.base_cycles, 0u) << r.key();
    }
  }
  EXPECT_EQ(baselines, 4u);
  EXPECT_EQ(p.workers, 2);
  EXPECT_EQ(passDigest(p.records), passDigest(runPass(w, opt).records));
}

}  // namespace
}  // namespace perfbench
