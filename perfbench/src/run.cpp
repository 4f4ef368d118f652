// Running a workload pass. Every layer is timed from outside, around
// calls into the program's public API: Platform::create, VersionDesc::run
// (whose RunStats::host_wall_ms splits off the timed parallel section),
// SweepRunner for the fig16 sweep, Cache for the memory-model replay,
// Fiber for the switch cost and TraceRecorder for the traced pass.
#include "perfbench.hpp"

#include "core/sweep.hpp"
#include "mem/cache.hpp"
#include "proto/fgs/fgs_platform.hpp"
#include "proto/numa/numa_platform.hpp"
#include "proto/smp/smp_platform.hpp"
#include "proto/svm/svm_platform.hpp"
#include "runtime/trace.hpp"
#include "sim/fiber.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <mutex>
#include <stdexcept>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// References replayed through the standalone cache per simulation.
constexpr std::uint64_t kReplayWindow = 1u << 18;

rsvm::CacheConfig l1Geometry(rsvm::Platform& p) {
  if (auto* s = dynamic_cast<rsvm::SvmPlatform*>(&p)) return s->params().l1;
  if (auto* s = dynamic_cast<rsvm::SmpPlatform*>(&p)) return s->params().l1;
  if (auto* s = dynamic_cast<rsvm::NumaPlatform*>(&p)) return s->params().l1;
  if (auto* s = dynamic_cast<rsvm::FgsPlatform*>(&p)) return s->params().l1;
  throw std::logic_error("perfbench: unknown platform type");
}

/// Observer of one traced simulation: a TraceRecorder for the protocol
/// events, teed with a sampler that keeps the references of a bounded
/// window of the stream.
struct TraceTap {
  struct Ref {
    rsvm::SimAddr addr;
    rsvm::ProcId proc;
    bool write;
  };
  rsvm::TraceRecorder recorder;
  std::vector<Ref> window;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  std::uint64_t seen = 0;

  explicit TraceTap(std::uint64_t refs) {
    begin = refs > kReplayWindow ? (refs - kReplayWindow) / 2 : 0;
    end = begin + kReplayWindow;
    window.reserve(static_cast<std::size_t>(std::min(refs, kReplayWindow)));
  }
  TraceTap(const TraceTap&) = delete;
  TraceTap& operator=(const TraceTap&) = delete;

  rsvm::TraceHook hook() {
    return rsvm::teeHooks(recorder.hook(), [this](const rsvm::TraceEvent& e) {
      using K = rsvm::TraceEvent::Kind;
      const bool write = e.kind == K::SharedWrite || e.kind == K::RacyWrite;
      if (!write && e.kind != K::SharedRead && e.kind != K::RacyRead) return;
      if (seen >= begin && seen < end) window.push_back({e.id, e.proc, write});
      ++seen;
    });
  }

  /// Fill `t` from the recorder and replay the window through one
  /// standalone cache per processor with the platform's L1 geometry:
  /// access, then fill on a miss.
  void finish(const rsvm::CacheConfig& l1, int procs, TraceTally& t) const {
    using K = rsvm::TraceEvent::Kind;
    t.shared_accesses = recorder.count(K::SharedRead) +
                        recorder.count(K::SharedWrite) +
                        recorder.count(K::RacyRead) +
                        recorder.count(K::RacyWrite);
    t.lock_grants = recorder.count(K::LockGrant);
    t.barrier_arrivals = recorder.count(K::BarrierArrive);

    std::vector<rsvm::Cache> caches(static_cast<std::size_t>(procs),
                                    rsvm::Cache(l1));
    const auto t0 = Clock::now();
    for (const Ref& r : window) {
      rsvm::Cache& c = caches[static_cast<std::size_t>(r.proc)];
      if (!c.access(r.addr, r.write).hit) {
        rsvm::SimAddr victim = 0;
        c.fill(r.addr,
               r.write ? rsvm::LineState::Modified : rsvm::LineState::Shared,
               &victim);
      }
    }
    t.replay_s = secondsSince(t0);
    t.replayed = window.size();
  }
};

/// Run one simulation on `plat`: time VersionDesc::run, read the
/// platform's slow-path counter, and in a traced pass attach a TraceTap.
void runTimed(rsvm::Platform& plat, const rsvm::VersionDesc& ver,
              const rsvm::AppParams& prm, const PassOptions& opt,
              SimRecord& rec) {
  std::unique_ptr<TraceTap> tap;
  if (opt.traced) {
    std::uint64_t refs = 0;
    if (opt.refs_by_key != nullptr) {
      const auto it = opt.refs_by_key->find(rec.key());
      if (it != opt.refs_by_key->end()) refs = it->second;
    }
    tap = std::make_unique<TraceTap>(refs);
    plat.trace = tap->hook();
  }
  const auto t0 = Clock::now();
  rec.result = ver.run(plat, prm);
  rec.run_s = secondsSince(t0);
  rec.slow_accesses = plat.slowAccessCalls();
  if (tap) {
    plat.trace = nullptr;
    rec.traced = true;
    tap->finish(l1Geometry(plat), plat.nprocs(), rec.tally);
  }
}

// ---- the fig16 sweep ----
//
// SweepRunner owns its platforms and runs baselines itself, so the sweep
// is observed through timed copies of the registry's apps: each copy's
// versions wrap the real VersionDesc::run, and each point's platform
// factory times Platform::create. Both run on the worker thread that
// owns the simulation, so the factory hands its time to the wrapper
// through a thread-local.

constexpr const char* kTimedPrefix = "timed/";

struct SweepPass {
  const PassOptions* opt = nullptr;
  std::mutex mu;  ///< guards records
  std::vector<SimRecord> records;
};
SweepPass* g_sweep = nullptr;  // set for the duration of one sweep
thread_local double tl_create_s = 0.0;

void registerTimedApps() {
  static std::once_flag once;
  std::call_once(once, [] {
    rsvm::Registry& reg = rsvm::Registry::instance();
    std::vector<rsvm::AppDesc> copies;
    for (const rsvm::AppDesc& a : reg.all()) {
      if (a.name.starts_with(kTimedPrefix)) continue;
      rsvm::AppDesc c = a;
      c.name = kTimedPrefix + a.name;
      for (std::size_t i = 0; i < c.versions.size(); ++i) {
        rsvm::VersionDesc& v = c.versions[i];
        v.run = [app = a.name, ver = a.versions[i]](
                    rsvm::Platform& plat, const rsvm::AppParams& prm) {
          SimRecord rec;
          rec.app = app;
          rec.version = ver.name;
          rec.kind = plat.kind();
          rec.params = prm;
          rec.procs = plat.nprocs();
          rec.baseline = rec.procs == 1;
          rec.create_s = tl_create_s;
          runTimed(plat, ver, prm, *g_sweep->opt, rec);
          const rsvm::AppResult out = rec.result;
          std::lock_guard<std::mutex> lk(g_sweep->mu);
          g_sweep->records.push_back(std::move(rec));
          return out;
        };
      }
      copies.push_back(std::move(c));
    }
    for (rsvm::AppDesc& c : copies) reg.add(std::move(c));
  });
}

/// The sweep and one-at-a-time runners return unsorted, unchecked
/// records; runPass finishes them.
PassResult runSweep(const Workload& w, const PassOptions& opt) {
  registerTimedApps();
  std::vector<rsvm::SweepPoint> points;
  for (const SimSpec& s : w.sims) {
    rsvm::SweepPoint p;
    p.kind = s.kind;
    p.app = kTimedPrefix + s.app;
    p.version = s.version;
    p.params = s.params;
    p.procs = s.procs;
    p.make_platform = [kind = s.kind](int nprocs) {
      const auto t0 = Clock::now();
      auto plat = rsvm::Platform::create(kind, nprocs);
      tl_create_s = secondsSince(t0);
      return plat;
    };
    points.push_back(std::move(p));
  }

  SweepPass pass;
  pass.opt = &opt;
  g_sweep = &pass;
  rsvm::SweepRunner runner(opt.jobs);
  const std::vector<rsvm::SweepResult> results = runner.run(points);
  g_sweep = nullptr;

  PassResult out;
  out.workers = runner.jobs();
  // Join each point's sweep outcome onto its record. A point whose
  // baseline failed never ran, so it gets a record of its own.
  std::map<std::string, SimRecord*> by_key;
  for (SimRecord& r : pass.records) by_key[r.key()] = &r;
  std::vector<SimRecord> unrun;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const rsvm::SweepResult& res = results[i];
    out.point_wall_s_sum += res.wall_ms / 1000.0;
    out.max_point_s = std::max(out.max_point_s, res.wall_ms / 1000.0);
    SimRecord probe;
    probe.app = w.sims[i].app;
    probe.version = w.sims[i].version;
    probe.kind = w.sims[i].kind;
    probe.params = w.sims[i].params;
    probe.procs = w.sims[i].procs;
    SimRecord* rec = by_key.count(probe.key()) ? by_key[probe.key()] : nullptr;
    if (rec == nullptr) {
      probe.result.correct = false;
      probe.result.note = "did not run";
      unrun.push_back(std::move(probe));
      rec = &unrun.back();
    }
    rec->sweep_error = res.error;
    rec->base_cycles = res.base_cycles;
  }
  out.records = std::move(pass.records);
  for (SimRecord& r : unrun) out.records.push_back(std::move(r));
  return out;
}

PassResult runSequential(const Workload& w, const PassOptions& opt) {
  PassResult out;
  for (const SimSpec& s : w.sims) {
    SimRecord rec;
    rec.app = s.app;
    rec.version = s.version;
    rec.kind = s.kind;
    rec.params = s.params;
    rec.procs = s.procs;
    const rsvm::AppDesc* app = rsvm::Registry::instance().find(s.app);
    const rsvm::VersionDesc* ver = app ? app->version(s.version) : nullptr;
    if (ver == nullptr) {
      throw std::invalid_argument("no version " + s.app + "/" + s.version);
    }
    const auto c0 = Clock::now();
    try {
      auto plat = rsvm::Platform::create(s.kind, s.procs);
      rec.create_s = secondsSince(c0);
      runTimed(*plat, *ver, s.params, opt, rec);
    } catch (const std::exception& e) {
      rec.result.correct = false;
      rec.result.note = std::string("threw: ") + e.what();
    }
    const double point_s = secondsSince(c0);
    out.point_wall_s_sum += point_s;
    out.max_point_s = std::max(out.max_point_s, point_s);
    out.records.push_back(std::move(rec));
  }
  return out;
}

}  // namespace

PassResult runPass(const Workload& w, const PassOptions& opt) {
  const auto t0 = Clock::now();
  PassResult out = w.sweep ? runSweep(w, opt) : runSequential(w, opt);
  std::sort(out.records.begin(), out.records.end(),
            [](const SimRecord& a, const SimRecord& b) {
              return a.key() < b.key();
            });
  checkRecords(out.records);
  out.wall_s = secondsSince(t0);
  return out;
}

int hostCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double fiberSwitchNs() {
  constexpr int kRoundTrips = 1 << 20;
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    int left = kRoundTrips;
    rsvm::Fiber f([&left] {
      while (--left > 0) rsvm::Fiber::yieldToScheduler();
    });
    const auto t0 = Clock::now();
    while (!f.finished()) f.resume();
    samples.push_back(secondsSince(t0) * 1e9 / (2.0 * kRoundTrips));
  }
  return median(samples);
}

}  // namespace perfbench
