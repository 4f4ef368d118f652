// Property checks, digests and metric arithmetic over SimRecords.
#include "perfbench.hpp"

#include <algorithm>
#include <cstdio>
#include <set>

namespace perfbench {

std::string SimRecord::key() const {
  std::string k = app + "/" + version + " on " + rsvm::platformName(kind) +
                  " " + std::to_string(procs) + "p";
  if (baseline) k += " (baseline)";
  return k;
}

std::uint64_t SimRecord::refs() const {
  return result.stats.sum(&rsvm::ProcStats::reads) +
         result.stats.sum(&rsvm::ProcStats::writes);
}

namespace {

void fail(SimRecord& r, std::string why) { r.failures.push_back(std::move(why)); }

std::string u64(std::uint64_t v) { return std::to_string(v); }

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Within each group (records sharing `group`), every record must give
/// the value most of the group gives; the others are marked failed.
template <typename GroupFn, typename ValueFn>
void checkGroupsAgree(std::vector<SimRecord>& recs, GroupFn group,
                      ValueFn value, const char* what) {
  using Value = decltype(value(recs.front()));
  std::map<std::string, std::vector<SimRecord*>> groups;
  for (SimRecord& r : recs) {
    const std::string g = group(r);
    if (!g.empty()) groups[g].push_back(&r);
  }
  for (auto& [g, members] : groups) {
    std::map<Value, std::size_t> votes;
    for (const SimRecord* r : members) ++votes[value(*r)];
    if (votes.size() < 2) continue;
    const Value majority =
        std::max_element(votes.begin(), votes.end(), [](auto& a, auto& b) {
          return a.second < b.second;
        })->first;
    for (SimRecord* r : members) {
      if (value(*r) != majority) {
        fail(*r, std::string(what) + " differs from the rest of " + g);
      }
    }
  }
}

std::string paramsKey(const rsvm::AppParams& p) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "n=%d iters=%d block=%d seed=%llu zipf=%g",
                p.n, p.iters, p.block, static_cast<unsigned long long>(p.seed),
                p.zipf);
  return buf;
}

}  // namespace

std::size_t checkRecords(std::vector<SimRecord>& recs) {
  for (SimRecord& r : recs) {
    if (!r.sweep_error.empty()) fail(r, "sweep: " + r.sweep_error);
    if (!r.result.correct) fail(r, "incorrect result: " + r.result.note);

    const rsvm::RunStats& st = r.result.stats;
    rsvm::Cycles max_total = 0;
    for (const rsvm::ProcStats& ps : st.procs) {
      rsvm::Cycles sum = 0;
      for (const rsvm::Cycles c : ps.buckets) sum += c;
      max_total = std::max(max_total, sum);
    }
    if (st.exec_cycles != max_total) {
      fail(r, "exec_cycles " + u64(st.exec_cycles) +
                  " != largest per-processor bucket sum " + u64(max_total));
    }
    if (r.slow_accesses > r.refs()) {
      fail(r, "slowAccessCalls " + u64(r.slow_accesses) + " > refs " +
                  u64(r.refs()));
    }
    if (r.traced) {
      const TraceTally& t = r.tally;
      if (t.shared_accesses != r.refs()) {
        fail(r, "trace saw " + u64(t.shared_accesses) +
                    " shared accesses, counters say " + u64(r.refs()));
      }
      const std::uint64_t locks = st.sum(&rsvm::ProcStats::lock_acquires);
      if (t.lock_grants != locks) {
        fail(r, "trace saw " + u64(t.lock_grants) +
                    " LockGrant events, counters say " + u64(locks));
      }
      const std::uint64_t bars = st.sum(&rsvm::ProcStats::barriers);
      if (t.barrier_arrivals != bars) {
        fail(r, "trace saw " + u64(t.barrier_arrivals) +
                    " BarrierArrive events, counters say " + u64(bars));
      }
    }
  }

  // The reference stream of these apps is fixed by the algorithm and the
  // data layout, not by the coherence protocol.
  static const std::set<std::string> kFixedRefs{"lu", "ocean", "radix"};
  checkGroupsAgree(
      recs,
      [](const SimRecord& r) {
        if (kFixedRefs.count(r.app) == 0) return std::string();
        return r.app + "/" + r.version + " " + std::to_string(r.procs) + "p " +
               paramsKey(r.params);
      },
      [](const SimRecord& r) { return r.refs(); }, "reads + writes");

  // Request-serving apps promise digests that depend only on the final
  // data and the per-request results. Index's hash and B+-tree families
  // serve different operation mixes, so each family is its own group.
  const auto hashGroup = [](const SimRecord& r) {
    std::string family;
    if (r.app == "index") {
      family = r.version.substr(0, r.version.find('-'));
    } else if (r.app != "server") {
      return std::string();
    }
    return r.app + (family.empty() ? "" : " " + family) + " " +
           paramsKey(r.params);
  };
  checkGroupsAgree(
      recs, hashGroup,
      [](const SimRecord& r) { return r.result.state_hash; }, "state_hash");
  checkGroupsAgree(
      recs, hashGroup,
      [](const SimRecord& r) { return r.result.result_hash; }, "result_hash");

  return static_cast<std::size_t>(std::count_if(
      recs.begin(), recs.end(),
      [](const SimRecord& r) { return !r.failures.empty(); }));
}

std::uint64_t simDigest(const SimRecord& r) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const char c : r.key()) mix(static_cast<unsigned char>(c));
  const rsvm::RunStats& st = r.result.stats;
  mix(st.exec_cycles);
  mix(r.base_cycles);
  mix(r.result.correct ? 1 : 0);
  mix(r.result.state_hash);
  mix(r.result.result_hash);
  for (const rsvm::ProcStats& p : st.procs) {
    for (const rsvm::Cycles c : p.buckets) mix(c);
    for (const std::uint64_t v :
         {p.reads, p.writes, p.l1_misses, p.l2_misses, p.page_faults,
          p.write_faults, p.diffs_created, p.diff_bytes, p.remote_misses,
          p.local_misses, p.invalidations_sent, p.lock_acquires,
          p.remote_lock_acquires, p.barriers, p.tasks_executed,
          p.tasks_stolen, p.allocs}) {
      mix(v);
    }
  }
  return h;
}

std::uint64_t passDigest(const std::vector<SimRecord>& recs) {
  std::vector<std::pair<std::string, std::uint64_t>> keyed;
  keyed.reserve(recs.size());
  for (const SimRecord& r : recs) keyed.emplace_back(r.key(), simDigest(r));
  std::sort(keyed.begin(), keyed.end());
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const auto& [k, d] : keyed) {
    h ^= d;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::size_t checkSameSimulation(const std::vector<SimRecord>& untraced,
                                std::vector<SimRecord>& traced) {
  std::map<std::string, std::uint64_t> ref;
  for (const SimRecord& r : untraced) ref[r.key()] = simDigest(r);
  std::size_t marked = 0;
  for (SimRecord& r : traced) {
    const auto it = ref.find(r.key());
    if (it == ref.end()) {
      fail(r, "no untraced run of this simulation to compare with");
    } else if (it->second != simDigest(r)) {
      fail(r, "simulated fields differ with tracing on (digest " +
                  hex(simDigest(r)) + " vs " + hex(it->second) + ")");
    } else {
      continue;
    }
    ++marked;
  }
  return marked;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

EndToEnd endToEnd(const PassResult& p) {
  EndToEnd e;
  e.wall_s = p.wall_s;
  double refs = 0.0;
  double host = 0.0;
  for (const SimRecord& r : p.records) {
    e.setup_s += r.setupS();
    refs += static_cast<double>(r.refs());
    host += r.hostRunS();
  }
  e.sim_refs_per_s = host > 0.0 ? refs / host : 0.0;
  return e;
}

std::map<std::string, double> perLayer(const PassResult& untraced,
                                       const PassResult& traced,
                                       double fiber_switch_ns,
                                       const rsvm::PlatformKind* only) {
  std::map<std::string, double> m;
  const auto sel = [only](const SimRecord& r) {
    return only == nullptr || r.kind == *only;
  };
  double run_u = 0.0;
  double run_t = 0.0;
  std::uint64_t refs = 0;
  std::uint64_t slow = 0;
  rsvm::ProcStats sum;
  for (const SimRecord& r : untraced.records) {
    if (!sel(r)) continue;
    run_u += r.hostRunS();
    refs += r.refs();
    slow += r.slow_accesses;
    m["apps." + r.app + ".run_s"] += r.run_s;
    for (const rsvm::ProcStats& p : r.result.stats.procs) {
      sum.l1_misses += p.l1_misses;
      sum.l2_misses += p.l2_misses;
      sum.page_faults += p.page_faults;
      sum.diff_bytes += p.diff_bytes;
      sum.lock_acquires += p.lock_acquires;
      sum.remote_lock_acquires += p.remote_lock_acquires;
      sum.barriers += p.barriers;
      sum.remote_misses += p.remote_misses;
      sum.invalidations_sent += p.invalidations_sent;
    }
  }
  double replay_s = 0.0;
  std::uint64_t replayed = 0;
  for (const SimRecord& r : traced.records) {
    if (!sel(r)) continue;
    run_t += r.hostRunS();
    replay_s += r.tally.replay_s;
    replayed += r.tally.replayed;
  }
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

  m["core.pool_idle_s"] =
      untraced.workers * untraced.wall_s - untraced.point_wall_s_sum;
  m["core.max_point_s"] = untraced.max_point_s;
  m["runtime.run_s"] = run_u;
  m["runtime.fastpath_hit_ratio"] = refs > 0 ? 1.0 - ratio(d(slow), d(refs)) : 0.0;
  m["runtime.slow_accesses"] = d(slow);
  m["mem.cache_access_ns"] = ratio(replay_s * 1e9, d(replayed));
  m["mem.l1_miss_ratio"] = ratio(d(sum.l1_misses), d(refs));
  m["mem.l2_misses"] = d(sum.l2_misses);
  m["sim.fiber_switch_ns"] = fiber_switch_ns;
  m["proto.host_us_per_sync_event"] =
      ratio(run_u * 1e6,
            d(sum.page_faults + sum.lock_acquires + sum.barriers));
  m["proto.page_faults"] = d(sum.page_faults);
  m["proto.diff_bytes"] = d(sum.diff_bytes);
  m["proto.lock_acquires"] = d(sum.lock_acquires);
  m["proto.remote_lock_acquires"] = d(sum.remote_lock_acquires);
  m["proto.barriers"] = d(sum.barriers);
  m["proto.remote_misses"] = d(sum.remote_misses);
  m["proto.invalidations_sent"] = d(sum.invalidations_sent);
  m["trace.overhead_ratio"] = ratio(run_t, run_u);
  return m;
}

}  // namespace perfbench
