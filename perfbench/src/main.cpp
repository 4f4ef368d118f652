// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload W [--seed N] [--seconds S] [--trace 0|1]
//   perfbench --table
//
// Untraced (--trace 0): repeat whole passes of the workload while the
// next one is expected to end within S seconds (at least one), check
// every simulation, and report the median pass's end-to-end metrics.
// Traced (--trace 1): one untraced and one traced pass, then the
// per-layer metrics. --table: one pass of every workload at the
// applications' default seeds, printed as the README's reference table.
//
// Human-readable lines go first; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics": {name: value}}.
// perfbench/run.py builds this program and attaches units.
#include "perfbench.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>

namespace {

using perfbench::PassOptions;
using perfbench::PassResult;
using perfbench::SimRecord;

struct Args {
  std::string workload;
  bool has_seed = false;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool table = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W [--seed N] "
               "[--seconds S] [--trace 0|1]\n       perfbench --table\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--table") {
      a.table = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      a.has_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (a.seconds <= 0.0) usage("--seconds must be positive");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else {
      usage("unknown flag " + flag);
    }
    if (end != nullptr && *end != '\0') usage("bad number '" + v + "'");
  }
  if (!a.table && a.workload.empty()) usage("--workload is required");
  return a;
}

std::size_t report(const PassResult& p, const char* label) {
  std::size_t failed = 0;
  for (const SimRecord& r : p.records) {
    if (r.failures.empty()) continue;
    ++failed;
    for (const std::string& f : r.failures) {
      std::printf("FAILED [%s] %s: %s\n", label, r.key().c_str(), f.c_str());
    }
  }
  return failed;
}

void printResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::map<std::string, double>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  const char* sep = "";
  for (const auto& [name, v] : metrics) {
    std::printf("%s\"%s\": %.17g", sep, name.c_str(), v);
    sep = ", ";
  }
  std::printf("}}\n");
}

int untraced(const perfbench::Workload& w, const Args& a) {
  PassOptions opt;
  opt.jobs = perfbench::hostCores();
  std::vector<double> wall, setup, rate;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
  std::uint64_t digest = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    const PassResult p = perfbench::runPass(w, opt);
    const perfbench::EndToEnd e = perfbench::endToEnd(p);
    wall.push_back(e.wall_s);
    setup.push_back(e.setup_s);
    rate.push_back(e.sim_refs_per_s);
    attempted += p.records.size();
    failed += report(p, "untraced");
    const std::uint64_t d = perfbench::passDigest(p.records);
    if (wall.size() > 1 && d != digest) {
      std::printf("NOT DETERMINISTIC: pass %zu digest %016llx != %016llx\n",
                  wall.size(), static_cast<unsigned long long>(d),
                  static_cast<unsigned long long>(digest));
      correct = false;
    }
    digest = d;
    std::printf("pass %zu: %zu simulations, wall %.3f s, setup %.3f s, "
                "%.4g refs/s\n",
                wall.size(), p.records.size(), e.wall_s, e.setup_s,
                e.sim_refs_per_s);
    // Stop unless another pass as long as this one fits in --seconds.
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    if (elapsed + e.wall_s > a.seconds) break;
  }
  std::printf("workload %s: host_cores %d, sweep workers %d, %zu passes, "
              "simulated-field digest %016llx\n",
              w.name.c_str(), perfbench::hostCores(),
              w.sweep ? opt.jobs : 1, wall.size(),
              static_cast<unsigned long long>(digest));
  printResult(correct, attempted, failed,
              {{"wall_s", perfbench::median(wall)},
               {"setup_s", perfbench::median(setup)},
               {"sim_refs_per_s", perfbench::median(rate)}});
  return 0;
}

/// Print per-layer metrics; per-platform scopes skip the pass-wide ones.
void printLayers(const char* scope, const std::map<std::string, double>& m,
                 bool pass_wide) {
  for (const auto& [name, v] : m) {
    if (!pass_wide && (name.starts_with("core.") || name.starts_with("sim."))) {
      continue;
    }
    std::printf("layer %-5s %-32s %.6g\n", scope, name.c_str(), v);
  }
}

int traced(const perfbench::Workload& w) {
  PassOptions opt;
  opt.jobs = perfbench::hostCores();
  const PassResult u = perfbench::runPass(w, opt);
  std::map<std::string, std::uint64_t> refs;
  for (const SimRecord& r : u.records) refs[r.key()] = r.refs();
  opt.traced = true;
  opt.refs_by_key = &refs;
  PassResult t = perfbench::runPass(w, opt);
  perfbench::checkSameSimulation(u.records, t.records);
  const std::size_t failed = report(u, "untraced") + report(t, "traced");
  const double fiber_ns = perfbench::fiberSwitchNs();

  const std::uint64_t du = perfbench::passDigest(u.records);
  const std::uint64_t dt = perfbench::passDigest(t.records);
  std::printf("workload %s: host_cores %d, simulated-field digest %016llx "
              "untraced, %016llx traced\n",
              w.name.c_str(), perfbench::hostCores(),
              static_cast<unsigned long long>(du),
              static_cast<unsigned long long>(dt));
  const auto all = perfbench::perLayer(u, t, fiber_ns);
  printLayers("all", all, true);
  for (const rsvm::PlatformKind k :
       {rsvm::PlatformKind::SVM, rsvm::PlatformKind::SMP,
        rsvm::PlatformKind::NUMA}) {
    const bool present = std::any_of(
        u.records.begin(), u.records.end(),
        [k](const SimRecord& r) { return r.kind == k; });
    if (present) {
      printLayers(rsvm::platformName(k), perfbench::perLayer(u, t, fiber_ns, &k),
                  false);
    }
  }
  // A digest mismatch is already counted per simulation above.
  printResult(true, u.records.size() + t.records.size(), failed, all);
  return 0;
}

/// "cycles" or "cycles / speedup" of one simulation for the table.
std::string cell(const SimRecord* r) {
  if (r == nullptr) return "-";
  std::string s = std::to_string(r->result.stats.exec_cycles);
  if (r->base_cycles != 0 && r->result.stats.exec_cycles != 0) {
    char buf[32];
    std::snprintf(buf, sizeof buf, " / %.2f",
                  static_cast<double>(r->base_cycles) /
                      static_cast<double>(r->result.stats.exec_cycles));
    s += buf;
  }
  return s;
}

int table() {
  std::printf("| workload | simulation | SVM | SMP | DSM |\n"
              "|---|---|---:|---:|---:|\n");
  std::size_t failed = 0;
  std::size_t attempted = 0;
  std::vector<std::pair<std::string, std::uint64_t>> digests;
  for (const std::string& name : perfbench::workloadNames()) {
    const perfbench::Workload w = perfbench::makeWorkload(name, nullptr);
    PassOptions opt;
    opt.jobs = perfbench::hostCores();
    const PassResult p = perfbench::runPass(w, opt);
    // One row per app/version in workload order, one column per platform.
    std::vector<std::string> rows;
    std::map<std::string, std::map<rsvm::PlatformKind, const SimRecord*>> by;
    for (const perfbench::SimSpec& s : w.sims) {
      const std::string row = s.app + "/" + s.version;
      if (by.count(row) == 0) rows.push_back(row);
      by[row];
    }
    for (const SimRecord& r : p.records) {
      if (!r.baseline) by[r.app + "/" + r.version][r.kind] = &r;
    }
    for (const std::string& row : rows) {
      auto& cols = by[row];
      const auto get = [&cols](rsvm::PlatformKind k) {
        const auto it = cols.find(k);
        return it == cols.end() ? nullptr : it->second;
      };
      std::printf("| %s | %s | %s | %s | %s |\n", name.c_str(), row.c_str(),
                  cell(get(rsvm::PlatformKind::SVM)).c_str(),
                  cell(get(rsvm::PlatformKind::SMP)).c_str(),
                  cell(get(rsvm::PlatformKind::NUMA)).c_str());
    }
    attempted += p.records.size();
    failed += report(p, name.c_str());
    digests.emplace_back(name, perfbench::passDigest(p.records));
  }
  std::printf("\n");
  for (const auto& [name, d] : digests) {
    std::printf("simulated-field digest %s: %016llx\n", name.c_str(),
                static_cast<unsigned long long>(d));
  }
  printResult(true, attempted, failed, {});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  try {
    rsvm::registerAllApps();
    if (a.table) return table();
    const perfbench::Workload w =
        perfbench::makeWorkload(a.workload, a.has_seed ? &a.seed : nullptr);
    return a.trace ? traced(w) : untraced(w, a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
