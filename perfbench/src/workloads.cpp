// The four workloads. Each pairs inputs with the layer it stresses; see
// perfbench/README.md for why each one exists.
#include "perfbench.hpp"

#include <stdexcept>

namespace perfbench {

namespace {

using rsvm::PlatformKind;

const rsvm::AppDesc& app(const std::string& name) {
  const rsvm::AppDesc* a = rsvm::Registry::instance().find(name);
  if (a == nullptr) throw std::invalid_argument("no app '" + name + "'");
  return *a;
}

rsvm::AppParams seeded(rsvm::AppParams p, const std::uint64_t* seed) {
  if (seed != nullptr) p.seed = *seed;
  return p;
}

/// `versions` of `app_name` on each of `kinds` at 16 processors.
void add(Workload& w, const std::string& app_name,
         const std::vector<std::string>& versions,
         const rsvm::AppParams& params,
         std::initializer_list<PlatformKind> kinds) {
  for (const std::string& v : versions) {
    for (const PlatformKind k : kinds) {
      w.sims.push_back(SimSpec{app_name, v, k, params, 16});
    }
  }
}

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names{"fig16", "miss-heavy",
                                              "hit-heavy", "sync-heavy"};
  return names;
}

Workload makeWorkload(const std::string& name, const std::uint64_t* seed) {
  Workload w;
  w.name = name;
  if (name == "fig16") {
    // Figure 16 at default scale: every app x every version x SVM/SMP/DSM,
    // in the order bench/fig16_portability submits them.
    w.sweep = true;
    for (const rsvm::AppDesc& a : rsvm::Registry::instance().all()) {
      // Skip the sweep's timed copies of the apps (run.cpp).
      if (a.name.find('/') != std::string::npos) continue;
      std::vector<std::string> versions;
      for (const rsvm::VersionDesc& v : a.versions) versions.push_back(v.name);
      add(w, a.name, versions, seeded(a.small, seed),
          {PlatformKind::SVM, PlatformKind::SMP, PlatformKind::NUMA});
    }
  } else if (name == "miss-heavy") {
    // The paper-scale critical point (lu/2d, n=1024) at an eighth of the
    // work: about half the references miss the direct-mapped L1.
    rsvm::AppParams p = seeded(app("lu").paper, seed);
    p.n = 512;
    add(w, "lu", {"2d"}, p, {PlatformKind::SVM, PlatformKind::SMP});
  } else if (name == "hit-heavy") {
    for (const char* a : {"shearwarp", "volrend"}) {
      add(w, a, {"orig"}, seeded(app(a).paper, seed),
          {PlatformKind::SVM, PlatformKind::SMP});
    }
  } else if (name == "sync-heavy") {
    add(w, "server", {"orig"}, seeded(app("server").paper, seed),
        {PlatformKind::SVM, PlatformKind::SMP, PlatformKind::NUMA});
    add(w, "index", {"hash-orig"}, seeded(app("index").paper, seed),
        {PlatformKind::SVM, PlatformKind::SMP, PlatformKind::NUMA});
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

}  // namespace perfbench
