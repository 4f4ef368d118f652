// Repository benchmark: host cost of the simulator on four workloads,
// measured from outside the program through its public API only.
//
// A workload is a fixed list of simulations. One *pass* runs every
// simulation once and yields a SimRecord per simulation (including the
// uniprocessor baselines a sweep computes). Checks, digests and metric
// arithmetic below are pure functions of those records, so the
// benchmark's own tests can feed them tampered results.
#pragma once

#include "core/app.hpp"
#include "runtime/platform.hpp"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One simulation of a workload.
struct SimSpec {
  std::string app;
  std::string version;
  rsvm::PlatformKind kind = rsvm::PlatformKind::SVM;
  rsvm::AppParams params;
  int procs = 16;
};

struct Workload {
  std::string name;
  /// true: run the specs as one SweepRunner sweep with uniprocessor
  /// baselines (fig16); false: run them one at a time.
  bool sweep = false;
  std::vector<SimSpec> sims;
};

/// Tallies a TraceRecorder kept for one traced simulation, plus the
/// standalone cache replay of a sampled window of its reference stream.
struct TraceTally {
  std::uint64_t shared_accesses = 0;  ///< Shared/Racy Read/Write events
  std::uint64_t lock_grants = 0;
  std::uint64_t barrier_arrivals = 0;
  std::uint64_t replayed = 0;         ///< sampled references replayed
  double replay_s = 0.0;              ///< host time of the replay
};

/// Everything the benchmark observes about one simulation.
struct SimRecord {
  std::string app;
  std::string version;
  rsvm::PlatformKind kind = rsvm::PlatformKind::SVM;
  rsvm::AppParams params;
  int procs = 0;
  bool baseline = false;  ///< a sweep's uniprocessor baseline

  rsvm::AppResult result;          ///< what VersionDesc::run returned
  std::uint64_t slow_accesses = 0;  ///< Platform::slowAccessCalls()
  double create_s = 0.0;  ///< host time in Platform::create
  double run_s = 0.0;     ///< host time in VersionDesc::run
  /// Sweep outcome of the point (fig16 only): error text and the
  /// baseline cycles the runner used for its speedup.
  std::string sweep_error;
  rsvm::Cycles base_cycles = 0;

  bool traced = false;
  TraceTally tally;

  /// Why this simulation counts as failed (empty = it passed).
  std::vector<std::string> failures;

  [[nodiscard]] std::string key() const;
  [[nodiscard]] std::uint64_t refs() const;
  [[nodiscard]] double hostRunS() const {
    return result.stats.host_wall_ms / 1000.0;
  }
  /// Host time outside the timed parallel section: platform construction,
  /// shared allocation, untimed input generation and verification.
  [[nodiscard]] double setupS() const {
    return create_s + run_s - hostRunS();
  }
};

// ---- workloads (workloads.cpp) ----

/// Names accepted by makeWorkload, in BENCHMARK.json order.
const std::vector<std::string>& workloadNames();

/// Build a workload. `seed` replaces every application's input seed;
/// when absent each application keeps its registry seed (the defaults
/// the reference table uses). Throws std::invalid_argument on an unknown
/// name. Requires rsvm::registerAllApps() first.
Workload makeWorkload(const std::string& name, const std::uint64_t* seed);

// ---- running (run.cpp) ----

struct PassOptions {
  bool traced = false;
  int jobs = 1;  ///< sweep workers (fig16)
  /// Traced passes sample the reference window centred in each
  /// simulation; its length comes from an earlier untraced pass (by key).
  const std::map<std::string, std::uint64_t>* refs_by_key = nullptr;
};

struct PassResult {
  std::vector<SimRecord> records;  ///< sorted by key()
  double wall_s = 0.0;  ///< first simulation start -> last verified result
  int workers = 1;
  /// Per-point host wall time: SweepResult::wall_ms for a sweep,
  /// Platform::create + VersionDesc::run otherwise.
  double point_wall_s_sum = 0.0;
  double max_point_s = 0.0;
};

/// Run every simulation of `w` once and check the results (see
/// checkRecords). Never throws for a failing simulation: failures land
/// in the records.
PassResult runPass(const Workload& w, const PassOptions& opt);

/// Host cores this process may run on (the affinity mask, as nproc).
int hostCores();

/// Median host nanoseconds per fiber switch, from resume/yield
/// ping-pong round trips (two switches each).
double fiberSwitchNs();

// ---- checks and digests (checks.cpp) ----

/// Apply every property check to one pass's records, appending a reason
/// to SimRecord::failures for each violation:
///  * the application's own verification (AppResult::correct) and any
///    sweep-level error;
///  * exec_cycles equals the largest sum of one processor's six
///    breakdown buckets;
///  * slowAccessCalls() <= reads + writes;
///  * lu, ocean and radix issue the same reads + writes on every
///    platform (same version, inputs and processor count);
///  * server and index give identical state/result hashes across
///    platforms and versions (index: within one data-structure family);
///  * traced records: the recorder's tallies equal the counters.
/// Returns the number of records with at least one failure.
std::size_t checkRecords(std::vector<SimRecord>& recs);

/// Mark every record of `traced` whose simulated fields differ from the
/// same simulation in `untraced`, or that has no counterpart there.
/// Returns the number of records newly marked.
std::size_t checkSameSimulation(const std::vector<SimRecord>& untraced,
                                std::vector<SimRecord>& traced);

/// FNV-1a digest of every simulated field of one record (cycles,
/// buckets, counters, hashes, correctness) -- never host times.
std::uint64_t simDigest(const SimRecord& r);
/// Digest of a pass: its records' digests in key order.
std::uint64_t passDigest(const std::vector<SimRecord>& recs);

// ---- metric arithmetic (checks.cpp) ----

double median(std::vector<double> v);

/// End-to-end metrics of one pass (tracing off).
struct EndToEnd {
  double wall_s = 0.0;
  double setup_s = 0.0;         ///< sum of SimRecord::setupS()
  double sim_refs_per_s = 0.0;  ///< sum refs / sum host_wall_ms
};
EndToEnd endToEnd(const PassResult& p);

/// Per-layer metrics of one workload, keyed by name: `untraced` and
/// `traced` are two passes over the same simulations. With `only` set,
/// the simulation-level metrics cover that platform's records alone
/// (the pool metrics stay pass-wide).
std::map<std::string, double> perLayer(
    const PassResult& untraced, const PassResult& traced,
    double fiber_switch_ns, const rsvm::PlatformKind* only = nullptr);

}  // namespace perfbench
