//===- e2ebench/src/Bench.h - Shared benchmark plumbing ---------*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the end-to-end benchmark shares: the command
/// line, the result a run reports (operations attempted and failed,
/// correctness findings, end-to-end and per-layer metrics, host facts),
/// and small statistics helpers.  The benchmark drives the program only
/// through its public headers; nothing here reaches into its internals.
///
//===----------------------------------------------------------------------===//

#ifndef E2EBENCH_BENCH_H
#define E2EBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace xbench {

using Clock = std::chrono::steady_clock;

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
  /// Where a run keeps its servers' state dirs and sockets and the traced
  /// run writes its spans (inside the checkout).
  std::string OutDir = ".bench_out";
};

/// What one run reports.  Workloads fill End (end-to-end metrics, from
/// untraced work) or Layer (per-layer metrics, from the traced run) by
/// the names BENCHMARK.json declares; Host collects facts about the machine and
/// the configuration the figures belong to.
struct Report {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Problems;
  std::vector<std::string> Notes;
  std::map<std::string, double> End;
  std::map<std::string, double> Layer;
  std::vector<std::pair<std::string, std::string>> Host;

  /// Records a correctness check; a failed one makes the run incorrect.
  bool check(bool Ok, const std::string &What) {
    if (!Ok) {
      Correct = false;
      Problems.push_back(What);
    }
    return Ok;
  }
  void host(const std::string &Key, const std::string &Value) {
    Host.emplace_back(Key, Value);
  }
  void host(const std::string &Key, uint64_t Value) {
    Host.emplace_back(Key, std::to_string(Value));
  }
};

/// Linear-interpolated quantile (Q in [0, 1]) of \p Values; 0 when empty.
double quantile(std::vector<double> Values, double Q);
inline double median(std::vector<double> Values) {
  return quantile(std::move(Values), 0.5);
}
double mean(const std::vector<double> &Values);
/// Mean of the values ranked between quantiles Q - HalfWidth and
/// Q + HalfWidth: a quantile estimate that stays continuous when the
/// samples are coarse (whole nanoseconds), where a plain order statistic
/// would repeat the same value run after run.
double bandQuantile(std::vector<double> Values, double Q,
                    double HalfWidth = 0.005);

/// Peak resident set of this process in MB (VmHWM).
double peakRssMb();

/// Online processors of this host.
unsigned hostCpus();

/// The host's cumulative CPU time split, from /proc/stat (clock ticks).
struct CpuTicks {
  uint64_t Busy = 0;  ///< user + nice + system + irq + softirq
  uint64_t Steal = 0; ///< time the hypervisor ran something else
  uint64_t Total = 0;
};
CpuTicks cpuTicks();

/// Which measured units (time slices, bug instances) count: those during
/// which the hypervisor stole the least processor time — every unit whose
/// steal ticks are at most the lower quartile of all of them.  On this
/// kind of shared host a unit that lost its processors reads slow for
/// reasons outside the program; on a quiet host every unit counts.
std::vector<bool> quietUnits(const std::vector<uint64_t> &StealTicks);

/// Deterministic 64-bit mixer for deriving sub-seeds from --seed.
inline uint64_t mixSeed(uint64_t Seed, uint64_t Salt) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ull * (Salt + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

/// Total bytes of the regular files directly under \p Dir.
uint64_t directoryBytes(const std::string &Dir);

/// Removes \p Dir recursively (if present) and creates it empty.
bool freshDirectory(const std::string &Dir);

int runProtect(const Options &Opt, Report &R);
int runIngest(const Options &Opt, Report &R);
int runHeapMt(const Options &Opt, Report &R);

} // namespace xbench

#endif // E2EBENCH_BENCH_H
