//===- e2ebench/src/main.cpp - End-to-end benchmark binary ----------------===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// e2ebench --workload protect|ingest|heap-mt --seed N --seconds S
///          --trace 0|1
///
/// Runs one workload for S seconds and prints, as its last line, one JSON
/// object: {"correct", "attempted", "failed", "metrics"}, where metrics
/// maps each metric the run measured to its value.  With --trace 0 those
/// are the end-to-end metrics, measured untraced; with --trace 1 the
/// per-layer ones, from a run that records spans (written to .bench_out/
/// under the working directory) and reports each layer's self time, the
/// residual, and the tracing overhead.  BENCHMARK.json names the metrics
/// and their units; run.py checks the names and adds the units.  Lines
/// before the last describe the host and configuration, and any failed
/// correctness check.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Trace.h"

#include "diefast/Canary.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

using namespace xbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload protect|ingest|heap-mt --seed N "
               "--seconds S --trace 0|1\n");
  return 2;
}

std::string jsonNumber(double V) {
  char Buf[64];
  const auto Res = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, Res.ptr);
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

/// Turns the traced run's spans into self times and writes them out.
void summarizeTrace(const Options &Opt, Report &R) {
  const std::vector<Span> Spans = trace::collect();
  const SelfTimes Self = trace::selfTimes(Spans);
  double Covered = 0.0;
  for (size_t L = 0; L < static_cast<size_t>(Layer::NumLayers); ++L) {
    R.Layer[std::string("self_ms.") + layerName(static_cast<Layer>(L))] =
        Self.Ms[L];
    Covered += Self.Ms[L];
  }
  R.Layer["trace.traced_ms"] = Self.TracedMs;
  R.Layer["trace.spans"] = double(Self.Spans);
  R.check(Self.TracedMs > 0 &&
              std::fabs(Covered - Self.TracedMs) <= 1e-6 * Self.TracedMs + 1e-3,
          "layer self times do not sum to the traced end-to-end time");

  const std::string Path = Opt.OutDir + "/" + Opt.Workload + "-seed" +
                           std::to_string(Opt.Seed) + ".spans.tsv";
  if (!trace::writeSpans(Spans, Path))
    R.Notes.push_back("could not write " + Path);

  std::printf("# layer self time over %.1f ms traced (%llu spans, %s)\n",
              Self.TracedMs, (unsigned long long)Self.Spans, Path.c_str());
  for (size_t L = 0; L < static_cast<size_t>(Layer::NumLayers); ++L)
    if (Self.Ms[L] > 0)
      std::printf("#   %-12s %12.3f ms  %5.1f%%\n",
                  layerName(static_cast<Layer>(L)), Self.Ms[L],
                  100.0 * Self.Ms[L] / Self.TracedMs);
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  bool HaveWorkload = false, HaveSeed = false, HaveSeconds = false,
       HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      return usage();
    const char *Value = Argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      Opt.Workload = Value;
      HaveWorkload = true;
    } else if (Arg == "--seed") {
      Opt.Seed = std::strtoull(Value, &End, 10);
      HaveSeed = End && *End == '\0' && *Value;
    } else if (Arg == "--seconds") {
      Opt.Seconds = std::strtod(Value, &End);
      HaveSeconds = End && *End == '\0' && Opt.Seconds > 0;
    } else if (Arg == "--trace") {
      Opt.Trace = std::strcmp(Value, "1") == 0;
      HaveTrace = Opt.Trace || std::strcmp(Value, "0") == 0;
    } else {
      return usage();
    }
  }
  if (!HaveWorkload || !HaveSeed || !HaveSeconds || !HaveTrace)
    return usage();

  int (*Run)(const Options &, Report &) = nullptr;
  if (Opt.Workload == "protect")
    Run = runProtect;
  else if (Opt.Workload == "ingest")
    Run = runIngest;
  else if (Opt.Workload == "heap-mt")
    Run = runHeapMt;
  else
    return usage();

  std::error_code Ec;
  std::filesystem::create_directories(Opt.OutDir, Ec);
  if (Ec) {
    std::fprintf(stderr, "cannot create %s\n", Opt.OutDir.c_str());
    return 1;
  }

  Report R;
  R.host("nproc", hostCpus());
  R.host("canary_dispatch", exterminator::canary_dispatch::activeName());
  R.host("workload", Opt.Workload);
  R.host("seed", Opt.Seed);
  R.host("seconds", jsonNumber(Opt.Seconds));
  R.host("trace", Opt.Trace ? 1 : 0);
  const CpuTicks Before = cpuTicks();
  const int Status = Run(Opt, R);
  if (Status != 0)
    return Status;
  // How much of the host the run had: a run on a busy shared host reads
  // slower for reasons outside the program.
  const CpuTicks After = cpuTicks();
  if (After.Total > Before.Total) {
    const double Total = double(After.Total - Before.Total);
    R.host("host_busy_pct",
           jsonNumber(std::round(1000.0 * double(After.Busy - Before.Busy) /
                                 Total) / 10));
    R.host("host_steal_pct",
           jsonNumber(std::round(1000.0 * double(After.Steal - Before.Steal) /
                                 Total) / 10));
  }
  if (Opt.Trace)
    summarizeTrace(Opt, R);

  std::string Metrics;
  for (const auto &[Name, Value] : Opt.Trace ? R.Layer : R.End) {
    const bool Finite =
        R.check(std::isfinite(Value), "metric " + Name + " is not finite");
    Metrics += (Metrics.empty() ? "" : ", ") + jsonString(Name) + ": " +
               jsonNumber(Finite ? Value : 0.0);
  }

  std::string HostLine = "# host {";
  for (size_t I = 0; I < R.Host.size(); ++I)
    HostLine += (I ? ", " : "") + jsonString(R.Host[I].first) + ": " +
                jsonString(R.Host[I].second);
  std::printf("%s}\n", HostLine.c_str());
  for (const std::string &Note : R.Notes)
    std::printf("# note: %s\n", Note.c_str());
  for (const std::string &Problem : R.Problems) {
    std::printf("# FAILED CHECK: %s\n", Problem.c_str());
    std::fprintf(stderr, "FAILED CHECK: %s\n", Problem.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              R.Correct ? "true" : "false",
              (unsigned long long)R.Attempted,
              (unsigned long long)R.Failed, Metrics.c_str());
  return 0;
}
