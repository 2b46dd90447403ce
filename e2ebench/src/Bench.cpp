//===- e2ebench/src/Bench.cpp - Shared benchmark plumbing -----------------===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>

#include <unistd.h>

using namespace xbench;

double xbench::quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  const double Pos = Q * double(Values.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * (Pos - double(Lo));
}

double xbench::bandQuantile(std::vector<double> Values, double Q,
                           double HalfWidth) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  const double Last = double(Values.size() - 1);
  const size_t Lo = static_cast<size_t>(std::max(0.0, Q - HalfWidth) * Last);
  const size_t Hi = static_cast<size_t>(std::min(1.0, Q + HalfWidth) * Last);
  double Sum = 0;
  for (size_t I = Lo; I <= Hi; ++I)
    Sum += Values[I];
  return Sum / double(Hi - Lo + 1);
}

double xbench::mean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double Sum = 0;
  for (double V : Values)
    Sum += V;
  return Sum / double(Values.size());
}

double xbench::peakRssMb() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0.0;
  char Line[256];
  double Kb = 0.0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::strncmp(Line, "VmHWM:", 6) == 0) {
      Kb = std::strtod(Line + 6, nullptr);
      break;
    }
  std::fclose(F);
  return Kb / 1024.0;
}

unsigned xbench::hostCpus() {
  const long N = ::sysconf(_SC_NPROCESSORS_ONLN);
  return N > 0 ? static_cast<unsigned>(N)
               : std::max(1u, std::thread::hardware_concurrency());
}

CpuTicks xbench::cpuTicks() {
  CpuTicks Out;
  std::FILE *F = std::fopen("/proc/stat", "r");
  if (!F)
    return Out;
  unsigned long long V[8] = {};
  if (std::fscanf(F, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &V[0],
                  &V[1], &V[2], &V[3], &V[4], &V[5], &V[6], &V[7]) == 8) {
    Out.Busy = V[0] + V[1] + V[2] + V[5] + V[6];
    Out.Steal = V[7];
    for (unsigned long long X : V)
      Out.Total += X;
  }
  std::fclose(F);
  return Out;
}

std::vector<bool> xbench::quietUnits(const std::vector<uint64_t> &StealTicks) {
  if (StealTicks.empty())
    return {};
  std::vector<uint64_t> Sorted = StealTicks;
  std::sort(Sorted.begin(), Sorted.end());
  const uint64_t Threshold = Sorted[(Sorted.size() - 1) / 4];
  std::vector<bool> Quiet;
  for (uint64_t Ticks : StealTicks)
    Quiet.push_back(Ticks <= Threshold);
  return Quiet;
}

uint64_t xbench::directoryBytes(const std::string &Dir) {
  std::error_code Ec;
  uint64_t Total = 0;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir, Ec))
    if (Entry.is_regular_file(Ec))
      Total += Entry.file_size(Ec);
  return Total;
}

bool xbench::freshDirectory(const std::string &Dir) {
  std::error_code Ec;
  std::filesystem::remove_all(Dir, Ec);
  return std::filesystem::create_directories(Dir, Ec) && !Ec;
}
