//===- e2ebench/src/Trace.cpp - In-memory spans for the traced run --------===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "Bench.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

using namespace xbench;

namespace {

struct ThreadBuffer {
  uint32_t Thread = 0;
  std::vector<Span> Spans;
  std::vector<uint32_t> Open; ///< handles of open spans, innermost last
};

std::atomic<bool> Enabled{false};
std::mutex RegistryMutex;
/// Owns every thread's buffer, so spans outlive the threads that made
/// them (client and allocator threads end before the summary).
std::vector<std::unique_ptr<ThreadBuffer>> Buffers;

ThreadBuffer &localBuffer() {
  thread_local ThreadBuffer *Local = nullptr;
  if (!Local) {
    std::lock_guard<std::mutex> Lock(RegistryMutex);
    Buffers.push_back(std::make_unique<ThreadBuffer>());
    Local = Buffers.back().get();
    Local->Thread = static_cast<uint32_t>(Buffers.size() - 1);
    Local->Spans.reserve(1 << 14);
  }
  return *Local;
}

} // namespace

const char *xbench::layerName(Layer L) {
  switch (L) {
  case Layer::Root:
    return "unaccounted";
  case Layer::Workload:
    return "workload";
  case Layer::Correct:
    return "correct";
  case Layer::Runtime:
    return "runtime";
  case Layer::Cumulative:
    return "cumulative";
  case Layer::Codec:
    return "codec";
  case Layer::Exchange:
    return "exchange";
  case Layer::Alloc:
    return "alloc";
  case Layer::NumLayers:
    break;
  }
  return "?";
}

void trace::enable(bool On) { Enabled.store(On, std::memory_order_relaxed); }

bool trace::enabled() { return Enabled.load(std::memory_order_relaxed); }

uint32_t trace::open(Layer L, uint64_t Request) {
  ThreadBuffer &B = localBuffer();
  Span S;
  S.Kind = L;
  S.Thread = B.Thread;
  S.Parent = B.Open.empty() ? 0 : B.Open.back();
  S.Request = Request || !S.Parent ? Request : B.Spans[S.Parent - 1].Request;
  S.Start = nowNs();
  B.Spans.push_back(S);
  const uint32_t Handle = static_cast<uint32_t>(B.Spans.size());
  B.Open.push_back(Handle);
  return Handle;
}

void trace::close(uint32_t Handle) {
  ThreadBuffer &B = localBuffer();
  B.Spans[Handle - 1].End = nowNs();
  if (!B.Open.empty() && B.Open.back() == Handle)
    B.Open.pop_back();
}

void trace::addAggregate(Layer L, uint64_t Start, uint64_t Nanos) {
  if (!enabled())
    return;
  ThreadBuffer &B = localBuffer();
  Span S;
  S.Kind = L;
  S.Thread = B.Thread;
  S.Parent = B.Open.empty() ? 0 : B.Open.back();
  S.Request = S.Parent ? B.Spans[S.Parent - 1].Request : 0;
  S.Start = Start;
  S.End = Start + Nanos;
  B.Spans.push_back(S);
}

std::vector<Span> trace::collect() {
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  std::vector<Span> All;
  for (const auto &B : Buffers)
    All.insert(All.end(), B->Spans.begin(), B->Spans.end());
  return All;
}

void trace::clear() {
  std::lock_guard<std::mutex> Lock(RegistryMutex);
  for (const auto &B : Buffers) {
    B->Spans.clear();
    B->Open.clear();
  }
}

SelfTimes trace::selfTimes(const std::vector<Span> &Spans) {
  // collect() concatenates whole per-thread buffers, so a thread's spans
  // are contiguous and a 1-based Parent is relative to the thread's
  // first span.
  std::vector<uint64_t> ChildNs(Spans.size(), 0);
  size_t Base = 0;
  for (size_t I = 0; I < Spans.size(); ++I) {
    if (I > 0 && Spans[I].Thread != Spans[I - 1].Thread)
      Base = I;
    if (Spans[I].Parent)
      ChildNs[Base + Spans[I].Parent - 1] += Spans[I].End - Spans[I].Start;
  }
  SelfTimes Out;
  Out.Spans = Spans.size();
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (S.End < S.Start)
      continue; // still open: not part of any finished operation
    const uint64_t Duration = S.End - S.Start;
    const uint64_t Self = Duration > ChildNs[I] ? Duration - ChildNs[I] : 0;
    Out.Ms[static_cast<size_t>(S.Kind)] += double(Self) / 1e6;
    if (!S.Parent)
      Out.TracedMs += double(Duration) / 1e6;
  }
  return Out;
}

bool trace::writeSpans(const std::vector<Span> &Spans,
                       const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "thread\tindex\tparent\trequest\tlayer\tstart_ns\tend_ns\n");
  size_t Base = 0;
  for (size_t I = 0; I < Spans.size(); ++I) {
    if (I > 0 && Spans[I].Thread != Spans[I - 1].Thread)
      Base = I;
    const Span &S = Spans[I];
    std::fprintf(F, "%u\t%zu\t%u\t%llu\t%s\t%llu\t%llu\n", S.Thread,
                 I - Base + 1, S.Parent, (unsigned long long)S.Request,
                 layerName(S.Kind), (unsigned long long)S.Start,
                 (unsigned long long)S.End);
  }
  return std::fclose(F) == 0;
}
