//===- e2ebench/src/Instruments.h - Outside-only instruments ----*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Instruments that act only from outside the program, through its
/// public extension points:
///
///  * TimingTransport: a ClientTransport decorator that times each round
///    trip, counts bytes per frame, keys both by message type, and can
///    record the frames for a later replay.
///  * TimingAllocator / TimingWorkload: an Allocator wrapper that times
///    every call, and a Workload wrapper that puts it between a program
///    and the heap runWorkloadOnce builds for it.
///  * replayFrames: feeds recorded request frames to a fresh PatchServer
///    and times handleFrame per message type (server stage times with no
///    socket in the way).
///  * metricValue / histogramMeanMs: readers for a MetricsRegistry
///    snapshot.
///
//===----------------------------------------------------------------------===//

#ifndef E2EBENCH_INSTRUMENTS_H
#define E2EBENCH_INSTRUMENTS_H

#include "Bench.h"
#include "Trace.h"

#include "exchange/PatchServer.h"
#include "exchange/Transport.h"
#include "observe/MetricsRegistry.h"
#include "workload/Workload.h"

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace xbench {

using exterminator::Allocator;
using exterminator::AllocatorHandle;
using exterminator::AllocatorStats;
using exterminator::ClientTransport;
using exterminator::DiagnosisConfig;
using exterminator::MetricsSnapshot;
using exterminator::Workload;
using exterminator::WorkloadResult;

/// Request kinds the benchmark reports separately.
enum class Kind : uint8_t { Images, Summary, Fetch, Other, NumKinds };
const char *kindName(Kind K);
/// The kind of a request frame (read from its header).
Kind frameKind(const std::vector<uint8_t> &Frame);

/// One request/response pair captured off the wire.
struct RecordedFrame {
  uint64_t Sequence = 0; ///< global send order across client threads
  double RttMs = 0.0;    ///< round trip of the exchange that carried it
  std::vector<uint8_t> Request;
  std::vector<uint8_t> Response;
};

class TimingTransport : public ClientTransport {
public:
  explicit TimingTransport(ClientTransport &Inner) : Inner(Inner) {}

  bool exchange(const std::vector<std::vector<uint8_t>> &Requests,
                std::vector<std::vector<uint8_t>> &ResponsesOut) override;
  std::string lastError() const override { return Inner.lastError(); }

  /// Round-trip times in ms, per kind of the batch's first frame.
  const std::vector<double> &rttMs(Kind K) const {
    return Rtt[static_cast<size_t>(K)];
  }
  uint64_t bytesOut() const { return BytesOut; }
  /// Responses that were ErrorReply frames or missing.
  uint64_t errorReplies() const { return ErrorReplies; }

  /// While set, every frame pair is appended to \p Out, stamped from
  /// \p Sequence (shared by all recording transports).
  void recordInto(std::vector<RecordedFrame> *Out,
                  std::atomic<uint64_t> *Sequence) {
    Recorded = Out;
    SequenceSource = Sequence;
  }

private:
  ClientTransport &Inner;
  std::array<std::vector<double>, static_cast<size_t>(Kind::NumKinds)> Rtt;
  uint64_t BytesOut = 0;
  uint64_t ErrorReplies = 0;
  std::vector<RecordedFrame> *Recorded = nullptr;
  std::atomic<uint64_t> *SequenceSource = nullptr;
};

/// Times every allocate/deallocate of the wrapped allocator.
class TimingAllocator : public Allocator {
public:
  explicit TimingAllocator(Allocator &Inner) : Inner(Inner) {}

  void *allocate(size_t Size) override {
    const uint64_t T0 = nowNs();
    void *P = Inner.allocate(Size);
    Nanos += nowNs() - T0;
    ++Ops;
    return P;
  }
  void deallocate(void *Ptr) override {
    const uint64_t T0 = nowNs();
    Inner.deallocate(Ptr);
    Nanos += nowNs() - T0;
    ++Ops;
  }
  const char *name() const override { return "timing"; }
  const AllocatorStats &stats() const override { return Inner.stats(); }

  uint64_t nanos() const { return Nanos; }
  uint64_t ops() const { return Ops; }

private:
  Allocator &Inner;
  uint64_t Nanos = 0;
  uint64_t Ops = 0;
};

/// Runs a program as a Workload span; while tracing, its heap calls go
/// through a TimingAllocator and land in one aggregate Correct span.
class TimingWorkload : public Workload {
public:
  explicit TimingWorkload(const Workload &Inner) : Inner(Inner) {}

  const char *name() const override { return Inner.name(); }
  WorkloadResult run(AllocatorHandle &Handle,
                     uint64_t InputSeed) const override;

  /// Heap calls and their time over every traced run so far.
  uint64_t heapOps() const { return HeapOps; }
  uint64_t heapNanos() const { return HeapNanos; }
  /// Program executions (traced or not).
  uint64_t runs() const { return Runs; }

private:
  const Workload &Inner;
  mutable uint64_t HeapOps = 0;
  mutable uint64_t HeapNanos = 0;
  mutable uint64_t Runs = 0;
};

/// Server stage times from a replay of recorded frames through a fresh
/// PatchServer (no socket, no state dir): handleFrame ms per kind.
struct ReplayTimes {
  std::array<std::vector<double>, static_cast<size_t>(Kind::NumKinds)> Ms;
  double TotalMs = 0.0;
};
ReplayTimes replayFrames(const std::vector<RecordedFrame> &Frames,
                         const DiagnosisConfig &Config = {});

/// Value of the first sample named \p Name (with \p Labels when given);
/// 0 when absent.
double metricValue(const MetricsSnapshot &Snap, const std::string &Name,
                   const std::string &Labels = {});
/// Mean of a registry histogram (its _sum over its _count) in ms; 0 when
/// it has no observations.
double histogramMeanMs(const MetricsSnapshot &Snap, const std::string &Name);

} // namespace xbench

#endif // E2EBENCH_INSTRUMENTS_H
