//===- e2ebench/src/Instruments.cpp - Outside-only instruments ------------===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//

#include "Instruments.h"

#include "exchange/WireProtocol.h"

using namespace exterminator;
using namespace xbench;

const char *xbench::kindName(Kind K) {
  switch (K) {
  case Kind::Images:
    return "images";
  case Kind::Summary:
    return "summary";
  case Kind::Fetch:
    return "fetch";
  case Kind::Other:
  case Kind::NumKinds:
    break;
  }
  return "other";
}

Kind xbench::frameKind(const std::vector<uint8_t> &Frame) {
  // Header: u32 magic · u8 version · u8 type · u32 length.
  if (Frame.size() < FrameHeaderBytes)
    return Kind::Other;
  switch (static_cast<MessageType>(Frame[5])) {
  case MessageType::SubmitImages:
    return Kind::Images;
  case MessageType::SubmitSummary:
    return Kind::Summary;
  case MessageType::FetchPatches:
    return Kind::Fetch;
  default:
    return Kind::Other;
  }
}

bool TimingTransport::exchange(
    const std::vector<std::vector<uint8_t>> &Requests,
    std::vector<std::vector<uint8_t>> &ResponsesOut) {
  ScopedSpan Span(Layer::Exchange);
  const uint64_t T0 = nowNs();
  const bool Ok = Inner.exchange(Requests, ResponsesOut);
  const uint64_t T1 = nowNs();

  if (!Requests.empty())
    Rtt[static_cast<size_t>(frameKind(Requests.front()))].push_back(
        double(T1 - T0) / 1e6);
  for (const std::vector<uint8_t> &Request : Requests)
    BytesOut += Request.size();
  for (const std::vector<uint8_t> &Response : ResponsesOut) {
    if (Response.size() < FrameHeaderBytes ||
        static_cast<MessageType>(Response[5]) == MessageType::ErrorReply)
      ++ErrorReplies;
  }
  if (ResponsesOut.size() < Requests.size())
    ErrorReplies += Requests.size() - ResponsesOut.size();

  if (Recorded)
    for (size_t I = 0; I < Requests.size(); ++I) {
      RecordedFrame Frame;
      Frame.Sequence = SequenceSource->fetch_add(1, std::memory_order_relaxed);
      Frame.RttMs = double(T1 - T0) / 1e6;
      Frame.Request = Requests[I];
      if (I < ResponsesOut.size())
        Frame.Response = ResponsesOut[I];
      Recorded->push_back(std::move(Frame));
    }
  return Ok;
}

WorkloadResult TimingWorkload::run(AllocatorHandle &Handle,
                                   uint64_t InputSeed) const {
  ++Runs;
  if (!trace::enabled())
    return Inner.run(Handle, InputSeed);
  ScopedSpan Span(Layer::Workload);
  const uint64_t Start = nowNs();
  TimingAllocator Timed(Handle.allocator());
  AllocatorHandle TimedHandle(Timed, Handle.context(), Handle.heap());
  WorkloadResult Result = Inner.run(TimedHandle, InputSeed);
  trace::addAggregate(Layer::Correct, Start, Timed.nanos());
  HeapOps += Timed.ops();
  HeapNanos += Timed.nanos();
  return Result;
}

ReplayTimes xbench::replayFrames(const std::vector<RecordedFrame> &Frames,
                                 const DiagnosisConfig &Config) {
  ReplayTimes Out;
  PatchServer Server(Config);
  std::vector<uint8_t> Response;
  for (const RecordedFrame &Frame : Frames) {
    const uint64_t T0 = nowNs();
    Server.handleFrame(Frame.Request, Response);
    const double Ms = double(nowNs() - T0) / 1e6;
    Out.Ms[static_cast<size_t>(frameKind(Frame.Request))].push_back(Ms);
    Out.TotalMs += Ms;
  }
  return Out;
}

double xbench::metricValue(const MetricsSnapshot &Snap,
                           const std::string &Name,
                           const std::string &Labels) {
  const MetricSample *S = Snap.find(Name, Labels);
  return S ? S->Value : 0.0;
}

double xbench::histogramMeanMs(const MetricsSnapshot &Snap,
                               const std::string &Name) {
  const double Count = metricValue(Snap, Name + "_count");
  return Count > 0 ? metricValue(Snap, Name + "_sum") / Count * 1e3 : 0.0;
}
