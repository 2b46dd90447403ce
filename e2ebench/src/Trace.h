//===- e2ebench/src/Trace.h - In-memory spans for the traced run -*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans recorded by the benchmark's own code around its calls into each
/// layer of the program.  A span has a layer, a start and end time, the
/// span that caused it (its parent on the same thread) and the id of the
/// operation it belongs to.  Spans stay in per-thread memory until the
/// run ends; nothing is written while timing.
///
/// A layer's self time is its spans' duration minus the time their child
/// spans cover.  Root spans are the workload's operations (a bug, a
/// request, a batch of allocations); their self time is the benchmark's
/// own code between layer calls, reported as "unaccounted".  So the self
/// times of all layers sum to the traced end-to-end time by construction.
///
/// Calls too short and too many to record one by one (allocator calls)
/// are timed individually, summed, and recorded as one aggregate child
/// span per enclosing span.
///
//===----------------------------------------------------------------------===//

#ifndef E2EBENCH_TRACE_H
#define E2EBENCH_TRACE_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace xbench {

enum class Layer : uint8_t {
  Root,       ///< one workload operation (the residual owner)
  Workload,   ///< the buggy program's own code (espresso)
  Correct,    ///< CorrectingHeap calls (DieFast + DieHard beneath)
  Runtime,    ///< runWorkloadOnce: heap set-up, image capture, teardown
  Cumulative, ///< CumulativeDriver: summaries, client calls it makes
  Codec,      ///< PatchClient encode/decode around a round trip
  Exchange,   ///< transport round trip (socket + server work)
  Alloc,      ///< ConcurrentAllocator calls
  NumLayers
};

const char *layerName(Layer L);

struct Span {
  uint64_t Start = 0;
  uint64_t End = 0;
  uint64_t Request = 0;
  uint32_t Parent = 0; ///< 1-based index in the same thread; 0 = root
  uint32_t Thread = 0;
  Layer Kind = Layer::Root;
};

/// Per-layer self time over a set of spans.
struct SelfTimes {
  std::array<double, static_cast<size_t>(Layer::NumLayers)> Ms{};
  double TracedMs = 0.0; ///< sum of root span durations
  uint64_t Spans = 0;
  double ms(Layer L) const { return Ms[static_cast<size_t>(L)]; }
};

namespace trace {

void enable(bool On);
bool enabled();

/// Opens a span on the calling thread (child of the innermost open one);
/// returns its handle.  \p Request 0 inherits the parent's id.
uint32_t open(Layer L, uint64_t Request = 0);
void close(uint32_t Handle);

/// Records a closed child span of the innermost open span covering
/// \p Nanos of time spent in many short calls to \p L.
void addAggregate(Layer L, uint64_t Start, uint64_t Nanos);

/// Every span recorded so far, from every thread.
std::vector<Span> collect();

/// Drops all recorded spans (between untraced and traced phases).
void clear();

SelfTimes selfTimes(const std::vector<Span> &Spans);

/// Writes spans as tab-separated lines (thread, index, parent, request,
/// layer, start_ns, end_ns); false on I/O failure.
bool writeSpans(const std::vector<Span> &Spans, const std::string &Path);

} // namespace trace

/// RAII span; free when tracing is off.
class ScopedSpan {
public:
  explicit ScopedSpan(Layer L, uint64_t Request = 0)
      : Handle(trace::enabled() ? trace::open(L, Request) : 0) {}
  ~ScopedSpan() {
    if (Handle)
      trace::close(Handle);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  uint32_t Handle;
};

} // namespace xbench

#endif // E2EBENCH_TRACE_H
