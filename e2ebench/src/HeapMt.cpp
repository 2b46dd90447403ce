//===- e2ebench/src/HeapMt.cpp - The multithreaded correcting heap --------===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Workload `heap-mt`: the ConcurrentAllocator front-end with DieFast
/// canaries on and p = 1/2, under churn — every thread keeps a resident
/// window of live objects and frees a uniformly random one per
/// allocation, handing a fixed share of those frees to its neighbour
/// thread (cross-thread frees).  Each repetition runs on one thread, then
/// on a fixed thread count no larger than the host's processors, each on
/// a freshly constructed allocator.  Every object carries a stamp derived
/// from its address, verified when it is freed.
///
/// Throughput is sampled in 100 ms slices and latency from individually
/// timed allocator calls (one in SampleEvery); both count only the quiet
/// slices (see quietUnits).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Trace.h"

#include "alloc/ConcurrentAllocator.h"
#include "support/RandomGenerator.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

using namespace exterminator;
using namespace xbench;

namespace {

constexpr unsigned MaxThreads = 4;
constexpr size_t ResidentPerThread = 4096;
constexpr double CrossFreeFraction = 0.25;
constexpr size_t MailboxCap = 1024;
constexpr unsigned BatchOps = 1024;
constexpr unsigned Repetitions = 6;
constexpr double SliceSeconds = 0.1;
/// Allocator calls timed one by one: one in this many.
constexpr unsigned SampleEvery = 256;
const size_t Sizes[] = {16, 24, 48, 100, 256, 1024};

uint64_t stampFor(const void *Ptr, uint64_t Nonce) {
  return mixSeed(reinterpret_cast<uintptr_t>(Ptr), Nonce);
}

/// Frees handed to a thread by its neighbour.
struct Mailbox {
  std::mutex Mutex;
  std::vector<void *> Items;

  /// False (nothing queued) when the owner has fallen MailboxCap frees
  /// behind — a thread the host descheduled — so its backlog cannot
  /// swell the heap.
  bool push(void *Ptr) {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Items.size() >= MailboxCap)
      return false;
    Items.push_back(Ptr);
    return true;
  }
  void drainTo(std::vector<void *> &Out) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Out.insert(Out.end(), Items.begin(), Items.end());
    Items.clear();
  }
};

/// Allocations a worker has finished, published for the slice sampler.
struct alignas(64) Progress {
  std::atomic<uint64_t> Allocs{0};
};

/// One individually timed allocator call and the slice it ran in.
struct OpSample {
  uint32_t Slice;
  uint32_t Ns;
};

struct ThreadResult {
  uint64_t Allocs = 0;
  uint64_t Frees = 0;
  uint64_t PatternFaults = 0;
  uint64_t FailedAllocs = 0;
  double Seconds = 0.0;
  std::vector<OpSample> Samples;
};

struct PhaseResult {
  double SetupS = 0.0;
  std::vector<double> QuietRates; ///< allocations per second, quiet slices
  std::vector<double> QuietOpNs;  ///< timed calls made in quiet slices
  std::vector<ThreadResult> PerThread;
  uint64_t LockAcquires = 0;
  uint64_t PendingRemote = 0;
};

class Phase {
public:
  Phase(unsigned Threads, uint64_t Seed) : Threads(Threads), Seed(Seed) {}

  /// Constructs the allocator, fills every resident window (set-up),
  /// churns for \p Seconds, then frees everything and checks the books.
  PhaseResult run(double Seconds, Report &R);

private:
  void worker(unsigned Index);
  void *allocate(size_t Size, ThreadResult &T, uint64_t &AllocNs);
  void dispose(void *Ptr, ThreadResult &T, uint64_t &AllocNs);

  const unsigned Threads;
  const uint64_t Seed;
  std::unique_ptr<ConcurrentAllocator> Heap;
  std::vector<Mailbox> Mailboxes = std::vector<Mailbox>(MaxThreads);
  std::vector<Progress> Done = std::vector<Progress>(MaxThreads);
  std::vector<std::vector<void *>> Resident =
      std::vector<std::vector<void *>>(MaxThreads);
  std::vector<ThreadResult> Results = std::vector<ThreadResult>(MaxThreads);
  std::atomic<unsigned> Ready{0};
  std::atomic<bool> Go{false};
  std::atomic<bool> Stop{false};
  std::atomic<uint32_t> CurrentSlice{0};
};

// Every allocator call goes through these two: one in SampleEvery is
// timed on its own, and while tracing every call is timed and summed
// into the batch's aggregate Alloc span.
void *Phase::allocate(size_t Size, ThreadResult &T, uint64_t &AllocNs) {
  const bool Sample = (T.Allocs + T.Frees) % SampleEvery == 0;
  if (!Sample && !trace::enabled())
    return Heap->allocate(Size);
  const uint64_t T0 = nowNs();
  void *Ptr = Heap->allocate(Size);
  const uint64_t Ns = nowNs() - T0;
  AllocNs += Ns;
  if (Sample)
    T.Samples.push_back({CurrentSlice.load(std::memory_order_relaxed),
                         static_cast<uint32_t>(Ns)});
  return Ptr;
}

void Phase::dispose(void *Ptr, ThreadResult &T, uint64_t &AllocNs) {
  if (*static_cast<const uint64_t *>(Ptr) != stampFor(Ptr, Seed))
    ++T.PatternFaults;
  const bool Sample = (T.Allocs + T.Frees) % SampleEvery == 0;
  ++T.Frees;
  if (!Sample && !trace::enabled()) {
    Heap->deallocate(Ptr);
    return;
  }
  const uint64_t T0 = nowNs();
  Heap->deallocate(Ptr);
  const uint64_t Ns = nowNs() - T0;
  AllocNs += Ns;
  if (Sample)
    T.Samples.push_back({CurrentSlice.load(std::memory_order_relaxed),
                         static_cast<uint32_t>(Ns)});
}

void Phase::worker(unsigned Index) {
  ThreadResult &T = Results[Index];
  std::vector<void *> &Live = Resident[Index];
  RandomGenerator Rng(mixSeed(Seed, 100 + Index));
  Mailbox &Outbox = Mailboxes[(Index + 1) % Threads];
  std::vector<void *> Inbox;

  // Set-up: the resident window.
  Live.reserve(ResidentPerThread + 1);
  while (Live.size() < ResidentPerThread) {
    void *Ptr = Heap->allocate(Sizes[Rng.nextBelow(std::size(Sizes))]);
    if (!Ptr) {
      ++T.FailedAllocs;
      break;
    }
    *static_cast<uint64_t *>(Ptr) = stampFor(Ptr, Seed);
    Live.push_back(Ptr);
    ++T.Allocs;
  }
  Ready.fetch_add(1, std::memory_order_acq_rel);
  while (!Go.load(std::memory_order_acquire))
    std::this_thread::yield();

  const Clock::time_point Start = Clock::now();
  const uint64_t SetupAllocs = T.Allocs;
  while (!Stop.load(std::memory_order_relaxed)) {
    ScopedSpan Batch(Layer::Root);
    const uint64_t BatchStart = nowNs();
    uint64_t AllocNs = 0;
    for (unsigned I = 0; I < BatchOps; ++I) {
      if ((I & 63) == 0) {
        Inbox.clear();
        Mailboxes[Index].drainTo(Inbox);
        for (void *Ptr : Inbox)
          dispose(Ptr, T, AllocNs);
        Done[Index].Allocs.store(T.Allocs - SetupAllocs,
                                 std::memory_order_relaxed);
      }
      void *Ptr = allocate(Sizes[Rng.nextBelow(std::size(Sizes))], T, AllocNs);
      if (!Ptr) {
        ++T.FailedAllocs;
        continue;
      }
      ++T.Allocs;
      *static_cast<uint64_t *>(Ptr) = stampFor(Ptr, Seed);

      // Evict a uniformly random resident (the churn shape).
      Live.push_back(Ptr);
      std::swap(Live[Rng.nextBelow(Live.size())], Live.back());
      void *Victim = Live.back();
      Live.pop_back();
      if (!(Threads > 1 && Rng.chance(CrossFreeFraction) &&
            Outbox.push(Victim)))
        dispose(Victim, T, AllocNs);
    }
    if (trace::enabled())
      trace::addAggregate(Layer::Alloc, BatchStart, AllocNs);
  }
  T.Seconds = secondsSince(Start);
  T.Allocs -= SetupAllocs;
}

PhaseResult Phase::run(double Seconds, Report &R) {
  PhaseResult Out;
  const Clock::time_point SetupStart = Clock::now();
  ConcurrentAllocatorConfig Config;
  Config.Heap.Seed = Seed;
  Config.DieFastCanaries = true;
  Config.CanaryFillProbability = 0.5;
  Heap = std::make_unique<ConcurrentAllocator>(Config);
  std::vector<std::thread> Workers;
  for (unsigned I = 0; I < Threads; ++I)
    Workers.emplace_back([this, I] { worker(I); });
  while (Ready.load(std::memory_order_acquire) < Threads)
    std::this_thread::yield();
  Out.SetupS = secondsSince(SetupStart);

  uint64_t SetupAllocs = 0;
  for (unsigned I = 0; I < Threads; ++I)
    SetupAllocs += Results[I].Allocs;
  const uint64_t LocksBefore = Heap->backendLockAcquires();
  const Clock::time_point Start = Clock::now();
  Go.store(true, std::memory_order_release);
  // The slice sampler: allocations finished per slice, all threads, and
  // the host's steal ticks over the same slice.
  std::vector<double> Rates;
  std::vector<uint64_t> Steal;
  uint64_t LastCount = 0;
  Clock::time_point LastTime = Start;
  CpuTicks LastTicks = cpuTicks();
  const size_t Slices = std::max<size_t>(1, size_t(Seconds / SliceSeconds));
  for (size_t S = 0; S < Slices; ++S) {
    std::this_thread::sleep_until(
        Start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>((S + 1) * SliceSeconds)));
    uint64_t Count = 0;
    for (unsigned I = 0; I < Threads; ++I)
      Count += Done[I].Allocs.load(std::memory_order_relaxed);
    const Clock::time_point Now = Clock::now();
    const CpuTicks Ticks = cpuTicks();
    CurrentSlice.store(uint32_t(S + 1), std::memory_order_relaxed);
    Rates.push_back(double(Count - LastCount) /
                    std::chrono::duration<double>(Now - LastTime).count());
    Steal.push_back(Ticks.Steal - LastTicks.Steal);
    LastCount = Count;
    LastTime = Now;
    LastTicks = Ticks;
  }
  Stop.store(true, std::memory_order_relaxed);
  for (std::thread &W : Workers)
    W.join();
  Out.LockAcquires = Heap->backendLockAcquires() - LocksBefore;
  const std::vector<bool> Quiet = quietUnits(Steal);
  for (size_t S = 0; S < Slices; ++S)
    if (Quiet[S])
      Out.QuietRates.push_back(Rates[S]);
  for (unsigned I = 0; I < Threads; ++I)
    for (const OpSample &Sample : Results[I].Samples)
      if (Sample.Slice < Slices && Quiet[Sample.Slice])
        Out.QuietOpNs.push_back(double(Sample.Ns));

  // Wind down from this thread: mailbox stragglers and resident windows
  // (cross-thread frees again).
  ThreadResult WindDown;
  uint64_t Ns = 0;
  std::vector<void *> Leftover;
  for (unsigned I = 0; I < Threads; ++I) {
    Mailboxes[I].drainTo(Leftover);
    Leftover.insert(Leftover.end(), Resident[I].begin(), Resident[I].end());
    Resident[I].clear();
  }
  for (void *Ptr : Leftover)
    dispose(Ptr, WindDown, Ns);
  Out.PendingRemote = Heap->pendingRemoteFrees();

  Out.PerThread.assign(Results.begin(), Results.begin() + Threads);
  uint64_t Allocs = SetupAllocs, Frees = WindDown.Frees;
  uint64_t Faults = WindDown.PatternFaults, Failed = 0;
  for (const ThreadResult &T : Out.PerThread) {
    Allocs += T.Allocs;
    Frees += T.Frees;
    Faults += T.PatternFaults;
    Failed += T.FailedAllocs;
  }
  const AllocatorStats Stats = Heap->stats();
  const std::string Where = std::to_string(Threads) + "-thread phase: ";
  R.check(Faults == 0, Where + std::to_string(Faults) + " pattern faults");
  R.check(Failed == 0, Where + std::to_string(Failed) + " failed allocations");
  R.check(Allocs == Frees, Where + "allocations != frees");
  R.check(Stats.Allocations == Allocs,
          Where + "allocator counted a different number of allocations");
  R.check(Heap->errorsSignalled() == 0,
          Where + "DieFast signalled on a bug-free stream");
  R.Attempted += Allocs;
  return Out;
}

struct Totals {
  std::vector<double> SetupS;
  std::vector<double> SoloRates, MtRates;
  std::vector<double> MtP50Ns, MtP99Ns; ///< per repetition
  std::vector<double> AllOpNs;
  std::vector<double> ThreadMops;
  double LockPerOp = 0.0;
  uint64_t PendingRemote = 0;
};

void runReps(unsigned MtThreads, uint64_t Seed, double Seconds, Totals &T,
             Report &R) {
  for (unsigned Rep = 0; Rep < Repetitions; ++Rep) {
    Phase Solo(1, mixSeed(Seed, 2 * Rep));
    const PhaseResult S = Solo.run(Seconds * 0.4 / Repetitions, R);
    Phase Mt(MtThreads, mixSeed(Seed, 2 * Rep + 1));
    const PhaseResult M = Mt.run(Seconds * 0.6 / Repetitions, R);
    T.SetupS.push_back(S.SetupS + M.SetupS);
    T.SoloRates.insert(T.SoloRates.end(), S.QuietRates.begin(),
                       S.QuietRates.end());
    T.MtRates.insert(T.MtRates.end(), M.QuietRates.begin(),
                     M.QuietRates.end());
    T.MtP50Ns.push_back(bandQuantile(M.QuietOpNs, 0.5));
    T.MtP99Ns.push_back(bandQuantile(M.QuietOpNs, 0.99));
    T.AllOpNs.insert(T.AllOpNs.end(), S.QuietOpNs.begin(), S.QuietOpNs.end());
    T.AllOpNs.insert(T.AllOpNs.end(), M.QuietOpNs.begin(), M.QuietOpNs.end());
    uint64_t MtOps = 0;
    for (const ThreadResult &TR : M.PerThread) {
      T.ThreadMops.push_back(double(TR.Allocs) / TR.Seconds / 1e6);
      MtOps += TR.Allocs + TR.Frees;
    }
    T.LockPerOp = double(M.LockAcquires) / double(MtOps);
    T.PendingRemote = M.PendingRemote;
  }
}

} // namespace

int xbench::runHeapMt(const Options &Opt, Report &R) {
  const unsigned MtThreads = std::min(MaxThreads, hostCpus());
  R.host("threads", "1 then " + std::to_string(MtThreads));
  R.host("resident_per_thread", ResidentPerThread);
  R.host("cross_free_fraction", "0.25");
  R.host("canary_fill_probability", "0.5");
  R.host("repetitions", Repetitions);

  Totals Untraced;
  runReps(MtThreads, Opt.Seed, Opt.Trace ? Opt.Seconds / 2 : Opt.Seconds,
          Untraced, R);
  if (!Opt.Trace) {
    R.End["setup_s"] = median(Untraced.SetupS);
    R.End["ops_per_s"] = median(Untraced.MtRates);
    R.End["solo_ops_per_s"] = median(Untraced.SoloRates);
    R.End["op_p50_ms"] = median(Untraced.MtP50Ns) / 1e6;
    R.End["op_p99_ms"] = median(Untraced.MtP99Ns) / 1e6;
    R.End["peak_rss_mb"] = peakRssMb();
    return 0;
  }

  Totals Traced;
  trace::clear();
  trace::enable(true);
  runReps(MtThreads, mixSeed(Opt.Seed, 99), Opt.Seconds / 2, Traced, R);
  trace::enable(false);
  R.Layer["trace.overhead_pct"] =
      (median(Untraced.MtRates) / median(Traced.MtRates) - 1.0) * 100.0;
  R.Layer["alloc.lock_acquires_per_op"] = Traced.LockPerOp;
  R.Layer["alloc.op_ns_p50"] = bandQuantile(Traced.AllOpNs, 0.5);
  R.Layer["alloc.op_ns_p99"] = bandQuantile(Traced.AllOpNs, 0.99);
  R.Layer["alloc.thread_mops_min"] =
      *std::min_element(Traced.ThreadMops.begin(), Traced.ThreadMops.end());
  R.Layer["alloc.thread_mops_max"] =
      *std::max_element(Traced.ThreadMops.begin(), Traced.ThreadMops.end());
  R.Layer["alloc.pending_remote_frees"] = double(Traced.PendingRemote);
  return 0;
}
