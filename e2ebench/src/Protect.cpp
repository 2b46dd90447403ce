//===- e2ebench/src/Protect.cpp - The §6.4 correction loop ----------------===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Workload `protect`: the paper's loop, one bug at a time from a single
/// client, against a patch server set up like `xtermtool serve
/// --state-dir` over a Unix socket.  Every bug is a different build of
/// the program and gets a fresh server: sharing one across builds would
/// apply one build's patches to another and pool their cumulative
/// evidence.  Overflow bugs are diagnosed in
/// iterative mode — heap images from the §3.4 replay protocol shipped
/// with PatchClient::submitImages — and dangling pointers in cumulative
/// mode by a CumulativeDriver attached to the exchange.  Every bug ends
/// with a verification run under the fetched patches.
///
/// A round is the whole bug list; a run repeats whole rounds, so the
/// known failures (overflow 4B#6, dangling #6 and #7) are the same share
/// of every run.  The bug list does not depend on --seed; the
/// verification heap seeds do.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Evidence.h"
#include "Instruments.h"
#include "Server.h"
#include "Trace.h"

#include "alloc/BaselineAllocator.h"
#include "diefast/Canary.h"
#include "exchange/PatchClient.h"
#include "heapimage/ImageBundle.h"
#include "runtime/CumulativeDriver.h"
#include "support/Executor.h"
#include "workload/EspressoWorkload.h"

#include <cstdio>

using namespace exterminator;
using namespace xbench;

namespace {

constexpr unsigned ServerWorkers = 2;
/// Runs a cumulative session may take (bench/exp_injected_dangling.cpp
/// uses the same budget).
constexpr unsigned CumulativeMaxRuns = 120;
constexpr unsigned CumulativeVerifyRuns = 3;

/// Figures of one or more rounds.  A round is every bug of the list.
struct RoundStats {
  unsigned Rounds = 0;
  unsigned Bugs = 0;
  unsigned Failed = 0;
  std::vector<std::vector<double>> PerBugMs; ///< by bug, one per round
  std::vector<std::vector<uint64_t>> PerBugSteal; ///< host steal ticks
  std::vector<double> SetupS;
  std::vector<unsigned> ImagesPerOverflow;
  uint64_t PaddedAllocs = 0;
  uint64_t DeferredFrees = 0;
  uint64_t BytesOut = 0;
  std::array<std::vector<double>, static_cast<size_t>(Kind::NumKinds)> Rtt;
  std::vector<ImageEvidence> KeptEvidence;
  double StateAppendMs = 0.0, StateFsyncMs = 0.0, StateKb = 0.0;

  /// Each bug's typical time: its median over the rounds in which the
  /// host interfered least (quietUnits).
  std::vector<double> typicalBugMs() const {
    std::vector<double> Typical;
    for (size_t B = 0; B < PerBugMs.size(); ++B) {
      const std::vector<bool> Quiet = quietUnits(PerBugSteal[B]);
      std::vector<double> Times;
      for (size_t I = 0; I < Quiet.size(); ++I)
        if (Quiet[I])
          Times.push_back(PerBugMs[B][I]);
      Typical.push_back(median(Times));
    }
    return Typical;
  }
  /// Bugs per second at the typical bug times.
  double rate() const {
    double Ms = 0;
    for (double T : typicalBugMs())
      Ms += T;
    return double(PerBugMs.size()) / Ms * 1e3;
  }
};

std::vector<uint8_t> referenceOutput() {
  // The bug-free program on a plain allocator: the output every
  // protected run must reproduce, computed without the heap under test.
  BaselineAllocator Plain;
  CallContext Context;
  AllocatorHandle Handle(Plain, Context, nullptr);
  EspressoWorkload Work;
  return Work.run(Handle, EspressoInput).Output;
}

class ProtectLoop {
public:
  ProtectLoop(const Options &Opt, Report &R)
      : Opt(Opt), R(R), Bugs(sec72Bugs()), Work(Espresso) {}

  /// One round: every bug of the list, each against a fresh server.
  void round(RoundStats &S, bool KeepEvidence);

  uint64_t programRuns() const { return Work.runs(); }
  const TimingWorkload &workload() const { return Work; }
  /// runWorkloadOnce wall times of the benchmark's own runs (discovery,
  /// replay, verification) since the last clearRunMs().
  const std::vector<double> &runMs() const { return RunMs; }
  void clearRunMs() { RunMs.clear(); }

private:
  struct BugOutcome {
    bool Protected = false;
    unsigned Images = 0; ///< images of the first isolating episode
  };

  BugOutcome protectOverflow(const Bug &B, PatchClient &Client,
                             RoundStats &S, bool KeepEvidence);
  BugOutcome protectDangling(const Bug &B, PatchClient &Client);
  void verify(const Bug &B, size_t BugIndex, PatchClient &Client,
              RoundStats &S);

  const Options &Opt;
  Report &R;
  std::vector<Bug> Bugs;
  EspressoWorkload Espresso;
  TimingWorkload Work;
  std::vector<uint8_t> Reference;
  std::vector<double> RunMs;
  unsigned RoundIndex = 0;
};

ProtectLoop::BugOutcome ProtectLoop::protectOverflow(const Bug &B,
                                                     PatchClient &Client,
                                                     RoundStats &S,
                                                     bool KeepEvidence) {
  BugOutcome Out;
  const ExterminatorConfig &Config = B.Config;
  RandomGenerator SeedStream(Config.MasterSeed);
  const PatchSet Before = Client.patches();

  for (unsigned Episode = 0; Episode < Config.MaxEpisodes; ++Episode) {
    const PatchSet Applied = Client.patches();
    SingleRunResult Discovery;
    uint64_t DiscoverySeed = 0;
    bool Manifested = false;
    for (unsigned Attempt = 0; Attempt < Config.DiscoveryAttempts;
         ++Attempt) {
      DiscoverySeed = SeedStream.next();
      Discovery = timedRun(Work, DiscoverySeed, Config, Applied,
                           std::nullopt, &RunMs);
      if (Discovery.ErrorSignalled || Discovery.failed()) {
        Manifested = true;
        break;
      }
    }
    if (!Manifested) {
      // Clean under the patches of earlier episodes; a bug that never
      // manifested was not found, let alone protected.
      Out.Protected = Episode > 0;
      break;
    }

    const SubmitFn Submit = [&](const ImageEvidence &Evidence) {
      ScopedSpan Span(Layer::Codec);
      if (KeepEvidence && S.KeptEvidence.size() < 16)
        S.KeptEvidence.push_back(Evidence);
      ImagesReply Reply;
      if (!R.check(Client.submitImages(Evidence, &Reply) &&
                       Client.syncPatches(),
                   B.Label + ": image submission failed"))
        return false;
      return Reply.OverflowFindings + Reply.DanglingFindings > 0;
    };
    const EpisodeResult Ep = replayEpisode(Work, Config, Applied, SeedStream,
                                           Discovery, DiscoverySeed, Submit,
                                           &RunMs);
    if (!Ep.Isolated)
      break;
    if (!Out.Images)
      Out.Images = Ep.ImagesUsed;
  }

  if (Out.Protected) {
    // Every pad this bug added or widened must cover the overflow.
    for (const PadPatch &Pad : Client.patches().pads())
      if (Pad.PadBytes != Before.padFor(Pad.AllocSite))
        R.check(Pad.PadBytes >= B.OverflowBytes,
                B.Label + ": pad of " + std::to_string(Pad.PadBytes) +
                    " B is smaller than the injected overflow");
  }
  return Out;
}

ProtectLoop::BugOutcome ProtectLoop::protectDangling(const Bug &B,
                                                     PatchClient &Client) {
  BugOutcome Out;
  ScopedSpan Span(Layer::Cumulative);
  CumulativeDriver Driver(Work, B.Config);
  Driver.attachExchange(Client);
  const CumulativeOutcome Outcome =
      Driver.run(EspressoInput, CumulativeMaxRuns, CumulativeVerifyRuns);
  R.check(Outcome.TransportFailures == 0,
          B.Label + ": exchange failure in cumulative mode");
  Out.Protected = Outcome.Corrected && Outcome.TransportFailures == 0;
  return Out;
}

void ProtectLoop::verify(const Bug &B, size_t BugIndex, PatchClient &Client,
                         RoundStats &S) {
  // A heap seed the diagnosis never drew: derived from --seed, the round
  // and the bug, not from the bug's master seed.
  const uint64_t Seed = mixSeed(Opt.Seed, RoundIndex * 1000 + BugIndex);
  R.check(Client.syncPatches(), B.Label + ": patch fetch failed");
  const SingleRunResult Run =
      timedRun(Work, Seed, B.Config, Client.patches(), std::nullopt, &RunMs);
  S.PaddedAllocs += Run.Correction.PaddedAllocations;
  S.DeferredFrees += Run.Correction.DeferredFrees;
  R.check(Run.Result.Status == RunStatusKind::Success && !Run.ErrorSignalled,
          B.Label + ": verification run (heap seed " + std::to_string(Seed) +
              ") " + (Run.ErrorSignalled ? "signalled" : "failed"));
  R.check(Run.Result.Output == Reference,
          B.Label + ": verification output differs from the bug-free run");
}

void ProtectLoop::round(RoundStats &S, bool KeepEvidence) {
  double AppendSum = 0, AppendCount = 0, FsyncSum = 0, FsyncCount = 0;
  for (size_t I = 0; I < Bugs.size(); ++I) {
    const Bug &B = Bugs[I];
    // Each injected fault is a different build of the program, so each
    // gets its own deployment: a fresh server and state dir.
    const Clock::time_point SetupStart = Clock::now();
    Reference = referenceOutput();
    ServedPatchServer Served;
    std::string Error;
    if (!R.check(Served.start(Opt.OutDir + "/protect-state",
                              Opt.OutDir + "/protect.sock", ServerWorkers,
                              /*Replicas=*/0, Error),
                 "server start: " + Error))
      return;
    SocketClientTransport Socket(Served.endpoint());
    TimingTransport Timed(Socket);
    PatchClient Client(Timed);
    S.SetupS.push_back(secondsSince(SetupStart));

    const CpuTicks TicksBefore = cpuTicks();
    const uint64_t T0 = nowNs();
    BugOutcome Out;
    {
      ScopedSpan Span(Layer::Root, RoundIndex * 1000 + I + 1);
      Out = B.Overflow ? protectOverflow(B, Client, S, KeepEvidence)
                       : protectDangling(B, Client);
      if (Out.Protected)
        verify(B, I, Client, S);
    }
    S.PerBugMs.resize(Bugs.size());
    S.PerBugSteal.resize(Bugs.size());
    S.PerBugMs[I].push_back(double(nowNs() - T0) / 1e6);
    S.PerBugSteal[I].push_back(cpuTicks().Steal - TicksBefore.Steal);
    ++S.Bugs;
    if (!Out.Protected) {
      ++S.Failed;
      if (RoundIndex == 0)
        R.Notes.push_back(B.Label + " was not protected");
    } else if (B.Overflow && Out.Images) {
      S.ImagesPerOverflow.push_back(Out.Images);
    }

    R.check(Timed.errorReplies() == 0,
            B.Label + ": the server answered with ErrorReply");
    S.BytesOut += Timed.bytesOut();
    for (size_t K = 0; K < S.Rtt.size(); ++K) {
      const std::vector<double> &V = Timed.rttMs(static_cast<Kind>(K));
      S.Rtt[K].insert(S.Rtt[K].end(), V.begin(), V.end());
    }
    const MetricsSnapshot Snap = Served.registry().snapshot();
    AppendSum += metricValue(Snap, "xterm_journal_append_seconds_sum");
    AppendCount += metricValue(Snap, "xterm_journal_append_seconds_count");
    FsyncSum += metricValue(Snap, "xterm_journal_fsync_seconds_sum");
    FsyncCount += metricValue(Snap, "xterm_journal_fsync_seconds_count");
    R.check(Served.stop(), B.Label + ": shutdown snapshot failed");
    S.StateKb = double(directoryBytes(Opt.OutDir + "/protect-state")) / 1024;
  }
  S.StateAppendMs = AppendCount ? AppendSum / AppendCount * 1e3 : 0.0;
  S.StateFsyncMs = FsyncCount ? FsyncSum / FsyncCount * 1e3 : 0.0;
  ++S.Rounds;
  ++RoundIndex;
}

/// Runs whole rounds until \p Seconds have passed (at least one).
void runRounds(ProtectLoop &Loop, RoundStats &S, double Seconds,
               bool KeepEvidence) {
  const Clock::time_point Start = Clock::now();
  do
    Loop.round(S, KeepEvidence);
  while (secondsSince(Start) < Seconds);
}

/// Per-layer figures measured apart from the traced rounds, on the
/// program's own calls: image capture and size, bundle encoding, run
/// summarization.
void measureComponents(const RoundStats &Traced, Report &R) {
  // A kept heap: espresso run to completion on a correcting heap.
  DieFastConfig HeapConfig;
  HeapConfig.Heap.Seed = 0x5eed;
  CallContext Context;
  CorrectingHeap Heap(HeapConfig, &Context);
  AllocatorHandle Handle(Heap, Context, &Heap.diefast().heap());
  EspressoWorkload Work;
  Work.run(Handle, EspressoInput);
  std::vector<double> CaptureMs;
  HeapImage Image;
  for (int I = 0; I < 30; ++I) {
    const uint64_t T0 = nowNs();
    Image = captureHeapImage(Heap.diefast(), &sharedExecutor());
    CaptureMs.push_back(double(nowNs() - T0) / 1e6);
  }
  R.Layer["heapimage.capture_ms"] = median(CaptureMs);
  R.Layer["heapimage.image_kb"] =
      double(serializeImageBundle({Image}).size()) / 1024;

  std::vector<double> EncodeMs, BundleKb;
  for (const ImageEvidence &Evidence : Traced.KeptEvidence) {
    const uint64_t T0 = nowNs();
    const std::vector<uint8_t> Bytes = serializeImageBundle(Evidence.Primary);
    EncodeMs.push_back(double(nowNs() - T0) / 1e6);
    BundleKb.push_back(double(Bytes.size()) / 1024);
  }
  R.Layer["codec.bundle_encode_ms"] = median(EncodeMs);
  R.Layer["codec.bundle_kb"] = median(BundleKb);

  // Summaries of cumulative-mode runs of the first dangling bug.
  const Bug Dangling = sec72Bugs()[30];
  DiagnosisPipeline Pipeline;
  std::vector<double> SummarizeMs;
  for (uint64_t Seed = 1; Seed <= 30; ++Seed) {
    const SingleRunResult Run = runWorkloadOnce(
        Work, EspressoInput, Seed, Dangling.Config, PatchSet());
    const uint64_t T0 = nowNs();
    const RunSummary Summary = Pipeline.summarize(Run.FinalImage, Run.failed());
    SummarizeMs.push_back(double(nowNs() - T0) / 1e6);
    (void)Summary;
  }
  R.Layer["cumulative.summarize_ms"] = median(SummarizeMs);
}

void layerFigures(const RoundStats &S, const ProtectLoop &Loop,
                  uint64_t RunsBefore, Report &R) {
  const TimingWorkload &Work = Loop.workload();
  R.Layer["runtime.run_ms"] = median(Loop.runMs());
  R.Layer["runtime.runs"] =
      double(Loop.programRuns() - RunsBefore) / S.Rounds;
  R.Layer["correct.op_ns"] =
      Work.heapOps() ? double(Work.heapNanos()) / Work.heapOps() : 0.0;
  R.Layer["correct.padded_allocs"] = double(S.PaddedAllocs) / S.Rounds;
  R.Layer["correct.deferred_frees"] = double(S.DeferredFrees) / S.Rounds;
  std::vector<double> Images(S.ImagesPerOverflow.begin(),
                             S.ImagesPerOverflow.end());
  R.Layer["isolate.images_per_overflow"] = mean(Images);
  R.Layer["exchange.bytes_out_kb"] = double(S.BytesOut) / 1024 / S.Rounds;
  for (Kind K : {Kind::Images, Kind::Summary, Kind::Fetch}) {
    const std::vector<double> &V = S.Rtt[static_cast<size_t>(K)];
    const std::string Base = std::string("exchange.rtt_ms.") + kindName(K);
    R.Layer[Base + ".p50"] = quantile(V, 0.5);
    R.Layer[Base + ".p99"] = quantile(V, 0.99);
  }
  R.Layer["exchange.state.append_ms"] = S.StateAppendMs;
  R.Layer["exchange.state.fsync_ms"] = S.StateFsyncMs;
  R.Layer["exchange.state.kb"] = S.StateKb;
}

} // namespace

int xbench::runProtect(const Options &Opt, Report &R) {
  R.host("client_threads", 1);
  R.host("server_workers", ServerWorkers);
  R.host("bugs", "30 overflows (4/20/36 B) + dangling #1, #3, #6, #7, #8 "
                 "(cumulative, p=1/2)");
  R.host("diagnosis_seeds", "fixed (bench/exp_injected_*.cpp master seeds)");
  R.host("verification_seeds", "mixSeed(--seed, round*1000 + bug)");

  ProtectLoop Loop(Opt, R);
  RoundStats Untraced;
  runRounds(Loop, Untraced, Opt.Trace ? Opt.Seconds / 2 : Opt.Seconds,
            /*KeepEvidence=*/false);
  R.Attempted = Untraced.Bugs;
  R.Failed = Untraced.Failed;
  const double Rate = Untraced.rate();
  R.host("rounds", Untraced.Rounds);

  if (!Opt.Trace) {
    R.End["setup_s"] = median(Untraced.SetupS);
    R.End["ops_per_s"] = Rate;
    R.End["solo_ops_per_s"] = Rate; // the loop has one client
    const std::vector<double> Typical = Untraced.typicalBugMs();
    R.End["op_p50_ms"] = median(Typical);
    R.End["op_p99_ms"] = quantile(Typical, 0.99);
    R.End["peak_rss_mb"] = peakRssMb();
    return 0;
  }

  const uint64_t RunsBefore = Loop.programRuns();
  RoundStats Traced;
  Loop.clearRunMs();
  trace::clear();
  trace::enable(true);
  runRounds(Loop, Traced, Opt.Seconds / 2, /*KeepEvidence=*/true);
  trace::enable(false);
  R.Attempted += Traced.Bugs;
  R.Failed += Traced.Failed;
  const double TracedRate = Traced.rate();
  R.Layer["trace.overhead_pct"] = (Rate / TracedRate - 1.0) * 100.0;
  layerFigures(Traced, Loop, RunsBefore, R);
  measureComponents(Traced, R);
  return 0;
}
