//===- e2ebench/src/Ingest.cpp - The patch server under fleet load --------===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Workload `ingest`: a closed loop of client threads replaying
/// pre-generated evidence through SocketClientTransport into a patch
/// server set up like `xtermtool serve --state-dir`, which streams every
/// accepted change to two in-process replicas over loopback links.  The
/// loop is closed because PatchClient is synchronous: a deployed process
/// waits for each reply before it sends again.
///
/// The evidence pool, generated from --seed at set-up, holds espresso
/// run summaries (cumulative mode, p = 1/2, §7.2 dangling faults) and
/// replay-image bundles of §7.2 overflows — more image sets than the
/// pipeline's 4-entry view cache, so both its hit and miss paths run.
/// Each request is a summary (fresh dedup token), an image bundle, a
/// patch fetch, or a retry: the client's previous submission frame sent
/// again byte for byte, which the server must suppress (summaries) or
/// absorb idempotently (images).
///
/// A run is a few rounds.  Each round sets up a fresh pool and server,
/// runs one client alone, then both clients, and ends by checking the
/// server's books, pumping replication to convergence and restarting a
/// server from the state dir.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Evidence.h"
#include "Instruments.h"
#include "Server.h"
#include "Trace.h"

#include "exchange/PatchClient.h"
#include "exchange/WireProtocol.h"
#include "patch/PatchIO.h"
#include "workload/EspressoWorkload.h"

#include <algorithm>
#include <thread>

using namespace exterminator;
using namespace xbench;

namespace {

constexpr unsigned Clients = 2;
constexpr unsigned ServerWorkers = 2;
constexpr unsigned Replicas = 2;
constexpr unsigned Rounds = 5;
constexpr unsigned PoolSummaries = 96;
constexpr unsigned PoolImageSets = 16;
/// Half of the image requests go to this many popular sets (the bugs
/// most users hit), the rest spread over the whole pool.
constexpr unsigned HotImageSets = 3;
constexpr double SliceSeconds = 0.1;
/// Request mix, in percent: retries, summaries, image bundles; the rest
/// are fetches.
constexpr unsigned RetryPct = 10, SummaryPct = 40, ImagesPct = 15;
/// Recorded frames replayed per traced run for server stage times.
constexpr size_t MaxReplayFrames = 3000;

struct PooledSummary {
  RunSummary Summary;
  unsigned CleanStreak = 0;
};

struct EvidencePool {
  std::vector<PooledSummary> Summaries;
  std::vector<ImageEvidence> ImageSets;
  std::vector<std::vector<uint8_t>> ImageFrames; ///< encoded SubmitImages
};

/// Builds the pool from --seed: every summary and image set comes from
/// program runs under heap seeds derived from it.
EvidencePool buildPool(uint64_t Seed, unsigned Round) {
  EvidencePool Pool;
  EspressoWorkload Work;
  DiagnosisPipeline Summarizer;
  const std::vector<Bug> Bugs = sec72Bugs();
  std::vector<const Bug *> Overflows, Danglings;
  for (const Bug &B : Bugs)
    (B.Overflow ? Overflows : Danglings).push_back(&B);

  for (unsigned I = 0; I < PoolSummaries; ++I) {
    const Bug &B = *Danglings[I % Danglings.size()];
    const SingleRunResult Run =
        runWorkloadOnce(Work, EspressoInput, mixSeed(Seed, Round * 4096 + I),
                        B.Config, PatchSet());
    Pool.Summaries.push_back(
        {Summarizer.summarize(Run.FinalImage, Run.failed()),
         Run.failed() ? 0u : 1u});
  }

  // An overflow a discovery run misses is tried again under the next
  // derived seed; the attempt cap only guards against a program change
  // that hides every overflow.
  for (unsigned I = 0, Attempt = 0;
       Pool.ImageSets.size() < PoolImageSets && Attempt < 64 * PoolImageSets;
       ++Attempt) {
    ExterminatorConfig Config = Overflows[I % Overflows.size()]->Config;
    RandomGenerator SeedStream(
        mixSeed(Seed, 1u << 20 | Round << 12 | Attempt));
    // Discovery: the first run that manifests the overflow anchors the
    // malloc breakpoint; then the replay protocol's first submission.
    for (unsigned Try = 0; Try < Config.DiscoveryAttempts; ++Try) {
      const uint64_t HeapSeed = SeedStream.next();
      const SingleRunResult Discovery =
          runWorkloadOnce(Work, EspressoInput, HeapSeed, Config, PatchSet());
      if (!Discovery.ErrorSignalled && !Discovery.failed())
        continue;
      replayEpisode(Work, Config, PatchSet(), SeedStream, Discovery, HeapSeed,
                    [&](const ImageEvidence &Evidence) {
                      Pool.ImageSets.push_back(Evidence);
                      return true;
                    });
      ++I;
      break;
    }
  }
  for (const ImageEvidence &Evidence : Pool.ImageSets)
    Pool.ImageFrames.push_back(
        encodeFrame(MessageType::SubmitImages, encodeSubmitImages(Evidence)));
  return Pool;
}

/// What one client thread sent and saw.
struct ClientLog {
  uint64_t Requests = 0;
  uint64_t FreshSummaries = 0;
  uint64_t RetriedSummaries = 0;
  uint64_t BadReplies = 0;
  /// (pool index, overflow findings, dangling findings) per image reply.
  std::vector<std::array<uint64_t, 3>> ImageReplies;
  std::vector<double> RttMs;
  std::vector<uint64_t> DoneNs; ///< completion time of each request
};

class IngestClient {
public:
  IngestClient(const EvidencePool &Pool, const Endpoint &Server,
               uint64_t Seed)
      : Pool(Pool), Socket(Server), Timed(Socket), Rng(Seed) {}

  /// Closed loop until \p Deadline.
  void run(Clock::time_point Deadline);

  TimingTransport &transport() { return Timed; }
  ClientLog Log;

private:
  void oneRequest(uint64_t RequestId);

  const EvidencePool &Pool;
  SocketClientTransport Socket;
  TimingTransport Timed;
  RandomGenerator Rng;
  std::vector<uint8_t> Last; ///< previous submission frame
  bool LastIsSummary = false;
  size_t LastImageIndex = 0;
  uint64_t KnownInstance = 0;
  uint64_t KnownEpoch = PatchClient::NeverFetched;
};

void IngestClient::run(Clock::time_point Deadline) {
  uint64_t Id = 0;
  while (Clock::now() < Deadline)
    oneRequest(++Id);
}

void IngestClient::oneRequest(uint64_t RequestId) {
  ScopedSpan Span(Layer::Root, RequestId);
  std::vector<std::vector<uint8_t>> Requests(1), Responses;
  size_t ImageIndex = 0;
  bool IsSummary = false, IsImages = false;
  {
    ScopedSpan Encode(Layer::Codec);
    const unsigned Pick = static_cast<unsigned>(Rng.nextBelow(100));
    if (Pick < RetryPct && !Last.empty()) {
      Requests[0] = Last;
      IsSummary = LastIsSummary;
      IsImages = !LastIsSummary;
      ImageIndex = LastImageIndex;
      if (IsSummary)
        ++Log.RetriedSummaries;
    } else if (Pick < RetryPct + SummaryPct) {
      const PooledSummary &S =
          Pool.Summaries[Rng.nextBelow(Pool.Summaries.size())];
      Requests[0] = encodeFrame(
          MessageType::SubmitSummary,
          encodeSubmitSummary(S.Summary, S.CleanStreak, Rng.next() | 1));
      IsSummary = true;
      ++Log.FreshSummaries;
    } else if (Pick < RetryPct + SummaryPct + ImagesPct) {
      ImageIndex = Rng.nextBelow(2) ? Rng.nextBelow(HotImageSets)
                                    : Rng.nextBelow(Pool.ImageFrames.size());
      Requests[0] = Pool.ImageFrames[ImageIndex];
      IsImages = true;
    } else {
      Requests[0] = encodeFrame(MessageType::FetchPatches,
                                encodeFetchPatches(KnownEpoch, KnownInstance));
    }
  }

  const uint64_t T0 = nowNs();
  const bool Ok = Timed.exchange(Requests, Responses);
  const uint64_t T1 = nowNs();
  Log.RttMs.push_back(double(T1 - T0) / 1e6);
  Log.DoneNs.push_back(T1);
  ++Log.Requests;

  ScopedSpan Decode(Layer::Codec);
  Frame Reply;
  size_t Consumed = 0;
  if (!Ok || Responses.size() != 1 ||
      decodeFrame(Responses[0].data(), Responses[0].size(), Reply,
                  Consumed) != FrameError::None ||
      Reply.Type == MessageType::ErrorReply) {
    ++Log.BadReplies;
    return;
  }
  if (IsImages) {
    ImagesReply R;
    if (!decodeImagesReply(Reply.Payload, R))
      ++Log.BadReplies;
    Log.ImageReplies.push_back({ImageIndex, R.OverflowFindings,
                                R.DanglingFindings});
  } else if (!IsSummary) {
    PatchesReply R;
    if (decodePatchesReply(Reply.Payload, R)) {
      KnownInstance = R.Instance;
      KnownEpoch = R.Epoch;
    } else {
      ++Log.BadReplies;
    }
  }
  if (IsSummary || IsImages) {
    Last = std::move(Requests[0]);
    LastIsSummary = IsSummary;
    LastImageIndex = ImageIndex;
  }
}

/// Figures of one phase (a fixed client count for a fixed time).
struct PhaseFigures {
  uint64_t Requests = 0;
  /// Requests answered per second in each quiet slice of the phase (see
  /// quietUnits): answers after the slice's first over the time from its
  /// first to its last answer.
  std::vector<double> QuietRates;
  /// Round trips of the requests answered in quiet slices.
  std::vector<double> QuietRttMs;
};

struct RoundFigures {
  double SetupS = 0.0;
  PhaseFigures Solo, Duo;
  std::vector<RecordedFrame> Recorded;
  std::array<std::vector<double>, static_cast<size_t>(Kind::NumKinds)> Rtt;
  EvidencePool Pool;
  double CacheHitRatio = 0.0;
  double AppendMs = 0.0, FsyncMs = 0.0, StateKb = 0.0;
  uint64_t RecordsStreamed = 0, Suppressed = 0;
  double ConvergeMs = 0.0;
};

/// Runs \p N clients for \p Seconds and folds their logs into the
/// round's books.
PhaseFigures runPhase(unsigned N, double Seconds, const EvidencePool &Pool,
                      const Endpoint &Ep, uint64_t Seed, bool Record,
                      std::vector<RecordedFrame> &Recorded,
                      std::vector<ClientLog> &Logs, RoundFigures &F) {
  std::atomic<uint64_t> Sequence{0};
  std::vector<std::unique_ptr<IngestClient>> Cs;
  std::vector<std::vector<RecordedFrame>> PerClient(N);
  for (unsigned I = 0; I < N; ++I) {
    Cs.push_back(
        std::make_unique<IngestClient>(Pool, Ep, mixSeed(Seed, 7000 + I)));
    if (Record)
      Cs.back()->transport().recordInto(&PerClient[I], &Sequence);
  }
  const uint64_t StartNs = nowNs();
  const Clock::time_point Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(Seconds));
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < N; ++I)
    Threads.emplace_back([&, I] { Cs[I]->run(Deadline); });
  // The host's steal ticks per slice, read at each slice boundary.
  const size_t Slices = static_cast<size_t>(Seconds / SliceSeconds);
  std::vector<uint64_t> SliceSteal(Slices, 0);
  {
    const Clock::time_point Start = Clock::now();
    CpuTicks Prev = cpuTicks();
    for (size_t S = 0; S < Slices; ++S) {
      std::this_thread::sleep_until(
          Start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>((S + 1) * SliceSeconds)));
      const CpuTicks Cur = cpuTicks();
      SliceSteal[S] = Cur.Steal - Prev.Steal;
      Prev = Cur;
    }
  }
  for (std::thread &T : Threads)
    T.join();

  PhaseFigures P;
  const std::vector<bool> Quiet = quietUnits(SliceSteal);
  struct Slice {
    uint64_t Count = 0, First = ~uint64_t(0), Last = 0;
  };
  std::vector<Slice> PerSlice(Slices);
  for (unsigned I = 0; I < N; ++I) {
    ClientLog &L = Cs[I]->Log;
    P.Requests += L.Requests;
    for (size_t R = 0; R < L.DoneNs.size(); ++R) {
      const uint64_t Done = L.DoneNs[R];
      const size_t I = size_t(double(Done - StartNs) / 1e9 / SliceSeconds);
      if (I >= Slices)
        continue;
      if (Quiet[I])
        P.QuietRttMs.push_back(L.RttMs[R]);
      ++PerSlice[I].Count;
      PerSlice[I].First = std::min(PerSlice[I].First, Done);
      PerSlice[I].Last = std::max(PerSlice[I].Last, Done);
    }
    for (size_t K = 0; K < F.Rtt.size(); ++K) {
      const std::vector<double> &V =
          Cs[I]->transport().rttMs(static_cast<Kind>(K));
      F.Rtt[K].insert(F.Rtt[K].end(), V.begin(), V.end());
    }
    Recorded.insert(Recorded.end(),
                    std::make_move_iterator(PerClient[I].begin()),
                    std::make_move_iterator(PerClient[I].end()));
    Logs.push_back(std::move(L));
  }
  for (size_t I = 0; I < Slices; ++I)
    if (Quiet[I] && PerSlice[I].Count > 1)
      P.QuietRates.push_back(double(PerSlice[I].Count - 1) * 1e9 /
                             double(PerSlice[I].Last - PerSlice[I].First));
  return P;
}

/// Sets up a round, drives it, and checks the server's books against
/// what the clients sent.
RoundFigures runRound(const Options &Opt, unsigned Round, double Seconds,
                      bool Record, Report &R) {
  RoundFigures F;
  const std::string StateDir = Opt.OutDir + "/ingest-state";
  const Clock::time_point SetupStart = Clock::now();
  // Set-up is not part of any traced operation.
  const bool Tracing = trace::enabled();
  trace::enable(false);
  F.Pool = buildPool(Opt.Seed, Round);
  trace::enable(Tracing);
  ServedPatchServer Served;
  std::string Error;
  if (!R.check(Served.start(StateDir, Opt.OutDir + "/ingest.sock",
                            ServerWorkers, Replicas, Error),
               "server start: " + Error))
    return F;
  F.SetupS = secondsSince(SetupStart);

  std::vector<ClientLog> Logs;
  const uint64_t PhaseSeed = mixSeed(Opt.Seed, 0x1e57 + Round);
  F.Solo = runPhase(1, Seconds * 0.4, F.Pool, Served.endpoint(), PhaseSeed,
                    Record, F.Recorded, Logs, F);
  F.Duo = runPhase(Clients, Seconds * 0.6, F.Pool, Served.endpoint(),
                   mixSeed(PhaseSeed, 2), Record, F.Recorded, Logs, F);

  const MetricsSnapshot Snap = Served.registry().snapshot();
  F.CacheHitRatio = metricValue(Snap, "xterm_image_cache_hit_ratio");
  F.AppendMs = histogramMeanMs(Snap, "xterm_journal_append_seconds");
  F.FsyncMs = histogramMeanMs(Snap, "xterm_journal_fsync_seconds");
  R.check(Served.stop(), "shutdown snapshot failed");
  F.StateKb = double(directoryBytes(StateDir)) / 1024;

  // The server's books against the clients' own counts.
  uint64_t Fresh = 0, Retried = 0, Bad = 0;
  for (const ClientLog &L : Logs) {
    Fresh += L.FreshSummaries;
    Retried += L.RetriedSummaries;
    Bad += L.BadReplies;
  }
  PatchServer &Server = Served.server();
  const PatchServerStats Stats = Server.stats();
  F.Suppressed = Stats.DuplicatesSuppressed;
  R.check(Bad == 0, std::to_string(Bad) + " requests got an ErrorReply or "
                                          "no reply");
  R.check(Stats.DuplicatesSuppressed == Retried,
          "server suppressed " + std::to_string(Stats.DuplicatesSuppressed) +
              " summaries, clients resent " + std::to_string(Retried));
  R.check(Server.cumulativeRuns() ==
              Fresh + Retried - Stats.DuplicatesSuppressed,
          "server counts " + std::to_string(Server.cumulativeRuns()) +
              " runs, clients sent " + std::to_string(Fresh) +
              " fresh summaries");

  // Image findings against an in-process pipeline fed the same evidence.
  std::vector<std::array<uint64_t, 2>> Expected;
  for (const ImageEvidence &Evidence : F.Pool.ImageSets) {
    const IsolationResult Local = DiagnosisPipeline().isolateImages(Evidence);
    Expected.push_back({Local.Overflows.size(), Local.Danglings.size()});
  }
  uint64_t Mismatches = 0;
  for (const ClientLog &L : Logs)
    for (const auto &Reply : L.ImageReplies)
      Mismatches += Reply[1] != Expected[Reply[0]][0] ||
                    Reply[2] != Expected[Reply[0]][1];
  R.check(Mismatches == 0, std::to_string(Mismatches) +
                               " image replies differ from an in-process "
                               "pipeline");

  // Replication: pump streaming and anti-entropy until every replica
  // serializes the primary's patch set.
  ReplicaSet &Links = *Served.replicaSet();
  const std::vector<uint8_t> Primary =
      serializePatchSet(Server.snapshot().Patches);
  const uint64_t ConvergeStart = nowNs();
  bool Converged = false;
  for (int Pass = 0; Pass < 64 && !Converged; ++Pass) {
    Links.drainOnce();
    Links.antiEntropyOnce();
    Converged = true;
    for (PatchServer *Replica : Served.replicas())
      Converged &= serializePatchSet(Replica->snapshot().Patches) == Primary;
  }
  F.ConvergeMs = double(nowNs() - ConvergeStart) / 1e6;
  F.RecordsStreamed = Links.stats().RecordsStreamed;
  R.check(Converged, "replicas did not converge to the primary's patch set");

  // Restart from the state dir: same epoch, same patch bytes.
  {
    StateStore Store(StateDir);
    PatchServer Restarted;
    std::string RestoreError;
    R.check(Restarted.attachState(Store, 64, &RestoreError),
            "restart from state dir failed: " + RestoreError);
    const PatchSnapshot Before = Server.snapshot(), After = Restarted.snapshot();
    R.check(After.Epoch == Before.Epoch &&
                serializePatchSet(After.Patches) ==
                    serializePatchSet(Before.Patches) &&
                Restarted.cumulativeRuns() == Server.cumulativeRuns(),
            "restarted server differs from the one that stopped");
  }
  return F;
}

struct RunFigures {
  std::vector<double> SetupS, SoloRates, DuoRates;
  std::vector<double> DuoP50Ms, DuoP99Ms; ///< per round
  std::vector<RoundFigures> Rounds;
};

void runRounds(const Options &Opt, double Seconds, unsigned FirstRound,
               bool Record, RunFigures &Out, Report &R) {
  for (unsigned Round = 0; Round < Rounds; ++Round) {
    RoundFigures F =
        runRound(Opt, FirstRound + Round, Seconds / Rounds, Record, R);
    R.Attempted += F.Solo.Requests + F.Duo.Requests;
    Out.SetupS.push_back(F.SetupS);
    Out.SoloRates.insert(Out.SoloRates.end(), F.Solo.QuietRates.begin(),
                         F.Solo.QuietRates.end());
    Out.DuoRates.insert(Out.DuoRates.end(), F.Duo.QuietRates.begin(),
                        F.Duo.QuietRates.end());
    Out.DuoP50Ms.push_back(quantile(F.Duo.QuietRttMs, 0.5));
    Out.DuoP99Ms.push_back(quantile(F.Duo.QuietRttMs, 0.99));
    Out.Rounds.push_back(std::move(F));
  }
}

/// Server stage times and component costs from the traced rounds'
/// recorded frames and evidence, measured with nothing else running.
void measureComponents(RunFigures &Traced, Report &R) {
  std::vector<RecordedFrame> Frames;
  std::vector<double> CacheRatios, AppendMs, FsyncMs, StateKb, ConvergeMs;
  double Streamed = 0, Suppressed = 0;
  std::array<std::vector<double>, static_cast<size_t>(Kind::NumKinds)> Rtt;
  for (RoundFigures &F : Traced.Rounds) {
    for (RecordedFrame &Frame : F.Recorded)
      Frames.push_back(std::move(Frame));
    CacheRatios.push_back(F.CacheHitRatio);
    AppendMs.push_back(F.AppendMs);
    FsyncMs.push_back(F.FsyncMs);
    StateKb.push_back(F.StateKb);
    ConvergeMs.push_back(F.ConvergeMs);
    Streamed += double(F.RecordsStreamed);
    Suppressed += double(F.Suppressed);
    for (size_t K = 0; K < Rtt.size(); ++K)
      Rtt[K].insert(Rtt[K].end(), F.Rtt[K].begin(), F.Rtt[K].end());
  }
  const double NumRounds = double(Traced.Rounds.size());
  for (Kind K : {Kind::Images, Kind::Summary, Kind::Fetch}) {
    const std::string Base = std::string("exchange.rtt_ms.") + kindName(K);
    R.Layer[Base + ".p50"] = quantile(Rtt[static_cast<size_t>(K)], 0.5);
    R.Layer[Base + ".p99"] = quantile(Rtt[static_cast<size_t>(K)], 0.99);
  }
  R.Layer["diagnose.cache_hit_ratio"] = mean(CacheRatios);
  R.Layer["exchange.state.append_ms"] = mean(AppendMs);
  R.Layer["exchange.state.fsync_ms"] = mean(FsyncMs);
  R.Layer["exchange.state.kb"] = mean(StateKb);
  R.Layer["exchange.replication.converge_ms"] = mean(ConvergeMs);
  R.Layer["exchange.replication.records_streamed"] = Streamed / NumRounds;
  R.Layer["exchange.dedup_suppressed"] = Suppressed / NumRounds;

  // Replay the first recorded frames, in send order, through a fresh
  // server: handleFrame per kind, and the round trip's remainder.
  std::sort(Frames.begin(), Frames.end(),
            [](const RecordedFrame &A, const RecordedFrame &B) {
              return A.Sequence < B.Sequence;
            });
  if (Frames.size() > MaxReplayFrames)
    Frames.resize(MaxReplayFrames);
  const ReplayTimes Replay = replayFrames(Frames);
  for (Kind K : {Kind::Images, Kind::Summary, Kind::Fetch})
    R.Layer[std::string("exchange.handle_ms.") + kindName(K)] =
        median(Replay.Ms[static_cast<size_t>(K)]);
  double RttSum = 0;
  for (const RecordedFrame &Frame : Frames)
    RttSum += Frame.RttMs;
  R.Layer["exchange.socket_ms"] =
      Frames.empty() ? 0.0 : (RttSum - Replay.TotalMs) / double(Frames.size());

  // Decoding the recorded requests: frame envelope plus payload.
  std::vector<double> DecodeMs;
  std::vector<RunSummary> Summaries;
  std::vector<unsigned> Streaks;
  for (const RecordedFrame &Recorded : Frames) {
    const uint64_t T0 = nowNs();
    Frame F;
    size_t Consumed = 0;
    decodeFrame(Recorded.Request.data(), Recorded.Request.size(), F,
                Consumed);
    if (F.Type == MessageType::SubmitImages) {
      ImageEvidence Evidence;
      decodeSubmitImages(F.Payload, Evidence);
    } else if (F.Type == MessageType::SubmitSummary) {
      RunSummary Summary;
      unsigned Streak = 0;
      uint64_t Token = 0;
      if (decodeSubmitSummary(F.Payload, Summary, Streak, Token)) {
        Summaries.push_back(std::move(Summary));
        Streaks.push_back(Streak);
      }
    }
    DecodeMs.push_back(double(nowNs() - T0) / 1e6);
  }
  R.Layer["codec.decode_ms"] = mean(DecodeMs);

  // Classification: the recorded summaries, in order, into one pipeline.
  {
    DiagnosisPipeline Pipeline;
    std::vector<double> Ms;
    for (size_t I = 0; I < Summaries.size(); ++I) {
      const uint64_t T0 = nowNs();
      Pipeline.submitSummary(Summaries[I], Streaks[I]);
      Ms.push_back(double(nowNs() - T0) / 1e6);
    }
    R.Layer["cumulative.classify_ms"] = mean(Ms);
  }

  // View building and isolation over the image pool (cache-miss path).
  std::vector<double> ViewMs, IsolateMs;
  for (const RoundFigures &F : Traced.Rounds)
    for (const ImageEvidence &Evidence : F.Pool.ImageSets) {
      uint64_t T0 = nowNs();
      const std::vector<HeapImageView> Views = makeViews(Evidence.Primary);
      ViewMs.push_back(double(nowNs() - T0) / 1e6);
      T0 = nowNs();
      DiagnosisPipeline().isolateImages(Evidence);
      IsolateMs.push_back(double(nowNs() - T0) / 1e6);
    }
  R.Layer["diagnose.view_build_ms"] = mean(ViewMs);
  R.Layer["isolate.isolate_ms"] = mean(IsolateMs);
}

} // namespace

int xbench::runIngest(const Options &Opt, Report &R) {
  R.host("client_threads", "1 then " + std::to_string(Clients));
  R.host("server_workers", ServerWorkers);
  R.host("replicas", Replicas);
  R.host("rounds", Rounds);
  R.host("pool", std::to_string(PoolSummaries) + " summaries, " +
                     std::to_string(PoolImageSets) + " image sets");
  R.host("mix_pct", "retry " + std::to_string(RetryPct) + ", summary " +
                        std::to_string(SummaryPct) + ", images " +
                        std::to_string(ImagesPct) + ", fetch " +
                        std::to_string(100 - RetryPct - SummaryPct -
                                       ImagesPct));

  RunFigures Untraced;
  runRounds(Opt, Opt.Trace ? Opt.Seconds / 2 : Opt.Seconds, 0,
            /*Record=*/false, Untraced, R);
  if (!Opt.Trace) {
    R.End["setup_s"] = median(Untraced.SetupS);
    R.End["ops_per_s"] = median(Untraced.DuoRates);
    R.End["solo_ops_per_s"] = median(Untraced.SoloRates);
    R.End["op_p50_ms"] = median(Untraced.DuoP50Ms);
    R.End["op_p99_ms"] = median(Untraced.DuoP99Ms);
    R.End["peak_rss_mb"] = peakRssMb();
    return 0;
  }

  RunFigures Traced;
  trace::clear();
  trace::enable(true);
  runRounds(Opt, Opt.Seconds / 2, Rounds, /*Record=*/true, Traced, R);
  trace::enable(false);
  R.Layer["trace.overhead_pct"] =
      (median(Untraced.DuoRates) / median(Traced.DuoRates) - 1.0) * 100.0;
  measureComponents(Traced, R);
  return 0;
}
