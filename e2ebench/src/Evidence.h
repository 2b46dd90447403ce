//===- e2ebench/src/Evidence.h - Program runs and their evidence -*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The §7.2 bug list and the §3.4 replay protocol, written against the
/// program's public runtime API (runWorkloadOnce with a malloc
/// breakpoint).  Both workloads that need heap images get them here: the
/// protect loop ships them to the patch server one episode at a time, and
/// the ingest workload pre-generates its evidence pool with them.
///
//===----------------------------------------------------------------------===//

#ifndef E2EBENCH_EVIDENCE_H
#define E2EBENCH_EVIDENCE_H

#include "diagnose/DiagnosisPipeline.h"
#include "runtime/Exterminator.h"
#include "support/RandomGenerator.h"

#include <functional>
#include <string>
#include <vector>

namespace xbench {

/// The espresso input every §7.2 experiment uses.
inline constexpr uint64_t EspressoInput = 5;

/// One injected bug of the §7.2 list.
struct Bug {
  std::string Label;
  bool Overflow = true;
  uint32_t OverflowBytes = 0; ///< overflow bugs only
  exterminator::ExterminatorConfig Config;
};

/// The §7.2 faults in the order the protect loop runs them: 10 buffer
/// overflows each of 4, 20 and 36 bytes, then the dangling pointers of
/// cumulative mode (p = 1/2) whose outcome does not depend on the heap
/// seed of the verification run.
/// Fixed: no seed of the benchmark changes which faults are injected or
/// how they are diagnosed.
std::vector<Bug> sec72Bugs();

/// A timed runWorkloadOnce: one Runtime span, and its wall time appended
/// to \p RunMs when given.
exterminator::SingleRunResult
timedRun(exterminator::Workload &Work, uint64_t HeapSeed,
         const exterminator::ExterminatorConfig &Config,
         const exterminator::PatchSet &Patches,
         std::optional<uint64_t> BreakpointAt = std::nullopt,
         std::vector<double> *RunMs = nullptr);

/// What the replay protocol hands to a submitter; the submitter answers
/// whether isolation found the error.
using SubmitFn = std::function<bool(const exterminator::ImageEvidence &)>;

struct EpisodeResult {
  bool Isolated = false;
  unsigned ImagesUsed = 0;
};

/// One iterative-mode episode after a discovery run manifested the error
/// (same protocol as IterativeDriver): replay under fresh heap seeds to
/// the malloc breakpoint, lowering it when a replay fails earlier, and
/// submit breakpoint images (plus end-of-run images of failed replays)
/// once MinImages are in hand, adding one seed per unsuccessful
/// submission up to MaxImages.
EpisodeResult replayEpisode(exterminator::Workload &Work,
                            const exterminator::ExterminatorConfig &Config,
                            const exterminator::PatchSet &Patches,
                            exterminator::RandomGenerator &SeedStream,
                            const exterminator::SingleRunResult &Discovery,
                            uint64_t DiscoverySeed, const SubmitFn &Submit,
                            std::vector<double> *RunMs = nullptr);

} // namespace xbench

#endif // E2EBENCH_EVIDENCE_H
