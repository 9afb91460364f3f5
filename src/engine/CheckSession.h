//===--- CheckSession.h - incremental check orchestration -------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The session engine behind checker::runCheck. A CheckSession owns two
/// persistent checker::EncodedProblems - one for the Serial model
/// (specification mining and refset probing), one for the target model
/// (inclusion checks and bound probes) - and drives the paper's mine ->
/// include -> probe iteration (Fig. 1/3, Sec. 3.3) incrementally on them:
///
///  * The inclusion check and the bound probe of one round share a single
///    encoding; assumptions over activation literals switch between
///    "within bounds + specification" and "some bound exceeded".
///  * When lazy unrolling grows a loop bound, the new unrolling replaces
///    the old one in the same problem (EncodedProblem::encode resets the
///    solver), so each solver holds only the live encoding - the final
///    CNF that Fig. 10 reports - and never the dead variables of earlier
///    rounds. A re-unrolling uses fresh variables only, so no learnt
///    clause over the old ones could have helped it.
///  * Mining is skipped entirely when the mined program's bounds did not
///    change since the last completed enumeration - the re-run would
///    reproduce the identical observation set.
///  * Every decoded artifact - counterexample traces and the loops a bound
///    probe found exceeded - comes from the model the target problem's
///    own solver holds after its Sat answer; no query is solved twice.
///    Solving is serial, so the decoded models (and with them the bound
///    trajectory and timing-free reports) depend only on the query
///    sequence.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_ENGINE_CHECKSESSION_H
#define CHECKFENCE_ENGINE_CHECKSESSION_H

#include "checker/CheckFence.h"
#include "checker/Encoder.h"

#include <vector>

namespace checkfence {
namespace engine {

class CheckSession {
public:
  explicit CheckSession(const checker::CheckOptions &Opts) : Opts(Opts) {}

  /// Runs the full check on this session's problems. May be called
  /// repeatedly; every call re-encodes from scratch, so the solvers hold
  /// only the last call's live encodings.
  checker::CheckResult check(const lsl::Program &ImplProg,
                             const std::vector<std::string> &ThreadProcs,
                             const lsl::Program *SpecProg = nullptr);

  const checker::EncodedProblem &mineContext() const { return MineProb; }
  const checker::EncodedProblem &checkContext() const { return CheckProb; }

  /// Problem clauses of the live encodings in both solvers.
  size_t totalClauses() const {
    return MineProb.solver().numClauses() +
           CheckProb.solver().numClauses();
  }

private:
  checker::CheckOptions Opts;
  checker::EncodedProblem MineProb;  ///< Serial model: mining + refset probe
  checker::EncodedProblem CheckProb; ///< target model: inclusion + probe
};

} // namespace engine
} // namespace checkfence

#endif // CHECKFENCE_ENGINE_CHECKSESSION_H
