//===--- SolveContext.h - one live encoding per solver -----------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solver-owning half of the encoding/solving split: one sat::Solver
/// plus one CnfBuilder holding the context's single live ProblemEncoding.
/// All phases over one encoding (the mine/include/probe phases of one
/// bound round) share it: phase selection happens through assumptions
/// over the encoding's activation literals, so learnt clauses, saved
/// phases and variable activities carry over between those re-solves.
///
/// A re-encoding (the lazy-unrolling bound iterations of Sec. 3.3) uses
/// only fresh variables, so nothing the solver learnt about the old
/// encoding can help it. encode() therefore retires the old encoding
/// first: the solver is reset and the CnfBuilder rebuilt, and the solver
/// holds exactly the CNF of the live encoding (the size Fig. 10 reports).
/// Only the solver's lifetime statistics survive the reset.
///
/// Retractable clause groups (specification mismatch sets, mining blocking
/// sets) are gated by activation literals from newActivation(): a group
/// only binds while its literal is assumed, and is abandoned - never
/// deleted - once its phase is over.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_CHECKER_SOLVECONTEXT_H
#define CHECKFENCE_CHECKER_SOLVECONTEXT_H

#include "checker/Encoder.h"

#include <memory>
#include <optional>
#include <vector>

namespace checkfence {
namespace checker {

class SolveContext {
public:
  SolveContext() = default;

  SolveContext(const SolveContext &) = delete;
  SolveContext &operator=(const SolveContext &) = delete;

  sat::Solver &solver() { return Solver; }
  const sat::Solver &solver() const { return Solver; }

  /// Encodes the given problem as this context's live encoding, retiring
  /// (and invalidating) the previous one: the solver is reset to an empty
  /// clause database first. The returned reference stays valid until the
  /// next encode().
  ProblemEncoding &encode(const lsl::Program &Prog,
                          const std::vector<std::string> &ThreadProcs,
                          const trans::LoopBounds &Bounds,
                          const ProblemConfig &Cfg);

  /// A fresh literal for gating a retractable clause group. Must not be
  /// called before encode().
  sat::Lit newActivation() { return Cnf->fresh(); }

  /// Re-arms the conflict budget for a new phase (mining enumeration,
  /// inclusion check, or one probe solve). The from-scratch pipeline gives
  /// every phase a fresh solver and hence a fresh allowance; this restores
  /// that semantics on the shared solver, whose conflict counter counts
  /// over the context's lifetime (Solver::reset keeps it).
  void beginPhase() {
    Solver.ConflictBudget =
        PhaseBudget < 0
            ? -1
            : static_cast<int64_t>(Solver.stats().Conflicts) + PhaseBudget;
  }

  /// Solves under the given assumptions; accumulates solve time and call
  /// count into the live encoding's stats.
  sat::SolveResult solveUnder(const std::vector<sat::Lit> &Assumptions);

  /// Total solve seconds across all solveUnder calls on this context.
  double solveSeconds() const { return SolveSecs; }

private:
  sat::Solver Solver;
  std::optional<encode::CnfBuilder> Cnf;  ///< over Solver; rebuilt per encode
  std::unique_ptr<ProblemEncoding> Live; ///< built on Cnf
  double SolveSecs = 0;
  int64_t PhaseBudget = -1; ///< per-phase allowance from the last encode()
};

} // namespace checker
} // namespace checkfence

#endif // CHECKFENCE_CHECKER_SOLVECONTEXT_H
