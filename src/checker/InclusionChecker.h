//===--- InclusionChecker.h - the inclusion check ---------------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks obs(E(T,I,Y)) subseteq S by solving Phi(T,I,Y) conjoined with a
/// mismatch clause for every specification element (Sec. 3.2, "inclusion
/// check"). A satisfying assignment is decoded into a counterexample trace.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_CHECKER_INCLUSIONCHECKER_H
#define CHECKFENCE_CHECKER_INCLUSIONCHECKER_H

#include "checker/Encoder.h"

#include <optional>

namespace checkfence {
namespace checker {

struct InclusionOutcome {
  bool Ok = false;
  std::string Error;
  bool Pass = false;
  std::optional<Trace> Counterexample;
};

/// Runs the inclusion check of \p Spec on \p Prob (whose live encoding
/// uses the target memory model), solving under its within-bounds
/// assumptions. The specification's mismatch clauses are gated by one
/// activation literal, so the solver stays usable for the bound probe and
/// later re-checks afterwards; on a one-shot problem they are hard clauses.
InclusionOutcome checkInclusion(EncodedProblem &Prob,
                                const ObservationSet &Spec);

} // namespace checker
} // namespace checkfence

#endif // CHECKFENCE_CHECKER_INCLUSIONCHECKER_H
