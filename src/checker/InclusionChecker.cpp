//===--- InclusionChecker.cpp - the inclusion check --------------------------===//

#include "checker/InclusionChecker.h"

#include "obs/Trace.h"

using namespace checkfence;
using namespace checkfence::checker;

InclusionOutcome
checkfence::checker::checkInclusion(EncodedProblem &Prob,
                                    const ObservationSet &Spec) {
  InclusionOutcome Out;
  if (!Prob.ok()) {
    Out.Error = Prob.error();
    return Out;
  }

  Prob.beginPhase();
  ProblemEncoding &Enc = Prob.encoding();
  // One activation literal covers the whole specification; assumed only
  // for this check, so the probe afterwards sees the unconstrained
  // observation space again.
  sat::Lit Act = Prob.newActivation();
  bool Consistent = true;
  for (const Observation &O : Spec)
    Consistent = Enc.addMismatch(O, Act) && Consistent;
  if (!Consistent) {
    // The constraints alone are unsatisfiable: no execution escapes the
    // specification.
    Out.Ok = true;
    Out.Pass = true;
    return Out;
  }

  std::vector<sat::Lit> Assumptions = Enc.withinBoundsAssumptions();
  if (Act != sat::LitUndef)
    Assumptions.push_back(Act);
  sat::SolveResult R;
  {
    obs::Span SolveSpan("solver", "solve");
    R = Prob.solve(Assumptions);
  }
  switch (R) {
  case sat::SolveResult::Unknown:
    Out.Error = "solver budget exhausted during inclusion check";
    return Out;
  case sat::SolveResult::Unsat:
    Out.Ok = true;
    Out.Pass = true;
    return Out;
  case sat::SolveResult::Sat:
    // Decoded from the model the problem's solver holds right now.
    Out.Ok = true;
    Out.Pass = false;
    Out.Counterexample = Enc.decodeTrace(Prob.solver());
    return Out;
  }
  return Out;
}
