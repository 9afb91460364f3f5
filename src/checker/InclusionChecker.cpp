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

  bool Consistent = true;
  for (const Observation &O : Spec)
    Consistent = Prob.addMismatch(O) && Consistent;
  if (!Consistent) {
    // The constraints alone are unsatisfiable: no execution escapes the
    // specification.
    Out.Ok = true;
    Out.Pass = true;
    return Out;
  }

  sat::SolveResult R = Prob.solve();
  switch (R) {
  case sat::SolveResult::Unknown:
    Out.Error = "solver budget exhausted during inclusion check";
    return Out;
  case sat::SolveResult::Unsat:
    Out.Ok = true;
    Out.Pass = true;
    return Out;
  case sat::SolveResult::Sat:
    Out.Ok = true;
    Out.Pass = false;
    Out.Counterexample = Prob.decodeTrace();
    return Out;
  }
  return Out;
}

InclusionOutcome checkfence::checker::checkInclusion(
    SolveContext &Ctx, ProblemEncoding &Enc, const ObservationSet &Spec,
    const std::vector<sat::Lit> &Assumptions) {
  InclusionOutcome Out;
  if (!Enc.ok()) {
    Out.Error = Enc.error();
    return Out;
  }

  Ctx.beginPhase();
  // One activation literal covers the whole specification; assumed only
  // for this check, so the probe afterwards sees the unconstrained
  // observation space again.
  sat::Lit Act = Ctx.newActivation();
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

  std::vector<sat::Lit> Assumps = Assumptions;
  Assumps.push_back(Act);
  sat::SolveResult R;
  {
    obs::Span SolveSpan("solver", "solve");
    R = Ctx.solveUnder(Assumps);
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
    // Decoded from the model the context's solver holds right now.
    Out.Ok = true;
    Out.Pass = false;
    Out.Counterexample = Enc.decodeTrace(Ctx.solver());
    return Out;
  }
  return Out;
}
