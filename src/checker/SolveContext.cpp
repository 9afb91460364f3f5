//===--- SolveContext.cpp - one live encoding per solver ------------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//

#include "checker/SolveContext.h"

#include "support/Timing.h"

using namespace checkfence;
using namespace checkfence::checker;

ProblemEncoding &
SolveContext::encode(const lsl::Program &Prog,
                     const std::vector<std::string> &ThreadProcs,
                     const trans::LoopBounds &Bounds,
                     const ProblemConfig &Cfg) {
  // Retire the previous encoding first: it refers to the builder.
  Live.reset();
  Solver.reset();
  Cnf.emplace(Solver);
  Live = std::make_unique<ProblemEncoding>(*Cnf, Prog, ThreadProcs, Bounds,
                                           Cfg);
  // The solver's budget counts lifetime conflicts; remember the per-phase
  // allowance and arm it (phases re-arm again via beginPhase()).
  PhaseBudget = Cfg.ConflictBudget;
  beginPhase();
  EncodeStats &Stats = Live->stats();
  Stats.SatVars = Solver.numVars();
  Stats.SatClauses = Solver.numClauses();
  Stats.SolverMemBytes = Solver.memoryBytes();
  return *Live;
}

sat::SolveResult
SolveContext::solveUnder(const std::vector<sat::Lit> &Assumptions) {
  Timer T;
  sat::SolveResult R = Solver.solve(Assumptions);
  double Secs = T.seconds();
  SolveSecs += Secs;
  if (Live) {
    EncodeStats &Stats = Live->stats();
    Stats.SolveSeconds += Secs;
    Stats.SolveCalls += 1;
    Stats.LearntClauses = Solver.numLearnts();
    Stats.SolverMemBytes =
        std::max(Stats.SolverMemBytes, Solver.memoryBytes());
  }
  return R;
}
