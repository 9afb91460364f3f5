//===--- EngineTests.cpp - session engine and matrix runner tests ----------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
// The session engine must be a pure optimization: for any cell it returns
// the same verdict and the same mined observation set as the from-scratch
// pipeline, while keeping one solver per memory model that shares an
// encoding across the mine/include/probe phases and holds only the live
// encoding across the lazy-unrolling bound iterations.
//
//===----------------------------------------------------------------------===//

#include "engine/CheckSession.h"
#include "engine/MatrixRunner.h"
#include "frontend/Lowering.h"
#include "harness/Catalog.h"
#include "impls/Impls.h"
#include "sat/CnfStore.h"

#include "checkfence/checkfence.h"

#include "gtest/gtest.h"

#include <atomic>

using namespace checkfence;
using namespace checkfence::checker;
using namespace checkfence::engine;
using namespace checkfence::harness;

namespace {

bool compileInto(const std::string &Source, lsl::Program &Prog) {
  frontend::DiagEngine Diags;
  return frontend::compileC(Source, {}, Prog, Diags);
}

//===----------------------------------------------------------------------===//
// Incremental vs from-scratch equivalence.
//===----------------------------------------------------------------------===//

/// Checks one (source, test) cell under \p Model through both pipelines
/// and asserts identical verdicts and observation sets.
void expectSessionMatchesFresh(const std::string &Source,
                               const std::string &Test,
                               memmodel::ModelParams Model) {
  lsl::Program Prog;
  ASSERT_TRUE(compileInto(Source, Prog));
  TestSpec Spec = testByName(Test);
  std::vector<std::string> Threads = buildTestThreads(Prog, Spec);

  CheckOptions Opts;
  Opts.Model = Model;

  CheckResult Fresh = runCheckFresh(Prog, Threads, Opts);

  CheckSession Session(Opts);
  CheckResult Inc = Session.check(Prog, Threads);

  SCOPED_TRACE(Test + " on " + memmodel::modelName(Model));
  EXPECT_EQ(Inc.Status, Fresh.Status)
      << "session: " << Inc.Message << " / fresh: " << Fresh.Message;
  EXPECT_EQ(Inc.Spec, Fresh.Spec);
  // Note: FinalBounds may legitimately differ - a satisfiable probe's
  // model (and hence which loop instances grow first) depends on solver
  // state. Verdict and observation set may not. At equal final bounds
  // both pipelines report the same final CNF (Fig. 10's size columns):
  // the session's solver holds the live encoding only.
  if (Inc.FinalBounds == Fresh.FinalBounds) {
    EXPECT_EQ(Inc.Stats.Inclusion.SatVars, Fresh.Stats.Inclusion.SatVars);
    EXPECT_EQ(Inc.Stats.Inclusion.SatClauses,
              Fresh.Stats.Inclusion.SatClauses);
  }
}

TEST(SessionEquivalence, RefQueueT0AllModels) {
  for (memmodel::ModelParams M :
       {memmodel::ModelParams::sc(), memmodel::ModelParams::tso(),
        memmodel::ModelParams::relaxed()})
    expectSessionMatchesFresh(impls::referenceFor("queue"), "T0", M);
}

TEST(SessionEquivalence, RefQueueTi2AllModels) {
  for (memmodel::ModelParams M :
       {memmodel::ModelParams::sc(), memmodel::ModelParams::tso(),
        memmodel::ModelParams::relaxed()})
    expectSessionMatchesFresh(impls::referenceFor("queue"), "Ti2", M);
}

TEST(SessionEquivalence, RefSetS1AllModels) {
  for (memmodel::ModelParams M :
       {memmodel::ModelParams::sc(), memmodel::ModelParams::tso(),
        memmodel::ModelParams::relaxed()})
    expectSessionMatchesFresh(impls::referenceFor("set"), "S1", M);
}

TEST(SessionEquivalence, MsnT0RelaxedWithAndWithoutFences) {
  // A PASS cell with bound growth and a FAIL cell (counterexample path).
  expectSessionMatchesFresh(impls::sourceFor("msn"), "T0",
                            memmodel::ModelParams::relaxed());

  frontend::LoweringOptions LO;
  LO.StripFences = true;
  frontend::DiagEngine Diags;
  lsl::Program Stripped;
  ASSERT_TRUE(frontend::compileC(impls::sourceFor("msn"), {}, Stripped,
                                 Diags, LO));
  TestSpec Spec = testByName("T0");
  std::vector<std::string> Threads = buildTestThreads(Stripped, Spec);
  CheckOptions Opts;
  Opts.Model = memmodel::ModelParams::relaxed();
  CheckResult Fresh = runCheckFresh(Stripped, Threads, Opts);
  CheckSession Session(Opts);
  CheckResult Inc = Session.check(Stripped, Threads);
  EXPECT_EQ(Fresh.Status, CheckStatus::Fail);
  EXPECT_EQ(Inc.Status, CheckStatus::Fail);
  ASSERT_TRUE(Inc.Counterexample.has_value());
  // The specific counterexample model may differ between pipelines, but
  // both must exhibit an observation outside the (identical) spec.
  EXPECT_EQ(Inc.Spec, Fresh.Spec);
  EXPECT_EQ(Inc.Spec.count(Inc.Counterexample->Obs), 0u);
}

TEST(SessionEquivalence, RefspecModeMatches) {
  // Refset mining (Fig. 11a): spec mined from the reference queue while
  // checking msn. Exercises the second persistent context's probe reuse.
  lsl::Program Impl, Ref;
  ASSERT_TRUE(compileInto(impls::sourceFor("msn"), Impl));
  ASSERT_TRUE(compileInto(impls::referenceFor("queue"), Ref));
  TestSpec Spec = testByName("T0");
  std::vector<std::string> Threads = buildTestThreads(Impl, Spec);
  std::vector<std::string> RefThreads = buildTestThreads(Ref, Spec);
  ASSERT_EQ(Threads, RefThreads);

  CheckOptions Opts;
  Opts.Model = memmodel::ModelParams::relaxed();
  CheckResult Fresh = runCheckFresh(Impl, Threads, Opts, &Ref);
  CheckSession Session(Opts);
  CheckResult Inc = Session.check(Impl, Threads, &Ref);
  EXPECT_EQ(Inc.Status, Fresh.Status)
      << "session: " << Inc.Message << " / fresh: " << Fresh.Message;
  EXPECT_EQ(Inc.Spec, Fresh.Spec);
}

//===----------------------------------------------------------------------===//
// One live encoding per solver: re-unrolling retires the old encoding.
//===----------------------------------------------------------------------===//

TEST(SessionSolver, RetiresSupersededEncodings) {
  // msn T0 on Relaxed needs a bound growth round (retry loops), so the
  // target-model context re-encodes at least once.
  lsl::Program Prog;
  ASSERT_TRUE(compileInto(impls::sourceFor("msn"), Prog));
  std::vector<std::string> Threads =
      buildTestThreads(Prog, testByName("T0"));

  CheckOptions Opts;
  Opts.Model = memmodel::ModelParams::relaxed();
  CheckSession Session(Opts);
  CheckResult R = Session.check(Prog, Threads);
  ASSERT_EQ(R.Status, CheckStatus::Pass) << R.Message;
  ASSERT_GE(R.Stats.BoundIterations, 2) << "expected a bound-growth round";

  // The solvers hold what a session starting at the final bounds holds:
  // the live encodings plus their phases' clauses, nothing of round 1.
  CheckOptions AtFinal = Opts;
  AtFinal.InitialBounds = R.FinalBounds;
  CheckSession Ref(AtFinal);
  CheckResult RefR = Ref.check(Prog, Threads);
  ASSERT_EQ(RefR.Status, CheckStatus::Pass) << RefR.Message;
  EXPECT_EQ(RefR.Stats.BoundIterations, 1);
  const sat::Solver &Check = Session.checkContext().solver();
  const sat::Solver &Mine = Session.mineContext().solver();
  EXPECT_EQ(Check.numVars(), Ref.checkContext().solver().numVars());
  EXPECT_EQ(Check.numClauses(), Ref.checkContext().solver().numClauses());
  EXPECT_EQ(Mine.numVars(), Ref.mineContext().solver().numVars());
  EXPECT_EQ(Mine.numClauses(), Ref.mineContext().solver().numClauses());
  EXPECT_EQ(R.Stats.Inclusion.SatVars, RefR.Stats.Inclusion.SatVars);
  EXPECT_EQ(R.Stats.Inclusion.SatClauses, RefR.Stats.Inclusion.SatClauses);

  // A second check re-encodes from scratch: the solvers end no larger,
  // the timing-free result repeats, and - every encode resets the
  // solvers, so the second check searches exactly like the first - the
  // lifetime counters, which survive the resets, exactly double.
  int CheckVars = Check.numVars(), MineVars = Mine.numVars();
  size_t CheckClauses = Check.numClauses(), MineClauses = Mine.numClauses();
  sat::SolverStats CheckStats = Check.stats(), MineStats = Mine.stats();
  ASSERT_GT(CheckStats.Conflicts, 0u);
  CheckResult Again = Session.check(Prog, Threads);
  EXPECT_LE(Check.numVars(), CheckVars);
  EXPECT_LE(Check.numClauses(), CheckClauses);
  EXPECT_LE(Mine.numVars(), MineVars);
  EXPECT_LE(Mine.numClauses(), MineClauses);
  EXPECT_EQ(Check.stats().Conflicts, 2 * CheckStats.Conflicts);
  EXPECT_EQ(Check.stats().Propagations, 2 * CheckStats.Propagations);
  EXPECT_EQ(Mine.stats().Conflicts, 2 * MineStats.Conflicts);
  EXPECT_EQ(Again.Status, R.Status);
  EXPECT_EQ(Again.Spec, R.Spec);
  EXPECT_EQ(Again.FinalBounds, R.FinalBounds);
  EXPECT_EQ(Again.Stats.BoundIterations, R.Stats.BoundIterations);
  EXPECT_EQ(Again.Stats.Inclusion.SatVars, R.Stats.Inclusion.SatVars);
  EXPECT_EQ(Again.Stats.Inclusion.SatClauses, R.Stats.Inclusion.SatClauses);
}

//===----------------------------------------------------------------------===//
// MatrixRunner: determinism and parallel scheduling.
//===----------------------------------------------------------------------===//

TEST(MatrixRunner, TimingFreeReportIsIdenticalAcrossJobCounts) {
  std::vector<MatrixCell> Cells = expandMatrix(
      {"ms2", "msn"}, {"T0"},
      {memmodel::ModelParams::sc(), memmodel::ModelParams::relaxed()});
  ASSERT_EQ(Cells.size(), 4u);

  RunOptions Base;
  MatrixReport Seq = MatrixRunner(1).run(Cells, catalogCellRunner(Base));
  MatrixReport Par = MatrixRunner(4).run(Cells, catalogCellRunner(Base));

  ASSERT_EQ(Seq.Cells.size(), Par.Cells.size());
  EXPECT_TRUE(Seq.allCompleted());
  EXPECT_TRUE(Par.allCompleted());
  EXPECT_EQ(Seq.json(/*IncludeTimings=*/false),
            Par.json(/*IncludeTimings=*/false));
  // Cell order follows the input matrix regardless of completion order.
  for (size_t I = 0; I < Cells.size(); ++I) {
    EXPECT_EQ(Par.Cells[I].Cell.label(), Cells[I].label());
    EXPECT_EQ(Par.Cells[I].Result.Status, Seq.Cells[I].Result.Status);
  }
}

TEST(MatrixRunner, ExpandFiltersKindMismatches) {
  // Explicit tests that do not fit an implementation's kind are dropped.
  std::vector<MatrixCell> Cells = expandMatrix(
      {"msn", "lazylist"}, {"T0", "Sac"}, {memmodel::ModelParams::relaxed()});
  ASSERT_EQ(Cells.size(), 2u);
  EXPECT_EQ(Cells[0].label(), "msn:T0:relaxed");
  EXPECT_EQ(Cells[1].label(), "lazylist:Sac:relaxed");
}

TEST(MatrixRunner, UnknownNamesBecomeErrorCells) {
  std::vector<MatrixCell> Cells(1);
  Cells[0].Impl = "no-such-impl";
  Cells[0].Test = "T0";
  MatrixReport Report =
      MatrixRunner(2).run(Cells, catalogCellRunner(RunOptions()));
  ASSERT_EQ(Report.Cells.size(), 1u);
  EXPECT_EQ(Report.Cells[0].Result.Status, CheckStatus::Error);
  EXPECT_FALSE(Report.allCompleted());
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> Hits(257);
  for (auto &H : Hits)
    H = 0;
  parallelFor(8, Hits.size(), [&](size_t I) { ++Hits[I]; });
  for (size_t I = 0; I < Hits.size(); ++I)
    EXPECT_EQ(Hits[I], 1) << "index " << I;
}

//===----------------------------------------------------------------------===//
// Phase accounting: a check's reported phases account for its time.
//===----------------------------------------------------------------------===//

TEST(PhaseAccounting, PhasesSumToTotalOnHardCell) {
  // msn/Tpc2 on relaxed mines, grows its bounds over several probes and
  // re-encodes, so every phase of the loop is exercised.
  lsl::Program Prog;
  ASSERT_TRUE(compileInto(impls::sourceFor("msn"), Prog));
  std::vector<std::string> Threads =
      buildTestThreads(Prog, testByName("Tpc2"));
  CheckOptions Opts;
  Opts.Model = memmodel::ModelParams::relaxed();
  CheckSession Session(Opts);
  CheckResult R = Session.check(Prog, Threads);
  ASSERT_EQ(R.Status, CheckStatus::Pass) << R.Message;

  // The sum the benchmark ledger subtracts for engine.unaccounted_s.
  const CheckStats &S = R.Stats;
  double Phases = S.MiningSeconds + S.EncodeSeconds + S.IncludeSeconds +
                  S.ProbeSeconds + S.OracleSeconds + S.AnalysisSeconds;
  EXPECT_GT(S.ProbeSeconds, 0);
  EXPECT_GT(S.EncodeSeconds, 0);
  EXPECT_NEAR(Phases, S.TotalSeconds, 0.05 * S.TotalSeconds)
      << "mine " << S.MiningSeconds << " encode " << S.EncodeSeconds
      << " include " << S.IncludeSeconds << " probe " << S.ProbeSeconds
      << " oracle " << S.OracleSeconds << " analysis " << S.AnalysisSeconds;
}

//===----------------------------------------------------------------------===//
// The solver-free encoding artifact.
//===----------------------------------------------------------------------===//

TEST(ProblemEncodingArtifact, CnfStoreReplayReproducesTheProblem) {
  lsl::Program Prog;
  ASSERT_TRUE(compileInto(impls::referenceFor("queue"), Prog));
  TestSpec Spec = testByName("T0");
  std::vector<std::string> Threads = buildTestThreads(Prog, Spec);

  ProblemConfig Cfg;
  Cfg.Model = memmodel::ModelParams::serial();

  // Capture the encoding into a pure store - no solver involved.
  sat::CnfStore Store;
  encode::CnfBuilder Cnf(Store);
  ProblemEncoding Enc(Cnf, Prog, Threads, {}, Cfg);
  ASSERT_TRUE(Enc.ok()) << Enc.error();
  EXPECT_GT(Store.numVars(), 0);
  EXPECT_GT(Store.numClauses(), 0u);

  // Replay preserves variable numbering, so the artifact's decode maps
  // apply to the replayed solver's models.
  sat::Solver S;
  ASSERT_TRUE(Store.replayInto(S));
  EXPECT_EQ(S.numVars(), Store.numVars());
  ASSERT_EQ(S.solve(Enc.withinBoundsAssumptions()), sat::SolveResult::Sat);
  Observation O = Enc.decodeObservation(S);
  EXPECT_EQ(O.Values.size(), Enc.observationLabels().size());

  // The probe activation works on the replayed solver too: the reference
  // queue's primed-free T0 has no unrollable loops beyond its bounds, so
  // the probe must be unsatisfiable.
  EXPECT_EQ(S.solve(Enc.probeAssumptions()), sat::SolveResult::Unsat);
}

} // namespace
