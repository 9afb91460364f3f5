//===--- Encoder.h - end-to-end problem encoding ---------------*- C++ -*-==//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Assembles the full formula Phi(T,I,Y) (Sec. 3.2.1) for one test program:
/// flatten the thread procedures, run the range analysis, encode the
/// thread-local dataflow (Delta_k), the memory model (Theta), the side
/// conditions (assumes as hard constraints, asserts and runtime-type checks
/// as the error flag), the loop-bound marks, and the observation vector.
///
/// The encoding is split into two halves:
///
///  * ProblemEncoding - the pure CNF artifact plus its decode maps. Clauses
///    flow through a CnfBuilder into whatever sat::ClauseSink the builder
///    wraps (a live solver, or a CnfStore for a solver-free artifact); no
///    solver is owned. Loop-bound probe marks and mismatch-clause groups
///    are not hard-asserted - they are controlled by activation literals so
///    one encoding serves within-bounds checking, the bound probe, and
///    retractable specification constraints on a single incremental solver.
///
///  * EncodedProblem - the one solver-owning type: a sat::Solver plus one
///    CnfBuilder holding the problem's single live ProblemEncoding. All
///    phases over one encoding (the mine/include/probe phases of one bound
///    round) share it, selecting their query through assumptions, so learnt
///    clauses, saved phases and variable activities carry over between
///    them. A re-encoding (the lazy-unrolling bound iterations of Sec. 3.3)
///    uses only fresh variables, so encode() retires the old encoding
///    first: the solver is reset and holds exactly the live CNF (the size
///    Fig. 10 reports); only its lifetime statistics survive.
///
///    The one-shot constructor builds a problem that never retracts
///    anything - litmus runs, the test suites and the non-incremental
///    reference pipeline: its within-bounds literals are hard-asserted and
///    its mining and inclusion groups become hard clauses, so an Unsat
///    answer refutes the formula alone (as the proof log requires).
///
/// The same encoding serves specification mining (Serial model, iterate
/// with blocking clauses), inclusion checking (weak model, mismatch clauses
/// for every specification element), and the lazy-unrolling bound probe.
///
//===----------------------------------------------------------------------===//

#ifndef CHECKFENCE_CHECKER_ENCODER_H
#define CHECKFENCE_CHECKER_ENCODER_H

#include "checker/Observation.h"
#include "checker/Trace.h"
#include "encode/ValueEncoding.h"
#include "memmodel/MemoryModel.h"
#include "trans/Flattener.h"

#include <memory>
#include <optional>
#include <string>

namespace checkfence {
namespace checker {

struct ProblemConfig {
  memmodel::ModelParams Model = memmodel::ModelParams::relaxed();
  encode::OrderMode Order = encode::OrderMode::Pairwise;
  /// Use the range-analysis results to fix constants, minimize widths, and
  /// prune aliases (Fig. 11c ablation switch).
  bool RangeAnalysis = true;
  /// Give up (Unknown) after this many conflicts; -1 = no budget.
  int64_t ConflictBudget = -1;
  /// Record a DRAT-style clausal proof (sat/Proof.h); an Unsat inclusion
  /// check (a PASS verdict) can then be validated independently.
  bool ProofLog = false;
};

/// Size/time statistics for one encoded problem (Fig. 10 columns).
struct EncodeStats {
  int UnrolledInstrs = 0;
  int Loads = 0;
  int Stores = 0;
  double EncodeSeconds = 0;
  int SatVars = 0;
  uint64_t SatClauses = 0;
  size_t SolverMemBytes = 0;
  double SolveSeconds = 0;  ///< accumulated over all solve() calls
  uint64_t SolveCalls = 0;  ///< number of solve() calls charged here
  uint64_t LearntClauses = 0; ///< learnt clauses live after the last solve
};

/// The solver-free half: flat program, range info, value/model encoders
/// (the decode maps), the error flag, and the activation literals. All
/// clauses go through the CnfBuilder handed to the constructor; the caller
/// decides whether that builder wraps a live solver or a CnfStore.
class ProblemEncoding {
public:
  ProblemEncoding(encode::CnfBuilder &Cnf, const lsl::Program &Prog,
                  const std::vector<std::string> &ThreadProcs,
                  const trans::LoopBounds &Bounds, const ProblemConfig &Cfg);

  bool ok() const { return ErrorMsg.empty(); }
  const std::string &error() const { return ErrorMsg; }

  /// Assumptions restricting the search to executions within the loop
  /// bounds (one negated mark literal per non-restricted loop instance).
  /// Restricted marks are hard-asserted off in both modes.
  const std::vector<sat::Lit> &withinBoundsAssumptions() const {
    return WithinAssumptions;
  }

  /// Assumptions activating the bound-exceed probe ("at least one
  /// non-restricted mark fires").
  std::vector<sat::Lit> probeAssumptions() const { return {ProbeAct}; }

  /// Decodes the observation of the current model (after Sat).
  Observation decodeObservation(const sat::Solver &S) const;

  /// Adds the clause asserting "observation != O" (the mining blocking
  /// clause and the inclusion-check constraint); it may create comparator
  /// gates through the CnfBuilder. With a defined \p Activation the clause
  /// only binds while that literal is assumed (retractable constraint
  /// group). Returns false if the sink became unsat.
  bool addMismatch(const Observation &O,
                   sat::Lit Activation = sat::LitUndef);

  /// Constrains the problem to executions with exactly observation \p O
  /// (used by the litmus tests: "is this outcome reachable?"). Hard.
  bool requireObservation(const Observation &O);

  /// Decodes a full counterexample trace (after Sat).
  Trace decodeTrace(const sat::Solver &S) const;

  /// After a Sat probe solve: keys of the loop instances whose bounds were
  /// exceeded in the current model.
  std::vector<std::string> exceededLoops(const sat::Solver &S) const;

  const trans::FlatProgram &flat() const { return Flat; }
  /// Range-analysis results for flat() (always computed; the static
  /// robustness analysis reuses them instead of re-running the pass).
  const trans::RangeInfo &ranges() const { return Ranges; }
  const EncodeStats &stats() const { return Stats; }
  EncodeStats &stats() { return Stats; }
  std::vector<std::string> observationLabels() const;

private:
  std::vector<sat::Lit> mismatchClause(const Observation &O);
  void encodeChecksAndBounds();
  void fail(const std::string &Msg) {
    if (ErrorMsg.empty())
      ErrorMsg = Msg;
  }

  encode::CnfBuilder *Cnf = nullptr;
  trans::FlatProgram Flat;
  trans::RangeInfo Ranges;
  std::unique_ptr<encode::ValueEncoder> Values;
  std::unique_ptr<memmodel::MemoryModelEncoder> Model;

  encode::Lit ErrorLit;
  struct ErrorSource {
    encode::Lit L;
    std::string Description;
  };
  std::vector<ErrorSource> ErrorSources;
  struct MarkLit {
    encode::Lit L;
    std::string Key;
  };
  std::vector<MarkLit> ProbeMarks;
  std::vector<sat::Lit> WithinAssumptions;
  sat::Lit ProbeAct;

  EncodeStats Stats;
  std::string ErrorMsg;
};

/// A solver holding one live ProblemEncoding (see the file comment).
class EncodedProblem {
public:
  /// An empty problem; call encode() before anything else.
  EncodedProblem() = default;

  /// A one-shot problem: encode() with the within-bounds literals
  /// hard-asserted and no retractable clause groups.
  EncodedProblem(const lsl::Program &Prog,
                 const std::vector<std::string> &ThreadProcs,
                 const trans::LoopBounds &Bounds, const ProblemConfig &Cfg);

  EncodedProblem(const EncodedProblem &) = delete;
  EncodedProblem &operator=(const EncodedProblem &) = delete;

  /// Encodes the given problem as the live encoding, retiring (and
  /// invalidating) the previous one: the solver is reset to an empty
  /// clause database first. The returned reference stays valid until the
  /// next encode().
  ProblemEncoding &encode(const lsl::Program &Prog,
                          const std::vector<std::string> &ThreadProcs,
                          const trans::LoopBounds &Bounds,
                          const ProblemConfig &Cfg);

  bool ok() const { return Enc->ok(); }
  const std::string &error() const { return Enc->error(); }

  /// Re-arms the conflict budget for a new phase (mining enumeration,
  /// inclusion check, or one probe solve). The from-scratch pipeline gives
  /// every phase a fresh solver and hence a fresh allowance; this restores
  /// that semantics on a shared solver, whose conflict counter counts over
  /// its lifetime (Solver::reset keeps it).
  void beginPhase() {
    Solver.ConflictBudget =
        PhaseBudget < 0
            ? -1
            : static_cast<int64_t>(Solver.stats().Conflicts) + PhaseBudget;
  }

  /// A fresh literal gating a retractable clause group: the group only
  /// binds while the literal is assumed. A one-shot problem retracts
  /// nothing and returns sat::LitUndef (its groups are hard clauses).
  sat::Lit newActivation() { return OneShot ? sat::LitUndef : Cnf->fresh(); }

  /// Solves under \p Assumptions; accumulates solve time and call count
  /// into the live encoding's stats.
  sat::SolveResult solve(const std::vector<sat::Lit> &Assumptions = {});

  bool addMismatch(const Observation &O) { return Enc->addMismatch(O); }
  bool requireObservation(const Observation &O) {
    return Enc->requireObservation(O);
  }

  const trans::FlatProgram &flat() const { return Enc->flat(); }
  const EncodeStats &stats() const { return Enc->stats(); }

  ProblemEncoding &encoding() { return *Enc; }
  sat::Solver &solver() { return Solver; }
  const sat::Solver &solver() const { return Solver; }

  /// The recorded proof (nullptr unless ProblemConfig::ProofLog was set).
  const sat::ProofLog *proofLog() const { return Solver.proofLog(); }

private:
  sat::Solver Solver;
  std::optional<encode::CnfBuilder> Cnf;  ///< over Solver; rebuilt per encode
  std::unique_ptr<ProblemEncoding> Enc;  ///< built on Cnf
  int64_t PhaseBudget = -1; ///< per-phase allowance from the last encode()
  bool OneShot = false;
};

} // namespace checker
} // namespace checkfence

#endif // CHECKFENCE_CHECKER_ENCODER_H
