//===--- perfbench.cpp - end-to-end and per-layer benchmark ---------------===//
//
// Part of the CheckFence reproduction (PLDI'07).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One program for the repository's benchmark workloads:
///
///   hard-cells      six serial relaxed-model checks with known answers
///   lattice-sweep   Request::sweep() over the 10-point lattice, jobs 2;
///                   its traced run also traces pure-litmus exploration
///   daemon-mixed    an in-process CheckServer under four closed-loop
///                   RemoteVerifier clients (cache hits, misses, analyze)
///
///   perfbench --workload W --seed N --seconds S --trace 0|1
///             --expected perfbench/expected.tsv [--trace-out PATH]
///   perfbench --make-reference perfbench/expected.tsv
///
/// With --trace 0 the workload runs through the public API only
/// (Verifier, CheckServer, RemoteVerifier) in back-to-back passes for
/// about S seconds, and the end-to-end metrics describe a median pass
/// (see medianPass).
/// With --trace 1 the benchmark instead calls each layer's own entry point
/// (frontend::compileC, trans::Flattener, checker::ProblemEncoding,
/// engine::CheckSession, memmodel oracles, explore::Generator), records
/// its own spans around those calls, prints a per-layer ledger of self
/// times, and reports the per-layer metrics. Every verdict is compared
/// with a known answer; the last stdout line is the JSON result.
///
/// See perfbench/README.md for why each workload and cell was chosen.
///
//===----------------------------------------------------------------------===//

#include "checkfence/checkfence.h"

#include "api/ApiInternal.h"
#include "checker/Encoder.h"
#include "checker/SpecMiner.h"
#include "encode/CnfBuilder.h"
#include "engine/CheckSession.h"
#include "explore/Corpus.h"
#include "explore/Generator.h"
#include "frontend/Lowering.h"
#include "harness/Catalog.h"
#include "harness/TestSpec.h"
#include "impls/Impls.h"
#include "memmodel/AxiomaticEnumerator.h"
#include "memmodel/MemoryModel.h"
#include "memmodel/ReadsFromOracle.h"
#include "memmodel/ReferenceExecutor.h"
#include "sat/CnfStore.h"
#include "server/Http.h"
#include "support/JsonParse.h"
#include "trans/Flattener.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

using namespace checkfence;

namespace {

//===----------------------------------------------------------------------===//
// Clocks, resources, statistics
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

double now() {
  static const Clock::time_point Origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - Origin).count();
}

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) { return T.tv_sec + T.tv_usec * 1e-6; };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

/// Linear-interpolation quantile (Q in [0, 1]) of unsorted samples.
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

/// splitmix64: the benchmark's own seeded stream (the program never sees
/// the seed, only the inputs generated from it).
struct Rng {
  uint64_t State;
  explicit Rng(uint64_t Seed) : State(Seed * 0x9e3779b97f4a7c15ull + 1) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  size_t below(size_t N) { return N ? next() % N : 0; }
  template <class T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }
};

//===----------------------------------------------------------------------===//
// Cells and known answers
//===----------------------------------------------------------------------===//

struct Cell {
  std::string Impl;
  std::string Test;
  std::string Model; ///< display name, as Report cells print it
  bool Strip = false;

  std::string key() const {
    return Impl + "\t" + Test + "\t" + Model + "\t" + (Strip ? "1" : "0");
  }
  std::string label() const {
    return Impl + "/" + Test + "/" + Model + (Strip ? "/stripped" : "");
  }
  Request request() const {
    return Request::check(Impl, Test).model(Model).stripFences(Strip);
  }
};

/// The ResultGrid cases of tests/ResultsTests.cpp (the paper's Sec. 4
/// claims). Where one covers a benchmark cell, the reference run must
/// agree with it.
const std::vector<std::pair<Cell, Status>> &resultsGrid() {
  static const std::vector<std::pair<Cell, Status>> Grid = {
      {{"msn", "T0", "relaxed", false}, Status::Pass},
      {{"msn", "Tpc2", "relaxed", false}, Status::Pass},
      {{"ms2", "T0", "relaxed", false}, Status::Pass},
      {{"ms2", "Ti2", "relaxed", false}, Status::Pass},
      {{"ms2", "T1", "relaxed", false}, Status::Pass},
      {{"msn", "T0", "relaxed", true}, Status::Fail},
      {{"ms2", "T0", "relaxed", true}, Status::Fail},
      {{"msn", "T0", "sc", true}, Status::Pass},
      {{"msn", "Tpc2", "sc", true}, Status::Pass},
      {{"ms2", "T1", "sc", true}, Status::Pass},
      {{"lazylist", "Sac", "relaxed", false}, Status::Pass},
      {{"lazylist", "Sar", "relaxed", false}, Status::Pass},
      {{"lazylist", "Sar", "relaxed", true}, Status::Fail},
      {{"lazylist", "Sar", "sc", true}, Status::Pass},
      {{"harris", "Sac", "relaxed", false}, Status::Pass},
      {{"harris", "Sar", "relaxed", false}, Status::Pass},
      {{"harris", "Sar", "sc", true}, Status::Pass},
      {{"snark", "D0", "sc", false}, Status::Fail},
      {{"snark", "Da", "sc", false}, Status::Pass},
      {{"snark", "Da", "relaxed", false}, Status::Fail},
      {{"msn", "T0", "tso", true}, Status::Pass},
      {{"msn", "Tpc2", "tso", true}, Status::Pass},
      {{"ms2", "T1", "tso", true}, Status::Pass},
      {{"lazylist", "Sar", "tso", true}, Status::Pass},
      {{"harris", "Sac", "tso", true}, Status::Pass},
      {{"msn", "T0", "pso", true}, Status::Fail},
      {{"ms2", "T0", "pso", true}, Status::Fail},
      {{"msn", "T0", "pso", false}, Status::Pass},
      {{"ms2", "Ti2", "pso", false}, Status::Pass},
      {{"harris", "Sac", "pso", false}, Status::Pass},
  };
  return Grid;
}

std::vector<Cell> hardCells() {
  return {{"msn", "Tpc2", "relaxed", false},
          {"harris", "Sar", "relaxed", false},
          {"lazylist", "Sar", "relaxed", false},
          {"lazylist", "Sar", "relaxed", true},
          {"snark", "D0", "relaxed", false},
          {"snark", "Da", "relaxed", false}};
}

struct SweepGroup {
  std::vector<std::string> Impls;
  std::vector<std::string> Tests;
};

/// The lattice-sweep requests: one per (impl, test) pair, 11 pairs x 10
/// points. One request per pair keeps each timed step short (0.3-2 s), so
/// a host stall spoils one step's sample rather than a large share of the
/// pass (see medianPass).
std::vector<SweepGroup> sweepGroups() {
  return {{{"ms2"}, {"T0"}},      {{"ms2"}, {"Ti2"}},
          {{"ms2"}, {"Tpc2"}},    {{"msn"}, {"T0"}},
          {{"lazylist"}, {"Sac"}}, {{"harris"}, {"Sac"}},
          {{"treiber"}, {"U0"}},  {{"treiber"}, {"U1"}},
          {{"treiber"}, {"Upc2"}}, {{"treiber"}, {"Ui2"}},
          {{"snark"}, {"D0"}}};
}

std::vector<std::string> latticeNames() {
  std::vector<std::string> Out;
  for (const memmodel::ModelParams &M : memmodel::latticeModels())
    Out.push_back(memmodel::modelName(M));
  return Out;
}

/// The cells of \p Groups in request order (impl, test, lattice point).
std::vector<Cell> sweepCells(const std::vector<SweepGroup> &Groups =
                                 sweepGroups()) {
  std::vector<Cell> Out;
  for (const SweepGroup &G : Groups)
    for (const std::string &I : G.Impls)
      for (const std::string &T : G.Tests)
        for (const std::string &M : latticeNames())
          Out.push_back({I, T, M, false});
  return Out;
}

/// First-time checks of daemon-mixed: the sweep cells of five cheap
/// programs (the set and deque programs cost 10x more per cell) and
/// their fence-stripped variants. The shards hash (impl, test); this set
/// splits the miss work about 2:1 between the two shards.
std::vector<Cell> daemonPool() {
  static const std::set<std::string> Programs = {
      "ms2/T0", "ms2/Tpc2", "msn/T0", "treiber/U0", "treiber/Upc2"};
  std::vector<Cell> Out;
  for (const Cell &C : sweepCells()) {
    if (!Programs.count(C.Impl + "/" + C.Test))
      continue;
    Out.push_back(C);
    Cell S = C;
    S.Strip = true;
    Out.push_back(S);
  }
  return Out;
}

/// The daemon's hot set: cheap programs that appear nowhere else in the
/// stream, one model each, so no hot miss is ever bounds-seeded from
/// another cell of the same program.
std::vector<Cell> daemonHotSet() {
  return {{"ms2", "T1", "sc", false},      {"ms2", "Ti3", "sc", false},
          {"ms2", "Tpc3", "tso", false},   {"ms2", "T53", "sc", false},
          {"ms2", "T54", "sc", false},     {"treiber", "U53", "sc", false},
          {"treiber", "Upc3", "sc", false}, {"treiber", "Upc3", "pso", true}};
}

/// Analyze requests of daemon-mixed (static, no cache, no SAT).
std::vector<std::pair<std::string, std::string>> daemonAnalyzeSet() {
  return {{"ms2", "T0"},   {"msn", "Tpc2"},   {"lazylist", "Sar"},
          {"harris", "Sac"}, {"treiber", "Ui2"}, {"snark", "Da"}};
}

std::vector<Cell> referenceCells() {
  std::vector<Cell> All = hardCells();
  for (const Cell &C : sweepCells())
    All.push_back(C);
  for (const Cell &C : daemonPool())
    if (C.Strip)
      All.push_back(C);
  for (const Cell &C : daemonHotSet())
    All.push_back(C);
  std::set<std::string> Seen;
  std::vector<Cell> Out;
  for (const Cell &C : All)
    if (Seen.insert(C.key()).second)
      Out.push_back(C);
  return Out;
}

std::map<std::string, std::string> Expected; ///< Cell::key() -> status

bool loadExpected(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::vector<std::string> F;
    std::stringstream SS(Line);
    std::string Tok;
    while (std::getline(SS, Tok, '\t'))
      F.push_back(Tok);
    if (F.size() < 5)
      return false;
    Expected[F[0] + "\t" + F[1] + "\t" + F[2] + "\t" + F[3]] = F[4];
  }
  return !Expected.empty();
}

/// Empty when \p Got is the known answer for \p C; else a description.
std::string judge(const Cell &C, Status Got) {
  auto It = Expected.find(C.key());
  if (It == Expected.end())
    return C.label() + ": no known answer";
  if (It->second != statusName(Got))
    return C.label() + ": expected " + It->second + ", got " +
           statusName(Got);
  return "";
}

/// Writes the known-answer table: the non-incremental reference pipeline
/// (Request::freshPipeline) on every cell, cross-checked against the
/// paper's grid.
int makeReference(const std::string &Path) {
  std::ofstream Out(Path);
  if (!Out) {
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
    return 1;
  }
  Out << "# Known answers for perfbench, written by "
         "`perfbench --make-reference`.\n"
         "# impl\ttest\tmodel\tstrip\tverdict\tsource\n";
  Verifier V;
  int Bad = 0;
  for (const Cell &C : referenceCells()) {
    double T0 = now();
    Result R = V.check(C.request().freshPipeline().noCache());
    std::string Source = "fresh-pipeline";
    for (const auto &[G, S] : resultsGrid()) {
      if (G.key() != C.key())
        continue;
      Source = "results-grid";
      if (S != R.Verdict) {
        std::fprintf(stderr, "%s: grid says %s, reference run %s\n",
                     C.label().c_str(), statusName(S),
                     statusName(R.Verdict));
        ++Bad;
      }
    }
    if (R.Verdict == Status::Error || R.Verdict == Status::Cancelled ||
        R.Verdict == Status::BoundsExhausted) {
      std::fprintf(stderr, "%s: reference run ended %s: %s\n",
                   C.label().c_str(), statusName(R.Verdict),
                   R.Message.c_str());
      ++Bad;
    }
    Out << C.key() << "\t" << statusName(R.Verdict) << "\t" << Source
        << "\n";
    std::fprintf(stderr, "%-40s %-6s %.2fs\n", C.label().c_str(),
                 statusName(R.Verdict), now() - T0);
  }
  return Bad ? 1 : 0;
}

//===----------------------------------------------------------------------===//
// Passes and end-to-end metrics
//===----------------------------------------------------------------------===//

/// Items judged so far, and the first few failures.
struct Tally {
  long Attempted = 0;
  long Failed = 0;
  std::vector<std::string> Problems;

  void fail(std::string Why) {
    ++Failed;
    if (Problems.size() < 20)
      Problems.push_back(std::move(Why));
  }
  /// Adds \p T's counts and prints its failures.
  void absorb(const Tally &T) {
    Attempted += T.Attempted;
    Failed += T.Failed;
    for (const std::string &Why : T.Problems)
      std::printf("FAILED: %s\n", Why.c_str());
  }
};

/// One pass of a workload through the public API. A pass that does work
/// outside its timed window (the daemon's server start and its
/// remote-vs-local comparisons) sets Wall and Cpu itself.
struct PassSample : Tally {
  double Wall = 0;
  double Cpu = 0;
  long Items = 0; ///< checks, cells, scenarios or requests completed
  std::vector<double> ItemMs;
  /// Engine cell seconds and wall x workers of the pass (utilization).
  double CellSeconds = 0;
  double WorkerSeconds = 0;
  /// Wall and CPU seconds of each step of the pass (a check or a sweep
  /// request), in the same order in every pass. Empty when the pass is
  /// timed only as a whole.
  std::vector<double> StepWall, StepCpu;
  void step(double Wall, double Cpu) {
    StepWall.push_back(Wall);
    StepCpu.push_back(Cpu);
  }
};

struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0;
  bool Integer = false;
};

struct Outcome : Tally {
  std::vector<Metric> Metrics;
};

void printResult(const Outcome &O) {
  std::string S = "{\"correct\": ";
  S += O.Failed == 0 ? "true" : "false";
  S += ", \"attempted\": " + std::to_string(O.Attempted);
  S += ", \"failed\": " + std::to_string(O.Failed);
  S += ", \"metrics\": {";
  for (size_t I = 0; I < O.Metrics.size(); ++I) {
    const Metric &M = O.Metrics[I];
    char Buf[64];
    if (M.Integer)
      std::snprintf(Buf, sizeof Buf, "%.0f", M.Value);
    else
      std::snprintf(Buf, sizeof Buf, "%.17g", M.Value);
    S += (I ? ", " : "") + std::string("\"") + M.Name +
         "\": {\"value\": " + Buf + ", \"unit\": \"" + M.Unit + "\"}";
  }
  S += "}}";
  std::printf("%s\n", S.c_str());
  std::fflush(stdout);
}

using PassFn = std::function<PassSample(int Index)>;

PassSample timedPass(const PassFn &Pass, int Index) {
  double T0 = now(), C0 = cpuSeconds();
  PassSample S = Pass(Index);
  if (S.Wall == 0) {
    S.Wall = now() - T0;
    S.Cpu = cpuSeconds() - C0;
  }
  return S;
}

/// Runs timed passes back to back: at least one, and another only while
/// it is expected to end less than half a pass after \p Budget seconds,
/// so that a run measures as close to \p Budget as whole passes allow.
/// \p Between runs before the first pass and after every pass.
/// \p PeakRssMb gets the peak resident memory at the end of the first
/// pass: later passes build fresh Verifiers and servers on an allocator
/// that already holds the earlier ones' freed arenas, which would make the
/// peak grow with the number of passes.
std::vector<PassSample> runPasses(double Budget, const PassFn &Pass,
                                  const std::function<void()> &Between,
                                  double &PeakRssMb) {
  std::vector<PassSample> Out;
  double Start = now();
  Between();
  for (;;) {
    Out.push_back(timedPass(Pass, static_cast<int>(Out.size())));
    if (Out.size() == 1)
      PeakRssMb = peakRssMb();
    Between();
    double Elapsed = now() - Start;
    if (Elapsed + 0.5 * Elapsed / static_cast<double>(Out.size()) > Budget)
      return Out;
  }
}

/// True if every pass has as many \p Field entries as the first, and it
/// has at least one.
bool sameShape(const std::vector<PassSample> &Passes,
               std::vector<double> PassSample::*Field) {
  for (const PassSample &P : Passes)
    if ((P.*Field).empty() || (P.*Field).size() != (Passes[0].*Field).size())
      return false;
  return true;
}

/// The median over passes of each of the \p N values \p Get(P, I).
template <typename Fn>
std::vector<double> columnMedians(const std::vector<PassSample> &Passes,
                                  size_t N, Fn Get) {
  std::vector<double> Out;
  for (size_t I = 0; I < N; ++I) {
    std::vector<double> Column;
    for (const PassSample &P : Passes)
      Column.push_back(Get(P, I));
    Out.push_back(median(Column));
  }
  return Out;
}

/// The wall or CPU time of a median pass. When the passes are timed step
/// by step, it is the sum over steps of each step's median across passes:
/// a host stall during one step then costs that step one sample, not the
/// whole pass. Otherwise it is the median over the pass totals.
double medianPass(const std::vector<PassSample> &Passes,
                  std::vector<double> PassSample::*Steps,
                  double PassSample::*Total) {
  std::vector<double> Totals;
  for (const PassSample &P : Passes)
    Totals.push_back(P.*Total);
  if (!sameShape(Passes, Steps))
    return median(Totals);
  double Sum = 0;
  for (double M : columnMedians(Passes, (Passes[0].*Steps).size(),
                                [&](const PassSample &P, size_t I) {
                                  return (P.*Steps)[I];
                                }))
    Sum += M;
  return Sum;
}

/// Per-item latencies for the item quantiles. Every pass times the same
/// items in the same order (the daemon records each reply at its stream
/// position), so each item contributes its median across passes. If a
/// failed request left a pass short, the samples are pooled instead.
std::vector<double> itemLatencies(const std::vector<PassSample> &Passes) {
  if (sameShape(Passes, &PassSample::ItemMs))
    return columnMedians(Passes, Passes[0].ItemMs.size(),
                         [](const PassSample &P, size_t I) {
                           return P.ItemMs[I];
                         });
  std::vector<double> Pooled;
  for (const PassSample &P : Passes)
    Pooled.insert(Pooled.end(), P.ItemMs.begin(), P.ItemMs.end());
  return Pooled;
}

Outcome endToEnd(const std::vector<double> &Setups,
                 const std::vector<PassSample> &Passes, double PeakRssMb) {
  Outcome O;
  for (const PassSample &P : Passes)
    O.absorb(P);
  std::vector<double> ItemMs = itemLatencies(Passes);
  double Wall = medianPass(Passes, &PassSample::StepWall, &PassSample::Wall);
  double Cpu = medianPass(Passes, &PassSample::StepCpu, &PassSample::Cpu);
  std::printf("passes: %zu, items per pass: %ld, steps per pass: %zu, "
              "item samples: %zu\n",
              Passes.size(), Passes[0].Items, Passes[0].StepWall.size(),
              ItemMs.size());
  std::printf("pass walls (s):");
  for (const PassSample &P : Passes)
    std::printf(" %.3f", P.Wall);
  std::printf("\n");
  for (const PassSample &P : Passes) {
    if (P.StepWall.empty())
      continue;
    std::printf("pass steps (s):");
    for (double W : P.StepWall)
      std::printf(" %.3f", W);
    std::printf("\n");
  }
  O.Metrics = {{"setup_s", "s", median(Setups)},
               {"wall_s", "s", Wall},
               {"items_per_s", "1/s", static_cast<double>(Passes[0].Items) /
                                          Wall},
               {"item_p50_ms", "ms", quantile(ItemMs, 0.5)},
               {"item_p90_ms", "ms", quantile(ItemMs, 0.9)},
               {"cpu_s", "s", Cpu},
               {"peak_rss_mb", "MB", PeakRssMb}};
  return O;
}

/// Set-up of the Verifier-based workloads: build a Verifier and have it
/// answer a first small check (allocators, catalog statics, and the
/// session pool are then warm).
double verifierSetup(int Jobs) {
  double T0 = now();
  VerifierConfig Cfg;
  Cfg.Jobs = Jobs;
  Verifier V(Cfg);
  Result R = V.check(
      Request::check("ms2", "T0").model("sc").noCache());
  double T = now() - T0;
  if (R.Verdict != Status::Pass) {
    std::fprintf(stderr, "set-up probe check failed: %s\n",
                 R.Message.c_str());
    std::exit(1);
  }
  return T;
}

//===----------------------------------------------------------------------===//
// Spans and the per-layer ledger (traced runs)
//===----------------------------------------------------------------------===//

/// The benchmark's own spans around calls into the layers, kept in
/// memory and written as Chrome trace events when the run ends. A log
/// that is not Enabled records nothing, so the same layer-call path can
/// run with and without its spans.
class SpanLog {
public:
  explicit SpanLog(bool Enabled = true) : Enabled(Enabled) {}

  struct Rec {
    std::string Name;
    double Start = 0;
    double End = 0;
    int Parent = -1;
    int Tid = 0;
  };

  class Scope {
  public:
    Scope(SpanLog &L, std::string Name) : L(L) {
      if (!L.Enabled)
        return;
      std::lock_guard<std::mutex> G(L.M);
      Id = static_cast<int>(L.Spans.size());
      L.Spans.push_back({std::move(Name), now(), 0, Current, tid()});
      Saved = Current;
      Current = Id;
    }
    ~Scope() {
      if (!L.Enabled)
        return;
      std::lock_guard<std::mutex> G(L.M);
      L.Spans[Id].End = now();
      Current = Saved;
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog &L;
    int Id = 0;
    int Saved = -1;
  };

  /// Self time per span name: duration minus the time child spans cover.
  std::map<std::string, double> selfTimes() const {
    std::map<std::string, double> Out;
    std::vector<double> Child(Spans.size(), 0);
    for (const Rec &R : Spans)
      if (R.Parent >= 0)
        Child[R.Parent] += R.End - R.Start;
    for (size_t I = 0; I < Spans.size(); ++I)
      Out[Spans[I].Name] += Spans[I].End - Spans[I].Start - Child[I];
    return Out;
  }

  double total(const std::string &Name) const {
    double T = 0;
    for (const Rec &R : Spans)
      if (R.Name == Name)
        T += R.End - R.Start;
    return T;
  }

  void writeChrome(const std::string &Path) const {
    std::ofstream Out(Path);
    if (!Out)
      return;
    Out << "{\"traceEvents\": [\n";
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Rec &R = Spans[I];
      char Buf[256];
      std::snprintf(Buf, sizeof Buf,
                    "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": %d, \"ts\": %.1f, \"dur\": %.1f}%s\n",
                    R.Name.c_str(), R.Tid, R.Start * 1e6,
                    (R.End - R.Start) * 1e6,
                    I + 1 < Spans.size() ? "," : "");
      Out << Buf;
    }
    Out << "]}\n";
  }

private:
  static int tid() {
    static std::atomic<int> Next{0};
    thread_local int Id = Next++;
    return Id;
  }

  bool Enabled;
  std::mutex M;
  std::vector<Rec> Spans;
  static thread_local int Current;
};

thread_local int SpanLog::Current = -1;

/// Per-layer accumulators of one traced pass. The checker and engine
/// phase times are the engine's own reports (CheckStats) from inside the
/// engine span; every other time comes from the benchmark's spans.
struct Layers {
  // frontend / trans / encode (benchmark calls)
  long CompileCalls = 0;
  long FlatInstrs = 0;
  long Vars = 0;
  long Clauses = 0;
  double CnfBytes = 0;
  // sat (session contexts or explore problems)
  long SolveCalls = 0;
  unsigned long long Conflicts = 0, Decisions = 0, Propagations = 0,
                     LearntLiterals = 0;
  // checker + engine (stats)
  double MineS = 0, IncludeS = 0, ProbeS = 0, EngineEncodeS = 0;
  double OracleS = 0, AnalysisS = 0;
  long Rounds = 0;
  long Observations = 0;
  long SessionClauses = 0;
  long OracleAttempts = 0, OracleDischarges = 0;
  long AnalysisAttempts = 0, AnalysisDischarges = 0;
  // memmodel / explore (benchmark calls)
  long RfCalls = 0, EnumCalls = 0;
  long Scenarios = 0, Skips = 0;
  // api / server (daemon)
  double CacheHits = 0, CacheMisses = 0, BoundsSeeded = 0;
  double PoolIdleSessions = 0, PoolIdleClauses = 0;
  double RpcOverheadMs = 0, QueueP50Ms = 0, QueueP90Ms = 0;
  double QueueWaitSumS = 0, RequestSumS = 0;
  double Rejected = 0, ServerErrors = 0;

  void addSolver(const sat::SolverStats &S) {
    Conflicts += S.Conflicts;
    Decisions += S.Decisions;
    Propagations += S.Propagations;
    LearntLiterals += S.LearntLiterals;
  }

  /// The work counts that must repeat exactly across serial runs.
  std::vector<std::pair<std::string, double>> exactCounts() const {
    return {{"sat.solve_calls", static_cast<double>(SolveCalls)},
            {"sat.conflicts", static_cast<double>(Conflicts)},
            {"sat.decisions", static_cast<double>(Decisions)},
            {"sat.propagations", static_cast<double>(Propagations)},
            {"sat.learnt_literals", static_cast<double>(LearntLiterals)},
            {"encode.clauses", static_cast<double>(Clauses)},
            {"checker.observations", static_cast<double>(Observations)},
            {"checker.rounds", static_cast<double>(Rounds)}};
  }
};

/// Result of one traced pass.
struct TracedPass : Tally {
  explicit TracedPass(bool WithSpans = true) : Spans(WithSpans) {}
  SpanLog Spans;
  Layers L;
  double Wall = 0;
};

/// Splits a traced engine check into the phases its stats report.
void addEngineStats(Layers &L, const checker::CheckStats &S) {
  L.MineS += S.MiningSeconds;
  L.IncludeS += S.IncludeSeconds;
  L.ProbeS += S.ProbeSeconds;
  L.EngineEncodeS += S.EncodeSeconds;
  L.OracleS += S.OracleSeconds;
  L.AnalysisS += S.AnalysisSeconds;
  L.Rounds += S.BoundIterations;
  L.Observations += S.ObservationCount;
  L.OracleAttempts += S.OracleAttempts;
  L.OracleDischarges += S.OracleDischarges;
  L.AnalysisAttempts += S.AnalysisAttempts;
  L.AnalysisDischarges += S.AnalysisDischarges;
  L.SolveCalls += static_cast<long>(S.Inclusion.SolveCalls);
}

/// One check through the layers, the way Verifier::check runs it:
/// frontend::compileC, a stand-alone trans::Flattener and
/// checker::ProblemEncoding (into a sat::CnfStore) at the initial
/// bounds, then a fresh engine::CheckSession.
void tracedCheck(TracedPass &P, const Cell &C) {
  SpanLog &Log = P.Spans;
  Layers &L = P.L;
  SpanLog::Scope Item(Log, "item");
  ++P.Attempted;

  Request Req = C.request();
  checker::CheckOptions Opts;
  std::string Err;
  if (!api::checkOptionsFrom(Req, Opts, Err)) {
    P.fail(C.label() + ": " + Err);
    return;
  }
  const harness::CatalogEntry *E = harness::findCatalogEntry(C.Test);
  harness::TestSpec Spec;
  if (!E || !harness::parseTestNotation(
                E->Notation, harness::alphabetFor(E->Kind), Spec, Err)) {
    P.fail(C.label() + ": bad catalog test");
    return;
  }
  Spec.Name = E->Name;

  lsl::Program Prog;
  std::vector<std::string> Threads;
  {
    SpanLog::Scope S(Log, "frontend");
    frontend::LoweringOptions LO;
    LO.StripFences = C.Strip;
    frontend::DiagEngine Diags;
    ++L.CompileCalls;
    if (!frontend::compileC(impls::sourceFor(C.Impl), {}, Prog, Diags,
                            LO)) {
      P.fail(C.label() + ": frontend error");
      return;
    }
    Threads = harness::buildTestThreads(Prog, Spec);
  }
  {
    SpanLog::Scope S(Log, "trans");
    trans::FlatProgram Flat;
    trans::Flattener F(Prog, Flat, Opts.InitialBounds);
    for (size_t T = 0; T < Threads.size(); ++T)
      F.flattenThread(Threads[T], static_cast<int>(T));
    L.FlatInstrs += Flat.UnrolledInstrCount;
  }
  {
    SpanLog::Scope S(Log, "encode");
    sat::CnfStore Store;
    encode::CnfBuilder Cnf(Store);
    checker::ProblemConfig Cfg;
    Cfg.Model = Opts.Model;
    Cfg.Order = Opts.Order;
    Cfg.RangeAnalysis = Opts.RangeAnalysis;
    checker::ProblemEncoding Enc(Cnf, Prog, Threads, Opts.InitialBounds,
                                 Cfg);
    L.Vars += Store.numVars();
    L.Clauses += static_cast<long>(Store.numClauses());
    for (const std::vector<sat::Lit> &Cl : Store.cnf().Clauses)
      L.CnfBytes += static_cast<double>(Cl.size() * sizeof(sat::Lit));
  }
  checker::CheckResult R;
  {
    SpanLog::Scope S(Log, "engine");
    engine::CheckSession Session(Opts);
    R = Session.check(Prog, Threads);
    L.addSolver(Session.mineContext().solver().stats());
    L.addSolver(Session.checkContext().solver().stats());
    L.SessionClauses += static_cast<long>(Session.totalClauses());
  }
  addEngineStats(L, R.Stats);
  std::string Why = judge(C, api::toStatus(R.Status));
  if (!Why.empty())
    P.fail(Why);
}

//===----------------------------------------------------------------------===//
// hard-cells and lattice-sweep
//===----------------------------------------------------------------------===//

std::vector<Cell> hardCellOrder(uint64_t Seed) {
  std::vector<Cell> Cells = hardCells();
  Rng(Seed).shuffle(Cells);
  return Cells;
}

/// Runs between the steps of a pass, outside their timed windows.
using StepHook = std::function<void()>;

PassSample hardCellsPass(const std::vector<Cell> &Cells,
                         const StepHook &BetweenSteps) {
  PassSample P;
  double T0 = now();
  for (const Cell &C : Cells) {
    double Start = now(), CpuStart = cpuSeconds();
    Result R;
    {
      Verifier V; // fresh each, library defaults (jobs 1)
      R = V.check(C.request().noCache());
      P.ItemMs.push_back((now() - Start) * 1e3);
    }
    // The step includes the Verifier's teardown, which the next check
    // waits for.
    P.step(now() - Start, cpuSeconds() - CpuStart);
    ++P.Items;
    ++P.Attempted;
    std::string Why = judge(C, R.Verdict);
    if (!Why.empty())
      P.fail(Why);
    BetweenSteps();
  }
  P.CellSeconds = (now() - T0);
  P.WorkerSeconds = P.CellSeconds;
  return P;
}

std::vector<SweepGroup> sweepOrder(uint64_t Seed) {
  std::vector<SweepGroup> G = sweepGroups();
  Rng(Seed).shuffle(G);
  return G;
}

constexpr int SweepJobs = 2;

PassSample latticePass(const std::vector<SweepGroup> &Groups,
                       const StepHook &BetweenSteps) {
  PassSample P;
  VerifierConfig Cfg;
  Cfg.Jobs = SweepJobs;
  double Start = now(), CpuStart = cpuSeconds();
  auto V = std::make_unique<Verifier>(Cfg);
  // The Verifier's construction and teardown are one more step, the last.
  double LifeWall = now() - Start, LifeCpu = cpuSeconds() - CpuStart;
  for (const SweepGroup &G : Groups) {
    Start = now();
    CpuStart = cpuSeconds();
    Report Rep = V->matrix(
        Request::sweep().impls(G.Impls).tests(G.Tests).jobs(SweepJobs));
    P.step(now() - Start, cpuSeconds() - CpuStart);
    BetweenSteps();
    if (!Rep.ok()) {
      ++P.Attempted;
      P.fail("sweep request failed: " + Rep.error());
      continue;
    }
    for (const Report::Cell &RC : Rep.cells()) {
      P.ItemMs.push_back(RC.Seconds * 1e3);
      P.CellSeconds += RC.Seconds;
      ++P.Items;
      ++P.Attempted;
      std::string Why = judge({RC.Impl, RC.Test, RC.Model, false},
                              RC.Verdict);
      if (!Why.empty())
        P.fail(Why);
    }
    P.WorkerSeconds += Rep.wallSeconds() * Rep.jobs();
  }
  Start = now();
  CpuStart = cpuSeconds();
  V.reset();
  P.step(LifeWall + now() - Start, LifeCpu + cpuSeconds() - CpuStart);
  return P;
}

//===----------------------------------------------------------------------===//
// explore-litmus (traced within lattice-sweep)
//===----------------------------------------------------------------------===//

constexpr int ExploreScenarios = 500;

/// The explore request whose differential run tracedExplore mirrors.
Request exploreRequest(uint64_t Seed) {
  return Request::explore()
      .seed(Seed)
      .budget(ExploreScenarios)
      .symbolicShare(0)
      .models({"lattice"})
      .jobs(1);
}

bool sameSets(const std::set<memmodel::RefObservation> &A,
              const checker::ObservationSet &B) {
  if (A.size() != B.size())
    return false;
  auto It = A.begin();
  for (const checker::Observation &O : B) {
    if (It->Error != O.Error || It->Values != O.Values)
      return false;
    ++It;
  }
  return true;
}

/// One explore pass through the layers, mirroring what the differential
/// runner does per litmus scenario: explore::Generator::at and the
/// fingerprint dedup, frontend::compileC, checker::EncodedProblem per
/// lattice point, the reads-from oracle or the enumerator (plus the
/// sampled enumerator cross-check and the sc reference executor), and
/// SAT specification mining. Disagreements count as failures.
void tracedExplore(TracedPass &P, uint64_t Seed) {
  SpanLog &Log = P.Spans;
  Layers &L = P.L;
  explore::GeneratorLimits Limits;
  Limits.SymbolicPerMille = 0;
  explore::Generator Gen(Seed, Limits);
  const Request Defaults = exploreRequest(Seed);
  const int SamplePeriod = Defaults.OracleSamplePeriod;
  const uint64_t MaxOrders = explore::DiffOptions().OracleMaxOrders;
  const uint64_t RefMaxSteps = explore::DiffOptions().RefMaxSteps;

  std::set<std::string> Seen;
  for (int Index = 0; L.Scenarios < ExploreScenarios &&
                      Index < ExploreScenarios * 8 + 16;
       ++Index) {
    explore::Scenario S;
    std::string Fp, Err;
    {
      SpanLog::Scope Sp(Log, "explore.generate");
      S = Gen.at(Index);
    }
    {
      SpanLog::Scope Sp(Log, "explore.dedup");
      Fp = explore::scenarioFingerprint(S, Err);
    }
    if (!Seen.insert(Fp).second)
      continue;
    ++L.Scenarios;
    ++P.Attempted;
    SpanLog::Scope Item(Log, "item");

    lsl::Program Prog;
    std::vector<std::string> Threads;
    {
      SpanLog::Scope Sp(Log, "frontend");
      frontend::DiagEngine Diags;
      ++L.CompileCalls;
      if (!frontend::compileC(S.Source, {}, Prog, Diags)) {
        P.fail(S.label() + ": frontend error");
        continue;
      }
      harness::TestSpec Spec;
      Spec.Name = "explore";
      for (int T = 0;; ++T) {
        std::string Name = "t" + std::to_string(T) + "_op";
        const lsl::Proc *Proc = Prog.findProc(Name);
        if (!Proc)
          break;
        Spec.Threads.push_back(
            {harness::OpSpec{Name, Proc->NumParams, false, false}});
      }
      Threads = harness::buildTestThreads(Prog, Spec);
    }

    std::vector<std::pair<memmodel::ModelParams,
                          std::set<memmodel::RefObservation>>>
        Clean;
    for (const memmodel::ModelParams &M : memmodel::latticeModels()) {
      const std::string Name = memmodel::modelName(M);
      std::unique_ptr<checker::EncodedProblem> Prob;
      {
        SpanLog::Scope Sp(Log, "encode");
        checker::ProblemConfig Cfg;
        Cfg.Model = M;
        Prob = std::make_unique<checker::EncodedProblem>(Prog, Threads,
                                                         trans::LoopBounds(),
                                                         Cfg);
        L.FlatInstrs += Prob->flat().UnrolledInstrCount;
        L.Vars += Prob->stats().SatVars;
        L.Clauses += static_cast<long>(Prob->stats().SatClauses);
      }
      if (!Prob->ok()) {
        P.fail(S.label() + " " + Name + ": " + Prob->error());
        continue;
      }
      std::set<memmodel::RefObservation> OracleObs;
      bool OracleOk = false;
      if (memmodel::readsFromEligible(M)) {
        SpanLog::Scope Sp(Log, "memmodel.rf_oracle");
        memmodel::ReadsFromOptions RO;
        RO.Model = M;
        RO.MaxAssignments = MaxOrders;
        memmodel::ReadsFromResult RF =
            memmodel::checkReadsFrom(Prob->flat(), RO);
        ++L.RfCalls;
        OracleOk = RF.Ok;
        OracleObs = std::move(RF.Observations);
      }
      if (!memmodel::readsFromEligible(M) ||
          (OracleOk && S.Index % SamplePeriod == 0)) {
        SpanLog::Scope Sp(Log, "memmodel.enumerator");
        memmodel::AxiomaticOptions AO;
        AO.Model = M;
        AO.MaxOrders = MaxOrders;
        memmodel::AxiomaticResult AR =
            memmodel::enumerateAxiomatic(Prob->flat(), AO);
        ++L.EnumCalls;
        if (!memmodel::readsFromEligible(M)) {
          OracleOk = AR.Ok;
          OracleObs = std::move(AR.Observations);
        } else if (AR.Ok && AR.Observations != OracleObs) {
          P.fail(S.label() + " " + Name + ": oracle-vs-enumerator");
          continue;
        }
      }
      if (!OracleOk) {
        ++L.Skips;
        continue;
      }
      checker::MiningOutcome Mined;
      {
        SpanLog::Scope Sp(Log, "checker.mine");
        Mined = checker::mineSpecification(*Prob);
        L.addSolver(Prob->solver().stats());
        L.SolveCalls += static_cast<long>(Prob->stats().SolveCalls);
      }
      bool OracleErr = false;
      for (const memmodel::RefObservation &O : OracleObs)
        OracleErr |= O.Error;
      if (!Mined.Ok && !Mined.SequentialBug) {
        P.fail(S.label() + " " + Name + ": " + Mined.Error);
        continue;
      }
      if (Mined.SequentialBug != OracleErr) {
        P.fail(S.label() + " " + Name + ": sat-vs-axiomatic error flag");
        continue;
      }
      if (Mined.SequentialBug)
        continue;
      L.Observations += static_cast<long>(Mined.Spec.size());
      if (!sameSets(OracleObs, Mined.Spec)) {
        P.fail(S.label() + " " + Name + ": sat-vs-axiomatic");
        continue;
      }
      if (M == memmodel::ModelParams::sc()) {
        SpanLog::Scope Sp(Log, "memmodel.reference");
        memmodel::RefOptions RO;
        RO.MaxSteps = RefMaxSteps;
        if (memmodel::enumerateExecutions(Prob->flat(), RO) != OracleObs) {
          P.fail(S.label() + ": sat-vs-reference");
          continue;
        }
      }
      Clean.emplace_back(M, std::move(OracleObs));
    }
    for (const auto &[MA, SA] : Clean)
      for (const auto &[MB, SB] : Clean)
        if (!(MA == MB) && memmodel::atLeastAsStrong(MA, MB) &&
            !std::includes(SB.begin(), SB.end(), SA.begin(), SA.end()))
          P.fail(S.label() + ": lattice-monotonicity");
  }
}

//===----------------------------------------------------------------------===//
// daemon-mixed
//===----------------------------------------------------------------------===//

constexpr int DaemonShards = 2;
constexpr int DaemonClients = 4;
constexpr int DaemonHotRequests = 128;   ///< 16 per hot check
constexpr int DaemonAnalyzeRequests = 24; ///< 4 per analyzed program

struct DaemonItem {
  enum Kind { Hot, New, Analyze } K = Hot;
  Cell C;           ///< Hot / New
  std::string Impl; ///< Analyze
  std::string Test;
};

/// The seeded request stream: every pool cell once (first-time checks,
/// ~40%), DaemonHotRequests repeats of the hot set (~50%), and
/// DaemonAnalyzeRequests analyze requests (~10%). The seed picks only
/// the interleaving, so every pass sends the same multiset of requests:
/// the latency quantiles fall between classes (hits that find their
/// shard idle, and requests that queue), and a seed-dependent class mix
/// would move them. Each program's pool cells also keep their lattice
/// order: the Verifier seeds a miss's loop bounds from an earlier pass of
/// the same program, so a seeded order within a program would make the
/// amount of work itself seed-dependent.
std::vector<DaemonItem> daemonStream(uint64_t Seed) {
  const std::vector<Cell> Hot = daemonHotSet();
  const auto Analyze = daemonAnalyzeSet();
  std::vector<DaemonItem> Out;
  for (int I = 0; I < DaemonHotRequests; ++I)
    Out.push_back({DaemonItem::Hot, Hot[I % Hot.size()], "", ""});
  for (int I = 0; I < DaemonAnalyzeRequests; ++I) {
    const auto &A = Analyze[I % Analyze.size()];
    Out.push_back({DaemonItem::Analyze, Cell(), A.first, A.second});
  }
  std::map<std::string, std::vector<Cell>> Programs;
  for (const Cell &C : daemonPool()) {
    Programs[C.Impl + "/" + C.Test + (C.Strip ? "/s" : "")].push_back(C);
    Out.push_back({DaemonItem::New, Cell(), "", ""});
  }
  Rng R(Seed);
  R.shuffle(Out);
  std::vector<std::vector<Cell>> Queues;
  for (auto &[Name, Cells] : Programs)
    Queues.emplace_back(Cells.rbegin(), Cells.rend()); // pop from the back
  size_t Left = daemonPool().size();
  for (DaemonItem &D : Out) {
    if (D.K != DaemonItem::New)
      continue;
    // A program with probability proportional to the cells it has left.
    size_t Pick = R.below(Left--);
    for (auto &Q : Queues) {
      if (Pick < Q.size()) {
        D.C = Q.back();
        Q.pop_back();
        break;
      }
      Pick -= Q.size();
    }
  }
  return Out;
}

/// Timing-free JSON without the size statistics a bounds-seeded run may
/// legitimately change (the Verifier seeds a cache miss from an earlier
/// passing run of the same program; see Verifier.h).
std::string seedFreeJson(const Result &R) {
  static const std::set<std::string> Drop = {
      "bound_iterations", "unrolled_instrs", "loads",
      "stores",           "sat_vars",        "sat_clauses"};
  std::string J = R.json(false), Out;
  std::stringstream SS(J);
  std::string Line;
  while (std::getline(SS, Line)) {
    bool Keep = true;
    for (const std::string &D : Drop)
      if (Line.find("\"" + D + "\":") != std::string::npos)
        Keep = false;
    if (Keep)
      Out += Line + "\n";
  }
  return Out;
}

struct DaemonReply {
  bool Ok = false;
  std::string Error;
  Status Verdict = Status::Error;
  std::string Json; ///< seed-free check JSON, or analysis JSON
  std::string ExactJson; ///< full timing-free JSON (checks)
  double Ms = 0;
};

class Daemon {
public:
  Daemon() {
    ServerConfig Cfg;
    Cfg.Port = 0;
    Cfg.Shards = DaemonShards;
    Cfg.JobsPerShard = 1;
    Srv = std::make_unique<CheckServer>(Cfg);
    std::string Err;
    if (!Srv->start(Err)) {
      std::fprintf(stderr, "cannot start CheckServer: %s\n", Err.c_str());
      std::exit(1);
    }
    Url = "http://127.0.0.1:" + std::to_string(Srv->port());
  }
  ~Daemon() {
    Srv->requestStop();
    Srv->waitStopped();
  }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Version-probe round trip in seconds (exits on failure).
  double probe() {
    RemoteVerifier RV(Url);
    std::string Version;
    int Schema = 0;
    double T0 = now();
    RemoteStatus S = RV.version(Version, Schema);
    double T = now() - T0;
    if (!S) {
      std::fprintf(stderr, "version probe failed: %s\n", S.Error.c_str());
      std::exit(1);
    }
    return T;
  }

  std::string statusJson() {
    server::HttpResult R = server::httpRequest(
        "127.0.0.1", Srv->port(), "GET", "/status", "", {});
    return R.Ok ? R.Body : "";
  }

  std::unique_ptr<CheckServer> Srv;
  std::string Url;
};

DaemonReply sendRemote(RemoteVerifier &RV, const DaemonItem &D) {
  DaemonReply Out;
  double T0 = now();
  RemoteStatus S;
  if (D.K == DaemonItem::Analyze) {
    RemoteAnalysis A;
    S = RV.analyze(Request::analyze(D.Impl, D.Test), A);
    Out.Ms = (now() - T0) * 1e3;
    Out.Ok = S && A.Ok;
    Out.Error = S ? A.Error : S.Error;
    Out.Json = A.Json;
  } else {
    Result R;
    S = RV.check(D.C.request(), R);
    Out.Ms = (now() - T0) * 1e3;
    Out.Ok = static_cast<bool>(S);
    Out.Error = S.Error;
    Out.Verdict = R.Verdict;
    Out.Json = seedFreeJson(R);
    Out.ExactJson = R.json(false);
  }
  if (!S && S.HttpStatus == 429)
    Out.Error = "rejected with 429";
  return Out;
}

/// Server-side request seconds so far, summed over request kinds.
double requestSeconds(const support::JsonValue &Status) {
  double Sum = 0;
  if (const support::JsonValue *Q = Status.find("requestSeconds"))
    for (const auto &[Label, H] : Q->Members)
      Sum += H.find("sumSeconds")->asDouble();
  return Sum;
}

/// Local JSON of the remote-vs-local sample, by stream position. The
/// sample depends only on the seed, so every pass of a run compares the
/// same requests, and each local reference run is made once per run.
using LocalReplies = std::map<size_t, std::string>;

/// One daemon pass on a fresh server: four closed-loop clients drain
/// the stream. \p Spans (traced runs) gets one span per request.
PassSample daemonPass(const std::vector<DaemonItem> &Stream, uint64_t Seed,
                      LocalReplies &Local, SpanLog *Spans, Layers *L) {
  PassSample P;
  Daemon D;
  if (L) {
    std::vector<double> Probes;
    for (int I = 0; I < 21; ++I)
      Probes.push_back(D.probe() * 1e3);
    L->RpcOverheadMs = median(Probes);
  }
  support::JsonValue Before;
  std::string Err;
  const double RequestsBefore =
      support::parseJson(D.statusJson(), Before, Err) ? requestSeconds(Before)
                                                      : 0;
  std::vector<DaemonReply> Replies(Stream.size());
  std::atomic<size_t> Next{0};
  double T0 = now(), C0 = cpuSeconds();
  std::vector<std::thread> Clients;
  for (int C = 0; C < DaemonClients; ++C)
    Clients.emplace_back([&] {
      RemoteVerifier RV(D.Url);
      for (size_t I; (I = Next.fetch_add(1)) < Stream.size();) {
        static const char *Names[] = {"rpc.hot", "rpc.new", "rpc.analyze"};
        std::unique_ptr<SpanLog::Scope> Sp;
        if (Spans)
          Sp = std::make_unique<SpanLog::Scope>(*Spans,
                                                Names[Stream[I].K]);
        Replies[I] = sendRemote(RV, Stream[I]);
      }
    });
  for (std::thread &T : Clients)
    T.join();
  P.Wall = now() - T0;
  P.Cpu = cpuSeconds() - C0;

  ServerStats St = D.Srv->stats();
  support::JsonValue Status;
  bool HaveStatus = support::parseJson(D.statusJson(), Status, Err);
  P.CellSeconds = (HaveStatus ? requestSeconds(Status) : 0) - RequestsBefore;
  P.WorkerSeconds = P.Wall * DaemonShards;
  if (L) {
    L->CacheHits = static_cast<double>(St.Cache.Hits);
    L->CacheMisses = static_cast<double>(St.Cache.Misses);
    L->BoundsSeeded = static_cast<double>(St.Cache.BoundsSeeded);
    L->PoolIdleSessions = static_cast<double>(St.Pool.IdleSessions);
    L->PoolIdleClauses = static_cast<double>(St.Pool.IdleClauses);
    L->Rejected = static_cast<double>(St.Rejected);
    L->ServerErrors = static_cast<double>(St.Errors);
    L->RequestSumS = P.CellSeconds;
    // The server's histograms are process-wide; traced runs start with
    // the traced pass, so they hold only its requests here.
    if (const support::JsonValue *Q = Status.find("queueWaitSeconds"))
      for (const auto &[Label, H] : Q->Members) {
        L->QueueP50Ms = H.find("p50")->asDouble() * 1e3;
        L->QueueP90Ms = H.find("p90")->asDouble() * 1e3;
        L->QueueWaitSumS += H.find("sumSeconds")->asDouble();
      }
  }

  // Known answers, cache-hit byte identity, and transport outcomes.
  std::map<std::string, std::string> FirstJson;
  for (size_t I = 0; I < Stream.size(); ++I) {
    const DaemonItem &It = Stream[I];
    const DaemonReply &R = Replies[I];
    ++P.Items;
    ++P.Attempted;
    P.ItemMs.push_back(R.Ms);
    if (!R.Ok) {
      P.fail("request " + std::to_string(I) + ": " + R.Error);
      continue;
    }
    if (It.K == DaemonItem::Analyze)
      continue;
    std::string Why = judge(It.C, R.Verdict);
    if (!Why.empty()) {
      P.fail(Why);
      continue;
    }
    if (It.K == DaemonItem::Hot) {
      auto [Pos, Fresh] = FirstJson.emplace(It.C.key(), R.ExactJson);
      if (!Fresh && Pos->second != R.ExactJson)
        P.fail(It.C.label() + ": repeated reply differs from the first");
    }
  }

  // Remote-vs-local on a seeded sample, outside the timed window.
  Rng R(Seed ^ 0x5eed);
  std::unique_ptr<Verifier> V;
  for (int K = 0; K < 4; ++K) {
    size_t I = R.below(Stream.size());
    const DaemonItem &It = Stream[I];
    if (!Replies[I].Ok)
      continue;
    auto [Pos, Fresh] = Local.try_emplace(I);
    std::string &LocalJson = Pos->second;
    if (Fresh) {
      if (!V)
        V = std::make_unique<Verifier>();
      if (It.K == DaemonItem::Analyze)
        LocalJson = V->analyze(Request::analyze(It.Impl, It.Test)).json();
      else
        LocalJson = seedFreeJson(V->check(It.C.request().noCache()));
    }
    ++P.Attempted;
    if (LocalJson != Replies[I].Json)
      P.fail("request " + std::to_string(I) +
             ": remote JSON differs from local");
  }
  return P;
}

double daemonSetup() {
  double T0 = now();
  Daemon D;
  D.probe();
  return now() - T0;
}

//===----------------------------------------------------------------------===//
// Traced runs
//===----------------------------------------------------------------------===//

struct LayerMetric {
  const char *Name;
  const char *Unit;
};

/// The per-layer metric names, in BENCHMARK.json order.
const std::vector<LayerMetric> &layerMetricNames() {
  static const std::vector<LayerMetric> Names = {
      {"frontend.compile_s", "s"},     {"frontend.compile_calls", "count"},
      {"trans.flatten_s", "s"},        {"trans.flat_instrs", "count"},
      {"encode.encode_s", "s"},        {"encode.vars", "count"},
      {"encode.clauses", "count"},     {"encode.cnf_mb", "MB"},
      {"sat.solve_calls", "count"},    {"sat.conflicts", "count"},
      {"sat.decisions", "count"},      {"sat.propagations", "count"},
      {"sat.learnt_literals", "count"}, {"checker.mine_s", "s"},
      {"checker.include_s", "s"},      {"checker.probe_s", "s"},
      {"checker.rounds", "count"},     {"checker.observations", "count"},
      {"engine.check_s", "s"},         {"engine.unaccounted_s", "s"},
      {"engine.session_clauses", "count"},
      {"engine.cell_utilization", "ratio"},
      {"analysis.robustness_s", "s"},  {"analysis.attempts", "count"},
      {"analysis.discharges", "count"},
      {"memmodel.oracle_attempts", "count"},
      {"memmodel.oracle_discharges", "count"},
      {"memmodel.rf_oracle_s", "s"},   {"memmodel.rf_oracle_calls", "count"},
      {"memmodel.enumerator_s", "s"},  {"memmodel.enumerator_calls", "count"},
      {"explore.generate_s", "s"},     {"explore.scenarios", "count"},
      {"explore.skips", "count"},      {"api.cache_hits", "count"},
      {"api.cache_misses", "count"},   {"api.hit_share", "ratio"},
      {"api.bounds_seeded", "count"},  {"api.pool_idle_sessions", "count"},
      {"api.pool_idle_clauses", "count"},
      {"server.rpc_overhead_ms", "ms"},
      {"server.queue_wait_p50_ms", "ms"},
      {"server.queue_wait_p90_ms", "ms"}, {"server.rejected", "count"},
      {"server.errors", "count"},      {"obs.trace_overhead_share", "ratio"},
      {"ledger.self_sum_s", "s"},      {"ledger.wall_s", "s"},
  };
  return Names;
}

/// Prints the ledger of one traced pass and returns the per-layer
/// metrics (every name of layerMetricNames(), zero where the layer does
/// not run in this workload).
std::map<std::string, double> ledger(const std::string &Workload,
                                     const TracedPass &P,
                                     const PassSample &Untraced) {
  const Layers &L = P.L;
  std::map<std::string, double> Self = P.Spans.selfTimes();
  const double EngineS = P.Spans.total("engine");
  const double Reported = L.MineS + L.IncludeS + L.ProbeS +
                          L.EngineEncodeS + L.OracleS + L.AnalysisS;
  const double Unaccounted = EngineS > 0 ? EngineS - Reported : 0;

  // Ledger rows: benchmark spans by self time, in pipeline order, with
  // the engine span split into the phases the engine reports and the
  // remainder it does not.
  static const char *Order[] = {
      "explore.generate", "explore.dedup", "frontend", "trans", "encode",
      "memmodel.rf_oracle", "memmodel.enumerator", "memmodel.reference",
      "checker.mine", "rpc.hot", "rpc.new", "rpc.analyze", "item"};
  std::vector<std::pair<std::string, double>> Rows;
  for (const char *Name : Order) {
    auto It = Self.find(Name);
    if (It != Self.end())
      Rows.emplace_back(It->first == "item" ? "(benchmark, between layers)"
                                            : It->first,
                        It->second);
  }
  if (EngineS > 0) {
    Rows.emplace_back("engine > checker.mine", L.MineS);
    Rows.emplace_back("engine > encode (in engine)", L.EngineEncodeS);
    Rows.emplace_back("engine > checker.include", L.IncludeS);
    Rows.emplace_back("engine > checker.probe", L.ProbeS);
    Rows.emplace_back("engine > memmodel.oracle_prune", L.OracleS);
    Rows.emplace_back("engine > analysis.robustness", L.AnalysisS);
    Rows.emplace_back("engine > unaccounted", Unaccounted);
  }
  double Sum = 0;
  std::printf("ledger %s (traced pass, self time per layer)\n",
              Workload.c_str());
  for (const auto &[Name, T] : Rows) {
    std::printf("  %-34s %10.4f s\n", Name.c_str(), T);
    Sum += T;
  }
  std::printf("  %-34s %10.4f s\n", "sum", Sum);
  std::printf("  %-34s %10.4f s\n", "wall_s", P.Wall);
  if (L.RequestSumS > 0)
    std::printf("  server side: request seconds %.4f s, queue wait %.4f s "
                "(%d clients x wall = %.4f s)\n",
                L.RequestSumS, L.QueueWaitSumS, DaemonClients,
                DaemonClients * P.Wall);

  std::map<std::string, double> M;
  for (const LayerMetric &N : layerMetricNames())
    M[N.Name] = 0;
  M["frontend.compile_s"] = P.Spans.total("frontend");
  M["frontend.compile_calls"] = L.CompileCalls;
  M["trans.flatten_s"] = P.Spans.total("trans");
  M["trans.flat_instrs"] = L.FlatInstrs;
  M["encode.encode_s"] = P.Spans.total("encode");
  M["encode.vars"] = L.Vars;
  M["encode.clauses"] = L.Clauses;
  M["encode.cnf_mb"] = L.CnfBytes / 1e6;
  for (const auto &[Name, V] : L.exactCounts())
    M[Name] = V;
  M["checker.mine_s"] = L.MineS + P.Spans.total("checker.mine");
  M["checker.include_s"] = L.IncludeS;
  M["checker.probe_s"] = L.ProbeS;
  M["engine.check_s"] = EngineS;
  M["engine.unaccounted_s"] = Unaccounted;
  M["engine.session_clauses"] = L.SessionClauses;
  M["engine.cell_utilization"] =
      Untraced.WorkerSeconds > 0
          ? Untraced.CellSeconds / Untraced.WorkerSeconds
          : 0;
  M["analysis.robustness_s"] = L.AnalysisS;
  M["analysis.attempts"] = L.AnalysisAttempts;
  M["analysis.discharges"] = L.AnalysisDischarges;
  M["memmodel.oracle_attempts"] = L.OracleAttempts;
  M["memmodel.oracle_discharges"] = L.OracleDischarges;
  M["memmodel.rf_oracle_s"] = P.Spans.total("memmodel.rf_oracle");
  M["memmodel.rf_oracle_calls"] = L.RfCalls;
  M["memmodel.enumerator_s"] = P.Spans.total("memmodel.enumerator");
  M["memmodel.enumerator_calls"] = L.EnumCalls;
  M["explore.generate_s"] = P.Spans.total("explore.generate");
  M["explore.scenarios"] = L.Scenarios;
  M["explore.skips"] = L.Skips;
  M["api.cache_hits"] = L.CacheHits;
  M["api.cache_misses"] = L.CacheMisses;
  M["api.hit_share"] = L.CacheHits + L.CacheMisses > 0
                           ? L.CacheHits / (L.CacheHits + L.CacheMisses)
                           : 0;
  M["api.bounds_seeded"] = L.BoundsSeeded;
  M["api.pool_idle_sessions"] = L.PoolIdleSessions;
  M["api.pool_idle_clauses"] = L.PoolIdleClauses;
  M["server.rpc_overhead_ms"] = L.RpcOverheadMs;
  M["server.queue_wait_p50_ms"] = L.QueueP50Ms;
  M["server.queue_wait_p90_ms"] = L.QueueP90Ms;
  M["server.rejected"] = L.Rejected;
  M["server.errors"] = L.ServerErrors;
  M["ledger.self_sum_s"] = Sum;
  M["ledger.wall_s"] = P.Wall;
  return M;
}

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string ExpectedPath = "perfbench/expected.tsv";
  std::string TraceOut;
  std::string MakeReference;
};

/// Set-ups per round. A round runs before the first pass and after each
/// pass, one more set-up follows every step of a stepped pass, and
/// setup_s is the median over all of them. A set-up takes a few
/// milliseconds, and the host's speed drifts over seconds, so set-ups
/// taken at one moment would report only that moment's speed.
constexpr int SetupsPerRound = 5;

int runWorkload(const Args &A) {
  const std::string &W = A.Workload;
  PassFn Pass;
  std::function<double()> Setup;
  // The untimed run sets up once more after every step of a stepped pass.
  StepHook BetweenSteps = [] {};
  std::function<void(TracedPass &)> Traced;
  bool RepeatCheck = false;
  // lattice-sweep's traced run also traces one pure-litmus explore pass,
  // so the explore and memmodel layers are measured by a listed workload.
  bool TraceExplore = false;

  if (W == "hard-cells") {
    std::vector<Cell> Cells = hardCellOrder(A.Seed);
    Pass = [Cells, &BetweenSteps](int) {
      return hardCellsPass(Cells, BetweenSteps);
    };
    Setup = [] { return verifierSetup(1); };
    Traced = [Cells](TracedPass &P) {
      for (const Cell &C : Cells)
        tracedCheck(P, C);
    };
    RepeatCheck = true;
  } else if (W == "lattice-sweep") {
    std::vector<SweepGroup> Groups = sweepOrder(A.Seed);
    Pass = [Groups, &BetweenSteps](int) {
      return latticePass(Groups, BetweenSteps);
    };
    Setup = [] { return verifierSetup(SweepJobs); };
    Traced = [Groups](TracedPass &P) {
      for (const Cell &C : sweepCells(Groups))
        tracedCheck(P, C);
    };
    RepeatCheck = true;
    TraceExplore = true;
  } else if (W == "daemon-mixed") {
    std::vector<DaemonItem> Stream = daemonStream(A.Seed);
    uint64_t Seed = A.Seed;
    auto Local = std::make_shared<LocalReplies>();
    Pass = [Stream, Seed, Local](int) {
      return daemonPass(Stream, Seed, *Local, nullptr, nullptr);
    };
    Setup = daemonSetup;
    Traced = [Stream, Seed, Local](TracedPass &P) {
      daemonPass(Stream, Seed, *Local, &P.Spans, &P.L);
    };
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", W.c_str());
    return 64;
  }

  if (!A.Trace) {
    std::vector<double> Setups;
    BetweenSteps = [&] { Setups.push_back(Setup()); };
    auto SetupRound = [&] {
      for (int I = 0; I < SetupsPerRound; ++I)
        Setups.push_back(Setup());
    };
    double PeakRssMb = 0;
    std::vector<PassSample> Passes =
        runPasses(A.Seconds, Pass, SetupRound, PeakRssMb);
    std::printf("set-ups: %zu, ms min %.3f median %.3f max %.3f\n",
                Setups.size(), quantile(Setups, 0) * 1e3,
                median(Setups) * 1e3, quantile(Setups, 1) * 1e3);
    printResult(endToEnd(Setups, Passes, PeakRssMb));
    return 0;
  }

  // Traced run: traced passes first (so process-wide server histograms
  // hold only their requests), then the same layer-call path with the
  // spans off (for the overhead of tracing), then one pass through the
  // public API (for the engine's cell utilization).
  auto RunTraced = [&](TracedPass &P) {
    double T0 = now();
    Traced(P);
    P.Wall = now() - T0;
  };
  TracedPass First;
  RunTraced(First);
  Outcome O;
  O.absorb(First);
  if (RepeatCheck) {
    TracedPass Second;
    RunTraced(Second);
    O.absorb(Second);
    auto A1 = First.L.exactCounts(), A2 = Second.L.exactCounts();
    for (size_t I = 0; I < A1.size(); ++I) {
      ++O.Attempted;
      bool Same = A1[I].second == A2[I].second;
      std::printf("exact count %-22s %.0f %s %.0f\n", A1[I].first.c_str(),
                  A1[I].second, Same ? "==" : "!=", A2[I].second);
      if (!Same)
        O.fail("exact count " + A1[I].first + " did not repeat");
    }
  }
  TracedPass SpansOff(false);
  RunTraced(SpansOff);
  O.absorb(SpansOff);
  std::printf("same path, spans off: wall %.4f s\n", SpansOff.Wall);
  PassSample Untraced = timedPass(Pass, 0);
  O.absorb(Untraced);
  std::printf("public API pass: wall %.4f s\n", Untraced.Wall);

  std::map<std::string, double> M = ledger(W, First, Untraced);
  M["obs.trace_overhead_share"] = (First.Wall - SpansOff.Wall) / SpansOff.Wall;
  if (TraceExplore) {
    TracedPass Explore;
    double T0 = now();
    tracedExplore(Explore, A.Seed);
    Explore.Wall = now() - T0;
    O.absorb(Explore);
    std::map<std::string, double> X =
        ledger("lattice-sweep, explore pass", Explore, PassSample());
    for (const char *Name :
         {"memmodel.rf_oracle_s", "memmodel.rf_oracle_calls",
          "memmodel.enumerator_s", "memmodel.enumerator_calls",
          "explore.generate_s", "explore.scenarios", "explore.skips"})
      M[Name] = X[Name];
  }
  for (const LayerMetric &N : layerMetricNames()) {
    std::string Unit = N.Unit;
    O.Metrics.push_back({N.Name, Unit, M[N.Name], Unit == "count"});
  }
  if (!A.TraceOut.empty())
    First.Spans.writeChrome(A.TraceOut);
  printResult(O);
  return 0;
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (I + 1 >= Argc)
      return false;
    std::string V = Argv[++I];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::atof(V.c_str());
    else if (K == "--trace")
      A.Trace = V == "1";
    else if (K == "--expected")
      A.ExpectedPath = V;
    else if (K == "--trace-out")
      A.TraceOut = V;
    else if (K == "--make-reference")
      A.MakeReference = V;
    else
      return false;
  }
  return !A.Workload.empty() || !A.MakeReference.empty();
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 [--expected PATH] [--trace-out PATH]\n"
                 "       perfbench --make-reference PATH\n");
    return 64;
  }
  if (!A.MakeReference.empty())
    return makeReference(A.MakeReference);
  if (!loadExpected(A.ExpectedPath)) {
    std::fprintf(stderr, "cannot read known answers from %s\n",
                 A.ExpectedPath.c_str());
    return 1;
  }
  return runWorkload(A);
}
