//===- perfbench/harness.cpp - In-process benchmark units ------------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The in-process half of the benchmark (run.py drives it). Each mode runs
/// one kind of work unit repeatedly and prints one JSON document with the
/// raw per-unit times, the counts that define the work, and the results of
/// the output checks:
///
///   live    one pass over a table of simulator sessions (driver::runSession)
///   record  the set-up of the trace workloads: a recording session
///   replay  one replay of a recorded trace (driver::runSession, trace backend)
///   daemon  one traced soak that makes cheetah-daemon's calls in its order
///
/// Untraced units call the library entry points exactly as the tools do.
/// Traced units (--trace 1) make the same calls one layer at a time and time
/// each from here, through forwarding wrappers around the sample sink and
/// the JSON report sink; the program itself is not instrumented. A layer's
/// self time is its call's duration minus the wrapped calls nested in it.
///
//===----------------------------------------------------------------------===//

#include "core/report/ReportHistory.h"
#include "driver/PreloadBridge.h"
#include "driver/ProfileSession.h"
#include "driver/SessionOptions.h"
#include "interpose/Preload.h"
#include "pmu/SimPmu.h"
#include "pmu/TraceSource.h"
#include "support/CommandLine.h"
#include "support/Json.h"

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace cheetah;

namespace {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Self time per layer within one unit, in seconds.
using Layers = std::map<std::string, double>;

/// Forwards to the profiler, timing each call into it.
class TimedSampleSink : public pmu::SampleSink {
public:
  explicit TimedSampleSink(pmu::SampleSink &Target) : Target(Target) {}

  void threadStarted(ThreadId Tid, bool IsMain, uint64_t Now) override {
    double Start = now();
    Target.threadStarted(Tid, IsMain, Now);
    Lifecycle += now() - Start;
  }
  void threadFinished(ThreadId Tid, bool IsMain, uint64_t EndCycle) override {
    double Start = now();
    Target.threadFinished(Tid, IsMain, EndCycle);
    Lifecycle += now() - Start;
  }
  void ingestBatch(const pmu::Sample *Samples, size_t Count) override {
    double Start = now();
    Target.ingestBatch(Samples, Count);
    Ingest += now() - Start;
  }

  double Ingest = 0;
  double Lifecycle = 0;

private:
  pmu::SampleSink &Target;
};

/// Forwards to a report sink, timing each call and keeping the run stats.
class TimedReportSink : public core::ReportSink {
public:
  explicit TimedReportSink(core::ReportSink &Target) : Target(Target) {}

  void beginRun(const core::ReportRunInfo &Info) override {
    double Start = now();
    Target.beginRun(Info);
    Seconds += now() - Start;
  }
  void finding(const core::FalseSharingReport &Report,
               bool Significant) override {
    double Start = now();
    Target.finding(Report, Significant);
    Seconds += now() - Start;
  }
  void pageFinding(const core::PageSharingReport &Report,
                   bool Significant) override {
    double Start = now();
    Target.pageFinding(Report, Significant);
    Seconds += now() - Start;
  }
  void endRun(const core::ReportRunStats &RunStats) override {
    double Start = now();
    Target.endRun(RunStats);
    Seconds += now() - Start;
    Stats = RunStats;
  }

  double Seconds = 0;
  core::ReportRunStats Stats;

private:
  core::ReportSink &Target;
};

/// Command line: a mode, `--key value` pairs, and repeatable `--entry`.
struct Args {
  std::string Mode;
  std::map<std::string, std::string> Values;
  std::vector<std::string> Entries;

  const std::string &get(const std::string &Key) const {
    static const std::string Empty;
    auto It = Values.find(Key);
    return It == Values.end() ? Empty : It->second;
  }
  double number(const std::string &Key, double Default) const {
    const std::string &Text = get(Key);
    return Text.empty() ? Default : std::stod(Text);
  }
};

bool parseArgs(int Argc, char **Argv, Args &Out) {
  if (Argc < 2)
    return false;
  Out.Mode = Argv[1];
  for (int I = 2; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I];
    if (Key.rfind("--", 0) != 0)
      return false;
    if (Key == "--entry")
      Out.Entries.push_back(Argv[I + 1]);
    else
      Out.Values[Key.substr(2)] = Argv[I + 1];
  }
  return (Argc % 2) == 0;
}

/// One table entry: a workload resolved from cheetah-profile flags.
struct Entry {
  std::unique_ptr<workloads::Workload> Workload;
  driver::SessionConfig Config;
};

/// Resolves \p Flags exactly as cheetah-profile does.
bool resolveEntry(const std::string &Flags, Entry &Out, std::string &Error) {
  std::vector<std::string> Words = {"cheetah-profile"};
  std::istringstream Stream(Flags);
  for (std::string Word; Stream >> Word;)
    Words.push_back(Word);
  std::vector<const char *> Argv;
  for (const std::string &Word : Words)
    Argv.push_back(Word.c_str());
  FlagSet Parsed;
  driver::addSessionFlags(Parsed);
  if (!Parsed.parse(static_cast<int>(Argv.size()), Argv.data(), Error))
    return false;
  Out.Workload = workloads::createWorkload(Parsed.getString("workload"));
  if (!Out.Workload) {
    Error = "unknown workload in '" + Flags + "'";
    return false;
  }
  driver::SessionOptions Options;
  if (!driver::buildSessionOptions(Parsed, Options, Error))
    return false;
  Out.Config = Options.Config;
  return true;
}

/// The counts that define one session's work; a repetition that differs
/// from the first means the work changed, not the speed.
struct Shape {
  uint64_t Accesses = 0;
  uint64_t Threads = 0;
  uint64_t Samples = 0;
  uint64_t Findings = 0;
  uint64_t ReportBytes = 0;

  bool operator==(const Shape &) const = default;
};

Shape shapeOf(const driver::SessionResult &Result, const std::string &Report) {
  Shape S;
  S.Accesses = Result.Run.Coherence.Accesses;
  S.Threads = Result.Run.Threads.size();
  S.Samples = Result.Profile.SamplesDelivered;
  S.Findings = Result.Profile.AllInstances.size() +
               Result.Profile.AllPageInstances.size();
  S.ReportBytes = Report.size();
  return S;
}

/// Collected output: checks, per-unit series and single counts.
struct Output {
  std::vector<std::pair<std::string, std::string>> Failures;
  std::map<std::string, std::vector<double>> Series;
  std::map<std::string, double> Counts;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

  void check(bool Ok, const std::string &Name, const std::string &Detail) {
    if (!Ok)
      Failures.push_back({Name, Detail});
  }
  void addLayers(const Layers &L, const std::string &Suffix = "") {
    for (const auto &[Name, Seconds] : L)
      Series[Name + Suffix].push_back(Seconds);
  }

  void print() const {
    std::string Text;
    JsonWriter W(Text);
    W.beginObject();
    W.member("attempted", Attempted);
    W.member("failed", Failed);
    W.key("check_failures");
    W.beginArray();
    for (const auto &[Name, Detail] : Failures) {
      W.beginObject();
      W.member("name", Name);
      W.member("detail", Detail);
      W.endObject();
    }
    W.endArray();
    W.key("series");
    W.beginObject();
    for (const auto &[Name, Values] : Series) {
      W.key(Name);
      W.beginArray();
      for (double V : Values)
        W.value(V);
      W.endArray();
    }
    W.endObject();
    W.key("counts");
    W.beginObject();
    for (const auto &[Name, Value] : Counts)
      W.member(Name, Value);
    W.endObject();
    W.endObject();
    std::printf("%s\n", Text.c_str());
  }
};

double peakRssMb() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return false;
  char Buffer[1 << 16];
  size_t Read;
  while ((Read = std::fread(Buffer, 1, sizeof(Buffer), File)) > 0)
    Out.append(Buffer, Read);
  bool Ok = !std::ferror(File);
  std::fclose(File);
  return Ok;
}

bool writeFile(const std::string &Path, const std::string &Text) {
  std::FILE *File = std::fopen(Path.c_str(), "w");
  if (!File)
    return false;
  size_t Written = std::fwrite(Text.data(), 1, Text.size(), File);
  bool Closed = std::fclose(File) == 0;
  return Written == Text.size() && Closed;
}

/// The untraced unit body: one profiled session through the same entry
/// point cheetah-profile calls, with its JSON report.
bool runOne(const Entry &E, const driver::SessionConfig &Config,
            driver::SessionResult &Result, std::string &Report,
            std::string &Error) {
  Report.clear();
  core::JsonReportSink Sink(Report);
  return driver::runSession(*E.Workload, Config, &Sink, Result, Error);
}

/// Profiler::finish through a timed JSON report sink, as runSession streams
/// it, adding the finish and report layers and the report's counts to \p L.
core::ProfileResult tracedFinish(core::Profiler &Profiler,
                                 const sim::SimulationResult &Run,
                                 const core::ReportRunInfo &Info, Layers &L,
                                 std::string &Report) {
  Report.clear();
  core::JsonReportSink Json(Report);
  TimedReportSink Sink(Json);
  Sink.beginRun(Info);
  double BeforeFinish = Sink.Seconds;
  double Start = now();
  core::ProfileResult Profile = Profiler.finish(Run, &Sink);
  double Took = now() - Start;
  L["assess.finish_s"] += Took - (Sink.Seconds - BeforeFinish);
  L["report.emit_s"] += Sink.Seconds;
  L["report.bytes"] += static_cast<double>(Report.size());
  L["report.findings"] += static_cast<double>(Sink.Stats.Findings);
  L["report.page_findings"] += static_cast<double>(Sink.Stats.PageFindings);
  L["detect.materialized_lines"] +=
      static_cast<double>(Sink.Stats.MaterializedLines);
  L["detect.materialized_pages"] +=
      static_cast<double>(Sink.Stats.MaterializedPages);
  L["detect.recorded"] += static_cast<double>(Profile.Detection.SamplesRecorded);
  L["detect.page_recorded"] +=
      static_cast<double>(Profile.Detection.PageSamplesRecorded);
  L["pmu.samples"] += static_cast<double>(Profile.SamplesDelivered);
  return Profile;
}

/// driver::runSession's simulator path, one layer at a time. The profiler
/// and program are held by pointer so their teardown is timed too.
void tracedLive(const Entry &E, const driver::SessionConfig &Config,
                Layers &L, driver::SessionResult &Result,
                std::string &Report) {
  double T0 = now();
  auto Profiler = std::make_unique<core::Profiler>(Config.Profiler);
  double T1 = now();
  auto Program = std::make_unique<sim::ForkJoinProgram>(
      driver::buildProgram(*E.Workload, *Profiler, Config));
  double T2 = now();
  L["detect.alloc_s"] += T1 - T0;
  L["workloads.build_s"] += T2 - T1;

  TimedSampleSink Timed(*Profiler);
  std::unique_ptr<pmu::SampleSource> Source =
      std::make_unique<pmu::SimPmu>(Config.Profiler.Pmu);
  pmu::TraceSource *Recorder = nullptr;
  if (!Config.RecordTracePath.empty()) {
    auto Tee = std::make_unique<pmu::TraceSource>(
        std::move(Source), Config.RecordTracePath,
        Config.Profiler.Pmu.SamplingPeriod);
    Recorder = Tee.get();
    Source = std::move(Tee);
  }
  Source->setSink(&Timed);
  Source->start();

  double T3 = now();
  sim::Simulator Sim(Config.Profiler.Geometry, Config.Latency);
  if (Config.Profiler.Topology.multiNode())
    Sim.setTopology(&Config.Profiler.Topology);
  Sim.addObserver(Source->simObserver());
  Result.Run = Sim.run(*Program);
  double T4 = now();
  L["sim.run_s"] += (T4 - T3) - Timed.Ingest - Timed.Lifecycle;
  L["detect.ingest_s"] += Timed.Ingest;
  L["runtime.lifecycle_s"] += Timed.Lifecycle;

  if (Recorder)
    Recorder->setRunCycles(Result.Run.TotalCycles);
  double T5 = now();
  Source->stop();
  double T6 = now();
  L[Recorder ? "pmu.trace_record_s" : "pmu.stop_s"] += T6 - T5;

  Result.Profile = tracedFinish(*Profiler, Result.Run,
                                driver::makeRunInfo(*E.Workload, Config), L,
                                Report);

  double T9 = now();
  Source.reset();
  double T10 = now();
  Program.reset();
  double T11 = now();
  Profiler.reset();
  double T12 = now();
  L["pmu.stop_s"] += T10 - T9;
  L["workloads.build_s"] += T11 - T10;
  L["detect.alloc_s"] += T12 - T11;
}

/// Adds the simulator's work counts of one session to \p L.
void addSimCounts(const sim::SimulationResult &Run, Layers &L) {
  L["sim.accesses"] += static_cast<double>(Run.Coherence.Accesses);
  L["sim.threads"] += static_cast<double>(Run.Threads.size());
  L["sim.invalidations"] += static_cast<double>(Run.Coherence.InvalidationsSent);
  L["sim.dirty_transfers"] += static_cast<double>(Run.Coherence.DirtyTransfers);
  L["sim.cold_misses"] += static_cast<double>(Run.Coherence.ColdMisses);
  L["sim.remote_accesses"] += static_cast<double>(Run.RemoteNumaAccesses);
}

std::string describe(const Shape &S) {
  return "accesses=" + std::to_string(S.Accesses) +
         " threads=" + std::to_string(S.Threads) +
         " samples=" + std::to_string(S.Samples) +
         " findings=" + std::to_string(S.Findings) +
         " report_bytes=" + std::to_string(S.ReportBytes);
}

/// The method's properties on the table's last results, checked outside
/// the timed region against independent computations.
void checkLive(const std::vector<Entry> &Table,
               const std::vector<driver::SessionResult> &Last, Output &Out) {
  for (size_t I = 0; I < Table.size(); ++I) {
    const Entry &E = Table[I];
    const driver::SessionResult &R = Last[I];
    const std::string Name = E.Workload->name();
    if (!E.Workload->hasSignificantFalseSharing()) {
      Out.check(R.Profile.Reports.empty(), Name + ".no_line_finding",
                std::to_string(R.Profile.Reports.size()) +
                    " significant line findings in a workload with no "
                    "significant false sharing");
      continue;
    }
    std::string Tag = E.Workload->falseSharingSiteTag();
    const core::FalseSharingReport *Found = R.Profile.findReport(Tag);
    Out.check(Found && Found->Impact.ImprovementFactor > 1.0,
              Name + ".finding_names_site",
              Found ? "predicted improvement " +
                          std::to_string(Found->Impact.ImprovementFactor)
                    : "no significant finding names " + Tag);
    if (!Found)
      continue;

    // The every-access baseline must place its worst false-sharing lines
    // inside the object the sampled profiler named.
    driver::FullTrackResult Full =
        driver::runFullTracking(*E.Workload, E.Config, {});
    size_t Checked = 0;
    bool Inside = true;
    for (const baseline::FullTrackerFinding &Line : Full.Findings) {
      if (Line.Kind != core::SharingKind::FalseSharing)
        continue;
      Inside &= Line.LineBase >= Found->Object.Start &&
                Line.LineBase < Found->Object.end();
      if (++Checked == 3)
        break;
    }
    Out.check(Checked > 0 && Inside, Name + ".full_tracking_agrees",
              std::to_string(Checked) +
                  " top false-sharing lines checked, inside=" +
                  (Inside ? "yes" : "no"));

    // The padding fix must remove the finding and the lost cycles.
    driver::SessionConfig Fixed = E.Config;
    Fixed.Workload.FixFalseSharing = true;
    driver::SessionResult FixedRun = driver::runWorkload(*E.Workload, Fixed);
    Out.check(FixedRun.Profile.Reports.empty() &&
                  FixedRun.Run.TotalCycles < R.Run.TotalCycles,
              Name + ".fix_removes_finding",
              "fixed: " + std::to_string(FixedRun.Profile.Reports.size()) +
                  " findings, " + std::to_string(FixedRun.Run.TotalCycles) +
                  " cycles vs " + std::to_string(R.Run.TotalCycles));
  }
}

int runLive(const Args &A) {
  Output Out;
  std::string Error;
  std::vector<Entry> Table(A.Entries.size());
  for (size_t I = 0; I < Table.size(); ++I)
    if (!resolveEntry(A.Entries[I], Table[I], Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }

  // Set-up: resolving the table and building its programs, repeated.
  int SetupRepeats = static_cast<int>(A.number("setup-repeats", 5));
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    double Start = now();
    for (const std::string &Flags : A.Entries) {
      Entry E;
      if (!resolveEntry(Flags, E, Error))
        return 1;
      core::Profiler Profiler(E.Config.Profiler);
      sim::ForkJoinProgram Program =
          driver::buildProgram(*E.Workload, Profiler, E.Config);
    }
    Out.Series["setup_s"].push_back(now() - Start);
  }

  bool Trace = A.get("trace") == "1";
  double Seconds = A.number("seconds", 10);
  int MinUnits = static_cast<int>(A.number("min-units", 3));
  std::vector<driver::SessionResult> Last(Table.size());
  std::vector<Shape> FirstShape;
  std::string Report;

  auto untracedPass = [&](bool Timed) {
    std::vector<Shape> Shapes;
    double PassStart = now();
    for (size_t I = 0; I < Table.size(); ++I) {
      double Start = now();
      bool Ok = runOne(Table[I], Table[I].Config, Last[I], Report, Error);
      double Took = now() - Start;
      ++Out.Attempted;
      if (!Ok) {
        ++Out.Failed;
        Out.check(false, "session", Error);
      }
      Shapes.push_back(shapeOf(Last[I], Report));
      if (Timed)
        Out.Series["entry." + Table[I].Workload->name() + ".run_s"]
            .push_back(Took);
    }
    double PassTook = now() - PassStart;
    if (!Timed)
      return;
    Out.Series["unit_s"].push_back(PassTook);
    if (FirstShape.empty())
      FirstShape = Shapes;
    for (size_t I = 0; I < Shapes.size(); ++I)
      if (!(Shapes[I] == FirstShape[I]))
        Out.check(false, Table[I].Workload->name() + ".shape_repeats",
                  describe(Shapes[I]) + " vs " + describe(FirstShape[I]));
  };

  untracedPass(/*Timed=*/false); // warm-up
  double Start = now();
  for (int Unit = 0; Unit < MinUnits || now() - Start < Seconds; ++Unit) {
    untracedPass(/*Timed=*/true);
    if (!Trace)
      continue;
    Layers L;
    double PassStart = now();
    for (size_t I = 0; I < Table.size(); ++I) {
      driver::SessionResult R;
      Layers EntryLayers;
      tracedLive(Table[I], Table[I].Config, EntryLayers, R, Report);
      addSimCounts(R.Run, EntryLayers);
      const std::string Prefix = "entry." + Table[I].Workload->name();
      Out.Series[Prefix + ".sim_s"].push_back(EntryLayers["sim.run_s"]);
      for (const auto &[Name, Value] : EntryLayers)
        L[Name] += Value;
    }
    L["unit_s"] = now() - PassStart;
    Out.addLayers(L, "@traced");
  }
  Out.Counts["peak_rss_mb"] = peakRssMb();

  for (size_t I = 0; I < Table.size(); ++I) {
    const std::string Prefix = "entry." + Table[I].Workload->name();
    Out.Counts[Prefix + ".accesses"] =
        static_cast<double>(FirstShape[I].Accesses);
    Out.Counts[Prefix + ".threads"] = static_cast<double>(FirstShape[I].Threads);
    Out.Counts[Prefix + ".samples"] = static_cast<double>(FirstShape[I].Samples);
    Out.Counts[Prefix + ".findings"] =
        static_cast<double>(FirstShape[I].Findings);
  }
  checkLive(Table, Last, Out);
  Out.print();
  return 0;
}

int runRecord(const Args &A) {
  Output Out;
  std::string Error;
  Entry E;
  if (A.Entries.size() != 1 || !resolveEntry(A.Entries[0], E, Error)) {
    std::fprintf(stderr, "error: record needs one valid --entry: %s\n",
                 Error.c_str());
    return 1;
  }
  driver::SessionConfig Config = E.Config;
  Config.RecordTracePath = A.get("trace-out");
  driver::SessionResult Result;
  std::string Report;
  int Repeats = static_cast<int>(A.number("repeats", 3));
  for (int Rep = 0; Rep < Repeats; ++Rep) {
    double Start = now();
    bool Ok = runOne(E, Config, Result, Report, Error);
    Out.Series["setup_s"].push_back(now() - Start);
    ++Out.Attempted;
    if (!Ok) {
      ++Out.Failed;
      Out.check(false, "record", Error);
    }
  }
  Out.check(writeFile(A.get("report-out"), Report), "report_written",
            A.get("report-out"));
  Out.Counts["accesses"] = static_cast<double>(Result.Run.Coherence.Accesses);
  Out.Counts["samples"] = static_cast<double>(Result.Profile.SamplesDelivered);

  if (A.get("trace") == "1") {
    driver::SessionConfig Traced = Config;
    Traced.RecordTracePath += ".traced";
    Layers L;
    driver::SessionResult R;
    tracedLive(E, Traced, L, R, Report);
    Out.addLayers(L);
    std::remove(Traced.RecordTracePath.c_str());
  }
  Out.print();
  return 0;
}

/// driver::runSession's trace-replay path, one layer at a time.
void tracedReplay(const Entry &E, const driver::SessionConfig &Config,
                  Layers &L, driver::SessionResult &Result,
                  std::string &Report) {
  double T0 = now();
  auto Profiler = std::make_unique<core::Profiler>(Config.Profiler);
  double T1 = now();
  auto Program = std::make_unique<sim::ForkJoinProgram>(
      driver::buildProgram(*E.Workload, *Profiler, Config));
  double T2 = now();
  L["detect.alloc_s"] += T1 - T0;
  L["workloads.build_s"] += T2 - T1;

  TimedSampleSink Timed(*Profiler);
  auto Replay = std::make_unique<pmu::TraceSource>(Config.ReplayTracePath);
  Replay->setSink(&Timed);
  double T3 = now();
  Replay->start();
  double T4 = now();
  Replay->drain();
  double T5 = now();
  L["pmu.trace_parse_s"] += T4 - T3;
  L["pmu.replay_deliver_s"] += (T5 - T4) - Timed.Ingest - Timed.Lifecycle;
  L["detect.ingest_s"] += Timed.Ingest;
  L["runtime.lifecycle_s"] += Timed.Lifecycle;

  Result.Run.TotalCycles = Replay->runCycles();
  driver::SessionConfig RunInfoConfig = Config;
  RunInfoConfig.Profiler.Pmu.SamplingPeriod = Replay->samplingPeriod();
  Result.Profile = tracedFinish(
      *Profiler, Result.Run, driver::makeRunInfo(*E.Workload, RunInfoConfig),
      L, Report);

  double T8 = now();
  Replay.reset();
  double T9 = now();
  Program.reset();
  double T10 = now();
  Profiler.reset();
  double T11 = now();
  L["pmu.trace_parse_s"] += T9 - T8;
  L["workloads.build_s"] += T10 - T9;
  L["detect.alloc_s"] += T11 - T10;
}

int runReplay(const Args &A) {
  Output Out;
  std::string Error;
  Entry E;
  if (A.Entries.size() != 1 || !resolveEntry(A.Entries[0], E, Error)) {
    std::fprintf(stderr, "error: replay needs one valid --entry: %s\n",
                 Error.c_str());
    return 1;
  }
  driver::SessionConfig Config = E.Config;
  Config.Backend = driver::SampleBackend::TraceReplay;
  Config.ReplayTracePath = A.get("trace-file");
  uint64_t ExpectSamples = static_cast<uint64_t>(A.number("expect-samples", 0));

  bool Trace = A.get("trace") == "1";
  double Seconds = A.number("seconds", 10);
  int MinUnits = static_cast<int>(A.number("min-units", 3));
  driver::SessionResult Result;
  std::string Report;
  std::hash<std::string> Hash;
  size_t FirstHash = 0;
  Shape FirstShape;

  runOne(E, Config, Result, Report, Error); // warm-up
  double Start = now();
  for (int Unit = 0; Unit < MinUnits || now() - Start < Seconds; ++Unit) {
    double UnitStart = now();
    bool Ok = runOne(E, Config, Result, Report, Error);
    double Took = now() - UnitStart;
    ++Out.Attempted;
    Shape S = shapeOf(Result, Report);
    size_t H = Hash(Report);
    if (Unit == 0) {
      FirstHash = H;
      FirstShape = S;
    }
    bool Same = Ok && H == FirstHash && S == FirstShape &&
                S.Samples == ExpectSamples;
    if (!Same) {
      ++Out.Failed;
      Out.check(false, "replay_repeats",
                Ok ? describe(S) + " vs first " + describe(FirstShape) +
                         ", trace holds " + std::to_string(ExpectSamples) +
                         " samples"
                   : Error);
    }
    Out.Series["unit_s"].push_back(Took);
    if (!Trace)
      continue;
    Layers L;
    driver::SessionResult R;
    double TracedStart = now();
    tracedReplay(E, Config, L, R, Report);
    L["unit_s"] = now() - TracedStart;
    Out.addLayers(L, "@traced");
  }
  Out.Counts["peak_rss_mb"] = peakRssMb();
  Out.Counts["samples"] = static_cast<double>(FirstShape.Samples);
  Out.Counts["findings"] = static_cast<double>(FirstShape.Findings);
  Out.Counts["report_bytes"] = static_cast<double>(FirstShape.ReportBytes);

  // Outside the timed region: the replay must reproduce the recording
  // run's report byte for byte, and deliver every sample in the file.
  runOne(E, Config, Result, Report, Error);
  std::string Recorded;
  bool Read = readFile(A.get("expect-report"), Recorded);
  Out.check(Read && Recorded == Report, "replay_matches_recording",
            Read ? std::to_string(Report.size()) + " replayed bytes vs " +
                       std::to_string(Recorded.size()) + " recorded"
                 : "cannot read " + A.get("expect-report"));
  Out.check(Result.Profile.SamplesDelivered == ExpectSamples,
            "replay_delivers_every_sample",
            std::to_string(Result.Profile.SamplesDelivered) + " delivered, " +
                std::to_string(ExpectSamples) + " in the trace");
  Out.print();
  return 0;
}

/// The shape cheetah-daemon partitions a trace into.
struct PartitionSink : pmu::SampleSink {
  std::map<ThreadId, std::vector<pmu::Sample>> PerThread;

  void threadStarted(ThreadId, bool, uint64_t) override {}
  void threadFinished(ThreadId, bool, uint64_t) override {}
  void ingestBatch(const pmu::Sample *Samples, size_t Count) override {
    for (size_t I = 0; I < Count; ++I)
      PerThread[Samples[I].Tid].push_back(Samples[I]);
  }
};

/// One soak making tools/cheetah-daemon.cpp's calls in its order, with
/// --backend=trace:FILE, a fresh store and --snapshot-dir. Per-epoch layer
/// times land in Out as "<layer>@epoch" series.
int runDaemon(const Args &A) {
  Output Out;
  std::string Error;
  Entry E;
  if (A.Entries.size() != 1 || !resolveEntry(A.Entries[0], E, Error)) {
    std::fprintf(stderr, "error: daemon needs one valid --entry: %s\n",
                 Error.c_str());
    return 1;
  }
  int64_t Epochs = static_cast<int64_t>(A.number("epochs", 4));
  const std::string &StorePath = A.get("store");
  const std::string &SnapshotDir = A.get("snapshot-dir");
  driver::SessionConfig Config = E.Config;
  Config.Backend = driver::SampleBackend::TraceReplay;
  Config.ReplayTracePath = A.get("trace-file");
  Config.Profiler.Detect.LineShadowBudgetBytes =
      static_cast<size_t>(A.number("line-budget", 0));

  Layers Setup;
  double SoakStart = now();
  double T0 = now();
  core::Profiler Profiler(Config.Profiler);
  double T1 = now();
  sim::ForkJoinProgram Program =
      driver::buildProgram(*E.Workload, Profiler, Config);
  double T2 = now();
  std::unique_ptr<pmu::TraceSource> Trace = driver::makeCaptureSource(Config);
  pmu::SourceStatus Status = Trace->start();
  double T3 = now();
  if (!Status.Available) {
    std::fprintf(stderr, "error: %s\n", Status.Reason.c_str());
    return 1;
  }
  PartitionSink Partition;
  Trace->replayInto(Partition);
  double T4 = now();
  Setup["detect.alloc_s"] = T1 - T0;
  Setup["workloads.build_s"] = T2 - T1;
  Setup["pmu.trace_parse_s"] = T3 - T2;
  Setup["pmu.replay_deliver_s"] = T4 - T3;

  std::vector<ThreadId> ChildTids;
  ThreadId MaxTid = 0;
  for (const auto &Entry : Partition.PerThread) {
    if (Entry.first != 0)
      ChildTids.push_back(Entry.first);
    if (Entry.first > MaxTid)
      MaxTid = Entry.first;
  }

  core::ReportHistory History;
  driver::PreloadProfilerBridge Bridge(Profiler);
  double Attributed = 0;
  for (const auto &[Name, Seconds] : Setup)
    Attributed += Seconds;

  for (int64_t Epoch = 0; Epoch < Epochs; ++Epoch) {
    Layers L;
    double E0 = now();
    auto MainIt = Partition.PerThread.find(0);
    if (MainIt != Partition.PerThread.end()) {
      for (const pmu::Sample &Sample : MainIt->second)
        interpose::recordSample(Sample);
      interpose::flushThreadSamples();
    }
    ThreadId Stride = MaxTid + 1;
    std::vector<std::thread> Replayers;
    for (ThreadId Tid : ChildTids)
      Bridge.attachThread(static_cast<ThreadId>(Epoch) * Stride + Tid);
    for (ThreadId Tid : ChildTids) {
      ThreadId EpochTid = static_cast<ThreadId>(Epoch) * Stride + Tid;
      const std::vector<pmu::Sample> &Samples = Partition.PerThread[Tid];
      Replayers.emplace_back([EpochTid, &Samples] {
        interpose::threadAttach();
        for (pmu::Sample Sample : Samples) {
          Sample.Tid = EpochTid;
          interpose::recordSample(Sample);
        }
        interpose::flushThreadSamples();
      });
    }
    for (std::thread &Replayer : Replayers)
      Replayer.join();
    for (ThreadId Tid : ChildTids)
      Bridge.detachThread(static_cast<ThreadId>(Epoch) * Stride + Tid);
    double E1 = now();
    L["interpose.ingest_ms"] = (E1 - E0) * 1e3;

    std::string ReportText;
    core::JsonReportSink Json(ReportText);
    TimedReportSink Sink(Json);
    core::ReportRunInfo Info = driver::makeRunInfo(*E.Workload, Config);
    Info.Tool = "cheetah-daemon";
    Sink.beginRun(Info);
    double BeforeSnapshot = Sink.Seconds;
    double E2 = now();
    Profiler.snapshotEpoch(Bridge.elapsedCycles(), &Sink);
    double E3 = now();
    L["assess.snapshot_ms"] =
        ((E3 - E2) - (Sink.Seconds - BeforeSnapshot)) * 1e3;

    core::ParsedReport Report;
    bool Parsed = core::parseRunDocument(ReportText, Report, Error);
    double E4 = now();
    L["report.parse_ms"] = (E4 - E3) * 1e3;
    std::string RunId = "epoch-" + std::to_string(History.runs().size());
    bool Appended = Parsed && History.appendRun(Report, RunId, Error);
    double E5 = now();
    L["history.append_ms"] = (E5 - E4) * 1e3;
    std::string Store = History.serialize();
    bool Stored = writeFile(StorePath, Store);
    double E6 = now();
    L["history.serialize_ms"] = (E6 - E5) * 1e3;
    bool Snapped = writeFile(SnapshotDir + "/" + RunId + ".json", ReportText);
    double E7 = now();
    L["report.emit_ms"] = (Sink.Seconds + (E7 - E6)) * 1e3;

    size_t Footprint = Profiler.shadow().footprintBytes();
    double E8 = now();
    L["detect.footprint_ms"] = (E8 - E7) * 1e3;
    std::fprintf(stderr, "perfbench-harness: epoch %lld -> %s (line footprint "
                         "%zu/%zu bytes)\n",
                 static_cast<long long>(Epoch), RunId.c_str(), Footprint,
                 Profiler.shadow().byteBudget());
    double E9 = now();
    L["epoch_ms"] = (E9 - E0) * 1e3;
    for (const auto &[Name, Ms] : L)
      if (Name != "epoch_ms")
        Attributed += Ms / 1e3;
    Out.addLayers(L, "@epoch");
    Out.Counts["history.store_bytes"] = static_cast<double>(Store.size());
    ++Out.Attempted;
    if (!(Parsed && Appended && Stored && Snapped)) {
      ++Out.Failed;
      Out.check(false, "epoch", Error);
    }
  }
  double F0 = now();
  Bridge.finish();
  double F1 = now();
  Setup["assess.finish_s"] = F1 - F0;
  Attributed += F1 - F0;
  Out.addLayers(Setup);

  Out.Counts["runtime.threads_registered"] =
      static_cast<double>(Profiler.threadRegistry().threads().size());
  Out.Counts["detect.footprint_bytes"] =
      static_cast<double>(Profiler.shadow().footprintBytes());
  Out.Counts["detect.evicted_grains"] =
      static_cast<double>(Profiler.shadow().evictedResidue().Grains);
  double Soak = now() - SoakStart;
  Out.Counts["unit_s"] = Soak;
  Out.Counts["attributed_s"] = Attributed;
  Out.Counts["peak_rss_mb"] = peakRssMb();
  Out.print();
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr, "usage: perfbench-harness live|record|replay|daemon "
                         "[--key value]... [--entry FLAGS]...\n");
    return 1;
  }
  if (A.Mode == "live")
    return runLive(A);
  if (A.Mode == "record")
    return runRecord(A);
  if (A.Mode == "replay")
    return runReplay(A);
  if (A.Mode == "daemon")
    return runDaemon(A);
  std::fprintf(stderr, "error: unknown mode '%s'\n", A.Mode.c_str());
  return 1;
}
