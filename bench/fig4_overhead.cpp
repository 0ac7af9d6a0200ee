//===- bench/fig4_overhead.cpp - Figure 4 reproduction ---------------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 4: runtime of each of the 17 Phoenix+PARSEC applications under
/// Cheetah, normalized to native (pthreads) execution, at the deployment
/// sampling period of 64K instructions and 16 threads. The paper reports
/// ~7% average overhead with kmeans (224 threads) and x264 (1024 threads)
/// as outliers above 20% due to per-thread PMU setup.
///
/// Every number here is *modeled*: simulated cycles, with the profiler's
/// cost charged from the PmuConfig constants (SampleHandlerCycles per
/// sample, ThreadSetupCycles per thread). None of it is host run time; the
/// measured host cost of profiling is what perfbench reports.
///
//===----------------------------------------------------------------------===//

#include "driver/ProfileSession.h"
#include "support/Statistics.h"
#include "support/StringUtils.h"
#include "workloads/Workload.h"

#include <cstdio>

using namespace cheetah;

int main() {
  std::printf("Figure 4: Cheetah modeled overhead, normalized to native "
              "execution (16 threads, 1/64K sampling)\n"
              "All columns are simulated cycles; profiler cost is modeled "
              "from PmuConfig constants, not measured host time.\n\n");

  TextTable Table;
  Table.setHeader({"application", "native (modeled cycles)",
                   "cheetah (modeled cycles)", "modeled normalized",
                   "threads created"});
  std::vector<double> Normalized;

  for (auto &Workload : workloads::createAllWorkloads()) {
    if (Workload->suite() == "micro")
      continue;
    driver::SessionConfig Config;
    Config.Workload.Threads = 16;
    Config.Profiler.Pmu.SamplingPeriod = 65536;

    driver::SessionConfig Native = Config;
    Native.EnableProfiler = false;
    uint64_t Baseline =
        driver::runWorkload(*Workload, Native).Run.TotalCycles;

    driver::SessionResult Profiled = driver::runWorkload(*Workload, Config);
    double Ratio = static_cast<double>(Profiled.Run.TotalCycles) /
                   static_cast<double>(Baseline);
    Normalized.push_back(Ratio);

    Table.addRow({Workload->name(), formatWithCommas(Baseline),
                  formatWithCommas(Profiled.Run.TotalCycles),
                  formatString("%.3f", Ratio),
                  std::to_string(Profiled.Run.Threads.size() - 1)});
  }
  Table.addRow({"AVERAGE", "", "",
                formatString("%.3f", arithmeticMean(Normalized)), ""});
  std::fputs(Table.render().c_str(), stdout);
  std::printf("\npaper shape: ~1.07 average; kmeans and x264 highest due "
              "to per-thread PMU setup\n");
  return 0;
}
