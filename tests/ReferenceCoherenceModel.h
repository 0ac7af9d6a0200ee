//===- tests/ReferenceCoherenceModel.h - Map-based coherence model -*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The original directory-style coherence model, kept as a test-only
/// reference for differential testing of sim::CoherenceModel. The line
/// directory is an std::unordered_map and each line's holders are a sorted,
/// deduplicated std::vector: slow, but simple enough to read as the
/// specification. Every CoherenceResult, the CoherenceStats, holdersOf() and
/// touchedLines() of the production model must match this one exactly.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_TESTS_REFERENCECOHERENCEMODEL_H
#define CHEETAH_TESTS_REFERENCECOHERENCEMODEL_H

#include "mem/CacheGeometry.h"
#include "mem/MemoryAccess.h"
#include "sim/CoherenceModel.h"
#include "sim/LatencyModel.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace cheetah {
namespace test {

/// Tracks, for every touched cache line, which cores hold a valid copy and
/// whether one of them holds it modified.
class ReferenceCoherenceModel {
public:
  ReferenceCoherenceModel(const CacheGeometry &Geometry,
                          const sim::LatencyModel &Latency)
      : Geometry(Geometry), Latency(Latency) {}

  /// Presents one access by \p Tid at virtual time \p Now.
  /// \returns the outcome and total latency (base cost + queueing delay).
  sim::CoherenceResult access(ThreadId Tid, const MemoryAccess &Access,
                              uint64_t Now) {
    using sim::AccessOutcome;
    LineState &Line = lineFor(Access.Address);
    sim::CoherenceResult Result;
    ++Stats.Accesses;

    bool Held = holds(Line, Tid);
    bool OthersHold = Line.Holders.size() > (Held ? 1u : 0u);
    bool EverTouched = !Line.Holders.empty() || Line.Dirty;

    if (Access.Kind == AccessKind::Read) {
      if (Held) {
        Result.Outcome = AccessOutcome::LocalHit;
      } else if (!EverTouched) {
        Result.Outcome = AccessOutcome::ColdMiss;
      } else if (Line.Dirty && OthersHold) {
        // Another core holds the line modified: dirty cache-to-cache
        // transfer. The supplier's copy downgrades to shared; the line is
        // now clean.
        Result.Outcome = AccessOutcome::DirtyTransfer;
        Line.Dirty = false;
      } else if (OthersHold) {
        Result.Outcome = AccessOutcome::CleanTransfer;
      } else {
        // Touched in the past but no current holder (everyone was
        // invalidated and the writer itself re-read elsewhere): with
        // infinite caches this means a fetch from the shared level, model
        // as clean transfer cost.
        Result.Outcome = AccessOutcome::CleanTransfer;
      }
      addHolder(Line, Tid);
    } else {
      // Write: every other holder must be invalidated.
      uint32_t Victims =
          static_cast<uint32_t>(Line.Holders.size()) - (Held ? 1u : 0u);
      if (Held && Victims == 0) {
        // Exclusive (or modified) in our cache already.
        Result.Outcome = AccessOutcome::LocalHit;
      } else if (Held) {
        // We hold it shared; upgrade to exclusive.
        Result.Outcome = AccessOutcome::Upgrade;
      } else if (!EverTouched) {
        Result.Outcome = AccessOutcome::ColdMiss;
      } else if (Line.Dirty && Victims > 0) {
        Result.Outcome = AccessOutcome::DirtyTransfer;
      } else {
        Result.Outcome = AccessOutcome::CleanTransfer;
      }
      Result.Invalidated = Victims;
      Stats.InvalidationsSent += Victims;
      Line.Holders.clear();
      Line.Holders.push_back(Tid);
      Line.Dirty = true;
    }

    uint64_t Cost = Latency.baseCost(Result.Outcome);
    if (sim::LatencyModel::involvesCoherence(Result.Outcome)) {
      // Coherence transactions serialize on the line's directory slot: a
      // request issued while a previous transfer is still in flight waits
      // for it.
      uint64_t MaxWait =
          static_cast<uint64_t>(Latency.MaxQueuedServices) *
          Latency.LineServiceCycles;
      uint64_t Start = std::max(Now, std::min(Line.BusyUntil, Now + MaxWait));
      uint64_t Finish = Start + Latency.LineServiceCycles;
      Line.BusyUntil = Finish;
      Cost += Finish - Now;
    }
    Result.LatencyCycles = Cost;
    Stats.TotalLatency += Cost;

    switch (Result.Outcome) {
    case AccessOutcome::LocalHit:
      ++Stats.LocalHits;
      break;
    case AccessOutcome::ColdMiss:
      ++Stats.ColdMisses;
      break;
    case AccessOutcome::CleanTransfer:
      ++Stats.CleanTransfers;
      break;
    case AccessOutcome::DirtyTransfer:
      ++Stats.DirtyTransfers;
      break;
    case AccessOutcome::Upgrade:
      ++Stats.Upgrades;
      break;
    }
    return Result;
  }

  /// Counters accumulated since construction or the last reset.
  const sim::CoherenceStats &stats() const { return Stats; }

  /// Clears all line state and counters.
  void reset() {
    Lines.clear();
    Stats = sim::CoherenceStats();
  }

  /// Number of distinct cache lines ever touched.
  size_t touchedLines() const { return Lines.size(); }

  /// \returns the holders of the line containing \p Address, ascending.
  std::vector<ThreadId> holdersOf(uint64_t Address) const {
    auto It = Lines.find(Geometry.lineIndex(Address));
    if (It == Lines.end())
      return {};
    return It->second.Holders;
  }

private:
  /// Per-line directory entry. Holders is kept sorted and deduplicated.
  struct LineState {
    std::vector<ThreadId> Holders;
    bool Dirty = false;
    /// Virtual time until which the line's directory slot is busy serving
    /// a previous ownership transfer.
    uint64_t BusyUntil = 0;
  };

  LineState &lineFor(uint64_t Address) {
    return Lines[Geometry.lineIndex(Address)];
  }

  static bool holds(const LineState &Line, ThreadId Tid) {
    return std::binary_search(Line.Holders.begin(), Line.Holders.end(), Tid);
  }

  static void addHolder(LineState &Line, ThreadId Tid) {
    auto It = std::lower_bound(Line.Holders.begin(), Line.Holders.end(), Tid);
    if (It == Line.Holders.end() || *It != Tid)
      Line.Holders.insert(It, Tid);
  }

  CacheGeometry Geometry;
  sim::LatencyModel Latency;
  std::unordered_map<uint64_t, LineState> Lines;
  sim::CoherenceStats Stats;
};

} // namespace test
} // namespace cheetah

#endif // CHEETAH_TESTS_REFERENCECOHERENCEMODEL_H
