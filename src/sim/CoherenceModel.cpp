//===- sim/CoherenceModel.cpp - Private-cache coherence model ------------===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/CoherenceModel.h"

#include <algorithm>

using namespace cheetah;
using namespace cheetah::sim;

const char *cheetah::sim::accessOutcomeName(AccessOutcome Outcome) {
  switch (Outcome) {
  case AccessOutcome::LocalHit:
    return "local-hit";
  case AccessOutcome::ColdMiss:
    return "cold-miss";
  case AccessOutcome::CleanTransfer:
    return "clean-transfer";
  case AccessOutcome::DirtyTransfer:
    return "dirty-transfer";
  case AccessOutcome::Upgrade:
    return "upgrade";
  }
  return "unknown";
}

bool CoherenceModel::holds(const LineState &Line, ThreadId Tid) const {
  if (Line.Count <= 2)
    return Line.Inline[0] == Tid || Line.Inline[1] == Tid;
  return Tid / 64 < SpillWidth &&
         (spillWords(Line.spill())[Tid / 64] >> (Tid % 64) & 1u);
}

void CoherenceModel::fitSpillWidth(ThreadId Tid) {
  uint32_t Width = Tid / 64 + 1;
  if (Width <= SpillWidth)
    return;
  size_t Spills = SpillWidth ? SpillWords.size() / SpillWidth : 0;
  std::vector<uint64_t> Wider(Spills * Width, 0);
  for (size_t S = 0; S < Spills; ++S)
    std::copy_n(SpillWords.begin() + S * SpillWidth, SpillWidth,
                Wider.begin() + S * Width);
  SpillWords.swap(Wider);
  SpillWidth = Width;
}

/// Adds \p Tid, known not to hold the line, to its holder set.
void CoherenceModel::addHolder(LineState &Line, ThreadId Tid) {
  if (Line.Count < 2) {
    Line.Inline[Line.Count++] = Tid;
    return;
  }
  if (Line.Count == 2) {
    // A third holder: move the inline pair into a fresh bitset.
    fitSpillWidth(std::max({Tid, Line.Inline[0], Line.Inline[1]}));
    uint32_t Spill;
    if (!FreeSpills.empty()) {
      Spill = FreeSpills.back();
      FreeSpills.pop_back();
      std::fill_n(spillWords(Spill), SpillWidth, 0);
    } else {
      Spill = static_cast<uint32_t>(SpillWords.size() / SpillWidth);
      SpillWords.resize(SpillWords.size() + SpillWidth, 0);
    }
    uint64_t *Words = spillWords(Spill);
    for (ThreadId Holder : Line.Inline)
      Words[Holder / 64] |= uint64_t(1) << (Holder % 64);
    Line.DirtySpill = (Spill + 1) << 1 | (Line.DirtySpill & 1u);
  } else {
    fitSpillWidth(Tid);
  }
  spillWords(Line.spill())[Tid / 64] |= uint64_t(1) << (Tid % 64);
  ++Line.Count;
}

CoherenceResult CoherenceModel::access(ThreadId Tid,
                                       const MemoryAccess &Access,
                                       uint64_t Now) {
  bool Inserted;
  LineState &Line =
      Lines.findOrInsert(Geometry.lineIndex(Access.Address), Inserted);
  CoherenceResult Result;
  ++Stats.Accesses;

  bool Held = holds(Line, Tid);
  bool OthersHold = Line.Count > (Held ? 1u : 0u);
  bool EverTouched = Line.Count != 0 || Line.dirty();

  if (Access.Kind == AccessKind::Read) {
    if (Held) {
      Result.Outcome = AccessOutcome::LocalHit;
    } else if (!EverTouched) {
      Result.Outcome = AccessOutcome::ColdMiss;
    } else if (Line.dirty() && OthersHold) {
      // Another core holds the line modified: dirty cache-to-cache transfer.
      // The supplier's copy downgrades to shared; the line is now clean.
      Result.Outcome = AccessOutcome::DirtyTransfer;
      Line.DirtySpill &= ~1u;
    } else if (OthersHold) {
      Result.Outcome = AccessOutcome::CleanTransfer;
    } else {
      // Touched in the past but no current holder (everyone was
      // invalidated and the writer itself re-read elsewhere): with infinite
      // caches this means a fetch from the shared level, model as clean
      // transfer cost.
      Result.Outcome = AccessOutcome::CleanTransfer;
    }
    if (!Held)
      addHolder(Line, Tid);
  } else {
    // Write: every other holder must be invalidated.
    uint32_t Victims = Line.Count - (Held ? 1u : 0u);
    if (Held && Victims == 0) {
      // Exclusive (or modified) in our cache already.
      Result.Outcome = AccessOutcome::LocalHit;
    } else if (Held) {
      // We hold it shared; upgrade to exclusive.
      Result.Outcome = AccessOutcome::Upgrade;
    } else if (!EverTouched) {
      Result.Outcome = AccessOutcome::ColdMiss;
    } else if (Line.dirty() && Victims > 0) {
      Result.Outcome = AccessOutcome::DirtyTransfer;
    } else {
      Result.Outcome = AccessOutcome::CleanTransfer;
    }
    Result.Invalidated = Victims;
    Stats.InvalidationsSent += Victims;
    if (Line.Count > 2)
      FreeSpills.push_back(Line.spill());
    Line.Inline[0] = Tid;
    Line.Inline[1] = NoTid;
    Line.Count = 1;
    Line.DirtySpill = 1;
  }

  uint64_t Cost = Latency.baseCost(Result.Outcome);
  if (LatencyModel::involvesCoherence(Result.Outcome)) {
    // Coherence transactions serialize on the line's directory slot: a
    // request issued while a previous transfer is still in flight waits for
    // it. This is the queueing effect that makes N contending writers see
    // latency grow with N — saturating once the directory pipeline absorbs
    // the backlog.
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

void CoherenceModel::reset() {
  Lines.clear();
  SpillWords = {};
  SpillWidth = 0;
  FreeSpills = {};
  Stats = CoherenceStats();
}

std::vector<ThreadId> CoherenceModel::holdersOf(uint64_t Address) const {
  const LineState *Line = Lines.find(Geometry.lineIndex(Address));
  if (!Line)
    return {};
  std::vector<ThreadId> Holders;
  if (Line->Count <= 2) {
    Holders.assign(Line->Inline, Line->Inline + Line->Count);
    std::sort(Holders.begin(), Holders.end());
    return Holders;
  }
  const uint64_t *Words = spillWords(Line->spill());
  for (uint32_t W = 0; W < SpillWidth; ++W)
    for (uint64_t Bits = Words[W]; Bits; Bits &= Bits - 1)
      Holders.push_back(W * 64 + static_cast<ThreadId>(__builtin_ctzll(Bits)));
  return Holders;
}
