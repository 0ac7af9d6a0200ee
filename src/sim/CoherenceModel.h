//===- sim/CoherenceModel.h - Private-cache coherence model -----*- C++ -*-===//
//
// Part of the Cheetah reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A directory-style invalidation coherence model matching the paper's two
/// assumptions (Section 2): every thread runs on its own core with a private
/// cache, and caches are infinite (no capacity evictions). A line is held by
/// a set of cores; a write invalidates every other holder. Contended lines
/// serialize ownership transfers through a per-line busy window, so the cost
/// of false sharing grows with the number of concurrent writers — the
/// physical effect behind Figure 1's 13x degradation.
///
/// The model runs once per simulated memory access, so its directory is
/// laid out for that: one open-addressed FlatTable of 32-byte slots keyed by
/// line index, each holding the line's busy window, its holder count, the
/// dirty bit and up to two holder tids inline. Private and pairwise-shared
/// lines, nearly all lines in practice, never leave the slot. A line read by
/// a third core spills its holders to a bitset over tids, kept in one flat
/// arena of equal-width bitsets (one bit per simulated thread, so a line
/// read by 1,024 threads costs 136 bytes); a write collapses the holder set
/// back to the writer and frees the bitset for reuse.
///
//===----------------------------------------------------------------------===//

#ifndef CHEETAH_SIM_COHERENCEMODEL_H
#define CHEETAH_SIM_COHERENCEMODEL_H

#include "mem/CacheGeometry.h"
#include "mem/MemoryAccess.h"
#include "sim/FlatTable.h"
#include "sim/LatencyModel.h"

#include <cstdint>
#include <vector>

namespace cheetah {
namespace sim {

/// Result of presenting one access to the coherence model.
struct CoherenceResult {
  AccessOutcome Outcome = AccessOutcome::LocalHit;
  /// Total cycles the access took, including any time spent queued behind
  /// other transfers of the same line.
  uint64_t LatencyCycles = 0;
  /// Number of other cores whose copies were invalidated by this access.
  uint32_t Invalidated = 0;
};

/// Aggregate counters over one simulation, used by tests and benchmarks.
struct CoherenceStats {
  uint64_t Accesses = 0;
  uint64_t LocalHits = 0;
  uint64_t ColdMisses = 0;
  uint64_t CleanTransfers = 0;
  uint64_t DirtyTransfers = 0;
  uint64_t Upgrades = 0;
  uint64_t InvalidationsSent = 0;
  uint64_t TotalLatency = 0;
};

/// Tracks, for every touched cache line, which cores hold a valid copy and
/// whether one of them holds it modified.
class CoherenceModel {
public:
  CoherenceModel(const CacheGeometry &Geometry, const LatencyModel &Latency)
      : Geometry(Geometry), Latency(Latency) {}

  /// Presents one access by \p Tid at virtual time \p Now.
  /// \returns the outcome and total latency (base cost + queueing delay).
  CoherenceResult access(ThreadId Tid, const MemoryAccess &Access,
                         uint64_t Now);

  /// Counters accumulated since construction or the last reset.
  const CoherenceStats &stats() const { return Stats; }

  /// Clears all line state and counters.
  void reset();

  /// Number of distinct cache lines ever touched.
  size_t touchedLines() const { return Lines.size(); }

  /// \returns the holders of the line containing \p Address, ascending
  /// (for tests).
  std::vector<ThreadId> holdersOf(uint64_t Address) const;

private:
  static constexpr ThreadId NoTid = ~ThreadId(0);

  /// Per-line directory entry; with its key, one 32-byte FlatTable slot.
  /// While Count <= 2 the holders are Inline[0..Count) and unused inline
  /// entries read NoTid. Above two they live in the spill bitset.
  struct LineState {
    /// Virtual time until which the line's directory slot is busy serving a
    /// previous ownership transfer.
    uint64_t BusyUntil = 0;
    ThreadId Inline[2] = {NoTid, NoTid};
    /// Number of cores holding a valid copy.
    uint32_t Count = 0;
    /// Bit 0: one holder has the line modified. Bits 1..31: index of the
    /// spill bitset plus one, or 0 while the holders are inline.
    uint32_t DirtySpill = 0;

    bool dirty() const { return DirtySpill & 1u; }
    uint32_t spill() const { return (DirtySpill >> 1) - 1; }
  };
  static_assert(sizeof(FlatTable<LineState>::Slot) == 32,
                "directory slots should stay 32 bytes");

  bool holds(const LineState &Line, ThreadId Tid) const;
  void addHolder(LineState &Line, ThreadId Tid);
  /// Widens every spill bitset so it has a bit for \p Tid.
  void fitSpillWidth(ThreadId Tid);
  uint64_t *spillWords(uint32_t Spill) {
    return SpillWords.data() + static_cast<size_t>(Spill) * SpillWidth;
  }
  const uint64_t *spillWords(uint32_t Spill) const {
    return SpillWords.data() + static_cast<size_t>(Spill) * SpillWidth;
  }

  CacheGeometry Geometry;
  LatencyModel Latency;
  FlatTable<LineState> Lines;
  /// Spill bitsets, SpillWidth words each, back to back.
  std::vector<uint64_t> SpillWords;
  uint32_t SpillWidth = 0;
  /// Spill bitsets released by writes, ready for reuse.
  std::vector<uint32_t> FreeSpills;
  CoherenceStats Stats;
};

} // namespace sim
} // namespace cheetah

#endif // CHEETAH_SIM_COHERENCEMODEL_H
