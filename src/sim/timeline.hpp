#pragma once
// Busy-interval timeline for a single serial resource (a machine's compute
// unit, its outgoing transmission channel, or its incoming reception
// channel — the paper's assumptions (b)/(c): one subtask at a time, one
// outgoing and one incoming transfer at a time).
//
// Intervals are half-open [start, end) in integer clock cycles, kept sorted
// and non-overlapping. The structure supports both the SLRH append-mostly
// workload and Max-Max hole-filling ("a sufficiently large hole in the
// existing schedule", paper §V) through earliest_fit().
//
// Storage is CHUNKED: the sorted interval sequence is partitioned into
// consecutive chunks of at most kChunkCap intervals, each carrying the
// maximum length of the gaps it owns. A gap is the free space immediately
// before an interval (the chunk's first interval owns the boundary gap from
// the previous chunk's last end; the global first interval's gap runs from
// cycle 0; the open gap after the last interval is implicit). Keyed by start
// order, the gaps tile the free space exactly with no adjacent-gap
// fragmentation: every maximal free range is exactly one gap.
//
// Why chunks instead of the earlier flat vector + block maxima: a flat
// array makes EVERY mid-timeline mutation O(n) twice over — the vector
// memmove of the interval suffix and the rebuild of every gap block after
// the mutation point (gap indices shift, so all later block maxima are
// stale). Chunked storage confines both costs to one chunk: a mutation
// memmoves at most kChunkCap intervals and recomputes at most two chunk
// maxima (the mutated chunk and its successor, whose leading boundary gap
// may have changed), independent of n. Appends — the SLRH hot path — update
// the last chunk's maximum in O(1). Queries skip whole chunks via their
// maxima exactly as the flat index skipped blocks: O(n / kChunkCap +
// kChunkCap) probes. tests/oracles.hpp keeps a from-scratch brute-force gap
// scan as the test-only reference; the two are asserted equal under
// randomized insert/erase churn by tests/test_timeline.cpp.

#include <cstddef>
#include <vector>

#include "support/units.hpp"

namespace ahg::sim {

struct Interval {
  Cycles start = 0;
  Cycles end = 0;  ///< exclusive
  Cycles duration() const noexcept { return end - start; }
  friend bool operator==(const Interval&, const Interval&) = default;
};

class Timeline {
 public:
  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  /// The busy intervals in start order, materialized into one flat vector
  /// (the storage itself is chunked). Consumers iterate for rendering and
  /// test oracles; none sit on a hot path.
  std::vector<Interval> intervals() const;

  /// End of the last busy interval (0 when empty): the earliest time at
  /// which an append-only scheduler may start new work.
  Cycles ready_time() const noexcept {
    return chunks_.empty() ? 0 : chunks_.back().ivs.back().end;
  }

  /// True iff [start, start+duration) does not overlap any busy interval.
  /// Zero-duration queries are always free.
  bool is_free(Cycles start, Cycles duration) const;

  /// Earliest s >= not_before such that [s, s+duration) is free. May land in
  /// an interior hole (Max-Max backfill) or after ready_time(). A zero
  /// duration fits anywhere: returns not_before. Served by the chunked hole
  /// index (see the header comment).
  Cycles earliest_fit(Cycles not_before, Cycles duration) const;

  /// Earliest s >= not_before such that [s, s+duration) is simultaneously
  /// free on both timelines (pairing a sender's tx channel with a receiver's
  /// rx channel).
  static Cycles earliest_fit_pair(const Timeline& a, const Timeline& b,
                                  Cycles not_before, Cycles duration);

  /// Insert a busy interval; throws PreconditionError on overlap, negative
  /// start, or non-positive duration.
  void insert(Cycles start, Cycles duration);

  /// Remove an exact previously-inserted interval (used by the dynamic
  /// machine-loss extension to un-schedule work from a lost machine).
  /// Throws if no exact match exists.
  void erase(Cycles start, Cycles duration);

  /// Total busy cycles.
  Cycles busy_cycles() const noexcept;

  /// Heap bytes held by the chunked storage (interval capacity plus chunk
  /// directory). Feeds the memory-telemetry gauge memory.timeline_bytes.
  std::size_t memory_bytes() const noexcept {
    std::size_t bytes = chunks_.capacity() * sizeof(Chunk);
    for (const Chunk& chunk : chunks_) {
      bytes += chunk.ivs.capacity() * sizeof(Interval);
    }
    return bytes;
  }

 private:
  /// Split threshold. 256 intervals (4 KiB) keep a chunk's memmove and
  /// max-gap recompute within a few cache lines of work while dividing the
  /// chunk-maxima scan of a 64k-interval timeline into ~256-512 chunks.
  static constexpr std::size_t kChunkCap = 256;

  /// One run of consecutive intervals plus the widest gap it owns.
  struct Chunk {
    std::vector<Interval> ivs;  ///< sorted, disjoint, never empty
    Cycles max_gap = 0;         ///< max over the gaps before each interval
  };

  struct Pos {
    std::size_t chunk = 0;  ///< == chunks_.size() when past the end
    std::size_t slot = 0;
  };

  /// End of the interval preceding slot (c, i) in global order (0 at the
  /// global front). The chunk's first slot reaches into the previous chunk.
  Cycles pred_end(std::size_t c, std::size_t i) const noexcept {
    if (i > 0) return chunks_[c].ivs[i - 1].end;
    return c > 0 ? chunks_[c - 1].ivs.back().end : 0;
  }

  /// Recompute chunks_[c].max_gap from its gaps (no-op past the end).
  void recompute_max_gap(std::size_t c) noexcept;

  /// First interval (in global order) whose end > value, or a past-the-end
  /// Pos. Binary search over the chunk directory, then within the chunk.
  Pos first_end_after(Cycles value) const noexcept;

  /// Split chunks_[c] into two halves (directory insert + max recompute).
  void split_chunk(std::size_t c);

  std::vector<Chunk> chunks_;  ///< start-ordered, non-empty chunks
  std::size_t size_ = 0;       ///< total interval count across chunks
};

}  // namespace ahg::sim
