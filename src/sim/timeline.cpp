#include "sim/timeline.hpp"

#include <algorithm>

#include "support/contract.hpp"

namespace ahg::sim {

std::vector<Interval> Timeline::intervals() const {
  std::vector<Interval> out;
  out.reserve(size_);
  for (const Chunk& chunk : chunks_) {
    out.insert(out.end(), chunk.ivs.begin(), chunk.ivs.end());
  }
  return out;
}

Timeline::Pos Timeline::first_end_after(Cycles value) const noexcept {
  // First chunk whose last interval ends after `value`; earlier chunks are
  // entirely in the past.
  const auto chunk_it = std::lower_bound(
      chunks_.begin(), chunks_.end(), value,
      [](const Chunk& chunk, Cycles v) { return chunk.ivs.back().end <= v; });
  if (chunk_it == chunks_.end()) return Pos{chunks_.size(), 0};
  const auto slot_it = std::lower_bound(
      chunk_it->ivs.begin(), chunk_it->ivs.end(), value,
      [](const Interval& iv, Cycles v) { return iv.end <= v; });
  return Pos{static_cast<std::size_t>(chunk_it - chunks_.begin()),
             static_cast<std::size_t>(slot_it - chunk_it->ivs.begin())};
}

void Timeline::recompute_max_gap(std::size_t c) noexcept {
  if (c >= chunks_.size()) return;
  Chunk& chunk = chunks_[c];
  Cycles widest = chunk.ivs[0].start - pred_end(c, 0);
  for (std::size_t i = 1; i < chunk.ivs.size(); ++i) {
    widest = std::max(widest, chunk.ivs[i].start - chunk.ivs[i - 1].end);
  }
  chunk.max_gap = widest;
}

bool Timeline::is_free(Cycles start, Cycles duration) const {
  AHG_EXPECTS_MSG(start >= 0, "interval start must be non-negative");
  AHG_EXPECTS_MSG(duration >= 0, "interval duration must be non-negative");
  if (duration == 0) return true;
  const Pos p = first_end_after(start);
  if (p.chunk == chunks_.size()) return true;
  return chunks_[p.chunk].ivs[p.slot].start >= start + duration;
}

Cycles Timeline::earliest_fit(Cycles not_before, Cycles duration) const {
  AHG_EXPECTS_MSG(not_before >= 0, "not_before must be non-negative");
  AHG_EXPECTS_MSG(duration >= 0, "duration must be non-negative");
  if (duration == 0) return not_before;
  // First busy interval ending after not_before; everything earlier is
  // irrelevant. Its preceding gap is truncated at not_before, so it needs a
  // bespoke check; every later gap has its full indexed length.
  const Pos p = first_end_after(not_before);
  if (p.chunk == chunks_.size()) return not_before;  // past the whole schedule
  const Chunk& lead = chunks_[p.chunk];
  if (lead.ivs[p.slot].start - not_before >= duration) return not_before;
  // Partial leading chunk: its maximum covers gaps at or before p.slot too,
  // so it cannot prove a fit — but max < duration still proves NO gap in the
  // chunk fits (a suffix maximum is bounded by the chunk maximum), which
  // skips the common dense case without scanning.
  if (lead.max_gap >= duration) {
    for (std::size_t i = p.slot + 1; i < lead.ivs.size(); ++i) {
      if (lead.ivs[i].start - lead.ivs[i - 1].end >= duration) {
        return lead.ivs[i - 1].end;
      }
    }
  }
  // Whole chunks: skip via the maxima, then scan the first chunk that fits.
  for (std::size_t c = p.chunk + 1; c < chunks_.size(); ++c) {
    const Chunk& chunk = chunks_[c];
    if (chunk.max_gap < duration) continue;
    if (chunk.ivs[0].start - pred_end(c, 0) >= duration) return pred_end(c, 0);
    for (std::size_t i = 1; i < chunk.ivs.size(); ++i) {
      if (chunk.ivs[i].start - chunk.ivs[i - 1].end >= duration) {
        return chunk.ivs[i - 1].end;
      }
    }
    AHG_EXPECTS_MSG(false, "hole index chunk maximum out of sync with gaps");
  }
  return chunks_.back().ivs.back().end;
}

Cycles Timeline::earliest_fit_pair(const Timeline& a, const Timeline& b,
                                   Cycles not_before, Cycles duration) {
  AHG_EXPECTS_MSG(not_before >= 0, "not_before must be non-negative");
  AHG_EXPECTS_MSG(duration >= 0, "duration must be non-negative");
  if (duration == 0) return not_before;
  Cycles candidate = not_before;
  // Alternate: let each timeline push the candidate forward until both are
  // simultaneously free. Each push moves past at least one busy interval, so
  // this terminates in O(|a| + |b|) probes.
  for (;;) {
    const Cycles fit_a = a.earliest_fit(candidate, duration);
    const Cycles fit_b = b.earliest_fit(fit_a, duration);
    if (fit_a == fit_b && a.is_free(fit_b, duration)) return fit_b;
    candidate = fit_b;
  }
}

void Timeline::split_chunk(std::size_t c) {
  Chunk& chunk = chunks_[c];
  const std::size_t half = chunk.ivs.size() / 2;
  Chunk tail;
  tail.ivs.assign(chunk.ivs.begin() + static_cast<std::ptrdiff_t>(half),
                  chunk.ivs.end());
  chunk.ivs.erase(chunk.ivs.begin() + static_cast<std::ptrdiff_t>(half),
                  chunk.ivs.end());
  chunks_.insert(chunks_.begin() + static_cast<std::ptrdiff_t>(c) + 1,
                 std::move(tail));
  recompute_max_gap(c);
  recompute_max_gap(c + 1);
}

void Timeline::insert(Cycles start, Cycles duration) {
  AHG_EXPECTS_MSG(start >= 0, "interval start must be non-negative");
  AHG_EXPECTS_MSG(duration > 0, "inserted interval must have positive duration");
  AHG_EXPECTS_MSG(is_free(start, duration), "overlapping timeline insertion");
  const Interval iv{start, start + duration};
  ++size_;
  if (chunks_.empty()) {
    chunks_.push_back(Chunk{{iv}, start});
    return;
  }
  // Append fast path (the SLRH workload): the new interval follows the last;
  // the only new gap is its own leading one, so the chunk maximum updates in
  // O(1) and no other chunk is affected.
  if (start >= chunks_.back().ivs.back().end) {
    if (chunks_.back().ivs.size() >= kChunkCap) split_chunk(chunks_.size() - 1);
    Chunk& last = chunks_.back();
    last.max_gap = std::max(last.max_gap, start - last.ivs.back().end);
    last.ivs.push_back(iv);
    return;
  }
  // Interior insert. The target chunk is the first whose last interval
  // starts after `start` (equality is impossible: it would overlap). The
  // append path above handled start past every interval, so one exists.
  std::size_t c = static_cast<std::size_t>(
      std::lower_bound(chunks_.begin(), chunks_.end(), start,
                       [](const Chunk& chunk, Cycles v) {
                         return chunk.ivs.back().start < v;
                       }) -
      chunks_.begin());
  if (chunks_[c].ivs.size() >= kChunkCap) {
    split_chunk(c);
    if (start > chunks_[c].ivs.back().start) ++c;
  }
  Chunk& chunk = chunks_[c];
  const auto slot_it = std::lower_bound(
      chunk.ivs.begin(), chunk.ivs.end(), start,
      [](const Interval& lhs, Cycles v) { return lhs.start < v; });
  chunk.ivs.insert(slot_it, iv);
  // The insertion split one of the chunk's gaps in two; both pieces belong
  // to this chunk (the slot is never past the chunk's last interval), so
  // only this chunk's maximum is stale.
  recompute_max_gap(c);
}

void Timeline::erase(Cycles start, Cycles duration) {
  const Interval iv{start, start + duration};
  // Intervals are disjoint and sorted by start, so an exact match can only
  // sit at the lower bound for `start`.
  const auto chunk_it = std::lower_bound(
      chunks_.begin(), chunks_.end(), start,
      [](const Chunk& chunk, Cycles v) { return chunk.ivs.back().start < v; });
  bool found = false;
  std::size_t c = 0;
  std::size_t slot = 0;
  if (chunk_it != chunks_.end()) {
    const auto slot_it = std::lower_bound(
        chunk_it->ivs.begin(), chunk_it->ivs.end(), start,
        [](const Interval& lhs, Cycles v) { return lhs.start < v; });
    if (slot_it != chunk_it->ivs.end() && *slot_it == iv) {
      found = true;
      c = static_cast<std::size_t>(chunk_it - chunks_.begin());
      slot = static_cast<std::size_t>(slot_it - chunk_it->ivs.begin());
    }
  }
  AHG_EXPECTS_MSG(found, "erase of an interval that was never inserted");
  --size_;
  Chunk& chunk = chunks_[c];
  chunk.ivs.erase(chunk.ivs.begin() + static_cast<std::ptrdiff_t>(slot));
  if (chunk.ivs.empty()) {
    // The chunk dissolved; its neighbour gaps merged into the successor's
    // leading boundary gap.
    chunks_.erase(chunks_.begin() + static_cast<std::ptrdiff_t>(c));
    recompute_max_gap(c);
    return;
  }
  // The two gaps around the removed interval merged. The merged gap belongs
  // to this chunk — unless the chunk's LAST interval was removed, in which
  // case it became the successor's leading boundary gap.
  recompute_max_gap(c);
  if (slot == chunk.ivs.size()) recompute_max_gap(c + 1);
}

Cycles Timeline::busy_cycles() const noexcept {
  Cycles total = 0;
  for (const Chunk& chunk : chunks_) {
    for (const Interval& iv : chunk.ivs) total += iv.duration();
  }
  return total;
}

}  // namespace ahg::sim
