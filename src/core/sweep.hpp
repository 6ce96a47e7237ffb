#pragma once
// Cross-tick skip verdicts for the clock-driven SLRH driver (DESIGN.md §4h).
//
// Cross-tick pool reuse. When a (machine, timestep) scope ends without
// committing anything, the driver records a skip verdict: the smallest
// proven lower bound on a beyond-horizon arrival in the scope — exact when
// the candidate was planned, the gather's arrival_lb for a dead slot (one
// the walk never visits; the stalled walk folds the dead slots' minimum in
// once) — tagged with the frontier revision. While the revision stands, the
// machine's pool membership is unchanged (same ready set, same per-machine
// energy admission); plan_placement arrivals are monotone non-decreasing in
// the probe clock and in channel/compute bookings, and the gather's bound in
// the probe clock — so a later tick with clock' + H < min_arrival provably
// maps nothing, and the whole scope collapses to this O(1) test. Skipping a
// scope that would commit nothing leaves the schedule bit-identical to the
// rebuild-everything sweep; only pool-build counts (and their telemetry)
// differ. The gather rows and the live/dead split (DESIGN.md §4k) made
// rebuilds cheaper, and the skip still pays (bench.SLRH-3_sweep_speedup).
//
// One signal: the frontier revision (ReadyFrontier::revision) moves on every
// commit and every ready-set join. Energy ledgers change only in
// commit_placement, and every commit the driver makes is mirrored into the
// frontier in the same branch, so an unchanged revision also means no
// battery moved. Departures and orphan recovery happen between drive
// windows, and a SweepContext lives for exactly one drive_slrh window, so
// churn segment boundaries drop all cached state wholesale; nothing
// survives a schedule rebuild.

#include <cstdint>
#include <limits>
#include <vector>

#include "support/units.hpp"

namespace ahg::core {

/// Per-drive-window skip-verdict state. Pure bookkeeping: nothing in here
/// reads the schedule or scenario; the driver feeds it scope outcomes and
/// asks one O(1) question (can_skip).
class SweepContext {
 public:
  /// min-arrival sentinel for an empty pool: no candidate exists, so the
  /// skip test passes at every clock while the revision stands.
  static constexpr Cycles kNoArrival = std::numeric_limits<Cycles>::max();

  explicit SweepContext(std::size_t num_machines) : verdicts_(num_machines) {}

  /// True when the recorded verdict proves machine `machine` cannot commit
  /// anything at `clock`: frontier revision unchanged since the verdict was
  /// recorded and clock + horizon below the proven minimum arrival.
  bool can_skip(MachineId machine, Cycles clock, Cycles horizon,
                std::uint64_t frontier_revision) const noexcept {
    const Verdict& v = verdicts_[static_cast<std::size_t>(machine)];
    if (!v.valid || v.frontier_revision != frontier_revision) return false;
    return v.min_arrival == kNoArrival || clock + horizon < v.min_arrival;
  }

  /// Record a no-commit scope outcome. `min_arrival` is the smallest proven
  /// lower bound on a beyond-horizon arrival across the scope's walk (exact
  /// for a planned candidate; kNoArrival for an empty pool). Only call for a
  /// scope that committed nothing: its one pool was then built at the
  /// CURRENT revision. A pool predating a commit may be missing
  /// commit-enabled candidates, and a verdict taken from it would skip them
  /// forever. Stale verdicts need no explicit invalidation: every commit
  /// bumps the frontier revision, so the compare in can_skip retires them.
  void record_verdict(MachineId machine, Cycles min_arrival,
                      std::uint64_t frontier_revision) {
    verdicts_[static_cast<std::size_t>(machine)] = {min_arrival, frontier_revision,
                                                    true};
  }

 private:
  struct Verdict {
    Cycles min_arrival = 0;
    std::uint64_t frontier_revision = 0;
    bool valid = false;
  };

  std::vector<Verdict> verdicts_;
};

}  // namespace ahg::core
