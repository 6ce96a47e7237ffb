#pragma once
// Cross-tick skip verdicts for the clock-driven SLRH driver (DESIGN.md §4h).
//
// Cross-tick pool reuse. When a (machine, timestep) scope ends without
// committing anything, the driver records a skip verdict: the smallest
// beyond-horizon arrival the scope proved, tagged with the frontier revision
// and the machine's energy epoch. While both epochs stand, the machine's
// pool membership is unchanged (same ready set, same per-machine energy
// admission) and plan_placement arrivals are monotone non-decreasing in the
// probe clock and in channel/compute bookings — so a later tick with
// clock' + H < min_arrival provably maps nothing, and the whole scope
// collapses to this O(1) test. Skipping a scope that would commit nothing
// leaves the schedule bit-identical to the rebuild-everything sweep; only
// pool-build counts (and their telemetry) differ.
//
// Epochs: the frontier revision (ReadyFrontier::revision) moves on every
// commit and every ready-list insertion; energy_epoch(m) counts the commits that touched machine m's energy ledger
// (the executing machine — exec charge, released-parent hold settles,
// child-edge reservations — plus every transfer's sending machine). A
// SweepContext lives for exactly one drive_slrh window, so churn segment
// boundaries (departures, joins, orphan recovery) drop all cached state
// wholesale; nothing survives a schedule rebuild.

#include <cstdint>
#include <limits>
#include <vector>

#include "core/placement.hpp"

namespace ahg::core {

/// Per-drive-window skip-verdict state. Pure bookkeeping: nothing in here
/// reads the schedule or scenario; the driver feeds it commits and scope
/// outcomes and asks one O(1) question (can_skip).
class SweepContext {
 public:
  /// min-arrival sentinel for an empty pool: no candidate exists, so the
  /// skip test passes at every clock while the epochs stand.
  static constexpr Cycles kNoArrival = std::numeric_limits<Cycles>::max();

  explicit SweepContext(std::size_t num_machines)
      : energy_epoch_(num_machines, 0), verdicts_(num_machines) {}

  // --- epoch bookkeeping ---------------------------------------------------

  std::uint64_t energy_epoch(MachineId machine) const noexcept {
    return energy_epoch_[static_cast<std::size_t>(machine)];
  }

  /// Record a committed placement: bumps the energy epoch of every machine
  /// whose energy ledger the commit touched — the executing machine and each
  /// transfer's sender (commit_placement charges or settles nothing anywhere
  /// else).
  void note_commit(const PlacementPlan& plan);

  // --- cross-tick skip verdicts --------------------------------------------

  /// True when the recorded verdict proves machine `machine` cannot commit
  /// anything at `clock`: both epochs unchanged since the verdict was
  /// recorded and clock + horizon below the proven minimum arrival.
  bool can_skip(MachineId machine, Cycles clock, Cycles horizon,
                std::uint64_t frontier_revision) const noexcept {
    const Verdict& v = verdicts_[static_cast<std::size_t>(machine)];
    if (!v.valid || v.frontier_revision != frontier_revision ||
        v.energy_epoch != energy_epoch_[static_cast<std::size_t>(machine)]) {
      return false;
    }
    return v.min_arrival == kNoArrival || clock + horizon < v.min_arrival;
  }

  /// Record a no-commit scope outcome. `min_arrival` is the smallest
  /// beyond-horizon arrival proven across the scope's walks (kNoArrival for
  /// an empty pool). Only call when the scope's LAST pool was built at the
  /// CURRENT (frontier revision, energy epoch) — a pool predating a
  /// mid-scope commit may be missing commit-enabled candidates, and a
  /// verdict taken from it would skip them forever. Stale verdicts need no
  /// explicit invalidation: every commit bumps the frontier revision, so
  /// the epoch compare in can_skip retires them automatically.
  void record_verdict(MachineId machine, Cycles min_arrival,
                      std::uint64_t frontier_revision) {
    Verdict& v = verdicts_[static_cast<std::size_t>(machine)];
    v.min_arrival = min_arrival;
    v.frontier_revision = frontier_revision;
    v.energy_epoch = energy_epoch_[static_cast<std::size_t>(machine)];
    v.valid = true;
  }

 private:
  struct Verdict {
    Cycles min_arrival = 0;
    std::uint64_t frontier_revision = 0;
    std::uint64_t energy_epoch = 0;
    bool valid = false;
  };

  std::vector<std::uint64_t> energy_epoch_;
  std::vector<Verdict> verdicts_;
};

}  // namespace ahg::core
