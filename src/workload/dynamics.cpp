#include "workload/dynamics.hpp"

#include <algorithm>
#include <cmath>

#include "support/contract.hpp"
#include "support/distributions.hpp"
#include "support/rng.hpp"

namespace ahg::workload {

std::vector<Cycles> generate_release_times(const ReleaseParams& params, const Dag& dag,
                                           Cycles tau, std::uint64_t seed) {
  AHG_EXPECTS_MSG(params.spread_fraction >= 0.0 && params.spread_fraction <= 1.0,
                  "spread fraction must be in [0, 1]");
  AHG_EXPECTS_MSG(tau > 0, "tau must be positive");

  Rng rng(seed);
  std::vector<Cycles> releases(dag.num_nodes(), 0);
  if (params.spread_fraction == 0.0) return releases;

  const auto horizon =
      static_cast<Cycles>(params.spread_fraction * static_cast<double>(tau));
  // Topological order guarantees parents are drawn before children, so
  // monotonicity is enforced by lower-bounding at the parents' maximum.
  for (const TaskId task : dag.topological_order()) {
    Cycles lower = 0;
    for (const TaskId parent : dag.parents(task)) {
      lower = std::max(lower, releases[static_cast<std::size_t>(parent)]);
    }
    releases[static_cast<std::size_t>(task)] =
        lower >= horizon ? lower : rng.uniform_int(lower, horizon);
  }
  return releases;
}

std::vector<Scenario::LinkOutage> generate_link_outages(const OutageParams& params,
                                                        std::size_t num_machines,
                                                        Cycles tau,
                                                        std::uint64_t seed) {
  AHG_EXPECTS_MSG(params.outages_per_machine >= 0.0, "outage count must be >= 0");
  AHG_EXPECTS_MSG(params.mean_duration_seconds > 0.0, "outage duration must be > 0");
  AHG_EXPECTS_MSG(num_machines > 0, "need at least one machine");
  AHG_EXPECTS_MSG(tau > 0, "tau must be positive");

  Rng rng(seed);
  const GammaDist duration_dist =
      GammaDist::from_mean_cv(params.mean_duration_seconds, params.duration_cv);

  std::vector<Scenario::LinkOutage> outages;
  for (std::size_t j = 0; j < num_machines; ++j) {
    const auto count = static_cast<std::size_t>(params.outages_per_machine);
    // Draw starts, then resolve overlaps by sorting and clipping.
    std::vector<std::pair<Cycles, Cycles>> windows;  // (start, duration)
    for (std::size_t k = 0; k < count; ++k) {
      const Cycles start = rng.uniform_int(0, tau - 1);
      Cycles duration = cycles_from_seconds(duration_dist.sample(rng));
      if (duration < 1) duration = 1;
      windows.emplace_back(start, duration);
    }
    std::sort(windows.begin(), windows.end());
    Cycles cursor = 0;
    for (auto [start, duration] : windows) {
      start = std::max(start, cursor);       // push past the previous outage
      if (start >= tau) break;               // no room left in the window
      duration = std::min<Cycles>(duration, tau - start);
      outages.push_back(
          Scenario::LinkOutage{static_cast<MachineId>(j), start, duration});
      cursor = start + duration;
    }
  }
  return outages;
}

const char* to_string(DepartureCause cause) noexcept {
  switch (cause) {
    case DepartureCause::None: return "none";
    case DepartureCause::WalkOut: return "walk_out";
    case DepartureCause::BatteryDeath: return "battery_death";
  }
  return "unknown";
}

ChurnTrace generate_machine_churn(const ChurnParams& params, std::size_t num_machines,
                                  Cycles tau, std::uint64_t seed) {
  AHG_EXPECTS_MSG(params.departures_per_machine >= 0.0, "departure rate must be >= 0");
  AHG_EXPECTS_MSG(params.battery_death_fraction >= 0.0 &&
                      params.battery_death_fraction <= 1.0,
                  "battery death fraction must be in [0, 1]");
  AHG_EXPECTS_MSG(params.battery_death_mean_fraction > 0.0,
                  "battery death mean fraction must be > 0");
  AHG_EXPECTS_MSG(params.late_join_fraction >= 0.0 && params.late_join_fraction <= 1.0,
                  "late join fraction must be in [0, 1]");
  AHG_EXPECTS_MSG(params.max_join_fraction >= 0.0 && params.max_join_fraction <= 1.0,
                  "max join fraction must be in [0, 1]");
  AHG_EXPECTS_MSG(num_machines > 0, "need at least one machine");
  AHG_EXPECTS_MSG(tau > 0, "tau must be positive");

  Rng rng(seed);
  const GammaDist lifetime_dist = GammaDist::from_mean_cv(
      params.battery_death_mean_fraction * static_cast<double>(tau),
      params.battery_death_cv);

  ChurnTrace trace;
  trace.windows.assign(num_machines, Scenario::MachineWindow{});
  trace.causes.assign(num_machines, DepartureCause::None);

  for (std::size_t j = 0; j < num_machines; ++j) {
    // Fixed draw order per machine (join, walk-out, battery) keeps the trace
    // stable under parameter tweaks that only disable individual mechanisms.
    Cycles join = 0;
    if (rng.bernoulli(params.late_join_fraction)) {
      const auto latest = static_cast<Cycles>(params.max_join_fraction *
                                              static_cast<double>(tau));
      if (latest >= 1) join = rng.uniform_int(1, latest);
    }

    Cycles depart = Scenario::kNoDeparture;
    DepartureCause cause = DepartureCause::None;
    if (params.departures_per_machine > 0.0) {
      // First event of a Poisson process with the given expected count over
      // [0, tau]: exponential with mean tau / rate, measured from the join.
      const double mean =
          static_cast<double>(tau) / params.departures_per_machine;
      const double wait = -mean * std::log(1.0 - rng.next_double());
      const auto walk_out = join + static_cast<Cycles>(wait);
      if (walk_out < depart) {
        depart = walk_out;
        cause = DepartureCause::WalkOut;
      }
    }
    if (rng.bernoulli(params.battery_death_fraction)) {
      const auto lifetime = static_cast<Cycles>(lifetime_dist.sample(rng));
      const Cycles death = join + std::max<Cycles>(lifetime, 1);
      if (death < depart) {
        depart = death;
        cause = DepartureCause::BatteryDeath;
      }
    }
    if (depart >= tau) {  // outlives the deadline window: effectively stays
      depart = Scenario::kNoDeparture;
      cause = DepartureCause::None;
    }
    if (depart != Scenario::kNoDeparture && depart <= join) depart = join + 1;

    // Machine 0 stays for the whole run so a completing schedule always
    // exists (someone must be left to finish the work).
    if (j == 0) {
      join = 0;
      depart = Scenario::kNoDeparture;
      cause = DepartureCause::None;
    }
    trace.windows[j] = Scenario::MachineWindow{join, depart};
    trace.causes[j] = cause;
  }
  return trace;
}

}  // namespace ahg::workload
