#include "core/adaptive.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "core/churn.hpp"
#include "core/placement.hpp"
#include "core/upper_bound.hpp"
#include "support/contract.hpp"
#include "support/stopwatch.hpp"

namespace ahg::core {

Weights adapt_alpha(const Weights& weights, const workload::Scenario& original,
                    const workload::Scenario& degraded) {
  const double full = compute_upper_bound(original).tecc_seconds;
  const double left = compute_upper_bound(degraded).tecc_seconds;
  AHG_EXPECTS_MSG(full > 0.0, "original grid must have capacity");
  const double ratio = std::clamp(left / full, 0.0, 1.0);
  const double alpha = weights.alpha * ratio;
  // Preserve beta's share of what alpha gave up; gamma absorbs the rest.
  const double freed = weights.alpha - alpha;
  const double denom = weights.beta + weights.gamma;
  const double beta =
      denom > 0.0 ? weights.beta + freed * (weights.beta / denom) : weights.beta;
  return Weights::make(alpha, std::min(beta, 1.0 - alpha));
}

LossRunOutcome run_slrh_with_loss(const workload::Scenario& scenario,
                                  const Weights& weights,
                                  const MachineLossEvent& event, SlrhVariant variant,
                                  const SlrhClock& clock, bool adapt) {
  scenario.validate();
  AHG_EXPECTS_MSG(event.machine >= 0 &&
                      static_cast<std::size_t>(event.machine) < scenario.num_machines(),
                  "lost machine id out of range");
  AHG_EXPECTS_MSG(scenario.num_machines() > 1, "cannot lose the only machine");
  AHG_EXPECTS_MSG(event.time >= 0 && event.time <= scenario.tau,
                  "loss time must fall inside the scheduling window");

  const Stopwatch timer;

  // --- The degraded scenario: ids above the lost machine shift down. --------
  std::vector<MachineId> machine_of(scenario.num_machines());
  std::iota(machine_of.begin(), machine_of.end(), MachineId{0});
  for (MachineId& m : machine_of) {
    if (m > event.machine) --m;
  }
  machine_of[static_cast<std::size_t>(event.machine)] = kInvalidMachine;

  LossRunOutcome outcome{MappingResult{},
                         workload::Scenario{scenario.grid.without_machine(event.machine),
                                            scenario.dag,
                                            scenario.etc.without_machine(event.machine),
                                            scenario.data, scenario.versions,
                                            scenario.tau},
                         0, 0, weights};
  outcome.degraded_scenario.releases = scenario.releases;
  for (const auto& outage : scenario.link_outages) {
    if (outage.machine == event.machine) continue;  // its link died with it
    auto copy = outage;
    copy.machine = machine_of[static_cast<std::size_t>(outage.machine)];
    outcome.degraded_scenario.link_outages.push_back(copy);
  }
  const workload::Scenario& degraded = outcome.degraded_scenario;
  degraded.validate();

  // --- Phase 1: run on the full grid until the loss fires. ------------------
  SlrhParams params;
  params.variant = variant;
  params.weights = weights;
  params.dt = clock.dt;
  params.horizon = clock.horizon;

  const auto before = make_schedule(scenario);
  MappingResult& result = outcome.result;
  drive_slrh(scenario, params, *before, /*start_clock=*/0, /*end_clock=*/event.time,
             result);

  // --- Loss model: discard the lost machine's work and replay the rest. -----
  // Seeding every task on the lost machine leaves R2 nothing to add, so the
  // closure is the lost work plus its mapped descendants (R1).
  std::vector<char> invalid(scenario.num_tasks(), 0);
  std::vector<TaskId> seeds;
  for (const TaskId t : before->assignment_order()) {
    const auto& a = before->assignment(t);
    if (a.machine != event.machine) continue;
    if (a.finish <= event.time) ++outcome.completed_on_lost_machine;
    invalid[static_cast<std::size_t>(t)] = 1;
    seeds.push_back(t);
  }
  std::vector<char> departed(scenario.num_machines(), 0);
  departed[static_cast<std::size_t>(event.machine)] = 1;
  detail::close_invalid(scenario, *before, departed, invalid, std::move(seeds));
  auto schedule =
      detail::replay_survivors(degraded, *before, invalid, departed, machine_of);
  outcome.discarded =
      static_cast<std::size_t>(std::count(invalid.begin(), invalid.end(), 1));

  // --- Phase 2: resume on the degraded grid. ---------------------------------
  if (adapt) outcome.adapted_weights = adapt_alpha(weights, scenario, degraded);
  params.weights = outcome.adapted_weights;
  drive_slrh(degraded, params, *schedule, /*start_clock=*/event.time, degraded.tau + 1,
             result);
  finalize_result(result, std::move(schedule), scenario.tau, timer.seconds());
  return outcome;
}

}  // namespace ahg::core
