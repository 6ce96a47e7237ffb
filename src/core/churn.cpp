#include "core/churn.hpp"

#include <algorithm>
#include <numeric>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/placement.hpp"
#include "core/scoring.hpp"
#include "core/taps.hpp"
#include "sim/comm.hpp"
#include "support/contract.hpp"
#include "support/stopwatch.hpp"

namespace ahg::core {

const char* to_string(ChurnRecovery recovery) noexcept {
  switch (recovery) {
    case ChurnRecovery::Remap: return "remap";
    case ChurnRecovery::Degrade: return "degrade";
  }
  return "unknown";
}

namespace detail {

void close_invalid(const workload::Scenario& scenario, const sim::Schedule& schedule,
                   const std::vector<char>& departed, std::vector<char>& invalid,
                   std::vector<TaskId> worklist) {
  const auto flag = [&](TaskId t) -> char& {
    return invalid[static_cast<std::size_t>(t)];
  };
  const auto push = [&](TaskId t) {
    flag(t) = 1;
    worklist.push_back(t);
  };
  while (!worklist.empty()) {
    const TaskId t = worklist.back();
    worklist.pop_back();
    // R1: every mapped descendant goes with it.
    for (const TaskId child : scenario.dag.children(t)) {
      if (schedule.is_assigned(child) && flag(child) == 0) push(child);
    }
    // R2: a departed parent whose data-carrying output t consumed lost it.
    for (const TaskId parent : scenario.dag.parents(t)) {
      if (!schedule.is_assigned(parent) || flag(parent) != 0) continue;
      const auto& pa = schedule.assignment(parent);
      if (departed[static_cast<std::size_t>(pa.machine)] == 0) continue;
      if (scenario.edge_bits(parent, t, pa.version) > 0.0) push(parent);
    }
  }
}

std::vector<char> compute_invalid(const workload::Scenario& scenario,
                                  const sim::Schedule& schedule,
                                  const std::vector<char>& departed,
                                  std::vector<char> invalid) {
  const auto num_tasks = static_cast<TaskId>(scenario.num_tasks());
  const auto on_departed = [&](TaskId t) {
    return schedule.is_assigned(t) &&
           departed[static_cast<std::size_t>(schedule.assignment(t).machine)] != 0;
  };

  // Only departed senders' transfers are ever looked up.
  std::unordered_map<std::uint64_t, Cycles> comm_finish;
  for (const auto& ev : schedule.comm_events()) {
    if (!on_departed(ev.from_task)) continue;
    comm_finish.emplace(sim::edge_key(ev.from_task, ev.to_task), ev.finish);
  }
  // R0: a data-carrying output of t no surviving flag can satisfy — the child
  // is unmapped, or sits on another machine without a transfer that finished
  // before the departure.
  const auto output_unsatisfied = [&](TaskId t, const sim::Assignment& a,
                                      Cycles depart) {
    for (const TaskId child : scenario.dag.children(t)) {
      if (scenario.edge_bits(t, child, a.version) <= 0.0) continue;
      if (!schedule.is_assigned(child)) return true;
      if (schedule.assignment(child).machine == a.machine) continue;
      const auto it = comm_finish.find(sim::edge_key(t, child));
      if (it == comm_finish.end() || it->second > depart) return true;
    }
    return false;
  };

  std::vector<TaskId> worklist;
  for (TaskId t = 0; t < num_tasks; ++t) {
    if (invalid[static_cast<std::size_t>(t)] != 0) {
      worklist.push_back(t);
      continue;
    }
    if (!on_departed(t)) continue;
    const auto& a = schedule.assignment(t);
    const Cycles depart = scenario.machine_depart(a.machine);
    if (a.finish > depart || output_unsatisfied(t, a, depart)) {
      invalid[static_cast<std::size_t>(t)] = 1;
      worklist.push_back(t);
    }
  }
  close_invalid(scenario, schedule, departed, invalid, std::move(worklist));
  return invalid;
}

std::shared_ptr<sim::Schedule> replay_survivors(const workload::Scenario& target,
                                                const sim::Schedule& before,
                                                std::vector<char>& invalid,
                                                const std::vector<char>& departed,
                                                const std::vector<MachineId>& machine_of) {
  constexpr double kLedgerEps = 1e-9;  // sim/energy.cpp's overdraw tolerance
  const auto num_tasks = static_cast<TaskId>(target.num_tasks());
  const auto to_target = [&](MachineId m) {
    return machine_of[static_cast<std::size_t>(m)];
  };
  const auto kept = [&](TaskId t) {
    return before.is_assigned(t) && invalid[static_cast<std::size_t>(t)] == 0;
  };
  for (;;) {
    auto schedule = make_schedule(target);
    for (const auto& ev : before.comm_events()) {
      if (!kept(ev.from_task) || !kept(ev.to_task)) continue;
      schedule->add_comm(ev.from_task, ev.to_task, to_target(ev.from_machine),
                         to_target(ev.to_machine), ev.start, ev.finish - ev.start,
                         ev.bits, ev.energy);
    }
    for (const TaskId t : before.assignment_order()) {
      if (!kept(t)) continue;
      const auto& a = before.assignment(t);
      schedule->add_assignment(t, to_target(a.machine), a.version, a.start,
                               a.finish - a.start, a.energy);
    }
    TaskId unaffordable = kInvalidTask;
    for (TaskId t = 0; t < num_tasks && unaffordable == kInvalidTask; ++t) {
      if (!kept(t)) continue;
      const auto& a = before.assignment(t);
      const MachineId machine = to_target(a.machine);
      for (const TaskId child : target.dag.children(t)) {
        if (schedule->is_assigned(child)) continue;
        const double bits = target.edge_bits(t, child, a.version);
        if (bits <= 0.0) continue;
        // A kept task on a departed machine cannot reach here: a data edge to
        // an unmapped child would have invalidated it.
        const auto& spec = target.grid.machine(machine);
        const Cycles wc = sim::worst_case_transfer_cycles(bits, target.grid);
        const double hold = sim::transfer_energy(spec, wc);
        if (hold > schedule->energy().available(machine) + kLedgerEps) {
          unaffordable = t;
          break;
        }
        schedule->ledger().reserve(machine, sim::edge_key(t, child), hold);
      }
    }
    if (unaffordable == kInvalidTask) return schedule;
    invalid[static_cast<std::size_t>(unaffordable)] = 1;
    close_invalid(target, before, departed, invalid, {unaffordable});
  }
}

}  // namespace detail

namespace {

constexpr Cycles kNoDeparture = workload::Scenario::kNoDeparture;

/// First SLRH grid point at or after `time` — where a departure that fired
/// between timesteps is actually discovered ("react at the next dT").
Cycles next_timestep(Cycles time, Cycles dt) {
  return ((time + dt - 1) / dt) * dt;
}

}  // namespace

ChurnRunOutcome run_slrh_with_churn(const workload::Scenario& scenario,
                                    const SlrhParams& params,
                                    ChurnRecovery recovery) {
  params.validate();
  scenario.validate();
  AHG_EXPECTS_MSG(params.secondary_only == nullptr,
                  "the churn driver owns the degrade mask");

  // No presence windows, or windows with no events inside them: the plain
  // run (the sweep's availability check is vacuously true).
  ChurnRunOutcome outcome;
  struct Pending {
    Cycles process;
    MachineId machine;
    bool is_departure;
  };
  std::vector<Pending> pending;
  const auto num_machines = static_cast<MachineId>(scenario.num_machines());
  for (MachineId m = 0; m < num_machines && !scenario.machine_windows.empty(); ++m) {
    const auto& w = scenario.machine_windows[static_cast<std::size_t>(m)];
    if (w.join > 0) pending.push_back({next_timestep(w.join, params.dt), m, false});
    if (w.depart != kNoDeparture) {
      pending.push_back({next_timestep(w.depart, params.dt), m, true});
    }
  }
  if (pending.empty()) {
    outcome.result = run_slrh(scenario, params);
    return outcome;
  }
  std::sort(pending.begin(), pending.end(), [](const Pending& a, const Pending& b) {
    if (a.process != b.process) return a.process < b.process;
    if (a.is_departure != b.is_departure) return !a.is_departure;  // joins first
    return a.machine < b.machine;
  });

  const Stopwatch timer;
  Taps taps(scenario, params);
  const bool degrade = recovery == ChurnRecovery::Degrade;

  std::vector<std::uint8_t> degrade_mask(scenario.num_tasks(), 0);
  SlrhParams run_params = params;
  if (degrade) run_params.secondary_only = &degrade_mask;

  taps.on_run_begin(recovery);

  auto schedule = make_schedule(scenario);
  MappingResult& result = outcome.result;
  std::vector<char> departed(scenario.num_machines(), 0);
  std::vector<MachineId> same_ids(scenario.num_machines());
  std::iota(same_ids.begin(), same_ids.end(), MachineId{0});

  Cycles current = 0;
  std::size_t i = 0;
  while (i < pending.size()) {
    const Cycles process = pending[i].process;
    // A departure never interrupts the current segment — the loop reacts at
    // the next timestep, like any observer of an ad hoc grid.
    drive_slrh(scenario, run_params, *schedule, current, process, result, &taps);
    current = process;

    std::vector<MachineId> new_departures;
    for (; i < pending.size() && pending[i].process == process; ++i) {
      if (pending[i].is_departure) {
        departed[static_cast<std::size_t>(pending[i].machine)] = 1;
        new_departures.push_back(pending[i].machine);
      } else {
        taps.on_join(process, pending[i].machine);
      }
    }
    if (new_departures.empty()) continue;

    taps.on_recovery(process, outcome, [&] {
      // Invalidation closure; the replay grows it by every kept task whose
      // worst-case output hold its machine can no longer afford.
      std::vector<char> invalid = detail::compute_invalid(
          scenario, *schedule, departed, std::vector<char>(scenario.num_tasks(), 0));
      auto rebuilt =
          detail::replay_survivors(scenario, *schedule, invalid, departed, same_ids);
      // Seal the departed machines: compute blocked past any reachable clock
      // (defense in depth — the sweep already skips absentees) and the
      // stranded battery forfeited.
      for (MachineId m = 0; m < num_machines; ++m) {
        if (departed[static_cast<std::size_t>(m)] == 0) continue;
        rebuilt->block_compute(m, scenario.machine_depart(m), scenario.tau * 8 + 1);
        rebuilt->ledger().forfeit(m);
      }

      // Batch tallies: orphans are the unfinished subtasks on the machines
      // that departed THIS timestep; everything else newly invalid is
      // completed (or queued elsewhere) work lost to the cascade.
      const auto num_tasks = static_cast<TaskId>(scenario.num_tasks());
      std::vector<std::size_t> orphans_on(scenario.num_machines(), 0);
      std::size_t batch_orphaned = 0;
      std::size_t batch_invalid = 0;
      for (TaskId t = 0; t < num_tasks; ++t) {
        if (invalid[static_cast<std::size_t>(t)] == 0 || !schedule->is_assigned(t)) {
          continue;
        }
        ++batch_invalid;
        const auto& a = schedule->assignment(t);
        const bool new_machine =
            std::find(new_departures.begin(), new_departures.end(), a.machine) !=
            new_departures.end();
        const bool is_orphan =
            new_machine && a.finish > scenario.machine_depart(a.machine);
        taps.on_orphan(t, a.machine, process, is_orphan, degrade);
        if (is_orphan) {
          ++orphans_on[static_cast<std::size_t>(a.machine)];
          ++batch_orphaned;
        }
        if (degrade) degrade_mask[static_cast<std::size_t>(t)] = 1;
      }

      for (const MachineId m : new_departures) {
        ++outcome.departures_processed;
        const double forfeited = rebuilt->energy().forfeited(m);
        outcome.energy_forfeited += forfeited;
        taps.on_departure(process, m, orphans_on[static_cast<std::size_t>(m)],
                          batch_invalid - batch_orphaned, forfeited, *schedule,
                          *rebuilt);
      }
      outcome.orphaned += batch_orphaned;
      outcome.invalidated += batch_invalid - batch_orphaned;
      schedule = std::move(rebuilt);
    });
  }

  drive_slrh(scenario, run_params, *schedule, current, scenario.tau + 1, result,
             &taps);
  finalize_result(result, std::move(schedule), scenario.tau, timer.seconds());
  taps.on_run_end(outcome);
  return outcome;
}

StaticChurnReplay replay_static_under_churn(const workload::Scenario& scenario,
                                            const sim::Schedule& schedule) {
  scenario.validate();
  StaticChurnReplay out;

  std::unordered_map<std::uint64_t, const sim::CommEvent*> comms;
  for (const auto& ev : schedule.comm_events()) {
    comms.emplace(sim::edge_key(ev.from_task, ev.to_task), &ev);
  }
  const auto inside_window = [&](MachineId m, Cycles start, Cycles finish) {
    return scenario.machine_join(m) <= start && finish <= scenario.machine_depart(m);
  };

  std::vector<char> done(scenario.num_tasks(), 0);
  for (const TaskId t : scenario.dag.topological_order()) {
    if (!schedule.is_assigned(t)) continue;
    const auto& a = schedule.assignment(t);
    if (!inside_window(a.machine, a.start, a.finish)) continue;
    bool ok = true;
    for (const TaskId parent : scenario.dag.parents(t)) {
      if (done[static_cast<std::size_t>(parent)] == 0) {
        ok = false;
        break;
      }
      const auto& pa = schedule.assignment(parent);
      if (scenario.edge_bits(parent, t, pa.version) <= 0.0 ||
          pa.machine == a.machine) {
        continue;
      }
      const auto it = comms.find(sim::edge_key(parent, t));
      if (it == comms.end() ||
          !inside_window(it->second->from_machine, it->second->start,
                         it->second->finish) ||
          !inside_window(it->second->to_machine, it->second->start,
                         it->second->finish)) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    done[static_cast<std::size_t>(t)] = 1;
    ++out.completed;
    if (a.version == VersionKind::Primary) ++out.t100_completed;
    out.aet = std::max(out.aet, a.finish);
    out.tec += a.energy;
  }
  for (const auto& ev : schedule.comm_events()) {
    if (done[static_cast<std::size_t>(ev.from_task)] != 0 &&
        done[static_cast<std::size_t>(ev.to_task)] != 0) {
      out.tec += ev.energy;
    }
  }
  return out;
}

}  // namespace ahg::core
