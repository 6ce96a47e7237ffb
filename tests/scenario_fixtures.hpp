#pragma once
// Hand-crafted tiny scenarios for the core-heuristic unit tests: explicit
// DAGs, ETC entries, and data sizes so expected starts/finishes/energies can
// be computed by hand.

#include <vector>

#include "workload/dynamics.hpp"
#include "workload/scenario.hpp"

namespace ahg::test {

struct EdgeSpec {
  TaskId parent;
  TaskId child;
  double bits;
};

/// Build a scenario over an explicit DAG and uniform ETC.
/// `etc_seconds[i][j]` gives the primary time of task i on machine j.
inline workload::Scenario make_scenario(
    sim::GridConfig grid, std::size_t num_tasks,
    const std::vector<EdgeSpec>& edges,
    const std::vector<std::vector<double>>& etc_seconds, Cycles tau) {
  workload::Dag dag(num_tasks);
  workload::DataSizes data;
  for (const auto& e : edges) {
    dag.add_edge(e.parent, e.child);
    data.set_bits(e.parent, e.child, e.bits);
  }
  workload::EtcMatrix etc(num_tasks, grid.num_machines());
  for (std::size_t i = 0; i < num_tasks; ++i) {
    for (std::size_t j = 0; j < grid.num_machines(); ++j) {
      etc.set_seconds(static_cast<TaskId>(i), static_cast<MachineId>(j),
                      etc_seconds[i][j]);
    }
  }
  workload::Scenario scenario{std::move(grid), std::move(dag), std::move(etc),
                              std::move(data), workload::VersionModel{}, tau};
  scenario.validate();
  return scenario;
}

/// Two fast machines, independent tasks, uniform 10 s ETC, roomy tau.
inline workload::Scenario two_fast_independent(std::size_t num_tasks) {
  std::vector<std::vector<double>> etc(num_tasks, std::vector<double>{10.0, 10.0});
  return make_scenario(sim::GridConfig::make(2, 0), num_tasks, {}, etc, 100000);
}

/// A small generated scenario from the real suite (for integration-style
/// unit tests that need realistic structure but small size).
inline workload::Scenario small_suite_scenario(
    sim::GridCase grid_case = sim::GridCase::A, std::size_t num_tasks = 48,
    std::uint64_t seed = 20040426, std::size_t etc_index = 0,
    std::size_t dag_index = 0) {
  workload::SuiteParams params;
  params.num_tasks = num_tasks;
  params.num_etc = etc_index + 1;
  params.num_dag = dag_index + 1;
  params.master_seed = seed;
  const workload::ScenarioSuite suite(params);
  return suite.make(grid_case, etc_index, dag_index);
}

/// The paper-shape fixture matrix the determinism and golden-digest suites
/// share: Cases A/B/C at |T|=48, plus one dynamic-arrival shape so the
/// release cursor is exercised too.
inline std::vector<workload::Scenario> paper_shape_fixtures() {
  std::vector<workload::Scenario> fixtures;
  fixtures.push_back(small_suite_scenario(sim::GridCase::A, 48));
  fixtures.push_back(small_suite_scenario(sim::GridCase::B, 48));
  fixtures.push_back(small_suite_scenario(sim::GridCase::C, 48));
  auto released = small_suite_scenario(sim::GridCase::A, 64, 4242);
  released.releases = workload::generate_release_times(
      workload::ReleaseParams{0.3}, released.dag, released.tau, 11);
  fixtures.push_back(std::move(released));
  return fixtures;
}

/// Case A at |T|=64 with every machine present except machine 1, which
/// departs at tau/8 — early enough that every SLRH variant still has work
/// left, so churn recovery (orphaning, invalidation, re-mapping) runs.
inline workload::Scenario one_departure_scenario() {
  auto scenario = small_suite_scenario(sim::GridCase::A, 64, 4242);
  scenario.machine_windows.assign(scenario.num_machines(),
                                  workload::Scenario::MachineWindow{});
  scenario.machine_windows[1].depart = scenario.tau / 8;
  return scenario;
}

}  // namespace ahg::test
