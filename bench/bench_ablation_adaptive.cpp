// Extension bench: dynamic mid-run machine loss with and without online
// alpha adaptation (the paper's §VIII future work: the T100 multiplier
// "requires adjustment whenever the system environment changes").
//
// Sweeps the loss time of a fast machine across the scheduling window and
// compares the frozen-weights run against the adapted run.

#include <iostream>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/adaptive.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  if (const auto exit_code = ahg::bench::handle_bench_flags(argc, argv)) return *exit_code;
  using namespace ahg;
  const auto ctx = bench::make_context("Extension: mid-run machine loss + adaptation");
  const workload::ScenarioSuite suite(ctx.suite_params);
  const auto scenario = suite.make(sim::GridCase::A, 0, 0);
  const core::Weights weights = core::Weights::make(0.6, 0.3);

  TextTable table({"loss at (frac of tau)", "discarded", "T100 frozen",
                   "T100 adapted", "complete frozen", "complete adapted"});
  for (const double frac : {0.125, 0.25, 0.5, 0.75}) {
    core::MachineLossEvent event;
    event.machine = 1;  // a fast machine
    event.time = static_cast<Cycles>(static_cast<double>(scenario.tau) * frac);
    const auto frozen =
        core::run_slrh_with_loss(scenario, weights, event, core::SlrhVariant::V1, {},
                                 /*adapt=*/false);
    const auto adapted =
        core::run_slrh_with_loss(scenario, weights, event, core::SlrhVariant::V1, {},
                                 /*adapt=*/true);
    table.begin_row();
    table.cell(frac, 3);
    table.cell(static_cast<long long>(adapted.discarded));
    table.cell(static_cast<long long>(frozen.result.t100));
    table.cell(static_cast<long long>(adapted.result.t100));
    table.cell(std::string(frozen.result.feasible() ? "yes" : "NO"));
    table.cell(std::string(adapted.result.feasible() ? "yes" : "NO"));
  }
  table.render(std::cout);
  std::cout << "\nexpected: adaptation trades T100 for completion robustness "
               "after the loss (lower alpha -> more secondaries -> the "
               "degraded grid still finishes within tau)\n";
  return 0;
}
