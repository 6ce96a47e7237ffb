#include "core/sweep.hpp"

namespace ahg::core {

void SweepContext::note_commit(const PlacementPlan& plan) {
  ++energy_epoch_[static_cast<std::size_t>(plan.machine)];
  for (const CommPlan& comm : plan.comms) {
    ++energy_epoch_[static_cast<std::size_t>(comm.from_machine)];
  }
}

}  // namespace ahg::core
