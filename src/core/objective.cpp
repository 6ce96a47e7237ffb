#include "core/objective.hpp"

#include <sstream>

namespace ahg::core {

std::string Weights::str() const {
  std::ostringstream oss;
  oss << "(alpha=" << alpha << ", beta=" << beta << ", gamma=" << gamma << ")";
  return oss.str();
}

ObjectivePricer::ObjectivePricer(const Weights& weights, const ObjectiveTotals& totals,
                                 AetSign aet_sign, const ObjectiveState& base)
    : beta_(weights.beta),
      tec_(base.tec),
      tse_(totals.tse),
      aet_(base.aet),
      sign_gamma_(static_cast<double>(static_cast<int>(aet_sign)) * weights.gamma),
      tau_(static_cast<double>(totals.tau)) {
  AHG_EXPECTS_MSG(totals.num_tasks > 0, "objective needs |T| > 0");
  AHG_EXPECTS_MSG(totals.tse > 0.0, "objective needs TSE > 0");
  AHG_EXPECTS_MSG(totals.tau > 0, "objective needs tau > 0");
  const double num_tasks = static_cast<double>(totals.num_tasks);
  alpha_t100_secondary_ = weights.alpha * (static_cast<double>(base.t100) / num_tasks);
  alpha_t100_primary_ = weights.alpha * (static_cast<double>(base.t100 + 1) / num_tasks);
  aet_term_ = sign_gamma_ * (static_cast<double>(base.aet) / tau_);
}

double objective_value(const Weights& weights, const ObjectiveState& state,
                       const ObjectiveTotals& totals, AetSign aet_sign) {
  // tec + 0.0 == tec for a TEC >= 0, and max(aet, aet) == aet.
  return ObjectivePricer(weights, totals, aet_sign, state)
      .value(VersionKind::Secondary, 0.0, state.aet);
}

ObjectiveTerms objective_terms(const Weights& weights, const ObjectiveState& state,
                               const ObjectiveTotals& totals, AetSign aet_sign) {
  ObjectiveTerms terms;
  terms.t100 = weights.alpha * (static_cast<double>(state.t100) /
                                static_cast<double>(totals.num_tasks));
  terms.tec = weights.beta * (state.tec / totals.tse);
  terms.aet = static_cast<double>(static_cast<int>(aet_sign)) * weights.gamma *
              (static_cast<double>(state.aet) / static_cast<double>(totals.tau));
  terms.value = objective_value(weights, state, totals, aet_sign);
  return terms;
}

}  // namespace ahg::core
