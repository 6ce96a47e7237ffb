#pragma once
// The global objective function (paper §IV):
//
//   ObjFn(a, b, g) = a * T100/|T|  -  b * TEC/TSE  +  g * AET/tau
//
// with a + b + g = 1 and each weight in [0, 1]. Every term is normalised to
// [0, 1] (for feasible mappings), so the objective itself stays in [-1, 1].
// The hard constraints on total system energy and execution time appear only
// as soft biases here — feasibility is enforced separately (candidate-pool
// admission and post-hoc tau check).
//
// The sign of the AET term is POSITIVE by default: the paper found that a
// negative sign produced very short-AET solutions with correspondingly lower
// T100, and explicitly chose + to encourage use of all available time. The
// negative variant is retained as an ablation knob (AetSign::Penalize).

#include <string>

#include "support/contract.hpp"
#include "support/units.hpp"
#include "support/version.hpp"

namespace ahg::core {

enum class AetSign : int { Reward = +1, Penalize = -1 };

struct Weights {
  double alpha = 0.0;  ///< weight on T100/|T|
  double beta = 0.0;   ///< weight on TEC/TSE (entering negatively)
  double gamma = 0.0;  ///< weight on AET/tau

  /// Construct with gamma = 1 - alpha - beta (the paper's convention: only
  /// two weights are free).
  static Weights make(double alpha, double beta) {
    Weights w{alpha, beta, 1.0 - alpha - beta};
    w.validate();
    return w;
  }

  void validate() const {
    constexpr double eps = 1e-9;
    AHG_EXPECTS_MSG(alpha >= -eps && alpha <= 1.0 + eps, "alpha must be in [0,1]");
    AHG_EXPECTS_MSG(beta >= -eps && beta <= 1.0 + eps, "beta must be in [0,1]");
    AHG_EXPECTS_MSG(gamma >= -eps && gamma <= 1.0 + eps, "gamma must be in [0,1]");
    const double sum = alpha + beta + gamma;
    AHG_EXPECTS_MSG(sum > 1.0 - 1e-6 && sum < 1.0 + 1e-6, "weights must sum to 1");
  }

  std::string str() const;
};

/// Scenario-level normalisation constants for the objective.
struct ObjectiveTotals {
  std::size_t num_tasks = 0;  ///< |T|
  double tse = 0.0;           ///< total system energy, sum of B(j)
  Cycles tau = 0;             ///< AET constraint in cycles
};

/// Snapshot of the quantities the objective scores.
struct ObjectiveState {
  std::size_t t100 = 0;
  double tec = 0.0;
  Cycles aet = 0;
};

/// ObjFn of a base state plus one more subtask — the price every SLRH pool
/// slot, Max-Max table entry and reference score is ranked by. The subtrees
/// that stay fixed while the base state does (alpha times either t100 term,
/// sign times gamma, the base AET term) are computed once, by the operations
/// objective_value would perform, so a price is the same double whichever
/// caller asks for it. Relies on the ISO build (no FP contraction).
class ObjectivePricer {
 public:
  ObjectivePricer() = default;
  ObjectivePricer(const Weights& weights, const ObjectiveTotals& totals,
                  AetSign aet_sign, const ObjectiveState& base);

  /// The objective if one more subtask of `version` were mapped, adding
  /// `tec_delta` to TEC and finishing at `finish`. A primary adds one to
  /// T100; AET becomes max(base AET, finish), whose term is the hoisted one
  /// whenever the base AET wins.
  double value(VersionKind version, double tec_delta, Cycles finish) const noexcept {
    return (version == VersionKind::Primary ? alpha_t100_primary_
                                            : alpha_t100_secondary_) -
           beta_ * ((tec_ + tec_delta) / tse_) +
           (finish <= aet_ ? aet_term_
                           : sign_gamma_ * (static_cast<double>(finish) / tau_));
  }

 private:
  double alpha_t100_secondary_ = 0.0;  ///< alpha * (t100 / |T|)
  double alpha_t100_primary_ = 0.0;    ///< alpha * ((t100 + 1) / |T|)
  double beta_ = 0.0;
  double tec_ = 0.0;
  double tse_ = 0.0;
  Cycles aet_ = 0;
  double sign_gamma_ = 0.0;            ///< sign * gamma
  double tau_ = 0.0;
  double aet_term_ = 0.0;              ///< sign * gamma * (aet / tau)
};

/// Evaluate ObjFn for a (possibly hypothetical) state.
double objective_value(const Weights& weights, const ObjectiveState& state,
                       const ObjectiveTotals& totals,
                       AetSign aet_sign = AetSign::Reward);

/// The three weighted objective terms, individually — what the decision
/// trace records so a mapping choice can be explained after the fact
/// (ISSUE: observability). `value` is computed with the exact expression
/// objective_value uses, so the two never disagree.
struct ObjectiveTerms {
  double t100 = 0.0;  ///< alpha * T100/|T|
  double tec = 0.0;   ///< beta * TEC/TSE (enters the objective negatively)
  double aet = 0.0;   ///< gamma * AET/tau, sign applied
  double value = 0.0; ///< t100 - tec + aet
};

ObjectiveTerms objective_terms(const Weights& weights, const ObjectiveState& state,
                               const ObjectiveTotals& totals,
                               AetSign aet_sign = AetSign::Reward);

}  // namespace ahg::core
