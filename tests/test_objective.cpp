#include "core/objective.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>

#include "support/contract.hpp"

namespace ahg::core {
namespace {

ObjectiveTotals totals() { return ObjectiveTotals{1024, 1276.0, 340750}; }

TEST(Weights, MakeComputesGamma) {
  const Weights w = Weights::make(0.5, 0.3);
  EXPECT_DOUBLE_EQ(w.alpha, 0.5);
  EXPECT_DOUBLE_EQ(w.beta, 0.3);
  EXPECT_NEAR(w.gamma, 0.2, 1e-12);
}

TEST(Weights, ValidationRejectsOutOfRange) {
  EXPECT_THROW(Weights::make(1.1, 0.0), PreconditionError);
  EXPECT_THROW(Weights::make(-0.1, 0.5), PreconditionError);
  EXPECT_THROW(Weights::make(0.6, 0.6), PreconditionError);  // gamma < 0
  Weights w{0.5, 0.5, 0.5};                                  // sum != 1
  EXPECT_THROW(w.validate(), PreconditionError);
}

TEST(Weights, BoundaryValuesAllowed) {
  EXPECT_NO_THROW(Weights::make(1.0, 0.0));
  EXPECT_NO_THROW(Weights::make(0.0, 1.0));
  EXPECT_NO_THROW(Weights::make(0.0, 0.0));  // gamma = 1
}

TEST(Objective, FormulaMatchesPaper) {
  // ObjFn = a*T100/|T| - b*TEC/TSE + g*AET/tau
  const Weights w = Weights::make(0.5, 0.3);  // gamma 0.2
  const ObjectiveState state{512, 638.0, 170375};
  // terms: 0.5*0.5 - 0.3*0.5 + 0.2*0.5 = 0.25 - 0.15 + 0.10 = 0.20
  EXPECT_NEAR(objective_value(w, state, totals()), 0.20, 1e-12);
}

TEST(Objective, AlphaOnlyRewardsT100) {
  const Weights w = Weights::make(1.0, 0.0);
  ObjectiveState lo{100, 500.0, 100000};
  ObjectiveState hi{200, 500.0, 100000};
  EXPECT_GT(objective_value(w, hi, totals()), objective_value(w, lo, totals()));
}

TEST(Objective, BetaPenalizesEnergy) {
  const Weights w = Weights::make(0.0, 1.0);
  ObjectiveState cheap{100, 100.0, 100000};
  ObjectiveState costly{100, 900.0, 100000};
  EXPECT_GT(objective_value(w, cheap, totals()), objective_value(w, costly, totals()));
  EXPECT_LT(objective_value(w, costly, totals()), 0.0);  // pure penalty term
}

TEST(Objective, GammaSignControlsAetDirection) {
  const Weights w = Weights::make(0.0, 0.0);  // gamma = 1
  ObjectiveState early{100, 100.0, 50000};
  ObjectiveState late{100, 100.0, 300000};
  // Paper default: positive sign rewards using the available time.
  EXPECT_GT(objective_value(w, late, totals(), AetSign::Reward),
            objective_value(w, early, totals(), AetSign::Reward));
  // Ablation: negative sign prefers short AET.
  EXPECT_LT(objective_value(w, late, totals(), AetSign::Penalize),
            objective_value(w, early, totals(), AetSign::Penalize));
}

TEST(Objective, NormalizedToUnitRangeForFeasibleStates) {
  // For any feasible state (terms in [0,1]) the objective is in [-1, 1].
  for (double a = 0.0; a <= 1.01; a += 0.25) {
    for (double b = 0.0; a + b <= 1.01; b += 0.25) {
      const Weights w = Weights::make(std::min(a, 1.0), std::min(b, 1.0 - a));
      const ObjectiveState state{1024, 1276.0, 340750};  // all terms = 1
      const double v = objective_value(w, state, totals());
      EXPECT_GE(v, -1.0 - 1e-9);
      EXPECT_LE(v, 1.0 + 1e-9);
    }
  }
}

TEST(Objective, RejectsDegenerateTotals) {
  const Weights w = Weights::make(0.5, 0.3);
  const ObjectiveState state{1, 1.0, 1};
  EXPECT_THROW(objective_value(w, state, ObjectiveTotals{0, 1.0, 1}), PreconditionError);
  EXPECT_THROW(objective_value(w, state, ObjectiveTotals{1, 0.0, 1}), PreconditionError);
  EXPECT_THROW(objective_value(w, state, ObjectiveTotals{1, 1.0, 0}), PreconditionError);
}

/// The paper's expression, written out independently of objective.cpp: the
/// reference the shared pricer is held to (every production scorer prices
/// through it, so no scorer-versus-scorer comparison can catch an error in
/// it).
double literal_objective(const Weights& w, AetSign sign, std::size_t t100, double tec,
                         Cycles aet, const ObjectiveTotals& totals) {
  return w.alpha * (static_cast<double>(t100) / static_cast<double>(totals.num_tasks)) -
         w.beta * (tec / totals.tse) +
         static_cast<double>(static_cast<int>(sign)) * w.gamma *
             (static_cast<double>(aet) / static_cast<double>(totals.tau));
}

TEST(Objective, PricerMatchesLiteralExpression) {
  std::mt19937_64 rng(20040426);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<std::size_t> tasks(1, 4096);
  std::uniform_int_distribution<Cycles> cycles(1, 1'000'000);
  for (int trial = 0; trial < 2000; ++trial) {
    const double alpha = unit(rng);
    const Weights w = Weights::make(alpha, unit(rng) * (1.0 - alpha));
    const AetSign sign = trial % 2 == 0 ? AetSign::Reward : AetSign::Penalize;
    const ObjectiveTotals t{tasks(rng), 1.0 + 5000.0 * unit(rng), cycles(rng)};
    const ObjectiveState base{
        std::uniform_int_distribution<std::size_t>(0, t.num_tasks - 1)(rng),
        t.tse * unit(rng), cycles(rng)};
    EXPECT_EQ(objective_value(w, base, t, sign),
              literal_objective(w, sign, base.t100, base.tec, base.aet, t));

    const ObjectivePricer pricer(w, t, sign, base);
    const double tec_delta = 50.0 * unit(rng);
    const Cycles gap = cycles(rng) % 1000 + 1;
    for (const Cycles finish : {base.aet - gap, base.aet, base.aet + gap}) {
      for (const VersionKind version : {VersionKind::Primary, VersionKind::Secondary}) {
        const std::size_t t100 = base.t100 + (version == VersionKind::Primary ? 1 : 0);
        EXPECT_EQ(pricer.value(version, tec_delta, finish),
                  literal_objective(w, sign, t100, base.tec + tec_delta,
                                    std::max(base.aet, finish), t))
            << "trial " << trial << " finish " << finish;
      }
    }
  }
}

TEST(Weights, StrMentionsAllThree) {
  const std::string s = Weights::make(0.5, 0.3).str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("beta"), std::string::npos);
  EXPECT_NE(s.find("gamma"), std::string::npos);
}

}  // namespace
}  // namespace ahg::core
