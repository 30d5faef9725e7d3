// Reproduces paper Fig. 2: learning curves of the actor-critic algorithm
// under the two reward definitions.
//   Fig. 2a — reward = 1 - NRMSE of the ensemble on the window (does NOT
//             converge; its magnitude tracks the time-varying series scale).
//   Fig. 2b — rank-based reward of Eq. 3 (converges).
// We print the average reward per episode for three representative datasets
// under each reward, which regenerates the figure's series.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "core/eadrl.h"
#include "exp/experiment.h"
#include "ts/datasets.h"

namespace {

// Representative datasets: seasonal (bike rentals), drifting (taxi) and
// random-walk (DAX).
constexpr int kDatasetIds[] = {4, 9, 19};

}  // namespace

int main() {
  namespace exp = eadrl::exp;
  const size_t length = eadrl::bench::BenchLength();
  const size_t episodes = eadrl::bench::EnvCount("EADRL_BENCH_EPISODES", 60);

  exp::ExperimentOptions opt = eadrl::bench::BenchOptions();
  opt.pool.fast_mode = true;  // the figure is about the RL loop, not the pool.
  opt.eadrl.max_episodes = episodes;
  opt.eadrl.early_stop = false;  // show the full curve.

  struct Curve {
    int dataset;
    const char* reward;
    eadrl::math::Vec values;
  };
  std::vector<Curve> curves;

  for (int id : kDatasetIds) {
    auto series = eadrl::ts::MakeDataset(id, eadrl::bench::BenchSeed(), length);
    if (!series.ok()) return 1;
    exp::PoolRun pool = exp::PreparePool(*series, opt);

    for (auto reward : {eadrl::rl::RewardType::kOneMinusNrmse,
                        eadrl::rl::RewardType::kRank}) {
      eadrl::core::EadrlConfig cfg = opt.eadrl;
      cfg.reward_type = reward;
      eadrl::core::EadrlCombiner combiner(cfg);
      eadrl::Status st = combiner.Initialize(pool.val_preds,
                                             pool.val_actuals);
      if (!st.ok()) {
        std::printf("dataset %d failed: %s\n", id, st.ToString().c_str());
        return 1;
      }
      curves.push_back(
          {id,
           reward == eadrl::rl::RewardType::kRank ? "rank(Eq.3)" : "1-NRMSE",
           combiner.episode_rewards()});
    }
  }

  std::printf("Fig. 2: learning curves (avg reward per episode)\n");
  std::printf("Fig. 2a uses reward = 1-NRMSE, Fig. 2b uses the rank reward "
              "of Eq. 3.\n\n");
  for (const Curve& curve : curves) {
    std::printf("dataset %d, reward=%s:\n", curve.dataset, curve.reward);
    for (size_t e = 0; e < curve.values.size(); ++e) {
      std::printf("  episode %3zu  avg_reward %s\n", e + 1,
                  eadrl::FormatDouble(curve.values[e], 4).c_str());
    }
    // Convergence summary: does the curve actually climb? The paper's
    // contrast is a flat/noisy curve under 1-NRMSE (Fig. 2a) vs a rising,
    // converging curve under the rank reward (Fig. 2b).
    size_t q = curve.values.size() / 4;
    double first_q = 0.0, last_q = 0.0, lo = 0.0, hi = 0.0;
    for (size_t e = 0; e < q; ++e) first_q += curve.values[e];
    lo = hi = curve.values[curve.values.size() - q];
    for (size_t e = curve.values.size() - q; e < curve.values.size(); ++e) {
      last_q += curve.values[e];
      lo = std::min(lo, curve.values[e]);
      hi = std::max(hi, curve.values[e]);
    }
    first_q /= static_cast<double>(q);
    last_q /= static_cast<double>(q);
    std::printf("  first-quarter avg %s -> last-quarter avg %s "
                "(range [%s, %s])\n\n",
                eadrl::FormatDouble(first_q, 4).c_str(),
                eadrl::FormatDouble(last_q, 4).c_str(),
                eadrl::FormatDouble(lo, 4).c_str(),
                eadrl::FormatDouble(hi, 4).c_str());
  }
  return 0;
}
