// Reproduces the paper's "On improving the convergence" experiment (Q3):
// the median-split diversity sampling of Sec. II-D (Eq. 4) vs. the uniform
// replay sampling of Lillicrap et al. The paper reports ~100 episodes to
// convergence with diversity sampling vs. >250 with uniform sampling, and a
// correspondingly lower offline wall-clock.
//
// To isolate the sampling mechanism this bench runs the *vanilla* collection
// regime of [Lillicrap et al.] (no counterfactual replay augmentation, which
// would diversify the buffer regardless of the sampling rule) and measures
// convergence as the first episode whose greedy-policy validation score
// reaches 95% of the run's final best.

#include <chrono>
#include <cstdio>

#include "bench_util.h"
#include "common/string_util.h"
#include "core/eadrl.h"
#include "exp/experiment.h"
#include "math/stats.h"
#include "ts/datasets.h"

namespace {

constexpr int kDatasetIds[] = {2, 9, 15};

// First episode whose eval score reaches `target`; censored at the curve
// length if it never does.
size_t EpisodesToReach(const eadrl::math::Vec& scores, double target) {
  for (size_t e = 0; e < scores.size(); ++e) {
    if (scores[e] >= target) return e + 1;
  }
  return scores.size();
}

}  // namespace

int main() {
  namespace exp = eadrl::exp;
  using Clock = std::chrono::steady_clock;

  const size_t length = eadrl::bench::BenchLength();
  exp::ExperimentOptions opt = eadrl::bench::BenchOptions();
  opt.pool.fast_mode = true;
  opt.eadrl.max_episodes =
      eadrl::bench::EnvCount("EADRL_BENCH_EPISODES", 120);
  opt.eadrl.early_stop = false;
  opt.eadrl.restarts = 1;
  opt.eadrl.counterfactual_actions = 0;  // vanilla collection (see header).

  std::printf("Q3: replay sampling strategy vs. convergence "
              "(%zu episodes, vanilla collection)\n\n",
              opt.eadrl.max_episodes);
  std::printf("%s %s %s %s\n", eadrl::PadRight("dataset", 9).c_str(),
              eadrl::PadRight("sampling", 14).c_str(),
              eadrl::PadRight("episodes", 10).c_str(), "offline time (s)");
  std::printf("%s\n", std::string(52, '-').c_str());

  eadrl::math::Vec median_eps, uniform_eps, median_time, uniform_time;

  for (int id : kDatasetIds) {
    auto series = eadrl::ts::MakeDataset(id, eadrl::bench::BenchSeed(), length);
    if (!series.ok()) return 1;
    exp::PoolRun pool = exp::PreparePool(*series, opt);

    // Run both strategies over a couple of seeds and measure episodes to a
    // *common* per-seed target: 95% of the better run's improvement over
    // the shared initial policy (anchored at the worse initial score so the
    // comparison cannot be gamed by a lucky first episode).
    for (uint64_t seed : {42ull, 43ull}) {
      eadrl::math::Vec curves[2];
      double seconds[2];
      for (int s = 0; s < 2; ++s) {
        eadrl::core::EadrlConfig cfg = opt.eadrl;
        cfg.seed = seed;
        cfg.sampling = s == 0 ? eadrl::rl::SamplingStrategy::kMedianSplit
                              : eadrl::rl::SamplingStrategy::kUniform;
        eadrl::core::EadrlCombiner combiner(cfg);
        Clock::time_point start = Clock::now();
        eadrl::Status st = combiner.Initialize(pool.val_preds,
                                               pool.val_actuals);
        seconds[s] =
            std::chrono::duration<double>(Clock::now() - start).count();
        if (!st.ok()) return 1;
        curves[s] = combiner.eval_scores();
      }
      double first = std::min(curves[0].front(), curves[1].front());
      double best = std::max(eadrl::math::Max(curves[0]),
                             eadrl::math::Max(curves[1]));
      double target = first + 0.95 * (best - first);

      for (int s = 0; s < 2; ++s) {
        size_t episodes = EpisodesToReach(curves[s], target);
        bool is_median = (s == 0);
        std::printf("%s %s %s %s\n",
                    eadrl::PadRight(
                        eadrl::StrCat(id, "/s", seed), 9)
                        .c_str(),
                    eadrl::PadRight(
                        is_median ? "median-split" : "uniform", 14)
                        .c_str(),
                    eadrl::PadRight(std::to_string(episodes), 10).c_str(),
                    eadrl::FormatDouble(seconds[s], 2).c_str());
        if (is_median) {
          median_eps.push_back(static_cast<double>(episodes));
          median_time.push_back(seconds[s]);
        } else {
          uniform_eps.push_back(static_cast<double>(episodes));
          uniform_time.push_back(seconds[s]);
        }
      }
    }
  }

  std::printf("%s\n", std::string(52, '-').c_str());
  std::printf("mean episodes to 95%%-convergence: median-split %s, "
              "uniform %s\n",
              eadrl::FormatDouble(eadrl::math::Mean(median_eps), 1).c_str(),
              eadrl::FormatDouble(eadrl::math::Mean(uniform_eps), 1).c_str());
  std::printf("mean offline time (s):            median-split %s, "
              "uniform %s\n",
              eadrl::FormatDouble(eadrl::math::Mean(median_time), 2).c_str(),
              eadrl::FormatDouble(eadrl::math::Mean(uniform_time), 2)
                  .c_str());
  return 0;
}
