// Taxi-demand forecasting under concept drift — the scenario that motivates
// dynamic ensembles in the paper's introduction (cf. the BRIGHT system).
// The taxi series contains level shifts; this example compares EA-DRL with
// the drift-aware DEMSC baseline and the sliding-window ensemble.
//
//   $ ./example_taxi_demand

#include <cstdio>

#include "baselines/dynamic_selection.h"
#include "baselines/static_combiners.h"
#include "core/eadrl.h"
#include "exp/experiment.h"
#include "ts/datasets.h"

int main() {
  auto series = eadrl::ts::MakeDataset(/*id=*/9, /*seed=*/7, /*length=*/500);
  if (!series.ok()) return 1;
  std::printf("series: %s — half-hourly pick-up counts with daily/weekly "
              "cycles and level-shift drift\n\n",
              series->name().c_str());

  eadrl::exp::ExperimentOptions opt;
  opt.pool.fast_mode = true;
  opt.pool.nn_epochs = 6;
  opt.eadrl.omega = 10;
  opt.eadrl.max_episodes = 30;
  eadrl::exp::PoolRun pool = eadrl::exp::PreparePool(*series, opt);

  eadrl::core::EadrlCombiner eadrl_combiner(opt.eadrl);
  eadrl::baselines::DemscCombiner demsc;
  eadrl::baselines::SlidingWindowCombiner swe(10);

  eadrl::exp::MethodRun ea = eadrl::exp::RunCombiner(&eadrl_combiner, pool);
  eadrl::exp::MethodRun dm = eadrl::exp::RunCombiner(&demsc, pool);
  eadrl::exp::MethodRun sw = eadrl::exp::RunCombiner(&swe, pool);

  std::printf("test RMSE  /  online time over %zu steps:\n",
              pool.test_actuals.size());
  std::printf("  EA-DRL  %8.3f  /  %.3f ms (policy frozen offline)\n",
              ea.rmse, ea.runtime_seconds * 1e3);
  std::printf("  DEMSC   %8.3f  /  %.3f ms (%zu drift-triggered committee "
              "rebuilds)\n",
              dm.rmse, dm.runtime_seconds * 1e3, demsc.drift_count());
  std::printf("  SWE     %8.3f  /  %.3f ms\n", sw.rmse,
              sw.runtime_seconds * 1e3);

  std::printf("\nEA-DRL achieves dynamic weighting without any online "
              "meta-update. On this\n%zu-member fast pool the two cost about "
              "the same online; its Table III runtime\nadvantage over DEMSC "
              "shows at the paper's 43-member pool, where every drift\n"
              "re-clusters 43 members.\n",
              pool.test_preds.cols());
  return 0;
}
