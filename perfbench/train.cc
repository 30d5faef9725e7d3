// Train stage: fits and trains the workload's models, one per series. The
// timed span is exp::PreparePool + EadrlCombiner::Initialize; the deployed
// policy then runs once over the test segment, untimed, for the test RMSE,
// and is saved for the online and serving stages. On the `train` workload
// this is dataset 9 at the library defaults, which are the paper's set-up
// (the 43-member pool, EA-DRL at 100 episodes x 100 iterations with 3
// restarts), on the default pool of nproc - 1 workers with the caller
// helping in joins. `serve` trains briefly, on one thread; where that takes
// less than the stage's share of --seconds, the models are retrained in
// whole rounds until it has passed, and every retraining must deploy the
// same forecasts as the first.
//
// How much DDPG work a draw needs depends on where early stopping lands, and
// `serve`'s series train at different speeds, so the costs are means over
// the trainings, in which every model weighs the same, each training scaled
// by the speed probe over its span. The test RMSE is a
// median over the models, taken relative to the spread of each model's test
// actuals, since `serve`'s series have different scales.
//
// A pool member whose forecasts leave the series' range by ten times its
// span has diverged. Each is printed, and the count is a per-layer metric:
// ARIMA(2,1,1) diverges on some draws of dataset 3 (see README.md).

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/eadrl.h"
#include "exp/experiment.h"
#include "math/stats.h"
#include "obs/trace.h"
#include "ts/metrics.h"

namespace perfbench {
namespace {

using eadrl::Status;
using eadrl::math::Vec;
namespace exp = eadrl::exp;

/// Members the pool fits: the paper's pool, or the fast one.
constexpr size_t kPaperPoolMembers = 43;
constexpr size_t kFastPoolMembers = 10;

struct Training {
  bool ok = false;
  double train_s = 0.0;      ///< wall, PreparePool + Initialize.
  double train_cpu_s = 0.0;  ///< program CPU over the same span.
  double speed = 1.0;        ///< the speed probe's factor over the span.
  double prepare_s = 0.0;    ///< wall of PreparePool alone.
  double initialize_s = 0.0;
  double initialize_cpu_s = 0.0;
  double rmse = 0.0;
  double nrmse = 0.0;  ///< rmse / standard deviation of the test actuals.
  Vec predictions;  ///< the deployed policy over the test segment.
  exp::PoolRun pool;
};

/// One timed PreparePool + Initialize, then the untimed online pass. With a
/// non-empty `save_path` the trained policy is saved there.
Training TrainOnce(const eadrl::ts::Series& series,
                   const exp::ExperimentOptions& opt, size_t members,
                   const std::string& save_path, Report* report) {
  Training out;
  const double w0 = WallNow(), c0 = ProgramCpuNow();
  out.pool = exp::PreparePool(series, opt);
  const double w1 = WallNow();
  const double c1 = ProgramCpuNow();
  eadrl::core::EadrlCombiner combiner(opt.eadrl);
  Status st = combiner.Initialize(out.pool.val_preds, out.pool.val_actuals);
  const double w2 = WallNow(), c2 = ProgramCpuNow();
  out.speed = Probe().Factor(w0, w2);
  out.train_s = w2 - w0;
  out.train_cpu_s = c2 - c0;
  out.prepare_s = w1 - w0;
  out.initialize_s = w2 - w1;
  out.initialize_cpu_s = c2 - c1;

  report->Attempt(2);
  report->Check(out.pool.model_names.size() == members,
                "pool fitted " + std::to_string(out.pool.model_names.size()) +
                    " of " + std::to_string(members) + " members");
  if (st.ok() && !save_path.empty()) {
    report->Attempt();
    st = combiner.SavePolicy(save_path);
  }
  if (!st.ok()) {
    report->Fail();
    report->Check(false, "training " + series.name() + ": " + st.ToString());
    return out;
  }

  const size_t steps = out.pool.test_preds.rows();
  out.predictions.resize(steps);
  uint64_t nonfinite = 0;
  for (size_t t = 0; t < steps; ++t) {
    const Vec row = out.pool.test_preds.Row(t);
    out.predictions[t] = combiner.Predict(row);
    combiner.Update(row, out.pool.test_actuals[t]);
    if (!std::isfinite(out.predictions[t])) ++nonfinite;
  }
  report->Attempt(2 * steps);
  report->Fail(nonfinite);
  report->Check(nonfinite == 0, std::to_string(nonfinite) +
                                    " non-finite test-segment forecasts");
  report->Check(steps > 0, "empty test segment");
  out.rmse = eadrl::ts::Rmse(out.pool.test_actuals, out.predictions);
  out.nrmse = out.rmse / eadrl::math::Stddev(out.pool.test_actuals);
  out.ok = steps > 0;
  return out;
}

/// Pool members whose validation or test forecasts leave the series' range
/// by more than ten times its span; each is printed.
size_t DivergedMembers(const eadrl::ts::Series& series,
                       const exp::PoolRun& pool) {
  const Vec& v = series.values();
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  const double margin = 10.0 * (*hi - *lo);
  size_t diverged = 0;
  for (size_t j = 0; j < pool.model_names.size(); ++j) {
    double worst = 0.0;
    for (const eadrl::math::Matrix* m : {&pool.val_preds, &pool.test_preds}) {
      for (size_t r = 0; r < m->rows(); ++r) {
        const double x = (*m)(r, j);
        worst = std::max(worst, std::max(*lo - x, x - *hi));
      }
    }
    if (worst > margin) {
      ++diverged;
      std::printf("note   diverged member %s on %s: %.6g outside the series' "
                  "range [%.6g, %.6g]\n",
                  pool.model_names[j].c_str(), series.name().c_str(), worst,
                  *lo, *hi);
    }
  }
  return diverged;
}

}  // namespace

Model FittedModel(exp::PoolRun pool, std::string policy_path) {
  Model model;
  model.pool = std::move(pool);
  model.policy_path = std::move(policy_path);
  for (size_t r = 0; r < model.pool.val_preds.rows(); ++r) {
    model.val_rows.push_back(model.pool.val_preds.Row(r));
  }
  for (size_t r = 0; r < model.pool.test_preds.rows(); ++r) {
    model.test_rows.push_back(model.pool.test_preds.Row(r));
  }
  return model;
}

bool TrainStage(const Options& options, const Workload& workload,
                double seconds, const exp::ExperimentOptions& opt,
                const std::vector<eadrl::ts::Series>& series,
                std::vector<Model>* models, Report* report) {
  const size_t threads = workload.parallel_train ? HostCpus() : 1;
  const size_t members =
      workload.fast_pool ? kFastPoolMembers : kPaperPoolMembers;
  std::printf("note   train threads %zu\n", threads);
  const double start = WallNow();
  // Raw and speed-scaled sums over the trainings.
  double wall = 0.0, cpu = 0.0, scaled_wall = 0.0, scaled_cpu = 0.0;
  size_t trainings = 0;
  std::vector<double> nrmse;
  std::vector<Vec> deployed;  ///< each model's first test forecasts.
  size_t diverged = 0;
  Training first;
  for (size_t i = 0; i < series.size(); ++i) {
    const std::string path = options.work_dir + "/" + workload.name +
                             "_policy_" + std::to_string(i) + ".eadrl";
    Training t = TrainOnce(series[i], opt, members, path, report);
    // Listed even when training failed, so the caller removes the file.
    models->push_back(FittedModel(std::move(t.pool), path));
    if (!t.ok) return false;
    wall += t.train_s;
    cpu += t.train_cpu_s;
    scaled_wall += t.train_s * t.speed;
    scaled_cpu += t.train_cpu_s * t.speed;
    ++trainings;
    nrmse.push_back(t.nrmse);
    diverged += DivergedMembers(series[i], models->back().pool);
    std::printf(
        "note   model %zu train_s %.3f train_cpu_s %.3f rmse %.6g nrmse %.6f\n",
        i, t.train_s, t.train_cpu_s, t.rmse, t.nrmse);
    deployed.push_back(t.predictions);
    if (i == 0) first = std::move(t);
  }
  while (WallNow() - start < seconds) {
    for (size_t m = 0; m < series.size(); ++m) {
      const Training t = TrainOnce(series[m], opt, members, "", report);
      if (!t.ok) return false;
      report->Check(t.predictions == deployed[m],
                    "retraining changed the deployed policy's forecasts");
      wall += t.train_s;
      cpu += t.train_cpu_s;
      scaled_wall += t.train_s * t.speed;
      scaled_cpu += t.train_cpu_s * t.speed;
      ++trainings;
    }
  }
  const double n = static_cast<double>(trainings);
  report->Note("trainings", n, "count");
  report->Note("raw.train_s", wall / n, "s");
  report->Note("raw.train_cpu_s", cpu / n, "s");
  report->EndToEnd("train_s", scaled_wall / n, "s");
  report->EndToEnd("train_cpu_s", scaled_cpu / n, "s");
  report->EndToEnd("test_rmse", Median(nrmse), "1");
  report->Layer("models.diverged_members", static_cast<double>(diverged),
                "count");
  if (!report->trace()) return true;

  // Traced run: the first series once more, with a trace buffer installed
  // so the program's own spans feed the profiler. It must deploy the same
  // forecasts as the untraced training.
  eadrl::obs::TraceBuffer buffer(1u << 16);
  const auto before = ProfileByName();
  eadrl::obs::SetTraceBuffer(&buffer);
  const Training traced = TrainOnce(series[0], opt, members, "", report);
  eadrl::obs::SetTraceBuffer(nullptr);
  const auto after = ProfileByName();
  report->Check(first.predictions == traced.predictions,
                "traced training changed the deployed policy's forecasts");

  auto span = [&](const char* name) {
    return ProfileDelta(before, after, name);
  };
  const auto update = span("ddpg_update");
  report->Layer("exp.prepare_pool_s", traced.prepare_s, "s");
  report->Layer("models.pool_fit_s", span("pool_fit").total_seconds, "s");
  report->Layer("models.rolling_forecast_s",
                span("rolling_forecast").total_seconds, "s");
  report->Layer("core.initialize_s", traced.initialize_s, "s");
  report->Layer("rl.ddpg_update_us",
                update.count > 0 ? update.total_seconds /
                                       static_cast<double>(update.count) * 1e6
                                 : 0.0,
                "us");
  report->Layer("rl.critic_update_s", span("critic_update").self_seconds, "s");
  report->Layer("rl.actor_update_s", span("actor_update").self_seconds, "s");
  report->Layer("rl.target_sync_s", span("target_sync").self_seconds, "s");
  report->Layer("core.eval_rollout_s", span("eval_rollout").self_seconds, "s");
  report->Layer("rl.updates", static_cast<double>(update.count), "count");
  report->Layer("core.episodes", static_cast<double>(span("episode").count),
                "count");
  report->Layer("par.busy_ratio",
                traced.initialize_cpu_s /
                    (traced.initialize_s * static_cast<double>(threads)),
                "1");
  report->Layer("trace.train_s", traced.train_s, "s");
  report->Layer("trace.train_cpu_s", traced.train_cpu_s, "s");
  report->Layer("trace.train_cpu_s.overhead_pct",
                (traced.train_cpu_s - first.train_cpu_s) / first.train_cpu_s *
                    100.0,
                "%");
  report->Note("untraced.first_train_s", first.train_s, "s");
  report->Note("untraced.first_train_cpu_s", first.train_cpu_s, "s");
  report->Note("trace.dropped_spans", static_cast<double>(buffer.dropped()),
               "count");
  return traced.ok;
}

}  // namespace perfbench
