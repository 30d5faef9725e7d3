#include "exp/experiment.h"

#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/trace.h"
#include "par/thread_pool.h"
#include "ts/datasets.h"

namespace eadrl::exp {
namespace {

ExperimentOptions FastOptions() {
  ExperimentOptions opt;
  opt.pool.fast_mode = true;
  opt.pool.nn_epochs = 3;
  opt.eadrl.omega = 5;
  opt.eadrl.max_episodes = 8;
  opt.eadrl.max_iterations = 40;
  opt.eadrl.actor_hidden = {16};
  opt.eadrl.critic_hidden = {16};
  opt.eadrl.batch_size = 8;
  opt.eadrl.warmup_transitions = 16;
  opt.seed = 42;
  return opt;
}

TEST(ExperimentTest, PreparePoolShapes) {
  auto series = ts::MakeDataset(2, 42, 240);
  ASSERT_TRUE(series.ok());
  PoolRun pool = PreparePool(*series, FastOptions());

  EXPECT_GE(pool.model_names.size(), 8u);
  EXPECT_EQ(pool.val_preds.cols(), pool.model_names.size());
  EXPECT_EQ(pool.test_preds.cols(), pool.model_names.size());
  EXPECT_EQ(pool.val_preds.rows(), pool.val_actuals.size());
  EXPECT_EQ(pool.test_preds.rows(), pool.test_actuals.size());
  // 75/25 outer split of 240 -> 60 test points.
  EXPECT_EQ(pool.test_actuals.size(), 60u);
  for (double v : pool.val_preds.data()) EXPECT_TRUE(std::isfinite(v));
  for (double v : pool.test_preds.data()) EXPECT_TRUE(std::isfinite(v));
}

TEST(ExperimentTest, CombinerSuiteHasElevenMethods) {
  auto suite = MakeCombinerSuite(FastOptions());
  EXPECT_EQ(suite.size(), 11u);
  std::set<std::string> names;
  for (const auto& combiner : suite) names.insert(combiner->name());
  for (const char* expected :
       {"SE", "SWE", "EWA", "FS", "OGD", "MLpol", "Stacking", "Clus",
        "Top.sel", "DEMSC", "EA-DRL"}) {
    EXPECT_TRUE(names.count(expected)) << "missing " << expected;
  }
}

TEST(ExperimentTest, RunDatasetProducesFiniteResults) {
  auto series = ts::MakeDataset(2, 42, 240);
  ASSERT_TRUE(series.ok());
  DatasetResult result = RunDataset(*series, FastOptions());

  // 11 combiners + 5 standalone models.
  EXPECT_GE(result.methods.size(), 14u);
  for (const MethodRun& run : result.methods) {
    EXPECT_TRUE(std::isfinite(run.rmse)) << run.name;
    EXPECT_GT(run.rmse, 0.0) << run.name;
    EXPECT_GE(run.runtime_seconds, 0.0) << run.name;
    EXPECT_EQ(run.squared_errors.size(), 60u) << run.name;
  }
}

TEST(ExperimentTest, CombinersCompetitiveWithWorstSingle) {
  auto series = ts::MakeDataset(15, 42, 240);
  ASSERT_TRUE(series.ok());
  ExperimentOptions opt = FastOptions();
  opt.include_standalone = false;
  PoolRun pool = PreparePool(*series, opt);

  // Worst single model RMSE on the test segment.
  double worst = 0.0;
  for (size_t m = 0; m < pool.model_names.size(); ++m) {
    double sse = 0.0;
    for (size_t t = 0; t < pool.test_actuals.size(); ++t) {
      double d = pool.test_preds(t, m) - pool.test_actuals[t];
      sse += d * d;
    }
    worst = std::max(worst,
                     std::sqrt(sse / static_cast<double>(
                                         pool.test_actuals.size())));
  }

  for (auto& combiner : MakeCombinerSuite(opt)) {
    MethodRun run = RunCombiner(combiner.get(), pool);
    EXPECT_LT(run.rmse, worst * 1.5) << run.name;
  }
}

const obs::SpanAttr* FindAttr(const obs::FinishedSpan& span,
                              const char* key) {
  for (const obs::SpanAttr& attr : span.attrs) {
    if (std::strcmp(attr.key, key) == 0) return &attr;
  }
  return nullptr;
}

/// The numeric value of attribute `key`; fails the test when it is absent.
double Num(const obs::FinishedSpan& span, const char* key) {
  const obs::SpanAttr* attr = FindAttr(span, key);
  EXPECT_NE(attr, nullptr) << span.name << " lacks " << key;
  if (attr == nullptr) return std::nan("");
  return attr->type == obs::SpanAttr::Type::kInt
             ? static_cast<double>(attr->inum)
             : attr->num;
}

/// The string value of attribute `key` ("" when absent or not a string).
std::string Str(const obs::FinishedSpan& span, const char* key) {
  const obs::SpanAttr* attr = FindAttr(span, key);
  EXPECT_NE(attr, nullptr) << span.name << " lacks " << key;
  return attr != nullptr ? attr->str : "";
}

TEST(ExperimentTest, SuiteSpansCarryTheirFieldsAndDatasetIdentity) {
  // RunSuite interleaves datasets on pool workers; every span opened inside
  // a dataset run (episode, ddpg_update, checkpoint, method_run, ...) must
  // still reach that run's dataset_run span, whose attribute names the
  // dataset, through its parent links.
  auto a = ts::MakeDataset(2, 42, 240);
  auto b = ts::MakeDataset(3, 42, 240);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ExperimentOptions opt = FastOptions();
  opt.include_standalone = false;
  opt.eadrl.early_stop = false;  // every restart runs all its episodes.

  obs::TraceBuffer buffer;
  obs::SetTraceBuffer(&buffer);
  std::vector<DatasetResult> results;
  {
    par::ThreadPool pool(4);
    results = RunSuite({*a, *b}, opt, &pool);
  }
  // A worker records its par_task span after the task's completion is
  // visible to the waiter. Joining the suite's pool above and the default
  // pool's workers (pool fits, forecasts and restarts run there) finishes
  // every worker-side span before the buffer is uninstalled.
  par::SetDefaultThreads(par::DefaultThreads());
  obs::SetTraceBuffer(nullptr);
  const std::vector<obs::FinishedSpan> spans = buffer.Snapshot();
  ASSERT_EQ(buffer.dropped(), 0u);
  std::map<uint64_t, const obs::FinishedSpan*> by_id;
  for (const obs::FinishedSpan& s : spans) by_id.emplace(s.span_id, &s);

  // The dataset_run ancestor of `span`, or nullptr.
  auto dataset_run_of =
      [&](const obs::FinishedSpan& span) -> const obs::FinishedSpan* {
    uint64_t parent = span.parent_id;
    while (parent != 0) {
      auto it = by_id.find(parent);
      if (it == by_id.end()) return nullptr;  // dangling
      if (std::strcmp(it->second->name, "dataset_run") == 0) {
        return it->second;
      }
      parent = it->second->parent_id;
    }
    return nullptr;
  };

  // dataset -> method -> RunSuite's reported RMSE.
  std::map<std::string, std::map<std::string, double>> rmse;
  for (const DatasetResult& r : results) {
    for (const MethodRun& m : r.methods) rmse[r.dataset][m.name] = m.rmse;
  }
  const size_t episodes_per_dataset =
      opt.eadrl.restarts * opt.eadrl.max_episodes;

  std::map<std::string, size_t> episodes;  // per dataset
  std::map<std::string, std::set<std::string>> methods;
  size_t suite_runs = 0, pool_fits = 0, model_fits = 0, prepares = 0;
  double fitted = 0.0, fits_ok = 0.0;
  for (const obs::FinishedSpan& s : spans) {
    const std::string name = s.name;
    if (name == "suite_run") {
      ++suite_runs;
      EXPECT_EQ(Num(s, "datasets"), 2.0);
      EXPECT_EQ(Num(s, "methods"), 22.0);
      EXPECT_GT(Num(s, "wall_seconds"), 0.0);
      EXPECT_EQ(Num(s, "threads"), 4.0);
      continue;
    }
    if (name == "par_task" && s.parent_id != 0 &&
        std::strcmp(by_id.at(s.parent_id)->name, "suite_run") == 0) {
      continue;  // the task a dataset_run runs in.
    }
    if (name == "dataset_run") continue;
    const obs::FinishedSpan* run = dataset_run_of(s);
    ASSERT_NE(run, nullptr) << name << " reaches no dataset_run";
    const std::string dataset = Str(*run, "dataset");
    if (name == "episode") {
      ++episodes[dataset];
    } else if (name == "method_run") {
      const std::string method = Str(s, "method");
      EXPECT_TRUE(methods[dataset].insert(method).second) << method;
      // The span's RMSE is the one RunSuite reported for this method on
      // this span's dataset: it reached its own dataset_run.
      EXPECT_EQ(Num(s, "rmse"), rmse.at(dataset).at(method)) << method;
      EXPECT_GE(Num(s, "runtime_seconds"), 0.0);
      EXPECT_EQ(Num(s, "steps"), 60.0);
    } else if (name == "pool_prepare") {
      ++prepares;
      EXPECT_EQ(Str(s, "dataset"), dataset);
      EXPECT_GE(Num(s, "models"), 8.0);
      EXPECT_GE(Num(s, "fit_seconds"), 0.0);
      EXPECT_GT(Num(s, "val_rows"), 0.0);
      EXPECT_EQ(Num(s, "test_rows"), 60.0);
    } else if (name == "pool_fit") {
      ++pool_fits;
      EXPECT_GE(Num(s, "models"), Num(s, "fitted"));
      EXPECT_GE(Num(s, "fitted"), 8.0);
      EXPECT_GT(Num(s, "wall_seconds"), 0.0);
      EXPECT_GT(Num(s, "cpu_seconds"), 0.0);
      EXPECT_GT(Num(s, "speedup"), 0.0);
      EXPECT_GE(Num(s, "threads"), 1.0);  // the default pool's.
      fitted += Num(s, "fitted");
    } else if (name == "model_fit") {
      ++model_fits;
      EXPECT_FALSE(Str(s, "model").empty());
      EXPECT_GE(Num(s, "seconds"), 0.0);
      fits_ok += Num(s, "ok");
    }
  }
  EXPECT_EQ(suite_runs, 1u);
  EXPECT_EQ(prepares, 2u);
  EXPECT_EQ(pool_fits, 2u);
  EXPECT_GE(model_fits, 16u);
  EXPECT_EQ(fits_ok, fitted);
  const std::set<std::string> datasets{a->name(), b->name()};
  for (const std::string& dataset : datasets) {
    EXPECT_EQ(episodes[dataset], episodes_per_dataset) << dataset;
    EXPECT_EQ(methods[dataset].size(), 11u) << dataset;
  }
  EXPECT_EQ(episodes.size(), 2u);
  EXPECT_EQ(methods.size(), 2u);
}

TEST(ExperimentTest, DeterministicAcrossRuns) {
  auto series = ts::MakeDataset(3, 42, 240);
  ASSERT_TRUE(series.ok());
  ExperimentOptions opt = FastOptions();
  opt.include_standalone = false;
  DatasetResult a = RunDataset(*series, opt);
  DatasetResult b = RunDataset(*series, opt);
  ASSERT_EQ(a.methods.size(), b.methods.size());
  for (size_t i = 0; i < a.methods.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.methods[i].rmse, b.methods[i].rmse)
        << a.methods[i].name;
  }
}

}  // namespace
}  // namespace eadrl::exp
