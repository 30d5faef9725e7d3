// Integration of the eadrl::obs layer with the training/inference stack:
// a tiny EadrlCombiner run with a TraceBuffer installed must record every
// documented span with its attributes (the training curve, the online
// steps, the DDPG diagnostics), and the untraced path must leave results
// bit-identical (instrumentation cannot perturb the math).

#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "core/eadrl.h"
#include "math/matrix.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace eadrl::core {
namespace {

void MakeData(size_t t_steps, uint64_t seed, math::Matrix* preds,
              math::Vec* actuals) {
  Rng rng(seed);
  actuals->resize(t_steps);
  *preds = math::Matrix(t_steps, 3);
  double x = 10.0;
  for (size_t t = 0; t < t_steps; ++t) {
    x = 10.0 + 0.8 * (x - 10.0) + rng.Normal(0, 1.0);
    (*actuals)[t] = x;
    (*preds)(t, 0) = x + rng.Normal(0, 0.1);
    (*preds)(t, 1) = x + rng.Normal(0, 1.5);
    (*preds)(t, 2) = x + 4.0 + rng.Normal(0, 1.0);
  }
}

EadrlConfig TinyConfig() {
  EadrlConfig cfg;
  cfg.omega = 5;
  cfg.max_episodes = 4;
  cfg.max_iterations = 25;
  cfg.actor_hidden = {16};
  cfg.critic_hidden = {16};
  cfg.batch_size = 8;
  cfg.warmup_transitions = 16;
  cfg.restarts = 1;
  cfg.early_stop = false;
  cfg.seed = 11;
  return cfg;
}

/// TinyConfig with drift-informed online updates: the online steps of
/// RunOnline open `drift` and `online_update` spans.
EadrlConfig OnlineConfig() {
  EadrlConfig cfg = TinyConfig();
  cfg.online_update = OnlineUpdateMode::kDriftInformed;
  cfg.online_update_iterations = 2;
  return cfg;
}

/// A calm regime, then every member goes badly wrong: the drift detector
/// fires and the online updates run. Returns the predictions.
math::Vec RunOnline(EadrlCombiner* combiner, size_t steps) {
  Rng rng(10);
  math::Vec out;
  for (size_t t = 0; t < steps; ++t) {
    const double x = 10.0 + rng.Normal(0, 0.5);
    const math::Vec preds = t < steps / 2 ? math::Vec{x, x + 0.1, x + 4.0}
                                          : math::Vec{50.0, 51.0, 55.0};
    out.push_back(combiner->Predict(preds));
    combiner->Update(preds, x);
  }
  return out;
}

/// The recorded spans, grouped by name.
std::map<std::string, std::vector<obs::FinishedSpan>> ByName(
    const obs::TraceBuffer& buffer) {
  std::map<std::string, std::vector<obs::FinishedSpan>> out;
  for (obs::FinishedSpan& span : buffer.Snapshot()) {
    out[span.name].push_back(std::move(span));
  }
  return out;
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

TEST(ObsIntegrationTest, TrainingAndOnlineSpansCarryTheirFields) {
  math::Matrix preds;
  math::Vec actuals;
  MakeData(80, 5, &preds, &actuals);

  obs::TraceBuffer buffer;
  obs::SetTraceBuffer(&buffer);
  EadrlCombiner combiner(OnlineConfig());
  ASSERT_TRUE(combiner.Initialize(preds, actuals).ok());
  for (double p : RunOnline(&combiner, 60)) EXPECT_TRUE(std::isfinite(p));
  obs::SetTraceBuffer(nullptr);
  auto spans = ByName(buffer);

  ASSERT_EQ(spans["train"].size(), 1u);
  const obs::FinishedSpan& train = spans["train"][0];
  EXPECT_EQ(Num(train, "restarts"), 1.0);
  EXPECT_EQ(Num(train, "models"), 3.0);
  EXPECT_EQ(Num(train, "episodes"), 4.0);
  EXPECT_EQ(Num(train, "converged_episode"), 4.0);
  EXPECT_LE(Num(train, "best_eval"), 0.0);  // negative rollout RMSE.

  ASSERT_EQ(spans["episode"].size(), 4u);
  for (const obs::FinishedSpan& e : spans["episode"]) {
    EXPECT_EQ(Num(e, "restart"), 0.0);
    EXPECT_TRUE(std::isfinite(Num(e, "reward")));
    EXPECT_GT(Num(e, "ou_sigma"), 0.0);
    EXPECT_GT(Num(e, "explore_prob"), 0.0);
    EXPECT_GT(Num(e, "replay_size"), 0.0);
    EXPECT_TRUE(std::isfinite(Num(e, "critic_loss")));
    EXPECT_LE(Num(e, "eval_score"), 0.0);  // every episode is evaluated.
  }

  ASSERT_GE(spans["checkpoint"].size(), 1u);  // the first eval is a best.
  for (const obs::FinishedSpan& c : spans["checkpoint"]) {
    EXPECT_EQ(Num(c, "restart"), 0.0);
    EXPECT_LT(Num(c, "episode"), 4.0);
    EXPECT_TRUE(std::isfinite(Num(c, "eval_score")));
  }

  ASSERT_GT(spans["ddpg_update"].size(), 0u);
  for (const obs::FinishedSpan& u : spans["ddpg_update"]) {
    EXPECT_GE(Num(u, "update"), 1.0);
    EXPECT_EQ(Num(u, "batch"), 8.0);
    EXPECT_TRUE(std::isfinite(Num(u, "critic_loss")));
    EXPECT_GE(Num(u, "mean_abs_q"), 0.0);
    EXPECT_GE(Num(u, "actor_grad_norm"), 0.0);
    EXPECT_GE(Num(u, "action_entropy"), 0.0);
  }

  // Predict steps are strictly increasing 1..60.
  ASSERT_EQ(spans["predict"].size(), 60u);
  double last_step = 0.0;
  for (const obs::FinishedSpan& p : spans["predict"]) {
    EXPECT_EQ(Num(p, "step"), last_step + 1.0);
    last_step = Num(p, "step");
    EXPECT_GE(Num(p, "latency_seconds"), 0.0);
    EXPECT_TRUE(std::isfinite(Num(p, "prediction")));
    const double entropy = Num(p, "weight_entropy");
    EXPECT_GE(entropy, 0.0);
    EXPECT_LE(entropy, std::log(3.0) + 1e-9);
    EXPECT_GT(Num(p, "max_weight"), 0.0);
    EXPECT_LE(Num(p, "max_weight"), 1.0);
    EXPECT_GE(Num(p, "online_updates"), 0.0);
    EXPECT_TRUE(std::isfinite(Num(p, "drift_cum")));
  }
  EXPECT_EQ(Num(spans["predict"].back(), "online_updates"),
            static_cast<double>(combiner.online_updates()));

  ASSERT_GE(spans["drift"].size(), 1u);
  for (const obs::FinishedSpan& d : spans["drift"]) {
    EXPECT_GT(Num(d, "step"), 30.0);  // the regime change, not the calm.
    EXPECT_GT(Num(d, "error"), 0.0);
    EXPECT_GT(Num(d, "observations"), 0.0);
  }

  ASSERT_GE(spans["online_update"].size(), 1u);
  double total = 0.0;
  for (const obs::FinishedSpan& u : spans["online_update"]) {
    EXPECT_GT(Num(u, "step"), 30.0);
    EXPECT_EQ(Num(u, "iterations"), 2.0);
    EXPECT_EQ(Num(u, "total_updates"), total + 2.0);
    total = Num(u, "total_updates");
    const obs::SpanAttr* mode = FindAttr(u, "mode");
    ASSERT_NE(mode, nullptr);
    EXPECT_EQ(mode->str, "drift");
    EXPECT_TRUE(std::isfinite(Num(u, "critic_loss")));
  }
  EXPECT_EQ(total, static_cast<double>(combiner.online_updates()));
}

TEST(ObsIntegrationTest, InstrumentationDoesNotPerturbResults) {
  math::Matrix preds;
  math::Vec actuals;
  MakeData(80, 9, &preds, &actuals);

  auto run = [&](bool traced) {
    obs::TraceBuffer buffer;
    if (traced) obs::SetTraceBuffer(&buffer);
    EadrlCombiner combiner(OnlineConfig());
    EXPECT_TRUE(combiner.Initialize(preds, actuals).ok());
    math::Vec out = RunOnline(&combiner, 40);
    if (traced) obs::SetTraceBuffer(nullptr);
    return out;
  };

  const math::Vec with = run(true);
  const math::Vec without = run(false);
  ASSERT_EQ(with.size(), without.size());
  for (size_t i = 0; i < with.size(); ++i) EXPECT_EQ(with[i], without[i]);
}

TEST(ObsIntegrationTest, RegistryCountsTrainingActivity) {
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  double episodes_before = reg.GetCounter("eadrl_episodes_total")->Value();
  double predicts_before = reg.GetCounter("eadrl_predict_total")->Value();
  uint64_t latency_before =
      reg.GetHistogram("eadrl_predict_seconds")->Count();

  math::Matrix preds;
  math::Vec actuals;
  MakeData(80, 3, &preds, &actuals);
  EadrlCombiner combiner(TinyConfig());
  ASSERT_TRUE(combiner.Initialize(preds, actuals).ok());
  math::Vec step{10.0, 10.5, 14.0};
  combiner.Predict(step);

  EXPECT_DOUBLE_EQ(reg.GetCounter("eadrl_episodes_total")->Value(),
                   episodes_before + 4.0);
  EXPECT_DOUBLE_EQ(reg.GetCounter("eadrl_predict_total")->Value(),
                   predicts_before + 1.0);
  EXPECT_EQ(reg.GetHistogram("eadrl_predict_seconds")->Count(),
            latency_before + 1);
}

TEST(ObsIntegrationTest, LogSinkCapturesPoolWarnings) {
  // The logging satellite: tests capture log output through a sink instead
  // of scraping stderr.
  struct CaptureSink : public LogSink {
    void Write(const LogRecord& record) override {
      records.push_back(record);
    }
    std::vector<LogRecord> records;
  } capture;

  SetLogSink(&capture);
  EADRL_LOG(Warning) << "synthetic warning " << 42;
  SetLogSink(nullptr);

  ASSERT_EQ(capture.records.size(), 1u);
  EXPECT_EQ(capture.records[0].level, LogLevel::kWarning);
  EXPECT_EQ(capture.records[0].message, "synthetic warning 42");
  EXPECT_GT(capture.records[0].unix_seconds, 0.0);
  EXPECT_NE(std::string(capture.records[0].file).find("obs_integration"),
            std::string::npos);
}

}  // namespace
}  // namespace eadrl::core
