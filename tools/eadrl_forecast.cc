// eadrl_forecast: command-line forecasting with the EA-DRL ensemble.
//
// Reads a univariate series from a CSV file (or generates one of the
// built-in benchmark datasets), fits the base-model pool, learns the
// combination policy offline, and prints an N-step forecast with empirical
// prediction intervals.
//
// Usage:
//   eadrl_forecast --csv data.csv [--column 0] [--skip-rows 1]
//   eadrl_forecast --dataset 9 [--length 400]
// Common options:
//   --horizon N       forecast steps (default 12)
//   --coverage C      interval coverage in (0,1) (default 0.9)
//   --full-pool       use all 43 base models (default: fast 10-model pool)
//   --episodes N      offline training episodes (default 30)
//   --save-policy F   write the trained policy to F
//   --seed S          RNG seed (default 42)
//   --threads N       worker threads for pool fitting / prediction fan-out
//                     (default: EADRL_THREADS env var, else hardware
//                     concurrency; 1 = fully serial)
// Observability:
//   --trace F         write a Chrome trace-event JSON file on exit (load it
//                     in Perfetto / chrome://tracing); every span carries
//                     its attributes (per-episode training curve, per-step
//                     predict weights, pool fit times, DDPG update
//                     diagnostics); EADRL_TRACE=F is the environment
//                     equivalent
//   --metrics-summary print a snapshot of all metrics on exit (includes
//                     process resource gauges: peak RSS, faults, context
//                     switches, scratch-allocation totals)
//   --metrics-format  snapshot format: json (default) or prom (Prometheus
//                     text exposition)
//   --profile-report  print the span profiler's top self-time table on exit
//                     (wall time + attributed scratch allocations per span)

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "core/eadrl.h"
#include "core/intervals.h"
#include "exp/experiment.h"
#include "models/forecaster.h"
#include "models/pool.h"
#include "obs/metrics.h"
#include "obs/resource.h"
#include "obs/trace.h"
#include "par/parallel.h"
#include "ts/datasets.h"
#include "ts/diagnostics.h"
#include "ts/io.h"

namespace {

struct Args {
  std::string csv;
  int dataset = 0;
  size_t length = 400;
  size_t column = 0;
  size_t skip_rows = 0;
  size_t horizon = 12;
  double coverage = 0.9;
  bool full_pool = false;
  size_t episodes = 30;
  std::string save_policy;
  uint64_t seed = 42;
  size_t threads = 0;  // 0 = keep the EADRL_THREADS/hardware default.
  std::string trace;
  bool metrics_summary = false;
  std::string metrics_format = "json";
  bool profile_report = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", name);
        return nullptr;
      }
      return argv[++i];
    };
    if (flag == "--csv") {
      const char* v = next("--csv");
      if (v == nullptr) return false;
      args->csv = v;
    } else if (flag == "--dataset") {
      const char* v = next("--dataset");
      if (v == nullptr) return false;
      args->dataset = std::atoi(v);
    } else if (flag == "--length") {
      const char* v = next("--length");
      if (v == nullptr) return false;
      args->length = std::strtoul(v, nullptr, 10);
    } else if (flag == "--column") {
      const char* v = next("--column");
      if (v == nullptr) return false;
      args->column = std::strtoul(v, nullptr, 10);
    } else if (flag == "--skip-rows") {
      const char* v = next("--skip-rows");
      if (v == nullptr) return false;
      args->skip_rows = std::strtoul(v, nullptr, 10);
    } else if (flag == "--horizon") {
      const char* v = next("--horizon");
      if (v == nullptr) return false;
      args->horizon = std::strtoul(v, nullptr, 10);
    } else if (flag == "--coverage") {
      const char* v = next("--coverage");
      if (v == nullptr) return false;
      args->coverage = std::atof(v);
    } else if (flag == "--full-pool") {
      args->full_pool = true;
    } else if (flag == "--episodes") {
      const char* v = next("--episodes");
      if (v == nullptr) return false;
      args->episodes = std::strtoul(v, nullptr, 10);
    } else if (flag == "--save-policy") {
      const char* v = next("--save-policy");
      if (v == nullptr) return false;
      args->save_policy = v;
    } else if (flag == "--seed") {
      const char* v = next("--seed");
      if (v == nullptr) return false;
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--threads") {
      const char* v = next("--threads");
      if (v == nullptr) return false;
      args->threads = std::strtoul(v, nullptr, 10);
      if (args->threads == 0) {
        std::fprintf(stderr, "--threads must be >= 1\n");
        return false;
      }
    } else if (flag == "--trace") {
      const char* v = next("--trace");
      if (v == nullptr) return false;
      args->trace = v;
    } else if (flag == "--metrics-summary") {
      args->metrics_summary = true;
    } else if (flag == "--profile-report") {
      args->profile_report = true;
    } else if (flag == "--metrics-format") {
      const char* v = next("--metrics-format");
      if (v == nullptr) return false;
      args->metrics_format = v;
      if (args->metrics_format != "json" && args->metrics_format != "prom") {
        std::fprintf(stderr, "--metrics-format must be json or prom\n");
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  if (args->csv.empty() && args->dataset == 0) {
    std::fprintf(stderr,
                 "usage: eadrl_forecast --csv FILE | --dataset ID "
                 "[--horizon N] [--coverage C] [--full-pool]\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  if (args.threads > 0) eadrl::par::SetDefaultThreads(args.threads);
  std::printf("threads: %zu\n", eadrl::par::DefaultThreads());

  // --- Observability. ------------------------------------------------------
  // The trace buffer outlives every instrumented call below. The guard
  // uninstalls it on *every* return path — early errors included — so the
  // trace file is always written.
  if (args.trace.empty()) {
    const char* env_trace = std::getenv("EADRL_TRACE");
    if (env_trace != nullptr && *env_trace != '\0') args.trace = env_trace;
  }
  std::unique_ptr<eadrl::obs::TraceBuffer> trace_buffer;
  // The span profiler only sees armed spans, so --profile-report needs a
  // buffer installed even when no trace file was requested.
  if (!args.trace.empty() || args.profile_report) {
    eadrl::obs::SetCurrentThreadTraceName("main");
    trace_buffer = std::make_unique<eadrl::obs::TraceBuffer>();
    eadrl::obs::SetTraceBuffer(trace_buffer.get());
  }
  struct ObsGuard {
    eadrl::obs::TraceBuffer* trace;
    const std::string* trace_path;
    ~ObsGuard() {
      if (trace != nullptr) {
        // Unset drains in-flight Record calls before returning, so the
        // export below sees every finished span.
        eadrl::obs::SetTraceBuffer(nullptr);
        if (!trace_path->empty()) {
          eadrl::Status st = trace->WriteChromeTrace(*trace_path);
          if (!st.ok()) {
            std::fprintf(stderr, "%s\n", st.ToString().c_str());
          } else {
            std::printf("trace written to %s (%zu spans)\n",
                        trace_path->c_str(), trace->size());
          }
        }
      }
    }
  } obs_guard{trace_buffer.get(), &args.trace};

  // --- Load the series. ----------------------------------------------------
  eadrl::ts::Series series;
  if (!args.csv.empty()) {
    eadrl::ts::CsvOptions csv;
    csv.value_column = args.column;
    csv.skip_rows = args.skip_rows;
    auto loaded = eadrl::ts::LoadCsv(args.csv, csv);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    series = std::move(loaded).value();
  } else {
    auto generated =
        eadrl::ts::MakeDataset(args.dataset, args.seed, args.length);
    if (!generated.ok()) {
      std::fprintf(stderr, "%s\n", generated.status().ToString().c_str());
      return 1;
    }
    series = std::move(generated).value();
  }
  std::printf("series: %s, %zu points\n", series.name().c_str(),
              series.size());

  // Seasonal-period detection helps the Holt-Winters pool member.
  if (series.seasonal_period() == 0) {
    size_t period = eadrl::ts::EstimateSeasonalPeriod(series.values());
    if (period > 0) {
      std::printf("detected seasonal period: %zu\n", period);
      series = eadrl::ts::Series(series.name(), series.values(),
                                 series.frequency(), period);
    }
  }

  // --- Fit pool + policy. --------------------------------------------------
  eadrl::exp::ExperimentOptions opt;
  opt.seed = args.seed;
  opt.pool.fast_mode = !args.full_pool;
  opt.pool.nn_epochs = 6;
  opt.eadrl.max_episodes = args.episodes;
  eadrl::exp::PoolRun pool_run = eadrl::exp::PreparePool(series, opt);
  std::printf("pool: %zu base models fitted\n",
              pool_run.model_names.size());

  eadrl::core::EadrlCombiner combiner(opt.eadrl);
  eadrl::Status st =
      combiner.Initialize(pool_run.val_preds, pool_run.val_actuals);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("policy trained (%zu episodes)\n",
              combiner.episode_rewards().size());

  // Calibrate intervals on the held-out test segment (one-step residuals).
  eadrl::math::Vec residuals;
  for (size_t t = 0; t < pool_run.test_actuals.size(); ++t) {
    eadrl::math::Vec preds = pool_run.test_preds.Row(t);
    double p = combiner.Predict(preds);
    combiner.Update(preds, pool_run.test_actuals[t]);
    residuals.push_back(pool_run.test_actuals[t] - p);
  }
  eadrl::core::EmpiricalIntervals intervals;
  st = intervals.Calibrate(residuals);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  if (!args.save_policy.empty()) {
    st = combiner.SavePolicy(args.save_policy);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("policy saved to %s\n", args.save_policy.c_str());
  }

  // --- Multi-step forecast (Algorithm 1): refit pool on the full series. ---
  auto models =
      eadrl::models::FitPool(eadrl::models::BuildPaperPool(opt.pool), series);
  std::printf("\n%4s %12s %12s %12s  (%.0f%% interval)\n", "step",
              "forecast", "lower", "upper", args.coverage * 100.0);
  for (size_t j = 0; j < args.horizon; ++j) {
    // Per-step ensemble fan-out (Algorithm 1's online prediction): every
    // base model predicts — then observes the ensemble output — in parallel;
    // ParallelMap keeps the predictions in pool order.
    eadrl::math::Vec base_preds = eadrl::par::ParallelMap<double>(
        models.size(), [&](size_t m) { return models[m]->PredictNext(); });
    double point = combiner.Predict(base_preds);
    auto interval = intervals.Interval(point, args.coverage);
    if (!interval.ok()) return 1;
    std::printf("%4zu %12.4f %12.4f %12.4f\n", j + 1, interval->point,
                interval->lower, interval->upper);
    eadrl::par::ParallelFor(0, models.size(),
                            [&](size_t m) { models[m]->Observe(point); });
  }

  if (args.profile_report) {
    std::printf("\n%s", eadrl::obs::FormatSpanProfileReport().c_str());
  }
  if (args.metrics_summary) {
    // Fold the process resource view (peak RSS, faults, context switches,
    // scratch-allocation totals) into the registry before exporting it.
    eadrl::obs::UpdateResourceMetrics();
    const eadrl::obs::MetricRegistry& registry =
        eadrl::obs::MetricRegistry::Default();
    const std::string snapshot = args.metrics_format == "prom"
                                     ? registry.ToPrometheus()
                                     : registry.ToJson();
    std::printf("\nmetrics summary:\n%s\n", snapshot.c_str());
  }
  return 0;
}
