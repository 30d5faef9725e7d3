// eadrl_serve: open-loop load driver for the multi-tenant serving layer.
//
// Trains one small EA-DRL policy, registers it with a serve::ForecastService,
// creates N tenant sessions (each with its own unit scaler), and replays
// synthetic open-loop traffic (Poisson or bursty arrivals at a target QPS)
// through the cross-tenant batching path. Reports admission/shedding counts,
// achieved throughput, end-to-end predict p50/p99, and mean batched-actor
// occupancy; optionally exports a Chrome trace and the span-profiler report
// (serve_request / serve_batch / serve_admission rows).
//
// Live observability (PR 10): --report-interval prints a windowed stats
// line (QPS, p99, shed rate, queue delay) every interval while the replay
// runs; --export-metrics starts a background obs::MetricsExporter writing
// atomic Prometheus/JSON snapshots; --slo-latency-ms enables the service's
// SLO tracker (predict-latency + availability objectives with burn-rate
// alerting) and --expect-slo-breach gates the overload path on it;
// --tenant-top prints the per-tenant latency drill-down; --trace exports
// every span with its attributes (sessions, evictions, shed and rejected
// admissions, waves, drift).
//
// Usage:
//   eadrl_serve [--tenants N] [--requests N] [--qps Q]
//               [--schedule poisson|bursty] [--burst-factor F]
//               [--max-batch N] [--max-queue N] [--max-inflight N]
//               [--linger-us U] [--shards N] [--max-sessions N] [--ttl SEC]
//               [--episodes N] [--threads N] [--seed S] [--no-observe]
//               [--trace FILE] [--profile-report]
//               [--expect-shed] [--min-occupancy X]
//               [--report-interval SEC] [--export-metrics FILE]
//               [--export-interval SEC] [--slo-latency-ms MS]
//               [--slo-target T] [--expect-slo-breach] [--tenant-top N]
//
// Exit status: 0 on success, 1 when an --expect-shed / --min-occupancy /
// --expect-slo-breach expectation failed, 2 on usage or setup errors — so
// check.sh can gate on both the happy path and the overload path.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <utility>
#include <string>
#include <thread>

#include "common/string_util.h"
#include "core/eadrl.h"
#include "exp/experiment.h"
#include "obs/exporter.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "serve/replay.h"
#include "serve/service.h"
#include "ts/datasets.h"

namespace {

using eadrl::Status;
using eadrl::StatusOr;

struct Args {
  size_t tenants = 1000;
  size_t requests = 20000;
  double qps = 20000.0;
  eadrl::serve::ReplayOptions::Schedule schedule =
      eadrl::serve::ReplayOptions::Schedule::kPoisson;
  double burst_factor = 4.0;
  size_t max_batch = 64;
  size_t max_queue = 4096;
  size_t max_inflight = 0;
  size_t linger_us = 200;
  size_t shards = 16;
  size_t max_sessions = 0;
  double ttl_seconds = 0.0;
  size_t episodes = 4;
  size_t threads = 0;
  uint64_t seed = 42;
  bool observe = true;
  std::string trace;
  bool profile_report = false;
  bool expect_shed = false;
  double min_occupancy = 0.0;
  double report_interval = 0.0;  ///< 0 = no live interval lines.
  std::string export_metrics;    ///< exporter output path ("" = off).
  double export_interval = 1.0;
  double slo_latency_ms = 0.0;   ///< > 0 enables the SLO tracker.
  double slo_target = 0.99;
  bool expect_slo_breach = false;
  size_t tenant_top = 0;         ///< top-K drill-down rows to print.
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: eadrl_serve [--tenants N] [--requests N] [--qps Q]\n"
      "                   [--schedule poisson|bursty] [--burst-factor F]\n"
      "                   [--max-batch N] [--max-queue N] [--max-inflight N]\n"
      "                   [--linger-us U] [--shards N] [--max-sessions N]\n"
      "                   [--ttl SEC] [--episodes N] [--threads N] [--seed S]\n"
      "                   [--no-observe] [--trace FILE] [--profile-report]\n"
      "                   [--expect-shed] [--min-occupancy X]\n"
      "                   [--report-interval SEC] [--export-metrics FILE]\n"
      "                   [--export-interval SEC] [--slo-latency-ms MS]\n"
      "                   [--slo-target T] [--expect-slo-breach]\n"
      "                   [--tenant-top N]\n");
}

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
    const char* v = nullptr;
    if (flag == "--tenants") {
      if ((v = next("--tenants")) == nullptr) return false;
      args->tenants = std::strtoul(v, nullptr, 10);
    } else if (flag == "--requests") {
      if ((v = next("--requests")) == nullptr) return false;
      args->requests = std::strtoul(v, nullptr, 10);
    } else if (flag == "--qps") {
      if ((v = next("--qps")) == nullptr) return false;
      args->qps = std::atof(v);
    } else if (flag == "--schedule") {
      if ((v = next("--schedule")) == nullptr) return false;
      if (std::strcmp(v, "poisson") == 0) {
        args->schedule = eadrl::serve::ReplayOptions::Schedule::kPoisson;
      } else if (std::strcmp(v, "bursty") == 0) {
        args->schedule = eadrl::serve::ReplayOptions::Schedule::kBursty;
      } else {
        std::fprintf(stderr, "--schedule must be poisson or bursty\n");
        return false;
      }
    } else if (flag == "--burst-factor") {
      if ((v = next("--burst-factor")) == nullptr) return false;
      args->burst_factor = std::atof(v);
    } else if (flag == "--max-batch") {
      if ((v = next("--max-batch")) == nullptr) return false;
      args->max_batch = std::strtoul(v, nullptr, 10);
    } else if (flag == "--max-queue") {
      if ((v = next("--max-queue")) == nullptr) return false;
      args->max_queue = std::strtoul(v, nullptr, 10);
    } else if (flag == "--max-inflight") {
      if ((v = next("--max-inflight")) == nullptr) return false;
      args->max_inflight = std::strtoul(v, nullptr, 10);
    } else if (flag == "--linger-us") {
      if ((v = next("--linger-us")) == nullptr) return false;
      args->linger_us = std::strtoul(v, nullptr, 10);
    } else if (flag == "--shards") {
      if ((v = next("--shards")) == nullptr) return false;
      args->shards = std::strtoul(v, nullptr, 10);
    } else if (flag == "--max-sessions") {
      if ((v = next("--max-sessions")) == nullptr) return false;
      args->max_sessions = std::strtoul(v, nullptr, 10);
    } else if (flag == "--ttl") {
      if ((v = next("--ttl")) == nullptr) return false;
      args->ttl_seconds = std::atof(v);
    } else if (flag == "--episodes") {
      if ((v = next("--episodes")) == nullptr) return false;
      args->episodes = std::strtoul(v, nullptr, 10);
    } else if (flag == "--threads") {
      if ((v = next("--threads")) == nullptr) return false;
      args->threads = std::strtoul(v, nullptr, 10);
    } else if (flag == "--seed") {
      if ((v = next("--seed")) == nullptr) return false;
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--no-observe") {
      args->observe = false;
    } else if (flag == "--trace") {
      if ((v = next("--trace")) == nullptr) return false;
      args->trace = v;
    } else if (flag == "--profile-report") {
      args->profile_report = true;
    } else if (flag == "--expect-shed") {
      args->expect_shed = true;
    } else if (flag == "--min-occupancy") {
      if ((v = next("--min-occupancy")) == nullptr) return false;
      args->min_occupancy = std::atof(v);
    } else if (flag == "--report-interval") {
      if ((v = next("--report-interval")) == nullptr) return false;
      args->report_interval = std::atof(v);
    } else if (flag == "--export-metrics") {
      if ((v = next("--export-metrics")) == nullptr) return false;
      args->export_metrics = v;
    } else if (flag == "--export-interval") {
      if ((v = next("--export-interval")) == nullptr) return false;
      args->export_interval = std::atof(v);
    } else if (flag == "--slo-latency-ms") {
      if ((v = next("--slo-latency-ms")) == nullptr) return false;
      args->slo_latency_ms = std::atof(v);
    } else if (flag == "--slo-target") {
      if ((v = next("--slo-target")) == nullptr) return false;
      args->slo_target = std::atof(v);
    } else if (flag == "--expect-slo-breach") {
      args->expect_slo_breach = true;
    } else if (flag == "--tenant-top") {
      if ((v = next("--tenant-top")) == nullptr) return false;
      args->tenant_top = std::strtoul(v, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      Usage();
      return false;
    }
  }
  return true;
}

/// "serve" exporter section: one JSON object of live service stats.
std::string ServeStatsJson(const eadrl::serve::ForecastService& service) {
  const eadrl::serve::ServeStats s = service.Stats();
  std::string out = "{";
  for (const auto& [key, value] :
       {std::pair<const char*, double>{"sessions", s.sessions},
        {"predicts", s.predicts},
        {"observes", s.observes},
        {"shed", s.shed},
        {"inflight", s.inflight},
        {"queue_depth", s.queue_depth},
        {"window_seconds", s.window_seconds},
        {"window_predict_qps", s.window_predict_qps},
        {"window_shed_rate", s.window_shed_rate},
        {"window_predict_p50_s", s.window_predict_p50_s},
        {"window_predict_p99_s", s.window_predict_p99_s},
        {"queue_delay_count", s.queue_delay_count},
        {"queue_delay_mean_s", s.queue_delay_mean_s},
        {"queue_delay_p50_s", s.queue_delay_p50_s},
        {"queue_delay_p99_s", s.queue_delay_p99_s},
        {"queue_delay_max_s", s.queue_delay_max_s}}) {
    if (out.size() > 1) out += ',';
    out += '"';
    out += key;
    out += "\":";
    eadrl::AppendJsonNumber(&out, value);
  }
  out += '}';
  return out;
}

/// "serve" exporter section, Prometheus flavour: the windowed gauges that a
/// scraper cannot derive from the cumulative registry metrics.
void AppendServeStatsProm(const eadrl::serve::ForecastService& service,
                          std::string* out) {
  const eadrl::serve::ServeStats s = service.Stats();
  for (const auto& [name, value] :
       {std::pair<const char*, double>{"eadrl_serve_window_predict_qps",
                                       s.window_predict_qps},
        {"eadrl_serve_window_shed_rate", s.window_shed_rate},
        {"eadrl_serve_window_predict_p50_seconds", s.window_predict_p50_s},
        {"eadrl_serve_window_predict_p99_seconds", s.window_predict_p99_s},
        {"eadrl_serve_queue_delay_p50_seconds", s.queue_delay_p50_s},
        {"eadrl_serve_queue_delay_p99_seconds", s.queue_delay_p99_s},
        {"eadrl_serve_queue_delay_max_seconds", s.queue_delay_max_s}}) {
    eadrl::obs::AppendPrometheusType(out, name, "gauge");
    eadrl::obs::AppendPrometheusSample(out, name, {}, value);
  }
}

int Run(const Args& args) {
  // Train one small policy on a synthetic dataset: a fast pool and a few
  // episodes, enough for a replay that exercises batching.
  std::printf("training policy (%zu episodes, fast pool)...\n", args.episodes);
  auto series = eadrl::ts::MakeDataset(2, static_cast<int>(args.seed), 240);
  if (!series.ok()) {
    std::fprintf(stderr, "%s\n", series.status().ToString().c_str());
    return 2;
  }
  eadrl::exp::ExperimentOptions opt;
  opt.seed = args.seed;
  opt.pool.fast_mode = true;
  opt.pool.nn_epochs = 2;
  opt.eadrl.max_episodes = args.episodes;
  eadrl::exp::PoolRun pool = eadrl::exp::PreparePool(*series, opt);
  auto combiner = std::make_unique<eadrl::core::EadrlCombiner>(opt.eadrl);
  Status st = combiner->Initialize(pool.val_preds, pool.val_actuals);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }

  // The service gets its own pool (not the process-wide default): its
  // destructor joins the drainer workers before Run returns, so the trace
  // export in main can never race a drain task's final span records.
  eadrl::par::ThreadPool serve_pool(args.threads > 0
                                        ? args.threads
                                        : eadrl::par::DefaultPool().concurrency());
  eadrl::serve::ServeConfig config;
  config.shards = args.shards;
  config.max_sessions = args.max_sessions;
  config.session_ttl_seconds = args.ttl_seconds;
  config.max_batch = args.max_batch;
  config.max_queue = args.max_queue;
  config.max_inflight = args.max_inflight;
  config.linger_us = args.linger_us;
  config.pool = &serve_pool;
  // Windowed stats and drill-down are opt-in in ServeConfig (hot-path
  // cost); the load driver is exactly where the live view pays for itself.
  config.windowed_stats = true;
  config.tenant_drilldown = 64;
  config.policy_drilldown = 16;
  if (args.slo_latency_ms > 0.0) {
    config.slo.enabled = true;
    config.slo.latency_threshold_seconds = args.slo_latency_ms / 1000.0;
    config.slo.latency_target = args.slo_target;
  }
  eadrl::serve::ForecastService service(config);
  const size_t policy_id = service.RegisterPolicy(std::move(combiner));

  // Background exporter: atomic snapshots of the default registry plus the
  // service-owned sections (windowed stats, SLO, drill-down families).
  std::unique_ptr<eadrl::obs::MetricsExporter> exporter;
  if (!args.export_metrics.empty()) {
    eadrl::obs::MetricsExporter::Options eopt;
    eopt.path = args.export_metrics;
    eopt.interval_seconds = args.export_interval;
    eopt.registry = &eadrl::obs::MetricRegistry::Default();
    exporter = std::make_unique<eadrl::obs::MetricsExporter>(eopt);
    exporter->AddSection(
        {"serve", [&service] { return ServeStatsJson(service); },
         [&service](std::string* out) { AppendServeStatsProm(service, out); }});
    if (service.slo_tracker() != nullptr) {
      exporter->AddSection(
          {"slo", [&service] { return service.slo_tracker()->ToJsonValue(); },
           [&service](std::string* out) {
             service.slo_tracker()->AppendPrometheus(out);
           }});
      // Evaluate on every export tick so breach/recover edges fire even when
      // the drain path goes idle (nothing drained = nobody else evaluates).
      exporter->SetOnExport([&service] { service.slo_tracker()->Evaluate(); });
    }
    const size_t top = args.tenant_top > 0 ? args.tenant_top : 10;
    if (service.tenant_drilldown() != nullptr) {
      exporter->AddSection(
          {"tenants",
           [&service, top] {
             return service.tenant_drilldown()->ToJsonValue(top);
           },
           [&service, top](std::string* out) {
             service.tenant_drilldown()->AppendPrometheus(out, top);
           }});
    }
    if (service.policy_drilldown() != nullptr) {
      exporter->AddSection(
          {"policies",
           [&service, top] {
             return service.policy_drilldown()->ToJsonValue(top);
           },
           [&service, top](std::string* out) {
             service.policy_drilldown()->AppendPrometheus(out, top);
           }});
    }
    exporter->Start();
  }

  // Live interval reporter: one windowed-stats line per interval while the
  // replay runs. Off by default so replay gates stay line-deterministic.
  std::atomic<bool> reporter_stop{false};
  std::thread reporter;
  if (args.report_interval > 0.0) {
    reporter = std::thread([&service, &reporter_stop, &args] {
      const auto interval = std::chrono::duration_cast<
          std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(args.report_interval));
      const auto start = std::chrono::steady_clock::now();
      auto next_tick = start + interval;
      while (!reporter_stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        const auto now = std::chrono::steady_clock::now();
        if (now < next_tick) continue;
        next_tick += interval;
        const eadrl::serve::ServeStats s = service.Stats();
        std::printf(
            "[t+%5.1fs] qps %7.0f shed/s %6.1f p50 %7.3f ms p99 %7.3f ms "
            "qdelay p99 %7.3f ms depth %llu inflight %llu\n",
            std::chrono::duration<double>(now - start).count(),
            s.window_predict_qps, s.window_shed_rate,
            s.window_predict_p50_s * 1e3, s.window_predict_p99_s * 1e3,
            s.queue_delay_p99_s * 1e3,
            static_cast<unsigned long long>(s.queue_depth),
            static_cast<unsigned long long>(s.inflight));
        std::fflush(stdout);
      }
    });
  }

  eadrl::serve::ReplayOptions replay;
  replay.tenants = args.tenants;
  replay.requests = args.requests;
  replay.target_qps = args.qps;
  replay.schedule = args.schedule;
  replay.burst_factor = args.burst_factor;
  replay.seed = args.seed;
  replay.policy_id = policy_id;
  replay.observe = args.observe;

  std::printf(
      "replaying %zu requests over %zu tenants at %.0f qps (%s)...\n",
      args.requests, args.tenants, args.qps,
      args.schedule == eadrl::serve::ReplayOptions::Schedule::kPoisson
          ? "poisson"
          : "bursty");
  StatusOr<eadrl::serve::ReplayReport> report = eadrl::serve::RunOpenLoopReplay(
      &service, pool.test_preds, pool.test_actuals, replay);

  // Quiesce the observers before reporting (or bailing): the reporter thread
  // must be joined on every path, and Stop flushes one final export so the
  // snapshot file reflects final totals.
  reporter_stop.store(true, std::memory_order_relaxed);
  if (reporter.joinable()) reporter.join();
  if (exporter != nullptr) {
    exporter->Stop();
    std::printf("metrics exported to %s (%llu snapshots, %llu failures)\n",
                args.export_metrics.c_str(),
                static_cast<unsigned long long>(exporter->exports()),
                static_cast<unsigned long long>(exporter->failures()));
  }

  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 2;
  }

  const eadrl::serve::ServeStats stats = service.Stats();
  std::printf("\n--- replay report ---\n");
  std::printf("submitted            %llu\n",
              static_cast<unsigned long long>(report->submitted));
  std::printf("accepted             %llu\n",
              static_cast<unsigned long long>(report->accepted));
  std::printf("shed (predict)       %llu\n",
              static_cast<unsigned long long>(report->predict_shed));
  std::printf("shed (observe)       %llu\n",
              static_cast<unsigned long long>(report->observe_shed));
  std::printf("evicted (observe)    %llu\n",
              static_cast<unsigned long long>(report->observe_evicted));
  std::printf("wall                 %.3f s\n", report->wall_seconds);
  std::printf("offered qps          %.0f\n", report->offered_qps);
  std::printf("achieved qps         %.0f\n", report->achieved_qps);
  std::printf("predict p50          %.3f ms\n", report->predict_p50_ms);
  std::printf("predict p99          %.3f ms\n", report->predict_p99_ms);
  std::printf("predict max          %.3f ms\n", report->predict_max_ms);
  std::printf("waves                %llu\n",
              static_cast<unsigned long long>(report->waves));
  std::printf("actor batches        %llu (%llu rows, occupancy %.2f)\n",
              static_cast<unsigned long long>(report->act_batches),
              static_cast<unsigned long long>(report->act_batch_rows),
              report->MeanBatchOccupancy());
  std::printf("drift events         %llu\n",
              static_cast<unsigned long long>(report->drift_events));
  std::printf("resident sessions    %llu (created %llu, recreated %llu, "
              "lru %llu, ttl %llu)\n",
              static_cast<unsigned long long>(stats.sessions),
              static_cast<unsigned long long>(stats.sessions_created),
              static_cast<unsigned long long>(report->sessions_recreated),
              static_cast<unsigned long long>(stats.evictions_lru),
              static_cast<unsigned long long>(stats.evictions_ttl));

  std::printf("\n--- windowed (last %.1f s) ---\n", stats.window_seconds);
  std::printf("window predict qps   %.0f\n", stats.window_predict_qps);
  std::printf("window shed rate     %.1f /s\n", stats.window_shed_rate);
  std::printf("window predict p50   %.3f ms\n", stats.window_predict_p50_s * 1e3);
  std::printf("window predict p99   %.3f ms\n", stats.window_predict_p99_s * 1e3);
  std::printf("queue delay          n=%llu mean %.3f ms p50 %.3f ms "
              "p99 %.3f ms max %.3f ms\n",
              static_cast<unsigned long long>(stats.queue_delay_count),
              stats.queue_delay_mean_s * 1e3, stats.queue_delay_p50_s * 1e3,
              stats.queue_delay_p99_s * 1e3, stats.queue_delay_max_s * 1e3);

  if (service.slo_tracker() != nullptr) {
    service.slo_tracker()->Evaluate();  // final edge check before reporting.
    const eadrl::obs::SloReport slo = service.slo_tracker()->Report();
    std::printf("\n--- slo report ---\n");
    for (const eadrl::obs::SloObjectiveReport& o : slo.objectives) {
      std::printf(
          "%-16s good %llu bad %llu budget %.2fx burn long %.2f short %.2f "
          "%s (breaches %llu, recoveries %llu)\n",
          o.name.c_str(), static_cast<unsigned long long>(o.good),
          static_cast<unsigned long long>(o.bad), o.budget_consumed,
          o.burn_rate_long, o.burn_rate_short,
          o.breached ? "BREACHED" : "ok",
          static_cast<unsigned long long>(o.breaches),
          static_cast<unsigned long long>(o.recoveries));
    }
  }

  if (args.tenant_top > 0 && service.tenant_drilldown() != nullptr) {
    const eadrl::obs::LabeledWindowedFamilySnapshot fam =
        service.tenant_drilldown()->Snapshot(args.tenant_top);
    std::printf(
        "\n--- tenant drill-down (top %zu of %zu tracked, overflow %llu, "
        "evictions %llu) ---\n",
        args.tenant_top, fam.tracked_labels,
        static_cast<unsigned long long>(fam.overflow),
        static_cast<unsigned long long>(fam.evictions));
    for (const eadrl::obs::LabeledWindowSnapshot& row : fam.top) {
      std::printf("%-16s n=%-6llu rate %6.1f/s p50 %7.3f ms p99 %7.3f ms\n",
                  row.label.c_str(),
                  static_cast<unsigned long long>(row.window.count),
                  row.window.Rate(), row.window.Quantile(0.5) * 1e3,
                  row.window.Quantile(0.99) * 1e3);
    }
  }

  if (args.ttl_seconds > 0.0) {
    const size_t evicted = service.EvictIdleSessions();
    std::printf("ttl sweep            evicted %zu\n", evicted);
  }

  int rc = 0;
  const uint64_t total_shed = report->predict_shed + report->observe_shed;
  if (args.expect_shed && total_shed == 0) {
    std::fprintf(stderr,
                 "FAIL: --expect-shed but admission control never shed\n");
    rc = 1;
  }
  if (args.min_occupancy > 0.0 &&
      report->MeanBatchOccupancy() < args.min_occupancy) {
    std::fprintf(stderr, "FAIL: mean occupancy %.2f < required %.2f\n",
                 report->MeanBatchOccupancy(), args.min_occupancy);
    rc = 1;
  }
  if (args.expect_slo_breach) {
    const eadrl::obs::SloTracker* slo = service.slo_tracker();
    if (slo == nullptr) {
      std::fprintf(stderr,
                   "FAIL: --expect-slo-breach requires --slo-latency-ms\n");
      rc = 1;
    } else if (slo->Report().TotalBreaches() == 0) {
      std::fprintf(stderr,
                   "FAIL: --expect-slo-breach but no SLO breach edge fired\n");
      rc = 1;
    }
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  if (args.threads > 0) eadrl::par::SetDefaultThreads(args.threads);

  // Tracing (and the span profiler that rides on it) is armed for the whole
  // run when either export was requested.
  std::unique_ptr<eadrl::obs::TraceBuffer> trace_buffer;
  if (!args.trace.empty() || args.profile_report) {
    eadrl::obs::SetCurrentThreadTraceName("main");
    trace_buffer = std::make_unique<eadrl::obs::TraceBuffer>();
    eadrl::obs::SetTraceBuffer(trace_buffer.get());
  }

  const int rc = Run(args);

  if (trace_buffer != nullptr) {
    eadrl::obs::SetTraceBuffer(nullptr);
    if (!args.trace.empty()) {
      eadrl::Status st = trace_buffer->WriteChromeTrace(args.trace);
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 2;
      }
      std::printf("trace written to %s (%zu spans)\n", args.trace.c_str(),
                  trace_buffer->size());
    }
    if (args.profile_report) {
      std::printf("\n%s\n", eadrl::obs::FormatSpanProfileReport().c_str());
    }
  }
  return rc;
}
