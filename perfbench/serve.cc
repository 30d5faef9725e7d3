// Serving stage: the multi-tenant serving path. The workload's policies
// serve 4000 tenants with per-tenant scalers, assigned round-robin, through a
// ForecastService configured as tools/eadrl_serve configures it, on a
// 2-worker serve pool. On the `serve` workload these are four policies on
// 10-member fast pools (datasets 2-5, each trained for a few episodes).
// Building the service -- loading each saved policy into it and creating the
// sessions -- is set-up, repeated, and timed. The load comes from the main
// thread in two phases:
//
//  A (open loop): Poisson arrivals at a nominal 25 000 predicts/s over
//    uniformly chosen tenants. Each request streams its policy's validation
//    rows in tenant units, and each completed predict is followed by its
//    ObserveActualAsync. Latency runs from the scheduled send, so a stalled
//    generator shows as latency, and the generator's lateness is recorded.
//    serve::RunOpenLoopReplay is not used: it times from admission.
//  B (closed loop): 512 predicts kept outstanding (below max_queue, so the
//    phase cannot shed); the generator blocks while the window is full.
//
// Costs are process CPU (less the speed probe's) per completed predict, each
// with its observe, scaled by the speed probe over the phase.
// Afterwards a serial EadrlCombiner::Predict replay of the admitted stream of
// a few sampled tenants, on a LoadPolicy copy of their policy, must equal
// the served forecasts exactly.

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/eadrl.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "serve/service.h"
#include "ts/scaler.h"

namespace perfbench {
namespace {

using eadrl::Status;
using eadrl::StatusCode;
using eadrl::StatusOr;
using eadrl::math::Vec;
using Clock = std::chrono::steady_clock;
namespace serve = eadrl::serve;

constexpr size_t kTenants = 4000;
constexpr size_t kServeWorkers = 2;
constexpr double kOpenLoopQps = 25000.0;
constexpr size_t kClosedWindow = 512;
/// The closed-loop generator sleeps until this many predicts are outstanding
/// and then refills the window: one wake-up per wave rather than one per
/// completion, so its own cost does not depend on how completions interleave.
constexpr size_t kClosedRefillAt = kClosedWindow - 64;
constexpr size_t kSampledTenants = 8;
constexpr size_t kSetUpReps = 9;
/// Share of the measuring time given to phase A; phase B gets the rest.
constexpr double kPhaseAShare = 0.6;
/// Phase B stops issuing at this many requests (it never gets near).
constexpr size_t kClosedLoopCap = 1u << 21;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// The benchmark's own generator, independent of the library's Rng.
class Stream {
 public:
  explicit Stream(uint64_t seed) : engine_(seed) {}
  double Uniform() {
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }
  double Exponential(double rate) { return -std::log1p(-Uniform()) / rate; }
  size_t Index(size_t n) { return static_cast<size_t>(engine_() % n); }

 private:
  std::mt19937_64 engine_;
};

struct Tenant {
  std::string name;
  size_t policy = 0;
  eadrl::ts::StandardScaler scaler;
  size_t cursor = 0;  ///< next validation row to stream.
};

/// One admitted predict of a sampled tenant: the row it streamed, and the
/// forecast it was served (written by the completion callback).
struct SampledRequest {
  size_t row = 0;
  double served = 0.0;
  bool done = false;
};

/// What a phase measured.
struct PhaseResult {
  uint64_t admitted = 0;       ///< predicts admitted.
  uint64_t completed = 0;      ///< predicts completed (callbacks run).
  double cpu_s = 0.0;
  double wall_s = 0.0;
  double speed = 1.0;  ///< the speed probe's factor over the phase.
  std::vector<double> latency_ms;  ///< phase A: scheduled send -> callback.
  double gen_late_max_ms = 0.0;
  std::vector<double> admit_us;    ///< traced phases only.
  serve::ServeStats before, after;

  double CpuPerPredictUs() const {
    return completed == 0 ? 0.0
                          : cpu_s / static_cast<double>(completed) * 1e6;
  }
  double ScaledCpuPerPredictUs() const { return CpuPerPredictUs() * speed; }
  double RowsPerAct() const {
    const uint64_t acts = after.act_batches - before.act_batches;
    return acts == 0 ? 0.0
                     : static_cast<double>(after.act_batch_rows -
                                           before.act_batch_rows) /
                           static_cast<double>(acts);
  }
  double WavesPerKreq() const {
    const uint64_t reqs = (after.predicts - before.predicts) +
                          (after.observes - before.observes);
    return reqs == 0 ? 0.0
                     : static_cast<double>(after.batches - before.batches) /
                           static_cast<double>(reqs) * 1e3;
  }
};

class ServeBench {
 public:
  ServeBench(serve::ForecastService* service, const std::vector<Model>& models,
             std::vector<Tenant>* tenants, uint64_t seed, Report* report)
      : service_(service),
        models_(models),
        tenants_(tenants),
        report_(report),
        stream_(seed ^ 0x5e57e5eedULL),
        sampled_(kSampledTenants),
        sampled_mu_(kSampledTenants) {}

  // Completion callbacks hold `this`.
  ServeBench(const ServeBench&) = delete;
  ServeBench& operator=(const ServeBench&) = delete;

  PhaseResult OpenLoop(double seconds, bool timed_admission) {
    // The arrival schedule and tenant choices are drawn up front, from the
    // seed alone.
    std::vector<double> due;
    for (double t = stream_.Exponential(kOpenLoopQps); t < seconds;
         t += stream_.Exponential(kOpenLoopQps)) {
      due.push_back(t);
    }
    std::vector<size_t> who(due.size());
    for (size_t& t : who) t = stream_.Index(tenants_->size());

    PhaseResult r;
    Phase phase(due.size(), /*timed=*/true);
    r.before = service_->Stats();
    const double w0 = WallNow(), c0 = ProgramCpuNow();
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < due.size(); ++i) {
      const Clock::time_point release =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(due[i]));
      Clock::time_point now = Clock::now();
      if (release > now) {
        std::this_thread::sleep_until(release);
        now = Clock::now();
      }
      phase.due[i] = release;
      r.gen_late_max_ms =
          std::max(r.gen_late_max_ms, Seconds(now - release) * 1e3);
      Issue(&phase, i, who[i], timed_admission, &r);
    }
    service_->Flush();
    r.wall_s = Seconds(Clock::now() - start);
    r.cpu_s = ProgramCpuNow() - c0;
    r.speed = Probe().Factor(w0, WallNow());
    r.after = service_->Stats();
    Finish(phase, &r);
    for (size_t i = 0; i < due.size(); ++i) {
      if (phase.admitted[i]) {
        r.latency_ms.push_back(Seconds(phase.done_at[i] - phase.due[i]) * 1e3);
      }
    }
    return r;
  }

  PhaseResult ClosedLoop(double seconds, bool timed_admission) {
    PhaseResult r;
    Phase phase(kClosedLoopCap, /*timed=*/false);
    phase.window = true;
    r.before = service_->Stats();
    const double w0 = WallNow(), c0 = ProgramCpuNow();
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    size_t i = 0;
    while (i < kClosedLoopCap && Clock::now() < end) {
      {
        std::unique_lock<std::mutex> lock(phase.mu);
        if (phase.outstanding >= kClosedWindow) {
          phase.cv.wait(lock,
                        [&] { return phase.outstanding <= kClosedRefillAt; });
        }
        ++phase.outstanding;
      }
      Issue(&phase, i, stream_.Index(tenants_->size()), timed_admission, &r);
      ++i;
    }
    service_->Flush();
    r.wall_s = Seconds(Clock::now() - start);
    r.cpu_s = ProgramCpuNow() - c0;
    r.speed = Probe().Factor(w0, WallNow());
    r.after = service_->Stats();
    Finish(phase, &r);
    return r;
  }

  /// Serial reference for the sampled tenants: a LoadPolicy copy of their
  /// policy replays the admitted stream through EadrlCombiner::Predict.
  void CheckSampledAgainstSerial(const eadrl::core::EadrlConfig& config) {
    size_t compared = 0;
    for (size_t s = 0; s < kSampledTenants; ++s) {
      const Tenant& tenant = (*tenants_)[s];
      const Model& model = models_[tenant.policy];
      eadrl::core::EadrlCombiner reference(config);
      const Status st = reference.LoadPolicy(model.policy_path);
      report_->Check(st.ok(), "reference LoadPolicy: " + st.ToString());
      if (!st.ok()) return;
      std::lock_guard<std::mutex> lock(sampled_mu_[s]);
      for (const SampledRequest& req : sampled_[s]) {
        report_->Check(req.done, "a sampled request never completed");
        const Vec input = tenant.scaler.Inverse(model.val_rows[req.row]);
        const double expected = tenant.scaler.Inverse(
            reference.Predict(tenant.scaler.Transform(input)));
        if (req.served != expected) {
          report_->Check(false, "served forecast for " + tenant.name +
                                    " differs from the serial replay");
          return;
        }
        ++compared;
      }
    }
    report_->Check(compared > 0, "no sampled request to compare");
    std::printf("note   serial_replay_compared %zu\n", compared);
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  /// Per-phase bookkeeping shared with the completion callbacks.
  struct Phase {
    /// `timed`: keep per-request send and completion times (phase A).
    Phase(size_t capacity, bool timed)
        : due(timed ? capacity : 0),
          done_at(timed ? capacity : 0),
          completions(capacity),
          admitted(capacity, 0) {}
    std::vector<Clock::time_point> due;
    std::vector<Clock::time_point> done_at;
    std::vector<std::atomic<uint8_t>> completions;
    std::vector<uint8_t> admitted;
    std::atomic<uint64_t> predicts_done{0};
    std::atomic<uint64_t> errors{0};
    std::atomic<uint64_t> nonfinite{0};
    std::atomic<uint64_t> observes_admitted{0};
    std::atomic<uint64_t> observes_done{0};
    std::atomic<uint64_t> observe_shed{0};
    std::atomic<uint64_t> observe_errors{0};
    // Closed loop: the outstanding-predict window.
    bool window = false;
    std::mutex mu;
    std::condition_variable cv;
    size_t outstanding = 0;
  };

  void Issue(Phase* phase, size_t i, size_t t, bool timed_admission,
             PhaseResult* r) {
    Tenant& tenant = (*tenants_)[t];
    const Model& model = models_[tenant.policy];
    const size_t row = tenant.cursor % model.val_rows.size();
    ++tenant.cursor;
    Vec preds = tenant.scaler.Inverse(model.val_rows[row]);
    const double actual = tenant.scaler.Inverse(model.pool.val_actuals[row]);

    SampledRequest* sample = nullptr;
    if (t < kSampledTenants) {
      std::lock_guard<std::mutex> lock(sampled_mu_[t]);
      sampled_[t].push_back({row, 0.0, false});
      sample = &sampled_[t].back();
    }
    auto done = [this, phase, i, t, actual, sample](StatusOr<double> result) {
      Complete(phase, i, t, actual, sample, result);
    };
    ++attempted_;
    Status st;
    if (timed_admission) {
      const Clock::time_point a0 = Clock::now();
      st = service_->PredictAsync(tenant.name, std::move(preds), done);
      r->admit_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - a0)
              .count());
    } else {
      st = service_->PredictAsync(tenant.name, std::move(preds), done);
    }
    if (st.ok()) {
      phase->admitted[i] = 1;
      ++r->admitted;
      return;
    }
    ++failed_;
    if (sample != nullptr) {
      std::lock_guard<std::mutex> lock(sampled_mu_[t]);
      sampled_[t].pop_back();
    }
    if (phase->window) {
      std::lock_guard<std::mutex> lock(phase->mu);
      --phase->outstanding;
    }
    if (st.code() != StatusCode::kResourceExhausted) {
      report_->Check(false, "PredictAsync: " + st.ToString());
    }
  }

  /// Runs on the drainer thread: stamp, record, then the observe.
  void Complete(Phase* phase, size_t i, size_t t, double actual,
                SampledRequest* sample, const StatusOr<double>& result) {
    if (!phase->done_at.empty()) phase->done_at[i] = Clock::now();
    phase->completions[i].fetch_add(1, std::memory_order_relaxed);
    phase->predicts_done.fetch_add(1, std::memory_order_relaxed);
    if (!result.ok()) {
      phase->errors.fetch_add(1, std::memory_order_relaxed);
    } else {
      if (!std::isfinite(*result)) {
        phase->nonfinite.fetch_add(1, std::memory_order_relaxed);
      }
      if (sample != nullptr) {
        std::lock_guard<std::mutex> lock(sampled_mu_[t]);
        sample->served = *result;
        sample->done = true;
      }
      const Status st = service_->ObserveActualAsync(
          (*tenants_)[t].name, actual, [phase](Status s) {
            phase->observes_done.fetch_add(1, std::memory_order_relaxed);
            if (!s.ok()) {
              phase->observe_errors.fetch_add(1, std::memory_order_relaxed);
            }
          });
      if (st.ok()) {
        phase->observes_admitted.fetch_add(1, std::memory_order_relaxed);
      } else if (st.code() == StatusCode::kResourceExhausted) {
        phase->observe_shed.fetch_add(1, std::memory_order_relaxed);
      } else {
        phase->observe_errors.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (phase->window) {
      bool wake = false;
      {
        std::lock_guard<std::mutex> lock(phase->mu);
        wake = --phase->outstanding == kClosedRefillAt;
      }
      if (wake) phase->cv.notify_one();
    }
  }

  /// After Flush: every admitted request completed exactly once.
  void Finish(const Phase& phase, PhaseResult* r) {
    r->completed = phase.predicts_done.load();
    size_t wrong = 0;
    for (size_t i = 0; i < phase.admitted.size(); ++i) {
      const uint8_t n = phase.completions[i].load(std::memory_order_relaxed);
      if (n != phase.admitted[i]) ++wrong;
    }
    report_->Check(wrong == 0, std::to_string(wrong) +
                                   " requests did not complete exactly once");
    report_->Check(r->completed == r->admitted,
                   "completed predicts differ from admitted predicts");
    report_->Check(phase.observes_done.load() == phase.observes_admitted.load(),
                   "completed observes differ from admitted observes");
    report_->Check(phase.nonfinite.load() == 0, "non-finite served forecasts");
    const uint64_t errors = phase.errors.load() + phase.observe_errors.load();
    report_->Check(errors == 0, std::to_string(errors) + " error callbacks");
    const uint64_t observes_tried =
        phase.observes_admitted.load() + phase.observe_shed.load() +
        phase.observe_errors.load();
    attempted_ += observes_tried;
    failed_ += phase.errors.load() + phase.observe_errors.load() +
               phase.observe_shed.load();
  }

  serve::ForecastService* service_;
  const std::vector<Model>& models_;
  std::vector<Tenant>* tenants_;
  Report* report_;
  Stream stream_;
  std::vector<std::deque<SampledRequest>> sampled_;
  std::vector<std::mutex> sampled_mu_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace

bool ServeStage(const Options& options, const eadrl::core::EadrlConfig& config,
                double seconds, const std::vector<Model>& models,
                std::vector<double>* setups, Report* report) {
  eadrl::par::ThreadPool serve_pool(kServeWorkers);

  // Set-up: start the service, load the policies into it, create the
  // sessions. Repeated (the times go to `setups`); the last build serves.
  std::vector<Tenant> tenants;
  std::unique_ptr<serve::ForecastService> service;
  for (size_t rep = 0; rep < kSetUpReps; ++rep) {
    const double t0 = WallNow();
    service.reset();
    tenants.clear();
    serve::ServeConfig serve_config;  // as tools/eadrl_serve sets it.
    serve_config.shards = 16;
    serve_config.max_batch = 64;
    serve_config.max_queue = 4096;
    serve_config.linger_us = 200;
    serve_config.windowed_stats = true;
    serve_config.tenant_drilldown = 64;
    serve_config.policy_drilldown = 16;
    serve_config.pool = &serve_pool;
    service = std::make_unique<serve::ForecastService>(serve_config);
    for (size_t p = 0; p < models.size(); ++p) {
      auto combiner = std::make_unique<eadrl::core::EadrlCombiner>(config);
      const Status st = combiner->LoadPolicy(models[p].policy_path);
      report->Attempt();
      if (!st.ok()) {
        report->Fail();
        report->Check(false, "serve set-up LoadPolicy: " + st.ToString());
        return false;
      }
      report->Check(service->RegisterPolicy(std::move(combiner)) == p,
                    "unexpected policy id");
    }
    Stream scalers(options.seed);
    for (size_t t = 0; t < kTenants; ++t) {
      Tenant tenant;
      tenant.name = "tenant-" + std::to_string(t);
      tenant.policy = t % models.size();
      const double mean = -10.0 + 20.0 * scalers.Uniform();
      const double sd = 0.5 + 1.5 * scalers.Uniform();
      tenant.scaler = eadrl::ts::StandardScaler::FromMoments(mean, sd);
      const Status st =
          service->CreateSession(tenant.name, tenant.policy, &tenant.scaler);
      report->Attempt();
      if (!st.ok()) {
        report->Fail();
        report->Check(false, "CreateSession: " + st.ToString());
        return false;
      }
      tenants.push_back(std::move(tenant));
    }
    const double t1 = WallNow();
    setups->push_back((t1 - t0) * Probe().Factor(t0, t1));
  }
  std::printf("note   serve threads %zu (generator + %zu serve workers)\n",
              kServeWorkers + 1, kServeWorkers);

  ServeBench bench(service.get(), models, &tenants, options.seed, report);
  const double a_s = seconds * kPhaseAShare;
  const double b_s = seconds - a_s;
  if (!options.trace) {
    const PhaseResult a = bench.OpenLoop(a_s, false);
    const PhaseResult b = bench.ClosedLoop(b_s, false);
    bench.CheckSampledAgainstSerial(config);
    report->EndToEnd("serve_cpu_us", a.ScaledCpuPerPredictUs(), "us");
    report->EndToEnd("serve_sat_cpu_us", b.ScaledCpuPerPredictUs(), "us");
    report->Note("raw.serve_cpu_us", a.CpuPerPredictUs(), "us");
    report->Note("raw.serve_sat_cpu_us", b.CpuPerPredictUs(), "us");
    // Recorded, not bounded: wall-clock latencies and capacity follow the
    // host's steal (see README.md).
    report->Layer("serve_p50_ms", Median(a.latency_ms), "ms");
    report->Layer("serve.p99_ms", Quantile(a.latency_ms, 0.99), "ms");
    report->Layer("serve.capacity_qps",
                  static_cast<double>(b.completed) / b.wall_s, "1/s");
    report->Layer("serve.gen_late_ms", a.gen_late_max_ms, "ms");
    report->Note("serve.phase_a_predicts", static_cast<double>(a.completed),
                 "count");
    report->Note("serve.phase_b_predicts", static_cast<double>(b.completed),
                 "count");
  } else {
    // Untraced phases first (half the time), then the same phases with a
    // trace buffer installed and admission timed per call.
    const PhaseResult a = bench.OpenLoop(a_s / 2, false);
    const serve::ServeStats after_a = service->Stats();
    const PhaseResult b = bench.ClosedLoop(b_s / 2, false);
    eadrl::obs::TraceBuffer buffer(1u << 16);
    const auto before = ProfileByName();
    eadrl::obs::SetTraceBuffer(&buffer);
    const PhaseResult at = bench.OpenLoop(a_s / 2, true);
    const PhaseResult bt = bench.ClosedLoop(b_s / 2, true);
    eadrl::obs::SetTraceBuffer(nullptr);
    const auto after = ProfileByName();
    bench.CheckSampledAgainstSerial(config);

    std::vector<double> admit_us = at.admit_us;
    admit_us.insert(admit_us.end(), bt.admit_us.begin(), bt.admit_us.end());
    const auto wave = ProfileDelta(before, after, "serve_batch");
    const auto request = ProfileDelta(before, after, "serve_request");
    report->Layer("serve.admit_us.p50", Quantile(admit_us, 0.5), "us");
    report->Layer("serve.admit_us.p99", Quantile(admit_us, 0.99), "us");
    report->Layer("serve.wave_us",
                  wave.count == 0 ? 0.0
                                  : wave.total_seconds /
                                        static_cast<double>(wave.count) * 1e6,
                  "us");
    report->Layer("serve.request_us",
                  request.count == 0
                      ? 0.0
                      : request.self_seconds /
                            static_cast<double>(request.count) * 1e6,
                  "us");
    report->Layer("serve.rows_per_act.phase_a", a.RowsPerAct(), "rows");
    report->Layer("serve.rows_per_act.phase_b", b.RowsPerAct(), "rows");
    report->Layer("serve.waves_per_kreq.phase_a", a.WavesPerKreq(), "count");
    report->Layer("serve.waves_per_kreq.phase_b", b.WavesPerKreq(), "count");
    report->Layer("serve.queue_delay_ms.p50", after_a.queue_delay_p50_s * 1e3,
                  "ms");
    report->Layer("serve.queue_delay_ms.p99", after_a.queue_delay_p99_s * 1e3,
                  "ms");
    report->Layer("serve_p50_ms", Median(a.latency_ms), "ms");
    report->Layer("serve.p99_ms", Quantile(a.latency_ms, 0.99), "ms");
    report->Layer("serve.capacity_qps",
                  static_cast<double>(b.completed) / b.wall_s, "1/s");
    report->Layer("serve.gen_late_ms", a.gen_late_max_ms, "ms");
    report->Layer("trace.serve_cpu_us", at.CpuPerPredictUs(), "us");
    report->Layer("trace.serve_sat_cpu_us", bt.CpuPerPredictUs(), "us");
    report->Layer("trace.serve_p50_ms", Median(at.latency_ms), "ms");
    report->Layer("trace.serve_cpu_us.overhead_pct",
                  (at.CpuPerPredictUs() - a.CpuPerPredictUs()) /
                      a.CpuPerPredictUs() * 100.0,
                  "%");
    report->Layer("trace.serve_sat_cpu_us.overhead_pct",
                  (bt.CpuPerPredictUs() - b.CpuPerPredictUs()) /
                      b.CpuPerPredictUs() * 100.0,
                  "%");
    report->EndToEnd("serve_cpu_us", a.ScaledCpuPerPredictUs(), "us");
    report->EndToEnd("serve_sat_cpu_us", b.ScaledCpuPerPredictUs(), "us");
    report->Note("trace.dropped_spans", static_cast<double>(buffer.dropped()),
                 "count");
  }
  report->Attempt(bench.attempted());
  report->Fail(bench.failed());
  service.reset();
  return true;
}

}  // namespace perfbench
