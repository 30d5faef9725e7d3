// Online stage: Table III, the online cost per step of EA-DRL against
// DEMSC. Timed passes over the draws' test segments run first through
// EadrlCombiner::Predict + Update, then through DemscCombiner with default
// Params, cycling over the draws: the workload's models, then on `train`
// further draws of dataset 9 with their own 43-member pools. Every pass
// starts from the same state: EA-DRL re-runs LoadPolicy on the draw's policy
// saved by the train stage and DEMSC re-runs Initialize, both untimed. Costs
// are thread CPU time of whole passes divided by steps, scaled by the speed
// probe over the passes; there are no per-call clocks outside the traced
// run. One thread, which visits every vCPU in turn, pass by pass (see
// CpuRotation).

#include <sched.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "baselines/dynamic_selection.h"
#include "common.h"
#include "core/eadrl.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

using eadrl::Status;
using eadrl::math::Vec;

/// Drift counts, and so DEMSC's cost, depend on the draw of the series, so
/// passes cycle over every draw at least this many times.
constexpr size_t kMinCycles = 2;

double MicrosSince(std::chrono::steady_clock::time_point t0,
                   std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

/// Moves the calling thread to the next CPU of its original affinity mask at
/// every pass. A single thread otherwise stays on whichever vCPU the
/// scheduler picked, and the hypervisor gives vCPUs unequal and changing
/// shares of the host; rotating samples all of them in every run, as the
/// multi-threaded workloads do. Restores the original mask when destroyed.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(original_), &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next() {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);  // best effort: unpinned on error
  }

 private:
  cpu_set_t original_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// Per-call wall timings of one combiner's calls (traced run only).
struct CallTimes {
  std::vector<double> predict_us;
  std::vector<double> update_us;
  std::vector<double> act_us;
};

/// Accumulated cost of a series of passes.
struct Passes {
  double cpu_s = 0.0;
  size_t steps = 0;
  size_t passes = 0;
  double speed = 1.0;  ///< the speed probe's factor over the passes.

  double StepUs() const {
    return steps == 0 ? 0.0 : cpu_s / static_cast<double>(steps) * 1e6;
  }
  double ScaledStepUs() const { return StepUs() * speed; }
};

/// The forecasts of a draw's first pass of each combiner: every later pass
/// from the same start state must reproduce them exactly.
struct FirstPass {
  Vec eadrl, demsc;
  size_t demsc_drifts = 0;
};

class OnlineBench {
 public:
  OnlineBench(const std::vector<Model>& draws,
              const eadrl::core::EadrlConfig& config, Report* report)
      : draws_(draws),
        first_(draws.size()),
        eadrl_(config),
        report_(report) {}

  /// DEMSC drift count of one pass per draw, summed over the draws.
  double TotalDrifts() const {
    size_t n = 0;
    for (const FirstPass& first : first_) n += first.demsc_drifts;
    return static_cast<double>(n);
  }

  /// EA-DRL passes for `budget` wall seconds (see More). `times` non-null:
  /// per-call timers on Predict and Update; with `act_probe` set, the pass
  /// instead times DdpgAgent::Act on the current state before each step and
  /// its CPU is not accounted.
  Passes RunEadrl(double budget, CallTimes* times, bool act_probe = false) {
    Passes passes;
    const double start = WallNow();
    while (More(passes, start, budget)) {
      rotation_.Next();
      const size_t m = passes.passes % draws_.size();
      const Model& model = draws_[m];
      const Status st = eadrl_.LoadPolicy(model.policy_path);
      report_->Attempt();
      if (!st.ok()) {
        report_->Fail();
        report_->Check(false, "LoadPolicy: " + st.ToString());
        return passes;
      }
      out_.resize(model.test_rows.size());
      const double c0 = ThreadCpuNow();
      if (act_probe) {
        ActProbePass(model, times);
      } else if (times != nullptr) {
        EadrlPass<true>(model, times);
      } else {
        EadrlPass<false>(model, nullptr);
      }
      const double c1 = ThreadCpuNow();
      if (!act_probe) {
        passes.cpu_s += c1 - c0;
        passes.steps += model.test_rows.size();
      }
      ++passes.passes;
      CheckPass(&first_[m].eadrl, "EA-DRL");
    }
    passes.speed = Probe().Factor(start, WallNow());
    return passes;
  }

  /// DEMSC passes for `budget` wall seconds (see More).
  Passes RunDemsc(double budget, CallTimes* times) {
    Passes passes;
    const double start = WallNow();
    while (More(passes, start, budget)) {
      rotation_.Next();
      const size_t m = passes.passes % draws_.size();
      const Model& model = draws_[m];
      FirstPass& first = first_[m];
      const Status st =
          demsc_.Initialize(model.pool.val_preds, model.pool.val_actuals);
      report_->Attempt();
      if (!st.ok()) {
        report_->Fail();
        report_->Check(false, "DemscCombiner::Initialize: " + st.ToString());
        return passes;
      }
      out_.resize(model.test_rows.size());
      const double c0 = ThreadCpuNow();
      if (times != nullptr) {
        DemscPass<true>(model, times);
      } else {
        DemscPass<false>(model, nullptr);
      }
      const double c1 = ThreadCpuNow();
      passes.cpu_s += c1 - c0;
      passes.steps += model.test_rows.size();
      const bool is_first = first.demsc.empty();
      CheckPass(&first.demsc, "DEMSC");
      if (is_first) first.demsc_drifts = demsc_.drift_count();
      report_->Check(demsc_.drift_count() == first.demsc_drifts,
                     "DEMSC drift count differs between passes");
      ++passes.passes;
    }
    passes.speed = Probe().Factor(start, WallNow());
    return passes;
  }

 private:
  /// Passes cycle over the draws and stop after whole cycles only, so every
  /// draw weighs the same in a cost; at least kMinCycles cycles run.
  bool More(const Passes& passes, double start, double budget) const {
    const size_t n = draws_.size();
    if (passes.passes < kMinCycles * n) return true;
    return passes.passes % n != 0 || WallNow() - start < budget;
  }

  template <bool kTimed>
  void EadrlPass(const Model& model, CallTimes* times) {
    const Vec& actuals = model.pool.test_actuals;
    for (size_t t = 0; t < model.test_rows.size(); ++t) {
      if constexpr (kTimed) {
        const auto t0 = std::chrono::steady_clock::now();
        out_[t] = eadrl_.Predict(model.test_rows[t]);
        const auto t1 = std::chrono::steady_clock::now();
        eadrl_.Update(model.test_rows[t], actuals[t]);
        const auto t2 = std::chrono::steady_clock::now();
        times->predict_us.push_back(MicrosSince(t0, t1));
        times->update_us.push_back(MicrosSince(t1, t2));
      } else {
        out_[t] = eadrl_.Predict(model.test_rows[t]);
        eadrl_.Update(model.test_rows[t], actuals[t]);
      }
    }
  }

  void ActProbePass(const Model& model, CallTimes* times) {
    eadrl::rl::DdpgAgent* agent = eadrl_.agent();
    for (size_t t = 0; t < model.test_rows.size(); ++t) {
      const Vec state = eadrl_.DebugCurrentState();
      const auto t0 = std::chrono::steady_clock::now();
      const Vec action = agent->Act(state);
      const auto t1 = std::chrono::steady_clock::now();
      times->act_us.push_back(MicrosSince(t0, t1));
      report_->Check(!action.empty(), "DdpgAgent::Act returned no action");
      out_[t] = eadrl_.Predict(model.test_rows[t]);
      eadrl_.Update(model.test_rows[t], model.pool.test_actuals[t]);
    }
  }

  template <bool kTimed>
  void DemscPass(const Model& model, CallTimes* times) {
    const Vec& actuals = model.pool.test_actuals;
    for (size_t t = 0; t < model.test_rows.size(); ++t) {
      if constexpr (kTimed) {
        const auto t0 = std::chrono::steady_clock::now();
        out_[t] = demsc_.Predict(model.test_rows[t]);
        const auto t1 = std::chrono::steady_clock::now();
        demsc_.Update(model.test_rows[t], actuals[t]);
        const auto t2 = std::chrono::steady_clock::now();
        times->predict_us.push_back(MicrosSince(t0, t1));
        times->update_us.push_back(MicrosSince(t1, t2));
      } else {
        out_[t] = demsc_.Predict(model.test_rows[t]);
        demsc_.Update(model.test_rows[t], actuals[t]);
      }
    }
  }

  /// Every call of a pass counts as attempted; a non-finite forecast is a
  /// failed call. Every pass must reproduce the draw's first pass exactly.
  void CheckPass(Vec* first, const char* who) {
    uint64_t nonfinite = 0;
    for (double v : out_) {
      if (!std::isfinite(v)) ++nonfinite;
    }
    report_->Attempt(2 * out_.size());
    report_->Fail(nonfinite);
    report_->Check(nonfinite == 0,
                   std::string(who) + ": non-finite forecasts in a pass");
    if (first->empty()) {
      *first = out_;
    } else {
      report_->Check(*first == out_,
                     std::string(who) +
                         ": a pass from the same start state changed forecasts");
    }
  }

  const std::vector<Model>& draws_;
  std::vector<FirstPass> first_;
  eadrl::core::EadrlCombiner eadrl_;
  eadrl::baselines::DemscCombiner demsc_;
  Report* report_;
  Vec out_;
  CpuRotation rotation_;
};

void AddQuantiles(Report* report, const std::string& name,
                  const std::vector<double>& values, bool with_count) {
  report->Layer(name + ".p50", Quantile(values, 0.5), "us");
  report->Layer(name + ".p99", Quantile(values, 0.99), "us");
  if (with_count) {
    report->Layer(name + ".count", static_cast<double>(values.size()),
                  "count");
  }
}

}  // namespace

bool OnlineStage(const Options& options, const Workload& workload,
                 const eadrl::core::EadrlConfig& config, double seconds,
                 const std::vector<Model>& draws, Report* report) {
  std::printf("note   online threads 1, draws %zu\n", draws.size());
  // Table III's ordering holds on the 43-member pool; on the 10-member fast
  // pool the two costs are a few microseconds apart, so it is not checked.
  const bool table3 = !workload.fast_pool;
  OnlineBench bench(draws, config, report);
  const double s = seconds;
  if (!options.trace) {
    const Passes ea = bench.RunEadrl(s / 2, nullptr);
    const Passes dm = bench.RunDemsc(s / 2, nullptr);
    report->EndToEnd("eadrl_step_us", ea.ScaledStepUs(), "us");
    report->EndToEnd("demsc_step_us", dm.ScaledStepUs(), "us");
    report->Note("raw.eadrl_step_us", ea.StepUs(), "us");
    report->Note("raw.demsc_step_us", dm.StepUs(), "us");
    report->Note("eadrl_passes", static_cast<double>(ea.passes), "count");
    report->Note("demsc_passes", static_cast<double>(dm.passes), "count");
    report->Note("demsc_drifts", bench.TotalDrifts(), "count");
    report->Check(!table3 || ea.StepUs() < dm.StepUs(),
                  "Table III ordering: EA-DRL step cost is not below DEMSC's");
    return ea.steps > 0 && dm.steps > 0;
  }
  // Untraced passes first, then the same passes with a trace buffer
  // installed and per-call timers on: the difference is the overhead.
  CallTimes ea_times, dm_times;
  const Passes ea = bench.RunEadrl(s / 4, nullptr);
  eadrl::obs::TraceBuffer buffer(1u << 16);
  eadrl::obs::SetTraceBuffer(&buffer);
  const Passes ea_traced = bench.RunEadrl(s / 8, &ea_times);
  bench.RunEadrl(s / 8, &ea_times, /*act_probe=*/true);
  eadrl::obs::SetTraceBuffer(nullptr);
  const Passes dm = bench.RunDemsc(s / 4, nullptr);
  eadrl::obs::SetTraceBuffer(&buffer);
  const Passes dm_traced = bench.RunDemsc(s / 4, &dm_times);
  eadrl::obs::SetTraceBuffer(nullptr);

  AddQuantiles(report, "core.predict_us", ea_times.predict_us, true);
  AddQuantiles(report, "core.update_us", ea_times.update_us, true);
  AddQuantiles(report, "rl.act_us", ea_times.act_us, false);
  AddQuantiles(report, "baselines.demsc_predict_us", dm_times.predict_us,
               false);
  AddQuantiles(report, "baselines.demsc_update_us", dm_times.update_us, false);
  report->Layer("baselines.demsc_drifts", bench.TotalDrifts(), "count");
  report->Layer("trace.eadrl_step_us", ea_traced.StepUs(), "us");
  report->Layer("trace.demsc_step_us", dm_traced.StepUs(), "us");
  report->Layer("trace.eadrl_step_us.overhead_pct",
                (ea_traced.StepUs() - ea.StepUs()) / ea.StepUs() * 100.0, "%");
  report->Layer("trace.demsc_step_us.overhead_pct",
                (dm_traced.StepUs() - dm.StepUs()) / dm.StepUs() * 100.0, "%");
  report->EndToEnd("eadrl_step_us", ea.ScaledStepUs(), "us");
  report->EndToEnd("demsc_step_us", dm.ScaledStepUs(), "us");
  report->Note("trace.dropped_spans", static_cast<double>(buffer.dropped()),
               "count");
  report->Check(!table3 || ea.StepUs() < dm.StepUs(),
                "Table III ordering: EA-DRL step cost is not below DEMSC's");
  return ea.steps > 0 && dm.steps > 0;
}

}  // namespace perfbench
