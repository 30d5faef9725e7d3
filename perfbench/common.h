// Shared plumbing of the repository benchmark: clocks, host sampling,
// order statistics, span-profile deltas, the result record, and the three
// stages every workload runs. See README.md for what the workloads measure
// and why.
#ifndef EADRL_PERFBENCH_COMMON_H_
#define EADRL_PERFBENCH_COMMON_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/eadrl.h"
#include "exp/experiment.h"
#include "math/vec.h"
#include "obs/trace.h"
#include "ts/series.h"

namespace perfbench {

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir = ".";  ///< scratch files (saved policies) go here.
};

/// Seconds on the monotonic clock.
double WallNow();
/// Seconds of CPU time used by the whole process (all threads). The kernel
/// does not charge hypervisor steal to it, unlike wall time.
double ProcessCpuNow();
/// Seconds of CPU time used by the calling thread.
double ThreadCpuNow();
/// Peak resident set of the process so far, MiB.
double PeakRssMb();
/// Number of online CPUs.
size_t HostCpus();

/// Host speed reference. On a shared host the same work can take a fifth
/// more CPU time from one quarter-hour to the next, on every clock, which no
/// length of run averages out. A background thread times a fixed kernel of
/// the benchmark's own code (small dense layers, the shape of the library's
/// networks) every 200 ms, on each CPU of the process's affinity mask in
/// turn, with its own thread CPU clock. A stage scales its costs by
/// Factor(): the reference kernel time over the mean kernel time during the
/// stage, so that they read as at one fixed host speed. The kernel is never
/// the program's code, so a change to the program moves only the costs.
class SpeedProbe {
 public:
  SpeedProbe();   ///< starts the thread.
  ~SpeedProbe();  ///< stops the thread and waits for it.
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  /// Reference kernel time over the mean kernel time of the samples taken
  /// between WallNow() readings t0 and t1, widened by a second each way so
  /// that short spans have samples.
  double Factor(double t0, double t1) const;
  /// CPU seconds the probe thread has used so far.
  double CpuSeconds() const { return cpu_us_.load() * 1e-6; }

 private:
  void Run();

  struct Sample {
    double at;      ///< WallNow() when the kernel finished.
    double kernel;  ///< its thread CPU seconds.
  };
  mutable std::mutex mu_;
  std::vector<Sample> samples_;  // guarded by mu_
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> cpu_us_{0};
  std::thread thread_;
};

/// The run's speed probe; main() starts it before any stage runs.
SpeedProbe& Probe();
/// Process CPU time less the speed probe's.
double ProgramCpuNow();

/// Aggregate jiffies from the first line of /proc/stat.
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTimes SampleCpuTimes();
/// Share of all host CPU time between two samples that the hypervisor stole.
double StealShare(const CpuTimes& begin, const CpuTimes& end);

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Span-profiler aggregates keyed by span name (obs::SpanProfileSnapshot).
std::map<std::string, eadrl::obs::SpanProfileRow> ProfileByName();
/// `after - before` for one span name (count, total and self seconds).
eadrl::obs::SpanProfileRow ProfileDelta(
    const std::map<std::string, eadrl::obs::SpanProfileRow>& before,
    const std::map<std::string, eadrl::obs::SpanProfileRow>& after,
    const std::string& name);

/// What one run measured and checked; printed as the final JSON line.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  /// An end-to-end metric: part of the result in an untraced run, a note
  /// in a traced one.
  void EndToEnd(const std::string& name, double value,
                const std::string& unit);
  /// A per-layer metric: part of the result in a traced run, a note in an
  /// untraced one.
  void Layer(const std::string& name, double value, const std::string& unit);
  /// Records an output check; a failed check is printed to stderr and makes
  /// the run exit nonzero.
  void Check(bool ok, const std::string& what);
  /// A figure printed beside the metrics but never part of them.
  void Note(const std::string& name, double value, const std::string& unit);

  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(uint64_t n = 1) { failed_ += n; }

  bool trace() const { return trace_; }
  bool correct() const { return correct_; }
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string ToJson() const;

 private:
  void Metric(const std::string& name, double value, const std::string& unit);

  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  bool trace_;
  std::vector<Entry> metrics_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// A workload: the models its train stage fits, and how long each stage
/// measures. Every workload runs all three stages, so every run reports
/// every metric.
struct Workload {
  std::string name;
  /// One model per entry, each on its own draw of that dataset id.
  std::vector<int> datasets;
  /// Draws the online stage passes over: the models, then further draws of
  /// the first dataset, each with its own pool and the models' policies in
  /// turn (online cost does not depend on which policy runs).
  size_t online_draws = 0;
  bool fast_pool = false;       ///< the 10-member fast pool, not the 43.
  size_t episodes = 0;          ///< EA-DRL max_episodes; 0 keeps the 100.
  bool parallel_train = false;  ///< nproc - 1 workers + caller, not serial.
  /// The train stage retrains the models in turn until it has run this
  /// share of --seconds; one training of each model may take longer.
  double train_share = 0.0;
  double online_share = 0.0;    ///< online stage time, share of --seconds.
  double serve_share = 0.0;     ///< serving stage time, share of --seconds.
};

/// One model: the pool fitted on its series and its saved policy.
struct Model {
  eadrl::exp::PoolRun pool;
  std::string policy_path;
  std::vector<eadrl::math::Vec> val_rows;   ///< validation member forecasts.
  std::vector<eadrl::math::Vec> test_rows;  ///< test member forecasts.
};

/// A model of `pool` whose saved policy is at `policy_path`, with the pool's
/// validation and test rows.
Model FittedModel(eadrl::exp::PoolRun pool, std::string policy_path);

/// Train stage (train.cc): fits and trains one model per series, timing
/// exp::PreparePool + EadrlCombiner::Initialize, then deploys each policy
/// over its test segment untimed; retrains for the rest of `seconds`.
/// Reports train_s, train_cpu_s, test_rmse; traced, it re-trains the first
/// series with a trace buffer installed and reports the training layers.
/// Returns false when the stage cannot go on.
bool TrainStage(const Options& options, const Workload& workload,
                double seconds, const eadrl::exp::ExperimentOptions& opt,
                const std::vector<eadrl::ts::Series>& series,
                std::vector<Model>* models, Report* report);

/// Online stage (online.cc): Table III. Passes over the draws' test
/// segments through EadrlCombiner::Predict + Update, then DemscCombiner,
/// each pass from the same start state, for `seconds`. Reports
/// eadrl_step_us, demsc_step_us; traced, the per-call layers.
bool OnlineStage(const Options& options, const Workload& workload,
                 const eadrl::core::EadrlConfig& config, double seconds,
                 const std::vector<Model>& draws, Report* report);

/// Serving stage (serve.cc): builds a ForecastService over the models'
/// policies for 4000 tenants (repeated; the speed-scaled build times go to
/// `setups`),
/// then drives it open loop and closed loop for `seconds`. Reports
/// serve_cpu_us, serve_sat_cpu_us; traced, the serving layers.
bool ServeStage(const Options& options, const eadrl::core::EadrlConfig& config,
                double seconds, const std::vector<Model>& models,
                std::vector<double>* setups, Report* report);

}  // namespace perfbench

#endif  // EADRL_PERFBENCH_COMMON_H_
