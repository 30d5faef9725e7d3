#include "common.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>

namespace perfbench {
namespace {

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    out->push_back(c);
  }
  out->push_back('"');
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The probe's kernel: a chain of 48 x 48 dense layers with tanh, about a
/// millisecond of CPU on the host the reference was taken on.
double KernelSeconds() {
  constexpr int kWidth = 48;
  constexpr int kLayers = 480;
  static thread_local std::vector<double> w, x, y;
  if (w.empty()) {
    w.resize(kWidth * kWidth);
    x.resize(kWidth);
    y.resize(kWidth);
    for (size_t i = 0; i < w.size(); ++i) {
      w[i] = 0.05 * std::sin(0.001 * static_cast<double>(i));
    }
  }
  for (int i = 0; i < kWidth; ++i) x[i] = 0.01 * i;
  const double t0 = ClockSeconds(CLOCK_THREAD_CPUTIME_ID);
  for (int layer = 0; layer < kLayers; ++layer) {
    for (int i = 0; i < kWidth; ++i) {
      double s = 0.1;
      for (int j = 0; j < kWidth; ++j) s += w[i * kWidth + j] * x[j];
      y[i] = std::tanh(s);
    }
    std::swap(x, y);
  }
  const double t1 = ClockSeconds(CLOCK_THREAD_CPUTIME_ID);
  volatile double sink = x[0];
  (void)sink;
  return t1 - t0;
}

/// Kernel time at the reference host speed; any fixed value would do, this
/// one keeps scaled costs near what this host measures.
constexpr double kReferenceKernelSeconds = 1.0e-3;
constexpr auto kProbePeriod = std::chrono::milliseconds(200);

SpeedProbe* g_probe = nullptr;

}  // namespace

SpeedProbe::SpeedProbe() : thread_([this] { Run(); }) { g_probe = this; }

SpeedProbe::~SpeedProbe() {
  stop_ = true;
  thread_.join();
  g_probe = nullptr;
}

void SpeedProbe::Run() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  std::vector<int> cpus;
  if (pthread_getaffinity_np(pthread_self(), sizeof(mask), &mask) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &mask)) cpus.push_back(cpu);
    }
  }
  const double c0 = ClockSeconds(CLOCK_THREAD_CPUTIME_ID);
  for (size_t tick = 0; !stop_; ++tick) {
    if (!cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[tick % cpus.size()], &one);
      pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    }
    const double kernel = KernelSeconds();
    {
      std::lock_guard<std::mutex> lock(mu_);
      samples_.push_back({WallNow(), kernel});
    }
    cpu_us_ = static_cast<uint64_t>(
        (ClockSeconds(CLOCK_THREAD_CPUTIME_ID) - c0) * 1e6);
    std::this_thread::sleep_for(kProbePeriod);
  }
}

double SpeedProbe::Factor(double t0, double t1) const {
  std::lock_guard<std::mutex> lock(mu_);
  double sum = 0.0;
  size_t n = 0;
  for (const Sample& s : samples_) {
    if (s.at >= t0 - 1.0 && s.at <= t1 + 1.0) {
      sum += s.kernel;
      ++n;
    }
  }
  if (n == 0) {
    for (const Sample& s : samples_) sum += s.kernel;
    n = samples_.size();
  }
  return n == 0 ? 1.0 : kReferenceKernelSeconds / (sum / static_cast<double>(n));
}

SpeedProbe& Probe() { return *g_probe; }

double ProgramCpuNow() {
  return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID) -
         (g_probe != nullptr ? g_probe->CpuSeconds() : 0.0);
}

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuNow() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

double ThreadCpuNow() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

size_t HostCpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

CpuTimes SampleCpuTimes() {
  CpuTimes times;
  std::ifstream stat("/proc/stat");
  std::string line;
  if (!std::getline(stat, line) || line.rfind("cpu ", 0) != 0) return times;
  std::istringstream fields(line.substr(4));
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted in user/nice, so it is not summed again).
  uint64_t value = 0;
  for (int i = 0; i < 8 && fields >> value; ++i) {
    times.total += value;
    if (i == 7) times.steal = value;
  }
  return times;
}

double StealShare(const CpuTimes& begin, const CpuTimes& end) {
  if (end.total <= begin.total) return 0.0;
  return static_cast<double>(end.steal - begin.steal) /
         static_cast<double>(end.total - begin.total);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

std::map<std::string, eadrl::obs::SpanProfileRow> ProfileByName() {
  std::map<std::string, eadrl::obs::SpanProfileRow> rows;
  for (eadrl::obs::SpanProfileRow& row : eadrl::obs::SpanProfileSnapshot()) {
    rows[row.name] = row;
  }
  return rows;
}

eadrl::obs::SpanProfileRow ProfileDelta(
    const std::map<std::string, eadrl::obs::SpanProfileRow>& before,
    const std::map<std::string, eadrl::obs::SpanProfileRow>& after,
    const std::string& name) {
  eadrl::obs::SpanProfileRow delta;
  delta.name = name;
  auto a = after.find(name);
  if (a == after.end()) return delta;
  delta = a->second;
  auto b = before.find(name);
  if (b != before.end()) {
    delta.count -= b->second.count;
    delta.total_seconds -= b->second.total_seconds;
    delta.self_seconds -= b->second.self_seconds;
  }
  return delta;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
  std::printf("metric %-34s %14.6f %s\n", name.c_str(), value, unit.c_str());
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  if (trace_) {
    Note(name, value, unit);
  } else {
    Metric(name, value, unit);
  }
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  if (trace_) {
    Metric(name, value, unit);
  } else {
    Note(name, value, unit);
  }
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

void Report::Note(const std::string& name, double value,
                  const std::string& unit) {
  std::printf("note   %-34s %14.6f %s\n", name.c_str(), value, unit.c_str());
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    AppendJsonString(&out, metrics_[i].name);
    out += ": {\"value\": " + JsonNumber(metrics_[i].value) + ", \"unit\": ";
    AppendJsonString(&out, metrics_[i].unit);
    out += "}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
