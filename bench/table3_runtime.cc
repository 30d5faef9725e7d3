// Reproduces paper Table III: empirical online-runtime comparison between
// EA-DRL and DEMSC, its strongest competitor. Only the per-step online work
// is timed (policy inference + combination for EA-DRL; drift detection,
// committee maintenance + combination for DEMSC) — offline training is
// excluded on both sides, matching the paper's fairness note. The claim to
// reproduce is the ordering: EA-DRL's frozen policy is cheaper online than
// DEMSC's informed meta-updates.
//
// One pass over a test segment takes well under a millisecond, so a single
// preempted pass would move a dataset's figure; each method is therefore
// timed over kPasses passes per dataset, each on a freshly constructed and
// initialized combiner, and the per-dataset median is reported.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "baselines/dynamic_selection.h"
#include "bench_util.h"
#include "common/string_util.h"
#include "core/eadrl.h"
#include "exp/experiment.h"
#include "math/stats.h"
#include "par/thread_pool.h"
#include "ts/datasets.h"

namespace {

constexpr size_t kPasses = 5;

// Median online runtime (ms over the test segment) of kPasses passes, each
// on a combiner fresh from `make`.
template <typename MakeCombiner>
double MedianPassMs(const eadrl::exp::PoolRun& pool, MakeCombiner make) {
  eadrl::math::Vec ms;
  for (size_t pass = 0; pass < kPasses; ++pass) {
    auto combiner = make();
    ms.push_back(eadrl::exp::RunCombiner(combiner.get(), pool).runtime_seconds *
                 1e3);
  }
  std::sort(ms.begin(), ms.end());
  return ms[kPasses / 2];
}

}  // namespace

int main() {
  namespace exp = eadrl::exp;
  const size_t length = eadrl::bench::BenchLength();
  exp::ExperimentOptions opt = eadrl::bench::BenchOptions();

  eadrl::math::Vec eadrl_times, demsc_times;

  std::printf("Table III: empirical online runtime, EA-DRL vs DEMSC "
              "(20 datasets, length %zu, EADRL_THREADS default %zu;\n"
              "per dataset, the median of %zu passes on fresh combiners)\n\n",
              length, eadrl::par::DefaultThreads(), kPasses);

  for (const auto& spec : eadrl::ts::AllDatasetSpecs()) {
    auto series = eadrl::ts::MakeDataset(spec.id, eadrl::bench::BenchSeed(), length);
    if (!series.ok()) return 1;
    exp::PoolRun pool = exp::PreparePool(*series, opt);

    eadrl::core::EadrlConfig cfg = opt.eadrl;
    // Online runtime does not depend on how long the policy trained; keep
    // the offline phase short here.
    cfg.max_episodes = 15;
    const double ea_ms = MedianPassMs(pool, [&] {
      return std::make_unique<eadrl::core::EadrlCombiner>(cfg);
    });
    const double dm_ms = MedianPassMs(pool, [] {
      return std::make_unique<eadrl::baselines::DemscCombiner>();
    });

    // Milliseconds over the whole test segment.
    eadrl_times.push_back(ea_ms);
    demsc_times.push_back(dm_ms);
    std::printf("  dataset %2d: EA-DRL %8.3f ms   DEMSC %8.3f ms\n",
                spec.id, ea_ms, dm_ms);
    std::fflush(stdout);
  }

  std::printf("\n%s %s\n", eadrl::PadRight("Method", 8).c_str(),
              "Avg. online runtime (ms over test segment)");
  std::printf("%s\n", std::string(52, '-').c_str());
  std::printf("%s %s +- %s\n", eadrl::PadRight("EA-DRL", 8).c_str(),
              eadrl::FormatDouble(eadrl::math::Mean(eadrl_times), 3).c_str(),
              eadrl::FormatDouble(eadrl::math::Stddev(eadrl_times), 3)
                  .c_str());
  std::printf("%s %s +- %s\n", eadrl::PadRight("DEMSC", 8).c_str(),
              eadrl::FormatDouble(eadrl::math::Mean(demsc_times), 3).c_str(),
              eadrl::FormatDouble(eadrl::math::Stddev(demsc_times), 3)
                  .c_str());
  std::printf("\npaper reports 37.93 +- 10.83 s (EA-DRL) vs 67.97 +- 27.4 s "
              "(DEMSC) on its testbed;\nthe reproduced claim is the "
              "ordering, not the absolute scale.\n");
  return 0;
}
