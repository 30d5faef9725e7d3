// End-to-end tracing acceptance: a parallel suite run (4 worker threads)
// with an installed TraceBuffer must export a well-formed Chrome trace whose
// span tree is causally consistent across threads — worker-side spans reach
// their dataset/restart ancestors through parent ids, and every scheduler
// span carries its queue-wait/steal attributes.

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "exp/experiment.h"
#include "obs/trace.h"
#include "par/thread_pool.h"
#include "ts/datasets.h"

namespace eadrl {
namespace {

exp::ExperimentOptions FastOptions() {
  exp::ExperimentOptions opt;
  opt.pool.fast_mode = true;
  opt.pool.nn_epochs = 3;
  opt.eadrl.omega = 5;
  opt.eadrl.restarts = 2;
  opt.eadrl.max_episodes = 6;
  opt.eadrl.max_iterations = 40;
  opt.eadrl.actor_hidden = {16};
  opt.eadrl.critic_hidden = {16};
  opt.eadrl.batch_size = 8;
  opt.eadrl.warmup_transitions = 16;
  opt.include_standalone = false;
  opt.seed = 42;
  return opt;
}

const obs::SpanAttr* FindAttr(const obs::FinishedSpan& span,
                              const char* key) {
  for (const obs::SpanAttr& f : span.attrs) {
    if (std::strcmp(f.key, key) == 0) return &f;
  }
  return nullptr;
}

class TraceIntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    par::SetDefaultThreads(4);
    buffer_ = new obs::TraceBuffer();
    obs::SetCurrentThreadTraceName("main");
    obs::SetTraceBuffer(buffer_);

    auto first = ts::MakeDataset(2, 42, 220);
    auto second = ts::MakeDataset(15, 42, 220);
    ASSERT_TRUE(first.ok() && second.ok());
    std::vector<ts::Series> datasets;
    datasets.push_back(std::move(first).value());
    datasets.push_back(std::move(second).value());
    dataset_names_ = new std::set<std::string>{datasets[0].name(),
                                               datasets[1].name()};
    exp::RunSuite(datasets, FastOptions());

    // Joining the pool workers (SetDefaultThreads tears the pool down)
    // guarantees every worker-side span has finished before the buffer is
    // uninstalled and snapshotted.
    par::SetDefaultThreads(1);
    obs::SetTraceBuffer(nullptr);
    spans_ = new std::vector<obs::FinishedSpan>(buffer_->Snapshot());
    by_id_ = new std::map<uint64_t, const obs::FinishedSpan*>();
    for (const obs::FinishedSpan& s : *spans_) by_id_->emplace(s.span_id, &s);
  }

  static void TearDownTestSuite() {
    delete by_id_;
    delete spans_;
    delete dataset_names_;
    delete buffer_;
    buffer_ = nullptr;
  }

  // Names along the ancestor chain of `span` (excluding the span itself).
  static std::vector<std::string> AncestorNames(const obs::FinishedSpan& span) {
    std::vector<std::string> names;
    uint64_t parent = span.parent_id;
    while (parent != 0) {
      auto it = by_id_->find(parent);
      if (it == by_id_->end()) {
        ADD_FAILURE() << "dangling parent id " << parent << " from "
                      << span.name;
        break;
      }
      names.emplace_back(it->second->name);
      parent = it->second->parent_id;
    }
    return names;
  }

  static size_t CountByName(const char* name) {
    size_t n = 0;
    for (const obs::FinishedSpan& s : *spans_) {
      if (std::strcmp(s.name, name) == 0) ++n;
    }
    return n;
  }

  static obs::TraceBuffer* buffer_;
  static std::vector<obs::FinishedSpan>* spans_;
  static std::map<uint64_t, const obs::FinishedSpan*>* by_id_;
  static std::set<std::string>* dataset_names_;
};

obs::TraceBuffer* TraceIntegrationTest::buffer_ = nullptr;
std::vector<obs::FinishedSpan>* TraceIntegrationTest::spans_ = nullptr;
std::map<uint64_t, const obs::FinishedSpan*>* TraceIntegrationTest::by_id_ =
    nullptr;
std::set<std::string>* TraceIntegrationTest::dataset_names_ = nullptr;

TEST_F(TraceIntegrationTest, SpanInventoryMatchesTheRunShape) {
  EXPECT_EQ(CountByName("suite_run"), 1u);
  EXPECT_EQ(CountByName("dataset_run"), 2u);
  EXPECT_EQ(CountByName("pool_prepare"), 2u);
  EXPECT_EQ(CountByName("pool_fit"), 2u);
  EXPECT_EQ(CountByName("train"), 2u);       // one EA-DRL Initialize per dataset
  EXPECT_EQ(CountByName("restart"), 4u);     // 2 restarts x 2 datasets
  EXPECT_GE(CountByName("episode"), 4u);
  EXPECT_GE(CountByName("method_run"), 22u);  // 11 combiners x 2 datasets
  EXPECT_GE(CountByName("model_fit"), 16u);
  EXPECT_GE(CountByName("rolling_forecast"), 16u);
  EXPECT_GE(CountByName("ddpg_update"), 1u);
  EXPECT_GE(CountByName("par_task"), 4u);
  EXPECT_EQ(buffer_->dropped(), 0u);
  // All names come from the registry.
  for (const obs::FinishedSpan& s : *spans_) {
    EXPECT_TRUE(obs::IsRegisteredSpan(s.name)) << s.name;
  }
}

TEST_F(TraceIntegrationTest, NoDanglingParentsAndParentsStartFirst) {
  for (const obs::FinishedSpan& s : *spans_) {
    if (s.parent_id == 0) continue;
    auto it = by_id_->find(s.parent_id);
    ASSERT_NE(it, by_id_->end()) << s.name << " has a dangling parent";
    const obs::FinishedSpan& parent = *it->second;
    EXPECT_EQ(parent.trace_id, s.trace_id) << s.name;
    // Parents start no later than their children (a small tolerance covers
    // cross-thread steady_clock reads landing within the same microsecond).
    EXPECT_LE(parent.start_us, s.start_us + 1.0) << s.name;
  }
}

TEST_F(TraceIntegrationTest, DatasetRunsCoverBothDatasetsUnderTheSuite) {
  std::set<std::string> seen;
  for (const obs::FinishedSpan& s : *spans_) {
    if (std::strcmp(s.name, "dataset_run") != 0) continue;
    const obs::SpanAttr* dataset = FindAttr(s, "dataset");
    ASSERT_NE(dataset, nullptr);
    seen.insert(dataset->str);
    // dataset_run executes as a pool task submitted by RunSuite: its parent
    // chain is par_task -> suite_run.
    const std::vector<std::string> chain = AncestorNames(s);
    ASSERT_EQ(chain.size(), 2u);
    EXPECT_EQ(chain[0], "par_task");
    EXPECT_EQ(chain[1], "suite_run");
  }
  EXPECT_EQ(seen, *dataset_names_);
}

TEST_F(TraceIntegrationTest, WorkerSideRestartsReachTheirDatasetAncestors) {
  // Restarts run on pool workers; their identity must flow through the
  // TraceParent snapshot so each episode still resolves to its dataset.
  std::set<std::string> datasets_via_restart;
  for (const obs::FinishedSpan& s : *spans_) {
    if (std::strcmp(s.name, "restart") != 0) continue;
    const std::vector<std::string> chain = AncestorNames(s);
    bool found_dataset = false;
    for (size_t i = 0; i < chain.size(); ++i) {
      if (chain[i] != "dataset_run") continue;
      found_dataset = true;
      // Recover the dataset attribute from that ancestor.
      uint64_t parent = s.parent_id;
      for (size_t hops = 0; hops < i; ++hops) {
        parent = by_id_->at(parent)->parent_id;
      }
      const obs::SpanAttr* dataset =
          FindAttr(*by_id_->at(parent), "dataset");
      ASSERT_NE(dataset, nullptr);
      datasets_via_restart.insert(dataset->str);
    }
    EXPECT_TRUE(found_dataset) << "restart span not under any dataset_run";
    EXPECT_NE(std::find(chain.begin(), chain.end(), "train"), chain.end());
    EXPECT_NE(std::find(chain.begin(), chain.end(), "suite_run"), chain.end());
  }
  EXPECT_EQ(datasets_via_restart, *dataset_names_);
}

TEST_F(TraceIntegrationTest, EpisodesNestInRestartsAndUpdatesInEpisodes) {
  for (const obs::FinishedSpan& s : *spans_) {
    if (std::strcmp(s.name, "episode") == 0) {
      ASSERT_NE(s.parent_id, 0u);
      EXPECT_STREQ(by_id_->at(s.parent_id)->name, "restart");
      EXPECT_NE(FindAttr(s, "episode"), nullptr);
      EXPECT_NE(FindAttr(s, "restart"), nullptr);
    }
    if (std::strcmp(s.name, "critic_update") == 0 ||
        std::strcmp(s.name, "actor_update") == 0 ||
        std::strcmp(s.name, "target_sync") == 0) {
      ASSERT_NE(s.parent_id, 0u);
      EXPECT_STREQ(by_id_->at(s.parent_id)->name, "ddpg_update");
    }
  }
}

TEST_F(TraceIntegrationTest, SchedulerSpansCarryQueueAttributes) {
  size_t with_attrs = 0;
  bool saw_own_pop_or_steal = false;
  for (const obs::FinishedSpan& s : *spans_) {
    if (std::strcmp(s.name, "par_task") != 0) continue;
    const obs::SpanAttr* wait = FindAttr(s, "queue_wait_seconds");
    const obs::SpanAttr* stolen = FindAttr(s, "stolen");
    const obs::SpanAttr* worker = FindAttr(s, "worker");
    const obs::SpanAttr* depth = FindAttr(s, "depth");
    ASSERT_NE(wait, nullptr);
    ASSERT_NE(stolen, nullptr);
    ASSERT_NE(worker, nullptr);
    ASSERT_NE(depth, nullptr);
    EXPECT_GE(wait->num, 0.0);
    EXPECT_GE(depth->inum, 1);
    saw_own_pop_or_steal = true;
    ++with_attrs;
  }
  EXPECT_TRUE(saw_own_pop_or_steal);
  EXPECT_GE(with_attrs, 4u);
}

TEST_F(TraceIntegrationTest, ChromeExportRoundTripsThroughTheJsonParser) {
  const std::string exported = buffer_->ToChromeTraceJson();
  auto parsed = json::Parse(exported);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::set<double> ids;
  size_t x_events = 0;
  for (const json::Value& event : events->AsArray()) {
    if (event.Find("ph")->AsString() != "X") continue;
    ++x_events;
    EXPECT_TRUE(
        obs::IsRegisteredSpan(event.Find("name")->AsString().c_str()));
    const json::Value* args = event.Find("args");
    ASSERT_NE(args, nullptr);
    ids.insert(args->Find("span_id")->AsNumber());
  }
  EXPECT_EQ(x_events, spans_->size());
  for (const json::Value& event : events->AsArray()) {
    if (event.Find("ph")->AsString() != "X") continue;
    const json::Value* parent = event.Find("args")->Find("parent_id");
    if (parent != nullptr) {
      EXPECT_EQ(ids.count(parent->AsNumber()), 1u) << "dangling parent";
    }
  }
}

}  // namespace
}  // namespace eadrl
