// Self-test for eadrl_lint: every rule must fire on its known-bad fixture
// and stay silent on the matching known-good fixture. Fixtures live in
// tests/lint_fixtures/ (skipped by the eadrl_lint directory walker and not
// compiled — some are deliberately ill-formed). The fixture *contents* come
// from disk; the *path* each is checked under is chosen per case, because
// several rules are scope-sensitive (src/-only bans, clock-owner
// directories, guard canonicalization).

#include "tools/lint/lint.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace eadrl::lint {
namespace {

std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(EADRL_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

Config SpanRegistryWith(std::vector<std::string> names) {
  Config config;
  config.have_spans_registry = true;
  size_t line = 1;
  for (std::string& name : names) {
    config.registered_spans.emplace(std::move(name), line++);
  }
  return config;
}

std::vector<std::string> RuleIds(const std::vector<Finding>& findings) {
  std::vector<std::string> ids;
  for (const Finding& f : findings) ids.push_back(f.rule);
  return ids;
}

struct FixtureCase {
  const char* fixture;        // file under tests/lint_fixtures/
  const char* pretend_path;   // repo-relative path the rule scoping sees
  std::vector<std::string> expect_rules;  // in (line, rule) order
};

class FixtureTest : public ::testing::TestWithParam<FixtureCase> {};

// The lock registry every fixture case is checked under: three ranks in
// declaration (= allowed acquisition) order, with repo-unique member names
// bound the way the driver's CollectLockBindings pass would.
void AddLockRegistry(Config* config) {
  config->have_lock_registry = true;
  config->registered_locks = {
      {"serve_queue", 1}, {"serve_session", 2}, {"obs_trace_shard", 3}};
  config->lock_order = {"serve_queue", "serve_session", "obs_trace_shard"};
  config->lock_bindings = {{"queue_mu_", "serve_queue"},
                           {"session_mu", "serve_session"},
                           {"shard_mu", "obs_trace_shard"}};
}

TEST_P(FixtureTest, FiresExactlyTheExpectedRules) {
  const FixtureCase& c = GetParam();
  Config config = SpanRegistryWith({"train", "predict"});
  AddLockRegistry(&config);
  const std::vector<Finding> findings =
      CheckFile(c.pretend_path, ReadFixture(c.fixture), config);
  EXPECT_EQ(RuleIds(findings), c.expect_rules)
      << "fixture " << c.fixture << " as " << c.pretend_path;
  for (const Finding& f : findings) {
    EXPECT_EQ(f.file, c.pretend_path);
    EXPECT_GT(f.line, 0u);
    EXPECT_EQ(RuleCatalog().count(f.rule), 1u)
        << "finding uses unknown rule-id " << f.rule;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRules, FixtureTest,
    ::testing::Values(
        // Determinism: rand/srand are banned in every scanned directory.
        FixtureCase{"banned_rand.bad.cc", "tests/fake/roll.cc",
                    {"banned-rand", "banned-rand"}},
        FixtureCase{"banned_rand.good.cc", "src/fake/roll.cc", {}},
        // IO bans apply under src/ only.
        FixtureCase{"banned_io.bad.cc", "src/fake/report.cc",
                    {"banned-io", "banned-io"}},
        FixtureCase{"banned_io.bad.cc", "tests/fake/report.cc", {}},
        FixtureCase{"banned_io.good.cc", "src/fake/report.cc", {}},
        // new/delete hygiene, with a suppressed singleton in the good file.
        FixtureCase{"naked_new.bad.cc", "src/fake/make.cc",
                    {"naked-new", "naked-delete", "naked-new"}},
        FixtureCase{"naked_new.good.cc", "src/fake/make.cc", {}},
        // Wall-clock reads: banned in domain code, allowed for the owners.
        FixtureCase{"wall_clock.bad.cc", "src/ts/stamp.cc",
                    {"wall-clock", "wall-clock"}},
        FixtureCase{"wall_clock.bad.cc", "src/common/stamp.cc", {}},
        FixtureCase{"wall_clock.bad.cc", "src/obs/stamp.cc", {}},
        FixtureCase{"wall_clock.good.cc", "src/ts/stamp.cc", {}},
        // Include hygiene.
        FixtureCase{"include_bits.bad.cc", "src/fake/answer.cc",
                    {"include-bits"}},
        FixtureCase{"include_self_first.bad.cc",
                    "src/fake/include_self_first.cc",
                    {"include-self-first"}},
        FixtureCase{"include_self_first.good.cc",
                    "src/fake/include_self_first.cc",
                    {}},
        // Header guards: pragma once plus a missing canonical guard.
        FixtureCase{"header_guard.bad.h", "src/fake/guarded.h",
                    {"header-guard", "header-guard"}},
        FixtureCase{"header_guard.good.h", "src/fake/guarded.h", {}},
        // Trace span names must be registered (src/ and tools/; tests and
        // bench stay exempt so ad-hoc spans remain usable there).
        FixtureCase{"span_registry.bad.cc", "src/fake/train.cc",
                    {"span-registry"}},
        FixtureCase{"span_registry.bad.cc", "tools/fake/bench.cc",
                    {"span-registry"}},
        FixtureCase{"span_registry.bad.cc", "tests/fake/train.cc", {}},
        FixtureCase{"span_registry.bad.cc", "bench/fake/train.cc", {}},
        FixtureCase{"span_registry.good.cc", "src/fake/train.cc", {}},
        FixtureCase{"span_registry.good.cc", "tools/fake/bench.cc", {}},
        // Materialized-transpose product chains (src/ only; tests and bench
        // use the chain as the reference for the fused kernels).
        FixtureCase{"transpose_matmul.bad.cc", "src/fake/solver.cc",
                    {"transpose-matmul", "transpose-matmul"}},
        FixtureCase{"transpose_matmul.bad.cc", "tests/fake/solver.cc", {}},
        FixtureCase{"transpose_matmul.bad.cc", "bench/fake/solver.cc", {}},
        FixtureCase{"transpose_matmul.good.cc", "src/fake/solver.cc", {}},
        // Task markers need an owner/issue tag.
        FixtureCase{"todo_tag.bad.cc", "src/fake/pending.cc",
                    {"todo-tag", "todo-tag"}},
        FixtureCase{"todo_tag.good.cc", "src/fake/pending.cc", {}},
        // Suppressions that suppress nothing are findings themselves.
        FixtureCase{"stale_nolint.bad.cc", "src/fake/clean.cc",
                    {"stale-nolint", "stale-nolint", "stale-nolint"}},
        FixtureCase{"stale_nolint.good.cc", "tests/fake/roll.cc", {}},
        // Guarded-by: container members of mutex-bearing classes need an
        // annotation (enforced in the concurrent subsystems only), and the
        // annotation must name a visible mutex (checked anywhere in src/).
        FixtureCase{"guarded_by.bad.cc", "src/serve/table.cc",
                    {"guarded-by", "guarded-by"}},
        FixtureCase{"guarded_by.bad.cc", "src/nn/table.cc", {"guarded-by"}},
        FixtureCase{"guarded_by.bad.cc", "tests/fake/table.cc", {}},
        FixtureCase{"guarded_by.good.cc", "src/serve/table.cc", {}},
        // EADRL_REQUIRES(mu) methods must not re-lock mu in their body.
        FixtureCase{"requires_self_lock.bad.cc", "src/par/counter.cc",
                    {"requires-self-lock", "requires-self-lock"}},
        FixtureCase{"requires_self_lock.bad.cc", "tests/fake/counter.cc", {}},
        FixtureCase{"requires_self_lock.good.cc", "src/par/counter.cc", {}},
        // Scoped acquisitions of ranked mutexes must follow the registry's
        // declaration order.
        FixtureCase{"lock_order.bad.cc", "src/serve/order.cc",
                    {"lock-order", "lock-order"}},
        FixtureCase{"lock_order.bad.cc", "tests/fake/order.cc", {}},
        FixtureCase{"lock_order.good.cc", "src/serve/order.cc", {}}));

TEST(LintTest, BannedRandReportsAccurateLines) {
  const std::vector<Finding> findings = CheckFile(
      "tests/fake/roll.cc", ReadFixture("banned_rand.bad.cc"), Config{});
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].line, 4u);  // std::srand(42);
  EXPECT_EQ(findings[1].line, 5u);  // return std::rand() % 6;
}

TEST(LintTest, SuppressedFindingDoesNotCountAsStale) {
  const std::vector<Finding> findings = CheckFile(
      "src/fake/roll.cc", ReadFixture("stale_nolint.good.cc"), Config{});
  EXPECT_TRUE(findings.empty());
}

TEST(LintTest, ParseSpansDefReadsNamesAndFlagsDuplicates) {
  const std::string registry =
      "EADRL_SPAN(train, \"one training run\")\n"
      "EADRL_SPAN(predict, \"one prediction\")\n"
      "EADRL_SPAN(train, \"duplicate\")\n";
  std::vector<Finding> findings;
  const std::map<std::string, size_t> spans =
      ParseSpansDef("src/obs/spans.def", registry, &findings);
  EXPECT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans.at("train"), 1u);
  EXPECT_EQ(spans.at("predict"), 2u);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "span-registry");
  EXPECT_EQ(findings[0].line, 3u);
}

TEST(LintTest, UsedSpansSeesNamedAndTemporaryForms) {
  const std::set<std::string> names =
      UsedSpans(ReadFixture("span_registry.good.cc"));
  EXPECT_EQ(names, (std::set<std::string>{"train", "predict"}));
}

TEST(LintTest, SpanRegistryStalenessFlagsUnusedEntries) {
  const Config config = SpanRegistryWith({"train", "predict"});
  const std::vector<Finding> findings =
      CheckSpanRegistryStaleness("src/obs/spans.def", config, {"train"});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "span-registry-stale");
  EXPECT_NE(findings[0].message.find("predict"), std::string::npos);
}

TEST(LintTest, ParseLockOrderDefReadsNamesOrderAndFlagsDuplicates) {
  const std::string registry =
      "EADRL_LOCK(serve_queue, \"batching queue\")\n"
      "EADRL_LOCK(serve_session, \"per-session state\")\n"
      "EADRL_LOCK(serve_queue, \"duplicate\")\n";
  std::vector<Finding> findings;
  std::vector<std::string> order;
  const std::map<std::string, size_t> locks =
      ParseLockOrderDef("src/chk/lock_order.def", registry, &findings, &order);
  EXPECT_EQ(locks.size(), 2u);
  EXPECT_EQ(locks.at("serve_queue"), 1u);
  EXPECT_EQ(locks.at("serve_session"), 2u);
  // File order is the allowed acquisition order; duplicates do not reorder.
  EXPECT_EQ(order, (std::vector<std::string>{"serve_queue", "serve_session"}));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "lock-registry");
  EXPECT_EQ(findings[0].line, 3u);
}

TEST(LintTest, CollectLockBindingsSeesBothBindingForms) {
  const std::string contents =
      "class Q {\n"
      "  chk::OrderedMutex queue_mu_{EADRL_LOCK_RANK(serve_queue),\n"
      "                              \"serve::Q::queue_mu_\"};\n"
      "  std::mutex scratch_mu_ EADRL_LOCK_ORDERED(serve_session);\n"
      "};\n";
  const std::vector<LockBindingSite> sites = CollectLockBindings(contents);
  ASSERT_EQ(sites.size(), 2u);
  EXPECT_EQ(sites[0].name, "queue_mu_");
  EXPECT_EQ(sites[0].rank, "serve_queue");
  EXPECT_EQ(sites[0].line, 2u);
  EXPECT_EQ(sites[1].name, "scratch_mu_");
  EXPECT_EQ(sites[1].rank, "serve_session");
  EXPECT_EQ(sites[1].line, 4u);
}

TEST(LintTest, UnknownRankNameIsALockRegistryFinding) {
  Config config;
  AddLockRegistry(&config);
  const std::string contents =
      "chk::OrderedMutex mu{EADRL_LOCK_RANK(not_a_rank), \"x\"};\n";
  const std::vector<Finding> findings =
      CheckFile("src/serve/x.cc", contents, config);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "lock-registry");
  EXPECT_NE(findings[0].message.find("not_a_rank"), std::string::npos);
}

TEST(LintTest, LockRegistryStalenessFlagsUnboundRanks) {
  Config config;
  AddLockRegistry(&config);
  const std::vector<Finding> findings = CheckLockRegistryStaleness(
      "src/chk/lock_order.def", config, {"serve_queue", "obs_trace_shard"});
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "lock-registry-stale");
  EXPECT_NE(findings[0].message.find("serve_session"), std::string::npos);
}

TEST(LintTest, LockOrderMessageNamesBothSitesAndTheRegistry) {
  Config config;
  AddLockRegistry(&config);
  const std::string contents =
      "void F(S& s) {\n"
      "  std::lock_guard<chk::OrderedMutex> a(s.session_mu);\n"
      "  std::lock_guard<chk::OrderedMutex> b(s.queue_mu_);\n"
      "}\n";
  const std::vector<Finding> findings =
      CheckFile("src/serve/x.cc", contents, config);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "lock-order");
  EXPECT_EQ(findings[0].line, 3u);
  EXPECT_NE(findings[0].message.find("queue_mu_"), std::string::npos);
  EXPECT_NE(findings[0].message.find("session_mu"), std::string::npos);
  EXPECT_NE(findings[0].message.find("lock_order.def"), std::string::npos);
}

TEST(LintTest, FormatFindingJsonEscapes) {
  const Finding f{"src/a.cc", 7, "guarded-by", "needs \"quotes\"\tand tabs"};
  EXPECT_EQ(FormatFindingJson(f),
            "{\"file\":\"src/a.cc\",\"line\":7,\"rule\":\"guarded-by\","
            "\"message\":\"needs \\\"quotes\\\"\\tand tabs\"}");
}

TEST(LintTest, FormatFindingMatchesGateGrammar) {
  const Finding f{"src/nn/dense.cc", 12, "banned-io", "std::cout in src/"};
  EXPECT_EQ(FormatFinding(f), "src/nn/dense.cc:12: banned-io: std::cout in src/");
}

TEST(LintTest, CatalogCoversEveryRuleTheTestsUse) {
  for (const char* id :
       {"banned-rand", "banned-io", "naked-new", "naked-delete", "wall-clock",
        "include-bits", "include-self-first", "header-guard",
        "span-registry", "span-registry-stale",
        "todo-tag", "stale-nolint", "guarded-by", "requires-self-lock",
        "lock-order", "lock-registry", "lock-registry-stale"}) {
    EXPECT_EQ(RuleCatalog().count(id), 1u) << id;
  }
}

}  // namespace
}  // namespace eadrl::lint
