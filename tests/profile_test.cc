// Tests for operation-scoped cost attribution (obs/profile.h) and the
// EXPLAIN entry point (revision/explain.h): scope nesting builds one
// tree with inclusive counter deltas, peaks propagate to ancestors,
// pool-shard scopes attach to the spawning operation, the node budget
// drops and counts overflow, the forest serializes with the counter
// keys, and — the attribution acceptance rule — at one thread the
// per-node exclusive costs of a revision sum exactly to the global
// counter deltas of the call.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/librevise.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "util/parallel.h"

namespace revise {
namespace {

using obs::ProfileNode;
using obs::ProfileScope;
using obs::Registry;

size_t KeyIndex(std::string_view key) {
  const auto& keys = obs::ProfileCounterKeys();
  for (size_t i = 0; i < keys.size(); ++i) {
    if (key == keys[i]) return i;
  }
  ADD_FAILURE() << "unknown profile key " << key;
  return 0;
}

uint64_t SumExclusive(const ProfileNode& node, size_t counter) {
  uint64_t total = node.Exclusive(counter);
  for (const auto& child : node.children) {
    total += SumExclusive(*child, counter);
  }
  return total;
}

size_t CountNodes(const ProfileNode& node) {
  size_t count = 1;
  for (const auto& child : node.children) count += CountNodes(*child);
  return count;
}

const RevisionOperator* FindOperator(std::string_view name) {
  for (const RevisionOperator* op : AllOperators()) {
    if (op->name() == name) return op;
  }
  return nullptr;
}

class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::TakeProfiles();  // drop trees completed by earlier tests
    obs::SetProfilingEnabled(true);
  }
  void TearDown() override {
    obs::SetProfilingEnabled(false);
    obs::TakeProfiles();
  }
};

TEST_F(ProfileTest, NestedScopesBuildOneTreeWithInclusiveDeltas) {
  obs::Counter* solves = Registry::Global().GetCounter("sat.solves");
  const size_t i_solves = KeyIndex("sat.solves");
  {
    ProfileScope outer("test.profile_outer");
    solves->Increment(2);
    {
      ProfileScope inner("test.profile_", "inner");
      solves->Increment(3);
    }
    solves->Increment(1);
  }
  const auto forest = obs::TakeProfiles();
  ASSERT_EQ(forest.size(), 1u);
  const ProfileNode& root = *forest[0];
  EXPECT_EQ(root.name, "test.profile_outer");
  ASSERT_EQ(root.children.size(), 1u);
  const ProfileNode& inner = *root.children[0];
  EXPECT_EQ(inner.name, "test.profile_inner");
  EXPECT_EQ(inner.parent, &root);
  // Inclusive counts cover descendants; exclusive subtracts them.
  EXPECT_EQ(root.inclusive[i_solves], 6u);
  EXPECT_EQ(inner.inclusive[i_solves], 3u);
  EXPECT_EQ(root.Exclusive(i_solves), 3u);
  EXPECT_EQ(inner.Exclusive(i_solves), 3u);
  EXPECT_GE(root.duration_ns, inner.duration_ns);
}

TEST_F(ProfileTest, DisabledProfilingRecordsNothing) {
  obs::SetProfilingEnabled(false);
  {
    ProfileScope scope("test.profile_disabled");
  }
  EXPECT_TRUE(obs::TakeProfiles().empty());
}

TEST_F(ProfileTest, PeakModelSetPropagatesToAncestors) {
  {
    ProfileScope outer("test.profile_peak_outer");
    obs::NoteModelSetCardinality(4);
    {
      ProfileScope inner("test.profile_peak_inner");
      obs::NoteModelSetCardinality(10);
    }
    obs::NoteModelSetCardinality(7);
  }
  const auto forest = obs::TakeProfiles();
  ASSERT_EQ(forest.size(), 1u);
  EXPECT_EQ(forest[0]->peak_model_set_models, 10u);
  ASSERT_EQ(forest[0]->children.size(), 1u);
  EXPECT_EQ(forest[0]->children[0]->peak_model_set_models, 10u);
}

TEST_F(ProfileTest, PoolShardScopesAttachToTheSpawningOperation) {
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SetParallelThreadsOverride(threads);
    {
      ProfileScope root("test.profile_par_root");
      ParallelMapRanges<int>(32, 1, [](size_t begin, size_t end) {
        ProfileScope shard("test.profile_par_shard");
        return static_cast<int>(end - begin);
      });
    }
    SetParallelThreadsOverride(0);
    const auto forest = obs::TakeProfiles();
    // One rooted tree per thread count: shard scopes executed on pool
    // workers attach under the spawning operation, never as new roots.
    ASSERT_EQ(forest.size(), 1u) << "threads=" << threads;
    EXPECT_EQ(forest[0]->name, "test.profile_par_root");
    ASSERT_GE(forest[0]->children.size(), 1u) << "threads=" << threads;
    for (const auto& child : forest[0]->children) {
      EXPECT_EQ(child->name, "test.profile_par_shard");
      EXPECT_TRUE(child->children.empty());
    }
  }
}

TEST_F(ProfileTest, NodeBudgetDropsAndCountsOverflow) {
  obs::Counter* dropped =
      Registry::Global().GetCounter("obs.profile_nodes_dropped");
  const uint64_t before = dropped->Value();
  for (size_t i = 0; i < obs::kMaxLiveProfileNodes + 5; ++i) {
    ProfileScope scope("test.profile_budget");
  }
  EXPECT_EQ(dropped->Value(), before + 5);
  EXPECT_EQ(obs::TakeProfiles().size(), obs::kMaxLiveProfileNodes);
  // The drain resets the budget.
  {
    ProfileScope scope("test.profile_after_drain");
  }
  EXPECT_EQ(obs::TakeProfiles().size(), 1u);
  EXPECT_EQ(dropped->Value(), before + 5);
}

TEST_F(ProfileTest, ForestSerializesWithCounterKeys) {
  {
    ProfileScope scope("test.profile_json");
    obs::NoteModelSetCardinality(3);
  }
  const obs::Json forest = obs::ProfileForestToJson();
  ASSERT_EQ(forest.size(), 1u);
  const obs::Json& node = forest.at(0);
  EXPECT_EQ(node.Find("name")->AsString(), "test.profile_json");
  EXPECT_TRUE(node.Has("span_id"));
  EXPECT_TRUE(node.Has("duration_ns"));
  EXPECT_EQ(node.Find("peak_model_set_models")->AsUint(), 3u);
  EXPECT_TRUE(node.Has("peak_rss_delta_bytes"));
  for (const char* key : obs::ProfileCounterKeys()) {
    EXPECT_TRUE(node.Find("counters")->Has(key)) << key;
  }
  EXPECT_TRUE(node.Find("children")->is_array());
  // Serialization does not drain: the forest is still there for the
  // explicit drain.
  EXPECT_EQ(obs::ProfileForestToJson().size(), 1u);
  EXPECT_EQ(obs::TakeProfiles().size(), 1u);
}

// The acceptance rule: EXPLAIN on a Table-1-shaped instance (a complete
// knowledge base revised by the negation of a conjunction, the paper's
// explosion driver) yields a rooted cost tree whose per-node exclusive
// SAT-solve and model-enumeration counts sum exactly to the global
// counter deltas of the call — exact at REVISE_THREADS=1 per the
// documented attribution rules.
TEST(ExplainTest, ExclusiveCostsSumToGlobalCounterDeltasAtOneThread) {
  SetParallelThreadsOverride(1);
  Vocabulary vocabulary;
  Theory theory;
  for (int i = 0; i < 6; ++i) {
    theory.Add(
        Formula::Variable(vocabulary.InternIndexed("x", i)));
  }
  StatusOr<Formula> mu = Parse("!(x0 & x1) | !x2", &vocabulary);
  ASSERT_TRUE(mu.ok()) << mu.status().ToString();
  const RevisionOperator* op = FindOperator("Winslett");
  ASSERT_NE(op, nullptr);

  obs::Counter* solves = Registry::Global().GetCounter("sat.solves");
  obs::Counter* models =
      Registry::Global().GetCounter("solve.models_enumerated");
  const uint64_t solves_before = solves->Value();
  const uint64_t models_before = models->Value();
  const Explanation explanation = Explain(*op, theory, *mu);
  const uint64_t solves_delta = solves->Value() - solves_before;
  const uint64_t models_delta = models->Value() - models_before;
  SetParallelThreadsOverride(0);

  ASSERT_NE(explanation.profile, nullptr);
  EXPECT_EQ(explanation.profile->name,
            "explain." + std::string(op->name()));
  EXPECT_FALSE(explanation.result.empty());
  EXPECT_GT(models_delta, 0u);
  EXPECT_GE(CountNodes(*explanation.profile), 2u);

  const size_t i_solves = KeyIndex("sat.solves");
  const size_t i_models = KeyIndex("solve.models_enumerated");
  EXPECT_EQ(explanation.profile->inclusive[i_solves], solves_delta);
  EXPECT_EQ(explanation.profile->inclusive[i_models], models_delta);
  EXPECT_EQ(SumExclusive(*explanation.profile, i_solves), solves_delta);
  EXPECT_EQ(SumExclusive(*explanation.profile, i_models), models_delta);

  const std::string rendered = RenderExplanation(explanation);
  EXPECT_NE(rendered.find("model(s)"), std::string::npos);
  EXPECT_NE(rendered.find("explain."), std::string::npos);
  // Explain restored the profiling default (off) and drained its tree.
  EXPECT_FALSE(obs::ProfilingEnabled());
  EXPECT_TRUE(obs::TakeProfiles().empty());
}

}  // namespace
}  // namespace revise
