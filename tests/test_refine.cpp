// Refinement-engine tests beyond the paper's worked examples: reservation
// semantics, per-prefix isolation, idempotence, convergence on generated
// data, and bookkeeping of the iteration log.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>

#include "bgp/engine.hpp"
#include "core/pipeline.hpp"
#include "core/predict.hpp"
#include "core/refine.hpp"

namespace {

using data::BgpDataset;
using nb::Asn;
using nb::Prefix;
using nb::RouterId;
using topo::AsPath;
using topo::Model;

BgpDataset dataset_of(std::vector<std::pair<Asn, AsPath>> records) {
  BgpDataset dataset;
  std::map<Asn, std::uint32_t> points;
  for (auto& [observer, path] : records) {
    if (!points.count(observer)) {
      points[observer] = static_cast<std::uint32_t>(dataset.points.size());
      dataset.points.push_back({RouterId{observer, 0}});
    }
    dataset.records.push_back({points[observer], path.origin(), path});
  }
  return dataset;
}

// Refinement in tests always runs with the analysis hooks on: every
// simulated fixed point is checked and the mutated model re-linted.
core::RefineConfig validated_config() {
  core::RefineConfig config;
  config.validate = true;
  return config;
}

TEST(RefineTest, AlreadyConsistentModelUnchanged) {
  topo::AsGraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  Model model = Model::one_router_per_as(g);
  BgpDataset training = dataset_of({{1, AsPath{1, 2, 3}}, {2, AsPath{2, 3}}});
  auto result = core::refine_model(model, training, validated_config());
  EXPECT_TRUE(result.diagnostics.empty());
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.routers_added, 0u);
  EXPECT_EQ(result.policies_changed, 0u);
  EXPECT_EQ(model.num_routers(), 3u);
  EXPECT_EQ(result.iterations, 1u);
}

TEST(RefineTest, RefinementIsIdempotent) {
  topo::AsGraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(1, 4);
  g.add_edge(4, 3);
  Model model = Model::one_router_per_as(g);
  BgpDataset training = dataset_of({{1, AsPath{1, 4, 3}}});
  auto first = core::refine_model(model, training, validated_config());
  EXPECT_TRUE(first.success);
  EXPECT_TRUE(first.diagnostics.empty());
  const std::size_t routers = model.num_routers();
  auto stats = model.policy_stats();
  auto second = core::refine_model(model, training, validated_config());
  EXPECT_TRUE(second.success);
  EXPECT_TRUE(second.diagnostics.empty());
  EXPECT_EQ(second.policies_changed, 0u);
  EXPECT_EQ(model.num_routers(), routers);
  auto stats2 = model.policy_stats();
  EXPECT_EQ(stats.filters, stats2.filters);
  EXPECT_EQ(stats.rankings, stats2.rankings);
}

TEST(RefineTest, PoliciesArePerPrefix) {
  // Fixing a path for prefix A must not change predictions for prefix B.
  topo::AsGraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(1, 4);
  g.add_edge(4, 3);
  Model model = Model::one_router_per_as(g);
  bgp::Engine engine(model);
  auto before = engine.run(Prefix::for_asn(4), 4);
  BgpDataset training = dataset_of({{1, AsPath{1, 4, 3}}});  // prefix of AS3
  auto result = core::refine_model(model, training, core::RefineConfig{});
  ASSERT_TRUE(result.success);
  auto after = engine.run(Prefix::for_asn(4), 4);
  ASSERT_EQ(before.routers.size(), after.routers.size());
  for (std::size_t r = 0; r < before.routers.size(); ++r) {
    const bgp::Route* a = before.routers[r].best_route();
    const bgp::Route* b = after.routers[r].best_route();
    ASSERT_EQ(a == nullptr, b == nullptr);
    if (a != nullptr) {
      EXPECT_EQ(a->path, b->path);
    }
  }
}

TEST(RefineTest, TwoObserversShareReservations) {
  // Both AS 1 and AS 6 observe paths through AS 2; the shared suffix at 2
  // must be served by one quasi-router, not duplicated per observer.
  topo::AsGraph g;
  g.add_edge(1, 2);
  g.add_edge(6, 2);
  g.add_edge(2, 3);
  Model model = Model::one_router_per_as(g);
  BgpDataset training =
      dataset_of({{1, AsPath{1, 2, 3}}, {6, AsPath{6, 2, 3}}});
  auto result = core::refine_model(model, training, core::RefineConfig{});
  EXPECT_TRUE(result.success);
  EXPECT_EQ(model.routers_of(2).size(), 1u);
}

TEST(RefineTest, DiversityAtIntermediateAsNeedsTwoRouters) {
  // AS 2 must propagate two different suffixes to two observers.
  topo::AsGraph g;
  g.add_edge(1, 2);
  g.add_edge(6, 2);
  g.add_edge(2, 3);
  g.add_edge(2, 4);
  g.add_edge(3, 9);
  g.add_edge(4, 9);
  Model model = Model::one_router_per_as(g);
  BgpDataset training = dataset_of(
      {{1, AsPath{1, 2, 3, 9}}, {6, AsPath{6, 2, 4, 9}}});
  auto result = core::refine_model(model, training, validated_config());
  EXPECT_TRUE(result.success) << result.unmatched_paths;
  EXPECT_TRUE(result.diagnostics.empty());
  EXPECT_EQ(model.routers_of(2).size(), 2u);
}

TEST(RefineTest, UnknownOriginCountsAsUnmatched) {
  topo::AsGraph g;
  g.add_edge(1, 2);
  Model model = Model::one_router_per_as(g);
  BgpDataset training = dataset_of({{1, AsPath{1, 77}}});  // AS 77 unknown
  auto result = core::refine_model(model, training, core::RefineConfig{});
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.unmatched_paths, 1u);
}

TEST(RefineTest, IterationLogMonotonicallyImproves) {
  topo::AsGraph g;
  for (Asn a = 1; a < 6; ++a) g.add_edge(a, a + 1);
  g.add_edge(1, 6);
  Model model = Model::one_router_per_as(g);
  BgpDataset training = dataset_of({{1, AsPath{1, 2, 3, 4, 5, 6}}});
  auto result = core::refine_model(model, training, core::RefineConfig{});
  ASSERT_TRUE(result.success);
  ASSERT_FALSE(result.log.empty());
  for (std::size_t i = 1; i < result.log.size(); ++i)
    EXPECT_GE(result.log[i].paths_matched, result.log[i - 1].paths_matched);
  EXPECT_EQ(result.log.back().paths_matched,
            result.log.back().paths_total);
}

TEST(RefineTest, CapStopsRunawayConfigurations) {
  topo::AsGraph g;
  g.add_edge(1, 4);
  g.add_edge(1, 5);
  g.add_edge(5, 4);
  Model model = Model::one_router_per_as(g);
  BgpDataset training = dataset_of({{1, AsPath{1, 4}}, {1, AsPath{1, 5, 4}}});
  core::RefineConfig config;
  config.allow_duplication = false;  // cannot succeed
  config.max_iterations = 5;
  auto result = core::refine_model(model, training, config);
  EXPECT_FALSE(result.success);
  EXPECT_LE(result.iterations, 5u);
}

TEST(RefineTest, ConvergesOnGeneratedInternet) {
  // End-to-end convergence on a small generated dataset (the quickstart
  // pipeline at reduced scale), asserting the paper's training fixpoint.
  core::PipelineConfig config = core::PipelineConfig::with(0.08, 5);
  config.refine.validate = true;
  core::Pipeline pipeline = core::make_pipeline(config);
  core::run_data_stages(pipeline);
  core::run_model_stages(pipeline);
  EXPECT_TRUE(pipeline.refine_result.success)
      << pipeline.refine_result.unmatched_paths << " unmatched";
  EXPECT_TRUE(pipeline.refine_result.diagnostics.empty())
      << analysis::render_diagnostics(pipeline.refine_result.diagnostics);
  EXPECT_TRUE(pipeline.lint.empty())
      << analysis::render_diagnostics(pipeline.lint);
  EXPECT_DOUBLE_EQ(pipeline.training_eval.stats.rib_out_rate(), 1.0);
}

TEST(RefineTest, FittedAsEdgesAreFullBicliques) {
  // duplicate_router copies every session of its source, so a fit only
  // ever grows each AS edge into a complete bipartite graph: all routers of
  // A peer with all routers of B, and the session count is the sum over AS
  // edges of routers(A) x routers(B) (DESIGN.md section 8).
  core::Pipeline pipeline =
      core::make_pipeline(core::PipelineConfig::with(0.05, 1));
  core::run_data_stages(pipeline);
  Model model = Model::one_router_per_as(pipeline.graph);
  const core::RefineResult result = core::refine_model(
      model, pipeline.split.training, core::RefineConfig{});
  ASSERT_TRUE(result.success);
  ASSERT_GT(result.routers_added, 0u) << "no duplicate to grow an edge";

  // Sessions per AS pair, each counted once from its lower-ASN end.
  std::map<std::pair<Asn, Asn>, std::size_t> sessions_per_edge;
  for (Model::Dense r = 0; r < model.num_routers(); ++r) {
    const Asn a = model.router_id(r).asn();
    for (const Model::Dense peer : model.peers(r)) {
      const Asn b = model.router_id(peer).asn();
      ASSERT_NE(a, b) << "intra-AS session";
      if (a < b) ++sessions_per_edge[{a, b}];
    }
  }
  const std::vector<std::pair<Asn, Asn>> edges = pipeline.graph.edges();
  ASSERT_EQ(sessions_per_edge.size(), edges.size())
      << "a fit must neither add nor drop AS edges";
  std::size_t biclique_sessions = 0;
  for (const auto& [x, y] : edges) {
    const std::pair<Asn, Asn> key = std::minmax(x, y);
    const std::size_t full =
        model.routers_of(x).size() * model.routers_of(y).size();
    EXPECT_EQ(sessions_per_edge[key], full)
        << "AS edge " << x << "-" << y << " is not a full biclique";
    biclique_sessions += full;
  }
  EXPECT_EQ(model.num_sessions(), biclique_sessions);
}

TEST(RefineTest, ModelGrowthIsReported) {
  topo::AsGraph g;
  g.add_edge(1, 4);
  g.add_edge(1, 5);
  g.add_edge(5, 4);
  Model model = Model::one_router_per_as(g);
  BgpDataset training = dataset_of({{1, AsPath{1, 4}}, {1, AsPath{1, 5, 4}}});
  auto result = core::refine_model(model, training, core::RefineConfig{});
  ASSERT_TRUE(result.success);
  EXPECT_EQ(result.routers_added, model.num_routers() - 3);
  EXPECT_GT(result.policies_changed, 0u);
}

}  // namespace
