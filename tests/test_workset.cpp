// Static working sets and shard plans (analysis/workset, analysis/
// partition): the dynamic soundness gate.  For every per-AS prefix of
// several generated topologies -- and of partially refined models whose
// prefixes were frozen by budgets, oscillation guards or injected faults --
// every router a full simulation activates must be contained in the
// statically computed working set, the same way test_impact.cpp gates the
// impact closure.  Also pins the compacted-run byte identity against the
// plain engine (including non-identity views with phantom message
// charging), the relaxed/A820 fallback, the reachability cache's
// generation keying (and its sharing between plan and refine in-process),
// and the greedy shard planner's determinism, balance and A821 advisory.
// The shard-executed sweep's schedules, empty shards included, are pinned
// by the reference fingerprints of test_refine_parallel.cpp.
#include "analysis/workset.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/fixtures.hpp"
#include "analysis/partition.hpp"
#include "analysis/reachability_cache.hpp"
#include "core/fault_inject.hpp"
#include "core/pipeline.hpp"
#include "core/refine.hpp"
#include "data/observations.hpp"
#include "topology/model_io.hpp"

namespace {

using analysis::contains_code;
using analysis::PrefixWorkset;
using nb::Asn;
using nb::Prefix;
using nb::RouterId;
using topo::Model;

namespace codes = analysis::codes;

/// activated(run) SUBSETOF working set, for every per-AS prefix.  Returns
/// the number of prefixes checked so callers can assert sample size;
/// `expect_converged` is off for models that legitimately diverge (the
/// bound covers activations of diverged runs too).
std::size_t check_soundness(const Model& model,
                            const bgp::EngineOptions& engine_options,
                            const std::string& label,
                            bool expect_converged = true) {
  const bgp::Engine engine(model, engine_options);
  analysis::ReachabilityCache cache;
  const std::vector<PrefixWorkset> worksets =
      analysis::compute_all_worksets(engine, {}, &cache, nullptr);
  std::size_t activated_total = 0;
  for (const PrefixWorkset& ws : worksets) {
    std::vector<char> activated;
    const bgp::PrefixSimResult sim =
        engine.run(ws.prefix, ws.origin, nullptr, &activated);
    if (expect_converged) {
      EXPECT_TRUE(sim.converged) << label;
    }
    EXPECT_EQ(activated.size(), ws.members.size()) << label;
    for (Model::Dense r = 0; r < model.num_routers(); ++r) {
      if (activated[r] == 0) continue;
      ++activated_total;
      EXPECT_TRUE(ws.contains(r))
          << label << ": " << ws.prefix.str() << " activated "
          << model.router_id(r).str() << " outside the working set";
    }
  }
  EXPECT_GT(activated_total, 0u) << label << ": gate exercised vacuously";
  return worksets.size();
}

TEST(WorksetSoundnessTest, ActivatedRoutersAreContainedInWorkingSet) {
  // Three generated topologies, mirroring test_impact: fitted models under
  // the default engine and one ground truth under relationship policies +
  // IGP costs (the options build_route_space honors via the engine).
  struct Scenario {
    double scale;
    std::uint64_t seed;
    bool ground_truth;
  };
  const Scenario scenarios[] = {
      {0.05, 3, false},
      {0.06, 5, true},
      {0.08, 11, false},
  };
  for (const Scenario& scenario : scenarios) {
    core::Pipeline pipeline = core::run_full_pipeline(
        core::PipelineConfig::with(scenario.scale, scenario.seed));
    ASSERT_TRUE(pipeline.refine_result.success);
    const Model& model =
        scenario.ground_truth ? pipeline.ground_truth.model : pipeline.model;
    const bgp::EngineOptions engine_options =
        scenario.ground_truth ? pipeline.ground_truth.config.engine_options()
                              : bgp::EngineOptions{};
    const std::string label =
        (scenario.ground_truth ? "ground-truth " : "fitted ") +
        std::to_string(scenario.scale) + "/" + std::to_string(scenario.seed);
    // The acceptance floor: at least 20 sampled prefixes per topology.
    EXPECT_GE(check_soundness(model, engine_options, label), 20u);
  }
}

TEST(WorksetSoundnessTest, IbgpMeshClosureKeepsTheBoundSound) {
  // Under the iBGP mesh option AS-mates of a reachable router activate on
  // pushed external bests without any eBGP import of their own; the
  // analyzer closes both bounds under AS membership to stay sound.  The
  // fitted model was not refined under this option, so convergence is not
  // asserted -- containment must hold for diverged runs too.
  core::Pipeline pipeline =
      core::run_full_pipeline(core::PipelineConfig::with(0.05, 3));
  ASSERT_TRUE(pipeline.refine_result.success);
  bgp::EngineOptions options;
  options.use_ibgp_mesh = true;
  EXPECT_GE(check_soundness(pipeline.model, options, "ibgp-mesh",
                            /*expect_converged=*/false),
            20u);
}

TEST(WorksetSoundnessTest, BudgetStoppedPrefixesStillReportSoundSets) {
  // A one-iteration prefix budget freezes prefixes as R702 before they
  // converge; the bound is static, so the partially refined model's
  // working sets owe nothing to that runtime state.
  core::Pipeline pipeline =
      core::make_pipeline(core::PipelineConfig::with(0.08, 11));
  core::run_data_stages(pipeline);
  Model model = Model::one_router_per_as(pipeline.graph);
  core::RefineConfig refine;
  refine.prefix_iteration_budget = 1;
  refine.max_iterations = 4;
  const core::RefineResult result =
      core::refine_model(model, pipeline.split.training, refine);
  ASSERT_GT(result.prefixes_budget_exhausted, 0u);
  EXPECT_GE(check_soundness(model, bgp::EngineOptions{}, "budget-stopped"),
            20u);
}

#ifdef RD_FAULT_INJECTION
TEST(WorksetSoundnessTest, FaultInterruptedFitStillReportsSoundSets) {
  core::Pipeline pipeline =
      core::make_pipeline(core::PipelineConfig::with(0.05, 3));
  core::run_data_stages(pipeline);
  Model model = Model::one_router_per_as(pipeline.graph);
  core::FaultPlan plan;
  plan.interrupt_iteration = 1;
  core::RefineConfig refine;
  refine.fault_plan = &plan;
  const core::RefineResult result =
      core::refine_model(model, pipeline.split.training, refine);
  ASSERT_EQ(result.stop, core::RefineStop::kInterrupted);
  EXPECT_GE(check_soundness(model, bgp::EngineOptions{}, "fault-interrupted"),
            20u);
}
#endif  // RD_FAULT_INJECTION

TEST(WorksetSoundnessTest, OscillationFrozenPrefixStillSound) {
  // BAD GADGET: AS 4's prefix oscillates, the guard freezes it (R700) and
  // its simulations diverge -- activation containment must hold anyway (a
  // successful import precedes every activation, converged or not).
  auto fixture = analysis::audit_fixture("bad-gadget");
  ASSERT_TRUE(fixture.has_value());
  Model model = std::move(*fixture);
  data::BgpDataset training;
  training.points.push_back({RouterId{1, 0}});
  training.records.push_back({0, 4, topo::AsPath{1, 4}});
  const core::RefineResult result =
      core::refine_model(model, training, core::RefineConfig{});
  ASSERT_GT(result.prefixes_oscillating, 0u);
  check_soundness(model, bgp::EngineOptions{}, "bad-gadget",
                  /*expect_converged=*/false);
}

TEST(WorksetTest, ExactBoundExcludesRoutersBehindDenyAllAndStaysSound) {
  // Chain 1-2-3-4 with a deny-all export 2->3 for AS 1's prefix: the MAY
  // sets of 3 and 4 are empty, so the exact working set is {1, 2} -- a
  // strict subset (kDenyAll is also the one filter shape the relaxed BFS
  // skips, so both bounds agree here).
  topo::AsGraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  Model model = Model::one_router_per_as(g);
  const Prefix prefix = Prefix::for_asn(1);
  model.set_export_filter(RouterId{2, 0}, RouterId{3, 0}, prefix,
                          topo::ExportFilter::kDenyAll, nb::kInvalidRouterId);
  const bgp::Engine engine(model);
  const PrefixWorkset ws = analysis::compute_working_set(engine, prefix, 1);
  EXPECT_FALSE(ws.relaxed);
  EXPECT_EQ(ws.size, 2u);
  EXPECT_TRUE(ws.contains(model.dense(RouterId{1, 0})));
  EXPECT_TRUE(ws.contains(model.dense(RouterId{2, 0})));
  EXPECT_FALSE(ws.contains(model.dense(RouterId{3, 0})));
  EXPECT_FALSE(ws.contains(model.dense(RouterId{4, 0})));

  std::vector<char> activated;
  const bgp::PrefixSimResult sim = engine.run(prefix, 1, nullptr, &activated);
  EXPECT_TRUE(sim.converged);
  for (Model::Dense r = 0; r < model.num_routers(); ++r) {
    if (activated[r] != 0) {
      EXPECT_TRUE(ws.contains(r));
    }
  }
}

/// Full-run vs compacted-run equality: states, selection indices, message
/// and activation counters.
void expect_runs_identical(const Model& model, const bgp::PrefixSimResult& a,
                           const bgp::PrefixSimResult& b) {
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.activations, b.activations);
  EXPECT_EQ(a.message_cap, b.message_cap);
  ASSERT_EQ(a.dense_size(), b.dense_size());
  for (Model::Dense r = 0; r < model.num_routers(); ++r) {
    const bgp::RouterState& x = a.state(r);
    const bgp::RouterState& y = b.state(r);
    ASSERT_EQ(x.rib_in.size(), y.rib_in.size()) << model.router_id(r).str();
    EXPECT_EQ(x.best, y.best);
    EXPECT_EQ(x.best_external, y.best_external);
    for (std::size_t e = 0; e < x.rib_in.size(); ++e) {
      EXPECT_EQ(x.rib_in[e].sender, y.rib_in[e].sender);
      EXPECT_EQ(x.rib_in[e].path, y.rib_in[e].path);
      EXPECT_EQ(x.rib_in[e].med, y.rib_in[e].med);
      EXPECT_EQ(x.rib_in[e].local_pref, y.rib_in[e].local_pref);
      EXPECT_EQ(x.rib_in[e].igp_cost, y.rib_in[e].igp_cost);
      EXPECT_EQ(x.rib_in[e].ibgp, y.rib_in[e].ibgp);
    }
  }
}

TEST(CompactedRunTest, MatchesFullRunOnFittedModel) {
  core::Pipeline pipeline =
      core::run_full_pipeline(core::PipelineConfig::with(0.05, 3));
  ASSERT_TRUE(pipeline.refine_result.success);
  const Model& model = pipeline.model;
  const bgp::Engine engine(model);
  analysis::ReachabilityCache cache;
  const std::vector<PrefixWorkset> worksets =
      analysis::compute_all_worksets(engine, {}, &cache, nullptr);
  ASSERT_GE(worksets.size(), 20u);
  for (const PrefixWorkset& ws : worksets) {
    const bgp::PrefixSimResult full = engine.run(ws.prefix, ws.origin);
    const std::shared_ptr<const bgp::PrefixView> view =
        engine.build_view(ws.prefix, ws.origin, ws.members);
    ASSERT_NE(view, nullptr) << ws.prefix.str();
    const bgp::PrefixSimResult compacted = engine.run_compacted(view);
    expect_runs_identical(model, full, compacted);
  }
}

TEST(CompactedRunTest, NonIdentityViewChargesPhantomMessages) {
  // The deny-all chain: the view holds {1, 2} only, yet message totals
  // must match the full run, which still charges the blocked 2->3
  // announcement at 2's activation (cap accounting stays
  // observation-identical).
  topo::AsGraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(3, 4);
  Model model = Model::one_router_per_as(g);
  const Prefix prefix = Prefix::for_asn(1);
  model.set_export_filter(RouterId{2, 0}, RouterId{3, 0}, prefix,
                          topo::ExportFilter::kDenyAll, nb::kInvalidRouterId);
  const bgp::Engine engine(model);
  const PrefixWorkset ws = analysis::compute_working_set(engine, prefix, 1);
  ASSERT_EQ(ws.size, 2u);

  const std::shared_ptr<const bgp::PrefixView> view =
      engine.build_view(prefix, 1, ws.members);
  ASSERT_NE(view, nullptr);
  EXPECT_FALSE(view->identity);
  const bgp::PrefixSimResult full = engine.run(prefix, 1);
  const bgp::PrefixSimResult compacted = engine.run_compacted(view);
  EXPECT_GT(full.messages, 0u);
  expect_runs_identical(model, full, compacted);
  // Routers outside the view read as default-empty state.
  EXPECT_EQ(compacted.state(model.dense(RouterId{4, 0})).best, -1);
  EXPECT_TRUE(compacted.state(model.dense(RouterId{4, 0})).rib_in.empty());
}

TEST(WorksetTest, TruncationFallsBackToRelaxedWithA820) {
  core::Pipeline pipeline =
      core::make_pipeline(core::PipelineConfig::with(0.05, 3));
  core::run_data_stages(pipeline);
  const Model model = Model::one_router_per_as(pipeline.graph);
  const bgp::Engine engine(model);

  // A one-node enumeration cap truncates immediately on any real topology.
  analysis::WorksetOptions options;
  options.space.max_nodes = 1;
  analysis::Diagnostics diags;
  const PrefixWorkset ws = analysis::compute_working_set(
      engine, Prefix::for_asn(model.asns().front()), model.asns().front(),
      options, nullptr, &diags);
  EXPECT_TRUE(ws.relaxed);
  EXPECT_TRUE(contains_code(diags, codes::kWorksetRelaxed));
  // The relaxed fallback still covers the origin and is non-empty.
  EXPECT_GT(ws.size, 0u);

  // Disabling the exact pass relaxes every prefix, one A820 each.
  analysis::WorksetOptions no_exact;
  no_exact.exact = false;
  analysis::Diagnostics all_diags;
  const std::vector<PrefixWorkset> worksets =
      analysis::compute_all_worksets(engine, no_exact, nullptr, &all_diags);
  EXPECT_EQ(all_diags.size(), worksets.size());
  for (const PrefixWorkset& w : worksets) EXPECT_TRUE(w.relaxed);
}

TEST(ReachabilityCacheTest, GenerationKeyedHitsAndInvalidation) {
  topo::AsGraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  Model model = Model::one_router_per_as(g);
  const Prefix prefix = Prefix::for_asn(1);

  analysis::ReachabilityCache cache;
  const auto first = cache.relaxed(model, prefix, 1);
  const auto second = cache.relaxed(model, prefix, 1);
  EXPECT_EQ(first.get(), second.get()) << "same generation must hit";
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().invalidations, 0u);

  // Any model mutation bumps the generation and flushes the cache.
  model.set_ranking(RouterId{2, 0}, prefix, 1);
  const auto third = cache.relaxed(model, prefix, 1);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  ASSERT_EQ(third->size(), model.num_routers());
  EXPECT_EQ(*third,
            analysis::relaxed_reachable(model, model.find_policy(prefix), 1));
}

PrefixWorkset synthetic_workset(Asn origin, std::uint64_t cost,
                                std::vector<char> members) {
  PrefixWorkset ws;
  ws.prefix = Prefix::for_asn(origin);
  ws.origin = origin;
  ws.members = std::move(members);
  for (const char m : ws.members) ws.size += m != 0;
  ws.bounded_messages = ws.size == 0 ? 0 : cost / ws.size;
  ws.cost = cost;
  return ws;
}

TEST(PartitionTest, GreedyPlanIsBalancedCompleteAndDeterministic) {
  // Three router-disjoint workset groups: the affinity objective (fewest
  // uncovered members first, load second) must keep each group on one
  // shard (zero cut weight) while LPT keeps the loads near the 110 mean.
  const std::vector<PrefixWorkset> worksets = {
      synthetic_workset(1, 100, {1, 1, 0, 0, 0, 0}),
      synthetic_workset(2, 90, {0, 0, 1, 1, 0, 0}),
      synthetic_workset(3, 50, {0, 0, 0, 0, 1, 1}),
      synthetic_workset(4, 40, {0, 0, 0, 0, 1, 1}),
      synthetic_workset(5, 30, {0, 0, 1, 1, 0, 0}),
      synthetic_workset(6, 20, {1, 1, 0, 0, 0, 0}),
  };
  analysis::PlanOptions options;
  options.shards = 3;
  analysis::Diagnostics diags;
  const analysis::ShardPlan plan =
      analysis::plan_shards(worksets, 6, options, &diags);

  ASSERT_EQ(plan.shards.size(), 3u);
  std::uint64_t total = 0;
  std::vector<int> placed(worksets.size(), 0);
  for (const auto& shard : plan.shards) {
    total += shard.cost;
    for (const std::size_t p : shard.prefixes) ++placed[p];
  }
  EXPECT_EQ(total, plan.total_cost);
  EXPECT_EQ(plan.total_cost, 330u);
  for (const int count : placed) EXPECT_EQ(count, 1);
  EXPECT_EQ(plan.cut_weight, 0u) << "disjoint groups split across shards";
  EXPECT_LE(plan.imbalance, 1.5);
  EXPECT_FALSE(contains_code(diags, codes::kPlanImbalance));

  // Determinism: identical inputs, byte-identical serialized plan.
  const analysis::ShardPlan again =
      analysis::plan_shards(worksets, 6, options, nullptr);
  EXPECT_EQ(analysis::plan_to_json(plan, worksets),
            analysis::plan_to_json(again, worksets));
}

TEST(PartitionTest, DominantPrefixTripsImbalanceAdvisory) {
  const std::vector<PrefixWorkset> worksets = {
      synthetic_workset(1, 1000, {1, 1}),
      synthetic_workset(2, 10, {1, 0}),
      synthetic_workset(3, 10, {0, 1}),
  };
  analysis::PlanOptions options;
  options.shards = 4;
  analysis::Diagnostics diags;
  const analysis::ShardPlan plan =
      analysis::plan_shards(worksets, 2, options, &diags);
  // Max shard load 1000 against a mean of 255: far beyond the 1.5x
  // advisory line.
  EXPECT_GT(plan.imbalance, 1.5);
  EXPECT_TRUE(contains_code(diags, codes::kPlanImbalance));
  // More shards than prefixes leaves empty shards, never lost prefixes.
  std::size_t placed = 0;
  for (const auto& shard : plan.shards) placed += shard.prefixes.size();
  EXPECT_EQ(placed, worksets.size());
}

TEST(ReachabilityCacheTest, PlanThenRefineSharesTheCacheInProcess) {
  // The satellite-6 regression: `rdtool plan` followed by `refine` in one
  // process used to recompute every working set.  With the shared
  // generation-keyed cache, refine's shard scheduler and compacted sweep
  // must hit the entries the plan already populated.
  core::Pipeline pipeline =
      core::make_pipeline(core::PipelineConfig::with(0.05, 3));
  core::run_data_stages(pipeline);
  Model model = Model::one_router_per_as(pipeline.graph);

  analysis::ReachabilityCache cache;
  {
    const bgp::Engine engine(model);
    analysis::WorksetOptions no_exact;
    no_exact.exact = false;
    analysis::compute_all_worksets(engine, no_exact, &cache, nullptr);
  }
  ASSERT_GT(cache.stats().misses, 0u);
  ASSERT_EQ(cache.stats().hits, 0u);

  core::RefineConfig config;
  config.reachability_cache = &cache;
  const core::RefineResult result =
      core::refine_model(model, pipeline.split.training, config);
  EXPECT_TRUE(result.success);
  EXPECT_GT(cache.stats().hits, 0u)
      << "refine recomputed working sets the plan already cached";
}

}  // namespace
