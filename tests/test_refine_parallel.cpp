// Determinism and caching tests for the parallel refinement sweep: the
// fitted model must reproduce committed reference fingerprints at every
// worker count, the pooled per-prefix simulations must equal their serial
// counterparts, and the engine's epoch context must track model mutations.
// Also runs under the tsan preset, which exercises the simulate-in-parallel
// phase for races.
#include <gtest/gtest.h>

#include "bgp/driver.hpp"
#include "bgp/engine.hpp"
#include "core/pipeline.hpp"
#include "core/refine.hpp"
#include "topology/model_io.hpp"

namespace {

using nb::Asn;
using nb::Prefix;
using topo::Model;

struct Fit {
  std::string model_text;
  core::RefineResult result;
};

Fit fit_at(double scale, std::uint64_t seed, unsigned threads) {
  core::PipelineConfig config = core::PipelineConfig::with(scale, seed);
  core::Pipeline pipeline = core::make_pipeline(config);
  core::run_data_stages(pipeline);

  Model model = Model::one_router_per_as(pipeline.graph);
  core::RefineConfig refine;
  refine.threads = threads;
  Fit fit;
  fit.result = core::refine_model(model, pipeline.split.training, refine);
  fit.model_text = topo::model_to_string(model);
  return fit;
}

/// FNV-1a over everything a fit must reproduce: the serialized model, the
/// message and iteration totals, and every per-iteration log counter.
std::uint64_t fit_fingerprint(const Fit& fit) {
  std::uint64_t hash = 1469598103934665603ull;
  const auto mix_byte = [&hash](unsigned char byte) {
    hash = (hash ^ byte) * 1099511628211ull;
  };
  const auto mix = [&mix_byte](std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8)
      mix_byte(static_cast<unsigned char>(value >> shift));
  };
  for (const char c : fit.model_text) mix_byte(static_cast<unsigned char>(c));
  const core::RefineResult& result = fit.result;
  mix(result.messages_simulated);
  mix(result.iterations);
  mix(result.log.size());
  for (const core::RefineIterationLog& log : result.log) {
    mix(log.iteration);
    mix(log.paths_total);
    mix(log.paths_matched);
    mix(log.active_prefixes);
    mix(log.routers);
    mix(log.filters);
    mix(log.rankings);
    mix(log.routers_added);
    mix(log.policies_changed);
  }
  return hash;
}

/// Reference fits, recorded with the sweep implementation that offered the
/// full-model, flat and externally planned schedules beside the compacted
/// shard-executed one (all four proven byte-identical to each other then).
/// They pin the one remaining schedule to that independent record rather
/// than to an alternate path of itself.
struct ReferenceFit {
  double scale;
  std::uint64_t seed;
  std::uint64_t fingerprint;
  std::uint64_t compacted_runs;
};
constexpr ReferenceFit kReferenceFits[] = {
    {0.05, 1, 0xb898a959dc07cdd3ull, 121},
    {0.08, 6, 0xc2f1b932800f11d9ull, 124},
    {0.1, 3, 0x0fb340b4b1bda3b9ull, 151},
};

const ReferenceFit& reference_for(double scale, std::uint64_t seed) {
  for (const ReferenceFit& ref : kReferenceFits) {
    if (ref.scale == scale && ref.seed == seed) return ref;
  }
  ADD_FAILURE() << "no reference fit for scale " << scale << " seed " << seed;
  return kReferenceFits[0];
}

class ParallelFit : public ::testing::TestWithParam<std::pair<double,
                                                             std::uint64_t>> {
};

TEST_P(ParallelFit, ModelIsByteIdenticalAcrossThreadAndShardSchedules) {
  // The sweep plans one shard per worker, so the thread count is also the
  // shard count.  threads == 0 is the hardware-concurrency leg (whatever
  // this machine resolves it to); threads == 8 outnumbers the active
  // prefixes of the late iterations, so those plans carry empty shards.
  const auto [scale, seed] = GetParam();
  const ReferenceFit& ref = reference_for(scale, seed);
  for (const unsigned threads : {1u, 2u, 4u, 0u, 8u}) {
    const Fit fit = fit_at(scale, seed, threads);
    const std::string what = "threads=" + std::to_string(threads);
    EXPECT_TRUE(fit.result.success) << what;
    EXPECT_EQ(fit_fingerprint(fit), ref.fingerprint)
        << "fit differs from the reference at " << what;
    EXPECT_EQ(fit.result.compacted_runs, ref.compacted_runs) << what;
    if (threads == 8) {
      bool fewer_prefixes_than_shards = false;
      for (const core::RefineIterationLog& log : fit.result.log)
        fewer_prefixes_than_shards |= log.active_prefixes < threads;
      EXPECT_TRUE(fewer_prefixes_than_shards) << "empty shards not exercised";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, ParallelFit,
    ::testing::Values(std::pair<double, std::uint64_t>{0.05, 1},
                      std::pair<double, std::uint64_t>{0.08, 6},
                      std::pair<double, std::uint64_t>{0.1, 3}));

TEST(ParallelEngine, PooledRunsEqualSerialRuns) {
  core::PipelineConfig config = core::PipelineConfig::with(0.1, 2);
  core::Pipeline pipeline = core::make_pipeline(config);
  core::run_data_stages(pipeline);
  const Model model = Model::one_router_per_as(pipeline.graph);
  const bgp::Engine engine(model);

  const std::vector<bgp::SimJob> jobs = bgp::jobs_for_all_ases(model);
  std::vector<bgp::PrefixSimResult> pooled(jobs.size());
  bgp::ThreadPool pool(4);
  bgp::run_jobs(engine, jobs, pool, [&](std::size_t i,
                                        bgp::PrefixSimResult&& result) {
    pooled[i] = std::move(result);
  });

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const bgp::PrefixSimResult serial =
        engine.run(jobs[i].prefix, jobs[i].origin);
    ASSERT_EQ(serial.routers.size(), pooled[i].routers.size());
    EXPECT_EQ(serial.messages, pooled[i].messages) << "origin " << serial.origin;
    EXPECT_EQ(serial.converged, pooled[i].converged);
    for (std::size_t r = 0; r < serial.routers.size(); ++r) {
      const bgp::RouterState& a = serial.routers[r];
      const bgp::RouterState& b = pooled[i].routers[r];
      ASSERT_EQ(a.rib_in.size(), b.rib_in.size());
      EXPECT_EQ(a.best, b.best);
      EXPECT_EQ(a.best_external, b.best_external);
      for (std::size_t e = 0; e < a.rib_in.size(); ++e) {
        EXPECT_EQ(a.rib_in[e].sender, b.rib_in[e].sender);
        EXPECT_EQ(a.rib_in[e].path, b.rib_in[e].path);
        EXPECT_EQ(a.rib_in[e].med, b.rib_in[e].med);
        EXPECT_EQ(a.rib_in[e].local_pref, b.rib_in[e].local_pref);
      }
    }
  }
}

TEST(EpochContext, CachedUntilTheModelMutates) {
  topo::AsGraph g;
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  Model model = Model::one_router_per_as(g);
  bgp::Engine engine(model);

  const auto first = engine.context();
  EXPECT_EQ(first.get(), engine.context().get())
      << "context rebuilt although the model did not change";
  EXPECT_EQ(first->epoch, model.generation());

  // Any mutation bumps the generation and invalidates the cache.
  model.set_ranking(nb::RouterId{1, 0}, Prefix::for_asn(3), 2);
  const auto second = engine.context();
  EXPECT_NE(first.get(), second.get());
  EXPECT_EQ(second->epoch, model.generation());
  EXPECT_GT(second->epoch, first->epoch);

  // The snapshot itself reflects the model: duplicate a router, re-snapshot.
  const std::size_t before = second->ids.size();
  model.duplicate_router(nb::RouterId{2, 0});
  const auto third = engine.context();
  EXPECT_EQ(third->ids.size(), before + 1);

  // Old snapshots stay alive and unchanged for in-flight readers.
  EXPECT_EQ(second->ids.size(), before);
}

}  // namespace
