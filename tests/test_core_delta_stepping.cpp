// Correctness tests for the delta-stepping engine: oracle sweeps over
// graph shapes x rank counts x optimization configurations, plus targeted
// feature and edge-case tests.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <tuple>

#include "core/relax_core.hpp"
#include "core/runner.hpp"
#include "sssp_test_util.hpp"

namespace {

using namespace g500;
using namespace g500::graph;
using g500::testing::EngineKind;
using g500::testing::expect_matches_oracle;
using g500::testing::GraphCase;
using g500::testing::standard_graph_cases;

// --------------------------------------------------------------------------
// Main oracle sweep: every standard graph x rank count x config variant.
// --------------------------------------------------------------------------

struct ConfigCase {
  std::string name;
  core::SsspConfig config;
};

std::vector<ConfigCase> config_cases() {
  std::vector<ConfigCase> cases;
  cases.push_back({"default", core::SsspConfig{}});
  cases.push_back({"plain", core::SsspConfig::plain()});
  {
    core::SsspConfig c = core::SsspConfig::plain();
    c.coalesce = true;
    cases.push_back({"coalesce_only", c});
  }
  {
    core::SsspConfig c = core::SsspConfig::plain();
    c.hub_cache = true;
    cases.push_back({"hub_only", c});
  }
  {
    core::SsspConfig c = core::SsspConfig::plain();
    c.local_fusion = true;
    cases.push_back({"fusion_only", c});
  }
  {
    core::SsspConfig c;
    c.direction_opt = true;
    c.pull_threshold = 0.0;  // pull as aggressively as possible
    c.pull_bias = 0.0;
    cases.push_back({"pull_always", c});
  }
  {
    core::SsspConfig c;
    c.delta = 0.05;
    cases.push_back({"small_delta", c});
  }
  {
    core::SsspConfig c;
    c.delta = 0.9;
    cases.push_back({"large_delta", c});
  }
  {
    core::SsspConfig c;
    c.delta = 10.0;  // one bucket: degenerates to Bellman-Ford-ish
    cases.push_back({"huge_delta", c});
  }
  {
    core::SsspConfig c = core::SsspConfig::plain();
    c.compress = true;
    cases.push_back({"compress_only", c});
  }
  {
    core::SsspConfig c;
    c.hierarchical_group = 3;
    cases.push_back({"hierarchical", c});
  }
  return cases;
}

class DeltaSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

INSTANTIATE_TEST_SUITE_P(
    GraphRankConfig, DeltaSweep,
    ::testing::Combine(::testing::Range(0, 8),   // graph case index
                       ::testing::Values(1, 2, 4, 7),
                       ::testing::Range(0, 11)),  // config case index
    [](const ::testing::TestParamInfo<std::tuple<int, int, int>>& info) {
      const auto graphs = standard_graph_cases();
      const auto configs = config_cases();
      return graphs[std::get<0>(info.param)].name + "_r" +
             std::to_string(std::get<1>(info.param)) + "_" +
             configs[std::get<2>(info.param)].name;
    });

TEST_P(DeltaSweep, MatchesDijkstraAndValidates) {
  const auto [graph_idx, ranks, config_idx] = GetParam();
  const GraphCase gc = standard_graph_cases()[graph_idx];
  const ConfigCase cc = config_cases()[config_idx];
  const EdgeList list = gc.make();
  expect_matches_oracle(list, ranks, {0, list.num_vertices / 2}, cc.config);
}

// --------------------------------------------------------------------------
// Targeted feature tests.
// --------------------------------------------------------------------------

TEST(DeltaStepping, AutoDeltaTracksAverageDegree) {
  KroneckerParams params;
  params.scale = 8;
  params.edgefactor = 8;
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    const double delta = core::auto_delta(g);
    const double avg_deg = static_cast<double>(g.num_directed_edges) /
                           static_cast<double>(g.num_vertices);
    EXPECT_NEAR(delta, 1.0 / avg_deg, 1e-12);
    EXPECT_GE(delta, 1.0 / 64.0);
    EXPECT_LE(delta, 1.0);
  });
}

TEST(DeltaStepping, DeterministicAcrossRepeatedRuns) {
  KroneckerParams params;
  params.scale = 9;
  simmpi::World world(4);
  std::vector<float> first;
  for (int round = 0; round < 3; ++round) {
    world.run([&](simmpi::Comm& comm) {
      const DistGraph g = build_kronecker(comm, params);
      const auto mine = core::delta_stepping(comm, g, 3);
      const auto whole = core::gather_result(comm, g, mine);
      if (comm.rank() == 0) {
        if (round == 0) {
          first = whole.dist;
        } else {
          ASSERT_EQ(whole.dist.size(), first.size());
          for (std::size_t v = 0; v < first.size(); ++v) {
            EXPECT_EQ(whole.dist[v], first[v]) << "run " << round;
          }
        }
      }
    });
  }
}

TEST(DeltaStepping, DistancesIdenticalAcrossRankCounts) {
  KroneckerParams params;
  params.scale = 8;
  std::vector<float> reference;
  for (int ranks : {1, 2, 4, 8}) {
    simmpi::World world(ranks);
    world.run([&](simmpi::Comm& comm) {
      const DistGraph g = build_kronecker(comm, params);
      const auto mine = core::delta_stepping(comm, g, 5);
      const auto whole = core::gather_result(comm, g, mine);
      if (comm.rank() == 0) {
        if (reference.empty()) {
          reference = whole.dist;
        } else {
          for (std::size_t v = 0; v < reference.size(); ++v) {
            EXPECT_EQ(whole.dist[v], reference[v])
                << "ranks " << ranks << " vertex " << v;
          }
        }
      }
    });
  }
}

TEST(DeltaStepping, PullModeActuallyEngagesOnDenseFrontiers) {
  // A complete-ish graph with pull forced on must record pull rounds.
  const EdgeList dense = complete_graph(96, 31);
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(
        comm, slice_for_rank(dense, comm.rank(), comm.size()),
        dense.num_vertices);
    core::SsspConfig c;
    c.pull_threshold = 0.0;
    c.pull_bias = 0.0;
    core::SsspStats stats;
    const auto mine = core::delta_stepping(comm, g, 0, c, &stats);
    EXPECT_GT(stats.pull_rounds, 0u);
    const auto verdict = core::validate_sssp(comm, g, 0, mine);
    EXPECT_TRUE(verdict.ok);
  });
}

TEST(DeltaStepping, HubCacheFiltersTrafficOnStarGraph) {
  const EdgeList star = star_graph(256, 33);
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    BuildOptions opts;
    opts.hub_count = 4;
    const DistGraph g = build_distributed(
        comm, slice_for_rank(star, comm.rank(), comm.size()),
        star.num_vertices, opts);
    core::SsspConfig with = core::SsspConfig::plain();
    with.hub_cache = true;
    core::SsspStats stats;
    // Root at a leaf: every other leaf relaxes toward the center.
    const auto mine = core::delta_stepping(comm, g, 5, with, &stats);
    const auto filtered = comm.allreduce_sum(stats.filtered_hub);
    EXPECT_GT(filtered, 0u);
    EXPECT_TRUE(core::validate_sssp(comm, g, 5, mine).ok);
  });
}

TEST(DeltaStepping, LocalFusionAvoidsSelfMessages) {
  KroneckerParams params;
  params.scale = 8;
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    core::SsspConfig fused = core::SsspConfig::plain();
    fused.local_fusion = true;
    core::SsspStats stats;
    (void)core::delta_stepping(comm, g, 1, fused, &stats);
    EXPECT_GT(comm.allreduce_sum(stats.fused_local), 0u);
  });
}

TEST(DeltaStepping, CoalescingDropsDuplicateCandidates) {
  // Kronecker graphs have many parallel paths into hubs; a round's worth of
  // candidates per target collapses to one.
  KroneckerParams params;
  params.scale = 9;
  params.edgefactor = 16;
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    core::SsspConfig c = core::SsspConfig::plain();
    c.coalesce = true;
    core::SsspStats stats;
    (void)core::delta_stepping(comm, g, 1, c, &stats);
    EXPECT_GT(comm.allreduce_sum(stats.filtered_coalesce), 0u);
  });
}

TEST(DeltaStepping, StatsBucketsAgreeAcrossRanks) {
  KroneckerParams params;
  params.scale = 8;
  simmpi::World world(4);
  const auto counts = world.run_collect<std::uint64_t>(
      [&](simmpi::Comm& comm) {
        const DistGraph g = build_kronecker(comm, params);
        core::SsspStats stats;
        (void)core::delta_stepping(comm, g, 2, core::SsspConfig{}, &stats);
        return stats.buckets_processed;
      });
  for (int r = 1; r < 4; ++r) EXPECT_EQ(counts[r], counts[0]);
}

// --------------------------------------------------------------------------
// Edge cases.
// --------------------------------------------------------------------------

TEST(DeltaStepping, BucketTraceRecordsEveryBucket) {
  KroneckerParams params;
  params.scale = 9;
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    core::SsspConfig config;
    config.collect_bucket_trace = true;
    core::SsspStats stats;
    (void)core::delta_stepping(comm, g, 1, config, &stats);
    ASSERT_EQ(stats.bucket_trace.size(), stats.buckets_processed);
    std::uint64_t rounds = 0;
    std::uint64_t prev_bucket = 0;
    for (std::size_t i = 0; i < stats.bucket_trace.size(); ++i) {
      const auto& row = stats.bucket_trace[i];
      rounds += row.light_rounds;
      if (i > 0) {
        EXPECT_GT(row.bucket, prev_bucket);  // strictly ascending
      }
      prev_bucket = row.bucket;
      EXPECT_GE(row.seconds, 0.0);
    }
    EXPECT_EQ(rounds, stats.light_iterations);
    // Off by default.
    core::SsspStats quiet;
    (void)core::delta_stepping(comm, g, 1, core::SsspConfig{}, &quiet);
    EXPECT_TRUE(quiet.bucket_trace.empty());
  });
}

TEST(DeltaStepping, MultiSourceEqualsMinOverSingleSources) {
  const EdgeList list = grid_graph(12, 12, 51);
  const std::vector<VertexId> roots = {0, 77, 143};
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(
        comm, slice_for_rank(list, comm.rank(), comm.size()),
        list.num_vertices);
    const auto mine = core::delta_stepping_multi(comm, g, roots);
    const auto whole = core::gather_result(comm, g, mine);
    // Oracle: element-wise min over single-source Dijkstras.
    std::vector<float> want(list.num_vertices, kInfDistance);
    for (const auto root : roots) {
      const auto single = core::dijkstra(list, root);
      for (VertexId v = 0; v < list.num_vertices; ++v) {
        want[v] = std::min(want[v], single.dist[v]);
      }
    }
    for (VertexId v = 0; v < list.num_vertices; ++v) {
      EXPECT_FLOAT_EQ(whole.dist[v], want[v]) << "vertex " << v;
    }
    // Every root anchors itself.
    for (const auto root : roots) {
      EXPECT_EQ(whole.parent[root], root);
      EXPECT_EQ(whole.dist[root], 0.0f);
    }
  });
}

TEST(DeltaStepping, MultiSourceOracleAcrossAllGraphShapes) {
  // Batched nearest-root distances must equal the per-root Dijkstra
  // minimum on every standard graph shape, including when some roots are
  // isolated vertices appended past the generated edges.
  for (const auto& gcase : g500::testing::standard_graph_cases()) {
    EdgeList list = gcase.make();
    const VertexId isolated_a = list.num_vertices;
    const VertexId isolated_b = list.num_vertices + 1;
    list.num_vertices += 2;  // two isolated vertices, no edges touch them
    const std::vector<VertexId> roots = {0, list.num_vertices / 3,
                                         isolated_a, isolated_b};
    simmpi::World world(3);
    world.run([&](simmpi::Comm& comm) {
      const DistGraph g = build_distributed(
          comm, slice_for_rank(list, comm.rank(), comm.size()),
          list.num_vertices);
      const auto mine = core::delta_stepping_multi(comm, g, roots);
      const auto whole = core::gather_result(comm, g, mine);
      std::vector<float> want(list.num_vertices, kInfDistance);
      for (const auto root : roots) {
        const auto single = core::dijkstra(list, root);
        for (VertexId v = 0; v < list.num_vertices; ++v) {
          want[v] = std::min(want[v], single.dist[v]);
        }
      }
      ASSERT_EQ(whole.dist.size(), want.size()) << gcase.name;
      for (VertexId v = 0; v < list.num_vertices; ++v) {
        EXPECT_FLOAT_EQ(whole.dist[v], want[v])
            << gcase.name << " vertex " << v;
      }
      // Isolated roots reach only themselves but still anchor there.
      EXPECT_EQ(whole.dist[isolated_a], 0.0f) << gcase.name;
      EXPECT_EQ(whole.parent[isolated_b], isolated_b) << gcase.name;
    });
  }
}

TEST(DeltaStepping, MultiSourceRejectsEmptyAndBadRoots) {
  const EdgeList list = path_graph(8);
  simmpi::World world(2);
  EXPECT_THROW(world.run([&](simmpi::Comm& comm) {
                 const DistGraph g = build_distributed(
                     comm, slice_for_rank(list, comm.rank(), comm.size()), 8);
                 (void)core::delta_stepping_multi(comm, g, {});
               }),
               std::invalid_argument);
  EXPECT_THROW(world.run([&](simmpi::Comm& comm) {
                 const DistGraph g = build_distributed(
                     comm, slice_for_rank(list, comm.rank(), comm.size()), 8);
                 (void)core::delta_stepping_multi(comm, g, {1, 99});
               }),
               std::out_of_range);
}

TEST(DeltaStepping, RootOnlyGraph) {
  EdgeList isolated;
  isolated.num_vertices = 5;  // no edges at all
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(comm, isolated, 5);
    const auto mine = core::delta_stepping(comm, g, 2);
    const auto whole = core::gather_result(comm, g, mine);
    EXPECT_FLOAT_EQ(whole.dist[2], 0.0f);
    for (VertexId v = 0; v < 5; ++v) {
      if (v != 2) {
        EXPECT_EQ(whole.dist[v], kInfDistance);
      }
    }
    EXPECT_TRUE(core::validate_sssp(comm, g, 2, mine).ok);
  });
}

TEST(DeltaStepping, DisconnectedComponents) {
  // Two separate paths: 0-1-2 and 3-4-5.
  EdgeList g;
  g.num_vertices = 6;
  g.edges = {{0, 1, 0.5f}, {1, 2, 0.5f}, {3, 4, 0.5f}, {4, 5, 0.5f}};
  expect_matches_oracle(g, 3, {0, 4});
}

TEST(DeltaStepping, MoreRanksThanVertices) {
  EdgeList tiny;
  tiny.num_vertices = 3;
  tiny.edges = {{0, 1, 0.4f}, {1, 2, 0.4f}};
  expect_matches_oracle(tiny, 8, {0, 1, 2});
}

TEST(DeltaStepping, TinyWeightsNearZero) {
  EdgeList g;
  g.num_vertices = 4;
  g.edges = {{0, 1, 1e-9f}, {1, 2, 1e-9f}, {2, 3, 1e-9f}};
  core::SsspConfig c;
  c.delta = 0.5;
  expect_matches_oracle(g, 2, {0}, c);
}

TEST(DeltaStepping, RootOutOfRangeThrows) {
  EdgeList g = path_graph(4);
  simmpi::World world(2);
  EXPECT_THROW(world.run([&](simmpi::Comm& comm) {
                 const DistGraph dg = build_distributed(
                     comm, slice_for_rank(g, comm.rank(), comm.size()), 4);
                 (void)core::delta_stepping(comm, dg, 99);
               }),
               std::out_of_range);
}

TEST(DeltaStepping, MaxBucketsGuardFires) {
  const EdgeList g = path_graph(256, 41);
  simmpi::World world(2);
  EXPECT_THROW(world.run([&](simmpi::Comm& comm) {
                 const DistGraph dg = build_distributed(
                     comm, slice_for_rank(g, comm.rank(), comm.size()), 256);
                 core::SsspConfig c;
                 c.delta = 0.001;  // a path forces many buckets
                 c.max_buckets = 3;
                 (void)core::delta_stepping(comm, dg, 0, c);
               }),
               std::runtime_error);
}

TEST(DeltaStepping, SelfLoopAtRootIsHarmless) {
  EdgeList g;
  g.num_vertices = 2;
  g.edges = {{0, 0, 0.1f}, {0, 1, 0.5f}};
  expect_matches_oracle(g, 2, {0});
}

TEST(DeltaStepping, CompressionHalvesRequestBytes) {
  KroneckerParams params;
  params.scale = 10;
  auto solve_bytes = [&](bool compress) {
    simmpi::World world(4);
    std::uint64_t bytes = 0;
    world.run([&](simmpi::Comm& comm) {
      const DistGraph g = build_kronecker(comm, params);
      core::SsspConfig c = core::SsspConfig::plain();
      c.compress = compress;
      const std::uint64_t before =
          comm.allreduce_sum(comm.stats().alltoallv.bytes);
      const auto mine = core::delta_stepping(comm, g, 1, c);
      const std::uint64_t after =
          comm.allreduce_sum(comm.stats().alltoallv.bytes);
      EXPECT_TRUE(core::validate_sssp(comm, g, 1, mine).ok);
      if (comm.rank() == 0) bytes = after - before;
    });
    return bytes;
  };
  const auto wide = solve_bytes(false);
  const auto packed = solve_bytes(true);
  // sizeof(PackedRelaxRequest)=12 vs sizeof(RelaxRequest)=24: exactly half.
  EXPECT_EQ(packed * 2, wide);
}

TEST(DeltaStepping, WithoutPullIndexDirectionOptFallsBackToPush) {
  KroneckerParams params;
  params.scale = 7;
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    BuildOptions opts;
    opts.build_pull_index = false;
    const DistGraph g = build_kronecker(comm, params, opts);
    core::SsspConfig c;
    c.pull_threshold = 0.0;
    c.pull_bias = 0.0;
    core::SsspStats stats;
    const auto mine = core::delta_stepping(comm, g, 0, c, &stats);
    EXPECT_EQ(stats.pull_rounds, 0u);
    EXPECT_TRUE(core::validate_sssp(comm, g, 0, mine).ok);
  });
}

// --------------------------------------------------------------------------
// Wire format: the packed 12-byte record is an encoding, not a schedule.
// Compression on and off must give byte-identical distance AND parent
// slices, because packed coalescing keeps the same survivor per target as
// wide coalescing and the receiver applies them in the same order.
// --------------------------------------------------------------------------

using WireCase = std::tuple<int, int, std::string>;  // scale, ranks, config

core::SsspConfig wire_config(const std::string& name) {
  core::SsspConfig c;
  if (name == "no_coalesce") c.coalesce = false;
  if (name == "hierarchical") c.hierarchical_group = 3;
  if (name == "no_hub_cache") c.hub_cache = false;
  return c;
}

class WireFormatIdentity : public ::testing::TestWithParam<WireCase> {};

TEST_P(WireFormatIdentity, CompressOnAndOffGiveIdenticalSlices) {
  const auto& [scale, ranks, name] = GetParam();
  KroneckerParams params;
  params.scale = scale;
  simmpi::World world(ranks);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    core::SsspConfig packed = wire_config(name);
    packed.compress = true;
    core::SsspConfig wide = packed;
    wide.compress = false;
    const auto roots = core::sample_roots(comm, g, 4, 0x51C3);
    ASSERT_EQ(roots.size(), 4u);
    for (const auto root : roots) {
      const auto a = core::delta_stepping(comm, g, root, packed);
      const auto b = core::delta_stepping(comm, g, root, wide);
      ASSERT_EQ(a.dist.size(), b.dist.size());
      EXPECT_EQ(std::memcmp(a.dist.data(), b.dist.data(),
                            a.dist.size() * sizeof(Weight)),
                0)
          << "root " << root << " rank " << comm.rank();
      EXPECT_EQ(a.parent, b.parent)
          << "root " << root << " rank " << comm.rank();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    KroneckerMatrix, WireFormatIdentity,
    ::testing::Combine(::testing::Values(8, 10, 12),
                       ::testing::Values(1, 2, 4, 7),
                       ::testing::Values("default", "no_coalesce",
                                         "hierarchical", "no_hub_cache")),
    [](const ::testing::TestParamInfo<WireCase>& info) {
      return "s" + std::to_string(std::get<0>(info.param)) + "_r" +
             std::to_string(std::get<1>(info.param)) + "_" +
             std::get<2>(info.param);
    });

// --------------------------------------------------------------------------
// coalesce_min: one survivor per target, min dist then min parent.
// --------------------------------------------------------------------------

TEST(CoalesceMin, EqualDistTiesKeepTheMinParent) {
  std::vector<core::RelaxRequest> box = {
      {5, 9, 1.0f}, {5, 3, 1.0f}, {5, 7, 2.0f}, {2, 1, 0.5f}, {5, 4, 1.0f}};
  EXPECT_EQ(core::coalesce_min(box), 3u);
  ASSERT_EQ(box.size(), 2u);
  EXPECT_EQ(box[0].target, 2u);
  EXPECT_EQ(box[0].parent, 1u);
  EXPECT_EQ(box[1].target, 5u);
  EXPECT_EQ(box[1].parent, 3u);
  EXPECT_EQ(box[1].dist, 1.0f);
}

TEST(CoalesceMin, PackedAndWideKeepTheSameSurvivors) {
  // One destination box whose owner block starts at `base`: the packed
  // record carries target - base.  Few targets, parents and distances so
  // that duplicate targets and dist ties are common.
  const graph::BlockPartition part(4096, 4);
  const int owner = 2;
  const VertexId base = part.begin(owner);
  std::mt19937 rng(7);
  std::uniform_int_distribution<VertexId> target_of(0, 63);
  std::uniform_int_distribution<VertexId> parent_of(0, 4095);
  std::uniform_int_distribution<int> dist_of(0, 3);
  std::vector<core::RelaxRequest> wide;
  std::vector<core::PackedRelaxRequest> packed;
  for (int i = 0; i < 2000; ++i) {
    const VertexId target = base + target_of(rng);
    const VertexId via = parent_of(rng);
    const Weight cand = 0.25f * static_cast<float>(dist_of(rng));
    wide.push_back(
        core::encode<core::RelaxRequest>(part, owner, target, cand, via));
    packed.push_back(core::encode<core::PackedRelaxRequest>(
        part, owner, target, cand, via));
  }
  EXPECT_EQ(core::coalesce_min(wide), core::coalesce_min(packed));
  ASSERT_EQ(wide.size(), packed.size());
  for (std::size_t i = 0; i < wide.size(); ++i) {
    EXPECT_EQ(wide[i].target, base + packed[i].target_local);
    EXPECT_EQ(wide[i].parent, packed[i].parent);
    EXPECT_EQ(wide[i].dist, packed[i].dist);
  }
}

TEST(CoalesceMin, EmptyAndSingletonBoxesAreUntouched) {
  std::vector<core::PackedRelaxRequest> empty;
  EXPECT_EQ(core::coalesce_min(empty), 0u);
  EXPECT_TRUE(empty.empty());
  std::vector<core::RelaxRequest> one = {{3, 1, 0.5f}};
  EXPECT_EQ(core::coalesce_min(one), 0u);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].target, 3u);
  EXPECT_EQ(one[0].parent, 1u);
}

}  // namespace
