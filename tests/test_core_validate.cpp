// Tests for the official result checks: they must accept every correct
// result and reject each class of corruption.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/delta_stepping.hpp"
#include "core/runner.hpp"
#include "core/validate.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/shard.hpp"
#include "simmpi/comm.hpp"

namespace {

using namespace g500;
using namespace g500::graph;

/// Build, solve, corrupt (via `mutate` on rank 0's slice), validate.
core::ValidationReport corrupted_verdict(
    const EdgeList& list, VertexId root,
    const std::function<void(core::SsspResult&, const DistGraph&)>& mutate) {
  core::ValidationReport verdict;
  simmpi::World world(3);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(
        comm, slice_for_rank(list, comm.rank(), comm.size()),
        list.num_vertices);
    core::SsspResult mine = core::delta_stepping(comm, g, root);
    if (comm.rank() == 0) mutate(mine, g);
    const auto v = core::validate_sssp(comm, g, root, mine);
    if (comm.rank() == 0) verdict = v;
  });
  return verdict;
}

const EdgeList kGrid = grid_graph(6, 8, 77);

TEST(Validate, AcceptsCorrectResult) {
  const auto verdict = corrupted_verdict(
      kGrid, 0, [](core::SsspResult&, const DistGraph&) {});
  EXPECT_TRUE(verdict.ok);
  EXPECT_TRUE(verdict.errors.empty());
  EXPECT_EQ(verdict.reachable, kGrid.num_vertices);
  EXPECT_GT(verdict.edges_checked, 0u);
}

TEST(Validate, DetectsInflatedDistance) {
  const auto verdict = corrupted_verdict(
      kGrid, 0, [](core::SsspResult& r, const DistGraph&) {
        r.dist[3] += 5.0f;  // now some edge into vertex 3 is relaxable
      });
  EXPECT_FALSE(verdict.ok);
  ASSERT_FALSE(verdict.errors.empty());
}

TEST(Validate, DetectsDeflatedDistance) {
  const auto verdict = corrupted_verdict(
      kGrid, 0, [](core::SsspResult& r, const DistGraph&) {
        r.dist[5] *= 0.1f;  // shorter than any real path: V3 must fail
      });
  EXPECT_FALSE(verdict.ok);
}

TEST(Validate, DetectsBogusParent) {
  const auto verdict = corrupted_verdict(
      kGrid, 0, [](core::SsspResult& r, const DistGraph& g) {
        // Point a vertex at a non-adjacent "parent" (grid vertex 2 is not
        // adjacent to the far corner).
        r.parent[2] = g.num_vertices - 1;
      });
  EXPECT_FALSE(verdict.ok);
}

TEST(Validate, DetectsFakeUnreachable) {
  const auto verdict = corrupted_verdict(
      kGrid, 0, [](core::SsspResult& r, const DistGraph&) {
        r.dist[4] = kInfDistance;
        r.parent[4] = kNoVertex;  // V2: reachable neighbours contradict it
      });
  EXPECT_FALSE(verdict.ok);
}

TEST(Validate, DetectsReachabilityMismatch) {
  const auto verdict = corrupted_verdict(
      kGrid, 0, [](core::SsspResult& r, const DistGraph&) {
        r.parent[6] = kNoVertex;  // finite dist but no parent: V1
      });
  EXPECT_FALSE(verdict.ok);
}

TEST(Validate, DetectsParentCycle) {
  // Two vertices pointing at each other (with plausible distances) must be
  // caught by the pointer-doubling check even when V3 is fooled.
  EdgeList list;
  list.num_vertices = 4;
  list.edges = {{0, 1, 0.5f}, {1, 2, 0.25f}, {2, 3, 0.25f}, {3, 1, 0.25f}};
  core::ValidationReport verdict;
  simmpi::World world(1);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(comm, list, 4);
    core::SsspResult mine = core::delta_stepping(comm, g, 0);
    // Forge a 2-cycle between 2 and 3 with self-consistent distances:
    // dist[2] = dist[3] + w(3,2), dist[3] = dist[2] + w(2,3) cannot both
    // hold with positive weights, so force V4's job with equal distances.
    mine.parent[2] = 3;
    mine.parent[3] = 2;
    mine.dist[2] = 1.0f;
    mine.dist[3] = 1.0f;
    verdict = core::validate_sssp(comm, g, 0, mine);
  });
  EXPECT_FALSE(verdict.ok);
}

TEST(Validate, DetectsWrongRootDistance) {
  const auto verdict = corrupted_verdict(
      kGrid, 0, [](core::SsspResult& r, const DistGraph&) {
        r.dist[0] = 0.5f;  // root must be 0
      });
  EXPECT_FALSE(verdict.ok);
}

TEST(Validate, DetectsMalformedResultSize) {
  const auto verdict = corrupted_verdict(
      kGrid, 0,
      [](core::SsspResult& r, const DistGraph&) { r.dist.pop_back(); });
  EXPECT_FALSE(verdict.ok);
}

TEST(Validate, ErrorsArePropagatedToAllRanks) {
  simmpi::World world(4);
  const auto verdicts =
      world.run_collect<int>([&](simmpi::Comm& comm) {
        const DistGraph g = build_distributed(
            comm, slice_for_rank(kGrid, comm.rank(), comm.size()),
            kGrid.num_vertices);
        core::SsspResult mine = core::delta_stepping(comm, g, 0);
        if (comm.rank() == 2 && !mine.dist.empty()) {
          mine.dist[0] += 3.0f;  // corrupt a non-reporting rank
        }
        const auto v = core::validate_sssp(comm, g, 0, mine);
        return v.ok ? 1 : 0;
      });
  for (const int ok : verdicts) EXPECT_EQ(ok, 0);
}

TEST(Validate, UnreachableVerticesAreAccepted) {
  EdgeList two_islands;
  two_islands.num_vertices = 6;
  two_islands.edges = {{0, 1, 0.3f}, {3, 4, 0.3f}, {4, 5, 0.3f}};
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(
        comm, slice_for_rank(two_islands, comm.rank(), comm.size()), 6);
    const auto mine = core::delta_stepping(comm, g, 0);
    const auto verdict = core::validate_sssp(comm, g, 0, mine);
    EXPECT_TRUE(verdict.ok);
    EXPECT_EQ(verdict.reachable, 2u);  // only {0, 1}
  });
}

TEST(Validate, RejectsOutOfRangeParentWithoutThrowing) {
  core::ValidationReport verdict;
  EXPECT_NO_THROW(verdict = corrupted_verdict(
                      kGrid, 0, [](core::SsspResult& r, const DistGraph& g) {
                        r.parent[2] = g.num_vertices + 7;
                      }));
  EXPECT_FALSE(verdict.ok);
  ASSERT_FALSE(verdict.errors.empty());
  EXPECT_NE(verdict.errors[0].find("out of range"), std::string::npos);
}

/// Validate a hand-written global result: each rank passes its own slice
/// of `dist` / `parent`.  Returns rank 0's verdict.
core::ValidationReport forged_verdict(const EdgeList& list, int ranks,
                                      VertexId root,
                                      const std::vector<Weight>& dist,
                                      const std::vector<VertexId>& parent) {
  core::ValidationReport verdict;
  simmpi::World world(ranks);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(
        comm, slice_for_rank(list, comm.rank(), comm.size()),
        list.num_vertices);
    const auto b = static_cast<std::ptrdiff_t>(g.part.begin(comm.rank()));
    const auto e = static_cast<std::ptrdiff_t>(g.part.end(comm.rank()));
    core::SsspResult mine;
    mine.dist.assign(dist.begin() + b, dist.begin() + e);
    mine.parent.assign(parent.begin() + b, parent.begin() + e);
    const auto v = core::validate_sssp(comm, g, root, mine);
    if (comm.rank() == 0) verdict = v;
  });
  return verdict;
}

bool mentions(const core::ValidationReport& r, const std::string& check) {
  for (const auto& e : r.errors) {
    if (e.find(check) != std::string::npos) return true;
  }
  return false;
}

TEST(Validate, DetectsParentCycleAcrossRanks) {
  // Path 0-1-2-3 over 2 ranks ({0, 1} and {2, 3}).  The 1-2 edge weighs
  // less than the tolerance, so a forged 1 <-> 2 cycle at equal distances
  // passes V1-V3 and only pointer doubling can reject it.
  EdgeList list;
  list.num_vertices = 4;
  list.edges = {{0, 1, 0.5f}, {1, 2, 1e-7f}, {2, 3, 0.25f}};
  const std::vector<Weight> dist = {0.0f, 0.5f, 0.5f + 1e-7f,
                                    0.75f + 1e-7f};
  const std::vector<VertexId> tree = {0, 0, 1, 2};
  EXPECT_TRUE(forged_verdict(list, 2, 0, dist, tree).ok);

  std::vector<Weight> cyc_dist = dist;
  cyc_dist[2] = cyc_dist[1];
  const std::vector<VertexId> cycle = {0, 2, 1, 2};
  const auto verdict = forged_verdict(list, 2, 0, cyc_dist, cycle);
  EXPECT_FALSE(verdict.ok);
  EXPECT_TRUE(mentions(verdict, "V4"));
  EXPECT_FALSE(mentions(verdict, "V1"));
  EXPECT_FALSE(mentions(verdict, "V3"));
}

TEST(Validate, DetectsStrayTreeTopOwnedByAnotherRank) {
  // Root 0 reaches only {0, 1}.  A forged tree 2 -> 3 -> 4 and 5 -> 4 hangs
  // from vertex 4, which is unreachable and owned by rank 1 while vertex 2
  // sits on rank 0.  Vertex 4 is a fixed point of the doubling step; the
  // tree below it never reaches the root.
  EdgeList list;
  list.num_vertices = 6;
  list.edges = {{0, 1, 0.5f}, {2, 3, 0.25f}, {3, 4, 0.25f}, {4, 5, 0.25f}};
  const std::vector<Weight> dist = {0.0f, 0.5f, 1.25f, 1.0f,
                                    kInfDistance, 1.0f};
  const std::vector<VertexId> parent = {0, 0, 3, 4, kNoVertex, 4};
  const auto verdict = forged_verdict(list, 2, 0, dist, parent);
  EXPECT_FALSE(verdict.ok);
  EXPECT_TRUE(mentions(verdict, "V4"));
}

TEST(Validate, DeepPathTreeValidatesOnFourRanks) {
  // Depth 299 from one end: pointer doubling needs ~9 rounds, and most
  // vertices hop across rank boundaries on the way to the root.
  const EdgeList list = path_graph(300, 17);
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(
        comm, slice_for_rank(list, comm.rank(), comm.size()), 300);
    const auto mine = core::delta_stepping(comm, g, 0);
    const auto verdict = core::validate_sssp(comm, g, 0, mine);
    EXPECT_TRUE(verdict.ok);
    EXPECT_EQ(verdict.reachable, 300u);
    EXPECT_EQ(verdict.edges_checked, 2u * 299u);
  });
}

TEST(Validate, CountsAreIdenticalAcrossRankCounts) {
  // A grid plus a separate island: some vertices stay unreachable.
  EdgeList list = grid_graph(9, 11, 5);
  const VertexId n = list.num_vertices;
  list.num_vertices = n + 3;
  list.edges.push_back({n, n + 1, 0.4f});
  list.edges.push_back({n + 1, n + 2, 0.4f});
  std::vector<std::pair<std::uint64_t, std::uint64_t>> counts;
  for (const int ranks : {1, 2, 3, 4}) {
    simmpi::World world(ranks);
    world.run([&](simmpi::Comm& comm) {
      const DistGraph g = build_distributed(
          comm, slice_for_rank(list, comm.rank(), comm.size()),
          list.num_vertices);
      const auto mine = core::delta_stepping(comm, g, 7);
      const auto verdict = core::validate_sssp(comm, g, 7, mine);
      EXPECT_TRUE(verdict.ok) << ranks << " ranks";
      if (comm.rank() == 0) {
        counts.emplace_back(verdict.edges_checked, verdict.reachable);
      }
    });
  }
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0].second, n);
  for (const auto& c : counts) EXPECT_EQ(c, counts[0]);
}

TEST(Validate, MappedShardGraph) {
  // Spill an in-memory build to shards, map them back (GraphBacking::
  // kMapped) and validate a solve over the mapped views: a correct result
  // passes and a corrupted one fails.
  KroneckerParams params;
  params.scale = 8;
  const std::string dir = ::testing::TempDir() + "/g500_validate_mapped";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const int ranks = 3;
  simmpi::World world(ranks);
  world.run([&](simmpi::Comm& comm) {
    {
      const DistGraph mem = build_kronecker(comm, params);
      write_shard(shard_path(dir, comm.rank(), ranks), mem, comm.rank());
    }
    comm.barrier();
    const DistGraph g = load_sharded(comm, dir);
    ASSERT_EQ(g.backing, GraphBacking::kMapped);
    const auto roots = core::sample_roots(comm, g, 2, 0x5eed);
    ASSERT_FALSE(roots.empty());
    for (const VertexId root : roots) {
      core::SsspResult mine = core::delta_stepping(comm, g, root);
      const auto good = core::validate_sssp(comm, g, root, mine);
      EXPECT_TRUE(good.ok);
      EXPECT_GT(good.reachable, 1u);
      // Shorten one reachable non-root distance on rank 0: V3 must fail.
      if (comm.rank() == 0) {
        for (LocalId v = 0; v < mine.dist.size(); ++v) {
          if (g.part.begin(0) + v != root && mine.dist[v] > 0.0f &&
              mine.dist[v] != kInfDistance) {
            mine.dist[v] *= 0.5f;
            break;
          }
        }
      }
      EXPECT_FALSE(core::validate_sssp(comm, g, root, mine).ok);
    }
  });
  std::filesystem::remove_all(dir);
}

}  // namespace
