// Tests for distributed graph construction: cleaning semantics, rank-count
// invariance, hub selection, and bit-identity with a whole-array sorting
// reference build.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <span>
#include <string>
#include <tuple>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/kronecker.hpp"
#include "simmpi/comm.hpp"
#include "util/random.hpp"

namespace {

using namespace g500;
using namespace g500::graph;

/// Gather the full directed edge set (src, dst, w) of a DistGraph.
std::map<std::pair<VertexId, VertexId>, Weight> collect_edges(
    simmpi::Comm& comm, const DistGraph& g) {
  struct Row {
    VertexId src, dst;
    Weight w;
  };
  std::vector<Row> mine;
  const VertexId my_begin = g.part.begin(comm.rank());
  for (LocalId u = 0; u < g.csr.num_local(); ++u) {
    for (std::uint64_t e = g.csr.edges_begin(u); e < g.csr.edges_end(u); ++e) {
      mine.push_back(Row{my_begin + u, g.csr.dst(e), g.csr.weight(e)});
    }
  }
  const auto all = comm.allgatherv(mine);
  std::map<std::pair<VertexId, VertexId>, Weight> out;
  for (const auto& r : all) out[{r.src, r.dst}] = r.w;
  return out;
}

TEST(Builder, DropsSelfLoopsAndDedupsToMinWeight) {
  EdgeList list;
  list.num_vertices = 4;
  list.edges = {
      {0, 1, 0.9f}, {1, 0, 0.2f},  // duplicate in both orientations
      {0, 1, 0.5f},                // duplicate same orientation
      {2, 2, 0.1f},                // self loop
      {2, 3, 0.7f},
  };
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(
        comm, slice_for_rank(list, comm.rank(), comm.size()), 4);
    EXPECT_EQ(g.num_input_edges, 5u);
    EXPECT_EQ(g.num_directed_edges, 4u);  // {0,1} + {2,3}, both directions
    const auto edges = collect_edges(comm, g);
    ASSERT_EQ(edges.size(), 4u);
    EXPECT_FLOAT_EQ(edges.at({0, 1}), 0.2f);
    EXPECT_FLOAT_EQ(edges.at({1, 0}), 0.2f);
    EXPECT_FLOAT_EQ(edges.at({2, 3}), 0.7f);
    EXPECT_FLOAT_EQ(edges.at({3, 2}), 0.7f);
    EXPECT_EQ(edges.count({2, 2}), 0u);
  });
}

class BuilderRankSweep : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Ranks, BuilderRankSweep,
                         ::testing::Values(1, 2, 3, 4, 8));

TEST_P(BuilderRankSweep, GlobalStructureIsRankCountInvariant) {
  KroneckerParams params;
  params.scale = 8;
  params.edgefactor = 8;

  // Reference: single-rank build.
  std::map<std::pair<VertexId, VertexId>, Weight> reference;
  {
    simmpi::World world(1);
    world.run([&](simmpi::Comm& comm) {
      const DistGraph g = build_kronecker(comm, params);
      reference = collect_edges(comm, g);
    });
  }

  simmpi::World world(GetParam());
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_kronecker(comm, params);
    const auto edges = collect_edges(comm, g);
    ASSERT_EQ(edges.size(), reference.size());
    for (const auto& [key, w] : reference) {
      auto it = edges.find(key);
      ASSERT_NE(it, edges.end())
          << "missing edge " << key.first << "->" << key.second;
      EXPECT_FLOAT_EQ(it->second, w);
    }
    EXPECT_EQ(g.num_input_edges, params.num_edges());
  });
}

TEST_P(BuilderRankSweep, HubListIsIdenticalOnAllRanks) {
  KroneckerParams params;
  params.scale = 9;
  simmpi::World world(GetParam());
  BuildOptions opts;
  opts.hub_count = 16;
  const auto hub_lists =
      world.run_collect<std::vector<VertexId>>([&](simmpi::Comm& comm) {
        return build_kronecker(comm, params, opts).hubs;
      });
  for (std::size_t r = 1; r < hub_lists.size(); ++r) {
    EXPECT_EQ(hub_lists[r], hub_lists[0]);
  }
  EXPECT_EQ(hub_lists[0].size(), 16u);
}

TEST(Builder, HubsAreTheTopDegreeVertices) {
  // Star graph: vertex 0 has degree n-1, all others degree 1.
  const EdgeList star = star_graph(64);
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    BuildOptions opts;
    opts.hub_count = 4;
    const DistGraph g = build_distributed(
        comm, slice_for_rank(star, comm.rank(), comm.size()), 64, opts);
    ASSERT_EQ(g.hubs.size(), 4u);
    EXPECT_EQ(g.hubs[0], 0u);           // the center
    EXPECT_EQ(g.hub_degrees[0], 63u);
    for (std::size_t i = 1; i < 4; ++i) {
      EXPECT_EQ(g.hub_degrees[i], 1u);
    }
    // Ties broken by ascending id.
    EXPECT_LT(g.hubs[1], g.hubs[2]);
    EXPECT_LT(g.hubs[2], g.hubs[3]);
  });
}

TEST(Builder, HubCountZeroDisablesHubs) {
  KroneckerParams params;
  params.scale = 7;
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    BuildOptions opts;
    opts.hub_count = 0;
    const DistGraph g = build_kronecker(comm, params, opts);
    EXPECT_TRUE(g.hubs.empty());
  });
}

TEST(Builder, PullIndexOptional) {
  KroneckerParams params;
  params.scale = 7;
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    BuildOptions opts;
    opts.build_pull_index = false;
    const DistGraph g = build_kronecker(comm, params, opts);
    EXPECT_EQ(g.pull.num_entries(), 0u);
    BuildOptions with;
    const DistGraph g2 = build_kronecker(comm, params, with);
    EXPECT_EQ(g2.pull.num_entries(), g2.csr.num_edges());
  });
}

TEST(Builder, DegreeHistogramCountsOwnedVertices) {
  const EdgeList path = path_graph(16);
  simmpi::World world(4);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(
        comm, slice_for_rank(path, comm.rank(), comm.size()), 16);
    EXPECT_EQ(g.degree_hist.total_count(), g.csr.num_local());
  });
}

TEST(Builder, SliceForRankTilesInput) {
  const EdgeList whole = path_graph(100);
  std::size_t total = 0;
  for (int r = 0; r < 7; ++r) {
    total += slice_for_rank(whole, r, 7).edges.size();
  }
  EXPECT_EQ(total, whole.edges.size());
  EXPECT_THROW((void)slice_for_rank(whole, 7, 7), std::invalid_argument);
}

TEST(Builder, RejectsOutOfRangeEndpoints) {
  EdgeList bad;
  bad.num_vertices = 4;
  bad.edges = {{0, 9, 0.5f}};
  simmpi::World world(1);
  EXPECT_THROW(world.run([&](simmpi::Comm& comm) {
                 (void)build_distributed(comm, bad, 4);
               }),
               std::out_of_range);
}

TEST(Builder, EmptyVertexSetRejected) {
  simmpi::World world(1);
  EXPECT_THROW(world.run([&](simmpi::Comm& comm) {
                 (void)build_distributed(comm, EdgeList{}, 0);
               }),
               std::invalid_argument);
}

TEST(Builder, EdgelessGraphBuilds) {
  EdgeList isolated;
  isolated.num_vertices = 8;
  simmpi::World world(2);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(comm, isolated, 8);
    EXPECT_EQ(g.num_directed_edges, 0u);
    EXPECT_TRUE(g.hubs.empty());  // no vertex has degree > 0
  });
}


// ---- Bit-identity with the whole-array sorting build ----------------------

/// One rank's arrays from the reference build.
struct ReferenceRank {
  std::vector<std::uint64_t> offsets;
  std::vector<VertexId> dst;
  std::vector<Weight> w;
  std::vector<VertexId> pull_sources;
  std::vector<std::uint64_t> pull_offsets;
  std::vector<LocalId> pull_dst;
  std::vector<Weight> pull_w;
  util::Log2Histogram degree_hist;
};

struct ReferenceGraph {
  std::vector<ReferenceRank> ranks;
  std::vector<VertexId> hubs;
  std::vector<std::uint64_t> hub_degrees;
};

/// The construction as three comparison sorts over each rank's whole edge
/// array (dedup, CSR order, pull order) and an nth_element hub pick: the
/// definition the linear build must reproduce bit for bit.
ReferenceGraph reference_build(const EdgeList& list, int num_ranks,
                               std::size_t hub_count) {
  const BlockPartition part(list.num_vertices, num_ranks);
  std::vector<std::vector<WireEdge>> mine(static_cast<std::size_t>(num_ranks));
  for (const auto& e : list.edges) {
    if (e.src == e.dst) continue;
    mine[static_cast<std::size_t>(part.owner(e.src))].push_back(
        WireEdge{e.src, e.dst, e.weight});
    mine[static_cast<std::size_t>(part.owner(e.dst))].push_back(
        WireEdge{e.dst, e.src, e.weight});
  }
  struct Candidate {
    VertexId vertex;
    std::uint64_t degree;
  };
  const auto hub_less = [](const Candidate& a, const Candidate& b) {
    return a.degree != b.degree ? a.degree > b.degree : a.vertex < b.vertex;
  };

  ReferenceGraph ref;
  std::vector<Candidate> candidates;
  for (int r = 0; r < num_ranks; ++r) {
    auto& edges = mine[static_cast<std::size_t>(r)];
    std::sort(edges.begin(), edges.end(), [](const WireEdge& a,
                                             const WireEdge& b) {
      if (a.src != b.src) return a.src < b.src;
      if (a.dst != b.dst) return a.dst < b.dst;
      return a.weight < b.weight;
    });
    edges.erase(std::unique(edges.begin(), edges.end(),
                            [](const WireEdge& a, const WireEdge& b) {
                              return a.src == b.src && a.dst == b.dst;
                            }),
                edges.end());
    for (auto& e : edges) e.src -= part.begin(r);
    std::sort(edges.begin(), edges.end(), [](const WireEdge& a,
                                             const WireEdge& b) {
      if (a.src != b.src) return a.src < b.src;
      if (a.weight != b.weight) return a.weight < b.weight;
      return a.dst < b.dst;
    });

    ReferenceRank rr;
    const auto local_n = static_cast<LocalId>(part.count(r));
    rr.offsets.assign(static_cast<std::size_t>(local_n) + 1, 0);
    for (const auto& e : edges) {
      ++rr.offsets[static_cast<std::size_t>(e.src) + 1];
      rr.dst.push_back(e.dst);
      rr.w.push_back(e.weight);
    }
    for (std::size_t i = 1; i < rr.offsets.size(); ++i) {
      rr.offsets[i] += rr.offsets[i - 1];
    }

    struct Entry {
      VertexId src;
      LocalId dst;
      Weight w;
    };
    std::vector<Entry> entries;
    for (const auto& e : edges) {
      entries.push_back(Entry{e.dst, static_cast<LocalId>(e.src), e.weight});
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) {
                if (a.src != b.src) return a.src < b.src;
                if (a.w != b.w) return a.w < b.w;
                return a.dst < b.dst;
              });
    for (const auto& e : entries) {
      if (rr.pull_sources.empty() || rr.pull_sources.back() != e.src) {
        rr.pull_sources.push_back(e.src);
        rr.pull_offsets.push_back(rr.pull_dst.size());
      }
      rr.pull_dst.push_back(e.dst);
      rr.pull_w.push_back(e.w);
    }
    rr.pull_offsets.push_back(rr.pull_dst.size());

    std::vector<Candidate> local;
    for (LocalId u = 0; u < local_n; ++u) {
      const std::uint64_t deg = rr.offsets[u + 1] - rr.offsets[u];
      rr.degree_hist.add(deg);
      if (deg > 0) local.push_back(Candidate{part.global(r, u), deg});
    }
    if (local.size() > hub_count) {
      std::nth_element(local.begin(),
                       local.begin() + static_cast<std::ptrdiff_t>(hub_count),
                       local.end(), hub_less);
      local.resize(hub_count);
    }
    candidates.insert(candidates.end(), local.begin(), local.end());
    ref.ranks.push_back(std::move(rr));
  }
  std::sort(candidates.begin(), candidates.end(), hub_less);
  if (candidates.size() > hub_count) candidates.resize(hub_count);
  for (const auto& c : candidates) {
    ref.hubs.push_back(c.vertex);
    ref.hub_degrees.push_back(c.degree);
  }
  return ref;
}

/// Float arrays compared as bit patterns, so -0/+0 or NaN payloads count.
std::vector<std::uint32_t> weight_bits(std::span<const Weight> w) {
  std::vector<std::uint32_t> bits;
  bits.reserve(w.size());
  for (const Weight x : w) bits.push_back(std::bit_cast<std::uint32_t>(x));
  return bits;
}

template <typename T>
std::vector<T> to_vector(std::span<const T> s) {
  return std::vector<T>(s.begin(), s.end());
}

/// A multigraph that exercises every cleaning rule: each vertex pair
/// repeats 1-5 times in random orientation with distinct or equal weights,
/// weights are coarse so ties across destinations are common, self-loops
/// are mixed in, the last vertices are isolated and the input is shuffled.
EdgeList random_multigraph(VertexId n, std::uint64_t pairs,
                           std::uint64_t seed) {
  util::SplitMix64 rng(seed);
  const VertexId connected = n - n / 8;  // the rest stay isolated
  const auto coarse_weight = [&rng] {
    return static_cast<Weight>(1 + rng.next_below(16)) / 16.0f;
  };
  EdgeList list;
  list.num_vertices = n;
  for (std::uint64_t i = 0; i < pairs; ++i) {
    const VertexId u = rng.next_below(connected);
    const VertexId v = rng.next_below(connected);
    const auto copies = 1 + rng.next_below(5);
    const bool equal_weights = rng.next_below(2) == 0;
    const Weight shared = coarse_weight();
    for (std::uint64_t c = 0; c < copies; ++c) {
      const Weight w = equal_weights ? shared : coarse_weight();
      if (rng.next_below(2) == 0) {
        list.edges.push_back(Edge{u, v, w});
      } else {
        list.edges.push_back(Edge{v, u, w});
      }
    }
  }
  std::shuffle(list.edges.begin(), list.edges.end(), rng);
  return list;
}

EdgeList kronecker_input(int scale) {
  KroneckerParams params;
  params.scale = scale;
  return kronecker_graph(params);
}

class LinearBuildIdentity
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

INSTANTIATE_TEST_SUITE_P(
    InputsByRanks, LinearBuildIdentity,
    ::testing::Combine(::testing::Values("multigraph", "multigraph_dense",
                                         "kronecker8", "kronecker10",
                                         "kronecker12"),
                       ::testing::Values(1, 2, 3, 4, 7)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_ranks" +
             std::to_string(std::get<1>(info.param));
    });

TEST_P(LinearBuildIdentity, MatchesTheSortingBuildBitForBit) {
  const auto& [input, ranks] = GetParam();
  EdgeList list;
  if (input == "multigraph") {
    list = random_multigraph(300, 900, 11);
  } else if (input == "multigraph_dense") {
    list = random_multigraph(40, 1500, 12);  // long per-vertex runs
  } else {
    list = kronecker_input(std::stoi(input.substr(9)));
  }
  BuildOptions opts;
  opts.hub_count = input.starts_with("multigraph") ? 9 : 16;
  const ReferenceGraph ref = reference_build(list, ranks, opts.hub_count);

  simmpi::World world(ranks);
  world.run([&](simmpi::Comm& comm) {
    const DistGraph g = build_distributed(
        comm, slice_for_rank(list, comm.rank(), comm.size()),
        list.num_vertices, opts);
    const ReferenceRank& rr = ref.ranks[static_cast<std::size_t>(comm.rank())];
    EXPECT_EQ(to_vector(g.csr.offsets()), rr.offsets);
    EXPECT_EQ(to_vector(g.csr.adjacency()), rr.dst);
    EXPECT_EQ(weight_bits(g.csr.weights()), weight_bits(rr.w));
    EXPECT_EQ(to_vector(g.pull.sources()), rr.pull_sources);
    EXPECT_EQ(to_vector(g.pull.offsets()), rr.pull_offsets);
    EXPECT_EQ(to_vector(g.pull.destinations()), rr.pull_dst);
    EXPECT_EQ(weight_bits(g.pull.weights()), weight_bits(rr.pull_w));
    EXPECT_EQ(g.hubs, ref.hubs);
    EXPECT_EQ(g.hub_degrees, ref.hub_degrees);
    EXPECT_EQ(g.degree_hist.buckets(), rr.degree_hist.buckets());
    EXPECT_EQ(g.degree_hist.total_count(), rr.degree_hist.total_count());
    EXPECT_EQ(g.degree_hist.total_sum(), rr.degree_hist.total_sum());
    EXPECT_EQ(g.degree_hist.max_value(), rr.degree_hist.max_value());
  });
}

// ---- select_hubs at the cutoff --------------------------------------------

/// 13 vertices: a 12-ring (degree 2) plus chords 0-6, 3-9 and 5-11, so
/// {0, 3, 5, 6, 9, 11} have degree 3, the other ring vertices degree 2 and
/// vertex 12 is isolated.
EdgeList chorded_ring() {
  EdgeList list;
  list.num_vertices = 13;
  for (VertexId v = 0; v < 12; ++v) {
    list.edges.push_back(Edge{v, (v + 1) % 12, 0.5f});
  }
  list.edges.push_back(Edge{0, 6, 0.5f});
  list.edges.push_back(Edge{3, 9, 0.5f});
  list.edges.push_back(Edge{5, 11, 0.5f});
  return list;
}

std::vector<DistGraph> build_on(const EdgeList& list, int ranks,
                                std::size_t hub_count) {
  BuildOptions opts;
  opts.hub_count = hub_count;
  simmpi::World world(ranks);
  return world.run_collect<DistGraph>([&](simmpi::Comm& comm) {
    return build_distributed(
        comm, slice_for_rank(list, comm.rank(), comm.size()),
        list.num_vertices, opts);
  });
}

TEST(SelectHubs, CutThroughEqualDegreesTakesLowestIds) {
  for (const int ranks : {1, 2, 3, 4}) {
    for (const auto& g : build_on(chorded_ring(), ranks, 4)) {
      EXPECT_EQ(g.hubs, (std::vector<VertexId>{0, 3, 5, 6})) << ranks;
      EXPECT_EQ(g.hub_degrees, (std::vector<std::uint64_t>{3, 3, 3, 3}));
    }
    for (const auto& g : build_on(chorded_ring(), ranks, 8)) {
      EXPECT_EQ(g.hubs, (std::vector<VertexId>{0, 3, 5, 6, 9, 11, 1, 2}))
          << ranks;
      EXPECT_EQ(g.hub_degrees,
                (std::vector<std::uint64_t>{3, 3, 3, 3, 3, 3, 2, 2}));
    }
  }
}

TEST(SelectHubs, CountAtLeastNListsEveryVertexWithEdges) {
  for (const int ranks : {1, 3, 7}) {
    for (const std::size_t hub_count : {std::size_t{12}, std::size_t{13},
                                        std::size_t{1000}}) {
      for (const auto& g : build_on(chorded_ring(), ranks, hub_count)) {
        EXPECT_EQ(g.hubs, (std::vector<VertexId>{0, 3, 5, 6, 9, 11, 1, 2, 4,
                                                 7, 8, 10}))
            << ranks << " ranks, hub_count " << hub_count;
        EXPECT_EQ(g.hub_degrees.size(), 12u);
      }
    }
  }
}

}  // namespace
