// Unit tests for LocalCsr and PullIndex.
#include <gtest/gtest.h>

#include "graph/csr.hpp"

namespace {

using namespace g500::graph;

LocalCsr make_csr() {
  // Vertex 0: edges to 10 (0.5), 11 (0.1), 12 (0.9)
  // Vertex 1: edge to 10 (0.3)
  // Vertex 2: no edges
  std::vector<WireEdge> edges = {
      {0, 10, 0.5f}, {0, 11, 0.1f}, {0, 12, 0.9f}, {1, 10, 0.3f}};
  return LocalCsr(3, std::move(edges));
}

TEST(LocalCsr, DegreesAndCounts) {
  const LocalCsr csr = make_csr();
  EXPECT_EQ(csr.num_local(), 3u);
  EXPECT_EQ(csr.num_edges(), 4u);
  EXPECT_EQ(csr.degree(0), 3u);
  EXPECT_EQ(csr.degree(1), 1u);
  EXPECT_EQ(csr.degree(2), 0u);
}

TEST(LocalCsr, AdjacencyIsWeightSorted) {
  const LocalCsr csr = make_csr();
  EXPECT_EQ(csr.dst(csr.edges_begin(0)), 11u);      // 0.1 first
  EXPECT_EQ(csr.dst(csr.edges_begin(0) + 1), 10u);  // 0.5
  EXPECT_EQ(csr.dst(csr.edges_begin(0) + 2), 12u);  // 0.9
  EXPECT_FLOAT_EQ(csr.weight(csr.edges_begin(0)), 0.1f);
}

TEST(LocalCsr, SplitAtSeparatesLightAndHeavy) {
  const LocalCsr csr = make_csr();
  // delta = 0.4: light edges of vertex 0 are {0.1}, heavy {0.5, 0.9}.
  const auto split = csr.split_at(0, 0.4f);
  EXPECT_EQ(split - csr.edges_begin(0), 1u);
  // delta = 1.0: everything light.
  EXPECT_EQ(csr.split_at(0, 1.0f), csr.edges_end(0));
  // delta = 0.05: everything heavy.
  EXPECT_EQ(csr.split_at(0, 0.05f), csr.edges_begin(0));
}

TEST(LocalCsr, SplitAtBoundaryIsHeavy) {
  // An edge with weight exactly delta is heavy (w >= delta).
  std::vector<WireEdge> edges = {{0, 1, 0.25f}};
  LocalCsr csr(1, std::move(edges));
  EXPECT_EQ(csr.split_at(0, 0.25f), csr.edges_begin(0));
}

TEST(LocalCsr, EmptyGraph) {
  LocalCsr csr(4, {});
  EXPECT_EQ(csr.num_edges(), 0u);
  for (LocalId u = 0; u < 4; ++u) EXPECT_EQ(csr.degree(u), 0u);
}

TEST(LocalCsr, RejectsOutOfRangeSource) {
  std::vector<WireEdge> edges = {{5, 0, 0.5f}};
  EXPECT_THROW(LocalCsr(3, std::move(edges)), std::out_of_range);
}

TEST(LocalCsr, TieWeightsOrderedByDestination) {
  std::vector<WireEdge> edges = {{0, 9, 0.5f}, {0, 3, 0.5f}, {0, 6, 0.5f}};
  LocalCsr csr(1, std::move(edges));
  EXPECT_EQ(csr.dst(0), 3u);
  EXPECT_EQ(csr.dst(1), 6u);
  EXPECT_EQ(csr.dst(2), 9u);
}

TEST(LocalCsr, DedupsParallelEdgesKeepingMinimumWeight) {
  // Unordered input with parallel edges: (0,5) three times, (1,5) twice.
  std::vector<WireEdge> edges = {{0, 5, 0.7f}, {1, 5, 0.9f}, {0, 5, 0.2f},
                                 {0, 3, 0.2f}, {1, 5, 0.4f}, {0, 5, 0.2f}};
  const LocalCsr csr(3, std::move(edges));
  ASSERT_EQ(csr.num_edges(), 3u);
  ASSERT_EQ(csr.degree(0), 2u);
  // Equal weights order by destination.
  EXPECT_EQ(csr.dst(0), 3u);
  EXPECT_FLOAT_EQ(csr.weight(0), 0.2f);
  EXPECT_EQ(csr.dst(1), 5u);
  EXPECT_FLOAT_EQ(csr.weight(1), 0.2f);
  ASSERT_EQ(csr.degree(1), 1u);
  EXPECT_EQ(csr.dst(2), 5u);
  EXPECT_FLOAT_EQ(csr.weight(2), 0.4f);
  EXPECT_EQ(csr.degree(2), 0u);
  // Arrays are sized to the kept edges, not to the input.
  EXPECT_EQ(csr.resident_bytes(), 4 * sizeof(std::uint64_t) +
                                      3 * (sizeof(VertexId) + sizeof(Weight)));
}

TEST(PullIndex, RegroupsBySource) {
  const LocalCsr csr = make_csr();
  const PullIndex pull = PullIndex::from_csr(csr);
  EXPECT_EQ(pull.num_entries(), csr.num_edges());
  EXPECT_EQ(pull.num_sources(), 3u);  // neighbours 10, 11, 12

  // Source 10 has in-edges to local 0 (w 0.5) and local 1 (w 0.3),
  // weight-sorted.
  const auto r = pull.find(10);
  ASSERT_EQ(r.last - r.first, 2u);
  EXPECT_EQ(pull.dst(r.first), 1u);
  EXPECT_FLOAT_EQ(pull.weight(r.first), 0.3f);
  EXPECT_EQ(pull.dst(r.first + 1), 0u);
  EXPECT_FLOAT_EQ(pull.weight(r.first + 1), 0.5f);
}

TEST(PullIndex, FindMissingSourceIsEmpty) {
  const PullIndex pull = PullIndex::from_csr(make_csr());
  EXPECT_TRUE(pull.find(999).empty());
  EXPECT_TRUE(pull.find(0).empty());  // 0 is a local vertex, not a neighbour
}

TEST(PullIndex, FindReportsIndexForSplitCache) {
  const PullIndex pull = PullIndex::from_csr(make_csr());
  std::size_t idx = 99;
  const auto r = pull.find(11, &idx);
  ASSERT_FALSE(r.empty());
  EXPECT_EQ(pull.range(idx).first, r.first);
  EXPECT_EQ(pull.range(idx).last, r.last);
}

TEST(PullIndex, SplitAtMatchesWeights) {
  const PullIndex pull = PullIndex::from_csr(make_csr());
  const auto r = pull.find(10);
  // Weights in range: {0.3, 0.5}; delta 0.4 keeps one light entry.
  EXPECT_EQ(pull.split_at(r, 0.4f) - r.first, 1u);
  EXPECT_EQ(pull.split_at(r, 0.1f), r.first);
  EXPECT_EQ(pull.split_at(r, 0.9f), r.last);
}

TEST(PullIndex, EmptyCsrGivesEmptyIndex) {
  LocalCsr csr(2, {});
  const PullIndex pull = PullIndex::from_csr(csr);
  EXPECT_EQ(pull.num_sources(), 0u);
  EXPECT_EQ(pull.num_entries(), 0u);
  EXPECT_TRUE(pull.find(0).empty());
}

TEST(PullIndex, SourcesAreSortedUnique) {
  const PullIndex pull = PullIndex::from_csr(make_csr());
  const auto sources = pull.sources();
  for (std::size_t i = 1; i < sources.size(); ++i) {
    EXPECT_LT(sources[i - 1], sources[i]);
  }
}

}  // namespace
