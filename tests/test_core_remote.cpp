// Tests for the distributed value-fetch helper.
#include <gtest/gtest.h>

#include "core/remote.hpp"
#include "simmpi/comm.hpp"

namespace {

using namespace g500;
using graph::BlockPartition;
using graph::VertexId;

TEST(FetchValues, ReturnsOwnersValuesInQueryOrder) {
  simmpi::World world(4);
  world.run([](simmpi::Comm& comm) {
    const BlockPartition part(40, comm.size());
    // Every owner stores value = global id * 10.
    std::vector<std::uint64_t> local(part.count(comm.rank()));
    for (std::size_t i = 0; i < local.size(); ++i) {
      local[i] = (part.begin(comm.rank()) + i) * 10;
    }
    // Query a scattered mix, including duplicates and self-owned ids.
    const std::vector<VertexId> queries = {
        39, 0, 7, 7, static_cast<VertexId>(part.begin(comm.rank())), 20, 39};
    const auto got = core::fetch_values(comm, part, queries, local);
    ASSERT_EQ(got.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(got[i], queries[i] * 10) << "query " << i;
    }
  });
}

TEST(FetchValues, EmptyQueriesAreFine) {
  simmpi::World world(3);
  world.run([](simmpi::Comm& comm) {
    const BlockPartition part(9, comm.size());
    std::vector<float> local(part.count(comm.rank()), 1.0f);
    // Rank 1 queries, others pass empty sets — still collectively matched.
    std::vector<VertexId> queries;
    if (comm.rank() == 1) queries = {0, 8};
    const auto got = core::fetch_values(comm, part, queries, local);
    EXPECT_EQ(got.size(), queries.size());
  });
}

TEST(FetchValues, SingleRank) {
  simmpi::World world(1);
  world.run([](simmpi::Comm& comm) {
    const BlockPartition part(5, 1);
    const std::vector<int> local = {10, 11, 12, 13, 14};
    const auto got =
        core::fetch_values(comm, part, {4, 0, 2}, local);
    EXPECT_EQ(got, (std::vector<int>{14, 10, 12}));
  });
}

TEST(FetchValues, LargeVolume) {
  simmpi::World world(4);
  world.run([](simmpi::Comm& comm) {
    const BlockPartition part(1000, comm.size());
    std::vector<VertexId> local(part.count(comm.rank()));
    for (std::size_t i = 0; i < local.size(); ++i) {
      local[i] = part.begin(comm.rank()) + i;  // identity
    }
    std::vector<VertexId> queries;
    for (VertexId v = comm.rank(); v < 1000; v += 3) queries.push_back(v);
    const auto got = core::fetch_values(comm, part, queries, local);
    ASSERT_EQ(got.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(got[i], queries[i]);
    }
  });
}

TEST(FetchValues, AllRemoteQueries) {
  simmpi::World world(4);
  world.run([](simmpi::Comm& comm) {
    const BlockPartition part(64, comm.size());
    std::vector<std::uint64_t> local(part.count(comm.rank()));
    for (std::size_t i = 0; i < local.size(); ++i) {
      local[i] = (part.begin(comm.rank()) + i) * 3;
    }
    // Every query targets a vertex owned by somebody else.
    std::vector<VertexId> queries;
    for (VertexId v = 0; v < 64; ++v) {
      if (part.owner(v) != comm.rank()) queries.push_back(v);
    }
    ASSERT_FALSE(queries.empty());
    const auto got = core::fetch_values(comm, part, queries, local);
    ASSERT_EQ(got.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(got[i], queries[i] * 3) << "query " << i;
    }
  });
}

TEST(FetchValues, DuplicateHeavyQueries) {
  simmpi::World world(3);
  world.run([](simmpi::Comm& comm) {
    const BlockPartition part(30, comm.size());
    std::vector<int> local(part.count(comm.rank()));
    for (std::size_t i = 0; i < local.size(); ++i) {
      local[i] = static_cast<int>(part.begin(comm.rank()) + i) + 100;
    }
    // The same two vertices asked many times, interleaved.
    std::vector<VertexId> queries;
    for (int rep = 0; rep < 20; ++rep) {
      queries.push_back(29);
      queries.push_back(0);
      queries.push_back(29);
    }
    const auto got = core::fetch_values(comm, part, queries, local);
    ASSERT_EQ(got.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(got[i], static_cast<int>(queries[i]) + 100);
    }
  });
}

TEST(FetchValues, OrderPreservedUnderSkewedOwnership) {
  simmpi::World world(4);
  world.run([](simmpi::Comm& comm) {
    // 10 vertices over 4 ranks: counts 3,3,2,2 — and the query stream
    // hammers rank 0's vertices with occasional remote detours, so the
    // per-rank reply cursors are exercised asymmetrically.
    const BlockPartition part(10, comm.size());
    std::vector<std::uint64_t> local(part.count(comm.rank()));
    for (std::size_t i = 0; i < local.size(); ++i) {
      local[i] = (part.begin(comm.rank()) + i) * 7 + 1;
    }
    std::vector<VertexId> queries;
    for (int rep = 0; rep < 8; ++rep) {
      queries.push_back(0);
      queries.push_back(1);
      queries.push_back(2);                             // rank 0's block
      if (rep % 3 == 0) queries.push_back(9);           // last rank
      if (rep % 4 == 0) queries.push_back(5);           // middle rank
    }
    const auto got = core::fetch_values(comm, part, queries, local);
    ASSERT_EQ(got.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(got[i], queries[i] * 7 + 1) << "position " << i;
    }
  });
}

// ------------------------------------------------------ NeighbourValues

TEST(NeighbourValues, LooksUpDuplicatesOwnedAndEveryOtherRank) {
  simmpi::World world(4);
  world.run([](simmpi::Comm& comm) {
    const BlockPartition part(50, comm.size());
    std::vector<std::uint64_t> local(part.count(comm.rank()));
    for (std::size_t i = 0; i < local.size(); ++i) {
      local[i] = (part.begin(comm.rank()) + i) * 10 + 1;
    }
    // Every vertex of every other rank, each twice, plus owned ids.
    std::vector<VertexId> dsts;
    for (VertexId v = 0; v < 50; ++v) {
      dsts.push_back(v);
      dsts.push_back(49 - v);
    }
    const std::vector<VertexId> extras = {
        0, 49, graph::kNoVertex, static_cast<VertexId>(part.begin(comm.rank()))};
    const core::NeighbourValues<std::uint64_t> value_of(comm, part, dsts,
                                                        extras, local);
    for (const VertexId v : dsts) EXPECT_EQ(value_of(v), v * 10 + 1) << v;
    EXPECT_EQ(value_of(0), 1u);
    EXPECT_EQ(value_of(49), 491u);
    // Owned ids stay out of the exchange; duplicates are fetched once.
    EXPECT_EQ(value_of.remote_count(), 50 - part.count(comm.rank()));
  });
}

TEST(NeighbourValues, RankOwningNoVertices) {
  simmpi::World world(4);
  world.run([](simmpi::Comm& comm) {
    // 3 vertices over 4 ranks: rank 3 owns nothing and still takes part.
    const BlockPartition part(3, comm.size());
    std::vector<int> local(part.count(comm.rank()));
    for (std::size_t i = 0; i < local.size(); ++i) {
      local[i] = static_cast<int>(part.begin(comm.rank()) + i) - 5;
    }
    std::vector<VertexId> dsts;
    if (comm.rank() != 0) dsts = {2, 0, 2};
    const core::NeighbourValues<int> value_of(comm, part, dsts, {}, local);
    for (const VertexId v : dsts) {
      EXPECT_EQ(value_of(v), static_cast<int>(v) - 5);
    }
    if (comm.rank() == 3) {
      EXPECT_TRUE(local.empty());
      EXPECT_EQ(value_of.remote_count(), 2u);
    }
  });
}

TEST(NeighbourValues, SingleRankNeedsNoExchange) {
  simmpi::World world(1);
  world.run([](simmpi::Comm& comm) {
    const BlockPartition part(6, 1);
    const std::vector<float> local = {0.f, 1.f, 2.f, 3.f, 4.f, 5.f};
    const std::vector<VertexId> dsts = {5, 1, 5};
    const std::vector<VertexId> extras = {3};
    const core::NeighbourValues<float> value_of(comm, part, dsts, extras,
                                                local);
    EXPECT_EQ(value_of(5), 5.f);
    EXPECT_EQ(value_of(3), 3.f);
    EXPECT_EQ(value_of.remote_count(), 0u);
  });
}

TEST(NeighbourValues, RejectsOutOfRangeId) {
  simmpi::World world(1);
  EXPECT_THROW(world.run([](simmpi::Comm& comm) {
                 const BlockPartition part(4, 1);
                 const std::vector<int> local(4, 0);
                 const std::vector<VertexId> dsts = {1, 4};
                 const core::NeighbourValues<int> value_of(comm, part, dsts,
                                                           {}, local);
               }),
               std::out_of_range);
}

// ------------------------------------------------------ fetch_values_batched

TEST(FetchValuesBatched, AnswersAcrossSlotsInQueryOrder) {
  simmpi::World world(4);
  world.run([](simmpi::Comm& comm) {
    const BlockPartition part(40, comm.size());
    // Slot s stores value = global id * (s + 1).
    std::vector<std::vector<std::uint64_t>> sets(3);
    for (std::uint32_t s = 0; s < 3; ++s) {
      sets[s].resize(part.count(comm.rank()));
      for (std::size_t i = 0; i < sets[s].size(); ++i) {
        sets[s][i] = (part.begin(comm.rank()) + i) * (s + 1);
      }
    }
    const std::vector<const std::vector<std::uint64_t>*> slots = {
        &sets[0], &sets[1], &sets[2]};
    // A mix of slots, owners, duplicates — including (slot, vertex) pairs
    // repeated back-to-back.
    const std::vector<core::SlotQuery> queries = {
        {2, 39}, {0, 0}, {1, 7}, {1, 7}, {0, 39}, {2, 0}, {1, 20}, {2, 39}};
    const auto got = core::fetch_values_batched(comm, part, queries, slots);
    ASSERT_EQ(got.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(got[i], queries[i].vertex * (queries[i].slot + 1))
          << "query " << i;
    }
  });
}

TEST(FetchValuesBatched, EmptyQueriesAndSingleRank) {
  {
    simmpi::World world(3);
    world.run([](simmpi::Comm& comm) {
      const BlockPartition part(9, comm.size());
      const std::vector<float> mine(part.count(comm.rank()), 2.5f);
      const std::vector<const std::vector<float>*> slots = {&mine};
      std::vector<core::SlotQuery> queries;
      if (comm.rank() == 2) queries = {{0, 0}, {0, 8}};
      const auto got = core::fetch_values_batched(comm, part, queries, slots);
      EXPECT_EQ(got.size(), queries.size());
      for (const auto v : got) EXPECT_EQ(v, 2.5f);
    });
  }
  {
    simmpi::World world(1);
    world.run([](simmpi::Comm& comm) {
      const BlockPartition part(4, 1);
      const std::vector<int> a = {0, 1, 2, 3};
      const std::vector<int> b = {10, 11, 12, 13};
      const std::vector<const std::vector<int>*> slots = {&a, &b};
      const auto got = core::fetch_values_batched(
          comm, part, {{1, 3}, {0, 1}, {1, 0}}, slots);
      EXPECT_EQ(got, (std::vector<int>{13, 1, 10}));
    });
  }
}

TEST(FetchValuesBatched, RejectsOutOfRangeSlot) {
  simmpi::World world(2);
  EXPECT_THROW(
      world.run([](simmpi::Comm& comm) {
        const BlockPartition part(4, comm.size());
        const std::vector<int> mine(part.count(comm.rank()), 0);
        const std::vector<const std::vector<int>*> slots = {&mine};
        (void)core::fetch_values_batched(comm, part,
                                         {{1, 0}},  // slot 1 does not exist
                                         slots);
      }),
      std::out_of_range);
}

}  // namespace
