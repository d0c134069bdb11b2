// Distributed value lookup: fetch per-vertex values owned by other ranks.
//
// The validation checks need remote tentative distances / parent anchors;
// fetch_values turns "give me value[v] for these global ids" into two
// alltoallv rounds (queries out, answers back) while preserving the
// caller's query order.  NeighbourValues builds on it to serve the value
// of every CSR destination with O(1) lookups.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "graph/partition.hpp"
#include "graph/types.hpp"
#include "simmpi/comm.hpp"

namespace g500::core {

/// For each global vertex id in `queries` (any owner, duplicates fine),
/// return the owner's `local_values[local(id)]`, in query order.
/// `local_values` must hold this rank's owned values.  SPMD: every rank
/// must call this, even with empty queries.
template <typename T>
std::vector<T> fetch_values(simmpi::Comm& comm,
                            const graph::BlockPartition& part,
                            const std::vector<graph::VertexId>& queries,
                            const std::vector<T>& local_values) {
  const int P = comm.size();
  std::vector<std::vector<graph::VertexId>> ask(static_cast<std::size_t>(P));
  // Remember where each query goes so answers can be re-interleaved.
  std::vector<int> query_rank(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const int owner = part.owner(queries[i]);
    query_rank[i] = owner;
    ask[static_cast<std::size_t>(owner)].push_back(queries[i]);
  }

  const auto incoming = comm.alltoallv_by_src(ask);

  // Answer every incoming query from local storage, preserving order.
  std::vector<std::vector<T>> answers(static_cast<std::size_t>(P));
  for (int s = 0; s < P; ++s) {
    answers[static_cast<std::size_t>(s)].reserve(
        incoming[static_cast<std::size_t>(s)].size());
    for (const auto v : incoming[static_cast<std::size_t>(s)]) {
      if (part.owner(v) != comm.rank()) {
        throw std::logic_error("fetch_values: query routed to wrong owner");
      }
      answers[static_cast<std::size_t>(s)].push_back(
          local_values.at(part.local(v)));
    }
  }

  const auto replies = comm.alltoallv_by_src(answers);

  // Replies from rank r arrive in the order we asked rank r; walk per-rank
  // cursors to restore the original interleaving.
  std::vector<std::size_t> cursor(static_cast<std::size_t>(P), 0);
  std::vector<T> result(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto r = static_cast<std::size_t>(query_rank[i]);
    result[i] = replies[r].at(cursor[r]++);
  }
  return result;
}

/// The value of every destination in `dsts` (a rank's CSR adjacency) and
/// of every id in `extras` (e.g. the parents of its vertices), gathered
/// once and then looked up in O(1).
///
/// Owned ids are read straight from `local_values`; they never enter the
/// exchange.  Remote ids are deduplicated with a bitmap over global ids.
/// Walking its set bits yields the query list already sorted, and one
/// fetch_values exchange fills it in.  A lookup ranks the id in the bitmap
/// with a per-word popcount prefix plus a popcount of the masked word, so
/// building costs O(|dsts| + |extras| + n/64) with no sort.
///
/// Memory: n/8 bytes of bitmap plus n/16 bytes of prefix per rank.  That
/// grows with n, not n/P: the bitmap is smaller than a rank's own 4-byte
/// value slice (4n/P bytes) only while P < 32, bitmap plus prefix only
/// while P < 21.
///
/// SPMD: every rank constructs one, even with nothing to look up.
/// `local_values` must hold exactly this rank's owned values and outlive
/// the lookup.  kNoVertex entries are skipped; any other id >= n throws
/// std::out_of_range.
template <typename T>
class NeighbourValues {
 public:
  NeighbourValues(simmpi::Comm& comm, const graph::BlockPartition& part,
                  std::span<const graph::VertexId> dsts,
                  std::span<const graph::VertexId> extras,
                  const std::vector<T>& local_values)
      : begin_(part.begin(comm.rank())), local_(local_values) {
    if (local_values.size() != part.count(comm.rank())) {
      throw std::invalid_argument(
          "NeighbourValues: local_values size != owned vertex count");
    }
    const graph::VertexId n = part.num_vertices();
    if (n > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("NeighbourValues: prefix counts are 32-bit");
    }
    const std::size_t words = (static_cast<std::size_t>(n) + 63) / 64;
    bits_.assign(words, 0);
    prefix_.resize(words);
    auto mark = [&](std::span<const graph::VertexId> ids) {
      for (const graph::VertexId v : ids) {
        if (v >= n) {
          if (v == graph::kNoVertex) continue;
          throw std::out_of_range("NeighbourValues: vertex out of range");
        }
        if (v - begin_ >= local_.size()) {
          bits_[v >> 6] |= std::uint64_t{1} << (v & 63);
        }
      }
    };
    mark(dsts);
    mark(extras);

    std::vector<graph::VertexId> queries;
    std::uint32_t rank_so_far = 0;
    for (std::size_t w = 0; w < words; ++w) {
      prefix_[w] = rank_so_far;
      for (std::uint64_t word = bits_[w]; word != 0; word &= word - 1) {
        queries.push_back(static_cast<graph::VertexId>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(word))));
      }
      rank_so_far += static_cast<std::uint32_t>(std::popcount(bits_[w]));
    }
    remote_ = fetch_values(comm, part, queries, local_values);
  }

  /// Value of `v`, which must be owned or one of the construction ids.
  [[nodiscard]] T operator()(graph::VertexId v) const {
    const graph::VertexId offset = v - begin_;  // wraps for v < begin_
    if (offset < local_.size()) return local_[offset];
    const std::uint64_t below = (std::uint64_t{1} << (v & 63)) - 1;
    return remote_[prefix_[v >> 6] +
                   static_cast<std::uint32_t>(
                       std::popcount(bits_[v >> 6] & below))];
  }

  /// Distinct remote ids that went through the exchange.
  [[nodiscard]] std::size_t remote_count() const noexcept {
    return remote_.size();
  }

 private:
  graph::VertexId begin_;
  std::span<const T> local_;
  std::vector<std::uint64_t> bits_;
  std::vector<std::uint32_t> prefix_;
  std::vector<T> remote_;
};

/// One entry of a multi-slot batched fetch: "value of `vertex` in value
/// set `slot`".  Slots let one exchange answer queries against several
/// distributed vectors at once (e.g. the distance slices of every root in
/// a serving micro-batch).
struct SlotQuery {
  std::uint32_t slot;
  graph::VertexId vertex;
};
static_assert(std::is_trivially_copyable_v<SlotQuery>);

/// Batched multi-slot variant of fetch_values: for each (slot, vertex)
/// query return `*slots[slot]` at the owner's local index of `vertex`, in
/// query order, using a single query/answer exchange for the whole batch.
///
/// `slots` holds this rank's owned slice of each logical value set; every
/// rank must pass the same number of slots in the same logical order
/// (SPMD), and every rank must call this even with empty queries.
/// Duplicates and self-owned queries are fine.  Throws std::out_of_range
/// on a slot index past `slots.size()` and std::logic_error on a
/// misrouted query or a null slot pointer.
template <typename T>
std::vector<T> fetch_values_batched(
    simmpi::Comm& comm, const graph::BlockPartition& part,
    const std::vector<SlotQuery>& queries,
    const std::vector<const std::vector<T>*>& slots) {
  const int P = comm.size();
  std::vector<std::vector<SlotQuery>> ask(static_cast<std::size_t>(P));
  std::vector<int> query_rank(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (queries[i].slot >= slots.size()) {
      throw std::out_of_range("fetch_values_batched: slot out of range");
    }
    const int owner = part.owner(queries[i].vertex);
    query_rank[i] = owner;
    ask[static_cast<std::size_t>(owner)].push_back(queries[i]);
  }

  const auto incoming = comm.alltoallv_by_src(ask);

  std::vector<std::vector<T>> answers(static_cast<std::size_t>(P));
  for (int s = 0; s < P; ++s) {
    answers[static_cast<std::size_t>(s)].reserve(
        incoming[static_cast<std::size_t>(s)].size());
    for (const auto q : incoming[static_cast<std::size_t>(s)]) {
      if (part.owner(q.vertex) != comm.rank()) {
        throw std::logic_error(
            "fetch_values_batched: query routed to wrong owner");
      }
      if (q.slot >= slots.size() || slots[q.slot] == nullptr) {
        throw std::logic_error("fetch_values_batched: bad slot on owner");
      }
      answers[static_cast<std::size_t>(s)].push_back(
          slots[q.slot]->at(part.local(q.vertex)));
    }
  }

  const auto replies = comm.alltoallv_by_src(answers);

  std::vector<std::size_t> cursor(static_cast<std::size_t>(P), 0);
  std::vector<T> result(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto r = static_cast<std::size_t>(query_rank[i]);
    result[i] = replies[r].at(cursor[r]++);
  }
  return result;
}

}  // namespace g500::core
