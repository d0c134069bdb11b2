// The relaxation core shared by the distributed SSSP engines.
//
// The synchronous engine (delta_stepping.cpp) and the barrier-free one
// (async_delta_stepping.cpp) relax edges the same way; they differ only in
// their schedule and their transport.  Everything they share lives here,
// once:
//
//   * RelaxState — a rank's dist/parent slices, bucket queue and bucket
//     width: bucket_of, relax_local (with the goal-directed pruning test),
//     root checks and seeding, and applying received records.  The 2-D
//     engine and Bellman-Ford (one bucket of infinite width) use it too;
//   * RelaxCore — adds the hub index and mirror filter, route() (hub
//     filter -> local fusion -> transport sink), edge expansion, and the
//     BSP exchange (coalesce, alltoallv, apply);
//   * coalesce_min — keep the best record per target;
//   * the wire codec — the wide RelaxRequest or the 12-byte
//     PackedRelaxRequest, and the one rule choosing between them.
//
// The hot path stays compile-time: the transport is a template sink and
// the wire record a template parameter, so routing a candidate costs no
// indirect call.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/bucket_queue.hpp"
#include "core/sssp_types.hpp"
#include "graph/builder.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/hierarchical.hpp"

namespace g500::core {

// ------------------------------------------------------------ wire codec

/// Call `f` with a value of the wire record type, so an engine templated
/// on the record is instantiated for both and picked once at run time.
/// The one rule choosing it: packed when compression is on and every
/// vertex id fits the record's 32-bit fields, wide otherwise.
template <typename F>
decltype(auto) with_wire_record(const SsspConfig& config,
                                graph::VertexId num_vertices, F&& f) {
  if (config.compress &&
      num_vertices <= std::numeric_limits<std::uint32_t>::max()) {
    return f(PackedRelaxRequest{});
  }
  return f(RelaxRequest{});
}

/// Encode "target (owned by `owner`) reachable at `cand` via `via`".  The
/// packed record carries the target in the owner's local index space.
template <typename Msg>
[[nodiscard]] Msg encode(const graph::BlockPartition& part, int owner,
                         graph::VertexId target, graph::Weight cand,
                         graph::VertexId via) {
  if constexpr (std::is_same_v<Msg, PackedRelaxRequest>) {
    return PackedRelaxRequest{
        static_cast<std::uint32_t>(target - part.begin(owner)),
        static_cast<std::uint32_t>(via), cand};
  } else {
    return RelaxRequest{target, via, cand};
  }
}

/// The record's target key: global id (wide) or owner-local index
/// (packed).  Within one destination box both order targets identically.
template <typename Msg>
[[nodiscard]] auto target_key(const Msg& m) {
  if constexpr (std::is_same_v<Msg, PackedRelaxRequest>) {
    return m.target_local;
  } else {
    return m.target;
  }
}

/// Keep one record per target in `box`: the smallest dist, ties broken by
/// the smallest parent.  Leaves the survivors sorted by target and returns
/// how many records were dropped.  Packed and wide boxes of one
/// destination keep the same survivors.
template <typename Msg>
std::size_t coalesce_min(std::vector<Msg>& box) {
  if (box.size() < 2) return 0;
  std::sort(box.begin(), box.end(), [](const Msg& a, const Msg& b) {
    if (target_key(a) != target_key(b)) return target_key(a) < target_key(b);
    if (a.dist != b.dist) return a.dist < b.dist;
    return a.parent < b.parent;
  });
  const auto last =
      std::unique(box.begin(), box.end(), [](const Msg& a, const Msg& b) {
        return target_key(a) == target_key(b);
      });
  const auto dropped = static_cast<std::size_t>(box.end() - last);
  box.erase(last, box.end());
  return dropped;
}

/// The bucket width an engine runs with: config.delta, or when that is
/// <= 0 the auto_delta rule — 1 / average directed degree, clamped to
/// [1/64, 1], the standard choice for uniform [0,1) weights.
template <typename Graph>
[[nodiscard]] double effective_delta(const SsspConfig& config,
                                     const Graph& g) {
  if (config.delta > 0.0) return config.delta;
  const double avg_degree =
      std::max(1.0, static_cast<double>(g.num_directed_edges) /
                        static_cast<double>(g.num_vertices));
  return std::clamp(1.0 / avg_degree, 1.0 / 64.0, 1.0);
}

/// Throw unless `roots` is non-empty and every root is a vertex.  `who`
/// names the entry point in the message.
inline void check_roots(const std::vector<graph::VertexId>& roots,
                        graph::VertexId num_vertices, const char* who) {
  if (roots.empty()) {
    throw std::invalid_argument(std::string(who) + ": no roots");
  }
  for (const auto root : roots) {
    if (root >= num_vertices) {
      throw std::out_of_range(std::string(who) + ": root out of range");
    }
  }
}

// ----------------------------------------------------------- RelaxState

/// One rank's tentative labels and bucket queue.
struct RelaxState {
  /// `lower_bounds` (may be null) and `budget` are SsspConfig's
  /// goal-directed pruning inputs; the slice must match the owned range.
  RelaxState(const graph::BlockPartition& partition, int my_rank,
             double width, SsspStats& counters,
             const std::vector<graph::Weight>* lower_bounds = nullptr,
             graph::Weight budget = graph::kInfDistance)
      : part(partition),
        rank(my_rank),
        local_n(static_cast<std::size_t>(partition.count(my_rank))),
        my_begin(partition.begin(my_rank)),
        delta(width),
        stats(counters),
        prune_lb(lower_bounds),
        prune_budget(budget),
        queue(local_n),
        dist(local_n, graph::kInfDistance),
        parent(local_n, graph::kNoVertex) {
    if (prune_lb != nullptr && prune_lb->size() != local_n) {
      throw std::invalid_argument(
          "delta_stepping: prune_lb slice does not match the owned range");
    }
  }

  [[nodiscard]] std::uint64_t bucket_of(graph::Weight d) const {
    return static_cast<std::uint64_t>(static_cast<double>(d) / delta);
  }

  /// Goal-directed pruning test: can a path reaching owned vertex `v` at
  /// distance `base` still improve the query target within budget?  False
  /// when pruning is off.  Written so NaN/infinity compare conservatively
  /// (an infinite bound at an unreachable v prunes; an infinite budget
  /// never does).
  [[nodiscard]] bool pruned(graph::LocalId v, graph::Weight base) const {
    return prune_lb != nullptr && base + (*prune_lb)[v] > prune_budget;
  }

  /// Apply a candidate to an owned vertex if it improves the label.
  void relax_local(graph::LocalId v, graph::Weight cand, graph::VertexId via) {
    if (!(cand < dist[v])) return;
    if (pruned(v, cand)) {
      ++stats.pruned_apply;
      return;
    }
    dist[v] = cand;
    parent[v] = via;
    const std::uint64_t b = bucket_of(cand);
    queue.update(v, b);
    hint = std::min(hint, b);
    ++stats.relax_applied;
  }

  /// Owned roots start at distance 0 as their own parents, in bucket 0.
  void seed(const std::vector<graph::VertexId>& roots) {
    for (const auto root : roots) {
      if (part.owner(root) == rank) {
        const auto lr = part.local(root);
        dist[lr] = 0.0f;
        parent[lr] = root;
        queue.update(lr, 0);
      }
    }
  }

  /// Relax every received record against the owned labels.
  template <typename Msg>
  void apply(const std::vector<Msg>& incoming) {
    stats.relax_received += incoming.size();
    for (const Msg& m : incoming) {
      if constexpr (std::is_same_v<Msg, PackedRelaxRequest>) {
        relax_local(static_cast<graph::LocalId>(m.target_local), m.dist,
                    static_cast<graph::VertexId>(m.parent));
      } else {
        relax_local(part.local(m.target), m.dist, m.parent);
      }
    }
  }

  const graph::BlockPartition& part;
  int rank;
  std::size_t local_n;
  graph::VertexId my_begin;
  double delta;
  SsspStats& stats;
  const std::vector<graph::Weight>* prune_lb;
  graph::Weight prune_budget;

  BucketQueue queue;
  std::vector<graph::Weight> dist;
  std::vector<graph::VertexId> parent;
  /// Lowest bucket relax_local queued into since the schedule last reset
  /// it; the async engine's scan starts here.
  std::uint64_t hint = 0;
};

// ------------------------------------------------------------ RelaxCore

/// RelaxState over a 1-D DistGraph plus the hub filter, candidate routing
/// and the BSP exchange.
struct RelaxCore : RelaxState {
  /// Checks the roots (`who` names the entry point in error messages) and
  /// builds the hub index; the caller seeds.
  RelaxCore(simmpi::Comm& communicator, const graph::DistGraph& dist_graph,
            const std::vector<graph::VertexId>& roots,
            const SsspConfig& cfg, SsspStats& counters, const char* who)
      : RelaxState(dist_graph.part, communicator.rank(),
                   effective_delta(cfg, dist_graph), counters, cfg.prune_lb,
                   cfg.prune_budget),
        comm(communicator),
        g(dist_graph),
        config(cfg) {
    check_roots(roots, g.num_vertices, who);
    if (!config.hub_cache || g.hubs.empty()) return;
    hub_mirror.assign(g.hubs.size(), graph::kInfDistance);
    hub_index.reserve(g.hubs.size() * 2);
    for (std::size_t i = 0; i < g.hubs.size(); ++i) {
      hub_index.emplace(g.hubs[i], static_cast<std::uint32_t>(i));
    }
  }

  /// Route one generated candidate: hub filter, local fusion, or
  /// `sink(owner, record)` — the engine's transport.
  template <typename Msg, typename Sink>
  void route(graph::VertexId target, graph::Weight cand, graph::VertexId via,
             Sink&& sink) {
    ++stats.relax_generated;
    const int owner = part.owner(target);
    const bool is_local = owner == rank;

    if (!hub_mirror.empty()) {
      const auto it = hub_index.find(target);
      if (it != hub_index.end()) {
        // The filter reference must never undercut the owner's
        // authoritative distance, or improving candidates would be
        // dropped.  A mirror only holds values that were (or will be this
        // round) delivered to the owner, so mirror >= authoritative always
        // holds.
        const graph::Weight ref =
            is_local ? dist[part.local(target)] : hub_mirror[it->second];
        if (!(cand < ref)) {
          ++stats.filtered_hub;
          return;
        }
        if (!is_local) hub_mirror[it->second] = cand;
      }
    }

    if (is_local && config.local_fusion) {
      relax_local(part.local(target), cand, via);
      ++stats.fused_local;
      return;
    }
    sink(owner, encode<Msg>(part, owner, target, cand, via));
  }

  /// Route the candidates of owned vertex `v` along its CSR edges
  /// [first, last).
  template <typename Msg, typename Sink>
  void expand(graph::LocalId v, std::uint64_t first, std::uint64_t last,
              Sink&& sink) {
    const graph::Weight d = dist[v];
    const graph::VertexId via = my_begin + v;
    for (std::uint64_t e = first; e < last; ++e) {
      route<Msg>(g.csr.dst(e), d + g.csr.weight(e), via, sink);
    }
  }

  /// Ready one destination's records for the wire: coalesce when enabled,
  /// then count what ships.
  template <typename Msg>
  void compact(std::vector<Msg>& box) {
    if (config.coalesce) stats.filtered_coalesce += coalesce_min(box);
    stats.relax_sent += box.size();
  }

  /// BSP exchange of the per-destination outboxes (flat or two-level
  /// alltoallv per hierarchical_group), then apply what arrived.
  /// Collective; leaves the outboxes empty.
  template <typename Msg>
  void exchange(std::vector<std::vector<Msg>>& outbox) {
    for (auto& box : outbox) compact(box);
    // Group sizes <= 1 fall back to the flat alltoallv.
    const std::vector<Msg> incoming =
        simmpi::two_level_alltoallv(comm, outbox, config.hierarchical_group);
    for (auto& box : outbox) box.clear();
    apply(incoming);
  }

  simmpi::Comm& comm;
  const graph::DistGraph& g;
  const SsspConfig& config;
  std::unordered_map<graph::VertexId, std::uint32_t> hub_index;
  std::vector<graph::Weight> hub_mirror;
};

}  // namespace g500::core
