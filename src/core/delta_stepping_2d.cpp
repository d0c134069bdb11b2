#include "core/delta_stepping_2d.hpp"

#include <stdexcept>

#include "core/relax_core.hpp"
#include "util/timer.hpp"

namespace g500::core {

using graph::LocalId;
using graph::VertexId;
using graph::Weight;

namespace {

class Engine2D {
 public:
  Engine2D(simmpi::Comm& comm, const graph::Dist2DGraph& g, VertexId root,
           const SsspConfig& config, SsspStats& stats)
      : comm_(comm),
        g_(g),
        config_(config),
        stats_(stats),
        state_(g.part, comm.rank(), effective_delta(config, g), stats),
        r_tag_(state_.local_n, BucketQueue::kNone),
        frontier_out_(static_cast<std::size_t>(comm.size())),
        candidate_out_(static_cast<std::size_t>(comm.size())) {
    check_roots({root}, g.num_vertices, "delta_stepping_2d");
    // Precompute light/heavy splits per source group in the edge block.
    split_.resize(g_.block.num_sources());
    for (std::size_t i = 0; i < g_.block.num_sources(); ++i) {
      split_[i] = g_.block.split_at(g_.block.range(i),
                                    static_cast<Weight>(state_.delta));
    }
    // The R ranks in my grid column hold my owned vertices' edges.
    const int me = comm_.rank();
    for (int row = 0; row < g_.grid.rows(); ++row) {
      column_group_.push_back(g_.grid.rank_at(row, g_.grid.col_of(me)));
    }
    state_.seed({root});
  }

  SsspResult run() {
    util::Timer total;
    std::uint64_t k_hint = 0;
    while (true) {
      const std::uint64_t k_local = state_.queue.next_nonempty(k_hint);
      const std::uint64_t k = comm_.allreduce_min(k_local);
      if (k == BucketQueue::kNone) break;
      ++stats_.buckets_processed;
      if (config_.max_buckets != 0 &&
          stats_.buckets_processed > config_.max_buckets) {
        throw std::runtime_error("delta_stepping_2d: max_buckets exceeded");
      }
      process_bucket(k);
      k_hint = k + 1;
    }
    stats_.total_seconds = total.seconds();

    SsspResult result;
    result.dist = std::move(state_.dist);
    result.parent = std::move(state_.parent);
    return result;
  }

 private:
  /// One frontier broadcast + edge scan + candidate return.  `light`
  /// selects which half of each source group is relaxed.
  void relax_round(const std::vector<LocalId>& active, bool light) {
    // --- 1. owners -> column group: active (vertex, distance) pairs.
    for (const auto v : active) {
      const FrontierEntry entry{state_.my_begin + v, state_.dist[v]};
      for (const int dst : column_group_) {
        frontier_out_[static_cast<std::size_t>(dst)].push_back(entry);
      }
    }
    stats_.frontier_broadcast += active.size() * column_group_.size();
    const std::vector<FrontierEntry> frontier =
        comm_.alltoallv(frontier_out_);
    for (auto& box : frontier_out_) box.clear();

    // --- 2. scan edge groups, emit candidates along the row.
    for (const auto& fe : frontier) {
      const auto it_range = g_.block.find(fe.vertex);
      if (it_range.empty()) continue;
      // Recover the group index to reuse the precomputed split.
      const std::size_t group = find_group_index(fe.vertex);
      const std::uint64_t first =
          light ? it_range.first : split_[group];
      const std::uint64_t last = light ? split_[group] : it_range.last;
      for (std::uint64_t e = first; e < last; ++e) {
        ++stats_.relax_generated;
        const VertexId target = g_.block.dst(e);
        candidate_out_[static_cast<std::size_t>(g_.part.owner(target))]
            .push_back(RelaxRequest{target, fe.vertex,
                                    fe.dist + g_.block.weight(e)});
      }
    }
    if (config_.coalesce) {
      for (auto& box : candidate_out_) {
        stats_.filtered_coalesce += coalesce_min(box);
      }
    }
    for (const auto& box : candidate_out_) stats_.relax_sent += box.size();

    // --- 3. owners apply.
    const std::vector<RelaxRequest> incoming =
        comm_.alltoallv(candidate_out_);
    for (auto& box : candidate_out_) box.clear();
    state_.apply(incoming);
  }

  /// Index of `source` within the block's group list (must exist).
  [[nodiscard]] std::size_t find_group_index(VertexId source) const {
    // SourceBlock keeps sources sorted; binary search mirrors find().
    std::size_t lo = 0;
    std::size_t hi = g_.block.num_sources();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (g_.block.source(mid) < source) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  void process_bucket(std::uint64_t k) {
    util::Timer phase;
    std::vector<LocalId> settled;
    while (true) {
      std::vector<LocalId> active = state_.queue.extract(k);
      for (const auto v : active) {
        if (r_tag_[v] != k) {
          r_tag_[v] = k;
          settled.push_back(v);
        }
      }
      const std::uint64_t total =
          comm_.allreduce_sum<std::uint64_t>(active.size());
      if (total == 0) break;
      ++stats_.light_iterations;
      ++stats_.push_rounds;
      stats_.frontier_hist.add(total);
      relax_round(active, /*light=*/true);
    }
    stats_.light_seconds += phase.seconds();

    phase.reset();
    ++stats_.heavy_phases;
    relax_round(settled, /*light=*/false);
    stats_.heavy_seconds += phase.seconds();
  }

  simmpi::Comm& comm_;
  const graph::Dist2DGraph& g_;
  const SsspConfig& config_;
  SsspStats& stats_;

  RelaxState state_;
  std::vector<std::uint64_t> r_tag_;
  std::vector<std::uint64_t> split_;
  std::vector<int> column_group_;

  std::vector<std::vector<FrontierEntry>> frontier_out_;
  std::vector<std::vector<RelaxRequest>> candidate_out_;
};

}  // namespace

SsspResult delta_stepping_2d(simmpi::Comm& comm, const graph::Dist2DGraph& g,
                             VertexId root, const SsspConfig& config,
                             SsspStats* stats) {
  SsspStats scratch;
  Engine2D engine(comm, g, root, config, stats != nullptr ? *stats : scratch);
  return engine.run();
}

}  // namespace g500::core
