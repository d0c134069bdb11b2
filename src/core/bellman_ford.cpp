#include "core/bellman_ford.hpp"

#include <limits>

#include "core/relax_core.hpp"
#include "util/timer.hpp"

namespace g500::core {

using graph::VertexId;
using graph::Weight;

SsspResult bellman_ford(simmpi::Comm& comm, const graph::DistGraph& g,
                        VertexId root, const SsspConfig& config,
                        SsspStats* stats) {
  check_roots({root}, g.num_vertices, "bellman_ford");
  SsspStats scratch;
  SsspStats& st = stats != nullptr ? *stats : scratch;
  util::Timer total;

  // Bellman-Ford is delta-stepping with one bucket of infinite width:
  // every improved vertex lands in bucket 0, and each round expands the
  // whole of it.
  RelaxState state(g.part, comm.rank(),
                   std::numeric_limits<double>::infinity(), st);
  state.seed({root});

  std::vector<std::vector<RelaxRequest>> outbox(
      static_cast<std::size_t>(comm.size()));
  while (comm.allreduce_or(state.queue.next_nonempty(0) !=
                           BucketQueue::kNone)) {
    ++st.light_iterations;  // BF has a single phase class; reuse the counter
    for (const auto v : state.queue.extract(0)) {
      const Weight d = state.dist[v];
      const VertexId via = state.my_begin + v;
      for (std::uint64_t e = g.csr.edges_begin(v); e < g.csr.edges_end(v);
           ++e) {
        ++st.relax_generated;
        const VertexId target = g.csr.dst(e);
        const Weight cand = d + g.csr.weight(e);
        const int owner = g.part.owner(target);
        if (owner == comm.rank() && config.local_fusion) {
          state.relax_local(g.part.local(target), cand, via);
          ++st.fused_local;
        } else {
          outbox[static_cast<std::size_t>(owner)].push_back(
              RelaxRequest{target, via, cand});
        }
      }
    }

    if (config.coalesce) {
      for (auto& box : outbox) st.filtered_coalesce += coalesce_min(box);
    }
    for (const auto& box : outbox) st.relax_sent += box.size();
    const std::vector<RelaxRequest> incoming = comm.alltoallv(outbox);
    for (auto& box : outbox) box.clear();
    state.apply(incoming);
  }

  st.total_seconds = total.seconds();
  SsspResult result;
  result.dist = std::move(state.dist);
  result.parent = std::move(state.parent);
  return result;
}

}  // namespace g500::core
