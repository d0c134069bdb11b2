// Barrier-free delta-stepping over the simmpi::Aggregator transport.
//
// The synchronous engine (delta_stepping.hpp) pays one alltoallv plus a
// min-allreduce per bucket sub-round, so its critical path scales with the
// round count.  This variant removes the per-round synchronization
// entirely: relaxations stream out through per-destination aggregation
// buffers as they are generated, incoming candidates are drained
// opportunistically between local bucket expansions, and ranks proceed
// through their bucket queues without waiting for stragglers.  Termination
// is decided by Mattern-style quiescence detection instead of an epoch
// barrier, followed by one synchronous settle sweep that certifies the
// fixed point (see docs/async.md).
//
// Correctness: chaotic relaxation converges to the unique fixed point of
// the relaxation operator regardless of message order, and that fixed
// point — evaluated in the same float arithmetic — is exactly what the
// synchronous engine computes.  The distance array is therefore
// BIT-IDENTICAL to delta_stepping's for any schedule (parents may differ:
// several shortest paths can tie).  The one feature this argument excludes
// is goal-directed pruning, whose correctness depends on a monotone
// execution order; passing SsspConfig::prune_lb throws.
//
// Relaxation, routing, coalescing and the wire format are the shared core
// of relax_core.hpp; this engine adds only its schedule and transport.
// Config knobs honoured: delta, coalesce (per-flush dedup), hub_cache
// (send-side mirror, tightened locally instead of by allreduce),
// local_fusion, compress, aggregator_capacity, aggregator_max_age,
// max_buckets (counts per-rank bucket expansions here).  The settle sweep
// routes and exchanges like a synchronous round, so it honours the hub
// filter, local_fusion, coalesce and hierarchical_group too.  Ignored —
// meaningless without synchronized rounds: direction_opt (pull needs a
// globally agreed frontier), checkpoint_interval, collect_bucket_trace.
#pragma once

#include "core/dijkstra.hpp"
#include "core/sssp_types.hpp"
#include "graph/builder.hpp"
#include "simmpi/comm.hpp"

namespace g500::core {

/// Run one asynchronous SSSP from `root`.  SPMD: call from every rank
/// inside World::run.  Distances are bit-identical to delta_stepping();
/// stats (when non-null) additionally reports global_collectives,
/// sub_rounds and the aggregator flush split.  Throws std::invalid_argument
/// when config.prune_lb is set (see header comment).
[[nodiscard]] SsspResult async_delta_stepping(simmpi::Comm& comm,
                                              const graph::DistGraph& g,
                                              graph::VertexId root,
                                              const SsspConfig& config = {},
                                              SsspStats* stats = nullptr);

/// Multi-source variant (nearest of `roots`), matching
/// delta_stepping_multi.
[[nodiscard]] SsspResult async_delta_stepping_multi(
    simmpi::Comm& comm, const graph::DistGraph& g,
    const std::vector<graph::VertexId>& roots, const SsspConfig& config = {},
    SsspStats* stats = nullptr);

}  // namespace g500::core
