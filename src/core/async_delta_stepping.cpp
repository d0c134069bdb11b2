#include "core/async_delta_stepping.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "core/delta_stepping.hpp"
#include "core/relax_core.hpp"
#include "simmpi/aggregator.hpp"
#include "util/timer.hpp"

namespace g500::core {

using graph::VertexId;

namespace {

/// One rank's asynchronous engine, templated on the wire record (see
/// relax_core.hpp).  The relaxation itself is the shared core; this class
/// adds only the schedule (poll, expand, quiescence) and the transport.
template <typename Msg>
class AsyncEngine {
 public:
  AsyncEngine(simmpi::Comm& comm, const graph::DistGraph& g,
              const std::vector<VertexId>& roots, const SsspConfig& config,
              SsspStats& stats)
      : comm_(comm),
        g_(g),
        config_(config),
        stats_(stats),
        core_(comm, g, roots, config, stats, "async_delta_stepping"),
        agg_(comm, make_options(config)) {
    agg_.set_compactor([this](std::vector<Msg>& buf) { core_.compact(buf); });
    core_.seed(roots);
  }
  // The aggregator's compactor holds `this`.
  AsyncEngine(const AsyncEngine&) = delete;
  AsyncEngine& operator=(const AsyncEngine&) = delete;

  SsspResult run() {
    util::Timer total;
    const simmpi::CommStats& cs = comm_.stats();
    const std::uint64_t rounds0 = cs.rounds();
    const std::uint64_t cap0 = cs.p2p_flush_capacity;
    const std::uint64_t timeout0 = cs.p2p_flush_timeout;

    async_phase();
    settle_sync();

    stats_.total_seconds = total.seconds();
    stats_.global_collectives = cs.rounds() - rounds0;
    stats_.aggregator_flush_capacity = cs.p2p_flush_capacity - cap0;
    stats_.aggregator_flush_timeout = cs.p2p_flush_timeout - timeout0;

    SsspResult result;
    result.dist = std::move(core_.dist);
    result.parent = std::move(core_.parent);
    return result;
  }

 private:
  static simmpi::AggregatorOptions make_options(const SsspConfig& config) {
    simmpi::AggregatorOptions options;
    options.capacity = std::max<std::size_t>(1, config.aggregator_capacity);
    options.max_age = std::max<std::uint64_t>(1, config.aggregator_max_age);
    return options;
  }

  /// Route every edge of every vertex queued in bucket k through `sink`.
  template <typename Sink>
  void expand_bucket(std::uint64_t k, Sink&& sink) {
    for (const auto v : core_.queue.extract(k)) {
      core_.expand<Msg>(v, g_.csr.edges_begin(v), g_.csr.edges_end(v), sink);
    }
  }

  // ---------------------------------------------------------- async phase

  /// Expansion sends through the aggregator.  Unlike the sync engine the
  /// hub mirror is never tightened by a collective — it only records
  /// candidates this rank itself shipped, which still upper-bounds the
  /// owner's authoritative distance (the invariant the filter needs), just
  /// less tightly.  No light/heavy split: without a drained-bucket barrier
  /// there is no "settled" set to defer heavy edges for, and re-expansion
  /// on improvement keeps correctness.
  void async_phase() {
    const auto to_aggregator = [this](int owner, const Msg& m) {
      agg_.send(owner, m);
    };
    std::vector<Msg> inbox;
    while (!agg_.quiescent()) {
      inbox.clear();
      agg_.poll(inbox);
      core_.apply(inbox);

      const std::uint64_t k = core_.queue.next_nonempty(core_.hint);
      if (k != BucketQueue::kNone) {
        ++stats_.sub_rounds;
        ++stats_.buckets_processed;
        if (config_.max_buckets != 0 &&
            stats_.buckets_processed > config_.max_buckets) {
          throw std::runtime_error(
              "async_delta_stepping: max_buckets exceeded");
        }
        core_.hint = k;  // relaxations may refill this very bucket
        expand_bucket(k, to_aggregator);
      } else if (inbox.empty()) {
        // Locally idle: ship any buffered residue and drive the
        // termination token; peers may still wake us with new candidates.
        agg_.advance_quiescence();
        std::this_thread::yield();
      }
    }
    // The terminate decision proves no data parcel was in flight, but
    // drain defensively: a stray record here is caught by settle_sync.
    inbox.clear();
    agg_.poll(inbox);
    core_.apply(inbox);
  }

  // --------------------------------------------------------- settle phase

  /// Synchronous convergence certification: Bellman-Ford-style rounds over
  /// whatever the async phase left queued, until a global allreduce agrees
  /// the queues are empty everywhere.  Each round routes through the
  /// shared core and exchanges with the sync engine's BSP exchange.
  /// Quiescence detection makes this a single empty round in practice, but
  /// the fixed-point guarantee — distances identical to the synchronous
  /// engine — rests on this sweep, not on the token protocol.
  void settle_sync() {
    std::vector<std::vector<Msg>> outbox(
        static_cast<std::size_t>(comm_.size()));
    const auto to_outbox = [&outbox](int owner, const Msg& m) {
      outbox[static_cast<std::size_t>(owner)].push_back(m);
    };
    while (comm_.allreduce_or(core_.queue.next_nonempty(0) !=
                              BucketQueue::kNone)) {
      ++stats_.sub_rounds;
      std::uint64_t k = 0;
      while ((k = core_.queue.next_nonempty(k)) != BucketQueue::kNone) {
        expand_bucket(k, to_outbox);
      }
      core_.exchange(outbox);
    }
  }

  // ------------------------------------------------------------- members

  simmpi::Comm& comm_;
  const graph::DistGraph& g_;
  const SsspConfig& config_;
  SsspStats& stats_;

  RelaxCore core_;
  simmpi::Aggregator<Msg> agg_;
};

SsspResult dispatch(simmpi::Comm& comm, const graph::DistGraph& g,
                    const std::vector<VertexId>& roots,
                    const SsspConfig& config, SsspStats* stats) {
  if (config.prune_lb != nullptr) {
    // Pruning drops candidates against a budget that only monotone
    // (synchronized) execution keeps admissible; a chaotic schedule could
    // prune a path the fixed point needs.
    throw std::invalid_argument(
        "async_delta_stepping: goal-directed pruning requires the "
        "synchronous engine");
  }
  SsspStats local_stats;
  SsspStats& s = stats != nullptr ? *stats : local_stats;
  return with_wire_record(config, g.num_vertices, [&](auto record) {
    AsyncEngine<decltype(record)> engine(comm, g, roots, config, s);
    return engine.run();
  });
}

}  // namespace

SsspResult async_delta_stepping(simmpi::Comm& comm, const graph::DistGraph& g,
                                VertexId root, const SsspConfig& config,
                                SsspStats* stats) {
  return dispatch(comm, g, {root}, config, stats);
}

SsspResult async_delta_stepping_multi(simmpi::Comm& comm,
                                      const graph::DistGraph& g,
                                      const std::vector<VertexId>& roots,
                                      const SsspConfig& config,
                                      SsspStats* stats) {
  return dispatch(comm, g, roots, config, stats);
}

}  // namespace g500::core
