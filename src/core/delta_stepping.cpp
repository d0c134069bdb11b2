#include "core/delta_stepping.hpp"

#include <cstring>
#include <stdexcept>

#include "core/checkpoint.hpp"
#include "core/relax_core.hpp"
#include "util/random.hpp"
#include "util/timer.hpp"

namespace g500::core {

using graph::kInfDistance;
using graph::LocalId;
using graph::VertexId;
using graph::Weight;

double auto_delta(const graph::DistGraph& g) {
  return effective_delta(SsspConfig{}, g);
}

namespace {

/// All per-run state of one rank's engine, templated on the wire record
/// (see relax_core.hpp): the outboxes hold encoded records directly.
template <typename Msg>
class Engine {
 public:
  Engine(simmpi::Comm& comm, const graph::DistGraph& g,
         const std::vector<VertexId>& roots, const SsspConfig& config,
         SsspStats& stats, CheckpointState* ckpt = nullptr,
         const WarmStart* warm = nullptr)
      : comm_(comm),
        ckpt_(ckpt),
        g_(g),
        config_(config),
        stats_(stats),
        core_(comm, g, roots, config, stats, "delta_stepping"),
        r_tag_(core_.local_n, BucketQueue::kNone),
        outbox_(static_cast<std::size_t>(comm.size())) {
    // Identity of this run for snapshot matching: the roots, the effective
    // bucket width and the graph shape.  A snapshot from any other run (or
    // a different partition of the same graph) is refused on restore.
    roots_digest_ =
        util::hash_bytes(roots.data(), roots.size() * sizeof(VertexId));
    std::uint64_t delta_bits = 0;
    static_assert(sizeof(delta_bits) == sizeof(core_.delta));
    std::memcpy(&delta_bits, &core_.delta, sizeof(delta_bits));
    roots_digest_ = util::hash64(roots_digest_, delta_bits);
    roots_digest_ = util::hash64(roots_digest_, g.num_vertices);
    roots_digest_ = util::hash64(roots_digest_, core_.local_n);

    precompute_splits();
    // Pull rounds are only safe when EVERY rank that stores edges also has
    // a pull index for them; a rank-local check would diverge (e.g. a rank
    // owning only isolated vertices has an empty index) and desynchronize
    // the collective schedule.  Agree once, globally.
    const bool local_pull_ok =
        g.pull.num_entries() > 0 || g.csr.num_edges() == 0;
    pull_available_ = config.direction_opt && !comm.allreduce_or(!local_pull_ok);
    if (warm != nullptr) {
      // Repair mode: adopt the caller's labels and queue only its seeds.
      // Checkpointing is mutually exclusive — a crashed repair is re-run
      // from the (caller-held) pre-update labels, not resumed mid-wave.
      if (ckpt_ != nullptr) {
        throw std::invalid_argument(
            "delta_stepping: warm start and checkpointing are exclusive");
      }
      if (warm->dist.size() != core_.local_n ||
          warm->parent.size() != core_.local_n) {
        throw std::invalid_argument(
            "delta_stepping: warm-start slices do not match the owned range");
      }
      core_.dist = warm->dist;
      core_.parent = warm->parent;
      for (const auto root : roots) {
        if (g_.part.owner(root) == comm_.rank() &&
            core_.dist[g_.part.local(root)] != 0.0f) {
          throw std::invalid_argument(
              "delta_stepping: warm-start root distance must be 0");
        }
      }
      for (const auto v : warm->seeds) {
        if (v >= core_.local_n || core_.dist[v] == kInfDistance) {
          throw std::invalid_argument(
              "delta_stepping: warm-start seed invalid or unreachable");
        }
        core_.queue.update(v, core_.bucket_of(core_.dist[v]));
      }
      return;
    }
    core_.seed(roots);
  }

  SsspResult run() {
    util::Timer total;
    const std::uint64_t rounds_at_start = comm_.stats().rounds();
    std::uint64_t k_hint = try_restore();
    while (true) {
      const std::uint64_t k_local = core_.queue.next_nonempty(k_hint);
      const std::uint64_t k = comm_.allreduce_min(k_local);
      if (k == BucketQueue::kNone) break;
      // Deadline budget: every rank sees the same allreduce-agreed k and
      // the same local bucket count (epochs are global), so this break is
      // taken (or not) by all ranks in lockstep — no collective skew.
      // Distances strictly below k * delta are already exactly settled.
      if (config_.deadline_buckets != 0 &&
          stats_.buckets_processed >= config_.deadline_buckets) {
        ++stats_.deadline_stops;
        stats_.settled_bound = static_cast<double>(k) * core_.delta;
        break;
      }
      ++stats_.buckets_processed;
      if (config_.max_buckets != 0 &&
          stats_.buckets_processed > config_.max_buckets) {
        throw std::runtime_error("delta_stepping: max_buckets exceeded");
      }
      process_bucket(k);
      maybe_checkpoint(k);
      k_hint = k + 1;
    }
    stats_.total_seconds = total.seconds();
    stats_.global_collectives = comm_.stats().rounds() - rounds_at_start;
    // A completed run's snapshot must not leak into the next one.
    if (ckpt_ != nullptr) ckpt_->clear();

    SsspResult result;
    result.dist = std::move(core_.dist);
    result.parent = std::move(core_.parent);
    return result;
  }

 private:
  // -------------------------------------------------------------- setup

  void precompute_splits() {
    const auto width = static_cast<Weight>(core_.delta);
    split_.resize(core_.local_n);
    for (LocalId u = 0; u < static_cast<LocalId>(core_.local_n); ++u) {
      split_[u] = g_.csr.split_at(u, width);
    }
    if (config_.direction_opt && g_.pull.num_entries() > 0) {
      pull_split_.resize(g_.pull.num_sources());
      for (std::size_t i = 0; i < g_.pull.num_sources(); ++i) {
        pull_split_[i] = g_.pull.split_at(g_.pull.range(i), width);
      }
    }
  }

  // -------------------------------------------------------- bucket logic

  /// Should this inner round pull instead of push?  Decided from global
  /// totals, so all ranks agree.
  [[nodiscard]] bool choose_pull(std::uint64_t active_global,
                                 std::uint64_t light_edges_global) const {
    if (!pull_available_) return false;
    const double fraction = static_cast<double>(active_global) /
                            static_cast<double>(g_.num_vertices);
    if (fraction < config_.pull_threshold) return false;
    const double push_bytes =
        static_cast<double>(light_edges_global) * sizeof(RelaxRequest);
    const double pull_bytes = static_cast<double>(active_global) *
                              sizeof(FrontierEntry) *
                              static_cast<double>(comm_.size());
    return push_bytes > pull_bytes * config_.pull_bias;
  }

  void push_round(const std::vector<LocalId>& active, bool light) {
    const auto to_outbox = [this](int owner, const Msg& m) {
      outbox_[static_cast<std::size_t>(owner)].push_back(m);
    };
    for (const auto v : active) {
      // A vertex whose best continuation toward the query target already
      // exceeds the budget cannot lie on a path that improves the answer;
      // skipping its expansion is where goal-directed pruning saves edge
      // relaxations and wire traffic.
      if (core_.pruned(v, core_.dist[v])) {
        ++stats_.pruned_expand;
        continue;
      }
      core_.expand<Msg>(
          v, light ? g_.csr.edges_begin(v) : split_[v],
          light ? split_[v] : g_.csr.edges_end(v), to_outbox);
    }
    core_.exchange(outbox_);
  }

  void pull_round(const std::vector<LocalId>& active) {
    std::vector<FrontierEntry> frontier;
    frontier.reserve(active.size());
    for (const auto v : active) {
      if (core_.pruned(v, core_.dist[v])) {
        ++stats_.pruned_expand;
        continue;
      }
      frontier.push_back(FrontierEntry{core_.my_begin + v, core_.dist[v]});
    }
    stats_.frontier_broadcast += frontier.size();
    const std::vector<FrontierEntry> global = comm_.allgatherv(frontier);
    for (const auto& fe : global) {
      std::size_t idx = 0;
      const auto range = g_.pull.find(fe.vertex, &idx);
      if (range.empty()) continue;
      // Light entries only: [range.first, pull_split_[idx]).
      for (std::uint64_t e = range.first; e < pull_split_[idx]; ++e) {
        ++stats_.relax_generated;
        core_.relax_local(g_.pull.dst(e), fe.dist + g_.pull.weight(e),
                          fe.vertex);
      }
    }
  }

  void process_bucket(std::uint64_t k) {
    util::Timer phase;
    util::Timer bucket_timer;
    std::vector<LocalId> settled;  // the R set for the heavy phase
    BucketTraceRow row;
    row.bucket = k;

    while (true) {
      std::vector<LocalId> active = core_.queue.extract(k);
      for (const auto v : active) {
        if (r_tag_[v] != k) {
          r_tag_[v] = k;
          settled.push_back(v);
        }
      }
      std::uint64_t light_edges = 0;
      for (const auto v : active) {
        light_edges += split_[v] - g_.csr.edges_begin(v);
      }
      const auto totals = comm_.allreduce_vec<std::uint64_t>(
          {active.size(), light_edges},
          [](std::uint64_t a, std::uint64_t b) { return a + b; });
      if (totals[0] == 0) break;  // bucket k drained everywhere
      ++stats_.light_iterations;
      ++stats_.sub_rounds;
      ++row.light_rounds;
      row.frontier_total += totals[0];
      stats_.frontier_hist.add(totals[0]);

      if (choose_pull(totals[0], totals[1])) {
        ++stats_.pull_rounds;
        pull_round(active);
      } else {
        ++stats_.push_rounds;
        push_round(active, /*light=*/true);
      }
    }
    stats_.light_seconds += phase.seconds();

    sync_hub_mirrors();

    phase.reset();
    ++stats_.heavy_phases;
    ++stats_.sub_rounds;
    push_round(settled, /*light=*/false);
    stats_.heavy_seconds += phase.seconds();

    if (config_.collect_bucket_trace) {
      row.settled = settled.size();
      row.seconds = bucket_timer.seconds();
      stats_.bucket_trace.push_back(row);
    }
  }

  /// Tighten every mirror to the owner's authoritative distance (cheap:
  /// one H-length min-allreduce per bucket).
  void sync_hub_mirrors() {
    auto& mirror = core_.hub_mirror;
    if (mirror.empty()) return;
    std::vector<Weight> contribution(mirror.size());
    for (std::size_t i = 0; i < g_.hubs.size(); ++i) {
      const VertexId h = g_.hubs[i];
      contribution[i] = g_.part.owner(h) == comm_.rank()
                            ? core_.dist[g_.part.local(h)]
                            : mirror[i];
    }
    mirror = comm_.allreduce_vec<Weight>(
        contribution, [](Weight a, Weight b) { return b < a ? b : a; });
  }

  // -------------------------------------------------------- checkpointing

  /// Resume from the installed snapshot if every rank holds a usable one
  /// for the same epoch of the same run.  Returns the bucket to resume
  /// from (0 = fresh start).  Collective: all ranks agree on the outcome.
  std::uint64_t try_restore() {
    if (ckpt_ == nullptr) return 0;
    const std::size_t local_n = core_.local_n;
    const bool usable = ckpt_->valid &&
                        ckpt_->roots_digest == roots_digest_ &&
                        ckpt_->dist.size() == local_n &&
                        ckpt_->parent.size() == local_n &&
                        ckpt_->hub_mirror.size() == core_.hub_mirror.size();
    // All ranks must restore the same epoch or none at all; a token of
    // kNone marks "no snapshot here".
    const std::uint64_t token = usable ? ckpt_->last_bucket : BucketQueue::kNone;
    const std::uint64_t lo = comm_.allreduce_min(token);
    const std::uint64_t hi = comm_.allreduce_max(token);
    if (lo != hi || lo == BucketQueue::kNone) {
      ckpt_->clear();  // stale or partial cut: start fresh everywhere
      return 0;
    }
    ckpt_->verify();  // throws CheckpointError on bit rot

    core_.dist = ckpt_->dist;
    core_.parent = ckpt_->parent;
    core_.hub_mirror = ckpt_->hub_mirror;
    // The queue is a function of the distances: pending vertices are
    // exactly those whose bucket lies beyond the last drained epoch.
    // Entries the constructor queued below the cursor go stale harmlessly
    // (the scan starts past them and never extracts their buckets).
    for (LocalId v = 0; v < static_cast<LocalId>(local_n); ++v) {
      if (core_.dist[v] == kInfDistance) continue;
      const std::uint64_t b = core_.bucket_of(core_.dist[v]);
      if (b > ckpt_->last_bucket) core_.queue.update(v, b);
    }
    stats_.buckets_processed = ckpt_->buckets_done;
    ++stats_.restores;
    return ckpt_->last_bucket + 1;
  }

  /// Snapshot after bucket `k` when the interval says so.  Purely local —
  /// every rank reaches the same decision at the same epoch, so the
  /// per-rank snapshots form a consistent global cut without a collective.
  void maybe_checkpoint(std::uint64_t k) {
    if (ckpt_ == nullptr || config_.checkpoint_interval == 0) return;
    if (++buckets_since_ckpt_ < config_.checkpoint_interval) return;
    buckets_since_ckpt_ = 0;
    util::Timer timer;
    ckpt_->roots_digest = roots_digest_;
    ckpt_->last_bucket = k;
    ckpt_->buckets_done = stats_.buckets_processed;
    ckpt_->dist = core_.dist;
    ckpt_->parent = core_.parent;
    ckpt_->hub_mirror = core_.hub_mirror;
    ckpt_->seal();
    ++stats_.checkpoints;
    stats_.checkpoint_seconds += timer.seconds();
  }

  // ------------------------------------------------------------- members

  simmpi::Comm& comm_;
  CheckpointState* ckpt_;
  const graph::DistGraph& g_;
  const SsspConfig& config_;
  SsspStats& stats_;
  std::uint64_t roots_digest_ = 0;
  std::uint64_t buckets_since_ckpt_ = 0;

  RelaxCore core_;
  std::vector<std::uint64_t> r_tag_;
  std::vector<std::uint64_t> split_;       // light/heavy boundary per vertex
  std::vector<std::uint64_t> pull_split_;  // same for pull source groups

  std::vector<std::vector<Msg>> outbox_;
  bool pull_available_ = false;
};

/// Run the engine with the wire record the config selects.
SsspResult run_engine(simmpi::Comm& comm, const graph::DistGraph& g,
                      const std::vector<VertexId>& roots,
                      const SsspConfig& config, SsspStats* stats,
                      CheckpointState* ckpt = nullptr,
                      const WarmStart* warm = nullptr) {
  SsspStats local_stats;
  SsspStats& s = stats != nullptr ? *stats : local_stats;
  return with_wire_record(config, g.num_vertices, [&](auto record) {
    Engine<decltype(record)> engine(comm, g, roots, config, s, ckpt, warm);
    return engine.run();
  });
}

}  // namespace

SsspResult delta_stepping(simmpi::Comm& comm, const graph::DistGraph& g,
                          VertexId root, const SsspConfig& config,
                          SsspStats* stats) {
  return run_engine(comm, g, {root}, config, stats);
}

SsspResult delta_stepping_multi(simmpi::Comm& comm, const graph::DistGraph& g,
                                const std::vector<VertexId>& roots,
                                const SsspConfig& config, SsspStats* stats) {
  return run_engine(comm, g, roots, config, stats);
}

SsspResult delta_stepping_repair(simmpi::Comm& comm,
                                 const graph::DistGraph& g, VertexId root,
                                 const WarmStart& warm,
                                 const SsspConfig& config, SsspStats* stats) {
  if (config.checkpoint_interval != 0 || config.deadline_buckets != 0) {
    throw std::invalid_argument(
        "delta_stepping_repair: checkpoint/deadline features are rejected");
  }
  return run_engine(comm, g, {root}, config, stats, nullptr, &warm);
}

SsspResult delta_stepping_checkpointed(simmpi::Comm& comm,
                                       const graph::DistGraph& g,
                                       VertexId root,
                                       const SsspConfig& config,
                                       CheckpointState* ckpt,
                                       SsspStats* stats) {
  return run_engine(comm, g, {root}, config, stats, ckpt);
}

SequentialResult gather_result(simmpi::Comm& comm, const graph::DistGraph& g,
                               const SsspResult& mine) {
  // Block partitions are contiguous in rank order, so concatenating the
  // per-rank slices yields globally-indexed vectors directly.
  SequentialResult whole;
  whole.dist = comm.allgatherv(mine.dist);
  whole.parent = comm.allgatherv(mine.parent);
  if (whole.dist.size() != g.num_vertices ||
      whole.parent.size() != g.num_vertices) {
    throw std::logic_error("gather_result: size mismatch");
  }
  return whole;
}

}  // namespace g500::core
