// Repository benchmark program.
//
// Runs one named workload through the public entry points of graph, core,
// simmpi, serve and dyn, times every call from the outside (wall and
// thread CPU, per rank), reads the counters those calls already return,
// checks every output, and writes the raw measurements as one JSON
// document.  run.py reduces that document to the benchmark's metrics; see
// README.md for the workloads and the metric definitions.
//
// Usage:
//   g500_perfbench --workload kron-g500|grid-road|serve-mutate --seed N
//                  --seconds S --trace 0|1 --out FILE
//
// The workload sizes are fixed; --seconds sets how much work a run does.
//
// With --trace 1 every timed call also records a span (name, start, end,
// parent, rank, root or tick id) in memory; the spans are written with the
// rest of the document when the run ends.  Exit code 0 means every check
// passed; 1 means a check failed (the document is still written); 2 means
// the run could not complete.
#include <pthread.h>
#include <sched.h>
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/delta_stepping.hpp"
#include "core/runner.hpp"
#include "core/validate.hpp"
#include "dyn/mutable_graph.hpp"
#include "dyn/repair.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/kronecker.hpp"
#include "serve/service.hpp"
#include "serve/workload.hpp"
#include "simmpi/comm.hpp"
#include "util/buildinfo.hpp"
#include "util/json.hpp"
#include "util/options.hpp"
#include "util/random.hpp"

namespace {

using namespace g500;
using graph::VertexId;
using util::Json;

// ---------------------------------------------------------------------------
// Clocks.
// ---------------------------------------------------------------------------

using SteadyClock = std::chrono::steady_clock;

double now_s() {
  return std::chrono::duration<double>(SteadyClock::now().time_since_epoch())
      .count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void sleep_until_s(double due) {
  std::this_thread::sleep_until(SteadyClock::time_point(
      std::chrono::duration_cast<SteadyClock::duration>(
          std::chrono::duration<double>(due))));
}

// ---------------------------------------------------------------------------
// Span recorder.  Lane 0 is the main thread, lane r + 1 is rank r; each
// lane is written only by its own thread.  A span opened on a rank lane
// with nothing open there is parented to the main-thread span that is
// open at that moment (the main thread is blocked inside World::run, so
// reading its stack is race-free: the write happened before the rank
// threads started).
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  double start;
  double end;
  int parent_lane;
  int parent_index;
  std::int64_t tag;  ///< root vertex, tick or pass id; -1 when none
};

class Tracer {
 public:
  explicit Tracer(int ranks)
      : spans_(static_cast<std::size_t>(ranks) + 1),
        stacks_(static_cast<std::size_t>(ranks) + 1) {}

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span; returns its index on the lane (-1 when disabled).
  int open(int lane, const char* name, std::int64_t tag) {
    if (!enabled_) return -1;
    auto& stack = stacks_[static_cast<std::size_t>(lane)];
    int parent_lane = lane;
    int parent_index = -1;
    if (!stack.empty()) {
      parent_index = stack.back();
    } else if (lane != 0 && !stacks_[0].empty()) {
      parent_lane = 0;
      parent_index = stacks_[0].back();
    }
    auto& lane_spans = spans_[static_cast<std::size_t>(lane)];
    lane_spans.push_back(Span{name, now_s(), 0.0, parent_lane, parent_index,
                              tag});
    const int index = static_cast<int>(lane_spans.size()) - 1;
    stack.push_back(index);
    return index;
  }

  void close(int lane, int index) {
    if (index < 0) return;
    spans_[static_cast<std::size_t>(lane)][static_cast<std::size_t>(index)]
        .end = now_s();
    stacks_[static_cast<std::size_t>(lane)].pop_back();
  }

  [[nodiscard]] Json to_json(double epoch) const {
    Json lanes = Json::array();
    for (const auto& lane : spans_) {
      Json arr = Json::array();
      for (const auto& s : lane) {
        Json o = Json::array();
        o.push_back(s.name);
        o.push_back(s.start - epoch);
        o.push_back(s.end - epoch);
        o.push_back(s.parent_lane);
        o.push_back(s.parent_index);
        o.push_back(s.tag);
        arr.push_back(std::move(o));
      }
      lanes.push_back(std::move(arr));
    }
    return lanes;
  }

 private:
  bool enabled_ = false;
  std::vector<std::vector<Span>> spans_;
  std::vector<std::vector<int>> stacks_;
};

/// Pin the calling rank thread to its own CPU, counting down from the
/// highest CPU the process may use (the low CPUs take most interrupts).
/// Migrating rank threads made run-to-run timings several times noisier
/// on the reference host.  Best effort: a failed pin leaves the thread
/// where it was.
void pin_rank(int rank) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  std::vector<int> cpus;
  for (int c = CPU_SETSIZE - 1; c >= 0; --c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<std::size_t>(rank) % cpus.size()], &one);
  (void)pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

/// Wall and thread-CPU seconds of one timed call.
struct Timing {
  double wall = 0.0;
  double cpu = 0.0;
};

/// Time `fn` on `lane`, recording a span when tracing is on.
template <typename F>
Timing timed(Tracer& tracer, int lane, const char* name, std::int64_t tag,
             F&& fn) {
  const int index = tracer.open(lane, name, tag);
  const double c0 = thread_cpu_s();
  const double t0 = now_s();
  fn();
  Timing t{now_s() - t0, thread_cpu_s() - c0};
  tracer.close(lane, index);
  return t;
}

// ---------------------------------------------------------------------------
// Per-call records.
// ---------------------------------------------------------------------------

/// simmpi counters moved by one call on one rank.
struct CommDelta {
  std::uint64_t alltoallv_calls = 0;
  std::uint64_t alltoallv_bytes = 0;
  std::uint64_t allgather_calls = 0;
  std::uint64_t allgather_bytes = 0;
  std::uint64_t allreduce_calls = 0;
  std::uint64_t broadcast_calls = 0;
  std::uint64_t barriers = 0;
  std::uint64_t total_bytes = 0;
};

CommDelta comm_delta(const simmpi::CommStats& before,
                     const simmpi::CommStats& after) {
  CommDelta d;
  d.alltoallv_calls = after.alltoallv.calls - before.alltoallv.calls;
  d.alltoallv_bytes = after.alltoallv.bytes - before.alltoallv.bytes;
  d.allgather_calls = after.allgather.calls - before.allgather.calls;
  d.allgather_bytes = after.allgather.bytes - before.allgather.bytes;
  d.allreduce_calls = after.allreduce.calls - before.allreduce.calls;
  d.broadcast_calls = after.broadcast.calls - before.broadcast.calls;
  d.barriers = after.barriers - before.barriers;
  d.total_bytes = after.total_bytes() - before.total_bytes();
  return d;
}

Json to_json(const CommDelta& d) {
  Json o = Json::object();
  o["alltoallv_calls"] = d.alltoallv_calls;
  o["alltoallv_bytes"] = d.alltoallv_bytes;
  o["allgather_calls"] = d.allgather_calls;
  o["allgather_bytes"] = d.allgather_bytes;
  o["allreduce_calls"] = d.allreduce_calls;
  o["broadcast_calls"] = d.broadcast_calls;
  o["barriers"] = d.barriers;
  o["total_bytes"] = d.total_bytes;
  return o;
}

Json to_json(const core::SsspStats& s) {
  Json o = Json::object();
  o["buckets"] = s.buckets_processed;
  o["light_rounds"] = s.light_iterations;
  o["heavy_phases"] = s.heavy_phases;
  o["push_rounds"] = s.push_rounds;
  o["pull_rounds"] = s.pull_rounds;
  o["relax_generated"] = s.relax_generated;
  o["relax_sent"] = s.relax_sent;
  o["relax_applied"] = s.relax_applied;
  o["fused_local"] = s.fused_local;
  o["filtered_hub"] = s.filtered_hub;
  o["filtered_coalesce"] = s.filtered_coalesce;
  o["light_s"] = s.light_seconds;
  o["heavy_s"] = s.heavy_seconds;
  return o;
}

/// One rank's share of one timed call.
struct RankCall {
  Timing time;
  CommDelta comm;
};

Json to_json(const RankCall& c) {
  Json o = Json::object();
  o["wall_s"] = c.time.wall;
  o["cpu_s"] = c.time.cpu;
  o["comm"] = to_json(c.comm);
  return o;
}

/// One SSSP solve followed by its Graph 500 validation, on every rank.
struct SolveRecord {
  VertexId root = 0;
  std::uint64_t version = 0;  ///< graph version (serve-mutate checks)
  std::vector<RankCall> solve;
  std::vector<RankCall> validate;
  std::vector<core::SsspStats> stats;
  bool valid = false;
  std::uint64_t reachable = 0;
  std::uint64_t edges_checked = 0;
  std::string error;  ///< first validation error, empty when valid

  explicit SolveRecord(int ranks = 0)
      : solve(static_cast<std::size_t>(ranks)),
        validate(static_cast<std::size_t>(ranks)),
        stats(static_cast<std::size_t>(ranks)) {}
};

Json to_json(const SolveRecord& r) {
  Json o = Json::object();
  o["root"] = r.root;
  o["version"] = r.version;
  o["valid"] = r.valid;
  o["reachable"] = r.reachable;
  o["edges_checked"] = r.edges_checked;
  o["error"] = r.error;
  Json solve = Json::array();
  Json validate = Json::array();
  Json stats = Json::array();
  for (std::size_t i = 0; i < r.solve.size(); ++i) {
    solve.push_back(to_json(r.solve[i]));
    validate.push_back(to_json(r.validate[i]));
    stats.push_back(to_json(r.stats[i]));
  }
  o["solve"] = std::move(solve);
  o["validate"] = std::move(validate);
  o["stats"] = std::move(stats);
  return o;
}

/// Solve from `root` and validate the result; rank-local half of a
/// SolveRecord (every rank calls it in lockstep).  Returns the result so
/// callers can compare it against served answers.
core::SsspResult solve_and_validate(simmpi::Comm& comm,
                                    const graph::DistGraph& g, VertexId root,
                                    Tracer& tracer, SolveRecord& rec) {
  const int rank = comm.rank();
  const int lane = rank + 1;
  const auto tag = static_cast<std::int64_t>(root);
  core::SsspResult result;
  auto before = comm.stats();
  rec.solve[rank].time = timed(tracer, lane, "core.delta_stepping", tag, [&] {
    result = core::delta_stepping(comm, g, root, {}, &rec.stats[rank]);
  });
  auto after = comm.stats();
  rec.solve[rank].comm = comm_delta(before, after);
  core::ValidationReport report;
  rec.validate[rank].time = timed(tracer, lane, "core.validate_sssp", tag, [&] {
    report = core::validate_sssp(comm, g, root, result);
  });
  rec.validate[rank].comm = comm_delta(after, comm.stats());
  if (rank == 0) {
    rec.root = root;
    rec.reachable = report.reachable;
    rec.edges_checked = report.edges_checked;
    // A solve that reaches fewer than 2 vertices measures no work.
    rec.valid = report.ok && report.reachable >= 2;
    if (!report.ok) {
      rec.error = report.errors.empty() ? "validation failed"
                                        : report.errors.front();
    } else if (report.reachable < 2) {
      rec.error = "degenerate solve: root reaches " +
                  std::to_string(report.reachable) + " vertices";
    }
  }
  return result;
}

/// Graph resident bytes on this rank (CSR plus pull index).
std::uint64_t graph_bytes(const graph::DistGraph& g) {
  return g.csr.resident_bytes() + g.pull.resident_bytes();
}

/// Return the heap a finished pass or session freed to the OS, so the
/// next one starts from the same footprint.  Without it the peak RSS
/// depended on how the fresh rank threads of later passes happened to
/// reuse the old threads' allocator arenas: its spread over ten seeds of
/// grid-road was 0.16 of its median on the reference host, 0.03-0.09
/// with it.
void release_free_heap() { (void)malloc_trim(0); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

/// Independent sub-seeds derived from the one benchmark seed.
struct Seeds {
  std::uint64_t kron_seed1 = 0;
  std::uint64_t kron_seed2 = 0;
  std::uint64_t weight_seed = 0;
  std::uint64_t root_seed = 0;
  std::uint64_t serve_seed = 0;
  std::uint64_t update_seed = 0;
  std::uint64_t check_seed = 0;

  explicit Seeds(std::uint64_t seed) {
    util::SplitMix64 rng(seed);
    kron_seed1 = rng();
    kron_seed2 = rng();
    weight_seed = rng();
    root_seed = rng();
    serve_seed = rng();
    update_seed = rng();
    check_seed = rng();
  }

  [[nodiscard]] Json to_json() const {
    Json o = Json::object();
    o["kron_seed1"] = kron_seed1;
    o["kron_seed2"] = kron_seed2;
    o["weight_seed"] = weight_seed;
    o["root_seed"] = root_seed;
    o["serve_seed"] = serve_seed;
    o["update_seed"] = update_seed;
    o["check_seed"] = check_seed;
    return o;
  }
};

/// Per-rank setup times of one graph construction.
struct SetupRecord {
  std::vector<Timing> generate;
  std::vector<Timing> build;
  std::vector<std::uint64_t> graph_bytes;
  std::uint64_t input_edges = 0;
  std::uint64_t directed_edges = 0;
  VertexId vertices = 0;

  explicit SetupRecord(int ranks = 0)
      : generate(static_cast<std::size_t>(ranks)),
        build(static_cast<std::size_t>(ranks)),
        graph_bytes(static_cast<std::size_t>(ranks)) {}
};

Json to_json(const SetupRecord& s) {
  Json o = Json::object();
  Json gen = Json::array();
  Json build = Json::array();
  Json bytes = Json::array();
  for (std::size_t i = 0; i < s.generate.size(); ++i) {
    gen.push_back(s.generate[i].wall);
    build.push_back(s.build[i].wall);
    bytes.push_back(s.graph_bytes[i]);
  }
  o["generate_s"] = std::move(gen);
  o["build_s"] = std::move(build);
  o["graph_bytes"] = std::move(bytes);
  o["input_edges"] = s.input_edges;
  o["directed_edges"] = s.directed_edges;
  o["vertices"] = s.vertices;
  return o;
}

/// What a workload's graph is: a Graph 500 Kronecker graph or a weighted
/// 2-D grid.
struct GraphSpec {
  bool grid = false;
  int scale = 17;
  int edgefactor = 16;
  VertexId grid_side = 512;
};

/// Generate this rank's input slice and build the distributed graph,
/// timing both phases.
graph::DistGraph make_graph(simmpi::Comm& comm, const GraphSpec& spec,
                            const Seeds& seeds, Tracer& tracer,
                            SetupRecord& rec) {
  const int rank = comm.rank();
  const int lane = rank + 1;
  graph::EdgeList slice;
  rec.generate[rank] = timed(tracer, lane, "graph.generate", -1, [&] {
    if (spec.grid) {
      slice = graph::slice_for_rank(
          graph::grid_graph(spec.grid_side, spec.grid_side, seeds.weight_seed),
          rank, comm.size());
    } else {
      graph::KroneckerParams params;
      params.scale = spec.scale;
      params.edgefactor = spec.edgefactor;
      params.seed1 = seeds.kron_seed1;
      params.seed2 = seeds.kron_seed2;
      const std::uint64_t total = params.num_edges();
      const auto P = static_cast<std::uint64_t>(comm.size());
      const auto r = static_cast<std::uint64_t>(rank);
      slice.num_vertices = params.num_vertices();
      slice.edges =
          graph::kronecker_slice(params, total * r / P, total * (r + 1) / P);
    }
  });
  graph::DistGraph g;
  rec.build[rank] = timed(tracer, lane, "graph.build", -1, [&] {
    g = graph::build_distributed(comm, slice, slice.num_vertices);
  });
  rec.graph_bytes[rank] = graph_bytes(g);
  if (rank == 0) {
    rec.input_edges = g.num_input_edges;
    rec.directed_edges = g.num_directed_edges;
    rec.vertices = g.num_vertices;
  }
  return g;
}

/// The first two solves of `roots` on a single rank: the plain
/// single-threaded baseline the traced run reports beside the 2-rank
/// figures.
std::vector<SolveRecord> one_rank_solves(const GraphSpec& spec,
                                         const Seeds& seeds,
                                         const std::vector<VertexId>& roots,
                                         Tracer& tracer) {
  simmpi::World solo(1);
  SetupRecord setup(1);
  const std::size_t count = std::min<std::size_t>(roots.size(), 2);
  std::vector<SolveRecord> out(count, SolveRecord(1));
  timed(tracer, 0, "bench.one_rank", -1, [&] {
    solo.run([&](simmpi::Comm& comm) {
      const graph::DistGraph g = make_graph(comm, spec, seeds, tracer, setup);
      for (std::size_t i = 0; i < count; ++i) {
        auto& rec = out[i];
        const auto before = comm.stats();
        rec.solve[0].time =
            timed(tracer, 1, "core.delta_stepping_1rank",
                  static_cast<std::int64_t>(roots[i]), [&] {
                    (void)core::delta_stepping(comm, g, roots[i], {},
                                               &rec.stats[0]);
                  });
        rec.solve[0].comm = comm_delta(before, comm.stats());
        rec.root = roots[i];
        rec.valid = true;
      }
    });
  });
  return out;
}

// ---------------------------------------------------------------------------
// Protocol workloads (kron-g500, grid-road): the Graph 500 SSSP protocol,
// repeated in passes.  Every pass rebuilds the graph (so set-up is sampled
// once per pass) and solves and validates its own slice of the sampled
// roots.  The pass count is a function of --seconds only (a nominal pass
// length sizes it), so a run does the same work on every host and commit.
// ---------------------------------------------------------------------------

constexpr int kRootsPerPass = 8;
constexpr int kMinPasses = 3;

struct ProtocolParams {
  GraphSpec graph;
  int ranks = 2;
  double nominal_pass_s = 7.5;
};

struct ProtocolPass {
  SetupRecord setup;
  std::vector<SolveRecord> roots;
  double wall_s = 0.0;
  bool traced = false;
};

int run_protocol(const ProtocolParams& p, const Seeds& seeds, double seconds,
                 bool trace, Tracer& tracer, Json& out) {
  simmpi::World world(p.ranks);
  std::vector<ProtocolPass> passes;
  std::vector<VertexId> roots;
  int root_span = -1;
  const int num_passes = std::max(
      kMinPasses, static_cast<int>(std::lround(seconds / p.nominal_pass_s)));

  // The passes to run, as (root slice, traced).  Each slice is its own 8
  // of the sampled roots.  The traced run runs slice 0 twice untraced (a
  // warm-up, then a warm baseline), then slice 0 again traced and the
  // remaining slices traced; the baseline and the first traced pass do
  // identical work, which gives the tracing overhead.
  std::vector<std::pair<int, bool>> plan;
  if (trace) {
    plan = {{0, false}, {0, false}};
    for (int slice = 0; slice + 1 < num_passes; ++slice) {
      plan.emplace_back(slice, true);
    }
  } else {
    for (int slice = 0; slice < num_passes; ++slice) {
      plan.emplace_back(slice, false);
    }
  }

  for (std::size_t pass = 0; pass < plan.size(); ++pass) {
    const auto [slice, traced] = plan[pass];
    if (traced && !tracer.enabled()) {
      tracer.set_enabled(true);
      root_span = tracer.open(0, "bench.run", -1);
    }
    ProtocolPass ps;
    ps.traced = traced;
    ps.setup = SetupRecord(p.ranks);
    ps.roots.assign(static_cast<std::size_t>(kRootsPerPass),
                    SolveRecord(p.ranks));
    const double t0 = now_s();
    const auto pass_tag = static_cast<std::int64_t>(pass);
    timed(tracer, 0, "simmpi.world_run", pass_tag, [&] {
      world.run([&](simmpi::Comm& comm) {
        const int lane = comm.rank() + 1;
        pin_rank(comm.rank());
        const int rank_span = tracer.open(lane, "bench.rank", pass_tag);
        const graph::DistGraph g =
            make_graph(comm, p.graph, seeds, tracer, ps.setup);
        std::vector<VertexId> mine;
        timed(tracer, lane, "core.sample_roots", -1, [&] {
          mine = core::sample_roots(comm, g, num_passes * kRootsPerPass,
                                    seeds.root_seed);
        });
        if (static_cast<int>(mine.size()) != num_passes * kRootsPerPass) {
          throw std::runtime_error("too few eligible roots");
        }
        if (comm.rank() == 0) roots = mine;
        for (int i = 0; i < kRootsPerPass; ++i) {
          const VertexId root =
              mine[static_cast<std::size_t>(slice * kRootsPerPass + i)];
          auto& rec = ps.roots[static_cast<std::size_t>(i)];
          timed(tracer, lane, "bench.root", static_cast<std::int64_t>(root),
                [&] { (void)solve_and_validate(comm, g, root, tracer, rec); });
        }
        tracer.close(lane, rank_span);
      });
    });
    ps.wall_s = now_s() - t0;
    passes.push_back(std::move(ps));
    release_free_heap();
  }

  // Single-rank baseline on the same graph and roots (traced run only).
  std::vector<SolveRecord> one_rank;
  if (trace) {
    one_rank = one_rank_solves(p.graph, seeds, roots, tracer);
  }
  tracer.close(0, root_span);

  int failed = 0;
  int attempted = 0;
  Json jpasses = Json::array();
  for (const auto& ps : passes) {
    Json jp = Json::object();
    jp["wall_s"] = ps.wall_s;
    jp["traced"] = ps.traced;
    jp["setup"] = to_json(ps.setup);
    Json jr = Json::array();
    for (const auto& rec : ps.roots) {
      ++attempted;
      if (!rec.valid) ++failed;
      jr.push_back(to_json(rec));
    }
    jp["roots"] = std::move(jr);
    jpasses.push_back(std::move(jp));
  }
  Json jone = Json::array();
  for (const auto& rec : one_rank) jone.push_back(to_json(rec));
  out["passes"] = std::move(jpasses);
  out["one_rank"] = std::move(jone);
  out["attempted"] = attempted;
  out["failed"] = failed;
  return failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------------
// serve-mutate: a mutable Kronecker graph behind the distance service.
// ---------------------------------------------------------------------------

struct ServeParams {
  GraphSpec graph{false, 14, 16, 0};
  int ranks = 2;
  std::size_t landmarks = 4;
  int universe_roots = 256;     ///< Zipf-ranked query sources
  int pinned_trees = 2;         ///< SSSP trees kept repaired across commits
  /// 10 queries/s at 10 ms ticks, about a quarter of the closed-loop
  /// saturated_qps (41/s median on the reference host), so queueing does
  /// not magnify run-to-run speed changes in the paced latencies.
  double arrivals_per_tick = 0.1;
  double tick_ms = 10.0;        ///< open-loop pacing
  double zipf_s = 0.99;         ///< source popularity exponent
  double trace_share = 0.6;     ///< share of --seconds the paced trace spans
  int closed_sessions = 2;      ///< closed-loop repetitions of the trace
  int update_batches = 12;      ///< edge-update batches per trace, evenly spaced
  VertexId update_window = 64;  ///< vertex window one batch touches
  int update_inserts = 12;
  int update_touches = 4;
  std::uint64_t compact_every = 12;
  int spot_checks = 32;         ///< sampled answers re-solved after timing
};

/// One answered query as rank 0 saw it.
struct AnswerRecord {
  std::uint64_t id = 0;
  VertexId root = 0;
  VertexId target = 0;
  graph::Weight distance = 0.0f;
  std::uint64_t version = 0;
  std::uint64_t wait_ticks = 0;
  int outcome = 0;
  double latency_s = 0.0;  ///< from the arrival tick's due time to answer
};

bool same_answer(const AnswerRecord& a, const AnswerRecord& b) {
  return a.id == b.id && a.root == b.root && a.target == b.target &&
         std::memcmp(&a.distance, &b.distance, sizeof(a.distance)) == 0 &&
         a.version == b.version && a.outcome == b.outcome;
}

/// One edge-update batch as it was applied.
struct UpdateRecord {
  std::uint64_t tick = 0;
  std::uint64_t version = 0;
  std::uint64_t edges_applied = 0;
  bool compacted = false;
  double latency_s = 0.0;  ///< due time to commit + invalidate + repair done
  double commit_s = 0.0;
  double invalidate_s = 0.0;
  double repair_s = 0.0;
  std::uint64_t roots_retained = 0;
  std::uint64_t roots_invalidated = 0;
  std::uint64_t points_retained = 0;
  std::uint64_t points_invalidated = 0;
};

using LiveEdges = std::map<std::pair<VertexId, VertexId>, graph::Weight>;

/// Stage one localized batch inside a random `window`-wide id range:
/// fresh inserts plus deletes or weight doublings of edges earlier batches
/// inserted (tracked in `live`), so repair exercises both the decrease
/// seeding and the suspect invalidation paths.
std::vector<dyn::EdgeUpdate> localized_batch(util::SplitMix64& rng,
                                             VertexId n, VertexId window,
                                             int inserts, int touches,
                                             const LiveEdges& live) {
  std::vector<dyn::EdgeUpdate> batch;
  const VertexId win = std::min(window, n);
  const VertexId base = win >= n ? 0 : rng.next_below(n - win);
  for (int i = 0; i < inserts; ++i) {
    dyn::EdgeUpdate u;
    u.u = base + rng.next_below(win);
    u.v = base + rng.next_below(win);
    u.weight = 0.05f + 0.9f * static_cast<graph::Weight>(rng.next_double());
    u.op = dyn::UpdateOp::kInsert;
    batch.push_back(u);
  }
  if (!live.empty()) {
    const int stride = std::max<int>(
        1, static_cast<int>(live.size()) / std::max(1, touches));
    int idx = 0;
    int touched = 0;
    for (const auto& [key, w] : live) {
      if (idx++ % stride != 0 || touched >= touches) continue;
      ++touched;
      dyn::EdgeUpdate u;
      u.u = key.first;
      u.v = key.second;
      if (rng.next_below(2) == 0) {
        u.op = dyn::UpdateOp::kDelete;
      } else {
        u.op = dyn::UpdateOp::kSet;
        u.weight = w * 2.0f;
      }
      batch.push_back(u);
    }
  }
  return batch;
}

void fold_applied(const dyn::CommitSummary& summary, LiveEdges& live) {
  for (const auto& a : summary.applied) {
    const auto key = std::make_pair(a.u, a.v);
    if (a.removed != 0) {
      live.erase(key);
    } else {
      live[key] = a.new_weight;
    }
  }
}

/// Everything one serving session produced.
struct SessionRecord {
  bool paced = false;
  bool traced = false;
  SetupRecord setup;
  std::vector<Timing> serve_init;       ///< per rank
  double setup_s = 0.0;                 ///< rank 0: generate..pinned solves
  double loop_s = 0.0;                  ///< tick loop incl. drain
  double wall_s = 0.0;                  ///< whole session (main thread)
  std::vector<AnswerRecord> answers;
  std::vector<UpdateRecord> updates;
  std::vector<std::vector<dyn::EdgeUpdate>> batches;  ///< as staged
  std::vector<double> tick_s;           ///< rank 0, ticks that answered
  std::vector<double> late_s;           ///< rank 0, per tick start
  std::uint64_t ticks = 0;
  std::uint64_t compactions = 0;
  std::vector<std::uint64_t> repair_relax_applied;  ///< per rank, all repairs
  serve::ServiceMetrics metrics;
  /// pinned[rank][tree][version]: repaired distance slices.
  std::vector<std::vector<std::vector<std::vector<graph::Weight>>>> pinned;

  explicit SessionRecord(int ranks = 0)
      : setup(ranks),
        serve_init(static_cast<std::size_t>(ranks)),
        repair_relax_applied(static_cast<std::size_t>(ranks)),
        pinned(static_cast<std::size_t>(ranks)) {}
};

/// Run the serving session: set up the mutable graph, the service and the
/// pinned trees, then drive the fixed trace either paced on the wall
/// clock (open loop) or with ticks back to back (closed loop).
void run_session(simmpi::World& world, const ServeParams& p,
                 const Seeds& seeds, const serve::Workload& workload,
                 const std::vector<VertexId>& pinned_roots,
                 const std::vector<bool>& update_tick, bool paced,
                 Tracer& tracer, SessionRecord& rec) {
  const std::uint64_t horizon = workload.config().ticks;
  const double tick_s = p.tick_ms / 1e3;
  rec.paced = paced;
  rec.traced = tracer.enabled();
  world.run([&](simmpi::Comm& comm) {
    const int rank = comm.rank();
    const int lane = rank + 1;
    pin_rank(rank);
    const int rank_span = tracer.open(lane, "bench.rank", -1);
    const double setup_start = now_s();
    dyn::MutableGraph::Config mcfg;
    mcfg.compact_every = p.compact_every;
    dyn::MutableGraph mg(comm,
                         make_graph(comm, p.graph, seeds, tracer, rec.setup),
                         mcfg);
    serve::ServeConfig sc;
    sc.queue_depth = 4096;
    sc.oracle.num_landmarks = p.landmarks;
    sc.graph_version = mg.version();
    std::optional<serve::DistanceService> svc;
    rec.serve_init[rank] = timed(tracer, lane, "serve.init", -1, [&] {
      svc.emplace(comm, mg.view(), sc);
    });
    std::vector<core::SsspResult> trees;
    for (const VertexId root : pinned_roots) {
      timed(tracer, lane, "core.delta_stepping",
            static_cast<std::int64_t>(root), [&] {
              trees.push_back(core::delta_stepping(comm, mg.view(), root));
            });
    }
    auto& snapshots = rec.pinned[static_cast<std::size_t>(rank)];
    snapshots.assign(trees.size(), {});
    for (std::size_t i = 0; i < trees.size(); ++i) {
      snapshots[i].push_back(trees[i].dist);
    }
    if (rank == 0) rec.setup_s = now_s() - setup_start;

    // Shared time base: rank 0's clock after set-up.
    double base = now_s();
    comm.broadcast(base, 0);
    util::SplitMix64 stage_rng(seeds.update_seed);
    LiveEdges live;
    // A tick is due at its scheduled time when paced, and when the loop
    // reaches it when ticks run back to back.
    std::vector<double> due_at;
    std::uint64_t tick = 0;
    for (;; ++tick) {
      const bool arrivals_open = tick < horizon;
      if (!arrivals_open && svc->pending() == 0) break;
      if (paced) {
        due_at.push_back(base + static_cast<double>(tick) * tick_s);
        sleep_until_s(due_at.back());
      } else {
        due_at.push_back(now_s());
      }
      const double tick_start = now_s();
      if (rank == 0) rec.late_s.push_back(tick_start - due_at.back());

      if (arrivals_open && update_tick[tick]) {
        UpdateRecord up;
        up.tick = tick;
        std::vector<dyn::EdgeUpdate> batch;
        if (rank == 0) {
          batch = localized_batch(stage_rng, mg.view().num_vertices,
                                  p.update_window, p.update_inserts,
                                  p.update_touches, live);
          for (const auto& u : batch) mg.stage(u);
        }
        dyn::CommitSummary summary;
        up.commit_s = timed(tracer, lane, "dyn.commit_batch",
                            static_cast<std::int64_t>(tick),
                            [&] { summary = mg.commit_batch(); })
                          .wall;
        fold_applied(summary, live);
        const auto m0 = svc->metrics();
        up.invalidate_s = timed(tracer, lane, "serve.note_graph_update",
                                static_cast<std::int64_t>(tick),
                                [&] { svc->note_graph_update(summary); })
                              .wall;
        const auto& m1 = svc->metrics();
        std::uint64_t repaired = 0;
        up.repair_s = timed(tracer, lane, "dyn.incremental_sssp_repair",
                            static_cast<std::int64_t>(tick), [&] {
                              for (std::size_t i = 0; i < trees.size(); ++i) {
                                dyn::RepairStats rs;
                                dyn::incremental_sssp_repair(
                                    comm, mg.view(), pinned_roots[i], summary,
                                    trees[i], {}, &rs);
                                repaired += rs.sssp.relax_applied;
                                snapshots[i].push_back(trees[i].dist);
                              }
                            })
                          .wall;
        rec.repair_relax_applied[static_cast<std::size_t>(rank)] += repaired;
        if (rank == 0) {
          up.latency_s = now_s() - due_at[tick];
          up.version = summary.graph_version;
          up.edges_applied = summary.edges_applied();
          up.compacted = summary.compacted;
          up.roots_retained = m1.roots_retained - m0.roots_retained;
          up.roots_invalidated = m1.roots_invalidated - m0.roots_invalidated;
          up.points_retained = m1.points_retained - m0.points_retained;
          up.points_invalidated =
              m1.points_invalidated - m0.points_invalidated;
          rec.updates.push_back(up);
          rec.batches.push_back(std::move(batch));
        }
      }

      if (arrivals_open) {
        for (const auto& q : workload.arrivals(tick)) (void)svc->submit(q);
      }
      std::vector<serve::Answer> answers;
      const Timing t = timed(tracer, lane, "serve.tick",
                             static_cast<std::int64_t>(tick), [&] {
                               answers = svc->tick(tick, !arrivals_open);
                             });
      if (rank == 0) {
        const double done = now_s();
        if (!answers.empty()) rec.tick_s.push_back(t.wall);
        for (const auto& a : answers) {
          AnswerRecord ar;
          ar.id = a.id;
          ar.root = a.root;
          ar.target = a.target;
          ar.distance = a.distance;
          ar.version = a.graph_version;
          ar.wait_ticks = a.latency_ticks();
          ar.outcome = static_cast<int>(a.outcome);
          ar.latency_s = done - due_at[a.arrival_tick];
          rec.answers.push_back(ar);
        }
      }
    }
    if (rank == 0) {
      rec.loop_s = now_s() - base;
      rec.ticks = tick;
      rec.metrics = svc->metrics();
      rec.compactions = mg.stats().compactions;
    }
    tracer.close(lane, rank_span);
  });
}

int run_serve(const ServeParams& p, const Seeds& seeds, double seconds,
              bool trace, Tracer& tracer, Json& out) {
  simmpi::World world(p.ranks);

  // Query sources and pinned trees come from the base graph.
  std::vector<VertexId> universe;
  VertexId num_vertices = 0;
  {
    SetupRecord scratch(p.ranks);
    Tracer off(p.ranks);
    world.run([&](simmpi::Comm& comm) {
      const auto g = make_graph(comm, p.graph, seeds, off, scratch);
      auto roots = core::sample_roots(comm, g, p.universe_roots,
                                      seeds.root_seed);
      if (comm.rank() == 0) {
        universe = std::move(roots);
        num_vertices = g.num_vertices;
      }
    });
  }
  if (static_cast<int>(universe.size()) < p.pinned_trees) {
    throw std::runtime_error("too few eligible roots");
  }
  const std::vector<VertexId> pinned_roots(
      universe.begin(), universe.begin() + p.pinned_trees);

  // The trace ends at the tick where a fixed query count has arrived, so
  // every seed serves the same number of queries.
  serve::WorkloadConfig wc;
  wc.seed = seeds.serve_seed;
  wc.arrivals_per_tick = p.arrivals_per_tick;
  wc.zipf_s = p.zipf_s;
  wc.roots = universe;
  wc.num_vertices = num_vertices;
  const double nominal_ticks =
      std::max(1.0, p.trace_share * seconds * 1e3 / p.tick_ms);
  const auto queries = static_cast<std::size_t>(
      std::max(1.0, std::round(nominal_ticks * p.arrivals_per_tick)));
  wc.ticks = static_cast<std::uint64_t>(4.0 * nominal_ticks);
  {
    const serve::Workload probe(wc);
    std::size_t arrived = 0;
    std::uint64_t tick = 0;
    while (arrived < queries && tick < wc.ticks) {
      arrived += probe.arrivals(tick++).size();
    }
    wc.ticks = tick;
  }
  const serve::Workload workload(wc);

  // A fixed number of update batches per trace, evenly spaced inside it,
  // so a short run still commits, invalidates and repairs.
  std::vector<bool> update_tick(wc.ticks, false);
  for (int k = 1; k <= p.update_batches; ++k) {
    const std::uint64_t t = wc.ticks * static_cast<std::uint64_t>(k) /
                            static_cast<std::uint64_t>(p.update_batches + 1);
    if (t > 0) update_tick[t] = true;
  }

  // Sessions: the paced open loop (latency), then the closed loop over the
  // same trace (saturated throughput), repeated so its figures are medians.
  // The traced run runs the closed loop twice untraced (a warm-up, then a
  // warm baseline) and once traced, which gives the tracing overhead on
  // identical work, then the paced loop traced.
  std::vector<SessionRecord> sessions;
  int root_span = -1;
  const auto session = [&](bool paced) {
    SessionRecord rec(p.ranks);
    const double t0 = now_s();
    timed(tracer, 0, "simmpi.world_run",
          static_cast<std::int64_t>(sessions.size()), [&] {
            run_session(world, p, seeds, workload, pinned_roots, update_tick,
                        paced, tracer, rec);
          });
    rec.wall_s = now_s() - t0;
    sessions.push_back(std::move(rec));
    release_free_heap();
  };
  if (trace) {
    session(false);
    session(false);
    tracer.set_enabled(true);
    root_span = tracer.open(0, "bench.run", -1);
    session(false);
    session(true);
  } else {
    session(true);
    for (int i = 0; i < p.closed_sessions; ++i) session(false);
  }

  // ---- checks, after timing -------------------------------------------
  const SessionRecord& ref = sessions.front();
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto& s : sessions) {
    attempted += s.answers.size();
    for (const auto& a : s.answers) {
      if (a.outcome != static_cast<int>(serve::Outcome::kServed)) ++failed;
    }
    const std::uint64_t shed = s.metrics.shed;
    attempted += shed;
    failed += shed;
    // The service is a pure function of the submission sequence and tick
    // numbers, so every session must serve the identical answers and
    // apply the identical batches.
    bool same = s.answers.size() == ref.answers.size() &&
                s.batches.size() == ref.batches.size();
    for (std::size_t i = 0; same && i < s.answers.size(); ++i) {
      same = same_answer(s.answers[i], ref.answers[i]);
    }
    for (std::size_t r = 0; same && r < s.pinned.size(); ++r) {
      same = s.pinned[r] == ref.pinned[r];
    }
    if (!same) {
      ++failed;
      errors.push_back("sessions served different answers or trees");
    }
  }

  // Seeded sample of answers to re-solve from scratch.
  std::vector<std::size_t> sample;
  {
    util::SplitMix64 rng(seeds.check_seed);
    std::vector<std::size_t> order(ref.answers.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    for (std::size_t i = 0; i < order.size(); ++i) {
      std::swap(order[i], order[i + rng.next_below(order.size() - i)]);
    }
    order.resize(std::min<std::size_t>(order.size(),
                                       static_cast<std::size_t>(p.spot_checks)));
    sample = std::move(order);
  }

  // Replay the applied batches on a fresh mutable graph; at every version
  // re-solve the pinned trees and the sampled answers served at that
  // version, validate each fresh solve, and compare bit for bit.
  std::vector<SolveRecord> checks;
  std::uint64_t check_failures = 0;
  std::uint64_t answer_checks = 0;
  std::uint64_t tree_checks = 0;
  {
    SetupRecord setup(p.ranks);
    const std::size_t versions = ref.batches.size() + 1;
    std::vector<std::vector<std::size_t>> by_version(versions);
    for (const std::size_t i : sample) {
      const auto v = static_cast<std::size_t>(ref.answers[i].version);
      if (v < versions) {
        by_version[v].push_back(i);
      } else {
        ++check_failures;
        errors.push_back("answer served at an unknown graph version");
      }
    }
    std::size_t planned = 0;
    for (std::size_t v = 0; v < versions; ++v) {
      planned += pinned_roots.size() + by_version[v].size();
    }
    checks.assign(planned, SolveRecord(p.ranks));
    std::uint64_t mismatches = 0;
    timed(tracer, 0, "bench.check", -1, [&] {
      world.run([&](simmpi::Comm& comm) {
        const int rank = comm.rank();
        pin_rank(rank);
        const int rank_span = tracer.open(rank + 1, "bench.rank", -1);
        dyn::MutableGraph::Config mcfg;
        mcfg.compact_every = p.compact_every;
        dyn::MutableGraph mg(
            comm, make_graph(comm, p.graph, seeds, tracer, setup), mcfg);
        std::size_t next = 0;
        std::uint64_t my_mismatches = 0;
        for (std::size_t v = 0; v < versions; ++v) {
          if (v > 0) {
            if (rank == 0) {
              for (const auto& u : ref.batches[v - 1]) mg.stage(u);
            }
            (void)mg.commit_batch();
          }
          for (std::size_t t = 0; t < pinned_roots.size(); ++t) {
            auto& rec = checks[next++];
            const auto fresh =
                solve_and_validate(comm, mg.view(), pinned_roots[t], tracer, rec);
            if (rank == 0) rec.version = v;
            const auto& served =
                ref.pinned[static_cast<std::size_t>(rank)][t][v];
            if (served.size() != fresh.dist.size() ||
                std::memcmp(served.data(), fresh.dist.data(),
                            served.size() * sizeof(graph::Weight)) != 0) {
              ++my_mismatches;
            }
          }
          for (const std::size_t i : by_version[v]) {
            const auto& a = ref.answers[i];
            auto& rec = checks[next++];
            const auto fresh =
                solve_and_validate(comm, mg.view(), a.root, tracer, rec);
            if (rank == 0) rec.version = v;
            const auto& part = mg.view().part;
            if (part.owner(a.target) == rank &&
                std::memcmp(&fresh.dist[part.local(a.target)], &a.distance,
                            sizeof(graph::Weight)) != 0) {
              ++my_mismatches;
            }
          }
        }
        const auto total = comm.allreduce_sum(my_mismatches);
        if (rank == 0) mismatches = total;
        tracer.close(rank + 1, rank_span);
      });
    });
    for (std::size_t v = 0; v < versions; ++v) {
      tree_checks += pinned_roots.size();
      answer_checks += by_version[v].size();
    }
    for (const auto& rec : checks) {
      if (!rec.valid) {
        ++check_failures;
        errors.push_back(rec.error);
      }
    }
    if (mismatches > 0) {
      check_failures += mismatches;
      errors.push_back(std::to_string(mismatches) +
                       " spot-checked answers or repaired trees differ from "
                       "a fresh solve");
    }
  }
  std::vector<SolveRecord> one_rank;
  if (trace) one_rank = one_rank_solves(p.graph, seeds, pinned_roots, tracer);
  tracer.close(0, root_span);
  attempted += tree_checks + answer_checks;
  failed += check_failures;

  Json jsessions = Json::array();
  for (const auto& s : sessions) {
    Json js = Json::object();
    js["paced"] = s.paced;
    js["traced"] = s.traced;
    js["wall_s"] = s.wall_s;
    js["setup_s"] = s.setup_s;
    js["loop_s"] = s.loop_s;
    js["ticks"] = s.ticks;
    js["setup"] = to_json(s.setup);
    Json init = Json::array();
    for (const auto& t : s.serve_init) init.push_back(t.wall);
    js["serve_init_s"] = std::move(init);
    Json lat = Json::array();
    Json wait = Json::array();
    for (const auto& a : s.answers) {
      lat.push_back(a.latency_s);
      wait.push_back(a.wait_ticks);
    }
    js["query_latency_s"] = std::move(lat);
    js["queue_wait_ticks"] = std::move(wait);
    Json ticks = Json::array();
    for (const double t : s.tick_s) ticks.push_back(t);
    js["answer_tick_s"] = std::move(ticks);
    Json late = Json::array();
    for (const double t : s.late_s) late.push_back(t);
    js["late_s"] = std::move(late);
    Json ups = Json::array();
    for (const auto& u : s.updates) {
      Json ju = Json::object();
      ju["tick"] = u.tick;
      ju["version"] = u.version;
      ju["edges_applied"] = u.edges_applied;
      ju["compacted"] = u.compacted;
      ju["latency_s"] = u.latency_s;
      ju["commit_s"] = u.commit_s;
      ju["invalidate_s"] = u.invalidate_s;
      ju["repair_s"] = u.repair_s;
      ju["roots_retained"] = u.roots_retained;
      ju["roots_invalidated"] = u.roots_invalidated;
      ju["points_retained"] = u.points_retained;
      ju["points_invalidated"] = u.points_invalidated;
      ups.push_back(std::move(ju));
    }
    js["updates"] = std::move(ups);
    Json relax = Json::array();
    for (const auto r : s.repair_relax_applied) relax.push_back(r);
    js["repair_relax_applied"] = std::move(relax);
    const auto& m = s.metrics;
    Json jm = Json::object();
    jm["arrived"] = m.arrived;
    jm["answered"] = m.answered;
    jm["shed"] = m.shed;
    jm["waves"] = m.waves;
    jm["pruned_waves"] = m.pruned_waves;
    jm["fetch_rounds"] = m.fetch_rounds;
    jm["oracle_exact"] = m.oracle_exact;
    jm["point_cache_hits"] = m.point_cache_hits;
    jm["point_cache_misses"] = m.point_cache_misses;
    jm["root_cache_hits"] = m.cache.hits;
    jm["root_cache_misses"] = m.cache.misses;
    jm["wave_s"] = m.wave_seconds;
    jm["fetch_s"] = m.fetch_seconds;
    jm["oracle_s"] = m.oracle_seconds;
    jm["wave_relax_generated"] = m.wave_relax_generated;
    jm["compactions"] = s.compactions;
    js["metrics"] = std::move(jm);
    jsessions.push_back(std::move(js));
  }
  Json jchecks = Json::array();
  for (const auto& rec : checks) jchecks.push_back(to_json(rec));
  Json jone = Json::array();
  for (const auto& rec : one_rank) jone.push_back(to_json(rec));
  out["one_rank"] = std::move(jone);
  Json jerr = Json::array();
  for (std::size_t i = 0; i < errors.size() && i < 16; ++i) {
    jerr.push_back(errors[i]);
  }
  out["sessions"] = std::move(jsessions);
  out["checks"] = std::move(jchecks);
  out["answer_checks"] = answer_checks;
  out["tree_checks"] = tree_checks;
  out["errors"] = std::move(jerr);
  out["attempted"] = attempted;
  out["failed"] = failed;
  Json params = Json::object();
  params["ticks"] = wc.ticks;
  params["tick_ms"] = p.tick_ms;
  params["arrivals_per_tick"] = p.arrivals_per_tick;
  params["update_batches"] = p.update_batches;
  params["landmarks"] = static_cast<std::uint64_t>(p.landmarks);
  params["pinned_trees"] = p.pinned_trees;
  out["serve_params"] = std::move(params);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const util::Options options(argc, argv);
    const std::string workload = options.get("workload", "");
    const auto seed = static_cast<std::uint64_t>(options.get_int("seed", 1));
    const double seconds = options.get_double("seconds", 10.0);
    const bool trace = options.get_int("trace", 0) != 0;
    const std::string out_path = options.get("out", "");
    if (out_path.empty()) throw std::invalid_argument("--out is required");
    if (!(seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");

    const double epoch = now_s();
    const Seeds seeds(seed);
    Json out = Json::object();
    out["workload"] = workload;
    out["seed"] = seed;
    out["seconds"] = seconds;
    out["trace"] = trace;
    out["seeds"] = seeds.to_json();
    out["manifest"] = util::run_manifest();

    constexpr int kRanks = 2;
    Tracer tracer(kRanks);
    int status = 0;
    if (workload == "kron-g500" || workload == "grid-road") {
      ProtocolParams p;
      p.ranks = kRanks;
      p.graph.grid = workload == "grid-road";
      p.nominal_pass_s = p.graph.grid ? 2.5 : 7.5;
      status = run_protocol(p, seeds, seconds, trace, tracer, out);
    } else if (workload == "serve-mutate") {
      ServeParams p;
      p.ranks = kRanks;
      status = run_serve(p, seeds, seconds, trace, tracer, out);
    } else {
      throw std::invalid_argument("unknown --workload '" + workload + "'");
    }
    out["ranks"] = kRanks;
    out["wall_s"] = now_s() - epoch;
    out["peak_rss_mb"] = peak_rss_mb();
    if (trace) out["spans"] = tracer.to_json(epoch);

    std::ofstream file(out_path);
    if (!file) throw std::runtime_error("cannot write " + out_path);
    out.dump_to(file);
    file << "\n";
    if (!file) throw std::runtime_error("cannot write " + out_path);
    return status;
  } catch (const std::exception& e) {
    std::cerr << "g500_perfbench: " << e.what() << "\n";
    return 2;
  }
}
