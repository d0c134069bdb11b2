// F13 (extension) — round-by-round trace replay.
//
// Records the exact collective sequence of one SSSP on the simulated ranks
// and replays it on the New Sunway cost model at several machine sizes —
// the post-mortem attribution of where time would go at scale (alltoallv
// bandwidth vs allreduce latency), round by round.
#include <fstream>
#include <iostream>

#include "bench_util.hpp"
#include "core/async_delta_stepping.hpp"
#include "core/delta_stepping.hpp"
#include "graph/builder.hpp"
#include "model/replay.hpp"
#include "model/trace_export.hpp"
#include "simmpi/comm.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace g500;
  const util::Options options(argc, argv);
  const int scale = static_cast<int>(options.get_int("scale", 14));
  const int ranks = static_cast<int>(options.get_int("ranks", 8));

  graph::KroneckerParams params;
  params.scale = scale;

  // Both recordings solve from one sampled root (a fixed id such as 1 is
  // isolated at common scales), drawn before the trace starts.
  simmpi::World world(ranks);
  std::vector<graph::DistGraph> graphs(static_cast<std::size_t>(ranks));
  graph::VertexId root = 0;
  world.run([&](simmpi::Comm& comm) {
    auto& g = graphs[static_cast<std::size_t>(comm.rank())];
    g = graph::build_kronecker(comm, params);
    const auto sampled = core::sample_roots(comm, g, 1, 0x9500).at(0);
    if (comm.rank() == 0) root = sampled;
  });
  world.reset_stats();
  world.enable_trace();
  world.run([&](simmpi::Comm& comm) {
    (void)core::delta_stepping(
        comm, graphs[static_cast<std::size_t>(comm.rank())], root);
  });
  const auto trace = world.merged_trace();
  std::cout << "Recorded " << trace.size()
            << " collective rounds for one scale-" << scale
            << " SSSP (root " << root << ") on " << ranks << " ranks.\n\n";

  bench::RunReport run_report("replay", options);
  run_report.doc()["recorded_rounds"] =
      static_cast<std::uint64_t>(trace.size());
  run_report.doc()["scale"] = scale;
  run_report.doc()["ranks"] = ranks;

  const model::Machine machine = model::Machine::new_sunway();
  for (const std::int64_t nodes : {840LL, 13440LL, 107520LL}) {
    const auto report = model::replay_trace(trace, machine, nodes, 6, ranks);
    std::cout << "--- replayed on " << nodes << " New Sunway nodes ("
              << nodes * machine.cores_per_node << " cores) ---\n";
    report.print(std::cout);
    std::cout << '\n';
    util::Json c = util::Json::object();
    c["nodes"] = nodes;
    c["replay"] = model::to_json(report, /*include_rounds=*/false);
    run_report.add_case(std::move(c));
  }

  // Chrome-trace export of the record-configuration replay: durations are
  // the modeled per-round costs at 13440 nodes (chrome://tracing/Perfetto).
  {
    const auto priced = model::replay_trace(trace, machine, 13440, 6, ranks);
    const util::Json doc = model::chrome_trace(trace, priced);
    std::string trace_path = run_report.path();
    trace_path.replace(trace_path.rfind(".json"), 5, "_trace.json");
    std::filesystem::create_directories(
        std::filesystem::path(trace_path).parent_path());
    std::ofstream out(trace_path);
    out << doc.dump(2) << '\n';
    std::cout << "[telemetry] wrote " << trace_path
              << " (load in chrome://tracing)\n";
    run_report.doc()["chrome_trace_file"] = trace_path;
  }

  std::cout << "Expected shape: at small node counts the alltoallv "
               "bandwidth term dominates;\nat full machine size the "
               "latency-bound allreduce rounds take over — the\nround-count "
               "wall the paper's bucket fusion attacks.\n\n";

  // --- Async replay -----------------------------------------------------
  // Record the same SSSP on the barrier-free engine: a near-empty
  // collective log plus the aggregated parcel stream, priced by
  // replay_async_trace (bandwidth + per-flush overhead, no round latency).
  {
    world.reset_stats();
    world.run([&](simmpi::Comm& comm) {
      (void)core::async_delta_stepping(
          comm, graphs[static_cast<std::size_t>(comm.rank())], root);
    });
    const auto async_trace = world.merged_trace();
    const auto p2p = world.p2p_summary();
    std::cout << "Async engine: " << async_trace.size()
              << " collective rounds (vs " << trace.size() << " sync), "
              << p2p.flushes << " aggregated parcels, " << p2p.bytes
              << " p2p bytes.\n";
    const auto async_report =
        model::replay_async_trace(async_trace, p2p, machine, 13440, 6, ranks);
    const auto sync_report = model::replay_trace(trace, machine, 13440, 6, ranks);
    async_report.print(std::cout);
    const double speedup = async_report.total_seconds > 0.0
                               ? sync_report.total_seconds /
                                     async_report.total_seconds
                               : 0.0;
    std::cout << "modeled critical-path speedup at 13440 nodes: " << speedup
              << "x\n";

    util::Json a = util::Json::object();
    a["collective_rounds"] = static_cast<std::uint64_t>(async_trace.size());
    a["sync_rounds"] = static_cast<std::uint64_t>(trace.size());
    a["p2p"] = simmpi::to_json(p2p);
    a["replay"] = model::to_json(async_report, /*include_rounds=*/false);
    a["critical_path_speedup"] = speedup;
    run_report.doc()["async"] = std::move(a);
  }

  bench::write_report(run_report);
  return 0;
}
