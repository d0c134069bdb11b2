// T3 — Record-run projection: the 140-trillion-edge table.
//
// Calibrates per-edge unit costs from real measured runs on the simulated
// ranks, then drives the analytic Sunway machine model to the record
// configuration: scale 43 (2^43 vertices x 16 = ~140.7 trillion input
// edges) on 107,520 nodes (~41.9 million cores).  The substitution for the
// machine we do not have — see DESIGN.md section 2.
#include <iostream>

#include "bench_util.hpp"
#include "model/projection.hpp"
#include "util/options.hpp"

int main(int argc, char** argv) {
  using namespace g500;
  const util::Options options(argc, argv);
  const int cal_scale = static_cast<int>(options.get_int("cal-scale", 14));
  const int cal_ranks = static_cast<int>(options.get_int("cal-ranks", 8));

  // --- 1. calibrate from a real measured run -----------------------------
  // Solves from sampled roots; wire bytes and rounds are deltas taken
  // around each solve, so construction and validation traffic stay out.
  graph::KroneckerParams params;
  params.scale = cal_scale;
  constexpr int kSolves = 2;
  const auto m = bench::measure_sssp(params, cal_ranks, core::SsspConfig{},
                                     kSolves);
  if (!m.valid) {
    std::cerr << "calibration run failed validation\n";
    return 1;
  }
  const auto cal = bench::calibrate(m, params, kSolves);

  bench::RunReport report("projection", options);
  report.doc()["calibration"] = model::to_json(cal);

  util::Table cal_table({"calibrated quantity", "value"});
  cal_table.row().add("relaxations / input edge").add(cal.relax_per_input_edge,
                                                      3);
  cal_table.row()
      .add("wire bytes / input edge")
      .add(cal.wire_bytes_per_input_edge, 3);
  cal_table.row().add("rounds / SSSP").add(cal.rounds_per_sssp, 1);
  cal_table.row().add("calibration scale").add(cal.calibration_scale);
  cal_table.print(std::cout, "T3a: calibration (measured on simulated ranks)");

  // --- 2. project the record machine -------------------------------------
  model::Projection proj(model::Machine::new_sunway(), cal);
  util::Table table({"nodes", "cores", "scale", "edges", "compute (s)",
                     "network (s)", "latency (s)", "total (s)", "GTEPS",
                     "fits"});
  struct Point {
    int scale;
    std::int64_t nodes;
  };
  const std::vector<Point> sweep = {
      {36, 840},    {37, 1680},   {38, 3360},   {39, 6720},
      {40, 13440},  {41, 26880},  {42, 53760},  {43, 107520},
  };
  for (const auto& pt : sweep) {
    const auto p = proj.predict(pt.scale, pt.nodes);
    util::Json c = util::Json::object();
    c["machine"] = "new_sunway";
    c["projection"] = model::to_json(p);
    report.add_case(std::move(c));
    table.row()
        .add(static_cast<std::uint64_t>(p.nodes))
        .add_si(static_cast<double>(p.cores), 1)
        .add(p.scale)
        .add_si(static_cast<double>(p.input_edges), 1)
        .add(p.compute_seconds, 3)
        .add(p.network_seconds, 3)
        .add(p.latency_seconds, 3)
        .add(p.total_seconds, 3)
        .add(p.gteps, 1)
        .add(p.memory_feasible ? "yes" : "NO");
  }
  table.print(std::cout,
              "T3b: projected weak scaling to the record configuration "
              "(New Sunway model)");

  // --- 3. cross-machine comparison at the record problem size ------------
  util::Table versus({"machine", "nodes", "cores", "total (s)", "GTEPS",
                      "fits"});
  struct Contender {
    model::Machine machine;
    std::int64_t nodes;
  };
  const std::vector<Contender> contenders = {
      {model::Machine::new_sunway(), 107520},
      {model::Machine::fugaku_like(), 158976},
      {model::Machine::commodity_cluster(4096), 4096},
  };
  util::Json versus_json = util::Json::array();
  for (const auto& c : contenders) {
    const model::Projection contender_proj(c.machine, cal);
    const auto p = contender_proj.predict(43, c.nodes);
    util::Json vj = util::Json::object();
    vj["machine"] = model::to_json(c.machine);
    vj["projection"] = model::to_json(p);
    versus_json.push_back(std::move(vj));
    versus.row()
        .add(c.machine.name)
        .add(static_cast<std::uint64_t>(p.nodes))
        .add_si(static_cast<double>(p.cores), 1)
        .add(p.total_seconds, 2)
        .add(p.gteps, 1)
        .add(p.memory_feasible ? "yes" : "NO");
  }
  std::cout << '\n';
  versus.print(std::cout, "T3c: scale-43 across machine classes");

  const auto record = proj.predict(43, 107520);
  std::cout << "\nHeadline projection: scale-43 Kronecker graph ("
            << util::si_format(static_cast<double>(record.input_edges), 1)
            << " edges) on " << record.nodes << " nodes ("
            << util::si_format(static_cast<double>(record.cores), 1)
            << " cores): " << record.total_seconds << " s/SSSP, "
            << record.gteps << " GTEPS.\n";
  std::cout << "Expected shape: GTEPS grows ~2x per doubling until the "
               "tapered central network\nand round latency flatten the "
               "curve; the full-machine point is communication-bound.\n";
  report.doc()["contenders"] = std::move(versus_json);
  report.doc()["headline"] = model::to_json(record);
  bench::write_report(report, table);
  return 0;
}
