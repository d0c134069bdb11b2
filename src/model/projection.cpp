#include "model/projection.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace g500::model {

Calibration Calibration::from_totals(std::uint64_t relax_generated,
                                     std::uint64_t wire_bytes,
                                     std::uint64_t rounds,
                                     std::uint64_t num_input_edges,
                                     std::uint64_t num_sssp_runs, int scale) {
  if (num_input_edges == 0 || num_sssp_runs == 0) {
    throw std::invalid_argument("Calibration: empty run");
  }
  Calibration cal;
  const double edges =
      static_cast<double>(num_input_edges) * static_cast<double>(num_sssp_runs);
  cal.relax_per_input_edge =
      std::max(0.1, static_cast<double>(relax_generated) / edges);
  cal.wire_bytes_per_input_edge = static_cast<double>(wire_bytes) / edges;
  cal.rounds_per_sssp =
      static_cast<double>(rounds) / static_cast<double>(num_sssp_runs);
  cal.calibration_scale = scale;
  return cal;
}

Calibration Calibration::from_run(const core::SsspStats& stats,
                                  const simmpi::CommStats& comm,
                                  std::uint64_t num_input_edges,
                                  std::uint64_t num_sssp_runs, int scale) {
  return from_totals(stats.relax_generated, comm.total_bytes(), comm.rounds(),
                     num_input_edges, num_sssp_runs, scale);
}

Projection::Projection(Machine machine, Calibration calibration)
    : machine_(std::move(machine)), calibration_(calibration) {}

ProjectionPoint Projection::predict(int scale, std::int64_t nodes,
                                    int ranks_per_node) const {
  if (scale < 1 || scale > 50) {
    throw std::invalid_argument("Projection: scale out of range");
  }
  if (nodes < 1 || ranks_per_node < 1) {
    throw std::invalid_argument("Projection: bad machine size");
  }
  const Machine m = machine_.scaled_to(nodes);
  const net::SunwayTopology topo = m.topology();
  const net::CostModel cost(topo, ranks_per_node);
  const std::int64_t ranks = nodes * ranks_per_node;

  ProjectionPoint p;
  p.scale = scale;
  p.nodes = nodes;
  p.cores = m.total_cores();
  p.input_edges = std::uint64_t{16} << scale;
  const double M = static_cast<double>(p.input_edges);

  // --- memory feasibility: ~12 bytes per directed edge (CSR) x 2
  //     directions, plus 16 bytes per vertex of engine state.
  const double vertices = std::ldexp(1.0, scale);
  const double graph_bytes = 2.0 * M * 12.0 + vertices * 16.0;
  p.memory_feasible =
      graph_bytes <= m.memory_per_node_GB * 1e9 * static_cast<double>(nodes);

  // --- compute term: total relaxations over aggregate core throughput.
  const double relaxations = M * calibration_.relax_per_input_edge;
  p.compute_seconds =
      relaxations / (static_cast<double>(m.total_cores()) * m.core_edge_rate);

  // --- bandwidth term: wire bytes spread over the machine, priced as one
  //     big alltoallv (uniform destinations: Kronecker scramble makes the
  //     traffic matrix near-uniform).
  const double wire_bytes = M * calibration_.wire_bytes_per_input_edge;
  net::AlltoallTraffic traffic;
  traffic.total_bytes = wire_bytes;
  traffic.max_rank_bytes = wire_bytes / static_cast<double>(ranks);
  traffic.cross_cut_fraction = 0.5;
  // Subtract the latency part (counted separately per round below).
  const double one_shot = cost.alltoallv_seconds(traffic, ranks);
  const double latency_part =
      cost.alltoallv_seconds(net::AlltoallTraffic{}, ranks);
  p.network_seconds = std::max(0.0, one_shot - latency_part);

  // --- latency term: synchronization rounds grow ~linearly with scale
  //     (bucket count tracks the weighted diameter ~ log n).
  const double round_growth =
      static_cast<double>(scale) /
      static_cast<double>(std::max(1, calibration_.calibration_scale));
  const double rounds = calibration_.rounds_per_sssp * round_growth;
  p.latency_seconds = rounds * cost.allreduce_seconds(64.0, ranks);

  p.total_seconds = p.compute_seconds + p.network_seconds + p.latency_seconds;
  p.gteps = M / p.total_seconds / 1e9;
  return p;
}

std::vector<ProjectionPoint> Projection::strong_scaling(
    int scale, const std::vector<std::int64_t>& node_counts) const {
  std::vector<ProjectionPoint> points;
  points.reserve(node_counts.size());
  for (const auto nodes : node_counts) points.push_back(predict(scale, nodes));
  return points;
}

std::vector<ProjectionPoint> Projection::weak_scaling(int base_scale,
                                                      std::int64_t base_nodes,
                                                      int doublings) const {
  std::vector<ProjectionPoint> points;
  points.reserve(static_cast<std::size_t>(doublings) + 1);
  for (int i = 0; i <= doublings; ++i) {
    points.push_back(predict(base_scale + i, base_nodes << i));
  }
  return points;
}

}  // namespace g500::model
