// Extreme-scale performance projection.
//
// Predicts Graph 500 SSSP time/GTEPS for (scale, machine) points far beyond
// what one host can materialize — the 140-trillion-edge record entry — by
// combining:
//   * a Calibration measured on real (simulated-rank) runs: how many
//     relaxations an input edge costs, how many bytes survive the
//     optimizations onto the wire, how many synchronization rounds an SSSP
//     takes and how that grows with scale;
//   * a Machine/topology description priced by net::CostModel.
//
// The projection reproduces the paper's *shape*: weak scaling stays near
// flat while per-node traffic fits the injection/bisection budget, the
// latency term grows with rounds x log(P), and hub filtering is what keeps
// the byte term survivable at full machine size.
#pragma once

#include <cstdint>
#include <vector>

#include "core/sssp_types.hpp"
#include "model/machine.hpp"
#include "net/costmodel.hpp"
#include "simmpi/stats.hpp"

namespace g500::model {

/// Per-edge/per-round unit costs extracted from a measured run.
struct Calibration {
  /// Candidate relaxations generated per input edge (work amplification).
  double relax_per_input_edge = 2.0;
  /// Wire bytes per input edge after coalescing/hub/pull filtering.
  double wire_bytes_per_input_edge = 4.0;
  /// Global synchronization rounds of one SSSP at the calibration scale.
  double rounds_per_sssp = 100.0;
  /// Scale at which the calibration was measured (rounds grow ~linearly in
  /// scale: bucket count is roughly proportional to the weighted diameter,
  /// which grows with log n for Kronecker graphs).
  int calibration_scale = 16;

  /// The calibration formula: totals over `num_sssp_runs` solves of a
  /// graph with `num_input_edges` input edges, turned into per-edge ratios
  /// (relaxations floored at 0.1) and rounds per solve.
  [[nodiscard]] static Calibration from_totals(std::uint64_t relax_generated,
                                               std::uint64_t wire_bytes,
                                               std::uint64_t rounds,
                                               std::uint64_t num_input_edges,
                                               std::uint64_t num_sssp_runs,
                                               int scale);

  /// Extract the per-edge ratios from a measured run.
  [[nodiscard]] static Calibration from_run(
      const core::SsspStats& stats_sum_over_ranks,
      const simmpi::CommStats& comm_aggregate, std::uint64_t num_input_edges,
      std::uint64_t num_sssp_runs, int scale);
};

/// One predicted configuration.
struct ProjectionPoint {
  int scale = 0;
  std::int64_t nodes = 0;
  std::int64_t cores = 0;
  std::uint64_t input_edges = 0;

  double compute_seconds = 0.0;
  double network_seconds = 0.0;  ///< bandwidth-bound term
  double latency_seconds = 0.0;  ///< rounds x collective latency
  double total_seconds = 0.0;
  double gteps = 0.0;

  bool memory_feasible = true;  ///< graph fits in aggregate node memory
};

class Projection {
 public:
  Projection(Machine machine, Calibration calibration);

  /// Predict one (scale, node-count) point.  ranks_per_node: how many
  /// algorithm processes share a node (record runs use one per core group).
  [[nodiscard]] ProjectionPoint predict(int scale, std::int64_t nodes,
                                        int ranks_per_node = 6) const;

  /// Sweep node counts at a fixed scale (strong-scaling shape).
  [[nodiscard]] std::vector<ProjectionPoint> strong_scaling(
      int scale, const std::vector<std::int64_t>& node_counts) const;

  /// Grow scale with machine size (weak-scaling / record-run shape).
  [[nodiscard]] std::vector<ProjectionPoint> weak_scaling(
      int base_scale, std::int64_t base_nodes, int doublings) const;

  [[nodiscard]] const Machine& machine() const noexcept { return machine_; }
  [[nodiscard]] const Calibration& calibration() const noexcept {
    return calibration_;
  }

 private:
  Machine machine_;
  Calibration calibration_;
};

}  // namespace g500::model
