// F12 (extension) — 1-D vs 2-D partitioning.
//
// The checkerboard bounds each rank's communication partners to its grid
// row + column (~2 sqrt(P)) but replicates every frontier entry down a
// column.  This harness solves the same graph with both layouts and
// reports partners, messages, bytes and rounds — the trade the paper's
// 1-D + hub-filtering design is implicitly weighed against.
#include <algorithm>
#include <iostream>

#include "bench_util.hpp"
#include "core/delta_stepping.hpp"
#include "core/delta_stepping_2d.hpp"
#include "graph/builder.hpp"
#include "graph/grid2d.hpp"
#include "graph/kronecker.hpp"
#include "simmpi/comm.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace g500;

struct Row {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t rounds = 0;
  int max_partners = 0;
  double seconds = 0.0;
};

/// One sampled search key of the 1-D graph, shared by both layouts (a
/// fixed id such as 1 is isolated at common scales).
graph::VertexId sample_root(const graph::KroneckerParams& params, int ranks) {
  simmpi::World world(ranks);
  graph::VertexId root = 0;
  world.run([&](simmpi::Comm& comm) {
    const graph::DistGraph g = graph::build_kronecker(comm, params);
    const auto sampled = core::sample_roots(comm, g, 1, 0x9500).at(0);
    if (comm.rank() == 0) root = sampled;
  });
  return root;
}

Row measure(bool two_d, const graph::KroneckerParams& params, int ranks,
            graph::VertexId root) {
  simmpi::World world(ranks);
  std::vector<graph::DistGraph> one_d(two_d ? 0 : ranks);
  std::vector<graph::Dist2DGraph> checker(two_d ? ranks : 0);
  world.run([&](simmpi::Comm& comm) {
    if (two_d) {
      const auto total = params.num_edges();
      const auto P = static_cast<std::uint64_t>(comm.size());
      const auto r = static_cast<std::uint64_t>(comm.rank());
      graph::EdgeList slice;
      slice.num_vertices = params.num_vertices();
      slice.edges =
          graph::kronecker_slice(params, total * r / P, total * (r + 1) / P);
      checker[comm.rank()] = graph::build_2d(comm, slice,
                                             params.num_vertices());
    } else {
      one_d[comm.rank()] = graph::build_kronecker(comm, params);
    }
  });
  world.reset_stats();

  Row row;
  util::Timer timer;
  world.run([&](simmpi::Comm& comm) {
    if (two_d) {
      (void)core::delta_stepping_2d(comm, checker[comm.rank()], root);
    } else {
      (void)core::delta_stepping(comm, one_d[comm.rank()], root);
    }
  });
  row.seconds = timer.seconds();

  const auto stats = world.aggregate_stats();
  row.messages = stats.alltoallv.messages + stats.allgather.messages;
  row.bytes = stats.total_bytes();
  row.rounds = stats.rounds() / static_cast<std::uint64_t>(ranks);
  for (int r = 0; r < ranks; ++r) {
    const auto& bytes_to = world.rank_stats(r).bytes_to;
    int partners = 0;
    for (int d = 0; d < ranks; ++d) {
      if (d != r && bytes_to[d] > 0) ++partners;
    }
    row.max_partners = std::max(row.max_partners, partners);
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace g500;
  const util::Options options(argc, argv);
  const int scale = static_cast<int>(options.get_int("scale", 13));
  const int ranks = static_cast<int>(options.get_int("ranks", 16));

  graph::KroneckerParams params;
  params.scale = scale;
  const graph::ProcessGrid grid(ranks);

  bench::RunReport report("partition2d", options);
  util::Table table({"layout", "max partners", "messages", "bytes", "rounds",
                     "wall (s)"});
  const graph::VertexId root = sample_root(params, ranks);
  for (const bool two_d : {false, true}) {
    const Row row = measure(two_d, params, ranks, root);
    const std::string layout = two_d ? "2-D " + std::to_string(grid.rows()) +
                                           "x" + std::to_string(grid.cols())
                                     : "1-D (paper)";
    table.row()
        .add(layout)
        .add(row.max_partners)
        .add_si(static_cast<double>(row.messages))
        .add_si(static_cast<double>(row.bytes))
        .add(row.rounds)
        .add(row.seconds, 4);
    util::Json c = util::Json::object();
    c["scale"] = scale;
    c["ranks"] = ranks;
    c["layout"] = layout;
    c["max_partners"] = row.max_partners;
    c["messages"] = row.messages;
    c["bytes"] = row.bytes;
    c["rounds"] = row.rounds;
    c["seconds"] = row.seconds;
    report.add_case(std::move(c));
  }
  table.print(std::cout, "F12: 1-D vs 2-D partitioning, scale " +
                             std::to_string(scale) + ", " +
                             std::to_string(ranks) + " ranks");
  std::cout << "\nExpected shape: the 2-D layout caps partners at "
               "rows+cols = "
            << grid.rows() + grid.cols() << " (vs up to " << ranks - 1
            << " for 1-D)\nwhile paying frontier replication in bytes; the "
               "paper's 1-D design instead tames\npartner count with "
               "hub-filtering + hierarchical aggregation.\n";
  bench::write_report(report, table);
  return 0;
}
