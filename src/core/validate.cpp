#include "core/validate.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/remote.hpp"

namespace g500::core {

using graph::kInfDistance;
using graph::kNoVertex;
using graph::LocalId;
using graph::VertexId;
using graph::Weight;

namespace {

constexpr std::size_t kMaxErrorsPerRank = 4;

class Collector {
 public:
  void fail(const std::string& message) {
    ok_ = false;
    if (errors_.size() < kMaxErrorsPerRank) errors_.push_back(message);
  }

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] const std::vector<std::string>& errors() const noexcept {
    return errors_;
  }

 private:
  bool ok_ = true;
  std::vector<std::string> errors_;
};

std::string describe(const char* check, VertexId v, const std::string& what) {
  std::ostringstream out;
  out << check << " failed at vertex " << v << ": " << what;
  return out.str();
}

}  // namespace

ValidationReport validate_sssp(simmpi::Comm& comm, const graph::DistGraph& g,
                               VertexId root, const SsspResult& mine,
                               double tolerance) {
  Collector c;
  const int rank = comm.rank();
  const VertexId my_begin = g.part.begin(rank);
  const auto local_n = static_cast<LocalId>(g.part.count(rank));

  const bool sized =
      mine.dist.size() == local_n && mine.parent.size() == local_n;
  if (!sized) c.fail("result size does not match owned vertex count");
  // Work on padded copies so a malformed result still keeps every rank's
  // collective sequence in lockstep (the verdict is already a failure).
  std::vector<Weight> dist = mine.dist;
  dist.resize(local_n, kInfDistance);
  std::vector<VertexId> parent = mine.parent;
  parent.resize(local_n, kNoVertex);

  // ---- V1: local consistency ------------------------------------------
  // A parent id past the vertex range fails here and is cleared, even in a
  // malformed result, so the lookups below stay in range on every rank.
  std::uint64_t reachable_local = 0;
  for (LocalId v = 0; v < local_n; ++v) {
    const VertexId gv = my_begin + v;
    if (parent[v] != kNoVertex && parent[v] >= g.num_vertices) {
      c.fail(describe("V1", gv, "parent id out of range"));
      parent[v] = kNoVertex;
      continue;
    }
    if (!sized) continue;
    const bool has_parent = parent[v] != kNoVertex;
    const bool has_dist = dist[v] != kInfDistance;
    if (has_dist) ++reachable_local;
    if (has_parent != has_dist) {
      c.fail(describe("V1", gv, "parent/distance reachability mismatch"));
    }
    if (gv == root) {
      if (parent[v] != root || dist[v] != 0.0f) {
        c.fail(describe("V1", gv, "root must be its own parent at dist 0"));
      }
    } else if (has_parent && parent[v] == gv) {
      c.fail(describe("V1", gv, "non-root vertex is its own parent"));
    }
    if (has_dist && !(dist[v] >= 0.0f)) {
      c.fail(describe("V1", gv, "negative distance"));
    }
  }

  // ---- Distances of every neighbour and parent, for V2/V3 --------------
  const NeighbourValues<Weight> dist_of(comm, g.part, g.csr.adjacency(),
                                        parent, dist);

  // ---- V2: no relaxable edge -------------------------------------------
  std::uint64_t edges_checked_local = 0;
  for (LocalId u = 0; c.ok() && u < local_n; ++u) {
    const Weight du = dist[u];
    if (du == kInfDistance) {
      // Unreachable u imposes no forward constraint, but a reachable
      // neighbour would make u reachable: covered when scanning that
      // neighbour's own edges (the graph stores both directions).
      continue;
    }
    for (std::uint64_t e = g.csr.edges_begin(u); e < g.csr.edges_end(u); ++e) {
      ++edges_checked_local;
      const Weight dv = dist_of(g.csr.dst(e));
      const double slack = static_cast<double>(du) +
                           static_cast<double>(g.csr.weight(e)) -
                           static_cast<double>(dv);
      if (dv == kInfDistance || slack < -tolerance) {
        c.fail(describe("V2", my_begin + u,
                        "edge to " + std::to_string(g.csr.dst(e)) +
                            " is still relaxable"));
        break;
      }
    }
  }

  // ---- V3: tree edges are real edges with consistent distances ---------
  for (LocalId v = 0; c.ok() && v < local_n; ++v) {
    const VertexId gv = my_begin + v;
    const VertexId p = parent[v];
    if (p == kNoVertex || gv == root) continue;
    const Weight dp = dist_of(p);
    bool found = false;
    for (std::uint64_t e = g.csr.edges_begin(v); e < g.csr.edges_end(v); ++e) {
      if (g.csr.dst(e) != p) continue;
      const double expect =
          static_cast<double>(dp) + static_cast<double>(g.csr.weight(e));
      if (std::fabs(expect - static_cast<double>(dist[v])) <=
          tolerance * std::max(1.0, std::fabs(expect))) {
        found = true;
        break;
      }
    }
    if (!found) {
      c.fail(describe("V3", gv,
                      "no edge to parent " + std::to_string(p) +
                          " matching dist[v] = dist[p] + w"));
    }
  }

  // ---- V4: parent structure is a tree rooted at `root` ------------------
  // Pointer doubling: anchor[v] <- anchor[anchor[v]] until every reachable
  // vertex anchors at the root.  64 iterations cover any acyclic depth;
  // non-convergence means a cycle or a stray forest.  Only vertices still
  // moving are updated: a vertex anchored at the root (its own parent, or
  // V1 has failed) or an unreachable one anchored at itself is a fixed
  // point of the update.
  {
    std::vector<VertexId> anchor(local_n);
    std::vector<LocalId> moving;
    for (LocalId v = 0; v < local_n; ++v) {
      anchor[v] = parent[v] == kNoVertex ? my_begin + v : parent[v];
      if (parent[v] != kNoVertex && anchor[v] != root) moving.push_back(v);
    }
    bool converged = false;
    std::vector<VertexId> hops;
    for (int iter = 0; iter < 64; ++iter) {
      if (!comm.allreduce_or(!moving.empty())) {
        converged = true;
        break;
      }
      hops.clear();
      for (const LocalId v : moving) hops.push_back(anchor[v]);
      const std::vector<VertexId> next =
          fetch_values(comm, g.part, hops, anchor);
      std::size_t kept = 0;
      for (std::size_t i = 0; i < moving.size(); ++i) {
        anchor[moving[i]] = next[i];
        if (next[i] != root) moving[kept++] = moving[i];
      }
      moving.resize(kept);
    }
    if (!converged) {
      c.fail("V4 failed: parent pointers do not converge to the root "
             "(cycle or disconnected tree)");
    }
  }

  // ---- Aggregate the verdict --------------------------------------------
  ValidationReport report;
  report.ok = !comm.allreduce_or(!c.ok());
  report.edges_checked = comm.allreduce_sum(edges_checked_local);
  report.reachable = comm.allreduce_sum(reachable_local);
  struct ErrorLine {
    char text[160];
  };
  std::vector<ErrorLine> lines;
  for (const auto& msg : c.errors()) {
    ErrorLine line{};
    msg.copy(line.text, sizeof(line.text) - 1);
    lines.push_back(line);
  }
  const std::vector<ErrorLine> all = comm.allgatherv(lines);
  for (const auto& line : all) report.errors.emplace_back(line.text);
  return report;
}

}  // namespace g500::core
