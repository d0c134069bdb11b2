#include "graph/kronecker.hpp"

#include <array>
#include <stdexcept>
#include <utility>

#include "util/random.hpp"

namespace g500::graph {

using util::hash64;
using util::to_unit_double;

namespace {

constexpr int kFeistelRounds = 4;

/// Smallest positive weight: keeps every weight strictly > 0 so tree edges
/// strictly increase distance and parent chains cannot cycle.
constexpr double kMinWeight = 1e-9;

std::uint64_t mask_bits(int bits) {
  return bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
}

/// The vertex scramble with its seed-derived keys computed once: a balanced
/// Feistel network on exactly `scale` bits whose round function is
/// F_k(r) = hash64(hash64(key, k), r).
class Feistel {
 public:
  Feistel(int scale, std::uint64_t seed1, std::uint64_t seed2)
      : scale_(scale), flip_(hash64(seed1, seed2) & 1) {
    const std::uint64_t key = hash64(seed1, seed2, 0xfe15731u);
    for (int round = 0; round < kFeistelRounds; ++round) {
      round_keys_[static_cast<std::size_t>(round)] =
          hash64(key, static_cast<std::uint64_t>(round));
    }
  }

  [[nodiscard]] VertexId forward(VertexId v) const {
    if (scale_ <= 0) return v;
    // One-bit domain: the only non-trivial permutation is a flip.
    if (scale_ == 1) return v ^ flip_;
    int lbits = scale_ / 2;
    int rbits = scale_ - lbits;
    std::uint64_t l = v >> rbits;
    std::uint64_t r = v & mask_bits(rbits);
    for (const std::uint64_t round_key : round_keys_) {
      // (l, r) -> (r, l ^ F(r)); widths travel with the halves so the whole
      // map is a bijection on exactly scale bits.
      const std::uint64_t f = hash64(round_key, r) & mask_bits(lbits);
      const std::uint64_t new_r = l ^ f;
      l = r;
      r = new_r;
      std::swap(lbits, rbits);
    }
    return (l << rbits) | r;
  }

  [[nodiscard]] VertexId inverse(VertexId v) const {
    if (scale_ <= 0) return v;
    if (scale_ == 1) return v ^ flip_;
    // Reconstruct the final widths: they swap once per round.
    int lbits = scale_ / 2;
    int rbits = scale_ - lbits;
    if (kFeistelRounds % 2 != 0) std::swap(lbits, rbits);
    std::uint64_t l = v >> rbits;
    std::uint64_t r = v & mask_bits(rbits);
    for (int round = kFeistelRounds - 1; round >= 0; --round) {
      std::swap(lbits, rbits);
      const std::uint64_t prev_r = l;
      const std::uint64_t f =
          hash64(round_keys_[static_cast<std::size_t>(round)], prev_r) &
          mask_bits(lbits);
      l = r ^ f;
      r = prev_r;
    }
    return (l << rbits) | r;
  }

 private:
  int scale_;
  std::uint64_t flip_;
  std::array<std::uint64_t, kFeistelRounds> round_keys_{};
};

const KroneckerParams& validated(const KroneckerParams& params) {
  if (params.scale < 1 || params.scale > 62) {
    throw std::invalid_argument("kronecker scale must be in [1, 62]");
  }
  const double abc = params.a + params.b + params.c;
  if (!(abc < 1.0) || params.a <= 0.0 || params.b < 0.0 || params.c < 0.0) {
    throw std::invalid_argument("kronecker initiator probabilities invalid");
  }
  return params;
}

/// Everything about edge i that does not depend on i, computed once per
/// slice: validated parameters, the stream key and the scramble's round
/// keys.
class EdgeStream {
 public:
  explicit EdgeStream(const KroneckerParams& params)
      : params_(validated(params)),
        ab_(params.a + params.b),
        abc_(ab_ + params.c),
        stream_(hash64(params.seed1, params.seed2)),
        feistel_(params.scale, params.seed1, params.seed2) {}

  [[nodiscard]] Edge at(std::uint64_t index) const {
    const std::uint64_t edge_key = hash64(stream_, index);
    VertexId u = 0;
    VertexId v = 0;
    for (int level = 0; level < params_.scale; ++level) {
      // hash64(edge_key, level) == hash64(stream, index, level).
      const double r =
          to_unit_double(hash64(edge_key, static_cast<std::uint64_t>(level)));
      // Quadrant choice per the initiator matrix.
      const std::uint64_t ubit = r >= ab_ ? 1u : 0u;
      const std::uint64_t vbit =
          (r >= params_.a && r < ab_) || r >= abc_ ? 1u : 0u;
      u = (u << 1) | ubit;
      v = (v << 1) | vbit;
    }
    if (params_.scramble) {
      u = feistel_.forward(u);
      v = feistel_.forward(v);
    }
    double w = to_unit_double(hash64(stream_ ^ 0x5eedba5eULL, index));
    if (w < kMinWeight) w = kMinWeight;
    return Edge{u, v, static_cast<Weight>(w)};
  }

 private:
  KroneckerParams params_;
  double ab_;
  double abc_;
  std::uint64_t stream_;
  Feistel feistel_;
};

}  // namespace

VertexId scramble_vertex(VertexId v, int scale, std::uint64_t seed1,
                         std::uint64_t seed2) {
  return Feistel(scale, seed1, seed2).forward(v);
}

VertexId unscramble_vertex(VertexId v, int scale, std::uint64_t seed1,
                           std::uint64_t seed2) {
  return Feistel(scale, seed1, seed2).inverse(v);
}

Edge kronecker_edge(const KroneckerParams& params, std::uint64_t index) {
  return EdgeStream(params).at(index);
}

std::vector<Edge> kronecker_slice(const KroneckerParams& params,
                                  std::uint64_t begin, std::uint64_t end) {
  if (begin > end || end > params.num_edges()) {
    throw std::out_of_range("kronecker_slice: bad range");
  }
  const EdgeStream stream(params);
  std::vector<Edge> edges;
  edges.reserve(end - begin);
  for (std::uint64_t i = begin; i < end; ++i) {
    edges.push_back(stream.at(i));
  }
  return edges;
}

EdgeList kronecker_graph(const KroneckerParams& params) {
  EdgeList list;
  list.num_vertices = params.num_vertices();
  list.edges = kronecker_slice(params, 0, params.num_edges());
  return list;
}

}  // namespace g500::graph
