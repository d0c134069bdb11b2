#include "graph/csr.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace g500::graph {

namespace {

/// One out-edge of a vertex's run while the CSR is built.
struct Arc {
  VertexId dst;
  Weight w;
};

template <typename T>
bool weight_then_dst(const T& a, const T& b) {
  return a.w != b.w ? a.w < b.w : a.dst < b.dst;
}

/// The cleaning rule for one vertex's run, given as parallel dst and w
/// arrays: of the edges sharing a dst keep the minimum weight, and leave
/// the survivors in `out` ordered by (w, dst).
void clean_run(std::span<const VertexId> dst, std::span<const Weight> w,
               std::vector<Arc>& out) {
  out.clear();
  for (std::size_t i = 0; i < dst.size(); ++i) {
    out.push_back(Arc{dst[i], w[i]});
  }
  std::sort(out.begin(), out.end(), [](const Arc& a, const Arc& b) {
    return a.dst != b.dst ? a.dst < b.dst : a.w < b.w;
  });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Arc& a, const Arc& b) { return a.dst == b.dst; }),
            out.end());
  std::sort(out.begin(), out.end(), weight_then_dst<Arc>);
}

}  // namespace

LocalCsr::LocalCsr(LocalId num_local, std::vector<WireEdge> edges)
    : num_local_(num_local) {
  // Count edges per local source: offsets_store_[u + 1] = deg(u), then the
  // exclusive prefix sum makes offsets_store_[u] the start of u's run.
  offsets_store_.assign(static_cast<std::size_t>(num_local) + 1, 0);
  for (const auto& e : edges) {
    if (e.src >= num_local) {
      throw std::out_of_range("LocalCsr: edge source is not a local index");
    }
    ++offsets_store_[static_cast<std::size_t>(e.src) + 1];
  }
  for (std::size_t i = 1; i < offsets_store_.size(); ++i) {
    offsets_store_[i] += offsets_store_[i - 1];
  }

  // Scatter (dst, w) into per-source runs of the adjacency arrays.  Each
  // cursor advances from the start of its run to its end, so afterwards
  // offsets_store_[u] is the end of u's run (= the start of u + 1's).
  dst_store_.resize(edges.size());
  w_store_.resize(edges.size());
  for (const auto& e : edges) {
    const std::uint64_t pos = offsets_store_[e.src]++;
    dst_store_[pos] = e.dst;
    w_store_[pos] = e.weight;
  }
  edges.clear();
  edges.shrink_to_fit();

  // Clean each run; survivors compact leftwards in place.
  std::vector<Arc> run;
  std::uint64_t run_begin = 0;
  std::uint64_t kept = 0;
  for (std::size_t u = 0; u < num_local; ++u) {
    const std::uint64_t run_end = offsets_store_[u];
    offsets_store_[u] = kept;
    clean_run(std::span(dst_store_).subspan(run_begin, run_end - run_begin),
              std::span(w_store_).subspan(run_begin, run_end - run_begin),
              run);
    for (const Arc& a : run) {
      dst_store_[kept] = a.dst;
      w_store_[kept] = a.w;
      ++kept;
    }
    run_begin = run_end;
  }
  offsets_store_[num_local] = kept;

  // Exact-size arrays: parallel edges never cost resident bytes.
  dst_store_.resize(kept);
  dst_store_.shrink_to_fit();
  w_store_.resize(kept);
  w_store_.shrink_to_fit();
  bind_owned();
}

LocalCsr LocalCsr::view(LocalId num_local,
                        std::span<const std::uint64_t> offsets,
                        std::span<const VertexId> dst,
                        std::span<const Weight> w) {
  if (offsets.size() != static_cast<std::size_t>(num_local) + 1 ||
      offsets.front() != 0 || offsets.back() != dst.size() ||
      dst.size() != w.size()) {
    throw std::invalid_argument("LocalCsr::view: inconsistent array shapes");
  }
  LocalCsr csr;
  csr.num_local_ = num_local;
  csr.owned_ = false;
  csr.offsets_ = offsets;
  csr.adj_dst_ = dst;
  csr.adj_w_ = w;
  return csr;
}

void LocalCsr::bind_owned() {
  owned_ = true;
  offsets_ = offsets_store_;
  adj_dst_ = dst_store_;
  adj_w_ = w_store_;
}

LocalCsr& LocalCsr::operator=(const LocalCsr& other) {
  if (this == &other) return *this;
  num_local_ = other.num_local_;
  if (other.owned_) {
    offsets_store_ = other.offsets_store_;
    dst_store_ = other.dst_store_;
    w_store_ = other.w_store_;
    bind_owned();
  } else {
    // Copies of a view share the external storage.
    offsets_store_.clear();
    dst_store_.clear();
    w_store_.clear();
    owned_ = false;
    offsets_ = other.offsets_;
    adj_dst_ = other.adj_dst_;
    adj_w_ = other.adj_w_;
  }
  return *this;
}

LocalCsr& LocalCsr::operator=(LocalCsr&& other) noexcept {
  if (this == &other) return *this;
  num_local_ = other.num_local_;
  owned_ = other.owned_;
  // Moving a vector transfers its heap buffer, so spans into it stay valid.
  offsets_store_ = std::move(other.offsets_store_);
  dst_store_ = std::move(other.dst_store_);
  w_store_ = std::move(other.w_store_);
  offsets_ = other.offsets_;
  adj_dst_ = other.adj_dst_;
  adj_w_ = other.adj_w_;
  other.num_local_ = 0;
  other.owned_ = true;
  other.offsets_ = {};
  other.adj_dst_ = {};
  other.adj_w_ = {};
  return *this;
}

std::uint64_t LocalCsr::resident_bytes() const noexcept {
  return offsets_store_.capacity() * sizeof(std::uint64_t) +
         dst_store_.capacity() * sizeof(VertexId) +
         w_store_.capacity() * sizeof(Weight);
}

std::uint64_t LocalCsr::split_at(LocalId u, Weight delta) const {
  const auto first = adj_w_.begin() + static_cast<std::ptrdiff_t>(offsets_[u]);
  const auto last =
      adj_w_.begin() + static_cast<std::ptrdiff_t>(offsets_[u + 1]);
  return static_cast<std::uint64_t>(
      std::lower_bound(first, last, delta) - adj_w_.begin());
}

PullIndex PullIndex::from_csr(const LocalCsr& csr) {
  struct Entry {
    VertexId src;
    LocalId dst;
    Weight w;
  };
  const std::uint64_t m = csr.num_edges();
  const auto neighbours = csr.adjacency();

  // Stable LSD radix sort of the CSR entries on the global neighbour id.
  // CSR order is already ascending by local id, so equal keys stay in dst
  // order.  Digits are at most kMaxDigitBits wide and split the key width
  // evenly; one counting pass over the neighbours fills every histogram.
  constexpr int kMaxDigitBits = 11;
  VertexId max_key = 0;
  for (const VertexId v : neighbours) max_key = std::max(max_key, v);
  const int key_bits = std::max(1, static_cast<int>(std::bit_width(max_key)));
  const int passes = (key_bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const int digit_bits = (key_bits + passes - 1) / passes;
  const std::size_t radix = std::size_t{1} << digit_bits;
  const VertexId digit_mask = radix - 1;
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(passes) * radix);
  for (const VertexId v : neighbours) {
    for (int p = 0; p < passes; ++p) {
      ++counts[static_cast<std::size_t>(p) * radix +
               ((v >> (p * digit_bits)) & digit_mask)];
    }
  }
  for (int p = 0; p < passes; ++p) {
    std::uint64_t sum = 0;
    for (std::size_t d = 0; d < radix; ++d) {
      auto& c = counts[static_cast<std::size_t>(p) * radix + d];
      sum += std::exchange(c, sum);
    }
  }

  // The first pass scatters straight from the CSR; later passes ping-pong
  // between two entry buffers.
  std::vector<Entry> sorted(m);
  std::vector<Entry> scratch;
  for (LocalId u = 0; u < csr.num_local(); ++u) {
    for (std::uint64_t e = csr.edges_begin(u); e < csr.edges_end(u); ++e) {
      const VertexId v = csr.dst(e);
      sorted[counts[v & digit_mask]++] = Entry{v, u, csr.weight(e)};
    }
  }
  if (passes > 1) scratch.resize(m);
  for (int p = 1; p < passes; ++p) {
    std::uint64_t* cursor = counts.data() + static_cast<std::size_t>(p) * radix;
    for (const Entry& en : sorted) {
      scratch[cursor[(en.src >> (p * digit_bits)) & digit_mask]++] = en;
    }
    sorted.swap(scratch);
  }
  scratch = {};

  // Order each source group by (weight, dst) and count the groups.
  std::size_t groups = 0;
  for (std::uint64_t first = 0; first < m;) {
    std::uint64_t last = first + 1;
    while (last < m && sorted[last].src == sorted[first].src) ++last;
    std::sort(sorted.begin() + static_cast<std::ptrdiff_t>(first),
              sorted.begin() + static_cast<std::ptrdiff_t>(last),
              weight_then_dst<Entry>);
    ++groups;
    first = last;
  }

  PullIndex index;
  index.sources_store_.resize(groups);
  index.offsets_store_.resize(groups + 1);
  index.dst_store_.resize(m);
  index.w_store_.resize(m);
  std::size_t g = 0;
  for (std::uint64_t e = 0; e < m; ++e) {
    if (e == 0 || sorted[e].src != sorted[e - 1].src) {
      index.sources_store_[g] = sorted[e].src;
      index.offsets_store_[g] = e;
      ++g;
    }
    index.dst_store_[e] = sorted[e].dst;
    index.w_store_[e] = sorted[e].w;
  }
  index.offsets_store_[groups] = m;
  index.bind_owned();
  return index;
}

PullIndex PullIndex::view(std::span<const VertexId> sources,
                          std::span<const std::uint64_t> offsets,
                          std::span<const LocalId> dst,
                          std::span<const Weight> w) {
  if (offsets.size() != sources.size() + 1 ||
      (offsets.empty() ? !dst.empty()
                       : (offsets.front() != 0 || offsets.back() != dst.size())) ||
      dst.size() != w.size()) {
    throw std::invalid_argument("PullIndex::view: inconsistent array shapes");
  }
  PullIndex index;
  index.owned_ = false;
  index.sources_ = sources;
  index.offsets_ = offsets;
  index.dst_ = dst;
  index.w_ = w;
  return index;
}

void PullIndex::bind_owned() {
  owned_ = true;
  sources_ = sources_store_;
  offsets_ = offsets_store_;
  dst_ = dst_store_;
  w_ = w_store_;
}

PullIndex& PullIndex::operator=(const PullIndex& other) {
  if (this == &other) return *this;
  if (other.owned_) {
    sources_store_ = other.sources_store_;
    offsets_store_ = other.offsets_store_;
    dst_store_ = other.dst_store_;
    w_store_ = other.w_store_;
    bind_owned();
  } else {
    sources_store_.clear();
    offsets_store_.clear();
    dst_store_.clear();
    w_store_.clear();
    owned_ = false;
    sources_ = other.sources_;
    offsets_ = other.offsets_;
    dst_ = other.dst_;
    w_ = other.w_;
  }
  return *this;
}

PullIndex& PullIndex::operator=(PullIndex&& other) noexcept {
  if (this == &other) return *this;
  owned_ = other.owned_;
  sources_store_ = std::move(other.sources_store_);
  offsets_store_ = std::move(other.offsets_store_);
  dst_store_ = std::move(other.dst_store_);
  w_store_ = std::move(other.w_store_);
  sources_ = other.sources_;
  offsets_ = other.offsets_;
  dst_ = other.dst_;
  w_ = other.w_;
  other.owned_ = true;
  other.sources_ = {};
  other.offsets_ = {};
  other.dst_ = {};
  other.w_ = {};
  return *this;
}

std::uint64_t PullIndex::resident_bytes() const noexcept {
  return sources_store_.capacity() * sizeof(VertexId) +
         offsets_store_.capacity() * sizeof(std::uint64_t) +
         dst_store_.capacity() * sizeof(LocalId) +
         w_store_.capacity() * sizeof(Weight);
}

PullIndex::Range PullIndex::find(VertexId s, std::size_t* index) const {
  const auto it = std::lower_bound(sources_.begin(), sources_.end(), s);
  if (it == sources_.end() || *it != s) return Range{};
  const auto i = static_cast<std::size_t>(it - sources_.begin());
  if (index != nullptr) *index = i;
  return Range{offsets_[i], offsets_[i + 1]};
}

std::uint64_t PullIndex::split_at(Range r, Weight delta) const {
  const auto first = w_.begin() + static_cast<std::ptrdiff_t>(r.first);
  const auto last = w_.begin() + static_cast<std::ptrdiff_t>(r.last);
  return static_cast<std::uint64_t>(std::lower_bound(first, last, delta) -
                                    w_.begin());
}

}  // namespace g500::graph
