// F7 — Generator and construction throughput (google-benchmark).
//
// Graph 500 submissions report construction time alongside SSSP; these
// microbenchmarks cover the three construction stages: counter-based edge
// materialization, the vertex scramble, and the full distributed build.
#include <benchmark/benchmark.h>

#include <filesystem>

#include "gbench_report.hpp"
#include "graph/builder.hpp"
#include "graph/kronecker.hpp"
#include "ooc/pipeline.hpp"
#include "simmpi/comm.hpp"

namespace {

using namespace g500;
using namespace g500::graph;

void BM_KroneckerEdge(benchmark::State& state) {
  KroneckerParams params;
  params.scale = static_cast<int>(state.range(0));
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(kronecker_edge(params, i++));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KroneckerEdge)->Arg(16)->Arg(24)->Arg(32)->Arg(43);

void BM_ScrambleVertex(benchmark::State& state) {
  const int scale = static_cast<int>(state.range(0));
  VertexId v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scramble_vertex(v++, scale, 2, 3));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ScrambleVertex)->Arg(16)->Arg(43);

void BM_KroneckerSlice(benchmark::State& state) {
  KroneckerParams params;
  params.scale = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kronecker_slice(params, 0, 1 << 16));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (1 << 16));
}
BENCHMARK(BM_KroneckerSlice)->Arg(16)->Arg(20)->Unit(benchmark::kMillisecond);

void BM_DistributedBuild(benchmark::State& state) {
  KroneckerParams params;
  params.scale = static_cast<int>(state.range(0));
  const int ranks = static_cast<int>(state.range(1));
  for (auto _ : state) {
    simmpi::World world(ranks);
    world.run([&](simmpi::Comm& comm) {
      benchmark::DoNotOptimize(build_kronecker(comm, params));
    });
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(params.num_edges()));
}
// Wall time: the rank threads do the work, so the main thread's CPU time
// would understate every iteration.
BENCHMARK(BM_DistributedBuild)
    ->UseRealTime()
    ->Args({12, 1})
    ->Args({12, 4})
    ->Args({14, 4})
    ->Args({14, 8})
    ->Unit(benchmark::kMillisecond);

// The out-of-core bin/sort/pack pipeline against the in-memory build above:
// same scales, but edges stream through bounded buffers into disk shards
// instead of materializing per rank.
void BM_PipelinedBuild(benchmark::State& state) {
  KroneckerParams params;
  params.scale = static_cast<int>(state.range(0));
  const int ranks = static_cast<int>(state.range(1));
  const auto dir =
      std::filesystem::temp_directory_path() / "g500_bench_ooc";
  ooc::PipelineOptions opts;
  opts.resident_budget_bytes = 8ull << 20;
  for (auto _ : state) {
    simmpi::World world(ranks);
    world.run([&](simmpi::Comm& comm) {
      benchmark::DoNotOptimize(
          ooc::build_sharded_kronecker(comm, params, dir.string(), opts));
    });
  }
  std::filesystem::remove_all(dir);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(params.num_edges()));
}
BENCHMARK(BM_PipelinedBuild)
    ->UseRealTime()
    ->Args({12, 1})
    ->Args({12, 4})
    ->Args({14, 4})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  return g500::bench::gbench_main("kronecker", argc, argv);
}
