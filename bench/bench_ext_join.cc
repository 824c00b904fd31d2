// Extension benchmark: the executor's two join-table layouts, build + probe
// on every ISA. HashBuildOp builds a DirectJoinTable when the build keys'
// range spans at most twice the LinearProbingTable's bucket count
// (DirectJoinTable::Fits: 4 B per slot against 8 B per bucket) and the
// LinearProbingTable otherwise. The rows time both layouts over the same
// keys at three points:
//
//   shape 0  64K dense keys, 2^18 buckets: the build side of wirebench
//            short_hot and packed_window;
//   shape 1  786K dense keys, 2^21 buckets: the build side of scan_large;
//   shape 2  64K keys spread over 2^19 values (stride 8), 2^18 buckets:
//            the rule's limit, where the array holds as much memory as the
//            table it replaces.
//
// Build keys are a seeded permutation, as in wirebench's tables. Each
// iteration allocates and builds a fresh table, as every query does, and
// probes 1M keys of which 75% match (scan_large's join hit fraction; the
// misses lie above the key range). One thread: the executor builds the
// direct table serially on every lane count, and the hash table serially
// on one lane (BuildPartitioned with one range is BuildScalar). The
// build_ms / probe_ms counters split each row's time.
//
// Args {shape, layout (0 = direct, 1 = hash), isa}.

#include <chrono>
#include <string>

#include "bench/bench_common.h"
#include "hash/direct_table.h"
#include "hash/linear_probing.h"

namespace simddb::bench {
namespace {

constexpr size_t kProbeTuples = size_t{1} << 20;

struct Shape {
  size_t keys;
  uint32_t stride;
  const char* name;
};
constexpr Shape kShapes[] = {{size_t{64} << 10, 1, "dense_64k"},
                             {786'432, 1, "dense_786k"},
                             {size_t{64} << 10, 8, "limit_64k"}};

// HashBuildOp's bucket count: load factor <= 50%.
size_t Buckets(size_t n) {
  size_t buckets = 16;
  while (buckets < 2 * (n + 1)) buckets <<= 1;
  return buckets;
}

struct JoinInput {
  AlignedBuffer<uint32_t> keys, pays, probe_keys, probe_pays;
  uint32_t key_min = 0, key_max = 0;

  explicit JoinInput(const Shape& s) {
    keys.Reset(s.keys + 16);
    pays.Reset(s.keys + 16);
    FillUniqueShuffled(keys.data(), s.keys, 3, 0);
    for (size_t i = 0; i < s.keys; ++i) keys[i] = 1 + keys[i] * s.stride;
    FillUniform(pays.data(), s.keys, 4, 1, 256);
    key_min = 1;
    key_max = static_cast<uint32_t>(1 + (s.keys - 1) * s.stride);
    probe_keys.Reset(kProbeTuples + 16);
    probe_pays.Reset(kProbeTuples + 16);
    FillProbeKeys(probe_keys.data(), kProbeTuples, keys.data(), s.keys, 0.75,
                  5);
    FillSequential(probe_pays.data(), kProbeTuples, 0);
  }

  static const JoinInput& Get(int shape) {
    static JoinInput* inputs[3] = {};
    if (inputs[shape] == nullptr) inputs[shape] = new JoinInput(kShapes[shape]);
    return *inputs[shape];
  }
};

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

void BM_JoinLayout(benchmark::State& state) {
  const int shape = static_cast<int>(state.range(0));
  const bool hash = state.range(1) != 0;
  const Isa isa = static_cast<Isa>(state.range(2));
  if (!RequireIsa(state, isa)) return;
  const Shape& s = kShapes[shape];
  const JoinInput& in = JoinInput::Get(shape);
  const size_t buckets = Buckets(s.keys);
  if (!DirectJoinTable::Fits(in.key_min, in.key_max, buckets)) {
    state.SkipWithError("shape outside the direct layout's rule");
    return;
  }
  AlignedBuffer<uint32_t> ok(kProbeTuples + 16), os(kProbeTuples + 16),
      orp(kProbeTuples + 16);
  double build_ms = 0, probe_ms = 0;
  size_t matches = 0;
  for (auto _ : state) {
    auto t0 = std::chrono::steady_clock::now();
    if (hash) {
      LinearProbingTable table(buckets);
      table.BuildScalar(in.keys.data(), in.pays.data(), s.keys);
      build_ms += MsSince(t0);
      t0 = std::chrono::steady_clock::now();
      matches = table.Probe(isa, in.probe_keys.data(), in.probe_pays.data(),
                            kProbeTuples, ok.data(), os.data(), orp.data());
    } else {
      DirectJoinTable table(in.key_min, in.key_max - in.key_min + 1);
      benchmark::DoNotOptimize(
          table.Build(in.keys.data(), in.pays.data(), s.keys));
      build_ms += MsSince(t0);
      t0 = std::chrono::steady_clock::now();
      matches = table.Probe(isa, in.probe_keys.data(), in.probe_pays.data(),
                            kProbeTuples, ok.data(), os.data(), orp.data());
    }
    probe_ms += MsSince(t0);
    benchmark::DoNotOptimize(matches);
    benchmark::DoNotOptimize(orp.data());
    benchmark::ClobberMemory();
  }
  SetTuplesPerSecond(state, static_cast<double>(s.keys + kProbeTuples));
  const double iters = static_cast<double>(state.iterations());
  state.counters["build_ms"] = build_ms / iters;
  state.counters["probe_ms"] = probe_ms / iters;
  state.counters["matches"] = static_cast<double>(matches);
  state.SetLabel(std::string(hash ? "join_hash" : "join_direct") + " " +
                 s.name + " isa=" + IsaName(isa) +
                 " buckets=" + std::to_string(buckets) + " width=" +
                 std::to_string(in.key_max - in.key_min + 1));
}

BENCHMARK(BM_JoinLayout)
    ->ArgsProduct({{0, 1, 2}, {0, 1}, {0, 1, 2}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace simddb::bench

SIMDDB_BENCH_MAIN();
