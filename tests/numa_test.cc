// NUMA subsystem tests: sysfs parsing (cpulist, fake specs, fabricated
// topology trees), the lane->node block map, hierarchical stealing on fake
// multi-node topologies, placement content preservation and page counts,
// and the acceptance bar — partition / radixsort / join outputs stay
// byte-identical across every topology shape and thread count (layout
// depends only on the morsel grid; NUMA is pure policy).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "join/hash_join.h"
#include "numa/placement.h"
#include "numa/topology.h"
#include "obs/metrics.h"
#include "partition/parallel_partition.h"
#include "partition/partition_fn.h"
#include "partition/shuffle.h"
#include "sort/radix_sort.h"
#include "util/aligned_buffer.h"
#include "util/alloc.h"
#include "util/data_gen.h"
#include "util/task_pool.h"

#if defined(__linux__)
#include <fstream>
#include <sys/stat.h>
#endif

namespace simddb {
namespace {

/// Current value of the named obs instrument (0 + test failure if absent).
uint64_t Metric(const char* name) {
  for (const obs::MetricSample& s : obs::MetricsRegistry::Get().Snapshot()) {
    if (std::strcmp(s.name, name) == 0) return s.value;
  }
  ADD_FAILURE() << "metric " << name << " not registered";
  return 0;
}

/// Turns metrics on for one test and restores the default-off state.
struct ScopedMetrics {
  ScopedMetrics() {
    obs::EnableMetrics(true);
    obs::MetricsRegistry::Get().ResetAll();
  }
  ~ScopedMetrics() { obs::EnableMetrics(false); }
};

/// Installs a fake topology for one scope, restoring the process default on
/// destruction. The topology object outlives every dispatch issued inside
/// the scope (member, destroyed after the reset).
struct ScopedTopology {
  ScopedTopology(int nodes, int cpus)
      : topo(numa::MakeFakeTopology(nodes, cpus)) {
    numa::SetTopologyForTesting(&topo);
  }
  ~ScopedTopology() { numa::SetTopologyForTesting(nullptr); }
  numa::NumaTopology topo;
};

TEST(NumaTopologyTest, ParseCpuListForms) {
  EXPECT_EQ(numa::ParseCpuList("0\n"), (std::vector<int>{0}));
  EXPECT_EQ(numa::ParseCpuList("0-3"), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(numa::ParseCpuList("0-2,8-9,15\n"),
            (std::vector<int>{0, 1, 2, 8, 9, 15}));
  EXPECT_EQ(numa::ParseCpuList("7"), (std::vector<int>{7}));
  // Empty list (cpu-less memory node) is valid and empty.
  EXPECT_TRUE(numa::ParseCpuList("").empty());
  EXPECT_TRUE(numa::ParseCpuList("\n").empty());
  // Malformed forms reject to empty.
  EXPECT_TRUE(numa::ParseCpuList("a-b").empty());
  EXPECT_TRUE(numa::ParseCpuList("3-1").empty());
  EXPECT_TRUE(numa::ParseCpuList("1,,2").empty());
  EXPECT_TRUE(numa::ParseCpuList("1-").empty());
  EXPECT_TRUE(numa::ParseCpuList("9999999999").empty());
}

TEST(NumaTopologyTest, ParseNumaFakeSpecs) {
  int n = 0, c = 0;
  EXPECT_TRUE(numa::ParseNumaFake("2x4", &n, &c));
  EXPECT_EQ(n, 2);
  EXPECT_EQ(c, 4);
  EXPECT_TRUE(numa::ParseNumaFake("1x1", &n, &c));
  EXPECT_TRUE(numa::ParseNumaFake("1024x1024", &n, &c));
  EXPECT_FALSE(numa::ParseNumaFake("", &n, &c));
  EXPECT_FALSE(numa::ParseNumaFake(nullptr, &n, &c));
  EXPECT_FALSE(numa::ParseNumaFake("2", &n, &c));
  EXPECT_FALSE(numa::ParseNumaFake("x4", &n, &c));
  EXPECT_FALSE(numa::ParseNumaFake("2x", &n, &c));
  EXPECT_FALSE(numa::ParseNumaFake("2x4x8", &n, &c));
  EXPECT_FALSE(numa::ParseNumaFake("0x4", &n, &c));
  EXPECT_FALSE(numa::ParseNumaFake("2x1025", &n, &c));
}

TEST(NumaTopologyTest, MakeFakeTopologyShapeAndNodeOfCpu) {
  const numa::NumaTopology topo = numa::MakeFakeTopology(2, 4);
  EXPECT_TRUE(topo.fake);
  ASSERT_EQ(topo.node_count(), 2);
  EXPECT_EQ(topo.total_cpus(), 8);
  EXPECT_EQ(topo.nodes[0].cpus, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(topo.nodes[1].cpus, (std::vector<int>{4, 5, 6, 7}));
  EXPECT_EQ(topo.NodeOfCpu(0), 0);
  EXPECT_EQ(topo.NodeOfCpu(3), 0);
  EXPECT_EQ(topo.NodeOfCpu(4), 1);
  EXPECT_EQ(topo.NodeOfCpu(7), 1);
  EXPECT_EQ(topo.NodeOfCpu(8), -1);
}

TEST(NumaTopologyTest, NodeOfLaneContiguousBlocks) {
  // 8 lanes over 2 nodes: halves.
  for (int lane = 0; lane < 4; ++lane) {
    EXPECT_EQ(numa::NodeOfLane(lane, 8, 2), 0) << lane;
  }
  for (int lane = 4; lane < 8; ++lane) {
    EXPECT_EQ(numa::NodeOfLane(lane, 8, 2), 1) << lane;
  }
  // Single node or single lane: always node 0.
  EXPECT_EQ(numa::NodeOfLane(5, 8, 1), 0);
  EXPECT_EQ(numa::NodeOfLane(0, 1, 4), 0);
  // Monotonic, onto [0, n_nodes), and contiguous for every shape.
  for (int n_nodes : {2, 3, 4}) {
    for (int n_lanes : {4, 7, 8, 16}) {
      if (n_lanes < n_nodes) continue;
      int prev = 0;
      std::vector<int> seen(n_nodes, 0);
      for (int lane = 0; lane < n_lanes; ++lane) {
        const int node = numa::NodeOfLane(lane, n_lanes, n_nodes);
        ASSERT_GE(node, 0);
        ASSERT_LT(node, n_nodes);
        ASSERT_GE(node, prev) << "non-contiguous block";
        prev = node;
        ++seen[node];
      }
      for (int k = 0; k < n_nodes; ++k) {
        EXPECT_GT(seen[k], 0) << "node " << k << " owns no lanes "
                              << n_lanes << "/" << n_nodes;
      }
    }
  }
  // Out-of-range lanes clamp instead of mapping past the last node.
  EXPECT_EQ(numa::NodeOfLane(99, 8, 2), 1);
}

#if defined(__linux__)
TEST(NumaTopologyTest, DiscoverTopologyParsesFabricatedSysfsTree) {
  char tmpl[] = "/tmp/simddb_numa_test_XXXXXX";
  char* root = mkdtemp(tmpl);
  ASSERT_NE(root, nullptr);
  const std::string r(root);
  const auto write_file = [](const std::string& path, const char* text) {
    std::ofstream f(path);
    ASSERT_TRUE(f.is_open()) << path;
    f << text;
  };
  ASSERT_EQ(mkdir((r + "/node0").c_str(), 0755), 0);
  ASSERT_EQ(mkdir((r + "/node1").c_str(), 0755), 0);
  ASSERT_EQ(mkdir((r + "/node2").c_str(), 0755), 0);
  write_file(r + "/online", "0-2\n");
  write_file(r + "/node0/cpulist", "0-3\n");
  write_file(r + "/node0/meminfo", "Node 0 MemTotal:     1024 kB\n");
  // node1 is a cpu-less memory node: it must be skipped.
  write_file(r + "/node1/cpulist", "\n");
  write_file(r + "/node1/meminfo", "Node 1 MemTotal:     4096 kB\n");
  write_file(r + "/node2/cpulist", "4-7,12-15\n");
  write_file(r + "/node2/meminfo", "Node 2 MemTotal:     2048 kB\n");

  const numa::NumaTopology topo = numa::DiscoverTopology(r.c_str());
  EXPECT_FALSE(topo.fake);
  ASSERT_EQ(topo.node_count(), 2);
  EXPECT_EQ(topo.nodes[0].id, 0);
  EXPECT_EQ(topo.nodes[0].cpus, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(topo.nodes[0].mem_bytes, 1024u * 1024);
  EXPECT_EQ(topo.nodes[1].id, 2);
  EXPECT_EQ(topo.nodes[1].cpus, (std::vector<int>{4, 5, 6, 7, 12, 13, 14, 15}));
  EXPECT_EQ(topo.nodes[1].mem_bytes, 2048u * 1024);
  EXPECT_EQ(topo.NodeOfCpu(13), 1);  // index, not sysfs id
  EXPECT_EQ(topo.NodeOfCpu(8), -1);
}
#endif  // __linux__

TEST(NumaTopologyTest, DiscoverTopologyFallsBackWithoutSysfs) {
  const numa::NumaTopology topo =
      numa::DiscoverTopology("/nonexistent/simddb/sysfs");
  EXPECT_FALSE(topo.fake);
  ASSERT_EQ(topo.node_count(), 1);
  EXPECT_EQ(topo.nodes[0].id, 0);
  EXPECT_GE(topo.total_cpus(), 1);
}

TEST(NumaTopologyTest, TopologyOverrideRoundTrip) {
  const numa::NumaTopology fake = numa::MakeFakeTopology(4, 2);
  numa::SetTopologyForTesting(&fake);
  EXPECT_TRUE(numa::Topology().fake);
  EXPECT_EQ(numa::Topology().node_count(), 4);
  numa::SetTopologyForTesting(nullptr);
  EXPECT_GE(numa::Topology().node_count(), 1);
}

// Skewed workload on a fake 2-node topology: node 0's lanes own the slow
// tasks, so node 1's lanes run dry and must cross the node boundary.
void RunSkewedTwoNodeJob() {
  constexpr size_t kTasks = 32;  // 8 lanes x 4 tasks; node 0 owns 0..15
  TaskPool::Get().ParallelFor(kTasks, 8, [&](int, size_t task) {
    if (task < kTasks / 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
}

TEST(NumaStealTest, HierarchicalStealsCrossNodesWhenLocalNodeDry) {
  ScopedTopology numa_env(2, 4);
  ScopedMetrics metrics;
  RunSkewedTwoNodeJob();
  EXPECT_EQ(Metric("morsels"), 32u);
  EXPECT_GT(Metric("steals_remote"), 0u);
  EXPECT_EQ(Metric("steals_local") + Metric("steals_remote"),
            Metric("steals"));
}

TEST(NumaPlacementTest, PlaceBufferPreservesContentsOnFakeTopology) {
  ScopedTopology numa_env(2, 4);
  const size_t n = (size_t{1} << 16) + 37;
  AlignedBuffer<uint32_t> buf(n);
  FillUniform(buf.data(), n, 51, 0, 0xFFFFFFFFu);
  std::vector<uint32_t> want(buf.data(), buf.data() + n);
  numa::PlaceBuffer(buf.data(), n * sizeof(uint32_t), 8,
                    numa::Placement::kNodeLocal);
  EXPECT_EQ(std::memcmp(buf.data(), want.data(), n * sizeof(uint32_t)), 0);
  numa::PlaceBuffer(buf.data(), n * sizeof(uint32_t), 8,
                    numa::Placement::kInterleaved);
  EXPECT_EQ(std::memcmp(buf.data(), want.data(), n * sizeof(uint32_t)), 0);
}

TEST(NumaPlacementTest, PlaceBufferCountsFirstTouchedPages) {
  ScopedTopology numa_env(2, 4);
  const size_t bytes = 64 * PageBytes();
  AlignedBuffer<uint32_t> buf(bytes / sizeof(uint32_t));
  for (int threads : {1, 2, 8}) {
    ScopedMetrics metrics;
    numa::PlaceBuffer(buf.data(), bytes, threads,
                      numa::Placement::kNodeLocal);
    // The page blocks tile the 64 pages: every one is touched exactly once.
    EXPECT_EQ(Metric("pages_first_touched"), 64u) << "t=" << threads;
  }
}

TEST(NumaPlacementTest, PlaceBufferIsNoOpOnRealSingleNode) {
  if (numa::Topology().node_count() > 1 || numa::Topology().fake) {
    GTEST_SKIP() << "host is not a plain single-node topology";
  }
  ScopedMetrics metrics;
  const size_t n = size_t{1} << 12;
  AlignedBuffer<uint32_t> buf(n);
  FillSequential(buf.data(), n, 7);
  numa::PlaceBuffer(buf.data(), n * sizeof(uint32_t), 8,
                    numa::Placement::kNodeLocal);
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(buf[i], 7 + i);
  EXPECT_EQ(Metric("pages_first_touched"), 0u);
}

// The acceptance bar: one partition pass produces byte-identical output
// for every topology shape x thread count, because layout depends only on
// the morsel grid. The reference runs with the host's real topology.
TEST(NumaDeterminismTest, PartitionByteIdenticalAcrossTopologiesAndScopes) {
  const size_t n = (size_t{1} << 17) + 345;  // 9 morsels
  const uint32_t fanout = 256;
  AlignedBuffer<uint32_t> keys(n + 16), pays(n + 16);
  FillUniform(keys.data(), n, 61, 0, 0xFFFFFFFFu);
  FillSequential(pays.data(), n, 0);
  PartitionFn fn = PartitionFn::Hash(fanout);
  const size_t cap = ShuffleCapacity(n);
  for (Isa isa : {Isa::kScalar, Isa::kAvx512}) {
    if (!IsaSupported(isa)) continue;
    AlignedBuffer<uint32_t> ref_k(cap), ref_p(cap);
    std::vector<uint32_t> ref_starts(fanout + 1);
    {
      ParallelPartitionResources res;
      ParallelPartitionPass(fn, keys.data(), pays.data(), n, ref_k.data(),
                            ref_p.data(), isa, 8, &res, ref_starts.data());
    }
    const std::pair<int, int> shapes[] = {{1, 8}, {2, 4}, {4, 2}};
    for (const std::pair<int, int>& shape : shapes) {
      for (int threads : {1, 8}) {
        ScopedTopology numa_env(shape.first, shape.second);
        AlignedBuffer<uint32_t> k(cap), p(cap);
        std::vector<uint32_t> starts(fanout + 1);
        ParallelPartitionResources res;
        ParallelPartitionPass(fn, keys.data(), pays.data(), n, k.data(),
                              p.data(), isa, threads, &res, starts.data());
        const std::string what =
            std::string(IsaName(isa)) + " topo=" +
            std::to_string(shape.first) + "x" +
            std::to_string(shape.second) + " t=" + std::to_string(threads);
        ASSERT_EQ(starts, ref_starts) << what;
        ASSERT_EQ(std::memcmp(k.data(), ref_k.data(), n * 4), 0) << what;
        ASSERT_EQ(std::memcmp(p.data(), ref_p.data(), n * 4), 0) << what;
      }
    }
  }
}

TEST(NumaDeterminismTest, RadixSortByteIdenticalAcrossTopologies) {
  const size_t n = (size_t{1} << 16) + 99;
  AlignedBuffer<uint32_t> base_k(n + 16), base_p(n + 16);
  FillUniform(base_k.data(), n, 67, 0, 0xFFFFFFFFu);
  FillSequential(base_p.data(), n, 0);
  RadixSortConfig cfg;
  cfg.isa = Isa::kScalar;
  cfg.threads = 8;
  std::vector<uint32_t> ref_k, ref_p;
  {
    AlignedBuffer<uint32_t> k(n + 16), p(n + 16), sk(n + 16), sp(n + 16);
    std::memcpy(k.data(), base_k.data(), n * 4);
    std::memcpy(p.data(), base_p.data(), n * 4);
    RadixSortPairs(k.data(), p.data(), sk.data(), sp.data(), n, cfg);
    ref_k.assign(k.data(), k.data() + n);
    ref_p.assign(p.data(), p.data() + n);
    for (size_t i = 1; i < n; ++i) ASSERT_LE(ref_k[i - 1], ref_k[i]);
  }
  ScopedTopology numa_env(2, 4);
  AlignedBuffer<uint32_t> k(n + 16), p(n + 16), sk(n + 16), sp(n + 16);
  std::memcpy(k.data(), base_k.data(), n * 4);
  std::memcpy(p.data(), base_p.data(), n * 4);
  RadixSortPairs(k.data(), p.data(), sk.data(), sp.data(), n, cfg);
  ASSERT_EQ(std::memcmp(k.data(), ref_k.data(), n * 4), 0);
  ASSERT_EQ(std::memcmp(p.data(), ref_p.data(), n * 4), 0);
}

// The max-partition join (partition passes) and the no-partition join (a
// build ParallelFor over R's morsels, then a probe ParallelFor over S's):
// unsorted output on a fake 2x4 topology at threads {1, 2, 8} matches the
// host-topology run at 8 threads byte for byte.
TEST(NumaDeterminismTest, MaxPartitionJoinByteIdenticalAcrossTopologies) {
  const size_t rn = size_t{1} << 14;
  const size_t sn = (size_t{1} << 15) + 111;
  AlignedBuffer<uint32_t> rk(rn + 16), rp(rn + 16), sk(sn + 16), sp(sn + 16);
  FillUniqueShuffled(rk.data(), rn, 71, 1);
  FillSequential(rp.data(), rn, 0);
  FillProbeKeys(sk.data(), sn, rk.data(), rn, 0.9, 73);
  FillSequential(sp.data(), sn, 0);
  JoinRelation r{rk.data(), rp.data(), rn};
  JoinRelation s{sk.data(), sp.data(), sn};
  using JoinFn = size_t (*)(const JoinRelation&, const JoinRelation&,
                            const JoinConfig&, uint32_t*, uint32_t*,
                            uint32_t*, JoinTimings*);
  const std::pair<const char*, JoinFn> joins[] = {
      {"max_partition", HashJoinMaxPartition},
      {"no_partition", HashJoinNoPartition}};
  for (const auto& [name, join] : joins) {
    JoinConfig cfg;
    cfg.isa = Isa::kScalar;
    cfg.threads = 8;
    std::vector<uint32_t> ref_k, ref_rp, ref_sp;
    size_t ref_matches = 0;
    {
      AlignedBuffer<uint32_t> ok(sn + 16), orp(sn + 16), osp(sn + 16);
      ref_matches =
          join(r, s, cfg, ok.data(), orp.data(), osp.data(), nullptr);
      ASSERT_GT(ref_matches, 0u) << name;
      ref_k.assign(ok.data(), ok.data() + ref_matches);
      ref_rp.assign(orp.data(), orp.data() + ref_matches);
      ref_sp.assign(osp.data(), osp.data() + ref_matches);
    }
    for (int threads : {1, 2, 8}) {
      ScopedTopology numa_env(2, 4);
      cfg.threads = threads;
      AlignedBuffer<uint32_t> ok(sn + 16), orp(sn + 16), osp(sn + 16);
      const size_t matches =
          join(r, s, cfg, ok.data(), orp.data(), osp.data(), nullptr);
      const std::string what =
          std::string(name) + " t=" + std::to_string(threads);
      ASSERT_EQ(matches, ref_matches) << what;
      ASSERT_EQ(std::memcmp(ok.data(), ref_k.data(), matches * 4), 0) << what;
      ASSERT_EQ(std::memcmp(orp.data(), ref_rp.data(), matches * 4), 0)
          << what;
      ASSERT_EQ(std::memcmp(osp.data(), ref_sp.data(), matches * 4), 0)
          << what;
    }
  }
}

}  // namespace
}  // namespace simddb
