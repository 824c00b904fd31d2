// Scheduler tests: TaskPool work distribution (every task exactly once,
// stealing under skewed morsel costs, oversubscription beyond the hardware
// thread count), sub-morsel inputs, and the determinism guarantee —
// parallel radixsort and the max- and no-partition joins produce
// byte-identical output for every thread count and run.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hash/hash_table.h"
#include "join/hash_join.h"
#include "obs/metrics.h"
#include "sort/radix_sort.h"
#include "util/aligned_buffer.h"
#include "util/data_gen.h"
#include "util/task_pool.h"

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

TEST(TaskPoolTest, RunsEveryTaskExactlyOnce) {
  constexpr size_t kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  for (auto& h : hits) h.store(0);
  TaskPool::Get().ParallelFor(kTasks, 8, [&](int worker, size_t task) {
    EXPECT_GE(worker, 0);
    EXPECT_LT(worker, 8);
    hits[task].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(hits[t].load(), 1) << "task " << t;
  }
}

TEST(TaskPoolTest, SingleTaskAndSingleWorkerRunInlineOnCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  TaskPool::Get().ParallelFor(1, 8, [&](int worker, size_t task) {
    EXPECT_EQ(worker, 0);
    EXPECT_EQ(task, 0u);
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, caller);
  size_t count = 0;
  TaskPool::Get().ParallelFor(64, 1, [&](int worker, size_t) {
    EXPECT_EQ(worker, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    ++count;  // safe: inline fast path is sequential
  });
  EXPECT_EQ(count, 64u);
}

TEST(TaskPoolTest, OversubscriptionBeyondHardwareThreads) {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int workers = std::min(TaskPool::MaxWorkers(), 2 * std::max(hw, 8));
  constexpr size_t kTasks = 4096;
  std::vector<std::atomic<int>> hits(kTasks);
  for (auto& h : hits) h.store(0);
  TaskPool::Get().ParallelFor(kTasks, workers, [&](int, size_t task) {
    hits[task].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t t = 0; t < kTasks; ++t) {
    ASSERT_EQ(hits[t].load(), 1) << "task " << t;
  }
  EXPECT_LE(TaskPool::Get().SpawnedWorkers(), TaskPool::MaxWorkers());
}

TEST(TaskPoolTest, StealingRebalancesSkewedTaskCosts) {
  // Lane 0's first task blocks for a long time; its remaining contiguous
  // tasks must migrate to other lanes while it sleeps.
  constexpr size_t kTasks = 64;
  const int workers = 4;
  std::vector<std::atomic<int>> ran_by(kTasks);
  for (auto& r : ran_by) r.store(-1);
  TaskPool::Get().ParallelFor(kTasks, workers, [&](int worker, size_t task) {
    if (task == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    ran_by[task].store(worker, std::memory_order_relaxed);
  });
  for (size_t t = 0; t < kTasks; ++t) {
    ASSERT_GE(ran_by[t].load(), 0) << "task " << t << " never ran";
  }
  // Lane 0 initially owns tasks [0, 16); while it sleeps in task 0, at
  // least one of them must have been stolen by another lane.
  int stolen = 0;
  for (size_t t = 1; t < kTasks / workers; ++t) {
    if (ran_by[t].load() != 0) ++stolen;
  }
  EXPECT_GT(stolen, 0);
}

TEST(TaskPoolTest, NestedParallelForRunsInline) {
  std::atomic<size_t> total{0};
  TaskPool::Get().ParallelFor(8, 4, [&](int, size_t) {
    // A nested call from inside a pool job must not deadlock; it runs
    // inline on the worker.
    TaskPool::Get().ParallelFor(16, 4, [&](int worker, size_t) {
      EXPECT_EQ(worker, 0);
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 8u * 16u);
}

// The release-build guard for ranges past kMaxTasksPerDispatch: ParallelFor
// delegates to ParallelForChunked, exercised here with a small chunk so the
// splitting path is covered without dispatching 2^32 real tasks. (The old
// guard was an assert that compiled out under NDEBUG, after which PackRange
// silently truncated task indices to 32 bits.)
TEST(TaskPoolTest, ParallelForChunkedRunsEveryTaskExactlyOnce) {
  constexpr size_t kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  for (auto& h : hits) h.store(0);
  TaskPool::Get().ParallelForChunked(kTasks, 64, 8, [&](int, size_t task) {
    ASSERT_LT(task, kTasks);
    hits[task].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t t = 0; t < kTasks; ++t) {
    ASSERT_EQ(hits[t].load(), 1) << "task " << t;
  }
}

TEST(TaskPoolTest, ParallelForChunkedHandlesDegenerateChunkSizes) {
  constexpr size_t kTasks = 10;
  for (size_t chunk : {size_t{0}, size_t{1}, size_t{3}, kTasks,
                       TaskPool::kMaxTasksPerDispatch + 1}) {
    std::vector<std::atomic<int>> hits(kTasks);
    for (auto& h : hits) h.store(0);
    TaskPool::Get().ParallelForChunked(kTasks, chunk, 4,
                                       [&](int, size_t task) {
                                         hits[task].fetch_add(
                                             1, std::memory_order_relaxed);
                                       });
    for (size_t t = 0; t < kTasks; ++t) {
      ASSERT_EQ(hits[t].load(), 1) << "chunk " << chunk << " task " << t;
    }
  }
}

TEST(TaskPoolMetricsTest, CountsMorselsAndRangeSplits) {
  ScopedMetrics metrics;
  constexpr size_t kTasks = 100;
  std::atomic<size_t> ran{0};
  TaskPool::Get().ParallelForChunked(kTasks, 10, 4, [&](int, size_t) {
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), kTasks);
  // Every executed task is one morsel; the 100-task range split into ten
  // 10-task sub-dispatches.
  EXPECT_EQ(Metric("morsels"), kTasks);
  EXPECT_EQ(Metric("range_splits"), 10u);
}

TEST(TaskPoolMetricsTest, CountsInlineRuns) {
  ScopedMetrics metrics;
  TaskPool::Get().ParallelFor(64, 1, [](int, size_t) {});
  EXPECT_EQ(Metric("inline_runs"), 1u);
  EXPECT_EQ(Metric("morsels"), 64u);
  EXPECT_EQ(Metric("dispatches"), 0u);
}

TEST(TaskPoolMetricsTest, CountsStealsUnderSkewedTaskCosts) {
  ScopedMetrics metrics;
  // Same skew as StealingRebalancesSkewedTaskCosts: lane 0 blocks in its
  // first task, so its remaining contiguous tasks must be stolen.
  constexpr size_t kTasks = 64;
  TaskPool::Get().ParallelFor(kTasks, 4, [&](int, size_t task) {
    if (task == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
  });
  EXPECT_EQ(Metric("morsels"), kTasks);
  EXPECT_EQ(Metric("dispatches"), 1u);
  EXPECT_GT(Metric("steals"), 0u);
  EXPECT_GT(Metric("stolen_tasks"), 0u);
}

TEST(TaskPoolMetricsTest, DisabledMetricsStayZero) {
  if (obs::kMetricsForced) GTEST_SKIP() << "metrics forced on at compile time";
  obs::EnableMetrics(false);
  obs::MetricsRegistry::Get().ResetAll();
  TaskPool::Get().ParallelFor(256, 4, [](int, size_t) {});
  EXPECT_EQ(Metric("morsels"), 0u);
  EXPECT_EQ(Metric("dispatches"), 0u);
  EXPECT_EQ(Metric("steals"), 0u);
}

TEST(TaskPoolTest, BoundedMorselSizeStaysAlignedAndBounded) {
  for (size_t n : {size_t{0}, size_t{1}, kMorselTuples - 1, kMorselTuples,
                   kMorselTuples* kMaxMorselsPerPass,
                   kMorselTuples* kMaxMorselsPerPass + 1, size_t{1} << 26}) {
    const size_t morsel = BoundedMorselSize(n);
    EXPECT_EQ(morsel % 16, 0u) << n;
    EXPECT_GE(morsel, kMorselTuples) << n;
    EXPECT_LE(MorselGrid(n, morsel).count(), kMaxMorselsPerPass) << n;
  }
}

// Byte-identical output across thread counts and runs: the acceptance bar
// for dynamic scheduling (layout must depend on the morsel grid only).
TEST(DeterminismTest, RadixSortPairsByteIdenticalAcrossThreadsAndRuns) {
  const size_t n = (size_t{1} << 18) + 345;  // 17 morsels
  AlignedBuffer<uint32_t> base_k(n + 16), base_p(n + 16);
  FillUniform(base_k.data(), n, 23, 0, 0xFFFFFFFFu);
  FillSequential(base_p.data(), n, 0);
  for (Isa isa : {Isa::kScalar, Isa::kAvx512}) {
    if (!IsaSupported(isa)) continue;
    std::vector<uint32_t> ref_k, ref_p;
    for (int threads : {1, 2, 8}) {
      for (int run = 0; run < (threads == 8 ? 3 : 1); ++run) {
        AlignedBuffer<uint32_t> k(n + 16), p(n + 16), sk(n + 16), sp(n + 16);
        std::memcpy(k.data(), base_k.data(), n * 4);
        std::memcpy(p.data(), base_p.data(), n * 4);
        RadixSortConfig cfg;
        cfg.isa = isa;
        cfg.threads = threads;
        RadixSortPairs(k.data(), p.data(), sk.data(), sp.data(), n, cfg);
        if (ref_k.empty()) {
          ref_k.assign(k.data(), k.data() + n);
          ref_p.assign(p.data(), p.data() + n);
          for (size_t i = 1; i < n; ++i) ASSERT_LE(ref_k[i - 1], ref_k[i]);
        } else {
          ASSERT_EQ(std::memcmp(k.data(), ref_k.data(), n * 4), 0)
              << IsaName(isa) << " t=" << threads << " run=" << run;
          ASSERT_EQ(std::memcmp(p.data(), ref_p.data(), n * 4), 0)
              << IsaName(isa) << " t=" << threads << " run=" << run;
        }
      }
    }
  }
}

TEST(DeterminismTest, RadixSortMultiColumnByteIdenticalAcrossThreads) {
  const size_t n = (size_t{1} << 17) + 77;
  AlignedBuffer<uint32_t> base_k(n + 16);
  FillUniform(base_k.data(), n, 29, 0, 0xFFFFFFFFu);
  std::vector<uint16_t> base_c16(n);
  std::vector<uint64_t> base_c64(n);
  for (size_t i = 0; i < n; ++i) {
    base_c16[i] = static_cast<uint16_t>(i);
    base_c64[i] = i * 1000003ull;
  }
  for (Isa isa : {Isa::kScalar, Isa::kAvx512}) {
    if (!IsaSupported(isa)) continue;
    std::vector<uint32_t> ref_k;
    std::vector<uint16_t> ref_c16;
    std::vector<uint64_t> ref_c64;
    for (int threads : {1, 2, 8}) {
      AlignedBuffer<uint32_t> k(n + 16), sk(n + 16);
      std::memcpy(k.data(), base_k.data(), n * 4);
      std::vector<uint16_t> c16 = base_c16, s16(n + 16);
      std::vector<uint64_t> c64 = base_c64, s64(n + 16);
      c16.resize(n + 16);
      c64.resize(n + 16);
      SortColumn cols[2] = {{c16.data(), s16.data(), 2},
                            {c64.data(), s64.data(), 8}};
      RadixSortConfig cfg;
      cfg.isa = isa;
      cfg.threads = threads;
      RadixSortMultiColumn(k.data(), sk.data(), n, cols, 2, cfg);
      if (ref_k.empty()) {
        ref_k.assign(k.data(), k.data() + n);
        ref_c16.assign(c16.begin(), c16.begin() + n);
        ref_c64.assign(c64.begin(), c64.begin() + n);
        for (size_t i = 1; i < n; ++i) ASSERT_LE(ref_k[i - 1], ref_k[i]);
      } else {
        ASSERT_EQ(std::memcmp(k.data(), ref_k.data(), n * 4), 0)
            << IsaName(isa) << " t=" << threads;
        ASSERT_EQ(std::memcmp(c16.data(), ref_c16.data(), n * 2), 0)
            << IsaName(isa) << " t=" << threads;
        ASSERT_EQ(std::memcmp(c64.data(), ref_c64.data(), n * 8), 0)
            << IsaName(isa) << " t=" << threads;
      }
    }
  }
}

// The max-partition join (partition passes over morsel grids) and the
// no-partition join (one shared table: a build ParallelFor over R's morsels,
// then a probe ParallelFor over S's) both emit byte-identical, unsorted
// output for every thread count and run.
using JoinFn = size_t (*)(const JoinRelation&, const JoinRelation&,
                          const JoinConfig&, uint32_t*, uint32_t*, uint32_t*,
                          JoinTimings*);
constexpr std::pair<const char*, JoinFn> kSharedStateJoins[] = {
    {"max_partition", HashJoinMaxPartition},
    {"no_partition", HashJoinNoPartition}};

TEST(DeterminismTest, MaxPartitionJoinByteIdenticalAcrossThreadsAndRuns) {
  const size_t rn = size_t{1} << 16;
  const size_t sn = (size_t{1} << 18) + 513;
  AlignedBuffer<uint32_t> rk(rn + 16), rp(rn + 16), sk(sn + 16), sp(sn + 16);
  FillUniqueShuffled(rk.data(), rn, 31, 1);
  FillSequential(rp.data(), rn, 0);
  FillProbeKeys(sk.data(), sn, rk.data(), rn, 0.9, 37);
  FillSequential(sp.data(), sn, 0);
  // A second R with every 97th key replaced by the reserved kEmptyKey after
  // S was drawn: those rows join nothing and must hide no other row.
  AlignedBuffer<uint32_t> rk_reserved(rn + 16);
  std::memcpy(rk_reserved.data(), rk.data(), rn * 4);
  for (size_t i = 0; i < rn; i += 97) rk_reserved[i] = kEmptyKey;
  const JoinRelation s{sk.data(), sp.data(), sn};
  for (const uint32_t* r_keys : {rk.data(), rk_reserved.data()}) {
    const JoinRelation r{r_keys, rp.data(), rn};
    for (const auto& [name, join] : kSharedStateJoins) {
      for (Isa isa : {Isa::kScalar, Isa::kAvx512}) {
        if (!IsaSupported(isa)) continue;
        std::vector<uint32_t> ref_k, ref_rp, ref_sp;
        size_t ref_matches = 0;
        for (int threads : {1, 2, 8}) {
          for (int run = 0; run < (threads == 8 ? 3 : 1); ++run) {
            AlignedBuffer<uint32_t> ok(sn + 16), orp(sn + 16), osp(sn + 16);
            JoinConfig cfg;
            cfg.isa = isa;
            cfg.threads = threads;
            const size_t matches = join(r, s, cfg, ok.data(), orp.data(),
                                        osp.data(), nullptr);
            const std::string what =
                std::string(name) + " " + IsaName(isa) +
                (r_keys == rk.data() ? "" : " reserved") +
                " t=" + std::to_string(threads) + " run=" + std::to_string(run);
            if (ref_k.empty()) {
              ref_matches = matches;
              ASSERT_GT(matches, 0u) << what;
              ref_k.assign(ok.data(), ok.data() + matches);
              ref_rp.assign(orp.data(), orp.data() + matches);
              ref_sp.assign(osp.data(), osp.data() + matches);
            } else {
              ASSERT_EQ(matches, ref_matches) << what;
              ASSERT_EQ(std::memcmp(ok.data(), ref_k.data(), matches * 4), 0)
                  << what;
              ASSERT_EQ(
                  std::memcmp(orp.data(), ref_rp.data(), matches * 4), 0)
                  << what;
              ASSERT_EQ(
                  std::memcmp(osp.data(), ref_sp.data(), matches * 4), 0)
                  << what;
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Inter-query fair scheduling (query tags)
// ---------------------------------------------------------------------------

TEST(TaskPoolQueryTagTest, TaggedRunCountsMorselsPerTag) {
  TaskPool& pool = TaskPool::Get();
  const uint64_t tag = pool.RegisterQueryTag();
  {
    TaskPool::QueryTagScope scope(tag);
    std::vector<std::atomic<int>> hits(300);
    for (auto& h : hits) h.store(0);
    pool.ParallelFor(300, 4, [&](int, size_t t) {
      hits[t].fetch_add(1, std::memory_order_relaxed);
    });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
  EXPECT_EQ(pool.QueryTagMorsels(tag), 300u);
  pool.UnregisterQueryTag(tag);
  EXPECT_EQ(pool.QueryTagMorsels(tag), 0u);

  // The no-partition join under a tag while a second tag is live: its build
  // ParallelFor calls (3 R morsels, then 8 blocks of the 131,072-slot
  // table) and its probe ParallelFor (41 S morsels, more than one quantum)
  // all pass the fair gate, and the output matches an untagged serial run
  // byte for byte.
  const size_t rn = 2 * kMorselTuples + 5;
  const size_t sn = 40 * kMorselTuples + 77;
  AlignedBuffer<uint32_t> rk(rn + 16), rp(rn + 16), sk(sn + 16), sp(sn + 16);
  FillUniqueShuffled(rk.data(), rn, 41, 1);
  FillSequential(rp.data(), rn, 0);
  FillProbeKeys(sk.data(), sn, rk.data(), rn, 0.9, 43);
  FillSequential(sp.data(), sn, 0);
  const JoinRelation r{rk.data(), rp.data(), rn};
  const JoinRelation s{sk.data(), sp.data(), sn};
  JoinConfig cfg;
  cfg.isa = BestIsa();
  AlignedBuffer<uint32_t> want_k(sn + 16), want_rp(sn + 16), want_sp(sn + 16);
  const size_t want = HashJoinNoPartition(r, s, cfg, want_k.data(),
                                          want_rp.data(), want_sp.data());
  ASSERT_GT(want, 0u);

  ScopedMetrics metrics;
  const uint64_t join_tag = pool.RegisterQueryTag();
  const uint64_t other = pool.RegisterQueryTag();
  cfg.threads = 4;
  AlignedBuffer<uint32_t> ok(sn + 16), orp(sn + 16), osp(sn + 16);
  size_t got = 0;
  {
    TaskPool::QueryTagScope scope(join_tag);
    got = HashJoinNoPartition(r, s, cfg, ok.data(), orp.data(), osp.data());
  }
  EXPECT_EQ(pool.QueryTagMorsels(join_tag), 3u + 8u + 41u);
  EXPECT_EQ(pool.QueryTagMorsels(other), 0u);
  // One quantum per build call, two (32 + 9 morsels) for the probe.
  EXPECT_EQ(Metric("fair_quanta"), 4u);
  ASSERT_EQ(got, want);
  EXPECT_EQ(std::memcmp(ok.data(), want_k.data(), got * 4), 0);
  EXPECT_EQ(std::memcmp(orp.data(), want_rp.data(), got * 4), 0);
  EXPECT_EQ(std::memcmp(osp.data(), want_sp.data(), got * 4), 0);
  pool.UnregisterQueryTag(join_tag);
  pool.UnregisterQueryTag(other);
}

TEST(TaskPoolQueryTagTest, InlineSingleLanePathStillCreditsTag) {
  // threads = 1 runs inline on the caller with no pooled dispatch; the
  // no-starvation observable (per-tag drained morsels) must still be exact.
  TaskPool& pool = TaskPool::Get();
  const uint64_t tag = pool.RegisterQueryTag();
  {
    TaskPool::QueryTagScope scope(tag);
    size_t ran = 0;
    pool.ParallelFor(17, 1, [&](int, size_t) { ++ran; });
    EXPECT_EQ(ran, 17u);
  }
  EXPECT_EQ(pool.QueryTagMorsels(tag), 17u);
  pool.UnregisterQueryTag(tag);
}

TEST(TaskPoolQueryTagTest, AbortBeforeStartThrowsWithoutRunningTasks) {
  TaskPool& pool = TaskPool::Get();
  const uint64_t tag = pool.RegisterQueryTag();
  pool.AbortQueryTag(tag);
  std::atomic<size_t> ran{0};
  {
    TaskPool::QueryTagScope scope(tag);
    EXPECT_THROW(
        pool.ParallelFor(100, 4, [&](int, size_t) { ran.fetch_add(1); }),
        QueryAborted);
    EXPECT_THROW(pool.ParallelFor(100, 1, [&](int, size_t) { ran.fetch_add(1); }),
                 QueryAborted);
  }
  EXPECT_EQ(ran.load(), 0u);
  EXPECT_EQ(pool.QueryTagMorsels(tag), 0u);
  pool.UnregisterQueryTag(tag);
}

TEST(TaskPoolQueryTagTest, AbortMidRunDrainsQueuedQuantaCleanly) {
  // Two registered tags force quantum slicing (a solo tag is granted its
  // whole range at once). The aborted query's first quantum is held open by
  // a latched task; the abort lands while it is in flight, so the already-
  // dispatched quantum finishes normally and the *next* quantum boundary
  // throws — the queued remainder of the range is never dispatched.
  TaskPool& pool = TaskPool::Get();
  const uint64_t victim = pool.RegisterQueryTag();
  const uint64_t other = pool.RegisterQueryTag();

  std::atomic<size_t> executed{0};
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::atomic<bool> aborted{false};

  std::thread runner([&] {
    TaskPool::QueryTagScope scope(victim);
    try {
      pool.ParallelFor(10000, 2, [&](int, size_t task) {
        executed.fetch_add(1, std::memory_order_relaxed);
        if (task == 0) {
          started.store(true, std::memory_order_release);
          while (!release.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
        }
      });
    } catch (const QueryAborted& e) {
      EXPECT_EQ(e.tag, victim);
      aborted.store(true);
    }
  });

  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  pool.AbortQueryTag(victim);  // while quantum 1 is in flight
  release.store(true, std::memory_order_release);
  runner.join();

  EXPECT_TRUE(aborted.load());
  // Exactly the first quantum ran: abort preceded its completion, so no
  // further quantum was granted.
  EXPECT_EQ(executed.load(), TaskPool::kFairQuantumTasks);
  EXPECT_EQ(pool.QueryTagMorsels(victim), TaskPool::kFairQuantumTasks);

  // The pool stays fully usable after the abort: untagged and other-tag
  // work proceeds normally.
  std::atomic<size_t> after{0};
  pool.ParallelFor(64, 4, [&](int, size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 64u);
  {
    TaskPool::QueryTagScope scope(other);
    pool.ParallelFor(40, 4, [&](int, size_t) {});
  }
  EXPECT_EQ(pool.QueryTagMorsels(other), 40u);
  pool.UnregisterQueryTag(victim);
  pool.UnregisterQueryTag(other);
  EXPECT_EQ(pool.RegisteredQueryTags(), 0u);
}

TEST(TaskPoolQueryTagTest, ConcurrentTagsAllDrainAndSliceIntoQuanta) {
  ScopedMetrics metrics;
  TaskPool& pool = TaskPool::Get();
  constexpr int kQueries = 4;
  constexpr size_t kTasksEach = 128;
  std::vector<uint64_t> tags;
  for (int i = 0; i < kQueries; ++i) tags.push_back(pool.RegisterQueryTag());

  std::vector<std::thread> threads;
  std::vector<std::atomic<size_t>> done(kQueries);
  for (auto& d : done) d.store(0);
  for (int i = 0; i < kQueries; ++i) {
    threads.emplace_back([&, i] {
      TaskPool::QueryTagScope scope(tags[i]);
      pool.ParallelFor(kTasksEach, 2, [&](int, size_t) {
        done[i].fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  for (auto& t : threads) t.join();

  for (int i = 0; i < kQueries; ++i) {
    EXPECT_EQ(done[i].load(), kTasksEach) << "query " << i;
    EXPECT_EQ(pool.QueryTagMorsels(tags[i]), kTasksEach) << "query " << i;
    pool.UnregisterQueryTag(tags[i]);
  }
  // With > 1 tag registered, ranges are sliced: every query needed at
  // least kTasksEach / kFairQuantumTasks quanta (pooled dispatches only;
  // 2 lanes >= pooled path on any host).
  EXPECT_GE(Metric("fair_quanta"),
            kQueries * (kTasksEach / TaskPool::kFairQuantumTasks));
}

}  // namespace
}  // namespace simddb
