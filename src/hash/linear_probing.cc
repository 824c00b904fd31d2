#include "hash/linear_probing.h"

#include <atomic>
#include <cassert>
#include <cstring>
#include <vector>

#include "partition/parallel_partition.h"
#include "partition/partition_fn.h"
#include "partition/shuffle.h"
#include "util/task_pool.h"
#include "util/timer.h"

namespace simddb {

LinearProbingTable::LinearProbingTable(size_t num_buckets, uint64_t seed)
    : keys_(num_buckets + 16),
      pays_(num_buckets + 16),
      n_buckets_(num_buckets),
      seed_(seed),
      factor_(HashFactor(seed, 0)) {
  assert(num_buckets >= 16);
  Clear();
}

void LinearProbingTable::Clear() {
  std::memset(keys_.data(), 0xFF, keys_.size() * sizeof(uint32_t));
  std::memset(pays_.data(), 0, pays_.size() * sizeof(uint32_t));
  count_ = 0;
  unique_keys_ = true;
}

void LinearProbingTable::SyncWrapPad() {
  std::memcpy(keys_.data() + n_buckets_, keys_.data(), 16 * sizeof(uint32_t));
  std::memcpy(pays_.data() + n_buckets_, pays_.data(), 16 * sizeof(uint32_t));
}

void LinearProbingTable::Build(Isa isa, const uint32_t* keys,
                               const uint32_t* pays, size_t n) {
  if (isa == Isa::kAvx512 && IsaSupported(Isa::kAvx512)) {
    BuildAvx512(keys, pays, n);
    return;
  }
  // AVX2 has no scatters, so its build is scalar (§9, App. B).
  BuildScalar(keys, pays, n);
}

// Alg. 6: traverse linearly from the hash bucket to the first empty bucket.
// Any earlier copy of the key lies on that walk, so comparing each bucket
// passed is the uniqueness check.
void LinearProbingTable::BuildScalar(const uint32_t* keys,
                                     const uint32_t* pays, size_t n) {
  assert(count_ + n < n_buckets_);
  const uint32_t nb = static_cast<uint32_t>(n_buckets_);
  bool unique = true;
  for (size_t i = 0; i < n; ++i) {
    uint32_t k = keys[i];
    uint32_t h = scalar::MultHash(k, factor_, nb);
    while (keys_[h] != kEmptyKey) {
      unique &= keys_[h] != k;
      if (++h == nb) h = 0;
    }
    keys_[h] = k;
    pays_[h] = pays[i];
  }
  count_ += n;
  unique_keys_ = unique_keys_ && unique;
  SyncWrapPad();
}

size_t LinearProbingTable::BuildPartitioned(Isa isa, const uint32_t* keys,
                                            const uint32_t* pays, size_t n,
                                            int threads, uint32_t partitions,
                                            double* partition_s) {
  assert(partitions >= 1 && (partitions & (partitions - 1)) == 0);
  if (partition_s != nullptr) *partition_s = 0;
  if (partitions == 1) {
    BuildScalar(keys, pays, n);
    return 0;
  }
  assert((n_buckets_ & (n_buckets_ - 1)) == 0 && partitions <= n_buckets_);
  assert(count_ + n < n_buckets_);
  // With P and nb powers of two, MultHash(k, f, P) is the top log2(P) bits
  // of the home bucket MultHash(k, f, nb): partition j is home range j.
  const PartitionFn fn = PartitionFn::Hash(partitions, seed_);
  assert(fn.factor == factor_);
  const Timer timer;
  AlignedBuffer<uint32_t> part_keys(ShuffleCapacity(n)),
      part_pays(ShuffleCapacity(n));
  std::vector<uint32_t> starts(partitions + 1);
  ParallelPartitionResources res;
  ParallelPartitionPass(fn, keys, pays, n, part_keys.data(), part_pays.data(),
                        isa, threads, &res, starts.data());
  if (partition_s != nullptr) *partition_s = timer.Seconds();

  // Task j reads and writes only buckets of range j, so the tasks share no
  // bucket. A walk that reaches the range end would continue into range
  // j + 1; its key is set aside instead, by position in the partition.
  struct Range {
    std::vector<uint32_t> set_aside;
    bool unique = true;
  };
  std::vector<Range> ranges(partitions);
  const uint32_t nb = static_cast<uint32_t>(n_buckets_);
  const uint32_t width = nb / partitions;
  TaskPool::Get().ParallelFor(partitions, threads, [&](int, size_t j) {
    const uint32_t end = static_cast<uint32_t>((j + 1) * width);
    bool unique = true;
    for (uint32_t i = starts[j]; i < starts[j + 1]; ++i) {
      const uint32_t k = part_keys[i];
      uint32_t h = scalar::MultHash(k, factor_, nb);
      assert(h < end && h >= end - width);
      while (h != end && keys_[h] != kEmptyKey) {
        unique &= keys_[h] != k;
        ++h;
      }
      if (h == end) {
        ranges[j].set_aside.push_back(i);
        continue;
      }
      keys_[h] = k;
      pays_[h] = part_pays[i];
    }
    ranges[j].unique = unique;
  });

  // Serial pass, in partition order: the ordinary wrap-around walk, which
  // also compares every bucket it passes and commits the wrap pad.
  std::vector<uint32_t> spill_keys, spill_pays;
  for (const Range& r : ranges) {
    unique_keys_ = unique_keys_ && r.unique;
    for (uint32_t i : r.set_aside) {
      spill_keys.push_back(part_keys[i]);
      spill_pays.push_back(part_pays[i]);
    }
  }
  const size_t spilled = spill_keys.size();
  count_ += n - spilled;
  BuildScalar(spill_keys.data(), spill_pays.data(), spilled);
  return spilled;
}

uint32_t LinearProbingTable::BuildPartitions(size_t num_buckets, int lanes) {
  if (lanes <= 1) return 1;
  // A bucket is 8 bytes (key + payload), so a range of 32K buckets is
  // 256 KB: each task's inserts stay L2-resident.
  constexpr size_t kMaxRangeBuckets = size_t{32} << 10;
  size_t p = 1;
  while (p < 2 * static_cast<size_t>(lanes) ||
         num_buckets / p > kMaxRangeBuckets) {
    p <<= 1;
  }
  while (p > 1 && num_buckets / p < 16) p >>= 1;
  return static_cast<uint32_t>(p);
}

void LinearProbingTable::BuildShared(const uint32_t* keys,
                                     const uint32_t* pays, size_t n,
                                     int threads) {
  assert(count_ == 0 && n < n_buckets_);
  TaskPool& pool = TaskPool::Get();
  const MorselGrid grid(n);
  if (TaskPool::LaneCount(grid.count(), threads) <= 1) {
    BuildScalar(keys, pays, n);
    return;
  }
  const uint32_t nb = static_cast<uint32_t>(n_buckets_);
  pool.ParallelFor(grid.count(), threads, [&](int, size_t m) {
    const size_t e = grid.end(m);
    for (size_t i = grid.begin(m); i < e; ++i) {
      // The serial build writes the reserved key as an empty bucket; a
      // claim for it would read as empty mid-cluster and hide the rows past
      // it.
      if (keys[i] == kEmptyKey) continue;
      uint32_t h = scalar::MultHash(keys[i], factor_, nb);
      // Every row id sorts before kEmptyKey, so an empty bucket is claimed
      // like a later row's.
      uint32_t row = static_cast<uint32_t>(i);
      for (;;) {
        std::atomic_ref<uint32_t> slot(keys_[h]);
        uint32_t held = slot.load(std::memory_order_relaxed);
        while (row < held &&
               !slot.compare_exchange_weak(held, row,
                                           std::memory_order_relaxed)) {
        }
        if (row < held) {  // claimed; `held` is the claim it displaced
          if (held == kEmptyKey) break;
          row = held;
        }
        if (++h == nb) h = 0;
      }
    }
  });
  const MorselGrid bucket_grid(nb);
  pool.ParallelFor(bucket_grid.count(), threads, [&](int, size_t m) {
    const size_t e = bucket_grid.end(m);
    for (size_t h = bucket_grid.begin(m); h < e; ++h) {
      const uint32_t row = keys_[h];
      if (row != kEmptyKey) {
        keys_[h] = keys[row];
        pays_[h] = pays[row];
      }
    }
  });
  count_ += n;
  SyncWrapPad();
}

// Alg. 4: probe every input key, emitting all matches (the only one when
// the table's keys are unique).
size_t LinearProbingTable::ProbeScalar(const uint32_t* keys,
                                       const uint32_t* pays, size_t n,
                                       uint32_t* out_keys, uint32_t* out_spays,
                                       uint32_t* out_rpays) const {
  const uint32_t nb = static_cast<uint32_t>(n_buckets_);
  size_t j = 0;
  for (size_t i = 0; i < n; ++i) {
    j = ProbeFrom(keys[i], pays[i], scalar::MultHash(keys[i], factor_, nb),
                  out_keys, out_spays, out_rpays, j);
  }
  return j;
}

size_t LinearProbingTable::Probe(Isa isa, const uint32_t* keys,
                                 const uint32_t* pays, size_t n,
                                 uint32_t* out_keys, uint32_t* out_spays,
                                 uint32_t* out_rpays) const {
  switch (isa) {
    case Isa::kAvx512:
      if (IsaSupported(Isa::kAvx512)) {
        return ProbeAvx512(keys, pays, n, out_keys, out_spays, out_rpays);
      }
      break;
    case Isa::kAvx2:
      if (IsaSupported(Isa::kAvx2)) {
        return ProbeAvx2(keys, pays, n, out_keys, out_spays, out_rpays);
      }
      break;
    case Isa::kScalar:
      break;
  }
  return ProbeScalar(keys, pays, n, out_keys, out_spays, out_rpays);
}

}  // namespace simddb
