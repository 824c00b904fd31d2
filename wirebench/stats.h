#ifndef WIREBENCH_STATS_H_
#define WIREBENCH_STATS_H_

// The load generator's own arithmetic and its independent result checker,
// kept apart from wirebench.cc so selftest.cc can pin them down:
//
//   - TailPercentile: nearest-rank percentile that refuses to report a
//     tail backed by fewer than kMinTailSamples samples;
//   - Ratio / PerQuery / ResidualMs: the per-query and per-layer ratios,
//     defined as 0 when their denominator is 0;
//   - MedianBlockRates: qps and CPU per query as medians over blocks of
//     equal query count, so a burst of host load moves few blocks;
//   - ReferenceResult / CheckRows: a plain scalar join + std::map
//     aggregation that shares no code with simddb, and a row-by-row
//     comparison of a decoded wire response against it.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "net/protocol.h"

namespace wirebench {

/// Samples a reported percentile needs strictly beyond it.
inline constexpr size_t kMinTailSamples = 10;

/// Nearest-rank percentile of `v` (p in (0, 1)): the value at 1-based rank
/// ceil(p * n) in ascending order. Empty when fewer than kMinTailSamples
/// samples lie beyond that rank — such a tail is noise, not a percentile.
inline std::optional<double> TailPercentile(std::vector<double> v, double p) {
  const size_t n = v.size();
  if (n == 0 || !(p > 0.0 && p < 1.0)) return std::nullopt;
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < kMinTailSamples) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

/// Median (lower middle for even n); 0 for no samples.
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t mid = (v.size() - 1) / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  return v[mid];
}

/// num / den, or 0 when den == 0.
inline double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// A total spread over `queries` queries, or 0 when none ran.
inline double PerQuery(double total, uint64_t queries) {
  return Ratio(total, static_cast<double>(queries));
}

/// One closed-loop exchange as the client saw it, plus the server's
/// trailer intervals.
struct QuerySample {
  uint64_t latency_ns = 0;  ///< send until the OK trailer was decoded
  uint64_t exec_ns = 0;     ///< trailer exec_ns
  uint64_t queue_ns = 0;    ///< trailer queue_ns
  uint64_t end_ns = 0;      ///< wall clock when the trailer was decoded
};

/// A process CPU-time reading taken at a wall-clock time.
struct CpuReading {
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;
};

/// Process CPU time at wall time `t`, interpolated linearly between the
/// readings around it (ascending by wall_ns) and clamped to the first and
/// last reading. 0 without readings.
inline double CpuAt(const std::vector<CpuReading>& r, uint64_t t) {
  if (r.empty()) return 0.0;
  if (t <= r.front().wall_ns) return static_cast<double>(r.front().cpu_ns);
  if (t >= r.back().wall_ns) return static_cast<double>(r.back().cpu_ns);
  const auto hi = std::upper_bound(
      r.begin(), r.end(), t,
      [](uint64_t x, const CpuReading& c) { return x < c.wall_ns; });
  const CpuReading& a = *(hi - 1);
  const CpuReading& b = *hi;
  const double f = Ratio(static_cast<double>(t - a.wall_ns),
                         static_cast<double>(b.wall_ns - a.wall_ns));
  return static_cast<double>(a.cpu_ns) +
         f * (static_cast<double>(b.cpu_ns) - static_cast<double>(a.cpu_ns));
}

/// Throughput and CPU cost of a closed-loop phase, as medians over blocks.
struct BlockRates {
  double qps = 0.0;
  double cpu_ms_per_query = 0.0;
  size_t blocks = 0;
  uint64_t queries_per_block = 0;
};

/// Splits the phase that began at `start_ns` into `blocks` consecutive
/// blocks of equal query count by the sorted completion times: block i ends
/// at the (i+1)*q-th completion. Returns the median over the blocks of
/// queries per second and of CPU ms per query (CPU interpolated at the
/// block edges). A block ends exactly on a completion, so its rate has no
/// counting granularity, and the median ignores the few blocks a passing
/// burst of host load slowed. Fewer completions than blocks gives one
/// query per block; none gives zeros.
inline BlockRates MedianBlockRates(std::vector<uint64_t> done_ns, uint64_t start_ns,
                                   const std::vector<CpuReading>& cpu,
                                   size_t blocks) {
  BlockRates out;
  if (done_ns.empty() || blocks == 0) return out;
  std::sort(done_ns.begin(), done_ns.end());
  out.blocks = std::min(blocks, done_ns.size());
  out.queries_per_block = done_ns.size() / out.blocks;
  const double q = static_cast<double>(out.queries_per_block);
  std::vector<double> qps, cpu_ms;
  uint64_t edge = start_ns;
  for (size_t i = 1; i <= out.blocks; ++i) {
    const uint64_t next = done_ns[i * out.queries_per_block - 1];
    const double wall_s = static_cast<double>(next - std::min(edge, next)) / 1e9;
    qps.push_back(Ratio(q, wall_s));
    cpu_ms.push_back((CpuAt(cpu, next) - CpuAt(cpu, edge)) / 1e6 / q);
    edge = next;
  }
  out.qps = Median(std::move(qps));
  out.cpu_ms_per_query = Median(std::move(cpu_ms));
  return out;
}

/// Mean over the samples of latency - exec - queue, in ms: the time no
/// server-side interval claims (parse, encode, socket, wakeups). A mean, so
/// mean latency = residual + queue + exec exactly. Signed, so a trailer
/// claiming more than the client saw shows up negative. 0 when there are
/// no samples.
inline double ResidualMs(const std::vector<QuerySample>& samples) {
  double total_ns = 0.0;
  for (const QuerySample& s : samples) {
    total_ns += static_cast<double>(s.latency_ns) -
                static_cast<double>(s.exec_ns) -
                static_cast<double>(s.queue_ns);
  }
  return PerQuery(total_ns / 1e6, samples.size());
}

/// One group of the reference result.
struct RefRow {
  uint32_t key = 0;
  uint64_t sum = 0;
  uint32_t count = 0;
  uint32_t min = 0;
  uint32_t max = 0;
};

/// The Q3-shaped query the wire runs, over plain arrays: R(pk, attr) with
/// pk in [r_lo, r_hi], S(fk, val) with val in [s_lo, s_hi], joined on
/// fk = pk, grouped by attr with SUM/COUNT/MIN/MAX of val.
struct RefQuery {
  uint32_t r_lo = 0, r_hi = 0xFFFFFFFFu;
  uint32_t s_lo = 0, s_hi = 0xFFFFFFFFu;
};

/// Scalar reference: R's keys must be unique and at most `max_key` (the
/// generator draws them as a permutation of 1..n), so the join index is a
/// direct-address array; groups accumulate in a std::map and come out in
/// ascending key order — the order the wire protocol sends them.
inline std::vector<RefRow> ReferenceResult(const uint32_t* r_keys,
                                           const uint32_t* r_attrs, size_t n_r,
                                           uint32_t max_key,
                                           const uint32_t* s_fks,
                                           const uint32_t* s_vals, size_t n_s,
                                           const RefQuery& q) {
  constexpr uint32_t kAbsent = 0xFFFFFFFFu;
  std::vector<uint32_t> attr_of(static_cast<size_t>(max_key) + 1, kAbsent);
  for (size_t i = 0; i < n_r; ++i) {
    if (r_keys[i] >= q.r_lo && r_keys[i] <= q.r_hi && r_keys[i] <= max_key) {
      attr_of[r_keys[i]] = r_attrs[i];
    }
  }
  std::map<uint32_t, RefRow> groups;
  for (size_t i = 0; i < n_s; ++i) {
    const uint32_t v = s_vals[i];
    if (v < q.s_lo || v > q.s_hi || s_fks[i] > max_key) continue;
    const uint32_t attr = attr_of[s_fks[i]];
    if (attr == kAbsent) continue;
    auto [it, fresh] = groups.try_emplace(attr);
    RefRow& g = it->second;
    if (fresh) {
      g.key = attr;
      g.min = v;
      g.max = v;
    }
    g.sum += v;
    g.count += 1;
    g.min = std::min(g.min, v);
    g.max = std::max(g.max, v);
  }
  std::vector<RefRow> out;
  out.reserve(groups.size());
  for (const auto& [key, g] : groups) out.push_back(g);
  return out;
}

/// Compares a decoded response with its reference row by row, and the OK
/// trailer's rows= with the rows actually decoded. Empty on a match,
/// otherwise a one-line description of the first mismatch.
inline std::string CheckRows(const std::vector<simddb::net::WireRow>& got,
                             uint64_t rows_declared,
                             const std::vector<RefRow>& want) {
  if (rows_declared != got.size()) {
    return "trailer rows=" + std::to_string(rows_declared) + " but " +
           std::to_string(got.size()) + " ROW frames decoded";
  }
  if (got.size() != want.size()) {
    return std::to_string(got.size()) + " rows, reference has " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const simddb::net::WireRow& g = got[i];
    const RefRow& w = want[i];
    if (g.key != w.key || g.sum != w.sum || g.count != w.count ||
        g.min != w.min || g.max != w.max) {
      return "row " + std::to_string(i) + " (key " + std::to_string(g.key) +
             ") differs from the reference (key " + std::to_string(w.key) +
             ")";
    }
  }
  return {};
}

}  // namespace wirebench

#endif  // WIREBENCH_STATS_H_
