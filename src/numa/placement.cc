#include "numa/placement.h"

#include <cstdint>

#include "numa/topology.h"
#include "obs/metrics.h"
#include "util/alloc.h"
#include "util/task_pool.h"

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace simddb::numa {
namespace {

// Pages whose first touch PlaceBuffer performed (node-local blocks).
// Per-node traffic shows up in bench JSONL rows.
obs::Counter g_pages_first_touched("pages_first_touched");

// Memory-policy modes from <linux/mempolicy.h>, defined locally because the
// uapi header (and libnuma's numaif.h) may be absent from the sysroot; the
// raw syscall ABI is stable.
constexpr int kMpolInterleave = 3;

// Touch one byte per page, preserving contents: a plain read + write-back
// faults the page in (allocating it on the toucher's node) without caring
// whether the buffer is fresh or already populated.
void TouchPages(unsigned char* base, size_t first_page, size_t end_page,
                size_t page) {
  volatile unsigned char* p = base;
  for (size_t g = first_page; g < end_page; ++g) {
    const size_t off = g * page;
    p[off] = p[off];
  }
  if (end_page > first_page) g_pages_first_touched.Add(end_page - first_page);
}

// True when memory-policy syscalls may sensibly run: Linux, a real
// (discovered) topology, and more than one node.
bool RealMultiNode(const NumaTopology& topo) {
  return !topo.fake && topo.node_count() > 1;
}

#if defined(__linux__) && defined(__NR_mbind)
// mbind wants a page-aligned range; restrict to the pages fully inside
// [p, p+bytes) so a policy is never applied to a neighbouring allocation
// sharing the boundary pages.
bool MbindCoveredPages(void* p, size_t bytes, int mode,
                       const unsigned long* mask, unsigned long mask_bits) {
  const size_t page = PageBytes();
  uintptr_t b = reinterpret_cast<uintptr_t>(p);
  uintptr_t e = b + bytes;
  b = (b + page - 1) & ~(page - 1);
  e &= ~(page - 1);
  if (b >= e) return false;
  const long rc = syscall(__NR_mbind, reinterpret_cast<void*>(b),
                          static_cast<unsigned long>(e - b), mode, mask,
                          mask_bits, 0UL);
  return rc == 0;
}
#endif

}  // namespace

void PlaceBuffer(void* p, size_t bytes, int threads, Placement placement) {
  if (p == nullptr || bytes == 0) return;
  const NumaTopology& topo = Topology();
  if (topo.node_count() <= 1 && !topo.fake) return;  // nothing to place
  if (placement == Placement::kInterleaved) {
    if (RealMultiNode(topo)) TryInterleave(p, bytes);
    return;
  }
  // kNodeLocal: task l faults page block [l*P/L, (l+1)*P/L) — the pool's
  // initial split hands task l to lane l, so on a pinned multi-node run
  // each block lands on the node whose lanes process it (unless a dry lane
  // steals it first). On fake topologies this still exercises the block
  // layout and counters.
  const size_t page = PageBytes();
  const size_t n_pages = (bytes + page - 1) / page;
  const size_t blocks =
      static_cast<size_t>(TaskPool::LaneCount(n_pages, threads));
  unsigned char* base = static_cast<unsigned char*>(p);
  TaskPool::Get().ParallelFor(blocks, threads, [&](int, size_t block) {
    TouchPages(base, n_pages * block / blocks, n_pages * (block + 1) / blocks,
               page);
  });
}

bool TryInterleave(void* p, size_t bytes) {
#if defined(__linux__) && defined(__NR_mbind)
  const NumaTopology& topo = Topology();
  if (!RealMultiNode(topo)) return false;
  unsigned long mask = 0;
  for (const NumaNode& node : topo.nodes) {
    if (node.id < 0 || node.id >= static_cast<int>(8 * sizeof(unsigned long))) {
      return false;
    }
    mask |= 1UL << node.id;
  }
  return MbindCoveredPages(p, bytes, kMpolInterleave, &mask,
                           8 * sizeof(unsigned long));
#else
  (void)p;
  (void)bytes;
  return false;
#endif
}

}  // namespace simddb::numa
