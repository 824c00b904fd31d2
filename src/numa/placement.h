#ifndef SIMDDB_NUMA_PLACEMENT_H_
#define SIMDDB_NUMA_PLACEMENT_H_

// Node-aware memory placement, layered on util/alloc.h.
//
// Linux places an anonymous page on the node of the thread that first
// *touches* it, not the thread that malloc'd it ("first touch"). An
// operator that allocates its output on the caller thread and then streams
// into it from all nodes therefore pays remote-write bandwidth on roughly
// (N-1)/N of its pages. These helpers give operator code two explicit
// policies:
//
//   kNodeLocal   — fault each contiguous block of pages from a lane pinned
//                  to the node that will process that block (the pool's
//                  lane->node mapping, numa/topology.h). Right for inputs,
//                  per-morsel histogram rows, and refine-pass outputs,
//                  whose access pattern is block-contiguous per lane. The
//                  blocks are pool tasks, so a lane that runs dry may steal
//                  one before its owner starts and fault it on its own node.
//   kInterleaved — round-robin pages across nodes (mbind MPOL_INTERLEAVE
//                  when available). Right for buffers every node reads or
//                  writes uniformly (e.g. fanout-strided partition
//                  output), and the neutral baseline the NUMA bench
//                  compares against.
//
// Everything degrades gracefully: on a real single-node host every entry
// point is a no-op beyond (at most) reading the topology, and fake
// topologies (SIMDDB_NUMA_FAKE) exercise the touch loops and counters but
// never issue mbind. First touch is implemented as a
// read + write-back of one byte per page, so placing a buffer never
// changes its contents — callers may place buffers that already hold data.

#include <cstddef>

namespace simddb::numa {

/// Placement policy for an operator buffer.
enum class Placement { kInterleaved, kNodeLocal };

/// Applies `placement` to [p, p+bytes): kNodeLocal splits the pages into
/// TaskPool::LaneCount(n_pages, threads) contiguous blocks and faults them
/// through one ParallelFor, block = task (so each block lands on the node
/// of the lane whose initial task range holds it); kInterleaved asks the
/// kernel to interleave (real multi-node topologies only). No-op on real
/// single-node hosts. Contents are preserved.
void PlaceBuffer(void* p, size_t bytes, int threads, Placement placement);

/// mbind(MPOL_INTERLEAVE over all nodes) over the fully-covered pages of
/// [p, p+bytes). False when unavailable (non-Linux, fake or single-node
/// topology, sub-page range) or the syscall failed.
bool TryInterleave(void* p, size_t bytes);

}  // namespace simddb::numa

#endif  // SIMDDB_NUMA_PLACEMENT_H_
