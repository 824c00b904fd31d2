#include "hash/direct_table.h"

#include <cassert>
#include <cstring>

namespace simddb {

bool DirectJoinTable::Fits(uint32_t key_min, uint32_t key_max,
                           size_t buckets) {
  if (key_min > key_max) return false;
  // In 64 bits: [0, 0xFFFFFFFF] has 2^32 values.
  const uint64_t width = uint64_t{key_max} - key_min + 1;
  return width <= 2 * uint64_t{buckets} && width <= (uint64_t{1} << 31);
}

DirectJoinTable::DirectJoinTable(uint32_t key_min, size_t width)
    : owned_(width), base_(owned_.data()), key_min_(key_min), width_(width) {
  assert(width >= 1 && uint64_t{key_min} + width - 1 < kEmptyKey);
  std::memset(owned_.data(), 0xFF, width * sizeof(uint32_t));
}

DirectJoinTable DirectJoinTable::Window(const DirectJoinTable& whole,
                                        uint32_t lo, uint32_t hi) {
  assert(whole.key_min_ <= lo && lo <= hi &&
         hi - whole.key_min_ < whole.width_);
  return DirectJoinTable(whole.base_ + (lo - whole.key_min_), lo,
                         size_t{hi} - lo + 1);
}

// The store doubles as the repeat check: a slot that no longer holds
// kEmptyKey was written by an earlier copy of the key.
bool DirectJoinTable::Build(const uint32_t* keys, const uint32_t* pays,
                            size_t n) {
  assert(base_ == owned_.data() && "a Window cannot Build");
  uint32_t* slots = owned_.data();
  bool unique = true;
  for (size_t i = 0; i < n; ++i) {
    uint32_t& slot = slots[keys[i] - key_min_];
    unique &= slot == kEmptyKey;
    slot = pays[i];
  }
  return unique;
}

// Every row writes its output tuple at the cursor and only a match
// advances it, so the match decision takes no branch. A key outside the
// domain reads slot 0 and discards it. The members are copied to locals
// because the output stores could alias them.
size_t DirectJoinTable::ProbeScalar(const uint32_t* keys, const uint32_t* pays,
                                    size_t n, uint32_t* out_keys,
                                    uint32_t* out_spays,
                                    uint32_t* out_rpays) const {
  const uint32_t* slots = base_;
  const uint32_t key_min = key_min_;
  const uint32_t width = static_cast<uint32_t>(width_);
  size_t j = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t k = keys[i];
    const uint32_t idx = k - key_min;  // wraps for keys below the domain
    const bool in = idx < width;
    const uint32_t pay = slots[in ? idx : 0];
    out_keys[j] = k;
    out_spays[j] = pays[i];
    out_rpays[j] = pay;
    j += in & (pay != kEmptyKey);
  }
  return j;
}

size_t DirectJoinTable::Probe(Isa isa, const uint32_t* keys,
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
