// AVX-512 linear-probing kernels: vertical probe (Alg. 5), vertical build
// (Alg. 7) with scatter/gather-back conflict detection, and the horizontal
// (one-key-vs-W-buckets) probe used as the prior-art comparison point.

#include <cassert>

#include "core/avx512_ops.h"
#include "hash/linear_probing.h"

namespace simddb {
namespace {

namespace v = simddb::avx512;

// h in [0, 2*nb) -> h mod nb with one conditional subtract.
inline __m512i WrapBucket(__m512i h, __m512i nb) {
  __mmask16 over = _mm512_cmpge_epu32_mask(h, nb);
  return _mm512_mask_sub_epi32(h, over, h, nb);
}

// One vector of in-flight probe lanes (Alg. 5 state).
struct ProbeLanes {
  __m512i key = _mm512_setzero_si512();
  __m512i pay = _mm512_setzero_si512();
  __m512i off = _mm512_setzero_si512();  // buckets walked past the hash
  __mmask16 need = 0xFFFF;  // lanes whose key is finished (need a reload)
};

// The buckets one probe step reads and the keys it found there.
struct ProbeStep {
  __m512i h;
  __m512i table_key;
};

}  // namespace

// Alg. 5: one probe key per lane; finished lanes are refilled from the
// input with selective loads, so every lane stays busy regardless of how
// long each key's probe chain is. Each step's refill waits on the previous
// step's gather, so two independent vectors advance per iteration: the
// gathers of one overlap the refill and hashing of the other.
size_t LinearProbingTable::ProbeAvx512(const uint32_t* keys,
                                       const uint32_t* pays, size_t n,
                                       uint32_t* out_keys, uint32_t* out_spays,
                                       uint32_t* out_rpays) const {
  const __m512i factor = _mm512_set1_epi32(static_cast<int>(factor_));
  const __m512i nb = _mm512_set1_epi32(static_cast<int>(n_buckets_));
  const __m512i empty = _mm512_set1_epi32(static_cast<int>(kEmptyKey));
  const __m512i one = _mm512_set1_epi32(1);
  // With verified-unique keys a lane also finishes at its match.
  const __mmask16 stop_at_match = unique_keys_ ? 0xFFFF : 0;
  size_t i = 0;
  size_t j = 0;
  // Refill finished lanes, hash, and gather the next bucket of every lane.
  auto fetch = [&](ProbeLanes& l) {
    l.key = v::SelectiveLoad(l.key, l.need, keys + i);
    l.pay = v::SelectiveLoad(l.pay, l.need, pays + i);
    i += __builtin_popcount(l.need);
    __m512i h = v::MultHash(l.key, factor, nb);
    h = WrapBucket(_mm512_add_epi32(h, l.off), nb);
    return ProbeStep{h, v::Gather(keys_.data(), h)};
  };
  // Emit the matches and decide which lanes are finished. An empty bucket
  // never matches, not even a probe key equal to the empty marker.
  auto retire = [&](ProbeLanes& l, const ProbeStep& s) {
    const __mmask16 at_empty = _mm512_cmpeq_epi32_mask(s.table_key, empty);
    const __mmask16 match = _mm512_mask_cmpeq_epi32_mask(
        static_cast<__mmask16>(~at_empty), s.table_key, l.key);
    if (match != 0) {
      __m512i table_pay = v::MaskGather(s.table_key, match, pays_.data(), s.h);
      v::SelectiveStore(out_keys + j, match, l.key);
      v::SelectiveStore(out_spays + j, match, l.pay);
      v::SelectiveStore(out_rpays + j, match, table_pay);
      j += __builtin_popcount(match);
    }
    l.need = at_empty | (match & stop_at_match);
    // off = need ? 0 : off + 1 (reloaded lanes restart at their hash bucket).
    l.off =
        _mm512_maskz_add_epi32(static_cast<__mmask16>(~l.need), l.off, one);
  };
  ProbeLanes a, b;
  while (i + 32 <= n) {
    const ProbeStep sa = fetch(a);
    const ProbeStep sb = fetch(b);
    retire(a, sa);
    retire(b, sb);
  }
  while (i + 16 <= n) retire(a, fetch(a));
  // Finish the in-flight lanes with scalar code (§5.1).
  const uint32_t nb_s = static_cast<uint32_t>(n_buckets_);
  for (const ProbeLanes* l : {&a, &b}) {
    alignas(64) uint32_t lk[16], lv[16], lo[16];
    _mm512_store_si512(lk, l->key);
    _mm512_store_si512(lv, l->pay);
    _mm512_store_si512(lo, l->off);
    for (int lane = 0; lane < 16; ++lane) {
      if (l->need & (1u << lane)) continue;
      uint32_t h = scalar::MultHash(lk[lane], factor_, nb_s) + lo[lane];
      if (h >= nb_s) h -= nb_s;
      j = ProbeFrom(lk[lane], lv[lane], h, out_keys, out_spays, out_rpays, j);
    }
  }
  // Scalar tail of the input.
  j += ProbeScalar(keys + i, pays + i, n - i, out_keys + j, out_spays + j,
                   out_rpays + j);
  return j;
}

// Alg. 7: vertical build. Lanes gather their bucket; lanes that found an
// empty bucket must agree on a single writer per bucket, detected by
// scattering unique lane ids and gathering them back (or, with unique keys,
// scattering the keys themselves — the paper's §5.1 optimization).
//
// Uniqueness check: a lane compares every bucket it gathers against its
// key. A lane that loses a claim retries the same bucket, which now holds
// the winner's key, rather than stepping past it — so two equal keys
// in flight at once meet each other as well as any earlier copy.
void LinearProbingTable::BuildAvx512(const uint32_t* keys,
                                     const uint32_t* pays, size_t n,
                                     bool assume_unique_keys) {
  assert(count_ + n < n_buckets_);
  const __m512i factor = _mm512_set1_epi32(static_cast<int>(factor_));
  const __m512i nb = _mm512_set1_epi32(static_cast<int>(n_buckets_));
  const __m512i empty = _mm512_set1_epi32(static_cast<int>(kEmptyKey));
  const __m512i one = _mm512_set1_epi32(1);
  const __m512i lane_ids =
      _mm512_set_epi32(16, 15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1);
  __m512i key = _mm512_setzero_si512();
  __m512i pay = _mm512_setzero_si512();
  __m512i off = _mm512_setzero_si512();
  __mmask16 need = 0xFFFF;  // lanes whose tuple has been inserted
  __mmask16 repeat = 0;     // lanes that met their own key in the table
  size_t i = 0;
  while (i + 16 <= n) {
    key = v::SelectiveLoad(key, need, keys + i);
    pay = v::SelectiveLoad(pay, need, pays + i);
    i += __builtin_popcount(need);
    __m512i h = v::MultHash(key, factor, nb);
    h = WrapBucket(_mm512_add_epi32(h, off), nb);
    __m512i table_key = v::Gather(keys_.data(), h);
    __mmask16 at_empty = _mm512_cmpeq_epi32_mask(table_key, empty);
    __mmask16 win;
    __mmask16 advance;  // lanes that move on to the next bucket
    if (assume_unique_keys) {
      // Scatter the keys themselves and gather back: the surviving lane of
      // each bucket reads its own (unique) key. A surviving kEmptyKey would
      // leave its bucket empty and send the lanes it beat past it, so that
      // key claims nothing and retires at once (BuildScalar, too, leaves
      // its bucket empty).
      const __mmask16 reserved = _mm512_cmpeq_epi32_mask(key, empty);
      const __mmask16 claim = at_empty & static_cast<__mmask16>(~reserved);
      v::MaskScatter(keys_.data(), claim, h, key);
      __m512i back = v::MaskGather(key, claim, keys_.data(), h);
      win = _mm512_mask_cmpeq_epi32_mask(claim, back, key);
      v::MaskScatter(pays_.data(), win, h, pay);
      win |= reserved;
      advance = static_cast<__mmask16>(~win);
    } else {
      repeat |= _mm512_cmpeq_epi32_mask(table_key, key);
      // Scatter unique lane ids into the key array, gather back, and let the
      // surviving lane write the real tuple.
      v::MaskScatter(keys_.data(), at_empty, h, lane_ids);
      __m512i back = v::MaskGather(lane_ids, at_empty, keys_.data(), h);
      win = _mm512_mask_cmpeq_epi32_mask(at_empty, back, lane_ids);
      v::MaskScatter(keys_.data(), win, h, key);
      v::MaskScatter(pays_.data(), win, h, pay);
      // Losing lanes left lane ids behind only in buckets that a winner is
      // about to overwrite, so the table is consistent again here.
      advance = static_cast<__mmask16>(~at_empty);
    }
    need = win;
    // off = win ? 0 : (advance ? off + 1 : off).
    off = _mm512_maskz_mov_epi32(static_cast<__mmask16>(~win),
                                 _mm512_mask_add_epi32(off, advance, off, one));
  }
  if (repeat != 0) unique_keys_ = false;
  // Insert the in-flight lanes, then the input tail, with scalar code (which
  // also checks them for repeats and refreshes the wrap pad).
  const __mmask16 pending = static_cast<__mmask16>(~need);
  const size_t n_pending = static_cast<size_t>(__builtin_popcount(pending));
  alignas(64) uint32_t lk[16], lv[16];
  v::SelectiveStore(lk, pending, key);
  v::SelectiveStore(lv, pending, pay);
  count_ += i - n_pending;
  BuildScalar(lk, lv, n_pending);
  BuildScalar(keys + i, pays + i, n - i);
}

// Horizontal probing: broadcast one key, compare against a 16-bucket window,
// and advance window by window until an empty bucket appears (or, in a
// unique-key table, the match).
size_t LinearProbingTable::ProbeHorizontalAvx512(
    const uint32_t* keys, const uint32_t* pays, size_t n, uint32_t* out_keys,
    uint32_t* out_spays, uint32_t* out_rpays) const {
  const uint32_t nb = static_cast<uint32_t>(n_buckets_);
  const __m512i empty = _mm512_set1_epi32(static_cast<int>(kEmptyKey));
  size_t j = 0;
  for (size_t i = 0; i < n; ++i) {
    uint32_t k = keys[i];
    uint32_t s_pay = pays[i];
    const __m512i kv = _mm512_set1_epi32(static_cast<int>(k));
    uint32_t h = scalar::MultHash(k, factor_, nb);
    for (;;) {
      // The wrap pad mirrors buckets [0,16) past the end, so an unaligned
      // window read at any h < nb stays in bounds.
      __m512i w = _mm512_loadu_si512(keys_.data() + h);
      uint32_t match = _mm512_cmpeq_epi32_mask(w, kv);
      uint32_t at_empty = _mm512_cmpeq_epi32_mask(w, empty);
      if (at_empty != 0) {
        // Matches past the first empty bucket are stale cluster remnants.
        match &= (1u << __builtin_ctz(at_empty)) - 1;
      }
      const bool found = match != 0;
      while (match != 0) {
        uint32_t t = static_cast<uint32_t>(__builtin_ctz(match));
        out_rpays[j] = pays_[h + t];
        out_spays[j] = s_pay;
        out_keys[j] = k;
        ++j;
        match &= match - 1;
      }
      // A verified-unique table holds the key once: its match ends the probe.
      if (at_empty != 0 || (found && unique_keys_)) break;
      h += 16;
      if (h >= nb) h -= nb;
    }
  }
  return j;
}

}  // namespace simddb
