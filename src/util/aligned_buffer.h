#ifndef SIMDDB_UTIL_ALIGNED_BUFFER_H_
#define SIMDDB_UTIL_ALIGNED_BUFFER_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>

#include "util/alloc.h"

namespace simddb {

/// A move-only, cache-line-aligned heap buffer of trivially copyable T.
///
/// All operator kernels in simddb read from and write to caller-owned
/// buffers; this type is the canonical owner. Memory comes from
/// util/alloc.h: aligned to 64 bytes (one cache line, and the width of one
/// 512-bit vector) and padded to a multiple of 64 bytes so vector loops may
/// safely read one partial trailing vector.
template <typename T>
class AlignedBuffer {
 public:
  static constexpr size_t kAlignment = 64;

  AlignedBuffer() = default;
  explicit AlignedBuffer(size_t n) { Reset(n); }

  AlignedBuffer(AlignedBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  AlignedBuffer& operator=(AlignedBuffer&& other) noexcept {
    if (this != &other) {
      Free();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  AlignedBuffer(const AlignedBuffer&) = delete;
  AlignedBuffer& operator=(const AlignedBuffer&) = delete;

  ~AlignedBuffer() { Free(); }

  /// Frees any existing storage and allocates room for n elements.
  void Reset(size_t n) {
    Free();
    size_ = n;
    if (n == 0) return;
    data_ = static_cast<T*>(AlignedAlloc(n * sizeof(T), kAlignment));
  }

  /// Zero-fills the buffer.
  void Clear() {
    if (data_ != nullptr) std::memset(data_, 0, size_ * sizeof(T));
  }

  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }

 private:
  void Free() {
    AlignedFree(data_);
    data_ = nullptr;
    size_ = 0;
  }

  T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace simddb

#endif  // SIMDDB_UTIL_ALIGNED_BUFFER_H_
