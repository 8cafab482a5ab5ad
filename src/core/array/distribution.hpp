// Data distributions for LamellarArrays (paper Sec. III-F): Block or Cyclic
// layouts over the PEs of a team, with 0-based global indexing and
// runtime-computed owner/offset math (unlike raw memory regions, which make
// the user compute PE-specific offsets).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/error.hpp"
#include "common/types.hpp"

namespace lamellar {

enum class Distribution : std::uint8_t {
  kBlock,   ///< contiguous chunks of ceil(len/npes) elements per PE
  kCyclic,  ///< element i lives on PE (i % npes)
};

struct Placement {
  std::size_t rank;         ///< owning team rank
  std::size_t local_index;  ///< index within the owner's slab
};

/// Unsigned 64-bit division by a divisor fixed at construction, as one
/// multiply-high and a shift instead of a hardware divide (Granlund and
/// Montgomery's method with Robison's round-up/round-down choice):
///
///   q = (mul * n + add) >> (64 + shift),   shift = floor(log2 d).
///
/// mul = floor(2^(64+shift) / d) rounded up when that error is at most
/// 2^shift (add = 0), else rounded down with add = mul, i.e. the product
/// taken at n + 1; one of the two errors always fits, so every divisor gets
/// a 64-bit multiplier and the one path is exact for every 64-bit n.  A
/// power of two takes mul = add = 2^64 - 1: (2^64 - 1)(n + 1) >> 64 is n.
class Reciprocal {
 public:
  Reciprocal() = default;
  explicit Reciprocal(std::uint64_t d) : divisor_(d) {
    if (d == 0) return;  // an empty map: nothing is ever placed
    shift_ = static_cast<unsigned>(std::bit_width(d) - 1);
    if (std::has_single_bit(d)) {
      mul_ = add_ = ~std::uint64_t{0};
      return;
    }
    const unsigned __int128 pow = static_cast<unsigned __int128>(1)
                                  << (64 + shift_);
    const auto down = static_cast<std::uint64_t>(pow / d);
    const auto down_err = static_cast<std::uint64_t>(pow % d);
    if (d - down_err <= (std::uint64_t{1} << shift_)) {
      mul_ = down + 1;
      add_ = 0;
    } else {
      mul_ = down;
      add_ = down;
    }
  }

  [[nodiscard]] std::uint64_t divisor() const { return divisor_; }

  [[nodiscard]] std::uint64_t quotient(std::uint64_t n) const {
    const unsigned __int128 prod =
        static_cast<unsigned __int128>(mul_) * n + add_;
    return static_cast<std::uint64_t>(prod >> 64) >> shift_;
  }

 private:
  std::uint64_t divisor_ = 0;
  std::uint64_t mul_ = 0;
  std::uint64_t add_ = 0;
  unsigned shift_ = 0;
};

class DistributionMap {
 public:
  DistributionMap() = default;
  DistributionMap(Distribution dist, global_index global_len,
                  std::size_t num_ranks)
      : dist_(dist),
        global_len_(global_len),
        num_ranks_(num_ranks),
        per_rank_(num_ranks == 0 ? 0 : ceil_div(global_len, num_ranks)),
        recip_(dist == Distribution::kBlock ? per_rank_ : num_ranks) {}

  [[nodiscard]] Distribution dist() const { return dist_; }
  [[nodiscard]] global_index global_len() const { return global_len_; }
  [[nodiscard]] std::size_t num_ranks() const { return num_ranks_; }

  /// Slab capacity allocated on every rank (the last block rank may use
  /// fewer elements).
  [[nodiscard]] std::size_t per_rank_capacity() const { return per_rank_; }

  /// Number of elements actually resident on `rank`.
  [[nodiscard]] std::size_t local_len(std::size_t rank) const {
    if (global_len_ == 0) return 0;
    if (dist_ == Distribution::kBlock) {
      const global_index start = rank * per_rank_;
      if (start >= global_len_) return 0;
      return std::min(per_rank_, global_len_ - start);
    }
    // Cyclic: ranks < (len % n) get one extra.
    const std::size_t base = global_len_ / num_ranks_;
    const std::size_t extra = rank < (global_len_ % num_ranks_) ? 1 : 0;
    return base + extra;
  }

  /// Owner rank and local slot of global index `i`.
  [[nodiscard]] Placement place(global_index i) const {
    if (i >= global_len_) throw_bounds("array index", i, global_len_);
    return place_unchecked(i);
  }

  /// place() for an index the caller has already bounds-checked: Block
  /// divides by the slab capacity, Cyclic by the rank count, both through
  /// the precomputed reciprocal.
  [[nodiscard]] Placement place_unchecked(global_index i) const {
    const std::uint64_t q = recip_.quotient(i);
    const std::uint64_t r = i - q * recip_.divisor();
    if (dist_ == Distribution::kBlock) return {q, r};
    return {r, q};
  }

  /// Global index of (rank, local slot) — the inverse of place().
  [[nodiscard]] global_index global_of(std::size_t rank,
                                       std::size_t local) const {
    if (dist_ == Distribution::kBlock) {
      return rank * per_rank_ + local;
    }
    return local * num_ranks_ + rank;
  }

 private:
  Distribution dist_ = Distribution::kBlock;
  global_index global_len_ = 0;
  std::size_t num_ranks_ = 1;
  std::size_t per_rank_ = 0;
  Reciprocal recip_;
};

}  // namespace lamellar
