// Fixed-width 256-bit unsigned integer.
//
// Consumers: proof-of-work target arithmetic (hash-below-target compare,
// difficulty→target division), the VM's and symex's 256-bit words, and the
// secp256k1 API's field elements and scalars (whose hot arithmetic runs on
// the limbs directly, inside secp256k1.cpp).
#pragma once

#include <compare>
#include <cstdint>
#include <string>

#include "crypto/hash_types.hpp"
#include "util/bytes.hpp"

namespace sc::crypto {

struct U512;

/// 256-bit unsigned integer, little-endian 64-bit limbs.
struct U256 {
  std::uint64_t limb[4] = {0, 0, 0, 0};

  constexpr U256() = default;
  constexpr explicit U256(std::uint64_t v) : limb{v, 0, 0, 0} {}
  constexpr U256(std::uint64_t l0, std::uint64_t l1, std::uint64_t l2, std::uint64_t l3)
      : limb{l0, l1, l2, l3} {}

  static U256 from_be_bytes(util::ByteSpan b);  ///< Big-endian, up to 32 bytes.
  static U256 from_hash(const Hash256& h) { return from_be_bytes(h.span()); }
  static U256 from_hex(std::string_view hex);  ///< Big-endian hex, no 0x needed.

  void to_be_bytes(std::uint8_t out[32]) const;
  Hash256 to_hash() const;
  std::string hex() const;

  bool is_zero() const { return (limb[0] | limb[1] | limb[2] | limb[3]) == 0; }
  bool bit(unsigned i) const { return (limb[i / 64] >> (i % 64)) & 1; }
  /// Index of highest set bit + 1 (0 for zero).
  unsigned bit_length() const;
  std::uint64_t low64() const { return limb[0]; }

  friend bool operator==(const U256&, const U256&) = default;
  std::strong_ordering operator<=>(const U256& o) const;

  /// Returns carry-out.
  static bool add_with_carry(const U256& a, const U256& b, U256& out);
  /// Returns borrow-out.
  static bool sub_with_borrow(const U256& a, const U256& b, U256& out);

  U256 operator+(const U256& o) const;  ///< Wrapping.
  U256 operator-(const U256& o) const;  ///< Wrapping.
  U256 operator&(const U256& o) const;
  U256 operator|(const U256& o) const;
  U256 operator^(const U256& o) const;
  U256 operator~() const;
  U256 operator<<(unsigned n) const;
  U256 operator>>(unsigned n) const;

  /// Full 256x256 → 512-bit product.
  static U512 mul_wide(const U256& a, const U256& b);

  /// Divides by a 64-bit divisor; returns quotient, sets remainder.
  U256 div_u64(std::uint64_t divisor, std::uint64_t* remainder = nullptr) const;

  /// Schoolbook division a / b (b != 0); used for difficulty retarget math.
  static U256 div(const U256& a, const U256& b, U256* remainder = nullptr);

  static U256 zero() { return U256{}; }
  static U256 one() { return U256{1}; }
  static U256 max_value() { return U256{~0ULL, ~0ULL, ~0ULL, ~0ULL}; }
};

/// 512-bit product of mul_wide; little-endian 64-bit limbs.
struct U512 {
  std::uint64_t limb[8] = {0, 0, 0, 0, 0, 0, 0, 0};

  bool high_is_zero() const { return (limb[4] | limb[5] | limb[6] | limb[7]) == 0; }
  U256 low() const { return {limb[0], limb[1], limb[2], limb[3]}; }
  U256 high() const { return {limb[4], limb[5], limb[6], limb[7]}; }
};

}  // namespace sc::crypto
