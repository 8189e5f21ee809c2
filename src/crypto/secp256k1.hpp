// secp256k1 elliptic-curve arithmetic and ECDSA, from scratch.
//
// The paper's prototype signs SRAs and detection reports with ECDSA over
// secp256k1 and verifies them in Algorithm 1, so every transaction and
// protocol payload costs a sign and one or more verifies. We implement:
//   - the base field F_p with a dedicated reduction: p = 2^256 - 0x1000003D1,
//     so the high half of a 512-bit product folds back in one multiply by
//     that 33-bit constant; the scalar field F_n folds by the 129-bit
//     2^256 - n. Both invert with a variable-time binary extended GCD;
//   - Jacobian-coordinate point arithmetic: dbl-2009-l doubling (small
//     constants as additions), madd-2007-bl mixed and add-2007-bl full
//     addition;
//   - k·G from a fixed-base comb table (64 four-bit windows x 15 affine
//     points, built once on first use, thread-safely, with one batched
//     inversion): sign, derive_public and the u1·G half of verify;
//   - k·P by width-5 wNAF (the u2·P half of verify); verify compares
//     x(R) with r in Jacobian coordinates and never inverts in F_p;
//   - RFC-6979 deterministic nonces (no RNG dependence; signing is a pure
//     function of key and message, which keeps simulations reproducible),
//   - low-s normalised ECDSA signatures (Ethereum convention).
// tests/secp256k1_reference.hpp keeps a textbook generic implementation
// (full-multiply folds, Fermat inversion, double-and-add) as the
// differential-test oracle; results are bit-identical to it.
//
// This is still NOT constant-time: table lookups, wNAF digits, the GCD
// inversion and the exceptional-case branches all depend on secret scalars.
// It targets protocol correctness and throughput in a research simulator,
// not production key handling.
#pragma once

#include <optional>

#include "crypto/hash_types.hpp"
#include "crypto/uint256.hpp"
#include "util/bytes.hpp"

namespace sc::crypto::secp256k1 {

/// Prime modulus of the base field: 2^256 - 2^32 - 977.
const U256& field_prime();
/// Group order n.
const U256& group_order();

/// Arithmetic modulo p (Fp()) or n (Fn()). All results are fully reduced.
class PrimeField {
 public:
  const U256& modulus() const { return m_; }

  U256 reduce(const U256& a) const;  ///< a mod m, for any 256-bit a.
  U256 add(const U256& a, const U256& b) const;  ///< Operands < m.
  U256 sub(const U256& a, const U256& b) const;  ///< Operands < m.
  U256 neg(const U256& a) const;                 ///< Operand < m.
  U256 mul(const U256& a, const U256& b) const;  ///< Any 256-bit operands.
  U256 sqr(const U256& a) const { return mul(a, a); }
  U256 pow(const U256& base, const U256& exp) const;
  /// Variable-time inverse (binary extended GCD); 0 maps to 0, like a^(m-2).
  U256 inv(const U256& a) const;

 private:
  friend const PrimeField& Fp();
  friend const PrimeField& Fn();
  PrimeField(const U256& modulus, bool scalar) : m_(modulus), scalar_(scalar) {}

  U256 m_;
  bool scalar_;  // n (folded by 2^256 - n) rather than p
};

const PrimeField& Fp();  ///< Base field.
const PrimeField& Fn();  ///< Scalar field.

/// Affine point; `infinity` encodes the group identity.
struct AffinePoint {
  U256 x;
  U256 y;
  bool infinity = false;

  bool operator==(const AffinePoint&) const = default;
  /// On-curve check: y^2 == x^3 + 7 (mod p).
  bool is_on_curve() const;
};

/// Jacobian-coordinate point (X/Z^2, Y/Z^3); Z==0 encodes infinity.
struct JacobianPoint {
  U256 x;
  U256 y;
  U256 z;

  static JacobianPoint identity() { return {U256::one(), U256::one(), U256::zero()}; }
  /// Reduces the coordinates mod p (they may arrive unreduced from a decoder).
  static JacobianPoint from_affine(const AffinePoint& p);
  bool is_identity() const { return z.is_zero(); }

  AffinePoint to_affine() const;
  JacobianPoint doubled() const;
  JacobianPoint add(const JacobianPoint& o) const;
  JacobianPoint add_affine(const AffinePoint& o) const;
};

/// Generator point G.
const AffinePoint& generator();

/// Scalar multiplication k·P by width-5 wNAF (not constant time).
JacobianPoint scalar_mul(const U256& k, const AffinePoint& p);
/// k·G from the fixed-base comb table.
JacobianPoint scalar_mul_base(const U256& k);

/// ECDSA signature, low-s normalised.
struct Signature {
  U256 r;
  U256 s;

  bool operator==(const Signature&) const = default;

  /// 64-byte r||s big-endian encoding.
  util::Bytes encode() const;
  static std::optional<Signature> decode(util::ByteSpan data);
};

/// A private key is a scalar in [1, n-1].
bool is_valid_private_key(const U256& d);

/// Derives the public point d·G. Precondition: valid private key.
AffinePoint derive_public(const U256& d);

/// RFC-6979 deterministic nonce for (key d, message hash z).
U256 rfc6979_nonce(const U256& d, const Hash256& z, std::uint32_t extra = 0);

/// Signs a 32-byte message digest. Deterministic (RFC 6979), low-s.
Signature sign(const U256& d, const Hash256& z);

/// Verifies a signature against a public point.
bool verify(const AffinePoint& pub, const Hash256& z, const Signature& sig);

/// Uncompressed 64-byte X||Y big-endian public-key encoding (no 0x04 tag,
/// matching Ethereum's address preimage).
util::Bytes encode_public(const AffinePoint& pub);
std::optional<AffinePoint> decode_public(util::ByteSpan data);

/// Square root modulo p (p ≡ 3 mod 4, so sqrt(a) = a^((p+1)/4) when a is a
/// quadratic residue). Returns nullopt for non-residues.
std::optional<U256> sqrt_mod_p(const U256& a);

/// SEC-1 compressed 33-byte encoding: 0x02/0x03 parity tag + X.
util::Bytes encode_public_compressed(const AffinePoint& pub);
/// Decompresses; rejects bad tags and X values off the curve.
std::optional<AffinePoint> decode_public_compressed(util::ByteSpan data);

}  // namespace sc::crypto::secp256k1
