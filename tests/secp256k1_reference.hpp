// Slow reference secp256k1 arithmetic: the differential-test oracle for the
// fast path in src/crypto/secp256k1.cpp.
//
// This is the library's original generic code, kept verbatim in spirit:
// a 4x4 schoolbook product folded by 2^256 ≡ c (mod m) with a full multiply
// per fold, Fermat inversion, textbook Jacobian formulas with generic
// multiplications for the small constants, and MSB-first double-and-add.
// It shares nothing with the fast path except U256's plain limb helpers,
// the curve constants and the RFC-6979 nonce (a hash construction, not
// curve arithmetic).
#pragma once

#include "crypto/secp256k1.hpp"

namespace sc::crypto::secp256k1::reference {

/// 512-bit intermediate, little-endian 64-bit limbs.
struct Wide {
  std::uint64_t limb[8] = {0, 0, 0, 0, 0, 0, 0, 0};

  bool high_is_zero() const { return (limb[4] | limb[5] | limb[6] | limb[7]) == 0; }
  U256 low() const { return {limb[0], limb[1], limb[2], limb[3]}; }
  U256 high() const { return {limb[4], limb[5], limb[6], limb[7]}; }

  static Wide mul(const U256& a, const U256& b) {
    Wide out;
    for (int i = 0; i < 4; ++i) {
      std::uint64_t carry = 0;
      for (int j = 0; j < 4; ++j) {
        const __uint128_t cur = static_cast<__uint128_t>(a.limb[i]) * b.limb[j] +
                                out.limb[i + j] + carry;
        out.limb[i + j] = static_cast<std::uint64_t>(cur);
        carry = static_cast<std::uint64_t>(cur >> 64);
      }
      out.limb[i + 4] = carry;
    }
    return out;
  }

  /// low256 + w, wrapping at 2^512.
  static Wide add_low(const U256& low256, const Wide& w) {
    Wide out;
    unsigned char carry = 0;
    for (int i = 0; i < 8; ++i) {
      const std::uint64_t a = i < 4 ? low256.limb[i] : 0;
      const __uint128_t s = static_cast<__uint128_t>(a) + w.limb[i] + carry;
      out.limb[i] = static_cast<std::uint64_t>(s);
      carry = static_cast<unsigned char>(s >> 64);
    }
    return out;
  }
};

/// Arithmetic modulo a prime of the form 2^256 - c, with no shortcut that
/// depends on the size of c.
class Field {
 public:
  Field(const U256& modulus) : m_(modulus), c_(U256::zero() - modulus) {}

  const U256& modulus() const { return m_; }

  U256 reduce(const U256& a) const {
    U256 r = a;
    while (r >= m_) r = r - m_;
    return r;
  }

  U256 reduce512(const Wide& t) const {
    Wide acc = t;
    while (!acc.high_is_zero()) acc = Wide::add_low(acc.low(), Wide::mul(acc.high(), c_));
    return reduce(acc.low());
  }

  U256 add(const U256& a, const U256& b) const {
    U256 out;
    if (U256::add_with_carry(a, b, out)) out = out + c_;
    return reduce(out);
  }

  U256 sub(const U256& a, const U256& b) const {
    U256 out;
    if (U256::sub_with_borrow(a, b, out)) out = out + m_;
    return out;
  }

  U256 neg(const U256& a) const { return a.is_zero() ? a : m_ - a; }
  U256 mul(const U256& a, const U256& b) const { return reduce512(Wide::mul(a, b)); }
  U256 sqr(const U256& a) const { return mul(a, a); }

  U256 pow(const U256& base, const U256& exp) const {
    U256 result = U256::one();
    U256 acc = reduce(base);
    for (unsigned i = 0; i < exp.bit_length(); ++i) {
      if (exp.bit(i)) result = mul(result, acc);
      acc = mul(acc, acc);
    }
    return result;
  }

  /// Fermat: a^(m-2). Maps 0 to 0.
  U256 inv(const U256& a) const { return pow(a, m_ - U256{2}); }

 private:
  U256 m_;
  U256 c_;
};

inline const Field& fp() {
  static const Field f(field_prime());
  return f;
}

inline const Field& fn() {
  static const Field f(group_order());
  return f;
}

/// Jacobian point (X/Z^2, Y/Z^3); Z == 0 is the identity.
struct Point {
  U256 x = U256::one();
  U256 y = U256::one();
  U256 z = U256::zero();

  static Point from_affine(const AffinePoint& p) {
    if (p.infinity) return {};
    return {p.x, p.y, U256::one()};
  }
  bool is_identity() const { return z.is_zero(); }

  AffinePoint to_affine() const {
    if (is_identity()) return {U256::zero(), U256::zero(), true};
    const auto& f = fp();
    const U256 zinv = f.inv(z);
    const U256 zinv2 = f.sqr(zinv);
    return {f.mul(x, zinv2), f.mul(y, f.mul(zinv2, zinv)), false};
  }

  Point doubled() const {
    if (is_identity()) return *this;
    const auto& f = fp();
    if (y.is_zero()) return {};
    const U256 y2 = f.sqr(y);
    const U256 s = f.mul(U256{4}, f.mul(x, y2));
    const U256 m = f.mul(U256{3}, f.sqr(x));
    const U256 x3 = f.sub(f.sqr(m), f.add(s, s));
    const U256 y3 = f.sub(f.mul(m, f.sub(s, x3)), f.mul(U256{8}, f.sqr(y2)));
    return {x3, y3, f.mul(U256{2}, f.mul(y, z))};
  }

  Point add(const Point& o) const {
    if (is_identity()) return o;
    if (o.is_identity()) return *this;
    const auto& f = fp();
    const U256 z1z1 = f.sqr(z);
    const U256 z2z2 = f.sqr(o.z);
    const U256 u1 = f.mul(x, z2z2);
    const U256 u2 = f.mul(o.x, z1z1);
    const U256 s1 = f.mul(y, f.mul(z2z2, o.z));
    const U256 s2 = f.mul(o.y, f.mul(z1z1, z));
    if (u1 == u2) return s1 == s2 ? doubled() : Point{};
    const U256 h = f.sub(u2, u1);
    const U256 r = f.sub(s2, s1);
    const U256 h2 = f.sqr(h);
    const U256 h3 = f.mul(h2, h);
    const U256 u1h2 = f.mul(u1, h2);
    const U256 x3 = f.sub(f.sub(f.sqr(r), h3), f.add(u1h2, u1h2));
    const U256 y3 = f.sub(f.mul(r, f.sub(u1h2, x3)), f.mul(s1, h3));
    return {x3, y3, f.mul(h, f.mul(z, o.z))};
  }
};

/// k·P by MSB-first double-and-add.
inline Point multiply(const U256& k, const AffinePoint& p) {
  Point acc;
  const Point base = Point::from_affine(p);
  for (int i = static_cast<int>(k.bit_length()) - 1; i >= 0; --i) {
    acc = acc.doubled();
    if (k.bit(static_cast<unsigned>(i))) acc = acc.add(base);
  }
  return acc;
}

inline bool on_curve(const AffinePoint& p) {
  if (p.infinity) return true;
  const auto& f = fp();
  return f.sqr(p.y) == f.add(f.mul(f.sqr(p.x), p.x), U256{7});
}

/// ECDSA sign with the reference arithmetic (RFC-6979 nonce, low-s).
inline Signature ecdsa_sign(const U256& d, const Hash256& z) {
  const auto& f = fn();
  const U256 z_scalar = f.reduce(U256::from_hash(z));
  for (std::uint32_t attempt = 0;; ++attempt) {
    const U256 k = rfc6979_nonce(d, z, attempt);
    const U256 r = f.reduce(multiply(k, generator()).to_affine().x);
    if (r.is_zero()) continue;
    U256 s = f.mul(f.inv(k), f.add(z_scalar, f.mul(r, d)));
    if (s.is_zero()) continue;
    if (s > (group_order() >> 1)) s = group_order() - s;
    return {r, s};
  }
}

/// ECDSA verify with the reference arithmetic.
inline bool ecdsa_verify(const AffinePoint& pub, const Hash256& z, const Signature& sig) {
  if (pub.infinity || !on_curve(pub)) return false;
  const U256& n = group_order();
  if (sig.r.is_zero() || sig.r >= n || sig.s.is_zero() || sig.s >= n) return false;
  const auto& f = fn();
  const U256 w = f.inv(sig.s);
  const U256 u1 = f.mul(f.reduce(U256::from_hash(z)), w);
  const U256 u2 = f.mul(sig.r, w);
  const Point sum = multiply(u1, generator()).add(multiply(u2, pub));
  if (sum.is_identity()) return false;
  return f.reduce(sum.to_affine().x) == sig.r;
}

}  // namespace sc::crypto::secp256k1::reference
