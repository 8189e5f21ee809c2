#include "crypto/secp256k1.hpp"

#include <vector>

#include "crypto/hmac.hpp"
#include "util/serialize.hpp"

namespace sc::crypto::secp256k1 {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

constexpr U256 kP{0xFFFFFFFEFFFFFC2FULL, ~0ULL, ~0ULL, ~0ULL};
constexpr U256 kN{0xBFD25E8CD0364141ULL, 0xBAAEDCE6AF48A03BULL, 0xFFFFFFFFFFFFFFFEULL,
                  ~0ULL};
constexpr U256 kGx{0x59F2815B16F81798ULL, 0x029BFCDB2DCE28D9ULL, 0x55A06295CE870B07ULL,
                   0x79BE667EF9DCBBACULL};
constexpr U256 kGy{0x9C47D08FFB10D4B8ULL, 0xFD17B448A6855419ULL, 0x5DA4FBFC0E1108A8ULL,
                   0x483ADA7726A3C465ULL};

constexpr u64 kPc = 0x1000003D1ULL;  // 2^256 - p
// 2^256 - n = kNc[0] + kNc[1]·2^64 + kNc[2]·2^128
constexpr u64 kNc[3] = {0x402DA1732FC9BEBFULL, 0x4551231950B75FC4ULL, 1};

// --- 256-bit limb helpers (inline: the hot loops must not call out). ---

inline bool is_zero(const U256& a) { return (a.limb[0] | a.limb[1] | a.limb[2] | a.limb[3]) == 0; }

inline bool is_one(const U256& a) {
  return a.limb[0] == 1 && (a.limb[1] | a.limb[2] | a.limb[3]) == 0;
}

inline bool geq(const U256& a, const U256& b) {
  for (int i = 3; i > 0; --i)
    if (a.limb[i] != b.limb[i]) return a.limb[i] > b.limb[i];
  return a.limb[0] >= b.limb[0];
}

/// r = a + b mod 2^256; returns the carry.
inline u64 add4(U256& r, const U256& a, const U256& b) {
  u128 s = static_cast<u128>(a.limb[0]) + b.limb[0];
  r.limb[0] = static_cast<u64>(s);
  s = (s >> 64) + a.limb[1] + b.limb[1];
  r.limb[1] = static_cast<u64>(s);
  s = (s >> 64) + a.limb[2] + b.limb[2];
  r.limb[2] = static_cast<u64>(s);
  s = (s >> 64) + a.limb[3] + b.limb[3];
  r.limb[3] = static_cast<u64>(s);
  return static_cast<u64>(s >> 64);
}

/// r = a - b mod 2^256; returns the borrow.
inline u64 sub4(U256& r, const U256& a, const U256& b) {
  u64 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 d = static_cast<u128>(a.limb[i]) - b.limb[i] - borrow;
    r.limb[i] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 64) & 1;
  }
  return borrow;
}

/// a + b mod m for a, b < m.
inline void add_mod(U256& r, const U256& a, const U256& b, const U256& m) {
  const u64 carry = add4(r, a, b);
  if (carry || geq(r, m)) sub4(r, r, m);
}

/// a - b mod m for a, b < m.
inline void sub_mod(U256& r, const U256& a, const U256& b, const U256& m) {
  if (sub4(r, a, b)) add4(r, r, m);
}

/// Full 256x256 -> 512-bit product, column by column.
inline void mul_wide(u64 t[8], const U256& a, const U256& b) {
  // (lo, hi) is a 192-bit column accumulator.
  u128 lo = 0;
  u64 hi = 0;
  auto muladd = [&](u64 x, u64 y) {
    const u128 p = static_cast<u128>(x) * y;
    lo += p;
    hi += lo < p;
  };
  auto extract = [&]() {
    const u64 out = static_cast<u64>(lo);
    lo = (lo >> 64) | (static_cast<u128>(hi) << 64);
    hi = 0;
    return out;
  };
  const u64* x = a.limb;
  const u64* y = b.limb;
  muladd(x[0], y[0]);
  t[0] = extract();
  muladd(x[0], y[1]);
  muladd(x[1], y[0]);
  t[1] = extract();
  muladd(x[0], y[2]);
  muladd(x[1], y[1]);
  muladd(x[2], y[0]);
  t[2] = extract();
  muladd(x[0], y[3]);
  muladd(x[1], y[2]);
  muladd(x[2], y[1]);
  muladd(x[3], y[0]);
  t[3] = extract();
  muladd(x[1], y[3]);
  muladd(x[2], y[2]);
  muladd(x[3], y[1]);
  t[4] = extract();
  muladd(x[2], y[3]);
  muladd(x[3], y[2]);
  t[5] = extract();
  muladd(x[3], y[3]);
  t[6] = extract();
  t[7] = static_cast<u64>(lo);
}

// --- F_p: fold the high half by 2^256 ≡ 0x1000003D1 (mod p). ---

inline void fe_reduce(U256& r, const u64 t[8]) {
  // First fold: t_lo + t_hi·kPc < 2^256 + 2^290, carried out in `top`.
  u128 acc = static_cast<u128>(t[4]) * kPc + t[0];
  u64 r0 = static_cast<u64>(acc);
  acc = (acc >> 64) + static_cast<u128>(t[5]) * kPc + t[1];
  u64 r1 = static_cast<u64>(acc);
  acc = (acc >> 64) + static_cast<u128>(t[6]) * kPc + t[2];
  u64 r2 = static_cast<u64>(acc);
  acc = (acc >> 64) + static_cast<u128>(t[7]) * kPc + t[3];
  u64 r3 = static_cast<u64>(acc);
  const u64 top = static_cast<u64>(acc >> 64);  // < 2^34
  // Second fold: top·kPc < 2^67.
  acc = static_cast<u128>(top) * kPc + r0;
  r0 = static_cast<u64>(acc);
  acc = (acc >> 64) + r1;
  r1 = static_cast<u64>(acc);
  acc = (acc >> 64) + r2;
  r2 = static_cast<u64>(acc);
  acc = (acc >> 64) + r3;
  r3 = static_cast<u64>(acc);
  if (acc >> 64) {
    // Wrapped past 2^256: what is left is below 2^67, so adding 2^256 mod p
    // once more cannot carry out, and the sum is below p.
    acc = static_cast<u128>(r0) + kPc;
    r0 = static_cast<u64>(acc);
    acc = (acc >> 64) + r1;
    r1 = static_cast<u64>(acc);
    acc = (acc >> 64) + r2;
    r2 = static_cast<u64>(acc);
    r3 += static_cast<u64>(acc >> 64);
  } else if ((r3 & r2 & r1) == ~0ULL && r0 >= kP.limb[0]) {
    // p <= r < 2^256: r - p fits in the low limb.
    r0 -= kP.limb[0];
    r1 = r2 = r3 = 0;
  }
  r = U256{r0, r1, r2, r3};
}

inline void fe_mul(U256& r, const U256& a, const U256& b) {
  u64 t[8];
  mul_wide(t, a, b);
  fe_reduce(r, t);
}

inline void fe_sqr(U256& r, const U256& a) { fe_mul(r, a, a); }

inline void fe_add(U256& r, const U256& a, const U256& b) { add_mod(r, a, b, kP); }
inline void fe_sub(U256& r, const U256& a, const U256& b) { sub_mod(r, a, b, kP); }

// --- F_n: fold by 2^256 ≡ kNc (mod n), 129 bits, until 256 bits remain. ---

U256 reduce_n(const u64 wide[8]) {
  u64 t[8];
  for (int i = 0; i < 8; ++i) t[i] = wide[i];
  int len = 8;
  for (;;) {
    while (len > 4 && t[len - 1] == 0) --len;
    if (len == 4) break;
    // t = t[0..4) + t[4..len)·kNc; each pass removes ~127 bits.
    u64 next[8] = {t[0], t[1], t[2], t[3], 0, 0, 0, 0};
    for (int i = 0; i < len - 4; ++i) {
      u128 carry = 0;
      for (int j = 0; j < 3; ++j) {
        carry += static_cast<u128>(t[4 + i]) * kNc[j] + next[i + j];
        next[i + j] = static_cast<u64>(carry);
        carry >>= 64;
      }
      for (int k = i + 3; carry != 0 && k < 8; ++k) {
        carry += next[k];
        next[k] = static_cast<u64>(carry);
        carry >>= 64;
      }
    }
    for (int i = 0; i < 8; ++i) t[i] = next[i];
    len = 8;
  }
  U256 r{t[0], t[1], t[2], t[3]};
  if (geq(r, kN)) sub4(r, r, kN);  // 2^256 < 2n
  return r;
}

U256 sc_mul(const U256& a, const U256& b) {
  u64 t[8];
  mul_wide(t, a, b);
  return reduce_n(t);
}

// --- Variable-time inversion by binary extended GCD, for odd m. ---

inline void shr1(U256& a, u64 top_bit = 0) {
  a.limb[0] = (a.limb[0] >> 1) | (a.limb[1] << 63);
  a.limb[1] = (a.limb[1] >> 1) | (a.limb[2] << 63);
  a.limb[2] = (a.limb[2] >> 1) | (a.limb[3] << 63);
  a.limb[3] = (a.limb[3] >> 1) | (top_bit << 63);
}

/// x/2 mod m for x < m, m odd.
inline void half_mod(U256& x, const U256& m) {
  if (x.limb[0] & 1) {
    const u64 carry = add4(x, x, m);
    shr1(x, carry);
  } else {
    shr1(x);
  }
}

/// a^-1 mod m for an odd prime m; 0 maps to 0. Invariants: x1·a ≡ u and
/// x2·a ≡ v (mod m), with gcd(u, v) = 1 throughout.
U256 inv_mod(const U256& a_in, const U256& m) {
  U256 u = a_in;
  if (geq(u, m)) sub4(u, u, m);
  if (is_zero(u)) return u;
  U256 v = m;
  U256 x1 = U256::one();
  U256 x2 = U256::zero();
  while (!is_one(u) && !is_one(v)) {
    while ((u.limb[0] & 1) == 0) {
      shr1(u);
      half_mod(x1, m);
    }
    while ((v.limb[0] & 1) == 0) {
      shr1(v);
      half_mod(x2, m);
    }
    if (geq(u, v)) {
      sub4(u, u, v);
      sub_mod(x1, x1, x2, m);
    } else {
      sub4(v, v, u);
      sub_mod(x2, x2, x1, m);
    }
  }
  return is_one(u) ? x1 : x2;
}

// --- Group law in Jacobian coordinates (a = 0); all coordinates < p. ---

using Jac = JacobianPoint;

/// r = 2a, dbl-2009-l: 2M + 5S, small constants as additions. r may alias a.
void dbl(Jac& r, const Jac& a) {
  if (is_zero(a.z) || is_zero(a.y)) {
    r = Jac::identity();
    return;
  }
  U256 xa, yb, c, d, e, f, t;
  fe_sqr(xa, a.x);         // A = X^2
  fe_sqr(yb, a.y);         // B = Y^2
  fe_sqr(c, yb);           // C = B^2
  fe_add(t, a.x, yb);      // D = 2((X+B)^2 - A - C)
  fe_sqr(t, t);
  fe_sub(t, t, xa);
  fe_sub(t, t, c);
  fe_add(d, t, t);
  fe_add(e, xa, xa);       // E = 3A
  fe_add(e, e, xa);
  fe_sqr(f, e);            // F = E^2
  fe_mul(t, a.y, a.z);     // Z3 = 2YZ (before r overwrites a)
  fe_add(r.z, t, t);
  fe_sub(r.x, f, d);       // X3 = F - 2D
  fe_sub(r.x, r.x, d);
  fe_sub(t, d, r.x);       // Y3 = E(D - X3) - 8C
  fe_mul(t, e, t);
  fe_add(c, c, c);
  fe_add(c, c, c);
  fe_add(c, c, c);
  fe_sub(r.y, t, c);
}

/// r = a + (bx, by) for an affine, non-identity b, madd-2007-bl: 7M + 4S.
/// r may alias a.
void add_mixed(Jac& r, const Jac& a, const U256& bx, const U256& by) {
  if (is_zero(a.z)) {
    r = {bx, by, U256::one()};
    return;
  }
  U256 z1z1, u2, s2, h, rr, t;
  fe_sqr(z1z1, a.z);        // Z1Z1 = Z1^2
  fe_mul(u2, bx, z1z1);     // U2 = X2·Z1Z1
  fe_mul(t, a.z, z1z1);     // S2 = Y2·Z1·Z1Z1
  fe_mul(s2, by, t);
  fe_sub(h, u2, a.x);       // H = U2 - X1
  fe_sub(rr, s2, a.y);      // r = 2(S2 - Y1)
  if (is_zero(h)) {
    if (is_zero(rr)) {
      dbl(r, a);
    } else {
      r = Jac::identity();
    }
    return;
  }
  fe_add(rr, rr, rr);
  U256 hh, i, j, v;
  fe_sqr(hh, h);            // HH = H^2
  fe_add(i, hh, hh);        // I = 4HH
  fe_add(i, i, i);
  fe_mul(j, h, i);          // J = H·I
  fe_mul(v, a.x, i);        // V = X1·I
  fe_mul(t, a.y, j);        // 2·Y1·J (before r overwrites a)
  fe_add(t, t, t);
  fe_mul(r.z, a.z, h);      // Z3 = (Z1+H)^2 - Z1Z1 - HH = 2·Z1·H
  fe_add(r.z, r.z, r.z);
  fe_sqr(r.x, rr);          // X3 = r^2 - J - 2V
  fe_sub(r.x, r.x, j);
  fe_sub(r.x, r.x, v);
  fe_sub(r.x, r.x, v);
  fe_sub(v, v, r.x);        // Y3 = r(V - X3) - 2·Y1·J
  fe_mul(v, rr, v);
  fe_sub(r.y, v, t);
}

/// r = a + b, add-2007-bl: 11M + 5S. r may alias a or b.
void add_full(Jac& r, const Jac& a, const Jac& b) {
  if (is_zero(a.z)) {
    r = b;
    return;
  }
  if (is_zero(b.z)) {
    r = a;
    return;
  }
  U256 z1z1, z2z2, u1, u2, s1, s2, t;
  fe_sqr(z1z1, a.z);
  fe_sqr(z2z2, b.z);
  fe_mul(u1, a.x, z2z2);
  fe_mul(u2, b.x, z1z1);
  fe_mul(t, b.z, z2z2);
  fe_mul(s1, a.y, t);
  fe_mul(t, a.z, z1z1);
  fe_mul(s2, b.y, t);
  U256 h, rr;
  fe_sub(h, u2, u1);        // H = U2 - U1
  fe_sub(rr, s2, s1);       // r = 2(S2 - S1)
  if (is_zero(h)) {
    if (is_zero(rr)) {
      dbl(r, a);
    } else {
      r = Jac::identity();
    }
    return;
  }
  fe_add(rr, rr, rr);
  U256 i, j, v, z3;
  fe_add(i, h, h);          // I = (2H)^2
  fe_sqr(i, i);
  fe_mul(j, h, i);          // J = H·I
  fe_mul(v, u1, i);         // V = U1·I
  fe_mul(z3, a.z, b.z);     // Z3 = ((Z1+Z2)^2 - Z1Z1 - Z2Z2)·H = 2·Z1·Z2·H
  fe_mul(z3, z3, h);
  fe_add(r.z, z3, z3);
  fe_mul(s1, s1, j);        // 2·S1·J
  fe_add(s1, s1, s1);
  fe_sqr(r.x, rr);          // X3 = r^2 - J - 2V
  fe_sub(r.x, r.x, j);
  fe_sub(r.x, r.x, v);
  fe_sub(r.x, r.x, v);
  fe_sub(v, v, r.x);        // Y3 = r(V - X3) - 2·S1·J
  fe_mul(v, rr, v);
  fe_sub(r.y, v, s1);
}

// --- Fixed-base comb for G: window w, digit d -> d·16^w·G in affine form. ---

constexpr int kCombWindows = 64;  // 4-bit windows over 256 bits
constexpr int kCombDigits = 15;   // non-zero window values

struct TablePoint {
  U256 x;
  U256 y;
};

std::vector<TablePoint> build_comb_table() {
  // Every entry is d·16^w·G with 1 <= d·16^w < 2^256 and d·16^w != 0 mod n
  // (n > 15·2^252), so none is the identity.
  std::vector<Jac> jac(kCombWindows * kCombDigits);
  Jac base = Jac::from_affine(generator());
  for (int w = 0; w < kCombWindows; ++w) {
    Jac* row = &jac[static_cast<std::size_t>(w) * kCombDigits];
    row[0] = base;
    for (int d = 1; d < kCombDigits; ++d) add_full(row[d], row[d - 1], base);
    if (w + 1 < kCombWindows) add_full(base, row[kCombDigits - 1], base);  // 16·base
  }
  // Batch normalisation (Montgomery's trick): one inversion for all Z.
  std::vector<U256> prefix(jac.size());
  prefix[0] = jac[0].z;
  for (std::size_t i = 1; i < jac.size(); ++i) fe_mul(prefix[i], prefix[i - 1], jac[i].z);
  U256 inv = inv_mod(prefix.back(), kP);
  std::vector<TablePoint> table(jac.size());
  for (std::size_t i = jac.size(); i-- > 0;) {
    U256 zinv = inv;
    if (i > 0) {
      fe_mul(zinv, inv, prefix[i - 1]);
      fe_mul(inv, inv, jac[i].z);
    }
    U256 zinv2, zinv3;
    fe_sqr(zinv2, zinv);
    fe_mul(zinv3, zinv2, zinv);
    fe_mul(table[i].x, jac[i].x, zinv2);
    fe_mul(table[i].y, jac[i].y, zinv3);
  }
  return table;
}

/// The comb table, built on first use; C++ guarantees a function-local
/// static is initialised exactly once even under concurrent first calls.
const std::vector<TablePoint>& comb_table() {
  static const std::vector<TablePoint> table = build_comb_table();
  return table;
}

/// acc += k·G: one mixed addition per non-zero 4-bit window of k.
void add_mul_base(Jac& acc, const U256& k) {
  const std::vector<TablePoint>& table = comb_table();
  for (int w = 0; w < kCombWindows; ++w) {
    const unsigned digit = static_cast<unsigned>(k.limb[w / 16] >> (4 * (w % 16))) & 15;
    if (digit == 0) continue;
    const TablePoint& p = table[static_cast<std::size_t>(w) * kCombDigits + digit - 1];
    add_mixed(acc, acc, p.x, p.y);
  }
}

// --- Width-5 wNAF for a variable point. ---

constexpr int kWnafWidth = 5;
constexpr int kWnafTable = 1 << (kWnafWidth - 2);  // P, 3P, ..., 15P

/// Writes the width-5 NAF of k (odd digits in [-15, 15], at least four
/// zeros after each non-zero one) into digits[0..257); returns its length.
int wnaf(const U256& k, int digits[257]) {
  u64 n[5] = {k.limb[0], k.limb[1], k.limb[2], k.limb[3], 0};
  auto shr = [&n](unsigned s) {  // 0 < s < 64
    for (int i = 0; i < 4; ++i) n[i] = (n[i] >> s) | (n[i + 1] << (64 - s));
    n[4] >>= s;
  };
  int len = 0;
  int pos = 0;
  while ((n[0] | n[1] | n[2] | n[3] | n[4]) != 0) {
    if ((n[0] & 1) == 0) {
      const unsigned s = n[0] == 0 ? 63 : static_cast<unsigned>(__builtin_ctzll(n[0]));
      shr(s);
      pos += static_cast<int>(s);
      continue;
    }
    int d = static_cast<int>(n[0] & ((1u << kWnafWidth) - 1));
    if (d >= (1 << (kWnafWidth - 1))) d -= 1 << kWnafWidth;
    // n -= d clears the low kWnafWidth bits.
    if (d > 0) {
      n[0] -= static_cast<u64>(d);
    } else {
      u128 carry = static_cast<u64>(-d);
      for (int i = 0; i < 5 && carry != 0; ++i) {
        carry += n[i];
        n[i] = static_cast<u64>(carry);
        carry >>= 64;
      }
    }
    digits[pos] = d;
    len = pos + 1;
    shr(kWnafWidth);
    pos += kWnafWidth;
  }
  return len;
}

/// k·P for an affine, non-identity P (coordinates already < p).
Jac mul_wnaf(const U256& k, const U256& px, const U256& py) {
  Jac odd[kWnafTable];  // (2i+1)·P
  odd[0] = {px, py, U256::one()};
  Jac twice;
  dbl(twice, odd[0]);
  for (int i = 1; i < kWnafTable; ++i) add_full(odd[i], odd[i - 1], twice);

  int digits[257] = {};
  const int len = wnaf(k, digits);
  Jac acc = Jac::identity();
  for (int i = len - 1; i >= 0; --i) {
    dbl(acc, acc);
    const int d = digits[i];
    if (d > 0) {
      add_full(acc, acc, odd[(d - 1) / 2]);
    } else if (d < 0) {
      Jac neg = odd[(-d - 1) / 2];
      sub_mod(neg.y, U256::zero(), neg.y, kP);
      add_full(acc, acc, neg);
    }
  }
  return acc;
}

AffinePoint to_affine_point(const Jac& p) {
  if (p.is_identity()) return {U256::zero(), U256::zero(), true};
  const U256 zinv = inv_mod(p.z, kP);
  U256 zinv2, zinv3;
  fe_sqr(zinv2, zinv);
  fe_mul(zinv3, zinv2, zinv);
  AffinePoint out;
  fe_mul(out.x, p.x, zinv2);
  fe_mul(out.y, p.y, zinv3);
  return out;
}

U256 reduce_once(const U256& a, const U256& m) {
  U256 r = a;
  if (geq(r, m)) sub4(r, r, m);  // 2^256 < 2m for both p and n
  return r;
}

}  // namespace

const U256& field_prime() { return kP; }
const U256& group_order() { return kN; }

const PrimeField& Fp() {
  static const PrimeField f(kP, /*scalar=*/false);
  return f;
}

const PrimeField& Fn() {
  static const PrimeField f(kN, /*scalar=*/true);
  return f;
}

U256 PrimeField::reduce(const U256& a) const { return reduce_once(a, m_); }

U256 PrimeField::add(const U256& a, const U256& b) const {
  U256 r;
  add_mod(r, a, b, m_);
  return r;
}

U256 PrimeField::sub(const U256& a, const U256& b) const {
  U256 r;
  sub_mod(r, a, b, m_);
  return r;
}

U256 PrimeField::neg(const U256& a) const { return sub(U256::zero(), a); }

U256 PrimeField::mul(const U256& a, const U256& b) const {
  if (scalar_) return sc_mul(a, b);
  U256 r;
  fe_mul(r, a, b);
  return r;
}

U256 PrimeField::pow(const U256& base, const U256& exp) const {
  U256 result = U256::one();
  U256 acc = reduce(base);
  const unsigned bits = exp.bit_length();
  for (unsigned i = 0; i < bits; ++i) {
    if (exp.bit(i)) result = mul(result, acc);
    acc = sqr(acc);
  }
  return result;
}

U256 PrimeField::inv(const U256& a) const { return inv_mod(a, m_); }

bool AffinePoint::is_on_curve() const {
  if (infinity) return true;
  U256 lhs, rhs;
  fe_sqr(lhs, y);
  fe_sqr(rhs, x);
  fe_mul(rhs, rhs, x);
  fe_add(rhs, rhs, U256{7});
  return lhs == rhs;
}

JacobianPoint JacobianPoint::from_affine(const AffinePoint& p) {
  if (p.infinity) return identity();
  return {reduce_once(p.x, kP), reduce_once(p.y, kP), U256::one()};
}

AffinePoint JacobianPoint::to_affine() const { return to_affine_point(*this); }

JacobianPoint JacobianPoint::doubled() const {
  Jac r;
  dbl(r, *this);
  return r;
}

JacobianPoint JacobianPoint::add(const JacobianPoint& o) const {
  Jac r;
  add_full(r, *this, o);
  return r;
}

JacobianPoint JacobianPoint::add_affine(const AffinePoint& o) const {
  if (o.infinity) return *this;
  Jac r;
  add_mixed(r, *this, reduce_once(o.x, kP), reduce_once(o.y, kP));
  return r;
}

const AffinePoint& generator() {
  static const AffinePoint g{kGx, kGy, false};
  return g;
}

JacobianPoint scalar_mul(const U256& k, const AffinePoint& p) {
  if (p.infinity) return Jac::identity();
  return mul_wnaf(k, reduce_once(p.x, kP), reduce_once(p.y, kP));
}

JacobianPoint scalar_mul_base(const U256& k) {
  Jac acc = Jac::identity();
  add_mul_base(acc, k);
  return acc;
}

util::Bytes Signature::encode() const {
  util::Bytes out(64);
  r.to_be_bytes(out.data());
  s.to_be_bytes(out.data() + 32);
  return out;
}

std::optional<Signature> Signature::decode(util::ByteSpan data) {
  if (data.size() != 64) return std::nullopt;
  Signature sig;
  sig.r = U256::from_be_bytes(data.subspan(0, 32));
  sig.s = U256::from_be_bytes(data.subspan(32, 32));
  return sig;
}

bool is_valid_private_key(const U256& d) { return !d.is_zero() && d < kN; }

AffinePoint derive_public(const U256& d) { return to_affine_point(scalar_mul_base(d)); }

U256 rfc6979_nonce(const U256& d, const Hash256& z, std::uint32_t extra) {
  // RFC 6979 §3.2 with SHA-256. qlen == hlen == 256 bits, so bits2int is the
  // identity and bits2octets is reduction mod n.
  std::uint8_t d_oct[32];
  d.to_be_bytes(d_oct);
  const U256 z_mod_n = Fn().reduce(U256::from_hash(z));
  std::uint8_t z_oct[32];
  z_mod_n.to_be_bytes(z_oct);

  Hash256 v_hash;
  Hash256 k_hash;
  v_hash.bytes.fill(0x01);
  k_hash.bytes.fill(0x00);

  auto build = [&](std::uint8_t sep) {
    util::Writer w;
    w.raw(v_hash.span());
    w.u8(sep);
    w.raw({d_oct, 32});
    w.raw({z_oct, 32});
    // `extra` gives distinct nonce streams when a retry is needed (never in
    // practice for secp256k1, but required for completeness).
    if (extra != 0) {
      std::uint8_t e[4] = {
          static_cast<std::uint8_t>(extra >> 24), static_cast<std::uint8_t>(extra >> 16),
          static_cast<std::uint8_t>(extra >> 8), static_cast<std::uint8_t>(extra)};
      w.raw({e, 4});
    }
    return std::move(w).take();
  };

  k_hash = hmac_sha256(k_hash.span(), build(0x00));
  v_hash = hmac_sha256(k_hash.span(), v_hash.span());
  k_hash = hmac_sha256(k_hash.span(), build(0x01));
  v_hash = hmac_sha256(k_hash.span(), v_hash.span());

  for (;;) {
    v_hash = hmac_sha256(k_hash.span(), v_hash.span());
    const U256 k = U256::from_hash(v_hash);
    if (is_valid_private_key(k)) return k;
    const util::Bytes retry = util::concat({v_hash.span(), util::ByteSpan{}});
    util::Bytes retry_msg = retry;
    retry_msg.push_back(0x00);
    k_hash = hmac_sha256(k_hash.span(), retry_msg);
    v_hash = hmac_sha256(k_hash.span(), v_hash.span());
  }
}

Signature sign(const U256& d, const Hash256& z) {
  const U256 z_scalar = reduce_once(U256::from_hash(z), kN);
  for (std::uint32_t attempt = 0;; ++attempt) {
    const U256 k = rfc6979_nonce(d, z, attempt);
    const U256 r = reduce_once(to_affine_point(scalar_mul_base(k)).x, kN);
    if (r.is_zero()) continue;
    U256 e;
    add_mod(e, z_scalar, sc_mul(r, d), kN);
    U256 s = sc_mul(inv_mod(k, kN), e);
    if (s.is_zero()) continue;
    // Low-s normalisation: (r, s) and (r, n-s) are both valid; pick the
    // canonical one so signatures are unique (malleability defence).
    const U256 half_n = kN >> 1;
    if (s > half_n) s = kN - s;
    return {r, s};
  }
}

bool verify(const AffinePoint& pub, const Hash256& z, const Signature& sig) {
  if (pub.infinity || !pub.is_on_curve()) return false;
  if (sig.r.is_zero() || sig.r >= kN || sig.s.is_zero() || sig.s >= kN) return false;
  const U256 w = inv_mod(sig.s, kN);
  const U256 u1 = sc_mul(reduce_once(U256::from_hash(z), kN), w);
  const U256 u2 = sc_mul(sig.r, w);
  // R = u2·P (wNAF) + u1·G (comb).
  Jac sum = mul_wnaf(u2, reduce_once(pub.x, kP), reduce_once(pub.y, kP));
  add_mul_base(sum, u1);
  if (sum.is_identity()) return false;
  // x(R) mod n == r  <=>  x(R) is r or r + n (x(R) < p < 2n). Compare in
  // Jacobian form, X == x·Z^2, so F_p is never inverted.
  U256 zz, candidate;
  fe_sqr(zz, sum.z);
  fe_mul(candidate, sig.r, zz);
  if (candidate == sum.x) return true;
  U256 r_plus_n;
  if (add4(r_plus_n, sig.r, kN) != 0 || geq(r_plus_n, kP)) return false;
  fe_mul(candidate, r_plus_n, zz);
  return candidate == sum.x;
}

util::Bytes encode_public(const AffinePoint& pub) {
  util::Bytes out(64);
  pub.x.to_be_bytes(out.data());
  pub.y.to_be_bytes(out.data() + 32);
  return out;
}

std::optional<AffinePoint> decode_public(util::ByteSpan data) {
  if (data.size() != 64) return std::nullopt;
  AffinePoint p;
  p.x = U256::from_be_bytes(data.subspan(0, 32));
  p.y = U256::from_be_bytes(data.subspan(32, 32));
  p.infinity = false;
  if (!p.is_on_curve()) return std::nullopt;
  return p;
}

std::optional<U256> sqrt_mod_p(const U256& a) {
  const auto& f = Fp();
  const U256 reduced = f.reduce(a);
  if (reduced.is_zero()) return U256::zero();
  // (p+1)/4: since p ≡ 3 (mod 4) the candidate is a^((p+1)/4).
  const U256 exponent = (kP + U256::one()) >> 2;
  const U256 candidate = f.pow(reduced, exponent);
  if (f.sqr(candidate) != reduced) return std::nullopt;  // non-residue
  return candidate;
}

util::Bytes encode_public_compressed(const AffinePoint& pub) {
  util::Bytes out(33);
  out[0] = pub.y.bit(0) ? 0x03 : 0x02;
  pub.x.to_be_bytes(out.data() + 1);
  return out;
}

std::optional<AffinePoint> decode_public_compressed(util::ByteSpan data) {
  if (data.size() != 33) return std::nullopt;
  if (data[0] != 0x02 && data[0] != 0x03) return std::nullopt;
  const auto& f = Fp();
  const U256 x = U256::from_be_bytes(data.subspan(1, 32));
  if (x >= kP) return std::nullopt;
  // y^2 = x^3 + 7; pick the root whose parity matches the tag.
  const U256 rhs = f.add(f.mul(f.sqr(x), x), U256{7});
  const auto y = sqrt_mod_p(rhs);
  if (!y) return std::nullopt;
  const bool want_odd = data[0] == 0x03;
  AffinePoint p;
  p.x = x;
  p.y = y->bit(0) == want_odd ? *y : f.neg(*y);
  p.infinity = false;
  if (!p.is_on_curve()) return std::nullopt;
  return p;
}

}  // namespace sc::crypto::secp256k1
