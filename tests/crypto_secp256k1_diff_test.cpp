// secp256k1 fast path pinned two ways: a golden digest of signatures and
// public keys recorded from the original generic implementation, and a
// seeded differential fuzz against the slow reference in
// secp256k1_reference.hpp (field ops, k·G, k·P, sign and verify verdicts on
// random and edge inputs).
//
//   SC_SECP_FUZZ_ROUNDS=2000 ./crypto_secp256k1_diff_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>
#include <vector>

#include "crypto/secp256k1.hpp"
#include "crypto/sha256.hpp"
#include "secp256k1_reference.hpp"
#include "util/rng.hpp"

namespace sc::crypto::secp256k1 {
namespace {

namespace ref = reference;

int fuzz_rounds() {
  const char* env = std::getenv("SC_SECP_FUZZ_ROUNDS");
  const int rounds = env ? std::atoi(env) : 0;
  return rounds > 0 ? rounds : 150;
}

U256 rand_u256(util::Rng& rng) {
  return {rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()};
}

U256 rand_scalar(util::Rng& rng) {
  for (;;) {
    const U256 d = rand_u256(rng);
    if (is_valid_private_key(d)) return d;
  }
}

Hash256 rand_hash(util::Rng& rng) {
  util::Bytes raw;
  rng.fill(raw, 32);
  return Hash256::from_span(raw);
}

// Field/scalar values where carries, folds and the final subtraction turn
// over: 0, 1, 2, p-1, p-2, n-1, n-2, n, 2^255, 2^256-1 and the fold
// constants.
std::vector<U256> edge_values() {
  const U256 p = field_prime();
  const U256 n = group_order();
  return {U256::zero(),
          U256::one(),
          U256{2},
          p - U256::one(),
          p - U256{2},
          n - U256::one(),
          n - U256{2},
          n,
          n + U256::one(),
          U256::one() << 255,
          U256::max_value(),
          U256::zero() - p,
          U256::zero() - n,
          U256{0, 0, 0, 1}};
}

// --- Concurrency: first use of the fixed-base table from four threads. ---
// Declared first so a whole-binary run also meets a cold table here; ctest
// runs every case in its own process anyway. Run under TSan by
// scripts/check.sh.
TEST(Secp256k1Concurrency, ColdTableSignFromFourThreads) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::vector<Signature>> sigs(kThreads);
  std::vector<std::vector<AffinePoint>> pubs(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &sigs, &pubs] {
      util::Rng rng(900 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < kPerThread; ++i) {
        const U256 d = rand_scalar(rng);
        const Hash256 z = rand_hash(rng);
        sigs[t].push_back(sign(d, z));
        pubs[t].push_back(derive_public(d));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    util::Rng rng(900 + static_cast<std::uint64_t>(t));
    for (int i = 0; i < kPerThread; ++i) {
      const U256 d = rand_scalar(rng);
      const Hash256 z = rand_hash(rng);
      EXPECT_EQ(sigs[t][i], ref::ecdsa_sign(d, z));
      EXPECT_EQ(pubs[t][i], ref::multiply(d, generator()).to_affine());
    }
  }
}

// --- Golden: byte identity with the original implementation. ---
// SHA-256 over 1000 seeded (encode_public(d·G) || sign(d, z).encode())
// records, recorded from the generic double-and-add implementation before
// the fast path replaced it.
TEST(Secp256k1Golden, ThousandSeededKeysAndSignatures) {
  util::Rng rng(20190707);
  Sha256 h;
  for (int i = 0; i < 1000; ++i) {
    const U256 d = rand_scalar(rng);
    const Hash256 z = rand_hash(rng);
    h.update(encode_public(derive_public(d)));
    h.update(sign(d, z).encode());
  }
  EXPECT_EQ(h.finish().hex(), "6284e089306326dddcaa3316299b3fb9f129669946c8c63f2bdcbd997bff6d56");
}

// --- Differential fuzz against the reference. ---

TEST(Secp256k1Differential, FieldOpsMatchReference) {
  util::Rng rng(31);
  const std::vector<U256> edges = edge_values();
  const int rounds = fuzz_rounds() * 20;
  for (const bool scalar : {false, true}) {
    const PrimeField& fast = scalar ? Fn() : Fp();
    const ref::Field& slow = scalar ? ref::fn() : ref::fp();
    for (int i = 0; i < rounds + static_cast<int>(edges.size() * edges.size()); ++i) {
      U256 a, b;
      if (i < static_cast<int>(edges.size() * edges.size())) {
        a = edges[static_cast<std::size_t>(i) / edges.size()];
        b = edges[static_cast<std::size_t>(i) % edges.size()];
      } else {
        a = rand_u256(rng);
        b = rand_u256(rng);
      }
      // mul, sqr and inv take any 256-bit input; add/sub/neg take reduced ones.
      ASSERT_EQ(fast.mul(a, b), slow.mul(a, b)) << a.hex() << " * " << b.hex();
      ASSERT_EQ(fast.sqr(a), slow.sqr(a)) << a.hex();
      ASSERT_EQ(fast.reduce(a), slow.reduce(a)) << a.hex();
      const U256 ra = slow.reduce(a);
      const U256 rb = slow.reduce(b);
      ASSERT_EQ(fast.add(ra, rb), slow.add(ra, rb)) << ra.hex() << " + " << rb.hex();
      ASSERT_EQ(fast.sub(ra, rb), slow.sub(ra, rb)) << ra.hex() << " - " << rb.hex();
      ASSERT_EQ(fast.neg(ra), slow.neg(ra)) << ra.hex();
      if (i % 10 == 0 || i < static_cast<int>(edges.size() * edges.size())) {
        ASSERT_EQ(fast.inv(a), slow.inv(a)) << "inv " << a.hex();
      }
    }
  }
}

TEST(Secp256k1Differential, ScalarMulMatchesReference) {
  util::Rng rng(32);
  std::vector<U256> scalars = edge_values();
  for (int i = 0; i < fuzz_rounds(); ++i) scalars.push_back(rand_u256(rng));
  const AffinePoint infinity{U256::zero(), U256::zero(), true};
  const AffinePoint other = ref::multiply(rand_scalar(rng), generator()).to_affine();
  for (const U256& k : scalars) {
    ASSERT_EQ(scalar_mul_base(k).to_affine(), ref::multiply(k, generator()).to_affine())
        << "k·G, k = " << k.hex();
    ASSERT_EQ(scalar_mul(k, other).to_affine(), ref::multiply(k, other).to_affine())
        << "k·P, k = " << k.hex();
    ASSERT_TRUE(scalar_mul(k, infinity).is_identity());
    if (is_valid_private_key(k)) {
      ASSERT_EQ(derive_public(k), ref::multiply(k, generator()).to_affine());
    }
  }
}

TEST(Secp256k1Differential, SignAndVerifyMatchReference) {
  util::Rng rng(33);
  const U256 n = group_order();
  for (int i = 0; i < fuzz_rounds(); ++i) {
    const U256 d = rand_scalar(rng);
    const Hash256 z = rand_hash(rng);
    const AffinePoint pub = derive_public(d);
    const Signature sig = sign(d, z);
    ASSERT_EQ(sig, ref::ecdsa_sign(d, z)) << "d = " << d.hex();

    // Valid, high-s, tampered digest, tampered r/s, out-of-range r/s, wrong
    // key, off-curve and infinite keys: the verdicts must agree.
    Signature high = sig;
    high.s = n - sig.s;
    Signature r_wrap = sig;
    r_wrap.r = n + (sig.r >> 130);  // n <= r < 2^256
    Signature s_big = sig;
    s_big.s = n + U256::one();
    Signature r_flip = sig;
    r_flip.r = sig.r ^ U256{1};
    AffinePoint off_curve = pub;
    off_curve.y = off_curve.y ^ U256{1};
    const AffinePoint infinity{U256::zero(), U256::zero(), true};
    const struct {
      AffinePoint key;
      Hash256 digest;
      Signature sig;
    } cases[] = {{pub, z, sig},
                 {pub, z, high},
                 {pub, rand_hash(rng), sig},
                 {pub, z, r_wrap},
                 {pub, z, s_big},
                 {pub, z, r_flip},
                 {pub, z, {sig.r, U256::zero()}},
                 {pub, z, {n, sig.s}},
                 {derive_public(rand_scalar(rng)), z, sig},
                 {off_curve, z, sig},
                 {infinity, z, sig}};
    for (const auto& c : cases)
      ASSERT_EQ(verify(c.key, c.digest, c.sig), ref::ecdsa_verify(c.key, c.digest, c.sig))
          << "d = " << d.hex() << " r = " << c.sig.r.hex() << " s = " << c.sig.s.hex();
    ASSERT_TRUE(verify(pub, z, sig));
    ASSERT_TRUE(verify(pub, z, high));
  }
}

// x(R) >= n: a valid signature has r = x(R) - n, and the verifier must
// accept the reduced x. Such R are 2^-128-rare from honest signers, so the
// key is forged: pick R with n <= x(R) < p and s, then solve for Q with
// u1·G + u2·Q = R.
TEST(Secp256k1Differential, VerifyAcceptsXAboveGroupOrder) {
  const U256 n = group_order();
  const auto& fp = ref::fp();
  const auto& fn = ref::fn();
  AffinePoint r_point;
  for (std::uint64_t j = 1;; ++j) {  // r = x(R) - n must be non-zero
    const U256 x = n + U256{j};
    const auto y = sqrt_mod_p(fp.add(fp.mul(fp.sqr(x), x), U256{7}));
    if (!y) continue;
    r_point = {x, *y, false};
    break;
  }
  ASSERT_TRUE(ref::on_curve(r_point));
  util::Rng rng(34);
  for (int i = 0; i < 8; ++i) {
    const Hash256 z = rand_hash(rng);
    const U256 s = rand_scalar(rng);
    const U256 r = r_point.x - n;
    const U256 w = fn.inv(s);
    const U256 u1 = fn.mul(fn.reduce(U256::from_hash(z)), w);
    const U256 u2 = fn.mul(r, w);
    // Q = u2^-1 · (R - u1·G)
    AffinePoint neg_u1g = ref::multiply(u1, generator()).to_affine();
    neg_u1g.y = fp.neg(neg_u1g.y);
    const AffinePoint diff =
        ref::Point::from_affine(r_point).add(ref::Point::from_affine(neg_u1g)).to_affine();
    const AffinePoint q = ref::multiply(fn.inv(u2), diff).to_affine();
    const Signature sig{r, s};
    EXPECT_TRUE(ref::ecdsa_verify(q, z, sig));
    EXPECT_TRUE(verify(q, z, sig));
    Signature other = sig;
    other.r = other.r + U256::one();
    EXPECT_EQ(verify(q, z, other), ref::ecdsa_verify(q, z, other));
  }
}

}  // namespace
}  // namespace sc::crypto::secp256k1
