// Microbenchmarks for the cryptographic substrate (google-benchmark).
//
// Backs the feasibility claim: Algorithm-1 verification (hash + ECDSA) runs
// in well under a millisecond, so providers can gate thousands of reports
// per block interval.
#include <benchmark/benchmark.h>

#include "crypto/keccak.hpp"
#include "crypto/keys.hpp"
#include "crypto/merkle.hpp"
#include "crypto/ripemd160.hpp"
#include "crypto/secp256k1.hpp"
#include "crypto/sha256.hpp"
#include "util/rng.hpp"

namespace {

using namespace sc;

void BM_Sha256(benchmark::State& state) {
  util::Rng rng(1);
  util::Bytes data;
  rng.fill(data, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(crypto::Sha256::digest(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_Keccak256(benchmark::State& state) {
  util::Rng rng(2);
  util::Bytes data;
  rng.fill(data, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(crypto::keccak256(data));
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Keccak256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_Ripemd160(benchmark::State& state) {
  util::Rng rng(3);
  util::Bytes data;
  rng.fill(data, 1024);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::ripemd160(data));
}
BENCHMARK(BM_Ripemd160);

void BM_EcdsaSign(benchmark::State& state) {
  util::Rng rng(4);
  const auto key = crypto::KeyPair::generate(rng);
  const auto digest = crypto::Sha256::digest(util::as_bytes("report"));
  for (auto _ : state) benchmark::DoNotOptimize(key.sign(digest));
}
BENCHMARK(BM_EcdsaSign);

void BM_EcdsaVerify(benchmark::State& state) {
  util::Rng rng(5);
  const auto key = crypto::KeyPair::generate(rng);
  const auto digest = crypto::Sha256::digest(util::as_bytes("report"));
  const auto sig = key.sign(digest);
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::verify_signature(key.public_key(), digest, sig));
}
BENCHMARK(BM_EcdsaVerify);

void BM_DerivePublic(benchmark::State& state) {
  util::Rng rng(9);
  const auto key = crypto::KeyPair::generate(rng);
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::secp256k1::derive_public(key.private_key()));
}
BENCHMARK(BM_DerivePublic);

// Field and scalar arithmetic: a chain of dependent operations, so each
// iteration measures latency rather than overlapped throughput.
crypto::U256 bench_element(std::uint64_t seed) {
  util::Rng rng(seed);
  return crypto::secp256k1::Fp().reduce(
      {rng.next_u64(), rng.next_u64(), rng.next_u64(), rng.next_u64()});
}

void BM_FieldMul(benchmark::State& state) {
  const auto& fp = crypto::secp256k1::Fp();
  crypto::U256 a = bench_element(10);
  const crypto::U256 b = bench_element(11);
  for (auto _ : state) {
    a = fp.mul(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldMul);

void BM_FieldSqr(benchmark::State& state) {
  const auto& fp = crypto::secp256k1::Fp();
  crypto::U256 a = bench_element(12);
  for (auto _ : state) {
    a = fp.sqr(a);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldSqr);

void BM_FieldInv(benchmark::State& state) {
  const auto& fp = crypto::secp256k1::Fp();
  crypto::U256 a = bench_element(13);
  for (auto _ : state) {
    a = fp.inv(a);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_FieldInv);

void BM_ScalarMul(benchmark::State& state) {
  const auto& fn = crypto::secp256k1::Fn();
  crypto::U256 a = fn.reduce(bench_element(14));
  const crypto::U256 b = fn.reduce(bench_element(15));
  for (auto _ : state) {
    a = fn.mul(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_ScalarMul);

void BM_ScalarInv(benchmark::State& state) {
  const auto& fn = crypto::secp256k1::Fn();
  crypto::U256 a = fn.reduce(bench_element(16));
  for (auto _ : state) {
    a = fn.inv(a);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_ScalarInv);

void BM_KeyGeneration(benchmark::State& state) {
  util::Rng rng(6);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::KeyPair::generate(rng));
}
BENCHMARK(BM_KeyGeneration);

void BM_MerkleRoot(benchmark::State& state) {
  util::Rng rng(7);
  std::vector<crypto::Hash256> leaves(static_cast<std::size_t>(state.range(0)));
  for (auto& leaf : leaves) {
    util::Bytes raw;
    rng.fill(raw, 32);
    leaf = crypto::Hash256::from_span(raw);
  }
  for (auto _ : state) benchmark::DoNotOptimize(crypto::merkle_root(leaves));
}
BENCHMARK(BM_MerkleRoot)->Arg(16)->Arg(256)->Arg(1024);

void BM_MerkleProofVerify(benchmark::State& state) {
  util::Rng rng(8);
  std::vector<crypto::Hash256> leaves(256);
  for (auto& leaf : leaves) {
    util::Bytes raw;
    rng.fill(raw, 32);
    leaf = crypto::Hash256::from_span(raw);
  }
  const auto root = crypto::merkle_root(leaves);
  const auto proof = crypto::merkle_proof(leaves, 100);
  for (auto _ : state)
    benchmark::DoNotOptimize(crypto::merkle_verify(leaves[100], proof, root));
}
BENCHMARK(BM_MerkleProofVerify);

}  // namespace

BENCHMARK_MAIN();
