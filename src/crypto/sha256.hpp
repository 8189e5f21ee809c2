// SHA-256 (FIPS 180-2), implemented from the specification.
//
// Used for the PoW digest (double-SHA-256, Bitcoin-style, Section V-C of the
// paper) and as the compression function inside HMAC/RFC-6979.
//
// The midstate API (Sha256State, midstate()/restore()) lets callers snapshot
// the compression state at a 64-byte block boundary and resume from it many
// times. The PoW miner uses this to compress the constant header prefix once
// per block template and re-hash only the nonce-bearing tail per attempt
// (chain/pow.hpp).
#pragma once

#include <cstdint>

#include "crypto/hash_types.hpp"
#include "util/bytes.hpp"

namespace sc::crypto {

/// Snapshot of the SHA-256 compression state, valid only at a 64-byte block
/// boundary (no partially buffered input). `bytes_compressed` feeds the
/// length field of the final padding block.
struct Sha256State {
  std::uint32_t h[8];
  std::uint64_t bytes_compressed = 0;  ///< Always a multiple of 64.
};

/// Incremental SHA-256 context. Reusable after reset().
class Sha256 {
 public:
  Sha256() { reset(); }

  void reset();
  Sha256& update(util::ByteSpan data);
  /// Finalizes into a digest; the context must be reset() before reuse.
  Hash256 finish();

  /// Bytes currently buffered short of a full 64-byte block.
  std::size_t buffered_bytes() const { return buf_len_; }

  /// Exports the compression state. Precondition: buffered_bytes() == 0
  /// (i.e. total input so far is a multiple of 64 bytes).
  Sha256State midstate() const;
  /// Resumes hashing from a previously exported midstate.
  Sha256& restore(const Sha256State& state);

  /// The FIPS 180-2 initial hash value (the state before any input).
  static Sha256State initial_state();
  /// Runs the compression function on one 64-byte block, updating `state`
  /// in place. Building block for allocation-free hot paths (PoW mining).
  /// Dispatches once, on first use, to the x86 SHA extensions when the CPU
  /// has them, else to transform_portable; both give identical results.
  static void transform(std::uint32_t state[8], const std::uint8_t block[64]);
  /// The portable compression function, callable directly so tests can pin
  /// the hardware path against it.
  static void transform_portable(std::uint32_t state[8], const std::uint8_t block[64]);

  /// One-shot convenience.
  static Hash256 digest(util::ByteSpan data);
  /// Bitcoin-style double hash, used as the SmartCrowd PoW function.
  static Hash256 double_digest(util::ByteSpan data);

 private:
  void compress(const std::uint8_t* block) { transform(h_, block); }

  std::uint32_t h_[8];
  std::uint8_t buf_[64];
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

}  // namespace sc::crypto
