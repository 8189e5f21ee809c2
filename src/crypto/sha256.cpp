#include "crypto/sha256.hpp"

#include <cassert>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace sc::crypto {

namespace {

constexpr std::uint32_t kInit[8] = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
};

constexpr std::uint32_t kRound[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
};

inline std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

}  // namespace

void Sha256::reset() {
  for (int i = 0; i < 8; ++i) h_[i] = kInit[i];
  buf_len_ = 0;
  total_len_ = 0;
}

void Sha256::transform_portable(std::uint32_t state[8], const std::uint8_t block[64]) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = static_cast<std::uint32_t>(block[4 * i]) << 24 |
           static_cast<std::uint32_t>(block[4 * i + 1]) << 16 |
           static_cast<std::uint32_t>(block[4 * i + 2]) << 8 |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

namespace {

#if defined(__x86_64__)
/// The compression function on the x86 SHA extensions: two rounds per
/// sha256rnds2, with the message schedule in sha256msg1/msg2. The state
/// lives in the (ABEF, CDGH) register layout the instructions expect.
__attribute__((target("sha,sse4.1,ssse3"))) void transform_shani(
    std::uint32_t state[8], const std::uint8_t block[64]) {
  const __m128i byteswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i cdab = _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  __m128i cdgh = _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, cdab, 0xF0);
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;

  // w[i % 4] holds schedule words 4i..4i+3; from i = 4 on, each group is
  // derived from the four groups before it.
  __m128i w[4];
  for (int i = 0; i < 16; ++i) {
    __m128i& cur = w[i & 3];
    if (i < 4) {
      cur = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * i)), byteswap);
    } else {
      cur = _mm_sha256msg1_epu32(cur, w[(i + 1) & 3]);
      cur = _mm_add_epi32(cur, _mm_alignr_epi8(w[(i + 3) & 3], w[(i + 2) & 3], 4));
      cur = _mm_sha256msg2_epu32(cur, w[(i + 3) & 3]);
    }
    const __m128i msg = _mm_add_epi32(
        cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRound + 4 * i)));
    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(msg, 0x0E));
  }

  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}
#endif

using TransformFn = void (*)(std::uint32_t*, const std::uint8_t*);

/// Picks the compression function once, on first use, from what the CPU
/// supports; both produce identical digests.
TransformFn pick_transform() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1") &&
      __builtin_cpu_supports("ssse3"))
    return transform_shani;
#endif
  return Sha256::transform_portable;
}

}  // namespace

void Sha256::transform(std::uint32_t state[8], const std::uint8_t block[64]) {
  static const TransformFn impl = pick_transform();
  impl(state, block);
}

Sha256State Sha256::midstate() const {
  assert(buf_len_ == 0 && "midstate only valid at a 64-byte block boundary");
  Sha256State s;
  for (int i = 0; i < 8; ++i) s.h[i] = h_[i];
  s.bytes_compressed = total_len_;
  return s;
}

Sha256& Sha256::restore(const Sha256State& state) {
  for (int i = 0; i < 8; ++i) h_[i] = state.h[i];
  buf_len_ = 0;
  total_len_ = state.bytes_compressed;
  return *this;
}

Sha256State Sha256::initial_state() {
  Sha256State s;
  for (int i = 0; i < 8; ++i) s.h[i] = kInit[i];
  s.bytes_compressed = 0;
  return s;
}

Sha256& Sha256::update(util::ByteSpan data) {
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    const std::size_t take = std::min(data.size(), 64 - buf_len_);
    std::memcpy(buf_ + buf_len_, data.data(), take);
    buf_len_ += take;
    off = take;
    if (buf_len_ == 64) {
      compress(buf_);
      buf_len_ = 0;
    }
  }
  while (off + 64 <= data.size()) {
    compress(data.data() + off);
    off += 64;
  }
  if (off < data.size()) {
    std::memcpy(buf_, data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
  return *this;
}

Hash256 Sha256::finish() {
  const std::uint64_t bit_len = total_len_ * 8;
  // Single padding write: 0x80, zeros up to 56 mod 64, then the big-endian
  // bit length. When buf_len_ >= 56 the padding wraps into a second block,
  // so the pad area spans up to 64 + 8 bytes.
  std::uint8_t pad[72] = {0x80};
  const std::size_t pad_len = (buf_len_ < 56 ? 56 : 120) - buf_len_;
  for (int i = 0; i < 8; ++i)
    pad[pad_len + i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
  update({pad, pad_len + 8});

  Hash256 out;
  for (int i = 0; i < 8; ++i) {
    out.bytes[4 * i] = static_cast<std::uint8_t>(h_[i] >> 24);
    out.bytes[4 * i + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    out.bytes[4 * i + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    out.bytes[4 * i + 3] = static_cast<std::uint8_t>(h_[i]);
  }
  return out;
}

Hash256 Sha256::digest(util::ByteSpan data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

Hash256 Sha256::double_digest(util::ByteSpan data) {
  const Hash256 first = digest(data);
  return digest(first.span());
}

}  // namespace sc::crypto
