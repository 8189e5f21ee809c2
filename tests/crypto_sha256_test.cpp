// SHA-256 against FIPS 180-2 / NIST CAVP vectors.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "crypto/sha256.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace sc::crypto {
namespace {

std::string hex_of(util::ByteSpan data) { return util::to_hex(data); }

TEST(Sha256, EmptyString) {
  EXPECT_EQ(Sha256::digest({}).hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(Sha256::digest(util::as_bytes("abc")).hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(Sha256::digest(util::as_bytes(
                               "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))
                .hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(util::as_bytes(chunk));
  EXPECT_EQ(ctx.finish().hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  Sha256 ctx;
  for (char c : msg) ctx.update({reinterpret_cast<const std::uint8_t*>(&c), 1});
  EXPECT_EQ(ctx.finish(), Sha256::digest(util::as_bytes(msg)));
}

TEST(Sha256, ExactBlockBoundary) {
  // 64-byte message exercises the padding-into-new-block path.
  const std::string msg(64, 'x');
  const std::string msg63(63, 'x');
  const std::string msg65(65, 'x');
  EXPECT_NE(Sha256::digest(util::as_bytes(msg)), Sha256::digest(util::as_bytes(msg63)));
  EXPECT_NE(Sha256::digest(util::as_bytes(msg)), Sha256::digest(util::as_bytes(msg65)));
  // Incremental split across the boundary agrees with one-shot.
  Sha256 ctx;
  ctx.update(util::as_bytes(std::string(40, 'x')));
  ctx.update(util::as_bytes(std::string(24, 'x')));
  EXPECT_EQ(ctx.finish(), Sha256::digest(util::as_bytes(msg)));
}

TEST(Sha256, DoubleDigestIsHashOfHash) {
  const auto msg = util::as_bytes("smartcrowd");
  const Hash256 once = Sha256::digest(msg);
  EXPECT_EQ(Sha256::double_digest(msg), Sha256::digest(once.span()));
}

TEST(Sha256, ResetAllowsReuse) {
  Sha256 ctx;
  ctx.update(util::as_bytes("garbage"));
  (void)ctx.finish();
  ctx.reset();
  ctx.update(util::as_bytes("abc"));
  EXPECT_EQ(ctx.finish().hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// NIST-style length sweep: hashing i bytes of 0xBD must be internally
// consistent between incremental and one-shot paths for every length that
// straddles the block boundary.
class Sha256LengthSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha256LengthSweep, IncrementalEqualsOneShot) {
  const std::size_t n = GetParam();
  util::Bytes msg(n, 0xBD);
  Sha256 ctx;
  // Feed in uneven chunks of 7.
  for (std::size_t i = 0; i < n; i += 7)
    ctx.update({msg.data() + i, std::min<std::size_t>(7, n - i)});
  EXPECT_EQ(ctx.finish(), Sha256::digest(msg)) << "length " << n;
}

INSTANTIATE_TEST_SUITE_P(Boundaries, Sha256LengthSweep,
                         ::testing::Values(0, 1, 55, 56, 57, 63, 64, 65, 119, 120, 127,
                                           128, 129, 1000));

TEST(Sha256, MidstateMatchesOneShotAtEveryBlockBoundary) {
  // Split a message at every 64-byte boundary, snapshot the midstate, resume
  // in a fresh context, and require bit-identical digests.
  util::Bytes msg(517);
  for (std::size_t i = 0; i < msg.size(); ++i)
    msg[i] = static_cast<std::uint8_t>(i * 131 + 7);
  for (std::size_t split = 0; split <= msg.size(); split += 64) {
    Sha256 front;
    front.update({msg.data(), split});
    ASSERT_EQ(front.buffered_bytes(), 0u);
    const Sha256State mid = front.midstate();
    EXPECT_EQ(mid.bytes_compressed, split);

    Sha256 back;
    back.restore(mid);
    back.update({msg.data() + split, msg.size() - split});
    EXPECT_EQ(back.finish(), Sha256::digest(msg)) << "split " << split;
  }
}

TEST(Sha256, MidstateReusableAcrossManyTails) {
  // One prefix compression amortized over many differing tails — the PoW
  // mining pattern. Each restored context must agree with the one-shot hash.
  util::Bytes msg(96, 0x5c);
  Sha256 front;
  front.update({msg.data(), 64});
  const Sha256State mid = front.midstate();
  for (int tail = 0; tail < 16; ++tail) {
    msg[80] = static_cast<std::uint8_t>(tail);
    Sha256 ctx;
    ctx.restore(mid);
    ctx.update({msg.data() + 64, 32});
    EXPECT_EQ(ctx.finish(), Sha256::digest(msg)) << "tail " << tail;
  }
}

TEST(Sha256, InitialStateIsTheIv) {
  Sha256 ctx;
  const Sha256State iv = Sha256::initial_state();
  ctx.restore(iv);
  ctx.update(util::as_bytes("abc"));
  EXPECT_EQ(ctx.finish().hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TransformMatchesDigestOfOneBlock) {
  // transform() is the raw compression function: IV + one padded block must
  // reproduce the empty-suffix digest of a 64-byte message.
  std::uint8_t block[64];
  for (int i = 0; i < 64; ++i) block[i] = static_cast<std::uint8_t>(i);
  Sha256State s = Sha256::initial_state();
  Sha256::transform(s.h, block);
  Sha256 ctx;
  ctx.restore(Sha256State{{s.h[0], s.h[1], s.h[2], s.h[3], s.h[4], s.h[5], s.h[6], s.h[7]},
                          64});
  EXPECT_EQ(ctx.finish(), Sha256::digest({block, 64}));
}

TEST(Sha256, HexOfHelperSanity) {
  const util::Bytes data{0xde, 0xad};
  EXPECT_EQ(hex_of(data), "dead");
}

TEST(Sha256, DispatchedTransformMatchesPortable) {
  // transform() may run on the CPU's SHA extensions; it must agree with the
  // portable compression function on random states and blocks.
  util::Rng rng(64);
  for (int i = 0; i < 2000; ++i) {
    std::uint32_t a[8];
    for (auto& word : a) word = static_cast<std::uint32_t>(rng.next_u64());
    std::uint32_t b[8];
    std::copy(a, a + 8, b);
    util::Bytes block;
    rng.fill(block, 64);
    Sha256::transform(a, block.data());
    Sha256::transform_portable(b, block.data());
    ASSERT_TRUE(std::equal(a, a + 8, b)) << "round " << i;
  }
}

}  // namespace
}  // namespace sc::crypto
