// Counting wrappers for the ECDSA entry points of sc_crypto, for
// chain::Transaction::verify_signature and for fsync.
//
// CMakeLists.txt links every benchmark binary with
// -Wl,--wrap=<mangled name>, so each call from another translation unit
// lands here first and is forwarded unchanged to the real function:
// secp256k1::verify from crypto::verify_signature and batch_verify (every
// ECDSA verify), KeyPair::sign from Transaction::sign_with and the payload
// finalizers, Transaction::verify_signature from the signature cache, fsync
// from the store's record log and snapshot writer (timed as well: it is the
// store's blocking wait, and no registry metric times it). Each counter is
// one relaxed atomic increment next to an elliptic-curve scalar
// multiplication; they run in every mode so traced and untraced runs execute
// the same code.
#include <unistd.h>

#include <atomic>

#include "chain/transaction.hpp"
#include "crypto/keys.hpp"
#include "harness.hpp"

namespace {
std::atomic<std::uint64_t> g_verifies{0};
std::atomic<std::uint64_t> g_signs{0};
std::atomic<std::uint64_t> g_tx_verifies{0};
std::atomic<std::uint64_t> g_fsyncs{0};
std::atomic<std::uint64_t> g_fsync_ns{0};
}  // namespace

using sc::crypto::Hash256;
using sc::crypto::KeyPair;
namespace secp = sc::crypto::secp256k1;

extern "C" {
// sc::crypto::secp256k1::verify(AffinePoint const&, Digest<32> const&, Signature const&)
bool __real__ZN2sc6crypto9secp256k16verifyERKNS1_11AffinePointERKNS0_6DigestILm32EEERKNS1_9SignatureE(
    const secp::AffinePoint&, const Hash256&, const secp::Signature&);
bool __wrap__ZN2sc6crypto9secp256k16verifyERKNS1_11AffinePointERKNS0_6DigestILm32EEERKNS1_9SignatureE(
    const secp::AffinePoint& pub, const Hash256& digest, const secp::Signature& sig) {
  g_verifies.fetch_add(1, std::memory_order_relaxed);
  return __real__ZN2sc6crypto9secp256k16verifyERKNS1_11AffinePointERKNS0_6DigestILm32EEERKNS1_9SignatureE(
      pub, digest, sig);
}

// sc::crypto::KeyPair::sign(Digest<32> const&) const — `this` is the first
// argument of the member function's calling convention.
secp::Signature __real__ZNK2sc6crypto7KeyPair4signERKNS0_6DigestILm32EEE(const KeyPair*,
                                                                      const Hash256&);
secp::Signature __wrap__ZNK2sc6crypto7KeyPair4signERKNS0_6DigestILm32EEE(
    const KeyPair* self, const Hash256& digest) {
  g_signs.fetch_add(1, std::memory_order_relaxed);
  return __real__ZNK2sc6crypto7KeyPair4signERKNS0_6DigestILm32EEE(self, digest);
}

// sc::chain::Transaction::verify_signature() const
bool __real__ZNK2sc5chain11Transaction16verify_signatureEv(const sc::chain::Transaction*);
bool __wrap__ZNK2sc5chain11Transaction16verify_signatureEv(const sc::chain::Transaction* self) {
  g_tx_verifies.fetch_add(1, std::memory_order_relaxed);
  return __real__ZNK2sc5chain11Transaction16verify_signatureEv(self);
}

int __real_fsync(int fd);
int __wrap_fsync(int fd) {
  const auto t0 = e2e::Clock::now();
  const int rc = __real_fsync(fd);
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(e2e::Clock::now() - t0);
  g_fsyncs.fetch_add(1, std::memory_order_relaxed);
  g_fsync_ns.fetch_add(static_cast<std::uint64_t>(ns.count()), std::memory_order_relaxed);
  return rc;
}
}

namespace e2e {

CallCounts call_counts() {
  return {g_verifies.load(std::memory_order_relaxed), g_signs.load(std::memory_order_relaxed),
          g_tx_verifies.load(std::memory_order_relaxed), g_fsyncs.load(std::memory_order_relaxed),
          static_cast<double>(g_fsync_ns.load(std::memory_order_relaxed)) * 1e-9};
}

}  // namespace e2e
