// Tests of the benchmark's own correctness checks: each check passes on the
// outputs of a small real chain (or a small real economy, collected by the
// code the economy workload uses) and fails on a deliberately corrupted copy.
// Run with `python3 e2ebench/run.py --self-test` (or e2e_checks_test WORK_DIR);
// exits non-zero on failure.
#include <cstdio>
#include <string>

#include "chain/blockchain.hpp"
#include "checks.hpp"
#include "crypto/keys.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what, const std::string& why = {}) {
  const std::string detail = ok || why.empty() ? "" : ": " + why;
  std::printf("%s  %s%s\n", ok ? "ok  " : "FAIL", what.c_str(), detail.c_str());
  if (!ok) ++g_failures;
}
void expect_pass(const std::string& why, const std::string& what) {
  expect(why.empty(), what, why);
}
void expect_fail(const std::string& why, const std::string& what) {
  expect(!why.empty(), what + " is caught");
}

using sc::chain::Amount;
using sc::chain::kBlockReward;
using sc::chain::kEther;

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: e2e_checks_test WORK_DIR\n");
    return 2;
  }
  namespace chain = sc::chain;
  sc::util::Rng rng(7);
  const auto alice = sc::crypto::KeyPair::generate(rng);
  const auto bob = sc::crypto::KeyPair::generate(rng);
  const auto miner = sc::crypto::KeyPair::generate(rng);
  chain::GenesisConfig genesis;
  genesis.allocations = {{alice.address(), 1'000 * kEther}, {bob.address(), 500 * kEther}};
  const Amount genesis_total = 1'500 * kEther;

  // A small real chain: three blocks of transfers, persisted and reopened.
  sc::telemetry::Telemetry tel;
  e2e::TempDir dir(argv[1], "checks-test-store");
  sc::util::Bytes tip_state;
  sc::crypto::Hash256 head_root;
  Amount alice_fees = 0;
  Amount sent = 0;
  {
    chain::Blockchain bc(genesis, &tel);
    std::string why;
    expect(bc.open(dir.str(), {}, &why), "store opens", why);
    for (std::uint64_t h = 1; h <= 3; ++h) {
      chain::Transaction tx;
      tx.nonce = h - 1;
      tx.to = bob.address();
      tx.value = h * kEther;
      tx.gas_limit = 30'000;
      tx.sign_with(alice);
      sent += tx.value;
      const chain::Block block = bc.build_block_template(miner.address(), 15 * h, 1, {tx});
      expect(bc.submit_block(block, &why, true), "block connects", why);
      alice_fees += bc.receipts(block.id())->front().fee_paid;
    }
    const chain::WorldState& state = bc.best_state();

    // Supply: passes, and one block reward too many is caught.
    expect_pass(e2e::check_supply(state, genesis_total, bc.best_height(), kBlockReward),
                "supply of the real chain");
    chain::WorldState inflated = state;
    inflated.add_balance(bob.address(), kBlockReward);
    expect_fail(e2e::check_supply(inflated, genesis_total, bc.best_height(), kBlockReward),
                "supply off by one block reward");

    // Ledger: the benchmark's own books of a transfer account.
    const Amount alice_expected = 1'000 * kEther - sent - alice_fees;
    expect_pass(e2e::check_balances({{alice.address(), alice_expected}}, state, "account"),
                "ledger of the real chain");
    expect_fail(e2e::check_balances({{alice.address(), alice_expected - 1}}, state, "account"),
                "account balance off by 1 neth");

    // Full-rehash root against the committed header root.
    head_root = bc.block(bc.best_head())->header.state_root;
    expect_pass(e2e::check_state_root(state, head_root), "full-rehash root of the real chain");
    chain::WorldState bumped = state;
    bumped.set_balance(alice.address(), state.balance(alice.address()) + 1);
    expect_fail(e2e::check_state_root(bumped, head_root), "state one neth away from the root");

    tip_state = state.encode();
  }

  // Reopen: byte-identical tip state, and one changed byte is caught.
  {
    chain::Blockchain reopened(genesis, &tel);
    std::string why;
    expect(reopened.open(dir.str(), {}, &why), "store reopens", why);
    sc::util::Bytes bytes = reopened.best_state().encode();
    expect_pass(e2e::check_same_bytes(bytes, tip_state, "tip state"), "reopened tip state");
    bytes[bytes.size() / 2] ^= 0x01;
    expect_fail(e2e::check_same_bytes(bytes, tip_state, "tip state"),
                "one byte changed in the reopened state");
  }

  // Economy books from a small real Platform run: the collector's receipt
  // walk, address lookups and ledger sums must pass the checks, and each
  // corrupted copy of its output must be caught.
  {
    sc::telemetry::Telemetry economy_tel;
    e2e::Economy economy(7, &economy_tel);
    e2e::SpanLog log;
    for (int r = 0; r < 4; ++r) economy.round(log);
    expect(economy.drain(), "small economy drains");
    const e2e::EconomyBooks books = economy.books();
    for (const std::string& problem : books.problems) expect(false, "economy books", problem);
    expect_pass(e2e::check_supply(economy.platform().blockchain().best_state(),
                                  books.genesis_total, books.height, kBlockReward),
                "supply of the economy chain");

    expect_pass(e2e::check_escrow(books.escrowed, books.recovered, books.bounties_paid,
                                  books.registries),
                "escrow of the economy");
    expect_fail(e2e::check_escrow(books.escrowed, books.recovered, books.bounties_paid,
                                  books.registries - 1),
                "registry balances off by 1 neth");

    const e2e::DetectorBooks* earner = nullptr;
    for (const e2e::DetectorBooks& detector : books.detectors) {
      expect_pass(e2e::check_detector(detector),
                  "books of detector " + detector.address.hex().substr(0, 8));
      if (!earner && detector.bounty_income > 0) earner = &detector;
    }
    expect(earner != nullptr, "the small economy paid a bounty");
    if (earner) {
      e2e::DetectorBooks off = *earner;
      off.on_chain -= 1;
      expect_fail(e2e::check_detector(off), "detector balance off by 1 neth");
      off = *earner;
      off.on_chain += 1;
      expect_fail(e2e::check_detector(off), "detector balance 1 neth too high");
      off = *earner;
      off.gas_from_receipts += 1;
      expect_fail(e2e::check_detector(off), "receipt gas differs from platform gas");
    }

    const e2e::SraAudit* confirmed = nullptr;
    for (const e2e::SraAudit& audit : books.sras) {
      expect_pass(e2e::check_sra(audit), "audit of sra " + audit.label);
      if (!confirmed && !audit.paid_ids.empty()) confirmed = &audit;
    }
    expect(confirmed != nullptr, "the small economy confirmed a vulnerability");
    if (confirmed) {
      e2e::SraAudit ghost = *confirmed;
      ghost.paid_ids.back() = *ghost.ground_truth.rbegin() + 1;
      expect_fail(e2e::check_sra(ghost), "a paid vulnerability outside the ground truth");
      e2e::SraAudit twice = *confirmed;
      twice.paid_ids.push_back(twice.paid_ids.front());
      ++twice.confirmed_on_chain;
      expect_fail(e2e::check_sra(twice), "one vulnerability paid twice");
      e2e::SraAudit over = *confirmed;
      over.confirmed_on_chain = over.ground_truth.size() + 1;
      expect_fail(e2e::check_sra(over), "more confirmed than injected");
    }
  }

  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
