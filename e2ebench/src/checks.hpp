// The benchmark's correctness checks, as pure functions over the outputs a
// workload collects. Each returns an empty string when the property holds
// and a description of the violation otherwise. They compare against
// properties and independent computations only — never against a stored
// copy of an earlier run's output. checks_test.cpp feeds each one a
// deliberately corrupted input.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "chain/state.hpp"
#include "chain/types.hpp"
#include "util/bytes.hpp"

namespace e2e {

using sc::chain::Address;
using sc::chain::Amount;

/// Sum of every account balance the benchmark reads from `accounts()`.
Amount sum_balances(const sc::chain::WorldState& state);

/// Supply conservation: balances sum to the genesis allocations plus one
/// block reward per canonical block.
std::string check_supply(const sc::chain::WorldState& state, Amount genesis_total,
                         std::uint64_t height, Amount block_reward);

/// Escrow conservation: what providers escrowed, minus what they recovered
/// and what was paid out as bounties (the platform's off-chain ledger),
/// equals the registries' on-chain balances.
std::string check_escrow(Amount escrowed, Amount recovered, Amount bounties_paid,
                         Amount registry_balances);

/// One detector's books: the on-chain balance equals the endowment plus
/// bounty income minus gas, and the platform's gas figure equals the gas the
/// benchmark summed from the detector's receipts.
struct DetectorBooks {
  Address address;
  Amount endowment = 0;
  Amount bounty_income = 0;
  Amount gas_platform = 0;
  Amount gas_from_receipts = 0;
  Amount on_chain = 0;
};
std::string check_detector(const DetectorBooks& books);

/// One released SRA against the corpus ground truth.
struct SraAudit {
  std::string label;
  std::uint64_t confirmed_on_chain = 0;   ///< Registry's vulnerability count.
  std::set<std::uint64_t> ground_truth;   ///< Ids the corpus injected.
  std::vector<std::uint64_t> paid_ids;    ///< Ids of reveals that were paid.
};
std::string check_sra(const SraAudit& audit);

/// Each expected (address, balance) pair holds in `state`.
std::string check_balances(const std::vector<std::pair<Address, Amount>>& expected,
                           const sc::chain::WorldState& state, const std::string& what);

/// Two encodings of a state (or anything else) are byte-identical.
std::string check_same_bytes(const sc::util::Bytes& a, const sc::util::Bytes& b,
                             const std::string& what);

/// The full-rehash commitment of `state` equals the header's state root.
std::string check_state_root(const sc::chain::WorldState& state,
                             const sc::crypto::Hash256& header_root);

}  // namespace e2e
