#include "checks.hpp"

#include "chain/state_commitment.hpp"

namespace e2e {

namespace {
std::string amount_str(Amount a) { return std::to_string(a) + " neth"; }
}  // namespace

Amount sum_balances(const sc::chain::WorldState& state) {
  Amount total = 0;
  for (const auto& [addr, account] : state.accounts()) total += account.balance;
  return total;
}

std::string check_supply(const sc::chain::WorldState& state, Amount genesis_total,
                         std::uint64_t height, Amount block_reward) {
  const Amount expected = genesis_total + block_reward * height;
  const Amount actual = sum_balances(state);
  if (actual == expected) return {};
  return "supply " + amount_str(actual) + " != genesis + " + std::to_string(height) +
         " rewards = " + amount_str(expected);
}

std::string check_escrow(Amount escrowed, Amount recovered, Amount bounties_paid,
                         Amount registry_balances) {
  if (recovered + bounties_paid > escrowed)
    return "recovered + paid exceeds escrowed (" + amount_str(recovered + bounties_paid) +
           " > " + amount_str(escrowed) + ")";
  const Amount held = escrowed - recovered - bounties_paid;
  if (held == registry_balances) return {};
  return "escrow ledger " + amount_str(held) + " != registry balances " +
         amount_str(registry_balances);
}

std::string check_detector(const DetectorBooks& b) {
  const std::string who = "detector " + b.address.hex().substr(0, 8);
  if (b.gas_platform != b.gas_from_receipts)
    return who + ": platform gas " + amount_str(b.gas_platform) + " != receipt gas " +
           amount_str(b.gas_from_receipts);
  if (b.bounty_income + b.endowment < b.gas_from_receipts)
    return who + ": gas exceeds endowment + income";
  const Amount expected = b.endowment + b.bounty_income - b.gas_from_receipts;
  if (b.on_chain == expected) return {};
  return who + ": on-chain " + amount_str(b.on_chain) + " != endowment + bounty - gas = " +
         amount_str(expected);
}

std::string check_sra(const SraAudit& a) {
  if (a.confirmed_on_chain > a.ground_truth.size())
    return "sra " + a.label + ": " + std::to_string(a.confirmed_on_chain) +
           " confirmed > " + std::to_string(a.ground_truth.size()) + " injected";
  if (a.paid_ids.size() != a.confirmed_on_chain)
    return "sra " + a.label + ": " + std::to_string(a.paid_ids.size()) +
           " paid reveals != " + std::to_string(a.confirmed_on_chain) + " confirmed";
  std::set<std::uint64_t> seen;
  for (const std::uint64_t id : a.paid_ids) {
    if (!a.ground_truth.contains(id))
      return "sra " + a.label + ": paid vulnerability " + std::to_string(id) +
             " is not in the ground truth";
    if (!seen.insert(id).second)
      return "sra " + a.label + ": vulnerability " + std::to_string(id) + " paid twice";
  }
  return {};
}

std::string check_balances(const std::vector<std::pair<Address, Amount>>& expected,
                           const sc::chain::WorldState& state, const std::string& what) {
  for (const auto& [addr, amount] : expected) {
    const Amount actual = state.balance(addr);
    if (actual != amount)
      return what + " " + addr.hex().substr(0, 8) + ": " + amount_str(actual) +
             " != expected " + amount_str(amount);
  }
  return {};
}

std::string check_same_bytes(const sc::util::Bytes& a, const sc::util::Bytes& b,
                             const std::string& what) {
  if (a == b) return {};
  return what + " differ (" + std::to_string(a.size()) + " vs " +
         std::to_string(b.size()) + " bytes)";
}

std::string check_state_root(const sc::chain::WorldState& state,
                             const sc::crypto::Hash256& header_root) {
  const sc::crypto::Hash256 full = sc::chain::StateCommitment::root_of(state);
  if (full == header_root) return {};
  return "full-rehash root " + full.hex().substr(0, 16) + " != header root " +
         header_root.hex().substr(0, 16);
}

}  // namespace e2e
