// The three workloads and what they hand to the traced run's pricing.
#pragma once

#include <memory>
#include <vector>

#include "chain/blockchain.hpp"
#include "core/platform.hpp"
#include "checks.hpp"
#include "harness.hpp"

namespace e2e {

// -- economy ------------------------------------------------------------------

/// The Fig. 6 population (5 providers at the paper's top-5 pool hash-power
/// shares, 8 detectors with 1..8 scanner threads) fed one release per mined
/// block from a provider drawn by the seed. Tying releases to blocks rather
/// than to sim time keeps the work per block, and so blocks_per_s, free of
/// the Poisson noise of how many blocks a fixed sim interval happens to hold.
inline constexpr std::uint64_t kBlocksPerRelease = 1;
inline constexpr int kReleasesPerRound = 3;
inline const std::vector<double> kHashPowers{26.30, 22.10, 14.90, 12.30, 10.10};

/// What the economy checks compare, collected from a drained Platform and
/// its canonical chain (checks_test.cpp corrupts a real one).
struct EconomyBooks {
  std::uint64_t height = 0;
  Amount genesis_total = 0;
  std::uint64_t included = 0;  ///< Transactions on the canonical chain.
  std::uint64_t not_ok = 0;    ///< ... of them with a failed receipt.
  std::string first_failure;
  Amount escrowed = 0;  ///< Platform's off-chain ledger, summed over providers.
  Amount recovered = 0;
  Amount bounties_paid = 0;
  Amount registries = 0;  ///< Released registries' on-chain balances.
  std::vector<DetectorBooks> detectors;
  std::vector<SraAudit> sras;
  std::vector<std::string> problems;  ///< Structural faults found on the way.
};

/// A long-lived Platform plus the benchmark's release stream and books.
class Economy {
 public:
  Economy(std::uint64_t seed, sc::telemetry::Telemetry* tel);

  /// kReleasesPerRound releases, each followed by kBlocksPerRelease blocks of
  /// mining, detection and reporting, with a span around every call.
  void round(SpanLog& log);
  /// Stops releasing and runs until every submitted transaction is settled
  /// (reclaim window passed, mempool empty). Returns false on a timeout.
  bool drain();
  /// Collects what the checks compare; call after drain().
  EconomyBooks books() const;
  /// Runs every economy check into `result`; also fills attempted/failed.
  void check(Result& result) const;

  sc::core::Platform& platform() { return *platform_; }
  const sc::core::Platform& platform() const { return *platform_; }
  std::uint64_t height() const { return platform_->blockchain().best_height(); }
  std::vector<std::pair<Address, Amount>> genesis_allocations() const;

 private:
  sc::telemetry::Telemetry* tel_;
  sc::util::Rng stream_;
  std::unique_ptr<sc::core::Platform> platform_;
  std::vector<sc::crypto::Hash256> releases_;
};

/// The signed transactions of an economy run in canonical-chain order, plus
/// what the run started and ended with.
struct Recording {
  std::vector<sc::chain::Transaction> txs;
  /// Transaction-carrying blocks of the recorded chain: the replay hands the
  /// cluster chunks of txs.size() / tx_blocks transactions.
  std::size_t tx_blocks = 0;
  std::vector<std::pair<Address, Amount>> genesis;
  std::vector<std::pair<Address, Amount>> detector_balances;
  std::uint64_t reveals_paid = 0;  ///< R* with ok receipts.
};
/// Runs an economy for `rounds` rounds, drains it and records it.
Recording record_economy(std::uint64_t seed, int rounds);

/// R* reveals settled with a bounty paid (ok receipts) in canonical blocks
/// (from, to] of `chain`.
std::uint64_t paid_reveals(const sc::chain::Blockchain& chain, std::uint64_t from,
                           std::uint64_t to);

// -- the workloads --------------------------------------------------------------

Result run_economy(const Options& options);
Result run_replicated(const Options& options);
Result run_import(const Options& options);

}  // namespace e2e
