// The SmartCrowd platform simulation: providers, detectors, consensus and the
// full two-phase detection economy on a discrete-event clock.
//
// This is the executable version of the paper's testbed (Section VII):
//  - N provider nodes mine blocks in a PoW race calibrated to the 15 s geth
//    block time, with hashing-power shares matching the top-5 Ethereum pools;
//  - M lightweight detectors receive SRAs, scan the released image with a
//    thread-scaled engine, and run the two-phase R†/R* submission protocol;
//  - all protocol messages pass the Algorithm-1 mempool gate (signatures,
//    identifiers, H_R* binding, AutoVerif) before a provider will record
//    them, and bounties flow through the on-chain registry contract.
//
// Consensus simplification: honest providers share one Blockchain instance
// (they would converge to the same canonical chain anyway); adversarial fork
// races are modelled explicitly in core/attacks.*. Mining uses the
// exponential-race model of sim::MiningRace, and simulation blocks carry
// difficulty 1 with the production rate governed by the event model — see
// DESIGN.md §1.
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chain/blockchain.hpp"
#include "core/incentives.hpp"
#include "core/reputation.hpp"
#include "chain/mempool.hpp"
#include "contracts/smartcrowd_contract.hpp"
#include "core/messages.hpp"
#include "detect/corpus.hpp"
#include "detect/scanner.hpp"
#include "sim/mining.hpp"
#include "sim/simulator.hpp"

namespace sc::core {

struct ProviderConfig {
  double hash_power = 1.0;                    ///< Relative mining weight ζ.
  Amount endowment = 100'000 * chain::kEther; ///< Genesis balance.
};

struct DetectorConfig {
  unsigned threads = 1;                       ///< Capability knob (Fig. 6: 1-8).
  Amount endowment = 1'000 * chain::kEther;
};

struct PlatformConfig {
  std::vector<ProviderConfig> providers;
  std::vector<DetectorConfig> detectors;
  std::uint64_t seed = 1;
  double mean_block_time = chain::kTargetBlockTime;
  std::size_t max_block_txs = 256;
  std::uint64_t confirmation_depth = chain::kConfirmationDepth;
  /// Network propagation delay before a detector sees an SRA.
  double sra_propagation_delay = 0.2;
  /// Mean per-finding analysis/reporting delay (same distribution for every
  /// detector; capability scales what is found, not reporting speed).
  double base_scan_time = 25.0;
  unsigned max_threads = 8;
  /// Mean vulnerabilities injected into a vulnerable release.
  double mean_vulns = 4.0;
  /// Delay after release before the provider attempts to reclaim insurance.
  double reclaim_delay = 400.0;
  bool strict_autoverif = true;
  /// Detector-isolation policy (Section V-C's compromised-detector filter).
  ReputationConfig reputation;
  /// Metrics/trace sink for the whole platform stack (chain, mempool, VM);
  /// nullptr → telemetry::global(). Inject a local instance for isolated,
  /// deterministic readings (see tools/sc_metrics_dump).
  telemetry::Telemetry* telemetry = nullptr;
  /// Mempool capacity bound (0 = unbounded): when full, lowest-gas-price
  /// eviction applies.
  std::size_t mempool_capacity = 0;
};

/// Cumulative per-provider accounting (the quantities of Figs. 4-5).
struct ProviderStats {
  std::uint64_t blocks_mined = 0;
  Amount mining_rewards = 0;       ///< χ·ν issuance.
  Amount fee_income = 0;           ///< ψ·ω transaction fees.
  Amount deploy_gas = 0;           ///< cp deploy costs (+ reclaim gas).
  Amount insurance_escrowed = 0;
  Amount insurance_recovered = 0;
  Amount bounties_paid = 0;        ///< μ payouts taken from this provider's escrows.
  std::uint64_t sras_released = 0;
  std::uint64_t sras_vulnerable = 0;  ///< Releases with >=1 confirmed vuln.

  Amount incentives() const { return mining_rewards + fee_income; }
  Amount punishments() const {
    return deploy_gas + (insurance_escrowed - insurance_recovered);
  }
  double net_ether() const {
    return chain::to_ether(incentives()) - chain::to_ether(punishments());
  }
};

/// Cumulative per-detector accounting (Fig. 6).
struct DetectorStats {
  std::uint64_t vulns_found = 0;       ///< Ground-truth hits while scanning.
  std::uint64_t reports_committed = 0; ///< R† accepted on chain.
  std::uint64_t reports_confirmed = 0; ///< R* accepted → bounty received.
  std::uint64_t reports_lost_race = 0; ///< Reveal rejected: vuln already claimed.
  Amount bounty_income = 0;
  Amount gas_spent = 0;

  double net_ether() const {
    return chain::to_ether(bounty_income) - chain::to_ether(gas_spent);
  }
};

class Platform {
 public:
  explicit Platform(PlatformConfig config);
  /// Detaches the telemetry tracer's virtual clock (it reads this platform's
  /// simulator, which dies with the platform).
  ~Platform();

  /// Releases a new IoT system through provider `p` at the current sim time.
  /// The system is vulnerable with probability `vp`; insurance and bounty are
  /// escrowed/preset in the deployed registry contract. Returns the Δ_id.
  Hash256 release_system(std::size_t provider, double vp, Amount insurance,
                         Amount bounty);
  /// Severity-tiered variant: high/medium/low findings pay different μ.
  Hash256 release_system_tiered(std::size_t provider, double vp, Amount insurance,
                                const contracts::BountySchedule& bounty);

  /// Adversarial hook for tests/ablations: detector `d` runs the two-phase
  /// protocol for a FABRICATED vulnerability claim. The commitment passes
  /// (commitments are opaque), but the reveal fails AutoVerif, earning the
  /// detector a reputation strike — and eventually isolation.
  void submit_forged_report(std::size_t detector, const Hash256& sra_id,
                            std::uint64_t fake_vuln_id);

  /// Advances the simulation clock (mining, detection, submissions all fire).
  void run_for(double seconds);

  // -- Accessors -------------------------------------------------------------
  sim::Simulator& simulator() { return sim_; }
  const chain::Blockchain& blockchain() const { return *chain_; }
  const PlatformConfig& config() const { return config_; }
  const detect::Corpus& corpus() const { return corpus_; }

  Address provider_address(std::size_t i) const;
  Address detector_address(std::size_t i) const;
  const ProviderStats& provider_stats(std::size_t i) const { return provider_stats_[i]; }
  const DetectorStats& detector_stats(std::size_t i) const { return detector_stats_[i]; }

  /// On-chain balance of a stakeholder (canonical head state).
  Amount balance_of(const Address& addr) const {
    return chain_->best_state().balance(addr);
  }

  /// Inter-arrival times of all blocks mined so far (Fig. 3b).
  const std::vector<double>& block_intervals() const { return block_intervals_; }

  /// Consumer query (Section VI-A): confirmed vulnerability count for an SRA,
  /// read from the registry contract state on the canonical chain.
  std::uint64_t confirmed_vulnerabilities(const Hash256& sra_id) const;
  /// Consumer policy: deploy only systems with no confirmed vulnerability.
  bool consumer_would_deploy(const Hash256& sra_id) const {
    return confirmed_vulnerabilities(sra_id) == 0;
  }
  /// The SRA record as stored (nullopt if unknown).
  std::optional<Sra> lookup_sra(const Hash256& sra_id) const;

  /// Average reports recorded per block so far (the ω of Eq. 8).
  double average_reports_per_block() const;

  /// Measured economic parameters for cross-checking the closed forms.
  IncentiveParams measured_params() const;

  /// Provider-side reputation ledger (shared consensus view, like the chain).
  const ReputationLedger& reputation() const { return reputation_; }

 private:
  struct PendingReveal {
    std::size_t detector;
    Hash256 sra_id;
    DetailedReport detailed;
    Hash256 initial_tx_id;
    double submitted_at = 0.0;  ///< Sim time the R† entered the mempool.
    bool revealed = false;
  };
  struct SraRuntime {
    Sra sra;
    std::size_t provider;
    std::size_t corpus_index;     ///< Index into corpus_.systems().
    std::set<std::uint64_t> claimed_vulns;  ///< First-reporter-wins registry.
    std::vector<Hash256> reveal_txs;  ///< R* admitted, possibly not yet mined.
    bool closing = false;  ///< Reclaim submitted or landed: no more reports.
  };

  void schedule_next_block();
  void mine_block(std::size_t winner);
  void activate_recorded_sras();
  void process_receipts(const chain::Block& block);
  void flush_ready_reveals();
  bool admission_gate(const chain::Transaction& tx, std::string& why);
  void start_detection(std::size_t detector, const Hash256& sra_id);
  void attempt_reclaim(std::size_t provider, const Hash256& sra_id);
  bool reports_in_flight(const Hash256& sra_id, SraRuntime& runtime);
  std::uint64_t take_nonce(const Address& addr);

  PlatformConfig config_;
  sim::Simulator sim_;
  detect::Corpus corpus_;
  std::vector<crypto::KeyPair> provider_keys_;
  std::vector<crypto::KeyPair> detector_keys_;
  std::vector<detect::Scanner> detector_engines_;
  std::unique_ptr<chain::Blockchain> chain_;
  chain::Mempool mempool_;
  sim::MiningRace race_;

  /// Hash for the (Δ_id, detector) composite key below. These indices are
  /// lookup-only (never iterated), so hashed containers are safe — and they
  /// sit on the per-receipt hot path.
  struct SraDetectorHash {
    std::size_t operator()(const std::pair<Hash256, Address>& key) const {
      const std::size_t a = std::hash<Hash256>{}(key.first);
      const std::size_t b = std::hash<Address>{}(key.second);
      return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
    }
  };

  std::unordered_map<Address, std::uint64_t> next_nonce_;
  std::unordered_map<Hash256, SraRuntime> sras_;              ///< by Δ_id
  std::unordered_map<Hash256, InitialReport> initials_by_id_; ///< R† id → R†
  std::unordered_map<std::pair<Hash256, Address>, std::vector<Hash256>,
                     SraDetectorHash>
      initials_by_sra_detector_;
  std::vector<PendingReveal> pending_reveals_;
  std::vector<Hash256> pending_activations_;  ///< SRAs not yet on chain.
  std::unordered_map<Hash256, std::pair<std::size_t, Hash256>>
      pending_reclaims_;  ///< tx→(provider, sra)

  ReputationLedger reputation_;
  std::vector<ProviderStats> provider_stats_;
  std::vector<DetectorStats> detector_stats_;
  std::unordered_map<Address, std::size_t> provider_index_;
  std::unordered_map<Address, std::size_t> detector_index_;
  std::vector<double> block_intervals_;
  double last_block_time_ = 0.0;
  std::uint64_t total_reports_recorded_ = 0;
};

}  // namespace sc::core
