#include "core/platform.hpp"

#include <algorithm>
#include <cassert>

#include "crypto/sha256.hpp"
#include "detect/autoverif.hpp"
#include "telemetry/telemetry.hpp"

namespace sc::core {

namespace {

std::vector<double> hash_powers_of(const PlatformConfig& config) {
  std::vector<double> hp;
  hp.reserve(config.providers.size());
  for (const auto& p : config.providers) hp.push_back(p.hash_power);
  return hp;
}

}  // namespace

Platform::Platform(PlatformConfig config)
    : config_(std::move(config)),
      sim_(config_.seed),
      corpus_(config_.seed ^ 0x5eedc0de),
      race_(hash_powers_of(config_), config_.mean_block_time),
      reputation_(config_.reputation) {
  assert(!config_.providers.empty());
  for (std::size_t i = 0; i < config_.providers.size(); ++i)
    provider_keys_.push_back(crypto::KeyPair::generate(sim_.rng()));
  for (std::size_t i = 0; i < config_.detectors.size(); ++i)
    detector_keys_.push_back(crypto::KeyPair::generate(sim_.rng()));
  chain::GenesisConfig genesis;
  for (std::size_t i = 0; i < provider_keys_.size(); ++i)
    genesis.allocations.push_back(
        {provider_keys_[i].address(), config_.providers[i].endowment});
  for (std::size_t i = 0; i < detector_keys_.size(); ++i)
    genesis.allocations.push_back(
        {detector_keys_[i].address(), config_.detectors[i].endowment});
  chain_ = std::make_unique<chain::Blockchain>(genesis, config_.telemetry);
  mempool_.set_telemetry(config_.telemetry);
  mempool_.set_capacity(config_.mempool_capacity);
  // Admission verifies each signature once and caches it; the miner's
  // template and the block connect that follow hit the cache.
  mempool_.set_sig_cache(&chain_->sig_cache());
  // Trace events carry this platform's virtual time until ~Platform detaches
  // the clock (before sim_ is destroyed).
  telemetry::resolve(config_.telemetry)
      .tracer.set_virtual_clock([this] { return sim_.now(); });
  provider_stats_.resize(config_.providers.size());
  detector_stats_.resize(config_.detectors.size());
  for (std::size_t i = 0; i < provider_keys_.size(); ++i)
    provider_index_[provider_keys_[i].address()] = i;
  for (std::size_t i = 0; i < detector_keys_.size(); ++i) {
    detector_index_[detector_keys_[i].address()] = i;
    detector_engines_.emplace_back(detect::thread_scaled_profile(
        config_.detectors[i].threads, config_.max_threads));
  }
  mempool_.set_gate(
      [this](const chain::Transaction& tx, std::string& why) {
        return admission_gate(tx, why);
      });
  schedule_next_block();
}

Platform::~Platform() {
  telemetry::resolve(config_.telemetry).tracer.set_virtual_clock({});
}

Address Platform::provider_address(std::size_t i) const {
  return provider_keys_[i].address();
}

Address Platform::detector_address(std::size_t i) const {
  return detector_keys_[i].address();
}

std::uint64_t Platform::take_nonce(const Address& addr) {
  auto [it, inserted] = next_nonce_.try_emplace(addr, chain_->best_state().nonce(addr));
  return it->second++;
}

Hash256 Platform::release_system(std::size_t provider, double vp, Amount insurance,
                                 Amount bounty) {
  return release_system_tiered(provider, vp, insurance,
                               contracts::BountySchedule::uniform(bounty));
}

Hash256 Platform::release_system_tiered(std::size_t provider, double vp,
                                        Amount insurance,
                                        const contracts::BountySchedule& bounty) {
  const crypto::KeyPair& key = provider_keys_[provider];
  const std::string version = "v" + std::to_string(provider_stats_[provider].sras_released + 1);
  const std::string name = "iot-system-p" + std::to_string(provider);
  const detect::IoTSystem system =
      corpus_.make_release(name, version, vp, config_.mean_vulns);
  const std::size_t corpus_index = corpus_.systems().size() - 1;

  // Deploy the registry contract with the insurance escrowed.
  const std::uint64_t nonce = take_nonce(key.address());
  const Address contract = chain::contract_address(key.address(), nonce);

  Sra sra;
  sra.name = system.name;
  sra.version = system.version;
  sra.system_hash = system.image_hash;
  sra.download_link = "sim://corpus/" + system.image_hash.hex().substr(0, 16);
  sra.insurance = insurance;
  sra.bounty = bounty.high;
  sra.bounty_medium = bounty.medium;
  sra.bounty_low = bounty.low;
  sra.contract = contract;
  sra.finalize(key);

  chain::Transaction tx = contracts::make_deploy_tx(
      nonce, insurance, bounty, system.image_hash,
      contracts::pack_metadata(sra.name, sra.version, sra.download_link));
  tx.protocol = chain::ProtocolKind::kSra;
  tx.protocol_payload = sra.serialize();
  tx.sign_with(key);

  std::string why;
  const bool accepted = mempool_.add(tx, &why);
  assert(accepted && "honest SRA must pass the admission gate");
  (void)accepted;

  ProviderStats& stats = provider_stats_[provider];
  ++stats.sras_released;
  stats.insurance_escrowed += insurance;
  telemetry::resolve(config_.telemetry)
      .registry.counter("platform_sras_released_total", "System release announcements")
      .inc();

  sras_.emplace(sra.id, SraRuntime{sra, provider, corpus_index, {}});

  // Detection starts only once the SRA is recorded on chain ("an SRA is
  // available until it has been verified and recorded in the blockchain",
  // Section V-A) — submitting reports against a not-yet-deployed registry
  // contract would silently register nothing.
  pending_activations_.push_back(sra.id);

  // The provider tries to reclaim the escrow after the detection window.
  sim_.after(config_.reclaim_delay,
             [this, provider, id = sra.id] { attempt_reclaim(provider, id); });
  return sra.id;
}

void Platform::start_detection(std::size_t detector, const Hash256& sra_id) {
  const auto it = sras_.find(sra_id);
  if (it == sras_.end()) return;
  const SraRuntime& runtime = it->second;
  const detect::IoTSystem& system = corpus_.systems()[runtime.corpus_index];

  // Simulated download-and-verify: a tampered image (U_h mismatch) would be
  // dropped here; corpus systems always match by construction.
  if (crypto::Sha256::digest(system.image) != runtime.sra.system_hash) return;

  const std::vector<detect::Finding> findings =
      detector_engines_[detector].scan(system, sim_.rng());
  detector_stats_[detector].vulns_found += findings.size();
  if (findings.empty()) return;

  // One (R†, R*) pair per finding, each analysed concurrently with an iid
  // delay — capability (threads) determines how MANY vulnerabilities a
  // detector uncovers, not how fast it confirms one. First-reporter races
  // are therefore fair among the finders of a vulnerability, so a detector's
  // recorded share ρ_i tracks its capability share, producing the paper's
  // ≈7.8x incentive ratio between the 8- and 1-thread detectors (Fig. 6a).
  for (const detect::Finding& finding : findings) {
    const double when = sim_.rng().exponential(config_.base_scan_time);
    sim_.after(when, [this, detector, sra_id, finding] {
      const auto sra_it = sras_.find(sra_id);
      if (sra_it == sras_.end()) return;
      const crypto::KeyPair& key = detector_keys_[detector];

      DetailedReport detailed;
      detailed.sra_id = sra_id;
      detailed.description = {finding};
      detailed.finalize(key);

      const InitialReport initial = InitialReport::commit_to(detailed, key);

      chain::Transaction tx;
      tx.kind = chain::TxKind::kCall;
      tx.nonce = take_nonce(key.address());
      tx.to = sra_it->second.sra.contract;
      tx.gas_limit = 200'000;
      tx.data = contracts::register_initial_calldata(initial.detailed_hash);
      tx.protocol = chain::ProtocolKind::kInitialReport;
      tx.protocol_payload = initial.serialize();
      tx.sign_with(key);

      std::string why;
      if (!mempool_.add(tx, &why)) {
        --next_nonce_[key.address()];  // tx never sent; reuse the nonce
        return;
      }
      pending_reveals_.push_back(
          {detector, sra_id, detailed, tx.id(), sim_.now(), /*revealed=*/false});
    });
  }
}

void Platform::submit_forged_report(std::size_t detector, const Hash256& sra_id,
                                    std::uint64_t fake_vuln_id) {
  const auto sra_it = sras_.find(sra_id);
  if (sra_it == sras_.end()) return;
  const crypto::KeyPair& key = detector_keys_[detector];

  DetailedReport forged;
  forged.sra_id = sra_id;
  forged.description = {{fake_vuln_id, detect::Severity::kHigh,
                         "fabricated claim " + std::to_string(fake_vuln_id)}};
  forged.finalize(key);
  const InitialReport initial = InitialReport::commit_to(forged, key);

  chain::Transaction tx;
  tx.kind = chain::TxKind::kCall;
  tx.nonce = take_nonce(key.address());
  tx.to = sra_it->second.sra.contract;
  tx.gas_limit = 200'000;
  tx.data = contracts::register_initial_calldata(initial.detailed_hash);
  tx.protocol = chain::ProtocolKind::kInitialReport;
  tx.protocol_payload = initial.serialize();
  tx.sign_with(key);

  std::string why;
  if (!mempool_.add(tx, &why)) {
    --next_nonce_[key.address()];
    return;
  }
  // The reveal is queued like any honest pending report; it will be struck
  // down by AutoVerif at admission time, costing the cheater its R† gas and
  // a reputation strike.
  pending_reveals_.push_back({detector, sra_id, forged, tx.id(), sim_.now(), false});
}

void Platform::attempt_reclaim(std::size_t provider, const Hash256& sra_id) {
  const auto it = sras_.find(sra_id);
  if (it == sras_.end()) return;
  SraRuntime& runtime = it->second;
  // Skip if vulnerabilities were confirmed: the reclaim would revert on chain
  // and only burn gas (an honest provider checks the contract first).
  if (contracts::vuln_count_of(chain_->best_state(), runtime.sra.contract) > 0) {
    ++provider_stats_[provider].sras_vulnerable;
    return;
  }
  // A report still in the pipeline (an R† waiting for its k confirmations,
  // or an R* not yet mined) may yet confirm a vulnerability; reclaiming now
  // would close the registry under it and its reveal would revert. Look
  // again after the next block.
  if (reports_in_flight(sra_id, runtime)) {
    sim_.after(config_.mean_block_time,
               [this, provider, sra_id] { attempt_reclaim(provider, sra_id); });
    return;
  }
  const crypto::KeyPair& key = provider_keys_[provider];
  chain::Transaction tx;
  tx.kind = chain::TxKind::kCall;
  tx.nonce = take_nonce(key.address());
  tx.to = runtime.sra.contract;
  tx.gas_limit = 100'000;
  tx.data = contracts::reclaim_calldata();
  tx.sign_with(key);
  std::string why;
  if (!mempool_.add(tx, &why)) {
    --next_nonce_[key.address()];
    return;
  }
  runtime.closing = true;  // the gate now refuses new reports for this SRA
  pending_reclaims_[tx.id()] = {provider, sra_id};
}

bool Platform::reports_in_flight(const Hash256& sra_id, SraRuntime& runtime) {
  // A reveal leaves the mempool in the block that carries it, and that
  // block's receipts are processed before any later reclaim attempt.
  std::erase_if(runtime.reveal_txs,
                [this](const Hash256& id) { return !mempool_.contains(id); });
  if (!runtime.reveal_txs.empty()) return true;
  // An R† counts while it can still confirm: pending or on the chain.
  for (const PendingReveal& pending : pending_reveals_) {
    if (pending.revealed || pending.sra_id != sra_id) continue;
    if (mempool_.contains(pending.initial_tx_id) ||
        chain_->find_transaction(pending.initial_tx_id))
      return true;
  }
  return false;
}

void Platform::schedule_next_block() {
  const sim::MiningRace::Outcome outcome = race_.next(sim_.rng());
  sim_.after(outcome.interval, [this, winner = outcome.winner] {
    mine_block(winner);
    schedule_next_block();
  });
}

void Platform::mine_block(std::size_t winner) {
  auto& tel = telemetry::resolve(config_.telemetry);
  const auto mine_span = tel.tracer.span("platform.mine_block");
  const Address miner = provider_keys_[winner].address();
  std::vector<chain::Transaction> txs =
      mempool_.select(chain_->best_state(), config_.max_block_txs);
  chain::Block block = chain_->build_block_template(
      miner, static_cast<std::uint64_t>(sim_.now()), /*difficulty=*/1, std::move(txs));
  std::string why;
  const bool ok = chain_->submit_block(block, &why, /*skip_pow=*/true);
  assert(ok && "template blocks extend the best head and must connect");
  (void)ok;
  (void)why;
  mempool_.remove(block.transactions);

  block_intervals_.push_back(sim_.now() - last_block_time_);
  last_block_time_ = sim_.now();

  ProviderStats& stats = provider_stats_[winner];
  ++stats.blocks_mined;
  stats.mining_rewards += chain::kBlockReward;

  process_receipts(block);
  activate_recorded_sras();
  flush_ready_reveals();
}

void Platform::activate_recorded_sras() {
  std::erase_if(pending_activations_, [this](const Hash256& sra_id) {
    const auto it = sras_.find(sra_id);
    if (it == sras_.end()) return true;
    // Recorded = the registry contract's code exists on the canonical chain.
    if (chain_->best_state().code(it->second.sra.contract).empty()) return false;
    for (std::size_t d = 0; d < detector_keys_.size(); ++d) {
      const double delay =
          config_.sra_propagation_delay + sim_.rng().exponential(0.05);
      sim_.after(delay, [this, d, sra_id] { start_detection(d, sra_id); });
    }
    return true;
  });
}

void Platform::process_receipts(const chain::Block& block) {
  const std::vector<chain::Receipt>* receipts = chain_->receipts(block.id());
  if (!receipts) return;
  const auto miner_it = provider_index_.find(block.header.miner);

  for (std::size_t i = 0; i < receipts->size(); ++i) {
    const chain::Receipt& receipt = (*receipts)[i];
    const chain::Transaction& tx = block.transactions[i];
    const Address sender = tx.sender();

    if (miner_it != provider_index_.end())
      provider_stats_[miner_it->second].fee_income += receipt.fee_paid;

    if (const auto p = provider_index_.find(sender); p != provider_index_.end()) {
      if (tx.protocol == chain::ProtocolKind::kSra) {
        provider_stats_[p->second].deploy_gas += receipt.fee_paid;
      } else if (const auto rc = pending_reclaims_.find(receipt.tx_id);
                 rc != pending_reclaims_.end()) {
        provider_stats_[p->second].deploy_gas += receipt.fee_paid;
        const auto sra_it = sras_.find(rc->second.second);
        if (sra_it != sras_.end()) {
          if (receipt.ok())
            provider_stats_[p->second].insurance_recovered +=
                sra_it->second.sra.insurance;
          else
            sra_it->second.closing = false;  // registry still open
        }
        pending_reclaims_.erase(rc);
      }
    }

    if (const auto d = detector_index_.find(sender); d != detector_index_.end()) {
      DetectorStats& stats = detector_stats_[d->second];
      stats.gas_spent += receipt.fee_paid;
      if (tx.protocol == chain::ProtocolKind::kInitialReport && receipt.ok()) {
        ++stats.reports_committed;
        ++total_reports_recorded_;
        telemetry::resolve(config_.telemetry)
            .registry
            .counter("platform_reports_committed_total",
                     "Initial reports (R-dagger) recorded on chain")
            .inc();
      }
      if (tx.protocol == chain::ProtocolKind::kDetailedReport) {
        const auto detailed = DetailedReport::deserialize(tx.protocol_payload);
        const auto sra_it =
            detailed ? sras_.find(detailed->sra_id) : sras_.end();
        if (receipt.ok()) {
          ++stats.reports_confirmed;
          ++total_reports_recorded_;
          telemetry::resolve(config_.telemetry)
              .registry
              .counter("platform_reports_confirmed_total",
                       "Detailed reports (R-star) accepted and paid")
              .inc();
          reputation_.record_confirmed(sender);
          // The bounty was transferred by the contract during execution; the
          // amount depends on the finding's severity tier.
          if (sra_it != sras_.end() && !detailed->description.empty()) {
            const Amount paid = sra_it->second.sra.bounty_for_tier(
                static_cast<std::uint8_t>(detailed->description.front().severity));
            stats.bounty_income += paid;
            provider_stats_[sra_it->second.provider].bounties_paid += paid;
          }
        } else if (sra_it != sras_.end() && !sra_it->second.closing) {
          // The reveal failed on chain (e.g. escrow exhausted): release the
          // first-reporter claims so another detector can still record the
          // vulnerability. Not once the registry is closing: every later
          // reveal would revert as well.
          for (const detect::Finding& f : detailed->description)
            sra_it->second.claimed_vulns.erase(f.vuln_id);
        }
      }
    }
  }
}

void Platform::flush_ready_reveals() {
  auto lose_race = [this](std::size_t detector) {
    ++detector_stats_[detector].reports_lost_race;
    telemetry::resolve(config_.telemetry)
        .registry
        .counter("platform_reports_lost_race_total",
                 "Reveals rejected at admission (race lost or AutoVerif failure)")
        .inc();
  };
  for (PendingReveal& pending : pending_reveals_) {
    if (pending.revealed) continue;
    if (!chain_->tx_confirmed(pending.initial_tx_id, config_.confirmation_depth))
      continue;
    pending.revealed = true;
    // R† submit → k-deep confirmation latency, the gating delay of the
    // two-phase protocol (paper Section VI-B; k = confirmation_depth).
    telemetry::resolve(config_.telemetry)
        .registry
        .histogram("platform_report_confirmation_seconds",
                   "Sim-time from R-dagger submission to k-deep confirmation",
                   telemetry::HistogramSpec::latency_seconds())
        .observe(sim_.now() - pending.submitted_at);

    const auto sra_it = sras_.find(pending.sra_id);
    if (sra_it == sras_.end()) continue;
    // The race is already lost when another reveal of the same finding was
    // admitted, or the registry is closing: admission would refuse this
    // reveal, and the detector can see that before signing it.
    const SraRuntime& runtime = sra_it->second;
    if (runtime.closing ||
        std::ranges::any_of(pending.detailed.description, [&](const detect::Finding& f) {
          return runtime.claimed_vulns.contains(f.vuln_id);
        })) {
      lose_race(pending.detector);
      continue;
    }
    const crypto::KeyPair& key = detector_keys_[pending.detector];

    chain::Transaction tx;
    tx.kind = chain::TxKind::kCall;
    tx.nonce = take_nonce(key.address());
    tx.to = sra_it->second.sra.contract;
    tx.gas_limit = 200'000;
    // Platform reports carry exactly one finding; its (AutoVerif-checked)
    // severity selects the bounty tier the contract pays.
    const auto tier = static_cast<std::uint8_t>(
        pending.detailed.description.front().severity);
    tx.data =
        contracts::submit_detailed_calldata(pending.detailed.content_hash(), tier);
    tx.protocol = chain::ProtocolKind::kDetailedReport;
    tx.protocol_payload = pending.detailed.serialize();
    tx.sign_with(key);

    std::string why;
    if (mempool_.add(tx, &why)) {
      sra_it->second.reveal_txs.push_back(tx.id());
    } else {
      // Failed AutoVerif (or another admission check): no reveal.
      --next_nonce_[key.address()];
      lose_race(pending.detector);
    }
  }
  std::erase_if(pending_reveals_, [](const PendingReveal& p) { return p.revealed; });
}

bool Platform::admission_gate(const chain::Transaction& tx, std::string& why) {
  switch (tx.protocol) {
    case chain::ProtocolKind::kNone:
      return true;

    case chain::ProtocolKind::kSra: {
      const auto sra = Sra::deserialize(tx.protocol_payload);
      if (!sra) {
        why = "sra: malformed";
        return false;
      }
      const Verdict verdict = verify_sra(*sra);
      if (verdict != Verdict::kOk) {
        why = std::string("sra: ") + verdict_name(verdict);
        return false;
      }
      if (sra->provider != tx.sender()) {
        why = "sra: sender is not the announced provider";
        return false;
      }
      if (tx.kind != chain::TxKind::kDeploy || tx.value != sra->insurance) {
        why = "sra: insurance not escrowed";
        return false;
      }
      return true;
    }

    case chain::ProtocolKind::kInitialReport: {
      if (reputation_.is_isolated(tx.sender())) {
        reputation_.record_filtered(tx.sender());
        why = "r-initial: detector isolated";
        return false;
      }
      const auto initial = InitialReport::deserialize(tx.protocol_payload);
      if (!initial) {
        why = "r-initial: malformed";
        return false;
      }
      const Verdict verdict = verify_initial_report(*initial);
      if (verdict != Verdict::kOk) {
        why = std::string("r-initial: ") + verdict_name(verdict);
        return false;
      }
      if (initial->detector != tx.sender()) {
        why = "r-initial: sender mismatch";
        return false;
      }
      const auto sra_it = sras_.find(initial->sra_id);
      if (sra_it == sras_.end()) {
        why = "r-initial: unknown SRA";
        return false;
      }
      if (sra_it->second.closing) {
        why = "r-initial: registry closed";
        return false;
      }
      initials_by_id_[initial->id] = *initial;
      initials_by_sra_detector_[{initial->sra_id, initial->detector}].push_back(
          initial->id);
      return true;
    }

    case chain::ProtocolKind::kDetailedReport: {
      if (reputation_.is_isolated(tx.sender())) {
        reputation_.record_filtered(tx.sender());
        why = "r-detailed: detector isolated";
        return false;
      }
      const auto detailed = DetailedReport::deserialize(tx.protocol_payload);
      if (!detailed) {
        why = "r-detailed: malformed";
        return false;
      }
      auto sra_it = sras_.find(detailed->sra_id);
      if (sra_it == sras_.end()) {
        why = "r-detailed: unknown SRA";
        return false;
      }
      if (sra_it->second.closing) {
        why = "r-detailed: registry closed";
        return false;
      }

      // Find the matching confirmed commitment (Algorithm 1 precondition:
      // "when the block containing R† is confirmed").
      const auto ids = initials_by_sra_detector_.find(
          {detailed->sra_id, detailed->detector});
      const InitialReport* initial = nullptr;
      const Hash256 content = detailed->content_hash();
      if (ids != initials_by_sra_detector_.end()) {
        for (const Hash256& rid : ids->second) {
          const InitialReport& candidate = initials_by_id_.at(rid);
          if (candidate.detailed_hash == content) {
            initial = &candidate;
            break;
          }
        }
      }
      if (!initial) {
        why = "r-detailed: no prior commitment";
        return false;
      }

      const detect::IoTSystem& system =
          corpus_.systems()[sra_it->second.corpus_index];
      const AutoVerifFn auto_verif = [&](const DetailedReport& r) {
        return detect::auto_verify(system, r.description, config_.strict_autoverif)
            .accepted;
      };
      const Verdict verdict = verify_detailed_report(*detailed, *initial, auto_verif);
      if (verdict != Verdict::kOk) {
        // Malice signals (forged claims, tampered bindings, bad signatures)
        // strike the detector's reputation; enough strikes isolate it and
        // its future submissions are dropped unexamined (Section V-C).
        if (verdict == Verdict::kAutoVerifFailed || verdict == Verdict::kHashMismatch ||
            verdict == Verdict::kBadSignature || verdict == Verdict::kBadIdentifier) {
          reputation_.record_strike(tx.sender());
        }
        why = std::string("r-detailed: ") + verdict_name(verdict);
        return false;
      }

      // One confirmed result per vulnerability (Section VI-B): later claims
      // on an already-recorded vulnerability lose the race.
      for (const detect::Finding& f : detailed->description) {
        if (sra_it->second.claimed_vulns.contains(f.vuln_id)) {
          why = "r-detailed: vulnerability already recorded";
          return false;
        }
      }
      for (const detect::Finding& f : detailed->description)
        sra_it->second.claimed_vulns.insert(f.vuln_id);
      return true;
    }
  }
  why = "unknown protocol kind";
  return false;
}

void Platform::run_for(double seconds) { sim_.run_until(sim_.now() + seconds); }

std::uint64_t Platform::confirmed_vulnerabilities(const Hash256& sra_id) const {
  const auto it = sras_.find(sra_id);
  if (it == sras_.end()) return 0;
  return contracts::vuln_count_of(chain_->best_state(), it->second.sra.contract);
}

std::optional<Sra> Platform::lookup_sra(const Hash256& sra_id) const {
  const auto it = sras_.find(sra_id);
  if (it == sras_.end()) return std::nullopt;
  return it->second.sra;
}

double Platform::average_reports_per_block() const {
  const std::uint64_t blocks = chain_->best_height();
  return blocks == 0 ? 0.0
                     : static_cast<double>(total_reports_recorded_) /
                           static_cast<double>(blocks);
}

IncentiveParams Platform::measured_params() const {
  IncentiveParams p;
  p.nu = chain::to_ether(chain::kBlockReward);
  p.chi = 1.0;
  p.omega = average_reports_per_block();
  p.vartheta = config_.mean_block_time;

  // Average fee per recorded report across all detectors.
  Amount total_gas = 0;
  std::uint64_t total_reports = 0;
  for (const DetectorStats& stats : detector_stats_) {
    total_gas += stats.gas_spent;
    total_reports += stats.reports_committed + stats.reports_confirmed;
  }
  p.psi = total_reports == 0
              ? 0.011
              : chain::to_ether(total_gas) / static_cast<double>(total_reports);
  p.c = 0.0;  // submission cost beyond the fee is zero in this deployment
  return p;
}

}  // namespace sc::core
