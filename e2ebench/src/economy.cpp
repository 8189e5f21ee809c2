// economy: one long-lived core::Platform with the Fig. 6 population, fed a
// steady stream of releases on one shared RAM-only chain.
#include <algorithm>
#include <map>

#include "chain/sig_cache.hpp"
#include "core/messages.hpp"
#include "pricing.hpp"
#include "workloads.hpp"

namespace e2e {

namespace sc_chain = sc::chain;
using sc::chain::kEther;

namespace {

constexpr Amount kProviderEndowment = 1'000'000 * kEther;
constexpr Amount kDetectorEndowment = 1'000 * kEther;
constexpr Amount kInsurance = 100 * kEther;
constexpr Amount kBounty = 2 * kEther;
/// Share of releases that carry vulnerabilities: high enough that the
/// two-phase R†/R* path carries most of the traffic. A vulnerable release
/// carries exactly one vulnerability (mean_vulns = 1): the default
/// 1 + Poisson(3) count made the report traffic per release, and with it every
/// rate, swing by several percent from seed to seed.
constexpr double kVulnerableShare = 0.9;
/// Set-up runs this many rounds first so the timed phase starts with the
/// report pipeline (commit → k confirmations → reveal) already in flight.
constexpr int kWarmupRounds = 5;
/// Past the last release: the reclaim window (the platform's default) plus
/// slack for the last reveals.
double drain_seconds(const sc::core::PlatformConfig& config) {
  return config.reclaim_delay + 500.0;
}

sc::core::PlatformConfig economy_config(std::uint64_t seed, sc::telemetry::Telemetry* tel) {
  sc::core::PlatformConfig config;
  for (const double share : kHashPowers) config.providers.push_back({share, kProviderEndowment});
  for (unsigned t = 1; t <= 8; ++t) config.detectors.push_back({t, kDetectorEndowment});
  config.seed = seed;
  config.mean_vulns = 1.0;
  config.telemetry = tel;
  return config;
}

}  // namespace

Economy::Economy(std::uint64_t seed, sc::telemetry::Telemetry* tel)
    : tel_(tel),
      stream_(seed ^ 0xec0a0b1eULL),
      platform_(std::make_unique<sc::core::Platform>(economy_config(seed, tel))) {}

void Economy::round(SpanLog& log) {
  for (int i = 0; i < kReleasesPerRound; ++i) {
    const std::size_t provider = stream_.uniform(kHashPowers.size());
    {
      SpanLog::Scope span(log, "release_system");
      releases_.push_back(
          platform_->release_system(provider, kVulnerableShare, kInsurance, kBounty));
    }
    SpanLog::Scope span(log, "run_for");
    const std::uint64_t target = height() + kBlocksPerRelease;
    while (height() < target) platform_->run_for(1.0);
  }
}

bool Economy::drain() {
  platform_->run_for(drain_seconds(platform_->config()));
  auto depth = [this] { return read_registry(tel_->registry)["mempool_depth"]; };
  for (int i = 0; i < 60 && depth() > 0; ++i) platform_->run_for(60.0);
  return depth() == 0;
}

std::uint64_t paid_reveals(const sc_chain::Blockchain& chain, std::uint64_t from,
                           std::uint64_t to) {
  std::uint64_t n = 0;
  for (std::uint64_t h = from + 1; h <= to; ++h) {
    const sc_chain::Block* block = chain.block_at(h);
    const auto* receipts = chain.receipts(block->id());
    for (std::size_t i = 0; i < block->transactions.size(); ++i)
      if ((*receipts)[i].ok() &&
          block->transactions[i].protocol == sc_chain::ProtocolKind::kDetailedReport)
        ++n;
  }
  return n;
}

std::vector<std::pair<Address, Amount>> Economy::genesis_allocations() const {
  std::vector<std::pair<Address, Amount>> out;
  const auto& config = platform_->config();
  for (std::size_t i = 0; i < config.providers.size(); ++i)
    out.push_back({platform_->provider_address(i), config.providers[i].endowment});
  for (std::size_t i = 0; i < config.detectors.size(); ++i)
    out.push_back({platform_->detector_address(i), config.detectors[i].endowment});
  return out;
}

EconomyBooks Economy::books() const {
  const sc_chain::Blockchain& chain = platform_->blockchain();
  const sc_chain::WorldState& state = chain.best_state();
  const auto& config = platform_->config();
  EconomyBooks books;
  books.height = chain.best_height();
  for (const auto& [addr, amount] : genesis_allocations()) books.genesis_total += amount;

  // Walk the canonical chain once: operation outcomes, detector gas from
  // receipts, and the vulnerability ids every paid reveal claimed.
  std::map<Address, std::size_t> detector_of;
  for (std::size_t d = 0; d < config.detectors.size(); ++d)
    detector_of[platform_->detector_address(d)] = d;
  std::vector<Amount> detector_gas(config.detectors.size(), 0);
  std::map<sc::crypto::Hash256, std::vector<std::uint64_t>> paid_by_sra;
  for (std::uint64_t h = 1; h <= books.height; ++h) {
    const sc_chain::Block* block = chain.block_at(h);
    const auto* receipts = chain.receipts(block->id());
    for (std::size_t i = 0; i < block->transactions.size(); ++i) {
      const sc_chain::Transaction& tx = block->transactions[i];
      const sc_chain::Receipt& receipt = (*receipts)[i];
      ++books.included;
      if (!receipt.ok() && books.not_ok++ == 0)
        books.first_failure = "height " + std::to_string(h) + " protocol " +
                              std::to_string(static_cast<int>(tx.protocol)) + ": " +
                              receipt.error;
      if (const auto d = detector_of.find(tx.sender()); d != detector_of.end())
        detector_gas[d->second] += receipt.fee_paid;
      if (tx.protocol == sc_chain::ProtocolKind::kDetailedReport && receipt.ok()) {
        const auto report = sc::core::DetailedReport::deserialize(tx.protocol_payload);
        if (!report) books.problems.push_back("paid reveal with undecodable payload");
        if (report)
          for (const auto& finding : report->description)
            paid_by_sra[report->sra_id].push_back(finding.vuln_id);
      }
    }
  }

  // Escrow: the platform's off-chain ledger against the registries' balances.
  for (std::size_t p = 0; p < config.providers.size(); ++p) {
    const auto& stats = platform_->provider_stats(p);
    books.escrowed += stats.insurance_escrowed;
    books.recovered += stats.insurance_recovered;
    books.bounties_paid += stats.bounties_paid;
  }
  for (const auto& id : releases_) {
    const auto sra = platform_->lookup_sra(id);
    if (!sra || state.code(sra->contract).empty())
      books.problems.push_back("a released registry is not on chain after the drain");
    if (sra) books.registries += state.balance(sra->contract);
  }

  for (std::size_t d = 0; d < config.detectors.size(); ++d) {
    const auto& stats = platform_->detector_stats(d);
    DetectorBooks& detector = books.detectors.emplace_back();
    detector.address = platform_->detector_address(d);
    detector.endowment = config.detectors[d].endowment;
    detector.bounty_income = stats.bounty_income;
    detector.gas_platform = stats.gas_spent;
    detector.gas_from_receipts = detector_gas[d];
    detector.on_chain = state.balance(detector.address);
  }

  const auto& systems = platform_->corpus().systems();
  for (const auto& id : releases_) {
    const auto sra = platform_->lookup_sra(id);
    if (!sra) continue;
    const auto system = std::find_if(systems.begin(), systems.end(), [&](const auto& s) {
      return s.image_hash == sra->system_hash;
    });
    if (system == systems.end()) {
      books.problems.push_back("SRA image not in the corpus");
      continue;
    }
    SraAudit& audit = books.sras.emplace_back();
    audit.label = id.hex().substr(0, 8);
    audit.confirmed_on_chain = platform_->confirmed_vulnerabilities(id);
    for (const auto& v : system->ground_truth) audit.ground_truth.insert(v.id);
    if (const auto it = paid_by_sra.find(id); it != paid_by_sra.end())
      audit.paid_ids = it->second;
  }
  return books;
}

void Economy::check(Result& result) const {
  const EconomyBooks books = this->books();
  const sc_chain::WorldState& state = platform_->blockchain().best_state();
  const std::string supply =
      check_supply(state, books.genesis_total, books.height, sc_chain::kBlockReward);
  result.check(supply.empty(), "economy: " + supply);
  for (const std::string& problem : books.problems) result.check(false, "economy: " + problem);
  const std::string escrow =
      check_escrow(books.escrowed, books.recovered, books.bounties_paid, books.registries);
  result.check(escrow.empty(), "economy: " + escrow);
  for (const DetectorBooks& detector : books.detectors) {
    const std::string why = check_detector(detector);
    result.check(why.empty(), "economy: " + why);
  }
  for (const SraAudit& audit : books.sras) {
    const std::string why = check_sra(audit);
    result.check(why.empty(), "economy: " + why);
  }

  const auto admitted = static_cast<std::uint64_t>(
      read_registry(tel_->registry)["mempool_admitted_total"]);
  result.attempted = admitted;
  result.failed = books.not_ok + (admitted > books.included ? admitted - books.included : 0);
  if (books.not_ok > 0) result.info["economy_first_failure"] = books.first_failure;
}

Recording record_economy(std::uint64_t seed, int rounds) {
  sc::telemetry::Telemetry tel;
  Economy economy(seed, &tel);
  SpanLog log;
  for (int r = 0; r < rounds; ++r) economy.round(log);
  Recording rec;
  if (!economy.drain()) return rec;
  const sc_chain::Blockchain& chain = economy.platform().blockchain();
  rec.reveals_paid = paid_reveals(chain, 0, chain.best_height());
  for (std::uint64_t h = 1; h <= chain.best_height(); ++h) {
    const auto& txs = chain.block_at(h)->transactions;
    if (txs.empty()) continue;
    rec.txs.insert(rec.txs.end(), txs.begin(), txs.end());
    ++rec.tx_blocks;
  }
  rec.genesis = economy.genesis_allocations();
  for (std::size_t d = 0; d < economy.platform().config().detectors.size(); ++d) {
    const Address addr = economy.platform().detector_address(d);
    rec.detector_balances.push_back({addr, chain.best_state().balance(addr)});
  }
  return rec;
}

namespace {

sc_chain::GenesisConfig genesis_of(const std::vector<std::pair<Address, Amount>>& allocations) {
  sc_chain::GenesisConfig genesis;
  genesis.allocations = allocations;
  return genesis;
}

/// Persists the canonical chain to a store (signatures pre-verified, as a
/// node that validated them at gossip time would have them cached), then
/// times Blockchain::open replay of it. Median of `reps` reopens, seconds.
double reopen_economy_chain(const Economy& economy, const std::filesystem::path& work,
                            int reps, Result& result) {
  const sc_chain::Blockchain& chain = economy.platform().blockchain();
  const sc_chain::GenesisConfig genesis = genesis_of(economy.genesis_allocations());
  TempDir dir(work, "economy-store");
  sc::telemetry::Telemetry tel;
  {
    sc_chain::Blockchain follower(genesis, &tel);
    std::string why;
    sc_chain::PersistenceOptions options;
    options.fsync = false;
    result.check(follower.open(dir.str(), options, &why), "economy: store open: " + why);
    for (std::uint64_t h = 1; h <= chain.best_height(); ++h) {
      const sc_chain::Block* block = chain.block_at(h);
      for (const auto& tx : block->transactions)
        follower.sig_cache().insert(sc_chain::SigCache::key_of(tx));
      if (!follower.submit_block(*block, &why, /*skip_pow=*/true)) {
        result.check(false, "economy: follower refused block: " + why);
        return 0.0;
      }
    }
    follower.close();
  }
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    sc_chain::Blockchain reopened(genesis, &tel);
    std::string why;
    const auto t0 = Clock::now();
    const bool ok = reopened.open(dir.str(), {}, &why);
    times.push_back(seconds_since(t0));
    result.check(ok, "economy: reopen: " + why);
    if (i == 0) {
      result.check(reopened.best_head() == chain.best_head(), "economy: reopened head differs");
      const std::string same = check_same_bytes(reopened.best_state().encode(),
                                                chain.best_state().encode(),
                                                "economy: reopened tip state");
      result.check(same.empty(), same);
    }
  }
  return median(times);
}

}  // namespace

Result run_economy(const Options& options) {
  Result result;
  sc::telemetry::Telemetry tel;
  Economy economy(options.seed, &tel);
  SpanLog warmup;
  for (int r = 0; r < kWarmupRounds; ++r) economy.round(warmup);
  tel.tracer.clear();
  result.e2e("setup_s", seconds_since(process_start()), "s");

  SpanLog log;
  const auto reg0 = read_registry(tel.registry);
  const CallCounts calls0 = call_counts();
  const std::uint64_t h0 = economy.height();
  const std::uint64_t events0 = economy.platform().simulator().events_executed();
  std::vector<sc::telemetry::TraceEvent> events;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < options.seconds) {
    economy.round(log);
    drain_tracer(tel.tracer, events);
  }
  const double wall = log.total_seconds("release_system") + log.total_seconds("run_for");
  const CallCounts calls1 = call_counts();
  const auto reg1 = read_registry(tel.registry);
  const std::uint64_t h1 = economy.height();
  std::uint64_t blocks = 0;  // canonical blocks carrying transactions
  for (std::uint64_t h = h0 + 1; h <= h1; ++h)
    if (!economy.platform().blockchain().block_at(h)->transactions.empty()) ++blocks;
  const std::uint64_t reports = paid_reveals(economy.platform().blockchain(), h0, h1);
  const std::uint64_t events_run = economy.platform().simulator().events_executed() - events0;

  const std::vector<double> connect = span_ms(events, "chain.block_connect");
  result.e2e("blocks_per_s", static_cast<double>(blocks) / wall, "blocks/s");
  result.e2e("reports_per_s", static_cast<double>(reports) / wall, "reports/s");
  result.e2e("block_import_ms_p50", quantile(connect, 0.5), "ms");
  result.e2e("block_import_ms_p90", quantile(connect, 0.9), "ms");
  result.info["economy_blocks"] = std::to_string(blocks);
  result.info["economy_connect_samples"] = std::to_string(connect.size());

  result.check(economy.drain(), "economy: mempool did not drain");
  economy.check(result);
  const double reopen_s = reopen_economy_chain(economy, options.work_dir, 5, result);
  result.e2e("reopen_s", reopen_s, "s");

  if (options.trace) {
    PricingInput input;
    input.workload = "economy";
    input.work_dir = options.work_dir;
    LiveWork& live = input.live;
    live.wall_s = wall;
    live.calls = calls1 - calls0;
    for (const auto& [key, value] : reg1) live.reg[key] = delta(reg0, reg1, key);
    live.program_events = events;
    live.blocks = blocks;
    live.template_per_block = 1;
    live.sim_events = events_run;
    live.spans_recorded = log.spans().size();
    live.reopen_s = reopen_s;
    live.reopen_blocks = economy.height();
    const sc_chain::Blockchain& chain = economy.platform().blockchain();
    tally_blocks(chain, h0, h1, live, input.protocol_txs);
    const double refused = delta(reg0, reg1, "mempool_rejected_total{reason=gate}");
    live.gate_calls = live.deploys + live.reports + static_cast<std::uint64_t>(refused);
    sample_blocks(chain, h0, h1, input.samples);
    price_layers(input, result, options.out_dir / "economy-layers.txt");
    write_chrome_trace(options.out_dir / "economy-trace.json", log, events);
  }
  return result;
}

}  // namespace e2e
