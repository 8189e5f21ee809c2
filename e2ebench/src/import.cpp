// import: a follower chain::Blockchain with a durable fsync'd store and a
// fixed number of execution lanes imports a pre-signed stream of full blocks
// one submit_block at a time, then is closed and reopened. The only
// workload where Block-STM execution and parallel batch verification run,
// and the only one that reads the store back.
#include <algorithm>
#include <cstdint>
#include <map>
#include <thread>

#include "chain/sig_cache.hpp"
#include "contracts/smartcrowd_contract.hpp"
#include "crypto/keys.hpp"
#include "pricing.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace e2e {

namespace sc_chain = sc::chain;
using sc::chain::kEther;

namespace {

constexpr std::size_t kTransferAccounts = 1024;
constexpr std::size_t kHotAccounts = 4;     ///< Shared recipients: conflicts.
constexpr std::size_t kProviders = 4;
constexpr std::size_t kReporters = 16;
constexpr std::size_t kBlocks = 110;        ///< >= 10 samples beyond p90 per round.
constexpr std::size_t kTxsPerBlock = 256;
constexpr std::size_t kReportsPerBlock = 32;
constexpr std::size_t kDeployEvery = 8;     ///< One registry deploy every N blocks.
constexpr Amount kEndowment = 1'000'000 * kEther;
constexpr sc_chain::Gas kTransferGas = 30'000;

unsigned import_lanes() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

/// The seeded input: accounts, the signed block stream, and the benchmark's
/// own ledger of what every transfer account should end with.
struct Stream {
  sc_chain::GenesisConfig genesis;
  std::vector<sc::crypto::KeyPair> transfer_keys;
  std::vector<sc_chain::Block> blocks;  ///< Built and sealed by a sequential chain.
  std::uint64_t transactions = 0;
  std::uint64_t reports = 0;
  /// Per transfer account: received - sent (fees come from receipts).
  std::map<Address, std::int64_t> net_transfers;
};

Stream make_stream(std::uint64_t seed, unsigned lanes, Result& result) {
  Stream s;
  sc::util::Rng rng(seed ^ 0x1a2b3c4dULL);
  auto keys = [&](std::size_t n) {
    std::vector<sc::crypto::KeyPair> out;
    for (std::size_t i = 0; i < n; ++i) out.push_back(sc::crypto::KeyPair::generate(rng));
    return out;
  };
  s.transfer_keys = keys(kTransferAccounts);
  const auto providers = keys(kProviders);
  const auto reporters = keys(kReporters);
  const Address miner = keys(1).front().address();
  using KeySet = const std::vector<sc::crypto::KeyPair>*;
  for (const KeySet set : {KeySet{&s.transfer_keys}, KeySet{&providers}, KeySet{&reporters}})
    for (const auto& k : *set) s.genesis.allocations.push_back({k.address(), kEndowment});

  // Unsigned bodies first (nonces follow block order), then sign in parallel.
  std::map<Address, std::uint64_t> nonce;
  std::vector<Address> registries;
  std::vector<std::vector<std::pair<sc_chain::Transaction, const sc::crypto::KeyPair*>>> bodies(
      kBlocks);
  for (std::size_t b = 0; b < kBlocks; ++b) {
    auto& body = bodies[b];
    if (b % kDeployEvery == 0) {
      const auto& key = providers[(b / kDeployEvery) % kProviders];
      const std::uint64_t n = nonce[key.address()]++;
      sc::crypto::Hash256 image;
      for (auto& byte : image.bytes) byte = static_cast<std::uint8_t>(rng.uniform(256));
      sc_chain::Transaction tx = sc::contracts::make_deploy_tx(
          n, 10 * kEther, 1 * kEther, image,
          sc::contracts::pack_metadata("iot-import", "v" + std::to_string(b), "sim://import"));
      registries.push_back(sc_chain::contract_address(key.address(), n));
      body.push_back({std::move(tx), &key});
    }
    for (std::size_t r = 0; r < kReportsPerBlock && b > 0; ++r) {
      const auto& key = reporters[rng.uniform(kReporters)];
      sc::crypto::Hash256 pledge;
      for (auto& byte : pledge.bytes) byte = static_cast<std::uint8_t>(rng.uniform(256));
      sc_chain::Transaction tx;
      tx.kind = sc_chain::TxKind::kCall;
      tx.nonce = nonce[key.address()]++;
      tx.to = registries[rng.uniform(registries.size())];
      tx.gas_limit = 200'000;
      tx.data = sc::contracts::register_initial_calldata(pledge);
      body.push_back({std::move(tx), &key});
      ++s.reports;
    }
    while (body.size() < kTxsPerBlock) {
      const auto& key = s.transfer_keys[rng.uniform(kTransferAccounts)];
      const Address to = rng.bernoulli(0.3)
                             ? s.transfer_keys[rng.uniform(kHotAccounts)].address()
                             : s.transfer_keys[rng.uniform(kTransferAccounts)].address();
      sc_chain::Transaction tx;
      tx.kind = sc_chain::TxKind::kTransfer;
      tx.nonce = nonce[key.address()]++;
      tx.to = to;
      tx.value = 1 + rng.uniform(1'000'000);
      tx.gas_limit = kTransferGas;
      s.net_transfers[key.address()] -= static_cast<std::int64_t>(tx.value);
      s.net_transfers[to] += static_cast<std::int64_t>(tx.value);
      body.push_back({std::move(tx), &key});
    }
  }
  {
    sc::util::ThreadPool pool(lanes);
    for (auto& body : bodies)
      for (auto& [tx, key] : body)
        pool.submit([&tx = tx, key = key] { tx.sign_with(*key); });
    pool.wait_idle();
  }

  // The reference producer: a sequential chain seals every header (Merkle
  // and state roots). It signed these transactions itself, so it seeds its
  // verified-signature cache instead of re-verifying them.
  sc_chain::GenesisConfig sequential = s.genesis;
  sequential.execution.threads = 1;
  sc::telemetry::Telemetry tel;
  sc_chain::Blockchain reference(sequential, &tel);
  for (std::size_t b = 0; b < kBlocks; ++b) {
    std::vector<sc_chain::Transaction> txs;
    for (auto& [tx, key] : bodies[b]) {
      reference.sig_cache().insert(sc_chain::SigCache::key_of(tx));
      txs.push_back(std::move(tx));
    }
    s.transactions += txs.size();
    sc_chain::Block block = reference.build_block_template(
        miner, 15 * (b + 1), /*difficulty=*/1, std::move(txs));
    std::string why;
    if (!reference.submit_block(block, &why, /*skip_pow=*/true)) {
      result.check(false, "import: reference chain refused its own block: " + why);
      break;
    }
    s.blocks.push_back(std::move(block));
  }
  return s;
}

struct RoundStats {
  double wall_s = 0.0;
  std::vector<double> import_ms;
  double reopen_s = 0.0;
};

RoundStats import_round(const Stream& stream, unsigned lanes, const Options& options,
                        sc::telemetry::Telemetry& tel, SpanLog& log,
                        std::vector<sc::telemetry::TraceEvent>& events, Result& result) {
  RoundStats stats;
  TempDir dir(options.work_dir, "import-store");
  sc_chain::GenesisConfig genesis = stream.genesis;
  genesis.execution.threads = lanes;
  sc::util::Bytes tip_state;
  sc::crypto::Hash256 head;
  std::map<Address, Amount> fees;
  {
    const auto t0 = Clock::now();
    sc_chain::Blockchain follower(genesis, &tel);
    std::string why;
    bool opened = false;
    {
      SpanLog::Scope span(log, "open");
      opened = follower.open(dir.str(), {}, &why);
    }
    result.check(opened, "import: store open: " + why);
    for (const sc_chain::Block& block : stream.blocks) {
      const auto b0 = Clock::now();
      bool ok = false;
      {
        SpanLog::Scope span(log, "submit_block");
        ok = follower.submit_block(block, &why, /*skip_pow=*/true);
      }
      stats.import_ms.push_back(seconds_since(b0) * 1e3);
      if (!ok) {
        result.check(false, "import: follower refused block " +
                                std::to_string(block.header.height) + ": " + why);
        break;
      }
    }
    // Checks read the follower before it closes; they are not import time.
    const auto t_check = Clock::now();
    tip_state = follower.best_state().encode();
    head = follower.best_head();
    for (const sc_chain::Block& block : stream.blocks) {
      const auto* receipts = follower.receipts(block.id());
      if (!receipts) break;
      for (std::size_t i = 0; i < receipts->size(); ++i) {
        ++result.attempted;
        if (!(*receipts)[i].ok()) ++result.failed;
        fees[block.transactions[i].sender()] += (*receipts)[i].fee_paid;
      }
    }
    const std::string root =
        check_state_root(follower.best_state(), stream.blocks.back().header.state_root);
    result.check(root.empty(), "import: " + root);
    result.check(head == stream.blocks.back().id(),
                 "import: follower head is not the reference chain's head");
    std::vector<std::pair<Address, Amount>> ledger;
    for (const auto& key : stream.transfer_keys) {
      const auto it = stream.net_transfers.find(key.address());
      const std::int64_t net = it == stream.net_transfers.end() ? 0 : it->second;
      const auto received = static_cast<Amount>(static_cast<std::int64_t>(kEndowment) + net);
      ledger.push_back({key.address(), received - fees[key.address()]});
    }
    const std::string balances = check_balances(ledger, follower.best_state(), "import: account");
    result.check(balances.empty(), balances);
    const double check_s = seconds_since(t_check);
    {
      SpanLog::Scope span(log, "close");
      follower.close();
    }
    stats.wall_s = seconds_since(t0) - check_s;
    drain_tracer(tel.tracer, events);
  }

  sc::telemetry::Telemetry reopen_tel;
  sc_chain::Blockchain reopened(genesis, &reopen_tel);
  std::string why;
  const auto r0 = Clock::now();
  bool ok = false;
  {
    SpanLog::Scope span(log, "reopen");
    ok = reopened.open(dir.str(), {}, &why);
  }
  stats.reopen_s = seconds_since(r0);
  result.check(ok, "import: reopen: " + why);
  result.check(reopened.best_head() == head, "import: reopened head differs");
  const std::string same =
      check_same_bytes(reopened.best_state().encode(), tip_state, "import: reopened tip state");
  result.check(same.empty(), same);
  return stats;
}

}  // namespace

Result run_import(const Options& options) {
  Result result;
  const unsigned lanes = import_lanes();
  const Stream stream = make_stream(options.seed, lanes, result);
  result.e2e("setup_s", seconds_since(process_start()), "s");
  result.info["import_lanes"] = std::to_string(lanes);

  sc::telemetry::Telemetry tel;
  SpanLog log;
  std::vector<sc::telemetry::TraceEvent> events;
  const auto reg0 = read_registry(tel.registry);
  const CallCounts calls0 = call_counts();
  double wall = 0.0;
  std::vector<double> import_ms;
  std::vector<double> reopen;
  int rounds = 0;
  while (rounds == 0 || wall < options.seconds) {
    RoundStats s = import_round(stream, lanes, options, tel, log, events, result);
    wall += s.wall_s;
    import_ms.insert(import_ms.end(), s.import_ms.begin(), s.import_ms.end());
    reopen.push_back(s.reopen_s);
    ++rounds;
    if (!result.correct) break;
  }
  const CallCounts calls1 = call_counts();
  const auto reg1 = read_registry(tel.registry);
  const auto blocks = static_cast<std::uint64_t>(rounds) * stream.blocks.size();

  result.e2e("blocks_per_s", static_cast<double>(blocks) / wall, "blocks/s");
  result.e2e("reports_per_s",
             static_cast<double>(stream.reports * static_cast<std::uint64_t>(rounds)) / wall,
             "reports/s");
  result.e2e("block_import_ms_p50", quantile(import_ms, 0.5), "ms");
  result.e2e("block_import_ms_p90", quantile(import_ms, 0.9), "ms");
  result.e2e("reopen_s", median(reopen), "s");
  result.info["import_rounds"] = std::to_string(rounds);
  result.info["import_samples"] = std::to_string(import_ms.size());

  if (options.trace) {
    PricingInput input;
    input.workload = "import";
    input.work_dir = options.work_dir;
    LiveWork& live = input.live;
    live.wall_s = wall;
    live.calls = calls1 - calls0;
    for (const auto& [key, value] : reg1) live.reg[key] = delta(reg0, reg1, key);
    live.blocks = blocks;
    live.lanes = lanes;
    live.program_events = events;
    live.spans_recorded = log.spans().size();
    live.reopen_s = median(reopen);
    live.reopen_blocks = stream.blocks.size();
    // Replay material: the stream rebuilt on a sequential RAM-only chain.
    sc::telemetry::Telemetry scratch;
    sc_chain::Blockchain ref(stream.genesis, &scratch);
    for (const sc_chain::Block& block : stream.blocks) {
      for (const auto& tx : block.transactions)
        ref.sig_cache().insert(sc_chain::SigCache::key_of(tx));
      ref.submit_block(block, nullptr, /*skip_pow=*/true);
    }
    sample_blocks(ref, 0, ref.best_height(), input.samples);
    tally_blocks(ref, 0, ref.best_height(), live, input.protocol_txs);
    for (auto* n : {&live.txs, &live.deploys, &live.deploy_gas, &live.deploy_fees, &live.reports,
                    &live.report_gas, &live.report_fees})
      *n *= static_cast<std::uint64_t>(rounds);
    price_layers(input, result, options.out_dir / "import-layers.txt");
    write_chrome_trace(options.out_dir / "import-trace.json", log, events);
  }
  return result;
}

}  // namespace e2e
