// replicated: the signed transactions of an economy run replayed, in their
// recorded order, into a 5-replica core::ConsensusCluster (stores written
// without fsync, default 50 ms + jitter gossip latency). Every block is
// validated by every replica; no Platform logic runs.
#include <algorithm>
#include <cmath>

#include "core/node.hpp"
#include "pricing.hpp"
#include "workloads.hpp"

namespace e2e {

namespace sc_chain = sc::chain;

namespace {

/// Rounds of releases in the recorded economy run (plus its drain).
constexpr int kRecordRounds = 120;
/// Sim-seconds per submission tick: short against the 15 s block interval,
/// so few blocks are mined before the next chunk is queued.
constexpr double kTick = 0.25;
/// A replay still unsettled after this many wall seconds has failed (a run
/// must end within its time limit).
constexpr double kWallLimit = 120.0;

/// The client side of the replay: the recorded transactions are handed to
/// the cluster in recorded order, in chunks of the recorded chain's mean
/// transactions per transaction-carrying block (5 on seeds 1..10, whose
/// means lie in 4.88..5.03), stop-and-wait — the next chunk once the previous
/// one is on node 0's chain and every replica agrees on the head (after
/// which a fork race can no longer take it back: a competing block would
/// leave its miner on another head). The cluster packs its whole queue into
/// the next block, so a chunk lands all at once or, when that block loses a
/// fork race, not at all; a lost chunk is handed over again before anything
/// later, like a wallet rebroadcasting. Execution order equals the recorded
/// order, and so do gas and balances; the cluster's blocks carry the
/// recorded chain's mean traffic. Neither the recorded sim times nor the
/// recorded block boundaries are replayed: with the former a replica's block
/// held what arrived during its own mining race, and with the latter the
/// median block sat on the boundary between 4 and 5 transactions (1 to 21
/// per block), so block_import_ms_p50 moved by one signature verify from
/// seed to seed.
class Replayer {
 public:
  explicit Replayer(const Recording& rec) : txs_(rec.txs), chunk_(chunk_of(rec)) {
    for (const auto& tx : txs_) ids_.push_back(tx.id());
  }

  /// The recorded chain's mean transactions per transaction-carrying block.
  static std::size_t chunk_of(const Recording& rec) {
    const double mean = static_cast<double>(rec.txs.size()) /
                        static_cast<double>(std::max<std::size_t>(1, rec.tx_blocks));
    return std::max<std::size_t>(1, static_cast<std::size_t>(std::lround(mean)));
  }

  /// One tick. Returns true when every transaction has landed.
  bool step(sc::core::ConsensusCluster& cluster, SpanLog& log) {
    if (begin_ < end_) {
      const sc_chain::Blockchain& chain = cluster.node(0).chain();
      const bool converged = cluster.honest_nodes_converged();
      bool present = true;
      for (std::size_t i = begin_; i < end_ && present; ++i)
        present = chain.find_transaction(ids_[i]).has_value();
      if (present && converged) {
        begin_ = end_;
      } else if (!present && converged && cluster.blocks_mined() >= mined_mark_ + 2) {
        // Mined into a block the canonical chain no longer holds.
        ++resubmissions_;
        submit(cluster, log);
        return false;
      } else {
        return false;
      }
    }
    if (end_ == txs_.size()) return true;
    end_ = std::min(txs_.size(), begin_ + chunk_);
    submit(cluster, log);
    return false;
  }

  std::uint64_t resubmissions() const { return resubmissions_; }
  const std::vector<sc::crypto::Hash256>& ids() const { return ids_; }

 private:
  void submit(sc::core::ConsensusCluster& cluster, SpanLog& log) {
    for (std::size_t i = begin_; i < end_; ++i) {
      SpanLog::Scope span(log, "submit_transaction");
      cluster.submit_transaction(txs_[i]);
    }
    mined_mark_ = cluster.blocks_mined();
  }

  const std::vector<sc_chain::Transaction>& txs_;
  const std::size_t chunk_;  ///< Transactions handed over at a time.
  std::vector<sc::crypto::Hash256> ids_;
  std::size_t begin_ = 0;  ///< [begin_, end_) submitted, not yet landed.
  std::size_t end_ = 0;
  std::uint64_t mined_mark_ = 0;
  std::uint64_t resubmissions_ = 0;
};

struct RoundStats {
  double wall_s = 0.0;
  std::uint64_t blocks = 0;  ///< Canonical blocks carrying transactions.
  std::uint64_t height = 0;  ///< All canonical blocks (what reopen replays).
  std::uint64_t reveals_paid = 0;
  double reopen_s = 0.0;
  std::uint64_t sim_events = 0;
  std::uint64_t resubmitted = 0;
};

RoundStats replay_round(const Recording& rec, const sc_chain::GenesisConfig& genesis,
                        std::uint64_t seed, const Options& options,
                        sc::telemetry::Telemetry& tel, SpanLog& log,
                        std::vector<sc::telemetry::TraceEvent>& events, Result& result,
                        PricingInput* pricing) {
  RoundStats stats;
  TempDir dir(options.work_dir, "replicated-round");
  std::vector<sc::core::ConsensusCluster::NodeSpec> specs;
  for (const double share : kHashPowers) specs.push_back({share, true});
  sc::core::ClusterOptions cluster_options;
  cluster_options.store_root = dir.str();
  // Without fsync: with it, two fsyncs are a third of each replica's
  // small-block connect, and their latency on a shared disk moves
  // blocks_per_s by up to a third between runs of one seed. import measures
  // fsync'd appends.
  cluster_options.persistence.fsync = false;

  Replayer replayer(rec);
  const auto t0 = Clock::now();
  auto cluster = std::make_unique<sc::core::ConsensusCluster>(
      seed, specs, genesis, nullptr, sc_chain::kTargetBlockTime, sc::sim::NetworkConfig{},
      &tel, cluster_options);
  bool settled = false;
  while (true) {
    const bool landed = replayer.step(*cluster, log);
    if (landed && cluster->honest_nodes_converged()) {
      settled = true;
      break;
    }
    if (seconds_since(t0) > kWallLimit) break;
    SpanLog::Scope span(log, "run_for");
    cluster->run_for(kTick);
  }
  stats.wall_s = seconds_since(t0);
  drain_tracer(tel.tracer, events);
  stats.sim_events = cluster->simulator().events_executed();
  stats.resubmitted = replayer.resubmissions();
  result.check(settled, "replicated: replay did not settle (converged, all landed)");

  // Replicas: one head, byte-identical state, conserved supply, full-rehash
  // root equal to the head's committed root.
  const sc_chain::Blockchain& chain0 = cluster->node(0).chain();
  const sc::util::Bytes state0 = chain0.best_state().encode();
  for (std::size_t i = 1; i < cluster->size(); ++i) {
    const sc_chain::Blockchain& chain = cluster->node(i).chain();
    result.check(chain.best_head() == chain0.best_head(),
                 "replicated: replica " + std::to_string(i) + " has another head");
    const std::string same = check_same_bytes(chain.best_state().encode(), state0,
                                              "replicated: replica states");
    result.check(same.empty(), same);
  }
  Amount genesis_total = 0;
  for (const auto& [addr, amount] : genesis.allocations) genesis_total += amount;
  const std::string supply = check_supply(chain0.best_state(), genesis_total,
                                          chain0.best_height(), sc_chain::kBlockReward);
  result.check(supply.empty(), "replicated: " + supply);
  const std::string root =
      check_state_root(chain0.best_state(), chain0.block(chain0.best_head())->header.state_root);
  result.check(root.empty(), "replicated: " + root);
  const std::string balances =
      check_balances(rec.detector_balances, chain0.best_state(), "replicated: detector");
  result.check(balances.empty(), balances);

  // Operations: every recorded transaction must be on the final canonical
  // chain with an ok receipt.
  for (const auto& id : replayer.ids()) {
    ++result.attempted;
    const sc_chain::Receipt* receipt = chain0.receipt_of(id);
    if (!receipt || !receipt->ok()) {
      ++result.failed;
      result.info["replicated_first_failure"] = receipt ? receipt->error : "missing";
    }
  }
  stats.height = chain0.best_height();
  for (std::uint64_t h = 1; h <= stats.height; ++h)
    if (!chain0.block_at(h)->transactions.empty()) ++stats.blocks;
  stats.reveals_paid = paid_reveals(chain0, 0, stats.height);
  result.check(stats.reveals_paid == rec.reveals_paid,
               "replicated: paid reveals differ from the recorded economy run");

  if (pricing) {
    sample_blocks(chain0, 0, chain0.best_height(), pricing->samples);
    tally_blocks(chain0, 0, chain0.best_height(), pricing->live, pricing->protocol_txs);
  }

  // Restart: node 0's store, reopened by a fresh chain.
  const sc::crypto::Hash256 head = chain0.best_head();
  cluster.reset();
  sc::telemetry::Telemetry reopen_tel;
  sc_chain::Blockchain reopened(genesis, &reopen_tel);
  std::string why;
  const auto r0 = Clock::now();
  const bool ok = reopened.open((dir.path() / "node-0").string(), {}, &why);
  stats.reopen_s = seconds_since(r0);
  result.check(ok, "replicated: reopen: " + why);
  result.check(reopened.best_head() == head, "replicated: reopened head differs");
  const std::string same = check_same_bytes(reopened.best_state().encode(), state0,
                                            "replicated: reopened tip state");
  result.check(same.empty(), same);
  return stats;
}

}  // namespace

Result run_replicated(const Options& options) {
  Result result;
  const Recording rec = record_economy(options.seed, kRecordRounds);
  result.check(!rec.txs.empty(), "replicated: the recorded economy run is empty");
  sc_chain::GenesisConfig genesis;
  genesis.allocations = rec.genesis;
  result.e2e("setup_s", seconds_since(process_start()), "s");
  result.info["replicated_recorded_txs"] = std::to_string(rec.txs.size());
  result.info["replicated_recorded_blocks"] = std::to_string(rec.tx_blocks);
  result.info["replicated_chunk"] = std::to_string(Replayer::chunk_of(rec));

  sc::telemetry::Telemetry tel;
  SpanLog log;
  std::vector<sc::telemetry::TraceEvent> events;
  const auto reg0 = read_registry(tel.registry);
  const CallCounts calls0 = call_counts();
  PricingInput input;
  PricingInput* pricing = options.trace ? &input : nullptr;

  double wall = 0.0;
  std::uint64_t blocks = 0, reveals = 0, sim_events = 0, resubmitted = 0;
  std::vector<double> reopen;
  std::uint64_t height = 0;
  int rounds = 0;
  while (rounds == 0 || wall < options.seconds) {
    const RoundStats s = replay_round(rec, genesis, options.seed, options, tel, log, events,
                                      result, rounds == 0 ? pricing : nullptr);
    wall += s.wall_s;
    blocks += s.blocks;
    reveals += s.reveals_paid;
    sim_events += s.sim_events;
    resubmitted += s.resubmitted;
    reopen.push_back(s.reopen_s);
    height = s.height;
    ++rounds;
  }
  const CallCounts calls1 = call_counts();
  const auto reg1 = read_registry(tel.registry);

  const std::vector<double> connect = span_ms(events, "chain.block_connect");
  result.e2e("blocks_per_s", static_cast<double>(blocks) / wall, "blocks/s");
  result.e2e("reports_per_s", static_cast<double>(reveals) / wall, "reports/s");
  result.e2e("block_import_ms_p50", quantile(connect, 0.5), "ms");
  result.e2e("block_import_ms_p90", quantile(connect, 0.9), "ms");
  result.e2e("reopen_s", median(reopen), "s");
  result.info["replicated_rounds"] = std::to_string(rounds);
  result.info["replicated_resubmissions"] = std::to_string(resubmitted);

  if (options.trace) {
    input.workload = "replicated";
    input.work_dir = options.work_dir;
    LiveWork& live = input.live;
    live.wall_s = wall;
    live.calls = calls1 - calls0;
    for (const auto& [key, value] : reg1) live.reg[key] = delta(reg0, reg1, key);
    live.program_events = events;
    live.blocks = blocks;
    for (auto* n : {&live.txs, &live.deploys, &live.deploy_gas, &live.deploy_fees, &live.reports,
                    &live.report_gas, &live.report_fees})
      *n *= static_cast<std::uint64_t>(rounds);
    live.replicas = kHashPowers.size();
    live.template_per_block = 1;
    live.sim_events = sim_events;
    live.spans_recorded = log.spans().size();
    live.reopen_s = median(reopen);
    live.reopen_blocks = height;
    price_layers(input, result, options.out_dir / "replicated-layers.txt");
    write_chrome_trace(options.out_dir / "replicated-trace.json", log, events);
  }
  return result;
}

}  // namespace e2e
