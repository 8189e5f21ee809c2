#include "pricing.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>

#include "analysis/verifier.hpp"
#include "chain/executor.hpp"
#include "chain/parallel_executor.hpp"
#include "chain/sig_cache.hpp"
#include "contracts/smartcrowd_contract.hpp"
#include "core/messages.hpp"
#include "crypto/batch_verify.hpp"
#include "crypto/keccak.hpp"
#include "crypto/keys.hpp"
#include "crypto/sha256.hpp"
#include "store/block_store.hpp"
#include "util/thread_pool.hpp"

namespace e2e {

namespace sc_chain = sc::chain;

namespace {

/// Mean wall seconds per call of `f`, over at least 3 calls and ~budget_s.
template <class F>
double unit_seconds(F&& f, double budget_s = 0.05) {
  int calls = 0;
  const auto t0 = Clock::now();
  do {
    f();
    ++calls;
  } while (calls < 3 || seconds_since(t0) < budget_s);
  return seconds_since(t0) / calls;
}

double get(const std::map<std::string, double>& reg, const std::string& key) {
  const auto it = reg.find(key);
  return it == reg.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Unit costs measured by replaying the run's recorded work through the
/// layers' public functions.
struct UnitCosts {
  double verify_s = 0.0;      ///< One crypto::verify_signature.
  double batch_sig_s = 0.0;   ///< Wall per signature inside batch_verify on `lanes`.
  double sign_s = 0.0;        ///< One KeyPair::sign.
  double keccak_mb_s = 0.0;
  double sha256_mb_s = 0.0;
  double execute_s = 0.0;     ///< One block body, signatures cached.
  double deploy_verify_s = 0.0;
  double admission_s = 0.0;   ///< One admission gate call, payload verifies included.
  double admission_verifies = 0.0;  ///< ECDSA verifies per gate call.
  double append_s = 0.0;      ///< One block + delta append and tip write, fsyncs excluded.
  double decode_s = 0.0;      ///< One gossiped block decode.
};

std::vector<sc::crypto::VerifyJob> verify_jobs(const std::vector<ReplaySample>& samples,
                                                std::size_t max_jobs) {
  std::vector<sc::crypto::VerifyJob> jobs;
  for (const auto& s : samples)
    for (const auto& tx : s.block.transactions)
      if (jobs.size() < max_jobs) jobs.push_back({tx.sender_pubkey, tx.id(), tx.signature});
  return jobs;
}

double price_execute(const std::vector<ReplaySample>& samples, unsigned lanes) {
  if (samples.empty()) return 0.0;
  sc::telemetry::Telemetry scratch;
  sc_chain::SigCache cache;
  for (const auto& s : samples)
    for (const auto& tx : s.block.transactions) cache.insert(sc_chain::SigCache::key_of(tx));
  std::unique_ptr<sc::util::ThreadPool> pool;
  if (lanes > 1) pool = std::make_unique<sc::util::ThreadPool>(lanes - 1);
  auto run = [&](const ReplaySample& s) {
    sc_chain::WorldState state = s.parent;
    sc_chain::BlockEnv env;
    env.number = s.block.header.height;
    env.timestamp = s.block.header.timestamp;
    env.miner = s.block.header.miner;
    const auto t0 = Clock::now();
    sc_chain::JournaledState journal(state);
    [[maybe_unused]] const auto receipts =
        pool ? sc_chain::apply_block_body_parallel(journal, env, s.block.transactions,
                                                   sc_chain::kBlockReward, *pool, &scratch,
                                                   &cache)
             : sc_chain::apply_block_body(journal, env, s.block.transactions,
                                          sc_chain::kBlockReward, &scratch, &cache);
    [[maybe_unused]] const sc_chain::StateDelta delta = journal.collect_delta();
    journal.commit(0);
    return seconds_since(t0);
  };
  run(samples.front());  // warm-up
  double total = 0.0;
  for (const auto& s : samples) total += run(s);
  return total / static_cast<double>(samples.size());
}

double price_admission(const std::vector<sc_chain::Transaction>& txs, double& verifies_per_call) {
  // Pair every reveal with its commitment (the gate looks it up by content).
  std::vector<sc::core::InitialReport> initials;
  for (const auto& tx : txs)
    if (tx.protocol == sc_chain::ProtocolKind::kInitialReport)
      if (auto r = sc::core::InitialReport::deserialize(tx.protocol_payload))
        initials.push_back(*r);
  const sc::core::AutoVerifFn accept = [](const sc::core::DetailedReport&) { return true; };
  auto gate = [&](const sc_chain::Transaction& tx) {
    switch (tx.protocol) {
      case sc_chain::ProtocolKind::kSra:
        if (auto sra = sc::core::Sra::deserialize(tx.protocol_payload)) sc::core::verify_sra(*sra);
        break;
      case sc_chain::ProtocolKind::kInitialReport:
        if (auto r = sc::core::InitialReport::deserialize(tx.protocol_payload))
          sc::core::verify_initial_report(*r);
        break;
      case sc_chain::ProtocolKind::kDetailedReport:
        if (auto r = sc::core::DetailedReport::deserialize(tx.protocol_payload)) {
          const auto content = r->content_hash();
          for (const auto& initial : initials)
            if (initial.detailed_hash == content) {
              sc::core::verify_detailed_report(*r, initial, accept);
              break;
            }
        }
        break;
      case sc_chain::ProtocolKind::kNone:
        break;
    }
  };
  std::size_t calls = 0;
  const CallCounts c0 = call_counts();
  const auto t0 = Clock::now();
  for (const auto& tx : txs)
    if (tx.protocol != sc_chain::ProtocolKind::kNone) {
      gate(tx);
      ++calls;
    }
  const double elapsed = seconds_since(t0);
  verifies_per_call = ratio(static_cast<double>((call_counts() - c0).verifies),
                            static_cast<double>(calls));
  return ratio(elapsed, static_cast<double>(calls));
}

double price_append(const std::vector<ReplaySample>& samples,
                    const std::filesystem::path& work_dir) {
  if (samples.empty()) return 0.0;
  TempDir dir(work_dir, "pricing-store");
  sc::telemetry::Telemetry scratch;
  std::string why;
  // fsync is timed live (call_counts); price the rest of the append path.
  sc::store::StoreOptions options;
  options.fsync = false;
  auto store = sc::store::BlockStore::open(dir.str(), samples.front().block.header.prev_id,
                                           options, &scratch, &why);
  if (!store) return 0.0;
  const auto t0 = Clock::now();
  for (const auto& s : samples) {
    store->append_block(s.block, s.delta, &why);
    store->write_tip(s.block.header.height, s.block.id(), &why);
  }
  return seconds_since(t0) / static_cast<double>(samples.size());
}

UnitCosts price_units(const PricingInput& in) {
  UnitCosts u;
  const auto jobs = verify_jobs(in.samples, 256);
  if (!jobs.empty()) {
    std::size_t i = 0;
    u.verify_s = unit_seconds([&] {
      const auto& j = jobs[i++ % jobs.size()];
      sc::crypto::verify_signature(j.pub, j.z, j.sig);
    });
    if (in.live.lanes > 1) {
      sc::util::ThreadPool pool(in.live.lanes - 1);
      u.batch_sig_s = unit_seconds([&] { sc::crypto::batch_verify(jobs, &pool); }) /
                      static_cast<double>(jobs.size());
    } else {
      u.batch_sig_s = u.verify_s;
    }
  }
  sc::util::Rng rng(42);
  const auto key = sc::crypto::KeyPair::generate(rng);
  std::uint64_t n = 0;
  u.sign_s = unit_seconds([&] {
    sc::crypto::Hash256 digest;
    digest.bytes[0] = static_cast<std::uint8_t>(n++);
    key.sign(digest);
  });
  const sc::util::Bytes mb(1 << 20, 0x5a);
  u.keccak_mb_s = 1.0 / unit_seconds([&] { sc::crypto::keccak256(mb); });
  u.sha256_mb_s = 1.0 / unit_seconds([&] { sc::crypto::Sha256::digest(mb); });
  u.execute_s = price_execute(in.samples, in.live.lanes);
  const sc::util::Bytes& code = sc::contracts::contract_bytecode();
  u.deploy_verify_s = unit_seconds([&] { sc::analysis::verify_code(code); });
  u.admission_s = price_admission(in.protocol_txs, u.admission_verifies);
  if (get(in.live.reg, "store_bytes_appended_total") > 0)
    u.append_s = price_append(in.samples, in.work_dir);
  if (!in.samples.empty()) {
    const sc::util::Bytes wire = in.samples.back().block.encode();
    u.decode_s = unit_seconds([&] { sc_chain::Block::decode(wire); });
  }
  return u;
}

}  // namespace

void tally_blocks(const sc_chain::Blockchain& chain, std::uint64_t from, std::uint64_t to,
                  LiveWork& live, std::vector<sc_chain::Transaction>& protocol_txs) {
  for (std::uint64_t h = from + 1; h <= to; ++h) {
    const sc_chain::Block* block = chain.block_at(h);
    const auto* receipts = chain.receipts(block->id());
    for (std::size_t i = 0; i < block->transactions.size(); ++i) {
      const sc_chain::Transaction& tx = block->transactions[i];
      const sc_chain::Receipt& receipt = (*receipts)[i];
      ++live.txs;
      if (tx.protocol != sc_chain::ProtocolKind::kNone && protocol_txs.size() < 300)
        protocol_txs.push_back(tx);
      if (tx.kind == sc_chain::TxKind::kDeploy) {
        ++live.deploys;
        live.deploy_gas += receipt.gas_used;
        live.deploy_fees += receipt.fee_paid;
        continue;
      }
      if (tx.kind != sc_chain::TxKind::kCall || tx.data.size() < 4) continue;
      const std::uint32_t selector = static_cast<std::uint32_t>(tx.data[0]) << 24 |
                                     static_cast<std::uint32_t>(tx.data[1]) << 16 |
                                     static_cast<std::uint32_t>(tx.data[2]) << 8 | tx.data[3];
      if (selector == sc::contracts::kSelRegisterInitial ||
          selector == sc::contracts::kSelSubmitDetailed) {
        ++live.reports;
        live.report_gas += receipt.gas_used;
        live.report_fees += receipt.fee_paid;
      }
    }
  }
}

void sample_blocks(const sc_chain::Blockchain& chain, std::uint64_t from, std::uint64_t to,
                   std::vector<ReplaySample>& out) {
  const std::uint64_t stride = std::max<std::uint64_t>(1, (to - from) / 40);
  for (std::uint64_t h = from + 1; h <= to; h += stride) {
    const sc_chain::Block* block = chain.block_at(h);
    out.push_back({*block, *chain.state_of(block->header.prev_id), *chain.delta_of(block->id())});
  }
}

void price_layers(const PricingInput& in, Result& result,
                  const std::filesystem::path& table_file) {
  const LiveWork& live = in.live;
  const UnitCosts u = price_units(in);
  const auto& reg = live.reg;
  const double blocks = static_cast<double>(live.blocks);
  const double txs = static_cast<double>(live.txs);
  const double replicas = static_cast<double>(live.replicas);
  const double executions = replicas + static_cast<double>(live.template_per_block);

  // -- Live counts and unit costs ---------------------------------------------
  const double batch_verified = get(reg, "chain_sig_batch_verified_total");
  const double tx_sig_verifies = static_cast<double>(live.calls.tx_verifies) + batch_verified;
  const double tx_records = get(reg, "chain_tx_total");
  const double root_count = get(reg, "state_root_update_seconds:count");
  const double root_sum = get(reg, "state_root_update_seconds:sum");
  const double root_mean = ratio(root_sum, root_count);
  const std::vector<double> connect_ms = span_ms(live.program_events, "chain.block_connect");
  double connect_s = 0.0;
  for (const double ms : connect_ms) connect_s += ms * 1e-3;
  const double reveals_paid = get(reg, "platform_reports_confirmed_total");
  const double reveals_lost = get(reg, "platform_reports_lost_race_total");
  const double gate_calls = static_cast<double>(live.gate_calls);
  const bool platform = live.gate_calls > 0;

  result.layer("crypto.verify_us", u.verify_s * 1e6, "us");
  result.layer("crypto.sign_us", u.sign_s * 1e6, "us");
  result.layer("crypto.keccak_mb_per_s", u.keccak_mb_s, "MB/s");
  result.layer("crypto.sha256_mb_per_s", u.sha256_mb_s, "MB/s");
  result.layer("crypto.verifies_per_tx", ratio(static_cast<double>(live.calls.verifies), txs),
               "count");
  result.layer("crypto.signs_per_tx", ratio(static_cast<double>(live.calls.signs), txs), "count");
  result.layer("chain.sig_verifies_per_tx", ratio(tx_sig_verifies, txs), "count");
  result.layer("chain.executions_per_block", ratio(tx_records, txs), "count");
  result.layer("chain.template_ms",
               live.template_per_block ? (u.execute_s + 2 * root_mean) * 1e3 : 0.0, "ms");
  result.layer("chain.block_connect_ms", ratio(connect_s * 1e3, connect_ms.size()), "ms");
  result.layer("chain.execute_ms", u.execute_s * 1e3, "ms");
  result.layer("chain.parallel_reexec_ratio",
               ratio(get(reg, "parallel_exec_reexecuted_total"),
                     get(reg, "parallel_exec_speculated_total")),
               "ratio");
  result.layer("chain.state_root_ms", root_mean * 1e3, "ms");
  result.layer("vm.steps_per_tx", ratio(get(reg, "scvm_steps_total"), tx_records), "count");
  result.layer("vm.gas_per_deploy", ratio(live.deploy_gas, live.deploys), "gas");
  result.layer("vm.gas_per_report", ratio(live.report_gas, live.reports), "gas");
  const double ether = static_cast<double>(sc_chain::kEther);
  result.layer("vm.eth_per_deploy", ratio(live.deploy_fees, live.deploys) / ether, "eth");
  result.layer("vm.eth_per_report", ratio(live.report_fees, live.reports) / ether, "eth");
  result.layer("analysis.deploy_verify_us", u.deploy_verify_s * 1e6, "us");
  result.layer("core.admission_us", platform ? u.admission_s * 1e6 : 0.0, "us");
  result.layer("core.reveal_useful_ratio", ratio(reveals_paid, reveals_paid + reveals_lost),
               "ratio");
  result.layer("sim.events_per_block", ratio(static_cast<double>(live.sim_events), blocks),
               "count");
  result.layer("sim.messages_per_block", ratio(get(reg, "net_messages_sent_total"), blocks),
               "count");
  result.layer("sim.reorgs", get(reg, "chain_reorgs_total"), "count");
  result.layer("store.append_ms", u.append_s * 1e3, "ms");
  result.layer("store.fsync_ms",
               ratio(live.calls.fsync_s * 1e3, static_cast<double>(live.calls.fsyncs)), "ms");
  result.layer("store.fsyncs_per_block", ratio(get(reg, "store_fsyncs_total"), blocks * replicas),
               "count");
  result.layer("store.bytes_per_block",
               ratio(get(reg, "store_bytes_appended_total"), blocks * replicas), "B");
  result.layer("store.replay_blocks_per_s",
               ratio(static_cast<double>(live.reopen_blocks), live.reopen_s), "blocks/s");

  // -- The split of the timed wall time -----------------------------------------
  // Signature checks batched inside submit_block run on the connect's lanes;
  // the rest (admission, templates, payload checks) one at a time.
  const double crypto_connect_s = batch_verified * u.batch_sig_s;
  const double crypto_s =
      (static_cast<double>(live.calls.verifies) - batch_verified) * u.verify_s +
      crypto_connect_s + static_cast<double>(live.calls.signs) * u.sign_s;
  const double analysis_s = static_cast<double>(live.deploys) * executions * u.deploy_verify_s;
  const double execute_connect_s = blocks * replicas * u.execute_s;
  const double execute_s = blocks * executions * u.execute_s;
  const double vm_s = std::max(0.0, execute_s - analysis_s);
  const double root_template_s = blocks * static_cast<double>(live.template_per_block) * 2 *
                                 root_mean;
  const double state_root_s = root_sum + root_template_s;
  const double store_s = live.calls.fsync_s + blocks * replicas * u.append_s;
  const double chain_rest_s =
      std::max(0.0, connect_s - crypto_connect_s - execute_connect_s - root_sum - store_s);
  const double sim_s = get(reg, "net_messages_delivered_total") * u.decode_s;
  const double core_s =
      platform ? gate_calls * std::max(0.0, u.admission_s - u.admission_verifies * u.verify_s)
               : 0.0;

  struct Row {
    const char* layer;
    double seconds;
    const char* how;
  };
  const std::vector<Row> rows{
      {"crypto", crypto_s,
       "ECDSA verifies x verify_us (batched ones at batch wall) + signs x sign_us"},
      {"chain", chain_rest_s + state_root_s,
       "block_connect spans minus their priced parts, plus state-root updates (live histogram) "
       "and template trie roll/unroll"},
      {"vm", vm_s, "block executions x replayed apply_block_body, minus analysis"},
      {"analysis", analysis_s, "deploy executions x verify_code"},
      {"core", core_s, "admission gate calls x replayed payload checks, minus their ECDSA"},
      {"sim", sim_s, "gossip deliveries x Block::decode"},
      {"store", store_s, "live fsync time + blocks x replicas x replayed append_block + write_tip"},
  };
  double attributed = 0.0;
  for (const Row& row : rows) {
    attributed += row.seconds;
    result.layer(std::string("share.") + row.layer, 100.0 * ratio(row.seconds, live.wall_s), "%");
  }
  // The layer prices are modelled (unit cost x live count), so they can add
  // up to more than the wall time; that is reported, not hidden in a share
  // below zero.
  const double attributed_pct = 100.0 * ratio(attributed, live.wall_s);
  const double unattributed = std::max(0.0, 100.0 - attributed_pct);
  result.layer("unattributed_share", unattributed, "%");
  result.info["attributed_pct"] = std::to_string(attributed_pct);
  if (attributed_pct > 100.0)
    result.info["over_attributed"] = "the layer prices sum to " + std::to_string(attributed_pct) +
                                     " % of the timed wall time";

  // Modelled, not measured as traced minus untraced wall time: both runs
  // record the same spans and counters in the timed phase, so what tracing
  // costs there is the span log itself, priced here as spans recorded x the
  // cost of one empty span.
  SpanLog probe;
  const double span_cost = unit_seconds([&] { SpanLog::Scope s(probe, "probe"); }, 0.01);
  result.layer("trace_overhead_pct",
               100.0 * ratio(static_cast<double>(live.spans_recorded) * span_cost, live.wall_s),
               "%");

  std::ofstream table(table_file);
  char line[256];
  std::snprintf(line, sizeof line, "workload %s: timed wall %.3f s, %llu blocks, %llu txs\n",
                in.workload.c_str(), live.wall_s, static_cast<unsigned long long>(live.blocks),
                static_cast<unsigned long long>(live.txs));
  table << line;
  for (const Row& row : rows) {
    std::snprintf(line, sizeof line, "  %-9s %9.3f s %6.1f %%  ", row.layer, row.seconds,
                  100.0 * ratio(row.seconds, live.wall_s));
    table << line << row.how << "\n";
  }
  std::snprintf(line, sizeof line, "  %-9s %9.3f s %6.1f %%\n", "(none)", live.wall_s - attributed,
                100.0 - attributed_pct);
  table << line;
  for (const auto& [name, metric] : result.per_layer) {
    std::snprintf(line, sizeof line, "  %-28s %14.4f %s\n", name.c_str(), metric.value,
                  metric.unit.c_str());
    table << line;
  }
}

}  // namespace e2e
