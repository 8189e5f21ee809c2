// The traced run's per-layer split.
//
// Some calls happen inside Platform or ConsensusCluster, where the benchmark
// cannot time them. For those layers the run's recorded work is replayed
// through the layer's public functions after the timed phase; the measured
// unit cost times the live count (from the program's registry, its tracer
// spans and the link-time call counters) prices the layer's share of the timed
// wall time. What no layer accounts for is reported as unattributed_share.
#pragma once

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "chain/blockchain.hpp"
#include "checks.hpp"
#include "harness.hpp"

namespace e2e {

/// What a workload's timed phase did, as measured live.
struct LiveWork {
  double wall_s = 0.0;         ///< Timed phase wall time.
  CallCounts calls;            ///< Wrapped calls during the timed phase.
  std::map<std::string, double> reg;  ///< Registry deltas over the timed phase.
  std::vector<sc::telemetry::TraceEvent> program_events;  ///< Program spans.
  std::uint64_t blocks = 0;    ///< Canonical blocks carrying transactions.
  std::uint64_t txs = 0;       ///< Transactions in those blocks.
  std::uint64_t deploys = 0;   ///< Deploy transactions among them...
  std::uint64_t deploy_gas = 0;  ///< ...and their gas_used / fees.
  Amount deploy_fees = 0;
  std::uint64_t reports = 0;   ///< Report (R†, R*, registry call) transactions...
  std::uint64_t report_gas = 0;
  Amount report_fees = 0;
  std::uint64_t replicas = 1;  ///< Chains that connect every block.
  /// Extra executions per block before the connects: 1 when the producer's
  /// template executed the body first (a mining node), else 0.
  std::uint64_t template_per_block = 0;
  unsigned lanes = 1;          ///< Execution lanes of the connecting chains.
  /// Admission-gate calls on protocol payloads (Platform only): admitted
  /// SRA/R†/R* transactions plus those the gate refused.
  std::uint64_t gate_calls = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t spans_recorded = 0;  ///< Benchmark spans in the timed phase.
  double reopen_s = 0.0;             ///< Blockchain::open replay (median).
  std::uint64_t reopen_blocks = 0;   ///< Blocks that replay read back.
};

/// Replay material: a canonical block of the run, its parent's post-state
/// and the delta it applied.
struct ReplaySample {
  sc::chain::Block block;
  sc::chain::WorldState parent;
  sc::chain::StateDelta delta;
};

struct PricingInput {
  std::string workload;
  LiveWork live;
  std::vector<ReplaySample> samples;
  std::vector<sc::chain::Transaction> protocol_txs;  ///< SRA/R†/R* samples.
  std::filesystem::path work_dir;
};

/// Adds the canonical blocks (from, to] of `chain` to `live`: transactions,
/// deploys and report calls (R†/R* selectors) with their gas and fees. Up to
/// 300 protocol-carrying transactions are appended to `protocol_txs`.
void tally_blocks(const sc::chain::Blockchain& chain, std::uint64_t from, std::uint64_t to,
                  LiveWork& live, std::vector<sc::chain::Transaction>& protocol_txs);
/// Up to ~40 evenly spaced canonical blocks of (from, to] as replay samples.
void sample_blocks(const sc::chain::Blockchain& chain, std::uint64_t from, std::uint64_t to,
                   std::vector<ReplaySample>& out);

/// Fills result.per_layer with every per-layer metric (0 where a layer did
/// no work in this workload) and writes the layer table next to the trace.
void price_layers(const PricingInput& input, Result& result,
                  const std::filesystem::path& table_file);

}  // namespace e2e
