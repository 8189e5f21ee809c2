#include "chain/blockchain.hpp"

#include <chrono>
#include <thread>

#include "chain/difficulty.hpp"
#include "chain/parallel_executor.hpp"
#include "chain/pow.hpp"
#include "crypto/batch_verify.hpp"
#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace sc::chain {

Blockchain::Blockchain(const GenesisConfig& genesis, telemetry::Telemetry* tel)
    : telemetry_(tel),
      state_cfg_(genesis.state_store),
      deep_verify_(genesis.deep_verify),
      sig_cache_(genesis.execution.sig_cache_capacity),
      dynamic_difficulty_(genesis.dynamic_difficulty) {
  if (state_cfg_.flatten_interval == 0) state_cfg_.flatten_interval = 1;

  unsigned lanes = genesis.execution.threads;
  if (lanes == 0) lanes = std::max(1u, std::thread::hardware_concurrency());
  // The submitting thread is a lane too, so a pool of lanes-1 workers gives
  // exactly `lanes` concurrent executors; one lane means sequential.
  if (lanes > 1) exec_pool_ = std::make_unique<util::ThreadPool>(lanes - 1);

  Block genesis_block;
  genesis_block.header.height = 0;
  genesis_block.header.timestamp = genesis.timestamp;
  genesis_block.header.difficulty = genesis.difficulty;
  genesis_block.seal_merkle_root();

  Entry entry;
  entry.cumulative_difficulty = 0;
  {
    JournaledState journal(tip_state_);
    for (const auto& [addr, amount] : genesis.allocations)
      journal.add_balance(addr, amount);
    entry.delta = journal.collect_delta();
    journal.commit(0);
  }
  // The genesis header commits the endowed state like any other block —
  // stamped before the id so allocations are part of the chain identity.
  commitment_.update(entry.delta, tip_state_);
  genesis_block.header.state_root = commitment_.root();
  entry.block = genesis_block;
  entry.arrival_order = arrival_counter_++;

  genesis_id_ = genesis_block.id();
  best_head_ = genesis_id_;
  tip_at_ = genesis_id_;
  flatten_into(entry);  // Genesis is always a materialization anchor.
  entries_.emplace(genesis_id_, std::move(entry));
  reindex_canonical();
}

// Defined where ThreadPool is complete (the header only forward-declares it).
Blockchain::~Blockchain() { close(); }

void Blockchain::close() {
  if (!store_) return;
  // Between submits the tip invariantly sits at the best head; make it so
  // explicitly in case a failed submit left it elsewhere.
  move_tip_to(best_head_);
  // A degraded store refuses the clean-shutdown records internally and just
  // closes its descriptors; the next open() scans the intact prefix.
  store_->on_close(best_height(), best_head_, tip_state_);
  store_.reset();
  store_degraded_ = false;
}

void Blockchain::detach_store() {
  // No on_close: the dirty-shutdown path. Descriptors close via destructors,
  // leaving the directory exactly as the last acknowledged write shaped it.
  store_.reset();
  store_degraded_ = false;
}

bool Blockchain::compact_store(std::uint64_t finality_depth, std::string* why) {
  if (!store_) return true;
  if (store_degraded_) {
    if (why) *why = "store is read-only (degraded)";
    return false;
  }
  // Keep: the whole canonical chain, plus any fork block close enough to the
  // tip that a reorg could still revive it. Genesis is rebuilt from config on
  // every open and is never a log record.
  const std::uint64_t tip_height = best_height();
  const std::uint64_t keep_floor =
      tip_height > finality_depth ? tip_height - finality_depth : 0;
  std::vector<Hash256> keep;
  keep.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) {
    const std::uint64_t height = entry.block.header.height;
    if (height == 0) continue;
    const bool canonical =
        height < canonical_.size() && canonical_[height] == id;
    if (canonical || height >= keep_floor) keep.push_back(id);
  }
  return store_->compact(keep, why);
}

void Blockchain::flatten_into(Entry& entry) {
  if (store_ && !store_degraded_) {
    // Durable node: the snapshot lives on disk and historic materialization
    // reads it back — per-block memory stays O(delta) no matter the chain
    // length (the honest-memory story in docs/performance.md).
    std::string why;
    store_->write_snapshot(entry.block.header.height, entry.block.id(),
                           tip_state_, &why);
  } else {
    // RAM-only chain — or a degraded store: post-degradation flatten heights
    // fall back to in-memory snapshots so historic materialization keeps its
    // anchors (pre-degradation disk snapshots stay readable).
    entry.snapshot = std::make_unique<WorldState>(tip_state_);
    snapshot_bytes_ += entry.snapshot->approx_bytes();
  }
  auto& tel = telemetry::resolve(telemetry_);
  tel.registry
      .counter("chain_delta_flattens_total",
               "Full state snapshots taken at flatten-interval heights")
      .inc();
  tel.registry
      .gauge("state_snapshot_bytes",
             "Approximate retained bytes of all full state snapshots")
      .set(static_cast<double>(snapshot_bytes_));
}

void Blockchain::move_tip_to(const Hash256& target) {
  if (tip_at_ == target) return;
  // Collect the deltas to unapply (tip side) and apply (target side) up to
  // the two branches' common ancestor.
  std::vector<const StateDelta*> undo, redo;
  Hash256 a = tip_at_;
  Hash256 b = target;
  const Entry* ea = &entries_.at(a);
  const Entry* eb = &entries_.at(b);
  while (ea->block.header.height > eb->block.header.height) {
    undo.push_back(&ea->delta);
    a = ea->block.header.prev_id;
    ea = &entries_.at(a);
  }
  while (eb->block.header.height > ea->block.header.height) {
    redo.push_back(&eb->delta);
    b = eb->block.header.prev_id;
    eb = &entries_.at(b);
  }
  while (a != b) {
    undo.push_back(&ea->delta);
    a = ea->block.header.prev_id;
    ea = &entries_.at(a);
    redo.push_back(&eb->delta);
    b = eb->block.header.prev_id;
    eb = &entries_.at(b);
  }
  // Each delta step also refreshes the touched leaves of the commitment from
  // the just-transitioned state — the trie rolls backward and forward in
  // O(changes · log n), same as the flat state.
  for (const StateDelta* delta : undo) {
    delta->unapply(tip_state_);
    commitment_.update(*delta, tip_state_);
  }
  for (auto it = redo.rbegin(); it != redo.rend(); ++it) {
    (*it)->apply(tip_state_);
    commitment_.update(**it, tip_state_);
  }
  tip_at_ = target;
}

void Blockchain::execute_block_body(const Block& block,
                                    std::vector<Receipt>* receipts,
                                    StateDelta* delta) {
  BlockEnv env;
  env.number = block.header.height;
  env.timestamp = block.header.timestamp;
  env.miner = block.header.miner;
  if (deep_verify_.enabled) env.deep_verify = &deep_verify_;
  JournaledState journal(tip_state_);
  std::vector<Receipt> r =
      exec_pool_ ? apply_block_body_parallel(journal, env, block.transactions,
                                             kBlockReward, *exec_pool_,
                                             telemetry_, &sig_cache_)
                 : apply_block_body(journal, env, block.transactions,
                                    kBlockReward, telemetry_, &sig_cache_);
  *delta = journal.collect_delta();
  journal.commit(0);
  if (receipts) *receipts = std::move(r);
}

bool Blockchain::seal_state_root(Block& block, std::string* why) {
  if (!entries_.contains(block.header.prev_id)) {
    if (why) *why = "unknown parent";
    return false;
  }
  move_tip_to(block.header.prev_id);
  StateDelta delta;
  execute_block_body(block, nullptr, &delta);
  commitment_.update(delta, tip_state_);
  block.header.state_root = commitment_.root();
  // Undo the speculative execution: state and trie roll back in O(changes).
  delta.unapply(tip_state_);
  commitment_.update(delta, tip_state_);
  move_tip_to(best_head_);
  return true;
}

bool Blockchain::submit_block(const Block& block, std::string* why, bool skip_pow) {
  auto& tel = telemetry::resolve(telemetry_);
  const auto connect_span = tel.tracer.span("chain.block_connect");

  auto fail = [&](const char* msg) {
    if (why) *why = msg;
    return false;
  };

  const Hash256 id = block.id();
  if (entries_.contains(id)) return fail("duplicate block");

  const auto parent_it = entries_.find(block.header.prev_id);
  if (parent_it == entries_.end()) return fail("unknown parent");
  const Entry& parent = parent_it->second;

  if (block.header.height != parent.block.header.height + 1)
    return fail("height mismatch");
  if (block.header.timestamp < parent.block.header.timestamp)
    return fail("timestamp regression");
  if (dynamic_difficulty_) {
    const std::uint64_t required =
        adjust_per_block(parent.block.header.difficulty,
                         parent.block.header.timestamp, block.header.timestamp,
                         RetargetConfig{});
    if (block.header.difficulty != required) return fail("wrong difficulty");
  }
  if (!block.merkle_consistent()) return fail("merkle root mismatch");
  // `id` was already computed for the duplicate check; reuse it instead of
  // re-hashing the header inside the PoW check.
  if (!skip_pow && !check_pow(block.header, id)) return fail("invalid proof of work");

  // Batch-verify the body's signatures through the verified-tx cache before
  // the per-transaction structural checks: uncached signatures fan out across
  // the worker pool (inline in sequential mode), successes land in the cache,
  // and every later check of these transactions — the validation loop below,
  // the executor, a competing fork carrying the same tx — is a cache hit.
  {
    std::vector<crypto::VerifyJob> jobs;
    std::vector<Hash256> job_keys;
    for (const Transaction& tx : block.transactions) {
      const Hash256 key = SigCache::key_of(tx);
      if (sig_cache_.contains(key)) continue;
      jobs.push_back({tx.sender_pubkey, tx.id(), tx.signature});
      job_keys.push_back(key);
    }
    const std::vector<bool> ok = crypto::batch_verify(jobs, exec_pool_.get());
    for (std::size_t i = 0; i < ok.size(); ++i)
      if (ok[i]) sig_cache_.insert(job_keys[i]);
    tel.registry
        .counter("chain_sig_batch_verified_total",
                 "Signatures verified by block-level batch pre-validation")
        .add(jobs.size());
  }

  for (const Transaction& tx : block.transactions) {
    SigVerdict verdict = SigVerdict::kVerified;
    if (!validate_transaction(tx, &sig_cache_, nullptr, &verdict))
      return fail("invalid transaction in body");
    if (verdict == SigVerdict::kCacheHit) {
      tel.registry
          .counter("chain_sig_cache_hits_total",
                   "Block-validation signature checks satisfied by the "
                   "verified-tx cache")
          .inc();
    }
  }

  // Execute journaled on the materialized tip, walked to the parent first
  // (a no-op when the block extends the current head). Only the block's net
  // diff is retained.
  Entry entry;
  entry.block = block;
  entry.cumulative_difficulty =
      parent.cumulative_difficulty + std::max<std::uint64_t>(1, block.header.difficulty);
  entry.arrival_order = arrival_counter_++;

  move_tip_to(block.header.prev_id);
  execute_block_body(block, &entry.receipts, &entry.delta);

  // Roll the commitment forward over the block's delta (timed: this is the
  // per-block O(changes · log n) cost bench/trie_bench quantifies) and
  // enforce that the header committed exactly this post-state. A wrong root
  // is a consensus violation: unwind state and trie and reject.
  {
    const auto t0 = std::chrono::steady_clock::now();
    commitment_.update(entry.delta, tip_state_);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - t0;
    tel.registry
        .histogram("state_root_update_seconds",
                   "Wall time of the incremental state-root update per "
                   "connected block",
                   telemetry::HistogramSpec::latency_seconds())
        .observe(elapsed.count());
  }
  if (block.header.state_root != commitment_.root()) {
    entry.delta.unapply(tip_state_);
    commitment_.update(entry.delta, tip_state_);
    move_tip_to(best_head_);
    return fail("state root mismatch");
  }
  tip_at_ = id;  // Tip now equals the new block's post-state.

  // Durability ordering: the block and its delta must be fsync'd in the log
  // before anything references them (snapshot, tip journal, our own return
  // value). A failed append that leaves the store writable unwinds the
  // in-memory connect so RAM never runs ahead of what disk can recover; a
  // failure that *degraded* the store to read-only instead keeps the
  // validated connect and flips the chain into RAM-only operation — the
  // replica stays available, serving and extending the chain, and rejoins
  // durability after a restart reopens the intact on-disk prefix.
  if (store_ && !store_degraded_ &&
      !store_->append_block(block, entry.delta, why)) {
    if (store_->read_only()) {
      store_degraded_ = true;
      tel.registry
          .counter("chain_store_degraded_total",
                   "Chains that fell back to RAM-only after a store write "
                   "failure")
          .inc();
      if (why) why->clear();
    } else {
      entry.delta.unapply(tip_state_);
      commitment_.update(entry.delta, tip_state_);
      tip_at_ = block.header.prev_id;
      move_tip_to(best_head_);
      return false;
    }
  }

  if (block.header.height % state_cfg_.flatten_interval == 0) flatten_into(entry);

  const Entry& current_best = entries_.at(best_head_);
  const bool better =
      entry.cumulative_difficulty > current_best.cumulative_difficulty;
  entries_.emplace(id, std::move(entry));
  tel.registry
      .counter("chain_blocks_connected_total", "Blocks validated and stored")
      .inc();
  if (better) {
    const Hash256 old_head = best_head_;
    best_head_ = id;
    if (block.header.prev_id == old_head) {
      // The common case — the head simply grew by one block. Appending to
      // the index keeps chain growth O(block), where the full rebuild would
      // make it quadratic in chain length.
      extend_canonical(id);
    } else {
      // A head switch that doesn't extend the previous head abandons part of
      // the old chain: count the event and how many blocks fell off.
      reindex_canonical();
      const std::uint64_t depth = reorg_depth(old_head);
      if (depth > 0) {
        tel.registry
            .counter("chain_reorgs_total", "Canonical head switches to a competing fork")
            .inc();
        tel.registry
            .counter("chain_reorged_blocks_total",
                     "Blocks abandoned by canonical head switches")
            .add(depth);
      }
    }
  } else {
    // The block lost fork choice: walk the tip back to the canonical head.
    move_tip_to(best_head_);
  }
  // Journal the (possibly unchanged) canonical head last: a tip record never
  // points at bytes that were not durable first. Only after this fsync is the
  // block acknowledged. A tip failure that degraded the store follows the
  // same availability-over-durability fallback as the append path: the block
  // is connected and acknowledged, just not durably journaled.
  if (store_ && !store_degraded_ &&
      !store_->write_tip(best_height(), best_head_, why)) {
    if (!store_->read_only()) return false;
    store_degraded_ = true;
    tel.registry
        .counter("chain_store_degraded_total",
                 "Chains that fell back to RAM-only after a store write "
                 "failure")
        .inc();
    if (why) why->clear();
  }
  tel.registry
      .gauge("state_accounts", "Accounts in the canonical-head state")
      .set(static_cast<double>(tip_state_.account_count()));
  tel.registry
      .gauge("state_trie_nodes",
             "Nodes (leaves + branches) across the account and storage "
             "commitment tries")
      .set(static_cast<double>(commitment_.node_count()));
  return true;
}

std::uint64_t Blockchain::reorg_depth(const Hash256& old_head) const {
  // Walk the abandoned head's ancestry until it rejoins the (already
  // reindexed) canonical chain.
  std::uint64_t depth = 0;
  Hash256 cursor = old_head;
  while (true) {
    const auto it = entries_.find(cursor);
    if (it == entries_.end()) break;
    const std::uint64_t height = it->second.block.header.height;
    if (height < canonical_.size() && canonical_[height] == cursor) break;
    ++depth;
    if (height == 0) break;
    cursor = it->second.block.header.prev_id;
  }
  return depth;
}

std::uint64_t Blockchain::best_height() const {
  return entries_.at(best_head_).block.header.height;
}

const WorldState& Blockchain::best_state() const {
  // Invariant: between submit_block calls the tip sits at the best head.
  return tip_state_;
}

const WorldState* Blockchain::state_of(const Hash256& block_id) const {
  const auto it = entries_.find(block_id);
  if (it == entries_.end()) return nullptr;
  auto& tel = telemetry::resolve(telemetry_);
  auto cache_outcome = [&](const char* name, const char* help) {
    tel.registry.counter(name, help).inc();
  };
  if (it->second.snapshot) {
    cache_outcome("chain_state_cache_hit_total",
                  "state_of lookups served by a retained snapshot or cached "
                  "materialization");
    return it->second.snapshot.get();
  }
  if (const auto cached = state_cache_.find(block_id); cached != state_cache_.end()) {
    cache_outcome("chain_state_cache_hit_total",
                  "state_of lookups served by a retained snapshot or cached "
                  "materialization");
    return &cached->second;
  }
  cache_outcome("chain_state_cache_miss_total",
                "state_of lookups that had to materialize from an ancestor "
                "snapshot by delta replay");

  // Materialize: copy the nearest ancestor snapshot — in memory, or on disk
  // when a store is attached — and replay deltas forward.
  std::vector<const StateDelta*> path;
  const Entry* entry = &it->second;
  Hash256 cursor = block_id;
  WorldState state;
  while (true) {
    if (entry->snapshot) {
      state = *entry->snapshot;
      break;
    }
    if (store_ && store_->load_snapshot(cursor, &state)) break;
    path.push_back(&entry->delta);
    cursor = entry->block.header.prev_id;
    entry = &entries_.at(cursor);
  }
  for (auto delta = path.rbegin(); delta != path.rend(); ++delta)
    (*delta)->apply(state);

  if (state_cfg_.max_cached_states > 0 &&
      state_cache_.size() >= state_cfg_.max_cached_states) {
    state_cache_.erase(state_cache_order_.front());
    state_cache_order_.erase(state_cache_order_.begin());
  }
  const auto [inserted, fresh] = state_cache_.emplace(block_id, std::move(state));
  if (fresh) state_cache_order_.push_back(block_id);
  return &inserted->second;
}

void Blockchain::prune_state_cache() const {
  state_cache_.clear();
  state_cache_order_.clear();
}

const Block* Blockchain::block(const Hash256& id) const {
  const auto it = entries_.find(id);
  return it == entries_.end() ? nullptr : &it->second.block;
}

const Block* Blockchain::block_at(std::uint64_t height) const {
  if (height >= canonical_.size()) return nullptr;
  return block(canonical_[height]);
}

const std::vector<Receipt>* Blockchain::receipts(const Hash256& block_id) const {
  const auto it = entries_.find(block_id);
  return it == entries_.end() ? nullptr : &it->second.receipts;
}

const StateDelta* Blockchain::delta_of(const Hash256& block_id) const {
  const auto it = entries_.find(block_id);
  return it == entries_.end() ? nullptr : &it->second.delta;
}

bool Blockchain::is_confirmed(const Hash256& block_id, std::uint64_t depth) const {
  const auto it = entries_.find(block_id);
  if (it == entries_.end()) return false;
  const std::uint64_t height = it->second.block.header.height;
  if (height >= canonical_.size() || canonical_[height] != block_id) return false;
  return best_height() >= height + depth;
}

std::optional<TxLocation> Blockchain::find_transaction(const Hash256& tx_id) const {
  const auto& index = tx_index();
  const auto it = index.find(tx_id);
  if (it == index.end()) return std::nullopt;
  return it->second;
}

const Receipt* Blockchain::receipt_of(const Hash256& tx_id) const {
  const auto loc = find_transaction(tx_id);
  if (!loc) return nullptr;
  const auto* block_receipts = receipts(loc->block_id);
  if (!block_receipts || loc->index >= block_receipts->size()) return nullptr;
  return &(*block_receipts)[loc->index];
}

bool Blockchain::tx_confirmed(const Hash256& tx_id, std::uint64_t depth) const {
  const auto loc = find_transaction(tx_id);
  return loc && is_confirmed(loc->block_id, depth);
}

std::uint64_t Blockchain::required_difficulty(std::uint64_t child_timestamp) const {
  const Entry& head = entries_.at(best_head_);
  return adjust_per_block(head.block.header.difficulty, head.block.header.timestamp,
                          child_timestamp, RetargetConfig{});
}

Block Blockchain::build_block_template(const Address& miner, std::uint64_t timestamp,
                                       std::uint64_t difficulty,
                                       std::vector<Transaction> txs) {
  const Entry& head = entries_.at(best_head_);
  Block block;
  block.header.height = head.block.header.height + 1;
  block.header.prev_id = best_head_;
  block.header.timestamp = std::max(timestamp, head.block.header.timestamp);
  block.header.difficulty = dynamic_difficulty_
                                ? required_difficulty(block.header.timestamp)
                                : difficulty;
  block.header.miner = miner;
  block.transactions = std::move(txs);
  block.seal_merkle_root();
  seal_state_root(block);  // Parent is the best head; always succeeds.
  return block;
}

std::vector<std::pair<TxLocation, const Transaction*>> Blockchain::protocol_records(
    ProtocolKind kind) const {
  std::vector<std::pair<TxLocation, const Transaction*>> out;
  for (std::uint64_t h = 0; h < canonical_.size(); ++h) {
    const Block* blk = block(canonical_[h]);
    for (std::size_t i = 0; i < blk->transactions.size(); ++i) {
      const Transaction& tx = blk->transactions[i];
      if (tx.protocol == kind)
        out.push_back({TxLocation{canonical_[h], h, i}, &tx});
    }
  }
  return out;
}

void Blockchain::extend_canonical(const Hash256& id) {
  // Only valid when `id`'s parent is the current canonical head; height was
  // validated as parent+1, so it lands exactly at canonical_.size().
  canonical_.push_back(id);
  if (tx_index_stale_) return;  // the rebuild will cover this block
  const Block* blk = block(id);
  const std::uint64_t h = canonical_.size() - 1;
  for (std::size_t i = 0; i < blk->transactions.size(); ++i)
    tx_index_[blk->transactions[i].id()] = TxLocation{id, h, i};
}

void Blockchain::reindex_canonical() {
  canonical_.clear();
  tx_index_.clear();
  tx_index_stale_ = true;
  // Walk back from the head to genesis.
  Hash256 cursor = best_head_;
  std::vector<Hash256> reversed;
  while (true) {
    reversed.push_back(cursor);
    const Entry& entry = entries_.at(cursor);
    if (entry.block.header.height == 0) break;
    cursor = entry.block.header.prev_id;
  }
  canonical_.assign(reversed.rbegin(), reversed.rend());
}

const std::unordered_map<Hash256, TxLocation>& Blockchain::tx_index() const {
  if (tx_index_stale_) {
    for (std::uint64_t h = 0; h < canonical_.size(); ++h) {
      const Block* blk = block(canonical_[h]);
      for (std::size_t i = 0; i < blk->transactions.size(); ++i)
        tx_index_[blk->transactions[i].id()] = TxLocation{canonical_[h], h, i};
    }
    tx_index_stale_ = false;
  }
  return tx_index_;
}

}  // namespace sc::chain
