#pragma once
// Sharded, copy-on-write embedding store: the one store the serving
// path publishes into. Sequential OS-ELM training touches only
// O(walk + negatives) rows per insertion, so republishing the full
// n x dims matrix on every snapshot would dominate publish cost at
// scale; this store publishes row deltas instead. `num_shards` is a
// config value: the default single shard serves small graphs, and more
// shards bound the per-publish swap and index-refresh work on large
// ones.
//
// Design:
//  * The node range [0, n) is split into `num_shards` contiguous
//    ranges; each shard has its own RCU head —
//    std::atomic<std::shared_ptr<const ShardSnapshot>> — swapped
//    independently, so a publish only touches the shards whose rows
//    changed.
//  * A ShardSnapshot is immutable and row-granular copy-on-write: it
//    holds one `const float*` per local row plus shared ownership of
//    the buffers those pointers reference. A delta publish allocates
//    one compact buffer for the touched rows, clones the (cheap)
//    pointer table of each affected shard, and repoints only the
//    touched entries — every untouched row is shared with the previous
//    snapshot, so a publish deep-copies exactly the touched rows:
//    O(touched x dims) instead of O(n x dims).
//  * Compaction is scheduled by cost, off the common publish path: a
//    shard is re-packed into one contiguous buffer only once the delta
//    rows appended since its base amortize the O(shard) repack
//    (Config::compact_cost_factor), or its changed-row overlay exceeds
//    Config::max_overlay_fraction of the shard, or — as a memory
//    backstop — its buffer chain exceeds Config::max_delta_chain. The
//    common publish stays O(touched); the earlier eager chain-depth
//    trigger re-packed shards on nearly every publish at high cadence
//    (~90 compactions per 100 publishes at bench scale).
//
// Consistency contract:
//  * Readers acquire a shard head with one atomic load and never block
//    publishers. A ShardSnapshot is internally consistent: every row
//    reflects a state the shard actually passed through at
//    `ShardSnapshot::version`, and no row is ever torn.
//  * Store versions are strictly monotonic; a shard's head version only
//    moves forward. A multi-shard view() taken while a publisher runs
//    may mix shard versions (shard A at v, shard B at v+1) — each shard
//    is still internally consistent, and per-shard versions never go
//    backwards. Queries that fan out across shards therefore serve
//    bounded-staleness reads, which is the intended serving semantic.
//
// Implements SnapshotSink: on_delta(touched) republishes O(touched)
// rows via EmbeddingModel::extract_rows; on_snapshot (and the first
// publication into an empty store) publishes the full matrix.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "embedding/trainer.hpp"
#include "linalg/matrix.hpp"

namespace seqge::serve {

/// How the node range maps onto shards: shard s owns the contiguous
/// local rows [begin(s), begin(s) + rows(s)). Fixed by the first
/// publish; later publishes must keep the same shape.
struct ShardLayout {
  std::size_t num_shards = 1;
  std::size_t num_rows = 0;
  std::size_t rows_per_shard = 0;  ///< ceil(num_rows / num_shards)

  [[nodiscard]] std::size_t shard_of(NodeId row) const noexcept {
    return static_cast<std::size_t>(row) / rows_per_shard;
  }
  [[nodiscard]] std::size_t begin(std::size_t s) const noexcept {
    return std::min(num_rows, s * rows_per_shard);
  }
  [[nodiscard]] std::size_t rows(std::size_t s) const noexcept {
    return std::min(num_rows, (s + 1) * rows_per_shard) - begin(s);
  }
};

/// One immutable published version of one shard. Rows are exposed
/// through a pointer table so a delta publish can share every untouched
/// row with its predecessor; `buffers` keeps every referenced buffer
/// alive for as long as any reader holds the snapshot.
struct ShardSnapshot {
  std::uint64_t version = 0;       ///< store version of this shard's last change
  std::uint64_t base_version = 0;  ///< store version of the last rebase
                                   ///< (full publish or compaction)
  std::uint32_t row_begin = 0;     ///< global id of local row 0
  std::uint32_t dims = 0;

  /// local row -> row data (dims floats). Pointers stay valid for the
  /// snapshot's lifetime (backed by `buffers`).
  std::vector<const float*> row_ptr;
  std::vector<std::shared_ptr<const MatrixF>> buffers;

  /// Delta rows appended onto this shard since `base_version`, counted
  /// with multiplicity (a row re-published twice counts twice) — the
  /// cost-model input for compaction scheduling: once this reaches
  /// compact_cost_factor x shard rows, the O(shard) repack is amortized
  /// by the delta volume it absorbs.
  std::uint64_t delta_rows_since_base = 0;

  /// Local rows changed since `base_version`, ascending and unique
  /// (empty for a fresh base). A superset of the rows changed since any
  /// intermediate version >= base_version — what incremental index
  /// maintenance (ShardedQueryEngine) diffs against.
  std::vector<std::uint32_t> changed_since_base;

  /// Tombstone bitmap: dead[local] != 0 marks a row whose node was
  /// deleted from the graph — query engines must skip it. Empty (the
  /// common, insert-only case) means no tombstones; when non-empty its
  /// size is num_rows(). Row data stays in place (and in checkpoints):
  /// only visibility changes, so a later revive is again a bitmap flip.
  std::vector<std::uint8_t> dead;

  [[nodiscard]] std::size_t num_rows() const noexcept {
    return row_ptr.size();
  }
  [[nodiscard]] std::span<const float> row(std::size_t local) const noexcept {
    return {row_ptr[local], dims};
  }
  [[nodiscard]] bool tombstoned(std::size_t local) const noexcept {
    return !dead.empty() && dead[local] != 0;
  }
  /// Delta buffers stacked on the base (compaction trigger input).
  [[nodiscard]] std::size_t delta_chain() const noexcept {
    return buffers.empty() ? 0 : buffers.size() - 1;
  }
};

class ShardedEmbeddingStore final : public SnapshotSink {
 public:
  struct Config {
    std::size_t num_shards = 1;
    /// Memory backstop: compact a shard once its buffer chain exceeds
    /// this many deltas regardless of cost. High by default — the cost
    /// trigger below is meant to fire long before this does.
    std::size_t max_delta_chain = 512;
    /// Compact once a shard's changed-row overlay exceeds this fraction
    /// of its rows (bounds incremental index-refresh work).
    double max_overlay_fraction = 0.5;
    /// Cost trigger: compact once the delta rows appended since the
    /// shard's base reach this multiple of the shard's rows — the
    /// O(shard) repack is then amortized across at least that much
    /// published delta volume. <= 0 disables the cost trigger (chain
    /// and overlay backstops still apply).
    double compact_cost_factor = 1.0;
  };

  explicit ShardedEmbeddingStore(Config cfg);
  explicit ShardedEmbeddingStore(std::size_t num_shards = 1)
      : ShardedEmbeddingStore(Config{num_shards}) {}
  ShardedEmbeddingStore(const ShardedEmbeddingStore&) = delete;
  ShardedEmbeddingStore& operator=(const ShardedEmbeddingStore&) = delete;

  // --- publishing ---------------------------------------------------------
  /// Full publish: takes ownership of the matrix, rebases every shard
  /// onto it (one shared buffer, no further copying). The first publish
  /// fixes the layout; later publishes must match it. Publishers are
  /// serialized; readers never block. Returns the assigned version.
  std::uint64_t publish(MatrixF embedding, std::uint64_t walks_trained = 0,
                        std::string producer = {});

  /// Delta publish: row `touched[i]` takes the value rows.row(i); every
  /// other row is carried over by reference. `touched` must be strictly
  /// ascending, in range, with rows.rows() == touched.size() and
  /// rows.cols() == dims. Only shards containing touched rows get a new
  /// snapshot (untouched shard heads are not even swapped). Cost —
  /// and rows_copied() growth — is O(touched x dims) plus any amortized
  /// compaction. Throws std::logic_error before the first full publish.
  std::uint64_t publish_delta(std::span<const NodeId> touched, MatrixF rows,
                              std::uint64_t walks_trained = 0,
                              std::string producer = {});

  /// Tombstone publish (replace semantics): `nodes` — strictly
  /// ascending, unique, in range — becomes the complete set of dead
  /// rows; every other row is (re)served. Copies ZERO embedding rows:
  /// each affected shard's snapshot is cloned with only its `dead`
  /// bitmap replaced (row pointers, buffers, overlay, and base_version
  /// are shared/carried), so readers pick up visibility at the next
  /// head load and incremental index refresh sees no row changes.
  /// Shards whose bitmap is unchanged are not swapped, and a call that
  /// changes no shard returns the current version without taking a new
  /// one (an insert-only stream's flushes publish nothing here). A delta
  /// publish revives any touched row (clears its bit); a full publish
  /// clears every bit — producers with live deletions must republish
  /// the dead set after full publishes (the StreamTrainer does, every
  /// flush). Throws std::logic_error before the first full publish.
  std::uint64_t publish_tombstones(std::span<const NodeId> nodes,
                                   std::string producer = {});

  // --- SnapshotSink -------------------------------------------------------
  /// Full republish via model.extract_embedding().
  void on_snapshot(const EmbeddingModel& model,
                   const TrainStats& stats) override;
  /// Delta republish via model.extract_rows(touched) — O(touched).
  /// Falls back to a full publish when the store is empty (no base
  /// yet) or the delta covers half the rows or more (at that size a
  /// full rebase is cheaper and resets every shard's overlay).
  void on_delta(const EmbeddingModel& model, const TrainStats& stats,
                std::span<const NodeId> touched_rows) override;
  /// publish_tombstones(nodes); ignored before the first publish (an
  /// empty store serves nothing anyway).
  void on_tombstone(std::span<const NodeId> nodes) override;

  // --- reads (lock-free) --------------------------------------------------
  [[nodiscard]] std::size_t num_shards() const noexcept {
    return cfg_.num_shards;
  }
  /// Rows across all shards (0 before the first publish).
  [[nodiscard]] std::size_t num_rows() const noexcept {
    return num_rows_.load(std::memory_order_acquire);
  }
  /// The node-range partitioning — the single source of truth for
  /// node -> shard mapping (ShardedQueryEngine routes through it).
  /// Call only after observing version() > 0 (the acquire there pairs
  /// with the first publish's release, making layout_ visible); fixed
  /// for the store's lifetime after the first publish.
  [[nodiscard]] ShardLayout layout() const noexcept {
    const std::size_t rows = num_rows();  // acquire first
    ShardLayout copy = layout_;
    copy.num_rows = rows;
    return copy;
  }
  /// Head snapshot of one shard (nullptr before the first publish). One
  /// atomic load; the caller's reference keeps it alive.
  [[nodiscard]] std::shared_ptr<const ShardSnapshot> shard(
      std::size_t s) const noexcept {
    return heads_[s].load(std::memory_order_acquire);
  }
  /// All shard heads (empty before the first publish). Taken shard by
  /// shard, so versions may skew across shards under concurrent
  /// publishing — see the consistency contract above.
  [[nodiscard]] std::vector<std::shared_ptr<const ShardSnapshot>> view()
      const;

  /// Latest assigned store version (strictly monotonic, 0 = empty).
  [[nodiscard]] std::uint64_t version() const noexcept {
    return version_.load(std::memory_order_acquire);
  }
  /// Producer progress reported with the latest publish.
  [[nodiscard]] std::uint64_t walks_trained() const noexcept {
    return walks_trained_.load(std::memory_order_acquire);
  }
  /// Producer name reported with the latest publish (for observability).
  [[nodiscard]] std::string producer() const;
  /// Block until version() >= v; false on timeout.
  bool wait_for_version(std::uint64_t v,
                        std::chrono::milliseconds timeout) const;

  // --- instrumentation (cumulative, relaxed reads) ------------------------
  /// Embedding rows deep-copied by publishes: the full matrix per
  /// publish()/on_snapshot, the touched rows per delta, plus shard rows
  /// re-packed by compactions. The publish-cost metric the delta
  /// regression test and bench_serving gate on.
  [[nodiscard]] std::uint64_t rows_copied() const noexcept {
    return rows_copied_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t shards_swapped() const noexcept {
    return shards_swapped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t compactions() const noexcept {
    return compactions_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t full_publishes() const noexcept {
    return full_publishes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t delta_publishes() const noexcept {
    return delta_publishes_.load(std::memory_order_relaxed);
  }
  /// Rows currently tombstoned across all shards (after the latest
  /// tombstone/delta/full publish).
  [[nodiscard]] std::uint64_t tombstoned_rows() const noexcept {
    return tombstoned_rows_.load(std::memory_order_relaxed);
  }

  // --- checkpoint persistence ---------------------------------------------
  /// Contiguous copy of the current per-shard heads. Intended for
  /// checkpointing a quiescent store; under concurrent publishing the
  /// copy may mix shard versions (each shard internally consistent).
  [[nodiscard]] MatrixF materialize() const;
  /// Write materialize() in the binary checkpoint format
  /// (embedding/checkpoint.hpp) — loadable by any store shape, the CPU
  /// models, and the FPGA accelerator alike. Throws if empty.
  void save(std::ostream& os) const;
  void save(const std::string& path) const;
  /// Read a checkpoint and publish it as the next (full) version.
  std::uint64_t load(std::istream& is, std::string producer = "checkpoint");
  std::uint64_t load(const std::string& path);

 private:
  using Head = std::atomic<std::shared_ptr<const ShardSnapshot>>;

  /// Rebase every shard onto `base` at `version` (publish lock held).
  void rebase_all(std::shared_ptr<const MatrixF> base, std::uint64_t version);
  /// Compacted successor of `old_snap` with `fresh` applied on top.
  std::shared_ptr<ShardSnapshot> compact_shard(
      const ShardSnapshot& old_snap, std::uint64_t version,
      std::span<const std::uint32_t> local_touched, const MatrixF& rows,
      std::size_t rows_offset);
  /// Clear the dead bits of republished rows (a delta to a tombstoned
  /// row revives it) and keep the global tombstone count in sync.
  void revive_rows(ShardSnapshot& snap,
                   std::span<const std::uint32_t> local_touched);

  Config cfg_;
  ShardLayout layout_;  // written once under publish_mutex_ (first publish)
  std::unique_ptr<Head[]> heads_;
  std::atomic<std::size_t> num_rows_{0};
  std::atomic<std::uint64_t> version_{0};
  std::atomic<std::uint64_t> walks_trained_{0};
  std::string producer_;  // guarded by publish_mutex_

  std::atomic<std::uint64_t> rows_copied_{0};
  std::atomic<std::uint64_t> shards_swapped_{0};
  std::atomic<std::uint64_t> compactions_{0};
  std::atomic<std::uint64_t> full_publishes_{0};
  std::atomic<std::uint64_t> delta_publishes_{0};
  std::atomic<std::uint64_t> tombstoned_rows_{0};

  // Serializes publishers and backs wait_for_version; readers never
  // take this mutex.
  mutable std::mutex publish_mutex_;
  mutable std::condition_variable version_cv_;
};

}  // namespace seqge::serve
