// Exact-match table: a sharded, RCU-published hash index over pool rows.
//
// The software index is a chained hash table partitioned into
// hash-addressed shards (hardware would use cuckoo/d-left hashing over the
// identical SRAM rows). Bucket arrays are pre-sized from the table spec and
// never resize, so an insert is O(chain) with no rehash ever — million-entry
// bulk population stays flat. Chains follow the RCU discipline: nodes are
// immutable once published, a mutation copies the affected chain prefix and
// swaps the bucket head atomically, and unlinked nodes are retired to the
// global rcu::Domain. Lookups pin an epoch, walk one chain with acquire
// loads, and never take a lock or observe a half-updated entry.
#pragma once

#include <atomic>
#include <string>
#include <string_view>
#include <vector>

#include "table/rcu.h"
#include "table/table.h"
#include "util/hash.h"

namespace ipsa::table {

class ExactTable : public MatchTable {
 public:
  ExactTable(TableSpec spec, mem::Pool& pool, mem::LogicalTable storage);
  ~ExactTable() override;

  Status Erase(const Entry& entry) override;
  void LookupInto(const mem::BitString& key, LookupResult& out) const override;
  void RefreshCache() override;

  uint32_t shard_count() const {
    return static_cast<uint32_t>(shards_.size());
  }

 protected:
  Status InsertOp(const Entry& entry, bool upsert) override;

 private:
  // View over the key bytes; the index is probed transparently so the
  // per-packet Lookup never materialises a std::string.
  static std::string_view KeyOf(const mem::BitString& key) {
    return std::string_view(reinterpret_cast<const char*>(key.bytes().data()),
                            key.byte_size());
  }

  // One published chain node. Immutable after its bucket head (or a
  // predecessor's next) release-stores a pointer to it; `next` is atomic
  // only so concurrent readers may traverse while a successor chain is
  // being republished.
  struct Node {
    std::atomic<Node*> next{nullptr};
    uint32_t row = 0;
    CachedAction action;
    std::string key;
  };

  struct Shard {
    std::vector<std::atomic<Node*>> buckets;
    uint32_t bucket_mask = 0;
  };

  Shard& ShardOf(size_t hash) { return shards_[hash & shard_mask_]; }
  std::atomic<Node*>& BucketOf(Shard& s, size_t hash) {
    return s.buckets[(hash >> shard_bits_) & s.bucket_mask];
  }

  // Republishes `bucket` with `remove` unlinked and (optionally) `add` at
  // the head: copies the chain prefix up to `remove`, links the copy to its
  // suffix, swaps the head, retires the replaced nodes.
  void RepublishBucket(std::atomic<Node*>& bucket, const Node* remove,
                       Node* add);
  // Chains publish per op; a batch only defers the grace period.
  void Publish() override { rcu::Domain::Global().Synchronize(); }

  std::vector<Shard> shards_;
  uint32_t shard_mask_ = 0;
  uint32_t shard_bits_ = 0;
  std::vector<uint32_t> free_rows_;  // LIFO free list (writer-only)
};

}  // namespace ipsa::table
