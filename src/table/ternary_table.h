// Ternary (TCAM) table with per-entry masks and priorities.
//
// Hardware searches all rows in parallel and a priority encoder picks the
// winner. The behavioral model groups entries into buckets keyed by their
// exact mask: each bucket precomputes its mask words and each entry its
// masked-key words, so a probe is a handful of uint64 compares instead of a
// byte-wise MatchesUnderMask over every entry. Buckets whose best priority
// cannot beat the current winner are skipped whole. The winner is the same
// entry the old flat priority-ordered scan would pick: highest priority,
// ties broken by insertion order. Masks live in the TCAM blocks' mask
// planes, as before.
//
// Concurrency: lookups read an immutable published View (a snapshot of
// shared_ptr'd buckets) under an RCU epoch pin. The writer mutates a bucket
// copy-on-write — cloning it only while a published view still references
// it — and republishes the View with one atomic swap. Between
// BeginBatch/EndBatch publication is deferred so a bulk frame becomes
// visible (and pays its grace period) once.
#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "table/rcu.h"
#include "table/table.h"

namespace ipsa::table {

class TernaryTable : public MatchTable {
 public:
  TernaryTable(TableSpec spec, mem::Pool& pool, mem::LogicalTable storage);
  ~TernaryTable() override;

  Status Erase(const Entry& entry) override;
  void LookupInto(const mem::BitString& key, LookupResult& out) const override;
  void RefreshCache() override;

 protected:
  Status InsertOp(const Entry& entry, bool upsert) override;

 private:
  struct IndexEntry {
    uint32_t priority;
    uint64_t seq;  // global insertion order, for priority ties
    uint32_t row;
    mem::BitString key;  // original key bits, for erase identity
    std::vector<uint64_t> masked_key;  // key & bucket mask, word-wise
    CachedAction action;
  };

  // All entries sharing one exact mask, sorted by (priority desc, seq asc).
  struct MaskBucket {
    mem::BitString mask;
    std::vector<uint64_t> mask_words;
    uint32_t max_priority = 0;  // of entries, for whole-bucket skips
    std::vector<IndexEntry> entries;
  };

  // Immutable lookup snapshot; reclaimed via the rcu::Domain. Buckets are
  // shared with the writer list until the writer needs to mutate one.
  struct View {
    std::vector<std::shared_ptr<const MaskBucket>> buckets;
  };

  int FindBucket(const mem::BitString& mask) const;
  // The writer-side bucket at `idx`, cloned first if any published view
  // still shares it (use_count observed > 1 is a safe over-approximation;
  // an undercount only happens once the old view's grace period elapsed).
  MaskBucket* MutableBucket(size_t idx);
  void Publish() override;
  static std::vector<uint64_t> Words(const mem::BitString& bits);

  std::vector<std::shared_ptr<MaskBucket>> buckets_;  // writer-side
  std::atomic<const View*> published_{nullptr};
  std::vector<uint32_t> free_rows_;
  uint64_t next_seq_ = 0;
  bool dirty_ = false;
};

}  // namespace ipsa::table
