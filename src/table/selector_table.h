// Hash/selector table — the mechanism behind the paper's ECMP use case
// (Fig. 5a: `key = { meta.nexthop: hash; ipv4.dst_addr: hash; }`).
//
// All key fields are hash inputs: lookup CRC-hashes the key and indexes one
// of the populated buckets, so packets of one flow always pick the same
// bucket while distinct flows spread across them. The controller programs
// buckets with `Entry.key` = bucket index.
//
// Concurrency: the populated-member list and decoded actions live in an
// immutable published View (selector groups are small — a full snapshot per
// publish is cheap); lookups read it under an RCU epoch pin, so a member
// add/remove swaps the whole group atomically and a flow never hashes into
// a half-updated member set.
#pragma once

#include <atomic>
#include <vector>

#include "table/rcu.h"
#include "table/table.h"

namespace ipsa::table {

class SelectorTable : public MatchTable {
 public:
  SelectorTable(TableSpec spec, mem::Pool& pool, mem::LogicalTable storage);
  ~SelectorTable() override;

  Status Erase(const Entry& entry) override;
  // Hashes `key` over the populated buckets.
  void LookupInto(const mem::BitString& key, LookupResult& out) const override;
  void RefreshCache() override;

  uint32_t BucketCount() const {
    return static_cast<uint32_t>(populated_.size());
  }

 protected:
  // entry.key holds the bucket index (low bits); upserts overwrite the
  // member, strict adds fail on an already-populated bucket.
  Status InsertOp(const Entry& entry, bool upsert) override;

 private:
  struct Member {
    uint32_t row = 0;
    CachedAction action;
  };
  struct View {
    std::vector<Member> members;  // ascending bucket order
  };

  void Publish() override;

  // Rows that currently hold a member, in ascending bucket order
  // (writer-side; lookups use the published snapshot).
  std::vector<uint32_t> populated_;
  std::atomic<const View*> published_{nullptr};
  bool dirty_ = false;
};

}  // namespace ipsa::table
