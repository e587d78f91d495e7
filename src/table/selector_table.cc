#include "table/selector_table.h"

#include <algorithm>

#include "util/hash.h"

namespace ipsa::table {

SelectorTable::SelectorTable(TableSpec spec, mem::Pool& pool,
                             mem::LogicalTable storage)
    : MatchTable(std::move(spec), pool, std::move(storage)) {
  published_.store(new View, std::memory_order_release);
}

SelectorTable::~SelectorTable() {
  delete published_.load(std::memory_order_relaxed);
}

void SelectorTable::Publish() {
  if (!dirty_) return;
  const View* old = published_.load(std::memory_order_relaxed);
  View* next = new View;
  next->members.reserve(populated_.size());
  for (uint32_t row : populated_) {
    next->members.push_back(Member{row, DecodeRow(row)});
  }
  published_.store(next, std::memory_order_release);
  rcu::Domain::Global().Retire(const_cast<View*>(old));
  dirty_ = false;
  rcu::Domain::Global().Synchronize();
}

Status SelectorTable::InsertOp(const Entry& entry, bool upsert) {
  uint64_t bucket = entry.key.ToUint64();
  if (bucket >= spec_.size) {
    return OutOfRange("selector table '" + spec_.name +
                      "': bucket index beyond table size");
  }
  uint32_t row = static_cast<uint32_t>(bucket);
  auto it = std::lower_bound(populated_.begin(), populated_.end(), row);
  bool present = it != populated_.end() && *it == row;
  if (present && !upsert) {
    return AlreadyExists("selector table '" + spec_.name +
                         "': bucket already populated");
  }
  IPSA_RETURN_IF_ERROR(storage_.WriteRow(*pool_, row, PackRow(entry)));
  if (!present) {
    populated_.insert(it, row);
    entry_count_.fetch_add(1, std::memory_order_relaxed);
  }
  dirty_ = true;
  MaybePublish();
  return OkStatus();
}

Status SelectorTable::Erase(const Entry& entry) {
  uint32_t row = static_cast<uint32_t>(entry.key.ToUint64());
  auto it = std::lower_bound(populated_.begin(), populated_.end(), row);
  if (it == populated_.end() || *it != row) {
    return NotFound("selector table '" + spec_.name +
                    "': bucket not populated");
  }
  IPSA_RETURN_IF_ERROR(storage_.InvalidateRow(*pool_, row));
  populated_.erase(it);
  entry_count_.fetch_sub(1, std::memory_order_relaxed);
  dirty_ = true;
  MaybePublish();
  return OkStatus();
}

void SelectorTable::LookupInto(const mem::BitString& key,
                               LookupResult& out) const {
  rcu::Domain::ReadGuard guard(rcu::Domain::Global());
  const View* view = published_.load(std::memory_order_acquire);
  if (view->members.empty()) {
    MissInto(out);
    return;
  }
  uint32_t h = util::Crc32(key.bytes());
  const Member& m = view->members[h % view->members.size()];
  HitInto(m.row, m.action, out);
}

void SelectorTable::RefreshCache() {
  dirty_ = true;
  Publish();
}

}  // namespace ipsa::table
