#include "table/ternary_table.h"

#include <algorithm>

namespace ipsa::table {

TernaryTable::TernaryTable(TableSpec spec, mem::Pool& pool,
                           mem::LogicalTable storage)
    : MatchTable(std::move(spec), pool, std::move(storage)) {
  free_rows_.reserve(spec_.size);
  for (uint32_t r = spec_.size; r > 0; --r) free_rows_.push_back(r - 1);
  published_.store(new View, std::memory_order_release);
}

TernaryTable::~TernaryTable() {
  delete published_.load(std::memory_order_relaxed);
}

std::vector<uint64_t> TernaryTable::Words(const mem::BitString& bits) {
  std::vector<uint64_t> w(bits.WordCount());
  for (size_t i = 0; i < w.size(); ++i) w[i] = bits.Word(i);
  return w;
}

int TernaryTable::FindBucket(const mem::BitString& mask) const {
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i]->mask == mask) return static_cast<int>(i);
  }
  return -1;
}

TernaryTable::MaskBucket* TernaryTable::MutableBucket(size_t idx) {
  std::shared_ptr<MaskBucket>& b = buckets_[idx];
  if (b.use_count() > 1) b = std::make_shared<MaskBucket>(*b);
  return b.get();
}

void TernaryTable::Publish() {
  if (!dirty_) return;
  const View* old = published_.load(std::memory_order_relaxed);
  View* next = new View;
  next->buckets.assign(buckets_.begin(), buckets_.end());
  published_.store(next, std::memory_order_release);
  rcu::Domain::Global().Retire(const_cast<View*>(old));
  dirty_ = false;
  rcu::Domain::Global().Synchronize();
}

Status TernaryTable::InsertOp(const Entry& entry, bool upsert) {
  if (entry.key.bit_width() != spec_.key_width_bits ||
      entry.mask.bit_width() != spec_.key_width_bits) {
    return InvalidArgument("ternary table '" + spec_.name +
                           "': key/mask width mismatch");
  }
  int bucket_idx = FindBucket(entry.mask);
  if (bucket_idx >= 0) {
    const MaskBucket& peek = *buckets_[static_cast<size_t>(bucket_idx)];
    for (size_t e = 0; e < peek.entries.size(); ++e) {
      if (!peek.entries[e].key.MatchesUnderMask(entry.key, entry.mask)) {
        continue;
      }
      // Same (key&mask, mask) identity updates in place, keeping the
      // entry's original priority and position.
      if (!upsert) {
        return AlreadyExists("ternary table '" + spec_.name +
                             "': duplicate masked key");
      }
      uint32_t row = peek.entries[e].row;
      IPSA_RETURN_IF_ERROR(storage_.WriteRow(*pool_, row, PackRow(entry)));
      MaskBucket* bucket = MutableBucket(static_cast<size_t>(bucket_idx));
      bucket->entries[e].action = DecodeRow(row);
      dirty_ = true;
      MaybePublish();
      return OkStatus();
    }
  }
  if (free_rows_.empty()) {
    return ResourceExhausted("ternary table '" + spec_.name + "' is full");
  }
  uint32_t row = free_rows_.back();
  IPSA_RETURN_IF_ERROR(storage_.WriteRow(*pool_, row, PackRow(entry)));
  // The mask plane covers the key bits only; aux/action bits are don't-care.
  mem::BitString full_mask(RowWidthBits());
  full_mask.SetBitsFrom(0, entry.mask, 0, spec_.key_width_bits);
  IPSA_RETURN_IF_ERROR(storage_.WriteMask(*pool_, row, full_mask));
  free_rows_.pop_back();

  MaskBucket* bucket;
  if (bucket_idx < 0) {
    buckets_.push_back(std::make_shared<MaskBucket>());
    bucket = buckets_.back().get();
    bucket->mask = entry.mask;
    bucket->mask_words = Words(entry.mask);
  } else {
    bucket = MutableBucket(static_cast<size_t>(bucket_idx));
  }

  IndexEntry ie;
  ie.priority = entry.priority;
  ie.seq = next_seq_++;
  ie.row = row;
  ie.key = entry.key;
  ie.masked_key.resize(bucket->mask_words.size());
  for (size_t w = 0; w < ie.masked_key.size(); ++w) {
    ie.masked_key[w] = entry.key.Word(w) & bucket->mask_words[w];
  }
  ie.action = DecodeRow(row);
  auto pos = std::upper_bound(
      bucket->entries.begin(), bucket->entries.end(), ie,
      [](const IndexEntry& a, const IndexEntry& b) {
        return a.priority != b.priority ? a.priority > b.priority
                                        : a.seq < b.seq;
      });
  bucket->entries.insert(pos, std::move(ie));
  bucket->max_priority = std::max(bucket->max_priority, entry.priority);
  entry_count_.fetch_add(1, std::memory_order_relaxed);
  dirty_ = true;
  MaybePublish();
  return OkStatus();
}

Status TernaryTable::Erase(const Entry& entry) {
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (!(buckets_[i]->mask == entry.mask)) continue;
    const MaskBucket& peek = *buckets_[i];
    for (size_t e = 0; e < peek.entries.size(); ++e) {
      if (!peek.entries[e].key.MatchesUnderMask(entry.key, entry.mask)) {
        continue;
      }
      IPSA_RETURN_IF_ERROR(storage_.InvalidateRow(*pool_, peek.entries[e].row));
      free_rows_.push_back(peek.entries[e].row);
      if (peek.entries.size() == 1) {
        buckets_.erase(buckets_.begin() + static_cast<ptrdiff_t>(i));
      } else {
        MaskBucket* bucket = MutableBucket(i);
        bucket->entries.erase(bucket->entries.begin() +
                              static_cast<ptrdiff_t>(e));
        // Entries are priority-sorted, so the front holds the max.
        bucket->max_priority = bucket->entries.front().priority;
      }
      entry_count_.fetch_sub(1, std::memory_order_relaxed);
      dirty_ = true;
      MaybePublish();
      return OkStatus();
    }
  }
  return NotFound("ternary table '" + spec_.name + "': entry not present");
}

void TernaryTable::LookupInto(const mem::BitString& key,
                              LookupResult& out) const {
  rcu::Domain::ReadGuard guard(rcu::Domain::Global());
  const View* view = published_.load(std::memory_order_acquire);
  const IndexEntry* best = nullptr;
  for (const auto& bptr : view->buckets) {
    const MaskBucket& b = *bptr;
    if (best != nullptr && b.max_priority < best->priority) continue;
    size_t words = b.mask_words.size();
    for (const IndexEntry& ie : b.entries) {
      // Sorted (priority desc, seq asc): once an entry cannot beat the
      // current winner, nothing after it in this bucket can either.
      if (best != nullptr &&
          (ie.priority < best->priority ||
           (ie.priority == best->priority && ie.seq > best->seq))) {
        break;
      }
      bool match = true;
      for (size_t w = 0; w < words; ++w) {
        if ((key.Word(w) & b.mask_words[w]) != ie.masked_key[w]) {
          match = false;
          break;
        }
      }
      if (match) {
        best = &ie;
        break;
      }
    }
  }
  if (best == nullptr) {
    MissInto(out);
    return;
  }
  HitInto(best->row, best->action, out);
}

void TernaryTable::RefreshCache() {
  for (size_t i = 0; i < buckets_.size(); ++i) {
    MaskBucket* bucket = MutableBucket(i);
    for (IndexEntry& ie : bucket->entries) ie.action = DecodeRow(ie.row);
  }
  dirty_ = true;
  Publish();
}

}  // namespace ipsa::table
