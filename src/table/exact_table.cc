#include "table/exact_table.h"

#include <algorithm>

namespace ipsa::table {

namespace {

uint32_t NextPow2(uint32_t v) {
  uint32_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

ExactTable::ExactTable(TableSpec spec, mem::Pool& pool,
                       mem::LogicalTable storage)
    : MatchTable(std::move(spec), pool, std::move(storage)) {
  free_rows_.reserve(spec_.size);
  for (uint32_t r = spec_.size; r > 0; --r) free_rows_.push_back(r - 1);
  // One shard per ~16k entries, capped so small tables pay for exactly one.
  uint32_t shard_count =
      NextPow2(std::clamp<uint32_t>(spec_.size >> 14, 1, 64));
  shard_mask_ = shard_count - 1;
  shard_bits_ = 0;
  while ((1u << shard_bits_) < shard_count) ++shard_bits_;
  // Pre-size buckets at ~0.5 load factor; no rehash ever happens, so chains
  // stay short and bucket heads are stable memory for the lifetime of the
  // table.
  uint32_t buckets =
      NextPow2(std::max<uint32_t>(16, (spec_.size / shard_count) * 2));
  shards_.resize(shard_count);
  for (Shard& s : shards_) {
    s.buckets = std::vector<std::atomic<Node*>>(buckets);
    for (auto& b : s.buckets) b.store(nullptr, std::memory_order_relaxed);
    s.bucket_mask = buckets - 1;
  }
}

ExactTable::~ExactTable() {
  // No readers by contract at destruction; retired nodes are owned (and
  // freed) by the rcu::Domain independent of this table.
  for (Shard& s : shards_) {
    for (auto& bucket : s.buckets) {
      Node* n = bucket.load(std::memory_order_relaxed);
      while (n != nullptr) {
        Node* next = n->next.load(std::memory_order_relaxed);
        delete n;
        n = next;
      }
    }
  }
}

void ExactTable::RepublishBucket(std::atomic<Node*>& bucket,
                                 const Node* remove, Node* add) {
  auto& domain = rcu::Domain::Global();
  Node* head = bucket.load(std::memory_order_relaxed);
  // Copy the prefix [head, remove). Old nodes are never mutated, so a reader
  // already walking the old chain still sees a complete, terminated list.
  Node* new_head = nullptr;
  Node* tail = nullptr;
  for (Node* n = head; n != remove;
       n = n->next.load(std::memory_order_relaxed)) {
    Node* copy = new Node;
    copy->row = n->row;
    copy->key = n->key;
    copy->action = n->action;
    if (tail != nullptr) {
      tail->next.store(copy, std::memory_order_relaxed);
    } else {
      new_head = copy;
    }
    tail = copy;
  }
  Node* suffix = remove != nullptr
                     ? remove->next.load(std::memory_order_relaxed)
                     : head;
  if (add != nullptr) {
    add->next.store(suffix, std::memory_order_relaxed);
    suffix = add;
  }
  if (tail != nullptr) {
    tail->next.store(suffix, std::memory_order_relaxed);
  } else {
    new_head = suffix;
  }
  bucket.store(new_head, std::memory_order_release);
  for (Node* n = head; n != remove;) {
    Node* next = n->next.load(std::memory_order_relaxed);
    domain.Retire(n);
    n = next;
  }
  if (remove != nullptr) domain.Retire(const_cast<Node*>(remove));
}

Status ExactTable::InsertOp(const Entry& entry, bool upsert) {
  if (entry.key.bit_width() != spec_.key_width_bits) {
    return InvalidArgument("exact table '" + spec_.name +
                           "': key width mismatch");
  }
  std::string_view k = KeyOf(entry.key);
  size_t h = util::StringHash{}(k);
  std::atomic<Node*>& bucket = BucketOf(ShardOf(h), h);
  Node* existing = nullptr;
  for (Node* n = bucket.load(std::memory_order_relaxed); n != nullptr;
       n = n->next.load(std::memory_order_relaxed)) {
    if (n->key == k) {
      existing = n;
      break;
    }
  }
  if (existing != nullptr) {
    if (!upsert) {
      return AlreadyExists("exact table '" + spec_.name +
                           "': duplicate key");
    }
    // Modify in place at the row level, then republish the node so readers
    // switch from the old decoded action to the new one atomically.
    IPSA_RETURN_IF_ERROR(
        storage_.WriteRow(*pool_, existing->row, PackRow(entry)));
    Node* repl = new Node;
    repl->row = existing->row;
    repl->key = existing->key;
    repl->action = DecodeRow(existing->row);
    RepublishBucket(bucket, existing, repl);
    MaybePublish();
    return OkStatus();
  }
  if (free_rows_.empty()) {
    return ResourceExhausted("exact table '" + spec_.name + "' is full");
  }
  uint32_t row = free_rows_.back();
  IPSA_RETURN_IF_ERROR(storage_.WriteRow(*pool_, row, PackRow(entry)));
  free_rows_.pop_back();
  // New key: push-front publication, nothing to copy or retire.
  Node* node = new Node;
  node->row = row;
  node->key.assign(k.data(), k.size());
  node->action = DecodeRow(row);
  node->next.store(bucket.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  bucket.store(node, std::memory_order_release);
  entry_count_.fetch_add(1, std::memory_order_relaxed);
  return OkStatus();
}

Status ExactTable::Erase(const Entry& entry) {
  std::string_view k = KeyOf(entry.key);
  size_t h = util::StringHash{}(k);
  std::atomic<Node*>& bucket = BucketOf(ShardOf(h), h);
  Node* existing = nullptr;
  for (Node* n = bucket.load(std::memory_order_relaxed); n != nullptr;
       n = n->next.load(std::memory_order_relaxed)) {
    if (n->key == k) {
      existing = n;
      break;
    }
  }
  if (existing == nullptr) {
    return NotFound("exact table '" + spec_.name + "': key not present");
  }
  IPSA_RETURN_IF_ERROR(storage_.InvalidateRow(*pool_, existing->row));
  free_rows_.push_back(existing->row);
  RepublishBucket(bucket, existing, nullptr);
  entry_count_.fetch_sub(1, std::memory_order_relaxed);
  MaybePublish();
  return OkStatus();
}

void ExactTable::LookupInto(const mem::BitString& key,
                            LookupResult& out) const {
  rcu::Domain::ReadGuard guard(rcu::Domain::Global());
  std::string_view k = KeyOf(key);
  size_t h = util::StringHash{}(k);
  const Shard& s = shards_[h & shard_mask_];
  const Node* n =
      s.buckets[(h >> shard_bits_) & s.bucket_mask].load(
          std::memory_order_acquire);
  while (n != nullptr && n->key != k) {
    n = n->next.load(std::memory_order_acquire);
  }
  if (n == nullptr) {
    MissInto(out);
    return;
  }
  HitInto(n->row, n->action, out);
}

void ExactTable::RefreshCache() {
  // Republish every chain with freshly decoded actions; readers see either
  // the whole old chain or the whole new one.
  auto& domain = rcu::Domain::Global();
  for (Shard& s : shards_) {
    for (auto& bucket : s.buckets) {
      Node* head = bucket.load(std::memory_order_relaxed);
      if (head == nullptr) continue;
      Node* new_head = nullptr;
      Node* tail = nullptr;
      for (Node* n = head; n != nullptr;
           n = n->next.load(std::memory_order_relaxed)) {
        Node* copy = new Node;
        copy->row = n->row;
        copy->key = n->key;
        copy->action = DecodeRow(n->row);
        if (tail != nullptr) {
          tail->next.store(copy, std::memory_order_relaxed);
        } else {
          new_head = copy;
        }
        tail = copy;
      }
      bucket.store(new_head, std::memory_order_release);
      for (Node* n = head; n != nullptr;) {
        Node* next = n->next.load(std::memory_order_relaxed);
        domain.Retire(n);
        n = next;
      }
    }
  }
  domain.Synchronize();
}

}  // namespace ipsa::table
