#include "table/lpm_table.h"

namespace ipsa::table {

LpmTable::LpmTable(TableSpec spec, mem::Pool& pool, mem::LogicalTable storage)
    : MatchTable(std::move(spec), pool, std::move(storage)),
      root_(std::make_unique<Node>()) {
  free_rows_.reserve(spec_.size);
  for (uint32_t r = spec_.size; r > 0; --r) free_rows_.push_back(r - 1);
  // Partition on the top R bits, ~64 entries per slot for spread keys, with
  // slot fan-out (the per-publish root copy) bounded at 4096.
  uint32_t bits = 0;
  while ((1u << (bits + 1)) <= spec_.size) ++bits;
  root_bits_ = std::min({bits > 6 ? bits - 6 : 0, 12u, spec_.key_width_bits});
  published_.store(new Root{std::vector<Slot>(shard_count())},
                   std::memory_order_release);
}

LpmTable::~LpmTable() {
  // No readers by contract. The live stride nodes join the unpublished
  // retirements, freed with retired_; the binary trie (and with it every
  // live leaf) is freed iteratively, since recursive destruction of a deep
  // chain of unique_ptrs can overflow the stack for adversarial prefix sets.
  auto& dead = retired_.nodes;
  size_t i = dead.size();
  for (const Slot& s : Pending().slots) {
    if (s.node != nullptr) dead.emplace_back(s.node);
  }
  for (; i < dead.size(); ++i) {
    for (const StrideNode::Cell& c : dead[i]->cell) {
      if (c.child != nullptr) dead.emplace_back(c.child);
    }
  }
  delete pending_;
  delete published_.load(std::memory_order_relaxed);
  std::vector<std::unique_ptr<Node>> stack;
  stack.push_back(std::move(root_));
  while (!stack.empty()) {
    std::unique_ptr<Node> n = std::move(stack.back());
    stack.pop_back();
    if (!n) continue;
    stack.push_back(std::move(n->child[0]));
    stack.push_back(std::move(n->child[1]));
  }
}

Status LpmTable::CheckShape(const Entry& entry) const {
  if (entry.key.bit_width() == spec_.key_width_bits &&
      entry.prefix_len <= spec_.key_width_bits) {
    return OkStatus();
  }
  return InvalidArgument("lpm table '" + spec_.name +
                         "': key width or prefix length mismatch");
}

Status LpmTable::InsertOp(const Entry& entry, bool upsert) {
  IPSA_RETURN_IF_ERROR(CheckShape(entry));
  Node* node = root_.get();
  for (uint32_t i = 0; i < entry.prefix_len; ++i) {
    int b = KeyBitMsb(entry.key, i) ? 1 : 0;
    if (!node->child[b]) node->child[b] = std::make_unique<Node>();
    node = node->child[b].get();
  }
  const bool present = node->leaf != nullptr;
  if (present && !upsert) {
    return AlreadyExists("lpm table '" + spec_.name + "': duplicate prefix");
  }
  if (!present && free_rows_.empty()) {
    return ResourceExhausted("lpm table '" + spec_.name + "' is full");
  }
  uint32_t row = present ? node->leaf->row : free_rows_.back();
  IPSA_RETURN_IF_ERROR(storage_.WriteRow(*pool_, row, PackRow(entry)));
  if (!present) {
    free_rows_.pop_back();
    entry_count_.fetch_add(1, std::memory_order_relaxed);
  }
  SetLeaf(*node, row);
  Repath(entry.key, entry.prefix_len);
  return OkStatus();
}

Status LpmTable::Erase(const Entry& entry) {
  IPSA_RETURN_IF_ERROR(CheckShape(entry));
  Node* node = root_.get();
  for (uint32_t i = 0; i < entry.prefix_len && node != nullptr; ++i) {
    node = node->child[KeyBitMsb(entry.key, i) ? 1 : 0].get();
  }
  if (node == nullptr || node->leaf == nullptr) {
    return NotFound("lpm table '" + spec_.name + "': prefix not present");
  }
  uint32_t row = node->leaf->row;
  IPSA_RETURN_IF_ERROR(storage_.InvalidateRow(*pool_, row));
  free_rows_.push_back(row);
  SetLeaf(*node, -1);
  entry_count_.fetch_sub(1, std::memory_order_relaxed);
  Repath(entry.key, entry.prefix_len);
  return OkStatus();
}

LpmTable::Root& LpmTable::Pending() {
  if (pending_ == nullptr) {
    pending_ = new Root(*published_.load(std::memory_order_relaxed));
  }
  return *pending_;
}

LpmTable::StrideNode* LpmTable::Own(StrideNode* n) {
  if (n != nullptr && n->gen == gen_) return n;
  StrideNode* copy = n != nullptr ? new StrideNode(*n) : new StrideNode;
  copy->gen = gen_;
  ++counts_.built;
  if (n != nullptr) {
    retired_.nodes.emplace_back(n);
    ++counts_.retired;
  }
  return copy;
}

void LpmTable::SetLeaf(Node& n, int64_t row) {
  if (n.leaf != nullptr) {
    retired_.leaves.push_back(std::move(n.leaf));
    ++counts_.retired;
  }
  if (row >= 0) {
    auto r = static_cast<uint32_t>(row);
    n.leaf = std::make_unique<const Leaf>(Leaf{r, DecodeRow(r)});
    ++counts_.built;
  }
}

const LpmTable::Leaf* LpmTable::Follow(const Node*& n, uint32_t v,
                                       uint32_t bits, const Leaf* best) {
  for (uint32_t j = 0; j < bits && n != nullptr; ++j) {
    n = n->child[(v >> (bits - 1 - j)) & 1].get();
    if (n != nullptr && n->leaf != nullptr) best = n->leaf.get();
  }
  return best;
}

// Controlled prefix expansion of one stride: for each of the 2^s values of
// the next s key bits, walk the bit path and leaf-push the deepest entry
// passed. Unused high values of a partial stride stay null and are never
// indexed by a lookup.
void LpmTable::FillBest(StrideNode& n, const Node* bn, uint32_t depth) const {
  uint32_t s = StrideAt(depth);
  for (uint32_t v = 0; v < (1u << s); ++v) {
    const Node* walk = bn;
    n.cell[v].best = Follow(walk, v, s, nullptr);
  }
}

void LpmTable::Repath(const mem::BitString& key, uint32_t len) {
  Root& root = Pending();
  const uint32_t top = TopBits(key);
  if (len <= root_bits_) {
    // Re-push the deepest short prefix into every slot under this one.
    uint32_t span = 1u << (root_bits_ - len);
    for (uint32_t v = top & ~(span - 1), end = v + span; v < end; ++v) {
      const Node* walk = root_.get();
      root.slots[v].short_leaf = Follow(walk, v, root_bits_, walk->leaf.get());
    }
  } else {
    const Node* bn = root_.get();
    Follow(bn, top, root_bits_, nullptr);
    StrideNode*& slot = root.slots[top].node;
    slot = Rebuild(slot, bn, root_bits_, key, len);
  }
  MaybePublish();
}

LpmTable::StrideNode* LpmTable::Rebuild(StrideNode* n, const Node* bn,
                                        uint32_t depth,
                                        const mem::BitString& key,
                                        uint32_t len) {
  const uint32_t s = StrideAt(depth);
  if (len > depth + s) {
    auto v = static_cast<uint32_t>(
        key.GetBits(spec_.key_width_bits - depth - s, s));
    StrideNode* old = n != nullptr ? n->cell[v].child : nullptr;
    Follow(bn, v, s, nullptr);
    StrideNode* child = Rebuild(old, bn, depth + s, key, len);
    if (child == old) return n;  // edited in place below: nothing to relink
    n = Own(n);
    n->cell[v].child = child;
  } else {
    n = Own(n);
    FillBest(*n, bn, depth);
  }
  if (!n->empty()) return n;
  delete n;  // built by this generation: never published
  return nullptr;
}

void LpmTable::Publish() {
  if (pending_ == nullptr) return;
  retired_.root.reset(published_.load(std::memory_order_relaxed));
  published_.store(pending_, std::memory_order_release);
  pending_ = nullptr;
  ++gen_;  // everything built so far is visible now, hence immutable
  auto& domain = rcu::Domain::Global();
  domain.Retire(new Retired(std::move(retired_)));  // leaves retired_ empty
  domain.Synchronize();
}

void LpmTable::LookupInto(const mem::BitString& key, LookupResult& out) const {
  rcu::Domain::ReadGuard guard(rcu::Domain::Global());
  const Root* root = published_.load(std::memory_order_acquire);
  const uint32_t width = spec_.key_width_bits;
  const Slot& slot = root->slots[TopBits(key)];
  const Leaf* best = slot.short_leaf;
  uint32_t consumed = root_bits_;
  for (const StrideNode* n = slot.node; n != nullptr;) {
    uint32_t s = StrideAt(consumed);
    const StrideNode::Cell& c = n->cell[key.GetBits(width - consumed - s, s)];
    if (c.best != nullptr) best = c.best;
    n = c.child;
    consumed += s;
  }
  if (best == nullptr) {
    MissInto(out);
    return;
  }
  HitInto(best->row, best->action, out);
}

void LpmTable::RefreshCache() {
  // Pool rows were rewritten underneath us: re-decode every leaf, then
  // refill every slot and stride node that may point at one.
  std::vector<Node*> stack{root_.get()};
  while (!stack.empty()) {
    Node* n = stack.back();
    stack.pop_back();
    if (n->leaf != nullptr) SetLeaf(*n, n->leaf->row);
    for (const std::unique_ptr<Node>& c : n->child) {
      if (c) stack.push_back(c.get());
    }
  }
  Root& root = Pending();
  for (uint32_t v = 0; v < shard_count(); ++v) {
    const Node* bn = root_.get();
    root.slots[v].short_leaf = Follow(bn, v, root_bits_, bn->leaf.get());
    Refill(root.slots[v].node, bn, root_bits_);
  }
  MaybePublish();
}

void LpmTable::Refill(StrideNode*& link, const Node* bn, uint32_t depth) {
  if (link == nullptr) return;
  StrideNode* n = link = Own(link);
  FillBest(*n, bn, depth);
  uint32_t s = StrideAt(depth);
  for (uint32_t v = 0; v < (1u << s); ++v) {
    const Node* walk = bn;
    Follow(walk, v, s, nullptr);
    Refill(n->cell[v].child, walk, depth + s);
  }
}

}  // namespace ipsa::table
