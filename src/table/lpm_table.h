// Longest-prefix-match table over pool-backed rows.
//
// The writer keeps a binary trie keyed MSB-first over the prefix bits as the
// canonical store. What lookups consume is a published, immutable Root: the
// key's top R bits index a slot array (R grows with the table size, capped
// at 12 bits = 4096 slots). A slot carries (a) the best "short" prefix
// (length <= R) covering it, leaf-pushed by controlled prefix expansion, and
// (b) the root of a stride-4 multibit trie over the remaining key bits for
// the longer prefixes under those top bits. Every stride node and every
// decoded leaf is its own immutable allocation.
//
// Publication is RCU with path copying. A mutation recomputes, from the
// binary trie, only the stride node its prefix ends in, copies that node's
// ancestors up to the slot, and swaps in a copy of the slot array: at most
// ceil((W-R)/4) node builds plus the 2^R-slot root copy, however many
// routes share the top bits and whatever the table size. Replaced nodes and
// leaves go to the rcu::Domain as one list per publish. Between
// BeginBatch/EndBatch the publish is deferred; nodes built inside the open
// batch are unreachable by readers, so later ops edit them in place and the
// batch publishes once. Lookups pin an epoch, index one slot and follow at
// most ceil((W-R)/4) node pointers; they never take a lock, touch a
// reference count or observe a torn view.
#pragma once

#include <algorithm>
#include <atomic>
#include <iterator>
#include <memory>
#include <vector>

#include "table/rcu.h"
#include "table/table.h"

namespace ipsa::table {

class LpmTable : public MatchTable {
 public:
  LpmTable(TableSpec spec, mem::Pool& pool, mem::LogicalTable storage);
  ~LpmTable() override;

  Status Erase(const Entry& entry) override;
  void LookupInto(const mem::BitString& key, LookupResult& out) const override;
  void RefreshCache() override;

  uint32_t shard_count() const { return 1u << root_bits_; }

  // Stride nodes plus leaves built and retired since construction; tests
  // bound the per-op path cost with the deltas.
  struct NodeCounts {
    uint64_t built = 0;
    uint64_t retired = 0;
  };
  NodeCounts node_counts() const { return counts_; }

 protected:
  Status InsertOp(const Entry& entry, bool upsert) override;
  // Swaps the pending Root in and retires everything it replaced.
  void Publish() override;

 private:
  static constexpr uint32_t kStrideBits = 4;
  static constexpr uint32_t kFanout = 1u << kStrideBits;

  // A resolved entry: the storage row plus the decoded action, so a hit
  // never touches writer-side state.
  struct Leaf {
    uint32_t row = 0;
    CachedAction action;
  };

  // Canonical writer-side trie node.
  struct Node {
    std::unique_ptr<Node> child[2];
    std::unique_ptr<const Leaf> leaf;  // the entry ending here, if any
  };

  // One stride level: for nibble value v, cell[v].best is the leaf of the
  // longest prefix ending inside this stride along v's bit path and
  // cell[v].child the next stride node (null = the path ends here). A
  // lookup reads both from one cache line.
  struct StrideNode {
    struct Cell {
      const Leaf* best = nullptr;
      StrideNode* child = nullptr;
    };
    Cell cell[kFanout];
    uint64_t gen = 0;  // publish generation that built it

    bool empty() const {
      return std::all_of(std::begin(cell), std::end(cell), [](const Cell& c) {
        return c.best == nullptr && c.child == nullptr;
      });
    }
  };

  struct Slot {
    const Leaf* short_leaf = nullptr;  // deepest prefix of length <= R
    StrideNode* node = nullptr;        // stride trie of the longer ones
  };

  // The published view. Immutable after the atomic swap.
  struct Root {
    std::vector<Slot> slots;  // size 1 << root_bits_
  };

  // What one publish unlinked, freed together after its grace period.
  struct Retired {
    std::unique_ptr<const Root> root;
    std::vector<std::unique_ptr<const StrideNode>> nodes;
    std::vector<std::unique_ptr<const Leaf>> leaves;
  };

  // MSB-first bit `i` of a key (bit 0 = most significant bit of the key).
  bool KeyBitMsb(const mem::BitString& key, uint32_t i) const {
    return key.GetBit(spec_.key_width_bits - 1 - i);
  }
  // Width of the stride starting at MSB depth `depth`. Strides end at
  // W - 4k, so a partial stride comes first below the root, where a slot
  // has one node, and byte-aligned prefixes end on stride boundaries: a
  // run of /32s (or /128s) fills whole 16-cell bottom nodes.
  uint32_t StrideAt(uint32_t depth) const {
    return (spec_.key_width_bits - depth - 1) % kStrideBits + 1;
  }
  // The root slot of `key`: its top R bits.
  uint32_t TopBits(const mem::BitString& key) const {
    return root_bits_ != 0
               ? static_cast<uint32_t>(key.GetBits(
                     spec_.key_width_bits - root_bits_, root_bits_))
               : 0;
  }

  // Entries arrive from the control channel unchecked, and the trie walks
  // index key bits by prefix position.
  Status CheckShape(const Entry& entry) const;
  // The Root the open publish generation edits, copied from the published
  // one on first use.
  Root& Pending();
  // `n` itself when the open generation built it, else a fresh copy (or a
  // fresh empty node for null) with `n` retired.
  StrideNode* Own(StrideNode* n);
  // Retires n's leaf and, for row >= 0, decodes a new one from that row.
  void SetLeaf(Node& n, int64_t row);
  // Brings the pending view up to date after the entry at (key, len)
  // changed in the binary trie, and publishes it unless a batch is open.
  void Repath(const mem::BitString& key, uint32_t len);
  // Returns what replaces stride node `n` (at MSB depth `depth`, binary
  // node `bn`) on that prefix's path: the node the prefix ends in is
  // refilled, each ancestor relinked, all copied unless this generation
  // built them, and a node left empty becomes null. One call per level.
  StrideNode* Rebuild(StrideNode* n, const Node* bn, uint32_t depth,
                      const mem::BitString& key, uint32_t len);
  // Follows the low `bits` bits of `v`, MSB first, down from `n` (null once
  // the path dies); returns the deepest leaf passed, else `best`.
  static const Leaf* Follow(const Node*& n, uint32_t v, uint32_t bits,
                            const Leaf* best);
  // Expands the binary subtrie below `bn` (at MSB depth `depth`) into n's
  // best cells; children are left as they are.
  void FillBest(StrideNode& n, const Node* bn, uint32_t depth) const;
  // Owns and refills the stride subtrie at `link`, if any (RefreshCache).
  // Recurses once per stride level, so at most ceil((W-R)/4) deep.
  void Refill(StrideNode*& link, const Node* bn, uint32_t depth);

  std::unique_ptr<Node> root_;
  std::vector<uint32_t> free_rows_;

  uint32_t root_bits_ = 0;
  std::atomic<const Root*> published_{nullptr};
  Root* pending_ = nullptr;  // writer-side, null = nothing to publish
  uint64_t gen_ = 1;
  Retired retired_;
  NodeCounts counts_;
};

}  // namespace ipsa::table
