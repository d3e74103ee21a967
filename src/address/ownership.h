// UNIMEM page-ownership directory.
//
// The UNIMEM consistency model (paper §2): from the point of view of any
// processor, a memory page is cacheable at its *owning* node and nowhere
// else. There is therefore no global snoop — a remote access is routed to
// the owner and served from the owner's coherent domain. Ownership can move
// (page migration), which is the only global coherence action that exists.
//
// Storage: the owner() probe sits on the per-access fast path of every
// PGAS load/store, so owners live in dense per-segment arrays instead of a
// hash map. A PageId decomposes as (node | worker | page-offset) — the
// top 16 bits (page >> 36, i.e. node·256+worker for GlobalAddress-derived
// pages) select a segment, and the remaining bits index a NodeId array
// grown by registration. Pathologically sparse in-segment offsets fall
// back to a hash map so the dense arrays stay bounded.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "address/address.h"
#include "common/check.h"

namespace ecoscale {

class OwnershipDirectory {
 public:
  /// Register a page with its home (initial owner) node.
  void register_page(PageId page, NodeId owner) {
    ECO_CHECK_MSG(!is_registered(page), "page registered twice");
    NodeId* slot = slot_for(page, /*create=*/true);
    if (slot != nullptr) {
      *slot = owner;
    } else {
      sparse_[page] = owner;
    }
    ++pages_;
  }

  bool is_registered(PageId page) const {
    const NodeId* slot = slot_for(page);
    if (slot != nullptr) return *slot != kNoOwner;
    return sparse_.contains(page);
  }

  std::optional<NodeId> owner(PageId page) const {
    const NodeId* slot = slot_for(page);
    if (slot != nullptr) {
      return *slot == kNoOwner ? std::nullopt : std::optional<NodeId>(*slot);
    }
    auto it = sparse_.find(page);
    if (it == sparse_.end()) return std::nullopt;
    return it->second;
  }

  /// A page may be cached only at its owning node (UNIMEM invariant).
  bool cacheable_at(PageId page, NodeId node) const {
    const auto o = owner(page);
    return o.has_value() && *o == node;
  }

  /// Migrate ownership. Returns the previous owner. The caller is
  /// responsible for charging the flush-and-transfer cost.
  NodeId migrate(PageId page, NodeId new_owner) {
    NodeId* slot = slot_for(page, /*create=*/false);
    NodeId* where = slot != nullptr && *slot != kNoOwner ? slot : nullptr;
    if (where == nullptr) {
      auto it = sparse_.find(page);
      ECO_CHECK_MSG(it != sparse_.end(), "migrating unregistered page");
      where = &it->second;
    }
    const NodeId prev = *where;
    if (prev != new_owner) {
      *where = new_owner;
      ++migrations_;
    }
    return prev;
  }

  std::uint64_t migrations() const { return migrations_; }

 private:
  // 0xFFFF never names a real node (NodeId is 8-bit in GlobalAddress).
  static constexpr NodeId kNoOwner = 0xFFFF;
  /// Per-segment dense cap: offsets at or above this (>= 16 GiB into one
  /// worker's partition) take the sparse fallback.
  static constexpr std::uint64_t kDenseLimit = 1ull << 22;

  static std::uint64_t segment_of(PageId page) { return page >> 36; }
  static std::uint64_t offset_of(PageId page) {
    return page & ((1ull << 36) - 1);
  }

  /// Dense slot of `page`, or nullptr if it lives in the sparse fallback.
  /// With create=true, grows the segment table and array as needed.
  NodeId* slot_for(PageId page, bool create) {
    const std::uint64_t off = offset_of(page);
    if (off >= kDenseLimit) return nullptr;
    const std::uint64_t seg = segment_of(page);
    if (seg >= segments_.size()) {
      if (!create) return nullptr;
      segments_.resize(seg + 1);
    }
    std::vector<NodeId>& owners = segments_[seg];
    if (off >= owners.size()) {
      if (!create) return nullptr;
      owners.resize(off + 1, kNoOwner);
    }
    return &owners[off];
  }
  const NodeId* slot_for(PageId page) const {
    return const_cast<OwnershipDirectory*>(this)->slot_for(page, false);
  }

  std::vector<std::vector<NodeId>> segments_;   // [segment_of][offset_of]
  std::unordered_map<PageId, NodeId> sparse_;   // dense-limit overflow
  std::uint64_t migrations_ = 0;
  std::size_t pages_ = 0;
};

}  // namespace ecoscale
