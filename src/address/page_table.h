// Sparse multi-level page table model.
//
// The table stores page-granular mappings in a hash map (the functional
// part) and models the cost of a radix-tree walk (the timing part): a
// `levels()`-deep walk costs one memory access per level.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "address/address.h"
#include "common/check.h"

namespace ecoscale {

class PageTable {
 public:
  explicit PageTable(int levels = 4) : levels_(levels) {
    ECO_CHECK(levels >= 1 && levels <= 6);
  }

  /// Map a virtual (or intermediate) page to an output page.
  void map(PageId from, PageId to) { entries_[from] = to; }

  void unmap(PageId from) { entries_.erase(from); }

  std::optional<PageId> lookup(PageId from) const {
    auto it = entries_.find(from);
    if (it == entries_.end()) return std::nullopt;
    return it->second;
  }

  bool is_mapped(PageId from) const { return entries_.contains(from); }

  /// Number of radix levels the hardware walker traverses on a miss.
  int levels() const { return levels_; }

 private:
  int levels_;
  std::unordered_map<PageId, PageId> entries_;
};

}  // namespace ecoscale
