// Machine-wide liveness registry for fault injection & recovery.
//
// One flat entry per Worker, written by the fault injector (runtime layer)
// and read by every subsystem that must route around failures: the
// scheduler (survivor selection, arrival redirect), UNIMEM (page-ownership
// failover when an owning node dies), and UNILOGIC (skip dead or
// blacklisted remote fabrics). Living in common/ keeps the dependency
// arrows pointing downward — unimem/unilogic consume a const view without
// knowing about the runtime that mutates it.
//
// A subsystem holding no registry pointer behaves exactly as before the
// fault layer existed: everything healthy, zero overhead.
#pragma once

#include <cstddef>
#include <vector>

#include "common/check.h"
#include "common/units.h"

namespace ecoscale {

class HealthRegistry {
 public:
  HealthRegistry() = default;
  HealthRegistry(std::size_t workers, std::size_t workers_per_node) {
    reset(workers, workers_per_node);
  }

  void reset(std::size_t workers, std::size_t workers_per_node) {
    ECO_CHECK(workers_per_node >= 1 && workers % workers_per_node == 0);
    entries_.assign(workers, Entry{});
    workers_per_node_ = workers_per_node;
  }

  std::size_t worker_count() const { return entries_.size(); }

  // --- liveness (fault injector writes, everyone reads) -------------------
  bool up(std::size_t worker) const { return entries_[worker].up; }
  void mark_down(std::size_t worker) { entries_[worker].up = false; }
  void mark_up(std::size_t worker) { entries_[worker].up = true; }

  /// A node is up while any of its workers is: worker crashes leave the
  /// node's memory reachable, a node loss takes every worker down at once.
  bool node_up(std::size_t node) const {
    const std::size_t base = node * workers_per_node_;
    for (std::size_t w = 0; w < workers_per_node_; ++w) {
      if (entries_[base + w].up) return true;
    }
    return false;
  }

  // --- fabric blacklist (UNILOGIC retry escalation) ------------------------
  /// After bounded retries against a failing remote fabric the pool
  /// blacklists it: remote placement skips it until `until`.
  void blacklist(std::size_t worker, SimTime until) {
    Entry& e = entries_[worker];
    if (until > e.blacklist_until) e.blacklist_until = until;
    ++blacklists_;
  }
  bool blacklisted(std::size_t worker, SimTime now) const {
    return now < entries_[worker].blacklist_until;
  }
  std::uint64_t blacklists() const { return blacklists_; }

  /// Usable as a remote target at `now`: alive and not blacklisted.
  bool available(std::size_t worker, SimTime now) const {
    return up(worker) && !blacklisted(worker, now);
  }

 private:
  struct Entry {
    bool up = true;
    SimTime blacklist_until = 0;
  };

  std::vector<Entry> entries_;
  std::size_t workers_per_node_ = 1;
  std::uint64_t blacklists_ = 0;
};

}  // namespace ecoscale
