// Allocation-free type-erased callable for the simulation hot path.
//
// Scheduling an event used to cost one heap allocation per std::function
// (libstdc++ spills any capture over 16 bytes). InlineAction stores captures
// up to kInlineBytes directly inside the event record; larger captures spill
// to a recycled block pool, so steady-state scheduling performs no heap
// allocation at all. Move-only: an action is scheduled once and executed
// once, so copyability would only force captures to be copyable for nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <new>
#include <type_traits>
#include <utility>

#include "common/check.h"

namespace ecoscale {

namespace detail {

/// Fixed-size block pool for actions whose captures exceed the inline
/// buffer. Blocks are recycled through a thread-local free list: after the
/// first few spills a simulation reuses the same blocks forever. A block
/// freed on a different thread than it was allocated on migrates — the
/// parallel engine does this all the time, since a shard's windows run on
/// whichever thread claims them and cross-shard posts free on the
/// destination's thread. So a thread whose list outgrows kMaxFree hands
/// kTransfer blocks to a shared list, and a thread whose list runs dry
/// takes kTransfer back before it touches the heap: the heap is reached
/// only while every other thread's list is nearly empty too, so the block
/// count stays bounded by the peak live count plus the per-thread caps.
/// The shared list is locked once per kTransfer blocks.
class ActionBlockPool {
 public:
  static constexpr std::size_t kBlockBytes = 256;
  static constexpr std::size_t kMaxFree = 64;    // per-thread retained cap
  static constexpr std::size_t kTransfer = 32;   // blocks per shared trip
  static constexpr std::size_t kMaxShared = 16384;  // shared retained cap

  static void* allocate() {
    Freelist& fl = freelist();
    if (fl.head == nullptr) refill(fl);
    if (fl.head != nullptr) {
      Node* n = fl.head;
      fl.head = n->next;
      --fl.count;
      ++stats().pool_hits;
      return n;
    }
    ++stats().pool_misses;
    return ::operator new(kBlockBytes, std::align_val_t{alignof(Node)});
  }

  static void deallocate(void* p) {
    Freelist& fl = freelist();
    Node* n = static_cast<Node*>(p);
    n->next = fl.head;
    fl.head = n;
    if (++fl.count > kMaxFree) spill(fl, kTransfer);
  }

  struct Stats {
    std::uint64_t pool_hits = 0;    // spills served from a free list
    std::uint64_t pool_misses = 0;  // spills that hit the heap
  };
  static Stats& stats() {
    thread_local Stats s;
    return s;
  }

 private:
  struct alignas(std::max_align_t) Node {
    Node* next;
  };
  struct Shared {
    std::mutex mu;
    Node* head = nullptr;
    std::size_t count = 0;
  };
  struct Freelist {
    Node* head = nullptr;
    std::size_t count = 0;
    // A finished thread's blocks serve the threads that outlive it.
    ~Freelist() { spill(*this, count); }
  };
  static Freelist& freelist() {
    thread_local Freelist fl;
    return fl;
  }
  // Leaked: thread-exit spills may run after static destruction begins.
  static Shared& shared() {
    static Shared* s = new Shared;
    return *s;
  }

  /// Move up to kTransfer blocks from the shared list to `fl`.
  static void refill(Freelist& fl) {
    Shared& sh = shared();
    std::lock_guard<std::mutex> lock(sh.mu);
    for (std::size_t i = 0; i < kTransfer && sh.head != nullptr; ++i) {
      Node* n = sh.head;
      sh.head = n->next;
      --sh.count;
      n->next = fl.head;
      fl.head = n;
      ++fl.count;
    }
  }

  /// Move `k` blocks from `fl` to the shared list (past its cap, to the
  /// heap).
  static void spill(Freelist& fl, std::size_t k) {
    Shared& sh = shared();
    std::lock_guard<std::mutex> lock(sh.mu);
    for (; k > 0 && fl.head != nullptr; --k) {
      Node* n = fl.head;
      fl.head = n->next;
      --fl.count;
      if (sh.count >= kMaxShared) {
        ::operator delete(n, std::align_val_t{alignof(Node)});
        continue;
      }
      n->next = sh.head;
      sh.head = n;
      ++sh.count;
    }
  }
};

}  // namespace detail

/// Move-only small-buffer-optimized `void()` callable.
class InlineAction {
 public:
  /// Captures up to this many bytes live inside the action itself.
  static constexpr std::size_t kInlineBytes = 64;

  InlineAction() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, InlineAction> &&
                std::is_invocable_r_v<void, std::remove_cvref_t<F>&>>>
  InlineAction(F&& f) {  // NOLINT: implicit by design, mirrors std::function
    construct(std::forward<F>(f));
  }

  /// Destroy the current payload (if any) and construct a new one in
  /// place — the slab fast path: no temporary InlineAction, the capture is
  /// built directly inside the slot's storage.
  template <typename F>
  void emplace(F&& f) {
    if constexpr (std::is_same_v<std::remove_cvref_t<F>, InlineAction>) {
      *this = std::move(f);
    } else {
      reset();
      construct(std::forward<F>(f));
    }
  }

  InlineAction(InlineAction&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      relocate_from(other);
    }
  }

  InlineAction& operator=(InlineAction&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        relocate_from(other);
      }
    }
    return *this;
  }

  InlineAction(const InlineAction&) = delete;
  InlineAction& operator=(const InlineAction&) = delete;

  ~InlineAction() { reset(); }

  void operator()() {
    ECO_CHECK_MSG(ops_ != nullptr, "invoking an empty InlineAction");
    ops_->invoke(storage_);
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Destroy the payload (if any); the action becomes empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      if (!ops_->trivial) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    // Move the payload from src storage into dst storage and destroy the
    // source (a "relocate"); for spilled payloads this just moves the
    // pointer, so it is unconditionally noexcept.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
    // Trivially copyable + trivially destructible inline payload: moving is
    // a fixed-size memcpy and destruction is a no-op, so the per-event hot
    // path skips both indirect calls.
    bool trivial;
  };

  template <typename F>
  void construct(F&& f) {
    using Fn = std::remove_cvref_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>);
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &inline_ops<Fn>;
    } else if constexpr (sizeof(Fn) <=
                             detail::ActionBlockPool::kBlockBytes &&
                         alignof(Fn) <= alignof(std::max_align_t)) {
      void* block = detail::ActionBlockPool::allocate();
      ::new (block) Fn(std::forward<F>(f));
      ptr() = block;
      ops_ = &pooled_ops<Fn>;
    } else {
      ptr() = new Fn(std::forward<F>(f));
      ops_ = &heap_ops<Fn>;
    }
  }

  // Precondition: ops_ == other.ops_ != nullptr.
  void relocate_from(InlineAction& other) noexcept {
    if (ops_->trivial) {
      std::memcpy(storage_, other.storage_, kInlineBytes);
    } else {
      ops_->relocate(storage_, other.storage_);
    }
    other.ops_ = nullptr;
  }

  void*& ptr() noexcept { return *reinterpret_cast<void**>(storage_); }
  static void*& ptr_of(void* storage) noexcept {
    return *static_cast<void**>(storage);
  }

  template <typename Fn>
  static constexpr Ops inline_ops = {
      /*invoke=*/[](void* s) { (*static_cast<Fn*>(s))(); },
      /*relocate=*/
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn(std::move(*static_cast<Fn*>(src)));
        static_cast<Fn*>(src)->~Fn();
      },
      /*destroy=*/[](void* s) noexcept { static_cast<Fn*>(s)->~Fn(); },
      /*trivial=*/std::is_trivially_copyable_v<Fn> &&
          std::is_trivially_destructible_v<Fn>,
  };

  template <typename Fn>
  static constexpr Ops pooled_ops = {
      /*invoke=*/[](void* s) { (*static_cast<Fn*>(ptr_of(s)))(); },
      /*relocate=*/
      [](void* dst, void* src) noexcept {
        ptr_of(dst) = ptr_of(src);
        ptr_of(src) = nullptr;
      },
      /*destroy=*/
      [](void* s) noexcept {
        void* block = ptr_of(s);
        static_cast<Fn*>(block)->~Fn();
        detail::ActionBlockPool::deallocate(block);
      },
      /*trivial=*/false,
  };

  template <typename Fn>
  static constexpr Ops heap_ops = {
      /*invoke=*/[](void* s) { (*static_cast<Fn*>(ptr_of(s)))(); },
      /*relocate=*/
      [](void* dst, void* src) noexcept {
        ptr_of(dst) = ptr_of(src);
        ptr_of(src) = nullptr;
      },
      /*destroy=*/
      [](void* s) noexcept { delete static_cast<Fn*>(ptr_of(s)); },
      /*trivial=*/false,
  };

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace ecoscale
