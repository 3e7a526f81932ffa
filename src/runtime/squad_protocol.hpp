#pragma once

#include <atomic>
#include <cstdint>
#include <utility>

#include "util/assert.hpp"
#include "util/cache_line.hpp"
#include "util/layout.hpp"
#include "util/sync_policy.hpp"

namespace cab::runtime::protocol {

/// The per-worker core of the paper's bi-tier protocol (Algorithm I /
/// Algorithm II), header-only: the threaded scheduler (worker.cpp) and
/// the simulator (simsched/sim_scheduler.cpp) both drive acquire_cab,
/// bind_inter/unbind_inter and holds_busy_through_sync. The
/// synchronization parts are templated on the Sync policy
/// (util/sync_policy.hpp), so the identical transitions also run against
/// `chk::atomic` under the model checker (tests/test_model_check.cpp,
/// DESIGN.md §6).
///
/// Checked invariants (the model's oracles):
///  - the busy count never goes negative (releases match acquires);
///  - without the starvation escape, a squad holds at most one *active*
///    inter-socket task at a time (the count exceeds 1 only for nested
///    inter tasks run while helping inside a sync);
///  - a task is tagged with the acquiring squad before it becomes
///    runnable on the acquiring worker (bind_inter ordering).

/// The paper's per-squad `busy_state`, generalized from a boolean to a
/// count so that *nested* inter-socket tasks (an inter task helping run
/// its own inter children while suspended at sync — see DESIGN.md) keep
/// it consistent. busy_state == (count() > 0).
template <typename Sync = util::RealSync>
struct BusyState {
  typename Sync::template atomic_t<std::int32_t> active_inter{0};

  bool busy() const {
    // mo: acquire — pairs with the release half of the acq_rel RMWs
    // below: a worker that observes "busy" also observes the hand-off
    // that made it so (Algorithm I step 2's gate read).
    return active_inter.load(std::memory_order_acquire) > 0;
  }

  std::int32_t count() const {
    // mo: acquire — see busy().
    return active_inter.load(std::memory_order_acquire);
  }

  /// Marks one more active inter-socket task; returns the new count.
  std::int32_t acquire() {
    // mo: acq_rel — the increment is the squad-busy hand-off: release so
    // the acquiring worker's prior pool operations are visible to gate
    // readers, acquire so this worker sees the previous holder's release.
    return active_inter.fetch_add(1, std::memory_order_acq_rel) + 1;
  }

  /// Releases one active inter-socket task; returns the new count. The
  /// caller must check the result is >= 0 (underflow means a protocol
  /// bug: a release without a matching acquire — a checked negative
  /// model, ModelCheckNegative.DoubleBusyRelease).
  std::int32_t release() {
    // mo: acq_rel — see acquire(); the release half publishes the
    // finished task's effects to the next gate reader.
    return active_inter.fetch_sub(1, std::memory_order_acq_rel) - 1;
  }
};

// One word; Squad gives it a line of its own (Squad's contract).
CAB_LAYOUT_BUDGET(BusyState<util::RealSync>, 4, 4);

/// Which acquire paths Algorithm I opens for a free worker, given its
/// role and the squad gate. Step 1 (own intra pool) always runs first and
/// is not gated; this decides steps 2–6:
///  - squad busy  => intra-socket stealing within the squad only (steps
///    3/6a); the inter-socket pools open up only for a *desperate* head
///    (the starvation escape, see kStarvationEscapeFails);
///  - squad free  => the head goes to the inter-socket pools (steps 4/5/
///    6b); non-head workers loop back to step 1.
struct AcquirePaths {
  bool steal_intra_in_squad;
  bool inter_pools;
};

constexpr AcquirePaths plan_acquire(bool is_head, bool squad_busy,
                                    bool desperate) noexcept {
  if (squad_busy) return {true, is_head && desperate};
  return {false, is_head};
}

/// Algorithm I for a free worker: one acquire attempt, statically
/// dispatched over a pools adapter whose calls each return a task handle
/// that is false on a miss: pop_own() (Step 1), squad_busy() (Step 2's
/// gate, read only after Step 1 missed), steal_in_squad() (Steps 3/6a),
/// take_own_inter() (Step 4) and steal_other_inter() (Steps 5/6b); the
/// last two bind the task with bind_inter. plan_acquire gates Steps 2–6;
/// `desperate` is the head's starvation escape (kStarvationEscapeFails).
template <typename Pools>
auto acquire_cab(Pools& pools, bool is_head, bool desperate) {
  using Task = decltype(pools.pop_own());
  if (Task t = pools.pop_own()) return t;
  const AcquirePaths paths =
      plan_acquire(is_head, pools.squad_busy(), desperate);
  if (paths.steal_intra_in_squad) {
    Task t = pools.steal_in_squad();
    if (t || !paths.inter_pools) return t;
  }
  if (!paths.inter_pools) return Task{};
  if (Task t = pools.take_own_inter()) return t;
  return pools.steal_other_inter();
}

/// Algorithm II at a sync point — the one leaf rule: a *leaf* inter-socket
/// task (one that spawned intra-socket children — its subtree is the
/// squad's shared-cache residency unit) holds busy_state through its sync;
/// a non-leaf inter task releases it so the squad is not barred from
/// inter-socket work for the task's entire subtree lifetime.
constexpr bool holds_busy_through_sync(bool has_intra_children) noexcept {
  return has_intra_children;
}

/// Per-squad victim-occupancy mask for stochastic victim selection: bit i
/// is set while squad-local worker slot i *plausibly* has stealable tasks
/// in its intra deque. Maintained as a cheap hint, not a truth:
///  - the owner sets its bit on the empty->nonempty push transition and
///    clears it when its own pop finds the deque empty;
///  - a thief whose probe of victim i finds an empty deque clears bit i
///    (hearsay-clear), so a crowd of thieves converges off a drained
///    victim without each paying a probe.
/// Stale bits are benign in both directions — a set bit on an empty deque
/// costs one wasted probe (exactly the uniform-selection status quo), and
/// a cleared bit on a nonempty deque only delays discovery until the
/// owner's next push transition or the uniform fallback fires. Squads
/// wider than kWidth workers fall back to uniform selection.
///
/// Checked invariants (ModelCheck.OccupancyMaskDisjointBitsCommute /
/// .OccupancyMaskExactlyOnceTransitions): concurrent transitions on
/// disjoint bits never lose each other's flip, and one flip is observed
/// (return true) by exactly one caller — so the per-worker mask counters
/// in WorkerStats count transitions, not attempts.
template <typename Sync = util::RealSync>
struct OccupancyMask {
  static constexpr int kWidth = 64;

  // Shares a (padded) line with nothing else: every worker in the squad
  // RMWs this word on push/pop/probe transitions, and the whole point of
  // the mask is to keep those transitions off the deque anchors' lines.
  alignas(util::kCacheLineSize)
      typename Sync::template atomic_t<std::uint64_t> bits{0};

  /// Owner, on the empty->nonempty push transition. Returns true when the
  /// bit actually flipped (a mask transition, counted in WorkerStats).
  bool set(int slot) {
    // mo: release — publishes the push that made the deque nonempty to a
    // thief that acquires the mask before probing (the hint must not
    // arrive before the work it advertises).
    return fetch_or(bits, std::uint64_t{1} << slot,
                    std::memory_order_release);
  }

  /// Owner (own deque drained) or thief (probe found victim empty).
  /// Returns true when the bit actually flipped.
  bool clear(int slot) {
    // mo: relaxed — clearing publishes nothing; it only withdraws a hint.
    return fetch_and(bits, ~(std::uint64_t{1} << slot),
                     std::memory_order_relaxed);
  }

  /// Thief-side snapshot for victim selection.
  std::uint64_t load() const {
    // mo: acquire — pairs with set()'s release; see set().
    return bits.load(std::memory_order_acquire);
  }

 private:
  /// fetch_or / fetch_and via a CAS loop: chk::atomic (the model checker's
  /// atomic) does not model the or/and RMWs, and the mask must run
  /// identically under both Sync policies. When the bit already has the
  /// target value the loop is a single relaxed load and no RMW — which is
  /// the common case and what makes the per-push/per-pop maintenance
  /// calls cheap. Returns true when this call changed the word.
  template <typename A>
  static bool fetch_or(A& a, std::uint64_t m, std::memory_order mo) {
    std::uint64_t cur = a.load(std::memory_order_relaxed);
    for (;;) {
      if ((cur & m) == m) return false;
      if (a.compare_exchange_weak(cur, cur | m, mo,
                                  std::memory_order_relaxed)) {
        return true;
      }
    }
  }
  template <typename A>
  static bool fetch_and(A& a, std::uint64_t m, std::memory_order mo) {
    std::uint64_t cur = a.load(std::memory_order_relaxed);
    for (;;) {
      if ((cur & m) == cur) return false;
      if (a.compare_exchange_weak(cur, cur & m, mo,
                                  std::memory_order_relaxed)) {
        return true;
      }
    }
  }
};

// Every squad member RMWs `bits`: it owns its whole line.
CAB_LAYOUT_OWNS_LAST_LINE(OccupancyMask<util::RealSync>, bits);
CAB_LAYOUT_BUDGET(OccupancyMask<util::RealSync>, 64, 64);

/// Lazy-frame claim handshake (DESIGN.md §5h): arbitration between the
/// owner popping its own continuation back and a thief promoting it, plus
/// the slot-reuse hand-off that lets the owner recycle the stack slot
/// only after an in-flight promotion has finished copying the capture
/// out. Templated on the Sync policy so the same transitions run under
/// the scheduler and under the chk model checker; like OccupancyMask,
/// only compare_exchange is used (chk::atomic models no or/and RMWs).
///
/// States (one forward pass per armed slot, no cycles until re-arm):
///   kStacked   — armed and published to the owner's deque;
///   kOwned     — the owner popped it back and is executing in place;
///   kPromoting — a thief won the claim and is copying the capture out
///                into a pooled frame (the slot must not be reused);
///   kFreed     — terminal: the slot may be truncated/re-armed by the
///                owner.
///
/// Checked invariants (the model's oracles, ModelCheck.LazyClaim*):
///  - exactly one of try_own / try_promote succeeds per armed slot (no
///    double execution, no lost continuation);
///  - the owner observes kFreed (reclaimable) only after the thief's
///    copy-out is complete, so slot reuse never races the promotion read
///    (the negative twin, ModelCheckNegative.BrokenPromotionCas, shows
///    the double execution that skipping the claim CAS permits).
///
/// The deque itself already guarantees a lazy frame is handed to exactly
/// one taker, so the owner/thief CAS pair is defense-in-depth there — but
/// the kPromoting->kFreed reuse hand-off is load-bearing: without it the
/// owner could re-arm the slot while the thief is still reading it.
template <typename Sync = util::RealSync>
struct LazyClaim {
  enum : std::int32_t { kStacked = 0, kOwned = 1, kPromoting = 2, kFreed = 3 };

  typename Sync::template atomic_t<std::int32_t> state{kFreed};

  /// Owner, before publishing the slot's frame to its deque. The deque
  /// push's release store publishes the frame contents; this only re-arms
  /// the claim word.
  void arm() {
    // mo: relaxed — ordered before the deque publish by the push's
    // release; nothing reads kStacked before the frame is reachable.
    state.store(kStacked, std::memory_order_relaxed);
  }

  /// Owner, after popping the frame back from its own deque. False means
  /// a thief already claimed it — impossible while the deque hands each
  /// entry to exactly one taker (CAB_CHECKed by the caller).
  ///
  /// Deliberately NOT an RMW: the deque's exactly-one-taker guarantee
  /// means no thief can hold this entry concurrently, so the owner's
  /// claim is race-free by construction and a verify + plain store
  /// suffices — this is the spawn fast path, and the CAS it avoids costs
  /// as much as the join RMW the lazy path exists to drop. The *thief*
  /// side (try_promote) stays a CAS: it is the slot-reuse gate. A thief
  /// that somehow claimed first leaves kPromoting/kFreed here and the
  /// verify fails loudly.
  bool try_own() {
    if (state.load(std::memory_order_relaxed) != kStacked) return false;
    // mo: relaxed — owner-written slot, owner-read; the deque pop already
    // ordered the hand-off.
    state.store(kOwned, std::memory_order_relaxed);
    return true;
  }

  /// Thief, after stealing the frame's deque entry and before reading the
  /// capture. False means the owner already took it back (same
  /// exactly-one-taker argument as try_own).
  bool try_promote() {
    std::int32_t expect = kStacked;
    // mo: acquire on success — pairs with the deque steal's own ordering;
    // the capture reads below must not hoist above the claim.
    return state.compare_exchange_strong(expect, kPromoting,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed);
  }

  /// Thief, after the capture has been relocated into the pooled frame.
  void finish_promotion() {
    // mo: release — pairs with reclaimable()'s acquire: the owner may
    // reuse the slot only after it observes kFreed, which orders the
    // thief's copy-out reads before the owner's re-arm writes.
    state.store(kFreed, std::memory_order_release);
  }

  /// Owner, after executing the frame in place.
  void finish_owned() {
    // mo: relaxed — the reclaimer (LazyStack::push) runs on this same
    // thread.
    state.store(kFreed, std::memory_order_relaxed);
  }

  /// Owner rollback when nothing was published (body emplace threw).
  void release_unpublished() {
    // mo: relaxed — no other thread ever saw the armed slot.
    state.store(kFreed, std::memory_order_relaxed);
  }

  /// Owner, before truncating/reusing the slot.
  bool reclaimable() const {
    // mo: acquire — see finish_promotion().
    return state.load(std::memory_order_acquire) == kFreed;
  }
};

CAB_LAYOUT_BUDGET(LazyClaim<util::RealSync>, 4, 4);

/// Inter-socket task hand-off: marks the acquiring squad busy and tags
/// the task with that squad *before* the task is returned to the worker
/// loop — the gate must close before the task can start executing (and
/// spawning), or a second head probe could slip an extra inter task into
/// the squad between execution start and gate close. Returns the new
/// busy count.
template <typename Sync, typename Task, typename SquadT>
std::int32_t bind_inter(BusyState<Sync>& busy, Task* t, SquadT* sq) {
  const std::int32_t now = busy.acquire();
  t->inter_acquired_by = sq;
  return now;
}

/// The inverse of bind_inter, at completion or at a releasing sync:
/// releases the busy count of the squad `t` is tagged with and clears the
/// tag, so each bind is released exactly once. Returns that squad
/// (nullptr, and nothing released, for an untagged task) and its new busy
/// count. Underflow is a release without a matching acquire — the runtime
/// twin of ModelCheckNegative.DoubleBusyRelease's oracle.
template <typename Task>
auto unbind_inter(Task* t) {
  auto* sq = std::exchange(t->inter_acquired_by, nullptr);
  const std::int32_t now = sq != nullptr ? sq->busy_state.release() : 0;
  CAB_CHECK(now >= 0, "squad busy-state underflow");
  return std::pair{sq, now};
}

}  // namespace cab::runtime::protocol
