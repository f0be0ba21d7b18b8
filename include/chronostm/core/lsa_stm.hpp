// LSA-STM core: the Lazy Snapshot Algorithm engine over the runtime-
// pluggable time-base facade (the paper's central claim is that the time
// base is a replaceable component; everything time-related below goes
// through tb::ThreadClock and tb::TimeBase::deviation(), so engines,
// workloads, and drivers select the base at runtime -- by object or by
// registry key -- instead of instantiating the whole core per base).
//
// The steps this engine shares with the orec engine -- the read log,
// snapshot extension, the striped epoch filter, the foreign-lock wait, the
// whole update commit, the irrevocability gate, the retry ladder and stats
// -- live in core/snapshot_core.hpp. This file adds what is specific to
// per-TVar metadata: the lock word and version history, read admission
// with the old-version fallback, and the commit hooks that carry the
// descriptors and the contention managers.
//
// Design, following the paper:
//  * Each TVar carries a versioned lock word ("orec"). Unlocked it holds
//    (version_ts << 1); locked it holds (TxDesc* | 1), a pointer to the
//    owner's published commit descriptor, so conflicting threads can
//    inspect the owner and ask a contention manager to arbitrate.
//  * Each TVar keeps a bounded history of old versions with validity
//    ranges [from, until), so long read-only transactions can read a
//    consistent-but-old snapshot instead of aborting (multi-version LSA;
//    depth is StmConfig::max_versions). The ring is one heap block sized
//    to what it can keep, allocated at the var's first commit that keeps
//    history (detail::VersionRing); the TVar holds only its pointer.
//    History is kept on demand: until the engine's sticky switch turns on
//    (at once with extension off, else after a context's second miss in a
//    row), commits take the max_versions = 1 path (DESIGN.md).
//  * A transaction maintains a snapshot interval [lower, upper]. Reads pick
//    the most recent version valid at `upper`; when the current version is
//    too new the snapshot is lazily extended to the present (validating the
//    read set) before falling back to old versions.
//  * Writes are buffered in a lazy write set; the core's commit locks the
//    write set in address order (the descriptor pointer goes into each
//    lock word), draws one new timestamp from the time base, validates the
//    read set, then writes back through each record's apply (value and
//    history ring) and publishes the new version words. Only the owner
//    writes back: a thread that meets a locked word waits it out or
//    arbitrates, it never finishes the commit itself.
//  * Conflict resolution is delegated to a pluggable contention manager
//    (StmConfig::contention_manager): suicide, polite (backoff), aggressive,
//    timestamp. Managers that abort the enemy do so cooperatively by
//    CASing the owner's descriptor from Locking to Killed; the owner only
//    loads its status (after its last lock and after validation) and
//    stores Committed plainly, so a kill that lands after its last check
//    loses. Kills are advisory: the killer still waits for the lock word.
//  * With an externally synchronized time base, every version's validity
//    range is shrunk at both ends by the pairwise stamp uncertainty (twice
//    the published per-stamp deviation bound: both the version's stamp and
//    the snapshot's stamp may be skewed) -- deviation only ever costs
//    aborts, never correctness, because commit validation is exact (lock
//    words, not clocks) and snapshot reads never admit a version unless it
//    was committed, in true time, before the snapshot.
//
// Hot-path cost model (the structure the micro_stm numbers hang off):
//  * Read/write-set storage lives in the ThreadContext (detail::AccessSets)
//    and is reused across attempts and transactions, so the steady state
//    performs zero heap allocations per transaction. Write records are
//    bump-allocated from a per-context arena (trivially destructible by
//    construction, so arena reset is a pointer rewind) and type-erased
//    through a plain function pointer instead of a vtable.
//  * find_write -- on the read and write paths -- and the core's lock-key
//    lookup at commit are linear scans while the write set is small
//    (<= detail::kInlineScan entries, cache-hot) and an open-addressing
//    hash on the lock word's address beyond that, so large update
//    transactions cost O(1) per lookup instead of O(W).
//  * The read set is an append-only log of (lock word, admitted word) pairs,
//    one per read, duplicates kept, as in the orec engine: a read is one
//    append with no deduplication probe, and try_extend, commit-time
//    validation and become_irrevocable walk the log densely. A re-read
//    that finds its var changed fails extension and falls back to history,
//    which serves the version the first read admitted (DESIGN.md "Read
//    log").

#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include <chronostm/core/epoch_stripes.hpp>
#include <chronostm/core/snapshot_core.hpp>
#include <chronostm/stm/config.hpp>
#include <chronostm/timebase/facade.hpp>
#include <chronostm/util/failpoints.hpp>

namespace chronostm {

// How a transaction behaves when it runs into a lock owned by another
// committing transaction (and how hard it retries afterwards).
enum class CmPolicy {
    kSuicide,     // abort self immediately on any conflict
    kPolite,      // bounded spin, then abort self (a.k.a. backoff)
    kAggressive,  // abort the enemy when possible, spin hard otherwise
    kTimestamp,   // older transaction wins; younger backs off
};

inline CmPolicy parse_contention_manager(const std::string& name) {
    if (name.empty() || name == "polite" || name == "backoff")
        return CmPolicy::kPolite;
    if (name == "suicide") return CmPolicy::kSuicide;
    if (name == "aggressive") return CmPolicy::kAggressive;
    if (name == "timestamp") return CmPolicy::kTimestamp;
    throw std::invalid_argument("chronostm: unknown contention manager: " +
                                name);
}

// The shared knobs (read_extension, lock_spin, epoch_filter, max_retries,
// irrevocable_threshold, commit_publish_hook) live in stm::CommonConfig;
// the old spellings -- cfg.epoch_filter etc. -- are the inherited members.
struct StmConfig : stm::CommonConfig {
    // Versions kept per TVar including the current one; 1 = no history
    // (TL2-like), larger values let long readers survive concurrent
    // updates. Capped at detail::kMaxHistory + 1. Old versions are kept
    // only while LsaStm::keeps_history() is true.
    unsigned max_versions = 8;
    // Conflict arbitration policy; see CmPolicy. Parsed once per LsaStm.
    std::string contention_manager = "polite";
};

namespace detail {

inline constexpr unsigned kMaxHistory = 16;

// Commit descriptor life cycle. A kill CAS is only legal from Locking,
// which covers the whole commit up to the owner's decision: locking, the
// stamp draw and validation. The owner never CASes its own status: it
// loads it after its last lock and after validation, and stores
// Committed plainly, so a kill landing after the second check is lost.
enum TxStatus : int {
    kTxIdle = 0,
    kTxLocking,    // locking, drawing the stamp, validating
    kTxCommitted,  // decided; the owner is writing back
    kTxKilled,     // a contention manager asked this attempt to abort
};

class TVarBase;

// Type-erased write record: lives in the owning context's arena and is
// applied by the owner's write-back. Type erasure is a plain function
// pointer -- no vtable, no virtual destructor -- so records are trivially
// destructible and the arena can recycle them by rewinding a pointer.
struct CommitRec {
    std::atomic<std::uint64_t>* lock = nullptr;  // the TVar's lock word
    std::uint64_t locked_word = 0;  // unlocked word this lock replaced
    // Stores the value (and history rotation) but leaves the version word
    // locked: the core's commit publishes every version word after one
    // shared release fence.
    void (*apply)(CommitRec*, std::uint64_t new_ts, std::uint64_t old_ts,
                  unsigned keep_old) = nullptr;
    std::uint32_t owner = 0;  // always 1 once locked: TVar locks never alias
};

// Bump allocator for write records, reused across attempts/transactions:
// reset() rewinds to the first chunk without freeing, so the steady state
// allocates nothing. Records must be trivially destructible (enforced at
// the placement-new site) -- reset never runs destructors.
class WriteArena {
 public:
    static constexpr std::size_t kChunkBytes = 16 * 1024;

    void* allocate(std::size_t size, std::size_t align) {
        for (;;) {
            if (cur_ < chunks_.size()) {
                // Align the actual address, not the chunk offset: new[]
                // only guarantees 16-byte chunk bases, and an alignas(64)
                // record type must still get 64-aligned storage.
                const auto base = reinterpret_cast<std::uintptr_t>(
                    chunks_[cur_].mem.get());
                const std::uintptr_t p =
                    (base + used_ + align - 1) & ~(align - 1);
                const std::size_t off_end = (p - base) + size;
                if (off_end <= chunks_[cur_].cap) {
                    used_ = off_end;
                    return reinterpret_cast<void*>(p);
                }
                ++cur_;
                used_ = 0;
                continue;
            }
            const std::size_t cap = std::max(kChunkBytes, size + align);
            chunks_.push_back(
                Chunk{std::make_unique<std::byte[]>(cap), cap});
            cur_ = chunks_.size() - 1;
            used_ = 0;
        }
    }

    void reset() {
        cur_ = 0;
        used_ = 0;
    }

 private:
    struct Chunk {
        std::unique_ptr<std::byte[]> mem;
        std::size_t cap;
    };
    std::vector<Chunk> chunks_;
    std::size_t cur_ = 0;
    std::size_t used_ = 0;
};

// The core's access sets plus the arena the write records live in; the
// arena keeps its chunks, so the steady-state hot path allocates nothing.
struct AccessSets : SnapshotSets<CommitRec*> {
    WriteArena arena;

    void reset() {
        SnapshotSets::reset();
        arena.reset();
    }
};

// Published commit descriptor, one per thread context, reused across
// transactions. Locked orecs point at it, so a conflicting transaction can
// read the owner's status and start stamp and kill it cooperatively.
// Padded to its own cache line: the owner stores `status` three times per
// update commit, and contexts' descriptors are allocated back to back.
struct alignas(64) TxDesc {
    std::atomic<int> status{kTxIdle};
    // Seniority of the in-flight attempt, for the timestamp manager.
    std::atomic<std::uint64_t> start_ts{0};
};

// The commit stamp is drawn only after the whole write set is locked,
// which is why no thread ever draws one on a stalled committer's behalf:
// a stamp from before the last lock would let a fresh reader accept the
// commit's writes inside a snapshot that still contains pre-lock state.

}  // namespace detail

class Transaction;
class ThreadContext;
class LsaStm;

namespace detail {

// Untyped base so transactions can track read/write sets across TVar<T>
// instantiations. The lock word is the only shared-memory rendezvous point:
// (version_ts << 1) unlocked, (TxDesc* | 1) locked. Not polymorphic -- a
// vtable pointer would widen every TVar for nothing; nobody owns TVars
// through this base. Standard-layout with the lock word its only member,
// so a write record's lock pointer converts back to its TVar.
class TVarBase {
 public:
    TVarBase() = default;
    TVarBase(const TVarBase&) = delete;
    TVarBase& operator=(const TVarBase&) = delete;

 protected:
    ~TVarBase() = default;

    friend class chronostm::Transaction;
    std::atomic<std::uint64_t> vlock_{0};
};
static_assert(std::is_standard_layout_v<TVarBase>,
              "a write record's lock pointer converts back to its TVarBase");

// A TVar's old versions: one heap block, this header followed by `cap`
// entries, allocated at the var's first commit that keeps history with
// cap = min(max_versions - 1, kMaxHistory) and never resized. Written only
// under the var's lock bit; readers snapshot an entry and recheck vlock_
// to detect reuse (Transaction::read_old_version). Entries are plain
// storage accessed through __atomic builtins, so none is touched -- not
// even zero-filled -- before a commit writes it.
template <typename T>
struct alignas(std::max(alignof(std::atomic<T>), alignof(std::uint64_t)))
    VersionRing {
    struct Entry {
        alignas(std::atomic<T>) T value;
        std::uint64_t from;   // validity range [from, until)
        std::uint64_t until;
    };
    // Plain operator new unless T needs more alignment, so a program that
    // replaces only the plain form (to count heap traffic) sees rings too.
    static constexpr bool kOverAligned =
        alignof(VersionRing) > __STDCPP_DEFAULT_NEW_ALIGNMENT__;

    std::atomic<unsigned> head;  // newest entry
    std::atomic<unsigned> size;  // entries readers may visit, <= cap
    const unsigned cap;

    static VersionRing* create(unsigned cap) {
        const std::size_t n = sizeof(VersionRing) + cap * sizeof(Entry);
        void* const mem =
            kOverAligned
                ? ::operator new(n, std::align_val_t{alignof(VersionRing)})
                : ::operator new(n);
        return new (mem) VersionRing{{cap - 1}, {0}, cap};
    }
    static void destroy(VersionRing* r) noexcept {
        if constexpr (kOverAligned)
            ::operator delete(r, std::align_val_t{alignof(VersionRing)});
        else
            ::operator delete(r);
    }

    Entry& at(unsigned i) { return reinterpret_cast<Entry*>(this + 1)[i]; }
    const Entry& at(unsigned i) const {
        return reinterpret_cast<const Entry*>(this + 1)[i];
    }

    // Owner-only (lock bit held): record the replaced version over the
    // oldest one; head/size are published after the entry.
    void push(T v, std::uint64_t from, std::uint64_t until) {
        const unsigned h = head.load(std::memory_order_relaxed);
        const unsigned next = h + 1 == cap ? 0 : h + 1;
        Entry& e = at(next);
        __atomic_store(&e.value, &v, __ATOMIC_RELAXED);
        __atomic_store_n(&e.from, from, __ATOMIC_RELAXED);
        __atomic_store_n(&e.until, until, __ATOMIC_RELAXED);
        head.store(next, std::memory_order_release);
        const unsigned sz = size.load(std::memory_order_relaxed);
        size.store(std::min(sz + 1, cap), std::memory_order_release);
    }
};

}  // namespace detail

using TVarBase = detail::TVarBase;

// Every TVar<T> is {lock word, value, history-ring pointer}: three words
// for word-sized T, the ring nullptr until the first commit that keeps
// history (none while the engine's history switch is off).
template <typename T>
class TVar : public TVarBase {
    static_assert(std::is_trivially_copyable_v<T>,
                  "TVar<T> requires a trivially copyable T: values are read "
                  "optimistically under a seqlock");

 public:
    explicit TVar(T initial) : value_(initial) {}
    ~TVar() {
        if (auto* r = hist_.load(std::memory_order_acquire))
            detail::VersionRing<T>::destroy(r);
    }

    // Defined after Transaction (which they call into).
    T get(Transaction& tx);
    void set(Transaction& tx, T v);

    // Non-transactional read for post-run invariant checks (quiesced state
    // only: racy by construction while transactions run).
    T unsafe_peek() const { return value_.load(std::memory_order_acquire); }

 private:
    friend class Transaction;

    using Ring = detail::VersionRing<T>;

    // Called with the lock bit held by the committing owner, so the
    // one-time ring allocation races nobody. `old_ts` is the version being
    // replaced (the lock word no longer carries it: locked words hold the
    // descriptor pointer). Stores only the data. The caller's release
    // fence before the write-back keeps every lock store visible before
    // these stores, so a reader that observes new data and then rechecks
    // the lock word sees the lock or the final version (the other half of
    // the seqlock lives in Transaction::read / read_old_version). The
    // caller publishes the version words after a second fence.
    void commit_write(const T& v, std::uint64_t new_ts, std::uint64_t old_ts,
                      unsigned keep_old) {
        Ring* r = hist_.load(std::memory_order_relaxed);
        if (keep_old > 0) {
            if (r == nullptr) {
                r = Ring::create(keep_old);
                hist_.store(r, std::memory_order_release);
            }
            r->push(value_.load(std::memory_order_relaxed), old_ts, new_ts);
        } else if (r != nullptr) {
            r->size.store(0, std::memory_order_release);
        }
        value_.store(v, std::memory_order_relaxed);
    }

    std::atomic<T> value_;
    std::atomic<Ring*> hist_{nullptr};
};

class Transaction
    : public detail::SnapshotTx<Transaction, StmConfig, detail::AccessSets> {
    using Core = detail::SnapshotTx<Transaction, StmConfig, detail::AccessSets>;

 private:
    friend Core;
    friend class ThreadContext;
    template <typename, typename, typename, typename>
    friend class detail::SnapshotContext;
    template <typename>
    friend class chronostm::TVar;

    template <typename T>
    struct WriteRec : detail::CommitRec {
        T value;
        static void do_apply(detail::CommitRec* rec,
                             std::uint64_t new_ts, std::uint64_t old_ts,
                             unsigned keep_old) {
            auto* self = static_cast<WriteRec*>(rec);
            // The lock word is TVarBase's first member (see TVarBase).
            auto* var = static_cast<TVar<T>*>(
                reinterpret_cast<TVarBase*>(self->lock));
            var->commit_write(self->value, new_ts, old_ts, keep_old);
        }
    };

    // Defined after ThreadContext, whose state it starts from.
    explicit Transaction(ThreadContext& ctx);

    static detail::TxDesc* decode_owner(std::uint64_t locked_word) {
        return reinterpret_cast<detail::TxDesc*>(
            static_cast<std::uintptr_t>(locked_word & ~std::uint64_t{1}));
    }

    // Cooperative kill: only attempts that have not reached Committed can
    // die, and only if the owner checks before deciding. A stale kill (the
    // descriptor moved on to a later attempt) costs that attempt a
    // spurious abort, never correctness.
    static void try_kill(detail::TxDesc* d) {
        int s = d->status.load(std::memory_order_acquire);
        if (s == detail::kTxLocking)
            d->status.compare_exchange_strong(s, detail::kTxKilled,
                                              std::memory_order_acq_rel,
                                              std::memory_order_relaxed);
    }

    template <typename T>
    T read(TVar<T>& var) {
        if (auto* rec = find_write(&var))
            return static_cast<WriteRec<T>*>(rec)->value;

        // Chaos harness: an armed lsa_read site may delay here or demand an
        // injected abort; the token holder never honors the abort half.
        if (CHRONOSTM_FAILPOINT(lsa_read) && !irrevocable_)
            throw detail::AbortTx{};

        if (irrevocable_) {
            admit_irrevocable(var.vlock_);
            return var.value_.load(std::memory_order_acquire);
        }

        // Stripe snapshot BEFORE the admitting lock-word load: a writer
        // publishing to this stripe after the snapshot is a visible bump
        // at extension/validation time (spurious walk at worst).
        // Idempotent, so every read of an armed attempt calls it.
        if (stripes_on_) touch_stripe(&var);

        for (;;) {
            std::uint64_t w1 = var.vlock_.load(std::memory_order_acquire);
            if (w1 & 1u) w1 = wait_unlocked(&var.vlock_);
            const std::uint64_t wv = w1 >> 1;
            // Validity of the current version starts at wv, shrunk by the
            // pairwise stamp uncertainty dev_.
            if (wv + dev_ <= upper_) {
                const T v = var.value_.load(std::memory_order_acquire);
                // Seqlock recheck; the fence pairs with the release fence
                // in commit_write so that seeing new data implies seeing
                // the lock word that published it.
                std::atomic_thread_fence(std::memory_order_acquire);
                if (var.vlock_.load(std::memory_order_acquire) != w1)
                    continue;  // raced with a commit; retry the read
                lower_ = std::max(lower_, wv + dev_);
                sets_->reads.push_back({&var.vlock_, w1});
                return v;
            }
            // Current version is newer than the snapshot. First choice:
            // lazily extend the snapshot to the present. A re-read of a var
            // that changed since its first read fails here (the walk meets
            // the logged word) and falls back to history, which serves the
            // still-valid version the first read admitted.
            bool conflict = false;
            if (cfg_.read_extension) {
                if (try_extend()) continue;
                conflict = extend_conflict_;
            }
            // Fall back to an old version -- only useful to transactions
            // that have not written yet (an update transaction must commit
            // "in the present", which a stale snapshot cannot reach).
            if (sets_->writes.empty()) {
                T v{};
                if (read_old_version(var, w1, v)) return v;
            }
            // The version is too new for the snapshot and the snapshot
            // could not move forward. WHY it could not decides the abort
            // class: a failed read-set walk means a writer hit our reads
            // (conflict -- backoff resolves it, the retry must not drain
            // stamp blocks), while time-not-advanced and the unusable-
            // old-version case are freshness -- run() may draw-and-
            // discard a stamp so batched/sharded counters advance.
            throw detail::AbortTx{!conflict};
        }
    }

    template <typename T>
    void write(TVar<T>& var, T v) {
        if (auto* rec = find_write(&var)) {
            // Write-after-write: overwrite in place, the set stays minimal.
            static_cast<WriteRec<T>*>(rec)->value = std::move(v);
            return;
        }
        static_assert(std::is_trivially_destructible_v<WriteRec<T>>,
                      "write records must be trivially destructible: the "
                      "arena reclaims them without running destructors");
        void* mem = sets_->arena.allocate(sizeof(WriteRec<T>),
                                          alignof(WriteRec<T>));
        auto* rec = new (mem) WriteRec<T>;
        rec->lock = &var.vlock_;
        rec->apply = &WriteRec<T>::do_apply;
        rec->value = std::move(v);
        append_write(static_cast<detail::CommitRec*>(rec));
    }

    // Search the version history of `var` for a version covering the
    // snapshot; `w1` is the unlocked lock word the caller just observed.
    template <typename T>
    bool read_old_version(TVar<T>& var, std::uint64_t w1, T& out) {
        const auto* r = var.hist_.load(std::memory_order_acquire);
        const unsigned n = r ? r->size.load(std::memory_order_acquire) : 0;
        if (n == 0) return note_history_miss();  // no ring, or an emptied one
        const unsigned head = r->head.load(std::memory_order_acquire);
        for (unsigned k = 0; k < n; ++k) {
            const auto& e = r->at((head + r->cap - k) % r->cap);
            const std::uint64_t from =
                __atomic_load_n(&e.from, __ATOMIC_ACQUIRE);
            const std::uint64_t until =
                __atomic_load_n(&e.until, __ATOMIC_ACQUIRE);
            T v{};
            __atomic_load(&e.value, &v, __ATOMIC_ACQUIRE);
            std::atomic_thread_fence(std::memory_order_acquire);  // seqlock
            if (var.vlock_.load(std::memory_order_acquire) != w1)
                return false;  // history mutated under us; caller re-reads
            // Valid over [from, until); shrink by the pairwise stamp
            // uncertainty at both ends. Underflow guard: a range narrower
            // than 2*dev+1 is unusable (this is exactly how sync error
            // raises abort rates).
            if (until < from || until - from < 2 * dev_ + 1) continue;
            const std::uint64_t lo = from + dev_;
            const std::uint64_t hi = until - 1 - dev_;
            if (lo > upper_ || hi < lower_) continue;
            lower_ = std::max(lower_, lo);
            upper_ = std::min(upper_, hi);
            upper_cap_ = std::min(upper_cap_, hi);
            read_old_ = true;
            detail::bump(stats_->history_reads);
            out = v;
            return true;
        }
        return false;
    }

    // A read needed an old version and found no history. The second such
    // miss in a row on this context -- no commit counted in between --
    // turns the engine's history switch on for good; see DESIGN.md "When
    // history is kept" for why one miss is not enough.
    __attribute__((noinline)) bool note_history_miss() {
        detail::bump(stats_->history_misses);
        const std::uint64_t commits =
            stats_->commits.load(std::memory_order_relaxed);
        if (*last_miss_ == commits && cfg_.max_versions > 1 &&
            !keep_history_->load(std::memory_order_relaxed))
            keep_history_->store(true, std::memory_order_relaxed);
        *last_miss_ = commits;
        return false;
    }

    // Write-set lookup for the read and write paths.
    detail::CommitRec* find_write(TVarBase* var) {
        const std::uint32_t i = find_write_pos(&var->vlock_);
        return i == detail::PtrIndex::kNone ? nullptr : sets_->writes[i];
    }

    // --- snapshot core hooks (core/snapshot_core.hpp) -------------------

    // An old version read caps the snapshot at that version's end.
    std::uint64_t extension_cap() const { return upper_cap_; }
    bool reads_in_present() const { return !read_old_; }
    void note_own_stamp(std::uint64_t) {}
    static const void* write_key(const detail::CommitRec* rec) {
        return rec->lock;
    }

    // A locked word names the owner's descriptor, so a waiter can
    // arbitrate.
    std::uint64_t lock_word(std::uint64_t) const {
        return reinterpret_cast<std::uintptr_t>(desc_) | 1u;
    }

    // Every spin of a wait on a lock held by the descriptor in `w`: yield
    // if a manager killed us while we were stuck here (only possible while
    // we hold locks, i.e. during commit), then let the contention manager
    // arbitrate. The token holder wins every arbitration: nobody kills it,
    // and it never yields -- it outwaits the lock owner, which is
    // guaranteed to finish because an irrevocable attempt only ever meets
    // locks of already-in-flight commits. Aggressive just asked the owner
    // to die and waits for its rollback, so it gets 64 times the budget.
    std::uint64_t arbitrate(std::uint64_t w) {
        if (killed()) throw detail::AbortTx{};
        auto* owner = decode_owner(w);
        const bool owner_irrevocable = gate_->held_by(owner);
        switch (cm_) {
            case CmPolicy::kSuicide:
                if (!irrevocable_) throw detail::AbortTx{};
                break;
            case CmPolicy::kAggressive:
                if (!owner_irrevocable) try_kill(owner);
                return 64ull * cfg_.lock_spin;
            case CmPolicy::kTimestamp:
                if (!owner_irrevocable &&
                    start_ts_ < owner->start_ts.load(std::memory_order_relaxed))
                    try_kill(owner);
                break;
            case CmPolicy::kPolite:
                break;
        }
        return cfg_.lock_spin;
    }

    // Whether a contention manager killed this commit attempt; the token
    // holder ignores kills (a stale racer holding a descriptor pointer from
    // an earlier attempt): nothing may abort it.
    bool killed() const {
        return !irrevocable_ &&
               desc_->status.load(std::memory_order_acquire) ==
                   detail::kTxKilled;
    }

    // Publish seniority and open the kill window before the first lock.
    void lock_begin() {
        desc_->start_ts.store(start_ts_, std::memory_order_relaxed);
        desc_->status.store(detail::kTxLocking, std::memory_order_release);
    }

    // Last kill check, then the decision by plain store: a kill CAS that
    // lands between the two is overwritten and loses, and its killer keeps
    // waiting for our lock words like any other waiter. With the history
    // switch off (always, under max_versions = 1) no old version is kept.
    bool decide() {
        if (killed()) return false;
        desc_->status.store(detail::kTxCommitted, std::memory_order_release);
        keep_old_ = keep_history_->load(std::memory_order_relaxed)
                        ? std::min(cfg_.max_versions - 1, detail::kMaxHistory)
                        : 0;
        return true;
    }

    // Retire the attempt, so a kill that landed cannot abort the next
    // attempt's reads.
    void on_rollback() {
        desc_->status.store(detail::kTxIdle, std::memory_order_release);
    }

    void apply(detail::CommitRec& rec, std::uint64_t new_ts) {
        rec.apply(&rec, new_ts, rec.locked_word >> 1, keep_old_);
    }

    bool commit() {
        return Core::commit(
            [] { (void)CHRONOSTM_FAILPOINT(lsa_commit_post_lock); },
            [] { (void)CHRONOSTM_FAILPOINT(lsa_commit_pre_stamp); },
            [] { (void)CHRONOSTM_FAILPOINT(lsa_commit_pre_writeback); },
            [] { (void)CHRONOSTM_FAILPOINT(lsa_commit_pre_unlock); });
    }

    CmPolicy cm_;
    detail::TxDesc* desc_;
    std::atomic<bool>* keep_history_;  // LsaStm::keeps_history() flag
    std::uint64_t* last_miss_;
    // Snapshot ceiling set by an old-version read (the version's end).
    std::uint64_t upper_cap_ = ~std::uint64_t{0};
    unsigned keep_old_ = 0;  // old versions this commit keeps per var
    bool read_old_ = false;
};

template <typename T>
inline T TVar<T>::get(Transaction& tx) {
    return tx.read(*this);
}
template <typename T>
inline void TVar<T>::set(Transaction& tx, T v) {
    tx.write(*this, std::move(v));
}

// Per-thread handle (run(), txn_commit(), stats() come from the snapshot
// core) plus this context's commit descriptor, registered with the parent
// LsaStm.
class ThreadContext
    : public detail::SnapshotContext<ThreadContext, Transaction, StmConfig,
                                     detail::AccessSets> {
    using Core = detail::SnapshotContext<ThreadContext, Transaction,
                                         StmConfig, detail::AccessSets>;

 public:
    static constexpr const char* kEngineName = "lsa";

    Transaction txn_begin() { return Transaction(*this); }

 private:
    friend Core;
    friend class Transaction;
    friend class LsaStm;

    ThreadContext(LsaStm& stm, std::shared_ptr<detail::TxDesc> desc);

    // Stamps drawn by freshness aborts need no bookkeeping here.
    void note_own_stamp(std::uint64_t) {}

    CmPolicy cm_;
    std::shared_ptr<detail::TxDesc> desc_;
    std::atomic<bool>* keep_history_;
    // The context's commit count at its last history miss (none yet: ~0).
    std::uint64_t last_miss_ = ~std::uint64_t{0};
};

inline Transaction::Transaction(ThreadContext& ctx)
    : Core(ctx), cm_(ctx.cm_), desc_(ctx.desc_.get()),
      keep_history_(ctx.keep_history_), last_miss_(&ctx.last_miss_) {
    // The snapshot's lower bound starts at the begin observation, not
    // at 0: read_old_version() must never serialize this transaction
    // before a version that provably ended before it began. Without
    // this floor, a deviating time base (batched/sharded stamps) lets
    // a fresh reader fall back to a history entry that died before
    // begin -- a stale read where the time-base contract promises a
    // freshness abort. Exact counters are unaffected (the newest
    // version is always admissible there before any fallback runs).
    lower_ = upper_;
}

class LsaStm : public detail::SnapshotEngine<StmConfig> {
 public:
    explicit LsaStm(tb::TimeBase tbase, StmConfig cfg = StmConfig{})
        : SnapshotEngine(std::move(tbase), cfg,
                         detail::EpochStripes(cfg.filter_stripes)),
          cm_(parse_contention_manager(cfg_.contention_manager)) {
        if (cfg_.max_versions == 0) cfg_.max_versions = 1;
        // Without extension a reader's only defence against any concurrent
        // overwrite is history, so demand is certain from the start.
        keep_history_.on.store(cfg_.max_versions > 1 && !cfg_.read_extension,
                               std::memory_order_relaxed);
    }

    ThreadContext make_context() {
        auto desc = std::make_shared<detail::TxDesc>();
        {
            // Descriptors are pinned for the STM's lifetime: a conflicting
            // transaction may hold a pointer to one (read out of a lock
            // word, for try_kill) after the owning context has been
            // destroyed.
            std::lock_guard<std::mutex> g(mu_);
            descs_.push_back(desc);
        }
        return ThreadContext(*this, std::move(desc));
    }

    CmPolicy contention_policy() const { return cm_; }

    // Whether update commits keep old versions (sticky once true).
    bool keeps_history() const {
        return keep_history_.on.load(std::memory_order_relaxed);
    }

 private:
    friend class ThreadContext;

    CmPolicy cm_;
    // Read by every update commit, written at most once: its own line.
    struct alignas(64) { std::atomic<bool> on{false}; } keep_history_;
    std::vector<std::shared_ptr<detail::TxDesc>> descs_;
};

// The descriptor doubles as the gate identity, so conflict arbitration can
// recognize the irrevocability-token holder from a lock word.
inline ThreadContext::ThreadContext(LsaStm& stm,
                                    std::shared_ptr<detail::TxDesc> desc)
    : Core(stm, desc.get()), cm_(stm.cm_), desc_(std::move(desc)),
      keep_history_(&stm.keep_history_.on) {}

}  // namespace chronostm
