// LSA-STM core: the Lazy Snapshot Algorithm engine over the runtime-
// pluggable time-base facade (the paper's central claim is that the time
// base is a replaceable component; everything time-related below goes
// through tb::ThreadClock and tb::TimeBase::deviation(), so engines,
// workloads, and drivers select the base at runtime -- by object or by
// registry key -- instead of instantiating the whole core per base).
//
// The steps this engine shares with the orec engine -- snapshot extension,
// the striped epoch filter, commit-time validation, the irrevocability
// gate, the retry ladder and stats -- live in core/snapshot_core.hpp. This
// file adds what is specific to per-TVar metadata: the lock word and
// version history, read admission with the old-version fallback, commit
// descriptors, and the contention managers.
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
//  * Writes are buffered in a lazy write set; commit locks the write set in
//    address order, draws one new timestamp from the time base, validates
//    the read set, then publishes values with the new version timestamp.
//    Only the owner writes back: a thread that meets a locked orec waits
//    it out or arbitrates, it never finishes the commit itself.
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
//  * find_write -- on the read path, the write path, and commit-time read
//    validation -- is a linear scan while the write set is small
//    (<= detail::kInlineScan entries, cache-hot) and an open-addressing
//    hash on TVar* beyond that, so large update transactions cost O(1) per
//    lookup instead of O(W).
//  * The read set is an append-only log of (TVar, admitted word) pairs,
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
#include <functional>
#include <memory>
#include <mutex>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <chronostm/core/epoch_stripes.hpp>
#include <chronostm/core/snapshot_core.hpp>
#include <chronostm/stm/config.hpp>
#include <chronostm/timebase/facade.hpp>
#include <chronostm/util/failpoints.hpp>
#include <chronostm/util/pause.hpp>

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
// irrevocable_threshold, stall budgets) live in stm::CommonConfig; the old
// spellings -- cfg.epoch_filter etc. -- are the inherited members.
struct StmConfig : stm::CommonConfig {
    // Versions kept per TVar including the current one; 1 = no history
    // (TL2-like), larger values let long readers survive concurrent
    // updates. Capped at detail::kMaxHistory + 1. Old versions are kept
    // only while LsaStm::keeps_history() is true.
    unsigned max_versions = 8;
    // Conflict arbitration policy; see CmPolicy. Parsed once per LsaStm.
    std::string contention_manager = "polite";
    // Test-only: invoked on the committing thread right after its
    // descriptor is published as Committed and before it applies its write
    // set -- lets tests freeze a decided committer that still holds every
    // lock. Leave empty in production.
    std::function<void()> commit_publish_hook;
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
    TVarBase* var = nullptr;
    std::uint64_t locked_word = 0;  // unlocked word this lock replaced
    // Stores the value (and history rotation) but leaves the version word
    // locked: commit() publishes every version word after one shared
    // release fence.
    void (*apply)(CommitRec*, std::uint64_t new_ts, std::uint64_t old_ts,
                  unsigned keep_old) = nullptr;
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

// One read-log entry: the TVar and the unlocked lock word its read
// admitted. The log is append-only and keeps duplicates; validation walks
// every entry (DESIGN.md "Read log").
struct ReadEntry {
    TVarBase* var;
    std::uint64_t word;
};
using ReadSet = FlatVec<ReadEntry>;

// Per-thread access-set storage, owned by the ThreadContext and reused by
// every attempt of every transaction it runs: logs and indices keep their
// capacity, the arena keeps its chunks. This is what makes the steady-state
// hot path allocation-free.
struct AccessSets {
    ReadSet reads;
    FlatVec<CommitRec*> writes;  // records live in `arena`
    WriteArena arena;
    PtrIndex write_index;  // TVar* -> index into `writes` (pre-sort only)
    // Striped epoch-filter state for the in-flight attempt: the read-set
    // stripe signature plus the per-stripe epoch snapshots taken at first
    // touch (core/epoch_stripes.hpp).
    StripeScratch stripes;

    void reset() {
        reads.clear();
        writes.clear();
        arena.reset();
        write_index.clear();
        stripes.reset();
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
// through this base.
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
            static_cast<TVar<T>*>(self->var)->commit_write(
                self->value, new_ts, old_ts, keep_old);
        }
    };

    // Defined after ThreadContext, whose state it starts from.
    explicit Transaction(ThreadContext& ctx);

    std::uint64_t my_lock_word() const {
        return reinterpret_cast<std::uintptr_t>(desc_) | 1u;
    }

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

    // Block on a foreign lock until it clears, arbitrating per the
    // contention manager; returns the (unlocked) current word. Throws
    // AbortTx when the manager decides this transaction should yield.
    std::uint64_t wait_on_foreign_lock(TVarBase* var) {
        std::uint64_t spins = 0;
        const std::uint64_t budget =
            cm_ == CmPolicy::kAggressive
                ? 64ull * cfg_.lock_spin
                : static_cast<std::uint64_t>(cfg_.lock_spin);
        bool counted_stall = false;
        for (;;) {
            const std::uint64_t w =
                var->vlock_.load(std::memory_order_acquire);
            if (!(w & 1u)) return w;
            // If a manager killed *us* while we were stuck here, yield now
            // (only possible while we hold locks, i.e. during commit). The
            // irrevocability-token holder is exempt: nothing may abort it.
            if (killed()) throw detail::AbortTx{};
            auto* owner = decode_owner(w);
            // The token holder wins every arbitration: nobody kills it, and
            // it never yields -- it outwaits the lock owner, which is
            // guaranteed to finish because an irrevocable attempt only ever
            // meets locks of already-in-flight commits.
            const bool owner_irrevocable = gate_->held_by(owner);
            switch (cm_) {
                case CmPolicy::kSuicide:
                    if (!irrevocable_) throw detail::AbortTx{};
                    break;
                case CmPolicy::kAggressive:
                    if (!owner_irrevocable) try_kill(owner);
                    break;
                case CmPolicy::kTimestamp:
                    if (!owner_irrevocable &&
                        start_ts_ <
                            owner->start_ts.load(std::memory_order_relaxed))
                        try_kill(owner);
                    break;
                case CmPolicy::kPolite:
                    break;
            }
            ++spins;
            // Outliving the polite spin budget means the owner looks
            // preempted, not merely slow; record the stall once per wait.
            if (spins > cfg_.lock_spin && !counted_stall) {
                counted_stall = true;
                detail::bump(stats_->stall_waits);
            }
            if (spins > budget) {
                if (irrevocable_) {
                    spins = 0;  // unbounded wait; the owner must finish
                } else {
                    // Give up on the stalled owner and yield through the
                    // contention seam (run() backs off, then escalates).
                    detail::bump(stats_->stalled_aborts);
                    throw detail::AbortTx{};
                }
            }
            cpu_relax();
            // Single-CPU hosts: the lock owner cannot run unless we yield.
            if ((spins & 255u) == 0) std::this_thread::yield();
        }
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
            // Quiescent heap: no update commit can run while this
            // transaction holds the token, so the current version IS the
            // snapshot -- no admission check, no read-set bookkeeping, no
            // seqlock recheck. Only lower_ advances, keeping the commit
            // stamp above every version this attempt read (commit() pulls
            // the time base forward if the drawn stamp lags it).
            std::uint64_t w1 = var.vlock_.load(std::memory_order_acquire);
            if (w1 & 1u) w1 = wait_on_foreign_lock(&var);
            const T v = var.value_.load(std::memory_order_acquire);
            lower_ = std::max(lower_, (w1 >> 1) + dev_);
            return v;
        }

        // Stripe snapshot BEFORE the admitting lock-word load: a writer
        // publishing to this stripe after the snapshot is a visible bump
        // at extension/validation time (spurious walk at worst).
        // Idempotent, so every read of an armed attempt calls it.
        if (stripes_on_) touch_stripe(&var);

        for (;;) {
            std::uint64_t w1 = var.vlock_.load(std::memory_order_acquire);
            if (w1 & 1u) w1 = wait_on_foreign_lock(&var);
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
                sets_->reads.push_back({&var, w1});
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
        rec->var = &var;
        rec->apply = &WriteRec<T>::do_apply;
        rec->value = std::move(v);
        append_write(static_cast<detail::CommitRec*>(rec));
    }

    // --- snapshot core hooks (core/snapshot_core.hpp) -------------------

    // An old version read caps the snapshot at that version's end.
    std::uint64_t extension_cap() const { return upper_cap_; }
    bool reads_in_present() const { return !read_old_; }
    void note_own_stamp(std::uint64_t) {}
    static TVarBase* write_key(const detail::CommitRec* rec) {
        return rec->var;
    }

    // Full O(R) read-set validation: every logged read still carries
    // exactly the admitted (unlocked) word.
    bool walk_read_set() const {
        return sets_->reads.all_of(
            [](const detail::ReadEntry& e) {
                return e.var->vlock_.load(std::memory_order_acquire) ==
                       e.word;
            });
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
    // miss in a row on this context (no commit in between) turns the
    // engine's history switch on for good; see DESIGN.md "When history is
    // kept" for why one miss is not enough.
    __attribute__((noinline)) bool note_history_miss() {
        detail::bump(stats_->history_misses);
        if (++*misses_in_row_ >= 2 && cfg_.max_versions > 1 &&
            !keep_history_->load(std::memory_order_relaxed))
            keep_history_->store(true, std::memory_order_relaxed);
        return false;
    }

    // Write-set lookup for the read and write paths (commit-time
    // validation uses find_write_sorted instead).
    detail::CommitRec* find_write(TVarBase* var) {
        const std::uint32_t i = find_write_pos(var);
        return i == detail::PtrIndex::kNone ? nullptr : sets_->writes[i];
    }

    // Write-set lookup once commit() has address-sorted the set: binary
    // search on the sorted order (the execution-time index holds stale
    // positions past the sort and would cost a rebuild).
    detail::CommitRec* find_write_sorted(TVarBase* var) {
        auto& ws = sets_->writes;
        auto* it = std::lower_bound(
            ws.begin(), ws.end(), var,
            [](const detail::CommitRec* rec, const TVarBase* v) {
                return rec->var < v;
            });
        return it != ws.end() && (*it)->var == var ? *it : nullptr;
    }

    // Commit protocol: lock the write set in address order (descriptor
    // pointer goes into each orec), check for a kill, draw the commit
    // timestamp and validate reads, check again and publish Committed,
    // then write back in one batch. Returns false on conflict or kill
    // (caller counts the abort and retries).
    bool commit() {
        if (commit_read_only()) {
            *misses_in_row_ = 0;
            return true;
        }
        auto& writes = sets_->writes;
        // An update transaction that resorted to old versions cannot
        // serialize at commit time. This is a freshness failure, not a
        // data conflict: the snapshot fell back to history because it
        // could not extend to the present, and on counter time bases the
        // present only moves when stamps are drawn -- if every thread is
        // stuck here nobody draws and get_time() stalls forever. Flag it
        // so run() pulls the counter forward.
        if (read_old_) {
            commit_stamp_stale_ = true;
            return false;
        }

        sort_writes();
        detail::GateGuard gate_guard;
        enter_gate(gate_guard);

        auto* d = desc_;
        d->start_ts.store(start_ts_, std::memory_order_relaxed);
        d->status.store(detail::kTxLocking, std::memory_order_release);

        std::size_t locked = 0;
        try {
            for (; locked < writes.size(); ++locked) {
                auto* rec = writes[locked];
                for (;;) {
                    if (killed()) return rollback(locked);
                    std::uint64_t w =
                        rec->var->vlock_.load(std::memory_order_relaxed);
                    if (w & 1u) {
                        wait_on_foreign_lock(rec->var);
                        continue;
                    }
                    if (rec->var->vlock_.compare_exchange_weak(
                            w, my_lock_word(), std::memory_order_acq_rel,
                            std::memory_order_relaxed)) {
                        rec->locked_word = w;
                        break;
                    }
                }
            }
        } catch (const detail::AbortTx&) {
            return rollback(locked);
        }

        // Chaos harness: fake a committer preempted right after taking its
        // last write lock, before anything is published.
        (void)CHRONOSTM_FAILPOINT(lsa_commit_post_lock);

        // Locks held: honor a kill that landed while locking, then draw
        // the commit timestamp (stamp_and_validate). It MUST be drawn after
        // the last lock is acquired -- see the stamp-order note above. The
        // token holder ignores kills (a stale racer holding a descriptor
        // pointer from an earlier attempt): nothing may abort it.
        if (killed()) return rollback(writes.size());
        std::uint64_t commit_ts;
        if (!stamp_and_validate(
                commit_ts,
                [this](const detail::ReadEntry& e) {
                    const std::uint64_t cur =
                        e.var->vlock_.load(std::memory_order_acquire);
                    if (cur == e.word) return true;
                    if (cur == my_lock_word()) {
                        // Locked by us; valid iff the version under our
                        // lock is still the one we read. The sorted write
                        // set makes this a binary search, so the validation
                        // pass is O(R log W), not the seed's O(R*W) rescan.
                        auto* rec = find_write_sorted(e.var);
                        if (rec != nullptr && rec->locked_word == e.word)
                            return true;
                    }
                    return false;
                },
                [] { (void)CHRONOSTM_FAILPOINT(lsa_commit_pre_stamp); }))
            return rollback(writes.size());

        // Switch off (always, under max_versions = 1): keep no old version.
        const unsigned keep_old =
            keep_history_->load(std::memory_order_relaxed)
                ? std::min(cfg_.max_versions - 1, detail::kMaxHistory)
                : 0;
        // One timestamp for the whole write set (stamping vars
        // individually could tear the commit across the version history
        // when the time base hands out tied stamps), bumped above every
        // locked version for per-var monotonicity under TL2 sharing and
        // coarse clocks.
        std::uint64_t new_ts = commit_ts;
        for (const auto* rec : writes)
            new_ts = std::max(new_ts, (rec->locked_word >> 1) + 1);

        // Last check, then the decision by plain store: a kill CAS that
        // lands between the two is overwritten and loses, and its killer
        // keeps waiting for our lock words like any other waiter.
        if (killed()) return rollback(writes.size());
        d->status.store(detail::kTxCommitted, std::memory_order_release);

        if (cfg_.commit_publish_hook) cfg_.commit_publish_hook();
        // Chaos harness: a committer parked here is decided but has
        // applied nothing; waiters must tolerate or abort around it.
        (void)CHRONOSTM_FAILPOINT(lsa_commit_pre_writeback);

        // Batched write-back, as in the orec engine: the data stores for
        // the whole write set, then every version word, each pass behind
        // one release fence instead of one fence per record.
        // Fence #1: the (earlier) lock stores stay visible before any data
        // store -- a reader that observes new data and rechecks the lock
        // word must see the lock (see commit_write's seqlock note).
        std::atomic_thread_fence(std::memory_order_release);
        for (auto* rec : writes)
            rec->apply(rec, new_ts, rec->locked_word >> 1, keep_old);
        // Chaos harness: data applied, version words still locked.
        (void)CHRONOSTM_FAILPOINT(lsa_commit_pre_unlock);
        // Fence #2: all data stores precede every version publish below
        // ([atomics.fences]: fence-release paired with the readers'
        // acquire loads of the version word). kFencedPublishOrder is
        // relaxed except under TSan, which cannot model thread fences.
        std::atomic_thread_fence(std::memory_order_release);
        for (const auto* rec : writes)
            rec->var->vlock_.store(new_ts << 1, kFencedPublishOrder);
        d->status.store(detail::kTxIdle, std::memory_order_release);
        *misses_in_row_ = 0;
        return true;
    }

    // Whether a contention manager killed this commit attempt; the token
    // holder is never killed.
    bool killed() const {
        return !irrevocable_ &&
               desc_->status.load(std::memory_order_acquire) ==
                   detail::kTxKilled;
    }

    // Abort path while holding the first `n` write-set locks: restore the
    // saved words and retire the descriptor attempt.
    bool rollback(std::size_t n) {
        auto& writes = sets_->writes;
        for (std::size_t i = 0; i < n; ++i) {
            auto* rec = writes[i];
            rec->var->vlock_.store(rec->locked_word,
                                   std::memory_order_release);
        }
        desc_->status.store(detail::kTxIdle, std::memory_order_release);
        return false;
    }

    CmPolicy cm_;
    detail::TxDesc* desc_;
    std::atomic<bool>* keep_history_;  // LsaStm::keeps_history() flag
    unsigned* misses_in_row_;
    // Snapshot ceiling set by an old-version read (the version's end).
    std::uint64_t upper_cap_ = ~std::uint64_t{0};
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
    // Consecutive attempts whose read found no history; a commit resets it.
    unsigned misses_in_row_ = 0;
};

inline Transaction::Transaction(ThreadContext& ctx)
    : Core(ctx), cm_(ctx.cm_), desc_(ctx.desc_.get()),
      keep_history_(ctx.keep_history_), misses_in_row_(&ctx.misses_in_row_) {
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
