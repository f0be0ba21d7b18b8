// LSA-STM core: the Lazy Snapshot Algorithm engine over the runtime-
// pluggable time-base facade (the paper's central claim is that the time
// base is a replaceable component; everything time-related below goes
// through tb::ThreadClock and tb::TimeBase::deviation(), so engines,
// workloads, and drivers select the base at runtime -- by object or by
// registry key -- instead of instantiating the whole core per base).
//
// Design, following the paper:
//  * Each TVar carries a versioned lock word ("orec"). Unlocked it holds
//    (version_ts << 1); locked it holds (TxDesc* | 1), a pointer to the
//    owner's published commit descriptor, so conflicting threads can
//    inspect the owner, help it finish (LSA-RT commit helping), or ask a
//    contention manager to arbitrate.
//  * Each TVar keeps a bounded history of old versions with validity
//    ranges [from, until), so long read-only transactions can read a
//    consistent-but-old snapshot instead of aborting (multi-version LSA;
//    depth is StmConfig::max_versions). Word-sized T embeds the ring in
//    the TVar (no heap allocation, no pointer chase on commit); wider T
//    heap-allocates it lazily on the first committed write that keeps
//    history, so those TVars stay a few words wide in TL2-like
//    max_versions=1 configurations (detail::HistoryHolder).
//  * A transaction maintains a snapshot interval [lower, upper]. Reads pick
//    the most recent version valid at `upper`; when the current version is
//    too new the snapshot is lazily extended to the present (validating the
//    read set) before falling back to old versions.
//  * Writes are buffered in a lazy write set; commit locks the write set in
//    address order, draws one new timestamp from the time base, validates
//    the read set, then publishes values with the new version timestamp.
//    Once the descriptor is published as Committed, the write-back is
//    claim-based and idempotent: any thread that meets a locked orec can
//    finish the commit on the owner's behalf (StmConfig::help_committers),
//    which keeps the system moving when a committer is preempted.
//  * Conflict resolution is delegated to a pluggable contention manager
//    (StmConfig::contention_manager): suicide, polite (backoff), aggressive,
//    karma, timestamp. Managers that abort the enemy do so cooperatively by
//    CASing the owner's descriptor from Locking/NeedTs to Killed; a
//    descriptor that reached Committed can no longer be killed, only helped.
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
//  * Read-after-read is deduplicated through the same inline-then-hash
//    scheme: re-reading a var re-delivers the version already admitted to
//    the snapshot and adds nothing to the read set, keeping try_extend and
//    commit-time validation passes minimal.

#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
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
    kKarma,       // bigger accumulated access set wins; loser backs off
    kTimestamp,   // older transaction wins; younger backs off
};

inline CmPolicy parse_contention_manager(const std::string& name) {
    if (name.empty() || name == "polite" || name == "backoff")
        return CmPolicy::kPolite;
    if (name == "suicide") return CmPolicy::kSuicide;
    if (name == "aggressive") return CmPolicy::kAggressive;
    if (name == "karma") return CmPolicy::kKarma;
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
    // updates. Capped at detail::kMaxHistory + 1.
    unsigned max_versions = 8;
    // Commit helping (LSA-RT): threads that meet a lock owned by a
    // transaction whose descriptor already reached Committed finish its
    // write-back instead of waiting it out. Off = plain bounded spinning
    // on foreign locks.
    bool help_committers = true;
    // Conflict arbitration policy; see CmPolicy. Parsed once per LsaStm.
    std::string contention_manager = "polite";
    // Test-only: invoked on the committing thread right after its
    // descriptor is published as Committed (claims armed) and before it
    // applies its own write set -- lets tests freeze a committer at the
    // exact point where helping can take over. Leave empty in production.
    std::function<void()> commit_publish_hook;
};

class TxStats {
 public:
    TxStats() = default;
    TxStats(std::uint64_t commits, std::uint64_t aborts,
            std::uint64_t helped_c = 0, std::uint64_t helped_ts = 0,
            std::uint64_t false_conf = 0)
        : helped_commits(helped_c),
          helped_timestamps(helped_ts),
          false_conflicts(false_conf),
          commits_(commits),
          aborts_(aborts) {}

    std::uint64_t commits() const { return commits_; }
    std::uint64_t aborts() const { return aborts_; }

    // Helping counters (LSA-RT), public so drivers can sum them directly.
    // helped_commits counts help EVENTS -- calls in which a thread applied
    // at least one write record of a foreign decided commit -- not
    // distinct commits: several helpers splitting one large write set each
    // count one event. helped_timestamps is reserved (always 0 today):
    // timestamp helping needs per-attempt draw tagging to be sound -- see
    // the note in core/lsa_stm.hpp's detail namespace.
    std::uint64_t helped_commits = 0;
    std::uint64_t helped_timestamps = 0;

    // Orec-table aliasing events (core/orec_stm.hpp): number of times a
    // transaction observed two DISTINCT granule addresses mapping to the
    // same ownership record -- in its read set (counted once per aliased
    // orec entry) or in its write set at lock time (once per extra granule
    // sharing an already-locked orec). Always 0 for the per-TVar engines,
    // whose metadata cannot alias.
    std::uint64_t false_conflicts = 0;

    // Snapshot-extension traffic: `extensions` counts successful extensions
    // (upper bound moved forward), `extension_fast_hits` the subset that the
    // commit-epoch filter admitted without walking the read set, and
    // `validation_fast_hits` commit-time validations skipped the same way.
    std::uint64_t extensions = 0;
    std::uint64_t extension_fast_hits = 0;
    std::uint64_t validation_fast_hits = 0;

    // Striped-filter traffic: `stripe_fast_hits` counts extension and
    // commit-time validations the per-stripe comparison admitted without
    // walking the read set (extension_fast_hits + validation_fast_hits,
    // derived at read time); `stripe_walks` the times the comparison found a
    // touched stripe bumped and forced the O(R) walk (a disjoint writer in
    // another stripe moves neither). Both 0 with the filter off.
    std::uint64_t stripe_fast_hits = 0;
    std::uint64_t stripe_walks = 0;

    // Read-only commits: empty-write-set transactions that committed without
    // drawing a stamp, taking a lock, or bumping the commit epoch.
    std::uint64_t ro_commits = 0;

    // Total time spent in inter-attempt backoff (util/pause.hpp), rounded
    // down to microseconds from an internal nanosecond accumulator.
    std::uint64_t backoff_us = 0;

    // Degradation-ladder traffic. `escalations` counts acquisitions of the
    // engine-global irrevocability token (auto-escalation in run() plus
    // explicit become_irrevocable calls); `irrevocable_commits` the commits
    // that happened while holding it. `stall_waits` counts lock waits that
    // outlived the polite spin budget (the owner looked preempted);
    // `stalled_aborts` the subset that gave up on a provably stalled owner
    // and aborted through the contention seam. `injected_faults` counts
    // failpoint activations charged to this context (always 0 unless built
    // with CHRONOSTM_FAILPOINTS).
    std::uint64_t irrevocable_commits = 0;
    std::uint64_t escalations = 0;
    std::uint64_t stall_waits = 0;
    std::uint64_t stalled_aborts = 0;
    std::uint64_t injected_faults = 0;

 private:
    std::uint64_t commits_ = 0;
    std::uint64_t aborts_ = 0;
};

// Retry-budget exhaustion: run() aborted max_retries consecutive times
// without the degradation ladder rescuing the transaction (only possible
// when irrevocable_threshold is 0 or above max_retries). Carries the
// context's counters at throw time plus the failed transaction's own abort
// taxonomy, so callers can tell livelock (conflict-dominated: backoff and
// contention management lost) from time-base starvation (freshness-
// dominated: the snapshot could never reach the present).
class RetryExhausted : public std::runtime_error {
 public:
    RetryExhausted(const char* engine, TxStats snapshot,
                   std::uint64_t conflicts, std::uint64_t freshness)
        : std::runtime_error(std::string("chronostm: ") + engine +
                             " transaction exceeded retry bound (" +
                             std::to_string(conflicts) + " conflict / " +
                             std::to_string(freshness) +
                             " freshness aborts)"),
          stats(snapshot),
          conflict_aborts(conflicts),
          freshness_aborts(freshness) {}

    // Context counters at throw time (commits/aborts cover the whole
    // context, not just the failed transaction).
    TxStats stats;
    // The failed transaction's aborts split by class; sums to max_retries.
    std::uint64_t conflict_aborts;
    std::uint64_t freshness_aborts;
};

namespace detail {

inline constexpr unsigned kMaxHistory = 16;

// Write/read sets scan linearly up to this many entries (a handful of
// cache-hot compares beats any hash); past it an open-addressing index on
// TVar* takes over and every lookup is O(1).
inline constexpr std::size_t kInlineScan = 8;

// freshness=true marks aborts where the snapshot could not be extended
// because the time base itself had not advanced past `upper` (a too-new
// version with no usable old one). Only these aborts warrant run()'s
// draw-and-discard stamp: conflict aborts resolve through backoff and must
// not drain batched/sharded counter blocks.
struct AbortTx {
    bool freshness = false;
};

// Per-context statistics, one block per thread context. Each block has a
// single writer (its owning context; helpers count into their OWN block),
// so an increment is a relaxed load plus store -- no lock-prefixed RMW --
// and readers on other threads see a recent, untorn value. Padded to its
// own cache lines: contexts' blocks are allocated back to back.
struct alignas(64) StatsBlock {
    std::atomic<std::uint64_t> commits{0};
    std::atomic<std::uint64_t> aborts{0};
    std::atomic<std::uint64_t> helped_commits{0};
    std::atomic<std::uint64_t> helped_timestamps{0};
    std::atomic<std::uint64_t> false_conflicts{0};
    std::atomic<std::uint64_t> extensions{0};
    std::atomic<std::uint64_t> extension_fast_hits{0};
    std::atomic<std::uint64_t> validation_fast_hits{0};
    std::atomic<std::uint64_t> stripe_walks{0};
    std::atomic<std::uint64_t> ro_commits{0};
    // Nanoseconds internally; TxStats surfaces microseconds.
    std::atomic<std::uint64_t> backoff_ns{0};
    std::atomic<std::uint64_t> irrevocable_commits{0};
    std::atomic<std::uint64_t> escalations{0};
    std::atomic<std::uint64_t> stall_waits{0};
    std::atomic<std::uint64_t> stalled_aborts{0};
    std::atomic<std::uint64_t> injected_faults{0};
};

// Single-writer increment of a StatsBlock counter.
inline void bump(std::atomic<std::uint64_t>& c, std::uint64_t n = 1) {
    c.store(c.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
}

// Accumulate one stats block's fast-path counters into a TxStats; shared
// by both engines' per-context and aggregate stats assembly. Every
// stripe-filter fast hit is an extension or a validation fast hit, so
// stripe_fast_hits is their sum rather than a counter of its own.
inline void fill_fast_path_stats(TxStats& s, const StatsBlock& b) {
    const std::uint64_t ext_fast =
        b.extension_fast_hits.load(std::memory_order_relaxed);
    const std::uint64_t val_fast =
        b.validation_fast_hits.load(std::memory_order_relaxed);
    s.extensions += b.extensions.load(std::memory_order_relaxed);
    s.extension_fast_hits += ext_fast;
    s.validation_fast_hits += val_fast;
    s.stripe_fast_hits += ext_fast + val_fast;
    s.stripe_walks += b.stripe_walks.load(std::memory_order_relaxed);
    s.ro_commits += b.ro_commits.load(std::memory_order_relaxed);
    s.backoff_us += b.backoff_ns.load(std::memory_order_relaxed) / 1000;
    s.irrevocable_commits +=
        b.irrevocable_commits.load(std::memory_order_relaxed);
    s.escalations += b.escalations.load(std::memory_order_relaxed);
    s.stall_waits += b.stall_waits.load(std::memory_order_relaxed);
    s.stalled_aborts += b.stalled_aborts.load(std::memory_order_relaxed);
    s.injected_faults += b.injected_faults.load(std::memory_order_relaxed);
}

// One context's "update commit in flight" flag, on its own cache line so
// the commit path writes nothing another context writes.
struct alignas(64) CommitFlag {
    std::atomic<std::uint32_t> in_commit{0};
};

// Engine-global irrevocability gate: a token flag plus one CommitFlag per
// context. Update commits raise their flag before taking their first lock
// and lower it after their last unlock or rollback; a transaction that
// escalates first claims the token (stalling NEW committers at the door)
// and then waits until every enrolled flag reads 0, so the irrevocable
// attempt runs against a quiescent commit pipeline: no lock is held by
// anyone else, no version can change under its feet, and its own commit
// needs no validation. Read-only commits never touch the gate -- they
// cannot invalidate anything.
//
// Door and drain pair Dekker-style: the committer stores its flag and then
// loads the token, the acquirer sets the token and then loads every flag,
// all seq_cst -- so at least one side sees the other (DESIGN.md
// "Irrevocability via quiescence"). A committer's only shared write is its
// own flag's line; the token word is written only by escalation.
class IrrevGate {
 public:
    // Identity of the current token holder (the TxDesc in the LSA engine,
    // the thread context in the orec engine) so conflict arbitration can
    // exempt it from kills.
    std::atomic<const void*> holder{nullptr};

    // A new context's flag; it lives as long as the gate.
    CommitFlag* enroll() {
        std::lock_guard<std::mutex> g(mu_);
        flags_.push_back(std::make_unique<CommitFlag>());
        return flags_.back().get();
    }

    void enter_commit(CommitFlag& f) {
        for (;;) {
            f.in_commit.store(1, std::memory_order_seq_cst);
            if (!token_.load(std::memory_order_seq_cst)) return;
            // An irrevocable transaction is running; it is guaranteed to
            // finish, so waiting here (flag down) is bounded.
            f.in_commit.store(0, std::memory_order_release);
            while (token_.load(std::memory_order_acquire))
                std::this_thread::yield();
        }
    }
    static void exit_commit(CommitFlag& f) {
        f.in_commit.store(0, std::memory_order_release);
    }

    void acquire(const void* who) {
        bool t = false;
        // One irrevocable transaction at a time.
        while (!token_.compare_exchange_strong(t, true,
                                               std::memory_order_seq_cst,
                                               std::memory_order_relaxed)) {
            t = false;
            std::this_thread::yield();
        }
        holder.store(who, std::memory_order_release);
        // Drain: in-flight committers finish (or roll back) on their own;
        // none of them can block on us because we hold no locks yet, and
        // a committer arriving after the token sees it and stays out. A
        // context enrolled after this scan starts raises its flag only
        // after enrolling, hence after the token was set, so it stays out
        // too.
        std::lock_guard<std::mutex> g(mu_);
        for (const auto& f : flags_) {
            std::uint64_t spins = 0;
            while (f->in_commit.load(std::memory_order_seq_cst) != 0) {
                cpu_relax();
                if ((++spins & 63u) == 0) std::this_thread::yield();
            }
        }
    }
    void release() {
        holder.store(nullptr, std::memory_order_release);
        token_.store(false, std::memory_order_release);
    }
    bool held_by(const void* who) const {
        return who != nullptr &&
               holder.load(std::memory_order_acquire) == who;
    }
    bool active() const {
        return token_.load(std::memory_order_acquire);
    }

 private:
    alignas(64) std::atomic<bool> token_{false};
    std::mutex mu_;
    std::vector<std::unique_ptr<CommitFlag>> flags_;
};

// Exception-safe gate exit: commit() arms this after enter_commit() so
// every path out -- success, rollback returns, AbortTx, or a throwing
// value copy during write-back -- lowers the context's flag.
struct GateGuard {
    CommitFlag* flag = nullptr;
    ~GateGuard() {
        if (flag) IrrevGate::exit_commit(*flag);
    }
};

// Exception-safe token release for run(): the normal commit path releases
// the token in txn_commit; this guard covers abnormal exits (an exception
// escaping the user functor while escalated must not leave the engine
// wedged behind a stuck token).
struct TokenGuard {
    IrrevGate* gate = nullptr;
    bool* held = nullptr;
    ~TokenGuard() {
        if (held != nullptr && *held) {
            gate->release();
            *held = false;
        }
    }
};

// Commit descriptor life cycle. Kill CASes are only legal from Locking or
// NeedTs; Committed is the point of no return.
enum TxStatus : int {
    kTxIdle = 0,
    kTxLocking,    // acquiring write-set locks in address order
    kTxNeedTs,     // locks held, waiting for a commit timestamp
    kTxCommitted,  // decided; write-back may be claimed by anybody
    kTxKilled,     // a contention manager aborted this attempt
};

class TVarBase;

// Type-erased write record: lives in the owning context's arena, applied
// (value publish + orec unlock) by the owner or by a helper. Type erasure
// is a plain function pointer -- no vtable, no virtual destructor -- so
// records are trivially destructible and the arena can recycle them by
// rewinding a pointer.
struct CommitRec {
    TVarBase* var = nullptr;
    std::uint64_t locked_word = 0;  // unlocked word this lock replaced
    void (*apply_fn)(CommitRec*, std::uint64_t new_ts, std::uint64_t old_ts,
                     unsigned keep_old, bool publish) = nullptr;
    // Full apply: store the new value and publish/unlock the version word
    // with its own release fence. Used by helpers, which claim records one
    // at a time and must leave each one fully published.
    void apply(std::uint64_t new_ts, std::uint64_t old_ts,
               unsigned keep_old) {
        apply_fn(this, new_ts, old_ts, keep_old, true);
    }
    // Data-only apply for the owner's batched write-back: stores the value
    // (and history rotation) but leaves the version word locked. The caller
    // publishes all claimed records after one shared release fence.
    void apply_data(std::uint64_t new_ts, std::uint64_t old_ts,
                    unsigned keep_old) {
        apply_fn(this, new_ts, old_ts, keep_old, false);
    }
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

// Flat append-only array used for the read and write sets. Exists because
// std::vector::push_back compiles to a reload-heavy sequence (the header
// lives behind two pointers and the growth call clobbers registers) that
// shows up at ~6ns/read on the hot path. Here the hot path is one
// predictable branch plus an indexed store; growth is outlined and cold.
// Capacity persists across clear(), so the steady state never allocates.
template <typename T>
class FlatVec {
    static_assert(std::is_trivially_copyable_v<T>,
                  "FlatVec is for POD access-set entries");

 public:
    void push_back(const T& v) {
        if (__builtin_expect(n_ == cap_, 0)) grow();
        data_[n_++] = v;
    }

    void clear() { n_ = 0; }
    std::uint32_t size() const { return n_; }
    bool empty() const { return n_ == 0; }
    T& operator[](std::size_t i) { return data_[i]; }
    const T& operator[](std::size_t i) const { return data_[i]; }
    T* begin() { return data_.get(); }
    T* end() { return data_.get() + n_; }
    const T* begin() const { return data_.get(); }
    const T* end() const { return data_.get() + n_; }

 private:
    __attribute__((noinline)) void grow() {
        const std::uint32_t cap = cap_ == 0 ? 64 : cap_ * 2;
        auto bigger = std::make_unique<T[]>(cap);
        for (std::uint32_t i = 0; i < n_; ++i) bigger[i] = data_[i];
        data_ = std::move(bigger);
        cap_ = cap;
    }

    std::unique_ptr<T[]> data_;
    std::uint32_t n_ = 0;
    std::uint32_t cap_ = 0;
};

// Open-addressing hash map from TVar* to a 32-bit payload, with O(1)
// generation-tagged clear (stale buckets read as empty; no per-clear
// memset -- a u32 generation wrap triggers one hard reset every 4G
// transactions). Capacity persists across transactions; growth is the only
// allocation and stops once the table covers the workload's largest access
// set. find_or_stage remembers where an absent key's probe ended, so the
// hot "miss then insert" pattern costs a single probe walk.
class PtrIndex {
 public:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    void clear() {
        if (__builtin_expect(++gen_ == 0, 0)) hard_reset();
        size_ = 0;
    }

    // Probes for `key`, growing first if an insert might not fit. Returns
    // the mapped value, or kNone with the landing bucket staged for a
    // subsequent commit_stage (valid until the next probe or clear).
    __attribute__((always_inline)) inline std::uint32_t find_or_stage(const void* key) {
        if (__builtin_expect((size_ + 1) * 4 > cap_ * 3, 0)) grow();
        std::size_t i = slot_of(key);
        for (;;) {
            const Bucket& b = buckets_[i];
            if (b.gen != gen_) {
                stage_ = i;
                return kNone;
            }
            if (b.key == key) return b.val;
            i = (i + 1) & mask_;
        }
    }

    // Inserts at the bucket the last find_or_stage miss landed on.
    __attribute__((always_inline)) inline void commit_stage(const void* key, std::uint32_t val) {
        Bucket& b = buckets_[stage_];
        b.key = key;
        b.val = val;
        b.gen = gen_;
        ++size_;
    }

    void insert(const void* key, std::uint32_t val) {
        if (find_or_stage(key) == kNone) commit_stage(key, val);
        else update(key, val);
    }

 private:
    struct Bucket {
        const void* key = nullptr;
        std::uint32_t val = 0;
        std::uint32_t gen = 0;  // live iff gen == PtrIndex::gen_
    };

    std::size_t slot_of(const void* key) const {
        // Fibonacci hashing; low bits of a TVar* are alignment zeros, so
        // shift them out before mixing.
        const auto h = static_cast<std::uint64_t>(
                           reinterpret_cast<std::uintptr_t>(key) >> 4) *
                       0x9E3779B97F4A7C15ull;
        return static_cast<std::size_t>(h >> shift_) & mask_;
    }

    void update(const void* key, std::uint32_t val) {
        std::size_t i = slot_of(key);
        while (buckets_[i].key != key) i = (i + 1) & mask_;
        buckets_[i].val = val;
    }

    __attribute__((noinline)) void grow() {
        auto old = std::move(buckets_);
        const std::size_t old_cap = cap_;
        const std::uint32_t live = gen_;
        cap_ = cap_ == 0 ? 64 : cap_ * 2;
        buckets_ = std::make_unique<Bucket[]>(cap_);
        mask_ = cap_ - 1;
        shift_ = 1;
        while ((std::size_t{1} << (64 - shift_)) > cap_) ++shift_;
        gen_ = 1;
        size_ = 0;
        for (std::size_t i = 0; i < old_cap; ++i)
            if (old[i].gen == live) insert(old[i].key, old[i].val);
    }

    void hard_reset() {
        for (std::size_t i = 0; i < cap_; ++i) buckets_[i].gen = 0;
        gen_ = 1;
    }

    std::unique_ptr<Bucket[]> buckets_;
    std::size_t cap_ = 0;
    std::size_t mask_ = 0;
    unsigned shift_ = 63;
    std::size_t size_ = 0;
    std::size_t stage_ = 0;
    std::uint32_t gen_ = 1;
};

// The read set IS an open-addressing hash table on TVar*: nothing ever
// needs the reads in insertion order (try_extend and commit validation
// iterate in any order, rollback never touches them), so keeping a side
// index next to an append array would double the per-read store traffic
// for nothing. One probe answers "already read?" and, on a miss, leaves
// the landing slot staged so admission is a single store. clear() is a
// generation bump (u32; a wrap triggers one hard reset every 4G
// transactions), and capacity persists, so the steady state never
// allocates or memsets.
class ReadSet {
 public:
    struct Entry {
        TVarBase* var;
        std::uint64_t word;  // unlocked lock word observed at read time
        std::uint32_t gen;   // live iff gen == ReadSet::gen_
    };

    void clear() {
        if (__builtin_expect(++gen_ == 0, 0)) hard_reset();
        // Capacity is a high-water mark, and all_of scans it in full -- so
        // one huge read-only transaction would tax every later small
        // transaction on this context. Shrink once the table has been
        // nearly empty for a sustained stretch (hysteresis avoids
        // realloc churn under alternating big/small transactions).
        if (__builtin_expect(cap_ > 64 && size_ * 16 < cap_, 0)) {
            if (++small_streak_ >= 128) shrink();
        } else {
            small_streak_ = 0;
        }
        size_ = 0;
    }

    std::uint32_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    // Probes for `var`: its live entry, or nullptr with the landing slot
    // staged for commit_stage (valid until the next probe or clear).
    Entry* find_or_stage(TVarBase* var) {
        if (__builtin_expect((size_ + 1) * 4 > cap_ * 3, 0)) grow();
        std::size_t i = slot_of(var);
        for (;;) {
            Entry& e = entries_[i];
            if (e.gen != gen_) {
                stage_ = i;
                return nullptr;
            }
            if (e.var == var) return &e;
            i = (i + 1) & mask_;
        }
    }

    // Inserts at the slot the last find_or_stage miss landed on.
    void commit_stage(TVarBase* var, std::uint64_t word) {
        Entry& e = entries_[stage_];
        e.var = var;
        e.word = word;
        e.gen = gen_;
        ++size_;
    }

    // Applies `f` to every live entry until it returns false; returns
    // whether every entry passed. Iteration order is table order.
    template <typename F>
    bool all_of(F&& f) const {
        for (std::size_t i = 0; i < cap_; ++i) {
            const Entry& e = entries_[i];
            if (e.gen == gen_ && !f(e)) return false;
        }
        return true;
    }

 private:
    std::size_t slot_of(const void* key) const {
        // Fibonacci hashing; low bits of a TVar* are alignment zeros, so
        // shift them out before mixing.
        const auto h = static_cast<std::uint64_t>(
                           reinterpret_cast<std::uintptr_t>(key) >> 4) *
                       0x9E3779B97F4A7C15ull;
        return static_cast<std::size_t>(h >> shift_) & mask_;
    }

    __attribute__((noinline)) void grow() {
        auto old = std::move(entries_);
        const std::size_t old_cap = cap_;
        const std::uint32_t live = gen_;
        cap_ = cap_ == 0 ? 64 : cap_ * 2;
        entries_ = std::make_unique<Entry[]>(cap_);  // zeroed: gen 0 = dead
        mask_ = cap_ - 1;
        shift_ = 1;
        while ((std::size_t{1} << (64 - shift_)) > cap_) ++shift_;
        gen_ = 1;
        for (std::size_t i = 0; i < old_cap; ++i) {
            if (old[i].gen != live) continue;
            std::size_t j = slot_of(old[i].var);
            while (entries_[j].gen == gen_) j = (j + 1) & mask_;
            entries_[j] = old[i];
            entries_[j].gen = gen_;
        }
    }

    void hard_reset() {
        for (std::size_t i = 0; i < cap_; ++i) entries_[i].gen = 0;
        gen_ = 1;
    }

    // Called from clear() with size_ entries about to be discarded anyway,
    // so no rehash: just drop to a capacity sized for the recent traffic.
    __attribute__((noinline)) void shrink() {
        std::size_t cap = 64;
        while (cap < std::size_t{size_} * 8) cap *= 2;
        cap_ = cap;
        entries_ = std::make_unique<Entry[]>(cap_);
        mask_ = cap_ - 1;
        shift_ = 1;
        while ((std::size_t{1} << (64 - shift_)) > cap_) ++shift_;
        gen_ = 1;
        small_streak_ = 0;
    }

    std::unique_ptr<Entry[]> entries_;
    std::size_t cap_ = 0;
    std::size_t mask_ = 0;
    unsigned shift_ = 63;
    std::size_t stage_ = 0;
    std::uint32_t size_ = 0;
    std::uint32_t gen_ = 1;
    std::uint32_t small_streak_ = 0;
};

// Per-thread access-set storage, owned by the ThreadContext and reused by
// every attempt of every transaction it runs: tables keep their capacity,
// the arena keeps its chunks. This is what makes the steady-state hot path
// allocation-free.
struct AccessSets {
    ReadSet reads;
    FlatVec<CommitRec*> writes;  // records live in `arena`
    WriteArena arena;
    PtrIndex write_index;  // TVar* -> index into `writes` (pre-sort only)
    // Commit-time scratch: slot indices this owner claimed, so the batched
    // write-back can publish them all after a single release fence.
    FlatVec<std::uint32_t> claimed;
    // Striped epoch-filter state for the in-flight attempt: the read-set
    // stripe signature plus the per-stripe epoch snapshots taken at first
    // touch (core/epoch_stripes.hpp).
    StripeScratch stripes;

    void reset() {
        reads.clear();
        writes.clear();
        arena.reset();
        write_index.clear();
        claimed.clear();
        stripes.reset();
    }
};

// Published commit descriptor, one per thread context, reused across
// transactions. Locked orecs point at it. Reuse is tag-guarded: write-set
// slots are claimable only under the current sequence number, and slot
// arrays only ever grow (retired arrays are kept until the descriptor
// dies), so a stale helper can always dereference what it loaded and its
// claim CAS is guaranteed to fail. Padded to its own cache lines: the
// owner stores `status` several times per update commit, and contexts'
// descriptors are allocated back to back.
struct alignas(64) TxDesc {
    std::atomic<int> status{kTxIdle};
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> new_ts{0};
    std::atomic<unsigned> keep_old{0};
    // Contention-manager metadata for the in-flight attempt.
    std::atomic<std::uint64_t> karma{0};
    std::atomic<std::uint64_t> start_ts{0};

    struct Slot {
        std::atomic<std::uint64_t> claim{0};  // 2*seq armed, 2*seq+1 taken
        std::atomic<CommitRec*> rec{nullptr};
    };
    // Capacity travels with the array: a helper that pairs a stale array
    // with a newer (larger) n_slots clamps to the array's own capacity
    // instead of indexing out of bounds (the claim tags then make every
    // stale access a failed CAS).
    struct SlotArray {
        explicit SlotArray(std::size_t c)
            : cap(c), slots(std::make_unique<Slot[]>(c)) {}
        const std::size_t cap;
        const std::unique_ptr<Slot[]> slots;
    };
    std::atomic<SlotArray*> slots{nullptr};
    std::atomic<std::size_t> n_slots{0};

    // Owner-only; helpers read the array through the atomic pointer.
    SlotArray* ensure_capacity(std::size_t n) {
        auto* cur = slots.load(std::memory_order_relaxed);
        if (cur != nullptr && n <= cur->cap) return cur;
        std::size_t want = cur != nullptr ? cur->cap * 2 : 8;
        while (want < n) want *= 2;
        arenas_.push_back(std::make_unique<SlotArray>(want));
        slots.store(arenas_.back().get(), std::memory_order_release);
        return arenas_.back().get();
    }

 private:
    std::vector<std::unique_ptr<SlotArray>> arenas_;
};

// Finish a foreign Committed transaction's write-back. Claims are tagged
// with the descriptor's sequence number, so helping a descriptor that has
// since been reused degrades to a no-op (every CAS fails). Returns true if
// this call applied at least one write record.
inline bool help_apply(TxDesc* d, StatsBlock* stats) {
    if (d->status.load(std::memory_order_acquire) != kTxCommitted)
        return false;
    const std::uint64_t q = d->seq.load(std::memory_order_acquire);
    auto* arr = d->slots.load(std::memory_order_acquire);
    std::size_t n = d->n_slots.load(std::memory_order_acquire);
    if (arr == nullptr || n == 0) return false;
    // NOTE: everything loaded so far may be stale (the descriptor may have
    // been recycled for a later attempt between the loads) -- staleness is
    // caught by the claim tag below, never acted on, and `arr` and `n` may
    // even be from different attempts, so n is clamped to the array's own
    // capacity. The write-set metadata must NOT be read here: a claim for
    // attempt q+1 could otherwise be applied with attempt q's new_ts.
    if (n > arr->cap) n = arr->cap;
    auto* slots = arr->slots.get();
    bool helped = false;
    for (std::size_t i = 0; i < n; ++i) {
        std::uint64_t expect = 2 * q;
        if (!slots[i].claim.compare_exchange_strong(
                expect, 2 * q + 1, std::memory_order_acq_rel,
                std::memory_order_relaxed))
            continue;
        // A successful claim proves attempt q is still in write-back (the
        // owner recycles the descriptor only once every slot has been
        // claimed and applied), so metadata read AFTER the claim is
        // exactly attempt q's, stable, and visible: the claim CAS
        // synchronizes with the owner's post-publish claim store.
        auto* rec = slots[i].rec.load(std::memory_order_relaxed);
        const std::uint64_t nts = d->new_ts.load(std::memory_order_relaxed);
        const unsigned keep = d->keep_old.load(std::memory_order_relaxed);
        rec->apply(nts, rec->locked_word >> 1, keep);
        helped = true;
    }
    if (helped && stats != nullptr)
        detail::bump(stats->helped_commits);
    return helped;
}

// Timestamp helping (a helper drawing the commit stamp on a stalled
// committer's behalf) is deliberately NOT implemented: the correctness of
// snapshot reads hinges on every commit stamp being drawn AFTER the whole
// write set is locked, and a helper cannot prove its draw happened inside
// the current attempt's window (the descriptor may have been recycled
// between its status check and its draw). A pre-lock stamp would let a
// fresh reader accept the commit's writes inside a snapshot that still
// contains pre-lock state. Helpers therefore only ever finish decided
// commits; StatsBlock::helped_timestamps stays reserved for a future
// scheme that can tag draws per attempt.

}  // namespace detail

class Transaction;
class ThreadContext;
class LsaStm;
// InlineHist picks where the multi-version history ring lives (see
// detail::HistoryHolder): the default embeds the full-depth ring in the
// var for word-sized T. The engine facade's slot cells override it to
// false -- a 24-byte var with a lazily heap-allocated ring -- so node-based
// structures can afford one var per field.
template <typename T, bool InlineHist = (sizeof(T) <= 8 && alignof(T) <= 8)>
class TVar;

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

// Old versions live in a ring written only while the lock bit is held;
// readers snapshot entries and recheck vlock_ to detect slot reuse.
template <typename T>
struct VersionHistory {
    struct OldVersion {
        std::atomic<T> value{};
        std::atomic<std::uint64_t> from{0};
        std::atomic<std::uint64_t> until{0};
    };
    // Control words first: for word-sized TVars the ring is embedded in
    // the var itself, and this keeps the commit-touched head/size on the
    // TVar's first cache line next to vlock_ and value_.
    std::atomic<unsigned> head{0};
    std::atomic<unsigned> size{0};
    std::array<OldVersion, kMaxHistory> slots{};
};

// Where a TVar's history ring lives. Word-sized T (<= 8 bytes) embeds the
// full-depth ring in the TVar itself: no heap allocation ever, and no
// pointer chase on commit_write or old-version reads. The embedded ring
// adds cold cache lines of footprint per var, but they are touched only by
// history machinery -- plain reads and single-version commits stay on the
// first line, where head/size sit next to vlock_/value_. Wider T keeps the
// PR 3 shape: one lazy heap allocation on the first committed write that
// keeps history, so single-version configurations stay a few words wide.
template <typename T, bool Inline = (sizeof(T) <= 8 && alignof(T) <= 8)>
struct HistoryHolder {
    VersionHistory<T>* hist_for_write() { return &h_; }
    const VersionHistory<T>* hist_for_read() const { return &h_; }
    void clear_history() { h_.size.store(0, std::memory_order_release); }
    VersionHistory<T> h_{};
};

template <typename T>
struct HistoryHolder<T, false> {
    HistoryHolder() = default;
    ~HistoryHolder() { delete h_.load(std::memory_order_acquire); }
    HistoryHolder(const HistoryHolder&) = delete;
    HistoryHolder& operator=(const HistoryHolder&) = delete;

    // Called with the owning TVar's lock bit held by exactly one thread
    // (the committing owner or the helper that claimed the record), so the
    // one-time allocation races nobody.
    VersionHistory<T>* hist_for_write() {
        auto* h = h_.load(std::memory_order_relaxed);
        if (h == nullptr) {
            h = new VersionHistory<T>;
            h_.store(h, std::memory_order_release);
        }
        return h;
    }
    const VersionHistory<T>* hist_for_read() const {
        return h_.load(std::memory_order_acquire);
    }
    void clear_history() {
        auto* h = h_.load(std::memory_order_relaxed);
        if (h != nullptr) h->size.store(0, std::memory_order_release);
    }
    std::atomic<VersionHistory<T>*> h_{nullptr};
};

}  // namespace detail

using TVarBase = detail::TVarBase;

template <typename T, bool InlineHist>
class TVar : public TVarBase {
    static_assert(std::is_trivially_copyable_v<T>,
                  "TVar<T> requires a trivially copyable T: values are read "
                  "optimistically under a seqlock");

 public:
    explicit TVar(T initial) : value_(initial) {}

    // Defined after Transaction (which they call into).
    T get(Transaction& tx);
    void set(Transaction& tx, T v);

    // Non-transactional read for post-run invariant checks (quiesced state
    // only: racy by construction while transactions run).
    T unsafe_peek() const { return value_.load(std::memory_order_acquire); }

 private:
    friend class Transaction;

    using History = detail::VersionHistory<T>;

    // Called with the lock bit held by exactly one thread (the committing
    // owner or the helper that claimed this record). `old_ts` is the
    // version being replaced (the lock word no longer carries it: locked
    // words hold the descriptor pointer). The release fence keeps the
    // (earlier) lock store visible before any of the data stores below on
    // weakly-ordered hardware, so a reader that observes new data and then
    // rechecks the lock word is guaranteed to see the lock (or the final
    // version) -- the other half of the seqlock lives in Transaction::read
    // / read_old_version. With publish=false (owner's batched write-back)
    // both fence and version-publish are elided: the caller has already
    // issued one fence covering every lock store of the batch and will
    // publish all version words after another single fence.
    void commit_write(const T& v, std::uint64_t new_ts, std::uint64_t old_ts,
                      unsigned keep_old, bool publish) {
        if (publish) std::atomic_thread_fence(std::memory_order_release);
        if (keep_old > 0) {
            History* h = hist_.hist_for_write();
            const unsigned head =
                (h->head.load(std::memory_order_relaxed) + 1) %
                detail::kMaxHistory;
            auto& slot = h->slots[head];
            slot.value.store(value_.load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
            slot.from.store(old_ts, std::memory_order_relaxed);
            slot.until.store(new_ts, std::memory_order_relaxed);
            h->head.store(head, std::memory_order_release);
            const unsigned cap = std::min(keep_old, detail::kMaxHistory);
            const unsigned sz = h->size.load(std::memory_order_relaxed);
            h->size.store(std::min(sz + 1, cap), std::memory_order_release);
        } else {
            hist_.clear_history();
        }
        value_.store(v, std::memory_order_relaxed);
        if (publish)
            this->vlock_.store(new_ts << 1, std::memory_order_release);
    }

    std::atomic<T> value_;
    detail::HistoryHolder<T, InlineHist> hist_;
};

class Transaction {
 public:
    using Clock = tb::ThreadClock;

    Transaction(const Transaction&) = delete;
    Transaction& operator=(const Transaction&) = delete;

    // Explicit early abort: unwinds out of the user lambda; run() retries.
    // Note that abort() defeats the degradation ladder by design: an
    // irrevocable attempt that the user functor aborts retries irrevocably.
    [[noreturn]] void abort() { throw detail::AbortTx{}; }

    // Escalate this attempt to irrevocable serial mode mid-flight: claim
    // the engine-global token, drain in-flight update commits, then
    // re-validate the snapshot once against the now-quiescent heap. On
    // validation failure the attempt aborts (conflict class) but the token
    // stays with the owning context, so the retry runs irrevocably from
    // its first read. Idempotent; from here to commit nothing can abort
    // this transaction.
    void become_irrevocable() {
        if (irrevocable_) return;
        if (!*token_held_) {
            gate_->acquire(desc_);
            *token_held_ = true;
            detail::bump(stats_->escalations);
        }
        // A snapshot that fell back to old versions cannot serialize in
        // the present; everything else is settled by one full validation
        // walk -- after it succeeds no commit can run until we release.
        if (read_old_ || !walk_read_set()) throw detail::AbortTx{};
        irrevocable_ = true;
    }

    bool irrevocable() const { return irrevocable_; }

    std::uint64_t snapshot_lower() const { return lower_; }
    std::uint64_t snapshot_upper() const { return upper_; }

    // Deduplicated set sizes (distinct TVars); exposed for tests and
    // instrumentation.
    std::size_t read_set_size() const { return sets_->reads.size(); }
    std::size_t write_set_size() const { return sets_->writes.size(); }

    // Instrumentation/bench hook: attempt a snapshot extension right now,
    // exactly as a read that meets a too-new version would.
    bool try_extend_now() { return try_extend(); }

 private:
    friend class ThreadContext;
    template <typename T2, bool H2>
    friend class chronostm::TVar;

    template <typename T, bool H>
    struct WriteRec : detail::CommitRec {
        T value;
        static void do_apply(detail::CommitRec* rec,
                             std::uint64_t new_ts, std::uint64_t old_ts,
                             unsigned keep_old, bool publish) {
            auto* self = static_cast<WriteRec*>(rec);
            static_cast<TVar<T, H>*>(self->var)->commit_write(
                self->value, new_ts, old_ts, keep_old, publish);
        }
    };

    Transaction(Clock& clk, const StmConfig& cfg, CmPolicy cm,
                std::uint64_t dev, detail::StatsBlock* stats,
                detail::TxDesc* desc, detail::AccessSets* sets,
                detail::EpochStripes* stripes,
                detail::IrrevGate* gate, detail::CommitFlag* commit_flag,
                bool* token_held)
        : clk_(clk), cfg_(cfg), cm_(cm), dev_(dev), stats_(stats),
          desc_(desc), sets_(sets), stripes_(stripes), gate_(gate),
          commit_flag_(commit_flag), token_held_(token_held),
          irrevocable_(*token_held) {
        sets_->reset();
        CHRONOSTM_FP_SINK(&stats_->injected_faults);
        // Per-stripe epoch snapshots are taken lazily at the stripe's
        // first touch, always BEFORE the touched var's lock-word load
        // (touch_stripe in the read path): a writer that commits between
        // snapshot and admission shows up as a stripe mismatch (false
        // negative, walk runs), never as a stale fast hit. See DESIGN.md
        // "Striped epoch soundness".
        upper_ = clk_.get_time();
        start_ts_ = upper_;
        // The snapshot's lower bound starts at the begin observation, not
        // at 0: read_old_version() must never serialize this transaction
        // before a version that provably ended before it began. Without
        // this floor, a deviating time base (batched/sharded stamps) lets
        // a fresh reader fall back to a history entry that died before
        // begin -- a stale read where the time-base contract promises a
        // freshness abort. Exact counters are unaffected (the newest
        // version is always admissible there before any fallback runs).
        lower_ = upper_;
        upper_cap_ = ~std::uint64_t{0};
    }

    std::uint64_t my_lock_word() const {
        return reinterpret_cast<std::uintptr_t>(desc_) | 1u;
    }

    static detail::TxDesc* decode_owner(std::uint64_t locked_word) {
        return reinterpret_cast<detail::TxDesc*>(
            static_cast<std::uintptr_t>(locked_word & ~std::uint64_t{1}));
    }

    // Cooperative kill: only attempts that have not reached Committed can
    // die. A stale kill (the descriptor moved on to a later attempt) costs
    // that attempt a spurious abort, never correctness.
    static void try_kill(detail::TxDesc* d) {
        int s = d->status.load(std::memory_order_acquire);
        if (s == detail::kTxLocking || s == detail::kTxNeedTs)
            d->status.compare_exchange_strong(s, detail::kTxKilled,
                                              std::memory_order_acq_rel,
                                              std::memory_order_relaxed);
    }

    // Block on a foreign lock until it clears, helping and arbitrating per
    // the contention manager; returns the (unlocked) current word. Throws
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
            if (!irrevocable_ &&
                desc_->status.load(std::memory_order_relaxed) ==
                    detail::kTxKilled)
                throw detail::AbortTx{};
            auto* owner = decode_owner(w);
            if (cfg_.help_committers &&
                detail::help_apply(owner, stats_))
                continue;
            // The token holder wins every arbitration: nobody kills it, and
            // it never yields -- it outwaits (or helps) the lock owner,
            // which is guaranteed to finish because an irrevocable attempt
            // only ever meets locks of already-in-flight commits.
            const bool owner_irrevocable = gate_->held_by(owner);
            switch (cm_) {
                case CmPolicy::kSuicide:
                    if (!irrevocable_) throw detail::AbortTx{};
                    break;
                case CmPolicy::kAggressive:
                    if (!owner_irrevocable) try_kill(owner);
                    break;
                case CmPolicy::kKarma:
                    if (!owner_irrevocable &&
                        sets_->reads.size() + sets_->writes.size() >
                            owner->karma.load(std::memory_order_relaxed))
                        try_kill(owner);
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

    template <typename T, bool H>
    T read(TVar<T, H>& var) {
        if (auto* rec = find_write(&var))
            return static_cast<WriteRec<T, H>*>(rec)->value;

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

        // Read-after-read dedup: if the var is already in the read set, the
        // admitted version is re-delivered and the read set stays as-is. On
        // a miss the probe's landing slot stays staged, so admission below
        // is a single store.
        const auto* dup = sets_->reads.find_or_stage(&var);

        // Stripe snapshot BEFORE the admitting lock-word load: a writer
        // publishing to this stripe after the snapshot is a visible bump
        // at extension/validation time (spurious walk at worst). A dup
        // read's stripe was snapshotted at its first admission, which also
        // preceded this load.
        if (cfg_.epoch_filter && dup == nullptr) touch_stripe(&var);

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
                if (dup != nullptr) {
                    // Same version as the first read (the normal case; a
                    // conflicting commit cannot produce an admissible newer
                    // version, see below) -- nothing new to track. A word
                    // that differs can only mean snapshot damage; refuse.
                    if (dup->word != w1) throw detail::AbortTx{};
                    return v;
                }
                lower_ = std::max(lower_, wv + dev_);
                sets_->reads.commit_stage(&var, w1);
                return v;
            }
            // Current version is newer than the snapshot. A duplicate read
            // can only land here if the var changed since we read it, and a
            // changed var means extension would fail; go straight to the
            // old-version fallback, which returns the still-valid version
            // we first read. First choice otherwise: lazily extend the
            // snapshot to the present.
            bool conflict = false;
            if (dup == nullptr && cfg_.read_extension) {
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

    template <typename T, bool H>
    void write(TVar<T, H>& var, T v) {
        if (auto* rec = find_write(&var)) {
            // Write-after-write: overwrite in place, the set stays minimal.
            static_cast<WriteRec<T, H>*>(rec)->value = std::move(v);
            return;
        }
        static_assert(std::is_trivially_destructible_v<WriteRec<T, H>>,
                      "write records must be trivially destructible: the "
                      "arena reclaims them without running destructors");
        void* mem = sets_->arena.allocate(sizeof(WriteRec<T, H>),
                                          alignof(WriteRec<T, H>));
        auto* rec = new (mem) WriteRec<T, H>;
        rec->var = &var;
        rec->apply_fn = &WriteRec<T, H>::do_apply;
        rec->value = std::move(v);
        auto& ws = sets_->writes;
        ws.push_back(rec);
        if (ws.size() == detail::kInlineScan + 1) {
            // Crossed the inline threshold: index everything accumulated.
            for (std::uint32_t i = 0; i < ws.size(); ++i)
                sets_->write_index.insert(ws[i]->var, i);
        } else if (ws.size() > detail::kInlineScan + 1) {
            // find_write just missed on this key: its staged bucket is ours.
            sets_->write_index.commit_stage(rec->var, ws.size() - 1);
        }
        writes_sorted_ = false;
    }

    // First touch of a stripe: load its epoch snapshot and set the
    // signature bit. Callers must invoke this BEFORE the lock-word load
    // that admits a read of a var in the stripe (soundness invariant in
    // DESIGN.md "Striped epoch soundness").
    void touch_stripe(const void* p) {
        auto& sc = sets_->stripes;
        const unsigned s = stripes_->stripe_of(p);
        const std::uint64_t bit = std::uint64_t{1} << s;
        if (!(sc.sig & bit)) {
            sc.snap[s] = (*stripes_)[s].load(std::memory_order_acquire);
            sc.sig |= bit;
        }
    }

    // All touched stripes unchanged since their snapshots? Re-loads each
    // signature stripe, recording the fresh values in `fresh` (indexed by
    // stripe id) so the caller can re-anchor AFTER a successful walk via
    // reanchor_stripes(). The snapshots must NOT be updated here: a
    // failed walk proves a conflicting writer hit the read set, and
    // absorbing its bump into the snapshot would let a later extension
    // fast-hit past the very commit the walk just caught (the
    // old-version fallback keeps read-only transactions alive after a
    // failed extension, so the stale snapshot WOULD be consulted again
    // -- the chaos bank oracle catches exactly this tear).
    bool stripes_clean(std::uint64_t* fresh) {
        auto& sc = sets_->stripes;
        bool clean = true;
        std::uint64_t sig = sc.sig;
        while (sig != 0) {
            const unsigned s =
                static_cast<unsigned>(__builtin_ctzll(sig));
            sig &= sig - 1;
            const std::uint64_t e =
                (*stripes_)[s].load(std::memory_order_acquire);
            fresh[s] = e;
            if (e != sc.snap[s]) clean = false;
        }
        return clean;
    }

    // Move the stripe snapshots to the pre-walk values captured by
    // stripes_clean(). Only sound after a SUCCESSFUL walk: any bump <=
    // fresh[s] whose publish the walk did not see keeps its var locked
    // until that publish, so the walk would have failed on the locked
    // word.
    void reanchor_stripes(const std::uint64_t* fresh) {
        auto& sc = sets_->stripes;
        std::uint64_t sig = sc.sig;
        while (sig != 0) {
            const unsigned s =
                static_cast<unsigned>(__builtin_ctzll(sig));
            sig &= sig - 1;
            sc.snap[s] = fresh[s];
        }
    }

    // Try to move `upper` to the present; all reads so far must still be
    // the most recent versions (a changed or locked word means the
    // extension would break snapshot consistency, so we refuse). The
    // striped commit-epoch filter short-circuits the O(R) walk: if no
    // writer bumped any stripe this transaction's read set hashes into
    // since its snapshots, no read-set word can have changed (every
    // conflicting writer bumps the covering stripe while holding the
    // var's lock and unlocks only by publishing). `nu` is drawn BEFORE
    // the stripe loads so a writer invisible to the stripe check
    // necessarily drew its commit stamp after nu -- the deviation-aware
    // admission rule then keeps its versions out of the extended
    // snapshot. See DESIGN.md "Striped epoch soundness".
    // Failure reason is recorded in extend_conflict_: false means time
    // simply has not advanced past upper_ (a FRESHNESS condition), true
    // means walk_read_set() found a changed or locked read-set word (a
    // data CONFLICT -- per the abort taxonomy in DESIGN.md, backoff
    // resolves it and the retry must not drain batched/sharded stamp
    // blocks with a forced draw).
    bool try_extend() {
        extend_conflict_ = false;
        std::uint64_t nu = clk_.get_time();
        nu = std::min(nu, upper_cap_);
        if (nu <= upper_) return false;
        if (cfg_.epoch_filter) {
            std::uint64_t fresh[detail::EpochStripes::kMaxStripes];
            if (stripes_clean(fresh)) {
                upper_ = nu;
                detail::bump(stats_->extensions);
                detail::bump(stats_->extension_fast_hits);
                return true;
            }
            detail::bump(stats_->stripe_walks);
            if (!walk_read_set()) {
                extend_conflict_ = true;
                return false;
            }
            upper_ = nu;
            reanchor_stripes(fresh);
            detail::bump(stats_->extensions);
            return true;
        }
        if (!walk_read_set()) {
            extend_conflict_ = true;
            return false;
        }
        upper_ = nu;
        detail::bump(stats_->extensions);
        return true;
    }

    // Full O(R) read-set validation: every read var still carries exactly
    // the admitted (unlocked) word.
    bool walk_read_set() const {
        return sets_->reads.all_of(
            [](const detail::ReadSet::Entry& e) {
                return e.var->vlock_.load(std::memory_order_acquire) ==
                       e.word;
            });
    }

    // Search the version history of `var` for a version covering the
    // snapshot; `w1` is the unlocked lock word the caller just observed.
    template <typename T, bool H>
    bool read_old_version(TVar<T, H>& var, std::uint64_t w1, T& out) {
        const auto* h = var.hist_.hist_for_read();
        if (h == nullptr) return false;  // never kept history
        const unsigned n = h->size.load(std::memory_order_acquire);
        const unsigned head = h->head.load(std::memory_order_acquire);
        for (unsigned k = 0; k < n; ++k) {
            const auto& slot =
                h->slots[(head + detail::kMaxHistory - k) %
                         detail::kMaxHistory];
            const std::uint64_t from =
                slot.from.load(std::memory_order_acquire);
            const std::uint64_t until =
                slot.until.load(std::memory_order_acquire);
            const T v = slot.value.load(std::memory_order_acquire);
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
            out = v;
            return true;
        }
        return false;
    }

    // O(1) write-set lookup past the inline threshold; shared by the read
    // path and the write path. Positions in write_index are only valid
    // before commit() sorts the write set -- commit-time validation uses
    // find_write_sorted instead.
    detail::CommitRec* find_write(TVarBase* var) {
        auto& ws = sets_->writes;
        if (ws.size() <= detail::kInlineScan) {
            for (auto* rec : ws)
                if (rec->var == var) return rec;
            return nullptr;
        }
        const std::uint32_t pos = sets_->write_index.find_or_stage(var);
        return pos == detail::PtrIndex::kNone ? nullptr : ws[pos];
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
    // pointer goes into each orec), publish NeedTs and draw or receive the
    // commit timestamp, validate reads, publish Committed, then claim-and-
    // apply the write set -- racing any helpers doing the same. Returns
    // false on conflict or kill (caller counts the abort and retries).
    bool commit() {
        auto& writes = sets_->writes;
        if (writes.empty()) {
            // Read-only fast path: the snapshot reads are consistent and
            // the transaction serializes at its snapshot -- no stamp drawn,
            // no lock taken, no epoch bump.
            detail::bump(stats_->ro_commits);
            return true;
        }
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

        if (!writes_sorted_) {
            std::sort(writes.begin(), writes.end(),
                      [](const detail::CommitRec* a,
                         const detail::CommitRec* b) {
                          return a->var < b->var;
                      });
            writes_sorted_ = true;
        }

        // Update commits run inside the irrevocability gate: held at the
        // door while a token holder is active, flagged in flight otherwise
        // so an escalating transaction can drain the pipeline. The token
        // holder itself skips the gate -- it IS the gate. The guard exits
        // on every path out, including exceptions.
        detail::GateGuard gate_guard;
        if (!irrevocable_) {
            gate_->enter_commit(*commit_flag_);
            gate_guard.flag = commit_flag_;
        }

        auto* d = desc_;
        const std::uint64_t q = d->seq.load(std::memory_order_relaxed) + 1;
        d->karma.store(sets_->reads.size() + writes.size(),
                       std::memory_order_relaxed);
        d->start_ts.store(start_ts_, std::memory_order_relaxed);
        d->status.store(detail::kTxLocking, std::memory_order_release);

        std::size_t locked = 0;
        try {
            for (; locked < writes.size(); ++locked) {
                auto* rec = writes[locked];
                for (;;) {
                    if (!irrevocable_ &&
                        d->status.load(std::memory_order_relaxed) ==
                            detail::kTxKilled)
                        return rollback(locked);
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

        // Locks held: draw the commit timestamp. It MUST be drawn after
        // the last lock is acquired -- a pre-lock stamp would let a reader
        // that began after the stamp accept our writes next to pre-lock
        // state it already read (see the timestamp-helping note above).
        int expect = detail::kTxLocking;
        if (irrevocable_) {
            // The token holder ignores stale kills (a racer holding a
            // descriptor pointer from an earlier attempt): it cannot be
            // aborted, so the status moves by plain store.
            d->status.store(detail::kTxNeedTs, std::memory_order_release);
        } else if (!d->status.compare_exchange_strong(
                       expect, detail::kTxNeedTs,
                       std::memory_order_acq_rel,
                       std::memory_order_relaxed)) {
            return rollback(writes.size());  // killed while locking
        }
        // Bump every DISTINCT stripe the write set hashes into while every
        // write lock is held and BEFORE the stamp draw: a reader whose
        // stripe check misses a bump drew its extension time before our
        // stamp existed, so admission keeps our versions out; a reader
        // that validates while we still hold a conflicting lock fails on
        // the locked word. The bumps are unconditional past this point
        // even if validation below aborts -- a spurious bump only costs
        // other readers of those stripes a walk. For stripes our own read
        // set also touched, the fetch_add return doubles as a cheap
        // cleanliness pre-check (a foreign bump since our snapshot shows
        // up as prev != snap).
        bool epoch_clean = false;
        std::uint64_t wsig = 0;  // stripes this commit bumped
        if (cfg_.epoch_filter) {
            epoch_clean = true;
            const auto& sc = sets_->stripes;
            for (const auto* rec : writes) {
                const unsigned s = stripes_->stripe_of(rec->var);
                const std::uint64_t bit = std::uint64_t{1} << s;
                if (wsig & bit) continue;
                wsig |= bit;
                const std::uint64_t prev =
                    (*stripes_)[s].fetch_add(1, std::memory_order_acq_rel);
                if ((sc.sig & bit) && prev != sc.snap[s])
                    epoch_clean = false;
            }
        }
        // Chaos harness: stall in the window the epoch filter's post-draw
        // re-check exists to close.
        (void)CHRONOSTM_FAILPOINT(lsa_commit_pre_stamp);
        std::uint64_t commit_ts = clk_.get_new_ts();
        // Re-check the touched stripes AFTER drawing commit_ts: the bump
        // loop alone proves the read set clean only up to the bumps, but
        // the commit serializes at commit_ts, drawn later. A writer that
        // bumps in between may draw a SMALLER stamp (draw order on the
        // shared counter is not fixed by bump order) and publish into our
        // read set below commit_ts. Requiring every read-signature stripe
        // to read exactly snapshot + (1 if we bumped it ourselves) closes
        // that window: a foreign writer whose counter RMW preceded ours
        // has its bump ordered before this load (bump -> its draw -> our
        // draw -> this load), so any writer the load misses drew its
        // stamp after ours -- the same residual class a post-draw walk
        // admits (a walk cannot see a writer that locks after it runs).
        // See DESIGN.md "Striped epoch soundness".
        if (epoch_clean) {
            const auto& sc = sets_->stripes;
            std::uint64_t sig = sc.sig;
            while (sig != 0) {
                const unsigned s =
                    static_cast<unsigned>(__builtin_ctzll(sig));
                sig &= sig - 1;
                const std::uint64_t expect =
                    sc.snap[s] + ((wsig >> s) & 1u);
                if ((*stripes_)[s].load(std::memory_order_acquire) !=
                    expect) {
                    epoch_clean = false;
                    break;
                }
            }
        }

        // Commit-time validation: if no other writer committed into any
        // stripe this transaction's read set touched since its snapshots
        // (stripes unchanged up to our own bumps, re-confirmed after the
        // stamp draw), no read-set word can have changed -- skip the O(R)
        // walk. Our own locks are covered too: we could only have locked
        // a read var whose word was still the one we admitted (the lock
        // CAS saved it in locked_word and nobody else bumped its stripe).
        bool reads_valid;
        if (irrevocable_) {
            // Token held since before this attempt's first read (or since
            // a successful become_irrevocable walk): the commit pipeline
            // has been quiescent throughout, so no read-set word can have
            // changed -- validation is vacuous.
            reads_valid = true;
        } else if (epoch_clean) {
            reads_valid = true;
            detail::bump(stats_->validation_fast_hits);
        } else {
            if (cfg_.epoch_filter)
                detail::bump(stats_->stripe_walks);
            reads_valid = sets_->reads.all_of(
                [this](const detail::ReadSet::Entry& e) {
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
                });
        }
        if (!reads_valid) return rollback(writes.size());
        if (lower_ > commit_ts) {
            if (irrevocable_) {
                // The token holder cannot abort on a freshness problem:
                // pull the time base forward by drawing (and discarding)
                // stamps until the commit stamp clears the snapshot's
                // lower bound. Each draw advances the counter, so this
                // terminates.
                do {
                    commit_ts = clk_.get_new_ts();
                } while (lower_ > commit_ts);
            } else {
                // The stamp lags the snapshot's lower bound -- a time-base
                // freshness problem (batched/sharded blocks), not a data
                // conflict. Flag it so run() draws the counter forward.
                commit_stamp_stale_ = true;
                return rollback(writes.size());
            }
        }

        const unsigned keep_old =
            cfg_.max_versions > 0
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

        // Stage the helper-visible write-set view. Claims stay tagged with
        // the previous attempt until after the Committed CAS below, so no
        // helper can apply an attempt that might still be killed.
        auto* slots = d->ensure_capacity(writes.size())->slots.get();
        for (std::size_t i = 0; i < writes.size(); ++i)
            slots[i].rec.store(writes[i], std::memory_order_relaxed);
        d->n_slots.store(writes.size(), std::memory_order_relaxed);
        d->new_ts.store(new_ts, std::memory_order_relaxed);
        d->keep_old.store(keep_old, std::memory_order_relaxed);
        d->seq.store(q, std::memory_order_relaxed);

        expect = detail::kTxNeedTs;
        if (irrevocable_) {
            d->status.store(detail::kTxCommitted,
                            std::memory_order_release);
        } else if (!d->status.compare_exchange_strong(
                       expect, detail::kTxCommitted,
                       std::memory_order_acq_rel,
                       std::memory_order_relaxed)) {
            return rollback(writes.size());  // killed at the buzzer
        }
        for (std::size_t i = 0; i < writes.size(); ++i)
            slots[i].claim.store(2 * q, std::memory_order_release);

        if (cfg_.commit_publish_hook) cfg_.commit_publish_hook();
        // Chaos harness: a committer parked here is decided but has
        // applied nothing -- the window commit helping exists for.
        (void)CHRONOSTM_FAILPOINT(lsa_commit_pre_writeback);

        // Claim-and-apply our own write set, racing helpers for each slot.
        // Batched write-back: claim every slot first, run the data stores
        // for all claimed records, then publish their version words behind
        // a single release fence -- one fence per batch instead of one per
        // record. Helpers that win claims keep the per-record fenced path
        // (apply with publish=true), so mixed ownership stays correct
        // var-by-var.
        auto& claimed = sets_->claimed;
        claimed.clear();
        for (std::size_t i = 0; i < writes.size(); ++i) {
            std::uint64_t expect_claim = 2 * q;
            if (slots[i].claim.compare_exchange_strong(
                    expect_claim, 2 * q + 1, std::memory_order_acq_rel,
                    std::memory_order_relaxed))
                claimed.push_back(static_cast<std::uint32_t>(i));
        }
        // Fence #1: the (earlier) lock stores stay visible before any data
        // store -- a reader that observes new data and rechecks the lock
        // word must see the lock (see commit_write's seqlock note).
        std::atomic_thread_fence(std::memory_order_release);
        for (std::uint32_t i = 0; i < claimed.size(); ++i) {
            auto* rec = writes[claimed[i]];
            rec->apply_data(new_ts, rec->locked_word >> 1, keep_old);
        }
        // Chaos harness: data applied, version words still locked.
        (void)CHRONOSTM_FAILPOINT(lsa_commit_pre_unlock);
        // Fence #2: all data stores precede every version publish below
        // ([atomics.fences]: fence-release paired with the readers'
        // acquire loads of the version word). kFencedPublishOrder is
        // relaxed except under TSan, which cannot model thread fences.
        std::atomic_thread_fence(std::memory_order_release);
        for (std::uint32_t i = 0; i < claimed.size(); ++i)
            writes[claimed[i]]->var->vlock_.store(
                new_ts << 1, kFencedPublishOrder);
        // Wait until every orec is unlocked (a helper may still be midway
        // through a claimed slot) before the write records -- which that
        // helper dereferences -- can be recycled along with the arena.
        for (const auto* rec : writes) {
            std::uint64_t spins = 0;
            while (rec->var->vlock_.load(std::memory_order_acquire) ==
                   my_lock_word()) {
                cpu_relax();
                if ((++spins & 255u) == 0) std::this_thread::yield();
            }
        }
        d->status.store(detail::kTxIdle, std::memory_order_release);
        return true;
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

    Clock& clk_;
    const StmConfig& cfg_;
    CmPolicy cm_;
    std::uint64_t dev_;
    detail::StatsBlock* stats_;
    detail::TxDesc* desc_;
    detail::AccessSets* sets_;
    detail::EpochStripes* stripes_;
    detail::IrrevGate* gate_;
    detail::CommitFlag* commit_flag_;
    // Owning context's token flag: true while the context holds the
    // engine-global irrevocability token (it survives aborted attempts,
    // so the retry of a failed escalation reruns irrevocably).
    bool* token_held_;
    bool irrevocable_ = false;
    std::uint64_t lower_ = 0;
    std::uint64_t upper_ = 0;
    std::uint64_t upper_cap_ = 0;
    std::uint64_t start_ts_ = 0;
    bool read_old_ = false;
    bool writes_sorted_ = false;
    // Set by commit() when it failed only because the drawn stamp lagged
    // the snapshot (lower_ > commit_ts); run() treats that retry as a
    // freshness abort and draws the time base forward.
    bool commit_stamp_stale_ = false;
    // Why the last try_extend() returned false: true when the read-set
    // walk found a changed word (conflict), false when time had not
    // advanced (freshness). Reset at every try_extend() entry.
    bool extend_conflict_ = false;
};

template <typename T, bool InlineHist>
inline T TVar<T, InlineHist>::get(Transaction& tx) {
    return tx.read(*this);
}
template <typename T, bool InlineHist>
inline void TVar<T, InlineHist>::set(Transaction& tx, T v) {
    tx.write(*this, std::move(v));
}

// Per-thread handle: owns a thread clock, a stats block, a commit
// descriptor registered with the parent LsaStm, and the pooled access-set
// storage every transaction attempt reuses. Movable; not thread-safe (one
// context per thread, one live transaction per context).
class ThreadContext {
 public:
    using Clock = tb::ThreadClock;

    // Runs `f` as a transaction until it commits, with bounded retry and
    // exponential backoff. `f` takes Transaction& and may return a
    // value, which run() passes through from the committed attempt.
    template <typename F>
    auto run(F&& f) {
        using R = std::invoke_result_t<F&, Transaction&>;
        // Abnormal-exit insurance: an exception escaping the user functor
        // (or the RetryExhausted below) while escalated must release the
        // token; the normal commit path releases it in txn_commit first.
        detail::TokenGuard token_guard{gate_, &token_held_};
        std::uint64_t conflict_aborts = 0, freshness_aborts = 0;
        for (unsigned attempt = 0;; ++attempt) {
            bool freshness = false;
            maybe_escalate(attempt);
            try {
                Transaction tx = txn_begin();
                if constexpr (std::is_void_v<R>) {
                    f(tx);
                    if (txn_commit(tx)) return;
                } else {
                    R r = f(tx);
                    if (txn_commit(tx)) return r;
                }
                freshness = tx.commit_stamp_stale_;
            } catch (const detail::AbortTx& abort) {
                detail::bump(stats_->aborts);
                freshness = abort.freshness;
            }
            freshness ? ++freshness_aborts : ++conflict_aborts;
            if (attempt + 1 >= cfg_.max_retries)
                throw RetryExhausted("lsa", stats(), conflict_aborts,
                                     freshness_aborts);
            abort_pause(attempt, freshness);
        }
    }

    // Degradation ladder, final rung: once a transaction has aborted
    // irrevocable_threshold times in a row, claim the engine-global token
    // so the next attempt runs irrevocably (quiescent commit pipeline,
    // guaranteed commit). The token stays with the context until a commit
    // succeeds or run() unwinds.
    void maybe_escalate(unsigned attempt) {
        if (token_held_ || cfg_.irrevocable_threshold == 0 ||
            attempt < cfg_.irrevocable_threshold)
            return;
        gate_->acquire(desc_.get());
        token_held_ = true;
        detail::bump(stats_->escalations);
    }

    // Post-abort pause, outlined so run()'s hot path (begin -> f ->
    // commit, no abort) stays small enough to keep user code inlined
    // into it. Force time forward on repeated FRESHNESS aborts by
    // drawing (and discarding) a stamp: clock time bases advance on
    // their own, but a counter whose committers draw timestamp BLOCKS
    // (batched_counter) only moves when stamps are consumed -- an abort
    // storm on a hot var could otherwise hold get_time still forever,
    // and a snapshot that can never reach the present retries forever
    // (freshness needs upper >= version + 2*dev). Conflict aborts
    // resolve through backoff alone and must not drain the
    // batched/sharded stamp blocks. The converse holds too: a freshness
    // abort is not contention -- nobody holds anything this attempt is
    // waiting on, the snapshot is merely stale -- so it retries
    // immediately after the draw. Backing off there would serialize
    // single-thread batched/sharded workloads behind sleep time for no
    // benefit.
    __attribute__((noinline)) void abort_pause(unsigned attempt,
                                               bool freshness) {
        if (freshness) {
            if (attempt >= 1) clk_.get_new_ts();
            return;
        }
        const auto b0 = std::chrono::steady_clock::now();
        chronostm::backoff(
            attempt, reinterpret_cast<std::uintptr_t>(stats_.get()));
        detail::bump(
            stats_->backoff_ns,
            static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - b0)
                    .count()));
    }

    // Explicit transaction control for adapters and staged tests; run() is
    // the preferred loop. The returned transaction is valid for one
    // attempt: reads/writes may throw detail::AbortTx, and txn_commit
    // reports success. Statistics are counted like run() does.
    Transaction txn_begin() {
        return Transaction(clk_, cfg_, cm_, dev_, stats_.get(),
                           desc_.get(), &sets_, stripes_, gate_,
                           commit_flag_, &token_held_);
    }

    bool txn_commit(Transaction& tx) {
        if (tx.commit()) {
            detail::bump(stats_->commits);
            if (tx.irrevocable_)
                detail::bump(stats_->irrevocable_commits);
            if (token_held_) {
                gate_->release();
                token_held_ = false;
            }
            return true;
        }
        detail::bump(stats_->aborts);
        return false;
    }

    TxStats stats() const {
        TxStats s(
            stats_->commits.load(std::memory_order_relaxed),
            stats_->aborts.load(std::memory_order_relaxed),
            stats_->helped_commits.load(std::memory_order_relaxed),
            stats_->helped_timestamps.load(std::memory_order_relaxed),
            stats_->false_conflicts.load(std::memory_order_relaxed));
        detail::fill_fast_path_stats(s, *stats_);
        return s;
    }

 private:
    friend class LsaStm;

    ThreadContext(Clock clk, const StmConfig& cfg, CmPolicy cm,
                  std::uint64_t dev,
                  std::shared_ptr<detail::StatsBlock> stats,
                  std::shared_ptr<detail::TxDesc> desc,
                  detail::EpochStripes* stripes,
                  detail::IrrevGate* gate)
        : clk_(std::move(clk)),
          cfg_(cfg),
          cm_(cm),
          dev_(dev),
          stats_(std::move(stats)),
          desc_(std::move(desc)),
          stripes_(stripes),
          gate_(gate),
          commit_flag_(gate->enroll()) {}

    Clock clk_;
    StmConfig cfg_;
    CmPolicy cm_;
    std::uint64_t dev_;
    std::shared_ptr<detail::StatsBlock> stats_;
    std::shared_ptr<detail::TxDesc> desc_;
    detail::EpochStripes* stripes_;
    detail::IrrevGate* gate_;
    // This context's in-commit flag, enrolled with the gate (which owns
    // it, so it outlives the context like the descriptor does).
    detail::CommitFlag* commit_flag_;
    // True while this context holds the engine-global irrevocability
    // token; survives aborted attempts so a failed escalation retries
    // irrevocably instead of re-queuing for the token.
    bool token_held_ = false;
    detail::AccessSets sets_;
};

class LsaStm {
 public:
    // The handle is held by value: registry-made bases stay alive through
    // it, wrapped ones borrow (the concrete object must outlive the STM).
    explicit LsaStm(tb::TimeBase tbase, StmConfig cfg = StmConfig{})
        : tbase_(std::move(tbase)),
          cfg_(std::move(cfg)),
          cm_(parse_contention_manager(cfg_.contention_manager)),
          epoch_stripes_(cfg_.filter_stripes) {
        if (cfg_.max_versions == 0) cfg_.max_versions = 1;
        cfg_.filter_stripes = epoch_stripes_.count();
    }

    LsaStm(const LsaStm&) = delete;
    LsaStm& operator=(const LsaStm&) = delete;

    ThreadContext make_context() {
        auto block = std::make_shared<detail::StatsBlock>();
        auto desc = std::make_shared<detail::TxDesc>();
        {
            std::lock_guard<std::mutex> g(mu_);
            blocks_.push_back(block);
            // Descriptors are pinned for the STM's lifetime: a helper may
            // hold a pointer to one (read out of a lock word) after the
            // owning context has been destroyed.
            descs_.push_back(desc);
        }
        // The time base publishes each stamp's deviation from true time;
        // the core compares stamps from two different clocks, so the
        // pairwise uncertainty -- and the validity-range shrink -- is
        // twice that bound.
        return ThreadContext(tbase_.make_thread_clock(), cfg_, cm_,
                                 2 * tbase_.deviation(), std::move(block),
                                 std::move(desc), &epoch_stripes_,
                                 &irrev_gate_);
    }

    // Aggregate counters over every context ever created.
    TxStats collected_stats() const {
        std::uint64_t c = 0, a = 0, hc = 0, ht = 0, fc = 0;
        std::lock_guard<std::mutex> g(mu_);
        TxStats partial;
        for (const auto& b : blocks_) {
            c += b->commits.load(std::memory_order_relaxed);
            a += b->aborts.load(std::memory_order_relaxed);
            hc += b->helped_commits.load(std::memory_order_relaxed);
            ht += b->helped_timestamps.load(std::memory_order_relaxed);
            fc += b->false_conflicts.load(std::memory_order_relaxed);
            detail::fill_fast_path_stats(partial, *b);
        }
        TxStats s(c, a, hc, ht, fc);
        s.extensions = partial.extensions;
        s.extension_fast_hits = partial.extension_fast_hits;
        s.validation_fast_hits = partial.validation_fast_hits;
        s.stripe_fast_hits = partial.stripe_fast_hits;
        s.stripe_walks = partial.stripe_walks;
        s.ro_commits = partial.ro_commits;
        s.backoff_us = partial.backoff_us;
        s.irrevocable_commits = partial.irrevocable_commits;
        s.escalations = partial.escalations;
        s.stall_waits = partial.stall_waits;
        s.stalled_aborts = partial.stalled_aborts;
        s.injected_faults = partial.injected_faults;
        return s;
    }

    // Total epoch bumps across all stripes: one per DISTINCT stripe a
    // writer commit's write set touched, at the point it reached the
    // stamp draw. With filter_stripes=1 this is the PR 7 engine-global
    // commit-epoch word. Exposed for tests and instrumentation.
    std::uint64_t commit_epoch() const { return epoch_stripes_.sum(); }

    // Which stripe covers an address -- lets tests and benches construct
    // provably aliased or provably disjoint footprints.
    unsigned filter_stripe_of(const void* p) const {
        return epoch_stripes_.stripe_of(p);
    }
    unsigned filter_stripes() const { return epoch_stripes_.count(); }

    const StmConfig& config() const { return cfg_; }
    CmPolicy contention_policy() const { return cm_; }
    tb::TimeBase& time_base() { return tbase_; }

    // True while some transaction holds the irrevocability token; exposed
    // for tests and instrumentation.
    bool irrevocable_active() const {
        return irrev_gate_.active();
    }

 private:
    tb::TimeBase tbase_;
    StmConfig cfg_;
    CmPolicy cm_;
    // Cache-line-padded epoch stripes: a writer commit bumps only the
    // stripes its write set hashes into; readers load only the stripes
    // their read set touched. filter_stripes=1 degenerates to the old
    // single commit-epoch word.
    detail::EpochStripes epoch_stripes_;
    // Irrevocability gate (token + per-context in-commit flags); an
    // update commit writes only its own flag, never the token line.
    detail::IrrevGate irrev_gate_;
    mutable std::mutex mu_;
    std::vector<std::shared_ptr<detail::StatsBlock>> blocks_;
    std::vector<std::shared_ptr<detail::TxDesc>> descs_;
};

}  // namespace chronostm
