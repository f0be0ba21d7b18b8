// The snapshot core: everything the two LSA engines share, written once.
//
// The Lazy Snapshot Algorithm is one algorithm -- a [lower, upper]
// snapshot, lazy extension, and a commit stamp drawn after locking. The
// per-TVar engine (core/lsa_stm.hpp) and the orec-table engine
// (core/orec_stm.hpp) differ only in where the version word lives: in a
// TVar lock word with a version history behind it, or in a hashed orec
// with none. Either way it is one std::atomic<std::uint64_t> -- (version
// << 1) unlocked, odd locked -- so the read log, the snapshot bookkeeping,
// the striped commit-epoch filter, the foreign-lock wait, the whole update
// commit (lock, stamp, validate, write back, publish, roll back), the
// irrevocability gate, the retry ladder and the statistics live here, and
// each engine adds its read admission and a few commit hooks on top
// (DESIGN.md "One commit pipeline").
//
// The core is three class templates, each a CRTP base of one engine class
// (nothing is virtual):
//  * SnapshotTx<Engine, Cfg, Sets>: per-attempt snapshot state, stripe
//    filter, try_extend, become_irrevocable, the write-set and lock-key
//    lookups, the foreign-lock wait and commit(). The engine's transaction
//    provides these hooks (DESIGN.md "One commit pipeline" tabulates them):
//      extension_cap()     -- ceiling for `upper` (LSA: oldest history read)
//      reads_in_present()  -- false once a read was served from history
//      note_own_stamp(ts)  -- every stamp the attempt draws
//      write_key(rec)      -- the address a write record covers (lock order)
//      lock_word(w)        -- the word a commit CASes over unlocked word w
//      arbitrate(w)        -- every spin of a wait on locked word w; may
//                             abort, returns the spin budget
//      killed()            -- a contention manager asked the commit to abort
//      lock_begin(), decide(), on_rollback()
//                          -- the commit's first lock, point of no return
//                             and abort
//      apply(rec, new_ts)  -- one record's data write-back
//    and a commit() that hands the core its four failpoint sites.
//  * SnapshotContext<Engine, Tx, Cfg, Sets>: the per-thread handle's run()
//    loop with its degradation ladder, txn_commit and stats. The engine's
//    context provides txn_begin(), a kEngineName for RetryExhausted, and
//    note_own_stamp() for the stamps its freshness aborts draw.
//  * SnapshotEngine<Cfg>: the engine shell -- time base, epoch stripes,
//    irrevocability gate and the per-context stats registry.
// Ahead of them sit the types both engines use: TxStats, RetryExhausted,
// the per-context StatsBlock, the irrevocability gate, the pooled
// containers the access sets are built from (FlatVec, PtrIndex), the read
// log entry and the access sets themselves.

#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include <chronostm/core/epoch_stripes.hpp>
#include <chronostm/timebase/facade.hpp>
#include <chronostm/util/failpoints.hpp>
#include <chronostm/util/pause.hpp>

namespace chronostm {

class TxStats;

namespace detail {
struct StatsBlock;
inline void accumulate(TxStats& s, const StatsBlock& b);
}  // namespace detail

class TxStats {
 public:
    TxStats() = default;
    TxStats(std::uint64_t commits, std::uint64_t aborts,
            std::uint64_t helped_c = 0, std::uint64_t false_conf = 0)
        : helped_commits(helped_c),
          false_conflicts(false_conf),
          commits_(commits),
          aborts_(aborts) {}
    // The fourth of five arguments is ignored; this overload keeps
    // five-argument callers compiling.
    TxStats(std::uint64_t commits, std::uint64_t aborts,
            std::uint64_t helped_c, std::uint64_t /*ignored*/,
            std::uint64_t false_conf)
        : TxStats(commits, aborts, helped_c, false_conf) {}

    std::uint64_t commits() const { return commits_; }
    std::uint64_t aborts() const { return aborts_; }

    // Always 0 in engine stats: neither engine helps a foreign commit
    // finish. Kept, with the constructors' helped_c argument, so existing
    // readers compile.
    std::uint64_t helped_commits = 0;

    // Orec-table aliasing events (core/orec_stm.hpp): number of times a
    // commit's write set met two DISTINCT granule addresses mapping to the
    // same ownership record at lock time (once per extra granule sharing an
    // already-locked orec). Read-side aliasing is not observed: the orec
    // read log keeps no per-orec entry to compare granules against. Always
    // 0 for the per-TVar engines, whose metadata cannot alias.
    std::uint64_t false_conflicts = 0;

    // Snapshot-extension traffic: `extensions` counts successful extensions
    // (upper bound moved forward), `extension_fast_hits` the subset that the
    // commit-epoch filter admitted without walking the read set, and
    // `validation_fast_hits` commit-time validations skipped the same way.
    // Fast hits happen only in attempts that began after the engine armed
    // its stripes (SnapshotEngine::filter_armed()).
    std::uint64_t extensions = 0;
    std::uint64_t extension_fast_hits = 0;
    std::uint64_t validation_fast_hits = 0;

    // Striped-filter traffic: `stripe_fast_hits` counts extension and
    // commit-time validations the per-stripe comparison admitted without
    // walking the read set (extension_fast_hits + validation_fast_hits,
    // derived at read time); `stripe_walks` the times the comparison found a
    // touched stripe bumped and forced the O(R) walk (a disjoint writer in
    // another stripe moves neither). Both count armed attempts only: an
    // attempt that began before the engine armed its stripes walks without
    // consulting them and counts in neither. Both 0 with the filter off.
    std::uint64_t stripe_fast_hits = 0;
    std::uint64_t stripe_walks = 0;

    // Read-only commits: empty-write-set transactions that committed without
    // drawing a stamp, taking a lock, or bumping the commit epoch.
    std::uint64_t ro_commits = 0;

    // Reads the LSA engine served from a var's version history
    // (read_old_version) because the current version was too new for the
    // snapshot. Always 0 for the orec engine, which keeps no history.
    std::uint64_t history_reads = 0;
    // Reads that needed an old version and found no ring (or an emptied
    // one): each aborted its attempt, and two in a row on one context turn
    // the LSA engine's history switch on. Always 0 for the orec engine.
    std::uint64_t history_misses = 0;

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
    friend void detail::accumulate(TxStats&, const detail::StatsBlock&);

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

// Write/read sets scan linearly up to this many entries (a handful of
// cache-hot compares beats any hash); past it an open-addressing index
// takes over and every lookup is O(1).
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
// single writer (its owning context), so an increment is a relaxed load
// plus store -- no lock-prefixed RMW -- and readers on other threads see a
// recent, untorn value. Padded to its own cache lines: contexts' blocks
// are allocated back to back.
struct alignas(64) StatsBlock {
    std::atomic<std::uint64_t> commits{0};
    std::atomic<std::uint64_t> aborts{0};
    std::atomic<std::uint64_t> false_conflicts{0};
    std::atomic<std::uint64_t> extensions{0};
    std::atomic<std::uint64_t> extension_fast_hits{0};
    std::atomic<std::uint64_t> validation_fast_hits{0};
    std::atomic<std::uint64_t> stripe_walks{0};
    std::atomic<std::uint64_t> ro_commits{0};
    std::atomic<std::uint64_t> history_reads{0};
    std::atomic<std::uint64_t> history_misses{0};
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

// Add one stats block into a TxStats: a context's stats() is one call, an
// engine's collected_stats() one call per block. Every stripe-filter fast
// hit is an extension or a validation fast hit, so stripe_fast_hits is
// their sum rather than a counter of its own.
inline void accumulate(TxStats& s, const StatsBlock& b) {
    const auto get = [](const std::atomic<std::uint64_t>& c) {
        return c.load(std::memory_order_relaxed);
    };
    s.commits_ += get(b.commits);
    s.aborts_ += get(b.aborts);
    s.false_conflicts += get(b.false_conflicts);
    s.extensions += get(b.extensions);
    s.extension_fast_hits += get(b.extension_fast_hits);
    s.validation_fast_hits += get(b.validation_fast_hits);
    s.stripe_fast_hits +=
        get(b.extension_fast_hits) + get(b.validation_fast_hits);
    s.stripe_walks += get(b.stripe_walks);
    s.ro_commits += get(b.ro_commits);
    s.history_reads += get(b.history_reads);
    s.history_misses += get(b.history_misses);
    s.backoff_us += get(b.backoff_ns) / 1000;
    s.irrevocable_commits += get(b.irrevocable_commits);
    s.escalations += get(b.escalations);
    s.stall_waits += get(b.stall_waits);
    s.stalled_aborts += get(b.stalled_aborts);
    s.injected_faults += get(b.injected_faults);
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
    // Identity of the current token holder (the TxDesc in the LSA engine;
    // the orec engine has no conflict arbitration and passes nullptr) so
    // arbitration can exempt it from kills.
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
        wait_flags_down();
    }

    // Waits until every enrolled flag has been observed at 0 (seq_cst
    // loads): every update commit whose flag was up when the scan reached
    // it has finished or rolled back, and the caller happens-after it. The
    // caller must hold no lock word and be outside any commit. Escalation
    // drains through it after setting the token; arming the epoch stripes
    // after moving the filter state off -> arming
    // (SnapshotContext::arm_stripes).
    void wait_flags_down() {
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

// Flat append-only array used for the read and write sets. Exists because
// std::vector::push_back compiles to a reload-heavy sequence (the header
// lives behind two pointers and the growth call clobbers registers) that
// shows up at ~6ns/read on the hot path. Here the hot path is one
// predictable branch plus an indexed store; growth is outlined and cold.
// Capacity persists across clear(), so the steady state never allocates.
// Both engines' read sets are such logs: one entry per read, duplicates
// kept (DESIGN.md "Read log").
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

    // Applies `f` to every entry in order until it returns false; returns
    // whether every entry passed.
    template <typename F>
    bool all_of(F&& f) const {
        for (const T& e : *this)
            if (!f(e)) return false;
        return true;
    }

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

// Open-addressing map from a pointer to a 32-bit payload (write-set
// positions, owned orecs). find_or_stage remembers where an absent key's
// probe ended, so the hot "miss then insert" pattern costs a single probe
// walk. clear() is a generation bump (u32; a wrap triggers one hard reset
// every 4G transactions), and capacity persists, so the steady state
// never allocates or memsets.
class PtrIndex {
 public:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};

    void clear() {
        if (__builtin_expect(++gen_ == 0, 0)) hard_reset();
        size_ = 0;
    }

    // The mapped value, or kNone with the landing bucket staged for a
    // subsequent commit_stage (valid until the next probe or clear).
    __attribute__((always_inline)) inline std::uint32_t find_or_stage(
        const void* key) {
        const Entry* e = probe(key);
        return e != nullptr ? e->val : kNone;
    }

    // Inserts at the bucket the last find_or_stage miss landed on.
    __attribute__((always_inline)) inline void commit_stage(
        const void* key, std::uint32_t val) {
        entries_[stage_] = Entry{key, val, gen_};
        ++size_;
    }

    void insert(const void* key, std::uint32_t val) {
        if (Entry* e = probe(key)) e->val = val;
        else commit_stage(key, val);
    }

 private:
    struct Entry {
        const void* key;
        std::uint32_t val;
        std::uint32_t gen;  // live iff it equals the index's generation
    };

    // The live entry for `key`, or nullptr with the landing slot staged.
    __attribute__((always_inline)) inline Entry* probe(const void* key) {
        if (__builtin_expect((size_ + 1) * 4 > cap_ * 3, 0)) grow();
        std::size_t i = slot_of(key);
        for (;;) {
            Entry& e = entries_[i];
            if (e.gen != gen_) {
                stage_ = i;
                return nullptr;
            }
            if (e.key == key) return &e;
            i = (i + 1) & mask_;
        }
    }

    std::size_t slot_of(const void* key) const {
        // Fibonacci hashing on the key with its 16-byte alignment zeros
        // shifted out.
        const auto h =
            static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(key) >>
                                       4) *
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
            std::size_t j = slot_of(old[i].key);
            while (entries_[j].gen == gen_) j = (j + 1) & mask_;
            entries_[j] = Entry{old[i].key, old[i].val, gen_};
        }
    }

    void hard_reset() {
        for (std::size_t i = 0; i < cap_; ++i) entries_[i].gen = 0;
        gen_ = 1;
    }

    std::unique_ptr<Entry[]> entries_;
    std::size_t cap_ = 0;
    std::size_t mask_ = 0;
    unsigned shift_ = 63;
    std::size_t stage_ = 0;
    std::uint32_t size_ = 0;
    std::uint32_t gen_ = 1;
};

// One read-log entry: the version word a read admitted (a TVar's lock word
// or an orec) and the unlocked value it admitted. The log is append-only
// and keeps duplicates, as TL2's read set does: a read is one append, with
// no probe to deduplicate. Validation walks every entry; two entries for
// one word never disagree in a live transaction (DESIGN.md "Read log").
struct ReadEntry {
    std::atomic<std::uint64_t>* lock;
    std::uint64_t word;
};

// Per-thread access-set storage, owned by the context and reused by every
// attempt of every transaction it runs: logs and index keep their
// capacity, so the steady-state hot path allocates nothing. Rec is the
// engine's write-set element -- a record, or a pointer to one -- with the
// fields commit() fills: `lock` (the word it locks), `locked_word` (the
// unlocked word the lock replaced) and `owner` (1 if this record performed
// the CAS, 0 if an earlier record of the same commit holds that lock).
template <typename Rec>
struct SnapshotSets {
    FlatVec<ReadEntry> reads;
    FlatVec<Rec> writes;
    // Past kInlineScan records: write key -> position while the attempt
    // runs; once commit() has sorted the set, lock -> position of the
    // record that holds it (SnapshotTx::find_lock).
    PtrIndex index;
    // Striped epoch-filter state for the in-flight attempt: the read-set
    // stripe signature plus the per-stripe epoch snapshots taken at first
    // touch (core/epoch_stripes.hpp).
    StripeScratch stripes;

    void reset() {
        reads.clear();
        writes.clear();
        index.clear();
        stripes.reset();
    }
};

// A write-set element's record, whether the set holds records or pointers.
template <typename Rec>
inline auto& record(Rec& r) {
    if constexpr (std::is_pointer_v<Rec>) return *r;
    else return r;
}

template <typename Engine, typename Tx, typename Cfg, typename Sets>
class SnapshotContext;

// The epoch stripes' sticky state (DESIGN.md "Stripes on demand"). Off,
// update commits bump no stripe and every attempt validates by walking its
// read log; on, the filter runs as DESIGN.md "Striped epoch soundness"
// describes. Arming is the one-way switch between them: commits that
// load `arming` already bump, and `on` is stored only once every commit
// that could have loaded `off` has finished.
enum FilterState : std::uint32_t {
    kFilterOff = 0,
    kFilterArming,
    kFilterOn,
};

// Engine shell: the time base, the epoch stripes, the irrevocability gate
// and the registry of every context's stats block. LsaStm and OrecStm
// derive from it and add their own metadata (descriptors, orec table).
template <typename Cfg>
class SnapshotEngine {
 public:
    SnapshotEngine(const SnapshotEngine&) = delete;
    SnapshotEngine& operator=(const SnapshotEngine&) = delete;

    // An attempt whose walk over an unarmed read log covers this many
    // entries (an extension or a commit validation) asks its context to
    // arm the stripes once the attempt ends. Armed, every read pays a
    // stripe touch, about what a walk pays per entry, and every update
    // commit a shared bump: the filter pays back only where long logs
    // are walked repeatedly (DESIGN.md "Stripes on demand").
    static constexpr std::uint32_t kArmWalk = 256;

    // Aggregate counters over every context ever created.
    TxStats collected_stats() const {
        TxStats s;
        std::lock_guard<std::mutex> g(mu_);
        for (const auto& b : blocks_) accumulate(s, *b);
        return s;
    }

    // Total epoch bumps across all stripes: one per DISTINCT stripe a
    // writer commit's write set touched, at the point it reached the
    // stamp draw. With filter_stripes=1 this is the single engine-global
    // commit-epoch word. Exposed for tests and instrumentation.
    std::uint64_t commit_epoch() const { return epoch_stripes_.sum(); }

    // Which stripe covers an address -- lets tests and benches construct
    // provably aliased or provably disjoint footprints.
    unsigned filter_stripe_of(const void* p) const {
        return epoch_stripes_.stripe_of(p);
    }
    unsigned filter_stripes() const { return epoch_stripes_.count(); }

    const Cfg& config() const { return cfg_; }
    tb::TimeBase& time_base() { return tbase_; }

    // True while some transaction holds the irrevocability token; exposed
    // for tests and instrumentation.
    bool irrevocable_active() const { return irrev_gate_.active(); }

    // Whether the epoch stripes are armed (sticky once true; never with
    // epoch_filter off). Attempts that begin after this reads true touch
    // and trust the stripes; exposed for tests and instrumentation.
    bool filter_armed() const {
        return filter_state_.word.load(std::memory_order_acquire) ==
               kFilterOn;
    }

 protected:
    // The handle is held by value: registry-made bases stay alive through
    // it, wrapped ones borrow (the concrete object must outlive the STM).
    SnapshotEngine(tb::TimeBase tbase, Cfg cfg, EpochStripes stripes)
        : tbase_(std::move(tbase)),
          cfg_(std::move(cfg)),
          epoch_stripes_(std::move(stripes)) {
        cfg_.filter_stripes = epoch_stripes_.count();
    }
    ~SnapshotEngine() = default;

    template <typename, typename, typename, typename>
    friend class SnapshotContext;

    tb::TimeBase tbase_;
    Cfg cfg_;
    // Cache-line-padded epoch stripes: a writer commit bumps only the
    // stripes its write set hashes into; readers load only the stripes
    // their read set touched. filter_stripes=1 degenerates to the single
    // commit-epoch word.
    EpochStripes epoch_stripes_;
    // FilterState: read once by every attempt at begin and by every update
    // commit after its last lock, written at most twice: its own line.
    struct alignas(64) {
        std::atomic<std::uint32_t> word{kFilterOff};
    } filter_state_;
    // Irrevocability gate (token + per-context in-commit flags); an
    // update commit writes only its own flag, never the token line.
    IrrevGate irrev_gate_;
    // Guards blocks_ and whatever registry the engine adds.
    mutable std::mutex mu_;
    std::vector<std::shared_ptr<StatsBlock>> blocks_;
};

// One transaction attempt's snapshot: the [lower, upper] interval, the
// striped commit-epoch filter state, and the steps of the Lazy Snapshot
// Algorithm that do not depend on where version words live. Engine is the
// deriving transaction class (see the hooks in the file comment).
template <typename Engine, typename Cfg, typename Sets>
class SnapshotTx {
 public:
    using Clock = tb::ThreadClock;

    SnapshotTx(const SnapshotTx&) = delete;
    SnapshotTx& operator=(const SnapshotTx&) = delete;

    // Explicit early abort: unwinds out of the user lambda; run() retries.
    // Note that abort() defeats the degradation ladder by design: an
    // irrevocable attempt that the user functor aborts retries irrevocably.
    [[noreturn]] void abort() { throw AbortTx{}; }

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
            gate_->acquire(gate_id_);
            *token_held_ = true;
            bump(stats_->escalations);
        }
        // A snapshot that fell back to old versions cannot serialize in
        // the present; everything else is settled by one full validation
        // walk -- after it succeeds no commit can run until we release.
        if (!self().reads_in_present() || !walk_read_set()) throw AbortTx{};
        irrevocable_ = true;
    }

    bool irrevocable() const { return irrevocable_; }

    std::uint64_t snapshot_lower() const { return lower_; }
    std::uint64_t snapshot_upper() const { return upper_; }

    // Set sizes: one entry per read (both engines' read sets are
    // append-only logs), distinct TVars or granules written; exposed for
    // tests and instrumentation.
    std::size_t read_set_size() const { return sets_->reads.size(); }
    std::size_t write_set_size() const { return sets_->writes.size(); }

    // Instrumentation/bench hook: attempt a snapshot extension right now,
    // exactly as a read that meets a too-new version would.
    bool try_extend_now() { return try_extend(); }

 protected:
    template <typename, typename, typename, typename>
    friend class SnapshotContext;

    // Starts an attempt on context `c` (a SnapshotContext-derived class):
    // resets the pooled access sets, reads the filter state once, and
    // anchors `upper` at the present. Only an attempt that reads `on`
    // touches and trusts the stripes (DESIGN.md "Stripes on demand").
    // Its per-stripe epoch snapshots are taken lazily at the stripe's first
    // touch, always BEFORE the touched location's version-word load
    // (touch_stripe in the read path): a writer that commits between
    // snapshot and admission shows up as a stripe mismatch (false
    // negative, walk runs), never as a stale fast hit. See DESIGN.md
    // "Striped epoch soundness".
    template <typename Ctx>
    explicit SnapshotTx(Ctx& c)
        : clk_(c.clk_),
          cfg_(c.cfg_),
          dev_(c.dev_),
          stats_(c.stats_.get()),
          sets_(&c.sets_),
          stripes_(c.stripes_),
          gate_(c.gate_),
          commit_flag_(c.commit_flag_),
          gate_id_(c.gate_id_),
          filter_state_(c.filter_state_),
          arm_request_(&c.arm_requested_),
          token_held_(&c.token_held_),
          irrevocable_(c.token_held_),
          stripes_on_(filter_state_->load(std::memory_order_acquire) ==
                      kFilterOn) {
        sets_->reset();
        CHRONOSTM_FP_SINK(&stats_->injected_faults);
        upper_ = clk_.get_time();
        start_ts_ = upper_;
    }
    SnapshotTx(SnapshotTx&&) = default;
    ~SnapshotTx() = default;

    Engine& self() { return static_cast<Engine&>(*this); }
    const Engine& self() const { return static_cast<const Engine&>(*this); }

    // --- snapshot maintenance -------------------------------------------

    // First touch of a stripe: load its epoch snapshot and set the
    // signature bit. Callers must invoke this BEFORE the version-word load
    // that admits a read of a location in the stripe (soundness invariant
    // in DESIGN.md "Striped epoch soundness").
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
    // fast-hit past the very commit the walk just caught (the LSA
    // engine's old-version fallback keeps read-only transactions alive
    // after a failed extension, so the stale snapshot WOULD be consulted
    // again -- the chaos bank oracle catches exactly this tear).
    bool stripes_clean(std::uint64_t* fresh) const {
        const auto& sc = sets_->stripes;
        bool clean = true;
        std::uint64_t sig = sc.sig;
        while (sig != 0) {
            const unsigned s = static_cast<unsigned>(__builtin_ctzll(sig));
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
    // fresh[s] whose publish the walk did not see keeps its location
    // locked until that publish, so the walk would have failed on the
    // locked word.
    void reanchor_stripes(const std::uint64_t* fresh) {
        auto& sc = sets_->stripes;
        std::uint64_t sig = sc.sig;
        while (sig != 0) {
            const unsigned s = static_cast<unsigned>(__builtin_ctzll(sig));
            sig &= sig - 1;
            sc.snap[s] = fresh[s];
        }
    }

    // Try to move `upper` to the present (clamped to the engine's
    // extension_cap()); all reads so far must still be the most recent
    // versions (a changed or locked word means the extension would break
    // snapshot consistency, so we refuse). The striped commit-epoch filter
    // short-circuits the O(R) walk: if no writer bumped any stripe this
    // transaction's read set hashes into since its snapshots, no read-set
    // word can have changed (every conflicting writer bumps the covering
    // stripe while holding the location's lock and unlocks only by
    // publishing). `nu` is drawn BEFORE the stripe loads so a writer
    // invisible to the stripe check necessarily drew its commit stamp
    // after nu -- the deviation-aware admission rule then keeps its
    // versions out of the extended snapshot. See DESIGN.md "Striped epoch
    // soundness".
    // Failure reason is recorded in extend_conflict_: false means time
    // simply has not advanced past upper_ (a FRESHNESS condition), true
    // means walk_read_set() found a changed or locked read-set word (a
    // data CONFLICT -- per the abort taxonomy in DESIGN.md, backoff
    // resolves it and the retry must not drain batched/sharded stamp
    // blocks with a forced draw).
    // An unarmed attempt skips the filter and walks.
    bool try_extend() {
        extend_conflict_ = false;
        const std::uint64_t nu =
            std::min(clk_.get_time(), self().extension_cap());
        if (nu <= upper_) return false;
        std::uint64_t fresh[EpochStripes::kMaxStripes];
        if (stripes_on_) {
            if (stripes_clean(fresh)) {
                upper_ = nu;
                bump(stats_->extensions);
                bump(stats_->extension_fast_hits);
                return true;
            }
            bump(stats_->stripe_walks);
        } else {
            note_unarmed_walk();
        }
        if (!walk_read_set()) {
            extend_conflict_ = true;
            return false;
        }
        upper_ = nu;
        if (stripes_on_) reanchor_stripes(fresh);
        bump(stats_->extensions);
        return true;
    }

    // An unarmed attempt is about to walk its whole read log: a long one
    // asks the context to arm the stripes after the attempt ends
    // (SnapshotContext::arm_stripes). Never with the filter off.
    void note_unarmed_walk() {
        if (sets_->reads.size() >= SnapshotEngine<Cfg>::kArmWalk &&
            cfg_.epoch_filter)
            *arm_request_ = true;
    }

    // Cold continuation of a read that found a too-new version and has no
    // old version to fall back on: returns only when extension succeeded
    // (the caller retries the read), otherwise aborts, classed by why the
    // extension failed (see try_extend). Outlined so the per-read hot
    // path's code size and alignment do not depend on the extension/abort
    // machinery.
    __attribute__((noinline)) void extend_or_abort() {
        if (cfg_.read_extension && try_extend()) return;
        throw AbortTx{!extend_conflict_};
    }

    // Full O(R) read-set validation: every logged read still carries
    // exactly the admitted (unlocked) word.
    bool walk_read_set() const {
        return sets_->reads.all_of([](const ReadEntry& e) {
            return e.lock->load(std::memory_order_acquire) == e.word;
        });
    }

    // The one foreign-lock wait: spins until `lock` is unlocked and returns
    // the unlocked word. The engine's arbitrate(word) runs on every spin; it
    // may abort this attempt (a kill landed, or its contention manager
    // yields) and returns the spin budget. Past lock_spin spins the owner
    // looks preempted, not merely slow: the wait counts one stall_waits.
    // Past the budget it gives up on the stalled owner and aborts through
    // the contention seam (stalled_aborts; run() backs off, then
    // escalates) -- except for the irrevocability-token holder, which only
    // ever meets locks of already-in-flight commits and outwaits them.
    std::uint64_t wait_unlocked(const std::atomic<std::uint64_t>* lock) {
        for (std::uint64_t spins = 1;; ++spins) {
            const std::uint64_t w = lock->load(std::memory_order_acquire);
            if (!(w & 1u)) return w;
            const std::uint64_t budget = self().arbitrate(w);
            if (spins == std::uint64_t{cfg_.lock_spin} + 1)
                bump(stats_->stall_waits);
            if (spins > budget && !irrevocable_) {
                bump(stats_->stalled_aborts);
                throw AbortTx{};
            }
            cpu_relax();
            // Single-CPU hosts: the lock owner cannot run unless we yield.
            if ((spins & 63u) == 0) std::this_thread::yield();
        }
    }

    // Read admission of an irrevocable attempt. The heap is quiescent: no
    // update commit can run while this transaction holds the token, so the
    // current version IS the snapshot -- no admission check, no read log,
    // no seqlock recheck. Waits out a lock left by a commit that was in
    // flight at escalation and raises lower_, keeping the commit stamp
    // above every version this attempt read (stamp_and_validate pulls the
    // time base forward if the drawn stamp lags it); the caller loads the
    // data after it.
    void admit_irrevocable(const std::atomic<std::uint64_t>& lock) {
        std::uint64_t w = lock.load(std::memory_order_acquire);
        if (w & 1u) w = wait_unlocked(&lock);
        lower_ = std::max(lower_, (w >> 1) + dev_);
    }

    // --- write set --------------------------------------------------------

    // Write-set lookup by the address a record covers (the engine's
    // static write_key(rec)): a linear scan while the set is small, the
    // open-addressing index past kInlineScan. Returns a position in the
    // write set or PtrIndex::kNone, with the index's landing bucket staged
    // for the append_write that usually follows a miss. Positions are only
    // valid before commit sorts the write set.
    std::uint32_t find_write_pos(const void* key) {
        auto& ws = sets_->writes;
        if (ws.size() <= kInlineScan) {
            for (std::uint32_t i = 0; i < ws.size(); ++i)
                if (Engine::write_key(ws[i]) == key) return i;
            return PtrIndex::kNone;
        }
        return sets_->index.find_or_stage(key);
    }

    // Appends a record whose key find_write_pos just missed on.
    template <typename Rec>
    void append_write(const Rec& rec) {
        auto& ws = sets_->writes;
        ws.push_back(rec);
        if (ws.size() == kInlineScan + 1) {
            // Crossed the inline threshold: index everything accumulated.
            for (std::uint32_t i = 0; i < ws.size(); ++i)
                sets_->index.insert(Engine::write_key(ws[i]), i);
        } else if (ws.size() > kInlineScan + 1) {
            // find_write_pos just missed on this key: its staged bucket is
            // ours.
            sets_->index.commit_stage(Engine::write_key(rec), ws.size() - 1);
        }
    }

    // The lock-key lookup of a sorted write set: the position of the record
    // among the first `n` that holds `lock` (its owner record), or kNone. A
    // linear scan up to kInlineScan records; past it the index, which the
    // lock loop fills as it takes each lock (a miss leaves its bucket
    // staged for that). It serves alias detection at lock time and the
    // own-lock case of commit validation.
    std::uint32_t find_lock(const void* lock, std::uint32_t n) {
        auto& ws = sets_->writes;
        if (ws.size() <= kInlineScan) {
            for (std::uint32_t i = 0; i < n; ++i)
                if (record(ws[i]).lock == lock) return i;
            return PtrIndex::kNone;
        }
        return sets_->index.find_or_stage(lock);
    }

    // --- commit -----------------------------------------------------------

    // The update commit, both engines (DESIGN.md "One commit pipeline"):
    // lock the write set in address order, draw the stamp after the last
    // lock, validate, then write back and publish. Returns false when the
    // attempt must be retried. The four arguments are the engine's
    // failpoint sites, so tests keep arming them by engine.
    template <typename PostLock, typename PreStamp, typename PreWriteback,
              typename PreUnlock>
    bool commit(PostLock post_lock, PreStamp pre_stamp,
                PreWriteback pre_writeback, PreUnlock pre_unlock) {
        auto& ws = sets_->writes;
        // Read-only fast path: an empty write set commits at its snapshot
        // -- its reads are consistent -- with no stamp, lock or epoch bump.
        if (ws.empty()) {
            bump(stats_->ro_commits);
            return true;
        }
        // An update that read old versions cannot serialize in the
        // present. That is freshness, not a data conflict: the snapshot
        // fell back to history because it could not extend, and on counter
        // time bases the present moves only when stamps are drawn, so run()
        // must pull the counter forward.
        if (!self().reads_in_present()) {
            commit_stamp_stale_ = true;
            return false;
        }
        // The global lock order: sorted by the address each record covers.
        std::sort(ws.begin(), ws.end(), [](const auto& a, const auto& b) {
            return Engine::write_key(a) < Engine::write_key(b);
        });
        // Update commits run inside the irrevocability gate: held at the
        // door while a token holder is active, flagged in flight otherwise
        // so an escalating transaction can drain the pipeline. The token
        // holder skips it -- it IS the gate. The guard exits on every path.
        GateGuard gate_guard;
        if (!irrevocable_) {
            gate_->enter_commit(*commit_flag_);
            gate_guard.flag = commit_flag_;
        }
        self().lock_begin();
        // From here on the index maps locks, not write keys.
        if (ws.size() > kInlineScan) sets_->index.clear();
        std::uint32_t locked = 0;
        try {
            for (; locked < ws.size(); ++locked) lock_record(locked);
        } catch (const AbortTx&) {
            return rollback(locked);
        }
        // Chaos harness: a committer preempted right after taking its last
        // lock, before anything is published.
        post_lock();
        if (self().killed()) return rollback(locked);
        std::uint64_t commit_ts;
        if (!stamp_and_validate(commit_ts, pre_stamp)) return rollback(locked);
        // One stamp for the whole write set (stamping records one by one
        // could tear the commit across the version history when the time
        // base hands out tied stamps), raised above every locked version
        // for per-word monotonicity under TL2 sharing and coarse clocks.
        std::uint64_t new_ts = commit_ts;
        for (const auto& r : ws)
            new_ts = std::max(new_ts, (record(r).locked_word >> 1) + 1);
        if (!self().decide()) return rollback(locked);
        // Test hook: freezes a decided committer that holds every lock.
        if (cfg_.commit_publish_hook) cfg_.commit_publish_hook();
        // Chaos harness: a committer parked here is decided but has
        // applied nothing; waiters must tolerate or abort around it.
        pre_writeback();
        // Fence #1: the (earlier) lock stores stay visible before any data
        // store -- a reader that observes new data and rechecks the lock
        // word sees the lock (the seqlock's other half is in the engines'
        // reads).
        std::atomic_thread_fence(std::memory_order_release);
        for (auto& r : ws) self().apply(record(r), new_ts);
        // Chaos harness: data applied, version words still locked.
        pre_unlock();
        // Fence #2: all data stores precede every version publish below
        // ([atomics.fences]: fence-release paired with the readers'
        // acquire loads), so the publish stores are relaxed, each word
        // published once, by its owner record. The data pass walks the
        // sorted set, so aliased records of one orec land before its
        // publish. kFencedPublishOrder is release under TSan, which cannot
        // model thread fences.
        std::atomic_thread_fence(std::memory_order_release);
        for (const auto& r : ws)
            if (record(r).owner)
                record(r).lock->store(new_ts << 1, kFencedPublishOrder);
        return true;
    }

    // Locks write record i of the sorted set, waiting on a foreign lock.
    // A record whose lock an earlier record of this commit already holds
    // (distinct orec granules hashing to one orec; never in the LSA
    // engine) shares it instead of deadlocking on itself.
    void lock_record(std::uint32_t i) {
        auto& rec = record(sets_->writes[i]);
        const std::uint32_t prev = find_lock(rec.lock, i);
        if (prev != PtrIndex::kNone) {
            rec.locked_word = record(sets_->writes[prev]).locked_word;
            rec.owner = 0;
            bump(stats_->false_conflicts);
            return;
        }
        std::uint64_t w = rec.lock->load(std::memory_order_relaxed);
        for (;;) {
            if (self().killed()) throw AbortTx{};
            if (w & 1u) w = wait_unlocked(rec.lock);
            if (rec.lock->compare_exchange_weak(w, self().lock_word(w),
                                                std::memory_order_acq_rel,
                                                std::memory_order_relaxed))
                break;
        }
        rec.locked_word = w;
        rec.owner = 1;
        if (sets_->writes.size() > kInlineScan)
            sets_->index.commit_stage(rec.lock, i);
    }

    // Abort path while holding the locks of the first `n` write records:
    // restore the saved word of every lock this commit took.
    bool rollback(std::uint32_t n) {
        for (std::uint32_t i = 0; i < n; ++i) {
            auto& rec = record(sets_->writes[i]);
            if (rec.owner)
                rec.lock->store(rec.locked_word, std::memory_order_release);
        }
        self().on_rollback();
        return false;
    }

    // Whether read-log entry `e` still holds the version it admitted: its
    // word is unchanged, or this commit locked it over exactly that word.
    // Only the lock-key lookup decides ownership -- an orec lock preserves
    // the version, so a foreign committer's lock can equal ours.
    bool still_valid(const ReadEntry& e) {
        const std::uint64_t cur = e.lock->load(std::memory_order_acquire);
        if (cur == e.word) return true;
        if (!(cur & 1u)) return false;
        const std::uint32_t i = find_lock(e.lock, sets_->writes.size());
        return i != PtrIndex::kNone &&
               record(sets_->writes[i]).locked_word == e.word;
    }

    // The middle of an update commit, run with the whole write set locked:
    // bump the write set's stripes (unless the filter state reads off),
    // draw the commit stamp, validate the read set, and settle freshness.
    // Returns false when the attempt must roll back (commit_stamp_stale_
    // then says whether it was freshness). `pre_stamp()` is the engine's
    // failpoint site in front of the stamp draw.
    template <typename PreStamp>
    bool stamp_and_validate(std::uint64_t& commit_ts, PreStamp pre_stamp) {
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
        //
        // The filter state is loaded after the gate raised our flag and
        // after our last lock, seq_cst: a commit that reads `off` is one
        // that arming drains before it stores `on`, so no armed attempt can
        // miss its unbumped write (DESIGN.md "Stripes on demand"). The
        // token holder raised no flag, so it always bumps. An unarmed
        // attempt touched no stripe, so it starts unclean and walks: an
        // empty signature must never pass for a clean one.
        const auto& sc = sets_->stripes;
        bool epoch_clean = stripes_on_;
        std::uint64_t wsig = 0;  // stripes this commit bumped
        if (cfg_.epoch_filter &&
            (irrevocable_ ||
             filter_state_->load(std::memory_order_seq_cst) != kFilterOff)) {
            for (const auto& rec : sets_->writes) {
                const unsigned s =
                    stripes_->stripe_of(Engine::write_key(rec));
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
        pre_stamp();
        // Locks held: draw the commit timestamp. It MUST be drawn after
        // the last lock is acquired -- a pre-lock stamp would let a reader
        // that began after the stamp accept our writes next to pre-lock
        // state it already read.
        commit_ts = clk_.get_new_ts();
        self().note_own_stamp(commit_ts);
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
            std::uint64_t sig = sc.sig;
            while (sig != 0) {
                const unsigned s = static_cast<unsigned>(__builtin_ctzll(sig));
                sig &= sig - 1;
                const std::uint64_t expect = sc.snap[s] + ((wsig >> s) & 1u);
                if ((*stripes_)[s].load(std::memory_order_acquire) != expect) {
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
        // a read location whose word was still the one we admitted (the
        // lock CAS saved it in locked_word and nobody else bumped its
        // stripe).
        bool reads_valid;
        if (irrevocable_) {
            // Token held since before this attempt's first read (or since
            // a successful become_irrevocable walk): the commit pipeline
            // has been quiescent throughout, so no read-set word can have
            // changed -- validation is vacuous.
            reads_valid = true;
        } else if (epoch_clean) {
            reads_valid = true;
            bump(stats_->validation_fast_hits);
        } else {
            if (stripes_on_)
                bump(stats_->stripe_walks);
            else
                note_unarmed_walk();
            reads_valid = sets_->reads.all_of(
                [this](const ReadEntry& e) { return still_valid(e); });
        }
        if (!reads_valid) return false;
        if (lower_ > commit_ts) {
            if (!irrevocable_) {
                // The stamp lags the snapshot's lower bound -- a time-base
                // freshness problem (batched/sharded blocks), not a data
                // conflict. Flag it so run() draws the counter forward.
                commit_stamp_stale_ = true;
                return false;
            }
            // The token holder cannot abort on a freshness problem: pull
            // the time base forward by drawing (and discarding) stamps
            // until the commit stamp clears the snapshot's lower bound.
            // Each draw advances the counter, so this terminates.
            do {
                commit_ts = clk_.get_new_ts();
            } while (lower_ > commit_ts);
            self().note_own_stamp(commit_ts);
        }
        return true;
    }

    Clock& clk_;
    const Cfg& cfg_;
    // Pairwise stamp uncertainty: twice the time base's published
    // per-stamp deviation.
    std::uint64_t dev_;
    StatsBlock* stats_;
    Sets* sets_;
    EpochStripes* stripes_;
    IrrevGate* gate_;
    CommitFlag* commit_flag_;
    const void* gate_id_;
    const std::atomic<std::uint32_t>* filter_state_;  // FilterState word
    bool* arm_request_;  // owning context's pending arm request
    // Owning context's token flag: true while the context holds the
    // engine-global irrevocability token (it survives aborted attempts,
    // so the retry of a failed escalation reruns irrevocably).
    bool* token_held_;
    bool irrevocable_ = false;
    // The filter state read at begin was `on`: this attempt touches
    // stripes and takes the stripe fast paths. Fixed for the attempt.
    bool stripes_on_;
    std::uint64_t lower_ = 0;
    std::uint64_t upper_ = 0;
    // Seniority: the begin stamp of the first attempt of the enclosing
    // run() call (run() carries it over to every retry), so an aborted
    // old transaction does not retry as the youngest. The LSA timestamp
    // manager ranks conflicting transactions by it.
    std::uint64_t start_ts_ = 0;
    // Set by commit() when it failed only because the drawn stamp lagged
    // the snapshot (lower_ > commit_ts); run() treats that retry as a
    // freshness abort and draws the time base forward.
    bool commit_stamp_stale_ = false;
    // Why the last try_extend() returned false: true when the read-set
    // walk found a changed word (conflict), false when time had not
    // advanced (freshness). Reset at every try_extend() entry.
    bool extend_conflict_ = false;
};

// Per-thread handle: a thread clock, a stats block registered with the
// engine, an enrolled gate flag and the pooled access sets every attempt
// reuses. Movable; not thread-safe (one context per thread, one live
// transaction per context). Engine is the deriving context class, Tx its
// transaction type.
template <typename Engine, typename Tx, typename Cfg, typename Sets>
class SnapshotContext {
 public:
    using Clock = tb::ThreadClock;

    // Runs `f` as a transaction until it commits, with bounded retry and
    // exponential backoff. `f` takes the engine's transaction and may
    // return a value, which run() passes through from the committed
    // attempt.
    template <typename F>
    auto run(F&& f) {
        using R = std::invoke_result_t<F&, Tx&>;
        // Abnormal-exit insurance: an exception escaping the user functor
        // (or the RetryExhausted below) while escalated must release the
        // token; the normal commit path releases it in txn_commit first.
        TokenGuard token_guard{gate_, &token_held_};
        std::uint64_t conflict_aborts = 0, freshness_aborts = 0;
        std::uint64_t start_ts = 0;
        for (unsigned attempt = 0;; ++attempt) {
            bool freshness = false;
            maybe_escalate(attempt);
            try {
                Tx tx = self().txn_begin();
                if (attempt == 0)
                    start_ts = tx.start_ts_;
                else
                    tx.start_ts_ = start_ts;
                if constexpr (std::is_void_v<R>) {
                    f(tx);
                    if (txn_commit(tx)) return;
                } else {
                    R r = f(tx);
                    if (txn_commit(tx)) return r;
                }
                freshness = tx.commit_stamp_stale_;
            } catch (const AbortTx& abort) {
                bump(stats_->aborts);
                freshness = abort.freshness;
                if (arm_requested_) arm_stripes();
            }
            freshness ? ++freshness_aborts : ++conflict_aborts;
            if (attempt + 1 >= cfg_.max_retries)
                throw RetryExhausted(Engine::kEngineName, stats(),
                                     conflict_aborts, freshness_aborts);
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
        gate_->acquire(gate_id_);
        token_held_ = true;
        bump(stats_->escalations);
    }

    // Post-abort pause, outlined so run()'s hot path (begin -> f ->
    // commit, no abort) stays small enough to keep user code inlined
    // into it. Force time forward on repeated FRESHNESS aborts by
    // drawing (and discarding) a stamp: clock time bases advance on
    // their own, but a counter whose committers draw timestamp BLOCKS
    // (batched_counter) only moves when stamps are consumed -- an abort
    // storm on a hot location could otherwise hold get_time still
    // forever, and a snapshot that can never reach the present retries
    // forever (freshness needs upper >= version + 2*dev). Conflict aborts
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
            if (attempt >= 1) self().note_own_stamp(clk_.get_new_ts());
            return;
        }
        const auto b0 = std::chrono::steady_clock::now();
        chronostm::backoff(attempt,
                           reinterpret_cast<std::uintptr_t>(stats_.get()));
        bump(stats_->backoff_ns,
             static_cast<std::uint64_t>(
                 std::chrono::duration_cast<std::chrono::nanoseconds>(
                     std::chrono::steady_clock::now() - b0)
                     .count()));
    }

    // Explicit transaction control for adapters and staged tests; run() is
    // the preferred loop. A transaction from the engine's txn_begin() is
    // valid for one attempt: reads/writes may throw detail::AbortTx, and
    // txn_commit reports success. Statistics are counted like run() does.
    bool txn_commit(Tx& tx) {
        const bool committed = tx.commit();
        if (committed) {
            bump(stats_->commits);
            if (tx.irrevocable_) bump(stats_->irrevocable_commits);
            if (token_held_) {
                gate_->release();
                token_held_ = false;
            }
        } else {
            bump(stats_->aborts);
        }
        if (arm_requested_) arm_stripes();
        return committed;
    }

    // Serves an arm request (SnapshotTx::note_unarmed_walk) once the
    // attempt that made it has ended: this context holds no lock word and
    // its commit flag is down. The context whose CAS moves the state off
    // -> arming waits until every commit flag has been seen down, then
    // stores `on`; any commit that loaded `off` had its flag up, so it has
    // published before an attempt can read `on` (DESIGN.md "Stripes on
    // demand"). Other requests find the state moved and drop out.
    __attribute__((noinline)) void arm_stripes() {
        arm_requested_ = false;
        std::uint32_t s = kFilterOff;
        if (!filter_state_->compare_exchange_strong(
                s, kFilterArming, std::memory_order_seq_cst))
            return;
        gate_->wait_flags_down();
        filter_state_->store(kFilterOn, std::memory_order_seq_cst);
    }

    TxStats stats() const {
        TxStats s;
        accumulate(s, *stats_);
        return s;
    }

 protected:
    template <typename, typename, typename>
    friend class SnapshotTx;

    // Registers a stats block with `eng` and enrolls a gate flag.
    // `gate_id` is this context's identity as irrevocability-token holder
    // (see IrrevGate::holder).
    SnapshotContext(SnapshotEngine<Cfg>& eng, const void* gate_id)
        : clk_(eng.tbase_.make_thread_clock()),
          cfg_(eng.cfg_),
          // The time base publishes each stamp's deviation from true time;
          // the core compares stamps from two different clocks, so the
          // pairwise uncertainty -- and the validity-range shrink -- is
          // twice that bound.
          dev_(2 * eng.tbase_.deviation()),
          stats_(std::make_shared<StatsBlock>()),
          stripes_(&eng.epoch_stripes_),
          filter_state_(&eng.filter_state_.word),
          gate_(&eng.irrev_gate_),
          commit_flag_(gate_->enroll()),
          gate_id_(gate_id) {
        std::lock_guard<std::mutex> g(eng.mu_);
        eng.blocks_.push_back(stats_);
    }

    Engine& self() { return static_cast<Engine&>(*this); }

    Clock clk_;
    Cfg cfg_;
    std::uint64_t dev_;
    std::shared_ptr<StatsBlock> stats_;
    EpochStripes* stripes_;
    std::atomic<std::uint32_t>* filter_state_;  // the engine's FilterState
    IrrevGate* gate_;
    // This context's in-commit flag, enrolled with the gate (which owns
    // it, so it outlives the context).
    CommitFlag* commit_flag_;
    const void* gate_id_;
    // True while this context holds the engine-global irrevocability
    // token; survives aborted attempts so a failed escalation retries
    // irrevocably instead of re-queuing for the token.
    bool token_held_ = false;
    // Set by an attempt whose unarmed walk reached kArmWalk entries;
    // served by arm_stripes() once the attempt has ended.
    bool arm_requested_ = false;
    Sets sets_;
};

}  // namespace detail
}  // namespace chronostm
