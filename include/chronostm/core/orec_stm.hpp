// Orec-table word STM: the Lazy Snapshot Algorithm run over a fixed global
// table of ownership records instead of per-TVar metadata. Shared data is
// plain memory -- words in structs, arrays, or the typed WordVar<T>
// wrapper -- and every transactional access finds its versioned lock by
// hashing the ADDRESS into the table: (addr >> 4) & mask, two ALU ops
// (the TL2 shape). Nothing has to be declared as a TVar, so raw-memory
// data structures become transactional for free.
//
// What carries over from the TVar core (core/lsa_stm.hpp) unchanged:
//  * stamps come from the runtime-pluggable tb::TimeBase facade, so one
//    engine serves every registered base (shared/batched/sharded/adaptive/
//    extsync) selected at runtime;
//  * snapshot interval [lower, upper] with lazy extension: a read that
//    finds a too-new version revalidates the read set against the current
//    orec words and moves `upper` to the present (this is precisely what
//    plain TL2 lacks -- TL2 aborts where LSA extends);
//  * deviation-aware validity: version admission shrinks by the pairwise
//    stamp uncertainty (2 * TimeBase::deviation()), trading freshness
//    aborts for correctness under imprecise scalable time bases. The
//    algebra only ever touches orec version words, never per-location
//    state, which is why it ports verbatim. One refinement on top: a
//    version stamped with a stamp THIS context drew itself (stamps are
//    globally unique, so it is this thread's own earlier commit) is
//    admitted with no shrink at all -- see detail::RecentStamps. Without
//    it, a thread re-reading what its previous transaction wrote under a
//    batched/sharded base burns draws until the counter outruns its own
//    stamps.
//
// What changes relative to the TVar core:
//  * metadata is the table entry, shared by every 16-byte granule that
//    hashes to it -- two independent addresses may collide ("false
//    conflict"; counted in TxStats::false_conflicts, rate math in
//    DESIGN.md). The table is per-OrecStm, so independent engines never
//    alias each other;
//  * single-version: no history ring to fall back on, so a reader that
//    cannot extend aborts where the TVar core might serve an old version;
//  * locks are TL2-style in-place bit sets (word | 1) that PRESERVE the
//    version, not descriptor pointers -- so there is no commit helping and
//    no contention-manager plumbing, just bounded spinning on foreign
//    locks. Commit-time read validation tells "locked by me" from "locked
//    by an enemy holding the same version" through the commit's own
//    ownership index, never through the word alone.
//
// Memory access protocol (TSan-clean by construction): all transactional
// data moves through 8-byte-aligned granules accessed with the __atomic
// builtins. An 8-aligned granule never spans a 16-byte orec granule, so
// one table entry covers each access. Buffered writes carry a byte mask;
// commit write-back merges partial-granule writes with memory under the
// granule's orec lock (nobody else may write those bytes while it is
// held). Reads are seqlock-consistent: load orec word, load granule,
// acquire fence, recheck orec word.

#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <vector>

#include <chronostm/core/epoch_stripes.hpp>
#include <chronostm/core/lsa_stm.hpp>
#include <chronostm/stm/config.hpp>
#include <chronostm/timebase/facade.hpp>
#include <chronostm/util/pause.hpp>

namespace chronostm {

// The shared knobs (read_extension, lock_spin, stall budgets, max_retries,
// irrevocable_threshold, epoch_filter) live in stm::CommonConfig; the old
// spellings -- cfg.stall_ts_budget etc. -- are the inherited members. The
// stalled-committer tolerance knobs are used here as described in
// stm/config.hpp: once lock_spin polite spins are burnt the waiter anchors
// the time base and keeps spinning until either the attempt budget
// (stall_spin_factor * lock_spin total spins) runs out or the time base
// advances past the anchor by stall_ts_budget stamps while the orec stays
// locked; both trip wires abort through the contention seam.
struct OrecConfig : stm::CommonConfig {
    // log2 of the orec-table size; 2^16 entries * 8 bytes = 512 KiB.
    // Smaller tables raise the false-conflict rate (see DESIGN.md for the
    // math); the dedicated orec test shrinks this to force collisions.
    unsigned table_bits = 16;
    // Commit-time write-back batching: one release fence for the whole
    // write set and relaxed per-orec publishes, instead of release stores
    // per orec. Off reproduces the pre-batching publish sequence (kept
    // selectable so check_bench.py can gate batched against unbatched in
    // the same run).
    bool batched_writeback = true;
};

namespace detail {

// One buffered write: an 8-byte granule image plus the byte mask that
// says which lanes the transaction actually wrote. POD by design so the
// write set is a FlatVec of records by value (sortable in place).
struct OrecWriteRec {
    void* gran;                        // 8-aligned granule base
    std::atomic<std::uint64_t>* orec;  // table entry guarding the granule
    std::uint64_t value;               // mask-selected buffered bytes
    std::uint64_t locked_word;         // unlocked word the lock replaced
    std::uint32_t mask;                // bit i => byte i of value is live
    std::uint32_t owner;               // 1 = this record performed the CAS
};

// Expand a byte mask (bit i) into a 64-bit lane mask (byte i).
inline std::uint64_t orec_lane_mask(std::uint32_t m) {
    std::uint64_t r = 0;
    for (unsigned i = 0; i < 8; ++i)
        if (m & (1u << i)) r |= std::uint64_t{0xFF} << (8 * i);
    return r;
}

inline std::uint64_t orec_merge(std::uint64_t mem, std::uint64_t val,
                                std::uint32_t m) {
    if (m == 0xFFu) return val;
    const std::uint64_t lane = orec_lane_mask(m);
    return (mem & ~lane) | (val & lane);
}

// The orec engine's read set: an open-addressing table keyed by orec
// pointer (one entry per distinct orec, however many granules hash to it),
// same machinery as the TVar core's detail::ReadSet -- staged insertion so
// a miss-then-admit costs one probe walk, generation-tagged O(1) clear,
// shrink hysteresis against one huge transaction taxing later small ones.
// Each entry remembers the first granule admitted under its orec so
// aliasing by a SECOND distinct granule is observable (false-conflict
// counter); `word` is the unlocked lock word the snapshot admitted.
class OrecReadSet {
 public:
    struct Entry {
        std::atomic<std::uint64_t>* orec;
        std::uint64_t word;
        const void* gran0;      // first granule admitted under this orec
        std::uint32_t gen;      // live iff gen == OrecReadSet::gen_
        std::uint32_t aliased;  // 1 once a second distinct granule hit
    };

    void clear() {
        if (__builtin_expect(++gen_ == 0, 0)) hard_reset();
        if (__builtin_expect(cap_ > 64 && size_ * 16 < cap_, 0)) {
            if (++small_streak_ >= 128) shrink();
        } else {
            small_streak_ = 0;
        }
        size_ = 0;
    }

    std::uint32_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    // Probes for `orec`: its live entry, or nullptr with the landing slot
    // staged for commit_stage (valid until the next probe or clear).
    Entry* find_or_stage(std::atomic<std::uint64_t>* orec) {
        if (__builtin_expect((size_ + 1) * 4 > cap_ * 3, 0)) grow();
        std::size_t i = slot_of(orec);
        for (;;) {
            Entry& e = entries_[i];
            if (e.gen != gen_) {
                stage_ = i;
                return nullptr;
            }
            if (e.orec == orec) return &e;
            i = (i + 1) & mask_;
        }
    }

    void commit_stage(std::atomic<std::uint64_t>* orec, std::uint64_t word,
                      const void* gran0) {
        Entry& e = entries_[stage_];
        e.orec = orec;
        e.word = word;
        e.gran0 = gran0;
        e.gen = gen_;
        e.aliased = 0;
        ++size_;
    }

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
        // Fibonacci hashing; table entries are 8-byte aligned, so shift
        // the alignment zeros out before mixing.
        const auto h = static_cast<std::uint64_t>(
                           reinterpret_cast<std::uintptr_t>(key) >> 3) *
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
            std::size_t j = slot_of(old[i].orec);
            while (entries_[j].gen == gen_) j = (j + 1) & mask_;
            entries_[j] = old[i];
            entries_[j].gen = gen_;
        }
    }

    void hard_reset() {
        for (std::size_t i = 0; i < cap_; ++i) entries_[i].gen = 0;
        gen_ = 1;
    }

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

// Stamps this context drew from the time base itself (commit stamps and
// livelock-defense draws), most recent first on lookup. Time-base stamps
// are globally unique, so a version carrying one of these is this
// thread's OWN earlier commit: it was published before the current
// transaction began, hence certainly current when the snapshot anchor
// was taken -- admissible with NO deviation shrink, whatever the
// numeric gap to `upper`. This is what keeps imprecise bases (batched,
// sharded) off the extend/abort path when a transaction re-reads what
// its predecessor just wrote: the counter may lag the thread's own
// stamps by up to the deviation, and without this the thread would burn
// draws until the counter catches up with itself. Bounded ring: only
// recent own stamps matter for that pattern. Slot value 0 doubles as
// the pre-history initial version, which predates every snapshot and is
// admissible by the same argument.
class RecentStamps {
 public:
    void push(std::uint64_t ts) {
        i_ = (i_ + 1) & (kN - 1);
        v_[i_] = ts;
    }

    bool contains(std::uint64_t ts) const {
        if (v_[i_] == ts) return true;  // common case: last commit stamp
        for (unsigned k = 0; k < kN; ++k)
            if (v_[k] == ts) return true;
        return false;
    }

 private:
    static constexpr unsigned kN = 8;
    std::uint64_t v_[kN] = {};
    unsigned i_ = 0;
};

// Per-thread access-set storage for the orec engine, reused across
// attempts and transactions (same allocation-free steady state as the
// TVar core's detail::AccessSets, which this mirrors). Write records are
// held by value: they are fixed-size PODs, so no arena or type erasure is
// needed.
struct OrecAccessSets {
    OrecReadSet reads;
    FlatVec<OrecWriteRec> writes;
    PtrIndex write_index;  // granule addr -> index into writes (pre-sort)
    PtrIndex owned;        // orec -> owner-record index (commit phase only)
    // Striped epoch-filter state for the in-flight attempt (the read-set
    // stripe signature plus first-touch snapshots; core/epoch_stripes.hpp).
    StripeScratch stripes;

    void reset() {
        reads.clear();
        writes.clear();
        write_index.clear();
        stripes.reset();
    }
};

}  // namespace detail

class OrecTransaction;
class OrecThreadContext;
class OrecStm;

// Raw-memory transactional access, free-function spelling. `addr` may
// point anywhere into plain structs or arrays; T must be trivially
// copyable (values move through granule images under a seqlock).
template <typename T>
T tx_read(OrecTransaction& tx, const T* addr);
template <typename T>
void tx_write(OrecTransaction& tx, T* addr, const T& v);

class OrecTransaction {
 public:
    using Clock = tb::ThreadClock;

    OrecTransaction(const OrecTransaction&) = delete;
    OrecTransaction& operator=(const OrecTransaction&) = delete;
    OrecTransaction(OrecTransaction&&) = default;

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
            gate_->acquire(token_held_);
            *token_held_ = true;
            detail::bump(stats_->escalations);
        }
        if (!walk_read_set()) throw detail::AbortTx{};
        irrevocable_ = true;
    }

    bool irrevocable() const { return irrevocable_; }

    std::uint64_t snapshot_lower() const { return lower_; }
    std::uint64_t snapshot_upper() const { return upper_; }

    // Distinct orecs read / distinct granules written.
    std::size_t read_set_size() const { return sets_->reads.size(); }
    std::size_t write_set_size() const { return sets_->writes.size(); }

    // Instrumentation/bench hook: attempt a snapshot extension right now,
    // exactly as a read that meets a too-new version would.
    bool try_extend_now() { return try_extend(); }

    template <typename T>
    T read(const T* addr) {
        static_assert(std::is_trivially_copyable_v<T>,
                      "transactional reads copy raw bytes");
        std::remove_const_t<T> out;
        if constexpr (sizeof(T) <= 8 &&
                      (sizeof(T) & (sizeof(T) - 1)) == 0) {
            // Power-of-two word at its natural alignment sits inside one
            // granule: a single validated load covers it.
            const auto p = reinterpret_cast<std::uintptr_t>(addr);
            if (__builtin_expect((p & (sizeof(T) - 1)) == 0, 1)) {
                const std::uintptr_t gran = p & ~std::uintptr_t{7};
                const std::uint64_t g =
                    load_granule(reinterpret_cast<const void*>(gran));
                std::memcpy(&out,
                            reinterpret_cast<const unsigned char*>(&g) +
                                (p - gran),
                            sizeof(T));
                return out;
            }
        }
        read_bytes(addr, &out, sizeof(T));
        return out;
    }

    template <typename T>
    void write(T* addr, const T& v) {
        static_assert(std::is_trivially_copyable_v<T>,
                      "transactional writes copy raw bytes");
        write_bytes(addr, reinterpret_cast<const unsigned char*>(&v),
                    sizeof(T));
    }

 private:
    friend class OrecThreadContext;
    friend class OrecStm;

    OrecTransaction(Clock& clk, const OrecConfig& cfg, OrecStm* stm,
                    std::uint64_t dev, detail::StatsBlock* stats,
                    detail::OrecAccessSets* sets,
                    detail::RecentStamps* recent,
                    detail::EpochStripes* stripes,
                    detail::IrrevGate* gate, detail::CommitFlag* commit_flag,
                    bool* token_held)
        : clk_(clk), cfg_(cfg), stm_(stm), dev_(dev), stats_(stats),
          sets_(sets), recent_(recent), stripes_(stripes), gate_(gate),
          commit_flag_(commit_flag), token_held_(token_held),
          irrevocable_(*token_held) {
        sets_->reset();
        cache_table();
        CHRONOSTM_FP_SINK(&stats_->injected_faults);
        // Per-stripe epoch snapshots are taken lazily at the stripe's
        // first touch, always BEFORE the covered granule's orec-word load
        // (touch_stripe in load_validated): a writer that publishes into
        // the stripe after the snapshot shows up as a stripe mismatch
        // (false negative, walk runs), never as a stale fast hit.
        upper_ = clk_.get_time();
    }

    // --- read path ------------------------------------------------------

    void read_bytes(const void* addr, void* dst, std::size_t len) {
        const auto p = reinterpret_cast<std::uintptr_t>(addr);
        auto* out = static_cast<unsigned char*>(dst);
        std::size_t done = 0;
        while (done < len) {
            const std::uintptr_t gran = (p + done) & ~std::uintptr_t{7};
            const std::size_t off = (p + done) - gran;
            const std::size_t n = std::min(len - done, 8 - off);
            const std::uint64_t g =
                load_granule(reinterpret_cast<const void*>(gran));
            std::memcpy(out + done,
                        reinterpret_cast<const unsigned char*>(&g) + off, n);
            done += n;
        }
    }

    // One granule, write set consulted first (read-after-write); partial
    // buffered masks merge over a validated memory image, so the bytes the
    // transaction did NOT write still come from a consistent snapshot.
    std::uint64_t load_granule(const void* gran) {
        const std::uint32_t wi = find_write(gran);
        if (wi != detail::PtrIndex::kNone) {
            const detail::OrecWriteRec& rec = sets_->writes[wi];
            if (rec.mask == 0xFFu) return rec.value;
            const std::uint64_t mem = load_validated(gran);
            // find_write's staged probe may be stale after load_validated
            // touched no write-set state; rec index stays valid.
            return detail::orec_merge(mem, sets_->writes[wi].value,
                                      sets_->writes[wi].mask);
        }
        return load_validated(gran);
    }

    // Seqlock-consistent validated load of one granule, admitting its orec
    // to the snapshot (the orec-table twin of the TVar core's read path).
    std::uint64_t load_validated(const void* gran);

    // The table pointer and mask are immutable for the STM's lifetime;
    // caching them here turns every orec lookup into index math off two
    // transaction-local words instead of a dependent chase through stm_.
    void cache_table();
    std::atomic<std::uint64_t>* orec_of(const void* p) const;

    // --- write path -----------------------------------------------------

    void write_bytes(void* addr, const unsigned char* src, std::size_t len) {
        const auto p = reinterpret_cast<std::uintptr_t>(addr);
        std::size_t done = 0;
        while (done < len) {
            const std::uintptr_t gran = (p + done) & ~std::uintptr_t{7};
            const std::size_t off = (p + done) - gran;
            const std::size_t n = std::min(len - done, 8 - off);
            store_granule(reinterpret_cast<void*>(gran), src + done, off, n);
            done += n;
        }
    }

    void store_granule(void* gran, const unsigned char* src, std::size_t off,
                       std::size_t n);

    // Inline scan while the write set is small, open-addressing index on
    // the granule address past that -- same scheme and threshold as the
    // TVar core. Returns an index into sets_->writes or PtrIndex::kNone
    // (with the index's landing bucket staged for the insert that usually
    // follows a miss).
    std::uint32_t find_write(const void* gran) {
        auto& ws = sets_->writes;
        if (ws.size() <= detail::kInlineScan) {
            for (std::uint32_t i = 0; i < ws.size(); ++i)
                if (ws[i].gran == gran) return i;
            return detail::PtrIndex::kNone;
        }
        return sets_->write_index.find_or_stage(gran);
    }

    // --- snapshot maintenance ------------------------------------------

    // Record granule `p`'s stripe in the attempt's signature, snapshotting
    // the stripe epoch at first touch. Must run BEFORE the orec-word load
    // that admits the read: writers bump their stripes before unlocking,
    // so any commit that could invalidate the admitted read lands as a
    // snapshot mismatch (spurious walk at worst, never a stale fast hit).
    void touch_stripe(const void* p) {
        auto& sc = sets_->stripes;
        const unsigned s = stripes_->stripe_of(p);
        const std::uint64_t bit = std::uint64_t{1} << s;
        if (!(sc.sig & bit)) {
            sc.snap[s] = (*stripes_)[s].load(std::memory_order_acquire);
            sc.sig |= bit;
        }
    }

    // Compare every touched stripe against its snapshot, recording the
    // fresh values in `fresh` (indexed by stripe id). Snapshots are NOT
    // updated here: re-anchoring is only sound after a SUCCESSFUL walk
    // (reanchor_stripes), because a failed walk proves a conflicting
    // writer hit the read set and absorbing its bump would let a later
    // extension fast-hit past the very commit the walk just caught (the
    // TVar core's old-version fallback makes that reachable; here every
    // failed extension aborts, but the invariant is kept identical).
    bool stripes_clean(std::uint64_t* fresh) {
        auto& sc = sets_->stripes;
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
    // stripes_clean(); call only after a successful walk (a bump <=
    // fresh[s] whose publish the walk missed keeps its orec locked, so
    // the walk would have failed on the locked word).
    void reanchor_stripes(const std::uint64_t* fresh) {
        auto& sc = sets_->stripes;
        std::uint64_t sig = sc.sig;
        while (sig != 0) {
            const unsigned s = static_cast<unsigned>(__builtin_ctzll(sig));
            sig &= sig - 1;
            sc.snap[s] = fresh[s];
        }
    }

    // Move `upper` to the present if every orec read so far is unchanged
    // (a changed or locked word means extension would break consistency).
    // The striped commit-epoch filter short-circuits the O(R) walk exactly
    // as in the TVar core's try_extend -- `nu` drawn before the stripe
    // loads, and on the walk path a re-anchor to the pre-walk stripe
    // epochs. See DESIGN.md "Striped epoch soundness".
    // Failure reason lands in extend_conflict_: false = time has not
    // advanced past upper_ (freshness), true = the read-set walk found a
    // changed or locked orec (conflict -- backoff resolves it; see the
    // abort taxonomy in DESIGN.md).
    bool try_extend() {
        extend_conflict_ = false;
        const std::uint64_t nu = clk_.get_time();
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

    // Cold continuation of load_validated's admission miss: returns only
    // when extension succeeded (the caller retries the read), otherwise
    // aborts, classed by why the extension failed (see try_extend).
    // Outlined so the per-read hot path's code size and alignment do not
    // depend on the extension/abort machinery.
    __attribute__((noinline)) void extend_or_abort() {
        if (cfg_.read_extension && try_extend()) return;
        throw detail::AbortTx{!extend_conflict_};
    }

    // Full O(R) read-set validation against the current orec words.
    bool walk_read_set() const {
        return sets_->reads.all_of(
            [](const detail::OrecReadSet::Entry& e) {
                return e.orec->load(std::memory_order_acquire) == e.word;
            });
    }

    // Bounded wait for a foreign in-place lock to clear, with stall
    // detection. No descriptor to help or kill: after cfg_.lock_spin
    // polite spins the waiter anchors the time base (stall_waits) and
    // tolerates the lock until either the total attempt budget runs out
    // or the base advances stall_ts_budget stamps past the anchor while
    // the orec stays locked -- the whole system committing around a lock
    // that never moves proves the owner is preempted, not slow. Both trip
    // wires abort through the contention seam (stalled_aborts) so run()'s
    // ladder takes over. The irrevocability-token holder never aborts: it
    // can only meet locks of already-in-flight commits, which are
    // guaranteed to finish.
    void wait_on_locked_orec(const std::atomic<std::uint64_t>* o) {
        std::uint64_t spins = 0;
        std::uint64_t anchor = 0;
        bool stalled = false;
        const std::uint64_t budget =
            std::uint64_t{cfg_.lock_spin} *
            std::max(2u, cfg_.stall_spin_factor);
        while (o->load(std::memory_order_acquire) & 1u) {
            ++spins;
            if (spins > cfg_.lock_spin && !irrevocable_) {
                if (!stalled) {
                    stalled = true;
                    anchor = clk_.get_time();
                    detail::bump(stats_->stall_waits);
                }
                if (spins > budget ||
                    ((spins & 63u) == 0 &&
                     clk_.get_time() - anchor > cfg_.stall_ts_budget)) {
                    detail::bump(stats_->stalled_aborts);
                    throw detail::AbortTx{};
                }
            }
            cpu_relax();
            // Single-CPU hosts: the lock owner cannot run unless we yield.
            if ((spins & 63u) == 0) std::this_thread::yield();
        }
    }

    // --- commit ---------------------------------------------------------

    bool commit();
    void rollback();

    Clock& clk_;
    const OrecConfig& cfg_;
    OrecStm* stm_;
    std::uint64_t dev_;
    detail::StatsBlock* stats_;
    detail::OrecAccessSets* sets_;
    detail::RecentStamps* recent_;
    detail::EpochStripes* stripes_;
    detail::IrrevGate* gate_;
    detail::CommitFlag* commit_flag_;
    // Owning context's token flag: true while the context holds the
    // engine-global irrevocability token (it survives aborted attempts,
    // so the retry of a failed escalation reruns irrevocably).
    bool* token_held_;
    bool irrevocable_ = false;
    // Cached from stm_ at begin (immutable for the STM's lifetime).
    std::atomic<std::uint64_t>* tbl_ = nullptr;
    std::size_t tmask_ = 0;
    std::uint64_t lower_ = 0;
    std::uint64_t upper_ = 0;
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

// Per-thread handle: thread clock, stats block, pooled access sets. One
// context per thread, one live transaction per context.
class OrecThreadContext {
 public:
    using Clock = tb::ThreadClock;

    // Runs `f` as a transaction until it commits, with bounded retry and
    // exponential backoff; passes f's return value through.
    template <typename F>
    auto run(F&& f) {
        using R = std::invoke_result_t<F&, OrecTransaction&>;
        // Abnormal-exit insurance: an exception escaping the user functor
        // (or the RetryExhausted below) while escalated must release the
        // token; the normal commit path releases it in txn_commit first.
        detail::TokenGuard token_guard{gate_, &token_held_};
        std::uint64_t conflict_aborts = 0, freshness_aborts = 0;
        for (unsigned attempt = 0;; ++attempt) {
            bool freshness = false;
            maybe_escalate(attempt);
            try {
                OrecTransaction tx = txn_begin();
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
                throw RetryExhausted("orec", stats(), conflict_aborts,
                                     freshness_aborts);
            abort_pause(attempt, freshness);
        }
    }

    // Degradation ladder, final rung (see the TVar core's twin): claim the
    // engine-global token so the next attempt runs irrevocably.
    void maybe_escalate(unsigned attempt) {
        if (token_held_ || cfg_.irrevocable_threshold == 0 ||
            attempt < cfg_.irrevocable_threshold)
            return;
        gate_->acquire(&token_held_);
        token_held_ = true;
        detail::bump(stats_->escalations);
    }

    // Post-abort pause, outlined to keep run()'s no-abort hot path small
    // (see the TVar core's twin). Same livelock defense as there: a
    // counter whose time only moves when stamps are drawn
    // (batched/sharded) must see a draw during a FRESHNESS abort storm,
    // or snapshots never reach the present and those aborts repeat
    // forever. Conflict aborts resolve through backoff alone and must
    // not drain the batched/sharded stamp blocks. Freshness aborts in
    // turn skip the backoff: nothing is contended -- the snapshot is
    // merely stale -- so the retry goes immediately with the drawn stamp
    // keeping the counter moving.
    __attribute__((noinline)) void abort_pause(unsigned attempt,
                                               bool freshness) {
        if (freshness) {
            if (attempt >= 1) recent_.push(clk_.get_new_ts());
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

    OrecTransaction txn_begin() {
        return OrecTransaction(clk_, cfg_, stm_, dev_, stats_.get(),
                               &sets_, &recent_, stripes_, gate_,
                               commit_flag_, &token_held_);
    }

    bool txn_commit(OrecTransaction& tx) {
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
            stats_->aborts.load(std::memory_order_relaxed), 0, 0,
            stats_->false_conflicts.load(std::memory_order_relaxed));
        detail::fill_fast_path_stats(s, *stats_);
        return s;
    }

 private:
    friend class OrecStm;

    OrecThreadContext(Clock clk, const OrecConfig& cfg, OrecStm* stm,
                      std::uint64_t dev,
                      std::shared_ptr<detail::StatsBlock> stats,
                      detail::EpochStripes* stripes,
                      detail::IrrevGate* gate)
        : clk_(std::move(clk)), cfg_(cfg), stm_(stm), dev_(dev),
          stats_(std::move(stats)), stripes_(stripes), gate_(gate),
          commit_flag_(gate->enroll()) {}

    Clock clk_;
    OrecConfig cfg_;
    OrecStm* stm_;
    std::uint64_t dev_;
    std::shared_ptr<detail::StatsBlock> stats_;
    detail::EpochStripes* stripes_;
    detail::IrrevGate* gate_;
    // This context's in-commit flag, owned by the gate.
    detail::CommitFlag* commit_flag_;
    // True while this context holds the engine-global irrevocability
    // token; survives aborted attempts so a failed escalation retries
    // irrevocably instead of re-queuing for the token.
    bool token_held_ = false;
    detail::OrecAccessSets sets_;
    detail::RecentStamps recent_;
};

class OrecStm {
 public:
    static constexpr unsigned kOrecShift = 4;  // 16-byte orec granules

    explicit OrecStm(tb::TimeBase tbase, OrecConfig cfg = OrecConfig{})
        : tbase_(std::move(tbase)), cfg_(cfg) {
        if (cfg_.table_bits < 2) cfg_.table_bits = 2;
        if (cfg_.table_bits > 26) cfg_.table_bits = 26;
        const std::size_t n = std::size_t{1} << cfg_.table_bits;
        mask_ = n - 1;
        // Value-initialized: every orec starts unlocked at version 0.
        table_ = std::make_unique<std::atomic<std::uint64_t>[]>(n);
        // Epoch stripes use the SAME shift+mask granule hash family as
        // the orec table, with the stripe index being the TOP bits of the
        // orec index: shift = kOrecShift + table_bits - log2(stripes), so
        // one stripe covers a contiguous orec-table range and granules
        // aliasing to one orec always share a stripe (the read path
        // relies on that to skip re-touching on dedup hits). Stripe count
        // is capped at the table size so the shift never drops below
        // kOrecShift.
        unsigned want = cfg_.filter_stripes;
        const unsigned cap =
            cfg_.table_bits < 6
                ? (1u << cfg_.table_bits)
                : detail::EpochStripes::kMaxStripes;
        unsigned count = 1;
        while (count < want && count < cap) count <<= 1;
        unsigned lg = 0;
        while ((1u << lg) < count) ++lg;
        epoch_stripes_ = detail::EpochStripes(
            count, kOrecShift + cfg_.table_bits - lg);
        cfg_.filter_stripes = epoch_stripes_.count();
    }

    OrecStm(const OrecStm&) = delete;
    OrecStm& operator=(const OrecStm&) = delete;

    // The shift+mask metadata lookup the engine exists for. Consecutive
    // 16-byte data granules map to consecutive table entries, so the four
    // orecs guarding one 64-byte data line share one table line (array
    // scans stay local); distinct data lines land on distinct table lines.
    std::atomic<std::uint64_t>* orec_of(const void* p) {
        return &table_[(reinterpret_cast<std::uintptr_t>(p) >> kOrecShift) &
                       mask_];
    }

    OrecThreadContext make_context() {
        auto block = std::make_shared<detail::StatsBlock>();
        {
            std::lock_guard<std::mutex> g(mu_);
            blocks_.push_back(block);
        }
        // Pairwise stamp uncertainty: both the version's stamp and the
        // snapshot's stamp may deviate by the published bound.
        return OrecThreadContext(tbase_.make_thread_clock(), cfg_, this,
                                 2 * tbase_.deviation(), std::move(block),
                                 &epoch_stripes_, &irrev_gate_);
    }

    TxStats collected_stats() const {
        std::uint64_t c = 0, a = 0, fc = 0;
        std::lock_guard<std::mutex> g(mu_);
        TxStats partial;
        for (const auto& b : blocks_) {
            c += b->commits.load(std::memory_order_relaxed);
            a += b->aborts.load(std::memory_order_relaxed);
            fc += b->false_conflicts.load(std::memory_order_relaxed);
            detail::fill_fast_path_stats(partial, *b);
        }
        TxStats s(c, a, 0, 0, fc);
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

    // Total epoch bumps across all stripes: with filter_stripes=1, one
    // bump per writer commit attempt that reached the stamp draw (the
    // PR 7 counter); with more stripes, one bump per distinct stripe each
    // such attempt's write set covered. Exposed for tests and
    // instrumentation.
    std::uint64_t commit_epoch() const { return epoch_stripes_.sum(); }

    // Stripe geometry, exposed so tests and benches can place granules
    // in (or out of) a given stripe deliberately.
    unsigned filter_stripe_of(const void* p) const {
        return epoch_stripes_.stripe_of(p);
    }
    unsigned filter_stripes() const { return epoch_stripes_.count(); }

    const OrecConfig& config() const { return cfg_; }
    std::size_t table_size() const { return mask_ + 1; }
    tb::TimeBase& time_base() { return tbase_; }

    // True while some transaction holds the irrevocability token; exposed
    // for tests and instrumentation.
    bool irrevocable_active() const {
        return irrev_gate_.active();
    }

 private:
    friend class OrecTransaction;

    tb::TimeBase tbase_;
    OrecConfig cfg_;
    std::size_t mask_ = 0;
    std::unique_ptr<std::atomic<std::uint64_t>[]> table_;
    // Cache-line-padded epoch stripes: a writer commit bumps only the
    // stripes its write set hashes into; filtered validation compares
    // only the stripes the read set touched.
    detail::EpochStripes epoch_stripes_;
    // Irrevocability gate (token + per-context in-commit flags); an
    // update commit writes only its own flag, never the token line.
    detail::IrrevGate irrev_gate_;
    mutable std::mutex mu_;
    std::vector<std::shared_ptr<detail::StatsBlock>> blocks_;
};

inline void OrecTransaction::cache_table() {
    tbl_ = stm_->table_.get();
    tmask_ = stm_->mask_;
}

inline std::atomic<std::uint64_t>* OrecTransaction::orec_of(
    const void* p) const {
    return &tbl_[(reinterpret_cast<std::uintptr_t>(p) >>
                  OrecStm::kOrecShift) &
                 tmask_];
}

inline std::uint64_t OrecTransaction::load_validated(const void* gran) {
    auto* o = orec_of(gran);
    // Chaos harness: an armed orec_read site may delay here or demand an
    // injected abort; the token holder never honors the abort half.
    if (CHRONOSTM_FAILPOINT(orec_read) && !irrevocable_)
        throw detail::AbortTx{};
    if (irrevocable_) {
        // Quiescent heap: no update commit can run while this transaction
        // holds the token, so the current granule image IS the snapshot --
        // no admission check, no read-set bookkeeping, no seqlock recheck.
        // Only lower_ advances, keeping the commit stamp above every
        // version this attempt read (commit() pulls the time base forward
        // if the drawn stamp lags it).
        std::uint64_t w1 = o->load(std::memory_order_acquire);
        while (w1 & 1u) {
            wait_on_locked_orec(o);
            w1 = o->load(std::memory_order_acquire);
        }
        const std::uint64_t v = __atomic_load_n(
            static_cast<const std::uint64_t*>(gran), __ATOMIC_ACQUIRE);
        lower_ = std::max(lower_, (w1 >> 1) + dev_);
        return v;
    }
    // Read-after-read dedup keyed by orec: a duplicate re-delivers under
    // the admitted word; a miss leaves the landing slot staged so
    // admission below is one store.
    auto* dup = sets_->reads.find_or_stage(o);
    // Stripe snapshot BEFORE the admitting orec-word load. The stripe
    // bits are the top bits of the orec index (OrecStm picks the shift),
    // so granules aliasing to one orec share a stripe -- a dup hit means
    // the stripe was already touched at the first admission.
    if (cfg_.epoch_filter && dup == nullptr) touch_stripe(gran);
    for (;;) {
        std::uint64_t w1 = o->load(std::memory_order_acquire);
        if (__builtin_expect(w1 & 1u, 0)) {
            wait_on_locked_orec(o);
            continue;
        }
        const std::uint64_t wv = w1 >> 1;
        // Validity of the current version starts at wv, shrunk by the
        // pairwise stamp uncertainty dev_ -- identical to the TVar core.
        // A stamp this context itself drew before the transaction began
        // carries no uncertainty at all: it is this thread's own earlier
        // commit (stamps are unique), already current when the snapshot
        // anchor was taken, so it is admissible regardless of the
        // numeric gap -- the escape hatch that keeps a thread re-reading
        // its own writes off the extend/abort path under imprecise bases.
        const bool fresh = wv + dev_ <= upper_;
        if (fresh || recent_->contains(wv)) {
            const std::uint64_t v = __atomic_load_n(
                static_cast<const std::uint64_t*>(gran), __ATOMIC_ACQUIRE);
            // Seqlock recheck; pairs with the release fence before the
            // data stores in commit().
            std::atomic_thread_fence(std::memory_order_acquire);
            if (__builtin_expect(o->load(std::memory_order_acquire) != w1,
                                 0))
                continue;
            if (__builtin_expect(dup != nullptr, 0)) {
                // A word that changed since admission means snapshot
                // damage; refuse (same reasoning as the TVar core).
                if (dup->word != w1) throw detail::AbortTx{};
                if (dup->gran0 != gran && !dup->aliased) {
                    // Second distinct granule under one orec: table
                    // aliasing observed on the read path.
                    dup->aliased = 1;
                    detail::bump(stats_->false_conflicts);
                }
                return v;
            }
            // Own-stamp admissions contribute no lower-bound constraint:
            // the version's real validity began before this snapshot.
            if (fresh) lower_ = std::max(lower_, wv + dev_);
            sets_->reads.commit_stage(o, w1, gran);
            return v;
        }
        // Too new for the snapshot: extend to the present (revalidating
        // the read set) and retry. No multi-version fallback here -- the
        // orec table keeps no history -- so failure to extend aborts. The
        // extension's failure reason decides the class: a failed read-set
        // walk is a data CONFLICT (backoff resolves it; the retry must
        // not drain batched/sharded stamp blocks), while time-not-
        // advanced is FRESHNESS -- run() may draw-and-discard a stamp so
        // batched/sharded counters advance.
        extend_or_abort();
    }
}

inline void OrecTransaction::store_granule(void* gran,
                                           const unsigned char* src,
                                           std::size_t off, std::size_t n) {
    const std::uint32_t m =
        n == 8 ? 0xFFu : ((1u << n) - 1u) << off;
    const std::uint32_t wi = find_write(gran);
    if (wi != detail::PtrIndex::kNone) {
        // Write-after-write: merge into the buffered image in place.
        detail::OrecWriteRec& rec = sets_->writes[wi];
        std::memcpy(reinterpret_cast<unsigned char*>(&rec.value) + off, src,
                    n);
        rec.mask |= m;
        return;
    }
    detail::OrecWriteRec rec{};
    rec.gran = gran;
    rec.orec = orec_of(gran);
    std::memcpy(reinterpret_cast<unsigned char*>(&rec.value) + off, src, n);
    rec.mask = m;
    auto& ws = sets_->writes;
    ws.push_back(rec);
    if (ws.size() == detail::kInlineScan + 1) {
        // Crossed the inline threshold: index everything accumulated.
        for (std::uint32_t i = 0; i < ws.size(); ++i)
            sets_->write_index.insert(ws[i].gran, i);
    } else if (ws.size() > detail::kInlineScan + 1) {
        // find_write just missed on this key: its staged bucket is ours.
        sets_->write_index.commit_stage(gran, ws.size() - 1);
    }
    writes_sorted_ = false;
}

// Commit: lock the write set's orecs in granule-address order (in-place
// bit set, version preserved), draw the commit stamp AFTER the last lock,
// validate the read set exactly (words, not clocks), then publish data
// and release every orec with the new version.
inline bool OrecTransaction::commit() {
    auto& ws = sets_->writes;
    if (ws.empty()) {
        // Read-only fast path: the snapshot reads are consistent and the
        // transaction serializes at its snapshot -- no stamp drawn, no
        // lock taken, no epoch bump.
        detail::bump(stats_->ro_commits);
        return true;
    }

    if (!writes_sorted_) {
        std::sort(ws.begin(), ws.end(),
                  [](const detail::OrecWriteRec& a,
                     const detail::OrecWriteRec& b) {
                      return a.gran < b.gran;
                  });
        writes_sorted_ = true;
    }

    // Update commits run inside the irrevocability gate: held at the door
    // while a token holder is active, flagged in flight otherwise so an
    // escalating transaction can drain the pipeline. The token holder
    // itself skips the gate -- it IS the gate. The guard exits on every
    // path out, including exceptions.
    detail::GateGuard gate_guard;
    if (!irrevocable_) {
        gate_->enter_commit(*commit_flag_);
        gate_guard.flag = commit_flag_;
    }

    // Lock phase. Granule-address order is deterministic across
    // transactions; two granules of one transaction may still share an
    // orec (table aliasing), which the ownership index turns into a
    // single lock acquisition instead of a self-deadlock.
    auto& owned = sets_->owned;
    owned.clear();
    try {
        for (std::uint32_t i = 0; i < ws.size(); ++i) {
            detail::OrecWriteRec& rec = ws[i];
            const std::uint32_t prev = owned.find_or_stage(rec.orec);
            if (prev != detail::PtrIndex::kNone) {
                // Already locked by an earlier record of this commit:
                // distinct granules aliasing one orec.
                rec.locked_word = ws[prev].locked_word;
                rec.owner = 0;
                detail::bump(stats_->false_conflicts);
                continue;
            }
            for (;;) {
                std::uint64_t w = rec.orec->load(std::memory_order_relaxed);
                if (w & 1u) {
                    wait_on_locked_orec(rec.orec);
                    continue;
                }
                if (rec.orec->compare_exchange_weak(
                        w, w | 1u, std::memory_order_acq_rel,
                        std::memory_order_relaxed)) {
                    rec.locked_word = w;
                    rec.owner = 1;
                    owned.commit_stage(rec.orec, i);
                    break;
                }
            }
        }
    } catch (const detail::AbortTx&) {
        rollback();
        return false;
    }

    // Chaos harness: fake a committer preempted right after taking its
    // last orec lock, before anything is published.
    (void)CHRONOSTM_FAILPOINT(orec_commit_post_lock);

    // Bump the epoch stripes this write set covers (one bump per DISTINCT
    // stripe) while every orec lock is held and BEFORE the stamp draw: a
    // reader whose stripe check misses a bump drew its extension time
    // before our stamp existed, so the deviation-aware admission rule
    // keeps these versions out; a reader that validates while we still
    // hold a conflicting lock fails on the locked word. A spurious bump
    // from an attempt that aborts below only costs other readers a walk.
    // The fetch_add return doubles as this commit's own pre-check for
    // stripes its read set shares with its write set.
    bool epoch_clean = false;
    std::uint64_t wsig = 0;  // stripes this commit bumped
    if (cfg_.epoch_filter) {
        epoch_clean = true;
        const auto& sc = sets_->stripes;
        for (const auto& rec : ws) {
            const unsigned s = stripes_->stripe_of(rec.gran);
            const std::uint64_t bit = std::uint64_t{1} << s;
            if (wsig & bit) continue;
            wsig |= bit;
            const std::uint64_t prev =
                (*stripes_)[s].fetch_add(1, std::memory_order_acq_rel);
            if ((sc.sig & bit) && prev != sc.snap[s]) epoch_clean = false;
        }
    }

    // Chaos harness: stall in the window the epoch filter's post-draw
    // re-check exists to close.
    (void)CHRONOSTM_FAILPOINT(orec_commit_pre_stamp);

    // Locks held: draw the commit timestamp. Drawn after the LAST lock --
    // a pre-lock stamp would let a fresh reader accept these writes inside
    // a snapshot that still contains pre-lock state. Recorded as an own
    // stamp either way: uniqueness means no foreign version can ever
    // carry it, so recording a stamp of a failed commit is inert.
    std::uint64_t commit_ts = clk_.get_new_ts();
    recent_->push(commit_ts);
    // Re-check every READ stripe AFTER drawing commit_ts: the fetch_adds
    // prove the read set clean only up to the bumps, but the commit
    // serializes at commit_ts, drawn later. A writer bumping in between
    // may draw a SMALLER stamp and publish into our read set below
    // commit_ts; each read stripe's post-draw load must still show only
    // our own bump (if any). A writer it misses drew after us (its
    // counter RMW following ours on the shared stripe orders its bump
    // before this load) -- the same residual class a post-draw walk
    // admits. See DESIGN.md "Striped epoch soundness".
    if (epoch_clean) {
        const auto& sc = sets_->stripes;
        std::uint64_t sig = sc.sig;
        while (sig != 0) {
            const unsigned s = static_cast<unsigned>(__builtin_ctzll(sig));
            sig &= sig - 1;
            const std::uint64_t expect =
                sc.snap[s] + ((wsig >> s) & 1u);
            if ((*stripes_)[s].load(std::memory_order_acquire) != expect) {
                epoch_clean = false;
                break;
            }
        }
    }

    // Commit-time validation: every read stripe unchanged up to our own
    // bump (re-confirmed after the stamp draw) means no other writer
    // committed into any stripe the read set covers since this
    // transaction last validated, so no read-set word can have changed
    // (own locks included: we could only have locked an orec whose word
    // was still the admitted one).
    bool reads_valid;
    if (irrevocable_) {
        // Token held since before this attempt's first read (or since a
        // successful become_irrevocable walk): the commit pipeline has
        // been quiescent throughout, so no read-set word can have changed
        // -- validation is vacuous.
        reads_valid = true;
    } else if (epoch_clean) {
        reads_valid = true;
        detail::bump(stats_->validation_fast_hits);
    } else {
        if (cfg_.epoch_filter)
            detail::bump(stats_->stripe_walks);
        reads_valid = sets_->reads.all_of(
            [&](const detail::OrecReadSet::Entry& e) {
                const std::uint64_t cur =
                    e.orec->load(std::memory_order_acquire);
                if (cur == e.word) return true;
                if (cur == (e.word | 1u)) {
                    // Same version, lock bit set. A foreign committer
                    // locking in place would present the same word, so
                    // ownership is decided by this commit's own index,
                    // never the word.
                    const std::uint32_t i = owned.find_or_stage(e.orec);
                    if (i != detail::PtrIndex::kNone &&
                        ws[i].locked_word == e.word)
                        return true;
                }
                return false;
            });
    }
    if (!reads_valid) {
        rollback();
        return false;
    }
    if (lower_ > commit_ts) {
        if (irrevocable_) {
            // The token holder cannot abort on a freshness problem: pull
            // the time base forward by drawing (and discarding) stamps
            // until the commit stamp clears the snapshot's lower bound.
            // Each draw advances the counter, so this terminates.
            do {
                commit_ts = clk_.get_new_ts();
            } while (lower_ > commit_ts);
            recent_->push(commit_ts);
        } else {
            // A stamp that lags the snapshot is a time-base freshness
            // problem (batched/sharded blocks), not a data conflict.
            commit_stamp_stale_ = true;
            rollback();
            return false;
        }
    }

    // One stamp for the whole write set, bumped above every locked
    // version for per-orec monotonicity under coarse or tied stamps.
    std::uint64_t new_ts = commit_ts;
    for (const auto& rec : ws)
        if (rec.owner)
            new_ts = std::max(new_ts, (rec.locked_word >> 1) + 1);

    // Publish. The first release fence keeps the lock CASes above ordered
    // before the data stores. Partial-granule records merge with memory --
    // safe because this thread holds the granule's orec, so nobody else
    // may write any byte of it until the publish below. The data pass
    // walks the granule-sorted write set, so aliased granules of one orec
    // all land before that orec's single publish.
    // Chaos harness: a committer parked here is decided but has applied
    // nothing -- and the orec engine has no helpers, so waiters must
    // tolerate or abort around it.
    (void)CHRONOSTM_FAILPOINT(orec_commit_pre_writeback);

    std::atomic_thread_fence(std::memory_order_release);
    for (const auto& rec : ws) {
        auto* gp = static_cast<std::uint64_t*>(rec.gran);
        if (rec.mask == 0xFFu) {
            __atomic_store_n(gp, rec.value, __ATOMIC_RELAXED);
        } else {
            const std::uint64_t cur = __atomic_load_n(gp, __ATOMIC_RELAXED);
            __atomic_store_n(gp,
                             detail::orec_merge(cur, rec.value, rec.mask),
                             __ATOMIC_RELAXED);
        }
    }
    // Chaos harness: data applied, orec locks still held.
    (void)CHRONOSTM_FAILPOINT(orec_commit_pre_unlock);
    if (cfg_.batched_writeback) {
        // Batched version publish: one release fence for the whole write
        // set, then relaxed stores -- each orec published exactly once
        // (owner records). Readers' acquire loads of the orec synchronize
        // with the fence ([atomics.fences]), so data stays visible before
        // the version that admits it. kFencedPublishOrder upgrades the
        // stores to release under TSan, which cannot model thread fences.
        std::atomic_thread_fence(std::memory_order_release);
        for (const auto& rec : ws)
            if (rec.owner)
                rec.orec->store(new_ts << 1, kFencedPublishOrder);
    } else {
        // Pre-batching publish sequence (per-orec release stores), kept
        // selectable so the bench can pin batched against unbatched.
        for (const auto& rec : ws)
            if (rec.owner)
                rec.orec->store(new_ts << 1, std::memory_order_release);
    }
    return true;
}

// Abort path: restore the saved word on every orec this commit actually
// locked (owner records only; aliased duplicates never performed a CAS).
inline void OrecTransaction::rollback() {
    auto& ws = sets_->writes;
    for (std::uint32_t i = 0; i < ws.size(); ++i)
        if (ws[i].owner)
            ws[i].orec->store(ws[i].locked_word, std::memory_order_release);
}

// Typed raw-memory wrapper: a plain T, 8-aligned so the value sits inside
// one granule, accessed through the orec table like any other address.
// The var itself carries NO metadata -- sizeof(WordVar<T>) is 8 -- which
// is the whole point of the engine.
template <typename T>
class WordVar {
    static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8,
                  "WordVar<T> requires a trivially copyable T of at most 8 "
                  "bytes; use raw structs with tx_read/tx_write for wider "
                  "data");

 public:
    explicit WordVar(T initial) : v_(initial) {}
    WordVar(const WordVar&) = delete;
    WordVar& operator=(const WordVar&) = delete;

    T get(OrecTransaction& tx) const { return tx.read(&v_); }
    void set(OrecTransaction& tx, T v) { tx.write(&v_, v); }

    // Non-transactional read for post-run invariant checks (quiesced
    // state only). Goes through the containing granule's atomic load so
    // the engine's racing granule stores stay data-race-free under TSan.
    T unsafe_peek() const {
        const std::uint64_t g = __atomic_load_n(
            reinterpret_cast<const std::uint64_t*>(&v_), __ATOMIC_ACQUIRE);
        T out;
        std::memcpy(&out, &g, sizeof(T));
        return out;
    }

    T* raw() { return &v_; }
    const T* raw() const { return &v_; }

 private:
    alignas(8) mutable T v_;
};

template <typename T>
inline T tx_read(OrecTransaction& tx, const T* addr) {
    return tx.read(addr);
}
template <typename T>
inline void tx_write(OrecTransaction& tx, T* addr, const T& v) {
    tx.write(addr, v);
}

}  // namespace chronostm
