// Orec-table word STM: the Lazy Snapshot Algorithm run over a fixed global
// table of ownership records instead of per-TVar metadata. Shared data is
// plain memory -- words in structs, arrays, or the typed WordVar<T>
// wrapper -- and every transactional access finds its versioned lock by
// hashing the ADDRESS into the table: (addr >> 4) & mask, two ALU ops
// (the TL2 shape). Nothing has to be declared as a TVar, so raw-memory
// data structures become transactional for free.
//
// The snapshot itself -- the [lower, upper] interval with lazy extension,
// the striped commit-epoch filter, commit-time validation, the
// irrevocability gate, the retry ladder and the statistics -- is the
// shared snapshot core (core/snapshot_core.hpp), so everything the paper
// says about time bases applies here unchanged: stamps come from the
// runtime-pluggable tb::TimeBase facade, and version admission shrinks by
// the pairwise stamp uncertainty (2 * TimeBase::deviation()). A read that
// finds a too-new version extends the snapshot to the present, which is
// precisely what plain TL2 lacks -- TL2 aborts where LSA extends.
//
// What the orec engine adds on top of the core:
//  * metadata is the table entry, shared by every 16-byte granule that
//    hashes to it -- two independent addresses may collide ("false
//    conflict"; lock-time aliasing is counted in TxStats::false_conflicts,
//    rate math in DESIGN.md). The table is per-OrecStm, so independent
//    engines never alias each other; the epoch stripes are cut from the
//    same hash;
//  * the read set is an append-only log of (orec, word) pairs, one per
//    read, as in TL2 and the TVar engine: no deduplication probe on the
//    read path;
//  * own-stamp admission: a version stamped with a stamp THIS context
//    drew itself (stamps are globally unique, so it is this thread's own
//    earlier commit) is admitted with no deviation shrink at all -- see
//    detail::RecentStamps. Without it, a thread re-reading what its
//    previous transaction wrote under a batched base burns draws
//    until the counter outruns its own stamps;
//  * single-version: no history ring to fall back on, so a reader that
//    cannot extend aborts where the TVar engine might serve an old version;
//  * the core's commit runs unchanged; its hook here only merges partial
//    granules at write-back. Locks are the core's in-place bit sets
//    (word | 1) that preserve the version, so commit-time read validation
//    tells "locked by me" from "locked by an enemy holding the same
//    version" through the core's lock-key lookup, never through the word
//    alone.
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
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>

#include <chronostm/core/epoch_stripes.hpp>
#include <chronostm/core/snapshot_core.hpp>
#include <chronostm/stm/config.hpp>
#include <chronostm/timebase/facade.hpp>
#include <chronostm/util/failpoints.hpp>

namespace chronostm {

// The shared knobs (read_extension, lock_spin, max_retries,
// irrevocable_threshold, filter_stripes, commit_publish_hook) live in
// stm::CommonConfig; the old spellings are the inherited members.
struct OrecConfig : stm::CommonConfig {
    // log2 of the orec-table size; 2^16 entries * 8 bytes = 512 KiB.
    // Smaller tables raise the false-conflict rate (see DESIGN.md for the
    // math); the dedicated orec test shrinks this to force collisions.
    unsigned table_bits = 16;
};

namespace detail {

// One buffered write: an 8-byte granule image plus the byte mask that
// says which lanes the transaction actually wrote. POD by design so the
// write set is a FlatVec of records by value (sortable in place).
struct OrecWriteRec {
    void* gran;                        // 8-aligned granule base
    std::atomic<std::uint64_t>* lock;  // orec guarding the granule
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

// Stamps this context drew from the time base itself (commit stamps and
// livelock-defense draws), most recent first on lookup. Time-base stamps
// are globally unique, so a version carrying one of these is this
// thread's OWN earlier commit: it was published before the current
// transaction began, hence certainly current when the snapshot anchor
// was taken -- admissible with NO deviation shrink, whatever the
// numeric gap to `upper`. This is what keeps an imprecise base (batched)
// off the extend/abort path when a transaction re-reads what
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

// Write records are held by value: they are fixed-size PODs, so no arena
// or type erasure is needed.
using OrecAccessSets = SnapshotSets<OrecWriteRec>;

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

class OrecTransaction
    : public detail::SnapshotTx<OrecTransaction, OrecConfig,
                                detail::OrecAccessSets> {
    using Core = detail::SnapshotTx<OrecTransaction, OrecConfig,
                                    detail::OrecAccessSets>;

 public:
    OrecTransaction(OrecTransaction&&) = default;

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
    friend Core;
    friend class OrecThreadContext;
    template <typename, typename, typename, typename>
    friend class detail::SnapshotContext;

    // Defined after OrecStm, whose orec table it caches.
    explicit OrecTransaction(OrecThreadContext& ctx);

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
        const std::uint32_t wi = find_write_pos(gran);
        if (__builtin_expect(wi == detail::PtrIndex::kNone, 1))
            return load_validated(gran);
        return load_buffered(gran, wi);
    }

    // Read-after-write of granule `gran`, buffered at write-set index wi;
    // outlined so the plain read stays free of the merge code.
    __attribute__((noinline)) std::uint64_t load_buffered(
        const void* gran, std::uint32_t wi) {
        const detail::OrecWriteRec& rec = sets_->writes[wi];
        if (rec.mask == 0xFFu) return rec.value;
        const std::uint64_t mem = load_validated(gran);
        return detail::orec_merge(mem, rec.value, rec.mask);
    }

    // Seqlock-consistent validated load of one granule, admitting its orec
    // to the snapshot. The fresh, unlocked, stable case is inline;
    // load_slow takes every other one.
    std::uint64_t load_validated(const void* gran);
    std::uint64_t load_slow(const void* gran,
                            std::atomic<std::uint64_t>* o);

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

    // --- snapshot core hooks (core/snapshot_core.hpp) -------------------

    // No version history: nothing caps an extension, and every snapshot
    // is in the present.
    static constexpr std::uint64_t extension_cap() {
        return ~std::uint64_t{0};
    }
    static constexpr bool reads_in_present() { return true; }
    // Recorded as an own stamp whether or not the commit that drew it
    // succeeds: uniqueness means no foreign version can ever carry it, so
    // recording a stamp of a failed commit is inert.
    void note_own_stamp(std::uint64_t ts) { recent_->push(ts); }
    static void* write_key(const detail::OrecWriteRec& rec) {
        return rec.gran;
    }

    // No version history: nothing to choose at the decision point.
    static void decide() {}

    // Write-back of one granule. A partial record merges with memory: this
    // thread holds the granule's orec, so nobody else may write any byte of
    // it until the publish.
    static void apply(detail::OrecWriteRec& rec, std::uint64_t) {
        auto* gp = static_cast<std::uint64_t*>(rec.gran);
        const std::uint64_t v =
            rec.mask == 0xFFu
                ? rec.value
                : detail::orec_merge(__atomic_load_n(gp, __ATOMIC_RELAXED),
                                     rec.value, rec.mask);
        __atomic_store_n(gp, v, __ATOMIC_RELAXED);
    }

    bool commit() {
        return Core::commit(
            [] { (void)CHRONOSTM_FAILPOINT(orec_commit_post_lock); },
            [] { (void)CHRONOSTM_FAILPOINT(orec_commit_pre_stamp); },
            [] { (void)CHRONOSTM_FAILPOINT(orec_commit_pre_writeback); },
            [] { (void)CHRONOSTM_FAILPOINT(orec_commit_pre_unlock); });
    }

    detail::RecentStamps* recent_;
    // The table pointer and mask are immutable for the STM's lifetime;
    // caching them here turns every orec lookup into index math off two
    // transaction-local words instead of a dependent chase through the
    // engine.
    std::atomic<std::uint64_t>* tbl_ = nullptr;
    std::size_t tmask_ = 0;
};

// Per-thread handle (run(), txn_commit(), stats() come from the snapshot
// core) plus this context's own-stamp ring.
class OrecThreadContext
    : public detail::SnapshotContext<OrecThreadContext, OrecTransaction,
                                     OrecConfig, detail::OrecAccessSets> {
    using Core = detail::SnapshotContext<OrecThreadContext, OrecTransaction,
                                         OrecConfig, detail::OrecAccessSets>;

 public:
    static constexpr const char* kEngineName = "orec";

    OrecTransaction txn_begin() { return OrecTransaction(*this); }

 private:
    friend Core;
    friend class OrecTransaction;
    friend class OrecStm;

    explicit OrecThreadContext(OrecStm& stm);

    // A stamp drawn by a freshness abort is this thread's own, too.
    void note_own_stamp(std::uint64_t ts) { recent_.push(ts); }

    OrecStm* stm_;
    detail::RecentStamps recent_;
};

class OrecStm : public detail::SnapshotEngine<OrecConfig> {
 public:
    static constexpr unsigned kOrecShift = 4;  // 16-byte orec granules

    explicit OrecStm(tb::TimeBase tbase, OrecConfig cfg = OrecConfig{})
        : SnapshotEngine(std::move(tbase), cfg, table_stripes(cfg)) {
        cfg_.table_bits = clamp_table_bits(cfg_.table_bits);
        const std::size_t n = std::size_t{1} << cfg_.table_bits;
        mask_ = n - 1;
        // Value-initialized: every orec starts unlocked at version 0.
        table_ = std::make_unique<std::atomic<std::uint64_t>[]>(n);
    }

    // The shift+mask metadata lookup the engine exists for. Consecutive
    // 16-byte data granules map to consecutive table entries, so the four
    // orecs guarding one 64-byte data line share one table line (array
    // scans stay local); distinct data lines land on distinct table lines.
    std::atomic<std::uint64_t>* orec_of(const void* p) {
        return &table_[(reinterpret_cast<std::uintptr_t>(p) >> kOrecShift) &
                       mask_];
    }

    OrecThreadContext make_context() { return OrecThreadContext(*this); }

    std::size_t table_size() const { return mask_ + 1; }

 private:
    friend class OrecTransaction;

    static unsigned clamp_table_bits(unsigned bits) {
        return std::min(std::max(bits, 2u), 26u);
    }

    // Epoch stripes use the SAME shift+mask granule hash family as the
    // orec table, with the stripe index being the TOP bits of the orec
    // index: shift = kOrecShift + table_bits - log2(stripes), so one
    // stripe covers a contiguous orec-table range and granules aliasing to
    // one orec always share a stripe. Stripe count is capped at the table
    // size so the shift never drops below kOrecShift.
    static detail::EpochStripes table_stripes(const OrecConfig& cfg) {
        const unsigned bits = clamp_table_bits(cfg.table_bits);
        const unsigned cap =
            bits < 6 ? (1u << bits) : detail::EpochStripes::kMaxStripes;
        unsigned count = 1;
        while (count < cfg.filter_stripes && count < cap) count <<= 1;
        unsigned lg = 0;
        while ((1u << lg) < count) ++lg;
        return detail::EpochStripes(count, kOrecShift + bits - lg);
    }

    std::size_t mask_ = 0;
    std::unique_ptr<std::atomic<std::uint64_t>[]> table_;
};

inline OrecThreadContext::OrecThreadContext(OrecStm& stm)
    : Core(stm), stm_(&stm) {}

inline OrecTransaction::OrecTransaction(OrecThreadContext& ctx)
    : Core(ctx),
      recent_(&ctx.recent_),
      tbl_(ctx.stm_->table_.get()),
      tmask_(ctx.stm_->mask_) {}

inline std::atomic<std::uint64_t>* OrecTransaction::orec_of(
    const void* p) const {
    return &tbl_[(reinterpret_cast<std::uintptr_t>(p) >>
                  OrecStm::kOrecShift) &
                 tmask_];
}

__attribute__((always_inline)) inline std::uint64_t
OrecTransaction::load_validated(const void* gran) {
    // Chaos harness: an armed orec_read site may delay here or demand an
    // injected abort; the token holder never honors the abort half.
    if (CHRONOSTM_FAILPOINT(orec_read) && !irrevocable_)
        throw detail::AbortTx{};
    auto* o = orec_of(gran);
    // Stripe snapshot BEFORE the admitting orec-word load (DESIGN.md
    // "Striped epoch soundness"); idempotent, so every read of an armed
    // attempt calls it.
    if (stripes_on_) touch_stripe(gran);
    const std::uint64_t w1 = o->load(std::memory_order_acquire);
    // Validity of the current version starts at its stamp, shrunk by the
    // pairwise stamp uncertainty dev_ -- identical to the TVar engine.
    const std::uint64_t lo = (w1 >> 1) + dev_;
    if (__builtin_expect(!(w1 & 1u) && lo <= upper_, 1)) {
        const std::uint64_t v = __atomic_load_n(
            static_cast<const std::uint64_t*>(gran), __ATOMIC_ACQUIRE);
        // Seqlock recheck; pairs with the release fence before the data
        // stores in commit().
        std::atomic_thread_fence(std::memory_order_acquire);
        if (__builtin_expect(o->load(std::memory_order_acquire) == w1, 1)) {
            lower_ = std::max(lower_, lo);
            sets_->reads.push_back({o, w1});
            return v;
        }
    }
    return load_slow(gran, o);
}

// Everything but a fresh, unlocked, stable read: the irrevocable attempt,
// lock waits, own-stamp admission, torn reads and extension.
// load_validated has already touched the stripe (armed attempts only).
__attribute__((noinline)) inline std::uint64_t OrecTransaction::load_slow(
    const void* gran, std::atomic<std::uint64_t>* o) {
    if (irrevocable_) {
        admit_irrevocable(*o);
        return __atomic_load_n(static_cast<const std::uint64_t*>(gran),
                               __ATOMIC_ACQUIRE);
    }
    for (;;) {
        std::uint64_t w1 = o->load(std::memory_order_acquire);
        if (__builtin_expect(w1 & 1u, 0)) w1 = wait_unlocked(o);
        const std::uint64_t wv = w1 >> 1;
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
            std::atomic_thread_fence(std::memory_order_acquire);
            if (o->load(std::memory_order_acquire) != w1) continue;
            // Own-stamp admissions contribute no lower-bound constraint:
            // the version's real validity began before this snapshot.
            if (fresh) lower_ = std::max(lower_, wv + dev_);
            sets_->reads.push_back({o, w1});
            return v;
        }
        // Too new for the snapshot: extend to the present (revalidating
        // the read set) and retry. No multi-version fallback here -- the
        // orec table keeps no history -- so failure to extend aborts. The
        // extension's failure reason decides the class: a failed read-set
        // walk is a data CONFLICT (backoff resolves it; the retry must
        // not drain batched stamp blocks), while time-not-
        // advanced is FRESHNESS -- run() may draw-and-discard a stamp so
        // batched counters advance.
        extend_or_abort();
    }
}

inline void OrecTransaction::store_granule(void* gran,
                                           const unsigned char* src,
                                           std::size_t off, std::size_t n) {
    const std::uint32_t m =
        n == 8 ? 0xFFu : ((1u << n) - 1u) << off;
    const std::uint32_t wi = find_write_pos(gran);
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
    rec.lock = orec_of(gran);
    std::memcpy(reinterpret_cast<unsigned char*>(&rec.value) + off, src, n);
    rec.mask = m;
    append_write(rec);
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
