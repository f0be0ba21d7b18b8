#pragma once
// Quiescence-based (epoch) reclamation for transactionally freed nodes.
//
// The transactional allocator (stm/alloc.hpp) cannot hand a committed
// tx_free straight to operator delete: a doomed-but-still-running reader
// may sit on a pointer to the node (it read the pointer before the
// unlinking transaction committed and has not yet validated), and the LSA
// engine's multi-version history rings can serve *old* pointer values to
// any transaction whose snapshot predates the unlink. Both hazards are
// bounded by transaction lifetime, which makes epochs the right shape:
//
//   - Every thread that may touch transactional nodes registers a
//     Participant and pins it for the full duration of each run() call
//     (every attempt, including doomed ones, happens inside the pin).
//   - A committed tx_free retires the node into the freeing participant's
//     limbo list stamped with the current global epoch.
//   - The global epoch only advances when every pinned participant has
//     caught up to it, and a limbo entry is freed only once the minimum
//     pinned epoch has moved PAST its stamp. Together: everyone who could
//     have seen the node unlinked-but-unreclaimed has finished.
//
// Why this also covers the history rings ("Reclamation vs. multi-version
// histories" in DESIGN.md): a transaction that begins after the unlinking
// commit has snapshot lower >= that commit's stamp, and read_old_version
// skips any history entry whose validity range ends before lower -- so the
// stale pointer version is unreachable to it. Only transactions concurrent
// with the unlink can reach the node through a history entry, and those
// are pinned in an epoch <= the retire stamp, which blocks reclamation
// until they exit. The ring itself stores pointer *values*, never owns the
// pointee, so no separate pinning pass over rings is needed.
//
// Concurrency contract: pin/unpin/retire/collect on one Participant are
// called by its owning thread only; registration, epoch advance and
// stats() take a mutex but sit off the per-transaction fast path (pin and
// unpin are two atomic ops). Per op, a participant writes only its own
// cache line: retire/free counts are per-participant single-writer
// counters, and the global epoch and reclamation horizon live on lines of
// their own that only an advance stores to. The domain must outlive every
// participant it issued.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace chronostm {
namespace eb {

// Deleters take a caller-supplied context so containers can run slot
// destructors over node layouts only they understand; the context must
// stay valid until the owning domain is destroyed.
using Deleter = void (*)(void*, void*) noexcept;

struct Retired {
    void* ptr;
    Deleter del;
    void* ctx;
    std::uint64_t epoch;
};

struct DomainStats {
    std::uint64_t retired = 0;
    std::uint64_t freed = 0;
    std::uint64_t advances = 0;
    std::uint64_t limbo = 0;  // retired - freed at sample time
};

class EpochDomain;

// Cache-line aligned: local_ (written by every pin/unpin, scanned by every
// advance) starts its own line, and the rest of the object is written by
// the owning thread only, so two participants never share a line.
class alignas(64) Participant {
 public:
    // Enter a read-side critical section. The loop pairs the local-epoch
    // store with a recheck of the global epoch so a collector scanning the
    // participant table either sees our pin or we observe its advance --
    // never neither. One iteration in the common case.
    void pin() noexcept {
        std::uint64_t e = global_->load(std::memory_order_acquire);
        for (;;) {
            local_.store(e, std::memory_order_seq_cst);
            const std::uint64_t now = global_->load(std::memory_order_seq_cst);
            if (now == e) break;
            e = now;
        }
    }

    bool pinned() const noexcept {
        return local_.load(std::memory_order_relaxed) != kQuiescent;
    }

    // unpin() and retire()/collect() are declared below EpochDomain (they
    // poke the domain for amortized advance/collection).
    inline void unpin() noexcept;
    inline void retire(void* p, Deleter d, void* ctx) noexcept;
    // Free every limbo entry whose epoch the domain has proven safe.
    inline void collect() noexcept;
    std::size_t limbo_size() const noexcept { return limbo_.size(); }

 private:
    friend class EpochDomain;
    static constexpr std::uint64_t kQuiescent = 0;

    explicit Participant(EpochDomain* d, const std::atomic<std::uint64_t>* g)
        : domain_(d), global_(g) {}

    // Single-writer counter bump (owner thread only): a load and a store,
    // no RMW. Release pairs with stats()' acquire load of freed_ so a
    // sampled freed count never exceeds the retired count read after it.
    static void add(std::atomic<std::uint64_t>& c, std::uint64_t n) noexcept {
        c.store(c.load(std::memory_order_relaxed) + n,
                std::memory_order_release);
    }

    std::atomic<std::uint64_t> local_{kQuiescent};
    // Lifetime retire/free counts, summed by EpochDomain::stats() and
    // folded into the domain when the participant dies.
    std::atomic<std::uint64_t> retired_{0};
    std::atomic<std::uint64_t> freed_{0};
    EpochDomain* domain_;
    const std::atomic<std::uint64_t>* global_;
    std::vector<Retired> limbo_;   // owner-thread only
    unsigned ops_since_collect_ = 0;
};

class EpochDomain {
 public:
    EpochDomain() = default;
    EpochDomain(const EpochDomain&) = delete;
    EpochDomain& operator=(const EpochDomain&) = delete;

    ~EpochDomain() {
        // No participant may be pinned at domain teardown; everything
        // still in limbo (including orphans from dead participants) is
        // unreachable and freed unconditionally.
        std::lock_guard<std::mutex> lk(mu_);
        for (auto& r : orphans_) r.del(r.ptr, r.ctx);
        freed_ += orphans_.size();
        orphans_.clear();
    }

    // Threads register once and keep the handle for their lifetime. The
    // custom deleter unregisters the participant and drains any
    // un-reclaimed limbo into the domain's orphan list, so a thread
    // exiting with deferred frees pending leaks nothing. The table holds
    // raw pointers: nothing under mu_ ever owns (or drops) a handle, so
    // the deleter -- which takes mu_ -- can run on any thread at any time.
    std::shared_ptr<Participant> register_participant() {
        std::shared_ptr<Participant> p(
            new Participant(this, &global_),
            [this](Participant* q) {
                this->unregister(q);
                delete q;
            });
        std::lock_guard<std::mutex> lk(mu_);
        parts_.push_back(p.get());
        return p;
    }

    std::uint64_t epoch() const noexcept {
        return global_.load(std::memory_order_acquire);
    }

    // Advance the global epoch if every pinned participant has caught up,
    // then recompute the reclamation horizon: entries stamped strictly
    // below min(pinned locals) -- or below the global epoch when nobody is
    // pinned -- are safe to free.
    std::uint64_t try_advance() noexcept {
        std::lock_guard<std::mutex> lk(mu_);
        return advance_locked();
    }

    // Latest horizon computed by try_advance(); entries with
    // epoch < safe_epoch may be freed by their owning participant.
    std::uint64_t safe_epoch() const noexcept {
        return safe_.load(std::memory_order_acquire);
    }

    // Retire/free totals: live participants' own counters plus everything
    // folded in from dead ones and the orphan list.
    DomainStats stats() const {
        std::lock_guard<std::mutex> lk(mu_);
        DomainStats s;
        s.retired = retired_;
        s.freed = freed_;
        for (const Participant* p : parts_) {
            s.freed += p->freed_.load(std::memory_order_acquire);
            s.retired += p->retired_.load(std::memory_order_relaxed);
        }
        s.advances = advances_;
        s.limbo = s.retired - s.freed;
        return s;
    }

 private:
    friend class Participant;

    std::uint64_t advance_locked() noexcept {
        const std::uint64_t g = global_.load(std::memory_order_acquire);
        std::uint64_t min_pinned = ~std::uint64_t{0};
        bool all_current = true;
        for (const Participant* p : parts_) {
            const std::uint64_t l = p->local_.load(std::memory_order_seq_cst);
            if (l != Participant::kQuiescent) {
                if (l < min_pinned) min_pinned = l;
                if (l != g) all_current = false;
            }
        }
        if (all_current) {
            global_.store(g + 1, std::memory_order_release);
            ++advances_;
        }
        // Horizon: nobody pinned -> everything stamped before the (old)
        // global epoch is unreachable; otherwise the oldest pin bounds it.
        const std::uint64_t horizon =
            (min_pinned == ~std::uint64_t{0}) ? g : min_pinned;
        safe_.store(horizon, std::memory_order_release);
        // Opportunistically drain orphans that fell below the horizon.
        std::size_t w = 0;
        for (std::size_t r = 0; r < orphans_.size(); ++r) {
            if (orphans_[r].epoch < horizon) {
                orphans_[r].del(orphans_[r].ptr, orphans_[r].ctx);
                ++freed_;
            } else {
                orphans_[w++] = orphans_[r];
            }
        }
        orphans_.resize(w);
        return horizon;
    }

    // Participant deleter: leave the scan table, fold the counters, and
    // adopt the remaining limbo.
    void unregister(Participant* p) {
        std::lock_guard<std::mutex> lk(mu_);
        for (auto it = parts_.begin(); it != parts_.end(); ++it) {
            if (*it == p) {
                parts_.erase(it);
                break;
            }
        }
        retired_ += p->retired_.load(std::memory_order_relaxed);
        freed_ += p->freed_.load(std::memory_order_relaxed);
        orphans_.insert(orphans_.end(), p->limbo_.begin(), p->limbo_.end());
        p->limbo_.clear();
    }

    // Epoch 0 is reserved as the quiescent marker, so the clock starts at 1.
    // Loaded twice by every pin(), stored only by an advance: its own line.
    alignas(64) std::atomic<std::uint64_t> global_{1};
    // Loaded by every collect(), stored only by an advance: its own line.
    alignas(64) std::atomic<std::uint64_t> safe_{0};
    // Everything below is guarded by mu_. retired_/freed_ hold what dead
    // participants counted plus the orphan frees; live participants keep
    // their own counts.
    alignas(64) mutable std::mutex mu_;
    std::vector<Participant*> parts_;
    std::vector<Retired> orphans_;
    std::uint64_t retired_ = 0;
    std::uint64_t freed_ = 0;
    std::uint64_t advances_ = 0;
};

inline void Participant::unpin() noexcept {
    local_.store(kQuiescent, std::memory_order_release);
    // Amortized housekeeping: every few unpins, or whenever limbo has
    // piled up, push the epoch forward and sweep.
    if (!limbo_.empty() &&
        (++ops_since_collect_ >= 16 || limbo_.size() >= 128)) {
        ops_since_collect_ = 0;
        domain_->try_advance();
        collect();
    }
}

inline void Participant::retire(void* p, Deleter d, void* ctx) noexcept {
    limbo_.push_back(
        Retired{p, d, ctx, global_->load(std::memory_order_acquire)});
    add(retired_, 1);
}

inline void Participant::collect() noexcept {
    if (limbo_.empty()) return;
    const std::uint64_t horizon = domain_->safe_epoch();
    std::size_t w = 0;
    for (std::size_t r = 0; r < limbo_.size(); ++r) {
        if (limbo_[r].epoch < horizon) {
            limbo_[r].del(limbo_[r].ptr, limbo_[r].ctx);
        } else {
            limbo_[w++] = limbo_[r];
        }
    }
    if (limbo_.size() != w) add(freed_, limbo_.size() - w);
    limbo_.resize(w);
}

// RAII pin covering one transactional run() window (all attempts).
class PinGuard {
 public:
    explicit PinGuard(Participant& p) noexcept : p_(&p) { p_->pin(); }
    ~PinGuard() {
        if (p_ != nullptr) p_->unpin();
    }
    PinGuard(PinGuard&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }
    PinGuard(const PinGuard&) = delete;
    PinGuard& operator=(const PinGuard&) = delete;
    PinGuard& operator=(PinGuard&&) = delete;

 private:
    Participant* p_;
};

}  // namespace eb
}  // namespace chronostm
