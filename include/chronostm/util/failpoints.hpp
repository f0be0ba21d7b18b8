#pragma once
// Deterministic failpoint injection for chaos testing.
//
// Compiled in only when CHRONOSTM_FAILPOINTS is defined; otherwise the
// CHRONOSTM_FAILPOINT macro expands to the constant `false` and the whole
// subsystem vanishes (the release-bench gate proves the OFF build pays
// <= 1.05x on commit rows).
//
// Each named site carries an action mix expressed in parts-per-million:
//   abort_ppm  -- caller should treat the hit as an injected abort
//   delay_ppm  -- short spin delay (delay_spins pause iterations)
//   stall_ppm  -- long sleep (stall_us microseconds), used to fake a
//                 preempted committer parked on held locks
// Draws come from a per-thread SplitMix64 stream derived from the global
// seed and a thread ordinal, so a chaos run is replayable from its seed.
// Sites can also be armed "one-shot": the first thread through the site
// consumes the budget and applies the configured action with certainty,
// which is how tests manufacture a provably stalled victim.

#ifdef CHRONOSTM_FAILPOINTS

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

namespace chronostm {
namespace fp {

enum Site : unsigned {
    k_lsa_commit_post_lock = 0,  // write locks held, stamp not yet drawn
    k_lsa_commit_pre_stamp,      // between epoch bump and commit-stamp draw
    k_lsa_commit_pre_writeback,  // commit decided, data not yet applied
    k_lsa_commit_pre_unlock,     // data applied, version locks not yet released
    k_lsa_read,                  // inside TVar read (abort / delay)
    k_orec_commit_post_lock,
    k_orec_commit_pre_stamp,
    k_orec_commit_pre_writeback,
    k_orec_commit_pre_unlock,
    k_orec_read,
    k_num_sites
};

struct SiteConfig {
    std::uint32_t abort_ppm = 0;
    std::uint32_t delay_ppm = 0;
    std::uint32_t delay_spins = 256;
    std::uint32_t stall_ppm = 0;
    std::uint32_t stall_us = 0;
};

struct Registry {
    SiteConfig sites[k_num_sites];
    std::atomic<std::int32_t> one_shot[k_num_sites];
    std::atomic<std::uint64_t> seed{0x9e3779b97f4a7c15ull};
    std::atomic<std::uint64_t> epoch{0};      // bumped on reseed/reset
    std::atomic<std::uint64_t> next_tid{0};   // thread ordinals for RNG streams
    std::atomic<std::uint64_t> total_faults{0};
};

inline Registry& registry() {
    static Registry r;
    return r;
}

namespace detail {

// Checked by the CHRONOSTM_FAILPOINT macro BEFORE calling hit(): a
// constant-initialized namespace-scope atomic, so the unarmed fast path
// is one relaxed load of a hot shared read-only line plus a predicted
// branch -- no meyers-singleton guard, no per-site config loads. The
// release-bench gate holds the unarmed instrumented build to <= 1.05x of
// the plain build on the single-var commit rows, which cross five sites.
inline std::atomic<std::uint32_t> g_armed{0};

}  // namespace detail

// Recompute the global armed flag from the full site table; called after
// every configuration change so disarming one site keeps others live.
inline void recompute_armed() {
    Registry& r = registry();
    std::uint32_t armed = 0;
    for (unsigned i = 0; i < k_num_sites; ++i) {
        const SiteConfig& c = r.sites[i];
        if ((c.abort_ppm | c.delay_ppm | c.stall_ppm) != 0 ||
            r.one_shot[i].load(std::memory_order_relaxed) > 0)
            armed = 1;
    }
    detail::g_armed.store(armed, std::memory_order_release);
}

// Configure before spawning worker threads (publication happens-before via
// thread creation); only the one-shot budgets and counters are touched
// concurrently.
inline void configure(Site s, const SiteConfig& cfg) {
    registry().sites[s] = cfg;
    recompute_armed();
}

inline void arm_one_shot(Site s, const SiteConfig& cfg, std::int32_t budget = 1) {
    Registry& r = registry();
    r.sites[s] = cfg;
    r.one_shot[s].store(budget, std::memory_order_release);
    recompute_armed();
}

inline void set_seed(std::uint64_t seed) {
    Registry& r = registry();
    r.seed.store(seed, std::memory_order_relaxed);
    r.epoch.fetch_add(1, std::memory_order_relaxed);
}

inline void reset() {
    Registry& r = registry();
    for (unsigned i = 0; i < k_num_sites; ++i) {
        r.sites[i] = SiteConfig{};
        r.one_shot[i].store(0, std::memory_order_relaxed);
    }
    r.epoch.fetch_add(1, std::memory_order_relaxed);
    detail::g_armed.store(0, std::memory_order_release);
}

inline std::uint64_t total_faults() {
    return registry().total_faults.load(std::memory_order_relaxed);
}

namespace detail {

inline std::uint64_t splitmix64(std::uint64_t& x) {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

struct ThreadStream {
    std::uint64_t state = 0;
    std::uint64_t epoch = ~0ull;
    std::uint64_t ordinal = ~0ull;
};

inline ThreadStream& stream() {
    thread_local ThreadStream ts;
    Registry& r = registry();
    const std::uint64_t e = r.epoch.load(std::memory_order_relaxed);
    if (ts.epoch != e) {
        if (ts.ordinal == ~0ull)
            ts.ordinal = r.next_tid.fetch_add(1, std::memory_order_relaxed);
        ts.state = r.seed.load(std::memory_order_relaxed) ^ (ts.ordinal * 0xd1342543de82ef95ull);
        ts.epoch = e;
    }
    return ts;
}

// Per-transaction fault counter; engines bind the active context's stats
// slot at txn begin so injected faults surface in TxStats / --json.
inline std::atomic<std::uint64_t>*& sink() {
    thread_local std::atomic<std::uint64_t>* s = nullptr;
    return s;
}

inline void spin(std::uint32_t n) {
    for (std::uint32_t i = 0; i < n; ++i) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#else
        std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
    }
}

inline void record_fault() {
    registry().total_faults.fetch_add(1, std::memory_order_relaxed);
    if (auto* s = sink()) s->fetch_add(1, std::memory_order_relaxed);
}

}  // namespace detail

inline void bind_sink(std::atomic<std::uint64_t>* counter) { detail::sink() = counter; }

// Returns true when the caller should inject an abort at this site.
// Delays and stalls are executed inline. Deliberately out of line and
// cold: the macro's g_armed pre-check keeps it off the unarmed path, and
// keeping its body out of the engines' hot loops keeps the instrumented
// build's code layout close to the plain build's.
#if defined(__GNUC__)
__attribute__((noinline, cold))
#endif
inline bool hit(Site s) {
    Registry& r = registry();
    const SiteConfig& cfg = r.sites[s];
    if (cfg.abort_ppm == 0 && cfg.delay_ppm == 0 && cfg.stall_ppm == 0 &&
        r.one_shot[s].load(std::memory_order_relaxed) <= 0)
        return false;

    // One-shot budget: consume it and fire the configured action for sure.
    std::int32_t budget = r.one_shot[s].load(std::memory_order_acquire);
    while (budget > 0) {
        if (r.one_shot[s].compare_exchange_weak(budget, budget - 1,
                                                std::memory_order_acq_rel)) {
            detail::record_fault();
            if (cfg.stall_us > 0)
                std::this_thread::sleep_for(std::chrono::microseconds(cfg.stall_us));
            else if (cfg.delay_ppm > 0 || cfg.delay_spins > 0)
                detail::spin(cfg.delay_spins);
            return cfg.abort_ppm > 0;
        }
    }

    detail::ThreadStream& ts = detail::stream();
    const std::uint64_t draw = detail::splitmix64(ts.state) % 1'000'000u;
    if (draw < cfg.abort_ppm) {
        detail::record_fault();
        return true;
    }
    if (draw < cfg.abort_ppm + cfg.stall_ppm) {
        detail::record_fault();
        std::this_thread::sleep_for(std::chrono::microseconds(cfg.stall_us));
        return false;
    }
    if (draw < cfg.abort_ppm + cfg.stall_ppm + cfg.delay_ppm) {
        detail::record_fault();
        detail::spin(cfg.delay_spins);
        return false;
    }
    return false;
}

}  // namespace fp
}  // namespace chronostm

#define CHRONOSTM_FAILPOINT(site)                                          \
    (__builtin_expect(::chronostm::fp::detail::g_armed.load(               \
                          std::memory_order_relaxed) != 0,                 \
                      0) &&                                                \
     ::chronostm::fp::hit(::chronostm::fp::k_##site))
#define CHRONOSTM_FP_SINK(counter) (::chronostm::fp::bind_sink(counter))

#else  // !CHRONOSTM_FAILPOINTS

#define CHRONOSTM_FAILPOINT(site) (false)
#define CHRONOSTM_FP_SINK(counter) ((void)0)

#endif  // CHRONOSTM_FAILPOINTS
