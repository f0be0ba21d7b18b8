// Chaos harness (CHRONOSTM_FAILPOINTS builds): the bank and copier
// oracles from the tier-1 suite re-run under deterministic fault
// injection -- stalled committers parked on held locks, injected read
// aborts (abort storms), and preemption-style delays at every commit
// failpoint -- across both engines and the shared and batched time
// bases (B=8 and the wider B=16). Two properties are asserted:
//
//   * serializability: conservation and snapshot-monotonicity oracles
//     hold no matter what the failpoints inject;
//   * progress: with the degradation ladder enabled every worker finishes
//     every operation with ZERO RetryExhausted throws (stall detection
//     aborts off the dead lock, backoff spreads the storm, and the
//     irrevocability token bounds the worst case), while the same
//     100%-injection storm with irrevocable_threshold=0 demonstrably
//     throws.
//
// The failpoint RNG seed defaults to a fixed value and can be overridden
// with CHRONOSTM_CHAOS_SEED (CI runs one fixed and one random seed); it is
// echoed up front so any failure is replayable.

#include <cstdio>

#ifndef CHRONOSTM_FAILPOINTS

int main() {
    std::printf("test_stm_chaos: SKIPPED (built without "
                "CHRONOSTM_FAILPOINTS)\n");
    return 0;
}

#else  // CHRONOSTM_FAILPOINTS

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <chronostm/stm/adapter.hpp>
#include <chronostm/util/rng.hpp>

#include "test_util.hpp"

using namespace chronostm;

namespace {

// Mixed-fault mix used by the oracle cells: occasional long stalls at
// every commit site (a committer parked on held locks), short preemption
// delays, and a few percent of injected read aborts.
void arm_chaos_sites() {
    fp::reset();
    fp::SiteConfig commit_site;
    commit_site.stall_ppm = 4000;  // 0.4% of commits park for a while
    commit_site.stall_us = 300;
    commit_site.delay_ppm = 20000;  // 2% take a short preemption delay
    commit_site.delay_spins = 512;
    for (fp::Site s : {fp::k_lsa_commit_post_lock, fp::k_lsa_commit_pre_stamp,
                       fp::k_lsa_commit_pre_writeback,
                       fp::k_lsa_commit_pre_unlock, fp::k_orec_commit_post_lock,
                       fp::k_orec_commit_pre_stamp,
                       fp::k_orec_commit_pre_writeback,
                       fp::k_orec_commit_pre_unlock})
        fp::configure(s, commit_site);

    fp::SiteConfig read_site;
    read_site.abort_ppm = 20000;  // 2% injected aborts: a rolling storm
    read_site.delay_ppm = 10000;
    read_site.delay_spins = 256;
    fp::configure(fp::k_lsa_read, read_site);
    fp::configure(fp::k_orec_read, read_site);
}

// Ladder-enabled config for the oracle cells: the retry bound is tight
// enough that an unhandled storm WOULD throw, the threshold well under it
// so escalation always wins first.
template <typename Cfg>
Cfg chaos_cfg(Cfg cfg) {
    cfg.max_retries = 512;
    cfg.irrevocable_threshold = 16;
    return cfg;
}

// Bank oracle under chaos: fixed-size transfer load plus a running
// auditor; completion of every operation with zero RetryExhausted throws
// IS the progress assertion, conservation the serializability one.
template <typename A, typename Cfg>
void chaos_bank_cell(const std::string& label, const std::string& spec,
                     Cfg cfg) {
    constexpr unsigned kThreads = 3;
    constexpr int kAccounts = 8;
    constexpr long kInitial = 100;
    constexpr int kOps = 400;

    A adapter(tb::make(spec), chaos_cfg(cfg));
    std::vector<std::unique_ptr<typename A::template Var<long>>> acct;
    for (int i = 0; i < kAccounts; ++i)
        acct.push_back(
            std::make_unique<typename A::template Var<long>>(kInitial));

    std::atomic<int> retry_exhausted{0};
    std::atomic<int> torn_audits{0};
    std::atomic<unsigned> done{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            auto ctx = adapter.make_context();
            Rng rng(t * 7919 + 13);
            for (int i = 0; i < kOps; ++i) {
                const auto a = rng.below(kAccounts);
                auto b = rng.below(kAccounts);
                if (a == b) b = (b + 1) % kAccounts;
                const long amount = static_cast<long>(rng.below(5)) + 1;
                try {
                    adapter.run(ctx, [&](typename A::Txn& tx) {
                        tx.write(*acct[a], tx.read(*acct[a]) - amount);
                        tx.write(*acct[b], tx.read(*acct[b]) + amount);
                    });
                } catch (const RetryExhausted&) {
                    retry_exhausted.fetch_add(1, std::memory_order_relaxed);
                }
            }
            done.fetch_add(1, std::memory_order_acq_rel);
        });
    }
    threads.emplace_back([&] {  // auditor: whole-bank read transactions
        auto ctx = adapter.make_context();
        while (done.load(std::memory_order_acquire) < kThreads) {
            try {
                long total = 0;
                adapter.run(ctx, [&](typename A::Txn& tx) {
                    total = 0;
                    for (auto& a : acct) total += tx.read(*a);
                });
                if (total != kInitial * kAccounts)
                    torn_audits.fetch_add(1, std::memory_order_relaxed);
            } catch (const RetryExhausted&) {
                retry_exhausted.fetch_add(1, std::memory_order_relaxed);
            }
        }
    });
    for (auto& th : threads) th.join();

    CHECK_MSG(retry_exhausted.load() == 0,
              "%s: %d RetryExhausted throws with the ladder enabled",
              label.c_str(), retry_exhausted.load());
    CHECK_MSG(torn_audits.load() == 0, "%s: %d torn audits", label.c_str(),
              torn_audits.load());
    long total = 0;
    for (const auto& a : acct) total += a->unsafe_peek();
    CHECK_MSG(total == kInitial * kAccounts, "%s: total %ld", label.c_str(),
              total);
    const auto st = adapter.collected_stats();
    CHECK(st.commits() >= kThreads * kOps);  // every transfer landed
}

// Copier oracle under chaos (see test_stm_epoch.cpp for the oracle's
// soundness argument): whenever the copy changes between consecutive
// checker snapshots, the new copy must not precede the previously
// observed x. LSA runs single-version so the oracle stays decisive.
template <typename A, typename Cfg>
void chaos_copier_cell(const std::string& label, const std::string& spec,
                       Cfg cfg) {
    constexpr int kOps = 600;
    A adapter(tb::make(spec), chaos_cfg(cfg));
    alignas(64) typename A::template Var<long> x(0);
    alignas(64) typename A::template Var<long> y(0);

    std::atomic<int> retry_exhausted{0};
    std::atomic<int> inversions{0};
    std::atomic<unsigned> done{0};
    std::vector<std::thread> threads;
    threads.emplace_back([&] {  // incrementer of x
        auto ctx = adapter.make_context();
        for (int i = 0; i < kOps; ++i) {
            try {
                adapter.run(ctx, [&](typename A::Txn& tx) {
                    tx.write(x, tx.read(x) + 1);
                });
            } catch (const RetryExhausted&) {
                retry_exhausted.fetch_add(1, std::memory_order_relaxed);
            }
        }
        done.fetch_add(1, std::memory_order_acq_rel);
    });
    threads.emplace_back([&] {  // copier: reads x, writes y
        auto ctx = adapter.make_context();
        for (int i = 0; i < kOps; ++i) {
            try {
                adapter.run(ctx, [&](typename A::Txn& tx) {
                    tx.write(y, tx.read(x));
                });
            } catch (const RetryExhausted&) {
                retry_exhausted.fetch_add(1, std::memory_order_relaxed);
            }
        }
        done.fetch_add(1, std::memory_order_acq_rel);
    });
    threads.emplace_back([&] {  // checker
        auto ctx = adapter.make_context();
        bool have_prev = false;
        long prev_a = 0, prev_b = 0;
        while (done.load(std::memory_order_acquire) < 2) {
            long a = 0, b = 0;
            try {
                adapter.run(ctx, [&](typename A::Txn& tx) {
                    a = tx.read(x);
                    b = tx.read(y);
                });
            } catch (const RetryExhausted&) {
                retry_exhausted.fetch_add(1, std::memory_order_relaxed);
                continue;
            }
            if (have_prev && b != prev_b && b < prev_a)
                inversions.fetch_add(1, std::memory_order_relaxed);
            have_prev = true;
            prev_a = a;
            prev_b = b;
        }
    });
    for (auto& th : threads) th.join();

    CHECK_MSG(retry_exhausted.load() == 0,
              "%s: %d RetryExhausted throws with the ladder enabled",
              label.c_str(), retry_exhausted.load());
    CHECK_MSG(inversions.load() == 0, "%s: %d stale-commit inversions",
              label.c_str(), inversions.load());
    CHECK(x.unsafe_peek() == kOps);
    CHECK(y.unsafe_peek() <= x.unsafe_peek());
}

// Total abort storm: EVERY optimistic read is an injected abort, so the
// only way any transaction ever commits is the ladder -- four injected
// aborts, escalate, commit irrevocably (the token holder ignores the
// injection). Two threads keep the token contended.
template <typename A, typename Cfg>
void chaos_abort_storm_cell(Cfg cfg) {
    fp::reset();
    fp::SiteConfig always_abort;
    always_abort.abort_ppm = 1'000'000;
    fp::configure(fp::k_lsa_read, always_abort);
    fp::configure(fp::k_orec_read, always_abort);

    constexpr unsigned kThreads = 2;
    constexpr int kOps = 40;
    cfg.max_retries = 64;
    cfg.irrevocable_threshold = 4;
    A adapter(tb::make("shared"), cfg);
    typename A::template Var<long> v(0);

    std::atomic<int> retry_exhausted{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            auto ctx = adapter.make_context();
            for (int i = 0; i < kOps; ++i) {
                try {
                    adapter.run(ctx, [&](typename A::Txn& tx) {
                        tx.write(v, tx.read(v) + 1);
                    });
                } catch (const RetryExhausted&) {
                    retry_exhausted.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    }
    for (auto& th : threads) th.join();

    CHECK(retry_exhausted.load() == 0);
    CHECK(v.unsafe_peek() == kThreads * kOps);
    const auto st = adapter.collected_stats();
    // Nothing can commit optimistically under 100% read-abort injection:
    // every commit went through the token, one escalation each.
    CHECK(st.commits() == kThreads * kOps);
    CHECK(st.irrevocable_commits == st.commits());
    CHECK(st.escalations == st.commits());
    CHECK(st.injected_faults > 0);
    fp::reset();
}

// The same storm with the ladder DISABLED must exhaust its retry bound
// and surface as RetryExhausted -- proving the ladder, not luck, is what
// makes the storm cells above complete.
template <typename A, typename Cfg>
void chaos_throws_without_ladder(const char* engine, Cfg cfg) {
    fp::reset();
    fp::SiteConfig always_abort;
    always_abort.abort_ppm = 1'000'000;
    fp::configure(fp::k_lsa_read, always_abort);
    fp::configure(fp::k_orec_read, always_abort);

    cfg.max_retries = 8;
    cfg.irrevocable_threshold = 0;  // ladder off
    A adapter(tb::make("shared"), cfg);
    typename A::template Var<long> v(0);
    auto ctx = adapter.make_context();

    bool threw = false;
    try {
        adapter.run(ctx,
                    [&](typename A::Txn& tx) { tx.write(v, tx.read(v) + 1); });
    } catch (const RetryExhausted& e) {
        threw = true;
        CHECK(e.conflict_aborts == 8);  // injected aborts are conflict-class
        CHECK(e.freshness_aborts == 0);
        CHECK(e.stats.aborts() >= 8);
    }
    CHECK_MSG(threw, "%s: 100%% injection with the ladder off did not throw",
              engine);
    CHECK(v.unsafe_peek() == 0);
    fp::reset();
}

}  // namespace

int main() {
    std::uint64_t seed = 0xC0FFEEull;
    if (const char* env = std::getenv("CHRONOSTM_CHAOS_SEED"))
        seed = std::strtoull(env, nullptr, 0);
    fp::set_seed(seed);
    std::printf("test_stm_chaos: seed 0x%llx (override with "
                "CHRONOSTM_CHAOS_SEED)\n",
                static_cast<unsigned long long>(seed));

    for (const char* spec : {"shared", "batched:B=8", "batched:B=16"}) {
        arm_chaos_sites();
        chaos_bank_cell<stm::LsaAdapter>(std::string("lsa/") + spec, spec,
                                         StmConfig{});
        chaos_bank_cell<stm::OrecAdapter>(std::string("orec/") + spec, spec,
                                          OrecConfig{});
        arm_chaos_sites();
        StmConfig lsa;
        lsa.max_versions = 1;  // keep the copier oracle decisive
        chaos_copier_cell<stm::LsaAdapter>(std::string("lsa/") + spec, spec,
                                            lsa);
        chaos_copier_cell<stm::OrecAdapter>(std::string("orec/") + spec, spec,
                                            OrecConfig{});
    }
    fp::reset();

    chaos_abort_storm_cell<stm::LsaAdapter>(StmConfig{});
    chaos_abort_storm_cell<stm::OrecAdapter>(OrecConfig{});
    chaos_throws_without_ladder<stm::LsaAdapter>("lsa", StmConfig{});
    chaos_throws_without_ladder<stm::OrecAdapter>("orec", OrecConfig{});

    CHECK(fp::total_faults() > 0);  // the harness actually injected faults
    std::printf("test_stm_chaos: PASS\n");
    return 0;
}

#endif  // CHRONOSTM_FAILPOINTS
