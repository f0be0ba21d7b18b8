// Tier-1: every contention manager preserves atomicity and makes
// progress on a hot-spot transfer workload, kill-based managers included
// (aggressive/timestamp abort the enemy cooperatively through its commit
// descriptor). Also checks the policy parser rejects typos at
// construction instead of misbehaving at runtime, and (with failpoints)
// that the timestamp manager's seniority survives a retry.

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include <chronostm/core/lsa_stm.hpp>
#include <chronostm/util/rng.hpp>

#include "test_util.hpp"

using namespace chronostm;

namespace {

using Tx = Transaction;

constexpr unsigned kThreads = 4;
constexpr int kAccounts = 8;  // tiny on purpose: every txn conflicts
constexpr long kInitial = 100;
constexpr int kTransfersPerThread = 800;

void check_policy(const char* policy) {
    StmConfig cfg;
    cfg.contention_manager = policy;
    LsaStm stm(tb::make("shared"), cfg);
    std::vector<std::unique_ptr<TVar<long>>> acct;
    for (int i = 0; i < kAccounts; ++i)
        acct.push_back(std::make_unique<TVar<long>>(kInitial));

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&stm, &acct, t] {
            auto ctx = stm.make_context();
            Rng rng(t * 7919 + 13);
            for (int i = 0; i < kTransfersPerThread; ++i) {
                const auto a = rng.below(kAccounts);
                auto b = rng.below(kAccounts);
                if (a == b) b = (b + 1) % kAccounts;
                const long amount = static_cast<long>(rng.below(5)) + 1;
                ctx.run([&](Tx& tx) {
                    acct[a]->set(tx, acct[a]->get(tx) - amount);
                    acct[b]->set(tx, acct[b]->get(tx) + amount);
                });
            }
        });
    }
    for (auto& th : threads) th.join();

    long total = 0;
    for (const auto& a : acct) total += a->unsafe_peek();
    CHECK_MSG(total == kInitial * kAccounts, "policy %s: total %ld", policy,
              total);
    const auto stats = stm.collected_stats();
    CHECK_MSG(stats.commits() ==
                  static_cast<std::uint64_t>(kThreads) * kTransfersPerThread,
              "policy %s: commits %llu", policy,
              static_cast<unsigned long long>(stats.commits()));
}

#ifdef CHRONOSTM_FAILPOINTS
void spin_until(const std::atomic<bool>& flag) {
    while (!flag.load(std::memory_order_acquire)) std::this_thread::yield();
}

// Kill-based managers against a PROVABLY stalled victim: a one-shot
// failpoint parks the victim inside commit with write locks held (status
// kTxLocking), exactly what a preempted committer looks like. The policy
// under test must land its cooperative kill on the parked descriptor --
// the victim wakes, finds kTxKilled, rolls back and retries -- while the
// attacker records the stall (stall_waits) and everything still conserves.
void check_stalled_kill(const char* policy) {
    StmConfig cfg;
    cfg.contention_manager = policy;
    LsaStm stm(tb::make("shared"), cfg);
    // Two contended accounts plus one the stamp bump below writes.
    std::vector<std::unique_ptr<TVar<long>>> acct;
    for (int i = 0; i < 3; ++i)
        acct.push_back(std::make_unique<TVar<long>>(kInitial));

    std::atomic<bool> attacker_started{false};
    std::atomic<bool> victim_parked{false};

    // Attacker first, so the timestamp policy sees the victim as YOUNGER
    // (kill the younger enemy); aggressive kills unconditionally.
    std::thread attacker([&] {
        auto ctx = stm.make_context();
        ctx.run([&](Tx& tx) {
            if (!attacker_started.exchange(true)) spin_until(victim_parked);
            // First touch of the victim's locked account happens with the
            // older start stamp.
            acct[0]->set(tx, acct[0]->get(tx) - 1);
            acct[1]->set(tx, acct[1]->get(tx) + 1);
        });
    });
    spin_until(attacker_started);

    // On the shared counter, time only advances when someone commits: one
    // dummy update here separates the start stamps, so the victim (which
    // begins next) is strictly YOUNGER than the waiting attacker and the
    // timestamp policy has a tie-free kill decision.
    {
        auto ctx = stm.make_context();
        ctx.run([&](Tx& tx) { acct[2]->set(tx, acct[2]->get(tx)); });
    }

    const std::uint64_t faults_before = fp::total_faults();
    fp::SiteConfig stall;
    stall.stall_us = 20000;  // ~20ms: far beyond every spin budget
    fp::arm_one_shot(fp::k_lsa_commit_post_lock, stall, 1);

    std::thread victim([&] {
        auto ctx = stm.make_context();
        ctx.run([&](Tx& tx) {
            acct[0]->set(tx, acct[0]->get(tx) - 5);
            acct[1]->set(tx, acct[1]->get(tx) + 5);
        });
        CHECK_MSG(ctx.stats().aborts() >= 1, "policy %s: stalled victim "
                  "was never killed (aborts %llu)", policy,
                  static_cast<unsigned long long>(ctx.stats().aborts()));
    });

    // The victim is provably parked once the one-shot fired: locks held,
    // descriptor frozen in kTxLocking, thread asleep in the failpoint.
    while (fp::total_faults() == faults_before) std::this_thread::yield();
    victim_parked.store(true, std::memory_order_release);

    victim.join();
    attacker.join();
    fp::reset();

    long total = 0;
    for (const auto& a : acct) total += a->unsafe_peek();
    CHECK_MSG(total == kInitial * 3, "policy %s: total %ld", policy, total);
    const auto stats = stm.collected_stats();
    CHECK(stats.commits() == 3);  // victim + attacker + the stamp bump
    CHECK_MSG(stats.stall_waits >= 1, "policy %s: attacker never flagged "
              "the stall", policy);
    CHECK(stats.injected_faults >= 1);
}

// Seniority survives an abort: the timestamp manager ranks a retry by the
// begin stamp of its run() call's first attempt, not by the retry's own.
// T_old begins, a dummy commit moves the shared counter on, and a one-shot
// injected abort at T_old's first read sends it into a retry. A younger
// T_young, begun after the bump, then parks inside commit holding the
// locks the retry needs. The retry must kill it; ranked by its fresh begin
// stamp it would tie with T_young and never land a kill.
void check_seniority_survives_retry() {
    StmConfig cfg;
    cfg.contention_manager = "timestamp";
    LsaStm stm(tb::make("shared"), cfg);
    std::vector<std::unique_ptr<TVar<long>>> acct;
    for (int i = 0; i < 3; ++i)
        acct.push_back(std::make_unique<TVar<long>>(kInitial));

    std::atomic<bool> old_began{false};
    std::atomic<bool> bumped{false};
    std::atomic<bool> old_retrying{false};
    std::atomic<bool> young_parked{false};

    std::thread t_old([&] {
        auto ctx = stm.make_context();
        int attempt = 0;
        ctx.run([&](Tx& tx) {
            if (++attempt == 1) {
                old_began.store(true, std::memory_order_release);
                spin_until(bumped);
                fp::SiteConfig abort_once;
                abort_once.abort_ppm = 1'000'000;
                fp::arm_one_shot(fp::k_lsa_read, abort_once, 1);
            } else if (attempt == 2) {
                // The site keeps its abort_ppm after the one-shot fired:
                // disarm it before any other thread reads.
                fp::configure(fp::k_lsa_read, fp::SiteConfig{});
                old_retrying.store(true, std::memory_order_release);
                spin_until(young_parked);
            }
            acct[0]->set(tx, acct[0]->get(tx) - 1);
            acct[1]->set(tx, acct[1]->get(tx) + 1);
        });
    });
    spin_until(old_began);
    {
        auto ctx = stm.make_context();
        ctx.run([&](Tx& tx) { acct[2]->set(tx, acct[2]->get(tx)); });
    }
    bumped.store(true, std::memory_order_release);
    spin_until(old_retrying);

    const std::uint64_t faults_before = fp::total_faults();
    fp::SiteConfig stall;
    stall.stall_us = 20000;  // ~20ms: far beyond every spin budget
    fp::arm_one_shot(fp::k_lsa_commit_post_lock, stall, 1);
    std::thread t_young([&] {
        auto ctx = stm.make_context();
        ctx.run([&](Tx& tx) {
            acct[0]->set(tx, acct[0]->get(tx) - 5);
            acct[1]->set(tx, acct[1]->get(tx) + 5);
        });
        CHECK_MSG(ctx.stats().aborts() >= 1, "the retried older "
                  "transaction never killed the younger lock holder "
                  "(aborts %llu)",
                  static_cast<unsigned long long>(ctx.stats().aborts()));
    });
    while (fp::total_faults() == faults_before) std::this_thread::yield();
    young_parked.store(true, std::memory_order_release);

    t_young.join();
    t_old.join();
    fp::reset();

    long total = 0;
    for (const auto& a : acct) total += a->unsafe_peek();
    CHECK_MSG(total == kInitial * 3, "seniority: total %ld", total);
    CHECK(stm.collected_stats().commits() == 3);
}
#endif  // CHRONOSTM_FAILPOINTS

}  // namespace

int main() {
    for (const char* policy :
         {"suicide", "polite", "backoff", "aggressive", "timestamp"})
        check_policy(policy);

#ifdef CHRONOSTM_FAILPOINTS
    for (const char* policy : {"aggressive", "timestamp"})
        check_stalled_kill(policy);
    check_seniority_survives_retry();
#endif

    bool threw = false;
    try {
        StmConfig cfg;
        cfg.contention_manager = "no-such-policy";
        LsaStm stm(tb::make("shared"), cfg);
    } catch (const std::invalid_argument&) {
        threw = true;
    }
    CHECK(threw);

    // The registry fails just as loudly on unknown base names and keys.
    threw = false;
    try {
        tb::make("no-such-base");
    } catch (const std::invalid_argument&) {
        threw = true;
    }
    CHECK(threw);
    threw = false;
    try {
        tb::make("batched:Q=7");
    } catch (const std::invalid_argument&) {
        threw = true;
    }
    CHECK(threw);

    std::printf("test_stm_contention_policies: PASS\n");
    return 0;
}
