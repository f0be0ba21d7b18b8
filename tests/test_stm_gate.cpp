// Tier-1: the irrevocability gate (detail::IrrevGate) both engines commit
// through. An update commit raises its context's in-commit flag and then
// checks the token; escalation sets the token and then waits for every
// flag to drop (DESIGN.md "Irrevocability via quiescence"). The checks pin
// both halves of that handshake, on the gate alone and through each
// engine:
//
//   * drain: a committer parked mid-commit keeps acquire() from returning
//     until it finishes, so the escalated transaction finds its write-back
//     complete;
//   * door: a committer arriving while the token is held waits outside and
//     commits only after release;
//   * churn: 8 contexts transfer over one bank while some transfers
//     escalate mid-flight; the total is conserved and audits never see a
//     torn sum;
//   * layout: the per-context blocks the op path writes are padded to
//     whole cache lines.
//
// CHRONOSTM_FAILPOINTS builds add the parked-committer check for the orec
// engine (and LSA again) through the *_commit_pre_writeback stall sites.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <chronostm/stm/adapter.hpp>
#include <chronostm/util/epochs.hpp>
#ifdef CHRONOSTM_FAILPOINTS
#include <chronostm/util/failpoints.hpp>
#endif

#include "test_util.hpp"

using namespace chronostm;

namespace {

// ---- layout -------------------------------------------------------------

template <typename T>
constexpr bool padded() {
    return alignof(T) >= 64 && sizeof(T) % 64 == 0;
}
static_assert(padded<detail::StatsBlock>(),
              "StatsBlock must fill whole cache lines");
static_assert(padded<detail::CommitFlag>(),
              "CommitFlag must fill whole cache lines");
static_assert(padded<eb::Participant>(),
              "Participant must fill whole cache lines");
static_assert(padded<eb::EpochDomain>(),
              "EpochDomain's epoch words must sit on lines of their own");

// ---- helpers ------------------------------------------------------------

void spin_until(const std::atomic<bool>& flag) {
    while (!flag.load(std::memory_order_acquire)) std::this_thread::yield();
}

// Wait (bounded) until `cond` holds; a hang fails the test instead.
template <typename Cond>
bool wait_for(Cond cond, int ms = 10000) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(ms);
    while (!cond()) {
        if (std::chrono::steady_clock::now() > deadline) return false;
        std::this_thread::yield();
    }
    return true;
}

void settle() { std::this_thread::sleep_for(std::chrono::milliseconds(50)); }

// ---- the gate on its own ------------------------------------------------

void check_gate_handshake() {
    detail::IrrevGate gate;
    detail::CommitFlag* a = gate.enroll();

    // Drain: a flag that is up holds acquire() until it drops.
    gate.enter_commit(*a);
    std::atomic<bool> acquired{false};
    std::thread esc([&] {
        gate.acquire();
        acquired.store(true, std::memory_order_release);
    });
    CHECK(wait_for([&] { return gate.active(); }));
    settle();
    CHECK(!acquired.load());
    detail::IrrevGate::exit_commit(*a);
    esc.join();
    CHECK(acquired.load());
    CHECK(gate.active());

    // Door: a context enrolled while the token is held, and one enrolled
    // before, both wait outside until release.
    detail::CommitFlag* b = gate.enroll();
    std::atomic<int> entered{0};
    std::vector<std::thread> cs;
    for (detail::CommitFlag* f : {a, b}) {
        cs.emplace_back([&, f] {
            gate.enter_commit(*f);
            entered.fetch_add(1);
            detail::IrrevGate::exit_commit(*f);
        });
    }
    settle();
    CHECK(entered.load() == 0);
    gate.release();
    for (auto& t : cs) t.join();
    CHECK(entered.load() == 2);
    CHECK(!gate.active());
}

// ---- drain through the LSA engine (commit_publish_hook) -----------------

// Thread A's commit parks after its decision point and before its
// write-back. Thread B escalates: become_irrevocable() must not return
// while A is parked, and once it does, A's write is in memory.
void check_lsa_parked_committer() {
    using A = stm::LsaAdapter;
    std::atomic<bool> armed{true}, parked{false}, release{false};
    StmConfig cfg;
    cfg.commit_publish_hook = [&] {
        if (armed.exchange(false)) {
            parked.store(true, std::memory_order_release);
            spin_until(release);
        }
    };
    A ad(tb::make("shared"), cfg);
    A::Var<long> x(0);

    std::thread a([&] {
        auto ctx = ad.make_context();
        ad.run(ctx, [&](A::Txn& tx) { tx.write(x, 1L); });
    });
    spin_until(parked);

    std::atomic<bool> escalated{false};
    long seen = -1;
    std::thread b([&] {
        auto ctx = ad.make_context();
        ad.run(ctx, [&](A::Txn& tx) {
            tx.become_irrevocable();
            escalated.store(true, std::memory_order_release);
            seen = x.unsafe_peek();
            tx.write(x, tx.read(x) + 10);
        });
    });
    CHECK(wait_for([&] { return ad.stm().irrevocable_active(); }));
    settle();
    CHECK(!escalated.load());  // A's flag is still up
    release.store(true, std::memory_order_release);
    a.join();
    b.join();
    CHECK_MSG(seen == 1, "escalated before A's write-back (saw %ld)", seen);
    CHECK(x.unsafe_peek() == 11);
    CHECK(!ad.stm().irrevocable_active());
}

// ---- door through either engine -----------------------------------------

// H escalates and then holds the token inside its functor; C starts an
// update transaction meanwhile. C may run its body, but its commit waits
// at the gate until H commits and releases.
template <typename A>
void check_door(const char* name) {
    A ad(tb::make("shared"));
    typename A::template Var<long> x(0), y(0);
    std::atomic<bool> holding{false}, release{false}, c_done{false};

    std::thread h([&] {
        auto ctx = ad.make_context();
        ad.run(ctx, [&](typename A::Txn& tx) {
            tx.become_irrevocable();
            holding.store(true, std::memory_order_release);
            spin_until(release);
            tx.write(y, tx.read(y) + 1);
        });
    });
    spin_until(holding);
    std::thread c([&] {
        auto ctx = ad.make_context();
        ad.run(ctx, [&](typename A::Txn& tx) {
            tx.write(x, tx.read(x) + 1);
        });
        c_done.store(true, std::memory_order_release);
    });
    settle();
    CHECK_MSG(!c_done.load() && x.unsafe_peek() == 0,
              "engine %s: committer passed a held gate", name);
    CHECK(ad.stm().irrevocable_active());
    release.store(true, std::memory_order_release);
    h.join();
    c.join();
    CHECK(c_done.load());
    CHECK_MSG(x.unsafe_peek() == 1 && y.unsafe_peek() == 1,
              "engine %s: x=%ld y=%ld", name, x.unsafe_peek(),
              y.unsafe_peek());
    CHECK(!ad.stm().irrevocable_active());
    const TxStats st = ad.collected_stats();
    CHECK(st.escalations == 1 && st.irrevocable_commits == 1);
}

// ---- 8-context bank churn with escalations ------------------------------

template <typename A>
void check_bank_churn(const char* name) {
    using Var = typename A::template Var<long>;
    constexpr unsigned kThreads = 8;
    constexpr unsigned kOps = 1500;
    constexpr unsigned kAccounts = 32;
    constexpr long kInitial = 100;
    A ad(tb::make("shared"));
    std::vector<std::unique_ptr<Var>> acct;
    for (unsigned i = 0; i < kAccounts; ++i)
        acct.push_back(std::make_unique<Var>(kInitial));

    std::atomic<unsigned> bad_audits{0};
    std::atomic<std::uint64_t> explicit_escalations{0};
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < kThreads; ++t) {
        ts.emplace_back([&, t] {
            auto ctx = ad.make_context();
            std::uint64_t r = 0x9e3779b97f4a7c15ull * (t + 1);
            std::uint64_t mine = 0;
            for (unsigned i = 0; i < kOps; ++i) {
                r ^= r << 13;
                r ^= r >> 7;
                r ^= r << 17;
                if (t == 0 && i % 16 == 0) {
                    long sum = 0;
                    ad.run(ctx, [&](typename A::Txn& tx) {
                        sum = 0;
                        for (auto& a : acct) sum += tx.read(*a);
                    });
                    if (sum != kInitial * long{kAccounts})
                        bad_audits.fetch_add(1);
                    continue;
                }
                const unsigned from = r % kAccounts;
                const unsigned to = (r >> 8) % kAccounts;
                const long amount = static_cast<long>((r >> 16) % 7);
                const bool escalate = (r >> 24) % 32 == 0;
                ad.run(ctx, [&](typename A::Txn& tx) {
                    const long f = tx.read(*acct[from]);
                    if (escalate && !tx.irrevocable())
                        tx.become_irrevocable();
                    tx.write(*acct[from], f - amount);
                    tx.write(*acct[to], tx.read(*acct[to]) + amount);
                });
                if (escalate) ++mine;
            }
            explicit_escalations.fetch_add(mine);
        });
    }
    for (auto& th : ts) th.join();

    long total = 0;
    for (auto& a : acct) total += a->unsafe_peek();
    CHECK_MSG(total == kInitial * long{kAccounts},
              "engine %s: bank total %ld, expected %ld", name, total,
              kInitial * long{kAccounts});
    CHECK_MSG(bad_audits.load() == 0, "engine %s: %u torn audits", name,
              bad_audits.load());
    const TxStats st = ad.collected_stats();
    CHECK_MSG(st.escalations >= explicit_escalations.load(),
              "engine %s: %llu escalations < %llu requested", name,
              static_cast<unsigned long long>(st.escalations),
              static_cast<unsigned long long>(explicit_escalations.load()));
    CHECK(!ad.stm().irrevocable_active());
}

// ---- drain through the failpoint stall sites (both engines) -------------

#ifdef CHRONOSTM_FAILPOINTS
// A's commit sleeps at the pre-write-back site (locks held, flag up). The
// escalation that starts while A sleeps must find A's write in memory.
template <typename A>
void check_failpoint_parked_committer(fp::Site site, const char* name) {
    A ad(tb::make("shared"));
    typename A::template Var<long> x(0);
    fp::reset();
    const std::uint64_t before = fp::total_faults();
    fp::SiteConfig cfg;
    cfg.stall_us = 200'000;
    fp::arm_one_shot(site, cfg, 1);

    std::thread a([&] {
        auto ctx = ad.make_context();
        ad.run(ctx, [&](typename A::Txn& tx) { tx.write(x, 1L); });
    });
    // The fault counter bumps before the stall sleep: A is parked.
    CHECK(wait_for([&] { return fp::total_faults() != before; }));

    long seen = -1;
    std::thread b([&] {
        auto ctx = ad.make_context();
        ad.run(ctx, [&](typename A::Txn& tx) {
            tx.become_irrevocable();
            seen = x.unsafe_peek();
            tx.write(x, tx.read(x) + 10);
        });
    });
    a.join();
    b.join();
    fp::reset();
    CHECK_MSG(seen == 1, "engine %s: escalated past a parked committer "
              "(saw %ld)", name, seen);
    CHECK(x.unsafe_peek() == 11);
}
#endif

}  // namespace

int main() {
    check_gate_handshake();
    check_lsa_parked_committer();
    check_door<stm::LsaAdapter>("lsa");
    check_door<stm::OrecAdapter>("orec");
    check_bank_churn<stm::LsaAdapter>("lsa");
    check_bank_churn<stm::OrecAdapter>("orec");
#ifdef CHRONOSTM_FAILPOINTS
    check_failpoint_parked_committer<stm::LsaAdapter>(
        fp::k_lsa_commit_pre_writeback, "lsa");
    check_failpoint_parked_committer<stm::OrecAdapter>(
        fp::k_orec_commit_pre_writeback, "orec");
#endif
    std::printf("test_stm_gate: all checks passed\n");
    return 0;
}
