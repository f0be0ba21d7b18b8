// Tier-1 STM semantics, run over both engines (the per-TVar LSA engine and
// the orec-table engine share one retry ladder in core/snapshot_core.hpp):
//  * abort-and-retry on a write-write conflict, deterministically staged.
//    Transaction 1 reads the variable, then parks while transaction 2
//    commits a conflicting update; transaction 1's commit must fail
//    validation, and the automatic retry must observe the new value and
//    commit;
//  * the retry bound: exhaustion throws RetryExhausted naming the engine,
//    with the conflict/freshness split of the failed transaction;
//  * threshold escalation rescues a hopeless transaction;
//  * after a contended two-context run, the contexts' stats() sum to the
//    engine's collected_stats() on every TxStats field.

#include <array>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>

#include <chronostm/core/lsa_stm.hpp>
#include <chronostm/core/orec_stm.hpp>

#include "test_util.hpp"

using namespace chronostm;

namespace {

struct Lsa {
    using Stm = LsaStm;
    using Cfg = StmConfig;
    using Tx = Transaction;
    using Var = TVar<long>;
    static constexpr const char* kName = "lsa";
};

struct Orec {
    using Stm = OrecStm;
    using Cfg = OrecConfig;
    using Tx = OrecTransaction;
    using Var = WordVar<long>;
    static constexpr const char* kName = "orec";
};

void spin_until(const std::atomic<bool>& flag) {
    while (!flag.load(std::memory_order_acquire)) std::this_thread::yield();
}

// Every TxStats field, in declaration order.
std::array<std::uint64_t, 16> fields(const TxStats& s) {
    return {s.commits(),           s.aborts(),
            s.helped_commits,      s.false_conflicts,
            s.extensions,          s.extension_fast_hits,
            s.validation_fast_hits, s.stripe_fast_hits,
            s.stripe_walks,        s.ro_commits,
            s.backoff_us,          s.irrevocable_commits,
            s.escalations,         s.stall_waits,
            s.stalled_aborts,      s.injected_faults};
}

template <typename E>
void staged_conflict() {
    using Tx = typename E::Tx;
    typename E::Stm stm(tb::make("shared"));
    typename E::Var v(0);

    std::atomic<bool> t1_read_done{false};
    std::atomic<bool> t2_committed{false};
    int attempts = 0;
    long seen_first = -1, seen_second = -1;

    std::thread t2([&] {
        auto ctx = stm.make_context();
        spin_until(t1_read_done);
        ctx.run([&](Tx& tx) { v.set(tx, v.get(tx) + 1); });
        t2_committed.store(true, std::memory_order_release);
    });

    auto ctx = stm.make_context();
    ctx.run([&](Tx& tx) {
        ++attempts;
        const long cur = v.get(tx);
        if (attempts == 1) {
            seen_first = cur;
            t1_read_done.store(true, std::memory_order_release);
            spin_until(t2_committed);
        } else {
            seen_second = cur;
        }
        v.set(tx, cur + 1);
    });
    t2.join();

    CHECK_MSG(attempts == 2, "%s attempts %d", E::kName, attempts);
    CHECK(seen_first == 0);
    CHECK(seen_second == 1);  // the retry saw transaction 2's update
    CHECK(v.unsafe_peek() == 2);
    CHECK(ctx.stats().aborts() == 1);
    CHECK(ctx.stats().commits() == 1);
    CHECK(stm.collected_stats().commits() == 2);
}

// The bounded-retry knob: a transaction that can never commit within the
// bound surfaces as chronostm::RetryExhausted instead of spinning forever.
// The exception carries a TxStats snapshot plus the abort taxonomy
// (conflict vs freshness) of the exhausted transaction.
template <typename E>
void retry_exhausted() {
    using Tx = typename E::Tx;
    typename E::Cfg cfg;
    cfg.max_retries = 3;
    cfg.irrevocable_threshold = 0;  // ladder off: exhaustion must throw
    typename E::Stm stm(tb::make("shared"), cfg);
    typename E::Var w(0);
    auto c = stm.make_context();
    bool threw = false;
    try {
        c.run([&](Tx& tx) {
            (void)w.get(tx);
            tx.abort();  // user-directed abort on every attempt
        });
    } catch (const RetryExhausted& e) {
        threw = true;
        // tx.abort() is a conflict-class abort; no freshness misses.
        CHECK(e.conflict_aborts == 3);
        CHECK(e.freshness_aborts == 0);
        CHECK(e.stats.aborts() == 3);
        CHECK(e.stats.commits() == 0);
        const std::string what = e.what();
        CHECK_MSG(what.find(std::string("chronostm: ") + E::kName +
                            " transaction exceeded retry bound") !=
                      std::string::npos,
                  "%s", what.c_str());
    }
    CHECK(threw);
    CHECK(c.stats().aborts() == 3);
}

// With the degradation ladder enabled below the retry bound, the same
// hopeless-conflict shape cannot throw: crossing the threshold escalates
// to irrevocable serial mode, where user aborts are the only way out -- so
// here we instead check a CONFLICT-abort storm commits. (The functor stops
// calling tx.abort() once escalated; engine-side conflicts can no longer
// abort the token holder.)
template <typename E>
void threshold_escalation() {
    using Tx = typename E::Tx;
    typename E::Cfg cfg;
    cfg.max_retries = 8;
    cfg.irrevocable_threshold = 2;
    typename E::Stm stm(tb::make("shared"), cfg);
    typename E::Var w(0);
    auto c = stm.make_context();
    int tries = 0;
    c.run([&](Tx& tx) {
        ++tries;
        const long cur = w.get(tx);
        w.set(tx, cur + 1);
        if (!tx.irrevocable()) tx.abort();  // hopeless until escalation
    });
    CHECK_MSG(tries == 3, "%s tries %d", E::kName, tries);
    CHECK(w.unsafe_peek() == 1);
    CHECK(c.stats().escalations == 1);
    CHECK(c.stats().irrevocable_commits == 1);
    CHECK(c.stats().commits() == 1);
}

// Two contexts hammer one counter (plus a read-only audit every few ops,
// and a low escalation threshold so the ladder counters move too); the
// per-context stats must add up to the engine aggregate field by field.
template <typename E>
void stats_sum_to_aggregate() {
    using Tx = typename E::Tx;
    typename E::Cfg cfg;
    cfg.irrevocable_threshold = 4;
    typename E::Stm stm(tb::make("shared"), cfg);
    typename E::Var hot(0), other(0);
    auto c1 = stm.make_context();
    auto c2 = stm.make_context();
    constexpr int kOps = 3000;
    const auto work = [&](auto& ctx) {
        for (int i = 0; i < kOps; ++i) {
            if (i % 4 == 3) {
                (void)ctx.run([&](Tx& tx) {
                    return hot.get(tx) + other.get(tx);
                });
            } else {
                ctx.run([&](Tx& tx) {
                    hot.set(tx, hot.get(tx) + 1);
                    other.set(tx, other.get(tx) + 1);
                });
            }
        }
    };
    std::thread t([&] { work(c2); });
    work(c1);
    t.join();

    CHECK(hot.unsafe_peek() == 2 * (kOps - kOps / 4));
    const auto a = fields(c1.stats());
    const auto b = fields(c2.stats());
    const auto all = fields(stm.collected_stats());
    for (std::size_t i = 0; i < all.size(); ++i)
        CHECK_MSG(a[i] + b[i] == all[i], "%s field %zu: %llu + %llu != %llu",
                  E::kName, i, static_cast<unsigned long long>(a[i]),
                  static_cast<unsigned long long>(b[i]),
                  static_cast<unsigned long long>(all[i]));
    CHECK(all[0] == 2 * kOps);           // commits
    CHECK(all[9] == 2 * (kOps / 4));     // ro_commits
}

template <typename E>
void run_engine() {
    staged_conflict<E>();
    retry_exhausted<E>();
    threshold_escalation<E>();
    stats_sum_to_aggregate<E>();
}

}  // namespace

int main() {
    // RetryExhausted stays catchable as std::runtime_error for callers
    // that predate the typed exception.
    static_assert(std::is_base_of<std::runtime_error, RetryExhausted>::value,
                  "RetryExhausted must remain a runtime_error");
    run_engine<Lsa>();
    run_engine<Orec>();
    std::printf("test_stm_conflict_retry: PASS\n");
    return 0;
}
