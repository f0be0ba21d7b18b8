// Tier-1: the hot-path data structures behind the pooled transaction sets
// -- write-set lookup across the inline-scan -> hash-index threshold
// (detail::kInlineScan), write-after-write overwrite semantics, the
// append-only read log, commit-time validation through the sorted write
// set, and set reuse across transactions (the structures are recycled, so
// a stale entry leaking across attempts would show up here). Plus the
// batched-counter time base: block-local stamp arithmetic and snapshot
// correctness under concurrent commits with deliberately tiny blocks.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include <chronostm/core/lsa_stm.hpp>
#include <chronostm/timebase/batched_counter.hpp>
#include <chronostm/timebase/shared_counter.hpp>
#include <chronostm/util/rng.hpp>

#include "test_util.hpp"

using namespace chronostm;

namespace {

using Tx = Transaction;

// Comfortably past detail::kInlineScan (8) so every lookup below runs on
// the hash index, not the inline scan.
constexpr int kManyVars = 40;

void check_write_set_past_threshold() {
    LsaStm stm(tb::make("shared"));
    std::vector<std::unique_ptr<TVar<long>>> vars;
    for (int i = 0; i < kManyVars; ++i)
        vars.push_back(std::make_unique<TVar<long>>(0));

    auto ctx = stm.make_context();
    ctx.run([&](Tx& tx) {
        // First pass writes i, crossing the inline->hash threshold mid-way.
        for (int i = 0; i < kManyVars; ++i)
            vars[i]->set(tx, static_cast<long>(i));
        // Read-after-write must come from the write set on both sides of
        // the threshold.
        for (int i = 0; i < kManyVars; ++i)
            CHECK_MSG(vars[i]->get(tx) == i, "read-after-write var %d", i);
        // Write-after-write overwrites in place: the set must not grow.
        for (int i = 0; i < kManyVars; ++i)
            vars[i]->set(tx, static_cast<long>(100 + i));
        CHECK_MSG(tx.write_set_size() == static_cast<std::size_t>(kManyVars),
                  "write-after-write grew the set to %zu",
                  tx.write_set_size());
        // Reads of written vars never enter the read set.
        CHECK_MSG(tx.read_set_size() == 0, "read set holds %zu entries",
                  tx.read_set_size());
        for (int i = 0; i < kManyVars; ++i)
            CHECK_MSG(vars[i]->get(tx) == 100 + i, "overwrite var %d", i);
    });
    for (int i = 0; i < kManyVars; ++i)
        CHECK_MSG(vars[i]->unsafe_peek() == 100 + i, "committed var %d", i);
}

// The read set is an append-only log: one entry per read, duplicates
// kept (DESIGN.md "Read log"), so re-reads re-deliver the same value and
// grow the log.
void check_read_log() {
    LsaStm stm(tb::make("shared"));
    std::vector<std::unique_ptr<TVar<long>>> vars;
    for (int i = 0; i < kManyVars; ++i)
        vars.push_back(std::make_unique<TVar<long>>(7));

    auto ctx = stm.make_context();
    // One var read many times logs one entry per read.
    ctx.run([&](Tx& tx) {
        long s = 0;
        for (int i = 0; i < 100; ++i) s += vars[0]->get(tx);
        CHECK(s == 700);
        CHECK_MSG(tx.read_set_size() == 100, "100 reads logged %zu",
                  tx.read_set_size());
    });
    // Distinct vars re-read over three rounds: one entry per read.
    ctx.run([&](Tx& tx) {
        for (int round = 0; round < 3; ++round)
            for (auto& v : vars) CHECK(v->get(tx) == 7);
        CHECK_MSG(
            tx.read_set_size() == static_cast<std::size_t>(3 * kManyVars),
            "expected %d entries, got %zu", 3 * kManyVars,
            tx.read_set_size());
    });
    // Sets are pooled per context: a fresh transaction starts empty.
    ctx.run([&](Tx& tx) {
        CHECK(tx.read_set_size() == 0);
        CHECK(tx.write_set_size() == 0);
        CHECK(vars[1]->get(tx) == 7);
        CHECK(tx.read_set_size() == 1);
    });
}

// A re-read of a var that a foreign commit overwrote after the first read:
// the re-read's extension fails on the logged word, and history serves
// the version the first read admitted (DESIGN.md "Read log"). Before the
// engine keeps history the same re-read aborts, and two such misses in a
// row turn history on.
void check_reread_after_overwrite() {
    LsaStm stm(tb::make("shared"));
    TVar<long> x(1);
    auto reader = stm.make_context();
    auto writer = stm.make_context();
    const auto bump_x = [&] {
        writer.run([&](Tx& t) { x.set(t, x.get(t) + 1); });
    };
    for (int i = 0; i < 2; ++i) {
        Transaction tx = reader.txn_begin();
        const long first = x.get(tx);
        bump_x();
        bool aborted = false;
        try {
            (void)x.get(tx);
        } catch (const detail::AbortTx&) {
            aborted = true;
        }
        CHECK_MSG(aborted, "re-read %d served %ld without history", i, first);
    }
    CHECK(stm.keeps_history());
    bump_x();  // a commit that keeps history, so x's ring exists

    Transaction tx = reader.txn_begin();
    const long first = x.get(tx);
    bump_x();
    CHECK(x.unsafe_peek() == first + 1);
    CHECK_MSG(x.get(tx) == first, "re-read saw %ld, first read %ld",
              x.get(tx), first);
    CHECK(tx.read_set_size() == 1);  // a history read logs nothing
    CHECK(reader.txn_commit(tx));
    const auto st = reader.stats();
    CHECK(st.history_reads >= 1);
    CHECK(st.history_misses == 2);
}

// Update transactions that read every var they write, with write sets well
// past the threshold: commit-time validation takes the locked-by-us branch
// and resolves it through the sorted write set. Concurrency makes the
// cross-checks meaningful (torn commits would break conservation).
void check_large_update_txns_concurrent() {
    LsaStm stm(tb::make("shared"));
    constexpr int kAccounts = 24;
    constexpr int kTouch = 12;  // > kInlineScan
    constexpr int kThreads = 4;
    constexpr int kTxPerThread = 800;
    constexpr long kInitial = 1000;
    std::vector<std::unique_ptr<TVar<long>>> acct;
    for (int i = 0; i < kAccounts; ++i)
        acct.push_back(std::make_unique<TVar<long>>(kInitial));

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            auto ctx = stm.make_context();
            Rng rng(t * 733 + 3);
            for (int i = 0; i < kTxPerThread; ++i) {
                unsigned first = rng.below(kAccounts);
                ctx.run([&](Tx& tx) {
                    // Shift 1 unit along a ring of kTouch accounts: sum
                    // conserved iff the whole write set commits atomically.
                    for (int k = 0; k < kTouch; ++k) {
                        const auto a = (first + k) % kAccounts;
                        const auto b = (first + k + 1) % kAccounts;
                        acct[a]->set(tx, acct[a]->get(tx) - 1);
                        acct[b]->set(tx, acct[b]->get(tx) + 1);
                    }
                });
            }
        });
    }
    for (auto& th : threads) th.join();

    long total = 0;
    for (const auto& a : acct) total += a->unsafe_peek();
    CHECK_MSG(total == kInitial * kAccounts, "total %ld", total);
    CHECK(stm.collected_stats().commits() ==
          static_cast<std::uint64_t>(kThreads) * kTxPerThread);
}

// Every TVar<T> shares one layout -- lock word, value, lazily allocated
// history ring -- so the TVar<long> tests above cover the ring itself.
// This covers a payload wider than a word: a 16-byte value (and its
// history entries) under concurrent update/read must never tear, and the
// ring must allocate safely under racing first commits.
struct WidePair {
    long a;
    long b;
};

void check_wide_tvar_payload() {
    static_assert(sizeof(WidePair) > 8, "must exercise wide atomics");
    LsaStm stm(tb::make("shared"));
    constexpr long kTotal = 100;
    TVar<WidePair> v(WidePair{kTotal / 2, kTotal / 2});

    std::atomic<bool> stop{false};
    std::atomic<int> violations{0};
    std::vector<std::thread> threads;
    for (int w = 0; w < 2; ++w) {
        threads.emplace_back([&, w] {
            auto ctx = stm.make_context();
            Rng rng(w * 41 + 3);
            while (!stop.load(std::memory_order_acquire)) {
                const long amt = static_cast<long>(rng.below(7)) + 1;
                ctx.run([&](Tx& tx) {
                    WidePair p = v.get(tx);
                    p.a -= amt;
                    p.b += amt;
                    v.set(tx, p);
                });
            }
        });
    }
    for (int r = 0; r < 2; ++r) {
        threads.emplace_back([&] {
            auto ctx = stm.make_context();
            while (!stop.load(std::memory_order_acquire)) {
                ctx.run([&](Tx& tx) {
                    const WidePair p = v.get(tx);
                    if (p.a + p.b != kTotal)
                        violations.fetch_add(1, std::memory_order_relaxed);
                });
            }
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    stop.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();

    CHECK_MSG(violations.load() == 0, "%d torn wide reads",
              violations.load());
    const WidePair fin = v.unsafe_peek();
    CHECK(fin.a + fin.b == kTotal);
}

void check_batched_counter_stamps() {
    tb::BatchedCounterTimeBase tbase(8);
    CHECK(tbase.block_size() == 8);
    // Centered-clock convention: published deviation is ceil(B/2), so the
    // core's pairwise 2x shrink covers the one-sided lag of up to B-1.
    CHECK(tbase.deviation() == 4);
    auto c1 = tbase.make_thread_clock();
    auto c2 = tbase.make_thread_clock();
    // Stamps from one clock are strictly increasing; blocks from two
    // clocks never collide.
    std::uint64_t prev = 0;
    for (int i = 0; i < 40; ++i) {
        // A fresh stamp lags the counter observed just before drawing it
        // by less than the block size (the freshness reload's guarantee;
        // the counter may of course move past the stamp again afterwards).
        const auto now = c1.get_time();
        const auto a = c1.get_new_ts();
        const auto b = c2.get_new_ts();
        CHECK_MSG(a > prev, "stamp %llu not increasing",
                  static_cast<unsigned long long>(a));
        prev = a;
        CHECK_MSG(a != b, "clocks collided on %llu",
                  static_cast<unsigned long long>(a));
        CHECK(now < a + tbase.block_size());
    }
}

// Snapshot correctness over the batched counter with deliberately tiny
// blocks (stale-stamp refetches and deviation-shrunk validity ranges both
// trigger constantly): writers keep an invariant, in-transaction readers
// must never see it broken.
void check_batched_counter_snapshots() {
    using BTx = Transaction;
    tb::BatchedCounterTimeBase tbase(4);
    LsaStm stm(tb::TimeBase::wrap(tbase));
    constexpr long kTotal = 600;
    TVar<long> a(kTotal / 2), b(kTotal / 2);

    std::atomic<bool> stop{false};
    std::atomic<int> violations{0};
    std::atomic<std::uint64_t> reader_txns{0};
    std::vector<std::thread> threads;
    for (int w = 0; w < 2; ++w) {
        threads.emplace_back([&, w] {
            auto ctx = stm.make_context();
            Rng rng(w * 19 + 1);
            while (!stop.load(std::memory_order_acquire)) {
                const long amt = static_cast<long>(rng.below(9)) + 1;
                ctx.run([&](BTx& tx) {
                    a.set(tx, a.get(tx) - amt);
                    b.set(tx, b.get(tx) + amt);
                });
            }
        });
    }
    for (int r = 0; r < 2; ++r) {
        threads.emplace_back([&] {
            auto ctx = stm.make_context();
            while (!stop.load(std::memory_order_acquire)) {
                ctx.run([&](BTx& tx) {
                    const long a1 = a.get(tx);
                    const long b1 = b.get(tx);
                    const long a2 = a.get(tx);  // re-read: same version
                    if (a1 + b1 != kTotal || a1 != a2)
                        violations.fetch_add(1, std::memory_order_relaxed);
                });
                reader_txns.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
    stop.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();

    CHECK_MSG(violations.load() == 0, "%d snapshot violations",
              violations.load());
    CHECK(reader_txns.load() > 0);
    CHECK(a.unsafe_peek() + b.unsafe_peek() == kTotal);
}

}  // namespace

int main() {
    check_write_set_past_threshold();
    check_read_log();
    check_reread_after_overwrite();
    check_large_update_txns_concurrent();
    check_wide_tvar_payload();
    check_batched_counter_stamps();
    check_batched_counter_snapshots();
    std::printf("test_stm_hotpath: PASS\n");
    return 0;
}
