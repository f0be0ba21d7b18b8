// Tier-1: the commit-epoch validation filter (PR 7, striped since PR 10).
// A writer bumps the epoch stripes its write set covers while holding its
// locks; a reader whose touched-stripe snapshots are unchanged skips the
// O(R) read-set walk when extending or validating. The single-var cells
// here behave identically at any stripe count (one write = one stripe
// bump), so they pin the protocol itself; stripe-specific behavior lives
// in test_stm_stripes.cpp. The filter runs unarmed until a long walk
// arms it (DESIGN.md "Stripes on demand"), so the fast-hit cells arm the
// engine first (arm_stripes in test_util.hpp). These tests force both
// sides of the filter:
//
//   * a deterministic forced fast hit on the LSA read path (batched
//     counter, too-new version, time advanced by side stamps only), with
//     the per-TVar version recheck delivering the latest committed value
//   * the same O(1) extension on the orec engine via try_extend_now()
//   * commit-time validation fast hits when no writer interleaved
//   * read-only commits that draw no stamp, bump no epoch
//   * the freshness-only draw-and-discard in run(): a batched-counter
//     reader stuck behind an interior-of-block stamp must make progress
//     (the original livelock), while conflict aborts must NOT drain the
//     stamp blocks
//   * bounded backoff actually runs on conflict retries (backoff_us)
//   * commit-side epoch race: a read-x/write-y copier racing an
//     incrementer of x must never certify a stale x through the commit
//     fast path (the post-stamp-draw epoch re-check), caught by a
//     cross-snapshot monotonicity oracle
//   * adversarial writer-vs-reader invariant sweeps over shared and
//     batched (B=8, B=16) time bases on both engines, filter on and
//     off; filter off must report zero fast hits (the walk runs every
//     time)
//   * both concurrent oracles arm the stripes mid-run, so each covers
//     unarmed attempts, the switch, and armed attempts

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <chronostm/core/lsa_stm.hpp>
#include <chronostm/core/orec_stm.hpp>
#include <chronostm/stm/adapter.hpp>
#include <chronostm/util/rng.hpp>

#include "test_util.hpp"

using namespace chronostm;

namespace {

using Tx = Transaction;

// Batched counter, B=8: the writer's second commit stamp is interior to
// its block, so a fresh reader (upper = block end, dev_ = 8) finds the
// version too new. Side stamps advance time without bumping the epoch;
// the read-path extension must take the O(1) fast hit and the re-read of
// the var's version must then admit the LATEST committed value.
void check_forced_fast_hit_lsa() {
    LsaStm stm(tb::make("batched:B=8"));
    arm_stripes<TVar<long>>(stm);
    TVar<long> v(1);
    auto wctx = stm.make_context();
    wctx.run([&](Tx& tx) { v.set(tx, 41); });
    wctx.run([&](Tx& tx) { v.set(tx, 42); });  // interior-of-block stamp

    auto rctx = stm.make_context();
    Transaction tx = rctx.txn_begin();  // anchors epoch AFTER both bumps
    // Time moves (fresh blocks), the epoch does not.
    auto side = stm.time_base().make_thread_clock();
    for (int i = 0; i < 4; ++i) side.get_new_ts();

    const long got = v.get(tx);
    CHECK_MSG(got == 42, "fast-hit extension admitted %ld", got);
    CHECK(rctx.txn_commit(tx));

    const auto st = rctx.stats();
    CHECK_MSG(st.extension_fast_hits >= 1, "no fast hit (extensions %llu)",
              static_cast<unsigned long long>(st.extensions));
    CHECK(st.extensions >= 1);
    CHECK(st.ro_commits == 1);
    CHECK(got == v.unsafe_peek());
}

// Orec twin, driven through the public try_extend_now(): one side stamp
// moves the shared counter, no writer commits, so the extension must be
// an epoch fast hit.
void check_fast_hit_orec() {
    OrecStm stm(tb::make("shared"));
    arm_stripes<WordVar<long>>(stm);
    WordVar<long> v(5);
    auto ctx = stm.make_context();
    OrecTransaction tx = ctx.txn_begin();
    CHECK(v.get(tx) == 5);

    auto side = stm.time_base().make_thread_clock();
    side.get_new_ts();
    CHECK(tx.try_extend_now());
    CHECK(v.get(tx) == 5);
    CHECK(ctx.txn_commit(tx));

    const auto st = ctx.stats();
    CHECK_MSG(st.extension_fast_hits == 1, "fast hits %llu",
              static_cast<unsigned long long>(st.extension_fast_hits));
    CHECK(st.ro_commits == 1);
}

// A solo updater never races another bump between begin and commit, so
// its commit-time validation is always the epoch fast path. The arming
// commit bumps nothing, so the epoch counts the three updates alone.
void check_validation_fast_hit() {
    {
        LsaStm stm(tb::make("shared"));
        arm_stripes<TVar<long>>(stm);
        TVar<long> v(0);
        auto ctx = stm.make_context();
        for (int i = 0; i < 3; ++i)
            ctx.run([&](Tx& tx) { v.set(tx, v.get(tx) + 1); });
        CHECK(v.unsafe_peek() == 3);
        const auto st = ctx.stats();
        CHECK_MSG(st.validation_fast_hits == 3, "lsa fast validations %llu",
                  static_cast<unsigned long long>(st.validation_fast_hits));
        CHECK(stm.commit_epoch() == 3);  // one bump per writer commit
    }
    {
        OrecStm stm(tb::make("shared"));
        arm_stripes<WordVar<long>>(stm);
        WordVar<long> v(0);
        auto ctx = stm.make_context();
        for (int i = 0; i < 3; ++i)
            ctx.run([&](OrecTransaction& tx) { v.set(tx, v.get(tx) + 1); });
        CHECK(v.unsafe_peek() == 3);
        const auto st = ctx.stats();
        CHECK_MSG(st.validation_fast_hits == 3, "orec fast validations %llu",
                  static_cast<unsigned long long>(st.validation_fast_hits));
        CHECK(stm.commit_epoch() == 3);
    }
}

// Read-only commits: no stamp drawn (the shared counter only moves on
// get_new_ts, so it must not move), no epoch bump, counted as ro_commits.
void check_ro_commit_no_stamp() {
    {
        LsaStm stm(tb::make("shared"));
        TVar<long> v(5);
        auto ctx = stm.make_context();
        auto side = stm.time_base().make_thread_clock();
        const auto before = side.get_time();
        long sum = 0;
        for (int i = 0; i < 100; ++i)
            sum += ctx.run([&](Tx& tx) { return v.get(tx); });
        CHECK(sum == 500);
        CHECK_MSG(side.get_time() == before,
                  "lsa read-only commits drew %llu stamps",
                  static_cast<unsigned long long>(side.get_time() - before));
        CHECK(stm.commit_epoch() == 0);
        const auto st = ctx.stats();
        CHECK(st.ro_commits == 100);
        CHECK(st.commits() == 100);
    }
    {
        OrecStm stm(tb::make("shared"));
        WordVar<long> v(5);
        auto ctx = stm.make_context();
        auto side = stm.time_base().make_thread_clock();
        const auto before = side.get_time();
        long sum = 0;
        for (int i = 0; i < 100; ++i)
            sum += ctx.run([&](OrecTransaction& tx) { return v.get(tx); });
        CHECK(sum == 500);
        CHECK_MSG(side.get_time() == before,
                  "orec read-only commits drew %llu stamps",
                  static_cast<unsigned long long>(side.get_time() - before));
        CHECK(stm.commit_epoch() == 0);
        const auto st = ctx.stats();
        CHECK(st.ro_commits == 100);
        CHECK(st.commits() == 100);
    }
}

// The original livelock: on the batched counter an interior-of-block
// commit stamp is unreadable until someone draws the counter past
// version + 2*dev -- with no history to fall back on, a reader retries
// forever unless run() drains stamps on freshness aborts. max_versions=1
// removes the fallback and a tight retry bound turns a recurrence into a
// clean test failure (run() would throw its retry-bound error).
void check_freshness_draw_unsticks_batched_reader() {
    StmConfig cfg;
    cfg.max_versions = 1;
    cfg.max_retries = 50;
    LsaStm stm(tb::make("batched:B=8"), cfg);
    TVar<long> v(1);
    auto c1 = stm.make_context();
    c1.run([&](Tx& tx) { v.set(tx, 41); });
    c1.run([&](Tx& tx) { v.set(tx, 42); });  // interior-of-block stamp

    auto c2 = stm.make_context();
    const long got = c2.run([&](Tx& tx) { return v.get(tx); });
    CHECK_MSG(got == 42, "reader admitted %ld", got);
    const auto st = c2.stats();
    CHECK(st.commits() == 1);
    CHECK_MSG(st.aborts() >= 1, "expected freshness aborts, saw %llu",
              static_cast<unsigned long long>(st.aborts()));
    // The converse of the backoff check below: freshness aborts are not
    // contention and must retry immediately -- the draw, not a sleep, is
    // what unsticks them.
    CHECK_MSG(st.backoff_us == 0,
              "freshness aborts spent %llu us in backoff",
              static_cast<unsigned long long>(st.backoff_us));
}

// Conflict aborts must NOT drain the stamp blocks (that is the other half
// of the run() fix), and the bounded backoff between retries must be
// observable via the backoff_us counter.
void check_conflict_aborts_draw_nothing() {
    StmConfig cfg;
    cfg.max_retries = 50;
    LsaStm stm(tb::make("batched:B=8"), cfg);
    TVar<long> v(7);
    auto ctx = stm.make_context();
    auto side = stm.time_base().make_thread_clock();
    // Warm the counter past 2*deviation: at time 0 even the initial
    // version is outside the deviation-shrunk validity range, and the
    // resulting freshness abort would legitimately draw stamps.
    side.get_new_ts();
    const auto before = side.get_time();

    int calls = 0;
    const long got = ctx.run([&](Tx& tx) {
        if (++calls <= 25) tx.abort();  // conflict abort, not freshness
        return v.get(tx);
    });
    CHECK(got == 7);
    CHECK_MSG(side.get_time() == before,
              "conflict aborts drew %llu stamps from the batched counter",
              static_cast<unsigned long long>(side.get_time() - before));
    const auto st = ctx.stats();
    CHECK(st.aborts() == 25);
    CHECK_MSG(st.backoff_us > 0, "no backoff time over %llu retries",
              static_cast<unsigned long long>(st.aborts()));
}

// The concurrent oracles below run 80 ms: unarmed for the first half,
// then armed through the real trigger while their threads keep going
// (filter on), so each covers both modes and the switch between them.
// With the filter off the engine must stay unarmed throughout.
template <typename A>
void arm_mid_run(A& adapter, bool filter) {
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    if (filter) arm_stripes<typename A::template Var<long>>(adapter.stm());
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    CHECK(adapter.stm().filter_armed() == filter);
}

// Adversarial sweep: a writer keeps x + y == kTotal while a side thread
// hammers the time base (time moves without epoch bumps -> extension fast
// hits race real conflicts) and readers re-read under forced extension
// pressure. Opacity means no reader ever observes a torn total. Returns
// the engine-wide stats so callers can assert on the filter counters.
constexpr long kTotal = 1000;

template <typename A, typename Cfg>
TxStats adversarial_cell(const std::string& spec, Cfg cfg) {
    A adapter(tb::make(spec), cfg);
    typename A::template Var<long> x(kTotal / 2), y(kTotal / 2);

    std::atomic<bool> stop{false};
    std::atomic<int> violations{0};
    std::vector<std::thread> threads;
    threads.emplace_back([&] {  // writer
        auto ctx = adapter.make_context();
        Rng rng(11);
        while (!stop.load(std::memory_order_acquire)) {
            const long amt = static_cast<long>(rng.below(9)) + 1;
            adapter.run(ctx, [&](typename A::Txn& tx) {
                tx.write(x, tx.read(x) - amt);
                tx.write(y, tx.read(y) + amt);
            });
        }
    });
    threads.emplace_back([&] {  // stamp pressure, no commits
        auto clk = adapter.stm().time_base().make_thread_clock();
        while (!stop.load(std::memory_order_acquire)) clk.get_new_ts();
    });
    for (int r = 0; r < 2; ++r) {
        threads.emplace_back([&] {
            auto ctx = adapter.make_context();
            while (!stop.load(std::memory_order_acquire)) {
                adapter.run(ctx, [&](typename A::Txn& tx) {
                    const long a = tx.read(x);
                    for (volatile int i = 0; i < 64; ++i) {
                    }
                    const long b = tx.read(y);
                    if (a + b != kTotal)
                        violations.fetch_add(1, std::memory_order_relaxed);
                });
            }
        });
    }
    arm_mid_run<A>(adapter, cfg.filter_stripes != 0);
    stop.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();

    CHECK_MSG(violations.load() == 0, "%d stale snapshots on %s",
              violations.load(), spec.c_str());
    CHECK(x.unsafe_peek() + y.unsafe_peek() == kTotal);
    const auto st = adapter.collected_stats();
    CHECK(st.commits() > 0);
    return st;
}

// Commit-side epoch race (the REVIEW fix): a copier reads x and writes y
// (disjoint write sets, so locks never order it against the x-writer)
// while an incrementer bumps x. The unsound fast path decided epoch
// cleanliness at the bump but serialized at a stamp drawn later; a
// writer bumping in that window could draw a SMALLER stamp and publish
// into the copier's read set below its commit stamp, letting the copier
// certify a stale x. Oracle: a checker snapshots (a=x, b=y) -- x first,
// then y, so its final time sample precedes any copier stamp it misses
// -- and whenever the copy changes between consecutive snapshots, the
// new copy must be >= the x of the PREVIOUS snapshot: the copier that
// produced it serialized after that snapshot, and x is monotone. LSA
// runs with max_versions=1 (an old-version fallback would let a later
// checker legitimately serialize before an earlier one, which the
// cross-snapshot comparison cannot distinguish from the race).
template <typename A, typename Cfg>
void copier_race_cell(const std::string& spec, Cfg cfg) {
    A adapter(tb::make(spec), cfg);
    alignas(64) typename A::template Var<long> x(0);
    alignas(64) typename A::template Var<long> y(0);

    std::atomic<bool> stop{false};
    std::atomic<int> inversions{0};
    std::vector<std::thread> threads;
    threads.emplace_back([&] {  // incrementer of x
        auto ctx = adapter.make_context();
        while (!stop.load(std::memory_order_acquire))
            adapter.run(ctx, [&](typename A::Txn& tx) {
                tx.write(x, tx.read(x) + 1);
            });
    });
    threads.emplace_back([&] {  // copier: reads x, writes y
        auto ctx = adapter.make_context();
        while (!stop.load(std::memory_order_acquire))
            adapter.run(ctx, [&](typename A::Txn& tx) {
                tx.write(y, tx.read(x));
            });
    });
    threads.emplace_back([&] {  // checker
        auto ctx = adapter.make_context();
        bool have_prev = false;
        long prev_a = 0, prev_b = 0;
        while (!stop.load(std::memory_order_acquire)) {
            long a = 0, b = 0;
            adapter.run(ctx, [&](typename A::Txn& tx) {
                a = tx.read(x);
                b = tx.read(y);
            });
            if (have_prev && b != prev_b && b < prev_a)
                inversions.fetch_add(1, std::memory_order_relaxed);
            have_prev = true;
            prev_a = a;
            prev_b = b;
        }
    });
    arm_mid_run<A>(adapter, cfg.filter_stripes != 0);
    stop.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();

    CHECK_MSG(inversions.load() == 0,
              "%d stale-commit inversions on %s (copy went backwards past "
              "an observed x)",
              inversions.load(), spec.c_str());
    CHECK(y.unsafe_peek() <= x.unsafe_peek());
    CHECK(adapter.collected_stats().commits() > 0);
}

void check_copier_race() {
    // The commit-side race window exists per stripe, so the oracle runs
    // over the degenerate single-word filter, a coarse striping that
    // aliases x and y's stripes on some geometries, and the default.
    for (const unsigned stripes : {1u, 4u, 64u}) {
        for (const char* spec : {"shared", "batched:B=8", "batched:B=16"}) {
            StmConfig lsa;
            lsa.max_versions = 1;
            lsa.filter_stripes = stripes;
            copier_race_cell<stm::LsaAdapter>(spec, lsa);
            OrecConfig orec;
            orec.filter_stripes = stripes;
            copier_race_cell<stm::OrecAdapter>(spec, orec);
        }
    }
}

void check_adversarial_sweep() {
    for (const char* spec : {"shared", "batched:B=8", "batched:B=16"}) {
        adversarial_cell<stm::LsaAdapter>(spec, StmConfig{});
        adversarial_cell<stm::OrecAdapter>(spec, OrecConfig{});
    }
    // Filter off: same workload must stay opaque with zero fast hits --
    // every extension and validation runs the full walk.
    StmConfig lsa_off;
    lsa_off.filter_stripes = 0;
    const auto lsa_st =
        adversarial_cell<stm::LsaAdapter>("shared", lsa_off);
    CHECK(lsa_st.extension_fast_hits == 0);
    CHECK(lsa_st.validation_fast_hits == 0);
    OrecConfig orec_off;
    orec_off.filter_stripes = 0;
    const auto orec_st =
        adversarial_cell<stm::OrecAdapter>("shared", orec_off);
    CHECK(orec_st.extension_fast_hits == 0);
    CHECK(orec_st.validation_fast_hits == 0);
}

}  // namespace

int main() {
    check_forced_fast_hit_lsa();
    check_fast_hit_orec();
    check_validation_fast_hit();
    check_ro_commit_no_stamp();
    check_freshness_draw_unsticks_batched_reader();
    check_conflict_aborts_draw_nothing();
    check_copier_race();
    check_adversarial_sweep();
    std::printf("test_stm_epoch: PASS\n");
    return 0;
}
