// Tier-1 liveness check for a frozen committer, on both engines. A
// committer (thread A) is frozen via the test hook at the exact point
// where its commit is decided but its write set not yet applied -- the
// situation a preempted committer creates in production. Only the owner
// writes back, so a conflicting writer (thread B) can only wait on A's
// lock and abort through the shared wait loop: it must not commit, and
// A's writes must not appear, until A is released. Then both transactions
// land.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include <chronostm/core/lsa_stm.hpp>
#include <chronostm/core/orec_stm.hpp>

#include "test_util.hpp"

using namespace chronostm;

namespace {

void spin_until(const std::atomic<bool>& flag) {
    while (!flag.load(std::memory_order_acquire)) std::this_thread::yield();
}

// Stm/Cfg/Var: LsaStm/StmConfig/TVar<long> or OrecStm/OrecConfig/
// WordVar<long>.
template <typename Stm, typename Cfg, typename Var>
void check_frozen_committer(const char* engine) {
    std::atomic<bool> stall_armed{true};
    std::atomic<bool> a_stalled{false};
    std::atomic<bool> release_a{false};

    Cfg cfg;
    cfg.commit_publish_hook = [&] {
        // Only the first committer (thread A, by construction) freezes.
        if (stall_armed.exchange(false)) {
            a_stalled.store(true, std::memory_order_release);
            spin_until(release_a);
        }
    };
    Stm stm(tb::make("shared"), cfg);
    Var x(0), y(0);

    std::thread a([&] {
        auto ctx = stm.make_context();
        ctx.run([&](auto& tx) {
            x.set(tx, 1);
            y.set(tx, 1);
        });
    });
    spin_until(a_stalled);

    std::atomic<bool> b_done{false};
    std::thread b([&] {
        auto ctx = stm.make_context();
        ctx.run([&](auto& tx) { x.set(tx, x.get(tx) + 10); });
        b_done.store(true, std::memory_order_release);
    });

    // Nothing can free A's locks: B must still be aborting-and-retrying
    // after a generous grace period, and A's writes must not have been
    // applied by anybody.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    CHECK_MSG(!b_done.load(std::memory_order_acquire),
              "%s: the conflicting writer committed through a frozen "
              "committer (x=%ld)",
              engine, x.unsafe_peek());
    CHECK(x.unsafe_peek() == 0);
    CHECK(y.unsafe_peek() == 0);

    // Once released, both transactions land.
    release_a.store(true, std::memory_order_release);
    a.join();
    b.join();

    const auto stats = stm.collected_stats();
    CHECK_MSG(x.unsafe_peek() == 11 && y.unsafe_peek() == 1, "%s: x=%ld y=%ld",
              engine, x.unsafe_peek(), y.unsafe_peek());
    CHECK(stats.commits() == 2);
    // B met A's lock and gave up on it at least once before escalating.
    CHECK_MSG(stats.stalled_aborts >= 1, "%s: stalled_aborts=%llu", engine,
              static_cast<unsigned long long>(stats.stalled_aborts));
    CHECK_MSG(stats.helped_commits == 0, "helped_commits=%llu",
              static_cast<unsigned long long>(stats.helped_commits));
}

}  // namespace

int main() {
    check_frozen_committer<LsaStm, StmConfig, TVar<long>>("lsa");
    check_frozen_committer<OrecStm, OrecConfig, WordVar<long>>("orec");
    std::printf("test_stm_frozen_committer: PASS\n");
    return 0;
}
