// Tier-1 liveness check for a frozen committer. A committer (thread A) is
// frozen via the test hook at the exact point where its commit is decided
// (descriptor Committed) but its write set not yet applied -- the
// situation a preempted committer creates in production. Only the owner
// writes back, so a conflicting writer (thread B) can only spin on A's
// lock and abort: it must not commit, and A's writes must not appear,
// until A is released. Then both transactions land.

#include <atomic>
#include <chrono>
#include <thread>

#include <chronostm/core/lsa_stm.hpp>

#include "test_util.hpp"

using namespace chronostm;

namespace {

using Tx = Transaction;

void spin_until(const std::atomic<bool>& flag) {
    while (!flag.load(std::memory_order_acquire)) std::this_thread::yield();
}

}  // namespace

int main() {
    std::atomic<bool> stall_armed{true};
    std::atomic<bool> a_stalled{false};
    std::atomic<bool> release_a{false};

    StmConfig cfg;
    cfg.commit_publish_hook = [&] {
        // Only the first committer (thread A, by construction) freezes.
        if (stall_armed.exchange(false)) {
            a_stalled.store(true, std::memory_order_release);
            spin_until(release_a);
        }
    };
    LsaStm stm(tb::make("shared"), cfg);
    TVar<long> x(0), y(0);

    std::thread a([&] {
        auto ctx = stm.make_context();
        ctx.run([&](Tx& tx) {
            x.set(tx, 1);
            y.set(tx, 1);
        });
    });
    spin_until(a_stalled);

    std::atomic<bool> b_done{false};
    std::thread b([&] {
        auto ctx = stm.make_context();
        ctx.run([&](Tx& tx) { x.set(tx, x.get(tx) + 10); });
        b_done.store(true, std::memory_order_release);
    });

    // Nothing can free A's locks: B must still be aborting-and-retrying
    // after a generous grace period, and A's writes must not have been
    // applied by anybody.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    CHECK_MSG(!b_done.load(std::memory_order_acquire),
              "the conflicting writer committed through a frozen committer "
              "(x=%ld)",
              x.unsafe_peek());
    CHECK(x.unsafe_peek() == 0);
    CHECK(y.unsafe_peek() == 0);

    // Once released, both transactions land.
    release_a.store(true, std::memory_order_release);
    a.join();
    b.join();

    const auto stats = stm.collected_stats();
    CHECK(x.unsafe_peek() == 11 && y.unsafe_peek() == 1);
    CHECK(stats.commits() == 2);
    CHECK_MSG(stats.helped_commits == 0, "helped_commits=%llu",
              static_cast<unsigned long long>(stats.helped_commits));
    std::printf("test_stm_frozen_committer: PASS\n");
    return 0;
}
