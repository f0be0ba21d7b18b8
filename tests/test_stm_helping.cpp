// Tier-1 regression for StmConfig::help_committers: the two modes must
// actually diverge. A committer (thread A) is frozen via the test hook at
// the exact point where its commit is decided (descriptor Committed,
// claims armed) but its write set not yet applied -- the situation a
// preempted committer creates in production. A conflicting writer (thread
// B) then runs:
//
//   * helping ON:  B finishes A's write-back itself and commits while A is
//                  still frozen; helped counters are nonzero.
//   * helping OFF: B can only spin on A's lock and abort; it must not
//                  commit until A is released, and no helping is counted.

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

struct Outcome {
    bool b_done_while_stalled = false;
    long x_while_stalled = -1;
    long y_while_stalled = -1;
    std::uint64_t helped = 0;
    long x_final = -1;
    long y_final = -1;
    std::uint64_t commits = 0;
};

Outcome run_schedule(bool help) {
    std::atomic<bool> stall_armed{true};
    std::atomic<bool> a_stalled{false};
    std::atomic<bool> release_a{false};

    StmConfig cfg;
    cfg.help_committers = help;
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

    Outcome out;
    if (help) {
        // B must finish A's commit and its own while A is frozen.
        b.join();
        out.b_done_while_stalled = b_done.load(std::memory_order_acquire);
        out.x_while_stalled = x.unsafe_peek();
        out.y_while_stalled = y.unsafe_peek();
    } else {
        // Nothing can free A's locks: B must still be aborting-and-
        // retrying after a generous grace period, and A's writes must not
        // have been applied by anybody.
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        out.b_done_while_stalled = b_done.load(std::memory_order_acquire);
        out.x_while_stalled = x.unsafe_peek();
        out.y_while_stalled = y.unsafe_peek();
    }

    release_a.store(true, std::memory_order_release);
    a.join();
    if (!help) b.join();

    const auto stats = stm.collected_stats();
    out.helped = stats.helped_commits;
    out.x_final = x.unsafe_peek();
    out.y_final = y.unsafe_peek();
    out.commits = stats.commits();
    return out;
}

}  // namespace

int main() {
    {
        const Outcome o = run_schedule(/*help=*/true);
        CHECK(o.b_done_while_stalled);
        CHECK_MSG(o.x_while_stalled == 11,
                  "helper did not finish both commits: x=%ld",
                  o.x_while_stalled);
        CHECK_MSG(o.y_while_stalled == 1,
                  "helper did not apply the frozen committer's full write "
                  "set: y=%ld",
                  o.y_while_stalled);
        CHECK_MSG(o.helped >= 1, "no helping counted (helped=%llu)",
                  static_cast<unsigned long long>(o.helped));
        CHECK(o.x_final == 11 && o.y_final == 1);
        CHECK(o.commits == 2);
    }
    {
        const Outcome o = run_schedule(/*help=*/false);
        CHECK_MSG(!o.b_done_while_stalled,
                  "helping disabled but the conflicting writer committed "
                  "through a frozen committer (x=%ld)",
                  o.x_while_stalled);
        CHECK(o.x_while_stalled == 0);
        CHECK(o.y_while_stalled == 0);
        CHECK_MSG(o.helped == 0, "helping disabled but counted %llu",
                  static_cast<unsigned long long>(o.helped));
        // Once released, both transactions land and the values agree with
        // the helping run: the knob changes liveness, never the outcome.
        CHECK(o.x_final == 11 && o.y_final == 1);
        CHECK(o.commits == 2);
    }
    std::printf("test_stm_helping: PASS\n");
    return 0;
}
