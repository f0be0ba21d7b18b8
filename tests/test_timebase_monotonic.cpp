// Tier-1: per-thread monotonicity of every time base. Each of 8 threads
// draws a stream of stamps from its own thread clock; get_new_ts must be
// strictly increasing within a thread for every base, and get_time
// observations interleaved with them must never exceed a later commit
// stamp from the same clock. Imprecise bases (the batched counter)
// run a deviation-adjusted variant of the get_time bound -- an
// observation may lead a later stamp, but never by more than the pairwise
// uncertainty 2*deviation() -- exercised through the facade registry so
// the string-keyed path is what the invariants hold over.

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <chronostm/timebase/facade.hpp>

#include "test_util.hpp"

using namespace chronostm;

namespace {

constexpr unsigned kThreads = 8;

template <typename TB>
void check_monotonic(TB& tbase, int stamps_per_thread, const char* name) {
    std::vector<std::thread> threads;
    std::vector<int> ok(kThreads, 0);
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&tbase, &ok, t, stamps_per_thread] {
            auto clk = tbase.make_thread_clock();
            std::uint64_t prev_ts = 0;
            bool good = true;
            for (int i = 0; i < stamps_per_thread; ++i) {
                const std::uint64_t now = clk.get_time();
                const std::uint64_t ts = clk.get_new_ts();
                good = good && (i == 0 || ts > prev_ts) && (now <= ts);
                prev_ts = ts;
            }
            ok[t] = good ? 1 : 0;
        });
    }
    for (auto& th : threads) th.join();
    for (unsigned t = 0; t < kThreads; ++t)
        CHECK_MSG(ok[t] == 1, "time base %s, thread %u", name, t);
}

// The batched counter is deliberately imprecise: a get_time observation may
// exceed a later stamp from the same thread, but never by the block size or
// more (stamps lag the exact counter by at most B-1). Per-thread strict
// monotonicity of stamps still holds exactly.
void check_monotonic_batched(std::uint64_t block, int stamps_per_thread) {
    tb::BatchedCounterTimeBase tbase(block);
    const std::uint64_t bound = tbase.block_size();
    std::vector<std::thread> threads;
    std::vector<int> ok(kThreads, 0);
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&tbase, &ok, bound, t, stamps_per_thread] {
            auto clk = tbase.make_thread_clock();
            std::uint64_t prev_ts = 0;
            bool good = true;
            for (int i = 0; i < stamps_per_thread; ++i) {
                const std::uint64_t now = clk.get_time();
                const std::uint64_t ts = clk.get_new_ts();
                good = good && (i == 0 || ts > prev_ts) && (now < ts + bound);
                prev_ts = ts;
            }
            ok[t] = good ? 1 : 0;
        });
    }
    for (auto& th : threads) th.join();
    for (unsigned t = 0; t < kThreads; ++t)
        CHECK_MSG(ok[t] == 1, "BatchedCounter(B=%llu), thread %u",
                  static_cast<unsigned long long>(block), t);
}

// Registry-made imprecise bases: stamps strictly increase per thread, and
// interleaved get_time observations stay within the pairwise uncertainty
// of a later stamp from the same clock (now <= ts + 2*deviation(); see the
// centered-bound derivations in the base headers).
void check_monotonic_facade(const std::string& spec, int stamps_per_thread) {
    tb::TimeBase tbase = tb::make(spec);
    const std::uint64_t slack = 2 * tbase.deviation() + 1;
    std::vector<std::thread> threads;
    std::vector<int> ok(kThreads, 0);
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&tbase, &ok, slack, t, stamps_per_thread] {
            auto clk = tbase.make_thread_clock();
            std::uint64_t prev_ts = 0;
            bool good = true;
            for (int i = 0; i < stamps_per_thread; ++i) {
                const std::uint64_t now = clk.get_time();
                const std::uint64_t ts = clk.get_new_ts();
                good = good && (i == 0 || ts > prev_ts) && (now < ts + slack);
                prev_ts = ts;
            }
            ok[t] = good ? 1 : 0;
        });
    }
    for (auto& th : threads) th.join();
    for (unsigned t = 0; t < kThreads; ++t)
        CHECK_MSG(ok[t] == 1, "time base %s, thread %u", spec.c_str(), t);
}

}  // namespace

int main() {
    {
        tb::SharedCounterTimeBase tbase;
        check_monotonic(tbase, 20000, "SharedCounter");
    }
    {
        tb::Tl2SharedCounterTimeBase tbase;
        check_monotonic(tbase, 20000, "Tl2SharedCounter");
    }
    check_monotonic_batched(1, 20000);   // degenerate: behaves exactly
    check_monotonic_batched(8, 20000);   // refetch-heavy
    check_monotonic_batched(64, 20000);  // throughput-tuned
    check_monotonic_facade("batched:B=8", 20000);
    {
        tb::PerfectClockTimeBase tbase(tb::PerfectSource::Auto);
        check_monotonic(tbase, 20000, "PerfectClock(Auto)");
    }
    {
        tb::PerfectClockTimeBase tbase(tb::PerfectSource::Steady);
        check_monotonic(tbase, 20000, "PerfectClock(Steady)");
    }
    {
        // Few stamps: every MMTimer read pays the simulated ~350ns latency.
        tb::MMTimerSim sim;
        tb::MMTimerClockTimeBase tbase(sim);
        check_monotonic(tbase, 500, "MMTimer");
    }
    {
        static tb::WallTimeSource src;
        static tb::PerfectDevice d0(src, 1'000'000'000), d1(src, 1'000'000'000);
        auto tbase = tb::ExtSyncTimeBase::with_static_params({&d0, &d1}, 0, 100);
        check_monotonic(*tbase, 20000, "ExtSync");
    }
    std::printf("test_timebase_monotonic: PASS\n");
    return 0;
}
