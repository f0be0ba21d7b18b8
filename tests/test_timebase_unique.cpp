// Tier-1: get_new_ts uniqueness under 8 threads for the bases that promise
// it -- the shared counter (fetch-and-increment) and the clock bases (raw
// reading widened with a per-clock id, bumped monotonically per thread).
// The TL2-sharing counter deliberately gives up uniqueness, so it is
// exercised in test_timebase_monotonic instead.

#include <algorithm>
#include <cstdint>
#include <thread>
#include <vector>

#include <chronostm/timebase/facade.hpp>

#include "test_util.hpp"

using namespace chronostm;

namespace {

constexpr unsigned kThreads = 8;

template <typename TB>
void check_unique(TB& tbase, int stamps_per_thread, const char* name) {
    std::vector<std::vector<std::uint64_t>> stamps(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&tbase, &stamps, t, stamps_per_thread] {
            auto clk = tbase.make_thread_clock();
            stamps[t].reserve(stamps_per_thread);
            for (int i = 0; i < stamps_per_thread; ++i)
                stamps[t].push_back(clk.get_new_ts());
        });
    }
    for (auto& th : threads) th.join();

    std::vector<std::uint64_t> all;
    for (const auto& s : stamps) all.insert(all.end(), s.begin(), s.end());
    std::sort(all.begin(), all.end());
    const auto dup = std::adjacent_find(all.begin(), all.end());
    CHECK_MSG(dup == all.end(), "time base %s handed out duplicate stamp %llu",
              name,
              static_cast<unsigned long long>(dup == all.end() ? 0 : *dup));
}

}  // namespace

int main() {
    {
        tb::SharedCounterTimeBase tbase;
        check_unique(tbase, 20000, "SharedCounter");
    }
    {
        // Blocks are disjoint and refetch only moves forward, so batched
        // stamps stay globally unique even with abandoned block tails.
        tb::BatchedCounterTimeBase tbase(8);
        check_unique(tbase, 20000, "BatchedCounter(B=8)");
    }
    {
        tb::BatchedCounterTimeBase tbase(64);
        check_unique(tbase, 20000, "BatchedCounter(B=64)");
    }
    {
        tb::PerfectClockTimeBase tbase(tb::PerfectSource::Auto);
        check_unique(tbase, 20000, "PerfectClock(Auto)");
    }
    {
        tb::PerfectClockTimeBase tbase(tb::PerfectSource::Steady);
        check_unique(tbase, 20000, "PerfectClock(Steady)");
    }
    {
        tb::MMTimerSim sim;
        tb::MMTimerClockTimeBase tbase(sim);
        check_unique(tbase, 500, "MMTimer");
    }
    {
        static tb::WallTimeSource src;
        static tb::PerfectDevice d0(src, 1'000'000'000), d1(src, 1'000'000'000);
        auto tbase = tb::ExtSyncTimeBase::with_static_params({&d0, &d1}, 0, 100);
        check_unique(*tbase, 20000, "ExtSync");
    }
    std::printf("test_timebase_unique: PASS\n");
    return 0;
}
