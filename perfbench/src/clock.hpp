// Cheap timestamps for per-op latency and spans: the invariant TSC on
// x86-64 (one unserialized rdtsc, a few ns), steady_clock elsewhere.
// Ticks convert to ns through a scale calibrated once against steady_clock.

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace perfbench {

inline std::uint64_t ticks() noexcept {
#if defined(__x86_64__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

struct TickScale {
    double ns_per_tick = 1.0;
    double overhead_ticks = 0.0;  // cost of one back-to-back ticks() pair

    double ns(double t) const { return t * ns_per_tick; }

    static TickScale calibrate() {
        TickScale s;
        using clk = std::chrono::steady_clock;
        const auto w0 = clk::now();
        const std::uint64_t t0 = ticks();
        std::this_thread::sleep_for(std::chrono::milliseconds(60));
        const std::uint64_t t1 = ticks();
        const auto w1 = clk::now();
        const double wall =
            std::chrono::duration<double, std::nano>(w1 - w0).count();
        s.ns_per_tick = wall / static_cast<double>(t1 - t0);

        std::vector<std::uint64_t> d(20001);
        for (auto& x : d) {
            const std::uint64_t a = ticks();
            x = ticks() - a;
        }
        std::nth_element(d.begin(), d.begin() + d.size() / 2, d.end());
        s.overhead_ticks = static_cast<double>(d[d.size() / 2]);
        return s;
    }
};

}  // namespace perfbench
