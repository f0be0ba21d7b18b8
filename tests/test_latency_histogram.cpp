// Tier-1: the drivers' latency histogram (workload/runner.hpp) resolves
// percentiles finely enough to tell two rows apart. Records known
// distributions and checks p50/p99 against the exact sample quantiles
// within 7%; values below 32 ns are exact.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include <chronostm/util/rng.hpp>
#include <chronostm/workload/runner.hpp>

#include "test_util.hpp"

using chronostm::Rng;
using chronostm::wl::LatencyHistogram;

namespace {

// Exact quantile at rank p*(n-1) of the sorted samples.
std::uint64_t exact_quantile(std::vector<std::uint64_t> v, double p) {
    std::sort(v.begin(), v.end());
    return v[static_cast<std::size_t>(p * static_cast<double>(v.size() - 1))];
}

void check_within(const char* what, std::uint64_t got, std::uint64_t want) {
    const double err = std::fabs(static_cast<double>(got) -
                                 static_cast<double>(want)) /
                       static_cast<double>(want);
    CHECK_MSG(err <= 0.07, "%s: got %llu want %llu (%.1f%% off)", what,
              static_cast<unsigned long long>(got),
              static_cast<unsigned long long>(want), 100 * err);
}

// Records `v` and checks p50/p99 against the exact sample quantiles.
void check_distribution(const char* name,
                        const std::vector<std::uint64_t>& v) {
    LatencyHistogram h;
    for (auto x : v) h.record(x);
    CHECK(h.total == v.size());
    for (double p : {0.50, 0.99}) {
        char what[64];
        std::snprintf(what, sizeof what, "%s p%.0f", name, 100 * p);
        check_within(what, h.percentile(p), exact_quantile(v, p));
    }
}

}  // namespace

int main() {
    Rng rng(42);

    // Constant latency: every percentile is the constant.
    check_distribution("constant", std::vector<std::uint64_t>(10000, 1000));

    // Uniform over [1, 100000] ns.
    {
        std::vector<std::uint64_t> v;
        for (int i = 0; i < 200000; ++i)
            v.push_back(1 + rng.next() % 100000);
        check_distribution("uniform", v);
    }

    // Exponential, mean 2 us: a long tail like real op latencies.
    {
        std::vector<std::uint64_t> v;
        for (int i = 0; i < 200000; ++i)
            v.push_back(static_cast<std::uint64_t>(
                -2000.0 * std::log(1.0 - rng.real01())));
        check_distribution("exponential", v);
    }

    // Bimodal: 90% fast reads near 300 ns, 10% slow updates near 5 us.
    {
        std::vector<std::uint64_t> v;
        for (int i = 0; i < 100000; ++i)
            v.push_back(rng.chance(0.9) ? 280 + rng.next() % 40
                                        : 4500 + rng.next() % 1000);
        check_distribution("bimodal", v);
    }

    // Below 32 ns every bucket is one nanosecond wide: exact.
    {
        LatencyHistogram h;
        for (int i = 0; i < 100; ++i) h.record(7);
        CHECK(h.percentile(0.5) == 7);
        CHECK(h.percentile(0.99) == 7);
    }

    // Two rows 8% apart resolve to different p50s.
    {
        LatencyHistogram a, b;
        for (int i = 0; i < 1000; ++i) {
            a.record(300);
            b.record(325);
        }
        CHECK(a.percentile(0.5) < b.percentile(0.5));
    }

    // Merging preserves counts; empty histograms report 0.
    {
        LatencyHistogram a, b, empty;
        a.record(100);
        b.record(100);
        a.merge(b);
        CHECK(a.total == 2);
        CHECK(empty.percentile(0.5) == 0);
    }

    std::printf("test_latency_histogram: PASS\n");
    return 0;
}
