// Log-linear latency histogram: 16 linear sub-buckets per power of two, so
// a bucket spans at most 1/16 of its lower bound (<= 6.25% width, about 3%
// worst-case error once percentiles interpolate inside the bucket). Values
// below 32 get exact buckets. Fixed size, no allocation on record.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace perfbench {

class Histogram {
 public:
    static constexpr unsigned kSubBits = 4;
    static constexpr unsigned kSub = 1u << kSubBits;  // 16 per octave
    static constexpr unsigned kOctaves = 32;  // up to 2^36 ticks, ~30 s
    static constexpr std::size_t kBuckets = (kOctaves + 1) * kSub;

    void record(std::uint64_t v) noexcept {
        ++counts_[index(v)];
        ++n_;
    }

    void merge(const Histogram& o) noexcept {
        for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
        n_ += o.n_;
    }

    std::uint64_t count() const noexcept { return n_; }

    // Interpolated quantile q in [0, 1]: the value at rank q*(n-1), placed
    // linearly inside the bucket holding that rank. 0 when empty.
    double quantile(double q) const noexcept {
        if (n_ == 0) return 0.0;
        const double rank = q * static_cast<double>(n_ - 1);
        std::uint64_t below = 0;
        for (std::size_t i = 0; i < kBuckets; ++i) {
            const std::uint64_t c = counts_[i];
            if (c == 0) continue;
            if (static_cast<double>(below + c) > rank) {
                const double lo = static_cast<double>(lower(i));
                const double hi = static_cast<double>(lower(i + 1));
                const double frac =
                    (rank - static_cast<double>(below) + 0.5) /
                    static_cast<double>(c);
                return lo + (hi - lo) * frac;
            }
            below += c;
        }
        return static_cast<double>(lower(kBuckets));
    }

 private:
    static std::size_t index(std::uint64_t v) noexcept {
        if (v < 2 * kSub) return static_cast<std::size_t>(v);
        const unsigned e = 63u - static_cast<unsigned>(__builtin_clzll(v));
        if (e > kOctaves + kSubBits - 1) return kBuckets - 1;
        const unsigned sub =
            static_cast<unsigned>(v >> (e - kSubBits)) & (kSub - 1);
        return (e - kSubBits + 1) * kSub + sub;
    }

    // Smallest value mapping to bucket i.
    static std::uint64_t lower(std::size_t i) noexcept {
        if (i < 2 * kSub) return i;
        const unsigned e = static_cast<unsigned>(i / kSub) + kSubBits - 1;
        const std::uint64_t sub = i % kSub;
        return (std::uint64_t{1} << e) + (sub << (e - kSubBits));
    }

    std::array<std::uint64_t, kBuckets> counts_{};
    std::uint64_t n_ = 0;
};

}  // namespace perfbench
