// Fixed-duration throughput runner shared by every paper-table driver:
// spawns the worker threads, pins them (best effort), runs a warmup phase
// that is not counted, then a measured window, and aggregates per-thread
// operation counts. The factory is invoked ON the worker thread, so
// per-thread STM contexts and RNGs are created where they will be used.
//
// Driver-facing flags all map onto RunSpec: --threads -> RunSpec::threads,
// --duration-ms -> RunSpec::duration_ms (warmup defaults to a fifth of the
// measured window in every driver). Time-base selection is uniform across
// drivers: flag_timebase declares --timebase=, validate_timebase_flag
// fails loudly on typos right after parse, and each measurement cell then
// calls tb::make(spec) itself so every cell starts from a FRESH base with
// zeroed counters.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <chronostm/stm/facade.hpp>
#include <chronostm/timebase/facade.hpp>
#include <chronostm/util/affinity.hpp>
#include <chronostm/util/cli.hpp>

namespace chronostm {
namespace wl {

// Declares the uniform --timebase flag with a driver-appropriate default
// (single spec for single-base drivers, comma-separated list for series
// drivers).
inline Cli& flag_timebase(Cli& cli, const std::string& def) {
    return cli.flag_str("timebase", def, tb::spec_help());
}

// Resolve-and-discard for use INSIDE the driver's parse try/catch: a typo
// in --timebase then exits 2 with the registry's one-line message instead
// of terminating mid-run on an uncaught exception.
inline void validate_timebase_flag(const Cli& cli) {
    for (const auto& spec : tb::split_specs(cli.str("timebase")))
        tb::make(spec);
}

// Index of the first spec whose base NAME matches, or -1: drivers anchor
// base-specific shape checks ("does the sweep include shared?") on this.
inline long find_timebase_spec(const std::vector<std::string>& specs,
                               const char* name) {
    for (std::size_t i = 0; i < specs.size(); ++i)
        if (tb::parse_spec(specs[i]).name == name)
            return static_cast<long>(i);
    return -1;
}

// Engine selection is uniform like time-base selection, and goes through
// the stm::make() registry: --engine= takes full engine specs
// ("orec:bits=14,irrev=32"), comma-separated for one-series-per-engine
// sweeps, same grammar rules as --timebase (case-insensitive keys,
// later-key-wins, loud unknown-name/key errors). validate_engine_flag
// resolves every spec right after parse so a typo exits 2 with the
// registry's message instead of terminating mid-run.
inline Cli& flag_engine(Cli& cli, const std::string& def = "lsa") {
    return cli.flag_str("engine", def, stm::engine_spec_help());
}

inline std::vector<std::string> engine_specs(const Cli& cli) {
    return stm::split_engine_specs(cli.str("engine"));
}

inline void validate_engine_flag(const Cli& cli) {
    for (const auto& spec : stm::split_engine_specs(cli.str("engine")))
        stm::make(spec);
}

// First spec's engine name; legacy single-engine drivers branch on this.
inline bool engine_is_orec(const Cli& cli) {
    const auto specs = stm::split_engine_specs(cli.str("engine"));
    return !specs.empty() &&
           stm::parse_engine_spec(specs.front()).name == "orec";
}

// Append registry params to an engine spec (later key wins, so driver
// flags like --filter-stripes=0 can override whatever the spec said).
inline std::string engine_spec_with(std::string spec,
                                    const std::string& extra) {
    if (!extra.empty()) {
        spec += spec.find(':') == std::string::npos ? ':' : ',';
        spec += extra;
    }
    return spec;
}

// Epoch-filter stripe count, uniform across drivers that expose it:
// --filter-stripes= maps onto stm::CommonConfig::filter_stripes (rounded
// up to a power of two, clamped to 64 by the engines; 1 reproduces the
// single-word filter, 0 turns the filter off so CI can exercise the
// full-walk validation path). Comma-separated for sweep drivers.
inline Cli& flag_filter_stripes(Cli& cli, const std::string& def = "64") {
    return cli.flag_str(
        "filter-stripes", def,
        "epoch-filter stripe count(s), power of two up to 64; 1 = "
        "single-word filter, 0 = filter off (comma-separated for sweeps)");
}

inline std::vector<unsigned> filter_stripes_flag(const Cli& cli) {
    std::vector<unsigned> out;
    std::string cur;
    const std::string& raw = cli.str("filter-stripes");
    for (std::size_t i = 0; i <= raw.size(); ++i) {
        if (i == raw.size() || raw[i] == ',') {
            if (!cur.empty()) {
                const long v = std::stol(cur);
                if (v < 0 || v > 64)
                    throw std::invalid_argument(
                        "--filter-stripes wants values in [0,64], got '" +
                        cur + "'");
                out.push_back(static_cast<unsigned>(v));
                cur.clear();
            }
        } else {
            cur += raw[i];
        }
    }
    if (out.empty())
        throw std::invalid_argument("--filter-stripes needs a value");
    return out;
}

// Degradation-ladder knob, uniform across engine drivers:
// --irrevocable-threshold= maps onto StmConfig::irrevocable_threshold /
// OrecConfig::irrevocable_threshold (consecutive aborts before run()
// escalates a transaction to irrevocable serial mode; 0 disables).
inline Cli& flag_irrevocable_threshold(Cli& cli, long long def = 64) {
    return cli.flag_i64(
        "irrevocable-threshold", def,
        "consecutive aborts before escalating to irrevocable serial mode "
        "(0 = never escalate; retry exhaustion throws RetryExhausted)");
}

inline unsigned irrevocable_threshold_flag(const Cli& cli) {
    const long long v = cli.i64("irrevocable-threshold");
    if (v < 0)
        throw std::invalid_argument(
            "--irrevocable-threshold must be >= 0");
    return static_cast<unsigned>(v);
}

// Failpoint seed, uniform across drivers in chaos-enabled builds:
// --chaos-seed= reseeds the per-thread failpoint RNG streams so a chaos
// run is replayable (util/failpoints.hpp). Parsed in every build; it only
// has an effect when the binary was compiled with CHRONOSTM_FAILPOINTS.
inline Cli& flag_chaos_seed(Cli& cli, long long def = 0) {
    return cli.flag_i64(
        "chaos-seed", def,
        "failpoint RNG seed for CHRONOSTM_FAILPOINTS builds (0 = default "
        "stream; no effect in builds without failpoints)");
}

// Emit the engine counter block every stats-bearing driver appends to its
// --json rows: the snapshot/commit fast-path counters next to
// false_conflicts, plus the degradation-ladder and chaos counters
// (irrevocable escalations/commits, stall detection, injected faults).
// Templated on the stats and JSON emitter types so this header needs
// neither core include.
template <typename Json, typename Stats>
inline Json& tx_stats_json(Json& json, const Stats& s) {
    json.kv("false_conflicts", s.false_conflicts)
        .kv("extensions", s.extensions)
        .kv("extension_fast_hits", s.extension_fast_hits)
        .kv("validation_fast_hits", s.validation_fast_hits)
        .kv("stripe_fast_hits", s.stripe_fast_hits)
        .kv("stripe_walks", s.stripe_walks)
        .kv("ro_commits", s.ro_commits)
        .kv("backoff_us", s.backoff_us)
        .kv("irrevocable_commits", s.irrevocable_commits)
        .kv("escalations", s.escalations)
        .kv("stall_waits", s.stall_waits)
        .kv("stalled_aborts", s.stalled_aborts)
        .kv("injected_faults", s.injected_faults);
    return json;
}


struct RunSpec {
    unsigned threads = 1;
    double warmup_ms = 50;    // uncounted ramp-up
    double duration_ms = 250;  // measured window
    bool pin_threads = true;   // best-effort CPU pinning (Linux)
};

// Log-linear latency histogram: 16 linear sub-buckets per power of two,
// so a bucket spans at most 1/16 of its lower bound (<= 6.25% wide, about
// 3% worst-case error once percentiles interpolate inside the bucket).
// Values below 32 ns get exact one-nanosecond buckets. Recording is a
// count-leading-zeros, a shift and one increment: fixed size, no
// allocation, no data-dependent loop on the measured path.
struct LatencyHistogram {
    static constexpr unsigned kSubBits = 4;
    static constexpr unsigned kSub = 1u << kSubBits;  // 16 per octave
    // Exact buckets [0, 32), then octaves 2^5 .. 2^63.
    static constexpr unsigned kBuckets = (64 - kSubBits + 1) * kSub;
    std::uint64_t count[kBuckets] = {};
    std::uint64_t total = 0;

    void record(std::uint64_t ns) {
        ++count[index(ns)];
        ++total;
    }

    void merge(const LatencyHistogram& o) {
        for (unsigned b = 0; b < kBuckets; ++b) count[b] += o.count[b];
        total += o.total;
    }

    // Interpolated percentile, p in [0,1]: the value at rank p*(n-1),
    // placed linearly inside the bucket holding that rank (exact for the
    // one-nanosecond buckets); 0 when no samples were recorded.
    std::uint64_t percentile(double p) const {
        if (total == 0) return 0;
        const double rank = p * static_cast<double>(total - 1);
        std::uint64_t below = 0;
        for (unsigned b = 0; b < kBuckets; ++b) {
            const std::uint64_t c = count[b];
            if (c == 0) continue;
            if (static_cast<double>(below + c) > rank) {
                const std::uint64_t lo = lower(b);
                const std::uint64_t width =
                    b < 2 * kSub ? 1 : std::uint64_t{1} << (b / kSub - 1);
                if (width == 1) return lo;
                const double frac =
                    (rank - static_cast<double>(below) + 0.5) /
                    static_cast<double>(c);
                return lo + static_cast<std::uint64_t>(
                                static_cast<double>(width) * frac);
            }
            below += c;
        }
        return ~std::uint64_t{0};
    }

    static unsigned index(std::uint64_t v) {
        if (v < 2 * kSub) return static_cast<unsigned>(v);
        const unsigned e = 63u - static_cast<unsigned>(__builtin_clzll(v));
        const unsigned sub =
            static_cast<unsigned>(v >> (e - kSubBits)) & (kSub - 1);
        return (e - kSubBits + 1) * kSub + sub;
    }

    // Smallest value mapping to bucket b.
    static std::uint64_t lower(unsigned b) {
        if (b < 2 * kSub) return b;
        const unsigned e = b / kSub + kSubBits - 1;
        const std::uint64_t sub = b % kSub;
        return (std::uint64_t{1} << e) + (sub << (e - kSubBits));
    }
};

struct RunResult {
    std::vector<std::uint64_t> per_thread;  // measured ops per worker
    std::uint64_t total_ops = 0;
    double seconds = 0;        // actual measured-window length
    double mops_per_sec = 0;   // total_ops / seconds / 1e6
    // Per-operation latency over the measured window, merged across
    // workers, with the canonical percentiles pre-resolved.
    LatencyHistogram latency;
    std::uint64_t p50_ns = 0;
    std::uint64_t p99_ns = 0;
    std::uint64_t p999_ns = 0;
};

// Emit the per-txn latency keys every driver appends to its --json rows.
// Duck-typed on R so drivers can pass either the RunResult itself or their
// own per-cell structs that copied the three percentiles out of one.
template <typename Json, typename R>
inline Json& latency_json(Json& json, const R& r) {
    json.kv("p50_ns", r.p50_ns)
        .kv("p99_ns", r.p99_ns)
        .kv("p999_ns", r.p999_ns);
    return json;
}

// make_op(tid) must return a callable executed in a tight loop; whatever
// state it needs (context, rng) should live in the closure. Phases are
// fenced with one shared atomic the workers poll between operations.
template <typename Factory>
RunResult run_throughput(const RunSpec& spec, Factory&& make_op) {
    enum Phase : int { kSetup, kWarmup, kMeasure, kStop };
    std::atomic<int> phase{kSetup};
    std::atomic<unsigned> ready{0};

    const unsigned n = spec.threads == 0 ? 1 : spec.threads;
    std::vector<std::uint64_t> counts(n, 0);
    std::vector<LatencyHistogram> hists(n);
    std::vector<std::thread> workers;
    workers.reserve(n);

    for (unsigned tid = 0; tid < n; ++tid) {
        workers.emplace_back([&, tid] {
            if (spec.pin_threads) pin_to_cpu(tid);
            auto op = make_op(tid);
            LatencyHistogram hist;
            ready.fetch_add(1, std::memory_order_acq_rel);
            while (phase.load(std::memory_order_acquire) == kSetup)
                std::this_thread::yield();
            std::uint64_t measured = 0;
            // One clock read per op: each iteration's end timestamp is
            // the next one's start, so per-op latency costs a single
            // steady_clock::now() and a log-linear bucket increment.
            auto t_prev = std::chrono::steady_clock::now();
            for (;;) {
                const int p = phase.load(std::memory_order_relaxed);
                if (p == kStop) break;
                op();
                const auto t_now = std::chrono::steady_clock::now();
                if (p == kMeasure) {
                    ++measured;
                    hist.record(static_cast<std::uint64_t>(
                        std::chrono::duration_cast<std::chrono::nanoseconds>(
                            t_now - t_prev)
                            .count()));
                }
                t_prev = t_now;
            }
            counts[tid] = measured;
            hists[tid] = hist;
        });
    }

    while (ready.load(std::memory_order_acquire) < n)
        std::this_thread::yield();

    const auto sleep_ms = [](double ms) {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
            ms > 0 ? ms : 0));
    };
    phase.store(kWarmup, std::memory_order_release);
    sleep_ms(spec.warmup_ms);
    const auto t0 = std::chrono::steady_clock::now();
    phase.store(kMeasure, std::memory_order_release);
    sleep_ms(spec.duration_ms);
    phase.store(kStop, std::memory_order_release);
    const auto t1 = std::chrono::steady_clock::now();
    for (auto& w : workers) w.join();

    RunResult res;
    res.per_thread = std::move(counts);
    for (const auto c : res.per_thread) res.total_ops += c;
    res.seconds = std::chrono::duration<double>(t1 - t0).count();
    if (res.seconds > 0)
        res.mops_per_sec =
            static_cast<double>(res.total_ops) / res.seconds / 1e6;
    for (const auto& h : hists) res.latency.merge(h);
    res.p50_ns = res.latency.percentile(0.50);
    res.p99_ns = res.latency.percentile(0.99);
    res.p999_ns = res.latency.percentile(0.999);
    return res;
}

// The paper's Figure 2 sweeps 1..16 processors; we keep the canonical
// power-of-two points. max_threads caps the sweep (0 = the paper's 16,
// the default for simulated sweeps that need no real CPUs).
inline std::vector<unsigned> figure2_thread_sweep(unsigned max_threads = 0) {
    const unsigned cap = max_threads == 0 ? 16 : max_threads;
    std::vector<unsigned> sweep;
    for (const unsigned n : {1u, 2u, 4u, 8u, 16u})
        if (n <= cap) sweep.push_back(n);
    if (sweep.empty()) sweep.push_back(1);
    return sweep;
}

}  // namespace wl
}  // namespace chronostm
