// chronostm end-to-end benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--span-dir <dir>]
//
// One workload per process, two closed-loop worker threads. --trace 0
// measures the end-to-end metrics; --trace 1 runs the workload twice (plain,
// then through TracePolicy + CountingTimeBase) and reports per-layer
// metrics. The last stdout line is one JSON object: correct, attempted,
// failed, metrics. See perfbench/README.md.

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <chronostm/stm/facade.hpp>
#include <chronostm/timebase/facade.hpp>

#include "clock.hpp"
#include "hist.hpp"
#include "trace.hpp"
#include "workloads.hpp"

// ---- heap traffic counter (alloc.* metrics) ---------------------------------
// Replacement global operator new: per-thread counts, no shared writes.

namespace perfbench {
struct AllocCounts {
    std::uint64_t news = 0;
    std::uint64_t bytes = 0;
};
inline thread_local AllocCounts tl_alloc;
}  // namespace perfbench

void* operator new(std::size_t n) {
    ++perfbench::tl_alloc.news;
    perfbench::tl_alloc.bytes += n;
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
    throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {
namespace {

constexpr unsigned kThreads = 2;
constexpr double kWarmupSeconds = 1.0;
constexpr std::size_t kSpanCap = std::size_t{1} << 18;  // per thread
// Set-up builds per run, and the pause between them (see run_plain).
constexpr int kSetupBuilds = 24;
constexpr auto kSetupGap = std::chrono::milliseconds(250);

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    int seconds = 0;
    bool trace = false;
    std::string span_dir;
};

Args parse_args(int argc, char** argv) {
    Args a;
    bool have[4] = {false, false, false, false};
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
        const std::string v = argv[++i];
        if (k == "--workload") {
            a.workload = v;
            have[0] = true;
        } else if (k == "--seed") {
            a.seed = std::stoull(v);
            have[1] = true;
        } else if (k == "--seconds") {
            a.seconds = std::stoi(v);
            have[2] = true;
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                throw std::invalid_argument("--trace wants 0 or 1");
            a.trace = v == "1";
            have[3] = true;
        } else if (k == "--span-dir") {
            a.span_dir = v;
        } else {
            throw std::invalid_argument("unknown flag " + k);
        }
    }
    for (bool h : have)
        if (!h)
            throw std::invalid_argument(
                "need --workload, --seed, --seconds and --trace");
    if (a.seconds < 1 || a.seconds > 600)
        throw std::invalid_argument("--seconds must be in [1, 600]");
    return a;
}

// Mean of the middle half of the sorted values.
double interquartile_mean(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t cut = v.size() / 4;
    double sum = 0;
    for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
    return sum / static_cast<double>(v.size() - 2 * cut);
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Host-drift diagnostic: a fixed single-thread kernel (pointer chase over a
// 1 MiB random cycle, independent of the run's seed), median ns of 7 reps.
// Also ramps the host before set-up.
double reference_kernel_ns() {
    constexpr std::uint32_t n = 1u << 18;
    std::vector<std::uint32_t> next(n);
    for (std::uint32_t i = 0; i < n; ++i) next[i] = i;
    std::uint64_t s = 0x5eed;
    for (std::uint32_t i = n - 1; i > 0; --i)  // Sattolo: one n-cycle
        std::swap(next[i], next[mix(s) % i]);
    std::vector<double> reps;
    std::uint32_t at = 0;
    for (int r = 0; r < 7; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        for (std::uint32_t i = 0; i < 4 * n; ++i) at = next[at];
        const auto t1 = std::chrono::steady_clock::now();
        reps.push_back(
            std::chrono::duration<double, std::nano>(t1 - t0).count());
    }
    if (at == n) std::puts("");  // keep the chase observable
    return median(reps);
}

// Peak resident set of this process in MiB: VmHWM of /proc/self/status.
// Not getrusage's ru_maxrss, which Linux carries across exec, so it starts
// at the resident set of the launching python process (~17 MiB).
double peak_rss_mb() {
    std::ifstream in("/proc/self/status");
    for (std::string line; std::getline(in, line);)
        if (line.compare(0, 6, "VmHWM:") == 0)
            return std::stod(line.substr(6)) / 1024.0;
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

// ---- worker placement -------------------------------------------------------
// The two workers share cache lines (the time base's counter, orecs, table
// cells), so their speed follows the cross-CPU cache-line round trip. On a
// VM that differs by up to ~8x between CPU pairs (50 to 430 ns on a shared
// 4-vCPU Xeon VM) and the scheduler's pick changes from run to run, so the
// workers run pinned to the pair of CPUs with the shortest round trip,
// measured at start-up.

void pin_self(const cpu_set_t& set) {
    pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

void pin_self(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pin_self(one);
}

// Mean ns of one cache-line round trip between CPUs a and b.
double round_trip_ns(int a, int b) {
    constexpr int kTrips = 4000;
    alignas(64) std::atomic<int> flag{-1};
    std::thread partner([&] {
        pin_self(b);
        flag.store(0, std::memory_order_release);
        for (int i = 0; i < kTrips; ++i) {
            while (flag.load(std::memory_order_acquire) != 2 * i + 1) {
            }
            flag.store(2 * i + 2, std::memory_order_release);
        }
    });
    pin_self(a);
    while (flag.load(std::memory_order_acquire) != 0) {
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kTrips; ++i) {
        flag.store(2 * i + 1, std::memory_order_release);
        while (flag.load(std::memory_order_acquire) != 2 * i + 2) {
        }
    }
    const auto t1 = std::chrono::steady_clock::now();
    partner.join();
    return std::chrono::duration<double, std::nano>(t1 - t0).count() / kTrips;
}

// CPUs for worker 0 and 1; {-1, -1} (no pinning) with fewer than 2 CPUs.
std::array<int, 2> fastest_pair() {
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return {-1, -1};
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    std::array<int, 2> best{-1, -1};
    double best_ns = 0;
    for (std::size_t i = 0; i < cpus.size(); ++i)
        for (std::size_t j = i + 1; j < cpus.size(); ++j) {
            std::vector<double> rt;
            for (int r = 0; r < 3; ++r)
                rt.push_back(round_trip_ns(cpus[i], cpus[j]));
            const double ns = median(rt);
            if (best[0] < 0 || ns < best_ns) {
                best = {cpus[i], cpus[j]};
                best_ns = ns;
            }
        }
    pin_self(allowed);
    if (best[0] >= 0)
        std::printf("workers pinned to CPUs %d and %d (round trip %.0f ns)\n",
                    best[0], best[1], best_ns);
    return best;
}

// Set once by main() before any phase runs.
std::array<int, 2> g_worker_cpus{-1, -1};

// ---- one timed phase --------------------------------------------------------

// A run is cut into 50 ms windows (see summarize).
constexpr double kWindowSeconds = 0.05;

unsigned windows_for(double seconds) {
    return std::max(1u, static_cast<unsigned>(seconds / kWindowSeconds + 0.5));
}

// What one worker records in one phase: completed ops per window by class,
// and the latency (in ticks) of every op of the measured windows, by class.
// The last window is the discard bin for ops that start after the phase's
// last window. Records are cache-line aligned, so one worker's counts never
// share a line with another's.
struct alignas(64) ThreadRecord {
    std::vector<std::array<std::uint64_t, 2>> ops;  // [window][class]
    std::array<Histogram, 2> hist;
};

struct PhaseResult {
    std::vector<double> window_s;  // wall seconds per measured window
    std::vector<ThreadRecord> threads;
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;  // RetryExhausted or other op exceptions
    AllocCounts alloc;
    std::uint64_t limbo_peak = 0;
};

// Runs the workers for `seconds`, split into `nwin` windows (nwin == 0: an
// unrecorded warm-up). `traces` non-null: each worker publishes its
// ThreadTrace through tl_trace.
template <typename W>
PhaseResult run_phase(W& wl, std::vector<typename W::Worker>& ws,
                      double seconds, unsigned nwin,
                      std::vector<ThreadTrace>* traces) {
    using clk = std::chrono::steady_clock;
    PhaseResult res;
    res.threads.assign(
        ws.size(),
        ThreadRecord{std::vector<std::array<std::uint64_t, 2>>(nwin + 1), {}});
    std::vector<std::uint64_t> fails(ws.size(), 0);
    std::vector<AllocCounts> allocs(ws.size());
    const unsigned discard = nwin;
    std::atomic<unsigned> window{nwin == 0 ? discard : 0u};
    std::atomic<bool> stop{false};

    auto body = [&](unsigned tid) {
        if (g_worker_cpus[tid] >= 0) pin_self(g_worker_cpus[tid]);
        if (traces != nullptr) tl_trace = &(*traces)[tid];
        const AllocCounts a0 = tl_alloc;
        auto& rw = res.threads[tid];
        auto& w = ws[tid];
        std::uint64_t failed = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            const unsigned win = window.load(std::memory_order_relaxed);
            const std::uint64_t t0 = ticks();
            OpClass c;
            try {
                if constexpr (kTraced<typename W::PolicyType>) {
                    OpScope span;
                    c = wl.op(w, tid);
                } else {
                    c = wl.op(w, tid);
                }
            } catch (const std::exception&) {
                ++failed;
                continue;
            }
            const std::uint64_t t1 = ticks();
            ++rw.ops[win][c];
            if (win != discard) rw.hist[c].record(t1 - t0);
            wl.after_op(w, tid);
        }
        fails[tid] = failed;
        allocs[tid] = AllocCounts{tl_alloc.news - a0.news,
                                  tl_alloc.bytes - a0.bytes};
        tl_trace = nullptr;
    };

    std::vector<std::thread> threads;
    const auto start = clk::now();
    for (unsigned t = 0; t < ws.size(); ++t) threads.emplace_back(body, t);
    const unsigned wins = nwin == 0 ? 1 : nwin;
    const double win_s = seconds / wins;
    chs::stm::TxHeap* heap = traces != nullptr ? wl.heap() : nullptr;
    auto last = start;
    for (unsigned w = 0; w < wins; ++w) {
        const auto deadline =
            start + std::chrono::duration_cast<clk::duration>(
                        std::chrono::duration<double>(win_s * (w + 1)));
        for (auto now = clk::now(); now < deadline; now = clk::now()) {
            std::this_thread::sleep_for(
                std::min<clk::duration>(deadline - now,
                                        std::chrono::milliseconds(10)));
            if (heap != nullptr)
                res.limbo_peak =
                    std::max(res.limbo_peak, heap->stats().limbo);
        }
        const auto now = clk::now();
        if (nwin != 0) {
            window.store(w + 1 < nwin ? w + 1 : discard,
                         std::memory_order_relaxed);
            res.window_s.push_back(
                std::chrono::duration<double>(now - last).count());
        }
        last = now;
    }
    stop.store(true);
    for (auto& t : threads) t.join();

    for (unsigned t = 0; t < ws.size(); ++t) {
        for (const auto& n : res.threads[t].ops) res.ops += n[0] + n[1];
        res.failed += fails[t];
        res.alloc.news += allocs[t].news;
        res.alloc.bytes += allocs[t].bytes;
    }
    return res;
}

// The host this runs on swings 1.5-2x for tens of ms to seconds at a time
// as neighbours come and go, so throughput is the mean rate of the fastest
// tenth of the run's 50 ms windows. Latency quantiles are taken over every
// op of every window, so no op is dropped for being slow.
constexpr double kKeptShare = 0.10;

struct EndToEnd {
    double throughput = 0, read_p50 = 0, read_p99 = 0, upd_p50 = 0,
           upd_p99 = 0;
    std::uint64_t read_n = 0, upd_n = 0;
    std::size_t windows = 0, kept = 0;
};

template <typename W>
EndToEnd summarize(const PhaseResult& r, const TickScale& sc) {
    EndToEnd e;
    e.windows = r.window_s.size();
    std::vector<double> rate;  // counted ops/s per window
    for (std::size_t w = 0; w < e.windows; ++w) {
        double counted = 0;
        for (const auto& rt : r.threads)
            for (unsigned c = 0; c < 2; ++c)
                if (W::counts_for_throughput(static_cast<OpClass>(c)))
                    counted += static_cast<double>(rt.ops[w][c]);
        rate.push_back(counted / r.window_s[w]);
    }
    std::sort(rate.rbegin(), rate.rend());
    e.kept = std::max<std::size_t>(
        1, static_cast<std::size_t>(kKeptShare * e.windows + 0.5));
    for (std::size_t i = 0; i < e.kept; ++i) e.throughput += rate[i] / e.kept;

    std::array<Histogram, 2> h;
    for (const auto& rt : r.threads)
        for (unsigned c = 0; c < 2; ++c) h[c].merge(rt.hist[c]);
    auto us = [&](OpClass c, double q) { return sc.ns(h[c].quantile(q)) / 1e3; };
    e.read_p50 = us(kRead, 0.50);
    e.read_p99 = us(kRead, 0.99);
    e.upd_p50 = us(kUpdate, 0.50);
    e.upd_p99 = us(kUpdate, 0.99);
    e.read_n = h[kRead].count();
    e.upd_n = h[kUpdate].count();
    return e;
}

// ---- output -----------------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& ms) {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < ms.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                    ms[i].unit);
    std::printf("}}\n");
    std::fflush(stdout);
}

// ---- workload runs ---------------------------------------------------------

// Builds the workload's initial state: engine construction plus the
// prefill transactions. `secs` receives the build time.
template <typename W, typename MakeEngine>
std::unique_ptr<W> build(const std::vector<std::uint32_t>& order,
                         const TickScale& sc, MakeEngine&& make_engine,
                         double& secs) {
    const auto t0 = std::chrono::steady_clock::now();
    auto wl = std::make_unique<W>(make_engine(), order, sc.ns_per_tick);
    secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
               .count();
    return wl;
}

template <template <typename> class WT>
int run_plain(const Args& a, const std::vector<std::uint32_t>& order,
              const TickScale& sc, double ref_ns) {
    using W = WT<chs::ds::EnginePolicy>;
    auto plain_engine = [] {
        return chs::stm::make(W::kEngine, chs::tb::make("shared"));
    };
    // The measured state is always the process's first build. The extra
    // builds run after the measurement, so heap reuse from a torn-down
    // build never shapes the measured layout. A build's time flips between
    // two modes as the host's memory speed does (e.g. 6.6 vs 10.5 ms for
    // the skiplist), and a mode can last seconds, so the builds are spread
    // over about six seconds and setup_s is their interquartile mean:
    // robust to a stray slow build, and smooth in the share of slow-mode
    // builds where a median would jump between modes.
    // peak_rss_mb is read before the extra builds, so it is the peak of the
    // measured process.
    std::vector<double> setups(1);
    auto wl = build<W>(order, sc, plain_engine, setups[0]);
    auto ws = wl->make_workers(a.seed, kThreads);
    run_phase(*wl, ws, kWarmupSeconds, 0, nullptr);
    const unsigned nwin = windows_for(a.seconds);
    PhaseResult r = run_phase(*wl, ws, a.seconds, nwin, nullptr);
    std::string log;
    const std::uint64_t bad = wl->teardown(ws, log);
    const double rss_mb = peak_rss_mb();
    wl.reset();
    for (int k = 1; k < kSetupBuilds; ++k) {
        std::this_thread::sleep_for(kSetupGap);
        setups.emplace_back();
        build<W>(order, sc, plain_engine, setups.back());
    }
    const double setup_s = interquartile_mean(setups);
    const EndToEnd e = summarize<W>(r, sc);
    const std::uint64_t failed = r.failed + bad;

    std::printf("setup: %zu builds, interquartile mean %.4f s (min %.4f, "
                "max %.4f)\n",
                setups.size(), setup_s,
                *std::min_element(setups.begin(), setups.end()),
                *std::max_element(setups.begin(), setups.end()));
    std::printf("workload %s engine %s threads %u: throughput from the "
                "fastest %zu of %zu windows of %.3f s\n",
                a.workload.c_str(), W::kEngine, kThreads, e.kept, e.windows,
                static_cast<double>(a.seconds) / nwin);
    std::printf("latency samples, all windows: read %llu, update %llu "
                "(p99 has %llu / %llu samples beyond it)\n",
                static_cast<unsigned long long>(e.read_n),
                static_cast<unsigned long long>(e.upd_n),
                static_cast<unsigned long long>(e.read_n / 100),
                static_cast<unsigned long long>(e.upd_n / 100));
    std::printf("host.ref_kernel_ns %.0f (host-drift diagnostic)\n", ref_ns);
    std::printf("checks: %s%s\n", bad == 0 ? "all passed" : "FAILED: ",
                log.c_str());
    print_result(failed == 0, r.ops + r.failed + bad, failed,
                 {{"throughput_ops_s", e.throughput, "1/s"},
                  {"read_p50_us", e.read_p50, "us"},
                  {"read_p99_us", e.read_p99, "us"},
                  {"update_p50_us", e.upd_p50, "us"},
                  {"update_p99_us", e.upd_p99, "us"},
                  {"setup_s", setup_s, "s"},
                  {"peak_rss_mb", rss_mb, "MB"}});
    return failed == 0 ? 0 : 1;
}

// Per-layer numbers from the sampled span trees.
struct SpanSummary {
    double load_ticks = 0, store_ticks = 0;
    std::uint64_t loads = 0, stores = 0;
    double begin = 0, body = 0, commit_ro = 0, commit_upd = 0,
           ds_self = 0;
    std::uint64_t ops = 0, ro_commits = 0, upd_commits = 0;
    std::uint64_t violations = 0;
};

bool nests(SpanKind parent, SpanKind child) {
    switch (child) {
        case SpanKind::kRun: return parent == SpanKind::kOp;
        case SpanKind::kAttempt: return parent == SpanKind::kRun;
        case SpanKind::kLoad:
        case SpanKind::kStore: return parent == SpanKind::kAttempt;
        case SpanKind::kOp: return false;
    }
    return false;
}

void summarize_spans(const std::vector<Span>& sp, double ovh, SpanSummary& s) {
    std::size_t i = 0;
    while (i < sp.size()) {
        const std::size_t op = i++;
        std::size_t run = kNoSpan, first = kNoSpan, last = kNoSpan;
        unsigned acc_in_last = 0;
        for (; i < sp.size() && sp[i].kind != SpanKind::kOp; ++i) {
            const Span& c = sp[i];
            const bool ok = c.parent < i && c.op == sp[c.parent].op &&
                            c.op == sp[op].op &&
                            nests(sp[c.parent].kind, c.kind) &&
                            sp[c.parent].t0 <= c.t0 && c.t0 <= c.t1 &&
                            c.t1 <= sp[c.parent].t1;
            if (!ok) ++s.violations;
            if (c.kind == SpanKind::kRun) run = i;
            if (c.kind == SpanKind::kAttempt) {
                if (first == kNoSpan) first = i;
                last = i;
                acc_in_last = 0;
            }
            if (c.kind == SpanKind::kLoad) {
                s.load_ticks += static_cast<double>(c.t1 - c.t0) - ovh;
                ++s.loads;
                ++acc_in_last;
            }
            if (c.kind == SpanKind::kStore) {
                s.store_ticks += static_cast<double>(c.t1 - c.t0) - ovh;
                ++s.stores;
                ++acc_in_last;
            }
        }
        if (sp[op].t0 > sp[op].t1) ++s.violations;
        // Timings come only from trees with a run span and an attempt span
        // inside it. Past kMaxAttemptSpans retries the last recorded attempt
        // is not the committing one; such ops are too rare to move the means
        // (attempts per op is ~1.00001 on every workload).
        if (run == kNoSpan || first == kNoSpan ||
            sp[last].t1 > sp[run].t1)
            continue;
        const Span& r = sp[run];
        ++s.ops;
        s.ds_self += static_cast<double>((sp[op].t1 - sp[op].t0) -
                                         (r.t1 - r.t0));
        s.begin += static_cast<double>(sp[first].t0 - r.t0);
        s.body += static_cast<double>(sp[last].t1 - sp[last].t0) -
                  acc_in_last * ovh;
        const double commit = static_cast<double>(r.t1 - sp[last].t1);
        if (sp[last].stored) {
            s.commit_upd += commit;
            ++s.upd_commits;
        } else {
            s.commit_ro += commit;
            ++s.ro_commits;
        }
    }
}

void write_spans(const std::string& path, const std::vector<ThreadTrace>& ts,
                 std::uint64_t t_base, const TickScale& sc) {
    std::ofstream out(path);
    if (!out) {
        std::printf("spans: could not write %s\n", path.c_str());
        return;
    }
    out << "thread\top_id\tspan\tparent\tkind\tstart_ns\tend_ns\n";
    for (const auto& t : ts) {
        const auto& sp = t.spans();
        for (std::size_t i = 0; i < sp.size(); ++i) {
            out << t.tid() << '\t' << sp[i].op << '\t' << i << '\t'
                << (sp[i].parent == kNoSpan ? -1
                                            : static_cast<long>(sp[i].parent))
                << '\t' << span_name(sp[i].kind) << '\t'
                << static_cast<std::uint64_t>(sc.ns(
                       static_cast<double>(sp[i].t0 - t_base)))
                << '\t'
                << static_cast<std::uint64_t>(sc.ns(
                       static_cast<double>(sp[i].t1 - t_base)))
                << '\n';
        }
    }
    std::printf("spans: %s\n", path.c_str());
}

chs::TxStats stats_delta(const chs::TxStats& b,
                              const chs::TxStats& a) {
    chs::TxStats d(b.commits() - a.commits(), b.aborts() - a.aborts(),
                        b.helped_commits - a.helped_commits, 0,
                        b.false_conflicts - a.false_conflicts);
    d.extensions = b.extensions - a.extensions;
    d.extension_fast_hits = b.extension_fast_hits - a.extension_fast_hits;
    d.stripe_fast_hits = b.stripe_fast_hits - a.stripe_fast_hits;
    d.stripe_walks = b.stripe_walks - a.stripe_walks;
    d.ro_commits = b.ro_commits - a.ro_commits;
    d.backoff_us = b.backoff_us - a.backoff_us;
    d.escalations = b.escalations - a.escalations;
    d.stall_waits = b.stall_waits - a.stall_waits;
    return d;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

template <template <typename> class WT>
int run_traced(const Args& a, const std::vector<std::uint32_t>& order,
               const TickScale& sc, double ref_ns) {
    const double half = a.seconds / 2.0;
    const unsigned nwin = windows_for(half);
    std::uint64_t attempted = 0, failed = 0;
    std::string log;

    // Plain twin: the untraced throughput the overhead ratio divides by.
    double thr_plain = 0;
    {
        using W = WT<chs::ds::EnginePolicy>;
        double setup_s = 0;
        auto wl = build<W>(order, sc, [] {
            return chs::stm::make(W::kEngine, chs::tb::make("shared"));
        }, setup_s);
        auto ws = wl->make_workers(a.seed, kThreads);
        run_phase(*wl, ws, kWarmupSeconds, 0, nullptr);
        PhaseResult r = run_phase(*wl, ws, half, nwin, nullptr);
        const std::uint64_t bad = wl->teardown(ws, log);
        thr_plain = summarize<W>(r, sc).throughput;
        attempted += r.ops + r.failed + bad;
        failed += r.failed + bad;
    }

    using W = WT<TracePolicy>;
    chs::tb::SharedCounterTimeBase base;
    CountingTimeBase counting(base);
    chs::stm::Engine eng;
    double setup_s = 0;
    auto wl = build<W>(order, sc, [&] {
        eng = chs::stm::make(W::kEngine, chs::tb::TimeBase::wrap_external(
                                             counting, "counting-shared"));
        return eng;
    }, setup_s);
    auto ws = wl->make_workers(a.seed, kThreads);
    run_phase(*wl, ws, kWarmupSeconds, 0, nullptr);

    std::vector<ThreadTrace> traces;
    for (unsigned t = 0; t < kThreads; ++t) traces.emplace_back(t, kSpanCap);
    const auto st0 = eng.collected_stats();
    const auto tb0 = counting.total();
    const auto hp0 = wl->heap() ? wl->heap()->stats() : chs::eb::DomainStats{};
    const std::uint64_t t_base = ticks();
    PhaseResult r = run_phase(*wl, ws, half, nwin, &traces);
    const auto st = stats_delta(eng.collected_stats(), st0);
    const auto tb1 = counting.total();
    const auto hp1 = wl->heap() ? wl->heap()->stats() : chs::eb::DomainStats{};
    const std::uint64_t bad = wl->teardown(ws, log);
    const double thr_traced = summarize<W>(r, sc).throughput;

    std::uint64_t ops = 0, attempts = 0, loads = 0, stores = 0, wasted = 0;
    SpanSummary s;
    for (const auto& t : traces) {
        ops += t.ops;
        wasted += t.wasted_ticks;
        attempts += t.attempts;
        loads += t.loads;
        stores += t.stores;
        summarize_spans(t.spans(), sc.overhead_ticks, s);
    }
    if (s.violations != 0)
        log += std::to_string(s.violations) + " spans do not nest; ";
    if (!a.span_dir.empty())
        write_spans(a.span_dir + "/" + a.workload + ".spans.tsv", traces,
                    t_base, sc);

    const double n = static_cast<double>(ops);
    // Sampled timings have the timer's cost taken out; a call cheaper than
    // the timer's resolution reads 0, not negative.
    auto ns = [&](double t, std::uint64_t k) {
        return k == 0 ? 0.0 : std::max(0.0, sc.ns(t / static_cast<double>(k)));
    };
    const double ovh = sc.overhead_ticks;
    const std::uint64_t n_get_time = tb1.get_time - tb0.get_time;
    const std::uint64_t n_new_ts = tb1.get_new_ts - tb0.get_new_ts;
    const std::uint64_t time_samples = tb1.time_samples - tb0.time_samples;
    const std::uint64_t ts_samples = tb1.ts_samples - tb0.ts_samples;
    const double commits = static_cast<double>(st.commits());
    const double txns = commits + static_cast<double>(st.aborts());
    const double validations =
        static_cast<double>(st.stripe_fast_hits + st.stripe_walks);

    attempted += r.ops + r.failed + bad;
    failed += r.failed + bad + s.violations;
    std::printf("workload %s engine %s traced: %llu ops, %llu sampled span "
                "trees, %llu load / %llu store spans, timer overhead %.1f ns\n",
                a.workload.c_str(), W::kEngine,
                static_cast<unsigned long long>(ops),
                static_cast<unsigned long long>(s.ops),
                static_cast<unsigned long long>(s.loads),
                static_cast<unsigned long long>(s.stores), sc.ns(ovh));
    std::printf("throughput plain %.0f /s, traced %.0f /s\n", thr_plain,
                thr_traced);
    std::printf("checks: %s%s\n", log.empty() ? "all passed" : "FAILED: ",
                log.c_str());
    print_result(
        failed == 0, attempted, failed,
        {{"stm.load_ns", ns(s.load_ticks, s.loads), "ns"},
         {"stm.loads_per_op", ratio(loads, n), "count"},
         {"stm.store_ns", ns(s.store_ticks, s.stores), "ns"},
         {"stm.stores_per_op", ratio(stores, n), "count"},
         {"stm.begin_ns", ns(s.begin, s.ops), "ns"},
         {"stm.body_ns", ns(s.body, s.ops), "ns"},
         {"stm.commit_ro_ns", ns(s.commit_ro, s.ro_commits), "ns"},
         {"stm.commit_update_ns", ns(s.commit_upd, s.upd_commits), "ns"},
         {"stm.attempts_per_op", ratio(attempts, n), "count"},
         {"stm.wasted_ns_per_op", ns(static_cast<double>(wasted), ops), "ns"},
         {"timebase.get_time_per_op", ratio(n_get_time, n), "count"},
         {"timebase.get_time_ns",
          ns(static_cast<double>(tb1.time_ticks - tb0.time_ticks) -
                 ovh * time_samples,
             time_samples),
          "ns"},
         {"timebase.get_new_ts_per_op", ratio(n_new_ts, n), "count"},
         {"timebase.get_new_ts_ns",
          ns(static_cast<double>(tb1.ts_ticks - tb0.ts_ticks) -
                 ovh * ts_samples,
             ts_samples),
          "ns"},
         {"core.extensions_per_op", ratio(st.extensions, n), "count"},
         {"core.extension_fast_hit_ratio",
          ratio(st.extension_fast_hits, st.extensions), "ratio"},
         {"core.stripe_fast_hit_ratio", ratio(st.stripe_fast_hits, validations),
          "ratio"},
         {"core.stripe_walks_per_op", ratio(st.stripe_walks, n), "count"},
         {"core.abort_ratio", ratio(st.aborts(), txns), "ratio"},
         {"core.backoff_us_per_op", ratio(st.backoff_us, n), "us"},
         {"core.stall_waits_per_op", ratio(st.stall_waits, n), "count"},
         {"core.escalations_per_mop", ratio(st.escalations * 1e6, n), "count"},
         {"core.ro_commit_share", ratio(st.ro_commits, commits), "ratio"},
         {"core.false_conflicts_per_op", ratio(st.false_conflicts, n), "count"},
         {"core.helped_commits_per_op", ratio(st.helped_commits, n), "count"},
         {"ds.self_ns", ns(s.ds_self, s.ops), "ns"},
         {"epochs.retired_per_op", ratio(hp1.retired - hp0.retired, n),
          "count"},
         {"epochs.freed_per_op", ratio(hp1.freed - hp0.freed, n), "count"},
         {"epochs.advances_per_kop",
          ratio((hp1.advances - hp0.advances) * 1e3, n), "count"},
         {"epochs.limbo_peak", static_cast<double>(r.limbo_peak), "count"},
         {"alloc.news_per_op", ratio(r.alloc.news, n), "count"},
         {"alloc.bytes_per_op", ratio(r.alloc.bytes, n), "B"},
         {"trace.overhead_ratio", ratio(thr_traced, thr_plain), "ratio"},
         {"host.ref_kernel_ns", ref_ns, "ns"}});
    return failed == 0 ? 0 : 1;
}

template <template <typename> class WT>
int run(const Args& a, const TickScale& sc, double ref_ns) {
    const auto order =
        permutation(WT<chs::ds::EnginePolicy>::kOrderSize, a.seed);
    return a.trace ? run_traced<WT>(a, order, sc, ref_ns)
                   : run_plain<WT>(a, order, sc, ref_ns);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    Args a;
    try {
        a = parse_args(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
    try {
        g_worker_cpus = fastest_pair();
        const TickScale sc = TickScale::calibrate();
        const double ref_ns = reference_kernel_ns();
        if (a.workload == "skiplist-read") return run<SkiplistRead>(a, sc, ref_ns);
        if (a.workload == "hashmap-update")
            return run<HashmapUpdate>(a, sc, ref_ns);
        if (a.workload == "bank-audit") return run<BankAudit>(a, sc, ref_ns);
        std::fprintf(stderr,
                     "perfbench: unknown workload '%s' (skiplist-read, "
                     "hashmap-update, bank-audit)\n",
                     a.workload.c_str());
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
