// Microbenchmarks of the raw time-base operations (google-benchmark).
// These are the numbers everything else in the paper derives from: getTime
// and getNewTS cost per base, single-threaded and under thread contention.
// Expected: counter get_new_ts degrades with threads (fetch_add on one
// line); clock reads do not.
//
// Facade-overhead rows: every BM_Facade_<base> row runs the SAME operation
// through the type-erased tb::ThreadClock that the matching direct row
// runs through the concrete template call -- the dispatch cost of the
// runtime-pluggable facade is measured here, not assumed, and
// scripts/check_bench.py --facade-tolerance gates the ratio in CI. The
// direct rows double as the "thin templated shim" the comparison needs:
// nothing else in the tree calls concrete clocks directly anymore.
//
// The uniform --timebase=<spec[,spec...]> flag adds facade rows for any
// registry spec (e.g. --timebase=batched:B=16).

#include <benchmark/benchmark.h>

#include <cstdio>

#include <memory>
#include <string>

#include <chronostm/timebase/facade.hpp>
#include <chronostm/util/gbench_main.hpp>

namespace {

using namespace chronostm;

tb::SharedCounterTimeBase g_counter;
tb::Tl2SharedCounterTimeBase g_tl2_counter;
tb::BatchedCounterTimeBase g_batched_counter;       // default block size 8
tb::BatchedCounterTimeBase g_batched_counter_64{64};  // throughput-tuned
tb::PerfectClockTimeBase& perfect_clock() {
    static tb::PerfectClockTimeBase tbase(tb::PerfectSource::Auto);
    return tbase;
}
tb::MMTimerSim g_mmtimer_sim;
tb::MMTimerClockTimeBase g_mmtimer{g_mmtimer_sim};

tb::ExtSyncTimeBase& ext_sync() {
    static tb::WallTimeSource src;
    static tb::PerfectDevice d0(src, 1'000'000'000), d1(src, 1'000'000'000);
    static auto tbase =
        tb::ExtSyncTimeBase::with_static_params({&d0, &d1}, 0, 100);
    return *tbase;
}

// Direct template calls on the concrete clock type: the reference side of
// the facade comparison. Both sides reach the clock through an opaque
// pointer re-derived every iteration, so the clock is memory-resident
// exactly like a ThreadContext member in the engine. Without the barrier,
// the optimizer register-promotes the clock's fields on one side or the
// other depending on build flags and inlining luck, and the pair would
// measure residency lottery instead of the facade's actual dispatch cost.
template <typename C>
inline C* opaque(C* p) {
    asm volatile("" : "+r"(p));
    return p;
}
template <typename TB>
void bm_get_time(benchmark::State& state, TB& tbase) {
    auto clk = std::make_unique<typename TB::ThreadClock>(
        tbase.make_thread_clock());
    for (auto _ : state)
        benchmark::DoNotOptimize(opaque(clk.get())->get_time());
}

template <typename TB>
void bm_get_new_ts(benchmark::State& state, TB& tbase) {
    auto clk = std::make_unique<typename TB::ThreadClock>(
        tbase.make_thread_clock());
    for (auto _ : state)
        benchmark::DoNotOptimize(opaque(clk.get())->get_new_ts());
}

// The same operations through the type-erased facade clock.
template <typename TB>
void bm_facade_get_time(benchmark::State& state, TB& tbase) {
    tb::TimeBase erased = tb::TimeBase::wrap(tbase);
    auto clk = std::make_unique<tb::ThreadClock>(erased.make_thread_clock());
    for (auto _ : state)
        benchmark::DoNotOptimize(opaque(clk.get())->get_time());
}

template <typename TB>
void bm_facade_get_new_ts(benchmark::State& state, TB& tbase) {
    tb::TimeBase erased = tb::TimeBase::wrap(tbase);
    auto clk = std::make_unique<tb::ThreadClock>(erased.make_thread_clock());
    for (auto _ : state)
        benchmark::DoNotOptimize(opaque(clk.get())->get_new_ts());
}

void bm_spec_get_new_ts(benchmark::State& state, const std::string& spec) {
    tb::TimeBase tbase = tb::make(spec);
    auto clk = std::make_unique<tb::ThreadClock>(tbase.make_thread_clock());
    for (auto _ : state)
        benchmark::DoNotOptimize(opaque(clk.get())->get_new_ts());
}

void BM_SharedCounter_GetTime(benchmark::State& s) { bm_get_time(s, g_counter); }
void BM_SharedCounter_GetNewTs(benchmark::State& s) {
    bm_get_new_ts(s, g_counter);
}
void BM_Tl2Counter_GetNewTs(benchmark::State& s) {
    bm_get_new_ts(s, g_tl2_counter);
}
void BM_BatchedCounter_GetTime(benchmark::State& s) {
    bm_get_time(s, g_batched_counter);
}
void BM_BatchedCounter_GetNewTs(benchmark::State& s) {
    bm_get_new_ts(s, g_batched_counter);
}
void BM_BatchedCounter64_GetNewTs(benchmark::State& s) {
    bm_get_new_ts(s, g_batched_counter_64);
}
void BM_PerfectClock_GetTime(benchmark::State& s) {
    bm_get_time(s, perfect_clock());
}
void BM_PerfectClock_GetNewTs(benchmark::State& s) {
    bm_get_new_ts(s, perfect_clock());
}
void BM_MMTimer_GetTime(benchmark::State& s) { bm_get_time(s, g_mmtimer); }
void BM_ExtSync_GetTime(benchmark::State& s) { bm_get_time(s, ext_sync()); }
void BM_ExtSync_GetNewTs(benchmark::State& s) { bm_get_new_ts(s, ext_sync()); }

// Facade twins of the direct rows above (same globals, same operation).
void BM_Facade_SharedCounter_GetTime(benchmark::State& s) {
    bm_facade_get_time(s, g_counter);
}
void BM_Facade_SharedCounter_GetNewTs(benchmark::State& s) {
    bm_facade_get_new_ts(s, g_counter);
}
void BM_Facade_Tl2Counter_GetNewTs(benchmark::State& s) {
    bm_facade_get_new_ts(s, g_tl2_counter);
}
void BM_Facade_BatchedCounter_GetNewTs(benchmark::State& s) {
    bm_facade_get_new_ts(s, g_batched_counter);
}
void BM_Facade_BatchedCounter64_GetNewTs(benchmark::State& s) {
    bm_facade_get_new_ts(s, g_batched_counter_64);
}
void BM_Facade_PerfectClock_GetTime(benchmark::State& s) {
    bm_facade_get_time(s, perfect_clock());
}
void BM_Facade_PerfectClock_GetNewTs(benchmark::State& s) {
    bm_facade_get_new_ts(s, perfect_clock());
}
void BM_Facade_ExtSync_GetNewTs(benchmark::State& s) {
    bm_facade_get_new_ts(s, ext_sync());
}

}  // namespace

// Single-threaded costs.
BENCHMARK(BM_SharedCounter_GetTime);
BENCHMARK(BM_SharedCounter_GetNewTs);
BENCHMARK(BM_Tl2Counter_GetNewTs);
BENCHMARK(BM_BatchedCounter_GetTime);
BENCHMARK(BM_BatchedCounter_GetNewTs);
BENCHMARK(BM_BatchedCounter64_GetNewTs);
BENCHMARK(BM_PerfectClock_GetTime);
BENCHMARK(BM_PerfectClock_GetNewTs);
BENCHMARK(BM_MMTimer_GetTime);
BENCHMARK(BM_ExtSync_GetTime);
BENCHMARK(BM_ExtSync_GetNewTs);

// The dispatch-cost comparison the facade's <= 15% budget is gated on.
BENCHMARK(BM_Facade_SharedCounter_GetTime);
BENCHMARK(BM_Facade_SharedCounter_GetNewTs);
BENCHMARK(BM_Facade_Tl2Counter_GetNewTs);
BENCHMARK(BM_Facade_BatchedCounter_GetNewTs);
BENCHMARK(BM_Facade_BatchedCounter64_GetNewTs);
BENCHMARK(BM_Facade_PerfectClock_GetTime);
BENCHMARK(BM_Facade_PerfectClock_GetNewTs);
BENCHMARK(BM_Facade_ExtSync_GetNewTs);

// Contention scaling: the whole point of the paper in a few benchmark
// lines. The batched counter touches the shared line once per block.
BENCHMARK(BM_SharedCounter_GetNewTs)->Threads(2)->UseRealTime();
BENCHMARK(BM_Tl2Counter_GetNewTs)->Threads(2)->UseRealTime();
BENCHMARK(BM_BatchedCounter_GetNewTs)->Threads(2)->UseRealTime();
BENCHMARK(BM_BatchedCounter64_GetNewTs)->Threads(2)->UseRealTime();
BENCHMARK(BM_PerfectClock_GetTime)->Threads(2)->UseRealTime();
BENCHMARK(BM_PerfectClock_GetNewTs)->Threads(2)->UseRealTime();

int main(int argc, char** argv) {
    // Specs are resolved once up front so a typo exits 2 with the
    // registry's message instead of aborting mid-benchmark.
    try {
        for (const auto& spec : chronostm::tb::split_specs(
                 chronostm::extract_timebase_flag(argc, argv))) {
            chronostm::tb::make(spec);
            benchmark::RegisterBenchmark(("BM_Spec_GetNewTs/" + spec).c_str(),
                                         bm_spec_get_new_ts, spec);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
    return chronostm::gbench_main_with_json(argc, argv);
}
