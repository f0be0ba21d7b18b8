// Transactional-datastructure throughput: skiplist set, open-addressing
// hash map, and FIFO queue (ds/*.hpp) over raw epoch-reclaimed nodes, at
// a million-key scale with varied update ratios. Engines come from the
// stm::make() registry (--engine takes a comma-separated spec list), and
// every (structure, engine) cell runs TWICE:
//
//   dispatch=facade  -- the public path: containers over EnginePolicy,
//                       one switch-on-kind per slot access;
//   dispatch=direct  -- the compile-time twin: DirectPolicy<A> over the
//                       concrete adapter, slot accesses inlined.
//
// check_bench.py --ds-blob gates the pair: facade throughput must stay
// within --ds-facade-tolerance (default 1.15, the facade's documented
// <= 15% dispatch budget) of its direct twin, and the orec-engine
// skiplist must beat the glock baseline at >= 2 threads (the whole point
// of optimistic concurrency: a global lock cannot scale even a
// read-mostly search structure).
//
// The sets/maps prepopulate keys/2 of the key range, so lookups hit ~50%
// and inserts/erases succeed ~50% -- the content level is stationary
// under the balanced update mix. A structure is built ONCE per
// (structure, engine, dispatch) and reused across the threads x ratio
// cells; churn keeps it near half-full. The queue has no read operation,
// so it runs one 50/50 enqueue/dequeue mix per engine (ratio column "-").

#include <cstdint>
#include <cstdio>
#include <chrono>
#include <iostream>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include <chronostm/ds/hashmap.hpp>
#include <chronostm/ds/policy.hpp>
#include <chronostm/ds/queue.hpp>
#include <chronostm/ds/skiplist.hpp>
#include <chronostm/stm/facade.hpp>
#include <chronostm/util/affinity.hpp>
#include <chronostm/util/cli.hpp>
#include <chronostm/util/json_out.hpp>
#include <chronostm/util/rng.hpp>
#include <chronostm/util/table.hpp>
#include <chronostm/workload/runner.hpp>

using namespace chronostm;

namespace {

struct Cell {
    double mops = 0;
    double abort_ratio = 0;
    TxStats stats;
    std::uint64_t p50_ns = 0, p99_ns = 0, p999_ns = 0;
};

// Parse a comma-separated list of unsigned values ("1,2,4").
std::vector<unsigned> parse_list(const std::string& s, const char* flag) {
    std::vector<unsigned> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        const std::size_t comma = s.find(',', pos);
        const std::string tok =
            s.substr(pos, comma == std::string::npos ? comma : comma - pos);
        if (!tok.empty()) {
            const long long v = std::stoll(tok);
            if (v < 0)
                throw std::invalid_argument(std::string("--") + flag +
                                            ": negative value '" + tok + "'");
            out.push_back(static_cast<unsigned>(v));
        }
        if (comma == std::string::npos) break;
        pos = comma + 1;
    }
    if (out.empty())
        throw std::invalid_argument(std::string("--") + flag +
                                    " resolved to no values");
    return out;
}

// Stats delta across a measured window (the structure outlives its cells,
// so each cell subtracts the engine counters it started from).
TxStats stats_delta(const TxStats& after, const TxStats& before) {
    TxStats s(after.commits() - before.commits(),
              after.aborts() - before.aborts(),
              after.helped_commits - before.helped_commits,
              after.false_conflicts - before.false_conflicts);
    s.extensions = after.extensions - before.extensions;
    s.extension_fast_hits =
        after.extension_fast_hits - before.extension_fast_hits;
    s.validation_fast_hits =
        after.validation_fast_hits - before.validation_fast_hits;
    s.ro_commits = after.ro_commits - before.ro_commits;
    s.backoff_us = after.backoff_us - before.backoff_us;
    s.irrevocable_commits =
        after.irrevocable_commits - before.irrevocable_commits;
    s.escalations = after.escalations - before.escalations;
    s.stall_waits = after.stall_waits - before.stall_waits;
    s.stalled_aborts = after.stalled_aborts - before.stalled_aborts;
    s.injected_faults = after.injected_faults - before.injected_faults;
    return s;
}

// Repetitions per cell, keeping the best window (set from --reps). The
// facade/direct halves of a pair run seconds apart in program order, so a
// one-sided noise window (scheduler, frequency ramp) lands on one half
// only and fakes a dispatch regression; max-of-reps is the throughput
// mirror of check_bench's min-of-reps on the micro rows.
int g_reps = 2;

template <typename GetStats, typename Factory>
Cell run_cell(const GetStats& stats_of, unsigned threads, double duration_ms,
              const Factory& factory) {
    Cell best;
    for (int rep = 0; rep < g_reps; ++rep) {
        const TxStats before = stats_of();
        wl::RunSpec spec;
        spec.threads = threads;
        spec.warmup_ms = duration_ms / 5;
        spec.duration_ms = duration_ms;
        const auto res = wl::run_throughput(spec, factory);
        Cell c;
        c.mops = res.mops_per_sec;
        c.p50_ns = res.p50_ns;
        c.p99_ns = res.p99_ns;
        c.p999_ns = res.p999_ns;
        c.stats = stats_delta(stats_of(), before);
        const std::uint64_t tot = c.stats.commits() + c.stats.aborts();
        c.abort_ratio =
            tot == 0 ? 0 : static_cast<double>(c.stats.aborts()) / tot;
        if (rep == 0 || c.mops > best.mops) best = c;
    }
    return best;
}

// --- per-structure workloads --------------------------------------------
//
// Key picks come from a per-thread splitmix stream; update operations
// split evenly between insert and erase so the content level stays
// stationary around keys/2.

template <typename Policy, typename GetStats, typename Emit>
void bench_skiplist(Policy pol, const GetStats& stats_of,
                    const std::vector<unsigned>& thread_list,
                    const std::vector<unsigned>& update_list,
                    std::uint64_t keys, double duration_ms,
                    const Emit& emit) {
    ds::SkiplistSet<Policy> set(std::move(pol));
    {
        auto h = set.make_handle();
        for (std::uint64_t k = 0; k < keys; k += 2) set.insert(h, k);
    }
    for (const unsigned threads : thread_list) {
        for (const unsigned pct : update_list) {
            const Cell c = run_cell(
                stats_of, threads, duration_ms, [&](unsigned tid) {
                    auto h = std::make_shared<typename ds::SkiplistSet<
                        Policy>::Handle>(set.make_handle());
                    auto rng = std::make_shared<Rng>(tid * 977 + 13);
                    return [&set, h, rng, keys, pct] {
                        const std::uint64_t key = rng->below(keys);
                        const std::uint64_t roll = rng->below(100);
                        if (roll < pct) {
                            if (roll & 1)
                                set.insert(*h, key);
                            else
                                set.erase(*h, key);
                        } else {
                            set.contains(*h, key);
                        }
                    };
                });
            emit("skiplist", threads, static_cast<long>(pct), c);
        }
    }
}

template <typename Policy, typename GetStats, typename Emit>
void bench_hashmap(Policy pol, const GetStats& stats_of,
                   const std::vector<unsigned>& thread_list,
                   const std::vector<unsigned>& update_list,
                   std::uint64_t keys, double duration_ms, const Emit& emit) {
    // 2x the key range: the probe paths stay short at the ~25% stationary
    // load factor, and the table can never fill.
    ds::TxHashMap<Policy> map(std::move(pol), 2 * keys);
    {
        auto h = map.make_handle();
        for (std::uint64_t k = 0; k < keys; k += 2) map.put(h, k, k);
    }
    for (const unsigned threads : thread_list) {
        for (const unsigned pct : update_list) {
            const Cell c = run_cell(
                stats_of, threads, duration_ms, [&](unsigned tid) {
                    auto h = std::make_shared<
                        typename ds::TxHashMap<Policy>::Handle>(
                        map.make_handle());
                    auto rng = std::make_shared<Rng>(tid * 977 + 29);
                    return [&map, h, rng, keys, pct] {
                        const std::uint64_t key = rng->below(keys);
                        const std::uint64_t roll = rng->below(100);
                        if (roll < pct) {
                            if (roll & 1)
                                map.put(*h, key, key + 1);
                            else
                                map.erase(*h, key);
                        } else {
                            std::uint64_t v;
                            map.get(*h, key, v);
                        }
                    };
                });
            emit("hashmap", threads, static_cast<long>(pct), c);
        }
    }
}

template <typename Policy, typename GetStats, typename Emit>
void bench_queue(Policy pol, const GetStats& stats_of,
                 const std::vector<unsigned>& thread_list,
                 std::uint64_t keys, double duration_ms, const Emit& emit) {
    ds::TxQueue<Policy> q(std::move(pol));
    {
        auto h = q.make_handle();
        for (std::uint64_t k = 0; k < keys / 2; ++k) q.enqueue(h, k);
    }
    for (const unsigned threads : thread_list) {
        const Cell c =
            run_cell(stats_of, threads, duration_ms, [&](unsigned tid) {
                auto h = std::make_shared<typename ds::TxQueue<Policy>::Handle>(
                    q.make_handle());
                auto rng = std::make_shared<Rng>(tid * 977 + 41);
                return [&q, h, rng] {
                    if (rng->below(2) == 0) {
                        q.enqueue(*h, 7);
                    } else {
                        std::uint64_t v;
                        q.dequeue(*h, v);
                    }
                };
            });
        emit("queue", threads, -1, c);
    }
}

template <typename Policy, typename GetStats, typename Emit>
void bench_structures(const std::vector<std::string>& structures, Policy pol,
                      const GetStats& stats_of,
                      const std::vector<unsigned>& thread_list,
                      const std::vector<unsigned>& update_list,
                      std::uint64_t keys, double duration_ms,
                      const Emit& emit) {
    for (const auto& s : structures) {
        if (s == "skiplist")
            bench_skiplist(pol, stats_of, thread_list, update_list, keys,
                           duration_ms, emit);
        else if (s == "hashmap")
            bench_hashmap(pol, stats_of, thread_list, update_list, keys,
                          duration_ms, emit);
        else if (s == "queue")
            bench_queue(pol, stats_of, thread_list, keys, duration_ms, emit);
        else
            throw std::invalid_argument(
                "--structures: unknown structure '" + s +
                "' (expected: skiplist, hashmap, queue)");
    }
}

}  // namespace

int main(int argc, char** argv) {
    Cli cli("transactional datastructures over registry engines");
    wl::flag_engine(cli, "lsa,orec,glock");
    wl::flag_timebase(cli, "shared");
    cli.flag_str("threads", "1,2", "comma-separated worker thread counts")
        .flag_str("updates", "0,10,50",
                  "comma-separated update percentages (set/map cells)")
        .flag_str("structures", "skiplist,hashmap,queue",
                  "comma-separated structures to bench")
        .flag_i64("keys", 1 << 20, "key range (sets/maps prepopulate half)")
        .flag_i64("duration-ms", 250, "measured window per cell")
        .flag_i64("reps", 2,
                  "windows per cell, best kept (facade and direct halves "
                  "run far apart in time; reps cancel one-sided noise)")
        .flag_str("json", "", "write machine-readable results to this path");
    std::vector<unsigned> thread_list, update_list;
    std::vector<std::string> structures;
    try {
        if (!cli.parse(argc, argv)) return 0;
        wl::validate_timebase_flag(cli);
        wl::validate_engine_flag(cli);
        if (wl::engine_specs(cli).empty())
            throw std::invalid_argument("--engine resolved to no specs");
        thread_list = parse_list(cli.str("threads"), "threads");
        update_list = parse_list(cli.str("updates"), "updates");
        structures = tb::split_specs(cli.str("structures"));
        if (cli.i64("keys") < 4)
            throw std::invalid_argument("--keys must be >= 4");
        if (cli.i64("reps") < 1)
            throw std::invalid_argument("--reps must be >= 1");
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
    const auto keys = static_cast<std::uint64_t>(cli.i64("keys"));
    const double duration = static_cast<double>(cli.i64("duration-ms"));
    const std::string& tb_spec = cli.str("timebase");
    g_reps = static_cast<int>(cli.i64("reps"));

    // Ramp the host before the first measured cell: the facade half of
    // every pair runs first in program order, so the process cold start
    // (frequency governor, first-touch faults) would land entirely on
    // one side of the dispatch-budget ratio. Measured on the 1-CPU CI
    // class of host, the first ~300ms run up to 2x slow.
    {
        volatile std::uint64_t sink = 1;
        const auto until = std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(300);
        while (std::chrono::steady_clock::now() < until)
            for (int i = 0; i < 4096; ++i) sink = sink * 2862933555u + 1;
    }

    std::printf("== Transactional datastructures (facade vs direct) ==\n"
                "key range %llu (prepopulate half), time base %s, "
                "host hardware threads: %u\n\n",
                static_cast<unsigned long long>(keys), tb_spec.c_str(),
                hardware_threads());

    Table t("throughput by structure / engine / dispatch (Mops/s)");
    t.set_header({"structure", "engine", "dispatch", "threads", "upd%",
                  "Mops/s", "abort ratio"});
    Json json;
    json.obj_begin()
        .kv("driver", "tab_datastructures")
        .kv("host_threads", hardware_threads())
        .kv("keys", keys)
        .kv("duration_ms", duration)
        .kv("timebase", tb_spec)
        .kv("engine", cli.str("engine"))
        .key("rows")
        .arr_begin();

    for (const auto& espec : wl::engine_specs(cli)) {
        const std::string ename = stm::parse_engine_spec(espec).name;
        for (const bool facade : {true, false}) {
            // Fresh engine per dispatch mode: zeroed counters, private
            // orec table / stats registry.
            stm::Engine eng = stm::make(espec, tb::make(tb_spec));
            const auto emit = [&](const char* structure, unsigned threads,
                                  long pct, const Cell& c) {
                t.add_row({structure, ename, facade ? "facade" : "direct",
                           Table::num(static_cast<std::uint64_t>(threads)),
                           pct < 0 ? std::string("-")
                                   : Table::num(
                                         static_cast<std::uint64_t>(pct)),
                           Table::num(c.mops, 3),
                           Table::num(c.abort_ratio, 4)});
                json.obj_begin()
                    .kv("structure", structure)
                    .kv("engine", ename)
                    .kv("engine_spec", espec)
                    .kv("dispatch", facade ? "facade" : "direct")
                    .kv("threads", threads)
                    .kv("update_pct", pct)
                    .kv("mops", c.mops)
                    .kv("abort_ratio", c.abort_ratio);
                wl::latency_json(json, c);
                wl::tx_stats_json(json, c.stats).obj_end();
            };
            const auto stats_of = [&eng] { return eng.collected_stats(); };
            if (facade) {
                bench_structures(structures, ds::EnginePolicy(eng), stats_of,
                                 thread_list, update_list, keys, duration,
                                 emit);
            } else {
                stm::visit(eng, [&](auto& adapter) {
                    using A = std::decay_t<decltype(adapter)>;
                    bench_structures(structures, ds::DirectPolicy<A>(adapter),
                                     stats_of, thread_list, update_list, keys,
                                     duration, emit);
                });
            }
        }
    }
    json.arr_end().obj_end();
    t.add_note("facade = type-erased stm::Engine (switch per slot access); "
               "direct = DirectPolicy<A> compile-time twin, same container "
               "code. check_bench.py --ds-blob gates facade within 15% of "
               "direct and orec skiplist above glock at >= 2 threads");
    t.print(std::cout);
    if (!write_json_flag(cli.str("json"), json)) return 2;
    return 0;
}
