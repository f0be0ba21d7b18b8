// Related-work positioning (paper Sections 1.1-1.2): time-based STMs avoid
// the O(reads-so-far) per-open validation of validation-based systems and
// should be "at least as efficient". We compare LSA-RT (counter + clock
// time bases), TL2, the validation STM (with and without the commit-counter
// heuristic), and a global lock on two workloads:
//
//   * read-dominated hash-set lookups (short transactions)
//   * whole-bank audits racing transfers (long read-only transactions)
//
// Expected shape: LSA-RT and TL2 lead; VSTM/always-validate trails badly on
// long transactions (quadratic validation); the commit-counter heuristic
// recovers some of it; the global lock cannot scale.
//
// The orec-table engine (Orec-LSA) rides the same --timebase sweep as
// LSA-RT: same snapshot-extension algorithm, per-TVar metadata swapped for
// a global versioned-lock table. Its rows carry the engine's
// false_conflicts counter (distinct addresses hashing to one orec) in the
// JSON blob, so sweeps can watch aliasing pressure alongside throughput.

#include <cstdio>
#include <iostream>
#include <memory>
#include <vector>

#include <chronostm/stm/facade.hpp>
#include <chronostm/util/cli.hpp>
#include <chronostm/util/json_out.hpp>
#include <chronostm/util/table.hpp>
#include <chronostm/workload/bank.hpp>
#include <chronostm/workload/intset_hash.hpp>
#include <chronostm/workload/runner.hpp>

using namespace chronostm;

namespace {

// Returns the full RunResult: the caller reads throughput off it and
// forwards the per-op latency percentiles into the --json row.
template <typename A>
wl::RunResult bench_hashset(A& adapter, unsigned threads,
                            double duration_ms) {
    wl::IntsetHash<A> set(128);
    {
        auto ctx = adapter.make_context();
        for (long k = 0; k < 512; ++k) set.insert(adapter, ctx, k * 2);
    }
    wl::RunSpec spec;
    spec.threads = threads;
    spec.warmup_ms = duration_ms / 5;
    spec.duration_ms = duration_ms;
    const auto res = wl::run_throughput(spec, [&](unsigned tid) {
        auto ctx = std::make_shared<typename A::Context>(adapter.make_context());
        auto rng = std::make_shared<Rng>(tid * 3 + 1);
        return [&, ctx, rng] {
            const long key = static_cast<long>(rng->below(1024));
            if (rng->chance(0.1)) {
                if (rng->chance(0.5))
                    set.insert(adapter, *ctx, key);
                else
                    set.remove(adapter, *ctx, key);
            } else {
                set.contains(adapter, *ctx, key);
            }
        };
    });
    return res;
}

template <typename A>
double bench_audit(A& adapter, unsigned threads, double duration_ms,
                   bool& conserved) {
    wl::Bank<A> bank(128, 100);
    wl::RunSpec spec;
    spec.threads = threads;
    spec.warmup_ms = duration_ms / 5;
    spec.duration_ms = duration_ms;
    const auto res = wl::run_throughput(spec, [&](unsigned tid) {
        auto ctx = std::make_shared<typename A::Context>(adapter.make_context());
        auto rng = std::make_shared<Rng>(tid * 5 + 1);
        return [&, tid, ctx, rng] {
            if (tid == 0) {
                bank.transfer(adapter, *ctx, *rng);  // one writer thread
            } else {
                // Force the sum to be computed: an unused audit result lets
                // the compiler elide the reads for the lock-based baseline.
                if (bank.audit(adapter, *ctx) == -1) std::abort();
            }
        };
    });
    if (bank.unsafe_total() != bank.expected_total()) {
        std::fprintf(stderr, "conservation FAILED: total %ld != %ld\n",
                     bank.unsafe_total(), bank.expected_total());
        conserved = false;
    }
    // Only the auditor threads' completed audits count -- mixing in the
    // writer's (much cheaper) transfers would swamp the metric.
    std::uint64_t audits = 0;
    for (unsigned t = 1; t < res.per_thread.size(); ++t)
        audits += res.per_thread[t];
    return (static_cast<double>(audits) / res.seconds) / 1e3;  // kaudits/s
}

}  // namespace

int main(int argc, char** argv) {
    Cli cli("STM comparison: LSA-RT vs TL2 vs validation STM vs global lock");
    wl::flag_timebase(cli, "shared,perfect");
    cli.flag_i64("threads", 2, "worker threads")
        .flag_i64("duration-ms", 250, "measured window per cell")
        .flag_str("json", "", "write machine-readable results to this path");
    try {
        if (!cli.parse(argc, argv)) return 0;
        wl::validate_timebase_flag(cli);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
    const auto threads = static_cast<unsigned>(cli.i64("threads"));
    const double duration = static_cast<double>(cli.i64("duration-ms"));
    const auto tb_specs = tb::split_specs(cli.str("timebase"));

    std::printf("== STM comparison (paper Sections 1.1-1.2) ==\n\n");

    Table t("throughput by system (" + std::to_string(threads) + " threads)");
    t.set_header({"system", "hash-set Mtx/s", "audits k/s"});

    double lsa_audit = 0, vstm_always_audit = 0, vstm_cc_audit = 0;
    bool conserved = true;

    Json json;
    json.obj_begin()
        .kv("driver", "tab_stm_comparison")
        .kv("timebase", cli.str("timebase"))
        .kv("threads", threads)
        .kv("duration_ms", duration)
        .key("rows")
        .arr_begin();
    // Sum the two measurement cells' counter blocks for the row's emitted
    // stats (hash-set cell + audit cell).
    const auto sum_stats = [](const TxStats& x, const TxStats& y) {
        TxStats s(x.commits() + y.commits(), x.aborts() + y.aborts(),
                  x.helped_commits + y.helped_commits,
                  x.false_conflicts + y.false_conflicts);
        s.extensions = x.extensions + y.extensions;
        s.extension_fast_hits = x.extension_fast_hits + y.extension_fast_hits;
        s.validation_fast_hits =
            x.validation_fast_hits + y.validation_fast_hits;
        s.ro_commits = x.ro_commits + y.ro_commits;
        s.backoff_us = x.backoff_us + y.backoff_us;
        s.irrevocable_commits = x.irrevocable_commits + y.irrevocable_commits;
        s.escalations = x.escalations + y.escalations;
        s.stall_waits = x.stall_waits + y.stall_waits;
        s.stalled_aborts = x.stalled_aborts + y.stalled_aborts;
        s.injected_faults = x.injected_faults + y.injected_faults;
        return s;
    };
    // One row = one registry engine spec; the two measurement cells each
    // build a FRESH engine from the spec (zeroed counters) and dispatch
    // through the facade, so every system -- LSA, orec, and the three
    // baselines -- runs the identical measurement path and emits the same
    // counter block.
    const auto run_row = [&](const std::string& label,
                             const std::string& espec,
                             const std::string& tbspec) {
        const auto mk = [&] {
            return tbspec.empty() ? stm::make(espec)
                                  : stm::make(espec, tb::make(tbspec));
        };
        stm::Engine e1 = mk();
        stm::Engine e2 = mk();
        wl::RunResult hsres;
        double au = 0;
        stm::visit(e1, [&](auto& a) {
            hsres = bench_hashset(a, threads, duration);
        });
        stm::visit(e2, [&](auto& a) {
            au = bench_audit(a, threads, duration, conserved);
        });
        const double hs = hsres.mops_per_sec;
        t.add_row({label, Table::num(hs, 3), Table::num(au, 1)});
        json.obj_begin()
            .kv("system", label)
            .kv("engine_spec", espec)
            .kv("hashset_mtxs", hs)
            .kv("audits_ks", au);
        wl::latency_json(json, hsres);
        wl::tx_stats_json(
            json, sum_stats(e1.collected_stats(), e2.collected_stats()))
            .obj_end();
        return au;
    };

    // One LSA-RT row per --timebase spec; the first spec anchors the
    // "time-based beats always-validate" shape check.
    bool first_spec = true;
    for (const auto& spec : tb_specs) {
        const double au = run_row("LSA-RT/" + spec, "lsa", spec);
        if (first_spec) lsa_audit = au;
        first_spec = false;
    }
    // One Orec-LSA row per spec: same workloads, same time bases, the
    // per-TVar metadata replaced by the shared orec table.
    for (const auto& spec : tb_specs)
        run_row("Orec-LSA/" + spec, "orec", spec);
    run_row("TL2", "tl2", "");
    vstm_cc_audit = run_row("VSTM/cc-heuristic", "vstm", "");
    vstm_always_audit =
        run_row("VSTM/always-validate", "vstm:heuristic=off", "");
    run_row("GlobalLock", "glock", "");
    t.add_note("audit txns read 128 accounts: validation-based STMs pay "
               "O(reads^2) total validation work per audit");
    t.print(std::cout);

    const bool shape_lsa = lsa_audit > vstm_always_audit;
    const bool shape_cc = vstm_cc_audit >= vstm_always_audit * 0.8;
    std::printf("\nSHAPE-CHECK time-based beats always-validate on long "
                "read txns (%.1f vs %.1f kaudits/s): %s\n",
                lsa_audit, vstm_always_audit, shape_lsa ? "PASS" : "FAIL");
    std::printf("SHAPE-CHECK commit-counter heuristic helps the validation "
                "STM (%.1f vs %.1f kaudits/s): %s\n",
                vstm_cc_audit, vstm_always_audit, shape_cc ? "PASS" : "FAIL");
    std::printf("SHAPE-CHECK conservation across every engine: %s\n",
                conserved ? "PASS" : "FAIL");
    json.arr_end()
        .kv("shape_lsa_beats_always_validate", shape_lsa)
        .kv("shape_cc_heuristic_helps", shape_cc)
        .kv("conserved", conserved)
        .obj_end();
    if (!write_json_flag(cli.str("json"), json)) return 2;
    return (shape_lsa && shape_cc && conserved) ? 0 : 1;
}
