// Lock-wait budget on hot-spot transfers. Both snapshot engines resolve a
// conflict the same way: a waiter spins on a foreign lock for up to
// lock_spin spins (the engine spec's spin= key), then aborts itself and
// backs off; nobody aborts a committer. High-conflict bank with
// Zipf-skewed hot accounts; one row per --engine spec (default: LSA at the
// default budget and at spin=0), reporting throughput and abort ratio. The
// checks are that every row makes progress and conserves the bank total.

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <memory>
#include <type_traits>
#include <vector>

#include <chronostm/stm/facade.hpp>
#include <chronostm/util/cli.hpp>
#include <chronostm/util/json_out.hpp>
#include <chronostm/util/table.hpp>
#include <chronostm/workload/bank.hpp>
#include <chronostm/workload/runner.hpp>

using namespace chronostm;

int main(int argc, char** argv) {
    Cli cli("lock-wait budget comparison on a hot-spot bank");
    wl::flag_timebase(cli, "perfect");
    wl::flag_engine(cli, "lsa,lsa:spin=0");
    wl::flag_irrevocable_threshold(cli);
    wl::flag_chaos_seed(cli);
    cli.flag_i64("threads", 4, "worker threads")
        .flag_i64("accounts", 16, "accounts (small = hot)")
        .flag_f64("zipf", 0.9, "access skew")
        .flag_i64("duration-ms", 250, "measured window per engine spec")
        .flag_str("json", "", "write machine-readable results to this path");
    try {
        if (!cli.parse(argc, argv)) return 0;
        wl::validate_timebase_flag(cli);
        wl::validate_engine_flag(cli);
        wl::irrevocable_threshold_flag(cli);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
    const unsigned irrev_threshold = wl::irrevocable_threshold_flag(cli);
#ifdef CHRONOSTM_FAILPOINTS
    if (cli.i64("chaos-seed") != 0)
        fp::set_seed(static_cast<std::uint64_t>(cli.i64("chaos-seed")));
#endif
    const auto threads = static_cast<unsigned>(cli.i64("threads"));
    const auto accounts = static_cast<unsigned>(cli.i64("accounts"));
    const double zipf = cli.f64("zipf");
    const double duration = static_cast<double>(cli.i64("duration-ms"));

    const std::string& tb_spec = cli.str("timebase");
    std::printf("== Lock-wait budget under hot-spot transfers ==\n"
                "%u threads, %u accounts, zipf %.2f, time base %s\n\n",
                threads, accounts, zipf, tb_spec.c_str());

    Table t("engine spec comparison");
    t.set_header({"engine spec", "Mtx/s", "abort ratio", "conserved"});
    bool all_progress = true, all_conserved = true;
    Json json;
    json.obj_begin()
        .kv("driver", "tab_contention")
        .kv("timebase", tb_spec)
        .kv("threads", threads)
        .kv("accounts", accounts)
        .kv("zipf", zipf)
        .kv("duration_ms", duration)
        .key("rows")
        .arr_begin();

    // One row = one registry engine spec run through the facade.
    const auto run_row = [&](const std::string& label,
                             const std::string& engine_spec) {
        stm::Engine eng = stm::make(engine_spec, tb::make(tb_spec));
        double mtx = 0;
        std::uint64_t total_ops = 0;
        bool conserved = true;
        wl::RunResult rr;
        stm::visit(eng, [&](auto& adapter) {
            using A = std::decay_t<decltype(adapter)>;
            wl::Bank<A> bank(accounts, 1000, zipf);
            wl::RunSpec spec;
            spec.threads = threads;
            spec.warmup_ms = duration / 5;
            spec.duration_ms = duration;
            const auto res = wl::run_throughput(spec, [&](unsigned tid) {
                auto ctx = std::make_shared<typename A::Context>(
                    adapter.make_context());
                auto rng = std::make_shared<Rng>(tid * 101 + 9);
                return [&, ctx, rng] { bank.transfer(adapter, *ctx, *rng); };
            });
            mtx = res.mops_per_sec;
            total_ops = res.total_ops;
            conserved = bank.unsafe_total() == bank.expected_total();
            rr = res;
        });

        const auto stats = eng.collected_stats();
        const double ratio =
            stats.commits() + stats.aborts() == 0
                ? 0
                : static_cast<double>(stats.aborts()) /
                      static_cast<double>(stats.commits() + stats.aborts());
        t.add_row({label, Table::num(mtx, 3), Table::num(ratio, 4),
                   conserved ? "yes" : "NO"});
        json.obj_begin()
            .kv("engine", label)
            .kv("engine_spec", engine_spec)
            .kv("mtxs", mtx)
            .kv("abort_ratio", ratio)
            .kv("conserved", conserved);
        wl::latency_json(json, rr);
        wl::tx_stats_json(json, stats).obj_end();
        all_progress = all_progress && total_ops > 0;
        all_conserved = all_conserved && conserved;
    };

    const std::string irrev_key = "irrev=" + std::to_string(irrev_threshold);
    for (const auto& espec : wl::engine_specs(cli))
        run_row(espec, wl::engine_spec_with(espec, irrev_key));
    t.print(std::cout);

    std::printf("\nSHAPE-CHECK every engine spec makes progress: %s\n",
                all_progress ? "PASS" : "FAIL");
    std::printf("SHAPE-CHECK conservation under every engine spec: %s\n",
                all_conserved ? "PASS" : "FAIL");
    json.arr_end()
        .kv("all_progress", all_progress)
        .kv("all_conserved", all_conserved)
        .obj_end();
    if (!write_json_flag(cli.str("json"), json)) return 2;
    return (all_progress && all_conserved) ? 0 : 1;
}
