// Helping ablation (DESIGN.md design-choice index): LSA-RT lets any thread
// finish a Committing transaction from its published commit set. The
// alternative -- spin until the committer finishes -- is simpler but makes
// every thread behind a preempted committer wait out the preemption.
//
// On an unloaded machine the two modes should be close (committers rarely
// stall); under oversubscription (more threads than CPUs, forced
// preemption) helping should degrade more gracefully. Both must be correct.

#include <cstdio>
#include <iostream>
#include <string>
#include <memory>
#include <vector>

#include <chronostm/stm/adapter.hpp>
#include <chronostm/util/affinity.hpp>
#include <chronostm/util/cli.hpp>
#include <chronostm/util/json_out.hpp>
#include <chronostm/util/rng.hpp>
#include <chronostm/util/table.hpp>
#include <chronostm/workload/bank.hpp>
#include <chronostm/workload/runner.hpp>

using namespace chronostm;

namespace {

struct Cell {
    double mtx = 0;
    std::uint64_t helped = 0;
    bool conserved = true;
    TxStats stats;
    std::uint64_t p50_ns = 0, p99_ns = 0, p999_ns = 0;
};

Cell run_cell(const std::string& tb_spec, bool help, unsigned threads,
              double duration_ms) {
    using A = stm::LsaAdapter;
    StmConfig cfg;
    cfg.help_committers = help;
    A adapter(tb::make(tb_spec), cfg);
    wl::Bank<A> bank(24, 1000, 0.6);  // skewed: plenty of claim encounters

    wl::RunSpec spec;
    spec.threads = threads;
    spec.warmup_ms = duration_ms / 5;
    spec.duration_ms = duration_ms;
    const auto res = wl::run_throughput(spec, [&](unsigned tid) {
        auto ctx = std::make_shared<typename A::Context>(adapter.make_context());
        auto rng = std::make_shared<Rng>(tid * 77 + 5);
        return [&, ctx, rng] { bank.transfer(adapter, *ctx, *rng); };
    });

    Cell c;
    c.mtx = res.mops_per_sec;
    c.p50_ns = res.p50_ns;
    c.p99_ns = res.p99_ns;
    c.p999_ns = res.p999_ns;
    c.stats = adapter.stm().collected_stats();
    c.helped = c.stats.helped_commits;
    c.conserved = bank.unsafe_total() == bank.expected_total();
    return c;
}

}  // namespace

int main(int argc, char** argv) {
    Cli cli("helping ablation: finish committers vs spin-wait them out");
    wl::flag_timebase(cli, "perfect");
    cli.flag_i64("duration-ms", 200, "measured window per cell")
        .flag_str("json", "", "write machine-readable results to this path");
    try {
        if (!cli.parse(argc, argv)) return 0;
        wl::validate_timebase_flag(cli);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
    const double duration = static_cast<double>(cli.i64("duration-ms"));
    const std::string& tb_spec = cli.str("timebase");

    std::printf("== Helping ablation (LSA-RT commit protocol) ==\n"
                "time base %s\n\n", tb_spec.c_str());
    Table t("hot-spot bank transfers");
    t.set_header({"threads", "help Mtx/s", "helped ops", "spin Mtx/s",
                  "conserved", "oversub"});

    const unsigned hw = hardware_threads();
    bool all_ok = true;
    Json json;
    json.obj_begin()
        .kv("driver", "tab_helping")
        .kv("timebase", tb_spec)
        .kv("host_threads", hw)
        .kv("duration_ms", duration)
        .key("rows")
        .arr_begin();
    for (const unsigned n : {2u, hw, 2 * hw}) {
        const Cell with_help = run_cell(tb_spec, true, n, duration);
        const Cell spin = run_cell(tb_spec, false, n, duration);
        all_ok = all_ok && with_help.conserved && spin.conserved;
        t.add_row({Table::num(static_cast<std::uint64_t>(n)),
                   Table::num(with_help.mtx, 3), Table::num(with_help.helped),
                   Table::num(spin.mtx, 3),
                   (with_help.conserved && spin.conserved) ? "yes" : "NO",
                   n > hw ? "yes" : ""});
        json.obj_begin()
            .kv("threads", n)
            .kv("help_mtxs", with_help.mtx)
            .kv("helped_ops", with_help.helped)
            .kv("spin_mtxs", spin.mtx)
            .kv("conserved", with_help.conserved && spin.conserved)
            .kv("oversubscribed", n > hw);
        wl::latency_json(json, with_help);
        wl::tx_stats_json(json, with_help.stats).obj_end();
    }
    t.add_note("oversubscribed rows force committer preemption: the regime "
               "where helping matters");
    t.print(std::cout);

    std::printf("\nSHAPE-CHECK both modes conserve money everywhere: %s\n",
                all_ok ? "PASS" : "FAIL");
    json.arr_end().kv("all_conserved", all_ok).obj_end();
    if (!write_json_flag(cli.str("json"), json)) return 2;
    return all_ok ? 0 : 1;
}
