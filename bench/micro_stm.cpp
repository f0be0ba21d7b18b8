// Transaction-level microbenchmarks (google-benchmark): the per-operation
// costs that compose into every Figure-2 point -- read-only transactions of
// various footprints, update transactions, read-after-write, and the
// incremental cost of one more access. Run per time base to see where the
// time base enters the critical path (start + commit only).
//
// Time bases resolve through the runtime facade (tb::make): the static
// Counter/Clock rows cover the baseline-gated configurations, and the
// uniform --timebase=<spec[,spec...]> flag registers extra
// BM_ReadOnly_TB/... rows for any registry spec (batched:B=16, perfect, ...).
// --engine=orec points those dynamic rows at the orec engine instead.
//
// Engine rows (baseline-gated by scripts/check_bench.py):
//  * BM_Orec_* twins the LSA rows on the orec-table word STM under the
//    SAME workload; the gate requires each twin within --orec-tolerance
//    of its LSA row (the shift+mask lookup must not cost more than the
//    per-TVar indirection it replaces).
//  * BM_Orec_Update_Batched8 vs BM_Tl2_Update: orec LSA on the batched
//    scalable counter must beat the global-clock TL2 baseline on the
//    100-write row. At one thread no read ever extends, so the margin
//    (~10-11 us TL2 vs ~4-5 us for orec on either the batched or the
//    shared counter, 4-vCPU x86-64 host) is mostly the TL2 baseline's
//    write set -- heap-allocated, virtual-publish records probed
//    linearly by every read and write -- not snapshot extension or the
//    scalable base.
//  * BM_Update_Wide_Counter keeps a two-word payload (16-byte value and
//    history-entry accesses) measured next to the word-sized TVars.

#include <benchmark/benchmark.h>

#include <cstdio>

#include <memory>
#include <string>
#include <vector>

#include <chronostm/core/lsa_stm.hpp>
#include <chronostm/core/orec_stm.hpp>
#include <chronostm/stm/facade.hpp>
#include <chronostm/util/gbench_main.hpp>

namespace {

using namespace chronostm;

struct Rig {
    LsaStm stm;
    std::vector<std::unique_ptr<TVar<long>>> vars;

    Rig(const std::string& spec, std::size_t n, StmConfig cfg = StmConfig{})
        : stm(tb::make(spec), std::move(cfg)) {
        for (std::size_t i = 0; i < n; ++i)
            vars.push_back(std::make_unique<TVar<long>>(1));
    }
};

void bm_readonly_txn(benchmark::State& state, const std::string& spec,
                     StmConfig cfg = StmConfig{}) {
    const auto reads = static_cast<std::size_t>(state.range(0));
    Rig rig(spec, reads, std::move(cfg));
    auto ctx = rig.stm.make_context();
    for (auto _ : state) {
        long sum = ctx.run([&](Transaction& tx) {
            long s = 0;
            for (auto& v : rig.vars) s += v->get(tx);
            return s;
        });
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * static_cast<long>(reads));
}

void bm_update_txn(benchmark::State& state, const std::string& spec,
                   StmConfig cfg = StmConfig{}) {
    const auto writes = static_cast<std::size_t>(state.range(0));
    Rig rig(spec, writes, std::move(cfg));
    auto ctx = rig.stm.make_context();
    for (auto _ : state) {
        ctx.run([&](Transaction& tx) {
            for (auto& v : rig.vars) v->set(tx, v->get(tx) + 1);
        });
    }
    state.SetItemsProcessed(state.iterations() * static_cast<long>(writes));
}

void bm_read_after_write(benchmark::State& state, const std::string& spec) {
    Rig rig(spec, 1);
    auto ctx = rig.stm.make_context();
    for (auto _ : state) {
        long v = ctx.run([&](Transaction& tx) {
            rig.vars[0]->set(tx, 7);
            long s = 0;
            for (int i = 0; i < 8; ++i) s += rig.vars[0]->get(tx);
            return s;
        });
        benchmark::DoNotOptimize(v);
    }
}

// --- orec engine twins: same workloads on raw WordVar<long>s ------------

struct OrecRig {
    OrecStm stm;
    std::vector<std::unique_ptr<WordVar<long>>> vars;

    OrecRig(const std::string& spec, std::size_t n,
            OrecConfig cfg = OrecConfig{})
        : stm(tb::make(spec), cfg) {
        for (std::size_t i = 0; i < n; ++i)
            vars.push_back(std::make_unique<WordVar<long>>(1));
    }
};

void bm_orec_readonly_txn(benchmark::State& state, const std::string& spec,
                          OrecConfig cfg = OrecConfig{}) {
    const auto reads = static_cast<std::size_t>(state.range(0));
    OrecRig rig(spec, reads, cfg);
    auto ctx = rig.stm.make_context();
    for (auto _ : state) {
        long sum = ctx.run([&](OrecTransaction& tx) {
            long s = 0;
            for (auto& v : rig.vars) s += v->get(tx);
            return s;
        });
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() * static_cast<long>(reads));
}

void bm_orec_update_txn(benchmark::State& state, const std::string& spec,
                        OrecConfig cfg = OrecConfig{}) {
    const auto writes = static_cast<std::size_t>(state.range(0));
    OrecRig rig(spec, writes, cfg);
    auto ctx = rig.stm.make_context();
    for (auto _ : state) {
        ctx.run([&](OrecTransaction& tx) {
            for (auto& v : rig.vars) v->set(tx, v->get(tx) + 1);
        });
    }
    state.SetItemsProcessed(state.iterations() * static_cast<long>(writes));
}

void bm_orec_read_after_write(benchmark::State& state,
                              const std::string& spec) {
    OrecRig rig(spec, 1);
    auto ctx = rig.stm.make_context();
    for (auto _ : state) {
        long v = ctx.run([&](OrecTransaction& tx) {
            rig.vars[0]->set(tx, 7);
            long s = 0;
            for (int i = 0; i < 8; ++i) s += rig.vars[0]->get(tx);
            return s;
        });
        benchmark::DoNotOptimize(v);
    }
}

// TL2 baseline twin of the update workload (its own global version clock;
// no --timebase axis) for the orec-beats-TL2 gate.
void bm_tl2_update_txn(benchmark::State& state) {
    const auto writes = static_cast<std::size_t>(state.range(0));
    stm::Tl2Adapter adapter;
    std::vector<std::unique_ptr<stm::Tl2Adapter::Var<long>>> vars;
    for (std::size_t i = 0; i < writes; ++i)
        vars.push_back(std::make_unique<stm::Tl2Adapter::Var<long>>(1));
    auto ctx = adapter.make_context();
    for (auto _ : state) {
        adapter.run(ctx, [&](stm::Tl2Adapter::Txn& tx) {
            for (auto& v : vars) tx.write(*v, tx.read(*v) + 1);
        });
    }
    state.SetItemsProcessed(state.iterations() * static_cast<long>(writes));
}

// --- snapshot-extension cost rows (epoch-filter gate) -------------------
//
// One long-lived transaction holds R reads; each iteration draws one stamp
// on a side thread clock of the SAME time base (time moves, but no writer
// commits, so the commit epoch is unchanged) and calls try_extend_now().
// Filter on: the O(1) epoch comparison admits the new snapshot bound.
// Filter off (_NoFilter twins, filter_stripes = 0): the full O(R)
// read-set walk runs every time. check_bench.py --epoch-gate requires
// on >= 2x off at R=8192.
//
// The filter arms on demand (DESIGN.md "Stripes on demand"): an unarmed
// extension walk over R >= kArmWalk entries asks for it, and the request
// is served once that attempt ends. Every extension row first runs one
// such attempt (arm_by_walk), so its timed attempt begins armed with the
// filter on, and keeps walking with it off (which never arms).

template <typename Ctx, typename ReadAll>
void arm_by_walk(Ctx& ctx, tb::ThreadClock& side, ReadAll read_all) {
    auto tx = ctx.txn_begin();
    read_all(tx);
    side.get_new_ts();
    benchmark::DoNotOptimize(tx.try_extend_now());
    ctx.txn_commit(tx);
}

// Fails a row whose engine did not end up in the filter mode it measures
// (called before the timed loop, which SkipWithError then skips).
template <typename Stm>
void check_arm_state(benchmark::State& state, const Stm& stm, bool filter) {
    if (stm.filter_armed() != filter)
        state.SkipWithError(filter ? "epoch filter did not arm"
                                   : "epoch filter armed with the filter off");
}

void bm_extend_lsa(benchmark::State& state, const std::string& spec,
                   bool filter) {
    const auto reads = static_cast<std::size_t>(state.range(0));
    StmConfig cfg;
    if (!filter) cfg.filter_stripes = 0;
    Rig rig(spec, reads, cfg);
    auto ctx = rig.stm.make_context();
    auto side = rig.stm.time_base().make_thread_clock();
    // Warm block-drawing bases past their deviation window: on a fresh
    // batched counter even the initial version 0 is inadmissible
    // (0 + 2*deviation <= get_time() fails) and the raw reads below
    // would throw a freshness abort.
    for (int i = 0; i < 64; ++i) side.get_new_ts();
    long sum = 0;
    const auto read_all = [&](Transaction& t) {
        for (auto& v : rig.vars) sum += v->get(t);
    };
    arm_by_walk(ctx, side, read_all);
    check_arm_state(state, rig.stm, filter);
    Transaction tx = ctx.txn_begin();
    read_all(tx);
    benchmark::DoNotOptimize(sum);
    for (auto _ : state) {
        side.get_new_ts();
        benchmark::DoNotOptimize(tx.try_extend_now());
    }
    state.SetItemsProcessed(state.iterations());
}

void bm_extend_orec(benchmark::State& state, const std::string& spec,
                    bool filter) {
    const auto reads = static_cast<std::size_t>(state.range(0));
    OrecConfig cfg;
    if (!filter) cfg.filter_stripes = 0;
    OrecRig rig(spec, reads, cfg);
    auto ctx = rig.stm.make_context();
    auto side = rig.stm.time_base().make_thread_clock();
    // Same warm-up as bm_extend_lsa: clear the deviation window so the
    // anchor reads admit version 0 on block-drawing bases.
    for (int i = 0; i < 64; ++i) side.get_new_ts();
    long sum = 0;
    const auto read_all = [&](OrecTransaction& t) {
        for (auto& v : rig.vars) sum += v->get(t);
    };
    arm_by_walk(ctx, side, read_all);
    check_arm_state(state, rig.stm, filter);
    OrecTransaction tx = ctx.txn_begin();
    read_all(tx);
    benchmark::DoNotOptimize(sum);
    for (auto _ : state) {
        side.get_new_ts();
        benchmark::DoNotOptimize(tx.try_extend_now());
    }
    state.SetItemsProcessed(state.iterations());
}

// --- striped-filter rows: extension under a DISJOINT writer -------------
//
// The workload the stripe sharding exists for: a long-lived reader holds
// R reads while a writer commits -- every iteration -- to a var OUTSIDE
// the reader's stripes. With the single-word filter (stripes=1, the
// _Stripe1 twins) every writer bump kills the fast hit and the extension
// walks all R entries; with the default striping the bump lands outside
// the reader's signature and the extension stays O(touched stripes).
// check_bench.py --stripe-gate requires default >= 2x _Stripe1 at R=8192.
//
// The writer runs interleaved on the SAME thread (one commit per
// iteration) rather than free-running: on a single-CPU host a background
// thread would starve during the timed loop and the stripes=1 row would
// fast-hit too, collapsing the ratio. Both rows pay the identical writer
// commit, so the delta isolates the extension cost.
//
// Reader vars live in one contiguous arena of slots (TVar<long>, three
// words each) so the R=8192 footprint spans a handful of 16KiB range
// stripes instead of the whole heap; the writer var is probed into a
// stripe outside the reader's signature (verified via filter_stripe_of,
// not assumed from the arithmetic).

constexpr std::size_t kStripeBlock = 16 * 1024;

void bm_extend_lsa_disjoint(benchmark::State& state, unsigned stripes) {
    const auto reads = static_cast<std::size_t>(state.range(0));
    using Slot = TVar<long>;
    StmConfig cfg;
    cfg.filter_stripes = stripes;
    LsaStm stm(tb::make("shared"), cfg);
    std::unique_ptr<unsigned char[]> rbuf(
        new unsigned char[reads * sizeof(Slot)]);
    auto* rv = reinterpret_cast<Slot*>(rbuf.get());
    for (std::size_t i = 0; i < reads; ++i) new (rv + i) Slot(1);
    std::uint64_t rsig = 0;
    for (std::size_t i = 0; i < reads; ++i)
        rsig |= std::uint64_t{1} << stm.filter_stripe_of(rv + i);
    std::unique_ptr<unsigned char[]> wbuf(
        new unsigned char[64 * kStripeBlock]);
    Slot* wv = nullptr;
    for (unsigned c = 0; c < 64 && wv == nullptr; ++c) {
        unsigned char* cand = wbuf.get() + c * kStripeBlock;
        if (!((rsig >> stm.filter_stripe_of(cand)) & 1u))
            wv = new (cand) Slot(1);
    }
    if (wv == nullptr)  // stripes=1: no stripe is disjoint, any slot does
        wv = new (wbuf.get()) Slot(1);

    {
        auto rctx = stm.make_context();
        auto wctx = stm.make_context();
        auto side = stm.time_base().make_thread_clock();
        long sum = 0;
        const auto read_all = [&](Transaction& t) {
            for (std::size_t i = 0; i < reads; ++i) sum += rv[i].get(t);
        };
        arm_by_walk(rctx, side, read_all);
        check_arm_state(state, stm, true);
        Transaction tx = rctx.txn_begin();
        read_all(tx);
        benchmark::DoNotOptimize(sum);
        for (auto _ : state) {
            wctx.run(
                [&](Transaction& t) { wv->set(t, wv->get(t) + 1); });
            benchmark::DoNotOptimize(tx.try_extend_now());
        }
    }
    state.SetItemsProcessed(state.iterations());
    wv->~Slot();
    for (std::size_t i = 0; i < reads; ++i) rv[i].~Slot();
}

void bm_extend_orec_disjoint(benchmark::State& state, unsigned stripes) {
    const auto reads = static_cast<std::size_t>(state.range(0));
    OrecConfig cfg;
    cfg.filter_stripes = stripes;
    OrecStm stm(tb::make("shared"), cfg);
    std::unique_ptr<unsigned char[]> rbuf(
        new unsigned char[reads * sizeof(WordVar<long>)]);
    auto* rv = reinterpret_cast<WordVar<long>*>(rbuf.get());
    for (std::size_t i = 0; i < reads; ++i) new (rv + i) WordVar<long>(1);
    std::uint64_t rsig = 0;
    for (std::size_t i = 0; i < reads; ++i)
        rsig |= std::uint64_t{1} << stm.filter_stripe_of(rv + i);
    std::unique_ptr<unsigned char[]> wbuf(
        new unsigned char[64 * kStripeBlock]);
    WordVar<long>* wv = nullptr;
    for (unsigned c = 0; c < 64 && wv == nullptr; ++c) {
        unsigned char* cand = wbuf.get() + c * kStripeBlock;
        if (!((rsig >> stm.filter_stripe_of(cand)) & 1u))
            wv = new (cand) WordVar<long>(1);
    }
    if (wv == nullptr)
        wv = new (wbuf.get()) WordVar<long>(1);

    {
        auto rctx = stm.make_context();
        auto wctx = stm.make_context();
        auto side = stm.time_base().make_thread_clock();
        long sum = 0;
        const auto read_all = [&](OrecTransaction& t) {
            for (std::size_t i = 0; i < reads; ++i) sum += rv[i].get(t);
        };
        arm_by_walk(rctx, side, read_all);
        check_arm_state(state, stm, true);
        OrecTransaction tx = rctx.txn_begin();
        read_all(tx);
        benchmark::DoNotOptimize(sum);
        for (auto _ : state) {
            wctx.run(
                [&](OrecTransaction& t) { wv->set(t, wv->get(t) + 1); });
            benchmark::DoNotOptimize(tx.try_extend_now());
        }
    }
    state.SetItemsProcessed(state.iterations());
    wv->~WordVar<long>();
    for (std::size_t i = 0; i < reads; ++i) rv[i].~WordVar<long>();
}

// --- read-only commit fast path (no stamp drawn) ------------------------
//
// Single-var transactions on the shared counter: the update twin pays the
// counter RMW at commit, the read-only row commits straight off its
// snapshot. check_bench.py requires the RO row to be cheaper.

void bm_ro_commit_lsa(benchmark::State& state) {
    Rig rig("shared", 1);
    auto ctx = rig.stm.make_context();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ctx.run([&](Transaction& tx) { return rig.vars[0]->get(tx); }));
    }
    state.SetItemsProcessed(state.iterations());
}

void bm_update_commit_lsa(benchmark::State& state) {
    Rig rig("shared", 1);
    auto ctx = rig.stm.make_context();
    for (auto _ : state) {
        ctx.run([&](Transaction& tx) {
            rig.vars[0]->set(tx, rig.vars[0]->get(tx) + 1);
        });
    }
    state.SetItemsProcessed(state.iterations());
}

void bm_ro_commit_orec(benchmark::State& state) {
    OrecRig rig("shared", 1);
    auto ctx = rig.stm.make_context();
    for (auto _ : state) {
        benchmark::DoNotOptimize(ctx.run(
            [&](OrecTransaction& tx) { return rig.vars[0]->get(tx); }));
    }
    state.SetItemsProcessed(state.iterations());
}

void bm_update_commit_orec(benchmark::State& state) {
    OrecRig rig("shared", 1);
    auto ctx = rig.stm.make_context();
    for (auto _ : state) {
        ctx.run([&](OrecTransaction& tx) {
            rig.vars[0]->set(tx, rig.vars[0]->get(tx) + 1);
        });
    }
    state.SetItemsProcessed(state.iterations());
}

// Wider-than-a-word TVar: same layout as TVar<long>, but every value and
// history-entry access is a 16-byte atomic.
struct Wide {
    long a;
    long b;
};

void bm_update_wide_txn(benchmark::State& state, const std::string& spec) {
    const auto writes = static_cast<std::size_t>(state.range(0));
    LsaStm stm(tb::make(spec));
    std::vector<std::unique_ptr<TVar<Wide>>> vars;
    for (std::size_t i = 0; i < writes; ++i)
        vars.push_back(std::make_unique<TVar<Wide>>(Wide{1, 2}));
    auto ctx = stm.make_context();
    for (auto _ : state) {
        ctx.run([&](Transaction& tx) {
            for (auto& v : vars) {
                Wide w = v->get(tx);
                w.a += 1;
                v->set(tx, w);
            }
        });
    }
    state.SetItemsProcessed(state.iterations() * static_cast<long>(writes));
}

void BM_ReadOnly_Counter(benchmark::State& s) { bm_readonly_txn(s, "shared"); }
void BM_ReadOnly_Clock(benchmark::State& s) { bm_readonly_txn(s, "perfect"); }
void BM_Update_Counter(benchmark::State& s) { bm_update_txn(s, "shared"); }
void BM_Update_Clock(benchmark::State& s) { bm_update_txn(s, "perfect"); }
void BM_ReadAfterWrite_Counter(benchmark::State& s) {
    bm_read_after_write(s, "shared");
}
void BM_Orec_ReadOnly_Counter(benchmark::State& s) {
    bm_orec_readonly_txn(s, "shared");
}
void BM_Orec_ReadOnly_Clock(benchmark::State& s) {
    bm_orec_readonly_txn(s, "perfect");
}
void BM_Orec_Update_Counter(benchmark::State& s) {
    bm_orec_update_txn(s, "shared");
}
void BM_Orec_Update_Clock(benchmark::State& s) {
    bm_orec_update_txn(s, "perfect");
}
void BM_Orec_ReadAfterWrite_Counter(benchmark::State& s) {
    bm_orec_read_after_write(s, "shared");
}
void BM_Orec_Update_Batched8(benchmark::State& s) {
    bm_orec_update_txn(s, "batched:B=8");
}
void BM_Tl2_Update(benchmark::State& s) { bm_tl2_update_txn(s); }
void BM_Update_Wide_Counter(benchmark::State& s) {
    bm_update_wide_txn(s, "shared");
}
void BM_Extend_Lsa(benchmark::State& s) { bm_extend_lsa(s, "shared", true); }
void BM_Extend_Lsa_NoFilter(benchmark::State& s) {
    bm_extend_lsa(s, "shared", false);
}
void BM_Extend_Orec(benchmark::State& s) { bm_extend_orec(s, "shared", true); }
void BM_Extend_Orec_NoFilter(benchmark::State& s) {
    bm_extend_orec(s, "shared", false);
}
void BM_Extend_Lsa_Batched8(benchmark::State& s) {
    bm_extend_lsa(s, "batched:B=8", true);
}
void BM_Extend_Lsa_Batched8_NoFilter(benchmark::State& s) {
    bm_extend_lsa(s, "batched:B=8", false);
}
void BM_Extend_Lsa_DisjointWriter(benchmark::State& s) {
    bm_extend_lsa_disjoint(s, 64);
}
void BM_Extend_Lsa_DisjointWriter_Stripe1(benchmark::State& s) {
    bm_extend_lsa_disjoint(s, 1);
}
void BM_Extend_Orec_DisjointWriter(benchmark::State& s) {
    bm_extend_orec_disjoint(s, 64);
}
void BM_Extend_Orec_DisjointWriter_Stripe1(benchmark::State& s) {
    bm_extend_orec_disjoint(s, 1);
}
void BM_ReadOnly_Commit_Lsa(benchmark::State& s) { bm_ro_commit_lsa(s); }
void BM_Update_Commit_Lsa(benchmark::State& s) { bm_update_commit_lsa(s); }
void BM_ReadOnly_Commit_Orec(benchmark::State& s) { bm_ro_commit_orec(s); }
void BM_Update_Commit_Orec(benchmark::State& s) { bm_update_commit_orec(s); }

}  // namespace

// The /1000 read-only rows exist for the orec-vs-LSA ratio gate: at /100
// (~450ns) the begin/commit constant and loop microstructure leave the
// 1.15x same-run bound within host noise (a ~7% layout swing on either
// side flips it), while at /1000 the per-access metadata lookup the gate
// isolates dominates. check_bench's --orec-min-ns floor skips the short
// rows; their absolute cost stays covered by the cross-run gate.
BENCHMARK(BM_ReadOnly_Counter)->Arg(1)->Arg(10)->Arg(100)->Arg(1000);
BENCHMARK(BM_ReadOnly_Clock)->Arg(1)->Arg(10)->Arg(100)->Arg(1000);
BENCHMARK(BM_Update_Counter)->Arg(1)->Arg(10)->Arg(100);
BENCHMARK(BM_Update_Clock)->Arg(1)->Arg(10)->Arg(100);
BENCHMARK(BM_ReadAfterWrite_Counter);
BENCHMARK(BM_Orec_ReadOnly_Counter)->Arg(1)->Arg(10)->Arg(100)->Arg(1000);
BENCHMARK(BM_Orec_ReadOnly_Clock)->Arg(1)->Arg(10)->Arg(100)->Arg(1000);
BENCHMARK(BM_Orec_Update_Counter)->Arg(1)->Arg(10)->Arg(100);
BENCHMARK(BM_Orec_Update_Clock)->Arg(1)->Arg(10)->Arg(100);
BENCHMARK(BM_Orec_ReadAfterWrite_Counter);
BENCHMARK(BM_Orec_Update_Batched8)->Arg(100);
BENCHMARK(BM_Tl2_Update)->Arg(100);
BENCHMARK(BM_Update_Wide_Counter)->Arg(1)->Arg(100);
BENCHMARK(BM_Extend_Lsa)->Arg(1024)->Arg(8192);
BENCHMARK(BM_Extend_Lsa_NoFilter)->Arg(1024)->Arg(8192);
BENCHMARK(BM_Extend_Orec)->Arg(1024)->Arg(8192);
BENCHMARK(BM_Extend_Orec_NoFilter)->Arg(1024)->Arg(8192);
BENCHMARK(BM_Extend_Lsa_Batched8)->Arg(8192);
BENCHMARK(BM_Extend_Lsa_Batched8_NoFilter)->Arg(8192);
BENCHMARK(BM_Extend_Lsa_DisjointWriter)->Arg(8192);
BENCHMARK(BM_Extend_Lsa_DisjointWriter_Stripe1)->Arg(8192);
BENCHMARK(BM_Extend_Orec_DisjointWriter)->Arg(8192);
BENCHMARK(BM_Extend_Orec_DisjointWriter_Stripe1)->Arg(8192);
BENCHMARK(BM_ReadOnly_Commit_Lsa);
BENCHMARK(BM_Update_Commit_Lsa);
BENCHMARK(BM_ReadOnly_Commit_Orec);
BENCHMARK(BM_Update_Commit_Orec);

int main(int argc, char** argv) {
    // Uniform --timebase flag: each extra spec registers the full row set
    // under a spec-tagged name, so sweeps never shadow the gated rows.
    // --engine takes a full stm::make() registry spec and points the
    // dynamic rows at that engine; its keys flow into the rows' config
    // ("orec:bits=14,stripes=0"). The dynamic rows sweep time bases, so
    // only the time-base engines (lsa, orec) are accepted -- but the spec
    // is still resolved through the registry first, so an unknown name or
    // key exits 2 with the registry's one-line message, same as a
    // --timebase typo.
    try {
        const std::string engine = chronostm::extract_engine_flag(argc, argv);
        const chronostm::stm::Engine eng = chronostm::stm::make(engine);
        chronostm::StmConfig lsa_cfg;
        chronostm::OrecConfig orec_cfg;
        bool orec = false;
        if (auto* a =
                chronostm::stm::get_if<chronostm::stm::OrecAdapter>(eng)) {
            orec = true;
            orec_cfg = a->stm().config();
        } else if (auto* a =
                       chronostm::stm::get_if<chronostm::stm::LsaAdapter>(
                           eng)) {
            lsa_cfg = a->stm().config();
        } else {
            throw std::invalid_argument(
                "--engine '" + engine +
                "': the dynamic _TB rows sweep time bases, which only the "
                "lsa and orec engines consume");
        }
        for (const auto& spec : chronostm::tb::split_specs(
                 chronostm::extract_timebase_flag(argc, argv))) {
            chronostm::tb::make(spec);
            if (orec) {
                benchmark::RegisterBenchmark(
                    ("BM_ReadOnly_TB/" + spec).c_str(), bm_orec_readonly_txn,
                    spec, orec_cfg)
                    ->Arg(10)
                    ->Arg(100);
                benchmark::RegisterBenchmark(
                    ("BM_Update_TB/" + spec).c_str(), bm_orec_update_txn,
                    spec, orec_cfg)
                    ->Arg(10)
                    ->Arg(100);
            } else {
                benchmark::RegisterBenchmark(
                    ("BM_ReadOnly_TB/" + spec).c_str(), bm_readonly_txn,
                    spec, lsa_cfg)
                    ->Arg(10)
                    ->Arg(100);
                benchmark::RegisterBenchmark(
                    ("BM_Update_TB/" + spec).c_str(), bm_update_txn, spec,
                    lsa_cfg)
                    ->Arg(10)
                    ->Arg(100);
            }
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
    return chronostm::gbench_main_with_json(argc, argv);
}
