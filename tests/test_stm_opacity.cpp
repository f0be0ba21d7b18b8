// Tier-1 STM semantics: read-only snapshot consistency (opacity smoke
// test). Writers keep the invariant a + b == kTotal while moving value
// between the pair; readers -- inside the transaction body, i.e. including
// attempts that will never commit -- must always observe the invariant and
// stable repeated reads. LSA gives this by construction: every read is
// validated against the snapshot interval at read time. The same bar is
// then applied through the adapter facade to every comparison engine
// (TL2 revalidates against its read version, the validation STM
// revalidates the read set at each open, the global lock is trivially
// consistent): a baseline that only "mostly" provides opacity would
// poison every comparison table built on it.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <cstdlib>

#include <chronostm/core/lsa_stm.hpp>
#include <chronostm/stm/adapter.hpp>
#include <chronostm/util/rng.hpp>

#include "test_util.hpp"

using namespace chronostm;

namespace {

using Tx = Transaction;

constexpr long kTotal = 200;

// Core layer: writers keep a + b == kTotal; in-transaction readers must
// always observe the invariant, whatever base the facade resolves.
void check_opacity_core(tb::TimeBase tbase, const char* name, int run_ms,
                        int writers, int readers) {
    LsaStm stm(std::move(tbase));
    TVar<long> a(kTotal / 2), b(kTotal / 2);

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> reader_txns{0};
    std::atomic<int> violations{0};

    std::vector<std::thread> threads;
    for (int w = 0; w < writers; ++w) {
        threads.emplace_back([&, w] {
            auto ctx = stm.make_context();
            Rng rng(w * 131 + 7);
            while (!stop.load(std::memory_order_acquire)) {
                const long amount = static_cast<long>(rng.below(20)) + 1;
                ctx.run([&](Tx& tx) {
                    a.set(tx, a.get(tx) - amount);
                    b.set(tx, b.get(tx) + amount);
                });
            }
        });
    }
    for (int r = 0; r < readers; ++r) {
        threads.emplace_back([&] {
            auto ctx = stm.make_context();
            while (!stop.load(std::memory_order_acquire)) {
                ctx.run([&](Tx& tx) {
                    const long a1 = a.get(tx);
                    const long b1 = b.get(tx);
                    const long a2 = a.get(tx);
                    if (a1 + b1 != kTotal || a1 != a2)
                        violations.fetch_add(1, std::memory_order_relaxed);
                });
                reader_txns.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }

    std::this_thread::sleep_for(std::chrono::milliseconds(run_ms));
    stop.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();

    CHECK_MSG(violations.load() == 0, "time base %s: %d violations", name,
              violations.load());
    CHECK_MSG(reader_txns.load() > 0, "time base %s: no reader progress",
              name);
    CHECK_MSG(a.unsafe_peek() + b.unsafe_peek() == kTotal,
              "time base %s: total %ld", name,
              a.unsafe_peek() + b.unsafe_peek());
    std::printf("core/%s: %llu reader txns, 0 violations\n", name,
                static_cast<unsigned long long>(reader_txns.load()));
}

// Facade version, generic over the engine.
template <typename A>
void check_opacity_facade(A& adapter, const char* name, int run_ms) {
    using Var = typename A::template Var<long>;
    Var a(kTotal / 2), b(kTotal / 2);

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> reader_txns{0};
    std::atomic<int> violations{0};

    std::vector<std::thread> threads;
    for (int w = 0; w < 2; ++w) {
        threads.emplace_back([&, w] {
            auto ctx = adapter.make_context();
            Rng rng(w * 131 + 7);
            while (!stop.load(std::memory_order_acquire)) {
                const long amount = static_cast<long>(rng.below(20)) + 1;
                adapter.run(ctx, [&](typename A::Txn& tx) {
                    tx.write(a, tx.read(a) - amount);
                    tx.write(b, tx.read(b) + amount);
                });
            }
        });
    }
    for (int r = 0; r < 2; ++r) {
        threads.emplace_back([&] {
            auto ctx = adapter.make_context();
            while (!stop.load(std::memory_order_acquire)) {
                adapter.run(ctx, [&](typename A::Txn& tx) {
                    const long a1 = tx.read(a);
                    const long b1 = tx.read(b);
                    const long a2 = tx.read(a);
                    if (a1 + b1 != kTotal || a1 != a2)
                        violations.fetch_add(1, std::memory_order_relaxed);
                });
                reader_txns.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }

    std::this_thread::sleep_for(std::chrono::milliseconds(run_ms));
    stop.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();

    CHECK_MSG(violations.load() == 0, "engine %s: %d violations", name,
              violations.load());
    CHECK_MSG(reader_txns.load() > 0, "engine %s: no reader progress", name);
    CHECK_MSG(a.unsafe_peek() + b.unsafe_peek() == kTotal,
              "engine %s: total %ld", name,
              a.unsafe_peek() + b.unsafe_peek());
}

}  // namespace

int main() {
    // Core layer over registry-selected bases: the exact counter as
    // shipped in PR 1, plus the imprecise scalable bases whose deviation
    // shrink must keep every snapshot consistent anyway (batched stamps
    // lag the counter).
    check_opacity_core(tb::make("shared"), "shared", 300, 4, 4);
    check_opacity_core(tb::make("batched:B=16"), "batched:B=16", 150, 2, 2);
    if (const char* env = std::getenv("CHRONOSTM_TIMEBASE"))
        for (const auto& spec : tb::split_specs(env))
            check_opacity_core(tb::make(spec), spec.c_str(), 150, 2, 2);

    // Every engine behind the facade passes the same bar. The orec engine
    // sweeps the CI tier-1 time-base matrix: its seqlock-style reads must
    // stay opaque whatever base supplies the snapshot interval.
    for (const char* spec : {"shared", "batched:B=16"}) {
        stm::LsaAdapter a(tb::make(spec));
        check_opacity_facade(a, spec, 150);
    }
    for (const char* spec :
         {"shared", "perfect", "batched:B=8", "batched:B=16"}) {
        stm::OrecAdapter a(tb::make(spec));
        check_opacity_facade(a, (std::string("orec/") + spec).c_str(), 150);
    }
    if (const char* env = std::getenv("CHRONOSTM_TIMEBASE"))
        for (const auto& spec : tb::split_specs(env)) {
            stm::OrecAdapter a(tb::make(spec));
            check_opacity_facade(a, ("orec/" + spec).c_str(), 150);
        }
    {
        stm::Tl2Adapter a;
        check_opacity_facade(a, "TL2", 150);
    }
    {
        stm::VstmAdapter a;
        check_opacity_facade(a, "VSTM/cc-heuristic", 150);
    }
    {
        stm::VstmConfig cfg;
        cfg.commit_counter_heuristic = false;
        stm::VstmAdapter a(cfg);
        check_opacity_facade(a, "VSTM/always-validate", 150);
    }
    {
        stm::GlobalLockAdapter a;
        check_opacity_facade(a, "GlobalLock", 100);
    }

    std::printf("test_stm_opacity: PASS\n");
    return 0;
}
