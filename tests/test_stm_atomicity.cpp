// Tier-1 STM semantics: atomicity of concurrent bank-style transfers.
// Threads move money between accounts through transactions; if any
// transfer is torn or lost the total changes.
//
// Two layers are exercised:
//  * the LSA core directly, over time bases selected BY STRING KEY through
//    the runtime-pluggable facade (tb::make) -- exact and batched
//    counters included -- plus a wrapped custom-device
//    ExtSync base, cross-checking the commit count against the work
//    actually submitted;
//  * the stm/adapter.hpp facade, over every engine behind it -- LSA-RT,
//    the orec-table engine (over the full CI time-base matrix plus the
//    CHRONOSTM_TIMEBASE spec), TL2, the validation STM with and without
//    the commit-counter heuristic, and the global lock -- so all
//    comparison baselines pass the same atomicity bar as the paper's
//    system.
//
// The CHRONOSTM_TIMEBASE env var (CI's tier-1 time-base sweep) adds one
// more registry spec to the core pass.

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <chronostm/core/lsa_stm.hpp>
#include <chronostm/stm/adapter.hpp>
#include <chronostm/util/rng.hpp>
#include <chronostm/workload/bank.hpp>

#include "test_util.hpp"

using namespace chronostm;

namespace {

constexpr unsigned kThreads = 8;
constexpr int kAccounts = 32;
constexpr long kInitial = 100;
constexpr int kTransfersPerThread = 3000;

void check_bank(tb::TimeBase tbase, const char* name) {
    LsaStm stm(std::move(tbase));
    std::vector<std::unique_ptr<TVar<long>>> acct;
    for (int i = 0; i < kAccounts; ++i)
        acct.push_back(std::make_unique<TVar<long>>(kInitial));

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&stm, &acct, t] {
            auto ctx = stm.make_context();
            Rng rng(t * 977 + 11);
            for (int i = 0; i < kTransfersPerThread; ++i) {
                const auto a = rng.below(kAccounts);
                auto b = rng.below(kAccounts);
                if (a == b) b = (b + 1) % kAccounts;
                const long amount = static_cast<long>(rng.below(10)) + 1;
                ctx.run([&](Transaction& tx) {
                    acct[a]->set(tx, acct[a]->get(tx) - amount);
                    acct[b]->set(tx, acct[b]->get(tx) + amount);
                });
            }
        });
    }
    for (auto& th : threads) th.join();

    long total = 0;
    for (const auto& a : acct) total += a->unsafe_peek();
    CHECK_MSG(total == kInitial * kAccounts, "time base %s: total %ld", name,
              total);

    const auto stats = stm.collected_stats();
    CHECK_MSG(stats.commits() ==
                  static_cast<std::uint64_t>(kThreads) * kTransfersPerThread,
              "time base %s: commits %llu", name,
              static_cast<unsigned long long>(stats.commits()));
}

// The same bar through the adapter facade, generic over the engine, using
// the actual workload the comparison benches measure (wl::Bank).
constexpr unsigned kFacadeThreads = 4;
constexpr int kFacadePerThread = 1200;

template <typename A>
void check_bank_facade(A& adapter, const char* name) {
    wl::Bank<A> bank(kAccounts, kInitial);

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kFacadeThreads; ++t) {
        threads.emplace_back([&adapter, &bank, t] {
            auto ctx = adapter.make_context();
            Rng rng(t * 461 + 29);
            for (int i = 0; i < kFacadePerThread; ++i)
                bank.transfer(adapter, ctx, rng);
        });
    }
    for (auto& th : threads) th.join();

    CHECK_MSG(bank.unsafe_total() == bank.expected_total(),
              "engine %s: total %ld", name, bank.unsafe_total());
    const auto stats = adapter.collected_stats();
    CHECK_MSG(stats.commits() == static_cast<std::uint64_t>(kFacadeThreads) *
                                     kFacadePerThread,
              "engine %s: commits %llu", name,
              static_cast<unsigned long long>(stats.commits()));
}

}  // namespace

int main() {
    // Every counter family and the hardware clock, by registry key. The
    // imprecise bases (batched blocks; B=16 publishes deviation 8) may
    // cost retries but never atomicity.
    for (const char* spec :
         {"shared", "perfect", "batched:B=8", "batched:B=16"})
        check_bank(tb::make(spec), spec);
    if (const char* env = std::getenv("CHRONOSTM_TIMEBASE"))
        for (const auto& spec : tb::split_specs(env))
            check_bank(tb::make(spec), spec.c_str());
    {
        // Custom simulated devices cannot come from the registry: wrap the
        // concrete base instead (the facade's second construction path).
        static tb::WallTimeSource src;
        static std::vector<std::unique_ptr<tb::PerfectDevice>> devs;
        std::vector<tb::ClockDevice*> ptrs;
        for (unsigned i = 0; i < kThreads; ++i) {
            devs.push_back(
                std::make_unique<tb::PerfectDevice>(src, 1'000'000'000));
            ptrs.push_back(devs.back().get());
        }
        // A fat 10us deviation bound: hurts freshness, never atomicity.
        static auto tbase =
            tb::ExtSyncTimeBase::with_static_params(ptrs, 0, 10'000);
        check_bank(tb::TimeBase::wrap(*tbase), "ExtSync(dev=10us)");
    }

    // Every engine behind the facade passes the same suite. The orec
    // engine runs the CI tier-1 time-base matrix (same specs as the core
    // pass) -- its commit protocol touches the time base at the same
    // points, so an imprecise base must cost only retries there too.
    for (const char* spec : {"shared", "perfect", "batched:B=64"}) {
        stm::LsaAdapter a(tb::make(spec));
        check_bank_facade(a, spec);
    }
    for (const char* spec :
         {"shared", "perfect", "batched:B=8", "batched:B=16"}) {
        stm::OrecAdapter a(tb::make(spec));
        check_bank_facade(a, (std::string("orec/") + spec).c_str());
    }
    if (const char* env = std::getenv("CHRONOSTM_TIMEBASE"))
        for (const auto& spec : tb::split_specs(env)) {
            stm::OrecAdapter a(tb::make(spec));
            check_bank_facade(a, ("orec/" + spec).c_str());
        }
    {
        stm::Tl2Adapter a;
        check_bank_facade(a, "TL2");
    }
    {
        stm::VstmAdapter a;
        check_bank_facade(a, "VSTM/cc-heuristic");
    }
    {
        stm::VstmConfig cfg;
        cfg.commit_counter_heuristic = false;
        stm::VstmAdapter a(cfg);
        check_bank_facade(a, "VSTM/always-validate");
    }
    {
        stm::GlobalLockAdapter a;
        check_bank_facade(a, "GlobalLock");
    }

    // Explicit txn_begin/txn_commit facade path (single-threaded sanity).
    {
        stm::LsaAdapter a(tb::make("shared"));
        auto ctx = a.make_context();
        TVar<long> v(5);
        auto tx = a.txn_begin(ctx);
        stm::LsaAdapter::Txn h(tx);
        h.write(v, h.read(v) + 1);
        CHECK(a.txn_commit(ctx, tx));
        CHECK(v.unsafe_peek() == 6);
        CHECK(ctx.stats().commits() == 1);
    }
    {
        stm::OrecAdapter a(tb::make("shared"));
        auto ctx = a.make_context();
        stm::OrecAdapter::Var<long> v(5);
        auto tx = a.txn_begin(ctx);
        stm::OrecAdapter::Txn h(tx);
        h.write(v, h.read(v) + 1);
        CHECK(a.txn_commit(ctx, tx));
        CHECK(v.unsafe_peek() == 6);
        CHECK(ctx.stats().commits() == 1);
    }
    {
        stm::Tl2Adapter a;
        auto ctx = a.make_context();
        stm::Tl2Adapter::Var<long> v(5);
        auto tx = a.txn_begin(ctx);
        tx.write(v, tx.read(v) + 1);
        CHECK(a.txn_commit(ctx, tx));
        CHECK(v.unsafe_peek() == 6);
    }
    {
        stm::VstmAdapter a;
        auto ctx = a.make_context();
        stm::VstmAdapter::Var<long> v(5);
        auto tx = a.txn_begin(ctx);
        tx.write(v, tx.read(v) + 1);
        CHECK(a.txn_commit(ctx, tx));
        CHECK(v.unsafe_peek() == 6);
    }
    {
        stm::GlobalLockAdapter a;
        auto ctx = a.make_context();
        stm::GlobalLockAdapter::Var<long> v(5);
        auto tx = a.txn_begin(ctx);
        tx.write(v, tx.read(v) + 1);
        CHECK(a.txn_commit(ctx, tx));
        CHECK(v.unsafe_peek() == 6);
        CHECK(ctx.stats().commits() == 1);
    }

    std::printf("test_stm_atomicity: PASS\n");
    return 0;
}
