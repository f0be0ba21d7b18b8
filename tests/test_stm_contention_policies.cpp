// Tier-1: the one conflict policy both snapshot engines share -- a waiter
// spins on a foreign lock for up to lock_spin spins, then aborts itself
// and backs off -- preserves atomicity and makes progress on a hot-spot
// transfer workload, at the default budget and at spin=0 (abort at the
// first locked word), on the LSA and the orec engine alike. Every spec is
// built through the engine registry, so the budget is checked to land in
// the concrete config. Also checks that the time-base registry rejects
// typos at construction instead of misbehaving at runtime.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include <chronostm/stm/facade.hpp>
#include <chronostm/util/rng.hpp>

#include "test_util.hpp"

using namespace chronostm;

namespace {

constexpr unsigned kThreads = 4;
constexpr int kAccounts = 8;  // tiny on purpose: every txn conflicts
constexpr long kInitial = 100;
constexpr int kTransfersPerThread = 800;

template <typename A>
void run_transfers(A& adapter, const char* spec) {
    using Var = typename A::template Var<long>;
    std::vector<std::unique_ptr<Var>> acct;
    for (int i = 0; i < kAccounts; ++i)
        acct.push_back(std::make_unique<Var>(kInitial));

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&adapter, &acct, t] {
            auto ctx = adapter.make_context();
            Rng rng(t * 7919 + 13);
            for (int i = 0; i < kTransfersPerThread; ++i) {
                const auto a = rng.below(kAccounts);
                auto b = rng.below(kAccounts);
                if (a == b) b = (b + 1) % kAccounts;
                const long amount = static_cast<long>(rng.below(5)) + 1;
                adapter.run(ctx, [&](typename A::Txn& tx) {
                    tx.write(*acct[a], tx.read(*acct[a]) - amount);
                    tx.write(*acct[b], tx.read(*acct[b]) + amount);
                });
            }
        });
    }
    for (auto& th : threads) th.join();

    long total = 0;
    for (const auto& a : acct) total += a->unsafe_peek();
    CHECK_MSG(total == kInitial * kAccounts, "%s: total %ld", spec, total);
}

void check_policy(const char* spec, unsigned lock_spin) {
    stm::Engine eng = stm::make(spec);
    if (auto* a = stm::get_if<stm::LsaAdapter>(eng))
        CHECK_MSG(a->stm().config().lock_spin == lock_spin, "%s", spec);
    if (auto* a = stm::get_if<stm::OrecAdapter>(eng))
        CHECK_MSG(a->stm().config().lock_spin == lock_spin, "%s", spec);
    stm::visit(eng, [&](auto& adapter) { run_transfers(adapter, spec); });

    const auto stats = eng.collected_stats();
    CHECK_MSG(stats.commits() ==
                  static_cast<std::uint64_t>(kThreads) * kTransfersPerThread,
              "%s: commits %llu", spec,
              static_cast<unsigned long long>(stats.commits()));
}

}  // namespace

int main() {
    const unsigned spin = stm::CommonConfig{}.lock_spin;
    check_policy("lsa", spin);
    check_policy("lsa:spin=0", 0);
    check_policy("orec", spin);
    check_policy("orec:spin=0", 0);

    // The registry fails loudly on unknown base names and keys.
    bool threw = false;
    try {
        tb::make("no-such-base");
    } catch (const std::invalid_argument&) {
        threw = true;
    }
    CHECK(threw);
    threw = false;
    try {
        tb::make("batched:Q=7");
    } catch (const std::invalid_argument&) {
        threw = true;
    }
    CHECK(threw);

    std::printf("test_stm_contention_policies: PASS\n");
    return 0;
}
