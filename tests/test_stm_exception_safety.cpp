// Tier-1 exception safety: an exception thrown out of a user functor must
// unwind cleanly through run() -- no locks left behind, no stale access
// sets, no leaked irrevocability token -- leaving the engine fully usable
// for the next transaction on the SAME context and on other threads. Both
// engines are lazy (writes stage in the write set, locks exist only inside
// commit), so the mid-functor unwind path holds no engine state except the
// token, which detail::TokenGuard releases.

#include <stdexcept>
#include <thread>

#include <chronostm/stm/adapter.hpp>

#include "test_util.hpp"

using namespace chronostm;

namespace {

struct UserBoom : std::runtime_error {
    UserBoom() : std::runtime_error("user functor exception") {}
};

// A functor throw mid-transaction (reads and writes already staged) must
// not commit anything, and the same context must work afterwards.
template <typename Adapter>
void check_throwing_functor(Adapter& adapter) {
    typename Adapter::template Var<long> v(10);
    auto ctx = adapter.make_context();

    bool threw = false;
    try {
        adapter.run(ctx, [&](typename Adapter::Txn& tx) {
            tx.write(v, tx.read(v) + 100);  // staged, never published
            throw UserBoom{};
        });
    } catch (const UserBoom&) {
        threw = true;
    }
    CHECK(threw);
    CHECK(v.unsafe_peek() == 10);  // the aborted attempt published nothing

    // Same context, fresh transaction: access sets were reset, no lock
    // state survived the unwind.
    adapter.run(ctx, [&](typename Adapter::Txn& tx) {
        tx.write(v, tx.read(v) + 1);
    });
    CHECK(v.unsafe_peek() == 11);

    // Other threads are unaffected too.
    std::thread peer([&] {
        auto pctx = adapter.make_context();
        adapter.run(pctx, [&](typename Adapter::Txn& tx) {
            tx.write(v, tx.read(v) + 1);
        });
    });
    peer.join();
    CHECK(v.unsafe_peek() == 12);
}

// A functor throw WHILE HOLDING the irrevocability token (escalated via
// the ladder, then the user code dies) must release the token on unwind;
// otherwise every later escalation -- and every update commit's gate
// entry -- would wedge forever.
template <typename Adapter, typename Stm, typename Cfg>
void check_throwing_escalated(Cfg cfg) {
    cfg.irrevocable_threshold = 1;
    Adapter adapter(tb::make("shared"), cfg);
    typename Adapter::template Var<long> v(0);
    auto ctx = adapter.make_context();

    bool threw = false;
    int tries = 0;
    try {
        adapter.run(ctx, [&](typename Adapter::Txn& tx) {
            ++tries;
            (void)tx.read(v);
            if (!tx.irrevocable()) tx.abort();  // drive the escalation
            throw UserBoom{};                   // die while holding the token
        });
    } catch (const UserBoom&) {
        threw = true;
    }
    CHECK(threw);
    CHECK_MSG(tries == 2, "tries %d", tries);
    Stm& stm = adapter.stm();
    CHECK(!stm.irrevocable_active());  // TokenGuard released it

    // The gate still works end to end: a later transaction can escalate
    // (acquire the token, drain, commit) and plain commits pass through.
    adapter.run(ctx, [&](typename Adapter::Txn& tx) {
        tx.write(v, tx.read(v) + 1);
        if (!tx.irrevocable()) tx.become_irrevocable();
    });
    CHECK(v.unsafe_peek() == 1);
    CHECK(!stm.irrevocable_active());
    adapter.run(ctx, [&](typename Adapter::Txn& tx) {
        tx.write(v, tx.read(v) + 1);
    });
    CHECK(v.unsafe_peek() == 2);
    CHECK(adapter.collected_stats().escalations == 2);
    CHECK(adapter.collected_stats().irrevocable_commits == 1);
}

}  // namespace

int main() {
    {
        stm::LsaAdapter a(tb::make("shared"));
        check_throwing_functor(a);
    }
    {
        stm::OrecAdapter a(tb::make("shared"));
        check_throwing_functor(a);
    }
    check_throwing_escalated<stm::LsaAdapter, LsaStm>(StmConfig{});
    check_throwing_escalated<stm::OrecAdapter, OrecStm>(OrecConfig{});

    std::printf("test_stm_exception_safety: PASS\n");
    return 0;
}
