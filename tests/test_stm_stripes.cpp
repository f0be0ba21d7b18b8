// Tier-1: the STRIPED commit-epoch filter (PR 10). The engine-global
// epoch word is sharded into cache-line-padded stripes keyed by an
// address-range hash; writers bump only the stripes their write set
// covers and readers compare only the stripes their read set touched.
// These tests pin the stripe-specific behavior:
//
//   * geometry: power-of-two rounding, clamping to 64, 0 (filter off)
//     kept as 0, and the orec engine's table-derived shift (stripe count
//     capped at table size)
//   * the tentpole workload: a writer committing OUTSIDE the reader's
//     stripes must leave the O(1) extension fast hit intact at the
//     default striping, while stripes=1 (the PR 7 single word) must drop
//     the same extension to the O(R) walk
//   * aliasing soundness direction: two vars forced into ONE stripe make
//     a disjoint-var writer cause a spurious walk -- never a stale fast
//     hit -- and the reader still sees consistent values
//   * stripes=1 equivalence: the exact PR 7 counter values (validation
//     fast hits, epoch bumps, and the new stripe counters mirroring the
//     old fast-hit/walk split)
//   * commit-time validation across interleaved committers in different
//     stripes stays on the fast path at the default striping and walks
//     at stripes=1
//   * filter off (stripes=0): the stripe counters never move, and the
//     engine never arms or bumps, also when made by stm::make
//   * the stm::make() registry accepts stripes= as a common key
//   * stripes on demand (DESIGN.md "Stripes on demand"): an unarmed
//     engine's small commits bump nothing; a walk of kArmWalk entries arms
//     it and a shorter one does not; an unarmed update whose read was
//     overwritten aborts instead of passing an empty signature as clean;
//     and arming waits for a commit that loaded `off` and is still in
//     flight (a parked commit hook in every build, plus the
//     lsa/orec_commit_pre_stamp failpoints in CHRONOSTM_FAILPOINTS builds)
//
// Every cell that pins fast hits or bumps arms the engine first
// (arm_stripes in test_util.hpp); the filter is unarmed until then.
//
// Var placement: a 16KiB-aligned static buffer; offset 64 shares the
// base's stripe (same 16KiB block), offset 32KiB is two stripes away at
// the default shift for BOTH engines (LSA shift 14; orec shift
// 4 + 16 - 6 = 14). The tests still assert the stripe relation through
// filter_stripe_of() rather than trusting the arithmetic.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <chronostm/core/lsa_stm.hpp>
#include <chronostm/core/orec_stm.hpp>
#include <chronostm/stm/facade.hpp>
#include <chronostm/util/failpoints.hpp>

#include "test_util.hpp"

using namespace chronostm;

namespace {

using Tx = Transaction;

constexpr std::size_t kBlock = 16 * 1024;
alignas(16384) unsigned char lsa_buf[3 * kBlock];
alignas(16384) unsigned char orec_buf[3 * kBlock];

void check_geometry() {
    {
        StmConfig cfg;
        cfg.filter_stripes = 3;  // rounds up
        LsaStm stm(tb::make("shared"), cfg);
        CHECK(stm.filter_stripes() == 4);
        CHECK(stm.config().filter_stripes == 4);
    }
    {
        StmConfig cfg;
        cfg.filter_stripes = 0;  // filter off: survives the rounding
        LsaStm stm(tb::make("shared"), cfg);
        CHECK(stm.filter_stripes() == 0);
        CHECK(stm.config().filter_stripes == 0);
    }
    {
        StmConfig cfg;
        cfg.filter_stripes = 100;  // clamps down to the signature width
        LsaStm stm(tb::make("shared"), cfg);
        CHECK(stm.filter_stripes() == 64);
    }
    {
        // A 16-entry orec table cannot carry 64 stripes: the count is
        // capped at the table size so a stripe never spans less than one
        // orec.
        OrecConfig cfg;
        cfg.table_bits = 4;
        cfg.filter_stripes = 64;
        OrecStm stm(tb::make("shared"), cfg);
        CHECK(stm.filter_stripes() == 16);
        CHECK(stm.config().filter_stripes == 16);
    }
}

// The workload the striping exists for: a reader extending over vars the
// writer never touches. At the default striping the writer's bump lands
// outside the reader's signature (O(1) fast hit); at stripes=1 every
// bump is "the" stripe and the reader walks.
void disjoint_writer_cell_lsa(unsigned stripes, bool expect_fast) {
    StmConfig cfg;
    cfg.filter_stripes = stripes;
    LsaStm stm(tb::make("shared"), cfg);
    arm_stripes<TVar<long>>(stm);
    auto* a = new (lsa_buf) TVar<long>(1);
    auto* b = new (lsa_buf + 2 * kBlock) TVar<long>(10);
    if (stripes > 1)
        CHECK(stm.filter_stripe_of(a) != stm.filter_stripe_of(b));

    auto rctx = stm.make_context();
    auto wctx = stm.make_context();
    Transaction tx = rctx.txn_begin();
    CHECK(a->get(tx) == 1);
    wctx.run([&](Tx& t) { b->set(t, 11); });  // disjoint writer
    CHECK(tx.try_extend_now());
    CHECK(rctx.txn_commit(tx));

    const auto st = rctx.stats();
    if (expect_fast) {
        CHECK_MSG(st.extension_fast_hits >= 1 && st.stripe_walks == 0,
                  "stripes=%u: fast hits %llu walks %llu", stripes,
                  static_cast<unsigned long long>(st.extension_fast_hits),
                  static_cast<unsigned long long>(st.stripe_walks));
        CHECK(st.stripe_fast_hits >= 1);
    } else {
        CHECK_MSG(st.stripe_walks >= 1 && st.extension_fast_hits == 0,
                  "stripes=%u: expected a walk, fast hits %llu", stripes,
                  static_cast<unsigned long long>(st.extension_fast_hits));
    }
    b->~TVar<long>();
    a->~TVar<long>();
}

void disjoint_writer_cell_orec(unsigned stripes, bool expect_fast) {
    OrecConfig cfg;
    cfg.filter_stripes = stripes;
    OrecStm stm(tb::make("shared"), cfg);
    arm_stripes<WordVar<long>>(stm);
    auto* a = new (orec_buf) WordVar<long>(1);
    auto* b = new (orec_buf + 2 * kBlock) WordVar<long>(10);
    if (stripes > 1)
        CHECK(stm.filter_stripe_of(a) != stm.filter_stripe_of(b));

    auto rctx = stm.make_context();
    auto wctx = stm.make_context();
    OrecTransaction tx = rctx.txn_begin();
    CHECK(a->get(tx) == 1);
    wctx.run([&](OrecTransaction& t) { b->set(t, 11); });
    CHECK(tx.try_extend_now());
    CHECK(rctx.txn_commit(tx));

    const auto st = rctx.stats();
    if (expect_fast) {
        CHECK_MSG(st.extension_fast_hits >= 1 && st.stripe_walks == 0,
                  "orec stripes=%u: fast hits %llu walks %llu", stripes,
                  static_cast<unsigned long long>(st.extension_fast_hits),
                  static_cast<unsigned long long>(st.stripe_walks));
        CHECK(st.stripe_fast_hits >= 1);
    } else {
        CHECK_MSG(st.stripe_walks >= 1 && st.extension_fast_hits == 0,
                  "orec stripes=%u: expected a walk, fast hits %llu",
                  stripes,
                  static_cast<unsigned long long>(st.extension_fast_hits));
    }
    b->~WordVar<long>();
    a->~WordVar<long>();
}

void check_disjoint_writer() {
    disjoint_writer_cell_lsa(64, /*expect_fast=*/true);
    disjoint_writer_cell_lsa(1, /*expect_fast=*/false);
    disjoint_writer_cell_orec(64, /*expect_fast=*/true);
    disjoint_writer_cell_orec(1, /*expect_fast=*/false);
}

// Aliasing direction: two DISTINCT vars in one stripe. The writer's bump
// aliases into the reader's signature, so the extension must take the
// spurious walk (stripe_walks moves) -- and because the vars really are
// distinct, the walk passes and the extension still succeeds with
// consistent values. A stale fast hit would show up as stripe_walks == 0
// here.
void check_alias_spurious_walk() {
    {
        StmConfig cfg;  // default 64 stripes
        LsaStm stm(tb::make("shared"), cfg);
        arm_stripes<TVar<long>>(stm);
        auto* a = new (lsa_buf) TVar<long>(1);
        auto* c = new (lsa_buf + 64) TVar<long>(2);  // same 16KiB block
        CHECK(stm.filter_stripe_of(a) == stm.filter_stripe_of(c));

        auto rctx = stm.make_context();
        auto wctx = stm.make_context();
        Transaction tx = rctx.txn_begin();
        CHECK(a->get(tx) == 1);
        wctx.run([&](Tx& t) { c->set(t, 7); });  // same stripe, other var
        CHECK(tx.try_extend_now());  // walk passes: a is untouched
        CHECK(a->get(tx) == 1);
        CHECK(rctx.txn_commit(tx));

        const auto st = rctx.stats();
        CHECK_MSG(st.stripe_walks >= 1, "lsa alias: %llu spurious walks",
                  static_cast<unsigned long long>(st.stripe_walks));
        CHECK(st.extension_fast_hits == 0);
        CHECK(rctx.run([&](Tx& t) { return c->get(t); }) == 7);
        c->~TVar<long>();
        a->~TVar<long>();
    }
    {
        OrecConfig cfg;
        OrecStm stm(tb::make("shared"), cfg);
        arm_stripes<WordVar<long>>(stm);
        auto* a = new (orec_buf) WordVar<long>(1);
        auto* c = new (orec_buf + 64) WordVar<long>(2);
        CHECK(stm.filter_stripe_of(a) == stm.filter_stripe_of(c));

        auto rctx = stm.make_context();
        auto wctx = stm.make_context();
        OrecTransaction tx = rctx.txn_begin();
        CHECK(a->get(tx) == 1);
        wctx.run([&](OrecTransaction& t) { c->set(t, 7); });
        CHECK(tx.try_extend_now());
        CHECK(a->get(tx) == 1);
        CHECK(rctx.txn_commit(tx));

        const auto st = rctx.stats();
        CHECK_MSG(st.stripe_walks >= 1, "orec alias: %llu spurious walks",
                  static_cast<unsigned long long>(st.stripe_walks));
        CHECK(st.extension_fast_hits == 0);
        CHECK(rctx.run([&](OrecTransaction& t) { return c->get(t); }) == 7);
        c->~WordVar<long>();
        a->~WordVar<long>();
    }
}

// stripes=1 must reproduce the PR 7 filter exactly: the solo updater's
// counters from test_stm_epoch, plus the new stripe counters mirroring
// the fast-hit/walk split (every fast hit is a stripe fast hit, no
// walks).
void check_stripe1_equivalence() {
    {
        StmConfig cfg;
        cfg.filter_stripes = 1;
        LsaStm stm(tb::make("shared"), cfg);
        CHECK(stm.filter_stripes() == 1);
        arm_stripes<TVar<long>>(stm);
        TVar<long> v(0);
        auto ctx = stm.make_context();
        for (int i = 0; i < 3; ++i)
            ctx.run([&](Tx& tx) { v.set(tx, v.get(tx) + 1); });
        CHECK(v.unsafe_peek() == 3);
        const auto st = ctx.stats();
        CHECK(st.validation_fast_hits == 3);
        CHECK(st.stripe_fast_hits == 3);
        CHECK(st.stripe_walks == 0);
        CHECK(stm.commit_epoch() == 3);  // one bump per writer commit
    }
    {
        OrecConfig cfg;
        cfg.filter_stripes = 1;
        OrecStm stm(tb::make("shared"), cfg);
        CHECK(stm.filter_stripes() == 1);
        arm_stripes<WordVar<long>>(stm);
        WordVar<long> v(5);
        auto ctx = stm.make_context();
        OrecTransaction tx = ctx.txn_begin();
        CHECK(v.get(tx) == 5);
        auto side = stm.time_base().make_thread_clock();
        side.get_new_ts();
        CHECK(tx.try_extend_now());
        CHECK(ctx.txn_commit(tx));
        const auto st = ctx.stats();
        CHECK(st.extension_fast_hits == 1);
        CHECK(st.stripe_fast_hits == 1);
        CHECK(st.stripe_walks == 0);
        CHECK(stm.commit_epoch() == 0);
    }
}

// Interleaved committers in different stripes: each one's read set never
// covers the other's write stripe, so BOTH commit-time validations stay
// on the fast path at the default striping; at stripes=1 the first
// opened transaction sees the other's bump and walks.
void check_interleaved_commit_validation() {
    const auto run_cell = [](unsigned stripes, bool expect_fast) {
        StmConfig cfg;
        cfg.filter_stripes = stripes;
        LsaStm stm(tb::make("shared"), cfg);
        arm_stripes<TVar<long>>(stm);
        auto* a = new (lsa_buf) TVar<long>(0);
        auto* b = new (lsa_buf + 2 * kBlock) TVar<long>(0);
        if (stripes > 1)
            CHECK(stm.filter_stripe_of(a) != stm.filter_stripe_of(b));

        auto ca = stm.make_context();
        auto cb = stm.make_context();
        Transaction ta = ca.txn_begin();
        const long va = a->get(ta);  // stripe snapshot before B commits
        Transaction tb = cb.txn_begin();
        b->set(tb, b->get(tb) + 1);
        CHECK(cb.txn_commit(tb));
        a->set(ta, va + 1);
        CHECK(ca.txn_commit(ta));

        const auto st = ca.stats();
        CHECK(st.commits() == 1);
        if (expect_fast) {
            CHECK_MSG(st.validation_fast_hits == 1 && st.stripe_walks == 0,
                      "stripes=%u: validation walked", stripes);
        } else {
            CHECK_MSG(st.validation_fast_hits == 0 && st.stripe_walks == 1,
                      "stripes=%u: validation did not walk", stripes);
        }
        CHECK(a->unsafe_peek() == 1);
        CHECK(b->unsafe_peek() == 1);
        b->~TVar<long>();
        a->~TVar<long>();
    };
    run_cell(64, /*expect_fast=*/true);
    run_cell(1, /*expect_fast=*/false);
}

// Filter off: the walk runs every time and the stripe counters must not
// move at all (they only account filtered decisions).
void check_filter_off_counters() {
    StmConfig cfg;
    cfg.filter_stripes = 0;
    LsaStm stm(tb::make("shared"), cfg);
    auto* a = new (lsa_buf) TVar<long>(1);
    auto* b = new (lsa_buf + 2 * kBlock) TVar<long>(10);

    auto rctx = stm.make_context();
    auto wctx = stm.make_context();
    Transaction tx = rctx.txn_begin();
    CHECK(a->get(tx) == 1);
    wctx.run([&](Tx& t) { b->set(t, 11); });
    CHECK(tx.try_extend_now());
    CHECK(rctx.txn_commit(tx));

    const auto rs = rctx.stats();
    const auto ws = wctx.stats();
    CHECK(rs.extensions == 1 && rs.extension_fast_hits == 0);
    CHECK(rs.stripe_fast_hits == 0 && rs.stripe_walks == 0);
    CHECK(ws.stripe_fast_hits == 0 && ws.stripe_walks == 0);
    b->~TVar<long>();
    a->~TVar<long>();

    // A walk long enough to arm an engine with the filter on arms nothing
    // here: the filter stays off for good.
    std::vector<std::unique_ptr<TVar<long>>> vars;
    for (std::uint32_t i = 0; i < LsaStm::kArmWalk; ++i)
        vars.push_back(std::make_unique<TVar<long>>(0));
    rctx.run([&](Tx& t) {
        long sum = 0;
        for (auto& v : vars) sum += v->get(t);
        vars[0]->set(t, sum + 1);
    });
    CHECK(!stm.filter_armed());
    CHECK(stm.commit_epoch() == 0);
}

// The registry grammar: stripes= is a common key on every engine spec.
void check_registry_key() {
    (void)stm::make("lsa:stripes=4");
    (void)stm::make("orec:stripes=1,bits=14");
    bool threw = false;
    try {
        (void)stm::make("lsa:stripez=4");
    } catch (const std::invalid_argument&) {
        threw = true;
    }
    CHECK_MSG(threw, "unknown key was not rejected (%d)", threw ? 1 : 0);
}

// ---- stripes on demand ----------------------------------------------------

struct Lsa {
    using Adapter = stm::LsaAdapter;
    using Stm = LsaStm;
    using Var = TVar<long>;
    using Tx = Transaction;
};

struct Orec {
    using Adapter = stm::OrecAdapter;
    using Stm = OrecStm;
    using Var = WordVar<long>;
    using Tx = OrecTransaction;
};

template <typename E>
using VarVec = std::vector<std::unique_ptr<typename E::Var>>;

template <typename E>
VarVec<E> make_vars(std::uint32_t n) {
    VarVec<E> vars;
    for (std::uint32_t i = 0; i < n; ++i)
        vars.push_back(std::make_unique<typename E::Var>(1));
    return vars;
}

// One read-only attempt that reads the first n vars, moves time, and
// extends: the extension walks n log entries while unarmed.
template <typename E, typename Ctx, typename Clock>
void walk_readonly(Ctx& ctx, Clock& side, VarVec<E>& vars, std::uint32_t n) {
    auto tx = ctx.txn_begin();
    long sum = 0;
    for (std::uint32_t i = 0; i < n; ++i) sum += vars[i]->get(tx);
    CHECK(sum >= static_cast<long>(n));
    side.get_new_ts();
    CHECK(tx.try_extend_now());
    CHECK(ctx.txn_commit(tx));
}

// stripes=0 is the filter-off spelling on the registry: an attempt that
// walks kArmWalk read-log entries arms a stripes=1 engine but never a
// stripes=0 one, and the stripes=0 engine's update commits bump nothing.
template <typename E>
void check_stripes0_never_arms(const char* name) {
    constexpr std::uint32_t kWalk = E::Stm::kArmWalk;
    for (const unsigned stripes : {0u, 1u}) {
        const std::string spec =
            std::string(name) + ":stripes=" + std::to_string(stripes);
        const stm::Engine eng = stm::make(spec);
        typename E::Stm& engine = stm::get_if<typename E::Adapter>(eng)->stm();
        CHECK_MSG(engine.filter_stripes() == stripes, "%s: %u stripes",
                  spec.c_str(), engine.filter_stripes());
        auto ctx = engine.make_context();
        auto side = engine.time_base().make_thread_clock();
        auto vars = make_vars<E>(kWalk);
        walk_readonly<E>(ctx, side, vars, kWalk);
        CHECK_MSG(engine.filter_armed() == (stripes != 0),
                  "%s: armed after a kArmWalk walk: %d", spec.c_str(),
                  engine.filter_armed() ? 1 : 0);
        ctx.run([&](typename E::Tx& tx) {
            vars[0]->set(tx, vars[0]->get(tx) + 1);
        });
        CHECK_MSG(engine.commit_epoch() == stripes, "%s: %llu bumps",
                  spec.c_str(),
                  static_cast<unsigned long long>(engine.commit_epoch()));
    }
}

// An unarmed engine's update commits bump no stripe. A walk one entry
// short of kArmWalk leaves it unarmed; a read-only extension walk of
// kArmWalk entries arms it once that attempt has ended. Armed, a small
// commit bumps its stripe and validates on the fast path.
template <typename E>
void check_arm_trigger(const char* name) {
    constexpr std::uint32_t kWalk = E::Stm::kArmWalk;
    typename E::Stm stm(tb::make("shared"));
    auto ctx = stm.make_context();
    auto side = stm.time_base().make_thread_clock();
    auto vars = make_vars<E>(kWalk);

    for (int i = 0; i < 10; ++i)
        ctx.run([&](typename E::Tx& tx) {
            vars[0]->set(tx, vars[0]->get(tx) + 1);
        });
    CHECK_MSG(stm.commit_epoch() == 0, "%s: unarmed commits bumped %llu",
              name, static_cast<unsigned long long>(stm.commit_epoch()));

    walk_readonly<E>(ctx, side, vars, kWalk - 1);
    CHECK_MSG(!stm.filter_armed(), "%s: a short walk armed", name);
    walk_readonly<E>(ctx, side, vars, kWalk);
    CHECK_MSG(stm.filter_armed(), "%s: a kArmWalk walk did not arm", name);
    CHECK(stm.commit_epoch() == 0);
    auto st = ctx.stats();
    CHECK(st.stripe_walks == 0 && st.stripe_fast_hits == 0);

    ctx.run([&](typename E::Tx& tx) {
        vars[1]->set(tx, vars[1]->get(tx) + 1);
    });
    CHECK(stm.commit_epoch() == 1);
    st = ctx.stats();
    CHECK(st.validation_fast_hits == 1 && st.stripe_walks == 0);
}

// An attempt that began unarmed touched no stripe. Its update commit must
// walk and find its read overwritten -- an empty signature would pass the
// stripe comparison vacuously. Once with the engine unarmed throughout
// (the commit bumps nothing), once armed between the attempt's begin and
// its commit (the commit bumps, the attempt still holds no snapshot).
template <typename E>
void check_no_empty_signature_hit(const char* name, bool arm_mid) {
    typename E::Stm stm(tb::make("shared"));
    alignas(64) typename E::Var a(1);
    alignas(64) typename E::Var b(0);
    auto ctx = stm.make_context();
    auto other = stm.make_context();

    auto tx = ctx.txn_begin();
    const long va = a.get(tx);
    other.run([&](typename E::Tx& t) { a.set(t, 2); });
    if (arm_mid) arm_stripes<typename E::Var>(stm);
    b.set(tx, va);
    CHECK_MSG(!ctx.txn_commit(tx),
              "%s: stale read committed (armed mid-attempt: %d)", name,
              arm_mid ? 1 : 0);
    CHECK(b.unsafe_peek() == 0);
    const auto st = ctx.stats();
    CHECK(st.validation_fast_hits == 0 && st.stripe_walks == 0);
    CHECK(stm.filter_armed() == arm_mid);
}

// Arming must not store `on` while a commit that loaded `off` (and so
// bumps nothing) is still in flight: an attempt that began armed could
// otherwise admit a version that commit is about to change and validate
// on clean stripes. The commit parks in the publish hook, after its state
// load with its commit flag up; a second context then trips the trigger.
void check_arming_waits_for_hooked_commit() {
    std::atomic<bool> park{true}, parked{false}, release{false};
    StmConfig cfg;
    cfg.commit_publish_hook = [&] {
        if (!park.exchange(false)) return;
        parked.store(true);
        while (!release.load()) std::this_thread::yield();
    };
    LsaStm stm(tb::make("shared"), cfg);
    TVar<long> x(0);
    std::thread w([&] {
        auto ctx = stm.make_context();
        ctx.run([&](Tx& t) { x.set(t, 1); });
    });
    while (!parked.load()) std::this_thread::yield();
    std::thread armer([&] { arm_stripes<TVar<long>>(stm); });
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    CHECK_MSG(!stm.filter_armed(), "armed past a parked commit (%d)", 1);
    release.store(true);
    w.join();
    armer.join();
    CHECK(stm.filter_armed());
    CHECK(x.unsafe_peek() == 1);
    CHECK(stm.commit_epoch() == 0);  // both commits loaded `off`
}

#ifdef CHRONOSTM_FAILPOINTS
bool shares_orec(LsaStm&, const void*, const void*) { return false; }
bool shares_orec(OrecStm& stm, const void* a, const void* b) {
    return stm.orec_of(a) == stm.orec_of(b);
}

// The same drain through the failpoint site between the state load (and
// the bumps it decides) and the stamp draw: W sleeps there with its flag
// up after loading `off`, and the arming context must wait it out.
template <typename E>
void check_arming_waits_for_parked_commit(fp::Site site, const char* name) {
    typename E::Stm stm(tb::make("shared"));
    typename E::Var x(0);
    // The arming transaction's vars must not share x's orec: W holds that
    // lock while parked, and a reader stuck behind it would escalate and
    // commit irrevocably, without the validation walk that arms.
    VarVec<E> vars, aliased;
    while (vars.size() < E::Stm::kArmWalk) {
        auto v = std::make_unique<typename E::Var>(1);
        auto& into = shares_orec(stm, v.get(), &x) ? aliased : vars;
        into.push_back(std::move(v));
    }
    fp::reset();
    const std::uint64_t before = fp::total_faults();
    fp::SiteConfig fc;
    fc.stall_us = 400'000;
    fp::arm_one_shot(site, fc, 1);

    std::atomic<bool> w_done{false};
    std::thread w([&] {
        auto ctx = stm.make_context();
        ctx.run([&](typename E::Tx& t) { x.set(t, 1); });
        w_done.store(true);
    });
    // The fault counter bumps before the stall sleep: W is parked.
    while (fp::total_faults() == before) std::this_thread::yield();
    std::thread armer([&] { arm_stripes(stm, vars); });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const bool armed = stm.filter_armed();
    const bool done = w_done.load();
    CHECK_MSG(done || !armed, "%s: armed while W was parked", name);
    w.join();
    armer.join();
    fp::reset();
    CHECK(stm.filter_armed());
    CHECK(x.unsafe_peek() == 1);
    CHECK(stm.commit_epoch() == 0);
}
#endif

}  // namespace

int main() {
    check_geometry();
    check_disjoint_writer();
    check_alias_spurious_walk();
    check_stripe1_equivalence();
    check_interleaved_commit_validation();
    check_filter_off_counters();
    check_registry_key();
    check_arm_trigger<Lsa>("lsa");
    check_arm_trigger<Orec>("orec");
    check_stripes0_never_arms<Lsa>("lsa");
    check_stripes0_never_arms<Orec>("orec");
    for (const bool arm_mid : {false, true}) {
        check_no_empty_signature_hit<Lsa>("lsa", arm_mid);
        check_no_empty_signature_hit<Orec>("orec", arm_mid);
    }
    check_arming_waits_for_hooked_commit();
#ifdef CHRONOSTM_FAILPOINTS
    check_arming_waits_for_parked_commit<Lsa>(fp::k_lsa_commit_pre_stamp,
                                              "lsa");
    check_arming_waits_for_parked_commit<Orec>(fp::k_orec_commit_pre_stamp,
                                               "orec");
#endif
    std::printf("test_stm_stripes: PASS\n");
    return 0;
}
