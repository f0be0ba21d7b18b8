// Tier-1: the type-erased stm::Engine facade and its string-keyed
// registry (stm::make). Covers:
//
//   * registry grammar: case-insensitive names/keys, later-key-wins,
//     comma-separated spec lists, loud failures on unknown names/keys
//   * config plumbing: engine-specific keys and the CommonConfig keys
//     shared by every engine land in the concrete adapter's config
//   * the slot data plane (size/align/init/peek/destroy/dtor) and the
//     run/load/store control plane for ALL five engines
//   * get_if<> / visit escape hatches: get_if<A> is non-null exactly for
//     the engine's own adapter
//   * the one slot table (stm::SlotTraits): ds::EnginePolicy and
//     ds::DirectPolicy<A> agree on slot size, alignment and contents
//   * atomicity through the facade: a multi-threaded counter and a
//     forced-abort retry, per engine
//
// CHRONOSTM_TIMEBASE adds time-base specs for the lsa/orec engines so
// the CI matrix exercises the facade over every clock construction.

#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <chronostm/ds/policy.hpp>
#include <chronostm/stm/facade.hpp>

#include "test_util.hpp"

using namespace chronostm;

namespace {

template <typename F>
void expect_invalid(F&& f, const char* needle) {
    bool threw = false;
    try {
        f();
    } catch (const std::invalid_argument& e) {
        threw = true;
        CHECK_MSG(std::strstr(e.what(), needle) != nullptr,
                  "message '%s' lacks '%s'", e.what(), needle);
    }
    CHECK_MSG(threw, "expected std::invalid_argument containing '%s'",
              needle);
}

void check_registry_grammar() {
    // Names and aliases, case-insensitively.
    CHECK(stm::make("lsa").name() == "lsa");
    CHECK(stm::make("LSA").name() == "lsa");
    CHECK(stm::make("Orec:BITS=9").name() == "orec");
    CHECK(stm::make("tl2").name() == "tl2");
    CHECK(stm::make("vstm").name() == "vstm");
    CHECK(stm::make("glock").name() == "glock");
    CHECK(stm::make("GlobalLock").name() == "glock");
    CHECK(stm::make("lock").name() == "glock");
    CHECK(stm::make("lsa").kind() == stm::EngineKind::kLsa);
    CHECK(stm::make("glock").kind() == stm::EngineKind::kGlock);

    // The spec string round-trips for row labels.
    CHECK(stm::make("orec:bits=9").spec() == "orec:bits=9");

    // Unknown engine / unknown key / malformed values fail loudly.
    expect_invalid([] { stm::make("bocs"); }, "unknown engine");
    expect_invalid([] { stm::make("bocs"); }, "lsa");  // lists known names
    expect_invalid([] { stm::make("lsa:bogus=1"); }, "unknown key");
    expect_invalid([] { stm::make("glock:bits=4"); }, "unknown key");
    expect_invalid([] { stm::make("vstm:heuristic=maybe"); }, "on/off");
    expect_invalid([] { stm::make("lsa:versions"); }, "key=value");
    // Removed knobs fail like any other unknown key.
    expect_invalid([] { stm::make("lsa:help=on"); }, "unknown key");
    expect_invalid([] { stm::make("orec:writeback=eager"); }, "unknown key");
    expect_invalid([] { stm::make("lsa:cm=polite"); }, "unknown key 'cm'");
    // The filter-off switch is stripes=0; filter= went with its field.
    expect_invalid([] { stm::make("orec:filter=off"); },
                   "unknown key 'filter'");

    // Comma-separated lists: a comma followed by key=value extends the
    // preceding spec, otherwise it starts a new one.
    const auto specs =
        stm::split_engine_specs("lsa,orec:bits=10,irrev=8,glock");
    CHECK(specs.size() == 3);
    CHECK(specs[0] == "lsa");
    CHECK(specs[1] == "orec:bits=10,irrev=8");
    CHECK(specs[2] == "glock");
    CHECK(stm::parse_engine_spec(specs[1]).name == "orec");

    // Every registry entry's own example spec must construct.
    for (const auto& k : stm::known_engines())
        CHECK_MSG(stm::make(k.example).valid(), "example '%s'", k.example);
}

void check_config_plumbing() {
    // Engine-specific keys land in the concrete config (get_if hatch).
    {
        stm::Engine e =
            stm::make("lsa:versions=4,irrev=32,stripes=0");
        auto* a = stm::get_if<stm::LsaAdapter>(e);
        CHECK(a != nullptr);
        CHECK(stm::get_if<stm::OrecAdapter>(e) == nullptr);
        const StmConfig& c = a->stm().config();
        CHECK(c.max_versions == 4);
        CHECK(c.irrevocable_threshold == 32);
        CHECK(c.filter_stripes == 0);
        CHECK(!a->stm().filter_armed());
    }
    // Later occurrences of a key override earlier ones (drivers append
    // sweep keys to user specs and rely on this).
    {
        stm::Engine e = stm::make("orec:bits=10,bits=12");
        auto* a = stm::get_if<stm::OrecAdapter>(e);
        CHECK(a != nullptr);
        CHECK(a->stm().config().table_bits == 12);
    }
    // The CommonConfig keys parse on EVERY engine, including ones that
    // ignore most of them (a shared sweep flag must not explode on the
    // baselines).
    for (const char* name : {"lsa", "orec", "tl2", "vstm", "glock"}) {
        const std::string spec =
            std::string(name) +
            ":spin=128,retries=10000,irrev=32,stripes=0,ext=on";
        CHECK_MSG(stm::make(spec).valid(), "common keys on '%s'", name);
    }
    // Common keys reach the lsa/orec configs.
    {
        stm::Engine e = stm::make("lsa:spin=77,ext=off");
        const StmConfig& c = stm::get_if<stm::LsaAdapter>(e)->stm().config();
        CHECK(c.lock_spin == 77);
        CHECK(!c.read_extension);
    }
    // Both engines share one stall rule (lock_spin), so the orec stall
    // budgets are gone with their keys.
    expect_invalid([] { stm::make("orec:stallspin=2"); }, "unknown key");
    expect_invalid([] { stm::make("lsa:stallts=8"); }, "unknown key");
}

// One engine, full data/control plane: raw slots + transactions through
// the type-erased Txn, then a concrete-adapter pass via visit() to show
// both paths see the same memory.
void check_engine_roundtrip(const stm::Engine& eng) {
    const std::size_t kSlots = 16;
    const std::size_t stride = eng.slot_size();
    CHECK(stride >= sizeof(std::uint64_t));
    CHECK(eng.slot_align() >= alignof(std::uint64_t));
    void* mem = ::operator new(kSlots * stride,
                               std::align_val_t(eng.slot_align()));
    const auto slot = [&](std::size_t i) {
        return static_cast<void*>(static_cast<char*>(mem) + i * stride);
    };
    for (std::size_t i = 0; i < kSlots; ++i)
        eng.slot_init(slot(i), 100 + i);
    for (std::size_t i = 0; i < kSlots; ++i)
        CHECK(eng.slot_peek(slot(i)) == 100 + i);

    stm::Context ctx = eng.make_context();
    CHECK(ctx.kind() == eng.kind());

    // run() passes the functor's return value through.
    const std::uint64_t sum = eng.run(ctx, [&](stm::Txn& tx) {
        CHECK(tx.kind() == eng.kind());
        CHECK(tx.raw() != nullptr);
        std::uint64_t s = 0;
        for (std::size_t i = 0; i < kSlots; ++i) s += tx.load(slot(i));
        return s;
    });
    CHECK(sum == (100 + 100 + kSlots - 1) * kSlots / 2);

    eng.run(ctx, [&](stm::Txn& tx) {
        for (std::size_t i = 0; i < kSlots; ++i)
            tx.store(slot(i), tx.load(slot(i)) + 1);
    });
    for (std::size_t i = 0; i < kSlots; ++i)
        CHECK(eng.slot_peek(slot(i)) == 101 + i);

    // A forced abort on the first attempt retries the functor. The
    // optimistic engines buffer writes, so the doomed attempt's store
    // vanishes; the big-lock baseline writes in place and a user abort
    // only retries -- its doomed store sticks (documented contract).
    int attempts = 0;
    eng.run(ctx, [&](stm::Txn& tx) {
        tx.store(slot(0), tx.load(slot(0)) + 1);
        if (attempts++ == 0) tx.abort();
    });
    CHECK(attempts == 2);
    const std::uint64_t expected =
        eng.kind() == stm::EngineKind::kGlock ? 103 : 102;
    CHECK(eng.slot_peek(slot(0)) == expected);

    // visit() hands out the concrete adapter; it is the same object the
    // facade dispatches into, so its commits land in the same counters.
    stm::visit(eng, [&](auto& adapter) {
        CHECK(static_cast<void*>(&adapter) == eng.raw());
        auto c = adapter.make_context();
        adapter.run(c, [&](auto&) {});
    });

    const TxStats stats = eng.collected_stats();
    CHECK_MSG(stats.commits() >= 4, "engine %s commits %llu",
              eng.name().c_str(),
              static_cast<unsigned long long>(stats.commits()));
    CHECK(ctx.stats().commits() >= 3);

    for (std::size_t i = 0; i < kSlots; ++i) {
        // Exercise both destructor spellings.
        if (i % 2 == 0)
            eng.slot_destroy(slot(i));
        else
            eng.slot_dtor()(slot(i));
    }
    ::operator delete(mem, std::align_val_t(eng.slot_align()));
}

// get_if<> finds exactly the engine's own adapter, and the slot table
// reads the same through the type-erased policy and the compile-time twin
// over that adapter: a slot written by either peeks the same through both.
void check_slot_table(const stm::Engine& eng) {
    const char* const names[] = {"lsa", "orec", "tl2", "vstm", "glock"};
    const bool own[] = {stm::get_if<stm::LsaAdapter>(eng) != nullptr,
                        stm::get_if<stm::OrecAdapter>(eng) != nullptr,
                        stm::get_if<stm::Tl2Adapter>(eng) != nullptr,
                        stm::get_if<stm::VstmAdapter>(eng) != nullptr,
                        stm::get_if<stm::GlobalLockAdapter>(eng) != nullptr};
    for (int i = 0; i < 5; ++i)
        CHECK_MSG(own[i] == (eng.name() == names[i]),
                  "engine %s: get_if<%s adapter> %s", eng.name().c_str(),
                  names[i], own[i] ? "non-null" : "null");

    const ds::EnginePolicy erased(eng);
    stm::visit(eng, [&](auto& adapter) {
        using A = std::decay_t<decltype(adapter)>;
        CHECK(stm::get_if<A>(eng) == &adapter);
        const ds::DirectPolicy<A> direct(adapter);
        CHECK_MSG(erased.slot_size() == direct.slot_size() &&
                      erased.slot_align() == direct.slot_align(),
                  "engine %s: slot %zu/%zu B vs direct %zu/%zu B",
                  eng.name().c_str(), erased.slot_size(),
                  erased.slot_align(), direct.slot_size(),
                  direct.slot_align());
        // Room for any engine's slot: the erased ops dispatch at run time.
        alignas(64) unsigned char buf[64];
        CHECK(direct.slot_size() <= sizeof buf && direct.slot_align() <= 64);
        void* mem = buf;
        erased.slot_init(mem, 42);
        CHECK(erased.slot_peek(mem) == 42 && direct.slot_peek(mem) == 42);
        erased.slot_destroy(mem);
        direct.slot_init(mem, 7);
        CHECK(erased.slot_peek(mem) == 7 && direct.slot_peek(mem) == 7);
        direct.slot_destroy(mem);
    });
}

// Counter hammered from several threads through the facade: the committed
// total must equal the submitted total on every engine.
void check_facade_atomicity(const stm::Engine& eng) {
    const unsigned kThreads = 4;
    const unsigned kIncrements = 2000;
    void* mem = ::operator new(eng.slot_size(),
                               std::align_val_t(eng.slot_align()));
    eng.slot_init(mem, 0);
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < kThreads; ++t) {
        ts.emplace_back([&] {
            stm::Context ctx = eng.make_context();
            for (unsigned i = 0; i < kIncrements; ++i)
                eng.run(ctx, [&](stm::Txn& tx) {
                    tx.store(mem, tx.load(mem) + 1);
                });
        });
    }
    for (auto& t : ts) t.join();
    CHECK_MSG(eng.slot_peek(mem) == kThreads * kIncrements,
              "engine %s counter %llu", eng.name().c_str(),
              static_cast<unsigned long long>(eng.slot_peek(mem)));
    CHECK(eng.collected_stats().commits() >= kThreads * kIncrements);
    eng.slot_destroy(mem);
    ::operator delete(mem, std::align_val_t(eng.slot_align()));
}

}  // namespace

int main() {
    check_registry_grammar();
    check_config_plumbing();

    for (const char* spec : {"lsa", "orec", "tl2", "vstm", "glock"}) {
        check_engine_roundtrip(stm::make(spec));
        check_slot_table(stm::make(spec));
        check_facade_atomicity(stm::make(spec));
    }

    // The two-arg make threads an explicit time base into the time-based
    // engines; CHRONOSTM_TIMEBASE sweeps the CI matrix specs through it.
    std::vector<std::string> tb_specs = {"shared"};
    if (const char* env = std::getenv("CHRONOSTM_TIMEBASE"))
        for (const auto& s : tb::split_specs(env)) tb_specs.push_back(s);
    for (const auto& tbs : tb_specs) {
        check_facade_atomicity(stm::make("lsa", tb::make(tbs)));
        check_facade_atomicity(stm::make("orec:bits=12", tb::make(tbs)));
    }

    std::printf("test_stm_engine_facade: all checks passed\n");
    return 0;
}
