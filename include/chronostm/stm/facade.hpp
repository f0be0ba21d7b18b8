// Runtime-pluggable STM engines: the same API move timebase/facade.hpp
// made for time bases, applied to the engine concept itself. A type-erased
// stm::Engine / stm::Context / stm::Txn triple wraps the five concrete
// adapters (LsaAdapter, OrecAdapter, Tl2Adapter, VstmAdapter,
// GlobalLockAdapter) behind one runtime-selected interface, constructed
// from a spec string by the string-keyed registry:
//
//   stm::Engine eng = stm::make("orec:bits=14,irrev=32", tb::make("shared"));
//   stm::Context ctx = eng.make_context();
//   eng.run(ctx, [&](stm::Txn& tx) {
//       std::uint64_t v = tx.load(slot);
//       tx.store(slot, v + 1);
//   });
//
// Same grammar rules as tb::make: name before ':', case-insensitive
// lowercased keys, later key wins, unknown names/keys throw loudly.
// Common knobs (stm::CommonConfig) parse uniformly across engines --
// spin=, retries=, irrev=, stripes=, ext= -- plus each engine's private
// keys (orec: bits=; lsa: versions=; vstm: heuristic=).
//
// The data plane is a SLOT, not a Var<T>: each engine stores a
// transactional 64-bit word differently, so the engine reports
// slot_size()/slot_align() and containers lay raw nodes out at runtime:
// [node header | slot | slot ...]. SlotTraits<A> below is the one table of
// how adapter A lays out, initialises, peeks, loads and stores a slot;
// stm::Engine's slot ops, stm::Txn's per-access path and ds::DirectPolicy
// all read it.
//
// Dispatch is one switch on the kind tag, dispatch_kind(), which hands a
// generic lambda the kind's compile-time tag -- no virtual calls. Every
// kind-dependent member below is one such lambda. A stm::Txn dispatches
// once per load/store; the containers skip that: ds::EnginePolicy
// (ds/policy.hpp) dispatches once per transaction and runs their generic
// functors over the concrete adapter's handle. A functor taking
// stm::Txn& -- perfbench's traced TracePolicy passes one -- keeps the
// per-access dispatch. The datastructure driver gates EnginePolicy at
// <= 15% vs the DirectPolicy twin.
//
// Escape hatches mirror the time-base facade: get_if<LsaAdapter>(eng) for
// telemetry that needs the concrete type, and stm::visit(eng, f) to hand
// the concrete adapter to code templated over the adapter concept (the
// legacy workloads).
//
// Adding an engine means one adapter, one SlotTraits entry (none if its
// slot is its own Var<std::uint64_t>), one dispatch_kind case and one
// registry branch in make().

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <chronostm/stm/adapter.hpp>
#include <chronostm/stm/config.hpp>

namespace chronostm {
namespace stm {

enum class EngineKind : unsigned {
    kLsa = 0,
    kOrec,
    kTl2,
    kVstm,
    kGlock,
};

// ---- the slot table ----------------------------------------------------
//
// By default a slot is the adapter's own Var<std::uint64_t>, accessed
// through its Txn's read/write: LSA's three-word TVar (vlock, value,
// history pointer; the ring, max_versions - 1 entries, is allocated only
// by the first commit that keeps history and freed by the slot's
// destructor) and TL2/VSTM's versioned-lock wstm::Var.
template <typename A>
struct SlotTraits {
    using Slot = typename A::template Var<std::uint64_t>;
    static constexpr std::size_t size() { return sizeof(Slot); }
    static constexpr std::size_t align() { return alignof(Slot); }
    static void init(void* p, std::uint64_t v) { new (p) Slot(v); }
    static void destroy(void* p) { static_cast<Slot*>(p)->~Slot(); }
    // Quiesced-state check only (TVar::unsafe_peek contract).
    static std::uint64_t peek(const void* p) {
        return static_cast<const Slot*>(p)->unsafe_peek();
    }
    static std::uint64_t load(typename A::Txn& t, void* p) {
        return t.read(*static_cast<Slot*>(p));
    }
    static void store(typename A::Txn& t, void* p, std::uint64_t v) {
        t.write(*static_cast<Slot*>(p), v);
    }
};

// The LSA slot by name, for code that places one directly.
using LsaSlot = SlotTraits<LsaAdapter>::Slot;

// A bare 64-bit word: orec hashes its address into the orec table, glock
// guards it with the big lock. Relaxed atomics keep quiesced peeks
// race-free under TSan.
struct BareWordSlot {
    using Slot = std::uint64_t;
    static constexpr std::size_t size() { return sizeof(Slot); }
    static constexpr std::size_t align() { return alignof(Slot); }
    static void init(void* p, std::uint64_t v) {
        __atomic_store_n(static_cast<Slot*>(p), v, __ATOMIC_RELAXED);
    }
    static void destroy(void*) {}
    static std::uint64_t peek(const void* p) {
        return __atomic_load_n(static_cast<const Slot*>(p), __ATOMIC_RELAXED);
    }
};

template <>
struct SlotTraits<OrecAdapter> : BareWordSlot {
    static std::uint64_t load(OrecAdapter::Txn& t, void* p) {
        return t.inner().read(static_cast<const Slot*>(p));
    }
    static void store(OrecAdapter::Txn& t, void* p, std::uint64_t v) {
        t.inner().write(static_cast<Slot*>(p), v);
    }
};

template <>
struct SlotTraits<GlobalLockAdapter> : BareWordSlot {
    // The glock Txn holds the big lock; plain word access.
    static std::uint64_t load(GlobalLockAdapter::Txn&, void* p) {
        return peek(p);
    }
    static void store(GlobalLockAdapter::Txn&, void* p, std::uint64_t v) {
        init(p, v);
    }
};

// ---- the kind dispatch -------------------------------------------------

// Compile-time stand-in for one engine kind (C++17 has no
// std::type_identity): its tag value and adapter type.
template <EngineKind K, typename A>
struct KindTag {
    static constexpr EngineKind kind = K;
    using Adapter = A;
    using Slots = SlotTraits<A>;
};

// The one EngineKind -> adapter switch: calls f(KindTag<k, A>{}). Every
// arm must yield the same type. Forced inline, so each caller holds the
// switch itself, as if it were written out there.
template <typename F>
__attribute__((always_inline)) inline decltype(auto) dispatch_kind(
    EngineKind k, F&& f) {
    switch (k) {
        case EngineKind::kLsa:
            return f(KindTag<EngineKind::kLsa, LsaAdapter>{});
        case EngineKind::kOrec:
            return f(KindTag<EngineKind::kOrec, OrecAdapter>{});
        case EngineKind::kTl2:
            return f(KindTag<EngineKind::kTl2, Tl2Adapter>{});
        case EngineKind::kVstm:
            return f(KindTag<EngineKind::kVstm, VstmAdapter>{});
        case EngineKind::kGlock:
            return f(KindTag<EngineKind::kGlock, GlobalLockAdapter>{});
    }
    __builtin_unreachable();
}

// Per-attempt transaction handle: a kind tag plus a pointer to the
// concrete engine transaction living on the run() stack frame. Valid only
// inside the user functor invocation that received it.
class Txn {
    // f(tag, concrete A::Txn&). Helpers with deduced return types come
    // before their uses.
    template <typename F>
    __attribute__((always_inline)) decltype(auto) with_txn(F&& f) {
        return dispatch_kind(kind_, [&](auto k) -> decltype(auto) {
            using A = typename decltype(k)::Adapter;
            return f(k, *static_cast<typename A::Txn*>(p_));
        });
    }

 public:
    // Forced inline like the helpers, so the per-access dispatch sits in
    // the caller (perfbench's traced loads price it).
    __attribute__((always_inline)) std::uint64_t load(void* slot) {
        return with_txn([&](auto k, auto& t) {
            return decltype(k)::Slots::load(t, slot);
        });
    }

    __attribute__((always_inline)) void store(void* slot, std::uint64_t v) {
        with_txn([&](auto k, auto& t) {
            decltype(k)::Slots::store(t, slot, v);
        });
    }

    [[noreturn]] void abort() {
        with_txn([](auto, auto& t) { t.abort(); });
        __builtin_unreachable();
    }

    EngineKind kind() const noexcept { return kind_; }
    // Concrete-transaction escape hatch (pair with Engine::kind()).
    void* raw() noexcept { return p_; }

 private:
    friend class Engine;
    Txn(EngineKind k, void* p) noexcept : kind_(k), p_(p) {}

    EngineKind kind_;
    void* p_;
};

// Per-thread handle: owns the concrete engine context on the heap.
class Context {
 public:
    Context() = default;

    TxStats stats() const {
        return dispatch_kind(kind_, [&](auto k) {
            using A = typename decltype(k)::Adapter;
            return static_cast<const typename A::Context*>(p_.get())->stats();
        });
    }

    EngineKind kind() const noexcept { return kind_; }
    void* raw() noexcept { return p_.get(); }

 private:
    friend class Engine;
    Context(EngineKind k, std::shared_ptr<void> p)
        : kind_(k), p_(std::move(p)) {}
    EngineKind kind_ = EngineKind::kLsa;
    std::shared_ptr<void> p_;
};

// Owning, copyable engine handle (copies share the engine, like
// tb::TimeBase).
class Engine {
    // f(tag, concrete adapter&).
    template <typename F>
    __attribute__((always_inline)) decltype(auto) with_adapter(F&& f) const {
        return dispatch_kind(kind_, [&](auto k) -> decltype(auto) {
            return f(k, *static_cast<typename decltype(k)::Adapter*>(ptr_));
        });
    }

    // f(SlotTraits<A>{}) for this engine's adapter A.
    template <typename F>
    __attribute__((always_inline)) decltype(auto) with_slots(F&& f) const {
        return dispatch_kind(kind_, [&](auto k) -> decltype(auto) {
            return f(typename decltype(k)::Slots{});
        });
    }

 public:
    Engine() = default;

    EngineKind kind() const noexcept { return kind_; }
    // Registry name ("lsa", "orec", ...) for row labels.
    const std::string& name() const noexcept { return name_; }
    // The full spec string the engine was made from.
    const std::string& spec() const noexcept { return spec_; }
    bool valid() const noexcept { return ptr_ != nullptr; }

    // ---- data plane: the slot table's row for this engine ------------
    std::size_t slot_size() const noexcept {
        return with_slots([](auto s) { return s.size(); });
    }
    std::size_t slot_align() const noexcept {
        return with_slots([](auto s) { return s.align(); });
    }
    void slot_init(void* p, std::uint64_t v) const {
        with_slots([&](auto s) { s.init(p, v); });
    }
    void slot_destroy(void* p) const noexcept {
        with_slots([&](auto s) { s.destroy(p); });
    }
    // Plain-function slot destructor, for reclamation-time deleters that
    // outlive any particular call frame (epoch limbo entries).
    using SlotDtor = void (*)(void*);
    SlotDtor slot_dtor() const noexcept {
        return with_slots(
            [](auto s) -> SlotDtor { return &decltype(s)::destroy; });
    }
    // Quiesced-state check only (TVar::unsafe_peek contract).
    std::uint64_t slot_peek(const void* p) const noexcept {
        return with_slots([&](auto s) { return s.peek(p); });
    }

    // ---- control plane -----------------------------------------------
    Context make_context() const {
        return with_adapter([&](auto k, auto& a) {
            using A = typename decltype(k)::Adapter;
            return Context(kind_, std::make_shared<typename A::Context>(
                                      a.make_context()));
        });
    }

    // Run `f(stm::Txn&)` until it commits; passes f's return value through.
    // The concrete transaction lives on this call's stack via the
    // adapter's own run loop; the facade Txn is a borrowed view of it.
    template <typename F>
    auto run(Context& ctx, F&& f) const {
        return with_adapter([&](auto k, auto& a) {
            using A = typename decltype(k)::Adapter;
            return a.run(*static_cast<typename A::Context*>(ctx.raw()),
                         [&](typename A::Txn& t) {
                             Txn tx(decltype(k)::kind, &t);
                             return f(tx);
                         });
        });
    }

    TxStats collected_stats() const {
        return with_adapter(
            [](auto, auto& a) { return a.collected_stats(); });
    }

    // Concrete-adapter escape hatch; see get_if<>() below.
    void* raw() const noexcept { return ptr_; }

    template <typename A>
    static Engine make_owning(EngineKind k, std::string name,
                              std::string spec, std::shared_ptr<A> obj) {
        Engine e;
        e.kind_ = k;
        e.name_ = std::move(name);
        e.spec_ = std::move(spec);
        e.ptr_ = obj.get();
        e.owner_ = std::move(obj);
        return e;
    }

 private:
    EngineKind kind_ = EngineKind::kLsa;
    std::string name_;
    std::string spec_;
    std::shared_ptr<void> owner_;
    void* ptr_ = nullptr;
};

// Telemetry escape hatch: the concrete adapter if (and only if) the
// engine wraps that type.
template <typename A>
A* get_if(const Engine& e) {
    return dispatch_kind(e.kind(), [&](auto k) -> A* {
        if constexpr (std::is_same_v<typename decltype(k)::Adapter, A>)
            return static_cast<A*>(e.raw());
        return nullptr;
    });
}

// Bridge to code templated over the adapter concept: calls f with the
// CONCRETE adapter reference. Every branch must yield the same type (use
// a generic lambda that normalizes its result).
template <typename F>
decltype(auto) visit(const Engine& e, F&& f) {
    return dispatch_kind(e.kind(), [&](auto k) -> decltype(auto) {
        return f(*static_cast<typename decltype(k)::Adapter*>(e.raw()));
    });
}

// ---- the string-keyed registry ---------------------------------------

struct KnownEngine {
    const char* name;
    const char* example;
    const char* description;
};

inline const std::vector<KnownEngine>& known_engines() {
    static const std::vector<KnownEngine> k = {
        {"lsa", "lsa:versions=8,irrev=64",
         "the paper's LSA-RT: multi-version"},
        {"orec", "orec:bits=16,irrev=64",
         "LSA over a global orec table; raw-memory words, single-version"},
        {"tl2", "tl2:spin=256", "global-version-clock TL2 baseline"},
        {"vstm", "vstm:heuristic=on",
         "validation-based STM baseline (no time base)"},
        {"glock", "glock", "single global lock baseline"},
    };
    return k;
}

// One-line help text for --engine flags.
inline std::string engine_spec_help() {
    std::string s = "engine spec(s): ";
    for (const auto& k : known_engines()) {
        s += k.example;
        s += "; ";
    }
    s += "common keys spin=,retries=,irrev=,stripes=,ext=; ";
    s += "comma-separated for multi-series drivers";
    return s;
}

namespace detail_facade {

inline bool flag(const tb::TimeBaseSpec& s, const char* key, bool def) {
    if (!s.has(key)) return def;
    const std::string raw = s.str(key, "");
    const std::string v = tb::to_lower(raw);
    if (v == "on" || v == "true" || v == "1" || v == "yes") return true;
    if (v == "off" || v == "false" || v == "0" || v == "no") return false;
    throw std::invalid_argument("chronostm: engine '" + s.name + "' key '" +
                                key + "' wants on/off, got '" + raw + "'");
}

inline void apply_common(const tb::TimeBaseSpec& s, CommonConfig& c) {
    c.read_extension = flag(s, "ext", c.read_extension);
    c.lock_spin = static_cast<unsigned>(s.u64("spin", c.lock_spin));
    c.max_retries = static_cast<unsigned>(s.u64("retries", c.max_retries));
    c.irrevocable_threshold =
        static_cast<unsigned>(s.u64("irrev", c.irrevocable_threshold));
    c.filter_stripes =
        static_cast<unsigned>(s.u64("stripes", c.filter_stripes));
}

constexpr const char* kCommonKeys[] = {"ext",   "spin",  "retries",
                                       "irrev", "stripes"};

inline void require_engine_keys(const tb::TimeBaseSpec& s,
                                std::initializer_list<const char*> extra) {
    for (const auto& kv : s.params) {
        bool ok = false;
        for (const char* k : kCommonKeys) ok = ok || kv.first == k;
        for (const char* k : extra) ok = ok || kv.first == k;
        if (!ok)
            throw std::invalid_argument("chronostm: unknown key '" +
                                        kv.first + "' for engine '" + s.name +
                                        "'");
    }
}

}  // namespace detail_facade

// Same shape as tb::parse_spec / tb::split_specs; re-exported so engine
// flag plumbing does not reach into the tb namespace.
inline tb::TimeBaseSpec parse_engine_spec(const std::string& spec) {
    return tb::parse_spec(spec);
}
inline std::vector<std::string> split_engine_specs(const std::string& csv) {
    return tb::split_specs(csv);
}

// Constructs an OWNING Engine from a spec string. The time base feeds the
// lsa/orec engines; baselines ignore it. Throws std::invalid_argument on
// unknown names/keys so drivers fail loudly.
inline Engine make(const std::string& spec_str, tb::TimeBase tbase) {
    const tb::TimeBaseSpec spec = parse_engine_spec(spec_str);

    if (spec.name == "lsa") {
        detail_facade::require_engine_keys(spec, {"versions"});
        StmConfig cfg;
        detail_facade::apply_common(spec, cfg);
        cfg.max_versions = static_cast<unsigned>(
            spec.u64("versions", cfg.max_versions));
        return Engine::make_owning(
            EngineKind::kLsa, "lsa", spec_str,
            std::make_shared<LsaAdapter>(std::move(tbase), std::move(cfg)));
    }
    if (spec.name == "orec") {
        detail_facade::require_engine_keys(spec, {"bits"});
        OrecConfig cfg;
        detail_facade::apply_common(spec, cfg);
        cfg.table_bits =
            static_cast<unsigned>(spec.u64("bits", cfg.table_bits));
        return Engine::make_owning(
            EngineKind::kOrec, "orec", spec_str,
            std::make_shared<OrecAdapter>(std::move(tbase), cfg));
    }
    if (spec.name == "tl2") {
        detail_facade::require_engine_keys(spec, {});
        Tl2Config cfg;
        cfg.lock_spin = static_cast<unsigned>(spec.u64("spin", cfg.lock_spin));
        cfg.max_retries =
            static_cast<unsigned>(spec.u64("retries", cfg.max_retries));
        return Engine::make_owning(EngineKind::kTl2, "tl2", spec_str,
                                   std::make_shared<Tl2Adapter>(cfg));
    }
    if (spec.name == "vstm") {
        detail_facade::require_engine_keys(spec, {"heuristic"});
        VstmConfig cfg;
        cfg.lock_spin = static_cast<unsigned>(spec.u64("spin", cfg.lock_spin));
        cfg.max_retries =
            static_cast<unsigned>(spec.u64("retries", cfg.max_retries));
        cfg.commit_counter_heuristic = detail_facade::flag(
            spec, "heuristic", cfg.commit_counter_heuristic);
        return Engine::make_owning(EngineKind::kVstm, "vstm", spec_str,
                                   std::make_shared<VstmAdapter>(cfg));
    }
    if (spec.name == "glock" || spec.name == "globallock" ||
        spec.name == "lock") {
        detail_facade::require_engine_keys(spec, {});
        return Engine::make_owning(EngineKind::kGlock, "glock", spec_str,
                                   std::make_shared<GlobalLockAdapter>());
    }

    std::string msg = "chronostm: unknown engine '" + spec.name +
                      "' (spec '" + spec_str + "'); known engines:";
    for (const auto& k : known_engines()) {
        msg += ' ';
        msg += k.name;
    }
    throw std::invalid_argument(msg);
}

// Baselines need no time base; lsa/orec default to the exact shared
// counter when the caller does not provide one.
inline Engine make(const std::string& spec_str) {
    const tb::TimeBaseSpec spec = parse_engine_spec(spec_str);
    if (spec.name == "lsa" || spec.name == "orec")
        return make(spec_str, tb::make("shared"));
    return make(spec_str, tb::TimeBase{});
}

}  // namespace stm
}  // namespace chronostm
