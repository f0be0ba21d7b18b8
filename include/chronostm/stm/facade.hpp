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
// spin=, retries=, irrev=, filter=, stripes=, ext= -- plus
// each engine's private keys (orec: bits=; lsa: versions=;
// vstm: heuristic=).
//
// The data plane is a SLOT, not a Var<T>: each engine stores a
// transactional 64-bit word differently (LSA: a three-word TVar<u64>
// whose history ring is an on-demand heap block; orec: a bare word its global
// orec table hashes; TL2/VSTM: a versioned-lock wstm::Var<u64>; glock: a
// bare word), so the engine reports slot_size()/slot_align() and
// containers lay raw nodes out at runtime: [node header | slot | slot
// ...]. Dispatch is a switch on the kind tag -- no virtual calls. A
// stm::Txn switches once per load/store; the containers skip that:
// ds::EnginePolicy (ds/policy.hpp) switches once per transaction and runs
// their generic functors over the concrete adapter's handle. A functor
// taking stm::Txn& -- perfbench's traced TracePolicy passes one -- keeps
// the per-access switch. The datastructure driver gates EnginePolicy at
// <= 15% vs the DirectPolicy twin.
//
// Escape hatches mirror the time-base facade: get_if<LsaAdapter>(eng) for
// telemetry that needs the concrete type, and stm::visit(eng, f) to hand
// the concrete adapter to code templated over the adapter concept (the
// legacy workloads).

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
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

// The LSA slot is the plain TVar<u64>: three words (vlock, value, history
// pointer). Its ring, max_versions - 1 entries, is allocated only by the
// first commit that keeps history -- never while the engine's on-demand
// history switch is off -- and freed by slot_dtor with the node.
using LsaSlot = TVar<std::uint64_t>;
using WordSlot = wstm::Var<std::uint64_t>;

namespace detail_facade {

inline std::uint64_t raw_load(const void* p) noexcept {
    return __atomic_load_n(static_cast<const std::uint64_t*>(
                               const_cast<void*>(p)),
                           __ATOMIC_RELAXED);
}
inline void raw_store(void* p, std::uint64_t v) noexcept {
    __atomic_store_n(static_cast<std::uint64_t*>(p), v, __ATOMIC_RELAXED);
}

}  // namespace detail_facade

// Per-attempt transaction handle: a kind tag plus a pointer to the
// concrete engine transaction living on the run() stack frame. Valid only
// inside the user functor invocation that received it.
class Txn {
 public:
    std::uint64_t load(void* slot) {
        switch (kind_) {
            case EngineKind::kLsa:
                return static_cast<LsaSlot*>(slot)->get(
                    static_cast<LsaAdapter::Txn*>(p_)->inner());
            case EngineKind::kOrec:
                return static_cast<OrecAdapter::Txn*>(p_)->inner().read(
                    static_cast<const std::uint64_t*>(slot));
            case EngineKind::kTl2:
                return static_cast<tl2::Txn*>(p_)->read(
                    *static_cast<WordSlot*>(slot));
            case EngineKind::kVstm:
                return static_cast<vstm::Txn*>(p_)->read(
                    *static_cast<WordSlot*>(slot));
            case EngineKind::kGlock:
                // The glock Txn holds the big lock; plain word access
                // (relaxed atomic so quiesced peeks race nothing).
                return detail_facade::raw_load(slot);
        }
        __builtin_unreachable();
    }

    void store(void* slot, std::uint64_t v) {
        switch (kind_) {
            case EngineKind::kLsa:
                static_cast<LsaSlot*>(slot)->set(
                    static_cast<LsaAdapter::Txn*>(p_)->inner(), v);
                return;
            case EngineKind::kOrec:
                static_cast<OrecAdapter::Txn*>(p_)->inner().write(
                    static_cast<std::uint64_t*>(slot), v);
                return;
            case EngineKind::kTl2:
                static_cast<tl2::Txn*>(p_)->write(
                    *static_cast<WordSlot*>(slot), v);
                return;
            case EngineKind::kVstm:
                static_cast<vstm::Txn*>(p_)->write(
                    *static_cast<WordSlot*>(slot), v);
                return;
            case EngineKind::kGlock:
                detail_facade::raw_store(slot, v);
                return;
        }
        __builtin_unreachable();
    }

    [[noreturn]] void abort() {
        switch (kind_) {
            case EngineKind::kLsa:
                static_cast<LsaAdapter::Txn*>(p_)->abort();
            case EngineKind::kOrec:
                static_cast<OrecAdapter::Txn*>(p_)->abort();
            case EngineKind::kTl2:
                static_cast<tl2::Txn*>(p_)->abort();
            case EngineKind::kVstm:
                static_cast<vstm::Txn*>(p_)->abort();
            case EngineKind::kGlock:
                static_cast<glock::Txn*>(p_)->abort();
        }
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
        switch (kind_) {
            case EngineKind::kLsa:
                return static_cast<LsaAdapter::Context*>(p_.get())->stats();
            case EngineKind::kOrec:
                return static_cast<OrecAdapter::Context*>(p_.get())->stats();
            case EngineKind::kTl2:
            case EngineKind::kVstm:
            case EngineKind::kGlock:
                return static_cast<StatsRegistry::Context*>(p_.get())->stats();
        }
        __builtin_unreachable();
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
 public:
    Engine() = default;

    EngineKind kind() const noexcept { return kind_; }
    // Registry name ("lsa", "orec", ...) for row labels.
    const std::string& name() const noexcept { return name_; }
    // The full spec string the engine was made from.
    const std::string& spec() const noexcept { return spec_; }
    bool valid() const noexcept { return ptr_ != nullptr; }

    // ---- data plane: slot layout -------------------------------------
    std::size_t slot_size() const noexcept {
        switch (kind_) {
            case EngineKind::kLsa: return sizeof(LsaSlot);
            case EngineKind::kOrec: return sizeof(std::uint64_t);
            case EngineKind::kTl2:
            case EngineKind::kVstm: return sizeof(WordSlot);
            case EngineKind::kGlock: return sizeof(std::uint64_t);
        }
        __builtin_unreachable();
    }

    std::size_t slot_align() const noexcept {
        switch (kind_) {
            case EngineKind::kLsa: return alignof(LsaSlot);
            case EngineKind::kOrec: return alignof(std::uint64_t);
            case EngineKind::kTl2:
            case EngineKind::kVstm: return alignof(WordSlot);
            case EngineKind::kGlock: return alignof(std::uint64_t);
        }
        __builtin_unreachable();
    }

    void slot_init(void* p, std::uint64_t v) const {
        switch (kind_) {
            case EngineKind::kLsa: new (p) LsaSlot(v); return;
            case EngineKind::kTl2:
            case EngineKind::kVstm: new (p) WordSlot(v); return;
            case EngineKind::kOrec:
            case EngineKind::kGlock:
                detail_facade::raw_store(p, v);
                return;
        }
        __builtin_unreachable();
    }

    void slot_destroy(void* p) const noexcept {
        switch (kind_) {
            case EngineKind::kLsa:
                static_cast<LsaSlot*>(p)->~LsaSlot();
                return;
            case EngineKind::kTl2:
            case EngineKind::kVstm:
                static_cast<WordSlot*>(p)->~WordSlot();
                return;
            case EngineKind::kOrec:
            case EngineKind::kGlock:
                return;  // bare words
        }
        __builtin_unreachable();
    }

    // Plain-function slot destructor, for reclamation-time deleters that
    // outlive any particular call frame (epoch limbo entries).
    using SlotDtor = void (*)(void*);
    SlotDtor slot_dtor() const noexcept {
        switch (kind_) {
            case EngineKind::kLsa:
                return [](void* p) { static_cast<LsaSlot*>(p)->~LsaSlot(); };
            case EngineKind::kTl2:
            case EngineKind::kVstm:
                return
                    [](void* p) { static_cast<WordSlot*>(p)->~WordSlot(); };
            case EngineKind::kOrec:
            case EngineKind::kGlock:
                return [](void*) {};
        }
        __builtin_unreachable();
    }

    // Quiesced-state check only (TVar::unsafe_peek contract).
    std::uint64_t slot_peek(const void* p) const noexcept {
        switch (kind_) {
            case EngineKind::kLsa:
                return static_cast<const LsaSlot*>(p)->unsafe_peek();
            case EngineKind::kTl2:
            case EngineKind::kVstm:
                return static_cast<const WordSlot*>(p)->unsafe_peek();
            case EngineKind::kOrec:
            case EngineKind::kGlock:
                return detail_facade::raw_load(p);
        }
        __builtin_unreachable();
    }

    // ---- control plane -----------------------------------------------
    Context make_context() const {
        switch (kind_) {
            case EngineKind::kLsa: {
                auto* a = static_cast<LsaAdapter*>(ptr_);
                return Context(kind_, std::make_shared<LsaAdapter::Context>(
                                          a->make_context()));
            }
            case EngineKind::kOrec: {
                auto* a = static_cast<OrecAdapter*>(ptr_);
                return Context(kind_, std::make_shared<OrecAdapter::Context>(
                                          a->make_context()));
            }
            case EngineKind::kTl2: {
                auto* a = static_cast<Tl2Adapter*>(ptr_);
                return Context(kind_,
                               std::make_shared<StatsRegistry::Context>(
                                   a->make_context()));
            }
            case EngineKind::kVstm: {
                auto* a = static_cast<VstmAdapter*>(ptr_);
                return Context(kind_,
                               std::make_shared<StatsRegistry::Context>(
                                   a->make_context()));
            }
            case EngineKind::kGlock: {
                auto* a = static_cast<GlobalLockAdapter*>(ptr_);
                return Context(kind_,
                               std::make_shared<StatsRegistry::Context>(
                                   a->make_context()));
            }
        }
        __builtin_unreachable();
    }

    // Run `f(stm::Txn&)` until it commits; passes f's return value through.
    // The concrete transaction lives on this call's stack via the
    // adapter's own run loop; the facade Txn is a borrowed view of it.
    template <typename F>
    auto run(Context& ctx, F&& f) const {
        switch (kind_) {
            case EngineKind::kLsa: {
                auto* a = static_cast<LsaAdapter*>(ptr_);
                auto& c = *static_cast<LsaAdapter::Context*>(ctx.raw());
                return a->run(c, [&](LsaAdapter::Txn& t) {
                    Txn tx(EngineKind::kLsa, &t);
                    return f(tx);
                });
            }
            case EngineKind::kOrec: {
                auto* a = static_cast<OrecAdapter*>(ptr_);
                auto& c = *static_cast<OrecAdapter::Context*>(ctx.raw());
                return a->run(c, [&](OrecAdapter::Txn& t) {
                    Txn tx(EngineKind::kOrec, &t);
                    return f(tx);
                });
            }
            case EngineKind::kTl2: {
                auto* a = static_cast<Tl2Adapter*>(ptr_);
                auto& c = *static_cast<StatsRegistry::Context*>(ctx.raw());
                return a->run(c, [&](tl2::Txn& t) {
                    Txn tx(EngineKind::kTl2, &t);
                    return f(tx);
                });
            }
            case EngineKind::kVstm: {
                auto* a = static_cast<VstmAdapter*>(ptr_);
                auto& c = *static_cast<StatsRegistry::Context*>(ctx.raw());
                return a->run(c, [&](vstm::Txn& t) {
                    Txn tx(EngineKind::kVstm, &t);
                    return f(tx);
                });
            }
            case EngineKind::kGlock: {
                auto* a = static_cast<GlobalLockAdapter*>(ptr_);
                auto& c = *static_cast<StatsRegistry::Context*>(ctx.raw());
                return a->run(c, [&](glock::Txn& t) {
                    Txn tx(EngineKind::kGlock, &t);
                    return f(tx);
                });
            }
        }
        __builtin_unreachable();
    }

    TxStats collected_stats() const {
        switch (kind_) {
            case EngineKind::kLsa:
                return static_cast<LsaAdapter*>(ptr_)->collected_stats();
            case EngineKind::kOrec:
                return static_cast<OrecAdapter*>(ptr_)->collected_stats();
            case EngineKind::kTl2:
                return static_cast<Tl2Adapter*>(ptr_)->collected_stats();
            case EngineKind::kVstm:
                return static_cast<VstmAdapter*>(ptr_)->collected_stats();
            case EngineKind::kGlock:
                return static_cast<GlobalLockAdapter*>(ptr_)
                    ->collected_stats();
        }
        __builtin_unreachable();
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

namespace detail_facade {

template <typename A>
struct KindOf;
template <>
struct KindOf<LsaAdapter> {
    static constexpr EngineKind value = EngineKind::kLsa;
};
template <>
struct KindOf<OrecAdapter> {
    static constexpr EngineKind value = EngineKind::kOrec;
};
template <>
struct KindOf<Tl2Adapter> {
    static constexpr EngineKind value = EngineKind::kTl2;
};
template <>
struct KindOf<VstmAdapter> {
    static constexpr EngineKind value = EngineKind::kVstm;
};
template <>
struct KindOf<GlobalLockAdapter> {
    static constexpr EngineKind value = EngineKind::kGlock;
};

}  // namespace detail_facade

// Telemetry escape hatch: the concrete adapter if (and only if) the
// engine wraps that type.
template <typename A>
A* get_if(const Engine& e) {
    return e.kind() == detail_facade::KindOf<A>::value
               ? static_cast<A*>(e.raw())
               : nullptr;
}

// Bridge to code templated over the adapter concept: calls f with the
// CONCRETE adapter reference. Every branch must yield the same type (use
// a generic lambda that normalizes its result).
template <typename F>
decltype(auto) visit(const Engine& e, F&& f) {
    switch (e.kind()) {
        case EngineKind::kLsa:
            return f(*static_cast<LsaAdapter*>(e.raw()));
        case EngineKind::kOrec:
            return f(*static_cast<OrecAdapter*>(e.raw()));
        case EngineKind::kTl2:
            return f(*static_cast<Tl2Adapter*>(e.raw()));
        case EngineKind::kVstm:
            return f(*static_cast<VstmAdapter*>(e.raw()));
        case EngineKind::kGlock:
            return f(*static_cast<GlobalLockAdapter*>(e.raw()));
    }
    __builtin_unreachable();
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
    s += "common keys spin=,retries=,irrev=,filter=,stripes=,ext=; ";
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
    c.epoch_filter = flag(s, "filter", c.epoch_filter);
    c.filter_stripes =
        static_cast<unsigned>(s.u64("stripes", c.filter_stripes));
}

constexpr const char* kCommonKeys[] = {"ext",   "spin",   "retries",
                                       "irrev", "filter", "stripes"};

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
