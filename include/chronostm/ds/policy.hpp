// Access policies for the transactional containers (ds/*.hpp). Containers
// are templated over a Policy so the SAME container code runs two ways:
//
//   EnginePolicy       -- the public path: a runtime-selected type-erased
//                         stm::Engine from the registry (stm::make). One
//                         switch-on-kind per transaction: run() hands the
//                         containers' generic lambdas the concrete
//                         adapter's DirectPolicy<A>::Tx, so every slot
//                         access inlines into the engine's read/write fast
//                         path. A functor taking only stm::Txn& (perfbench's
//                         traced TracePolicy) still runs through
//                         stm::Engine::run and keeps the per-access switch.
//   DirectPolicy<A>    -- the compile-time twin over a concrete adapter;
//                         the code EnginePolicy runs after its switch.
//                         The datastructure bench prices EnginePolicy's
//                         one switch (the <= 15% gate in check_bench.py)
//                         against it.
//
// A policy provides: Ctx, make_context(), run(ctx, f) calling f(tx&) with
// a handle exposing load(slot)/store(slot, v)/abort(), and the slot layout
// ops (slot_size/align/init/destroy/peek). Slots hold 64-bit words;
// pointers travel through them as uintptr_t values.
//
// run_alloc_tx() is the container transaction wrapper: it pins the
// caller's epoch participant for the whole run() (doomed attempts stay
// protected), rolls back the previous attempt's allocations at each
// functor (re)invocation, and settles the allocation log on commit or
// exceptional exit. Container ops return results through captured locals,
// never through run_alloc_tx.

#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include <chronostm/stm/alloc.hpp>
#include <chronostm/stm/facade.hpp>

namespace chronostm {
namespace ds {

// How each concrete adapter stores and accesses one transactional word;
// the compile-time mirror of the Engine slot switch.
template <typename A>
struct SlotTraits;

template <>
struct SlotTraits<stm::LsaAdapter> {
    using Slot = stm::LsaSlot;
    static constexpr std::size_t size() { return sizeof(Slot); }
    static constexpr std::size_t align() { return alignof(Slot); }
    static void init(void* p, std::uint64_t v) { new (p) Slot(v); }
    static void destroy(void* p) { static_cast<Slot*>(p)->~Slot(); }
    static std::uint64_t peek(const void* p) {
        return static_cast<const Slot*>(p)->unsafe_peek();
    }
    static std::uint64_t load(stm::LsaAdapter::Txn& t, void* p) {
        return static_cast<Slot*>(p)->get(t.inner());
    }
    static void store(stm::LsaAdapter::Txn& t, void* p, std::uint64_t v) {
        static_cast<Slot*>(p)->set(t.inner(), v);
    }
};

template <>
struct SlotTraits<stm::OrecAdapter> {
    static constexpr std::size_t size() { return sizeof(std::uint64_t); }
    static constexpr std::size_t align() { return alignof(std::uint64_t); }
    static void init(void* p, std::uint64_t v) {
        __atomic_store_n(static_cast<std::uint64_t*>(p), v, __ATOMIC_RELAXED);
    }
    static void destroy(void*) {}
    static std::uint64_t peek(const void* p) {
        return __atomic_load_n(
            static_cast<const std::uint64_t*>(const_cast<void*>(p)),
            __ATOMIC_RELAXED);
    }
    static std::uint64_t load(stm::OrecAdapter::Txn& t, void* p) {
        return t.inner().read(static_cast<const std::uint64_t*>(p));
    }
    static void store(stm::OrecAdapter::Txn& t, void* p, std::uint64_t v) {
        t.inner().write(static_cast<std::uint64_t*>(p), v);
    }
};

namespace detail {

// TL2 and VSTM share the wstm::Var slot; glock shares the bare-word one.
template <typename A>
struct WordStmSlotTraits {
    using Slot = stm::WordSlot;
    static constexpr std::size_t size() { return sizeof(Slot); }
    static constexpr std::size_t align() { return alignof(Slot); }
    static void init(void* p, std::uint64_t v) { new (p) Slot(v); }
    static void destroy(void* p) { static_cast<Slot*>(p)->~Slot(); }
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

}  // namespace detail

template <>
struct SlotTraits<stm::Tl2Adapter>
    : detail::WordStmSlotTraits<stm::Tl2Adapter> {};
template <>
struct SlotTraits<stm::VstmAdapter>
    : detail::WordStmSlotTraits<stm::VstmAdapter> {};

template <>
struct SlotTraits<stm::GlobalLockAdapter> {
    static constexpr std::size_t size() { return sizeof(std::uint64_t); }
    static constexpr std::size_t align() { return alignof(std::uint64_t); }
    static void init(void* p, std::uint64_t v) {
        __atomic_store_n(static_cast<std::uint64_t*>(p), v, __ATOMIC_RELAXED);
    }
    static void destroy(void*) {}
    static std::uint64_t peek(const void* p) {
        return __atomic_load_n(
            static_cast<const std::uint64_t*>(const_cast<void*>(p)),
            __ATOMIC_RELAXED);
    }
    // The glock Txn holds the big lock; relaxed atomics keep quiesced
    // peeks race-free under TSan.
    static std::uint64_t load(stm::GlobalLockAdapter::Txn&, void* p) {
        return peek(p);
    }
    static void store(stm::GlobalLockAdapter::Txn&, void* p,
                      std::uint64_t v) {
        init(p, v);
    }
};

// The compile-time twin: same container code, direct template calls.
template <typename A>
struct DirectPolicy {
    using Ctx = typename A::Context;
    using Traits = SlotTraits<A>;

    A* a;

    explicit DirectPolicy(A& adapter) : a(&adapter) {}

    Ctx make_context() const { return a->make_context(); }

    // The handle the container's generic lambdas receive: the same data
    // plane as stm::Txn (load, store, abort), inlined per adapter.
    struct Tx {
        typename A::Txn& t;
        std::uint64_t load(void* p) { return Traits::load(t, p); }
        void store(void* p, std::uint64_t v) { Traits::store(t, p, v); }
        [[noreturn]] void abort() { t.abort(); }
    };

    template <typename F>
    auto run(Ctx& ctx, F&& f) const {
        return a->run(ctx, [&](typename A::Txn& t) {
            Tx tx{t};
            return f(tx);
        });
    }

    std::size_t slot_size() const { return Traits::size(); }
    std::size_t slot_align() const { return Traits::align(); }
    void slot_init(void* p, std::uint64_t v) const { Traits::init(p, v); }
    void slot_destroy(void* p) const { Traits::destroy(p); }
    std::uint64_t slot_peek(const void* p) const { return Traits::peek(p); }
    stm::Engine::SlotDtor slot_dtor() const { return &Traits::destroy; }
};

// The public path: one runtime-selected engine, one switch per
// transaction.
struct EnginePolicy {
    using Ctx = stm::Context;

    stm::Engine eng;

    explicit EnginePolicy(stm::Engine e) : eng(std::move(e)) {}

    Ctx make_context() const { return eng.make_context(); }

    // "Generic" = takes a DirectPolicy handle, in practice through an
    // `auto&` parameter; a functor taking only stm::Txn& does not and
    // keeps the facade path. LSA's handle stands in for all five: a
    // functor that takes one adapter's handle but not another's compiles
    // on neither path.
    template <typename F>
    auto run(Ctx& ctx, F&& f) const {
        if constexpr (std::is_invocable_v<
                          F&, DirectPolicy<stm::LsaAdapter>::Tx&>) {
            return stm::visit(eng, [&](auto& adapter) {
                using A = std::decay_t<decltype(adapter)>;
                return DirectPolicy<A>(adapter).run(
                    *static_cast<typename A::Context*>(ctx.raw()), f);
            });
        } else {
            return eng.run(ctx, std::forward<F>(f));
        }
    }

    std::size_t slot_size() const { return eng.slot_size(); }
    std::size_t slot_align() const { return eng.slot_align(); }
    void slot_init(void* p, std::uint64_t v) const { eng.slot_init(p, v); }
    void slot_destroy(void* p) const { eng.slot_destroy(p); }
    std::uint64_t slot_peek(const void* p) const { return eng.slot_peek(p); }
    stm::Engine::SlotDtor slot_dtor() const { return eng.slot_dtor(); }
};

// Per-thread container handle: the policy's engine context plus the
// thread's transactional-allocation context (epoch participant + logs).
template <typename Policy>
struct TxHandle {
    typename Policy::Ctx ctx;
    stm::HeapCtx heap;
    // Per-handle RNG stream (skiplist level draws, workload key picks).
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
};

// One container operation = one pinned, allocation-aware transaction.
// `f` must be idempotent up to its tx_alloc/tx_free calls (the engines
// re-invoke it on retry); results travel through captured locals.
template <typename Policy, typename F>
void run_alloc_tx(const Policy& pol, TxHandle<Policy>& h, F&& f) {
    eb::PinGuard pinned = h.heap.pin();
    try {
        pol.run(h.ctx, [&](auto& tx) {
            h.heap.begin_attempt();
            f(tx);
        });
        h.heap.commit();
    } catch (...) {
        h.heap.rollback();
        throw;
    }
}

}  // namespace ds
}  // namespace chronostm
