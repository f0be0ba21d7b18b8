// Access policies for the transactional containers (ds/*.hpp). Containers
// are templated over a Policy so the SAME container code runs two ways:
//
//   EnginePolicy       -- the public path: a runtime-selected type-erased
//                         stm::Engine from the registry (stm::make). One
//                         kind dispatch per transaction: run() hands the
//                         containers' generic lambdas the concrete
//                         adapter's DirectPolicy<A>::Tx, so every slot
//                         access inlines into the engine's read/write fast
//                         path. A functor taking only stm::Txn& (perfbench's
//                         traced TracePolicy) still runs through
//                         stm::Engine::run and keeps the per-access
//                         dispatch.
//   DirectPolicy<A>    -- the compile-time twin over a concrete adapter;
//                         the code EnginePolicy runs after its dispatch.
//                         The datastructure bench prices EnginePolicy's
//                         one dispatch (the <= 15% gate in check_bench.py)
//                         against it.
//
// Both read the slot layout and access from the one table,
// stm::SlotTraits<A> (stm/facade.hpp): DirectPolicy directly, EnginePolicy
// through stm::Engine's slot ops.
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

// The compile-time twin: same container code, direct template calls.
template <typename A>
struct DirectPolicy {
    using Ctx = typename A::Context;
    using Traits = stm::SlotTraits<A>;

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

// The public path: one runtime-selected engine, one kind dispatch per
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
