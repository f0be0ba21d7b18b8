// The uniform Stm facade the workload layer and every comparison driver
// program against. An adapter provides:
//
//   template <typename T> using Var;   // shared transactional variable,
//                                      //   constructed with an initial
//                                      //   value; Var::unsafe_peek() for
//                                      //   quiesced post-run checks
//   using Txn;                         // per-attempt handle:
//                                      //   tx.read(var), tx.write(var, v),
//                                      //   tx.abort()
//   using Context;                     // per-thread handle (make one per
//                                      //   worker thread); Context::stats()
//                                      //   exposes per-thread commit/abort
//                                      //   counters plus the fast-path
//                                      //   block (extensions, epoch-filter
//                                      //   fast hits, ro_commits,
//                                      //   backoff_us)
//   Context make_context();
//   adapter.run(ctx, f);               // runs f(Txn&) until it commits and
//                                      //   passes f's return value through
//   adapter.txn_begin(ctx);            // explicit one-attempt control for
//   adapter.txn_commit(ctx, tx);       //   staged tests (reads/writes may
//                                      //   throw on conflict; commit
//                                      //   reports success)
//   adapter.collected_stats();         // aggregate TxStats over contexts
//
// Engines behind the facade:
//   * LsaAdapter       -- the paper's LSA-RT over any tb::TimeBase (the
//                         runtime-pluggable time-base facade: pass a
//                         wrapped object or a registry handle from
//                         tb::make("batched:B=16")), with multi-version
//                         history and the commit-epoch validation filter
//                         (StmConfig::filter_stripes; 0 = off).
//   * OrecAdapter      -- LSA over a global orec table (core/orec_stm.hpp):
//                         raw-memory words hashed to versioned locks by
//                         (addr >> 4) & mask, same time-base facade,
//                         snapshot extension, and commit-epoch filter
//                         (OrecConfig::filter_stripes), single-version.
//                         Var<T> is the metadata-free WordVar<T>.
//   * Tl2Adapter       -- single-version, global-version-clock TL2.
//   * VstmAdapter      -- validation-based STM, +- commit-counter
//                         heuristic (VstmConfig).
//   * GlobalLockAdapter-- one mutex around everything.
//
// The type-erased engine facade (stm/facade.hpp) stores words in raw
// slots; its SlotTraits table defaults to the adapter's own
// Var<std::uint64_t> (LSA, TL2, VSTM) and gives orec and glock a bare
// word, so a new adapter whose Var fits needs no slot code.

#pragma once

#include <type_traits>
#include <utility>

#include <chronostm/core/lsa_stm.hpp>
#include <chronostm/core/orec_stm.hpp>
#include <chronostm/stm/baselines/global_lock.hpp>
#include <chronostm/stm/baselines/tl2.hpp>
#include <chronostm/stm/baselines/vstm.hpp>

namespace chronostm {
namespace stm {

// LSA-RT behind the facade: thin shims over core/lsa_stm.hpp. The Txn
// handle adapts the facade's tx.read(var) spelling to the core's
// var.get(tx) one; everything else forwards. The time base arrives as a
// tb::TimeBase handle, so one adapter type serves every base.
class LsaAdapter {
 public:
    template <typename T>
    using Var = TVar<T>;

    class Txn {
     public:
        explicit Txn(Transaction& tx) : tx_(tx) {}

        template <typename T>
        T read(Var<T>& var) {
            return var.get(tx_);
        }

        template <typename T>
        void write(Var<T>& var, T v) {
            var.set(tx_, std::move(v));
        }

        [[noreturn]] void abort() { tx_.abort(); }

        // Escalate to irrevocable serial mode right now (see
        // Transaction::become_irrevocable): claim the engine-global token,
        // drain in-flight commits, revalidate once; from then on nothing
        // can abort this transaction. May throw detail::AbortTx (the token
        // survives into the retry, which reruns irrevocably).
        void become_irrevocable() { tx_.become_irrevocable(); }
        bool irrevocable() const { return tx_.irrevocable(); }

        Transaction& inner() { return tx_; }

     private:
        Transaction& tx_;
    };

    class Context {
     public:
        TxStats stats() const { return inner_.stats(); }
        ThreadContext& inner() { return inner_; }

     private:
        friend class LsaAdapter;
        explicit Context(ThreadContext inner)
            : inner_(std::move(inner)) {}
        ThreadContext inner_;
    };

    explicit LsaAdapter(tb::TimeBase tbase, StmConfig cfg = StmConfig{})
        : stm_(std::move(tbase), std::move(cfg)) {}
    LsaAdapter(const LsaAdapter&) = delete;
    LsaAdapter& operator=(const LsaAdapter&) = delete;

    Context make_context() { return Context(stm_.make_context()); }

    Transaction txn_begin(Context& ctx) {
        return ctx.inner_.txn_begin();
    }

    bool txn_commit(Context& ctx, Transaction& tx) {
        return ctx.inner_.txn_commit(tx);
    }

    template <typename F>
    auto run(Context& ctx, F&& f) {
        return ctx.inner_.run([&](Transaction& tx) {
            Txn handle(tx);
            return f(handle);
        });
    }

    LsaStm& stm() { return stm_; }
    TxStats collected_stats() const { return stm_.collected_stats(); }

 private:
    LsaStm stm_;
};

// The orec-table engine behind the same facade: Var<T> resolves to the
// metadata-free WordVar<T> (any word the engine can hash, wrapped for the
// workloads' var-based spelling; drivers that want raw structs or arrays
// use tx_read/tx_write on the Txn's inner() transaction directly).
class OrecAdapter {
 public:
    static constexpr const char* kEngineName = "orec";

    template <typename T>
    using Var = WordVar<T>;

    class Txn {
     public:
        explicit Txn(OrecTransaction& tx) : tx_(tx) {}

        template <typename T>
        T read(Var<T>& var) {
            return var.get(tx_);
        }

        template <typename T>
        void write(Var<T>& var, T v) {
            var.set(tx_, std::move(v));
        }

        [[noreturn]] void abort() { tx_.abort(); }

        // Escalate to irrevocable serial mode right now (see
        // OrecTransaction::become_irrevocable); same contract as the LSA
        // adapter's spelling.
        void become_irrevocable() { tx_.become_irrevocable(); }
        bool irrevocable() const { return tx_.irrevocable(); }

        OrecTransaction& inner() { return tx_; }

     private:
        OrecTransaction& tx_;
    };

    class Context {
     public:
        TxStats stats() const { return inner_.stats(); }
        OrecThreadContext& inner() { return inner_; }

     private:
        friend class OrecAdapter;
        explicit Context(OrecThreadContext inner)
            : inner_(std::move(inner)) {}
        OrecThreadContext inner_;
    };

    explicit OrecAdapter(tb::TimeBase tbase, OrecConfig cfg = OrecConfig{})
        : stm_(std::move(tbase), cfg) {}
    OrecAdapter(const OrecAdapter&) = delete;
    OrecAdapter& operator=(const OrecAdapter&) = delete;

    Context make_context() { return Context(stm_.make_context()); }

    OrecTransaction txn_begin(Context& ctx) {
        return ctx.inner_.txn_begin();
    }

    bool txn_commit(Context& ctx, OrecTransaction& tx) {
        return ctx.inner_.txn_commit(tx);
    }

    template <typename F>
    auto run(Context& ctx, F&& f) {
        return ctx.inner_.run([&](OrecTransaction& tx) {
            Txn handle(tx);
            return f(handle);
        });
    }

    OrecStm& stm() { return stm_; }
    TxStats collected_stats() const { return stm_.collected_stats(); }

 private:
    OrecStm stm_;
};

}  // namespace stm
}  // namespace chronostm
