// Shared facade plumbing for the optimistic comparison baselines (TL2 and
// the validation STM): the per-context stats registry, commit/abort
// accounting, the bounded retry loop with backoff, and stats aggregation
// live here once. A derived adapter provides
//
//   using Txn = ...;                       // with a private bool commit()
//   Txn txn_begin(Context&);               // fresh attempt
//   unsigned max_retries() const;
//   static constexpr const char* kEngineName;
//
// and befriends BaselineAdapter so the base can drive Txn::commit.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include <chronostm/core/lsa_stm.hpp>

namespace chronostm {
namespace stm {

// Per-context stats blocks, their registry, and aggregation -- shared by
// every baseline adapter, optimistic or not.
class StatsRegistry {
 public:
    class Context {
     public:
        TxStats stats() const {
            return TxStats(block_->commits.load(std::memory_order_relaxed),
                           block_->aborts.load(std::memory_order_relaxed));
        }

     private:
        friend class StatsRegistry;
        explicit Context(std::shared_ptr<detail::StatsBlock> block)
            : block_(std::move(block)) {}
        std::shared_ptr<detail::StatsBlock> block_;
    };

    Context make_context() {
        auto block = std::make_shared<detail::StatsBlock>();
        std::lock_guard<std::mutex> g(mu_);
        blocks_.push_back(block);
        return Context(std::move(block));
    }

    TxStats collected_stats() const {
        std::uint64_t c = 0, a = 0;
        std::lock_guard<std::mutex> g(mu_);
        for (const auto& b : blocks_) {
            c += b->commits.load(std::memory_order_relaxed);
            a += b->aborts.load(std::memory_order_relaxed);
        }
        return TxStats(c, a);
    }

 protected:
    StatsRegistry() = default;
    ~StatsRegistry() = default;

    static detail::StatsBlock* block(Context& ctx) {
        return ctx.block_.get();
    }
    static void count_commit(Context& ctx) {
        detail::bump(block(ctx)->commits);
    }
    static void count_abort(Context& ctx) {
        detail::bump(block(ctx)->aborts);
    }

 private:
    mutable std::mutex mu_;
    std::vector<std::shared_ptr<detail::StatsBlock>> blocks_;
};

template <typename Derived>
class BaselineAdapter : public StatsRegistry {
 public:
    template <typename TxnT>
    bool txn_commit(Context& ctx, TxnT& tx) {
        if (tx.commit()) {
            count_commit(ctx);
            return true;
        }
        count_abort(ctx);
        return false;
    }

    template <typename F>
    auto run(Context& ctx, F&& f) {
        using TxnT = typename Derived::Txn;
        using R = std::invoke_result_t<F&, TxnT&>;
        for (unsigned attempt = 0;; ++attempt) {
            TxnT tx = self().txn_begin(ctx);
            try {
                if constexpr (std::is_void_v<R>) {
                    f(tx);
                    if (txn_commit(ctx, tx)) return;
                } else {
                    R r = f(tx);
                    if (txn_commit(ctx, tx)) return r;
                }
            } catch (const detail::AbortTx&) {
                count_abort(ctx);
            }
            if (attempt + 1 >= self().max_retries())
                throw std::runtime_error(
                    std::string("chronostm: ") + Derived::kEngineName +
                    " transaction exceeded retry bound");
            chronostm::backoff(attempt,
                               reinterpret_cast<std::uintptr_t>(block(ctx)));
        }
    }

 protected:
    BaselineAdapter() = default;
    ~BaselineAdapter() = default;

 private:
    Derived& self() { return static_cast<Derived&>(*this); }
    const Derived& self() const {
        return static_cast<const Derived&>(*this);
    }
};

}  // namespace stm
}  // namespace chronostm
