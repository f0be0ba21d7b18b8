// Tracing for the per-layer run, built only from the library's public API:
//
//   TracePolicy       wraps ds::EnginePolicy; containers templated on it
//                     (as on DirectPolicy) get a `run` span per call, an
//                     `attempt` span per functor invocation and sampled
//                     `load`/`store` spans, plus exact access counts.
//   CountingTimeBase  a time base installed through
//                     tb::TimeBase::wrap_external around a
//                     SharedCounterTimeBase: exact get_time/get_new_ts
//                     counts and sampled call timings.
//   OpScope           the benchmark's own `op` span around each container
//                     call (or, for the bank, around its Engine::run call).
//
// Spans of one op share its id and nest op -> run -> attempt -> load/store.
// Only every kOpSample-th op records spans; counts are exact for all ops.
// Each worker owns one ThreadTrace, reached through a thread_local pointer
// (null on threads that are not traced, e.g. the set-up thread).

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include <chronostm/ds/policy.hpp>
#include <chronostm/timebase/shared_counter.hpp>

#include "clock.hpp"

namespace perfbench {

namespace chs = chronostm;

enum class SpanKind : std::uint8_t { kOp, kRun, kAttempt, kLoad, kStore };

inline const char* span_name(SpanKind k) {
    switch (k) {
        case SpanKind::kOp: return "op";
        case SpanKind::kRun: return "run";
        case SpanKind::kAttempt: return "attempt";
        case SpanKind::kLoad: return "load";
        case SpanKind::kStore: return "store";
    }
    return "?";
}

struct Span {
    std::uint64_t op;       // op id, shared by every span of one op
    std::uint32_t parent;   // index in the same buffer; kNoSpan for ops
    SpanKind kind;
    bool stored;            // attempt spans: the attempt issued a store
    std::uint64_t t0, t1;   // ticks
};

inline constexpr std::uint32_t kNoSpan = ~std::uint32_t{0};

class ThreadTrace {
 public:
    static constexpr std::uint64_t kOpSample = 64;      // 1 op in 64
    static constexpr std::uint64_t kAccessSample = 8;   // 1 access in 8
    static constexpr unsigned kMaxAccessSpans = 64;     // per sampled op
    static constexpr unsigned kMaxAttemptSpans = 16;    // per sampled op

    ThreadTrace(unsigned tid, std::size_t span_cap) : tid_(tid), cap_(span_cap) {
        spans_.reserve(span_cap);
    }

    // ---- op ------------------------------------------------------------
    void begin_op() {
        ++ops;
        op_attempts_ = 0;
        sampled_ = (ops % kOpSample == 0) &&
                   spans_.size() + 2 + kMaxAttemptSpans + kMaxAccessSpans <=
                       cap_;
        if (!sampled_) return;
        op_id_ = (std::uint64_t{tid_} << 48) | ops;
        accesses_ = attempts_ = 0;
        cur_ = kNoSpan;  // the op span has no parent
        cur_ = op_ = push(SpanKind::kOp);
    }
    void end_op() {
        if (!sampled_) return;
        spans_[op_].t1 = ticks();
        sampled_ = false;
    }

    // ---- run / attempt ---------------------------------------------------
    std::uint32_t open_run() {
        return sampled_ ? (cur_ = push(SpanKind::kRun)) : kNoSpan;
    }
    void close_run(std::uint32_t i) {
        if (i == kNoSpan) return;
        spans_[i].t1 = ticks();
        cur_ = spans_[i].parent;
    }
    // Every op's retry time is timed (one tick read per attempt), so
    // wasted_ticks is exact, not sampled.
    std::uint32_t open_attempt() {
        ++attempts;
        stored_ = false;
        const std::uint64_t now = ticks();
        if (op_attempts_++ != 0) wasted_ticks += now - attempt_start_;
        attempt_start_ = now;
        if (!sampled_ || ++attempts_ > kMaxAttemptSpans) return kNoSpan;
        return cur_ = push(SpanKind::kAttempt);
    }
    void close_attempt(std::uint32_t i) {
        if (i == kNoSpan) return;
        spans_[i].t1 = ticks();
        spans_[i].stored = stored_;
        cur_ = spans_[i].parent;
    }

    // ---- load / store ----------------------------------------------------
    template <typename F>
    auto access(SpanKind k, F&& f) {
        if (k == SpanKind::kLoad) ++loads; else { ++stores; stored_ = true; }
        if (!sampled_ || cur_ == kNoSpan ||
            spans_[cur_].kind != SpanKind::kAttempt ||
            ++access_seq_ % kAccessSample != 0 ||
            accesses_ >= kMaxAccessSpans)
            return f();
        ++accesses_;
        // Closes the span on return and on the abort a load may throw.
        struct Close {
            Span& s;
            ~Close() { s.t1 = ticks(); }
        } close{spans_[push(k)]};
        return f();
    }

    const std::vector<Span>& spans() const { return spans_; }
    unsigned tid() const { return tid_; }

    // Exact counts over every op this thread ran while traced, and the
    // ticks from each op's first attempt start to its last attempt start
    // (aborted attempts plus backoff).
    std::uint64_t ops = 0, attempts = 0, loads = 0, stores = 0;
    std::uint64_t wasted_ticks = 0;

 private:
    std::uint32_t push(SpanKind k) {
        spans_.push_back(Span{op_id_, cur_, k, false, ticks(), 0});
        return static_cast<std::uint32_t>(spans_.size() - 1);
    }

    unsigned tid_;
    std::size_t cap_;
    std::vector<Span> spans_;
    bool sampled_ = false;
    bool stored_ = false;
    std::uint64_t op_id_ = 0;
    std::uint32_t op_ = kNoSpan, cur_ = kNoSpan;
    unsigned accesses_ = 0, attempts_ = 0, op_attempts_ = 0;
    std::uint64_t attempt_start_ = 0;
    std::uint64_t access_seq_ = 0;
};

inline thread_local ThreadTrace* tl_trace = nullptr;

// The benchmark's own span around one container op.
class OpScope {
 public:
    OpScope() : t_(tl_trace) {
        if (t_ != nullptr) t_->begin_op();
    }
    ~OpScope() {
        if (t_ != nullptr) t_->end_op();
    }
    OpScope(const OpScope&) = delete;
    OpScope& operator=(const OpScope&) = delete;

 private:
    ThreadTrace* t_;
};

// ds::EnginePolicy with spans at run / attempt / access.
struct TracePolicy {
    using Ctx = chs::stm::Context;

    chs::ds::EnginePolicy inner;

    explicit TracePolicy(chs::stm::Engine e) : inner(std::move(e)) {}

    Ctx make_context() const { return inner.make_context(); }

    struct Tx {
        chs::stm::Txn& t;
        ThreadTrace* tr;
        std::uint64_t load(void* p) {
            if (tr == nullptr) return t.load(p);
            return tr->access(SpanKind::kLoad, [&] { return t.load(p); });
        }
        void store(void* p, std::uint64_t v) {
            if (tr == nullptr) return t.store(p, v);
            tr->access(SpanKind::kStore, [&] {
                t.store(p, v);
                return 0;
            });
        }
    };

    template <typename F>
    auto run(Ctx& ctx, F&& f) const {
        ThreadTrace* tr = tl_trace;
        struct RunSpan {
            ThreadTrace* tr;
            std::uint32_t i;
            ~RunSpan() {
                if (tr != nullptr) tr->close_run(i);
            }
        } span{tr, tr != nullptr ? tr->open_run() : kNoSpan};
        return inner.run(ctx, [&](chs::stm::Txn& t) {
            struct AttemptSpan {
                ThreadTrace* tr;
                std::uint32_t i;
                ~AttemptSpan() {
                    if (tr != nullptr) tr->close_attempt(i);
                }
            } att{tr, tr != nullptr ? tr->open_attempt() : kNoSpan};
            Tx tx{t, tr};
            return f(tx);
        });
    }

    std::size_t slot_size() const { return inner.slot_size(); }
    std::size_t slot_align() const { return inner.slot_align(); }
    void slot_init(void* p, std::uint64_t v) const { inner.slot_init(p, v); }
    void slot_destroy(void* p) const { inner.slot_destroy(p); }
    std::uint64_t slot_peek(const void* p) const { return inner.slot_peek(p); }
    chs::stm::Engine::SlotDtor slot_dtor() const { return inner.slot_dtor(); }
};

template <typename Policy>
inline constexpr bool kTraced = std::is_same_v<Policy, TracePolicy>;

// Counting wrapper over the exact shared counter, for wrap_external.
class CountingTimeBase {
 public:
    static constexpr std::uint64_t kTimeSample = 16;  // time 1 call in 16

    struct Counts {
        std::uint64_t get_time = 0, get_new_ts = 0;
        std::uint64_t time_ticks = 0, time_samples = 0;
        std::uint64_t ts_ticks = 0, ts_samples = 0;

        Counts& operator+=(const Counts& o) {
            get_time += o.get_time;
            get_new_ts += o.get_new_ts;
            time_ticks += o.time_ticks;
            time_samples += o.time_samples;
            ts_ticks += o.ts_ticks;
            ts_samples += o.ts_samples;
            return *this;
        }
    };

    class ThreadClock {
     public:
        ThreadClock(chs::tb::SharedCounterTimeBase::ThreadClock inner,
                    Counts* c)
            : inner_(inner), c_(c) {}

        std::uint64_t get_time() {
            if (++c_->get_time % kTimeSample != 0) return inner_.get_time();
            const std::uint64_t t0 = ticks();
            const std::uint64_t v = inner_.get_time();
            c_->time_ticks += ticks() - t0;
            ++c_->time_samples;
            return v;
        }

        std::uint64_t get_new_ts() {
            if (++c_->get_new_ts % kTimeSample != 0)
                return inner_.get_new_ts();
            const std::uint64_t t0 = ticks();
            const std::uint64_t v = inner_.get_new_ts();
            c_->ts_ticks += ticks() - t0;
            ++c_->ts_samples;
            return v;
        }

     private:
        chs::tb::SharedCounterTimeBase::ThreadClock inner_;
        Counts* c_;
    };

    explicit CountingTimeBase(chs::tb::SharedCounterTimeBase& base)
        : base_(base) {}

    // One counter block per clock (one clock per engine context, used by
    // one thread at a time).
    ThreadClock make_thread_clock() {
        std::lock_guard<std::mutex> g(mu_);
        blocks_.push_back(std::make_unique<Counts>());
        return ThreadClock(base_.make_thread_clock(), blocks_.back().get());
    }

    static constexpr std::uint64_t deviation() { return 0; }

    // Only while no thread is inside a transaction.
    Counts total() const {
        std::lock_guard<std::mutex> g(mu_);
        Counts t;
        for (const auto& b : blocks_) t += *b;
        return t;
    }

 private:
    chs::tb::SharedCounterTimeBase& base_;
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<Counts>> blocks_;
};

}  // namespace perfbench
