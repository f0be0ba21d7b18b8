// Runtime-pluggable time-base facade: the paper's central claim (Section 3)
// is that the time base is a REPLACEABLE component of a time-based STM.
// Before this layer existed, replaceability was compile-time only -- every
// engine, workload, and driver was templated on a concrete base, so adding
// a base meant N x M template instantiations. tb::TimeBase / tb::ThreadClock
// type-erase the concept from timebase/common.hpp so the STM core, the
// adapter facade, the workload runner, and every bench driver hold ONE
// concrete type and select the base at runtime -- by wrapping an existing
// object (TimeBase::wrap) or by string key through the registry
// (tb::make("batched:B=16")).
//
// Dispatch: a tagged union, not a vtable. The erased ThreadClock stores the
// concrete per-thread clock inline (all in-repo clocks are small and
// trivially copyable; a static_assert guards the buffer) and get_time /
// get_new_ts switch on the kind tag into the concrete inlined bodies. The
// tag branch is perfectly predicted in any real run (one base per
// workload), so the hot calls cost a jump-table hop over the direct
// template call -- measured, not assumed, by micro_timebase's
// BM_Facade_* rows and gated by scripts/check_bench.py --facade-tolerance.
// Out-of-repo bases still fit through Kind::kExternal, which falls back to
// flat function-pointer dispatch on a heap-allocated clock
// (TimeBase::wrap_external<TB>).
//
// Registry spec grammar:  name[:key=value[,key=value...]]
//   shared                       exact shared counter
//   tl2                          CAS counter with TL2-style stamp sharing
//   batched[:B=8]                per-thread stamp blocks of B
//   perfect[:source=auto|tsc|steady]   synchronized hardware clock
//   mmtimer[:freq-hz=2e7,latency=7,nodes=1,offset=0]   simulated MMTimer
//   extsync[:devices=2,freq-hz=1e9,offset=0,dev=100]   ext.-sync'd clocks
// Keys are case-insensitive; unknown names and keys throw with the list of
// known alternatives, so a typo in --timebase= fails loudly at startup.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <chronostm/timebase/batched_counter.hpp>
#include <chronostm/timebase/common.hpp>
#include <chronostm/timebase/ext_sync_clock.hpp>
#include <chronostm/timebase/mmtimer.hpp>
#include <chronostm/timebase/perfect_clock.hpp>
#include <chronostm/timebase/shared_counter.hpp>
#include <chronostm/timebase/tl2_shared_counter.hpp>

namespace chronostm {
namespace tb {

enum class Kind : unsigned char {
    kShared,
    kTl2,
    kBatched,
    kPerfect,
    kMMTimer,
    kExtSync,
    kExternal,
};

// Flat function-pointer dispatch for wrap_external: the escape hatch for
// bases the Kind enum does not know.
struct ExternalClockOps {
    std::uint64_t (*get_time)(void* clock);
    std::uint64_t (*get_new_ts)(void* clock);
    void (*destroy)(void* clock);
};

class TimeBase;

class ThreadClock {
    struct ExtClock {
        void* state;
        const ExternalClockOps* ops;
    };

    // A real union, not byte storage: active-member access needs no
    // std::launder, so the compiler can keep a non-escaping clock's fields
    // in registers across calls -- measurably cheaper on the counter
    // bases. Every member is trivially copyable (static_asserted below),
    // so the union copies as bits.
    union Storage {
        SharedCounterTimeBase::ThreadClock shared;
        Tl2SharedCounterTimeBase::ThreadClock tl2;
        BatchedCounterTimeBase::ThreadClock batched;
        PerfectClockTimeBase::ThreadClock perfect;
        MMTimerClockTimeBase::ThreadClock mmtimer;
        ExtSyncTimeBase::ThreadClock extsync;
        ExtClock ext;
        Storage() : ext{nullptr, nullptr} {}
    };

    template <typename C>
    static constexpr bool fits_inline =
        std::is_trivially_copyable_v<C> && std::is_trivially_destructible_v<C>;

 public:
    ThreadClock(ThreadClock&& o) noexcept
        : hot_counter_(o.hot_counter_), kind_(o.kind_), u_(o.u_) {
        if (kind_ == Kind::kExternal) o.u_.ext.state = nullptr;
    }
    ThreadClock& operator=(ThreadClock&& o) noexcept {
        if (this != &o) {
            destroy();
            hot_counter_ = o.hot_counter_;
            kind_ = o.kind_;
            u_ = o.u_;
            if (kind_ == Kind::kExternal) o.u_.ext.state = nullptr;
        }
        return *this;
    }
    ThreadClock(const ThreadClock&) = delete;
    ThreadClock& operator=(const ThreadClock&) = delete;
    ~ThreadClock() { destroy(); }

    // Hot dispatch: a branch ladder (every branch predicted -- a run uses
    // one base), falling to an outlined tail for the two slowest kinds. A
    // jump table looks cleaner but measures ~2ns slower on the cheapest
    // counters, which is exactly the budget the facade gate protects.
    std::uint64_t get_time() {
        if (__builtin_expect(hot_counter_ != nullptr, 1))
            return hot_counter_->load(std::memory_order_acquire);
        if (kind_ == Kind::kBatched)
            return as<BatchedCounterTimeBase::ThreadClock>().get_time();
        if (kind_ == Kind::kTl2)
            return as<Tl2SharedCounterTimeBase::ThreadClock>().get_time();
        if (kind_ == Kind::kPerfect)
            return as<PerfectClockTimeBase::ThreadClock>().get_time();
        if (kind_ == Kind::kExtSync)
            return as<ExtSyncTimeBase::ThreadClock>().get_time();
        return get_time_cold();
    }

    std::uint64_t get_new_ts() {
        // Inline cache for the exact shared counter (the paper's baseline
        // and the dispatch-cost-sensitive base): hot_counter_ is non-null
        // iff kind_ == kShared, so the hit path is one load + fetch_add --
        // the same post-fence memory traffic as the direct template call.
        if (__builtin_expect(hot_counter_ != nullptr, 1))
            return hot_counter_->fetch_add(1, std::memory_order_acq_rel) + 1;
        if (kind_ == Kind::kBatched)
            return as<BatchedCounterTimeBase::ThreadClock>().get_new_ts();
        if (kind_ == Kind::kTl2)
            return as<Tl2SharedCounterTimeBase::ThreadClock>().get_new_ts();
        if (kind_ == Kind::kPerfect)
            return as<PerfectClockTimeBase::ThreadClock>().get_new_ts();
        if (kind_ == Kind::kExtSync)
            return as<ExtSyncTimeBase::ThreadClock>().get_new_ts();
        return get_new_ts_cold();
    }

    Kind kind() const { return kind_; }

 private:
    friend class TimeBase;

    template <typename C>
    ThreadClock(Kind k, C&& concrete) : kind_(k) {
        using D = std::decay_t<C>;
        static_assert(fits_inline<D>,
                      "concrete thread clocks must be trivially copyable and "
                      "destructible to live in the erased ThreadClock's "
                      "union; route non-trivial clocks through kExternal");
        new (&as<D>()) D(std::forward<C>(concrete));
        if constexpr (std::is_same_v<D, SharedCounterTimeBase::ThreadClock>)
            hot_counter_ = u_.shared.counter();
    }

    ThreadClock(void* state, const ExternalClockOps* ops)
        : kind_(Kind::kExternal) {
        u_.ext = ExtClock{state, ops};
    }

    template <typename C>
    C& as() {
        if constexpr (std::is_same_v<C, SharedCounterTimeBase::ThreadClock>)
            return u_.shared;
        else if constexpr (std::is_same_v<
                               C, Tl2SharedCounterTimeBase::ThreadClock>)
            return u_.tl2;
        else if constexpr (std::is_same_v<
                               C, BatchedCounterTimeBase::ThreadClock>)
            return u_.batched;
        else if constexpr (std::is_same_v<
                               C, PerfectClockTimeBase::ThreadClock>)
            return u_.perfect;
        else if constexpr (std::is_same_v<
                               C, MMTimerClockTimeBase::ThreadClock>)
            return u_.mmtimer;
        else if constexpr (std::is_same_v<C, ExtSyncTimeBase::ThreadClock>)
            return u_.extsync;
        else
            return u_.ext;
    }

    void destroy() {
        if (kind_ == Kind::kExternal) {
            if (u_.ext.state != nullptr) u_.ext.ops->destroy(u_.ext.state);
            u_.ext.state = nullptr;
        }
    }

    // Only the slowest kinds live out of line: MMTimer reads cost
    // hundreds of ns (simulated device latency) and external clocks pay a
    // function-pointer hop by construction.
    __attribute__((noinline)) std::uint64_t get_time_cold() {
        if (kind_ == Kind::kMMTimer)
            return as<MMTimerClockTimeBase::ThreadClock>().get_time();
        auto& c = as<ExtClock>();
        return c.ops->get_time(c.state);
    }

    __attribute__((noinline)) std::uint64_t get_new_ts_cold() {
        if (kind_ == Kind::kMMTimer)
            return as<MMTimerClockTimeBase::ThreadClock>().get_new_ts();
        auto& c = as<ExtClock>();
        return c.ops->get_new_ts(c.state);
    }

    // Non-null iff kind_ == kShared; see get_new_ts.
    std::atomic<std::uint64_t>* hot_counter_ = nullptr;
    Kind kind_;
    Storage u_;
};

// Value-semantics handle over a concrete time base: cheap to copy, shares
// ownership of registry-made bases, borrows wrapped ones (the caller keeps
// the wrapped object alive, as with the old template-parameter plumbing).
class TimeBase {
    struct ExternalVTable {
        ThreadClock (*make_clock)(void* base);
        std::uint64_t (*deviation)(const void* base);
    };

 public:
    TimeBase() = default;

    bool valid() const { return impl_ != nullptr; }
    Kind kind() const { return kind_; }
    // The normalized registry spec ("batched:B=16") or the wrap name.
    const std::string& spec() const { return spec_; }

    // ---- non-owning wraps over concrete bases ----
    static TimeBase wrap(SharedCounterTimeBase& b) {
        return TimeBase(Kind::kShared, &b, "shared");
    }
    static TimeBase wrap(Tl2SharedCounterTimeBase& b) {
        return TimeBase(Kind::kTl2, &b, "tl2");
    }
    static TimeBase wrap(BatchedCounterTimeBase& b) {
        return TimeBase(Kind::kBatched, &b,
                        "batched:B=" + std::to_string(b.block_size()));
    }
    static TimeBase wrap(PerfectClockTimeBase& b) {
        return TimeBase(Kind::kPerfect, &b, "perfect");
    }
    static TimeBase wrap(MMTimerClockTimeBase& b) {
        return TimeBase(Kind::kMMTimer, &b, "mmtimer");
    }
    static TimeBase wrap(ExtSyncTimeBase& b) {
        return TimeBase(Kind::kExtSync, &b, "extsync");
    }

    // Escape hatch for bases the Kind enum does not know: flat
    // function-pointer dispatch, clock on the heap. TB must model the
    // concept in timebase/common.hpp.
    template <typename TB>
    static TimeBase wrap_external(TB& base, std::string name = "external") {
        using Clk = typename TB::ThreadClock;
        struct Shim {
            static std::uint64_t gt(void* c) {
                return static_cast<Clk*>(c)->get_time();
            }
            static std::uint64_t ts(void* c) {
                return static_cast<Clk*>(c)->get_new_ts();
            }
            static void destroy(void* c) { delete static_cast<Clk*>(c); }
            static ThreadClock make(void* b) {
                static const ExternalClockOps ops{&gt, &ts, &destroy};
                return ThreadClock(
                    new Clk(static_cast<TB*>(b)->make_thread_clock()), &ops);
            }
            static std::uint64_t dev(const void* b) {
                return static_cast<const TB*>(b)->deviation();
            }
        };
        static const ExternalVTable vt{&Shim::make, &Shim::dev};
        TimeBase t(Kind::kExternal, &base, std::move(name));
        t.ext_ = &vt;
        return t;
    }

    // Forced inline so a clock held in a local (benchmarks, tight driver
    // loops) never has its address escape through the out-of-line call:
    // escape-blocked clocks SROA into registers and the ladder dispatch
    // costs one predicted compare. Called once per thread otherwise --
    // code size is irrelevant.
    __attribute__((always_inline)) inline ThreadClock make_thread_clock() {
        switch (kind_) {
            case Kind::kShared:
                return ThreadClock(
                    kind_, impl<SharedCounterTimeBase>()->make_thread_clock());
            case Kind::kTl2:
                return ThreadClock(
                    kind_,
                    impl<Tl2SharedCounterTimeBase>()->make_thread_clock());
            case Kind::kBatched:
                return ThreadClock(
                    kind_, impl<BatchedCounterTimeBase>()->make_thread_clock());
            case Kind::kPerfect:
                return ThreadClock(
                    kind_, impl<PerfectClockTimeBase>()->make_thread_clock());
            case Kind::kMMTimer:
                return ThreadClock(
                    kind_, impl<MMTimerClockTimeBase>()->make_thread_clock());
            case Kind::kExtSync:
                return ThreadClock(
                    kind_, impl<ExtSyncTimeBase>()->make_thread_clock());
            case Kind::kExternal:
                return ext_->make_clock(impl_);
        }
        __builtin_unreachable();
    }

    std::uint64_t deviation() const {
        switch (kind_) {
            case Kind::kShared: return SharedCounterTimeBase::deviation();
            case Kind::kTl2: return Tl2SharedCounterTimeBase::deviation();
            case Kind::kBatched:
                return impl<BatchedCounterTimeBase>()->deviation();
            case Kind::kPerfect: return PerfectClockTimeBase::deviation();
            case Kind::kMMTimer:
                return impl<MMTimerClockTimeBase>()->deviation();
            case Kind::kExtSync:
                return impl<ExtSyncTimeBase>()->deviation();
            case Kind::kExternal: return ext_->deviation(impl_);
        }
        __builtin_unreachable();
    }

    // Concrete access for drivers that report base-specific telemetry
    // (e.g. the TL2 counter's shared-stamp count, the batched block size).
    // Returns nullptr when the handle wraps a different kind. External
    // wraps always return nullptr: the kind tag cannot distinguish two
    // out-of-enum types, so a cast would be type confusion.
    template <typename TB>
    TB* get_if() {
        if constexpr (kind_of<TB>() == Kind::kExternal) return nullptr;
        else return kind_ == kind_of<TB>() ? static_cast<TB*>(impl_)
                                           : nullptr;
    }

 private:
    friend TimeBase make(const std::string&);

    TimeBase(Kind k, void* impl, std::string spec)
        : kind_(k), impl_(impl), spec_(std::move(spec)) {}

    // Registry path: construct TB in a shared holder and keep it alive for
    // the lifetime of every copy of the handle.
    template <typename TB, typename... Args>
    static TimeBase make_owning(Kind kind, std::string spec, Args&&... args) {
        auto holder = std::make_shared<TB>(std::forward<Args>(args)...);
        TimeBase t(kind, holder.get(), std::move(spec));
        t.owner_ = std::move(holder);
        return t;
    }

    static TimeBase adopt(Kind kind, void* impl, std::shared_ptr<void> holder,
                          std::string spec) {
        TimeBase t(kind, impl, std::move(spec));
        t.owner_ = std::move(holder);
        return t;
    }

    template <typename TB>
    TB* impl() const {
        return static_cast<TB*>(impl_);
    }

    template <typename TB>
    static constexpr Kind kind_of() {
        if constexpr (std::is_same_v<TB, SharedCounterTimeBase>)
            return Kind::kShared;
        else if constexpr (std::is_same_v<TB, Tl2SharedCounterTimeBase>)
            return Kind::kTl2;
        else if constexpr (std::is_same_v<TB, BatchedCounterTimeBase>)
            return Kind::kBatched;
        else if constexpr (std::is_same_v<TB, PerfectClockTimeBase>)
            return Kind::kPerfect;
        else if constexpr (std::is_same_v<TB, MMTimerClockTimeBase>)
            return Kind::kMMTimer;
        else if constexpr (std::is_same_v<TB, ExtSyncTimeBase>)
            return Kind::kExtSync;
        else
            return Kind::kExternal;
    }

    Kind kind_ = Kind::kExternal;
    void* impl_ = nullptr;
    const ExternalVTable* ext_ = nullptr;
    std::shared_ptr<void> owner_;  // registry-made bases only
    std::string spec_;
};

// ---- registry -----------------------------------------------------------

// Parsed "name[:key=value,...]" spec. Keys are lower-cased; lookups by the
// consumer therefore use lower-case names ("b" for B=16).
struct TimeBaseSpec {
    std::string name;
    std::vector<std::pair<std::string, std::string>> params;

    bool has(const std::string& key) const {
        for (const auto& kv : params)
            if (kv.first == key) return true;
        return false;
    }
    // Later occurrences override earlier ones, so a driver can append
    // sweep parameters to a user-provided spec.
    double num(const std::string& key, double def) const {
        const std::string* raw = nullptr;
        for (const auto& kv : params)
            if (kv.first == key) raw = &kv.second;
        if (raw == nullptr) return def;
        try {
            std::size_t used = 0;
            const double v = std::stod(*raw, &used);
            if (used != raw->size()) throw std::invalid_argument(*raw);
            return v;
        } catch (const std::exception&) {
            throw std::invalid_argument(
                "chronostm: bad numeric value for time-base key '" + key +
                "': " + *raw);
        }
    }
    std::uint64_t u64(const std::string& key, std::uint64_t def) const {
        const double v = num(key, static_cast<double>(def));
        if (v < 0)
            throw std::invalid_argument(
                "chronostm: time-base key '" + key + "' must be >= 0");
        return static_cast<std::uint64_t>(v);
    }
    std::string str(const std::string& key, std::string def) const {
        for (const auto& kv : params)
            if (kv.first == key) def = kv.second;
        return def;
    }

    // Fail-loudly contract: every consumer of a parsed spec declares the
    // keys it understands and a typo throws instead of silently running
    // with defaults.
    void require_keys(std::initializer_list<const char*> known) const {
        for (const auto& kv : params) {
            bool ok = false;
            for (const char* k : known) ok = ok || kv.first == k;
            if (!ok)
                throw std::invalid_argument(
                    "chronostm: unknown key '" + kv.first +
                    "' for time base '" + name + "'");
        }
    }
};

inline std::string to_lower(std::string s) {
    for (auto& c : s)
        if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    return s;
}

inline TimeBaseSpec parse_spec(const std::string& spec) {
    TimeBaseSpec out;
    const auto colon = spec.find(':');
    out.name = to_lower(spec.substr(0, colon));
    if (colon == std::string::npos) return out;
    std::string rest = spec.substr(colon + 1);
    std::size_t pos = 0;
    while (pos <= rest.size()) {
        auto comma = rest.find(',', pos);
        if (comma == std::string::npos) comma = rest.size();
        const std::string kv = rest.substr(pos, comma - pos);
        if (!kv.empty()) {
            const auto eq = kv.find('=');
            if (eq == std::string::npos)
                throw std::invalid_argument(
                    "chronostm: time-base param needs key=value, got '" + kv +
                    "' in spec '" + spec + "'");
            out.params.emplace_back(to_lower(kv.substr(0, eq)),
                                    kv.substr(eq + 1));
        }
        pos = comma + 1;
    }
    return out;
}

// Splits a --timebase=a,b:K=V,c flag value into specs. A comma followed by
// key=value belongs to the preceding spec (param lists use the same
// separator), so "shared,batched:B=8,K=2,perfect" splits into three specs:
// a new spec starts at a comma only when the next segment has no '=' before
// its own ':' or ','.
inline std::vector<std::string> split_specs(const std::string& csv) {
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= csv.size()) {
        // Find the end of this spec: scan comma-separated segments and
        // keep swallowing segments that look like key=value params.
        std::size_t end = csv.find(',', pos);
        while (end != std::string::npos) {
            const std::size_t seg = end + 1;
            std::size_t seg_end = csv.find(',', seg);
            if (seg_end == std::string::npos) seg_end = csv.size();
            const std::string segment = csv.substr(seg, seg_end - seg);
            const auto eq = segment.find('=');
            const auto colon = segment.find(':');
            const bool is_param =
                eq != std::string::npos &&
                (colon == std::string::npos || eq < colon);
            if (!is_param) break;
            end = seg_end == csv.size() ? std::string::npos : seg_end;
            if (end == std::string::npos) break;
        }
        if (end == std::string::npos) end = csv.size();
        const std::string spec = csv.substr(pos, end - pos);
        if (!spec.empty()) out.push_back(spec);
        pos = end + 1;
    }
    return out;
}

struct KnownBase {
    const char* name;
    const char* example;
    const char* description;
};

inline const std::vector<KnownBase>& known_bases() {
    static const std::vector<KnownBase> k = {
        {"shared", "shared", "exact shared-counter time base (paper 3.1)"},
        {"tl2", "tl2", "shared counter with TL2-style stamp sharing (4.2)"},
        {"batched", "batched:B=8", "per-thread stamp blocks of B (PR 3)"},
        {"perfect", "perfect:source=auto",
         "synchronized hardware clock (TSC/steady, paper 3.2)"},
        {"mmtimer", "mmtimer:freq-hz=2e7,latency=7,nodes=1,offset=0",
         "simulated SGI MMTimer board clock (paper 3.2/4.1)"},
        {"extsync", "extsync:devices=2,freq-hz=1e9,offset=0,dev=100",
         "externally synchronized per-CPU clocks, published bound (3.3)"},
    };
    return k;
}

// One-line help text for --timebase flags.
inline std::string spec_help() {
    std::string s = "time base spec(s): ";
    for (const auto& k : known_bases()) {
        s += k.example;
        s += "; ";
    }
    s += "comma-separated for multi-series drivers";
    return s;
}

namespace detail {

// Owning bundles for registry-made bases whose concrete types need
// companions kept alive (simulated devices, wall-time sources).
struct MMTimerBundle {
    MMTimerSim sim;
    MMTimerClockTimeBase base;
    explicit MMTimerBundle(const MMTimerSim::Params& p) : sim(p), base(sim) {}
};

struct ExtSyncBundle {
    WallTimeSource src;
    std::vector<std::unique_ptr<PerfectDevice>> devices;
    std::unique_ptr<ExtSyncTimeBase> base;
    ExtSyncBundle(std::size_t n, std::uint64_t freq_hz, std::int64_t offset,
                  std::uint64_t dev) {
        std::vector<ClockDevice*> ptrs;
        for (std::size_t i = 0; i < n; ++i) {
            devices.push_back(std::make_unique<PerfectDevice>(src, freq_hz));
            ptrs.push_back(devices.back().get());
        }
        base = ExtSyncTimeBase::with_static_params(ptrs, offset, dev);
    }
};

}  // namespace detail

// The string-keyed registry: constructs an OWNING TimeBase from a spec.
// Throws std::invalid_argument on unknown names/keys so drivers fail loudly.
inline TimeBase make(const std::string& spec_str) {
    const TimeBaseSpec spec = parse_spec(spec_str);
    const auto reject_unknown_keys =
        [&](std::initializer_list<const char*> known) {
            spec.require_keys(known);
        };

    if (spec.name == "shared") {
        reject_unknown_keys({});
        return TimeBase::make_owning<SharedCounterTimeBase>(Kind::kShared,
                                                             "shared");
    }
    if (spec.name == "tl2") {
        reject_unknown_keys({});
        return TimeBase::make_owning<Tl2SharedCounterTimeBase>(Kind::kTl2,
                                                                "tl2");
    }
    if (spec.name == "batched") {
        reject_unknown_keys({"b"});
        const auto b = spec.u64("b", 8);
        return TimeBase::make_owning<BatchedCounterTimeBase>(
            Kind::kBatched, "batched:B=" + std::to_string(b), b);
    }
    if (spec.name == "perfect") {
        reject_unknown_keys({"source"});
        const std::string src = to_lower(spec.str("source", "auto"));
        PerfectSource s = PerfectSource::Auto;
        if (src == "tsc") s = PerfectSource::Tsc;
        else if (src == "steady") s = PerfectSource::Steady;
        else if (src != "auto")
            throw std::invalid_argument(
                "chronostm: perfect clock source must be auto|tsc|steady, "
                "got '" + src + "'");
        return TimeBase::make_owning<PerfectClockTimeBase>(
            Kind::kPerfect, "perfect:source=" + src, s);
    }
    if (spec.name == "mmtimer") {
        reject_unknown_keys({"freq-hz", "latency", "nodes", "offset"});
        MMTimerSim::Params p;
        p.freq_hz = spec.num("freq-hz", p.freq_hz);
        p.read_latency_ticks = static_cast<unsigned>(
            spec.u64("latency", p.read_latency_ticks));
        p.nodes = static_cast<unsigned>(spec.u64("nodes", p.nodes));
        p.max_node_offset_ticks = static_cast<std::int64_t>(
            spec.num("offset", 0.0));
        auto holder = std::make_shared<detail::MMTimerBundle>(p);
        auto* base = &holder->base;
        return TimeBase::adopt(Kind::kMMTimer, base, std::move(holder),
                               spec_str);
    }
    if (spec.name == "extsync") {
        reject_unknown_keys({"devices", "freq-hz", "offset", "dev"});
        auto holder = std::make_shared<detail::ExtSyncBundle>(
            static_cast<std::size_t>(spec.u64("devices", 2)),
            spec.u64("freq-hz", 1'000'000'000),
            static_cast<std::int64_t>(spec.num("offset", 0.0)),
            spec.u64("dev", 100));
        auto* base = holder->base.get();
        return TimeBase::adopt(Kind::kExtSync, base, std::move(holder),
                               spec_str);
    }

    std::string known;
    for (const auto& k : known_bases()) {
        if (!known.empty()) known += ", ";
        known += k.name;
    }
    throw std::invalid_argument("chronostm: unknown time base '" + spec.name +
                                "' (known: " + known + ")");
}

}  // namespace tb
}  // namespace chronostm
