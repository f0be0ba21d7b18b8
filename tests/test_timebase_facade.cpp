// Tier-1: the runtime-pluggable time-base facade (timebase/facade.hpp).
//
//  * Registry round-trip: every known base is constructible by string key,
//    hands out stamps through the type-erased ThreadClock, and publishes a
//    sane deviation; unknown names and keys throw.
//  * Wrapping: TimeBase::wrap shares state with the wrapped object (the
//    facade is a view, not a copy), and wrap_external routes an
//    out-of-enum base through the function-pointer escape hatch.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include <chronostm/timebase/facade.hpp>

#include "test_util.hpp"

using namespace chronostm;

namespace {

void check_registry_roundtrip() {
    for (const auto& k : tb::known_bases()) {
        // Both the bare name and the documented example spec construct.
        for (const std::string& spec : {std::string(k.name),
                                        std::string(k.example)}) {
            tb::TimeBase tbase = tb::make(spec);
            CHECK_MSG(tbase.valid(), "spec %s", spec.c_str());
            CHECK_MSG(!tbase.spec().empty(), "spec %s", spec.c_str());
            auto clk = tbase.make_thread_clock();
            std::uint64_t prev = 0;
            for (int i = 0; i < 200; ++i) {
                const auto now = clk.get_time();
                const auto ts = clk.get_new_ts();
                CHECK_MSG(i == 0 || ts > prev, "spec %s: stamp %llu",
                          spec.c_str(),
                          static_cast<unsigned long long>(ts));
                CHECK_MSG(now < ts + 2 * tbase.deviation() + 1,
                          "spec %s: get_time %llu vs stamp %llu",
                          spec.c_str(), static_cast<unsigned long long>(now),
                          static_cast<unsigned long long>(ts));
                prev = ts;
            }
        }
    }
    // Params reach the concrete base.
    {
        auto tbase = tb::make("batched:B=16");
        auto* b = tbase.get_if<tb::BatchedCounterTimeBase>();
        CHECK(b != nullptr && b->block_size() == 16);
        CHECK(tbase.get_if<tb::Tl2SharedCounterTimeBase>() == nullptr);
        CHECK(tbase.deviation() == b->deviation());
    }
    // Case-insensitive keys, loud failures.
    CHECK(tb::make("batched:b=32").get_if<tb::BatchedCounterTimeBase>()
              ->block_size() == 32);
    for (const char* bad : {"no-such-base", "batched:Q=1", "batched:B=x",
                            "perfect:source=sundial", "batched:B"}) {
        bool threw = false;
        try {
            tb::make(bad);
        } catch (const std::invalid_argument&) {
            threw = true;
        }
        CHECK_MSG(threw, "spec %s did not throw", bad);
    }
    // No base answers to these names: a stale --timebase flag must fail
    // at startup through the unknown-name path, not run another base.
    for (const char* gone : {"sharded", "sharded:S=4", "adaptive"}) {
        std::string what;
        try {
            tb::make(gone);
        } catch (const std::invalid_argument& e) {
            what = e.what();
        }
        CHECK_MSG(what.find("unknown time base") != std::string::npos,
                  "spec %s: '%s'", gone, what.c_str());
    }
    // split_specs keeps params attached to their spec.
    const auto specs =
        tb::split_specs("shared,batched:B=8,K=2,extsync:devices=2,perfect");
    CHECK(specs.size() == 4);
    CHECK(specs[0] == "shared");
    CHECK(specs[1] == "batched:B=8,K=2");
    CHECK(specs[2] == "extsync:devices=2");
    CHECK(specs[3] == "perfect");
}

void check_wrap_shares_state() {
    tb::SharedCounterTimeBase counter;
    tb::TimeBase wrapped = tb::TimeBase::wrap(counter);
    auto direct = counter.make_thread_clock();
    auto erased = wrapped.make_thread_clock();
    // Interleaved draws come from ONE counter: strictly interleaving
    // values, no duplicates -- the facade is a view over the same state.
    std::uint64_t last = 0;
    for (int i = 0; i < 100; ++i) {
        const auto a = direct.get_new_ts();
        const auto b = erased.get_new_ts();
        CHECK(a == last + 1 && b == a + 1);
        last = b;
    }
    CHECK(wrapped.kind() == tb::Kind::kShared);
    CHECK(wrapped.deviation() == 0);
}

// An out-of-enum base: a trivial Lamport-style local counter with a
// published zero bound, wrapped through the external escape hatch.
struct ToyTimeBase {
    class ThreadClock {
     public:
        explicit ThreadClock(std::atomic<std::uint64_t>* c) : c_(c) {}
        std::uint64_t get_time() const {
            return c_->load(std::memory_order_acquire);
        }
        std::uint64_t get_new_ts() {
            return c_->fetch_add(1, std::memory_order_acq_rel) + 1;
        }

     private:
        std::atomic<std::uint64_t>* c_;
    };
    ThreadClock make_thread_clock() { return ThreadClock(&c); }
    std::uint64_t deviation() const { return 0; }
    std::atomic<std::uint64_t> c{0};
};

void check_wrap_external() {
    ToyTimeBase toy;
    tb::TimeBase tbase = tb::TimeBase::wrap_external(toy, "toy");
    CHECK(tbase.kind() == tb::Kind::kExternal);
    CHECK(tbase.deviation() == 0);
    CHECK(tbase.spec() == "toy");
    auto clk = tbase.make_thread_clock();
    CHECK(clk.get_new_ts() == 1);
    CHECK(clk.get_new_ts() == 2);
    // Move semantics transfer the heap-allocated external clock.
    auto clk2 = std::move(clk);
    CHECK(clk2.get_new_ts() == 3);
    CHECK(toy.c.load() == 3);
}

}  // namespace

int main() {
    check_registry_roundtrip();
    check_wrap_shares_state();
    check_wrap_external();
    if (const char* env = std::getenv("CHRONOSTM_TIMEBASE")) {
        // CI's tier-1 sweep: whatever spec the matrix selects must at
        // least round-trip the registry and hand out monotonic stamps.
        for (const auto& spec : tb::split_specs(env)) {
            auto tbase = tb::make(spec);
            auto clk = tbase.make_thread_clock();
            std::uint64_t prev = 0;
            for (int i = 0; i < 1000; ++i) {
                const auto ts = clk.get_new_ts();
                CHECK_MSG(i == 0 || ts > prev, "env spec %s", spec.c_str());
                prev = ts;
            }
        }
    }
    std::printf("test_timebase_facade: PASS\n");
    return 0;
}
