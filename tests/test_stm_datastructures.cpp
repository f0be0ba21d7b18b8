// Tier-1: the transactional containers (ds/skiplist.hpp, ds/hashmap.hpp,
// ds/queue.hpp) over the type-erased EnginePolicy for EVERY registry
// engine, plus the DirectPolicy compile-time twin for the time-based
// engines. Single-threaded runs are checked operation-by-operation
// against STL references; multi-threaded runs check the transactional
// invariants (net-size accounting, per-producer FIFO order, disjoint-
// range determinism) and that the epoch heap drains to zero limbo.
// The dispatch checks pin which handle EnginePolicy::run hands a functor
// (the concrete DirectPolicy<A>::Tx for a generic one, stm::Txn for a
// stm::Txn& one) and that abort and user exceptions settle the
// allocation logs on both paths.
//
// CHRONOSTM_TIMEBASE adds time-base specs for the lsa/orec engines.

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <map>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <chronostm/ds/hashmap.hpp>
#include <chronostm/ds/policy.hpp>
#include <chronostm/ds/queue.hpp>
#include <chronostm/ds/skiplist.hpp>
#include <chronostm/stm/facade.hpp>

#include "test_util.hpp"

using namespace chronostm;

// The dispatch checks watch one block through the global operator delete:
// run_alloc_tx must hand a rolled-back tx_alloc block back exactly once.
namespace {
std::atomic<void*> g_watched{nullptr};
std::atomic<int> g_watched_frees{0};
}  // namespace

void* operator new(std::size_t n) {
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
    throw std::bad_alloc();
}
void operator delete(void* p) noexcept {
    if (p != nullptr && p == g_watched.load(std::memory_order_relaxed))
        g_watched_frees.fetch_add(1, std::memory_order_relaxed);
    std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }

namespace {

std::uint64_t xorshift(std::uint64_t& r) {
    r ^= r << 13;
    r ^= r >> 7;
    r ^= r << 17;
    return r;
}

// ---- single-threaded, reference-checked -------------------------------

template <typename Policy>
void check_set_semantics(Policy pol, const char* label) {
    ds::SkiplistSet<Policy> set(pol);
    auto h = set.make_handle();
    std::set<std::uint64_t> ref;
    std::uint64_t r = 0x2545f4914f6cdd1dull;
    for (int i = 0; i < 4000; ++i) {
        const std::uint64_t key = xorshift(r) % 96;
        switch (r >> 8 & 3) {
            case 0:
            case 1:
                CHECK_MSG(set.insert(h, key) == ref.insert(key).second,
                          "%s insert(%llu) step %d", label,
                          static_cast<unsigned long long>(key), i);
                break;
            case 2:
                CHECK_MSG(set.erase(h, key) == (ref.erase(key) == 1),
                          "%s erase(%llu) step %d", label,
                          static_cast<unsigned long long>(key), i);
                break;
            default:
                CHECK_MSG(set.contains(h, key) == (ref.count(key) == 1),
                          "%s contains(%llu) step %d", label,
                          static_cast<unsigned long long>(key), i);
        }
    }
    CHECK(set.unsafe_size() == ref.size());
    for (std::uint64_t k = 0; k < 96; ++k)
        CHECK(set.contains(h, k) == (ref.count(k) == 1));
}

// The skiplist's live height: contains and insert start their searches at
// a hint of the highest linked level, which inserts raise and erases
// lower. 120k ops over 2^16 keys, starting empty, move the hint through
// every value a list of this size reaches; each result is checked against
// std::set.
template <typename Policy>
void check_set_live_height(Policy pol, const char* label) {
    constexpr std::uint64_t kKeys = std::uint64_t{1} << 16;
    ds::SkiplistSet<Policy> set(pol);
    auto h = set.make_handle();
    std::set<std::uint64_t> ref;
    std::uint64_t r = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 120000; ++i) {
        const std::uint64_t key = xorshift(r) % kKeys;
        const unsigned op = (r >> 20) & 3;
        bool ok;
        if (op <= 1) ok = set.insert(h, key) == ref.insert(key).second;
        else if (op == 2) ok = set.erase(h, key) == (ref.erase(key) == 1);
        else ok = set.contains(h, key) == (ref.count(key) == 1);
        CHECK_MSG(ok, "%s live height: op %u key %llu step %d", label, op,
                  static_cast<unsigned long long>(key), i);
    }
    CHECK_MSG(set.unsafe_size() == ref.size(), "%s live height: size %zu "
              "vs %zu", label, set.unsafe_size(), ref.size());
}

template <typename Policy>
void check_map_semantics(Policy pol, const char* label) {
    ds::TxHashMap<Policy> map(pol, 256);
    auto h = map.make_handle();
    std::map<std::uint64_t, std::uint64_t> ref;
    std::uint64_t r = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 4000; ++i) {
        const std::uint64_t key = xorshift(r) % 96;
        const std::uint64_t val = (r >> 16) | 2;  // kEmpty/kTombstone-safe
        std::uint64_t out = 0;
        switch (r >> 8 & 3) {
            case 0:
            case 1:
                // put returns true only when the key was absent.
                CHECK_MSG(map.put(h, key, val) == (ref.count(key) == 0),
                          "%s put(%llu) step %d", label,
                          static_cast<unsigned long long>(key), i);
                ref[key] = val;
                break;
            case 2:
                CHECK_MSG(map.erase(h, key) == (ref.erase(key) == 1),
                          "%s erase(%llu) step %d", label,
                          static_cast<unsigned long long>(key), i);
                break;
            default:
                CHECK(map.get(h, key, out) == (ref.count(key) == 1));
                if (ref.count(key) == 1) CHECK(out == ref[key]);
        }
    }
    CHECK(map.unsafe_size() == ref.size());
    for (const auto& kv : ref) {
        std::uint64_t out = 0;
        CHECK(map.get(h, kv.first, out) && out == kv.second);
    }
    // Tombstone reuse: cycling one key through erase/put forever must not
    // exhaust a small table (graves are reclaimed as insert slots).
    ds::TxHashMap<Policy> small(pol, 8);
    auto sh = small.make_handle();
    for (int i = 0; i < 200; ++i) {
        CHECK(small.put(sh, 5, 100 + i));
        CHECK(small.erase(sh, 5));
    }
    CHECK(small.unsafe_size() == 0);
}

template <typename Policy>
void check_queue_semantics(Policy pol, const char* label) {
    ds::TxQueue<Policy> q(pol);
    auto h = q.make_handle();
    std::uint64_t out = 0;
    CHECK(!q.dequeue(h, out));  // empty
    std::deque<std::uint64_t> ref;
    std::uint64_t r = 0x853c49e6748fea9bull;
    for (int i = 0; i < 2000; ++i) {
        if ((xorshift(r) & 3) != 0 || ref.empty()) {
            q.enqueue(h, r);
            ref.push_back(r);
        } else {
            CHECK(q.dequeue(h, out));
            CHECK_MSG(out == ref.front(), "%s FIFO broken at step %d", label,
                      i);
            ref.pop_front();
        }
        CHECK(q.unsafe_size() == ref.size());
    }
    while (!ref.empty()) {
        CHECK(q.dequeue(h, out) && out == ref.front());
        ref.pop_front();
    }
    CHECK(!q.dequeue(h, out));
    CHECK(q.unsafe_size() == 0);
}

// ---- multi-threaded invariants ----------------------------------------

template <typename Policy>
void check_set_threaded(Policy pol, const char* label) {
    ds::SkiplistSet<Policy> set(pol);
    const unsigned kThreads = 4;
    const unsigned kOps = 1500;
    const std::uint64_t kSpace = 64;
    std::atomic<long> net{0};
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < kThreads; ++t) {
        ts.emplace_back([&, t] {
            auto h = set.make_handle();
            std::uint64_t r = t * 0xd1342543de82ef95ull + 7;
            long my = 0;
            for (unsigned i = 0; i < kOps; ++i) {
                const std::uint64_t key = xorshift(r) % kSpace;
                if (r & (1u << 9)) {
                    if (set.insert(h, key)) ++my;
                } else {
                    if (set.erase(h, key)) --my;
                }
            }
            net.fetch_add(my);
        });
    }
    for (auto& th : ts) th.join();
    // insert/erase return values are transactional, so the net count must
    // equal the surviving population exactly.
    CHECK_MSG(static_cast<long>(set.unsafe_size()) == net.load(),
              "%s: size %zu != net %ld", label, set.unsafe_size(),
              net.load());
    set.heap().drain();
    CHECK(set.heap().stats().limbo == 0);
}

template <typename Policy>
void check_map_threaded(Policy pol, const char* label) {
    // Disjoint key ranges: each thread's final writes must be exactly
    // what a later reader observes, independent of interleaving.
    ds::TxHashMap<Policy> map(pol, 1024);
    const unsigned kThreads = 4;
    const unsigned kOps = 1500;
    const std::uint64_t kRange = 48;
    std::vector<std::map<std::uint64_t, std::uint64_t>> finals(kThreads);
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < kThreads; ++t) {
        ts.emplace_back([&, t] {
            auto h = map.make_handle();
            std::uint64_t r = t * 0xaf251af3b0f025b5ull + 3;
            const std::uint64_t base = 1000 * (t + 1);
            for (unsigned i = 0; i < kOps; ++i) {
                const std::uint64_t key = base + xorshift(r) % kRange;
                const std::uint64_t val = (r >> 16) | 2;
                if (r & (1u << 9)) {
                    map.put(h, key, val);
                    finals[t][key] = val;
                } else {
                    map.erase(h, key);
                    finals[t].erase(key);
                }
            }
        });
    }
    for (auto& th : ts) th.join();
    auto h = map.make_handle();
    std::size_t expect = 0;
    for (unsigned t = 0; t < kThreads; ++t) {
        expect += finals[t].size();
        for (std::uint64_t k = 1000 * (t + 1); k < 1000 * (t + 1) + kRange;
             ++k) {
            std::uint64_t out = 0;
            const bool present = map.get(h, k, out);
            CHECK_MSG(present == (finals[t].count(k) == 1),
                      "%s: key %llu presence mismatch", label,
                      static_cast<unsigned long long>(k));
            if (present) CHECK(out == finals[t][k]);
        }
    }
    CHECK(map.unsafe_size() == expect);
    map.heap().drain();
    CHECK(map.heap().stats().limbo == 0);
}

template <typename Policy>
void check_queue_threaded(Policy pol, const char* label) {
    ds::TxQueue<Policy> q(pol);
    const unsigned kProducers = 2;
    const unsigned kConsumers = 2;
    const unsigned kItems = 1200;  // per producer
    std::atomic<unsigned> popped{0};
    std::vector<std::vector<std::uint64_t>> got(kConsumers);
    std::vector<std::thread> ts;
    for (unsigned p = 0; p < kProducers; ++p) {
        ts.emplace_back([&, p] {
            auto h = q.make_handle();
            for (unsigned i = 0; i < kItems; ++i)
                q.enqueue(h, (static_cast<std::uint64_t>(p) << 32) | i);
        });
    }
    for (unsigned c = 0; c < kConsumers; ++c) {
        ts.emplace_back([&, c] {
            auto h = q.make_handle();
            std::uint64_t out = 0;
            while (popped.load() < kProducers * kItems) {
                if (q.dequeue(h, out)) {
                    got[c].push_back(out);
                    popped.fetch_add(1);
                } else {
                    std::this_thread::yield();
                }
            }
        });
    }
    for (auto& th : ts) th.join();

    // FIFO per producer: any single consumer sees each producer's
    // sequence numbers strictly increasing; the union is exactly the
    // submitted multiset.
    std::set<std::uint64_t> all;
    for (unsigned c = 0; c < kConsumers; ++c) {
        std::vector<std::int64_t> last(kProducers, -1);
        for (const std::uint64_t v : got[c]) {
            const unsigned p = static_cast<unsigned>(v >> 32);
            const std::int64_t seq = static_cast<std::int64_t>(v & 0xffffffff);
            CHECK_MSG(seq > last[p], "%s: producer %u reordered", label, p);
            last[p] = seq;
            CHECK(all.insert(v).second);  // no duplicates
        }
    }
    CHECK(all.size() == kProducers * kItems);
    CHECK(q.unsafe_size() == 0);
    q.heap().drain();
    CHECK(q.heap().stats().limbo == 0);
}

// ---- EnginePolicy dispatch --------------------------------------------

// TracePolicy's shape: wraps EnginePolicy and hands it a stm::Txn&
// functor, so every transaction takes stm::Engine::run and the facade's
// per-access switch.
struct FacadeTxnPolicy {
    using Ctx = stm::Context;
    ds::EnginePolicy inner;

    Ctx make_context() const { return inner.make_context(); }
    template <typename F>
    auto run(Ctx& ctx, F&& f) const {
        return inner.run(ctx, [&](stm::Txn& t) { return f(t); });
    }
};

struct UserError {};

void count_reap(void*, void* ctx) noexcept { ++*static_cast<int*>(ctx); }

// One policy path over one engine: `Expected` is the handle type its
// functors must receive.
template <typename Expected, typename Policy>
void check_dispatch_path(const Policy& pol, const stm::Engine& eng,
                         void* slot, const char* label) {
    stm::TxHeap heap;
    ds::TxHandle<Policy> h{pol.make_context(), heap.make_ctx()};
    const auto check_handle = [&](auto& tx) {
        using Got = std::decay_t<decltype(tx)>;
        CHECK_MSG((std::is_same_v<Got, Expected>),
                  "%s: functor got the wrong handle type", label);
        if constexpr (std::is_same_v<Got, stm::Txn>)
            CHECK_MSG(tx.kind() == eng.kind(), "%s: facade kind", label);
    };

    // A plain run, no allocation wrapper.
    pol.run(h.ctx, [&](auto& tx) {
        check_handle(tx);
        tx.store(slot, tx.load(slot) + 1);
    });

    // tx.abort() on the first invocation: the engine re-invokes the
    // functor, the retry commits, and the first attempt's block is freed.
    int calls = 0;
    void* kept = nullptr;
    g_watched_frees.store(0);
    ds::run_alloc_tx(pol, h, [&](auto& tx) {
        check_handle(tx);
        void* p = h.heap.tx_alloc(48);
        if (++calls == 1) {
            g_watched.store(p);
            tx.abort();
        }
        kept = p;
        tx.store(slot, tx.load(slot) + 1);
    });
    CHECK_MSG(calls == 2, "%s: abort re-invoked %d times", label, calls - 1);
    CHECK_MSG(g_watched_frees.load() == 1,
              "%s: aborted tx_alloc freed %d times", label,
              g_watched_frees.load());
    g_watched.store(nullptr);
    ::operator delete(kept);  // the committed attempt's block is ours
    CHECK_MSG(eng.slot_peek(slot) == 2, "%s: slot %llu after abort-retry",
              label, static_cast<unsigned long long>(eng.slot_peek(slot)));

    // A user exception escapes run_alloc_tx; the allocation is freed and
    // the pending free forgotten, so a commit afterwards retires nothing.
    void* victim = ::operator new(32);
    int reaped = 0;
    bool threw = false;
    g_watched_frees.store(0);
    try {
        ds::run_alloc_tx(pol, h, [&](auto& tx) {
            check_handle(tx);
            void* p = h.heap.tx_alloc(40);
            g_watched.store(p);
            h.heap.tx_free(victim, &count_reap, &reaped);
            if (tx.load(slot) == 2) throw UserError{};
        });
    } catch (const UserError&) {
        threw = true;
    }
    g_watched.store(nullptr);
    CHECK_MSG(threw, "%s: user exception swallowed", label);
    CHECK_MSG(g_watched_frees.load() == 1,
              "%s: tx_alloc before a user exception freed %d times", label,
              g_watched_frees.load());
    h.heap.commit();
    heap.drain();
    CHECK_MSG(reaped == 0 && heap.stats().retired == 0,
              "%s: tx_free survived a user exception", label);
    ::operator delete(victim);
}

// The same checks down both paths for one registry engine whose
// concrete adapter is A.
template <typename A>
void check_dispatch(const stm::Engine& eng, const std::string& spec) {
    alignas(64) unsigned char slot[64];
    CHECK(eng.slot_size() <= sizeof slot);
    const ds::EnginePolicy typed(eng);
    eng.slot_init(slot, 0);
    check_dispatch_path<typename ds::DirectPolicy<A>::Tx>(
        typed, eng, slot, ("typed:" + spec).c_str());
    eng.slot_destroy(slot);
    const FacadeTxnPolicy facade{typed};
    eng.slot_init(slot, 0);
    check_dispatch_path<stm::Txn>(facade, eng, slot,
                                  ("facade:" + spec).c_str());
    eng.slot_destroy(slot);
}

template <typename MkPolicy>
void check_all(MkPolicy mk, const std::string& label) {
    const char* l = label.c_str();
    check_set_semantics(mk(), l);
    check_map_semantics(mk(), l);
    check_queue_semantics(mk(), l);
    check_set_threaded(mk(), l);
    check_map_threaded(mk(), l);
    check_queue_threaded(mk(), l);
}

}  // namespace

int main() {
    for (const char* spec : {"lsa", "orec:bits=12", "tl2", "vstm", "glock"}) {
        stm::Engine eng = stm::make(spec);
        stm::visit(eng, [&](auto& adapter) {
            check_dispatch<std::decay_t<decltype(adapter)>>(eng, spec);
        });
    }

    // Every registry engine through the type-erased policy.
    for (const char* spec : {"lsa", "orec:bits=12", "tl2", "vstm", "glock"}) {
        stm::Engine eng = stm::make(spec);
        check_all([&] { return ds::EnginePolicy(eng); },
                  std::string("engine:") + spec);
    }

    for (const char* spec : {"orec", "lsa"}) {
        stm::Engine eng = stm::make(spec);
        check_set_live_height(ds::EnginePolicy(eng), spec);
    }

    // The compile-time twin must behave identically (same container code,
    // statically dispatched slots).
    {
        stm::Engine eng = stm::make("lsa");
        auto& ad = *stm::get_if<stm::LsaAdapter>(eng);
        check_all([&] { return ds::DirectPolicy<stm::LsaAdapter>(ad); },
                  "direct:lsa");
    }
    {
        stm::Engine eng = stm::make("orec:bits=12");
        auto& ad = *stm::get_if<stm::OrecAdapter>(eng);
        check_all([&] { return ds::DirectPolicy<stm::OrecAdapter>(ad); },
                  "direct:orec");
    }

    // CI matrix: sweep the time-based engines across CHRONOSTM_TIMEBASE.
    if (const char* env = std::getenv("CHRONOSTM_TIMEBASE")) {
        for (const auto& tbs : tb::split_specs(env)) {
            for (const char* spec : {"lsa", "orec:bits=12"}) {
                stm::Engine eng = stm::make(spec, tb::make(tbs));
                check_all([&] { return ds::EnginePolicy(eng); },
                          std::string(spec) + "@" + tbs);
            }
        }
    }

    std::printf("test_stm_datastructures: all checks passed\n");
    return 0;
}
