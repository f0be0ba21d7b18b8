// Tier-1: epoch-based reclamation soundness for transactionally freed
// nodes (util/epochs.hpp + stm/alloc.hpp). The two hazards the epochs
// must cover (DESIGN.md "Reclamation vs. multi-version histories"):
//
//   1. a DOOMED reader that fetched a pointer to a node before the
//      unlinking transaction committed and dereferences it afterwards --
//      the node must stay intact until the reader's pin ends;
//   2. a multi-version (LSA) reader whose snapshot predates the unlink
//      and is served the OLD pointer value from a history ring -- it
//      commits read-only against the retired node's contents.
//
// Both are constructed deterministically by nesting a committing
// unlink transaction (its own context + participant) inside a reader's
// first attempt on the same thread. A threaded skiplist churn then
// checks the retire/free accounting end to end, and a failpoints-only
// section parks a reader mid-read across the free with a one-shot stall.
// Two more use the domain and the allocation oracle directly: a thread
// dropping its last participant handle while another advances must not
// deadlock, and a full hashmap must fail with ds::TableFull and leave no
// allocation behind.
//
// CHRONOSTM_TIMEBASE sweeps extra time-base specs through the scenarios.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <stdlib.h>  // posix_memalign for the over-aligned oracle path

#include <chronostm/ds/hashmap.hpp>
#include <chronostm/ds/policy.hpp>
#include <chronostm/ds/skiplist.hpp>
#include <chronostm/stm/alloc.hpp>
#include <chronostm/stm/facade.hpp>
#include <chronostm/util/epochs.hpp>
#include <chronostm/util/pause.hpp>
#ifdef CHRONOSTM_FAILPOINTS
#include <chronostm/util/failpoints.hpp>
#endif

#include "test_util.hpp"

// ---- allocation oracle ------------------------------------------------
//
// TU-wide replacement of the global operator new/delete family with a
// live-allocation counter (plain malloc/free pass-through, so ASan/TSan
// still see every block). The oracle check below runs the threaded churn
// once to populate every lazy one-time structure, snapshots the counter,
// runs it again, and asserts the epoch drain returned the second run to
// NET ZERO -- a leak anywhere in the retire/limbo/free pipeline (or a
// double-count in the engines' pooled access sets) shows up as a nonzero
// delta, independent of the stats counters the other checks trust.
// Zero-initialized atomic: constant-initialized, so counting is safe
// from the first allocation of program start-up.

static std::atomic<long long> g_live_allocs{0};

static void* oracle_alloc(std::size_t n, std::size_t align) {
    void* p = nullptr;
    if (align <= alignof(std::max_align_t)) {
        p = std::malloc(n ? n : 1);
    } else if (posix_memalign(&p, align, n ? n : align) != 0) {
        p = nullptr;
    }
    if (p == nullptr) throw std::bad_alloc();
    g_live_allocs.fetch_add(1, std::memory_order_relaxed);
    return p;
}

static void oracle_free(void* p) noexcept {
    if (p == nullptr) return;
    g_live_allocs.fetch_sub(1, std::memory_order_relaxed);
    std::free(p);
}

void* operator new(std::size_t n) {
    return oracle_alloc(n, alignof(std::max_align_t));
}
void* operator new[](std::size_t n) {
    return oracle_alloc(n, alignof(std::max_align_t));
}
void* operator new(std::size_t n, std::align_val_t a) {
    return oracle_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
    return oracle_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { oracle_free(p); }
void operator delete[](void* p) noexcept { oracle_free(p); }
void operator delete(void* p, std::size_t) noexcept { oracle_free(p); }
void operator delete[](void* p, std::size_t) noexcept { oracle_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { oracle_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
    oracle_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    oracle_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
    oracle_free(p);
}

using namespace chronostm;

namespace {

std::uint64_t as_word(void* p) {
    return static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(p));
}
void* as_ptr(std::uint64_t w) {
    return reinterpret_cast<void*>(static_cast<std::uintptr_t>(w));
}

void mark_freed(void* p, void* ctx) noexcept {
    ::operator delete(p);
    static_cast<std::atomic<bool>*>(ctx)->store(true);
}

// Reclamation-time deleter for a single-slot test node: runs the slot
// destructor over the node layout, releases it, and flips the flag the
// assertions watch.
template <typename A>
struct NodeReaper {
    std::atomic<bool> freed{false};
    static void reap(void* p, void* ctx) noexcept {
        stm::SlotTraits<A>::destroy(p);
        ::operator delete(p);
        static_cast<NodeReaper*>(ctx)->freed.store(true);
    }
};

// ---- epoch domain unit behaviour --------------------------------------

void check_epoch_domain() {
    eb::EpochDomain d;
    auto p1 = d.register_participant();
    auto p2 = d.register_participant();
    CHECK(d.epoch() >= 1);

    std::atomic<bool> freed{false};
    void* n = ::operator new(8);
    p2->pin();
    p1->pin();
    CHECK(p1->pinned() && p2->pinned());
    p1->retire(n, &mark_freed, &freed);
    CHECK(d.stats().retired == 1);
    CHECK(p1->limbo_size() == 1);
    p1->unpin();

    // p2's pin holds the horizon at its epoch: no amount of advancing
    // reclaims the entry while it stays pinned.
    for (int i = 0; i < 4; ++i) d.try_advance();
    p1->collect();
    CHECK(!freed.load());
    CHECK(d.stats().limbo == 1);

    // Once the last pin drains, one advance moves the horizon past the
    // retire stamp and collect() frees it.
    p2->unpin();
    d.try_advance();
    p1->collect();
    CHECK(freed.load());
    CHECK(d.stats().freed == 1);
    CHECK(d.stats().limbo == 0);
    CHECK(d.stats().advances >= 1);

    // A participant dying with limbo pending leaks nothing: the domain
    // adopts the entries and drains them on later advances.
    std::atomic<bool> orphan_freed{false};
    {
        auto p3 = d.register_participant();
        p3->pin();
        p3->retire(::operator new(8), &mark_freed, &orphan_freed);
        p3->unpin();
    }
    d.try_advance();
    d.try_advance();
    CHECK(orphan_freed.load());
    CHECK(d.stats().limbo == 0);
}

// ---- teardown race: last handle dropped while another thread advances --
//
// A participant's deleter takes the domain mutex to adopt its limbo. If
// try_advance() or stats() ever held an owning reference to a participant
// while holding that mutex, the owner dropping its last handle at the
// wrong moment would leave the advancing thread to run the deleter itself
// -- and lock the mutex it already holds. The churn thread below drops a
// handle with limbo pending every round while the other thread loops on
// try_advance()/stats(); a watchdog turns a hang into a failure.

void free_raw(void* p, void*) noexcept { ::operator delete(p); }

void check_teardown_race() {
    constexpr int kRounds = 20000;
    eb::EpochDomain d;
    std::atomic<bool> stop{false};
    std::atomic<bool> done{false};
    std::thread advancer([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            d.try_advance();
            (void)d.stats();
        }
    });
    std::thread churn([&] {
        for (int i = 0; i < kRounds; ++i) {
            auto p = d.register_participant();
            p->pin();
            p->retire(::operator new(8), &free_raw, nullptr);
            p->unpin();
            // Hold the handle a varying while, so the drop below lands at
            // every point of the advancer's scan over the rounds.
            for (unsigned k = (i * 7919u) % 2048u; k != 0; --k) cpu_relax();
        }  // each round's last handle dies with limbo non-empty
        done.store(true, std::memory_order_release);
    });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!done.load(std::memory_order_acquire)) {
        if (std::chrono::steady_clock::now() > deadline) {
            std::fprintf(stderr,
                         "CHECK failed at %s:%d: participant teardown "
                         "racing try_advance() hung (self-deadlock)\n",
                         __FILE__, __LINE__);
            std::_Exit(1);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop.store(true);
    churn.join();
    advancer.join();
    for (int i = 0; i < 4; ++i) d.try_advance();
    const auto st = d.stats();
    CHECK(st.retired == static_cast<std::uint64_t>(kRounds));
    CHECK_MSG(st.limbo == 0, "limbo %llu after the teardown race",
              static_cast<unsigned long long>(st.limbo));
}

// ---- HeapCtx attempt semantics ----------------------------------------

void check_heapctx_semantics() {
    stm::TxHeap heap;
    stm::HeapCtx c = heap.make_ctx();
    CHECK(c.attached());
    std::atomic<bool> freed{false};

    // rollback: allocations are released, frees are forgotten (nothing
    // retires -- the node is still ours to delete).
    {
        eb::PinGuard pg = c.pin();
        c.begin_attempt();
        (void)c.tx_alloc(64);
        void* n = ::operator new(16);
        c.tx_free(n, &mark_freed, &freed);
        c.rollback();
        CHECK(heap.stats().retired == 0);
        ::operator delete(n);
    }

    // begin_attempt rolls the PREVIOUS attempt back: the retry loses its
    // allocations and pending frees before the new attempt logs.
    {
        eb::PinGuard pg = c.pin();
        c.begin_attempt();
        (void)c.tx_alloc(32);
        void* n = ::operator new(16);
        c.tx_free(n, &mark_freed, &freed);
        c.begin_attempt();  // simulated engine retry
        c.commit();
        CHECK(heap.stats().retired == 0);
        ::operator delete(n);
    }

    // commit: the allocation is now the caller's, the free retires into
    // limbo and reclaims only after the epoch moves past our pin.
    void* kept = nullptr;
    {
        eb::PinGuard pg = c.pin();
        c.begin_attempt();
        kept = c.tx_alloc(32);
        void* n = ::operator new(16);
        c.tx_free(n, &mark_freed, &freed);
        c.commit();
        CHECK(heap.stats().retired == 1);
        heap.drain();
        c.participant().collect();
        CHECK(!freed.load());  // our own pin blocks the horizon
    }
    heap.drain();
    c.participant().collect();
    CHECK(freed.load());
    CHECK(heap.stats().freed == 1);
    CHECK(heap.stats().limbo == 0);
    ::operator delete(kept);
}

// ---- hazard 1: doomed reader dereferences an unlinked node ------------
//
// The reader (an update transaction, so its stale read MUST abort at
// commit) fetches the node pointer, then a nested transaction on a
// second context unlinks the node and tx_frees it. The doomed attempt
// dereferences the retired node: the bytes must still be intact, and no
// amount of epoch advancing may reclaim it while the reader is pinned.
template <typename A>
void check_doomed_reader(const std::string& espec,
                         const std::string& tbspec) {
    stm::Engine eng = stm::make(espec, tb::make(tbspec));
    A& ad = *stm::get_if<A>(eng);
    using Traits = stm::SlotTraits<A>;
    ds::DirectPolicy<A> pol(ad);
    stm::TxHeap heap;
    ds::TxHandle<ds::DirectPolicy<A>> wh{ad.make_context(), {}, 1};
    ds::TxHandle<ds::DirectPolicy<A>> rh{ad.make_context(), {}, 2};
    heap.attach(wh.heap);
    heap.attach(rh.heap);

    NodeReaper<A> reaper;
    void* n0 = ::operator new(Traits::size());
    Traits::init(n0, 42);
    void* box = ::operator new(Traits::size());
    Traits::init(box, as_word(n0));
    void* scratch = ::operator new(Traits::size());
    Traits::init(scratch, 0);

    int pass = 0;
    std::uint64_t doomed_val = 0;
    bool doomed_node_freed = true;
    std::uint64_t final_val = 0;
    ds::run_alloc_tx(pol, rh, [&](auto& tx) {
        // The write makes the reader an update transaction: its stale
        // box read fails commit validation instead of riding a
        // snapshot-consistent read-only commit.
        tx.store(scratch, tx.load(scratch) + 1);
        void* p = as_ptr(tx.load(box));
        if (pass++ == 0) {
            ds::run_alloc_tx(pol, wh, [&](auto& wtx) {
                void* old = as_ptr(wtx.load(box));
                void* n1 = wh.heap.tx_alloc(Traits::size());
                Traits::init(n1, 43);
                wtx.store(box, as_word(n1));
                wh.heap.tx_free(old, &NodeReaper<A>::reap, &reaper);
            });
            // The unlink committed; push the epoch as hard as we can.
            // Our own pin must keep the node alive regardless.
            heap.drain();
            wh.heap.participant().collect();
            doomed_node_freed = reaper.freed.load();
            doomed_val = tx.load(p);
        }
        final_val = tx.load(p);
    });

    // Exactly one doomed pass plus the committing retry under exact
    // counters; deviating time bases (batched stamps) may insert
    // freshness aborts between the two while the counter catches up to
    // the writer's stamp block.
    CHECK_MSG(pass >= 2, "engine %s: doomed attempt did not retry (pass %d)",
              eng.name().c_str(), pass);
    CHECK(doomed_val == 42);       // retired node read back intact
    CHECK(!doomed_node_freed);     // pin blocked reclamation
    CHECK(final_val == 43);        // retry saw the replacement node
    heap.drain();
    wh.heap.participant().collect();
    CHECK(reaper.freed.load());
    CHECK(heap.stats().retired == 1);
    CHECK(heap.stats().freed == 1);
    CHECK(heap.stats().limbo == 0);

    void* n1 = as_ptr(Traits::peek(box));
    Traits::destroy(n1);
    ::operator delete(n1);
    Traits::destroy(box);
    ::operator delete(box);
    Traits::destroy(scratch);
    ::operator delete(scratch);
}

// ---- hazard 2: history ring serves a retired node (LSA only) ----------
//
// The reader pins its snapshot on an anchor, then the writer commits
// {anchor++, box -> n1, tx_free(n0)} in one transaction. The reader's
// later box read cannot extend (the anchor moved), so the multi-version
// history serves the OLD pointer value -- the retired node -- and the
// read-only commit succeeds at the old snapshot without ever aborting.
//
// Exact time bases (shared counter, perfect clock) guarantee that
// outcome on an engine that keeps history from its first commit, which
// extension off does (`espec`). Coarse ones (batched counters) may
// collapse the writer's stamp into the reader's snapshot batch, and LSA
// then conservatively aborts instead of proving the history entry covers
// the snapshot; an extension-on engine keeps no history until its reads
// have missed one twice in a row, so its reader may abort too. With
// `require_history` false the assertion is "either the history served
// the retired node intact, or the reader retried onto the new node"; the
// reclamation invariants must hold in both outcomes.
void check_history_pinned_read(const std::string& espec,
                               const std::string& tbspec,
                               bool require_history) {
    using A = stm::LsaAdapter;
    stm::Engine eng = stm::make(espec, tb::make(tbspec));
    A& ad = *stm::get_if<A>(eng);
    using Traits = stm::SlotTraits<A>;
    ds::DirectPolicy<A> pol(ad);
    stm::TxHeap heap;
    ds::TxHandle<ds::DirectPolicy<A>> wh{ad.make_context(), {}, 1};
    ds::TxHandle<ds::DirectPolicy<A>> rh{ad.make_context(), {}, 2};
    heap.attach(wh.heap);
    heap.attach(rh.heap);

    NodeReaper<A> reaper;
    void* n0 = ::operator new(Traits::size());
    Traits::init(n0, 42);
    void* box = ::operator new(Traits::size());
    Traits::init(box, as_word(n0));
    void* anchor = ::operator new(Traits::size());
    Traits::init(anchor, 7);

    int pass = 0;
    std::uint64_t seen = 0;
    bool freed_during_read = true;
    ds::run_alloc_tx(pol, rh, [&](auto& tx) {
        const std::uint64_t a0 = tx.load(anchor);  // fixes the snapshot
        CHECK(a0 >= 7);
        if (pass++ == 0) {
            ds::run_alloc_tx(pol, wh, [&](auto& wtx) {
                wtx.store(anchor, wtx.load(anchor) + 1);
                void* old = as_ptr(wtx.load(box));
                void* n1 = wh.heap.tx_alloc(Traits::size());
                Traits::init(n1, 43);
                wtx.store(box, as_word(n1));
                wh.heap.tx_free(old, &NodeReaper<A>::reap, &reaper);
            });
            heap.drain();
            wh.heap.participant().collect();
            freed_during_read = reaper.freed.load();
        }
        seen = tx.load(as_ptr(tx.load(box)));
    });

    if (require_history) {
        CHECK_MSG(pass == 1,
                  "history read aborted (pass %d, %s, timebase %s)", pass,
                  espec.c_str(), tbspec.c_str());
    }
    if (pass == 1) {
        CHECK(seen == 42);  // the history entry served the retired node
    } else {
        CHECK_MSG(pass == 2 && seen == 43,
                  "pass %d seen %llu on %s under timebase %s", pass,
                  static_cast<unsigned long long>(seen), espec.c_str(),
                  tbspec.c_str());
    }
    CHECK(!freed_during_read);
    heap.drain();
    wh.heap.participant().collect();
    CHECK(reaper.freed.load());
    CHECK(heap.stats().limbo == 0);

    void* n1 = as_ptr(Traits::peek(box));
    Traits::destroy(n1);
    ::operator delete(n1);
    Traits::destroy(box);
    ::operator delete(box);
    Traits::destroy(anchor);
    ::operator delete(anchor);
}

// ---- threaded churn: retire/free accounting end to end ----------------

template <typename A>
void check_threaded_churn(const std::string& espec) {
    stm::Engine eng = stm::make(espec);
    A& ad = *stm::get_if<A>(eng);
    ds::SkiplistSet<ds::DirectPolicy<A>> set{ds::DirectPolicy<A>(ad)};

    const unsigned kThreads = 4;
    const unsigned kOps = 3000;
    const std::uint64_t kSpace = 128;
    std::atomic<long> net{0};
    std::vector<std::thread> ts;
    for (unsigned t = 0; t < kThreads; ++t) {
        ts.emplace_back([&, t] {
            auto h = set.make_handle();
            std::uint64_t r = t * 0x9e3779b97f4a7c15ull + 1;
            long my = 0;
            for (unsigned i = 0; i < kOps; ++i) {
                r ^= r << 13;
                r ^= r >> 7;
                r ^= r << 17;
                const std::uint64_t key = r % kSpace;
                if (r & (1u << 20)) {
                    if (set.insert(h, key)) ++my;
                } else {
                    if (set.erase(h, key)) --my;
                }
            }
            net.fetch_add(my);
        });
    }
    for (auto& th : ts) th.join();

    CHECK_MSG(static_cast<long>(set.unsafe_size()) == net.load(),
              "engine %s: size %zu != net inserts %ld", eng.name().c_str(),
              set.unsafe_size(), net.load());
    CHECK(set.heap().stats().retired > 0);  // erases really retired nodes
    // Thread handles died with their threads; orphaned limbo must drain
    // completely once nobody is pinned.
    set.heap().drain();
    const auto st = set.heap().stats();
    CHECK_MSG(st.limbo == 0, "limbo %llu after drain",
              static_cast<unsigned long long>(st.limbo));
    CHECK(st.freed == st.retired);
}

// ---- net-allocation oracle across a churn run -------------------------
//
// The churn check above trusts the heap's own retired/freed counters; this
// one does not. The first run is warm-up (one-time lazy structures: pooled
// access sets, thread bootstrap, function-local statics); the second runs
// the identical churn against the operator-new counter and must come back
// to exactly the level it started from -- every node, context, pool page,
// and limbo record allocated inside the scope is returned by the time the
// engine is destroyed.

template <typename A>
void check_net_alloc_oracle(const std::string& espec) {
    check_threaded_churn<A>(espec);  // warm-up
    const long long before = g_live_allocs.load(std::memory_order_relaxed);
    check_threaded_churn<A>(espec);  // measured
    const long long after = g_live_allocs.load(std::memory_order_relaxed);
    CHECK_MSG(after == before,
              "engine %s: net live allocations drifted %lld -> %lld "
              "across a full churn + drain cycle",
              espec.c_str(), before, after);
}

// ---- full hashmap: typed error, nothing allocated ---------------------
//
// TxHashMap has a fixed capacity. A put() of a new key into a full table
// throws ds::TableFull out of the transaction; the attempt must allocate
// nothing that outlives it (measured with the oracle, after one warm-up
// failure so lazily grown per-context pools are already in place) and
// leave the map unchanged and usable.

void check_full_hashmap(const std::string& espec) {
    static_assert(std::is_base_of<std::length_error, ds::TableFull>::value,
                  "TableFull must remain a length_error");
    ds::TxHashMap<ds::EnginePolicy> map(ds::EnginePolicy(stm::make(espec)),
                                        4);
    auto h = map.make_handle();
    for (std::uint64_t k = 0; k < 4; ++k) CHECK(map.put(h, k, k + 10));
    auto put_fails_full = [&](std::uint64_t key) {
        try {
            map.put(h, key, 1);
        } catch (const ds::TableFull&) {
            return true;
        }
        return false;
    };
    CHECK(put_fails_full(100));  // warm-up
    const long long before = g_live_allocs.load(std::memory_order_relaxed);
    CHECK(put_fails_full(101));
    const long long after = g_live_allocs.load(std::memory_order_relaxed);
    CHECK_MSG(after == before,
              "engine %s: a full-table put left %lld allocations behind",
              espec.c_str(), after - before);

    // Unchanged and usable: every key still maps to its value, updates of
    // existing keys succeed, and an erase makes room for the new key.
    for (std::uint64_t k = 0; k < 4; ++k) {
        std::uint64_t v = 0;
        CHECK(map.get(h, k, v) && v == k + 10);
    }
    CHECK(!map.put(h, 0, 7));
    CHECK(map.erase(h, 1));
    CHECK(map.put(h, 101, 5));
    std::uint64_t v = 0;
    CHECK(map.get(h, 101, v) && v == 5);
    CHECK(map.unsafe_size() == 4);
}

// ---- failpoints: park a reader mid-read across the free ---------------

#ifdef CHRONOSTM_FAILPOINTS
void check_failpoint_parked_reader() {
    using A = stm::LsaAdapter;
    stm::Engine eng = stm::make("lsa");
    A& ad = *stm::get_if<A>(eng);
    using Traits = stm::SlotTraits<A>;
    ds::DirectPolicy<A> pol(ad);
    stm::TxHeap heap;
    ds::TxHandle<ds::DirectPolicy<A>> wh{ad.make_context(), {}, 1};
    heap.attach(wh.heap);

    NodeReaper<A> reaper;
    void* n0 = ::operator new(Traits::size());
    Traits::init(n0, 42);
    void* box = ::operator new(Traits::size());
    Traits::init(box, as_word(n0));

    fp::reset();
    fp::set_seed(1234);
    const std::uint64_t before = fp::total_faults();
    // One-shot: the reader's FIRST TVar read sleeps 300ms inside its
    // pinned window, parking it across the writer's unlink + free.
    fp::SiteConfig cfg;
    cfg.stall_us = 300'000;
    fp::arm_one_shot(fp::Site::k_lsa_read, cfg, 1);

    std::atomic<bool> reader_done{false};
    std::uint64_t seen = 0;
    std::thread reader([&] {
        ds::TxHandle<ds::DirectPolicy<A>> rh{ad.make_context(), {}, 2};
        heap.attach(rh.heap);
        ds::run_alloc_tx(pol, rh, [&](auto& tx) {
            seen = tx.load(as_ptr(tx.load(box)));
        });
        reader_done.store(true);
    });

    // Handshake: the fault counter bumps BEFORE the stall sleep, so once
    // we see it the reader is provably parked inside its pin.
    while (fp::total_faults() == before) std::this_thread::yield();

    ds::run_alloc_tx(pol, wh, [&](auto& wtx) {
        void* old = as_ptr(wtx.load(box));
        void* n1 = wh.heap.tx_alloc(Traits::size());
        Traits::init(n1, 43);
        wtx.store(box, as_word(n1));
        wh.heap.tx_free(old, &NodeReaper<A>::reap, &reaper);
    });
    heap.drain();
    wh.heap.participant().collect();
    CHECK(!reaper.freed.load());  // parked reader's pin holds the node
    CHECK(!reader_done.load());

    reader.join();
    CHECK(seen == 42 || seen == 43);
    heap.drain();
    wh.heap.participant().collect();
    CHECK(reaper.freed.load());
    CHECK(heap.stats().limbo == 0);
    fp::reset();

    void* n1 = as_ptr(Traits::peek(box));
    Traits::destroy(n1);
    ::operator delete(n1);
    Traits::destroy(box);
    ::operator delete(box);
}
#endif

}  // namespace

int main() {
    check_epoch_domain();
    check_teardown_race();
    check_heapctx_semantics();

    std::vector<std::string> tb_specs = {"shared"};
    if (const char* env = std::getenv("CHRONOSTM_TIMEBASE"))
        for (const auto& s : tb::split_specs(env)) tb_specs.push_back(s);
    for (const auto& tbs : tb_specs) {
        check_doomed_reader<stm::LsaAdapter>("lsa", tbs);
        check_doomed_reader<stm::OrecAdapter>("orec:bits=12", tbs);
        const bool exact = tbs == "shared" || tbs == "perfect";
        check_history_pinned_read("lsa:versions=8,ext=off", tbs, exact);
        check_history_pinned_read("lsa:versions=8", tbs, false);
    }

    check_threaded_churn<stm::LsaAdapter>("lsa");
    check_threaded_churn<stm::OrecAdapter>("orec:bits=12");

    check_net_alloc_oracle<stm::LsaAdapter>("lsa");
    check_net_alloc_oracle<stm::OrecAdapter>("orec:bits=12");

    check_full_hashmap("lsa");
    check_full_hashmap("orec:bits=12");

#ifdef CHRONOSTM_FAILPOINTS
    check_failpoint_parked_reader();
#endif

    std::printf("test_stm_reclamation: all checks passed\n");
    return 0;
}
