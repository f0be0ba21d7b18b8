// Tier-1 STM semantics: the multi-version history and lazy snapshot
// extension, staged deterministically.
//
//  1. With history (max_versions=4) and extension off, a reader whose
//     snapshot predates a concurrent commit reads the OLD version and
//     commits on the first attempt -- a consistent-but-old snapshot.
//  2. With no history (max_versions=1, TL2-like) the same schedule aborts
//     the reader once and retries into a fresh snapshot.
//  3. With extension on, the same schedule extends the snapshot instead
//     (the read set is still the most recent) and sees the new value
//     without aborting.
//  4. History depth: for max_versions in {2, 8, 17}, a reader whose
//     snapshot predates exactly max_versions - 1 commits (capped at
//     kMaxHistory) still reads the oldest kept version, and one commit
//     more pushes that version out of the ring.
//  5. Ring size: a TU-global allocation oracle checks that the first
//     history-keeping commit on a stm::LsaSlot allocates one block of at
//     most a header plus max_versions - 1 entries, max_versions = 1 never
//     allocates, and the slot's destructor frees the ring. Extension is off
//     there, so the engine keeps history from its first commit.
//  6. History on demand: with extension on, commits allocate nothing until
//     one context's reads needed an old version and found no ring twice in
//     a row (a commit in between resets the count); then the engine's
//     switch is on, the next commit allocates one ring of the same bounded
//     size, and the same staged read is served from it.
//  7. Real-time order through the history fallback: a reader that began
//     after x := 2 committed, and whose snapshot a later {x := 3, y := 1}
//     overtook, reads x = 2 from history -- never x = 1, which died before
//     the reader began. Run with extension off and on a warmed extension-on
//     engine.
//
// TxStats::history_reads counts the reads served from a ring: >= 1 where
// a schedule depends on history, 0 where max_versions = 1 forbids it.
// TxStats::history_misses counts the reads that needed one and found none.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>

#include <stdlib.h>  // posix_memalign for the over-aligned oracle path

#include <chronostm/core/lsa_stm.hpp>
#include <chronostm/stm/facade.hpp>

#include "test_util.hpp"

// ---- allocation oracle ------------------------------------------------
//
// TU-wide replacement of the global operator new/delete family with
// counters (plain malloc/free pass-through, so ASan/TSan still see every
// block). Only the ring-size check reads them, over a window in which one
// thread runs one commit. Zero-initialized atomics: constant-initialized,
// so counting is safe from the first allocation of program start-up.

static std::atomic<long long> g_news{0};
static std::atomic<long long> g_new_bytes{0};
static std::atomic<long long> g_deletes{0};

static void* oracle_alloc(std::size_t n, std::size_t align) {
    void* p = nullptr;
    if (align <= alignof(std::max_align_t)) {
        p = std::malloc(n ? n : 1);
    } else if (posix_memalign(&p, align, n ? n : align) != 0) {
        p = nullptr;
    }
    if (p == nullptr) throw std::bad_alloc();
    g_news.fetch_add(1, std::memory_order_relaxed);
    g_new_bytes.fetch_add(static_cast<long long>(n),
                          std::memory_order_relaxed);
    return p;
}

static void oracle_free(void* p) noexcept {
    if (p == nullptr) return;
    g_deletes.fetch_add(1, std::memory_order_relaxed);
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

// Lock word, value, history-ring pointer -- nothing inline.
static_assert(sizeof(TVar<long>) == 3 * sizeof(std::uint64_t),
              "TVar<long> must stay three words");

namespace {

using Tx = Transaction;

struct Staged {
    int attempts = 0;
    long a = -1, b = -1;
    std::uint64_t aborts = 0;
    std::uint64_t history_reads = 0;
};

// Reader reads A, parks while a writer commits B=20, then reads B.
Staged run_schedule(unsigned max_versions, bool read_extension) {
    StmConfig cfg;
    cfg.max_versions = max_versions;
    cfg.read_extension = read_extension;
    LsaStm stm(tb::make("shared"), cfg);
    TVar<long> va(1), vb(10);

    std::atomic<bool> reader_started{false}, writer_done{false};
    std::thread writer([&] {
        auto ctx = stm.make_context();
        while (!reader_started.load(std::memory_order_acquire))
            std::this_thread::yield();
        ctx.run([&](Tx& tx) { vb.set(tx, 20); });
        writer_done.store(true, std::memory_order_release);
    });

    Staged out;
    auto ctx = stm.make_context();
    ctx.run([&](Tx& tx) {
        ++out.attempts;
        out.a = va.get(tx);
        if (out.attempts == 1) {
            reader_started.store(true, std::memory_order_release);
            while (!writer_done.load(std::memory_order_acquire))
                std::this_thread::yield();
        }
        out.b = vb.get(tx);
    });
    writer.join();
    out.aborts = ctx.stats().aborts();
    out.history_reads = ctx.stats().history_reads;
    return out;
}

// A reader's first attempt begins, then `commits` transactions (another
// context, nested on this thread, so the order is fixed) set x to 1, 2,
// ..., commits. Extension is off, so the reader's read of x is served by
// x's history or not at all.
Staged read_behind(unsigned max_versions, unsigned commits) {
    StmConfig cfg;
    cfg.max_versions = max_versions;
    cfg.read_extension = false;
    LsaStm stm(tb::make("shared"), cfg);
    TVar<long> x(0);
    auto writer = stm.make_context();
    auto reader = stm.make_context();

    Staged out;
    reader.run([&](Tx& tx) {
        if (++out.attempts == 1)
            for (unsigned i = 1; i <= commits; ++i)
                writer.run([&](Tx& w) { x.set(w, static_cast<long>(i)); });
        out.b = x.get(tx);
    });
    out.aborts = reader.stats().aborts();
    out.history_reads = reader.stats().history_reads;
    return out;
}

void check_history_depth(unsigned max_versions) {
    const unsigned kept = std::min(max_versions - 1, detail::kMaxHistory);
    // Snapshot predates `kept` commits: version 0 is the oldest kept one.
    {
        const Staged r = read_behind(max_versions, kept);
        CHECK_MSG(r.attempts == 1 && r.b == 0,
                  "versions=%u: %u commits behind read %ld after %d attempts",
                  max_versions, kept, r.b, r.attempts);
        CHECK(r.history_reads == 1);
    }
    // One commit more evicts version 0: the reader cannot reach back that
    // far, aborts once, and its retry sees the present.
    {
        const Staged r = read_behind(max_versions, kept + 1);
        CHECK_MSG(r.attempts == 2 && r.b == static_cast<long>(kept + 1),
                  "versions=%u: %u commits behind read %ld after %d attempts",
                  max_versions, kept + 1, r.b, r.attempts);
        CHECK(r.aborts == 1);
        CHECK(r.history_reads == 0);
    }
}

// Upper bounds the ring's layout must meet for a 64-bit value: a header
// of at most two words (head, size, capacity) and three-word entries
// (value, from, until).
constexpr std::size_t kRingHeader = 2 * sizeof(std::uint64_t);
constexpr std::size_t kRingEntry = 3 * sizeof(std::uint64_t);

void check_ring_allocation(unsigned max_versions) {
    const std::string spec =
        "lsa:versions=" + std::to_string(max_versions) + ",ext=off";
    stm::Engine eng = stm::make(spec);
    stm::Context ctx = eng.make_context();
    // Warm the context: its access sets and write arena allocate on first
    // use, and the window below must see only the ring.
    {
        stm::LsaSlot warm(0);
        eng.run(ctx, [&](stm::Txn& tx) { tx.store(&warm, 1); });
        eng.run(ctx, [&](stm::Txn& tx) { tx.store(&warm, 2); });
    }
    const long long deletes_before_slot = g_deletes.load();
    {
        stm::LsaSlot slot(0);
        const long long news0 = g_news.load();
        const long long bytes0 = g_new_bytes.load();
        eng.run(ctx, [&](stm::Txn& tx) { tx.store(&slot, 1); });
        const long long news = g_news.load() - news0;
        const long long bytes = g_new_bytes.load() - bytes0;
        if (max_versions == 1) {
            CHECK_MSG(news == 0, "versions=1 allocated %lld blocks", news);
        } else {
            const std::size_t kept =
                std::min(max_versions - 1, detail::kMaxHistory);
            const auto bound =
                static_cast<long long>(kRingHeader + kept * kRingEntry);
            CHECK_MSG(news == 1, "versions=%u: %lld blocks", max_versions,
                      news);
            CHECK_MSG(bytes <= bound,
                      "versions=%u: ring of %lld bytes, bound %lld",
                      max_versions, bytes, bound);
        }
        // Later commits reuse the ring.
        const long long news1 = g_news.load();
        eng.run(ctx, [&](stm::Txn& tx) { tx.store(&slot, 2); });
        CHECK(g_news.load() == news1);
    }
    // The slot's destructor freed the ring (and nothing else was freed).
    const long long freed = g_deletes.load() - deletes_before_slot;
    CHECK_MSG(freed == (max_versions == 1 ? 0 : 1),
              "versions=%u: %lld blocks freed with the slot", max_versions,
              freed);
}

// Case 6. A staged read reads `anchor`; in each of its first `misses`
// attempts a nested writer then commits {anchor, slot}, so the read of
// `slot` can neither extend (anchor moved) nor, without a ring, fall back:
// one history miss per such attempt. The retry after them commits.
void check_history_on_demand() {
    constexpr unsigned kVersions = 8;
    stm::Engine eng = stm::make("lsa:versions=" + std::to_string(kVersions));
    const LsaStm& lsa = stm::get_if<stm::LsaAdapter>(eng)->stm();
    CHECK(!lsa.keeps_history());
    stm::Context writer = eng.make_context();
    stm::Context reader = eng.make_context();
    stm::LsaSlot anchor(0), slot(0);
    std::uint64_t n = 0;
    const auto commit_both = [&] {
        ++n;
        eng.run(writer, [&](stm::Txn& w) {
            w.store(&anchor, n);
            w.store(&slot, n);
        });
    };
    struct Read {
        int attempts = 0;
        std::uint64_t seen = 0;
    };
    const auto staged_read = [&](int misses) {
        Read r;
        eng.run(reader, [&](stm::Txn& tx) {
            (void)tx.load(&anchor);
            if (r.attempts++ < misses) commit_both();
            r.seen = tx.load(&slot);
        });
        return r;
    };
    // Warm both contexts: access sets allocate on first use.
    commit_both();
    commit_both();
    staged_read(0);

    // Switch off: commits keep no history and allocate nothing.
    long long news0 = g_news.load();
    commit_both();
    CHECK_MSG(g_news.load() == news0, "switch off: %lld blocks",
              g_news.load() - news0);

    // One miss, then a commit, twice over: the streak never reaches two.
    for (std::uint64_t misses = 1; misses <= 2; ++misses) {
        const Read r = staged_read(1);
        CHECK(r.attempts == 2 && r.seen == n);
        CHECK_MSG(reader.stats().history_misses == misses,
                  "history_misses %llu after %llu staged misses",
                  static_cast<unsigned long long>(
                      reader.stats().history_misses),
                  static_cast<unsigned long long>(misses));
        CHECK(!lsa.keeps_history());
    }
    // Two misses in a row turn the switch on; the third attempt commits.
    {
        const Read r = staged_read(2);
        CHECK(r.attempts == 3 && r.seen == n);
        CHECK(reader.stats().history_misses == 4);
        CHECK(lsa.keeps_history());
    }

    // The next commit allocates one ring within the ext=off bound.
    news0 = g_news.load();
    const long long bytes0 = g_new_bytes.load();
    eng.run(writer, [&](stm::Txn& w) { w.store(&slot, ++n); });
    const long long news = g_news.load() - news0;
    const long long bytes = g_new_bytes.load() - bytes0;
    CHECK_MSG(news == 1, "first commit after the switch: %lld blocks", news);
    CHECK_MSG(bytes <= static_cast<long long>(kRingHeader +
                                              (kVersions - 1) * kRingEntry),
              "ring of %lld bytes", bytes);

    // The staged read that missed before is now served from history.
    const std::uint64_t reads0 = reader.stats().history_reads;
    const std::uint64_t before = n;
    const Read r = staged_read(1);
    CHECK_MSG(r.attempts == 1 && r.seen == before,
              "history read: %d attempts, saw %llu", r.attempts,
              static_cast<unsigned long long>(r.seen));
    CHECK(reader.stats().history_reads == reads0 + 1);
    CHECK(reader.stats().history_misses == 4);
}

// Case 7; see the file comment. `reader` commits before x := 2, so a
// snapshot anchored at its own last commit stamp instead of a begin-time
// get_time() would admit x = 1.
void check_real_time_order(bool read_extension) {
    StmConfig cfg;
    cfg.max_versions = 8;
    cfg.read_extension = read_extension;
    LsaStm stm(tb::make("shared"), cfg);
    auto writer = stm.make_context();
    auto reader = stm.make_context();
    if (read_extension) {
        // Warm the switch: two staged misses in a row on `reader`.
        TVar<long> a(0), b(0);
        int attempts = 0;
        reader.run([&](Tx& tx) {
            (void)a.get(tx);
            if (++attempts <= 2)
                writer.run([&](Tx& w) {
                    a.set(w, attempts);
                    b.set(w, attempts);
                });
            (void)b.get(tx);
        });
    }
    CHECK(stm.keeps_history());

    TVar<long> x(1), y(0), z(0);
    reader.run([&](Tx& tx) { z.set(tx, 1); });
    writer.run([&](Tx& w) { x.set(w, 2); });
    const std::uint64_t reads0 = reader.stats().history_reads;
    int attempts = 0;
    long seen_x = -1, seen_y = -1;
    reader.run([&](Tx& tx) {
        seen_y = y.get(tx);
        if (++attempts == 1)
            writer.run([&](Tx& w) {
                x.set(w, 3);
                y.set(w, 1);
            });
        seen_x = x.get(tx);
    });
    CHECK_MSG(attempts == 1 && seen_y == 0 && seen_x == 2,
              "ext=%d: %d attempts, y=%ld x=%ld", read_extension ? 1 : 0,
              attempts, seen_y, seen_x);
    CHECK(reader.stats().history_reads == reads0 + 1);
}

}  // namespace

int main() {
    {
        const Staged r = run_schedule(/*max_versions=*/4,
                                      /*read_extension=*/false);
        CHECK_MSG(r.attempts == 1, "attempts %d", r.attempts);
        CHECK(r.a == 1);
        CHECK_MSG(r.b == 10, "old version not served: b=%ld", r.b);
        CHECK(r.aborts == 0);
        CHECK_MSG(r.history_reads >= 1, "history_reads %llu",
                  static_cast<unsigned long long>(r.history_reads));
    }
    {
        const Staged r = run_schedule(/*max_versions=*/1,
                                      /*read_extension=*/false);
        CHECK_MSG(r.attempts == 2, "attempts %d", r.attempts);
        CHECK_MSG(r.b == 20, "retry did not see fresh value: b=%ld", r.b);
        CHECK(r.aborts == 1);
        CHECK(r.history_reads == 0);
    }
    {
        const Staged r = run_schedule(/*max_versions=*/1,
                                      /*read_extension=*/true);
        CHECK_MSG(r.attempts == 1, "attempts %d", r.attempts);
        CHECK_MSG(r.b == 20, "extension did not reach the present: b=%ld",
                  r.b);
        CHECK(r.aborts == 0);
        CHECK(r.history_reads == 0);
    }
    for (unsigned v : {2u, 8u, 17u}) check_history_depth(v);
    for (unsigned v : {1u, 2u, 8u, 17u}) check_ring_allocation(v);
    check_history_on_demand();
    check_real_time_order(/*read_extension=*/false);
    check_real_time_order(/*read_extension=*/true);
    std::printf("test_stm_multiversion: PASS\n");
    return 0;
}
