// Tier-1 suite for the orec-table engine's OWN machinery -- everything
// that per-TVar LSA does not exercise:
//
//  * raw-memory transactions: structs and arrays with no Var wrapper at
//    all, accessed via tx_read/tx_write on arbitrary interior pointers,
//    including sub-word and granule-straddling fields;
//  * table aliasing: a tiny table (table_bits=2 -> 4 orecs) forces many
//    distinct addresses onto each versioned lock. Transactions must stay
//    serializable under every collision pattern (locking dedups via the
//    ownership index instead of self-deadlocking; commit validation must
//    not confuse "locked by me" with a foreign lock on the same version);
//  * the false_conflicts counter: distinct-granule aliasing at lock time
//    is observable in TxStats and zero when the table is big enough to
//    avoid it;
//  * the append-only read log: a re-read of an orec a foreign commit
//    changed aborts, through the same granule or an aliasing one;
//  * partial-granule write-back: bytes a transaction did NOT write must
//    survive its commit merging the ones it did;
//  * single-version semantics: a word-sized WordVar is metadata-free
//    (sizeof == 8) and reads after failed extension abort rather than
//    serve stale data -- exercised implicitly by the concurrency runs.

#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <chronostm/core/orec_stm.hpp>
#include <chronostm/util/rng.hpp>

#include "test_util.hpp"

using namespace chronostm;

namespace {

// --- raw-struct transactions -------------------------------------------

struct Account {
    long balance;
    std::uint32_t version;  // sub-word field
    std::uint16_t flags;    // shares a granule with version
};

void raw_struct_single_thread() {
    OrecStm stm(tb::make("shared"));
    auto ctx = stm.make_context();

    Account a{100, 1, 0x11};
    Account b{100, 1, 0x22};

    ctx.run([&](OrecTransaction& tx) {
        const long ab = tx_read(tx, &a.balance);
        tx_write(tx, &a.balance, ab - 30);
        tx_write(tx, &b.balance, tx_read(tx, &b.balance) + 30);
        tx_write(tx, &a.version, tx_read(tx, &a.version) + 1);
    });

    CHECK(a.balance == 70);
    CHECK(b.balance == 130);
    CHECK(a.version == 2);
    // Bytes the transaction never wrote survive the masked write-back.
    CHECK(a.flags == 0x11);
    CHECK(b.flags == 0x22);
    CHECK(stm.collected_stats().commits() == 1);

    // Whole-struct read/write (16 bytes: spans two granules).
    ctx.run([&](OrecTransaction& tx) {
        Account cur = tx_read(tx, &a);
        cur.balance += 5;
        cur.flags = 0x33;
        tx_write(tx, &a, cur);
    });
    CHECK(a.balance == 75);
    CHECK(a.version == 2);
    CHECK(a.flags == 0x33);
}

// --- raw-array transfers under forced collisions ------------------------

constexpr int kSlots = 64;
constexpr long kInitial = 1000;
constexpr unsigned kThreads = 4;
constexpr int kPerThread = 4000;

// table_bits is clamped to >= 2, i.e. 4 orecs for 64 slots: every commit
// locks orecs that dozens of other addresses hash to, and most
// transactions collide with most others. Serializability must hold
// anyway; only throughput may suffer.
void array_bank(unsigned table_bits, const char* tb_spec) {
    OrecConfig cfg;
    cfg.table_bits = table_bits;
    OrecStm stm(tb::make(tb_spec), cfg);

    auto slots = std::make_unique<long[]>(kSlots);
    for (int i = 0; i < kSlots; ++i) slots[i] = kInitial;

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&stm, &slots, t] {
            auto ctx = stm.make_context();
            Rng rng(t * 7919 + 13);
            for (int i = 0; i < kPerThread; ++i) {
                const auto a = rng.below(kSlots);
                auto b = rng.below(kSlots);
                if (a == b) b = (b + 1) % kSlots;
                const long amount = static_cast<long>(rng.below(10)) + 1;
                ctx.run([&](OrecTransaction& tx) {
                    tx_write(tx, &slots[a], tx_read(tx, &slots[a]) - amount);
                    tx_write(tx, &slots[b], tx_read(tx, &slots[b]) + amount);
                });
            }
        });
    }
    for (auto& th : threads) th.join();

    long total = 0;
    for (int i = 0; i < kSlots; ++i)
        total += __atomic_load_n(&slots[i], __ATOMIC_ACQUIRE);
    CHECK_MSG(total == kInitial * kSlots,
              "table_bits=%u tb=%s: total %ld (expected %ld)", table_bits,
              tb_spec, total, kInitial * kSlots);

    const auto stats = stm.collected_stats();
    CHECK_MSG(stats.commits() ==
                  static_cast<std::uint64_t>(kThreads) * kPerThread,
              "table_bits=%u tb=%s: commits %llu", table_bits, tb_spec,
              static_cast<unsigned long long>(stats.commits()));
    if (table_bits <= 4) {
        // 64 granules over <= 16 orecs: aliasing is certain; the counter
        // must see it.
        CHECK_MSG(stats.false_conflicts > 0,
                  "table_bits=%u: false_conflicts %llu", table_bits,
                  static_cast<unsigned long long>(stats.false_conflicts));
    }
    std::printf("orec bank table_bits=%u tb=%s: %llu commits, %llu aborts, "
                "%llu false conflicts\n",
                table_bits, tb_spec,
                static_cast<unsigned long long>(stats.commits()),
                static_cast<unsigned long long>(stats.aborts()),
                static_cast<unsigned long long>(stats.false_conflicts));
}

// Same-orec collisions inside ONE transaction: with 4 orecs, a transaction
// touching 16 consecutive slots repeatedly locks every orec through
// aliased granules -- the dedup path, not the foreign-lock path.
void same_orec_self_collision() {
    OrecConfig cfg;
    cfg.table_bits = 2;
    OrecStm stm(tb::make("shared"), cfg);
    CHECK(stm.table_size() == 4);

    long arr[16] = {0};
    auto ctx = stm.make_context();
    ctx.run([&](OrecTransaction& tx) {
        for (int i = 0; i < 16; ++i) tx_write(tx, &arr[i], long{i});
    });
    for (int i = 0; i < 16; ++i) CHECK(arr[i] == i);
    CHECK(stm.collected_stats().commits() == 1);
    // 16 distinct granules, 4 orecs: at least 12 aliased lock requests.
    CHECK(stm.collected_stats().false_conflicts >= 12);

    // Read path aliasing: the read log is append-only, one entry per
    // read, however many granules share an orec.
    ctx.run([&](OrecTransaction& tx) {
        long sum = 0;
        for (int i = 0; i < 16; ++i) sum += tx_read(tx, &arr[i]);
        CHECK(tx.read_set_size() == 16);
        return sum;
    });
}

// Staged re-read after a foreign commit: T reads x, W commits a new x,
// then T reads x again -- directly, or through a second granule that
// aliases x's orec. The read log keeps no per-orec entry to compare the
// new word against, so this guards that the re-read still aborts (its
// version is too new, and the extension walk meets x's changed word)
// and never returns W's value.
void reread_after_foreign_commit(bool aliased) {
    OrecConfig cfg;
    cfg.table_bits = 2;
    OrecStm stm(tb::make("shared"), cfg);
    alignas(64) long arr[16] = {0};
    long* x = &arr[0];
    const long* again = aliased ? &arr[8] : x;  // 64 bytes on: same orec
    CHECK(!aliased || stm.orec_of(x) == stm.orec_of(again));

    auto ctx_t = stm.make_context();
    auto ctx_w = stm.make_context();
    auto t = ctx_t.txn_begin();
    CHECK(tx_read(t, x) == 0);

    auto w = ctx_w.txn_begin();
    tx_write(w, x, long{7});
    CHECK(ctx_w.txn_commit(w));
    CHECK(__atomic_load_n(x, __ATOMIC_ACQUIRE) == 7);

    bool aborted = false;
    try {
        const long v = tx_read(t, again);
        CHECK_MSG(v != 7, "aliased=%d: re-read returned the new value",
                  static_cast<int>(aliased));
    } catch (const detail::AbortTx&) {
        aborted = true;
    }
    CHECK_MSG(aborted, "aliased=%d: re-read after a foreign commit did "
                       "not abort", static_cast<int>(aliased));
}

// A roomy table on 16-byte-strided slots: zero false conflicts expected.
// (Each slot occupies its own orec granule -- the orec hash drops the low
// kOrecShift=4 bits, so packed longs would share orec granules pairwise;
// padding to 16 bytes puts consecutive slots in consecutive table entries
// of the default 2^16 table, where none collide.)
void no_false_conflicts_when_roomy() {
    OrecStm stm(tb::make("shared"));
    struct alignas(16) Slot {
        long v;
    };
    Slot arr[16] = {};
    auto ctx = stm.make_context();
    ctx.run([&](OrecTransaction& tx) {
        for (int i = 0; i < 16; ++i) tx_write(tx, &arr[i].v, long{1});
    });
    CHECK(stm.collected_stats().false_conflicts == 0);
}

// --- WordVar basics -----------------------------------------------------

void wordvar_basics() {
    static_assert(sizeof(WordVar<long>) == 8,
                  "WordVar must carry no metadata");
    static_assert(sizeof(WordVar<char>) == 8,
                  "WordVar pads to one granule");

    OrecStm stm(tb::make("shared"));
    auto ctx = stm.make_context();
    WordVar<long> v(41);
    WordVar<std::uint16_t> small(7);

    const long got = ctx.run([&](OrecTransaction& tx) {
        v.set(tx, v.get(tx) + 1);
        small.set(tx, static_cast<std::uint16_t>(small.get(tx) * 2));
        return v.get(tx);  // read-after-write through the buffered image
    });
    CHECK(got == 42);
    CHECK(v.unsafe_peek() == 42);
    CHECK(small.unsafe_peek() == 14);

    // Explicit abort leaves no trace.
    bool threw = false;
    try {
        auto tx = ctx.txn_begin();
        tx.write(v.raw(), long{999});
        tx.abort();
    } catch (const detail::AbortTx&) {
        threw = true;
    }
    CHECK(threw);
    CHECK(v.unsafe_peek() == 42);
}

// Granule-straddling write: a misaligned 8-byte field inside a packed
// byte buffer crosses two granules; both partial masks must land and the
// surrounding bytes must survive.
void straddling_write() {
    OrecStm stm(tb::make("shared"));
    auto ctx = stm.make_context();

    alignas(8) unsigned char buf[24];
    for (int i = 0; i < 24; ++i) buf[i] = static_cast<unsigned char>(i);

    std::uint64_t val = 0xAABBCCDDEEFF0011ull;
    ctx.run([&](OrecTransaction& tx) {
        tx.write(reinterpret_cast<std::uint64_t*>(buf + 5), val);
    });

    std::uint64_t out;
    std::memcpy(&out, buf + 5, 8);
    CHECK(out == val);
    for (int i = 0; i < 5; ++i)
        CHECK(buf[i] == static_cast<unsigned char>(i));
    for (int i = 13; i < 24; ++i)
        CHECK(buf[i] == static_cast<unsigned char>(i));

    // And reading it back transactionally reassembles the same value.
    const std::uint64_t rd = ctx.run([&](OrecTransaction& tx) {
        return tx.read(reinterpret_cast<const std::uint64_t*>(buf + 5));
    });
    CHECK(rd == val);
}

}  // namespace

int main() {
    raw_struct_single_thread();
    wordvar_basics();
    straddling_write();
    same_orec_self_collision();
    reread_after_foreign_commit(false);
    reread_after_foreign_commit(true);
    no_false_conflicts_when_roomy();

    // Concurrency under collision pressure, across the CI time-base
    // shapes: exact counter, batched B=8 and B=16 (the imprecise bases cost
    // freshness aborts, never atomicity -- same bar as the TVar core).
    array_bank(2, "shared");
    array_bank(4, "shared");
    array_bank(16, "shared");
    array_bank(2, "batched:B=8");
    array_bank(4, "batched:B=16");

    std::printf("test_stm_orec: PASS\n");
    return 0;
}
