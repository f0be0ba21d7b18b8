// Commit validation of a word the committing transaction locked itself,
// on both engines and on both sides of the lock-key lookup's switch from
// a linear scan to the index (detail::kInlineScan). Staged on one thread:
// T reads x, another context W commits x, T writes x (or, on a 4-entry
// orec table, a granule aliasing x's orec) and commits. T's own lock now
// covers a version T never read, so the commit must fail; without W's
// commit the same steps must succeed. An engine that took "locked by me"
// for "still the version I read" commits T on top of W's write.

#include <cstdio>
#include <cstdint>
#include <memory>
#include <vector>

#include <chronostm/core/lsa_stm.hpp>
#include <chronostm/core/orec_stm.hpp>

#include "test_util.hpp"

using namespace chronostm;

namespace {

// T writes `width` words in all: the target plus width - 1 fillers.
constexpr unsigned kWidths[] = {1, detail::kInlineScan + 4};

// One staged T: the accessors take the transaction (T's or W's); W adds
// 100 to x, T writes x's old value + 1 to its target. Returns whether T
// committed.
template <typename Stm, typename ReadX, typename WriteX, typename WriteT,
          typename Filler>
bool run_staged(Stm& stm, bool intervene, unsigned width, ReadX read_x,
                WriteX write_x, WriteT write_t, Filler write_filler) {
    auto tctx = stm.make_context();
    auto wctx = stm.make_context();
    auto t = tctx.txn_begin();
    const long seen = read_x(t);
    if (intervene)
        wctx.run([&](auto& w) { write_x(w, read_x(w) + 100); });
    write_t(t, seen + 1);
    for (unsigned i = 1; i < width; ++i) write_filler(t, i);
    return tctx.txn_commit(t);
}

void check_lsa(bool intervene, unsigned width) {
    LsaStm stm(tb::make("shared"));
    TVar<long> x(0);
    std::vector<std::unique_ptr<TVar<long>>> fill;
    for (unsigned i = 0; i < width; ++i)
        fill.push_back(std::make_unique<TVar<long>>(0));
    const bool committed = run_staged(
        stm, intervene, width, [&](Transaction& tx) { return x.get(tx); },
        [&](Transaction& tx, long v) { x.set(tx, v); },
        [&](Transaction& tx, long v) { x.set(tx, v); },
        [&](Transaction& tx, unsigned i) { fill[i]->set(tx, 1); });
    CHECK_MSG(committed == !intervene, "lsa W=%u intervene=%d committed=%d",
              width, intervene, committed);
    CHECK(x.unsafe_peek() == (intervene ? 100 : 1));
}

// aliased: T writes words[kAlias] instead of x = words[0]. With 2^2 orecs
// of 16-byte granules, addresses 64 bytes apart share an orec.
void check_orec(bool intervene, unsigned width, bool aliased) {
    OrecConfig cfg;
    if (aliased) cfg.table_bits = 2;
    OrecStm stm(tb::make("shared"), cfg);
    constexpr unsigned kAlias = 8;  // 64 bytes past x
    alignas(64) static long words[kAlias + 1];
    std::vector<long> fill(2 * width, 0);
    words[0] = words[kAlias] = 0;
    long* const target = aliased ? &words[kAlias] : &words[0];
    CHECK(stm.orec_of(&words[0]) == stm.orec_of(&words[kAlias]) || !aliased);
    const bool committed = run_staged(
        stm, intervene, width,
        [&](OrecTransaction& tx) { return tx_read(tx, &words[0]); },
        [&](OrecTransaction& tx, long v) { tx_write(tx, &words[0], v); },
        [&](OrecTransaction& tx, long v) { tx_write(tx, target, v); },
        [&](OrecTransaction& tx, unsigned i) {
            tx_write(tx, &fill[2 * i], 1L);  // one granule per filler
        });
    CHECK_MSG(committed == !intervene,
              "orec W=%u aliased=%d intervene=%d committed=%d", width,
              aliased, intervene, committed);
    CHECK(words[0] == (intervene ? 100 : aliased ? 0 : 1));
    CHECK(words[kAlias] == (aliased && !intervene ? 1 : 0));
}

}  // namespace

int main() {
    for (const unsigned width : kWidths) {
        for (const bool intervene : {false, true}) {
            check_lsa(intervene, width);
            check_orec(intervene, width, false);
            check_orec(intervene, width, true);
        }
    }
    std::printf("test_stm_own_lock_validation: PASS\n");
    return 0;
}
