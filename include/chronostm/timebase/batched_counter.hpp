// Scalable shared counter: threads draw timestamp BLOCKS of size B with one
// fetch-and-add instead of one RMW per commit, so the counter cache line is
// touched 1/B as often. It is built on the paper's imprecise-time-base
// contract (Section 3: a time base may return stamps that deviate from true
// time by a published bound; the STM shrinks every validity range by that
// bound and loses only freshness, never correctness).
//
// Contract and why the bound holds:
//  * get_time() is an exact read of the shared counter.
//  * get_new_ts() hands out stamps from a thread-private block [s+1, s+B]
//    drawn with fetch_add(B). A cached stamp may lag the counter other
//    threads have advanced, so before emitting one we reload the counter
//    and refetch a fresh block unless counter < stamp + B. Every emitted
//    stamp t therefore satisfies t > c - B for the counter value c observed
//    at the emission's freshness check, and stamps never lead the counter
//    (our own fetch_add already advanced it past the block): the error is
//    ONE-SIDED, stamps lag by less than B and get_time is exact.
//  * Published deviation() = ceil(B/2): center the time base's notional
//    "true time" at counter - B/2 and both get_time (+B/2) and stamps
//    (-B/2..+B/2) sit within ceil(B/2) of it. The LSA core shrinks
//    validity ranges by twice the published bound -- 2*ceil(B/2) >= B --
//    which is exactly what safety needs: a commit whose stamp t was drawn
//    or freshness-checked after a reader sampled u satisfies t > u - B
//    (the check's counter load c >= u, t > c - B), so the shrunk admission
//    test wv + 2*deviation() <= u can never accept a version that was
//    still uncommitted when the snapshot was taken. Publishing the naive
//    symmetric bound B would double the shrink and with it the freshness
//    latency below, for no additional safety.
//
// What is given up vs the plain shared counter:
//  * a freshly committed version is unreadable until the counter moves
//    ~B past its stamp (the shrunk validity range), so workloads that
//    re-read data committed within the last ~B stamps pay freshness
//    aborts -- the paper's imprecision-vs-aborts trade, tunable via B.
//    The default B=8 keeps that horizon well under typical re-access
//    distances while still cutting the shared-line RMW rate 8x; raise B
//    for raw get_new_ts throughput, lower it for fresh-read latency.
//  * per-thread monotonicity and global uniqueness are kept (blocks are
//    disjoint and refetch only moves forward), but stamps are NOT totally
//    ordered against concurrent get_time() observations the way the exact
//    counter's are.
//
// Progress note: counter time only moves when stamps are drawn. A reader
// that aborts on freshness (version within 2B of its snapshot) must see
// time advance before its retry can succeed, which is why the core's retry
// loop draws-and-discards a stamp after repeated aborts -- on this time
// base that drains blocks and bumps the shared counter, on clock bases it
// is a harmless read. Abandoned block tails only waste stamp space (the
// counter is 64-bit), never uniqueness or monotonicity.

#pragma once

#include <atomic>
#include <cstdint>

#include <chronostm/timebase/common.hpp>

namespace chronostm {
namespace tb {

class BatchedCounterTimeBase {
 public:
    class ThreadClock {
     public:
        ThreadClock(std::atomic<std::uint64_t>* counter, std::uint64_t block)
            : counter_(counter), block_(block) {}

        std::uint64_t get_time() const {
            return counter_->load(std::memory_order_acquire);
        }

        std::uint64_t get_new_ts() {
            std::uint64_t t = next_;
            // Refetch when the block is drained OR the cached stamp would
            // be >= B behind the counter (the freshness reload that makes
            // deviation() = B a real bound rather than a hope). The reload
            // is a shared read, not an RMW: it scales like get_time.
            if (t == end_ ||
                counter_->load(std::memory_order_acquire) >= t + block_) {
                const std::uint64_t s = counter_->fetch_add(
                    block_, std::memory_order_acq_rel);
                t = s + 1;
                end_ = s + block_ + 1;  // stamps s+1 .. s+B
            }
            next_ = t + 1;
            return t;
        }

     private:
        std::atomic<std::uint64_t>* counter_;
        std::uint64_t block_;
        std::uint64_t next_ = 0;  // next stamp to emit; == end_ -> drained
        std::uint64_t end_ = 0;   // one past the block's last stamp
    };

    explicit BatchedCounterTimeBase(std::uint64_t block_size = 8)
        : block_(block_size == 0 ? 1 : block_size) {}
    BatchedCounterTimeBase(const BatchedCounterTimeBase&) = delete;
    BatchedCounterTimeBase& operator=(const BatchedCounterTimeBase&) = delete;

    ThreadClock make_thread_clock() { return ThreadClock(&counter_, block_); }

    // Per-stamp deviation bound published to the STM core (which shrinks
    // validity ranges by twice this, the pairwise uncertainty): ceil(B/2)
    // under the centered-clock convention derived in the header comment.
    // B=1 degenerates to the exact shared counter (every draw refetches),
    // so it honestly publishes zero.
    std::uint64_t deviation() const {
        return block_ == 1 ? 0 : (block_ + 1) / 2;
    }

    std::uint64_t block_size() const { return block_; }

 private:
    const std::uint64_t block_;
    alignas(64) std::atomic<std::uint64_t> counter_{0};
};

}  // namespace tb
}  // namespace chronostm
