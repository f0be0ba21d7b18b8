// Shared engine knobs, hoisted out of StmConfig/OrecConfig (which both
// inherit from CommonConfig, so the old field spellings -- cfg.epoch_filter,
// cfg.irrevocable_threshold, ... -- keep compiling everywhere). The engine
// registry (stm/facade.hpp) parses these from the engine spec string:
//
//   stm::make("orec:bits=14,irrev=32,spin=128,filter=off")
//
// Keys map one-to-one onto fields below (plus each engine's private keys);
// the grammar is the time-base facade's: case-insensitive, later key wins,
// unknown keys rejected loudly.
//
// No core include may depend on anything heavier than this header: both
// core engines include it, so it stays free of chronostm dependencies.

#pragma once

#include <cstdint>
#include <functional>

namespace chronostm {
namespace stm {

struct CommonConfig {
    // Lazy snapshot extension on reads that find a too-new version.
    bool read_extension = true;
    // Spins on a foreign lock before the waiter counts a stall and gives
    // up on the owner (the LSA aggressive manager waits 64 times longer;
    // the irrevocability-token holder waits without bound).
    unsigned lock_spin = 256;
    // Bounded retry: run() throws after this many consecutive aborts.
    unsigned max_retries = 1'000'000;
    // Graceful-degradation ladder, final rung: consecutive-abort count at
    // which run() escalates the transaction to irrevocable serial mode.
    // 0 disables escalation (retry exhaustion then throws RetryExhausted).
    unsigned irrevocable_threshold = 64;
    // Commit-epoch validation filter: writers bump epoch words while
    // holding their write locks; readers whose epoch snapshot is unchanged
    // skip the O(R) read-set walk in try_extend() and at commit. Off
    // forces the full walk every time (bench twin/debugging).
    bool epoch_filter = true;
    // Number of cache-line-padded epoch stripes the filter is sharded
    // over. Writers bump only the stripes their write set hashes into and
    // readers compare only the stripes their read set touched, so a
    // writer in an unrelated address range no longer kills the fast hit.
    // Rounded up to a power of two, clamped to [1, 64] (the per-txn
    // signature is one 64-bit bitmap); 1 reproduces the single-word
    // filter of the pre-striping engines.
    unsigned filter_stripes = 64;
    // Test-only: invoked on the committing thread at its decision point,
    // after validation and before it applies its write set -- lets tests
    // freeze a decided committer that still holds every lock. Leave empty
    // in production.
    std::function<void()> commit_publish_hook;
};

}  // namespace stm
}  // namespace chronostm
