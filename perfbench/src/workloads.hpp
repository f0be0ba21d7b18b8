// The benchmark's workloads. Each is a class template over the container
// access policy (ds::EnginePolicy for measured runs, TracePolicy for the
// traced run) so the measured and traced programs share every line of
// workload code.
//
// Interface used by main.cpp:
//   W(engine, inputs)       builds the initial state through transactions
//                           -- the span timed as setup_s
//   make_workers(seed)      one Worker per thread (container handle, RNG,
//                           per-thread shadow counts)
//   op(worker, tid)         one closed-loop op; returns its latency class
//   after_op(worker, tid)   untimed think time between ops (bank only)
//   teardown(workers, log)  quiesced correctness checks; consumes the
//                           workers; returns the number of failed checks
//   heap()                  the container's TxHeap, or null

#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <chronostm/ds/hashmap.hpp>
#include <chronostm/ds/skiplist.hpp>
#include <chronostm/util/pause.hpp>

#include "clock.hpp"
#include "trace.hpp"

namespace perfbench {

enum OpClass : unsigned { kRead = 0, kUpdate = 1 };

inline std::uint64_t mix(std::uint64_t& s) {
    return chs::ds::detail::splitmix64(s);
}

inline std::uint64_t worker_seed(std::uint64_t seed, unsigned tid) {
    std::uint64_t s = seed ^ (0xa0761d6478bd642full * (tid + 1));
    return mix(s);
}

// Seeded Fisher-Yates permutation of [0, n): the prefill/opening order.
inline std::vector<std::uint32_t> permutation(std::uint32_t n,
                                              std::uint64_t seed) {
    std::vector<std::uint32_t> p(n);
    for (std::uint32_t i = 0; i < n; ++i) p[i] = i;
    std::uint64_t s = seed;
    for (std::uint32_t i = n - 1; i > 0; --i)
        std::swap(p[i], p[mix(s) % (i + 1)]);
    return p;
}

// Shared shape of the two container workloads: shadow counts of successful
// inserts/erases, and the quiesced size + limbo checks.
struct SetShadow {
    std::int64_t inserted = 0;
    std::int64_t erased = 0;
};

template <typename Container>
std::uint64_t container_teardown(Container& c, std::size_t prefill,
                                 std::int64_t inserted, std::int64_t erased,
                                 std::string& log) {
    std::uint64_t failed = 0;
    const std::int64_t want = static_cast<std::int64_t>(prefill) + inserted -
                              erased;
    const auto got = static_cast<std::int64_t>(c.unsafe_size());
    if (got != want) {
        ++failed;
        log += "size " + std::to_string(got) + " != prefill + inserted - "
               "erased = " + std::to_string(want) + "; ";
    }
    c.heap().drain();
    const auto limbo = c.heap().stats().limbo;
    if (limbo != 0) {
        ++failed;
        log += "epoch limbo " + std::to_string(limbo) + " after drain; ";
    }
    return failed;
}

// ---- skiplist-read ---------------------------------------------------------
// orec, 2^14 key range, half prefilled, 90% contains / 5% insert / 5% erase.
template <typename Policy>
class SkiplistRead {
 public:
    static constexpr const char* kEngine = "orec";
    static constexpr std::uint32_t kKeyRange = 1u << 14;
    static constexpr std::size_t kPrefill = kKeyRange / 2;
    static constexpr std::uint32_t kOrderSize = kKeyRange;
    using PolicyType = Policy;

    using Set = chs::ds::SkiplistSet<Policy>;
    struct Worker {
        typename Set::Handle h;
        std::uint64_t rng;
        SetShadow shadow;
    };

    SkiplistRead(chs::stm::Engine eng, const std::vector<std::uint32_t>& order,
                 double)
        : set_(std::make_unique<Set>(Policy(std::move(eng)))) {
        auto h = set_->make_handle();
        for (std::size_t i = 0; i < kPrefill; ++i) set_->insert(h, order[i]);
    }

    std::vector<Worker> make_workers(std::uint64_t seed, unsigned n) {
        std::vector<Worker> ws;
        for (unsigned t = 0; t < n; ++t)
            ws.push_back(Worker{set_->make_handle(), worker_seed(seed, t), {}});
        return ws;
    }

    OpClass op(Worker& w, unsigned) {
        const std::uint64_t r = mix(w.rng);
        const std::uint64_t key = (r >> 8) % kKeyRange;
        const unsigned pick = static_cast<unsigned>(r & 0xff) % 100;
        if (pick < 90) {
            set_->contains(w.h, key);
            return kRead;
        }
        if (pick < 95)
            w.shadow.inserted += set_->insert(w.h, key);
        else
            w.shadow.erased += set_->erase(w.h, key);
        return kUpdate;
    }

    void after_op(Worker&, unsigned) {}
    static bool counts_for_throughput(OpClass) { return true; }

    std::uint64_t teardown(std::vector<Worker>& ws, std::string& log) {
        std::int64_t ins = 0, del = 0;
        for (const auto& w : ws) {
            ins += w.shadow.inserted;
            del += w.shadow.erased;
        }
        ws.clear();  // handles go first: their limbo is adopted by the heap
        return container_teardown(*set_, kPrefill, ins, del, log);
    }

    chs::stm::TxHeap* heap() { return &set_->heap(); }

 private:
    std::unique_ptr<Set> set_;
};

// ---- hashmap-update --------------------------------------------------------
// lsa, 2^14 key range in a 2^15-cell table, half prefilled,
// 40% put / 40% erase / 20% get. Every value is a fixed function of its
// key, so each successful get is checked.
template <typename Policy>
class HashmapUpdate {
 public:
    static constexpr const char* kEngine = "lsa";
    static constexpr std::uint32_t kKeyRange = 1u << 14;
    static constexpr std::size_t kCells = std::size_t{1} << 15;
    static constexpr std::size_t kPrefill = kKeyRange / 2;
    static constexpr std::uint32_t kOrderSize = kKeyRange;
    using PolicyType = Policy;

    using Map = chs::ds::TxHashMap<Policy>;
    struct Worker {
        typename Map::Handle h;
        std::uint64_t rng;
        SetShadow shadow;
        std::uint64_t bad_gets = 0;
    };

    HashmapUpdate(chs::stm::Engine eng,
                  const std::vector<std::uint32_t>& order, double)
        : map_(std::make_unique<Map>(Policy(std::move(eng)), kCells)) {
        auto h = map_->make_handle();
        for (std::size_t i = 0; i < kPrefill; ++i)
            map_->put(h, order[i], value_of(order[i]));
    }

    std::vector<Worker> make_workers(std::uint64_t seed, unsigned n) {
        std::vector<Worker> ws;
        for (unsigned t = 0; t < n; ++t)
            ws.push_back(
                Worker{map_->make_handle(), worker_seed(seed, t), {}, 0});
        return ws;
    }

    OpClass op(Worker& w, unsigned) {
        const std::uint64_t r = mix(w.rng);
        const std::uint64_t key = (r >> 8) % kKeyRange;
        const unsigned pick = static_cast<unsigned>(r & 0xff) % 100;
        if (pick < 40) {
            w.shadow.inserted += map_->put(w.h, key, value_of(key));
            return kUpdate;
        }
        if (pick < 80) {
            w.shadow.erased += map_->erase(w.h, key);
            return kUpdate;
        }
        std::uint64_t v = 0;
        if (map_->get(w.h, key, v) && v != value_of(key)) ++w.bad_gets;
        return kRead;
    }

    void after_op(Worker&, unsigned) {}
    static bool counts_for_throughput(OpClass) { return true; }

    std::uint64_t teardown(std::vector<Worker>& ws, std::string& log) {
        std::int64_t ins = 0, del = 0;
        std::uint64_t bad = 0;
        for (const auto& w : ws) {
            ins += w.shadow.inserted;
            del += w.shadow.erased;
            bad += w.bad_gets;
        }
        ws.clear();
        if (bad != 0) log += std::to_string(bad) + " gets read a wrong value; ";
        return bad + container_teardown(*map_, kPrefill, ins, del, log);
    }

    chs::stm::TxHeap* heap() { return &map_->heap(); }

 private:
    static std::uint64_t value_of(std::uint64_t key) {
        return key * 0x9e3779b97f4a7c15ull + 1;
    }

    std::unique_ptr<Map> map_;
};

// ---- bank-audit ------------------------------------------------------------
// lsa, 65,536 accounts laid out with slot_init, each opened by its own
// transaction. Thread 0 audits (one read-only transaction over every
// account, checked against the conserved total); thread 1 transfers between
// two accounts and then spins ~5 us, so the update density an audit sees
// is fixed by the clock, not by transfer speed.
template <typename Policy>
class BankAudit {
 public:
    static constexpr const char* kEngine = "lsa";
    static constexpr std::uint32_t kAccounts = 1u << 16;
    static constexpr std::uint32_t kOrderSize = kAccounts;
    using PolicyType = Policy;
    static constexpr double kThinkNs = 5000.0;

    struct Worker {
        typename Policy::Ctx ctx;
        std::uint64_t rng;
        std::uint64_t bad_audits = 0;
    };

    BankAudit(chs::stm::Engine eng, const std::vector<std::uint32_t>& order,
              double ns_per_tick)
        : pol_(std::move(eng)),
          stride_(round_up(pol_.slot_size(), pol_.slot_align())),
          think_ticks_(static_cast<std::uint64_t>(kThinkNs / ns_per_tick)) {
        slots_ = ::operator new(kAccounts * stride_,
                                std::align_val_t(pol_.slot_align()));
        auto ctx = pol_.make_context();
        for (std::uint32_t i = 0; i < kAccounts; ++i) {
            const std::uint32_t a = order[i];
            const std::uint64_t balance = 1000 + order[kAccounts - 1 - i] % 1000;
            pol_.slot_init(slot(a), 0);
            pol_.run(ctx, [&](auto& tx) { tx.store(slot(a), balance); });
            total_ += balance;
        }
    }

    ~BankAudit() {
        for (std::uint32_t i = 0; i < kAccounts; ++i)
            pol_.slot_destroy(slot(i));
        ::operator delete(slots_, std::align_val_t(pol_.slot_align()));
    }

    BankAudit(const BankAudit&) = delete;
    BankAudit& operator=(const BankAudit&) = delete;

    std::vector<Worker> make_workers(std::uint64_t seed, unsigned n) {
        std::vector<Worker> ws;
        for (unsigned t = 0; t < n; ++t)
            ws.push_back(Worker{pol_.make_context(), worker_seed(seed, t), 0});
        return ws;
    }

    OpClass op(Worker& w, unsigned tid) {
        if (tid == 0) {
            std::uint64_t sum = 0;
            pol_.run(w.ctx, [&](auto& tx) {
                sum = 0;
                for (std::uint32_t i = 0; i < kAccounts; ++i)
                    sum += tx.load(slot(i));
            });
            if (sum != total_) ++w.bad_audits;
            return kRead;
        }
        const std::uint64_t r = mix(w.rng);
        const std::uint32_t from = static_cast<std::uint32_t>(r) % kAccounts;
        const std::uint32_t to =
            (from + 1 + static_cast<std::uint32_t>(r >> 32) % (kAccounts - 1)) %
            kAccounts;
        const std::uint64_t want = (r >> 20) % 100;
        pol_.run(w.ctx, [&](auto& tx) {
            const std::uint64_t a = tx.load(slot(from));
            const std::uint64_t b = tx.load(slot(to));
            const std::uint64_t amt = std::min(a, want);
            tx.store(slot(from), a - amt);
            tx.store(slot(to), b + amt);
        });
        return kUpdate;
    }

    void after_op(Worker&, unsigned tid) {
        if (tid == 0) return;
        const std::uint64_t until = ticks() + think_ticks_;
        while (ticks() < until) chs::cpu_relax();
    }

    static bool counts_for_throughput(OpClass c) { return c == kRead; }

    std::uint64_t teardown(std::vector<Worker>& ws, std::string& log) {
        std::uint64_t bad = 0;
        for (const auto& w : ws) bad += w.bad_audits;
        ws.clear();
        if (bad != 0)
            log += std::to_string(bad) + " audits missed the conserved total; ";
        std::uint64_t sum = 0;
        for (std::uint32_t i = 0; i < kAccounts; ++i)
            sum += pol_.slot_peek(slot(i));
        if (sum != total_) {
            ++bad;
            log += "final balance sum differs from the conserved total; ";
        }
        return bad;
    }

    chs::stm::TxHeap* heap() { return nullptr; }

 private:
    static std::size_t round_up(std::size_t n, std::size_t a) {
        return (n + a - 1) / a * a;
    }
    void* slot(std::uint32_t i) const {
        return static_cast<char*>(slots_) + std::size_t{i} * stride_;
    }

    Policy pol_;
    std::size_t stride_;
    std::uint64_t think_ticks_;
    void* slots_ = nullptr;
    std::uint64_t total_ = 0;
};

}  // namespace perfbench
