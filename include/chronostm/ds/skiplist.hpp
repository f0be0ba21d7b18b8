// Transactional skiplist set over raw nodes. One container op = one
// transaction: the traversal's slot reads are the read set, so a commit
// is consistent with a frozen snapshot of the search path -- no marks, no
// helping, the engine's validation does the linearization work.
//
// Node layout (computed at runtime from the policy's slot size):
//
//   [ u64 key | u64 level | slot next[0] | ... | slot next[level-1] ]
//
// key and level are plain immutable words: a node is initialized privately
// and published by committing the predecessors' next-slots, so readers see
// the header through the engine's release/acquire publication. The next
// slots hold node addresses as uintptr_t (0 = null).
//
// Erase unlinks physically in one transaction and tx_frees the node; the
// epoch layer keeps it alive for concurrent doomed readers and for
// old-snapshot reads served from predecessors' history rings.
//
// Live height: a relaxed hint of the highest level linked, raised by
// insert before it links a taller node and lowered by erase when its
// unlink empties the top levels. contains and insert start their searches
// there instead of at kMaxLevel, skipping the empty head slots above it.
// Any start level is correct because level 0 links every node: a hint
// that is too high costs empty head reads, one that is too low longer
// walks. Erase searches from kMaxLevel, so its path covers every level of
// the victim and shows which levels the unlink empties.
//
// Thread handles (make_handle) must not outlive the container.

#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

#include <chronostm/ds/policy.hpp>

namespace chronostm {
namespace ds {

namespace detail {

inline std::uint64_t splitmix64(std::uint64_t& x) {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

}  // namespace detail

template <typename Policy>
class SkiplistSet {
 public:
    static constexpr unsigned kMaxLevel = 20;  // ~1M keys at p=1/2
    using Handle = TxHandle<Policy>;

    explicit SkiplistSet(Policy pol)
        : pol_(std::move(pol)),
          stride_(pol_.slot_size()),
          reap_{pol_.slot_dtor(), stride_} {
        head_ = raw_node(~std::uint64_t{0} /*unused*/, kMaxLevel);
        for (unsigned i = 0; i < kMaxLevel; ++i)
            pol_.slot_init(slot_at(head_, i), 0);
    }

    SkiplistSet(const SkiplistSet&) = delete;
    SkiplistSet& operator=(const SkiplistSet&) = delete;

    ~SkiplistSet() {
        // Quiesced teardown: free the live list; limbo nodes are freed by
        // the heap's domain destructor through the same reaper.
        void* cur = reinterpret_cast<void*>(pol_.slot_peek(slot_at(head_, 0)));
        while (cur != nullptr) {
            void* next =
                reinterpret_cast<void*>(pol_.slot_peek(slot_at(cur, 0)));
            reap_node(cur, &reap_);
            cur = next;
        }
        reap_node(head_, &reap_);
    }

    Handle make_handle() {
        Handle h{pol_.make_context(), {}, 0x9e3779b97f4a7c15ull};
        heap_.attach(h.heap);
        h.rng ^= 0xd1342543de82ef95ull *
                 (handle_seq_.fetch_add(1, std::memory_order_relaxed) + 1);
        return h;
    }

    bool contains(Handle& h, std::uint64_t key) {
        bool found = false;
        const int top = static_cast<int>(live_height());
        run_alloc_tx(pol_, h, [&](auto& tx) {
            found = false;
            void* pred = head_;
            std::uint64_t cur = 0;
            for (int lvl = top - 1; lvl >= 0; --lvl) {
                cur = tx.load(slot_at(pred, lvl));
                while (cur != 0 && key_of(as_ptr(cur)) < key) {
                    pred = as_ptr(cur);
                    cur = tx.load(slot_at(pred, lvl));
                }
                if (cur != 0 && key_of(as_ptr(cur)) == key) {
                    found = true;
                    return;
                }
            }
        });
        return found;
    }

    // True if the key was inserted (false: already present).
    bool insert(Handle& h, std::uint64_t key) {
        bool inserted = false;
        // Drawn once per op: the search must cover every level the new
        // node links into, so its start is known before the transaction.
        const unsigned lvl = random_level(h);
        const unsigned top = std::max(live_height(), lvl);
        run_alloc_tx(pol_, h, [&](auto& tx) {
            inserted = false;
            void* preds[kMaxLevel];
            std::uint64_t succs[kMaxLevel];
            if (find_path(tx, key, top, preds, succs)) return;  // present

            raise_height(lvl);
            void* n = h.heap.tx_alloc(node_bytes(lvl));
            header_of(n)[0] = key;
            header_of(n)[1] = lvl;
            // Private node: plain slot init with the succs this
            // transaction read; commit-time validation of the preds'
            // slots proves they are still the right successors.
            for (unsigned i = 0; i < lvl; ++i)
                pol_.slot_init(slot_at(n, i), succs[i]);
            for (unsigned i = 0; i < lvl; ++i)
                tx.store(slot_at(preds[i], i), as_word(n));
            inserted = true;
        });
        return inserted;
    }

    // True if the key was removed (false: not present).
    bool erase(Handle& h, std::uint64_t key) {
        bool erased = false;
        unsigned live = kMaxLevel;
        run_alloc_tx(pol_, h, [&](auto& tx) {
            erased = false;
            void* preds[kMaxLevel];
            std::uint64_t succs[kMaxLevel];
            if (!find_path(tx, key, kMaxLevel, preds, succs)) return;

            void* victim = as_ptr(succs[0]);
            const unsigned lvl = level_of(victim);
            for (unsigned i = 0; i < lvl; ++i) {
                succs[i] = tx.load(slot_at(victim, i));
                tx.store(slot_at(preds[i], i), succs[i]);
            }
            h.heap.tx_free(victim, &reap_node, &reap_);
            erased = true;
            // The full-height path shows which levels the unlink leaves
            // empty: those whose head slot now holds 0.
            live = kMaxLevel;
            while (live > 1 && preds[live - 1] == head_ &&
                   succs[live - 1] == 0)
                --live;
        });
        if (erased) lower_height(live);
        return erased;
    }

    // Quiesced-state only.
    std::size_t unsafe_size() const {
        std::size_t n = 0;
        std::uint64_t cur = pol_.slot_peek(slot_at(head_, 0));
        while (cur != 0) {
            ++n;
            cur = pol_.slot_peek(slot_at(as_ptr(cur), 0));
        }
        return n;
    }

    stm::TxHeap& heap() { return heap_; }
    const Policy& policy() const { return pol_; }

 private:
    struct Reap {
        stm::Engine::SlotDtor slot_dtor;
        std::size_t stride;
    };

    static constexpr std::size_t kHdr = 2 * sizeof(std::uint64_t);

    static std::uint64_t* header_of(void* n) {
        return static_cast<std::uint64_t*>(n);
    }
    static std::uint64_t key_of(void* n) { return header_of(n)[0]; }
    static unsigned level_of(void* n) {
        return static_cast<unsigned>(header_of(n)[1]);
    }
    static void* as_ptr(std::uint64_t w) {
        return reinterpret_cast<void*>(static_cast<std::uintptr_t>(w));
    }
    static std::uint64_t as_word(void* p) {
        return static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(p));
    }

    void* slot_at(void* n, unsigned i) const {
        return static_cast<char*>(n) + kHdr + i * stride_;
    }
    std::size_t node_bytes(unsigned level) const {
        return kHdr + level * stride_;
    }

    void* raw_node(std::uint64_t key, unsigned level) const {
        void* n = ::operator new(node_bytes(level));
        header_of(n)[0] = key;
        header_of(n)[1] = level;
        return n;
    }

    // Reclamation-time deleter: runs slot destructors over the node
    // layout, then releases the raw block. Plain function + context so it
    // can sit in epoch limbo past any call frame.
    static void reap_node(void* n, void* ctx) noexcept {
        const Reap* r = static_cast<const Reap*>(ctx);
        const unsigned lvl = level_of(n);
        for (unsigned i = 0; i < lvl; ++i)
            r->slot_dtor(static_cast<char*>(n) + kHdr + i * r->stride);
        ::operator delete(n);
    }

    // Search path for `key` from level `top` down: preds/succs at every
    // level below `top`; true if present (succs[0] is then the node).
    template <typename Tx>
    bool find_path(Tx& tx, std::uint64_t key, unsigned top, void** preds,
                   std::uint64_t* succs) {
        void* pred = head_;
        for (int lvl = static_cast<int>(top) - 1; lvl >= 0; --lvl) {
            std::uint64_t cur = tx.load(slot_at(pred, lvl));
            while (cur != 0 && key_of(as_ptr(cur)) < key) {
                pred = as_ptr(cur);
                cur = tx.load(slot_at(pred, lvl));
            }
            preds[lvl] = pred;
            succs[lvl] = cur;
        }
        return succs[0] != 0 && key_of(as_ptr(succs[0])) == key;
    }

    unsigned live_height() const {
        return height_.load(std::memory_order_relaxed);
    }

    // Called before linking a node of `lvl` levels. A raise by an attempt
    // that later aborts is kept: it only makes later searches read empty
    // head slots.
    void raise_height(unsigned lvl) {
        unsigned h = live_height();
        while (h < lvl &&
               !height_.compare_exchange_weak(h, lvl,
                                              std::memory_order_relaxed))
            ;
    }

    // After an erase commits: the highest level its snapshot left linked.
    // A concurrent insert may have raised the height above that in the
    // meantime; losing its raise only costs longer searches until the next
    // tall insert.
    void lower_height(unsigned live) {
        unsigned h = live_height();
        while (h > live &&
               !height_.compare_exchange_weak(h, live,
                                              std::memory_order_relaxed))
            ;
    }

    unsigned random_level(Handle& h) {
        unsigned lvl = 1;
        std::uint64_t r = detail::splitmix64(h.rng);
        while ((r & 1u) != 0 && lvl < kMaxLevel) {
            ++lvl;
            r >>= 1;
        }
        return lvl;
    }

    Policy pol_;
    std::size_t stride_;
    Reap reap_;  // declared before heap_: limbo drains in ~heap_ use it
    stm::TxHeap heap_;
    void* head_;
    std::atomic<unsigned> height_{1};  // live-height hint, >= 1
    std::atomic<std::uint64_t> handle_seq_{0};
};

}  // namespace ds
}  // namespace chronostm
