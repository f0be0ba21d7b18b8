// Transactional open-addressing hash map over raw nodes. The table is a
// fixed block of CELL slots (capacity chosen at construction, rounded up
// to a power of two -- no transactional rehash); each cell holds a node
// address, 0 for never-used, 1 for tombstone. A node is
//
//   [ u64 key | slot value ]
//
// key is a plain immutable word (nodes are private until the committing
// insert publishes the cell). Linear probing; erase tombstones the cell
// and tx_frees the node; insert reuses the first tombstone on its probe
// path, which keeps churny workloads from filling the table with graves.
//
// A probe transaction reads every cell it crosses, so a commit validates
// the whole probe path -- the standard price of open addressing under
// optimistic concurrency, and exactly the varied-read-set transaction
// class the datastructure bench wants.
//
// Capacity is fixed, so the table can fill: put() of a NEW key whose
// probe path crosses only live nodes throws ds::TableFull. The failing
// transaction allocates nothing and publishes nothing, so the map is
// unchanged and the caller may erase keys and retry. Updates of existing
// keys, get() and erase() never throw it.
//
// Thread handles (make_handle) must not outlive the container.

#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <stdexcept>

#include <chronostm/ds/policy.hpp>

namespace chronostm {
namespace ds {

// A put() found no empty cell or tombstone for a new key: the fixed
// capacity is undersized for the live key count.
class TableFull : public std::length_error {
 public:
    TableFull() : std::length_error("chronostm: TxHashMap is full") {}
};

template <typename Policy>
class TxHashMap {
 public:
    using Handle = TxHandle<Policy>;

    TxHashMap(Policy pol, std::size_t capacity)
        : pol_(std::move(pol)),
          stride_(pol_.slot_size()),
          reap_{pol_.slot_dtor(), stride_} {
        cap_ = 1;
        while (cap_ < capacity) cap_ <<= 1;
        mask_ = cap_ - 1;
        table_ = ::operator new(cap_ * stride_);
        for (std::size_t i = 0; i < cap_; ++i)
            pol_.slot_init(cell(i), kEmpty);
    }

    TxHashMap(const TxHashMap&) = delete;
    TxHashMap& operator=(const TxHashMap&) = delete;

    ~TxHashMap() {
        for (std::size_t i = 0; i < cap_; ++i) {
            const std::uint64_t w = pol_.slot_peek(cell(i));
            if (w > kTombstone) reap_node(as_ptr(w), &reap_);
            pol_.slot_destroy(cell(i));
        }
        ::operator delete(table_);
    }

    Handle make_handle() {
        Handle h{pol_.make_context(), {}, 0x9e3779b97f4a7c15ull};
        heap_.attach(h.heap);
        return h;
    }

    // Insert or update; true if a new key was inserted.
    bool put(Handle& h, std::uint64_t key, std::uint64_t value) {
        bool inserted = false;
        run_alloc_tx(pol_, h, [&](auto& tx) {
            inserted = false;
            std::size_t idx = hash(key) & mask_;
            std::size_t grave = kNone;
            for (std::size_t step = 0; step <= mask_; ++step) {
                const std::uint64_t w = tx.load(cell(idx));
                if (w == kEmpty) {
                    void* n = make_node(h, key, value);
                    tx.store(cell(grave != kNone ? grave : idx), as_word(n));
                    inserted = true;
                    return;
                }
                if (w == kTombstone) {
                    if (grave == kNone) grave = idx;
                } else if (key_of(as_ptr(w)) == key) {
                    tx.store(value_slot(as_ptr(w)), value);
                    return;  // updated in place
                }
                idx = (idx + 1) & mask_;
            }
            if (grave != kNone) {
                void* n = make_node(h, key, value);
                tx.store(cell(grave), as_word(n));
                inserted = true;
                return;
            }
            throw TableFull();
        });
        return inserted;
    }

    // False when absent.
    bool get(Handle& h, std::uint64_t key, std::uint64_t& out) {
        bool found = false;
        run_alloc_tx(pol_, h, [&](auto& tx) {
            found = false;
            std::size_t idx = hash(key) & mask_;
            for (std::size_t step = 0; step <= mask_; ++step) {
                const std::uint64_t w = tx.load(cell(idx));
                if (w == kEmpty) return;
                if (w != kTombstone && key_of(as_ptr(w)) == key) {
                    out = tx.load(value_slot(as_ptr(w)));
                    found = true;
                    return;
                }
                idx = (idx + 1) & mask_;
            }
        });
        return found;
    }

    // True if the key was removed.
    bool erase(Handle& h, std::uint64_t key) {
        bool erased = false;
        run_alloc_tx(pol_, h, [&](auto& tx) {
            erased = false;
            std::size_t idx = hash(key) & mask_;
            for (std::size_t step = 0; step <= mask_; ++step) {
                const std::uint64_t w = tx.load(cell(idx));
                if (w == kEmpty) return;
                if (w != kTombstone && key_of(as_ptr(w)) == key) {
                    tx.store(cell(idx), kTombstone);
                    h.heap.tx_free(as_ptr(w), &reap_node, &reap_);
                    erased = true;
                    return;
                }
                idx = (idx + 1) & mask_;
            }
        });
        return erased;
    }

    // Quiesced-state only.
    std::size_t unsafe_size() const {
        std::size_t n = 0;
        for (std::size_t i = 0; i < cap_; ++i)
            if (pol_.slot_peek(cell(i)) > kTombstone) ++n;
        return n;
    }

    std::size_t capacity() const { return cap_; }
    stm::TxHeap& heap() { return heap_; }
    const Policy& policy() const { return pol_; }

 private:
    struct Reap {
        stm::Engine::SlotDtor slot_dtor;
        std::size_t stride;
    };

    static constexpr std::uint64_t kEmpty = 0;
    static constexpr std::uint64_t kTombstone = 1;
    static constexpr std::size_t kNone = ~std::size_t{0};
    static constexpr std::size_t kHdr = sizeof(std::uint64_t);

    static std::uint64_t key_of(void* n) {
        return *static_cast<std::uint64_t*>(n);
    }
    static void* as_ptr(std::uint64_t w) {
        return reinterpret_cast<void*>(static_cast<std::uintptr_t>(w));
    }
    static std::uint64_t as_word(void* p) {
        return static_cast<std::uint64_t>(reinterpret_cast<std::uintptr_t>(p));
    }
    static std::uint64_t hash(std::uint64_t x) {
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdull;
        x ^= x >> 33;
        x *= 0xc4ceb9fe1a85ec53ull;
        return x ^ (x >> 33);
    }

    void* cell(std::size_t i) const {
        return static_cast<char*>(table_) + i * stride_;
    }
    void* value_slot(void* n) const { return static_cast<char*>(n) + kHdr; }
    std::size_t node_bytes() const { return kHdr + stride_; }

    void* make_node(Handle& h, std::uint64_t key, std::uint64_t value) {
        void* n = h.heap.tx_alloc(node_bytes());
        *static_cast<std::uint64_t*>(n) = key;
        pol_.slot_init(value_slot(n), value);
        return n;
    }

    static void reap_node(void* n, void* ctx) noexcept {
        const Reap* r = static_cast<const Reap*>(ctx);
        r->slot_dtor(static_cast<char*>(n) + kHdr);
        ::operator delete(n);
    }

    Policy pol_;
    std::size_t stride_;
    Reap reap_;  // declared before heap_: limbo drains in ~heap_ use it
    stm::TxHeap heap_;
    void* table_ = nullptr;
    std::size_t cap_ = 0;
    std::size_t mask_ = 0;
};

}  // namespace ds
}  // namespace chronostm
