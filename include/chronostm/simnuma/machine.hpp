// Discrete-event ccNUMA machine model for the paper-scale Figure 2 sweep
// (fig2_sim): this host and the CI runners have too few CPUs to exhibit
// the 16-way contention curve natively, so we simulate the *cost
// structure* the paper measures instead -- the substitution argument in
// DESIGN.md.
//
// The model: P processors run the disjoint update workload (the only
// Figure-2 workload) as a sequence of deterministic segments. The sole
// shared resource is the cache line holding the shared-counter time base,
// modeled as an exclusively-owned line with FIFO arbitration: a request
// (BEGIN's counter load or COMMIT's fetch&inc -- both must reach the
// current owner's cache through the directory) is granted in arrival
// order and occupies the line for one transfer. A transfer costs
// `counter_local_ns` when the requester already owns the line (P=1, or
// back-to-back ops without an interleaver) and
// `counter_remote_base_ns + counter_remote_hop_ns * log2(P)` otherwise:
// the base is the directory round trip, the log2(P) term is the extra
// router hops an Altix-class fat-tree interconnect adds as the machine
// grows. The local MMTimer read is a fixed `timer_read_ns` with no shared
// state. Everything else (object accesses, commit bookkeeping) is
// processor-local compute.
//
// That asymmetry alone reproduces the paper's three-panel shape: the
// counter's throughput is capped at one line transfer per time-base op
// regardless of P (saturation), the cap itself *falls* as log2(P) grows
// (decline), and the MMTimer curve is embarrassingly parallel (linear).
//
// Determinism: the simulation is pure arithmetic over event clocks --
// same MachineConfig (including seed) => bit-identical MachineResult.
// Per-access work jitter comes from a SplitMix64 stream seeded per
// processor, so the event interleavings are varied but reproducible.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include <chronostm/util/rng.hpp>

namespace chronostm {
namespace sim {

enum class SimTimeBase {
    SharedCounter,   // fetch&inc on one exclusively-owned cache line
    LocalTimer,      // fixed-latency local MMTimer read
    ShardedCounter,  // per-clock-domain counter lines + lazy watermark line
};

struct MachineConfig {
    unsigned processors = 1;
    unsigned txn_accesses = 10;   // disjoint workload: accesses per update txn
    double duration_ms = 40.0;    // simulated measurement window
    std::uint64_t seed = 1;
    SimTimeBase time_base = SimTimeBase::SharedCounter;

    // NUMA clock domains (ShardedCounter only): processors are assigned
    // round-robin to `clock_domains` counter lines, so a commit's
    // fetch&inc contends only within its domain and a remote transfer
    // crosses only the domain's diameter (log2(P/D) hops instead of
    // log2(P)). BEGIN reads the mostly-shared watermark line at local
    // cost, and every `watermark_period`-th commit per processor pays one
    // globally-arbitrated watermark publish (full-diameter transfer): the
    // cost of a watermark that trails each domain line by a bounded band.
    // The period is long because simulated transactions are ~2us against
    // ~10ns counter draws on a real host.
    unsigned clock_domains = 1;
    unsigned watermark_period = 32;

    // Calibration knobs (see DESIGN.md). Defaults model an Altix-class
    // 16-way ccNUMA machine at the paper's constants: 20 MHz MMTimer with
    // a 7-tick (350 ns) read, STM object accesses in the low hundreds of
    // ns, remote exclusive-line transfers growing with machine diameter.
    double access_ns = 150.0;             // STM work per object access
    double commit_fixed_ns = 250.0;       // commit bookkeeping, local
    double timer_read_ns = 350.0;         // MMTimer read latency
    double counter_local_ns = 25.0;       // counter op while owning the line
    double counter_remote_base_ns = 450.0;  // line transfer: directory trip
    double counter_remote_hop_ns = 240.0;   // line transfer: per log2(P) hop
    double work_jitter = 0.02;            // relative jitter on the work segment
};

struct MachineResult {
    std::uint64_t committed_txns = 0;  // commits completing within the window
    double sim_ns = 0;                 // window length, simulated ns
    double mtx_per_sec = 0;            // committed_txns over the window

    // Shared-counter line telemetry (zero for LocalTimer runs).
    std::uint64_t line_remote_transfers = 0;
    std::uint64_t line_local_hits = 0;
    // Time the line spent servicing transfers *within the window*, so
    // line_busy_ns / sim_ns is a utilization in [0, 1] (post-horizon
    // drain grants are excluded).
    double line_busy_ns = 0;

    // Engine invariants, checked while simulating: per-processor event
    // clocks never run backwards and no grant precedes its request.
    bool clocks_monotone = true;
    std::vector<double> proc_clock_ns;           // final event clock per proc
    std::vector<std::uint64_t> per_proc_commits;
};

inline double counter_remote_transfer_ns(const MachineConfig& cfg) {
    const double p = cfg.processors == 0 ? 1.0 : cfg.processors;
    return cfg.counter_remote_base_ns +
           cfg.counter_remote_hop_ns * std::log2(std::max(1.0, p));
}

// Remote transfer cost for a line whose sharers span `span` processors:
// directory round trip plus the hops of that sub-machine's diameter.
inline double span_remote_transfer_ns(const MachineConfig& cfg,
                                      unsigned span) {
    return cfg.counter_remote_base_ns +
           cfg.counter_remote_hop_ns *
               std::log2(std::max(1.0, static_cast<double>(span)));
}

inline MachineResult simulate_machine(const MachineConfig& cfg) {
    const unsigned n = cfg.processors == 0 ? 1 : cfg.processors;
    const double horizon_ns = cfg.duration_ms * 1e6;

    MachineResult res;
    res.sim_ns = horizon_ns;
    res.proc_clock_ns.assign(n, 0.0);
    res.per_proc_commits.assign(n, 0);

    std::vector<Rng> rng;
    rng.reserve(n);
    for (unsigned p = 0; p < n; ++p)
        rng.emplace_back(cfg.seed * 0x9e3779b97f4a7c15ULL + p + 1);

    // One transaction's work segment: txn_accesses object accesses with a
    // small multiplicative jitter so the event interleaving is not
    // lockstep (and distinct seeds produce distinct sweeps).
    const auto work_ns = [&](unsigned p) {
        const double base = cfg.access_ns * cfg.txn_accesses;
        const double j = 1.0 + cfg.work_jitter * (2.0 * rng[p].real01() - 1.0);
        return base * j;
    };

    if (cfg.time_base == SimTimeBase::ShardedCounter) {
        // Per-domain counter lines + one watermark line, each an
        // exclusively-owned FIFO-arbitrated line like the shared counter's.
        // Serving the globally earliest outstanding request preserves
        // per-line FIFO order (any other request to the same line arrived
        // later), so the one event loop drives every line.
        const unsigned d =
            cfg.clock_domains == 0 ? 1 : std::min(cfg.clock_domains, n);
        const unsigned wm_period =
            cfg.watermark_period == 0 ? 1 : cfg.watermark_period;
        const unsigned wm_line = d;  // lines [0, d): domains; [d]: watermark
        struct Line {
            double free_at = 0.0;
            int owner = -1;
        };
        std::vector<Line> lines(d + 1);
        // Domain population: round-robin assignment puts ceil(n/d)
        // processors on the widest domain.
        const unsigned span = (n + d - 1) / d;
        const double domain_remote_ns = span_remote_transfer_ns(cfg, span);
        const double wm_remote_ns = span_remote_transfer_ns(cfg, n);

        enum class Op { Commit, WMark };
        std::vector<double> req_at(n);
        std::vector<Op> req_op(n, Op::Commit);
        std::vector<unsigned> since_wm(n, 0);
        std::vector<bool> done(n, false);
        unsigned running = n;
        for (unsigned p = 0; p < n; ++p) {
            // BEGIN reads the read-shared watermark at local cost, then the
            // transaction body runs; the first line request is the commit's
            // fetch&inc on the processor's domain line.
            req_at[p] = cfg.counter_local_ns + work_ns(p);
        }

        const auto finish_commit = [&](unsigned p, double end) {
            const double commit_end = end + cfg.commit_fixed_ns;
            if (commit_end <= horizon_ns) ++res.per_proc_commits[p];
            res.proc_clock_ns[p] = commit_end;
            if (commit_end > horizon_ns) {
                done[p] = true;
                --running;
            } else {
                req_at[p] = commit_end + cfg.counter_local_ns + work_ns(p);
                req_op[p] = Op::Commit;
            }
        };

        while (running > 0) {
            unsigned p = n;
            for (unsigned i = 0; i < n; ++i) {
                if (done[i]) continue;
                if (p == n || req_at[i] < req_at[p]) p = i;
            }
            const double arrival = req_at[p];
            const unsigned l = req_op[p] == Op::WMark ? wm_line : p % d;
            const bool local = lines[l].owner == static_cast<int>(p);
            const double cost =
                local ? cfg.counter_local_ns
                      : (l == wm_line ? wm_remote_ns : domain_remote_ns);
            const double start = std::max(arrival, lines[l].free_at);
            const double end = start + cost;
            if (start < arrival || end < start || end < lines[l].free_at)
                res.clocks_monotone = false;
            lines[l].free_at = end;
            lines[l].owner = static_cast<int>(p);
            res.line_busy_ns +=
                std::max(0.0, std::min(end, horizon_ns) - start);
            if (local)
                ++res.line_local_hits;
            else
                ++res.line_remote_transfers;

            if (req_op[p] == Op::Commit && ++since_wm[p] >= wm_period) {
                since_wm[p] = 0;
                req_at[p] = end;
                req_op[p] = Op::WMark;
            } else {
                finish_commit(p, end);
            }
            if (res.proc_clock_ns[p] < 0) res.clocks_monotone = false;
        }
    } else if (cfg.time_base == SimTimeBase::LocalTimer) {
        // No shared state: processors simulate independently.
        for (unsigned p = 0; p < n; ++p) {
            double t = 0;
            while (t <= horizon_ns) {
                double next = t + cfg.timer_read_ns;  // BEGIN: timer read
                next += work_ns(p);                   // object accesses
                next += cfg.timer_read_ns;            // COMMIT: stamp read
                next += cfg.commit_fixed_ns;          // commit bookkeeping
                if (next < t) res.clocks_monotone = false;
                t = next;
                if (t <= horizon_ns) ++res.per_proc_commits[p];
            }
            res.proc_clock_ns[p] = t;
        }
    } else {
        // Shared counter: the line is the one shared resource. Each txn
        // issues two line requests (BEGIN load, COMMIT fetch&inc); grants
        // are FIFO in request-arrival order (ties: lowest processor id).
        enum class Op { Begin, Commit };
        std::vector<double> req_at(n, 0.0);   // next line-request arrival
        std::vector<Op> req_op(n, Op::Begin);
        std::vector<bool> done(n, false);
        const double remote_ns = counter_remote_transfer_ns(cfg);

        double line_free_at = 0.0;
        int line_owner = -1;
        unsigned running = n;

        while (running > 0) {
            // FIFO arbitration: serve the earliest outstanding request.
            unsigned p = n;
            for (unsigned i = 0; i < n; ++i) {
                if (done[i]) continue;
                if (p == n || req_at[i] < req_at[p]) p = i;
            }
            const double arrival = req_at[p];
            const bool local = line_owner == static_cast<int>(p);
            const double cost = local ? cfg.counter_local_ns : remote_ns;
            const double start = std::max(arrival, line_free_at);
            const double end = start + cost;
            if (start < arrival || end < start || end < line_free_at)
                res.clocks_monotone = false;
            line_free_at = end;
            line_owner = static_cast<int>(p);
            res.line_busy_ns +=
                std::max(0.0, std::min(end, horizon_ns) - start);
            if (local)
                ++res.line_local_hits;
            else
                ++res.line_remote_transfers;

            if (req_op[p] == Op::Begin) {
                // Snapshot taken; run the transaction body, then request
                // the commit stamp.
                req_at[p] = end + work_ns(p);
                req_op[p] = Op::Commit;
            } else {
                const double commit_end = end + cfg.commit_fixed_ns;
                if (commit_end <= horizon_ns) ++res.per_proc_commits[p];
                res.proc_clock_ns[p] = commit_end;
                if (commit_end > horizon_ns) {
                    done[p] = true;
                    --running;
                } else {
                    req_at[p] = commit_end;  // next txn begins immediately
                    req_op[p] = Op::Begin;
                }
            }
            if (res.proc_clock_ns[p] < 0) res.clocks_monotone = false;
        }
    }

    for (unsigned p = 0; p < n; ++p)
        res.committed_txns += res.per_proc_commits[p];
    if (horizon_ns > 0)
        res.mtx_per_sec =
            static_cast<double>(res.committed_txns) * 1e3 / horizon_ns;
    return res;
}

}  // namespace sim
}  // namespace chronostm
