#!/usr/bin/env python3
"""Bench-regression gate: compare google-benchmark --json blobs against
BENCH_baseline.json.

CI's Release job runs micro_stm / micro_timebase with --json and feeds the
blobs through this script. The committed baseline was recorded on a
different host than the CI runners, so the tolerance is deliberately
generous (default 3x): the gate exists to catch order-of-magnitude
regressions -- an accidentally reintroduced per-access allocation, an O(n)
scan where the hot path had O(1) -- not single-digit-percent noise.
Improvements never fail the gate. Multi-threaded (/threads:N) rows are
excluded unless --gate-threads is given: contended costs depend on real
core count and cache topology, so they don't compare across hosts. A
benchmark present in the baseline but missing from the current run fails
the gate (coverage loss must update the baseline in the same PR).

Two more SAME-RUN gates ride on the micro_stm blob. --orec-tolerance pairs
every BM_Orec_<X> row with its per-TVar LSA twin BM_<X> (drop "Orec_"):
the orec engine runs the identical workload through the same time base, so
the ratio isolates what the orec table costs over per-var metadata. The
design target is 1.15x on the read-only and update shapes; the gate bound
is 1.30x because the same-binary ratio measurement spreads ~±0.06 on the
1-CPU CI host (see --orec-tolerance help) -- the gate catches structural
lookup regressions, the committed baseline documents the actual ratio.
Pairs whose LSA side is below --orec-min-ns are skipped for the same
reason --facade-min-ns exists: a short transaction is mostly the
begin/commit constant plus loop microstructure (unroll/branch luck,
build-layout placement of the hot loop), which swamps the RELATIVE
per-access ratio while the absolute cost stays covered by the cross-run
gate. The /1000 read-only rows exist precisely to carry the read-only
shape's ratio coverage above that floor. Run the blob with
--benchmark_repetitions (CI uses 7) -- load_benchmarks keeps the min of
the repetitions per row, which cancels one-sided scheduler interference
before any ratio is formed. 3 reps proved too few on a 1-CPU runner: one
noise window can contaminate every rep of one row while leaving its
same-run ratio twin clean, flipping a true ~1.1x ratio past 1.5x.
--tl2-margin checks the paper-facing ordering: BM_Orec_Update_Batched8
must beat its BM_Tl2_Update counterpart (both pay per-location versioned
locks; orec draws stamps from the batched scalable counter instead of a
CAS on the global clock, which is the whole point of the comparison).
Rows without a counterpart in the run are skipped, not failed -- the
cross-run MISSING check still protects against silently dropping them.

Two commit-epoch-filter gates also run SAME-RUN on the micro_stm
blob. --epoch-gate pairs every BM_<X>_NoFilter row with its filter-on twin
BM_<X> (strip "_NoFilter") and requires the filter to speed the R=8192
extension rows up by at least the given factor (default 2.0): the filter
turns the O(R) read-set walk into one epoch comparison, so anything less
means the fast path is not being taken. Smaller-R rows are reported but
not gated (the walk is too cheap there for a robust ratio). --ro-margin
requires BM_ReadOnly_Commit_<E> at or below its BM_Update_Commit_<E> twin
(default 1.0): a read-only commit draws no stamp and takes no locks, so
it must not cost more than the single-var update that does.

Another same-run gate covers the striped filter. --stripe-gate
pairs every BM_<X>_Stripe1 row with its striped twin BM_<X> (strip
"_Stripe1") and requires the 64-stripe configuration to speed the R=8192
disjoint-writer extension rows up by at least the given factor (default
2.0): those rows run a background writer committing OUTSIDE the reader's
read set, the exact shape where a single epoch word degrades to the O(R)
walk on every extension while the striped filter keeps the O(1) fast path.

In addition to the cross-run regression gate, --facade-tolerance gates the
time-base facade's dispatch overhead WITHIN the current run: every
BM_Facade_<X> row is paired with its direct-template twin BM_<X> from the
same blob and their ratio must stay under the bound. Same-run ratios are
immune to host differences, so this tolerance is tight (default 1.15, the
facade's documented <= 15% budget). Direct rows cheaper than
--facade-min-ns are skipped for the same reason --min-ns exists: at ~2ns
the dispatch's roughly constant ~0.5-1.5ns cost is a large RELATIVE ratio
while the absolute effect is bounded and separately covered in context by
the micro_stm gate.

Skipped facade pairs are still REPORTED, so the absolute dispatch cost on
the cheapest counters stays visible in every CI log.

Missing-benchmark detection runs on the UNFILTERED row sets: a baseline
row that no longer exists in the fresh run fails the gate even when it is
a /threads: row excluded from time gating -- renames cannot silently
shrink coverage.

Usage:
    check_bench.py --baseline BENCH_baseline.json [--tolerance 3.0] \
        micro_stm=path/to/micro_stm.json [micro_timebase=path.json ...]

Each positional argument pairs a driver name (a key under "drivers" in the
baseline) with that driver's fresh --json output. Exit codes: 0 all within
tolerance, 1 at least one regression, 2 usage/file errors.
"""

import argparse
import json
import sys


def load_benchmarks(blob):
    """name -> cpu_time in ns, per-iteration rows only (no aggregates).

    When the run used --benchmark_repetitions=N, the same name appears N
    times; keep the MINIMUM. Scheduler interference on shared runners only
    ever slows a row down, so min-of-reps is the robust estimator of the
    undisturbed cost and is what every ratio gate below should compare.
    """
    out = {}
    for row in blob.get("benchmarks", []):
        if row.get("run_type", "iteration") != "iteration":
            continue
        unit = row.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit)
        if scale is None:
            print(f"warning: unknown time_unit {unit!r} for "
                  f"{row.get('name')}, skipping", file=sys.stderr)
            continue
        ns = float(row["cpu_time"]) * scale
        name = row["name"]
        out[name] = min(out[name], ns) if name in out else ns
    return out


def load_min_over(paths):
    """load_benchmarks over several blobs, keeping the min per row."""
    out = {}
    for path in paths:
        with open(path) as f:
            for name, ns in load_benchmarks(json.load(f)).items():
                out[name] = min(out[name], ns) if name in out else ns
    return out


def main():
    ap = argparse.ArgumentParser(
        description="Compare bench --json output against BENCH_baseline.json")
    ap.add_argument("--baseline", required=True,
                    help="path to BENCH_baseline.json")
    ap.add_argument("--tolerance", type=float, default=3.0,
                    help="fail when current/baseline exceeds this ratio "
                         "(default: 3.0)")
    ap.add_argument("--min-ns", type=float, default=2.0,
                    help="skip rows whose baseline cpu_time is below this "
                         "(default: 2.0). Sub-ns rows (a single atomic "
                         "load) are dominated by benchmark-loop overhead, "
                         "where host/toolchain differences alone approach "
                         "the tolerance")
    ap.add_argument("--facade-tolerance", type=float, default=1.15,
                    help="fail when a BM_Facade_<X> row exceeds this ratio "
                         "of its direct BM_<X> twin in the SAME run "
                         "(default: 1.15)")
    ap.add_argument("--facade-min-ns", type=float, default=8.0,
                    help="skip facade pairs whose direct row is below this "
                         "(default: 8.0): the dispatch adds a bounded "
                         "~1-2ns constant (one predicted branch plus loop "
                         "placement around a lock-prefixed RMW), which "
                         "swamps the RELATIVE ratio on near-empty "
                         "operations while the absolute effect stays "
                         "covered by the micro_stm end-to-end gate")
    ap.add_argument("--orec-tolerance", type=float, default=1.30,
                    help="fail when a BM_Orec_<X> row exceeds this ratio "
                         "of its per-TVar LSA twin BM_<X> in the SAME run "
                         "(default: 1.30). The design target is 1.15x; "
                         "the gate adds headroom for measured same-binary "
                         "noise: on the 1-CPU CI host the /1000 read-only "
                         "ratio of a FIXED binary spreads 1.14-1.25 "
                         "across runs (min-of-7, interleaved), so a 1.15 "
                         "bound flakes on unchanged code. 1.30 still "
                         "catches what the gate exists for -- a "
                         "structural lookup regression (accidental O(n) "
                         "probe, false sharing) lands at 2x+")
    ap.add_argument("--orec-min-ns", type=float, default=600.0,
                    help="skip orec-vs-LSA pairs whose LSA side is below "
                         "this (default: 600). Short rows (the /1-/100 "
                         "read-only shapes at ~50-500ns) are dominated by "
                         "the per-txn begin/commit constant and loop "
                         "microstructure, not the per-access metadata "
                         "lookup the gate isolates: on a 1-CPU host a ~7%% "
                         "build-layout swing on either side flips their "
                         "ratio across 1.15x even when the orec absolute "
                         "cost is unchanged. The /1000 read-only and /100 "
                         "update rows sit above the floor and carry the "
                         "shape coverage; the short rows' absolute cost "
                         "stays covered by the cross-run regression gate")
    ap.add_argument("--tl2-margin", type=float, default=1.0,
                    help="fail when BM_Orec_Update_Batched8 exceeds this "
                         "ratio of its BM_Tl2_Update counterpart in the "
                         "SAME run (default: 1.0 -- orec on the batched "
                         "time base must outright beat TL2)")
    ap.add_argument("--epoch-gate", type=float, default=2.0,
                    help="fail when a filter-on extension row is not at "
                         "least this many times faster than its _NoFilter "
                         "twin on the R=8192 rows in the SAME run "
                         "(default: 2.0 -- the O(1) epoch check vs the "
                         "O(R) walk)")
    ap.add_argument("--stripe-gate", type=float, default=2.0,
                    help="fail when a striped disjoint-writer extension row "
                         "is not at least this many times faster than its "
                         "_Stripe1 twin on the R=8192 rows in the SAME run "
                         "(default: 2.0). With one epoch word, an unrelated "
                         "writer's bump forces the O(R) walk on every "
                         "extension; with 64 range-hashed stripes the "
                         "writer's stripe stays outside the reader's "
                         "signature and the extension stays O(stripes "
                         "touched)")
    ap.add_argument("--ro-margin", type=float, default=1.0,
                    help="fail when BM_ReadOnly_Commit_<E> exceeds this "
                         "ratio of BM_Update_Commit_<E> in the SAME run "
                         "(default: 1.0 -- a read-only commit draws no "
                         "stamp, so it must not cost more than an update)")
    ap.add_argument("--failpoints-blob", action="append", default=[],
                    help="micro_stm --json blob from one round of a "
                         "CHRONOSTM_FAILPOINTS build's commit rows; repeat "
                         "once per round. Pairs every BM_Update_Commit_* "
                         "row by IDENTICAL name with the "
                         "--failpoints-plain-blob rounds, min per row across "
                         "rounds on each side, and requires the "
                         "instrumented build within --failpoints-gate: "
                         "unarmed failpoints must cost noise at most, and "
                         "the OFF build compiles the sites out entirely "
                         "(the macro expands to the constant false)")
    ap.add_argument("--failpoints-plain-blob", action="append", default=[],
                    help="micro_stm --json blob of the plain build's commit "
                         "rows from the round run next to a "
                         "--failpoints-blob round; repeat once per round. "
                         "Alternating the two binaries keeps host drift "
                         "out of the ratio: plain rows taken from the full "
                         "micro_stm run minutes earlier failed the 1.05 "
                         "gate at 1.19x on unchanged code")
    ap.add_argument("--failpoints-gate", type=float, default=1.05,
                    help="fail when a failpoints-build commit row exceeds "
                         "this ratio of its plain-build twin (default: "
                         "1.05)")
    ap.add_argument("--ds-blob", default=None,
                    help="tab_datastructures --json blob. Two SAME-RUN "
                         "gates ride on it. (1) Every facade row pairs "
                         "with its direct twin by (structure, engine_spec, "
                         "threads, update_pct); per-cell ratios are "
                         "reported and the GEOMEAN per engine must stay "
                         "under --ds-facade-tolerance -- per-cell gating "
                         "would flake on the short queue cells, but the "
                         "dispatch cost is a constant per transaction, so "
                         "the engine-level geomean is the stable signal. "
                         "The glock baseline is reported, not gated: its "
                         "near-empty transactions make the bounded "
                         "dispatch constant a large relative cost (the "
                         "--facade-min-ns phenomenon at engine "
                         "granularity) while lsa/orec gate the identical "
                         "dispatch machinery. "
                         "(2) The orec skiplist must beat the glock "
                         "baseline by --ds-glock-margin on every "
                         "threads>=2 cell (facade dispatch on both sides); "
                         "skipped with a notice when the blob's "
                         "host_threads < 2 -- a 1-CPU host never pays the "
                         "big lock's real convoy cost")
    ap.add_argument("--ds-facade-tolerance", type=float, default=1.15,
                    help="fail when an engine's geomean direct/facade "
                         "throughput ratio exceeds this (default: 1.15, "
                         "the facade's documented <= 15%% dispatch budget)")
    ap.add_argument("--ds-glock-margin", type=float, default=1.0,
                    help="fail when glock skiplist throughput exceeds this "
                         "ratio of orec's on a threads>=2 cell (default: "
                         "1.0 -- orec must outright win under contention)")
    ap.add_argument("--gate-threads", action="store_true",
                    help="also gate multi-threaded (/threads:N) rows. Off "
                         "by default: contended costs are machine-shaped "
                         "(a 1-CPU baseline host never pays real cache-line "
                         "ping-pong), so cross-host ratios on those rows "
                         "measure the hardware, not the code")
    ap.add_argument("pairs", nargs="*", metavar="driver=current.json",
                    help="driver name (key under baseline 'drivers') and its "
                         "fresh --json blob; may be empty when only "
                         "--ds-blob gates are wanted")
    args = ap.parse_args()
    if bool(args.failpoints_blob) != bool(args.failpoints_plain_blob):
        print("error: --failpoints-blob and --failpoints-plain-blob come "
              "together, one of each per alternating round", file=sys.stderr)
        return 2

    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read baseline: {e}", file=sys.stderr)
        return 2

    regressions = 0
    compared = 0
    for pair in args.pairs:
        if "=" not in pair:
            print(f"error: expected driver=path, got {pair!r}",
                  file=sys.stderr)
            return 2
        driver, path = pair.split("=", 1)
        base_driver = baseline.get("drivers", {}).get(driver)
        if base_driver is None:
            print(f"error: driver {driver!r} not in baseline",
                  file=sys.stderr)
            return 2
        try:
            with open(path) as f:
                current = json.load(f)
        except (OSError, ValueError) as e:
            print(f"error: cannot read {path}: {e}", file=sys.stderr)
            return 2

        base = load_benchmarks(base_driver)
        cur = load_benchmarks(current)
        # A benchmark that exists in the baseline but not in the fresh run
        # is coverage loss, not noise: renaming or #ifdef-ing out a gated
        # benchmark must update BENCH_baseline.json in the same PR. This
        # runs BEFORE the /threads: filter on purpose -- a renamed
        # contended row is coverage loss too, even though its time is not
        # gated across hosts.
        for name in sorted(set(base) - set(cur)):
            print(f"{driver}: baseline benchmark {name!r} is missing from "
                  f"the current run -- renamed or removed? Update "
                  f"BENCH_baseline.json in the same PR.  MISSING",
                  file=sys.stderr)
            regressions += 1
        if not args.gate_threads:
            base = {k: v for k, v in base.items() if "/threads:" not in k}
            cur = {k: v for k, v in cur.items() if "/threads:" not in k}

        # Facade dispatch gate: same-run BM_Facade_<X> vs BM_<X> pairs.
        facade_pairs = sorted(
            n for n in cur
            if n.startswith("BM_Facade_") and
            "BM_" + n[len("BM_Facade_"):] in cur)
        if facade_pairs:
            print(f"\n{driver} facade dispatch "
                  f"(tolerance {args.facade_tolerance:g}x, same run):")
            print(f"  {'benchmark':<44} {'direct ns':>10} {'facade ns':>10} "
                  f"{'ratio':>7}")
        for name in facade_pairs:
            direct = cur["BM_" + name[len("BM_Facade_"):]]
            erased = cur[name]
            if direct <= 0:
                continue
            if direct < args.facade_min_ns:
                print(f"  {name:<44} {direct:>10.2f} {erased:>10.2f} "
                      f"{'—':>7}  skipped (< --facade-min-ns)")
                continue
            ratio = erased / direct
            verdict = ("REGRESSION" if ratio > args.facade_tolerance
                       else "ok")
            if verdict != "ok":
                regressions += 1
            compared += 1
            print(f"  {name:<44} {direct:>10.2f} {erased:>10.2f} "
                  f"{ratio:>6.2f}x  {verdict}")

        # Orec-vs-LSA gate: same-run BM_Orec_<X> vs BM_<X> pairs. The
        # batched-time-base row has no LSA twin (its counterpart is TL2,
        # gated below), so unpaired rows are simply not listed here.
        orec_pairs = sorted(
            n for n in cur
            if n.startswith("BM_Orec_") and
            "BM_" + n[len("BM_Orec_"):] in cur)
        if orec_pairs:
            print(f"\n{driver} orec vs per-TVar LSA "
                  f"(tolerance {args.orec_tolerance:g}x, same run):")
            print(f"  {'benchmark':<44} {'lsa ns':>10} {'orec ns':>10} "
                  f"{'ratio':>7}")
        for name in orec_pairs:
            lsa = cur["BM_" + name[len("BM_Orec_"):]]
            orec = cur[name]
            if lsa <= 0:
                continue
            if lsa < args.orec_min_ns:
                print(f"  {name:<44} {lsa:>10.2f} {orec:>10.2f} "
                      f"{'—':>7}  skipped (< --orec-min-ns)")
                continue
            ratio = orec / lsa
            verdict = ("REGRESSION" if ratio > args.orec_tolerance
                       else "ok")
            if verdict != "ok":
                regressions += 1
            compared += 1
            print(f"  {name:<44} {lsa:>10.2f} {orec:>10.2f} "
                  f"{ratio:>6.2f}x  {verdict}")

        # Orec-beats-TL2 gate: the paper-facing ordering, same run.
        tl2_pairs = sorted(
            n for n in cur
            if n.startswith("BM_Orec_Update_Batched8") and
            "BM_Tl2_Update" + n[len("BM_Orec_Update_Batched8"):] in cur)
        if tl2_pairs:
            print(f"\n{driver} orec/batched vs TL2 "
                  f"(margin {args.tl2_margin:g}x, same run):")
            print(f"  {'benchmark':<44} {'tl2 ns':>10} {'orec ns':>10} "
                  f"{'ratio':>7}")
        for name in tl2_pairs:
            tl2 = cur["BM_Tl2_Update" +
                      name[len("BM_Orec_Update_Batched8"):]]
            orec = cur[name]
            if tl2 <= 0:
                continue
            ratio = orec / tl2
            verdict = "REGRESSION" if ratio > args.tl2_margin else "ok"
            if verdict != "ok":
                regressions += 1
            compared += 1
            print(f"  {name:<44} {tl2:>10.2f} {orec:>10.2f} "
                  f"{ratio:>6.2f}x  {verdict}")

        # Epoch-filter gate: same-run BM_<X>_NoFilter vs BM_<X> pairs.
        # Only the R=8192 rows are gated (the walk must dominate for the
        # ratio to be robust); smaller-R pairs are reported for context.
        epoch_pairs = sorted(
            n for n in cur
            if "_NoFilter" in n and n.replace("_NoFilter", "") in cur)
        if epoch_pairs:
            print(f"\n{driver} epoch filter on vs off "
                  f"(speedup >= {args.epoch_gate:g}x at /8192, same run):")
            print(f"  {'benchmark':<44} {'on ns':>10} {'off ns':>10} "
                  f"{'speedup':>8}")
        for name in epoch_pairs:
            on = cur[name.replace("_NoFilter", "")]
            off = cur[name]
            if on <= 0:
                continue
            speedup = off / on
            if not name.endswith("/8192"):
                print(f"  {name:<44} {on:>10.2f} {off:>10.2f} "
                      f"{speedup:>7.2f}x  reported (gate is /8192 only)")
                continue
            verdict = ("REGRESSION" if speedup < args.epoch_gate else "ok")
            if verdict != "ok":
                regressions += 1
            compared += 1
            print(f"  {name:<44} {on:>10.2f} {off:>10.2f} "
                  f"{speedup:>7.2f}x  {verdict}")

        # Stripe gate: same-run BM_<X>_Stripe1 vs BM_<X> pairs. The
        # disjoint-writer rows are the shape the striping exists for: a
        # background writer outside the read set defeats the single-word
        # filter but not the striped one. Gated at /8192 like the epoch
        # gate; smaller-R rows (if any) are reported for context.
        stripe_pairs = sorted(
            n for n in cur
            if "_Stripe1" in n and n.replace("_Stripe1", "") in cur)
        if stripe_pairs:
            print(f"\n{driver} striped vs single-word epoch filter "
                  f"(speedup >= {args.stripe_gate:g}x at /8192, same run):")
            print(f"  {'benchmark':<44} {'striped ns':>10} "
                  f"{'stripe1 ns':>10} {'speedup':>8}")
        for name in stripe_pairs:
            striped = cur[name.replace("_Stripe1", "")]
            one = cur[name]
            if striped <= 0:
                continue
            speedup = one / striped
            if not name.endswith("/8192"):
                print(f"  {name:<44} {striped:>10.2f} {one:>10.2f} "
                      f"{speedup:>7.2f}x  reported (gate is /8192 only)")
                continue
            verdict = ("REGRESSION" if speedup < args.stripe_gate else "ok")
            if verdict != "ok":
                regressions += 1
            compared += 1
            print(f"  {name:<44} {striped:>10.2f} {one:>10.2f} "
                  f"{speedup:>7.2f}x  {verdict}")

        # Read-only commit gate: no stamp, no locks -> must not cost more
        # than the single-var update twin.
        ro_pairs = sorted(
            n for n in cur
            if n.startswith("BM_ReadOnly_Commit_") and
            "BM_Update_Commit_" + n[len("BM_ReadOnly_Commit_"):] in cur)
        if ro_pairs:
            print(f"\n{driver} read-only vs update commit "
                  f"(margin {args.ro_margin:g}x, same run):")
            print(f"  {'benchmark':<44} {'update ns':>10} {'ro ns':>10} "
                  f"{'ratio':>7}")
        for name in ro_pairs:
            upd = cur["BM_Update_Commit_" +
                      name[len("BM_ReadOnly_Commit_"):]]
            ro = cur[name]
            if upd <= 0:
                continue
            ratio = ro / upd
            verdict = "REGRESSION" if ratio > args.ro_margin else "ok"
            if verdict != "ok":
                regressions += 1
            compared += 1
            print(f"  {name:<44} {upd:>10.2f} {ro:>10.2f} "
                  f"{ratio:>6.2f}x  {verdict}")

        # Failpoints overhead gate: CROSS-BLOB, same host and CI run. The
        # fp blobs come from a CHRONOSTM_FAILPOINTS build with no site
        # armed, the plain blobs from the ordinary build, the two binaries
        # run alternately round by round; each side keeps its min per row
        # across rounds. Rows pair by identical name, commit shapes only
        # (the sites sit on the commit and read paths; the single-var
        # commit rows are the most sensitive to a constant per-site cost).
        if driver == "micro_stm" and args.failpoints_blob:
            try:
                fp_cur = load_min_over(args.failpoints_blob)
                plain_cur = load_min_over(args.failpoints_plain_blob)
            except (OSError, ValueError) as e:
                print(f"error: cannot read a failpoints blob: {e}",
                      file=sys.stderr)
                return 2
            fp_pairs = sorted(
                n for n in plain_cur
                if n.startswith("BM_Update_Commit_") and n in fp_cur)
            if not fp_pairs:
                print("error: the --failpoints-blob and "
                      "--failpoints-plain-blob rounds share no "
                      "BM_Update_Commit_* rows", file=sys.stderr)
                return 2
            print(f"\n{driver} failpoints build vs plain build "
                  f"(gate {args.failpoints_gate:g}x, min of "
                  f"{len(args.failpoints_plain_blob)} plain / "
                  f"{len(args.failpoints_blob)} fp alternating rounds):")
            print(f"  {'benchmark':<44} {'plain ns':>10} {'fp ns':>10} "
                  f"{'ratio':>7}")
            for name in fp_pairs:
                plain = plain_cur[name]
                fp_ns = fp_cur[name]
                if plain <= 0:
                    continue
                ratio = fp_ns / plain
                verdict = ("REGRESSION" if ratio > args.failpoints_gate
                           else "ok")
                if verdict != "ok":
                    regressions += 1
                compared += 1
                print(f"  {name:<44} {plain:>10.2f} {fp_ns:>10.2f} "
                      f"{ratio:>6.2f}x  {verdict}")

        print(f"\n{driver} (tolerance {args.tolerance:g}x):")
        print(f"  {'benchmark':<44} {'base ns':>12} {'now ns':>12} "
              f"{'ratio':>7}")
        for name in sorted(set(base) & set(cur)):
            if base[name] <= 0:
                continue
            if base[name] < args.min_ns:
                print(f"  {name:<44} {base[name]:>12.1f} {cur[name]:>12.1f} "
                      f"{'—':>7}  skipped (< --min-ns)")
                continue
            ratio = cur[name] / base[name]
            verdict = "REGRESSION" if ratio > args.tolerance else "ok"
            if verdict != "ok":
                regressions += 1
            compared += 1
            print(f"  {name:<44} {base[name]:>12.1f} {cur[name]:>12.1f} "
                  f"{ratio:>6.2f}x  {verdict}")

    # Datastructure gates: SAME-RUN pairs inside the tab_datastructures
    # blob; no cross-host baseline is involved.
    if args.ds_blob:
        try:
            with open(args.ds_blob) as f:
                ds = json.load(f)
        except (OSError, ValueError) as e:
            print(f"error: cannot read {args.ds_blob}: {e}", file=sys.stderr)
            return 2
        rows = ds.get("rows", [])
        if not rows:
            print("error: --ds-blob has no rows", file=sys.stderr)
            return 2
        mops = {}
        for r in rows:
            key = (r["structure"], r["engine_spec"], r["dispatch"],
                   r["threads"], r["update_pct"])
            mops[key] = float(r["mops"])

        # Gate 1: facade within --ds-facade-tolerance of its direct twin,
        # geomean per engine. Per-cell ratios are printed so a single bad
        # cell is visible even when the geomean absorbs it.
        print(f"\ntab_datastructures facade dispatch (geomean per engine "
              f"<= {args.ds_facade_tolerance:g}x, same run):")
        print(f"  {'cell':<52} {'direct':>8} {'facade':>8} {'ratio':>7}")
        per_engine = {}
        for (st, espec, disp, thr, pct), facade_mops in sorted(mops.items()):
            if disp != "facade":
                continue
            direct_mops = mops.get((st, espec, "direct", thr, pct))
            if direct_mops is None or facade_mops <= 0:
                continue
            ratio = direct_mops / facade_mops  # >1 means the facade lost
            per_engine.setdefault(espec, []).append(ratio)
            cell = f"{st}/{espec}/t{thr}/u{pct}"
            print(f"  {cell:<52} {direct_mops:>8.3f} {facade_mops:>8.3f} "
                  f"{ratio:>6.2f}x")
        if not per_engine:
            print("error: --ds-blob has no facade/direct pairs",
                  file=sys.stderr)
            return 2
        gated_engines = 0
        for espec, ratios in sorted(per_engine.items()):
            geo = 1.0
            for r in ratios:
                geo *= r
            geo **= 1.0 / len(ratios)
            # The big-lock baseline is the --facade-min-ns phenomenon at
            # engine granularity: its transactions are near-empty (mutex
            # plus a couple of word accesses), so the dispatch's bounded
            # per-access constant is a large RELATIVE cost while the
            # engines people actually run stay gated on the identical
            # dispatch machinery. Reported, not gated.
            if espec.split(":")[0] in ("glock", "globallock", "lock"):
                print(f"  geomean {espec:<44} {'':>8} {'':>8} {geo:>6.2f}x  "
                      f"reported (baseline engine, near-empty ops)")
                continue
            verdict = ("REGRESSION" if geo > args.ds_facade_tolerance
                       else "ok")
            if verdict != "ok":
                regressions += 1
            compared += 1
            gated_engines += 1
            print(f"  geomean {espec:<44} {'':>8} {'':>8} {geo:>6.2f}x  "
                  f"{verdict}")
        if gated_engines == 0:
            print("error: --ds-blob gated no engines (only baseline "
                  "engines present?)", file=sys.stderr)
            return 2

        # Gate 2: the orec skiplist beats the glock baseline wherever the
        # host can actually run two threads. Both sides use the facade
        # dispatch (the public path; dispatch cost cancels in the ratio).
        host_threads = int(ds.get("host_threads", 0))
        orec_cells = sorted(
            (thr, pct, espec) for (st, espec, disp, thr, pct) in mops
            if st == "skiplist" and disp == "facade" and thr >= 2 and
            espec.split(":")[0] == "orec")
        glock_by_cell = {
            (thr, pct): mops[(st, espec, disp, thr, pct)]
            for (st, espec, disp, thr, pct) in mops
            if st == "skiplist" and disp == "facade" and
            espec.split(":")[0] == "glock"}
        if host_threads < 2:
            print(f"\ntab_datastructures orec vs glock skiplist: SKIPPED "
                  f"(host_threads={host_threads} < 2; the big lock never "
                  f"pays real contention on one CPU)")
        elif not orec_cells or not glock_by_cell:
            print("error: --ds-blob lacks orec or glock skiplist rows at "
                  ">= 2 threads", file=sys.stderr)
            return 2
        else:
            print(f"\ntab_datastructures orec vs glock skiplist "
                  f"(margin {args.ds_glock_margin:g}x at >= 2 threads, "
                  f"same run):")
            print(f"  {'cell':<52} {'glock':>8} {'orec':>8} {'ratio':>7}")
            for thr, pct, espec in orec_cells:
                glock = glock_by_cell.get((thr, pct))
                if glock is None:
                    continue
                orec = mops[("skiplist", espec, "facade", thr, pct)]
                if orec <= 0:
                    continue
                ratio = glock / orec  # >margin means glock won
                verdict = ("REGRESSION" if ratio > args.ds_glock_margin
                           else "ok")
                if verdict != "ok":
                    regressions += 1
                compared += 1
                cell = f"skiplist/{espec}-vs-glock/t{thr}/u{pct}"
                print(f"  {cell:<52} {glock:>8.3f} {orec:>8.3f} "
                      f"{ratio:>6.2f}x  {verdict}")

    if regressions:
        print(f"\nFAIL: {regressions} benchmarks regressed past "
              f"{args.tolerance:g}x or went missing ({compared} compared)",
              file=sys.stderr)
        return 1
    if compared == 0:
        print("error: nothing compared (no benchmark names in common)",
              file=sys.stderr)
        return 2
    print(f"\nOK: {compared} benchmarks within {args.tolerance:g}x of "
          f"baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
