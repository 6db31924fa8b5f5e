"""Seeded closed-loop benchmark for uag.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The run builds the workload's inputs from
the seed, then runs its op list in whole cycles, one op at a time on one
thread, until at least two cycles are done and ``--seconds`` have passed.
Every op's verdict is then checked against an independent route (see
workloads.py) and the outputs are digested. The last line of stdout is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones named in
BENCHMARK.json. With ``--trace 1`` cycles alternate between untraced and
traced; the traced ones give the per-layer metrics (each per traced cycle)
and the untraced ones the tracing overhead. Op rows, and in traced runs the
spans, are written under perfbench/out/.

``setup_s`` is the median over several fresh interpreters of the time from
process start through ``import uag`` and building the workload's fixtures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 7
MIN_CYCLES = 2
GAUGE_EVERY_S = 0.1
GAUGE_NOMINAL_S = 0.002
_GAUGE_KEYS = [((i * 7919) % 1009, (i * 104729) % 997) for i in range(4000)]


def gauge_chunk() -> float:
    """Time a fixed slice of dict, tuple and sort work that never touches uag.

    On a shared host the speed of such memory-bound Python code swings by up
    to 1.8x over tens of seconds. Timings are reported scaled by
    GAUGE_NOMINAL_S / (recent gauge time), i.e. in milliseconds of a machine
    on which this slice takes 2 ms, so that runs at different moments compare.
    """
    t0 = time.perf_counter()
    d: dict = {}
    for k in _GAUGE_KEYS:
        d[k] = d.get(k, 0) + 1
    {tuple(sorted(k)) for k in _GAUGE_KEYS}
    return time.perf_counter() - t0


class Gauge:
    """Gauge samples taken every GAUGE_EVERY_S during the timed loop."""

    def __init__(self):
        self.samples = [gauge_chunk() for _ in range(5)]
        self.last = time.perf_counter()

    def scale(self) -> float:
        """Scale from the last few samples, taking a new one when one is due."""
        if time.perf_counter() - self.last >= GAUGE_EVERY_S:
            self.samples.append(gauge_chunk())
            self.last = time.perf_counter()
        return GAUGE_NOMINAL_S / statistics.median(self.samples[-5:])


def die(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        die(f"cannot read BENCHMARK.json: {e}")


def import_workloads():
    """Import uag from this checkout's src/ (never an installed copy)."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import uag

    if os.path.dirname(os.path.dirname(os.path.abspath(uag.__file__))) != SRC:
        die(f"imported uag from {uag.__file__}, not from {SRC}")
    import workloads

    return workloads


def setup_probe(args) -> None:
    """Child mode: import, build the fixtures, report ready, clean up."""
    workloads = import_workloads()
    workdir = os.path.join(OUT, f"setup-{os.getpid()}")
    workloads.WORKLOADS[args.workload](args.seed, workdir)
    print("ready", flush=True)
    print(statistics.median(gauge_chunk() for _ in range(5)), flush=True)
    shutil.rmtree(workdir, ignore_errors=True)


def measure_setup(args) -> list[tuple[float, float]]:
    """(seconds to ready, gauge scale) per fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            gauge = float(proc.stdout.readline() or "nan")
            times.append((elapsed, GAUGE_NOMINAL_S / gauge))
            proc.stdout.read()
            code = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line != "ready" or code != 0:
            die(f"setup probe failed (exit {code})")
    return times


def run_cycle(ops, gauge, first, tracer=None, cycle=0):
    """Run every op once. Results are kept from the first cycle only (for the
    checks, with the hash of each canonical output in ``first``); a later
    cycle keeps only whether its output hashes the same, so memory and heap
    size do not grow with the number of cycles."""
    out = []
    for i, op in enumerate(ops):
        run = op.run
        if tracer is not None:
            tracer.op_id = cycle * len(ops) + i
            before = (dict(tracer.counts), dict(tracer.self_s), dict(tracer.total_s))
            run = tracer.wrap("bench.op", op.run, None)
        scale = gauge.scale()
        t0 = time.perf_counter()
        try:
            result, error = run(), None
        except Exception as e:  # an op that raises is a failed op, recorded below
            result, error = None, f"{type(e).__name__}: {str(e)[:160]}"
        dt = time.perf_counter() - t0
        # an op longer than the sampling interval is scaled by the mean of the
        # host speed before and after it
        scale = (scale + gauge.scale()) / 2
        delta = None
        if tracer is not None:
            delta = tuple(_diff(now, then) for now, then in zip((tracer.counts, tracer.self_s, tracer.total_s), before))
        if error is None:
            if i not in first:
                first[i] = _hash(op.canon(result))
            elif cycle > 0:
                result = _hash(op.canon(result)) == first[i]
        out.append((dt, result, error, delta, scale))
    return out


def _diff(now: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in now.items() if v != before.get(k, 0)}


def _hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def judge(ops, cycles, first):
    """Check every result; returns per-cycle statuses, mismatches and the digest.

    First-cycle results are checked against the independent routes; a later
    cycle must reproduce the first cycle's canonical output exactly.
    """
    checked: dict[int, str | None] = {}
    statuses = []
    mismatches = 0
    for c, cyc in enumerate(cycles):
        row = []
        for i, (_, result, error, _, _) in enumerate(cyc):
            op = ops[i]
            if error is not None:
                row.append(f"raised {error}")
                continue
            try:
                if i not in checked:
                    checked[i] = op.check(result)
                    msg = checked[i]
                elif result is not True:
                    msg = "output differs from the first cycle"
                else:
                    msg = checked[i]
            except Exception as e:  # a check that cannot read the result is a mismatch
                msg = f"check raised {type(e).__name__}: {e}"
            if msg:
                mismatches += 1
                row.append(f"wrong: {msg}")
            else:
                row.append("ok")
        statuses.append(row)
    h = hashlib.sha256()
    for i, op in enumerate(ops):
        h.update(f"{i}:{op.kind}:{first.get(i, 'no result')}\n".encode())
    return statuses, mismatches, h.hexdigest()[:16]


def quantile_ms(durations, q):
    cuts = statistics.quantiles(durations, n=100, method="inclusive")
    return cuts[q - 1] * 1000.0


def end_to_end(durations, failed, setups, rss_mb):
    """Durations and setups are gauge-scaled seconds."""
    return {
        "ops_per_s": len(durations) / sum(durations),
        "verdict_p50_ms": quantile_ms(durations, 50),
        "verdict_p90_ms": quantile_ms(durations, 90),
        "failed_frac": failed / len(durations),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
    }


def per_layer(tracer, traced, untraced, cap_exceeded, terms_mod):
    n = len(traced)
    t_wall = sum(sum(r[0] for r in cyc) for cyc in traced)
    # the overhead compares gauge-scaled times, so a host speed change between
    # the untraced and traced cycles does not show up as tracing cost
    t_scaled = sum(sum(r[0] * r[4] for r in cyc) for cyc in traced)
    u_scaled = sum(sum(r[0] * r[4] for r in cyc) for cyc in untraced)
    s, c = tracer.self_s, tracer.counts
    m = {}
    for mod in ("cli", "sexpr", "reports", "spaces", "terms", "algebras", "congruences", "geometry", "rules", "logic", "config"):
        m[f"{mod}.self_s"] = tracer.layer_self(mod) / n
    m["bench.self_s"] = s["bench.op"] / n
    m["trace.bookkeeping_s"] = tracer.bookkeeping_s / n
    m["trace.self_sum_frac"] = (sum(s.values()) + tracer.bookkeeping_s) / t_wall
    m["trace.overhead_frac"] = (t_scaled / n) / (u_scaled / len(untraced)) - 1.0
    m["trace.spans"] = tracer.span_count() / n
    for key in (
        "sexpr.bytes_in",
        "reports.bytes_out",
        "spaces.geocontext.points",
        "spaces.pointset.built",
        "spaces.pointset.indices",
        "algebras.subalgebra_generated.members",
        "algebras.enumerate_homs.homs",
        "algebras.product.cells",
        "congruences.meet_kernels.product_cells",
        "congruences.meet_kernels.lazy",
        "congruences.ground_closure.terms",
        "geometry.variety_of.points_scanned",
        "geometry.coordinate_algebra.elements",
        "geometry.coordinate_algebra.cells",
        "geometry.all_closed_point_sets.closures",
        "geometry.all_closed_point_sets.closed_sets",
        "rules.derive_closure.rounds",
        "rules.derive_closure.clauses",
        "rules.derive_closure.exhausted",
        "logic.eval_formula.points",
    ):
        m[key] = c[key] / n
    m["terms.calls"] = tracer.module_calls("terms") / n
    m["terms.intern_size"] = len(terms_mod._VARS) + len(terms_mod._APPS)
    calls = c["algebras.hom_extension.calls"]
    m["algebras.hom_extension.calls"] = calls / n
    m["algebras.hom_extension.hit_ratio"] = c["algebras.hom_extension.hits"] / calls if calls else 0.0
    closures = c["geometry.all_closed_point_sets.closures"]
    m["geometry.all_closed_point_sets.yield_ratio"] = (
        c["geometry.all_closed_point_sets.closed_sets"] / closures if closures else 0.0
    )
    m["logic.exists_set.calls"] = c["logic.exists_set.calls"] / n
    for name in (
        "algebras.product",
        "congruences.h_ker",
        "congruences.ground_closure",
        "geometry.coordinate_algebra",
        "geometry.variety_of_kernel",
        "geometry.separating_pair",
        "rules.soundness_check",
        "logic.halmos_axiom_violations",
    ):
        m[f"{name}.self_s"] = s[name] / n
    m["algebras.product.total_s"] = tracer.total_s["algebras.product"] / n
    m["config.cap_exceeded"] = cap_exceeded / n
    return m


def write_rows(path, args, ops, cycles, statuses, traced_flags):
    with open(path, "w", encoding="utf-8") as fh:
        for c, cyc in enumerate(cycles):
            for i, (dt, _, _, delta, scale) in enumerate(cyc):
                row = {
                    "op": c * len(ops) + i,
                    "cycle": c,
                    "workload": args.workload,
                    "seed": args.seed,
                    "kind": ops[i].kind,
                    "input": ops[i].summary,
                    "known_defect": ops[i].expect_fail,
                    "traced": traced_flags[c],
                    "seconds": dt,
                    "gauge_scale": scale,
                    "status": statuses[c][i],
                }
                if delta is not None:
                    row["counters"] = delta[0]
                    row["self_s"] = delta[1]
                    row["total_s"] = delta[2]
                fh.write(json.dumps(row, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        die(f"unknown workload {args.workload!r}; choose from {names}")
    if not os.path.isfile(os.path.join(SRC, "uag", "__init__.py")):
        die(f"no uag package under {SRC}; run from the root of a uag checkout")
    os.makedirs(OUT, exist_ok=True)

    setups = measure_setup(args)
    workloads = import_workloads()
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
        cycles, traced_flags = [], []
        gauge = Gauge()
        first: dict[int, str] = {}
        t0 = time.perf_counter()
        deadline = t0 + args.seconds
        while True:
            traced = bool(args.trace) and len(cycles) % 2 == 1
            if traced:
                tracer.install()
            try:
                cycles.append(run_cycle(ops, gauge, first, tracer if traced else None, len(cycles)))
            finally:
                if traced:
                    tracer.uninstall()
            traced_flags.append(traced)
            if len(cycles) == MIN_CYCLES:
                # the program's memory levels off within two cycles; later
                # cycles only add the harness's per-op records
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if len(cycles) >= MIN_CYCLES and time.perf_counter() >= deadline:
                break
        wall = time.perf_counter() - t0
        statuses, mismatches, digest = judge(ops, cycles, first)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    flat = [(r, st, ops[i]) for cyc, row in zip(cycles, statuses) for i, (r, st) in enumerate(zip(cyc, row))]
    failed = sum(1 for _, st, _ in flat if st != "ok")
    cap_exceeded = sum(
        1 for cyc, f in zip(cycles, traced_flags) if f for r in cyc if (r[2] or "").startswith("CapExceeded:")
    )
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    write_rows(os.path.join(OUT, f"{tag}.ops.jsonl"), args, ops, cycles, statuses, traced_flags)
    for (r, st, op) in flat:
        if st != "ok" and not (op.expect_fail and st.startswith("raised")):
            print(f"perfbench: {op.kind} [{op.summary}]: {st}", file=sys.stderr)

    if args.trace:
        import uag.terms

        tracer.write_spans(os.path.join(OUT, f"{tag}.spans.csv.gz"))
        traced = [c for c, f in zip(cycles, traced_flags) if f]
        untraced = [c for c, f in zip(cycles, traced_flags) if not f]
        values = per_layer(tracer, traced, untraced, cap_exceeded, uag.terms)
        wanted = spec["per_layer"]
    else:
        durations = [r[0] * r[4] for r, _, _ in flat]
        values = end_to_end(durations, failed, [t * g for t, g in setups], rss_mb)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} cycles={len(cycles)} "
        f"ops={len(flat)} ops_per_cycle={len(ops)} failed={failed} mismatches={mismatches} "
        f"digest={digest} wall_s={wall:.3f} setup_samples={len(setups)} latency_samples={len(flat)} "
        f"raw_ops_per_s={len(flat) / sum(r[0] for r, _, _ in flat):.4f} "
        f"raw_setup_s={statistics.median(t for t, _ in setups):.4f} gauge_samples={len(gauge.samples)}"
    )
    print(json.dumps({"correct": mismatches == 0, "attempted": len(flat), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
