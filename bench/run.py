"""scatter1d benchmark: four workloads, end to end and per layer.

    python3 bench/run.py --workload {solve,scan,design,approx} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the library is imported from ./src.
Each run repeats whole rounds of one workload's seeded operation sequence in
one closed loop (one client) for at least --seconds, checks every output
against ``reference`` outside the timed interval, and prints one JSON object
as the last line of standard output:

* --trace 0: setup_s, ops_per_s, latency_ms_p50, latency_ms_tail, peak_rss_mb.
* --trace 1: half the time untraced, half traced through ``tracing``; the
  per-layer metrics are per-operation means over the traced half, and
  trace.overhead_pct compares the two halves.

See bench/README.md for the workloads, the percentiles and reference figures.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()   # set-up probes time the import of scatter1d from here

import argparse   # noqa: E402
import json   # noqa: E402
import math   # noqa: E402
import os   # noqa: E402
import resource   # noqa: E402
import shutil   # noqa: E402
import statistics   # noqa: E402
import subprocess   # noqa: E402
import sys   # noqa: E402
import tempfile   # noqa: E402
from pathlib import Path   # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TMP_ROOT = ROOT / ".bench_tmp"   # scratch files of a run, removed at its end
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[var] = "1"


def _cap_scan_threads() -> None:
    """The CLI's default scan pool uses SCATTER1D_THREADS or os.cpu_count();
    cap it at the cores this process may run on."""
    cores = len(os.sched_getaffinity(0))
    try:
        wanted = int(os.environ.get("SCATTER1D_THREADS", cores))
    except ValueError:
        wanted = cores
    os.environ["SCATTER1D_THREADS"] = str(max(1, min(wanted, cores)))


_cap_scan_threads()

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "latency_ms_p50": "ms",
              "latency_ms_tail": "ms", "peak_rss_mb": "MB"}
ACCURACY = {"solve": "engines.err_over_tol_max", "scan": "scan.k_star_err_max",
            "design": "design.residual_over_tol_max", "approx": "approx.err_max"}
PER_LAYER_UNITS = {
    "self_ms": "ms", "calls": "count", "points": "count", "slices": "count",
    "matrices": "count", "rhs_evals": "count", "slices_per_call": "count",
    "matrix_evals_per_call": "count", "accepted_ratio": "ratio",
    "block_builds_per_block": "ratio", "output_bytes": "bytes",
    "err_over_tol_max": "ratio", "k_star_err_max": "1/length",
    "residual_over_tol_max": "ratio", "err_max": "abs", "overhead_pct": "%",
}


def per_layer_unit(name: str) -> str:
    return PER_LAYER_UNITS[name.rsplit(".", 1)[-1]]


def import_library():
    """Import scatter1d from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH))
    import scatter1d

    if not Path(scatter1d.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"scatter1d was imported from {scatter1d.__file__}, not {src}")
    return scatter1d


def tail_ops(pct: float) -> int:
    """Fewest operations that leave 10 beyond the pct-th percentile."""
    return math.ceil(10 / (1 - pct / 100) - 1e-9)


def run_rounds(ops, seconds: float, min_rounds: int, after_op=None) -> tuple[list, list, int]:
    """Whole rounds until `seconds` of operation time and `min_rounds` have passed.

    Returns per-instance (op index, seconds) pairs, the collected outputs and
    the number of rounds.  Output collection runs outside the timed call."""
    times, outputs, rounds, busy = [], [], 0, 0.0
    while rounds < max(1, min_rounds) or busy < seconds:
        for i, op in enumerate(ops):
            t = time.perf_counter()
            result = op.run()
            dt = time.perf_counter() - t
            busy += dt
            times.append((i, dt))
            outputs.append((i, op.collect(result)))
            if after_op is not None:
                after_op(op)
        rounds += 1
    return times, outputs, rounds


def setup_probe(args) -> None:
    """In this fresh interpreter: import, build the inputs, one warm-up op."""
    import workloads

    workdir = _workdir()
    try:
        wl = workloads.WORKLOADS[args.workload](workdir)
        ops = wl.round(args.seed)
        warm = next(op for op in ops if op.kind == wl.warmup_kind)
        warm.collect(warm.run())
        print(f"{time.perf_counter() - T0!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _workdir() -> str:
    TMP_ROOT.mkdir(exist_ok=True)
    return tempfile.mkdtemp(dir=TMP_ROOT)


def measure_setup(args) -> float:
    values = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        values.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(values)


def check_outputs(wl, ops, outputs) -> tuple[int, bool, float, list[str]]:
    """(failed instances, correct, worst accuracy figure, messages)."""
    refs = wl.references(ops)
    failed, correct, worst, notes = 0, True, 0.0, []
    for i, out in outputs:
        v = wl.check(ops[i], out, refs[i])
        if not v.ok and len(notes) < 20:
            notes.append(f"{ops[i].kind} #{i}: {v.detail}")
        if v.ok:
            worst = max(worst, v.accuracy)
        else:
            failed += 1
            correct &= ops[i].kind in wl.expected_failures
    return failed, correct, worst, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("solve", "scan", "design", "approx"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        s = import_library()
    except ImportError as exc:
        print(f"bench: cannot import scatter1d from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args)
        return 0
    import tracing
    import workloads

    setup_s = measure_setup(args) if args.trace == 0 else None
    workdir = _workdir()
    try:
        wl = workloads.WORKLOADS[args.workload](workdir)
        ops = wl.round(args.seed)
        warm = next(op for op in ops if op.kind == wl.warmup_kind)
        warm.collect(warm.run())
        timed_per_round = sum(op.kind not in wl.expected_failures for op in ops)
        min_rounds = math.ceil(tail_ops(wl.tail_pct) / timed_per_round)

        if args.trace == 0:
            times, outputs, rounds = run_rounds(ops, args.seconds, min_rounds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            half = args.seconds / 2
            plain_times, plain_out, _ = run_rounds(ops, half, 0)
            tracer = tracing.Tracer()
            tracer.install(s, tracing.HOOKS)
            written = [0]

            def count_bytes(op):
                written[0] += workloads.files_bytes(op)

            tracer.enabled = True
            times, outputs, rounds = run_rounds(ops, half, 0, count_bytes)
            tracer.enabled = False
            tracer.uninstall()
            outputs = plain_out + outputs

        failed, correct, worst, notes = check_outputs(wl, ops, outputs)
        for v in wl.extra_checks(args.seed):
            correct &= v.ok
            if not v.ok:
                notes.append(v.detail)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:   # another run still uses it
            pass

    for note in notes:
        print(f"bench: check failed: {note}", file=sys.stderr)

    attempted = len(outputs)
    if args.trace == 0:
        lat = sorted(dt * 1e3 for i, dt in times if ops[i].kind not in wl.expected_failures)
        busy = sum(dt for _, dt in times)
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": len(lat) / busy,
            "latency_ms_p50": _percentile(lat, 50.0),
            "latency_ms_tail": _percentile(lat, wl.tail_pct),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    else:
        n = len(times)
        metrics = tracing.layer_metrics(tracer, n)
        metrics["cli.output_bytes"] = written[0] / n
        for name in ACCURACY.values():
            metrics[name] = 0.0
        metrics[ACCURACY[args.workload]] = worst
        plain = sum(dt for _, dt in plain_times) / len(plain_times)
        traced = sum(dt for _, dt in times) / n
        metrics["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0)
        units = {name: per_layer_unit(name) for name in metrics}
    print(f"bench: {args.workload} seed {args.seed}: {rounds} rounds of {len(ops)} ops, "
          f"{failed} of {attempted} failed", file=sys.stderr)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _percentile(sorted_values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    pos = (len(sorted_values) - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


if __name__ == "__main__":
    sys.exit(main())
