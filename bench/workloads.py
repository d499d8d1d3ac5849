"""The four workloads: their seeded inputs, operations and correctness checks.

A workload builds one *round*: a list of operations whose make-up (how many
of each kind) is fixed and whose inputs and order are drawn from the seed.
A run repeats whole rounds, so every run and every seed measures the same mix.
Every check compares an output with ``reference`` (computed apart from the
library) using the tolerance the method documents.
"""

from __future__ import annotations

import cmath
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import scatter1d as s
from scatter1d import cli

import reference as ref

SOLVE_TOL = 1e-9        # the tol of matrix_at in `scatter1d solve` (CLI default)
ZERO_TOL = 1e-8         # scan's zero threshold, relative to ||M|| (scan.DEFAULT_ZERO_TOL)
VERIFY_TOL = 1e-6       # design/verify default --verify-tol
APPROX_TOL = 1e-10      # default tol of born_first / dyson_order1 / dyson_order2
ROUNDOFF = 8 * np.finfo(float).eps
DESIGN_REF_RTOL = 1e-10   # reference error ~1e-9, far below VERIFY_TOL


@dataclass
class Op:
    kind: str
    params: dict
    run: Callable[[], object]                      # the timed call
    collect: Callable[[object], object] = lambda result: result
    files: list = field(default_factory=list)      # CLI output paths


@dataclass
class Verdict:
    ok: bool
    accuracy: float   # the workload's accuracy figure for this output
    detail: str = ""


def _cplx_arg(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


def _polar(rng, lo: float, hi: float) -> complex:
    return rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))


def _bump(x):
    return (0.7 - 0.2j) * np.sin(np.pi * x / 1.4) ** 2


class _Strata:
    """Latin-hypercube draws for the n ops of one kind: each parameter's range
    is cut into n strata and every op takes a different one, so the inputs of
    a round cover each range evenly whatever the seed."""

    def __init__(self, rng, n: int):
        self.rng, self.n = rng, n
        self.perms: list[np.ndarray] = []
        self.op = self.draw = 0

    def uniform(self, lo: float, hi: float) -> float:
        if self.draw == len(self.perms):
            self.perms.append(self.rng.permutation(self.n))
        u = (self.perms[self.draw][self.op] + self.rng.random()) / self.n
        self.draw += 1
        return float(lo + (hi - lo) * u)

    def next_op(self) -> None:
        self.op += 1
        self.draw = 0


def _make_up(seed: int, counts: dict, build) -> list[Op]:
    """One round: counts[kind] ops of each kind, inputs and order from the seed."""
    rng = np.random.default_rng(seed)
    ops = []
    for kind, n in counts.items():
        strata = _Strata(rng, n)
        for _ in range(n):
            ops.append(build(kind, strata))
            strata.next_op()
    return [ops[i] for i in rng.permutation(len(ops))]


def files_bytes(op: Op) -> int:
    return sum(os.path.getsize(f) for f in op.files if os.path.exists(f))


class Workload:
    name: str
    tail_pct: float          # latency_ms_tail percentile (README.md)
    warmup_kind: str         # kind of the untimed warm-up operation
    counts: dict             # make-up of a round
    expected_failures: tuple = ()   # kinds that fail on every run (README.md)

    def __init__(self, workdir: str):
        self.workdir = workdir

    def references(self, ops: list[Op]) -> list:
        return [None] * len(ops)

    def extra_checks(self, seed: int) -> list[Verdict]:
        """Checks of a method's defining property, run once per run."""
        return []


# ---------------------------------------------------------------------------
# solve: matrix_at(p, k, "auto", 1e-9) on potentials with no closed form
# ---------------------------------------------------------------------------


class Solve(Workload):
    name = "solve"
    tail_pct = 99.0
    warmup_kind = "sampled"
    # cost order grating < fourier_cell < sampled < smis < overlap_sum <
    # periodic_repeat; 12 ops on either side of the 6 SMIS solves keep the
    # median in the middle of one kind
    counts = {"grating": 4, "fourier_cell": 4, "sampled": 4, "smis": 6, "overlap_sum": 8,
              "periodic_repeat": 4}
    k_range = (0.9, 1.4)   # the slice counts of every potential are flat here

    def __init__(self, workdir: str):
        super().__init__(workdir)
        sampled = s.Sampled.from_callable(_bump, 0.0, 1.4, 512)
        self.potentials = {
            "grating": s.ExpGrating(0.3 - 0.1j, 1, 2.0),
            "fourier_cell": s.FourierCell({1: 0.2 + 0.1j, -2: 0.1j, 0: 0.05}, 1.5),
            "smis": s.SmisProfile(1.0, 0.02, 2, 0.3),
            "sampled": sampled,
            "overlap_sum": s.Sum([sampled, s.ExpGrating(0.2, 1, 1.0, 0.9)]),
            "periodic_repeat": s.LocallyPeriodic(s.ExpGrating(0.3 - 0.1j, 1, 0.4), 5, 0.6),
        }

    def round(self, seed: int) -> list[Op]:
        def build(kind, rng):
            p, k = self.potentials[kind], float(rng.uniform(*self.k_range))
            return Op(kind, {"k": k}, lambda: s.matrix_at(p, k, "auto", SOLVE_TOL),
                      lambda m: m.m.copy())

        return _make_up(seed, self.counts, build)

    def references(self, ops: list[Op]) -> list:
        out: list = [None] * len(ops)
        for kind, p in self.potentials.items():
            idx = [i for i, op in enumerate(ops) if op.kind == kind]
            mats = ref.integrated_matrices(s.potential_to_dict(p), [ops[i].params["k"] for i in idx])
            for i, m in zip(idx, mats):
                out[i] = m
        return out

    @staticmethod
    def check(op: Op, m: np.ndarray, m_ref: np.ndarray) -> Verdict:
        err = float(np.abs(m - m_ref).max()) / max(1.0, float(np.linalg.norm(m_ref)))
        return Verdict(err <= SOLVE_TOL, err / SOLVE_TOL, f"error {err:.3e}")


# ---------------------------------------------------------------------------
# scan: `scatter1d scan` windows around zeros known in closed form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Zero:
    entry: str
    k: float
    radius: float   # |k* - k| allowed by zero_tol and the solver tol


def _zero_radius(entry_at, norm: float, k: float, h: float = 1e-3) -> float:
    """Half-width of {k' : |entry(k')| <= zero_tol ||M|| + tol max(1, ||M||)}.

    The multiplicity m and the leading coefficient c of the zero come from the
    reference entry at k +- h and k +- 2h; the radius is (bound/c)^(1/m).
    """
    bound = ZERO_TOL * norm + SOLVE_TOL * max(1.0, norm)
    near = np.array([abs(entry_at(k + h)), abs(entry_at(k - h))])
    far = np.array([abs(entry_at(k + 2 * h)), abs(entry_at(k - 2 * h))])
    order = max(1, round(float(np.mean(np.log2(far / near)))))
    coef = float(near.mean()) / h**order
    return (bound / coef) ** (1.0 / order)


_ENTRY_INDEX = {"M11": (0, 0), "M12": (0, 1), "M21": (1, 0), "M22": (1, 1)}


class Scan(Workload):
    name = "scan"
    tail_pct = 80.0
    warmup_kind = "barrier"
    # 4 delta scans | 3 barrier scans | 4 SMIS scans: the median sits on the
    # barrier scans; the README delta scan fails (see README.md) and is not timed
    # into the latency percentiles
    counts = {"gain_delta": 2, "lossy_delta": 2, "barrier": 3, "smis": 4, "readme_delta": 1}
    expected_failures = ("readme_delta",)
    delta_points = "101"

    def round(self, seed: int) -> list[Op]:
        counter = iter(range(10**6))

        def build(kind, rng):
            tag = f"scan{next(counter)}"
            spec = os.path.join(self.workdir, f"{tag}.json")
            csv_path = os.path.join(self.workdir, f"{tag}.csv")
            summary = os.path.join(self.workdir, f"{tag}.summary.json")
            extra: list[str] = []
            if kind == "barrier":
                height, length = rng.uniform(2.5, 3.5), rng.uniform(1.8, 2.2)
                d = s.potential_to_dict(s.PiecewiseConstant.barrier(height, 0.0, length))
                k2, k3 = (math.sqrt(height + (n * math.pi / length) ** 2) for n in (2, 3))
                window = (k2 - rng.uniform(0.2, 0.35), k3 + rng.uniform(0.2, 0.35))
            elif kind in ("gain_delta", "lossy_delta"):
                g = rng.uniform(1.4, 2.2)
                z = 1j * g if kind == "gain_delta" else -1j * g
                d = s.potential_to_dict(s.DeltaComb([(z, rng.uniform(-0.5, 0.5))]))
                window = (g / 2 - rng.uniform(0.15, 0.3), g / 2 + rng.uniform(0.15, 0.3))
                extra = ["--points", self.delta_points]
            elif kind == "smis":
                k0 = rng.uniform(0.9, 1.1)
                d = s.potential_to_dict(
                    s.SmisProfile(k0, rng.uniform(0.015, 0.025), 2, rng.uniform(0.0, 0.5))
                )
                window = (k0 - rng.uniform(0.04, 0.06), k0 + rng.uniform(0.04, 0.06))
            else:  # the README example, on its default grid; not seeded
                d = {"type": "delta_comb", "terms": [{"strength": [0.0, 2.0], "location": 0.0}]}
                window = (0.5, 1.5)
            with open(spec, "w") as fh:
                json.dump(d, fh)
            argv = ["scan", "--spec", spec, "--k-min", repr(window[0]), "--k-max",
                    repr(window[1]), "--out-csv", csv_path, "--summary-json", summary, *extra]

            def collect(code):
                with open(summary) as fh:
                    out = json.load(fh)
                with open(csv_path) as fh:
                    rows = sum(1 for _ in fh)
                return {"exit": code, "summary": out, "csv_rows": rows}

            return Op(kind, {"potential": d, "window": window},
                      lambda: cli.main(argv), collect, [csv_path, summary])

        return _make_up(seed, self.counts, build)

    def references(self, ops: list[Op]) -> list:
        return [self._expected(op) for op in ops]

    @staticmethod
    def _expected(op: Op) -> list[Zero]:
        d, (lo, hi) = op.params["potential"], op.params["window"]
        kind = d["type"]
        zeros: list[Zero] = []
        if kind == "piecewise":   # real barrier: reflectionless at sqrt(V + (n pi/L)^2)
            (a, b), height = d["breakpoints"], d["values"][0][0]
            n = 1
            while (k := math.sqrt(height + (n * math.pi / (b - a)) ** 2)) < hi:
                if k > lo:
                    norm = float(np.linalg.norm(ref.barrier_matrix(height, a, b, k)))
                    for entry in ("M12", "M21"):
                        ij = _ENTRY_INDEX[entry]
                        r = _zero_radius(lambda q: ref.barrier_matrix(height, a, b, q)[ij], norm, k)
                        zeros.append(Zero(entry, k, r))
                n += 1
        elif kind == "delta_comb":   # z = +-ig: M22 (gain) or M11 (loss) vanishes at g/2
            (term,) = d["terms"]
            z, x0 = complex(*term["strength"]), term["location"]
            entry = "M22" if z.imag > 0 else "M11"
            k = abs(z.imag) / 2
            ij = _ENTRY_INDEX[entry]
            norm = float(np.linalg.norm(ref.delta_matrix(z, x0, k)))
            zeros.append(Zero(entry, k, _zero_radius(lambda q: ref.delta_matrix(z, x0, q)[ij],
                                                     norm, k)))
        else:   # SMIS block: right-invisible, so M12 vanishes at its design k0
            k0, h = d["k0"], 1e-3
            ks = k0 + h * np.array([0.0, 1.0, -1.0, 2.0, -2.0])
            mats = dict(zip(ks.tolist(), ref.integrated_matrices(d, ks)))
            norm = float(np.linalg.norm(mats[ks[0]]))
            zeros.append(Zero("M12", k0, _zero_radius(lambda q: mats[q][0, 1], norm, k0, h)))
        return zeros

    @staticmethod
    def check(op: Op, out: dict, expected: list[Zero]) -> Verdict:
        found = [(p["entry"], p["k_star"]) for p in out["summary"]["singular_points"]]
        if out["exit"] != 0 or out["csv_rows"] != out["summary"]["points"] + 1:
            return Verdict(False, 0.0, f"exit {out['exit']}, {out['csv_rows']} CSV rows")
        worst = 0.0
        unmatched = list(found)
        for z in expected:
            hits = [f for f in unmatched if f[0] == z.entry and abs(f[1] - z.k) <= z.radius]
            if len(hits) != 1:
                return Verdict(False, worst, f"{z.entry} zero at k={z.k:.12g} found {len(hits)}x")
            unmatched.remove(hits[0])
            worst = max(worst, abs(hits[0][1] - z.k))
        if unmatched:
            return Verdict(False, worst, f"spurious zeros {unmatched}")
        return Verdict(True, worst)


# ---------------------------------------------------------------------------
# design: `scatter1d design` then `scatter1d verify` on the written spec
# ---------------------------------------------------------------------------


class Design(Workload):
    name = "design"
    tail_pct = 80.0
    warmup_kind = "unit_t"
    # cost order unit_t < general < reflectionless_right < doubly_reflectionless;
    # 4 | 4 | 4 keeps the median inside the R_r = 0 designs
    counts = {"unit_t": 2, "general": 2, "reflectionless_right": 4, "doubly_reflectionless": 4}

    def __init__(self, workdir: str):
        super().__init__(workdir)
        self._amplitudes: dict[str, tuple] = {}

    @staticmethod
    def target(kind: str, rng) -> tuple[complex, complex, complex]:
        """Targets whose factor magnitudes keep fixed, small block windings
        (default_winding = ceil(4.0994 |R|): 1 up to |R| = 0.2439, 2 up to 0.4879)."""
        if kind == "general":        # windings 1, 2, 1
            return _polar(rng, 0.05, 0.07), _polar(rng, 0.28, 0.32), 1 + _polar(rng, 0.035, 0.045)
        if kind == "reflectionless_right":   # time-reversed general case, windings 1, 2, 1
            return _polar(rng, 0.28, 0.32), 0j, 1 + _polar(rng, 0.04, 0.05)
        if kind == "unit_t":         # two factors, windings 2, 1
            return _polar(rng, 0.26, 0.32), _polar(rng, 0.12, 0.2), 1 + 0j
        # four factors, windings 5, 1, 4, 1 (|T| >= 1.057 keeps 1/|T| below 0.9758)
        eps, theta = rng.uniform(0.08, 0.12), rng.uniform(-0.8, 0.8)
        return 0j, 0j, 1 + eps * cmath.exp(1j * theta)

    def round(self, seed: int) -> list[Op]:
        counter = iter(range(10**6))

        def build(kind, rng):
            tag = f"design{next(counter)}"
            paths = {n: os.path.join(self.workdir, f"{tag}.{n}") for n in
                     ("spec.json", "profile.csv", "report.json", "verify.json")}
            k0 = rng.uniform(0.9, 1.1)
            rl, rr, t = self.target(kind, rng)
            amps = [f"--r-left={_cplx_arg(rl)}", f"--r-right={_cplx_arg(rr)}", f"--t={_cplx_arg(t)}"]
            design = ["design", "--k0", repr(k0), *amps, "--out-spec", paths["spec.json"],
                      "--out-profile", paths["profile.csv"], "--report", paths["report.json"]]
            verify = ["verify", "--spec", paths["spec.json"], "--k", repr(k0), *amps,
                      "--out", paths["verify.json"]]

            def run():
                return cli.main(design), cli.main(verify)

            def collect(codes):
                with open(paths["spec.json"]) as fh:
                    spec = json.load(fh)
                with open(paths["verify.json"]) as fh:
                    verified = json.load(fh)
                return {"exit": codes, "spec": spec, "verify_ok": verified["ok"]}

            return Op(kind, {"k0": k0, "targets": (rl, rr, t)}, run, collect, list(paths.values()))

        return _make_up(seed, self.counts, build)

    def check(self, op: Op, out: dict, _unused) -> Verdict:
        if out["exit"] != (0, 0) or not out["verify_ok"]:
            return Verdict(False, 0.0, f"exit codes {out['exit']}, verify ok {out['verify_ok']}")
        k0 = op.params["k0"]
        key = json.dumps([k0, out["spec"]], sort_keys=True)   # a run repeats each design
        if key not in self._amplitudes:
            m = ref.integrated_matrices(out["spec"], [k0], rtol=DESIGN_REF_RTOL)[0]
            self._amplitudes[key] = ref.amplitudes(m)
        got = self._amplitudes[key]
        worst = max(
            abs(g - w) / (VERIFY_TOL * max(1.0, abs(w))) for g, w in zip(got, op.params["targets"])
        )
        return Verdict(worst <= 1.0, worst, f"residual/verify_tol {worst:.3e}")


# ---------------------------------------------------------------------------
# approx: born_first, dyson_order1, dyson_order2 at one k
# ---------------------------------------------------------------------------


class Approx(Workload):
    name = "approx"
    tail_pct = 99.0
    warmup_kind = "fourier_cell"
    # cost order grating < barrier < {disjoint_sum, fourier_cell, bilayer}, which
    # cost about the same, < periodic_barrier; 4 ops on either side of those
    # 12 keep the median in the middle of the group
    counts = {"grating": 2, "barrier": 2, "disjoint_sum": 4, "fourier_cell": 4, "bilayer": 4,
              "periodic_barrier": 4}
    k_range = (0.9, 1.4)

    def __init__(self, workdir: str):
        super().__init__(workdir)
        self.potentials = {
            "barrier": s.PiecewiseConstant.barrier(1.0 + 0.5j, -0.4, 1.1),
            "bilayer": s.PiecewiseConstant((-0.5, 0.0, 0.5), (2.0 - 1.0j, 1.0 + 0.5j)),
            "grating": s.ExpGrating(0.3 - 0.1j, 1, 2.0),
            "fourier_cell": s.FourierCell({1: 0.2 + 0.1j, -2: 0.1j, 0: 0.05}, 1.5),
            "disjoint_sum": s.Sum([s.PiecewiseConstant.barrier(0.8j, -1.5, -0.7),
                                   s.ExpGrating(0.2, 1, 1.0, 0.5)]),
            "periodic_barrier": s.LocallyPeriodic(
                s.PiecewiseConstant.barrier(0.5 + 0.2j, 0.0, 0.4), 6, 0.6),
        }

    def round(self, seed: int) -> list[Op]:
        def build(kind, rng):
            p, k = self.potentials[kind], float(rng.uniform(*self.k_range))

            def run():
                return s.born_first(p, k), s.dyson_order1(p, k), s.dyson_order2(p, k)

            return Op(kind, {"k": k}, run)

        return _make_up(seed, self.counts, build)

    def references(self, ops: list[Op]) -> list:
        """Closed-form (v~(0), v~(2k), v~(-2k)) and the ordered double
        transforms in the argument order of ``ref.dyson_matrices``."""
        out = []
        for op in ops:
            d, k = s.potential_to_dict(self.potentials[op.kind]), op.params["k"]
            single = [ref.fourier(d, q) for q in (0.0, 2 * k, -2 * k)]
            pairs = ((0.0, 0.0), (-2 * k, 2 * k), (2 * k, -2 * k), (2 * k, 0.0), (0.0, 2 * k),
                     (-2 * k, 0.0), (0.0, -2 * k))
            out.append((single, [ref.double_fourier(d, *q) for q in pairs]))
        return out

    @staticmethod
    def check(op: Op, out, transforms) -> Verdict:
        born, rep1, rep2 = out
        k = op.params["k"]
        (v0, vp, vm), ds = transforms
        m1, m2 = ref.dyson_matrices(v0, vp, vm, *ds, k)
        # each transform may be off by tol max(1, |value|); scale by its coefficient
        e = lambda z: APPROX_TOL * max(1.0, abs(z))   # noqa: E731
        c, q = 1 / (2 * k), 1 / (4 * k * k)
        d00, dmp, dpm, dp0, d0p, dm0, d0m = ds
        b1 = np.array([[c * e(v0), c * e(vp)], [c * e(vm), c * e(v0)]])
        b2 = b1 + q * np.array([[e(dmp) + e(d00), e(dp0) + e(d0p)],
                                [e(dm0) + e(d0m), e(dpm) + e(d00)]])
        want_born = (vm / (2j * k), vp / (2j * k), 1 + v0 / (2j * k))
        born_bound = (c * e(vm), c * e(vp), c * e(v0))
        errors = [abs(g - w) for g, w in zip((born.r_left, born.r_right, born.t), want_born)]
        ok = all(err <= bnd for err, bnd in zip(errors, born_bound))
        for rep, want, bound in ((rep1, m1, b1), (rep2, m2, b2)):
            diff = np.abs(rep.matrix.m - want)
            errors.append(float(diff.max()))
            ok &= bool(np.all(diff <= bound))
            # amplitudes are read off the truncated matrix through the exact dictionary
            dict_amps = ref.amplitudes(rep.matrix.m)
            got = (rep.data.r_left, rep.data.r_right, rep.data.t)
            ok &= all(abs(g - w) <= ROUNDOFF * max(1.0, abs(w)) for g, w in zip(got, dict_amps))
        worst = max(errors)
        return Verdict(ok, worst, f"max error {worst:.3e}")

    def extra_checks(self, seed: int) -> list[Verdict]:
        return [self.double_delta_exact(seed)]

    @staticmethod
    def double_delta_exact(seed: int) -> Verdict:
        """Order 2 is exact on a double-delta comb."""
        rng = np.random.default_rng(seed)
        z1, z2 = _polar(rng, 0.3, 0.8), _polar(rng, 0.3, 0.8)
        a1 = rng.uniform(-1.0, 0.0)
        a2 = a1 + rng.uniform(0.3, 1.0)
        k = float(rng.uniform(0.9, 1.4))
        got = s.dyson_order2(s.DeltaComb([(z1, a1), (z2, a2)]), k).data
        want = ref.amplitudes(ref.delta_matrix(z2, a2, k) @ ref.delta_matrix(z1, a1, k))
        errs = [abs(g - w) / max(1.0, abs(w))
                for g, w in zip((got.r_left, got.r_right, got.t), want)]
        return Verdict(max(errs) <= APPROX_TOL, max(errs), f"double-delta order-2 error {max(errs):.3e}")


WORKLOADS = {w.name: w for w in (Solve, Scan, Design, Approx)}
