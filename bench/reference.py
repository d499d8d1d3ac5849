"""Reference computations made apart from scatter1d.

Nothing here imports the library.  Potentials are read from their JSON
schema-v1 dictionaries and evaluated from the formulas that define them;
transfer matrices come from plane-wave matching or from integrating the wave
equation psi'' = (v - k^2) psi with scipy's DOP853, restarted at every point
where v or its derivative may jump (for sampled data: every sample node).
Fourier transforms of piecewise-harmonic potentials are closed forms.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

ODE_RTOL = 1e-12


def _c(v) -> complex:
    return complex(v) if isinstance(v, (int, float)) else complex(v[0], v[1])


# ---------------------------------------------------------------------------
# Potentials from their schema dictionaries
# ---------------------------------------------------------------------------


def potential_function(d: dict):
    """(v, breaks): vectorised smooth part v(x) and the sorted points where
    v or its derivative may jump (support edges, cell edges, sample nodes)."""
    kind = d["type"]
    if kind == "exp_grating":
        z, n, length, off = _c(d["strength"]), d["harmonic"], d["length"], d["offset"]

        def v(x):
            u = np.asarray(x, dtype=float) - off
            inside = (u >= 0) & (u <= length)
            return np.where(inside, z * np.exp(2j * np.pi * n * u / length), 0.0)

        return v, [off, off + length]
    if kind == "fourier_cell":
        length = d["length"]
        coefs = [(c["harmonic"], _c(c["value"])) for c in d["coefficients"]]

        def v(x):
            x = np.asarray(x, dtype=float)
            out = sum(z * np.exp(2j * np.pi * n * x / length) for n, z in coefs)
            return np.where((x >= 0) & (x <= length), out, 0.0)

        return v, [0.0, length]
    if kind == "smis":
        k0, alpha, a = d["k0"], d["alpha"], d["translation"]
        length = math.pi * d["winding"] / k0
        conj = d["conjugated"]

        def v(x):
            u = np.asarray(x, dtype=float) - a
            e2 = np.exp(2j * k0 * u)
            out = 8 * alpha * k0**2 * (2 * e2 - 3) / (e2 * e2 + alpha * (e2 - 1) ** 2)
            if conj:
                out = np.conj(out)
            return np.where((u >= 0) & (u <= length), out, 0.0)

        return v, [a, a + length]
    if kind == "sampled":
        vals = np.array([_c(v) for v in d["values"]])
        grid = d["x0"] + d["dx"] * np.arange(vals.size)

        def v(x):
            x = np.asarray(x, dtype=float)
            return np.interp(x, grid, vals.real, 0.0, 0.0) + 1j * np.interp(
                x, grid, vals.imag, 0.0, 0.0
            )

        return v, list(grid)
    if kind == "sum":
        parts = [potential_function(q) for q in d["parts"]]

        def v(x):
            return sum(f(x) for f, _ in parts)

        return v, sorted({b for _, br in parts for b in br})
    if kind == "locally_periodic":
        cell, cell_breaks = potential_function(d["cell"])
        shifts = [j * d["period"] for j in range(d["copies"])]

        def v(x):
            x = np.asarray(x, dtype=float)
            return sum(cell(x - s) for s in shifts)

        return v, sorted({b + s for s in shifts for b in cell_breaks})
    raise ValueError(f"no reference for potential type {kind!r}")


# ---------------------------------------------------------------------------
# Transfer matrices
# ---------------------------------------------------------------------------


def integrated_matrices(d: dict, ks, rtol: float = ODE_RTOL) -> np.ndarray:
    """Transfer matrices (len(ks), 2, 2) by integrating the wave equation.

    Two solutions start at the left edge as e^{ikx} and e^{-ikx}; their
    plane-wave coefficients at the right edge are the columns of M.  The
    integration restarts at every break, so it never strides a kink.
    """
    v, breaks = potential_function(d)
    ks = np.asarray(ks, dtype=float)
    nk = ks.size
    a, b = breaks[0], breaks[-1]
    e, f = np.exp(1j * ks * a), np.exp(-1j * ks * a)
    y = np.concatenate([e, 1j * ks * e, f, -1j * ks * f])
    k2 = ks * ks

    def rhs(x, y):
        p1, d1, p2, d2 = y.reshape(4, nk)
        w = v(np.array([x]))[0] - k2
        return np.concatenate([d1, w * p1, d2, w * p2])

    for lo, hi in zip(breaks[:-1], breaks[1:]):
        if hi <= lo:
            continue
        sol = solve_ivp(rhs, (lo, hi), y, method="DOP853", rtol=rtol, atol=rtol * 1e-2)
        if not sol.success:
            raise RuntimeError(f"reference integration failed: {sol.message}")
        y = sol.y[:, -1]
    p1, d1, p2, d2 = y.reshape(4, nk)
    out = np.empty((nk, 2, 2), dtype=complex)
    for col, (p, dp) in enumerate(((p1, d1), (p2, d2))):
        out[:, 0, col] = 0.5 * np.exp(-1j * ks * b) * (p + dp / (1j * ks))
        out[:, 1, col] = 0.5 * np.exp(1j * ks * b) * (p - dp / (1j * ks))
    return out


def _wave_basis(q: complex, x: float) -> np.ndarray:
    """(psi, psi') of e^{iqx} and e^{-iqx} at x, as columns."""
    e, f = np.exp(1j * q * x), np.exp(-1j * q * x)
    return np.array([[e, f], [1j * q * e, -1j * q * f]])


def barrier_matrix(height: complex, a: float, b: float, k: float) -> np.ndarray:
    """Rectangular barrier by matching plane waves at both edges."""
    q = np.sqrt(complex(k * k - height))
    inner = _wave_basis(q, b) @ np.linalg.inv(_wave_basis(q, a))
    return np.linalg.solve(_wave_basis(k, b), inner @ _wave_basis(k, a))


def delta_matrix(strength: complex, location: float, k: float) -> np.ndarray:
    """z delta(x - a): psi continuous, psi' jumps by z psi(a)."""
    jump = np.array([[1.0, 0.0], [strength, 1.0]])
    basis = _wave_basis(k, location)
    return np.linalg.solve(basis, jump @ basis)


def amplitudes(m: np.ndarray) -> tuple[complex, complex, complex]:
    """(R_left, R_right, T) = (-M21/M22, M12/M22, 1/M22)."""
    return -m[1, 0] / m[1, 1], m[0, 1] / m[1, 1], 1.0 / m[1, 1]


# ---------------------------------------------------------------------------
# Closed-form Fourier and ordered double transforms
# ---------------------------------------------------------------------------


def _window(q: complex, a: float, b: float) -> complex:
    """integral_a^b e^{-iqx} dx, stable at q -> 0."""
    w = b - a
    return np.exp(-0.5j * q * (a + b)) * w * np.sinc(q * w / (2 * np.pi))


def _ordered_window(q1: complex, q2: complex, a: float, b: float) -> complex:
    """integral_a^b dx2 e^{-i q2 x2} integral_a^{x2} dx1 e^{-i q1 x1}."""
    if q1 != 0:
        return (np.exp(-1j * q1 * a) * _window(q2, a, b) - _window(q1 + q2, a, b)) / (1j * q1)
    if q2 == 0:
        return 0.5 * (b - a) ** 2
    return (b - a) * np.exp(-1j * q2 * b) / (-1j * q2) + _window(q2, a, b) / (1j * q2)


def harmonic_pieces(d: dict) -> list[tuple[float, float, list]]:
    """Disjoint pieces (a, b, [(c, g, origin)]) with v = sum c e^{i g (x - origin)}
    on [a, b], sorted left to right."""
    kind = d["type"]
    if kind == "piecewise":
        bp = d["breakpoints"]
        return [(lo, hi, [(_c(v), 0.0, 0.0)]) for lo, hi, v in zip(bp[:-1], bp[1:], d["values"])]
    if kind == "exp_grating":
        off, length = d["offset"], d["length"]
        g = 2 * np.pi * d["harmonic"] / length
        return [(off, off + length, [(_c(d["strength"]), g, off)])]
    if kind == "fourier_cell":
        length = d["length"]
        terms = [(_c(c["value"]), 2 * np.pi * c["harmonic"] / length, 0.0) for c in d["coefficients"]]
        return [(0.0, length, terms)]
    if kind == "sum":
        pieces = [p for q in d["parts"] for p in harmonic_pieces(q)]
    elif kind == "locally_periodic":
        cell = harmonic_pieces(d["cell"])
        pieces = [
            (a + j * d["period"], b + j * d["period"], [(c, g, o + j * d["period"]) for c, g, o in t])
            for j in range(d["copies"])
            for a, b, t in cell
        ]
    else:
        raise ValueError(f"no closed-form transforms for {kind!r}")
    pieces.sort(key=lambda p: p[0])
    for (_, b0, _), (a1, _, _) in zip(pieces, pieces[1:]):
        if a1 < b0:
            raise ValueError("closed-form double transform needs disjoint pieces")
    return pieces


def _piece_fourier(piece, kappa: float) -> complex:
    a, b, terms = piece
    return sum(c * np.exp(-1j * g * o) * _window(kappa - g, a, b) for c, g, o in terms)


def _piece_double(piece, k1: float, k2: float) -> complex:
    a, b, terms = piece
    return sum(
        cp * cq * np.exp(-1j * (gp * op + gq * oq)) * _ordered_window(k1 - gp, k2 - gq, a, b)
        for cp, gp, op in terms
        for cq, gq, oq in terms
    )


def fourier(d: dict, kappa: float) -> complex:
    """v~(kappa) = integral e^{-i kappa x} v(x) dx."""
    return complex(sum(_piece_fourier(p, kappa) for p in harmonic_pieces(d)))


def double_fourier(d: dict, k1: float, k2: float) -> complex:
    """Ordered transform: integral over x1 < x2 of e^{-i(k1 x1 + k2 x2)} v(x1) v(x2)."""
    pieces = harmonic_pieces(d)
    total = sum(_piece_double(p, k1, k2) for p in pieces)
    f1 = [_piece_fourier(p, k1) for p in pieces]
    f2 = [_piece_fourier(p, k2) for p in pieces]
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            total += f1[i] * f2[j]
    return complex(total)


def dyson_matrices(v0, vp, vm, d00, dmp, dpm, dp0, d0p, dm0, d0m, k):
    """First- and second-order truncations of the propagator series (paper,
    eqs. for M^(1) and M^(2)) from the transforms at 0 and +-2k."""
    c = -1j / (2 * k)
    q = 1.0 / (4 * k * k)
    m1 = np.array([[1.0 + c * v0, c * vp], [-c * vm, 1.0 - c * v0]])
    m2 = m1 + q * np.array([[dmp - d00, -(dp0 - d0p)], [-(dm0 - d0m), dpm - d00]])
    return m1, m2
