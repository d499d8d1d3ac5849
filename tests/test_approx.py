"""Born and Dyson approximations against closed forms, and Born inversion.

A barrier z on [a, b] has the transform v~(q) = z (e^{-iqa} - e^{-iqb})/(iq),
v~(0) = z (b - a); the grating z e^{2 pi i n x/L} has the second-order
amplitudes of ``exp_grating_reference`` at k = m pi/L; a Gaussian bump
eps e^{-x^2/2 sigma^2} has v~(q) = eps sigma sqrt(2 pi) e^{-q^2 sigma^2/2}.
"""

import math

import numpy as np
import pytest

import scatter1d as s
from scatter1d import potentials

EPS, SIGMA = 0.05, 0.3


def barrier_transform(z, a, b, q):
    return z * (b - a) if q == 0 else z * (np.exp(-1j * q * a) - np.exp(-1j * q * b)) / (1j * q)


def test_born_first_barrier_matches_closed_form_transforms():
    z, a, b, k = 0.7 - 0.4j, -0.3, 0.9, 1.7
    born = s.born_first(s.PiecewiseConstant.barrier(z, a, b), k)
    assert born.r_left == pytest.approx(barrier_transform(z, a, b, -2 * k) / (2j * k), abs=1e-12)
    assert born.r_right == pytest.approx(barrier_transform(z, a, b, 2 * k) / (2j * k), abs=1e-12)
    assert born.t == pytest.approx(1 + barrier_transform(z, a, b, 0.0) / (2j * k), abs=1e-12)


@pytest.mark.parametrize("harmonic", [1, 2])
@pytest.mark.parametrize("multiple", [1, 2])
def test_exp_grating_reference_matches_dyson_order2(harmonic, multiple):
    # the two agree through zhat^2: halving z cuts the gap by about 8
    length, m = 2.0, multiple * harmonic
    gaps = []
    for z in (0.02 - 0.01j, 0.01 - 0.005j):
        ref = s.exp_grating_reference(z, harmonic, length, m)
        rep = s.dyson_order2(s.ExpGrating(z, harmonic, length), ref.k).data
        zhat = abs(z) * length**2 / (2 * np.pi * harmonic)
        gap = max(abs(rep.r_left - ref.r_left), abs(rep.r_right - ref.r_right),
                  abs(rep.t - ref.t))
        assert gap <= zhat**3
        gaps.append(gap)
    assert gaps[1] <= gaps[0] / 6 or gaps[0] <= 1e-15


def gaussian_right_reflection(k):
    q = 2 * k
    return EPS * SIGMA * np.sqrt(2 * np.pi) * np.exp(-(q * SIGMA) ** 2 / 2) / (2j * k)


def test_born_inverse_recovers_gaussian_bump():
    k = np.linspace(-40.0, 40.0, 400)
    v = s.born_inverse(k, gaussian_right_reflection(k), "right", window=2.0, npoints=1024)
    x = np.linspace(-0.6, 0.6, 41)
    truth = EPS * np.exp(-x**2 / (2 * SIGMA**2))
    assert np.abs(v.evaluate(x) - truth).max() <= 1e-4 * EPS


def test_born_inverse_rejects_coarse_k_grid():
    k = np.linspace(-40.0, 40.0, 16)
    with pytest.raises(s.GridTooCoarseError):
        s.born_inverse(k, gaussian_right_reflection(k), "right", window=2.0, npoints=1024)


UNUSABLE_TOLS = [math.nan, 0.0, -1e-8, math.inf]
SMIS = s.SmisProfile(1.0, 0.02, 2, 0.3)
TRANSFORM_CALLS = {   # every transform entry, on a potential with no closed-form transform
    "fourier": lambda tol: SMIS.fourier(2.3, tol),
    "double_fourier": lambda tol: SMIS.double_fourier(2.3, -2.3, tol),
    "born_first": lambda tol: s.born_first(SMIS, 1.15, tol),
    "dyson_order1": lambda tol: s.dyson_order1(SMIS, 1.15, tol),
    "dyson_order2": lambda tol: s.dyson_order2(SMIS, 1.15, tol),
}


@pytest.mark.parametrize("bad", UNUSABLE_TOLS)
@pytest.mark.parametrize("call", sorted(TRANSFORM_CALLS))
def test_unusable_tol_is_refused_before_any_transform(call, bad, monkeypatch):
    # a nan tol ran the numeric transforms to their 2^20-slice cap, about 2.4 s each
    for name in ("_romberg_filon", "_gauss_filon"):
        monkeypatch.setattr(potentials, name, None)   # any transform would fail
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        TRANSFORM_CALLS[call](bad)
