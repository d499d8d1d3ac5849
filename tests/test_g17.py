"""The CSV writers' number kernel against Python's ``'%.17g'``, value by value."""

import math
import struct
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import scatter1d as s
from scatter1d import _g17


def python_rows(values, seps, blank=None):
    """Reference: each number through ``'%.17g'``, blanks as bare separators."""
    values = np.asarray(values, dtype=float)
    blank = np.zeros(values.shape, dtype=bool) if blank is None else blank
    return "".join(("" if b else "%.17g" % v) + sep
                   for row, brow in zip(values.tolist(), blank.tolist())
                   for v, b, sep in zip(row, brow, seps))


def check_column(x):
    x = np.asarray(x, dtype=float)
    assert _g17.format_rows(x[:, None], "\n") == python_rows(x[:, None], "\n")


bit_patterns = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(bit_patterns, st.floats()), min_size=1, max_size=64))
def test_matches_python_on_any_float64(xs):
    # bit patterns cover NaN payloads, inf, subnormals and every exponent
    check_column(xs)


def test_edges_match_python():
    powers = np.array([float(f"1e{j}") for j in range(-300, 301)])
    # exact ties at the 17th digit: odd m/4 below 2^51, odd m/8 above 2^47
    ties = ([(2**53 - 2 * j - 1) / 4 for j in range(200)]
            + [(2**50 + 2 * j + 1) / 8 for j in range(200)])
    assert all(Fraction(t) * 10 ** (17 - len(str(int(t)))) % 1 == Fraction(1, 2) for t in ties)
    # some doubles nearest 10^j lie so little below it that their 17 digits carry into 10^j
    carries = [p for j, p in zip(range(-300, 301), powers)
               if Fraction(p) < Fraction(10) ** j and ("%.17g" % p).startswith("1")]
    assert len(carries) > 10
    edges = np.concatenate([
        [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308,
         1.7976931348623157e308],
        powers, np.nextafter(powers, 0), np.nextafter(powers, math.inf),
        # E at -5, -4, 16 and 17: the switches between fixed and scientific notation
        [1.2345e-5, 9.999999999999999e-5, 1e-4, 1.0000000000000001e-4, 0.00012345678901234567,
         1.2345678901234567e16, 9.999999999999998e16, 1e17, 1.2345678901234567e17],
        # 17 nines, which the literal rounds to the next power of ten
        [99999999999999999.0, 9.99999999999999999e-5, 0.99999999999999999, 9.9999999999999999e22],
        ties,
        np.nextafter([1e-280, 1e280], 0), [1e-280, 1e280], np.nextafter([1e-280, 1e280], math.inf),
    ])
    check_column(np.concatenate([edges, -edges]))


def test_blank_fields_and_separators():
    values = np.array([[1.5, -0.0, math.nan], [0.1, 2.0, 1e300], [3.0, 4.0, 5.0]])
    blank = np.array([[False, True, True], [False, False, False], [True, True, True]])
    assert _g17.format_rows(values, ",;\n", blank) == python_rows(values, ",;\n", blank)
    assert _g17.format_rows(values, ",;\n", blank).splitlines()[2] == ",;"


def test_design_profile_and_barrier_grid_take_no_fallback(tmp_path, monkeypatch):
    fallen = []
    python = _g17._fallback
    monkeypatch.setattr(_g17, "_fallback", lambda v: fallen.append(len(v)) or python(v))
    _g17.format_rows(np.array([[math.nan]]), "\n")
    assert fallen == [1]   # the counter sees Python's path
    fallen.clear()

    design = s.solve_single_mode(s.DesignSpec(1.0, 0.3j, 0.15, 1.0)).potential
    s.write_profile_csv(design, tmp_path / "profile.csv")
    fields = (tmp_path / "profile.csv").read_text().replace("\n", ",").split(",")
    assert len(fields) == 3 * 2049 + 1 and fields.count("0") > 0
    barrier = s.PiecewiseConstant.barrier(3.0, 0.0, 2.0)
    lo, hi = (math.sqrt(3.0 + (n * math.pi / 2.0) ** 2) for n in (2, 3))
    lo, hi = lo - 0.3, hi + 0.3
    result = s.scan(barrier, lo, hi, s.default_scan_points(barrier, lo, hi), refine=False)
    assert len(result.k) == 332
    s.write_scan_csv(result, tmp_path / "scan.csv")
    assert fallen == []
