"""The numpy cell kernel of ``sortcycles.csvtext`` against ``%.17g``.

Every comparison is of whole files, header, separators and line ends
included, with ``oracles.write_csv_oracle``, which formats each row with one
``%`` of ``"%.17g"`` cells.
"""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sortcycles import csvtext

from .oracles import write_csv_oracle


def assert_same_file(tmp_path, columns, keys=None):
    csvtext.write_csv(tmp_path / "kernel.csv", columns, keys)
    write_csv_oracle(tmp_path / "oracle.csv", columns)
    assert (tmp_path / "kernel.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def as_columns(values, n_cols=3):
    """``values`` laid out row by row in n_cols columns, cut to whole rows."""
    values = np.asarray(values, dtype=np.float64)
    rows = values[:values.size // n_cols * n_cols].reshape(-1, n_cols)
    return {f"c{j}": rows[:, j] for j in range(n_cols)}


def ulp_neighbours(x, n=3):
    """x and the n doubles on either side of it."""
    out, up, down = [x], x, x
    for _ in range(n):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    return out


def exact_ties():
    """Doubles whose 18 significant digits end in a 5, so that rounding them
    to 17 is an exact tie: (2j + 1) / 2^(17 - E) for E = -4..15."""
    ties = []
    for E in range(-4, 16):
        scale = Fraction(2) ** (17 - E)
        j = int(Fraction(10) ** E * scale) // 2 + 1
        for x in (Fraction(2 * j + 1) / scale, Fraction(2 * j + 1001) / scale):
            if x * scale < 2 ** 53:  # the double holds it exactly
                ties.append(float(x))
    return ties


def edge_values():
    powers = [v for k in range(-307, 309) for v in ulp_neighbours(float(f"1e{k}"))]
    boundaries = [v for b in (1e-5, 1e-4, 1e16, 1e17) for v in ulp_neighbours(b)]
    values = [0.0, -0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
              1.7976931348623157e308, np.inf, -np.inf, np.nan,
              (10 ** 17 + 1) / 2, 2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2,
              9.9999999999999995e-5, 99999999999999999.0, 0.1, 1 / 3, 2 / 3,
              *powers, *boundaries, *exact_ties()]
    return np.array(values + [-v for v in values])


class TestCellKernel:
    def test_edge_table(self, tmp_path):
        values = edge_values()
        for n_cols in (1, 3, 7):
            assert_same_file(tmp_path, as_columns(values, n_cols))

    def test_the_edge_table_holds_exact_ties(self):
        # an exact tie is the one cell in the fixed range that the kernel
        # cannot round by its fraction, and is sent to %.17g
        ties = exact_ties()
        assert len(ties) >= 30
        for x in ties:
            E = int(np.floor(np.log10(x)))
            scaled = Fraction(x) * Fraction(10) ** (16 - E)
            assert scaled - int(scaled) == Fraction(1, 2), x
        _, _, exact = csvtext._digits(np.array(ties))
        assert not exact.any()

    def test_only_ties_of_the_fixed_range_and_no_zero_fall_back(self):
        # in [1e-4, 1e16) %.17g prints fixed notation, and the kernel rounds
        # every cell but an exact tie itself; ties are frequent only above about
        # 1e13, where a double has few bits below the 17th digit
        x = np.random.default_rng(3).uniform(-4.0, 16.0, 20_000)
        x = np.where(np.sin(x * 7.0) < 0.0, -1.0, 1.0) * 10.0 ** x
        _, _, exact = csvtext._digits(x)
        assert 0 < np.count_nonzero(~exact) < 0.05 * x.size
        for v in np.abs(x[~exact]).tolist():
            E = len(str(int(v))) - 1 if v >= 1.0 else int(np.floor(np.log10(v)))
            scaled = Fraction(v) * Fraction(10) ** (16 - E)
            assert scaled - int(scaled) == Fraction(1, 2), v
        assert exact[np.abs(x) < 1e9].all()
        # +-0, a tenth of panel.csv's cells at the published parameters
        assert csvtext._digits(np.array([0.0, -0.0]))[2].all()

    @pytest.mark.parametrize("shift", [-1.0, 1.0])
    def test_a_misjudged_exponent_falls_back(self, tmp_path, shift):
        # the guess floor(log10|x|) off by one: floor(P) or D leaves
        # [10^16, 10^17), and %.17g formats the cell
        log10 = np.log10
        values = np.concatenate([edge_values(),
                                 np.random.default_rng(4).standard_normal(999) * 1e3])
        with mock.patch.object(np, "log10", lambda a: log10(a) + shift):
            assert_same_file(tmp_path, as_columns(values))

    @settings(max_examples=300, deadline=None)
    @given(bits=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=40),
           n_cols=st.integers(1, 5))
    def test_any_bit_pattern(self, tmp_path_factory, bits, n_cols):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        assert_same_file(tmp_path_factory.mktemp("bits"),
                         as_columns(values, min(n_cols, len(bits))))

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(), min_size=1, max_size=40), n_cols=st.integers(1, 5))
    def test_any_float(self, tmp_path_factory, values, n_cols):
        assert_same_file(tmp_path_factory.mktemp("floats"),
                         as_columns(values, min(n_cols, len(values))))

    @pytest.mark.parametrize("n", [1, csvtext.BLOCK_ROWS - 1, csvtext.BLOCK_ROWS,
                                   csvtext.BLOCK_ROWS + 1])
    def test_blocks_of_one_row_and_either_side_of_the_block(self, tmp_path, n):
        rng = np.random.default_rng(n)
        keys = rng.integers(0, 2, n)
        columns = {"t": np.arange(n), "noise": rng.standard_normal(n) * 1e3,
                   "per_key": np.array([0.1, -2.5])[keys], "tiny": rng.random(n) * 1e-6}
        assert_same_file(tmp_path, columns)
        assert_same_file(tmp_path, columns, keys)
