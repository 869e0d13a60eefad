"""field.csv holds every float as its repr, whatever its magnitude.

save_field writes most cells through orjson and the rest through repr; these
tests compare its bytes with tests/helpers.csv_reference, which formats each
value by repr, on doubles from every part of the range.
"""

import functools
import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import cmcsolve
from cmcsolve.fieldio import save_field
from helpers import csv_reference


@functools.cache
def _seed_table():
    """The 8 x 16 grid of a ball pair and its seed's eight float columns of
    field.csv (x1, x2, u, du1, du2, d2u11, d2u12, d2u22)."""
    omega = cmcsolve.Ball((0.1, -0.2), 1.0)
    spec = cmcsolve.ProblemSpec(omega, cmcsolve.Ball((0, 0), 0.5),
                                cmcsolve.ModelKind.MINKOWSKI,
                                cmcsolve.build_grid(omega, 8, 16))
    fld = cmcsolve.seed_field(spec)
    du, d2u = fld.derivatives()
    values = np.column_stack([fld.grid.nodes, fld.u, du, d2u[:, 0, 0], d2u[:, 0, 1],
                              d2u[:, 1, 1]])
    values.flags.writeable = False
    return fld.grid, values


def _field_of_table(values):
    """A field on that grid whose float columns of field.csv are values'."""
    grid, _ = _seed_table()
    fld = cmcsolve.SolutionField(replace(grid, nodes=values[:, :2]), values[:, 2], 0.0,
                                 cmcsolve.ModelKind.MINKOWSKI)
    d2u = values[:, [5, 6, 6, 7]].reshape(-1, 2, 2)
    fld.derivatives = lambda: (values[:, 3:5], d2u)
    return fld


def _assert_repr_bytes(tmp_path, values):
    fld = _field_of_table(values)
    path = tmp_path / "f.csv"
    save_field(fld, path)
    assert path.read_bytes() == csv_reference(fld).encode()


SMALLEST_NORMAL = 2.2250738585072014e-308
EDGES = [
    # the band orjson writes, 1e-4 <= |v| < 1e16, and its neighbours
    np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e-4, 1.0),
    np.nextafter(1e16, 0.0), 1e16, np.nextafter(1e16, np.inf),
    # subnormals, signed zeros, infinities and nan
    5e-324, np.nextafter(SMALLEST_NORMAL, 0.0), SMALLEST_NORMAL,
    0.0, -0.0, math.inf, -math.inf, math.nan,
    # integral floats up to 2**53, and long shortest round-trip digits
    1.0, 100.0, 1e15, 2.0 ** 52 + 1, 2.0 ** 53 - 1, 2.0 ** 53,
    9999999999999998.0, 0.30000000000000004, 1.7976931348623157e308,
]


def test_edge_values_in_every_column(tmp_path):
    # each column holds every edge value and its negative
    _, seed = _seed_table()
    values = seed.copy()
    edges = [float(v) for v in EDGES] + [-float(v) for v in EDGES]
    values[:len(edges)] = np.array(edges)[:, None]
    _assert_repr_bytes(tmp_path, values)


def test_every_decade(tmp_path):
    # the seed's digits scaled through 61 decades cross both band edges
    _, seed = _seed_table()
    for exponent in range(-30, 31):
        _assert_repr_bytes(tmp_path, seed * 10.0 ** exponent)


@settings(max_examples=150, deadline=None)
@given(column=st.integers(0, 7),
       doubles=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1,
                        max_size=129))
def test_any_double_in_any_column(tmp_path_factory, column, doubles):
    _, seed = _seed_table()
    values = seed.copy()
    values[:len(doubles), column] = doubles
    _assert_repr_bytes(tmp_path_factory.mktemp("csv"), values)
