"""Field export and import.

A field is stored as a CSV of nodal data plus a JSON header.  CSV columns:

  rho_index, phi_index, x1, x2, u, du1, du2, d2u11, d2u12, d2u22

with '.' decimal separator, ',' field separator, and a mandatory header row;
the pole appears once as (0, 0).  Floats are written as their repr (the
shortest string that reads back to the same double), so u survives the
round trip bit-exactly and the bytes do not depend on how they are made.

One orjson.dumps of the table's rows, a compiled shortest round-trip
formatter, writes every index and nearly every float.  Its text equals
repr's for 0.0, -0.0 and 1e-4 <= |v| < 1e16: the same digits, the same
switch to exponent notation and the same ".0" on integral floats.  Outside
that band the two differ in notation only (orjson 0.00001 and 1e16, repr
1e-05 and 1e+16; orjson null for inf and nan), so those cells, 1-2 %
of a solved field (roundoff-sized derivatives), are written by repr.  The
JSON header carries c, the model tag, the resolutions, the dual flag, and
the domain descriptors needed to rebuild the grid.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import orjson

from .domains import domain_from_dict
from .errors import ConfigError, DegenerateSublevel
from .grid import SolutionField, build_grid
from .kernel import ModelKind

CSV_COLUMNS = ("rho_index", "phi_index", "x1", "x2", "u",
               "du1", "du2", "d2u11", "d2u12", "d2u22")


def header_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".json")


def save_field(field: SolutionField, csv_path, omega=None, omega_tilde=None) -> None:
    """Write the CSV table and its JSON header next to it."""
    grid = field.grid
    du, d2u = field.derivatives()
    values = np.column_stack([grid.nodes, field.u, du, d2u[:, 0, 0], d2u[:, 0, 1],
                              d2u[:, 1, 1]])
    cells = np.empty((grid.n_nodes, len(CSV_COLUMNS)), dtype=object)
    cells[:, 0], cells[:, 1] = grid.lattice_indices()
    cells[:, 2:] = values
    # cells where orjson's notation is not repr's go as repr strings, whose
    # JSON quotes are dropped below
    magnitude = np.abs(values)
    odd = ~((values == 0) | ((magnitude >= 1e-4) & (magnitude < 1e16)))
    cells[:, 2:][odd] = [repr(v) for v in values[odd].tolist()]
    rows = orjson.dumps(cells.tolist())[2:-2].replace(b'"', b"").split(b"],[")
    with open(csv_path, "wb") as fh:
        fh.write(",".join(CSV_COLUMNS).encode() + b"\n" + b"\n".join(rows) + b"\n")
    header = {
        "c": field.c,
        "model": field.model.value,
        "n_rho": grid.n_rho,
        "n_phi": grid.n_phi,
        "dual": field.dual,
        "domain": grid.domain.to_dict(),
    }
    if omega is not None:
        header["omega"] = omega.to_dict()
    if omega_tilde is not None:
        header["omega_tilde"] = omega_tilde.to_dict()
    with open(header_path(csv_path), "w") as fh:
        json.dump(header, fh, indent=2)


def _header_int(header, key) -> int:
    value = header[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field header {key} must be an integer, got {value!r}")
    return value


def load_field(csv_path) -> SolutionField:
    """Rebuild the field from a CSV plus its JSON header.

    Every malformed header or row raises ConfigError: a header without a
    finite c, integer resolutions, a boolean dual flag, a known model or a
    valid domain; a row
    without 10 columns, integer in-range indices or a finite u; a node
    missing or given twice.
    """
    hp = header_path(csv_path)
    if not Path(csv_path).exists() or not hp.exists():
        raise ConfigError(f"missing field file or header: {csv_path}")
    try:
        header = json.loads(hp.read_text())
        lines = Path(csv_path).read_text().splitlines()
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read field file {csv_path}: {exc}") from exc
    if not isinstance(header, dict):
        raise ConfigError("field header is not a JSON object")
    for key in ("c", "model", "n_rho", "n_phi", "domain"):
        if key not in header:
            raise ConfigError(f"field header lacks required key {key!r}")
    c = header["c"]
    if isinstance(c, bool) or not isinstance(c, (int, float)) or not math.isfinite(c):
        raise ConfigError(f"field header c must be a finite number, got {c!r}")
    n_rho, n_phi = _header_int(header, "n_rho"), _header_int(header, "n_phi")
    dual = header.get("dual", False)
    if not isinstance(dual, bool):
        raise ConfigError(f"field header dual must be true or false, got {dual!r}")

    if not lines or tuple(lines[0].strip().split(",")) != CSV_COLUMNS:
        raise ConfigError(f"unexpected CSV columns {lines[:1]}")
    # row count first, so an absurd header resolution allocates nothing
    n_nodes = 1 + n_rho * n_phi
    if len(lines) - 1 != n_nodes:
        raise ConfigError(f"field file has {len(lines) - 1} rows, header "
                          f"resolution {n_rho}x{n_phi} needs {n_nodes}")
    u = np.empty(n_nodes)
    seen = np.zeros(n_nodes, dtype=bool)
    for ln, line in enumerate(lines[1:], 2):
        parts = line.split(",")
        try:
            if len(parts) != len(CSV_COLUMNS):
                raise ValueError(f"expected {len(CSV_COLUMNS)} columns, got {len(parts)}")
            i, j, value = int(parts[0]), int(parts[1]), float(parts[4])
            if not (i == j == 0 or (1 <= i <= n_rho and 0 <= j < n_phi)):
                raise ValueError(f"node index ({i}, {j}) out of range")
            if not math.isfinite(value):
                raise ValueError(f"non-finite u {parts[4]!r}")
        except ValueError as exc:
            raise ConfigError(f"{csv_path} line {ln}: {exc}") from exc
        k = 0 if i == 0 else 1 + (i - 1) * n_phi + j
        if seen[k]:
            raise ConfigError(f"{csv_path} line {ln}: node ({i}, {j}) given twice")
        u[k] = value
        seen[k] = True

    try:
        model = ModelKind(header["model"])
        grid = build_grid(domain_from_dict(header["domain"]), n_rho, n_phi)
    except (ValueError, KeyError, TypeError, AttributeError, DegenerateSublevel) as exc:
        raise ConfigError(f"invalid field header: {exc}") from exc
    return SolutionField(grid, u, float(c), model, dual)
