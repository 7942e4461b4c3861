"""JSON and CSV schemas for grids, measures, operators and reports.

Leaf-indexed payloads are serialized in lexicographic index order (sorted
per-axis index tuples); the in-memory Morton order never leaks.  Integer
fields round-trip bit-exactly; floats rely on repr round-tripping (17
significant digits).  Root coordinates are exact binary rationals encoded
as strings.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction

import numpy as np

from .exceptions import GridSizeError
from .grid import Grid, GridSpec, build_grid
from .measures import LeafFunction, LeafMeasure
from .operators import (
    COEFFICIENT_BUILDERS,
    MAX_OPERATOR_LEAVES,
    CoefficientSequence,
    DyadicOperator,
    from_leaf_matrix,
    random_ewl,
)

CSV_COLUMNS = ["seed", "n", "d", "r", "family", "norm", "c1", "c2", "c3",
               "c1g", "c2g", "ratio_sum", "ratio_max", "wall_ms"]


# -- grid ----------------------------------------------------------------

def grid_to_dict(grid: Grid) -> dict:
    spec = grid.spec
    return {
        "dimension": spec.dimension,
        "depth": spec.depth,
        "root": {
            "origin": [str(c) for c in spec.origin],
            "side": str(spec.side),
        },
    }


def grid_from_dict(doc: dict) -> Grid:
    root = doc.get("root", {})
    origin = root.get("origin")
    spec = GridSpec(
        int(doc["dimension"]),
        int(doc["depth"]),
        origin=None if origin is None else tuple(Fraction(c) for c in origin),
        side=Fraction(root.get("side", 1)),
    )
    return build_grid(spec)


# -- measures and functions ----------------------------------------------

def _to_lex(grid: Grid, values: np.ndarray) -> list:
    return values[grid.lex_to_morton].tolist()


def _from_lex(grid: Grid, values) -> np.ndarray:
    arr = np.zeros(grid.num_leaves)
    arr[grid.lex_to_morton] = np.asarray(values, dtype=np.float64)
    return arr


def measure_to_dict(mu: LeafMeasure) -> dict:
    doc = grid_to_dict(mu.grid)
    doc["masses"] = _to_lex(mu.grid, mu.masses)
    return doc


def measure_from_dict(doc: dict, grid: Grid = None) -> LeafMeasure:
    grid = grid or grid_from_dict(doc)
    return LeafMeasure(grid, _from_lex(grid, doc["masses"]))


def function_to_dict(f: LeafFunction) -> dict:
    doc = grid_to_dict(f.grid)
    doc["values"] = _to_lex(f.grid, f.values)
    return doc


def function_from_dict(doc: dict, grid: Grid = None) -> LeafFunction:
    grid = grid or grid_from_dict(doc)
    return LeafFunction(grid, _from_lex(grid, doc["values"]))


# -- operators -------------------------------------------------------------

def operator_to_dict(t: DyadicOperator) -> dict:
    doc = {
        "family": t.family,
        "claimed_radius": t.claimed_radius,
        "grid": grid_to_dict(t.grid),
        "sigma_masses": _to_lex(t.grid, t.sigma.masses),
        "omega_masses": _to_lex(t.grid, t.omega.masses),
    }
    if t.family in COEFFICIENT_BUILDERS:
        coeffs = t.meta["coefficients"]
        doc["coefficients"] = {str(h): float(coeffs[h])
                               for h in np.nonzero(coeffs)[0]}
    elif t.family == "random_ewl":
        # numpy integers, alone or in a tuple seed, as plain JSON ints
        doc["seed"] = np.asarray(t.meta["seed"]).tolist()
    else:
        lex = t.grid.lex_to_morton
        doc["matrix"] = t.leaf_matrix()[np.ix_(lex, lex)].tolist()
    return doc


def _finite(values, name):
    """values as floats; JSON admits NaN and Infinity, which no operator has."""
    values = np.asarray(values, dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite, not NaN or infinite")
    return values


def operator_from_dict(doc: dict) -> DyadicOperator:
    if not isinstance(doc, dict):
        raise ValueError(f"operator must be a JSON object, not {type(doc).__name__}")
    # the cap is read from the document, before any address table or N x N W
    bits = int(doc["grid"]["dimension"]) * int(doc["grid"]["depth"])
    if bits >= MAX_OPERATOR_LEAVES.bit_length():
        leaves = 2**bits if bits < 63 else f"2^{bits}"
        raise GridSizeError(f"operator grid of {leaves} leaves is above "
                            f"the cap of {MAX_OPERATOR_LEAVES}")
    grid = grid_from_dict(doc["grid"])
    sigma = LeafMeasure(grid, _from_lex(grid, doc["sigma_masses"]))
    omega = LeafMeasure(grid, _from_lex(grid, doc["omega_masses"]))
    family = doc["family"]
    if family in COEFFICIENT_BUILDERS:
        coeffs = doc["coefficients"]
        if not isinstance(coeffs, dict):
            raise ValueError("coefficients must map heap indices to values")
        b = CoefficientSequence.from_dict(grid, {int(h): v for h, v in coeffs.items()})
        _finite(b.values, "coefficients")
        return COEFFICIENT_BUILDERS[family](b, sigma, omega)
    if family == "random_ewl":
        seed = doc["seed"]
        if isinstance(seed, list):
            seed = tuple(seed)
        return random_ewl(int(doc["claimed_radius"]), sigma, omega, seed)
    lex = grid.lex_to_morton
    a = np.zeros((grid.num_leaves,) * 2)
    a[np.ix_(lex, lex)] = _finite(doc["matrix"], "matrix entries")
    return from_leaf_matrix(grid, sigma, omega, a, family=family,
                            claimed_radius=doc.get("claimed_radius"))


# -- sweep rows -------------------------------------------------------------

def trial_row(seed, n, d, r, family, report) -> dict:
    return {
        "seed": int(seed), "n": int(n), "d": int(d), "r": int(r),
        "family": family, "norm": report.norm, "c1": report.c1,
        "c2": report.c2, "c3": report.c3, "c1g": report.c1_global,
        "c2g": report.c2_global, "ratio_sum": report.ratio_sum,
        "ratio_max": report.ratio_max, "wall_ms": report.wall_ms,
    }


def write_rows_csv(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_csv_cell(row[c]) for c in CSV_COLUMNS])


def read_rows_csv(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        return [row for row in reader]


def _csv_cell(v):
    if isinstance(v, float):
        return repr(float(v))  # builtin-float repr round-trips exactly
    return v


def dump_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)
