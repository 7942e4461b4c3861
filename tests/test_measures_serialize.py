"""Measures, the change-of-variables constructor, and JSON/CSV round-trips."""

import json
from fractions import Fraction

import numpy as np
import pytest

from twoweight import (
    GridSpec,
    LeafFunction,
    LeafMeasure,
    build_grid,
    from_pointwise_weights,
    indicator,
    inner,
    lebesgue,
)
from twoweight import serialize
from twoweight.exceptions import DomainError
from twoweight.operators import COEFFICIENT_BUILDERS, CoefficientSequence, random_ewl
from twoweight.sweep import SweepConfig


def test_from_weights_trivial_units():
    grid = build_grid(GridSpec(1, 2))
    ones = LeafFunction(grid, np.ones(4))
    sigma, omega = from_pointwise_weights(ones, ones)
    assert np.allclose(sigma.masses, 0.25)
    assert np.allclose(omega.masses, 0.25)


def test_from_weights_single_leaf():
    grid = build_grid(GridSpec(1, 0))
    sigma, _ = from_pointwise_weights(LeafFunction(grid, [2.0]), LeafFunction(grid, [1.0]))
    assert sigma.total == pytest.approx(0.5)


def test_from_weights_step_weight_hand_computed():
    # u(x) = 1/x on leaf midpoints: sigma(leaf) = |leaf| * x_leaf
    grid = build_grid(GridSpec(1, 2))
    mid = grid.leaf_centers[:, 0]
    u = LeafFunction(grid, 1.0 / mid)
    v = LeafFunction(grid, np.zeros(4))
    sigma, omega = from_pointwise_weights(u, v)
    assert np.allclose(sigma.masses, 0.25 * mid)
    assert omega.total == 0.0


def test_from_weights_rejects_nonpositive_u():
    grid = build_grid(GridSpec(1, 1))
    with pytest.raises(DomainError):
        from_pointwise_weights(LeafFunction(grid, [1.0, 0.0]), LeafFunction(grid, [1.0, 1.0]))


def test_inner_trivials(rng):
    grid = build_grid(GridSpec(1, 3))
    mu = LeafMeasure(grid, rng.uniform(0, 1, 8))
    f = LeafFunction(grid, rng.standard_normal(8))
    assert inner(f, f, mu) == pytest.approx(f.norm(mu) ** 2)
    ones = indicator(grid, 1)
    assert inner(ones, ones, mu) == pytest.approx(mu.total)


def test_measure_json_roundtrip_bit_exact(rng):
    grid = build_grid(GridSpec(2, 2, origin=(Fraction(-1, 4), Fraction(0)), side=Fraction(3, 2)))
    mu = LeafMeasure(grid, rng.uniform(0, 1, grid.num_leaves))
    doc = serialize.measure_to_dict(mu)
    text = json.dumps(doc)
    back = serialize.measure_from_dict(json.loads(text))
    assert back.grid.spec == grid.spec
    assert np.array_equal(back.masses, mu.masses)  # floats exact via repr


def test_masses_serialized_in_lex_order():
    grid = build_grid(GridSpec(2, 1))
    # leaf (x0, x1) gets value 10*x0 + x1; lex order sorts by (x0, x1)
    masses = np.zeros(4)
    for lex in range(4):
        x0, x1 = lex // 2, lex % 2
        masses[grid.lex_to_morton[lex]] = 10 * x0 + x1 + 1
    mu = LeafMeasure(grid, masses)
    assert serialize.measure_to_dict(mu)["masses"] == [1.0, 2.0, 11.0, 12.0]


def test_function_roundtrip(rng):
    grid = build_grid(GridSpec(1, 3))
    f = LeafFunction(grid, rng.standard_normal(8))
    back = serialize.function_from_dict(serialize.function_to_dict(f))
    assert np.array_equal(back.values, f.values)


@pytest.mark.parametrize("family", [*COEFFICIENT_BUILDERS, "random_ewl", "random_ewl_tuple"])
def test_operator_roundtrip_coefficient_family(family, rng):
    grid = build_grid(GridSpec(1, 3))
    sigma = LeafMeasure(grid, rng.uniform(0.1, 1, 8))
    omega = LeafMeasure(grid, rng.uniform(0.1, 1, 8))
    if family in COEFFICIENT_BUILDERS:
        t = COEFFICIENT_BUILDERS[family](CoefficientSequence.random(grid, rng), sigma, omega)
    else:
        # the seed as the sweep draws it (np.int64), or as a tuple of ints
        seed = rng.integers(0, 2**63 - 1)
        t = random_ewl(1, sigma, omega, (seed, np.int64(3)) if family.endswith("tuple") else seed)
    doc = json.loads(json.dumps(serialize.operator_to_dict(t)))
    back = serialize.operator_from_dict(doc)
    assert back.family == t.family
    assert np.array_equal(back.w, t.w)


@pytest.mark.parametrize("family", COEFFICIENT_BUILDERS)
def test_coefficient_registry_drives_sweep_and_serialize(family, rng):
    assert SweepConfig.from_dict({"families": [family]}).families == [family]
    grid = build_grid(GridSpec(1, 2))
    t = COEFFICIENT_BUILDERS[family](CoefficientSequence.random(grid, rng),
                                     lebesgue(grid), lebesgue(grid))
    doc = serialize.operator_to_dict(t)
    assert "coefficients" in doc and "matrix" not in doc


def test_operator_roundtrip_dense_matrix(rng):
    from twoweight.operators import from_leaf_matrix

    grid = build_grid(GridSpec(1, 2))
    sigma = lebesgue(grid)
    omega = LeafMeasure(grid, rng.uniform(0.1, 1, 4))
    a = rng.standard_normal((4, 4))
    t = from_leaf_matrix(grid, sigma, omega, a, family="custom")
    doc = json.loads(json.dumps(serialize.operator_to_dict(t)))
    back = serialize.operator_from_dict(doc)
    assert np.allclose(back.leaf_matrix(), t.leaf_matrix(), atol=1e-12)


def test_trial_row_columns():
    assert serialize.CSV_COLUMNS == [
        "seed", "n", "d", "r", "family", "norm", "c1", "c2", "c3",
        "c1g", "c2g", "ratio_sum", "ratio_max", "wall_ms",
    ]
