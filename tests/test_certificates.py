"""Proof-decomposition certificates: exact partitions and bound constants.

The constant prevalidation demanded before the sweep thresholds are trusted
lives here: exhaustive sign grids over the generator structure at depth 2,
randomized sign grids at depth 3, and a worst-case singular-vector check for
the comparable-scale bound.
"""

import numpy as np
import pytest

from twoweight import (
    GridSpec,
    HaarRectangle,
    LeafMeasure,
    build_grid,
    lebesgue,
    weighted_haar,
)
from twoweight.certificates import (
    a_term_bound,
    boundary_terms_check,
    count_M,
    decompose_ABC,
    full_certificate,
    split_B,
)
from twoweight.exceptions import DecompositionError
from twoweight.haar import indicator_coefficients
from twoweight.localization import ewl_radius
from twoweight.operators import (
    CoefficientSequence,
    DyadicOperator,
    martingale_transform,
    random_ewl,
)
from twoweight.stopping import build_stopping_family
from twoweight.testing import testing_report as make_report

from conftest import random_measure


def pair(rng, grid, zero_fraction=0.0, low=0.0):
    return (random_measure(grid, rng, zero_fraction, low=low),
            random_measure(grid, rng, zero_fraction, low=low))


def mean_zero(values, mu):
    return values - np.sum(values * mu.masses) / mu.total


def test_count_M_values():
    assert count_M(1, 0) == 1
    assert count_M(1, 1) == 7
    assert count_M(2, 1) == 21
    assert count_M(1, 2) == 31
    with pytest.raises(ValueError):
        count_M(0, 1)


def test_martingale_transform_pure_A(rng):
    grid = build_grid(GridSpec(1, 4))
    sigma, omega = pair(rng, grid, low=0.1)
    t = martingale_transform(CoefficientSequence.random(grid, rng), sigma, omega)
    f = mean_zero(rng.standard_normal(grid.num_leaves), sigma)
    g = mean_zero(rng.standard_normal(grid.num_leaves), omega)
    a, b, c, parts = decompose_ABC(t, f, g, 0)
    assert b == 0.0 and c == 0.0
    assert a == pytest.approx(parts["pi"], abs=1e-12 * t.frobenius())


def test_single_haar_pair_reduces_to_one_term(rng):
    grid = build_grid(GridSpec(1, 3))
    sigma, omega = pair(rng, grid, low=0.1)
    t = martingale_transform(CoefficientSequence.random(grid, rng), sigma, omega)
    f = weighted_haar(HaarRectangle(grid, 5), sigma).values
    g = weighted_haar(HaarRectangle(grid, 5), omega).values
    a, b, c, parts = decompose_ABC(t, f, g, 0)
    assert b == c == 0.0
    assert a == pytest.approx(t.pairing(f, g), abs=1e-13 * max(t.frobenius(), 1))


@pytest.mark.parametrize("r", [0, 1, 2])
def test_partition_residual_sweep(r, rng):
    grid = build_grid(GridSpec(1, 5))
    passes = 0
    for seed in range(50):
        sigma, omega = pair(rng, grid, zero_fraction=0.2)
        if sigma.total == 0 or omega.total == 0:
            continue
        t = random_ewl(r, sigma, omega, seed)
        f = mean_zero(rng.standard_normal(grid.num_leaves), sigma)
        g = mean_zero(rng.standard_normal(grid.num_leaves), omega)
        a, b, c, parts = decompose_ABC(t, f, g, r)
        scale = parts["fnorm"] * parts["gnorm"] * max(t.frobenius(), 1.0)
        assert abs(parts["residual"]) <= 1e-11 * max(scale, 1e-300)
        assert parts["max_partners"] <= count_M(1, r)
        passes += 1
    assert passes >= 45


def test_decomposition_error_names_pair(rng):
    # a dense operator is not localized at radius 0: cousin pairs survive
    grid = build_grid(GridSpec(1, 3))
    sigma, omega = pair(rng, grid, low=0.1)
    w = rng.standard_normal((8, 8))
    t = DyadicOperator(grid, sigma, omega, w)
    f = mean_zero(rng.standard_normal(8), sigma)
    g = mean_zero(rng.standard_normal(8), omega)
    with pytest.raises(DecompositionError) as err:
        decompose_ABC(t, f, g, 0)
    assert err.value.pair is not None


def test_boundary_terms_cases(rng):
    grid = build_grid(GridSpec(1, 4))
    sigma, omega = pair(rng, grid, low=0.1)
    t = random_ewl(1, sigma, omega, 3)
    rep = make_report(t, r=1, norm=False)
    n = grid.num_leaves

    # mean-zero f and g: all three terms vanish
    f = mean_zero(rng.standard_normal(n), sigma)
    g = mean_zero(rng.standard_normal(n), omega)
    terms, verdicts = boundary_terms_check(t, f, g, rep.c1, rep.c2)
    assert np.allclose(terms, 0.0, atol=1e-12 * t.frobenius())
    assert all(verdicts.values())

    # constant g: term1 is the whole Haar-vs-mean pairing, bounded by c2
    g_const = np.ones(n)
    terms, verdicts = boundary_terms_check(t, f, g_const, rep.c1, rep.c2)
    fn = np.sqrt(np.sum(sigma.masses * f**2))
    gn = np.sqrt(omega.total)
    assert abs(terms[0]) <= rep.c2 * fn * gn * (1 + 1e-9) + 1e-12
    assert all(verdicts.values())

    # f = g = 1: only term3 survives, bounded through c1
    terms, verdicts = boundary_terms_check(t, np.ones(n), np.ones(n), rep.c1, rep.c2)
    assert terms[0] == pytest.approx(0.0, abs=1e-12 * t.frobenius())
    assert terms[1] == pytest.approx(0.0, abs=1e-12 * t.frobenius())
    assert abs(terms[2]) <= rep.c1 * np.sqrt(sigma.total * omega.total) * (1 + 1e-9)
    assert all(verdicts.values())


def test_split_B_zero_for_radius_zero_martingale(rng):
    grid = build_grid(GridSpec(1, 3))
    sigma, omega = pair(rng, grid, low=0.1)
    t = martingale_transform(CoefficientSequence.random(grid, rng), sigma, omega)
    f = mean_zero(rng.standard_normal(8), sigma)
    g = mean_zero(rng.standard_normal(8), omega)
    _, b, _, parts = decompose_ABC(t, f, g, 0)
    fam = build_stopping_family(g, omega)
    rep = make_report(t, r=0, norm=False)
    b1, b2, per_s, verdicts, residuals, _ = split_B(t, parts, fam, 0, rep.c2)
    assert b == b1 == b2 == 0.0
    assert all(verdicts.values())


def test_split_B_single_stopping_rectangle_traced(rng):
    # family {Q0} only: every B pair shares the root parent, so B2 = 0 and
    # B1 = B; traced at depth 2 where the sums are small enough to follow
    grid = build_grid(GridSpec(1, 2))
    sigma, omega = pair(rng, grid, low=0.5)  # masses bounded away from 0
    t = random_ewl(1, sigma, omega, 11)
    f = mean_zero(rng.standard_normal(4), sigma)
    g = mean_zero(np.array([1.0, 1.1, 0.9, 1.05]), omega)  # near-constant
    _, b, _, parts = decompose_ABC(t, f, g, 1)
    fam = build_stopping_family(g, omega)
    assert list(fam.members) == [1]
    rep = make_report(t, r=1, norm=False)
    b1, b2, per_s, verdicts, residuals, _ = split_B(t, parts, fam, 1, rep.c2)
    assert b2 == 0.0
    assert b1 == pytest.approx(b, abs=1e-14 * max(1.0, t.frobenius()))
    i1, ii1 = per_s[1]
    assert b1 == pytest.approx(i1 - ii1, rel=1e-10, abs=1e-12)
    assert all(verdicts.values())


@pytest.mark.parametrize("n,d", [(1, 5), (1, 6), (2, 3)])
def test_full_certificate_random_sweep(n, d, rng):
    grid = build_grid(GridSpec(n, d))
    nn = grid.num_leaves
    for seed in range(6):
        sigma, omega = pair(rng, grid, zero_fraction=0.15)
        if sigma.total == 0 or omega.total == 0:
            continue
        t = random_ewl(seed % 3, sigma, omega, seed)
        cert = full_certificate(t, rng.standard_normal(nn), rng.standard_normal(nn))
        assert cert.passed, cert.failures()
        assert cert.pi_total == pytest.approx(
            cert.a_term + cert.b_term + cert.c_term,
            abs=1e-10 * max(1.0, t.frobenius()))
        assert cert.b_term == pytest.approx(cert.b1_term + cert.b2_term, abs=1e-12)


def test_certificate_degenerate_half_mass(rng):
    # omega vanishing on the left half of the root exercises every zero-mass
    # convention along the B side
    grid = build_grid(GridSpec(1, 5))
    masses = rng.uniform(0.2, 1.0, 32)
    masses[:16] = 0.0
    omega = LeafMeasure(grid, masses)
    sigma = random_measure(grid, rng, low=0.1)
    for r in (0, 1, 2):
        t = random_ewl(r, sigma, omega, r)
        cert = full_certificate(t, rng.standard_normal(32), rng.standard_normal(32))
        assert cert.passed, cert.failures()


def _sign_structured_operator(grid, sigma, omega, window_signs, mu_signs, nu_signs, r):
    """random_ewl's structure with prescribed signs instead of uniforms."""
    n = grid.num_leaves
    boxes = np.arange(n, dtype=np.int64)
    boxes[0] = 1
    depth = grid.box_depth[boxes]
    anc = np.maximum(boxes >> np.minimum(r, depth), 1)
    anc_depth = grid.box_depth[anc]
    w = np.zeros((n, n))
    k = 0
    for e in range(n):
        for g in range(n):
            gap_out = depth[g] - anc_depth[e]
            in_anc = gap_out >= 0 and (boxes[g] >> max(gap_out, 0)) == anc[e]
            gap_in = depth[e] - anc_depth[g]
            out_anc = gap_in >= 0 and (boxes[e] >> max(gap_in, 0)) == anc[g]
            if in_anc and out_anc:
                w[g, e] = window_signs[k % len(window_signs)]
                k += 1
    for e in range(1, n):
        mass = omega.box_mass[anc[e]]
        if mass > 0:
            idx, val = indicator_coefficients(omega, int(anc[e]))
            w[idx, e] += mu_signs[e % len(mu_signs)] * val / np.sqrt(mass)
    for g in range(1, n):
        mass = sigma.box_mass[anc[g]]
        if mass > 0:
            idx, val = indicator_coefficients(sigma, int(anc[g]))
            w[g, idx] += nu_signs[g % len(nu_signs)] * val / np.sqrt(mass)
    return DyadicOperator(grid, sigma, omega, w, family="custom", claimed_radius=r)


def _bounds_hold_for(t, r, f, g, rtol=1e-9):
    cert = full_certificate(t, f, g, r=r)
    return cert.passed, cert.failures()


def test_constant_prevalidation_exhaustive_depth2(rng):
    """Exhaustive sign grid over the generator structure at n=1, d=2, r<=1,
    with worst-case f, g from the singular vectors of the masked matrix."""
    grid = build_grid(GridSpec(1, 2))
    sigma, omega = pair(rng, grid, low=0.3)
    checked = 0
    for r in (0, 1):
        for pattern in range(64):
            signs = [1.0 if (pattern >> i) & 1 else -1.0 for i in range(6)]
            for mu_pat in ((1.0, -1.0), (-1.0, 1.0)):
                t = _sign_structured_operator(grid, sigma, omega, signs,
                                              mu_pat, mu_pat[::-1], r)
                assert ewl_radius(t) <= r
                # worst-case inputs: top singular pair of the whitened matrix
                u, _, vt = np.linalg.svd(t.w)
                from twoweight.haar import synthesize

                f = synthesize(sigma, vt[0])
                g = synthesize(omega, u[:, 0])
                ok, failures = _bounds_hold_for(t, r, f, g)
                assert ok, (r, pattern, failures)
                ok, failures = _bounds_hold_for(
                    t, r, rng.standard_normal(4), rng.standard_normal(4))
                assert ok, (r, pattern, failures)
                checked += 1
    assert checked == 256


def test_constant_prevalidation_randomized_depth3(rng):
    """Randomized +-1 grids at n=1, d=3 across radii; also certifies the
    comparable-part bound against the worst case over all f, g at once."""
    grid = build_grid(GridSpec(1, 3))
    for trial in range(120):
        sigma, omega = pair(rng, grid, low=0.05)
        r = int(rng.integers(0, 3))
        signs = rng.choice([-1.0, 1.0], size=16)
        mu_s = rng.choice([-1.0, 1.0], size=8)
        nu_s = rng.choice([-1.0, 1.0], size=8)
        t = _sign_structured_operator(grid, sigma, omega, signs, mu_s, nu_s, r)
        ok, failures = _bounds_hold_for(
            t, r, rng.standard_normal(8), rng.standard_normal(8))
        assert ok, (trial, failures)
        # worst case over every pair (f, g): sigma_max of the A-masked matrix
        depth = grid.box_depth[:8].copy()
        masked = t.w.copy()
        masked[0, :] = masked[:, 0] = 0.0
        for e in range(1, 8):
            for gg in range(1, 8):
                if abs(int(depth[e]) - int(depth[gg])) > r:
                    masked[gg, e] = 0.0
        worst_a = float(np.linalg.svd(masked, compute_uv=False)[0])
        c3_next = make_report(t, r=r + 1, norm=False).c3
        assert worst_a <= 4 * count_M(1, r) * c3_next * (1 + 1e-9) + 1e-12


def test_a_term_bound_record():
    rec = a_term_bound(0.5, 1, 1, 0.25, 1.0, 1.0)
    assert rec["M"] == 7
    assert rec["bound"] == pytest.approx(7.0)
    assert rec["ok"]
