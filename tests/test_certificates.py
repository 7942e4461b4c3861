"""Proof-decomposition certificates: exact partitions and bound constants.

The constant prevalidation demanded before the sweep thresholds are trusted
lives here: exhaustive sign grids over the generator structure at depth 2,
randomized sign grids at depth 3, and a worst-case singular-vector check for
the comparable-scale bound.
"""

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from twoweight import (
    GridSpec,
    HaarRectangle,
    LeafMeasure,
    build_grid,
    lebesgue,
    weighted_haar,
)
from twoweight import _kernels, haar
from twoweight.certificates import (
    BOUND_SLACK,
    PARTITION_RTOL,
    bound_factors,
    boundary_terms_check,
    decompose_ABC,
    full_certificate,
    prepare,
    split_B,
)
from twoweight.exceptions import DecompositionError
from twoweight.haar import basis, indicator_coefficients
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


def report_at(t, r):
    """The testing report a certificate of t at radius r reads."""
    return make_report(t, r=r, norm=False, c3_next=True)


def _split_B_loop_reference(t, parts, g, family, r, c2):
    """split_B as a per-rectangle loop: each pairing <T(sigma h_E), 1_Q> is
    the sparse indicator analysis of Q dotted with column E of W, and the
    averages of g0 (g the prepared record on t.omega) are summed here."""
    grid = t.grid
    omega = t.omega
    fhat = parts["fhat"]
    fnorm, gnorm = parts["fnorm"], parts["gnorm"]
    scale = max(fnorm * gnorm * max(t.frobenius(), 1.0), 1e-300)
    m_const = (1 << (2 * r + 1)) - 1  # the partner count, at every n
    slack = 1e-12 * fnorm * gnorm * t.frobenius()
    om_mass = omega.box_mass

    gints = _kernels.box_sums(g.values0 * omega.masses)
    with np.errstate(invalid="ignore", divide="ignore"):
        gavg = np.where(om_mass > 0, gints / np.where(om_mass > 0, om_mass, 1.0), 0.0)

    depth = grid.box_depth
    sp = family.stop_parent
    anc_all = np.maximum(np.arange(grid.num_boxes, dtype=np.int64) >> r, 1)
    spanc = sp[anc_all]

    gs = parts["G"][parts["mask_b"]]
    es = parts["E"][parts["mask_b"]]
    contrib_b = parts["contrib"][parts["mask_b"]]
    s_f = spanc[es]
    s_g = sp[gs]
    same = s_f == s_g
    # no pair may put the g-side parent strictly inside the f-side parent
    gap = depth[s_g] - depth[s_f]
    strictly_below = (~same) & (gap > 0) & ((s_g >> np.maximum(gap, 0)) == s_f)
    structure_ok = not bool(np.any(strictly_below))

    b1 = float(np.sum(contrib_b[same]))
    b2_direct = float(np.sum(contrib_b[~same]))
    b1_per_s = {}
    for s, v in zip(s_f[same], contrib_b[same]):
        b1_per_s[int(s)] = b1_per_s.get(int(s), 0.0) + float(v)

    # per-rectangle pairings against 1_{E^(r)} and 1_{pi E^(r)}
    rect = np.arange(1, grid.num_leaves)
    sig_charged = basis(t.sigma).charged
    chain_cache = {}

    def chain(box):
        if box not in chain_cache:
            chain_cache[box] = indicator_coefficients(omega, box)
        return chain_cache[box]

    members = [int(s) for s in family.members]
    i_s = {s: 0.0 for s in members}
    ii_s = {s: 0.0 for s in members}
    p_norm_sq = {s: 0.0 for s in members}
    for e in rect:
        s = int(spanc[e])
        fe = float(fhat[e])
        p_norm_sq[s] += fe * fe
        if fe == 0.0 or not sig_charged[e]:
            continue
        idx, val = chain(int(anc_all[e]))
        t_anc = float(t.w[idx, e] @ val)
        idx, val = chain(s)
        t_stop = float(t.w[idx, e] @ val)
        i_s[s] += fe * float(gavg[anc_all[e]]) * t_anc
        ii_s[s] += fe * float(gavg[s]) * t_stop

    b2_collapsed = float(sum(ii_s.values()))
    b1_from_split = float(sum(i_s[s] - ii_s[s] for s in members))

    # exactness residuals (relative to the pairing scale)
    res_split = max(
        abs(b1_per_s.get(s, 0.0) - (i_s[s] - ii_s[s])) for s in members
    ) if members else 0.0
    residuals = {
        "b2_collapse": abs(b2_direct - b2_collapsed) / scale,
        "b_s_split": res_split / scale,
        "b1_sum": abs(b1 - b1_from_split) / scale,
        "projection_norms": abs(sum(p_norm_sq.values()) - fnorm**2)
        / max(fnorm**2, 1e-300),
    }

    # bound verdicts
    sqrt_m = np.sqrt(m_const)
    k_b1 = (2.0 * sqrt_m + 1.0) * np.sqrt(8.0)
    ok_i = ok_ii = True
    for s in members:
        cap = np.sqrt(om_mass[s]) * family.abs_average[s] * np.sqrt(p_norm_sq[s]) * c2
        ok_i &= abs(i_s[s]) <= 2.0 * sqrt_m * cap * (1 + BOUND_SLACK) + slack
        ok_ii &= abs(ii_s[s]) <= cap * (1 + BOUND_SLACK) + slack
    verdicts = {
        "b_structure": structure_ok,
        "b2_collapse": residuals["b2_collapse"] <= PARTITION_RTOL,
        "b_s_split": residuals["b_s_split"] <= PARTITION_RTOL,
        "b1_sum": residuals["b1_sum"] <= PARTITION_RTOL,
        "projection_norms": residuals["projection_norms"] <= PARTITION_RTOL,
        "bound_I": bool(ok_i),
        "bound_II": bool(ok_ii),
        "bound_B2": abs(b2_direct)
        <= np.sqrt(8.0) * c2 * fnorm * gnorm * (1 + BOUND_SLACK) + slack,
        "bound_B1": abs(b1) <= k_b1 * c2 * fnorm * gnorm * (1 + BOUND_SLACK) + slack,
    }
    constants = {"M": m_const, "A_factor": 4.0 * m_const, "I_factor": 2.0 * sqrt_m,
                 "II_factor": 1.0, "B2_factor": np.sqrt(8.0), "K_B1": k_b1}
    per_stopping = {s: (i_s[s], ii_s[s]) for s in members}
    return b1, b2_direct, per_stopping, verdicts, residuals, constants


def test_count_M_values():
    assert bound_factors(1, 0)["M"] == 1
    assert bound_factors(1, 1)["M"] == 7
    assert bound_factors(2, 1)["M"] == 7
    assert bound_factors(3, 1)["M"] == 7
    assert bound_factors(1, 2)["M"] == 31
    assert bound_factors(3, 2)["M"] == 31
    with pytest.raises(ValueError):
        bound_factors(0, 1)


def test_martingale_transform_pure_A(rng):
    grid = build_grid(GridSpec(1, 4))
    sigma, omega = pair(rng, grid, low=0.1)
    t = martingale_transform(CoefficientSequence.random(grid, rng), sigma, omega)
    f = mean_zero(rng.standard_normal(grid.num_leaves), sigma)
    g = mean_zero(rng.standard_normal(grid.num_leaves), omega)
    a, b, c, parts = decompose_ABC(t, prepare(f, sigma), prepare(g, omega), 0)
    assert b == 0.0 and c == 0.0
    assert a == pytest.approx(parts["pi"], abs=1e-12 * t.frobenius())


def test_single_haar_pair_reduces_to_one_term(rng):
    grid = build_grid(GridSpec(1, 3))
    sigma, omega = pair(rng, grid, low=0.1)
    t = martingale_transform(CoefficientSequence.random(grid, rng), sigma, omega)
    f = weighted_haar(HaarRectangle(grid, 5), sigma).values
    g = weighted_haar(HaarRectangle(grid, 5), omega).values
    a, b, c, parts = decompose_ABC(t, prepare(f, sigma), prepare(g, omega), 0)
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
        a, b, c, parts = decompose_ABC(t, prepare(f, sigma), prepare(g, omega), r)
        scale = parts["fnorm"] * parts["gnorm"] * max(t.frobenius(), 1.0)
        assert abs(parts["residual"]) <= 1e-11 * max(scale, 1e-300)
        assert parts["max_partners"] <= bound_factors(1, r)["M"]
        passes += 1
    assert passes >= 45


def test_full_certificate_scales_with_the_coefficients(rng):
    """full_certificate on c W, c from 1e-14 to 1e6: A, B, C, B1 and B2 are c
    times their values at c = 1 within 1e-9 relative, with the same
    verdicts.  The floor below which an entry of W is dropped, the residual
    scale and the slack of every bound all follow ||W||_F, so no unit
    decides which pairs count or which bound holds."""
    grid = build_grid(GridSpec(1, 5))
    keys = ("a_term", "b_term", "c_term", "b1_term", "b2_term")
    for seed in range(6):
        sigma, omega = pair(rng, grid)
        t = random_ewl(1, sigma, omega, seed)
        f, g = rng.standard_normal((2, grid.num_leaves))
        base = full_certificate(t, f, g)
        for c in (1e-14, 1e-12, 1e-6, 1.0, 1e6):
            cert = full_certificate(DyadicOperator(grid, sigma, omega, c * t.w), f, g)
            for key in keys:
                want = c * getattr(base, key)
                assert abs(getattr(cert, key) - want) <= 1e-9 * abs(want), (seed, c, key)
            assert cert.verdicts == base.verdicts, (seed, c)


def test_bound_B2_fails_at_c2_zero_at_every_scale(rng):
    """With c2 = 0 in the report the B2 bound is 0 and the nonzero B2 term
    must fail it, at W and at 1e-14 W alike: the slack of a bound verdict is
    relative to ||f|| ||g|| ||W||_F, not an absolute floor.  g is
    log-normal, so its stopping family nests and B2 is not empty."""
    grid = build_grid(GridSpec(1, 5))
    sigma, omega = pair(rng, grid)
    t = random_ewl(1, sigma, omega, 0)
    f = rng.standard_normal(grid.num_leaves)
    g = np.exp(3 * rng.standard_normal(grid.num_leaves))
    for c in (1.0, 1e-14):
        tc = DyadicOperator(grid, sigma, omega, c * t.w)
        report = dataclasses.replace(make_report(tc, norm=False, c3_next=True), c2=0.0)
        cert = full_certificate(tc, f, g, report)
        assert abs(cert.b2_term) > 1e-3 * c, c
        assert not cert.verdicts["bound_B2"], c


def test_decomposition_error_names_pair(rng):
    # a dense operator is not localized at radius 0: cousin pairs survive
    grid = build_grid(GridSpec(1, 3))
    sigma, omega = pair(rng, grid, low=0.1)
    w = rng.standard_normal((8, 8))
    t = DyadicOperator(grid, sigma, omega, w)
    f = mean_zero(rng.standard_normal(8), sigma)
    g = mean_zero(rng.standard_normal(8), omega)
    with pytest.raises(DecompositionError) as err:
        decompose_ABC(t, prepare(f, sigma), prepare(g, omega), 0)
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
    terms, verdicts = boundary_terms_check(t, prepare(f, sigma), prepare(g, omega),
                                           rep.c1, rep.c2)
    assert np.allclose(terms, 0.0, atol=1e-12 * t.frobenius())
    assert all(verdicts.values())

    # constant g: term1 is the whole Haar-vs-mean pairing, bounded by c2
    g_const = np.ones(n)
    terms, verdicts = boundary_terms_check(t, prepare(f, sigma), prepare(g_const, omega),
                                           rep.c1, rep.c2)
    fn = np.sqrt(np.sum(sigma.masses * f**2))
    gn = np.sqrt(omega.total)
    assert abs(terms[0]) <= rep.c2 * fn * gn * (1 + 1e-9) + 1e-12
    assert all(verdicts.values())

    # f = g = 1: only term3 survives, bounded through c1
    terms, verdicts = boundary_terms_check(t, prepare(np.ones(n), sigma),
                                           prepare(np.ones(n), omega), rep.c1, rep.c2)
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
    g = prepare(g, omega)
    _, b, _, parts = decompose_ABC(t, prepare(f, sigma), g, 0)
    fam = build_stopping_family(g.values0, omega)
    rep = make_report(t, r=0, norm=False)
    b1, b2, per_s, verdicts, residuals = split_B(t, parts, fam, 0, rep.c2)
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
    g = prepare(g, omega)
    _, b, _, parts = decompose_ABC(t, prepare(f, sigma), g, 1)
    fam = build_stopping_family(g.values0, omega)
    assert list(fam.members) == [1]
    rep = make_report(t, r=1, norm=False)
    b1, b2, per_s, verdicts, residuals = split_B(t, parts, fam, 1, rep.c2)
    assert b2 == 0.0
    assert b1 == pytest.approx(b, abs=1e-14 * max(1.0, t.frobenius()))
    i1, ii1 = per_s[1]
    assert b1 == pytest.approx(i1 - ii1, rel=1e-10, abs=1e-12)
    assert all(verdicts.values())


SPLIT_B_GRIDS = [(1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 2), (2, 3)]


@pytest.mark.parametrize("n,d", SPLIT_B_GRIDS)
def test_split_B_matches_loop_reference(n, d, rng):
    """The array split_B against the per-rectangle loop, on both sides."""
    grid = build_grid(GridSpec(n, d))
    nn = grid.num_leaves
    checked = 0
    for zero_fraction in (0.0, 0.3):
        for r in range(4):
            sigma, omega = pair(rng, grid, zero_fraction)
            if sigma.total == 0 or omega.total == 0:
                continue
            t = random_ewl(r, sigma, omega, 100 * r + d)
            rep = make_report(t, r=r, norm=False)
            f = prepare(rng.standard_normal(nn), sigma)
            g = prepare(rng.standard_normal(nn), omega)
            ta = t.adjoint()
            fam_g = build_stopping_family(g.values0, omega)
            fam_f = build_stopping_family(f.values0, sigma)
            zero = prepare(np.zeros(nn), sigma)
            cases = [(t, decompose_ABC(t, f, g, r)[3], g, fam_g, rep.c2),
                     (ta, decompose_ABC(ta, g, f, r)[3], f, fam_f, rep.c1),
                     # no live rectangle: every per-S term is a float zero
                     (t, decompose_ABC(t, zero, g, r)[3], g, fam_g, rep.c2)]
            for op, parts, g_side, fam, const in cases:
                got = split_B(op, parts, fam, r, const)
                want = _split_B_loop_reference(op, parts, g_side, fam, r, const)
                scale = max(abs(parts["pi"]), parts["fnorm"] * parts["gnorm"])
                assert abs(got[0] - want[0]) <= 1e-13 * scale
                assert abs(got[1] - want[1]) <= 1e-13 * scale
                assert got[2].keys() == want[2].keys()
                assert all(type(v) is float for terms in got[2].values() for v in terms)
                for s, (i_s, ii_s) in want[2].items():
                    assert abs(got[2][s][0] - i_s) <= 1e-13 * scale
                    assert abs(got[2][s][1] - ii_s) <= 1e-13 * scale
                assert got[3] == want[3]
                assert got[4].keys() == want[4].keys()
                for key, res in want[4].items():
                    assert abs(got[4][key] - res) <= 1e-13
                assert bound_factors(n, r) == want[5]
                checked += 1
    assert checked >= 8



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


def test_full_certificate_rejects_a_report_at_another_radius():
    rng = np.random.default_rng(5)
    grid = build_grid(GridSpec(1, 4))
    sigma, omega = pair(rng, grid, zero_fraction=0.2)
    t = random_ewl(1, sigma, omega, 3)
    f, g = rng.standard_normal((2, grid.num_leaves))
    # the certificate runs at the report's radius, and its A bound needs c3
    # at the next one: a report without it is rejected
    without_next = make_report(t, r=1, norm=False)
    with pytest.raises(ValueError, match="c3 at radius 2; got a report at radius 1 "
                                         "with c3_next None"):
        full_certificate(t, f, g, report=without_next)
    matching = report_at(t, 1)  # 1 is the EWL radius, the default
    assert (full_certificate(t, f, g, report=matching).as_dict()
            == full_certificate(t, f, g).as_dict())


def test_full_certificate_analyzes_each_function_once(rng, monkeypatch):
    """f, g, f0 and g0 are analyzed once each, and T(sigma 1) not at all:
    the boundary terms read it off W; the other box sums are one signed and
    one absolute average per stopping side."""
    grid = build_grid(GridSpec(1, 4))
    sigma, omega = pair(rng, grid, zero_fraction=0.2)
    t = random_ewl(1, sigma, omega, 3)
    rep = make_report(t, r=1, norm=False, c3_next=True)
    f, g = rng.standard_normal((2, grid.num_leaves))
    calls = {"analyze": 0, "box_sums": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    original = haar.analyze
    for name, module in list(sys.modules.items()):
        if name.startswith("twoweight") and getattr(module, "analyze", None) is original:
            monkeypatch.setattr(module, "analyze", counted("analyze", original))
    monkeypatch.setattr(_kernels, "box_sums", counted("box_sums", _kernels.box_sums))
    full_certificate(t, f, g, report=rep)
    assert calls == {"analyze": 4, "box_sums": 8}


@st.composite
def certified_cases(draw):
    """(t, f, g, r): random_ewl at radius r <= 2 on n = 1 (d <= 5) or n = 2
    (d <= 3) with some massless leaves; both measures charge the grid."""
    n = draw(st.integers(1, 2))
    d = draw(st.integers(1, 5 if n == 1 else 3))
    r = draw(st.integers(0, 2))
    zero_fraction = draw(st.sampled_from([0.0, 0.2, 0.5]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    grid = build_grid(GridSpec(n, d))
    sigma, omega = pair(rng, grid, zero_fraction)
    assume(sigma.total > 0 and omega.total > 0)
    f, g = rng.standard_normal((2, grid.num_leaves))
    return random_ewl(r, sigma, omega, seed), f, g, r


@settings(derandomize=True, max_examples=200, deadline=None)
@given(certified_cases())
def test_certificate_duality_under_the_adjoint(case):
    """The B side of the certificate of (T*, g, f) is the C side of (T, f, g)
    and back, exactly; verdicts agree and Pi, A and B(T*) = C(T) agree to
    rounding."""
    t, f, g, r = case
    cert = full_certificate(t, f, g, report=report_at(t, r))
    dual = full_certificate(t.adjoint(), g, f, report=report_at(t.adjoint(), r))
    for one, other in ((cert, dual), (dual, cert)):
        b_side = one.as_dict()
        assert {k: b_side[k] for k in ("b1_term", "b2_term", "per_stopping")} == {
            "b1_term": other.c_side["b1"], "b2_term": other.c_side["b2"],
            "per_stopping": other.c_side["per_stopping"]}
    assert cert.passed == dual.passed
    assert dual.pi_total == pytest.approx(cert.pi_total, rel=1e-12)
    assert dual.a_term == pytest.approx(cert.a_term, rel=1e-12)
    assert dual.b_term == pytest.approx(cert.c_term, rel=1e-12)


def test_certificate_on_a_measure_charging_one_leaf(rng):
    # L^2 of a one-leaf measure holds only constants: the mean-zero part is
    # exactly zero on that side, not the rounding left by subtracting the mean
    grid = build_grid(GridSpec(1, 3))
    masses = np.zeros(8)
    masses[5] = 0.7
    atom = LeafMeasure(grid, masses)
    spread = random_measure(grid, rng, low=0.1)
    for sigma, omega in ((atom, spread), (spread, atom)):
        for r in (0, 1):
            t = random_ewl(r, sigma, omega, r)
            for f, g in rng.standard_normal((4, 2, 8)):
                cert = full_certificate(t, f, g, report=report_at(t, r))
                assert cert.passed, cert.failures()
                assert cert.pi_total == cert.a_term == cert.b_term == cert.c_term == 0.0


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


def _bounds_hold_for(t, r, f, g):
    cert = full_certificate(t, f, g, report=report_at(t, r))
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
        assert worst_a <= 4 * bound_factors(1, r)["M"] * c3_next * (1 + 1e-9) + 1e-12


def test_full_certificate_a_bound_verdict():
    """bound_A is |A| <= 4 M c3' ||f0|| ||g0||, with M(1, 1) = 7 and c3' the
    report's c3 at radius r + 1: it holds at the measured c3' and fails once
    c3' is cut below |A| / (4 M ||f0|| ||g0||)."""
    rng = np.random.default_rng(5)
    grid = build_grid(GridSpec(1, 4))
    sigma, omega = pair(rng, grid, zero_fraction=0.2)
    t = random_ewl(1, sigma, omega, 3)
    f, g = rng.standard_normal((2, grid.num_leaves))
    report = report_at(t, 1)
    cert = full_certificate(t, f, g, report=report)
    assert cert.bound_constants["M"] == 7
    norm0 = prepare(f, sigma).norm0 * prepare(g, omega).norm0
    assert 0 < abs(cert.a_term) <= 4 * 7 * report.c3_next * norm0
    assert cert.verdicts["bound_A"]
    report.c3_next = 0.5 * abs(cert.a_term) / (4 * 7 * norm0)
    assert not full_certificate(t, f, g, report=report).verdicts["bound_A"]


@pytest.mark.parametrize("n,d", [(1, 4), (1, 6), (2, 3)])
def test_certificate_near_constant_f_or_g(rng, n, d):
    """f = 3 + eps noise, g = -7 + eps noise, or both, exactly constant at
    eps = 0, on random_ewl operators of radius 1 and 2: every certificate
    passes.  With f0 the leaf subtraction f - mean, eps |mean| stayed in
    f0's constant slot, which Pi kept and A + B + C dropped."""
    grid = build_grid(GridSpec(n, d))
    size = grid.num_leaves
    for r in (1, 2):
        sigma, omega = pair(rng, grid)
        t = random_ewl(r, sigma, omega, r)
        for eps in (0.0, 1e-14, 1e-10, 1e-8, 1e-4):
            near_f = 3.0 + eps * rng.standard_normal(size)
            near_g = -7.0 + eps * rng.standard_normal(size)
            f, g = rng.standard_normal(size), rng.standard_normal(size)
            for pair_fg in ((near_f, g), (f, near_g), (near_f, near_g)):
                cert = full_certificate(t, *pair_fg)
                assert cert.passed, (r, eps, cert.failures())
                # f0's coefficients and leaf values describe one mean-zero function
                f0 = prepare(pair_fg[0], sigma)
                assert f0.coef0[0] == 0.0
                assert np.array_equal(f0.values0, haar.synthesize(sigma, f0.coef0))
