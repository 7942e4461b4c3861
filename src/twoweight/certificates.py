"""Numerical certificates for the bilinear-form decomposition and its bounds.

For mean-zero f and g the pairing Pi(f, g) = <T(sigma f), g>_omega splits
over coefficient pairs (E, G) by relative volume into

    A: comparable sizes, 2^-r |E| <= |G| <= 2^r |E|;
    B: G strictly above the r-ancestor of E;
    C: E strictly above the r-ancestor of G;

pairs outside the three classes vanish by the support property, which the
certificate verifies against the directly computed pairing.  B is split over
a stopping family for |g| into B1 (both sides sharing a stopping parent) and
B2 (g-side parent strictly larger); per stopping rectangle S,

    B_S  = I_S - II_S,
    I_S  = sum_{E: pi E^(r) = S} fhat(E) <g>_{E^(r)} <T(sigma h_E), 1_{E^(r)}>,
    II_S = <g>_S Pi(P~_S f, 1_S),

and B2 = sum_S II_S exactly (the collapsed form: II_S collects precisely the
pairs whose g-side rectangle leaves S).  The C-side runs the same machinery
on the adjoint with the roles of (f, sigma) and (g, omega) swapped.

Every term is a bilinear form in the whitened coefficients of f, g and their
mean-zero parts f0, g0.  full_certificate analyzes and norms each once into
one Analyzed record per function (prepare), which every stage reads; the
stopping family of |g0| carries the signed averages that split_B and
embedding_ratios share.  The adjoint side reuses the records (same functions,
same measures) but builds its own pair list from the adjoint's matrix, so
C = B(T*) still compares two independently classified sums.

Every inequality of the chain carries an explicit constant, built once by
bound_factors, recorded in bound_constants and pre-validated by the
exhaustive small-instance tests:

    |A|    <= 4 M c3' ||f|| ||g||           (c3' enumerated at radius r+1:
                                             half pairs of admissible Haar
                                             pairs meet the (r+1)-ancestor)
    |B2|   <= sqrt(8) c2 ||f|| ||g||
    |I_S|  <= 2 sqrt(M) c2 <|g|>_S omega(S)^{1/2} ||P~_S f||
    |II_S| <= c2 <|g|>_S omega(S)^{1/2} ||P~_S f||
    |B1|   <= (2 sqrt(M) + 1) sqrt(8) c2 ||f|| ||g||

plus the three boundary-term estimates of the mean-zero reduction
(constants c2, c1, c1).  M is the Schur-test count, the most admissible
partners one rectangle has.  Radii count heap levels: the partners of E are
the boxes of E^(r)'s subtree whose depth is within r of E's, and those
2r + 1 levels hold at most M = 1 + 2 + ... + 2^{2r} = 2^{2r+1} - 1 boxes at
every n, as a heap box has two children.  Counting r in cube generations
(n heap levels each) would give (2^{n(2r+1)} - 1) / (2^n - 1) instead.

A verdict holds when its left side is at most the bound times 1 +
BOUND_SLACK plus 1e-12 ||f|| ||g|| ||W||_F (_within): the slack scales with
W, f and g as the bounds do, so no unit decides a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DecompositionError
from .haar import analyze, basis, synthesize
from .measures import LeafMeasure
from .operators import DyadicOperator
from .stopping import EMBEDDING_LIMIT, StoppingFamily, build_stopping_family, embedding_ratios
from .testing import testing_report

PARTITION_RTOL = 1e-10
BOUND_SLACK = 1e-9


def bound_factors(n: int, r: int) -> dict:
    """The partner count M = 2^{2r+1} - 1, the same at every dimension n
    (module docstring), and the factors of the A, I, II, B2 and B1 bounds
    built from it."""
    if n < 1 or r < 0:
        raise ValueError("need n >= 1 and r >= 0")
    m = (1 << (2 * r + 1)) - 1
    sqrt_m = np.sqrt(m)
    return {"M": m, "A_factor": 4.0 * m, "I_factor": 2.0 * sqrt_m, "II_factor": 1.0,
            "B2_factor": np.sqrt(8.0), "K_B1": (2.0 * sqrt_m + 1.0) * np.sqrt(8.0)}


def _within(value, bound, scale):
    """|value| <= bound (elementwise, all of them), up to BOUND_SLACK of the
    bound and 1e-12 scale, scale = ||f|| ||g|| ||W||_F of the pairing."""
    return bool(np.all(np.abs(value) <= bound * (1 + BOUND_SLACK) + 1e-12 * scale))


@dataclass
class BilinearCertificate:
    """Exact partitions and bound verdicts for one (T, f, g) triple.

    pi_total is the pairing of the mean-zero parts; the removed means are
    accounted for by boundary_terms (their sum plus pi_total reproduces the
    original pairing, which is itself a recorded verdict).
    """

    pi_total: float
    a_term: float
    b_term: float
    c_term: float
    b1_term: float
    b2_term: float
    per_stopping: dict
    boundary_terms: tuple
    bound_constants: dict
    verdicts: dict
    residuals: dict
    c_side: dict = field(default_factory=dict)
    stopping_members: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def failures(self):
        return sorted(k for k, v in self.verdicts.items() if not v)

    def as_dict(self) -> dict:
        return {**vars(self),
                "per_stopping": {str(k): list(v) for k, v in self.per_stopping.items()},
                "boundary_terms": list(self.boundary_terms)}


@dataclass
class Analyzed:
    """A function f on mu, analyzed once for a certificate: the whitened
    coefficients (haar.analyze) and L^2(mu) norm of f, its mean, and the leaf
    values, coefficients and norm of its mean-zero part f0 = f - mean."""

    mu: LeafMeasure
    coef: np.ndarray
    norm: float
    mean: float
    values0: np.ndarray
    coef0: np.ndarray
    norm0: float


def prepare(values, mu: LeafMeasure) -> Analyzed:
    """The Analyzed record of leaf values on mu.  f0's coefficients are those
    of f - mean with the constant slot zeroed, where the subtraction leaves
    about eps |mean|, and its leaf values are synthesized from them, so both
    describe one mean-zero function (zero where mu charges no rectangle)."""
    values = np.asarray(values, dtype=np.float64)
    total = mu.total
    mean = float(np.sum(values * mu.masses)) / total if total > 0 else 0.0
    coef0 = analyze(mu, values - mean)
    coef0[0] = 0.0
    values0 = synthesize(mu, coef0)
    return Analyzed(mu, analyze(mu, values), mu.norm(values),
                    mean, values0, coef0, mu.norm(values0))


def boundary_terms_check(t: DyadicOperator, f: Analyzed, g: Analyzed, c1: float, c2: float):
    """The three mean-part pairings of the reduction and their bounds.

    term1 pairs the Haar part of f against the mean of g (bound c2), term2
    the mean of f against the Haar part of g (bound c1), term3 mean against
    mean (bound c1), each with constant 1 times ||f|| ||g||.  Each pairing is
    read from W and the coefficients, with no synthesis: <T(sigma f0), 1> is
    sqrt(omega(Q0)) (W f0^)[0], <T(sigma 1), g0> is sqrt(sigma(Q0)) g0^ . W[:, 0]
    and <T(sigma 1), 1> is sqrt(sigma(Q0) omega(Q0)) W[0, 0].
    """
    # read off W: 1 has coefficients sqrt(mu(Q0)) in the constant slot alone
    w, root_s, root_o = t.w, basis(t.sigma).sqrt_total, basis(t.omega).sqrt_total
    term1 = g.mean * (root_o * float(w[0] @ f.coef0))  # <T(sigma f0), 1>_omega
    term2 = f.mean * (root_s * float(g.coef0 @ w[:, 0]))  # <T(sigma 1), g0>_omega
    term3 = f.mean * g.mean * (root_s * root_o * float(w[0, 0]))  # <T(sigma 1), 1>_omega
    fg = f.norm * g.norm
    scale = fg * t.frobenius()
    verdicts = {
        "boundary_term1": _within(term1, c2 * fg, scale),
        "boundary_term2": _within(term2, c1 * fg, scale),
        "boundary_term3": _within(term3, c1 * fg, scale),
    }
    return (term1, term2, term3), verdicts


def decompose_ABC(t: DyadicOperator, f: Analyzed, g: Analyzed, r: int):
    """Split Pi(f0, g0) of the mean-zero parts into the A/B/C classes.

    Returns (a, b, c, parts); parts carries the classified pair arrays for
    split_B.  Raises DecompositionError when Pi - (A + B + C) exceeds
    PARTITION_RTOL ||f0|| ||g0|| ||T||_F, naming the largest excluded pair.
    """
    grid = t.grid
    fhat, ghat = f.coef0, g.coef0
    fnorm, gnorm = f.norm0, g.norm0

    tiny = 1e-13 * t.frobenius()  # relative to W alone, so scaling W keeps every class
    rows, cols, vals = t.nonzeros()
    # f0 and g0 have no constant part
    keep = (np.abs(vals) > tiny) & (rows >= 1) & (cols >= 1)
    gs, es = rows[keep].astype(np.int64), cols[keep].astype(np.int64)
    contrib = vals[keep] * ghat[gs] * fhat[es]

    gap = grid.box_depth[es] - grid.box_depth[gs]
    mask_a = np.abs(gap) <= r
    mask_b = (gap > r) & grid.contains(gs, es)
    mask_c = (-gap > r) & grid.contains(es, gs)
    mask_x = ~(mask_a | mask_b | mask_c)

    a = float(np.sum(contrib[mask_a]))
    b = float(np.sum(contrib[mask_b]))
    c = float(np.sum(contrib[mask_c]))
    pi = float(ghat @ (t.w @ fhat))  # t.pairing(f0, g0)
    residual = pi - (a + b + c)
    if abs(residual) > PARTITION_RTOL * max(fnorm * gnorm * t.frobenius(), 1e-300):
        pair = None
        if np.any(mask_x):
            worst = int(np.argmax(np.abs(contrib[mask_x])))
            pair = (int(es[mask_x][worst]), int(gs[mask_x][worst]))
        raise DecompositionError(
            f"A+B+C misses Pi by {residual:.3e}; worst excluded pair {pair}",
            pair=pair, residual=residual,
        )

    max_partners = 0
    if np.any(mask_a):
        _, counts = np.unique(es[mask_a], return_counts=True)
        max_partners = int(np.max(counts))

    parts = {"fhat": fhat, "fnorm": fnorm, "gnorm": gnorm, "G": gs, "E": es,
             "contrib": contrib, "mask_b": mask_b, "pi": pi, "residual": residual,
             "max_partners": max_partners}
    return a, b, c, parts


def _sums_by(index, weights, size):
    """out[k] = sum of weights[index == k], added in index order; float even
    when index is empty (np.bincount then returns integers)."""
    return np.bincount(index, weights=weights, minlength=size).astype(np.float64, copy=False)


def split_B(t: DyadicOperator, parts: dict, family: StoppingFamily, r: int, c2: float):
    """Exact B1/B2 split with per-S I/II terms and all bound verdicts.

    family is the stopping family of g0 (the g of parts), whose signed
    averages <g0>_Q enter I_S and II_S.
    I_S and II_S need <T(sigma h_E), 1_Q>_omega for Q = E^(r) and
    Q = pi(E^(r)).  For any box Q that pairing is omega(Q) S_E[Q], where
    S_E = synthesize_boxes(alpha_omega, beta_omega, W[:, E], 1/sqrt(omega(Q0)))
    is column E of W synthesized on every box: the value on Q collects the
    components of Q's strict ancestors and the constant, each times
    <h^omega_G, 1_Q>_omega / omega(Q).  S_E[Q], for every live column
    (fhat(E) != 0, E sigma-charged) and its two boxes, is one bincount over
    the terms of Q's root path, listed from the root down by
    WeightedBasis.average_coefficients (synthesize_boxes' value bit for
    bit, at O(P * tree depth) for P boxes instead of O(N^2)), and the per-S
    sums are bincounts over S = pi(E^(r)).

    The bound verdicts read bound_factors(n, r).
    Returns (b1, b2, per_stopping, verdicts, residuals).
    """
    grid = t.grid
    omega = t.omega
    fhat = parts["fhat"]
    fnorm, gnorm = parts["fnorm"], parts["gnorm"]
    scale = max(fnorm * gnorm * t.frobenius(), 1e-300)
    om_mass = omega.box_mass
    num_boxes = grid.num_boxes
    gavg = family.average

    sp = family.stop_parent
    anc_all = grid.ancestor(np.arange(num_boxes, dtype=np.int64), r)
    spanc = sp[anc_all]

    gs = parts["G"][parts["mask_b"]]
    es = parts["E"][parts["mask_b"]]
    contrib_b = parts["contrib"][parts["mask_b"]]
    s_f = spanc[es]
    s_g = sp[gs]
    same = s_f == s_g
    # no pair may put the g-side parent strictly inside the f-side parent
    structure_ok = not bool(np.any(~same & grid.contains(s_f, s_g)))

    b1 = float(np.sum(contrib_b[same]))
    b2_direct = float(np.sum(contrib_b[~same]))
    b1_per_s = _sums_by(s_f[same], contrib_b[same], num_boxes)

    # per-rectangle pairings against 1_{E^(r)} and 1_{pi E^(r)}
    fe = fhat[1:]
    p_norm_sq = _sums_by(spanc[1 : grid.num_leaves], fe * fe, num_boxes)
    live = np.flatnonzero((fe != 0.0) & basis(t.sigma).charged[1:]) + 1
    anc, stop = anc_all[live], spanc[live]
    boxes, cols = np.concatenate((anc, stop)), np.concatenate((live, live))
    i, slot, c = basis(omega).average_coefficients(boxes)
    values = om_mass[boxes] * _sums_by(i, c * t.w[slot, cols[i]], boxes.size)
    t_anc, t_stop = values[: live.size], values[live.size :]
    f_live = fhat[live]
    i_s = _sums_by(stop, f_live * gavg[anc] * t_anc, num_boxes)
    ii_s = _sums_by(stop, f_live * gavg[stop] * t_stop, num_boxes)

    members = family.members
    i_m, ii_m = i_s[members], ii_s[members]
    b2_collapsed = float(np.sum(ii_m))
    b1_from_split = float(np.sum(i_m - ii_m))

    # exactness residuals (relative to the pairing scale)
    res_split = float(np.max(np.abs(b1_per_s[members] - (i_m - ii_m))))
    residuals = {
        "b2_collapse": abs(b2_direct - b2_collapsed) / scale,
        "b_s_split": res_split / scale,
        "b1_sum": abs(b1 - b1_from_split) / scale,
        "projection_norms": abs(float(np.sum(p_norm_sq)) - fnorm**2)
        / max(fnorm**2, 1e-300),
    }

    # bound verdicts
    factors = bound_factors(grid.dimension, r)
    cap = (np.sqrt(om_mass[members]) * family.abs_average[members]
           * np.sqrt(p_norm_sq[members]) * c2)
    verdicts = {
        "b_structure": structure_ok,
        **{key: res <= PARTITION_RTOL for key, res in residuals.items()},
        "bound_I": _within(i_m, factors["I_factor"] * cap, scale),
        "bound_II": _within(ii_m, cap, scale),
        "bound_B2": _within(b2_direct, factors["B2_factor"] * c2 * fnorm * gnorm, scale),
        "bound_B1": _within(b1, factors["K_B1"] * c2 * fnorm * gnorm, scale),
    }
    per_stopping = dict(zip(members.tolist(), zip(i_m.tolist(), ii_m.tolist())))
    return b1, b2_direct, per_stopping, verdicts, residuals


def _stopping_side(t: DyadicOperator, parts: dict, g: Analyzed, r: int,
                   c: float, side: str, prefix: str):
    """The stopping family of |g0|, its embedding and packing, and split_B of t
    over it: (b1, b2, per_stopping, members), the side's verdicts, residuals
    (split_B's keys behind prefix) and constants."""
    family = build_stopping_family(g.values0, g.mu)
    emb = embedding_ratios(family, g.values0, g.mu)
    b1, b2, per_stopping, v, res = split_B(t, parts, family, r, c)
    slack, ratio = family.packing_slack()
    verdicts = {f"packing_{side}": family.packing_ok(),
                f"embedding_{side}": emb["absolute"] <= EMBEDDING_LIMIT,
                **{prefix + k: x for k, x in v.items()}}
    constants = {f"embedding_ratio_{side}": emb["absolute"],
                 f"embedding_signed_{side}": emb["signed"],
                 f"packing_slack_{side}": slack, f"packing_ratio_{side}": ratio}
    residuals = {prefix + k: x for k, x in res.items()}
    return (b1, b2, per_stopping, family.members), verdicts, residuals, constants


def full_certificate(t: DyadicOperator, f_values, g_values, report=None) -> BilinearCertificate:
    """Run the entire decomposition on (T, f, g) and verify every estimate.

    The C-term is certified by applying the B machinery to the adjoint with
    f and g (and their measures) swapped; the stopping family on that side
    is built from |f|.  ``report`` is a testing report of t with its
    c3_next, and the certificate runs at its radius r_used; without one it is
    computed here at the operator's EWL radius.  To certify at another
    radius r, pass testing_report(t, r=r, norm=False, c3_next=True).  f and g
    are analyzed once (prepare) and every stage reads those records.
    """
    if report is None:
        report = testing_report(t, norm=False, c3_next=True)
    r = report.r_used
    if report.c3_next is None:
        raise ValueError(f"a certificate at radius {r} needs c3 at radius {r + 1}; got "
                         f"a report at radius {r} with c3_next None")
    c1, c2, c3, c3_next = report.c1, report.c2, report.c3, report.c3_next
    factors = bound_factors(t.grid.dimension, r)

    f = prepare(f_values, t.sigma)
    g = prepare(g_values, t.omega)
    fnorm, gnorm = f.norm, g.norm
    boundary, verdicts = boundary_terms_check(t, f, g, c1, c2)

    a, b, c, parts = decompose_ABC(t, f, g, r)
    scale = max(fnorm * gnorm * t.frobenius(), 1e-300)
    pi_full = float(g.coef @ (t.w @ f.coef))  # t.pairing(f, g)
    residuals = {
        "abc_partition": abs(parts["residual"]) / scale,
        "mean_reduction": abs(pi_full - (parts["pi"] + sum(boundary))) / scale,
    }
    verdicts["partner_count"] = parts["max_partners"] <= factors["M"]

    # forward side on (g, omega) with c2; the C side runs it on (t*, f, sigma) with c1
    (b1, b2, per_stopping, members), v_g, res_g, const_g = _stopping_side(
        t, parts, g, r, c2, "g", "")
    verdicts.update(v_g)
    residuals.update(res_g)
    residuals["b_partition"] = abs(b - (b1 + b2)) / scale

    # symmetric side through the adjoint
    ta = t.adjoint()
    a2, b2_adj, c2_adj, parts_adj = decompose_ABC(ta, g, f, r)
    residuals["c_is_adjoint_b"] = abs(c - b2_adj) / scale
    (cb1, cb2, c_per_stop, _), v_f, res_f, const_f = _stopping_side(
        ta, parts_adj, f, r, c1, "f", "c_")
    verdicts.update(v_f)
    residuals.update(res_f)
    for key in ("abc_partition", "mean_reduction", "b_partition", "c_is_adjoint_b"):
        verdicts[key] = residuals[key] <= PARTITION_RTOL

    # |A| <= 4 M c3' ||f0|| ||g0||, c3' at enumeration radius r + 1
    a_bound = factors["A_factor"] * c3_next * f.norm0 * g.norm0
    verdicts["bound_A"] = _within(a, a_bound, scale)

    csum = c1 + c2 + c3
    total_bound = ((c2 + 2 * c1) * fnorm * gnorm
                   + a_bound
                   + (factors["B2_factor"] + factors["K_B1"]) * (c1 + c2) * f.norm0 * g.norm0)
    verdicts["bound_total"] = _within(pi_full, total_bound, scale)
    k_total = total_bound / (csum * fnorm * gnorm) if csum > 0 and fnorm * gnorm > 0 else 0.0

    bound_constants = {
        "r": int(r), "c1": c1, "c2": c2, "c3": c3,
        "c3_enumeration_radius": int(r + 1), "c3_next": c3_next,
        "K_total": float(k_total), **factors, **const_g, **const_f,
    }
    return BilinearCertificate(
        pi_total=parts["pi"], a_term=a, b_term=b, c_term=c,
        b1_term=b1, b2_term=b2, per_stopping=per_stopping,
        boundary_terms=boundary, bound_constants=bound_constants,
        verdicts={k: bool(v) for k, v in verdicts.items()},
        residuals={k: float(v) for k, v in residuals.items()},
        c_side={"b1": cb1, "b2": cb2,
                "per_stopping": {str(k): list(v) for k, v in c_per_stop.items()}},
        stopping_members=[int(s) for s in members],
    )
