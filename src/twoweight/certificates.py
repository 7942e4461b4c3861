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

Every inequality of the chain carries an explicit constant, recorded in
bound_constants and pre-validated by the exhaustive small-instance tests:

    |A|    <= 4 M(r, n) c3' ||f|| ||g||     (c3' enumerated at radius r+1:
                                             half pairs of admissible Haar
                                             pairs meet the (r+1)-ancestor)
    |B2|   <= sqrt(8) c2 ||f|| ||g||
    |I_S|  <= 2 sqrt(M) c2 <|g|>_S omega(S)^{1/2} ||P~_S f||
    |II_S| <= c2 <|g|>_S omega(S)^{1/2} ||P~_S f||
    |B1|   <= (2 sqrt(M) + 1) sqrt(8) c2 ||f|| ||g||

with M(r, n) = (2^{n(2r+1)} - 1) / (2^n - 1), plus the three boundary-term
estimates of the mean-zero reduction (constants c2, c1, c1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .exceptions import DecompositionError
from .haar import analyze, basis
from .localization import ewl_radius
from .measures import LeafMeasure
from .operators import DyadicOperator
from .stopping import EMBEDDING_LIMIT, StoppingFamily, build_stopping_family, embedding_ratios
from .testing import testing_report

PARTITION_RTOL = 1e-10
BOUND_SLACK = 1e-9


def count_M(n: int, r: int) -> int:
    """Partner-count bound M(r, n) = (2^{n(2r+1)} - 1) / (2^n - 1)."""
    if n < 1 or r < 0:
        raise ValueError("need n >= 1 and r >= 0")
    return ((1 << (n * (2 * r + 1))) - 1) // ((1 << n) - 1)


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
        return {
            "pi_total": self.pi_total,
            "a_term": self.a_term,
            "b_term": self.b_term,
            "c_term": self.c_term,
            "b1_term": self.b1_term,
            "b2_term": self.b2_term,
            "per_stopping": {str(k): list(v) for k, v in self.per_stopping.items()},
            "boundary_terms": list(self.boundary_terms),
            "bound_constants": self.bound_constants,
            "verdicts": self.verdicts,
            "residuals": self.residuals,
            "c_side": self.c_side,
            "stopping_members": [int(s) for s in self.stopping_members],
        }


def _mean_zero(values, mu: LeafMeasure):
    values = np.asarray(values, dtype=np.float64)
    total = mu.total
    mean = float(np.sum(values * mu.masses)) / total if total > 0 else 0.0
    return values - mean, mean


def _norm(values, mu: LeafMeasure) -> float:
    return float(np.sqrt(np.sum(mu.masses * np.asarray(values, float) ** 2)))


def boundary_terms_check(t: DyadicOperator, f_values, g_values, c1: float, c2: float):
    """The three mean-part pairings of the reduction and their bounds.

    term1 pairs the Haar part of f against the mean of g (bound c2), term2
    the mean of f against the Haar part of g (bound c1), term3 mean against
    mean (bound c1), each with constant 1 times ||f|| ||g||.
    """
    sigma, omega = t.sigma, t.omega
    f0, fmean = _mean_zero(f_values, sigma)
    g0, gmean = _mean_zero(g_values, omega)
    fnorm = _norm(f_values, sigma)
    gnorm = _norm(g_values, omega)
    t_f0 = t.apply(f0)
    t_ones = t.apply(np.ones(t.grid.num_leaves))
    term1 = gmean * float(np.sum(t_f0 * omega.masses))
    term2 = fmean * float(np.sum(t_ones * g0 * omega.masses))
    term3 = fmean * gmean * float(np.sum(t_ones * omega.masses))
    scale = fnorm * gnorm
    atol = 1e-12 * (1.0 + scale) * (1.0 + t.frobenius())
    verdicts = {
        "boundary_term1": abs(term1) <= c2 * scale * (1 + BOUND_SLACK) + atol,
        "boundary_term2": abs(term2) <= c1 * scale * (1 + BOUND_SLACK) + atol,
        "boundary_term3": abs(term3) <= c1 * scale * (1 + BOUND_SLACK) + atol,
    }
    return (term1, term2, term3), verdicts


def decompose_ABC(t: DyadicOperator, f_values, g_values, r: int,
                  rtol: float = PARTITION_RTOL):
    """Split Pi(f, g) into the A/B/C classes; f, g must be mean-zero.

    Returns (a, b, c, parts); parts carries the classified pair arrays for
    split_B.  Raises DecompositionError when Pi - (A + B + C) exceeds
    rtol ||f|| ||g|| ||T||_F, naming the largest excluded pair.
    """
    grid = t.grid
    f_values = np.asarray(f_values, dtype=np.float64)
    g_values = np.asarray(g_values, dtype=np.float64)
    fhat = analyze(t.sigma, f_values)
    ghat = analyze(t.omega, g_values)
    fnorm = _norm(f_values, t.sigma)
    gnorm = _norm(g_values, t.omega)
    if abs(fhat[0]) > 1e-8 * (fnorm + 1e-300) or abs(ghat[0]) > 1e-8 * (gnorm + 1e-300):
        raise ValueError("decompose_ABC needs mean-zero inputs")
    fhat[0] = 0.0
    ghat[0] = 0.0

    depth = grid.box_depth
    tiny = 1e-13 * (1.0 + t.frobenius())
    gs, es = np.nonzero(np.abs(t.w) > tiny)
    keep = (gs >= 1) & (es >= 1)
    gs, es = gs[keep], es[keep]
    contrib = t.w[gs, es] * ghat[gs] * fhat[es]

    de, dg = depth[es], depth[gs]
    mask_a = np.abs(de - dg) <= r
    gap_b = de - dg
    mask_b = (gap_b > r) & ((es >> np.maximum(gap_b, 0)) == gs)
    gap_c = dg - de
    mask_c = (gap_c > r) & ((gs >> np.maximum(gap_c, 0)) == es)
    mask_x = ~(mask_a | mask_b | mask_c)

    a = float(np.sum(contrib[mask_a]))
    b = float(np.sum(contrib[mask_b]))
    c = float(np.sum(contrib[mask_c]))
    pi = t.pairing(f_values, g_values)
    residual = pi - (a + b + c)
    if abs(residual) > rtol * max(fnorm * gnorm * max(t.frobenius(), 1.0), 1e-300):
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

    parts = {
        "fhat": fhat, "ghat": ghat, "fnorm": fnorm, "gnorm": gnorm,
        "g_values": g_values, "G": gs, "E": es, "contrib": contrib,
        "mask_b": mask_b, "pi": pi, "residual": residual,
        "max_partners": max_partners,
    }
    return a, b, c, parts


def _sums_by(index, weights, size):
    """out[k] = sum of weights[index == k], added in index order; float even
    when index is empty (np.bincount then returns integers)."""
    return np.bincount(index, weights=weights, minlength=size).astype(np.float64, copy=False)


def split_B(t: DyadicOperator, parts: dict, family: StoppingFamily, r: int,
            c2: float, rtol: float = PARTITION_RTOL):
    """Exact B1/B2 split with per-S I/II terms and all bound verdicts.

    I_S and II_S need <T(sigma h_E), 1_Q>_omega for Q = E^(r) and
    Q = pi(E^(r)).  For any box Q that pairing is omega(Q) S_E[Q], where
    S_E = synthesize_boxes(alpha_omega, beta_omega, W[:, E], 1/sqrt(omega(Q0)))
    is column E of W synthesized on every box: the value on Q collects the
    components of Q's strict ancestors and the constant, each times
    <h^omega_G, 1_Q>_omega / omega(Q).  _kernels.synthesize_at evaluates
    S_E[Q] for every live column (fhat(E) != 0, E sigma-charged) and its
    two boxes by walking only Q's root path, and the per-S sums are
    bincounts over S = pi(E^(r)).

    Returns (b1, b2, per_stopping, verdicts, residuals, constants).
    """
    grid = t.grid
    omega = t.omega
    fhat = parts["fhat"]
    fnorm, gnorm = parts["fnorm"], parts["gnorm"]
    scale = max(fnorm * gnorm * max(t.frobenius(), 1.0), 1e-300)
    m_const = count_M(grid.dimension, r)
    om_mass = omega.box_mass
    num_boxes = grid.num_boxes

    gints = _kernels.box_sums(parts["g_values"] * omega.masses)
    with np.errstate(invalid="ignore", divide="ignore"):
        gavg = np.where(om_mass > 0, gints / np.where(om_mass > 0, om_mass, 1.0), 0.0)

    depth = grid.box_depth
    sp = family.stop_parent
    anc_all = np.maximum(np.arange(num_boxes, dtype=np.int64) >> r, 1)
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
    b1_per_s = _sums_by(s_f[same], contrib_b[same], num_boxes)

    # per-rectangle pairings against 1_{E^(r)} and 1_{pi E^(r)}
    fe = fhat[1:]
    p_norm_sq = _sums_by(spanc[1 : grid.num_leaves], fe * fe, num_boxes)
    live = np.flatnonzero((fe != 0.0) & basis(t.sigma).charged[1:]) + 1
    anc, stop = anc_all[live], spanc[live]
    b = basis(omega)
    boxes = np.concatenate((anc, stop))
    values = om_mass[boxes] * _kernels.synthesize_at(
        b.alpha, b.beta, t.w, boxes, np.concatenate((live, live)), depth[boxes],
        b.inv_sqrt_total)
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
    sqrt_m = np.sqrt(m_const)
    k_b1 = (2.0 * sqrt_m + 1.0) * np.sqrt(8.0)
    atol = 1e-12 * (1.0 + scale)
    cap = (np.sqrt(om_mass[members]) * family.abs_average[members]
           * np.sqrt(p_norm_sq[members]) * c2)
    verdicts = {
        "b_structure": structure_ok,
        "b2_collapse": residuals["b2_collapse"] <= rtol,
        "b_s_split": residuals["b_s_split"] <= rtol,
        "b1_sum": residuals["b1_sum"] <= rtol,
        "projection_norms": residuals["projection_norms"] <= rtol,
        "bound_I": bool(np.all(np.abs(i_m) <= 2.0 * sqrt_m * cap * (1 + BOUND_SLACK) + atol)),
        "bound_II": bool(np.all(np.abs(ii_m) <= cap * (1 + BOUND_SLACK) + atol)),
        "bound_B2": abs(b2_direct)
        <= np.sqrt(8.0) * c2 * fnorm * gnorm * (1 + BOUND_SLACK) + atol,
        "bound_B1": abs(b1) <= k_b1 * c2 * fnorm * gnorm * (1 + BOUND_SLACK) + atol,
    }
    constants = {"M": m_const, "I_factor": 2.0 * sqrt_m, "II_factor": 1.0,
                 "B2_factor": np.sqrt(8.0), "K_B1": k_b1}
    per_stopping = dict(zip(members.tolist(), zip(i_m.tolist(), ii_m.tolist())))
    return b1, b2_direct, per_stopping, verdicts, residuals, constants


def a_term_bound(a_value: float, n: int, r: int, c3_next: float,
                 fnorm: float, gnorm: float) -> dict:
    """|A| <= 4 M(r, n) c3' ||f|| ||g|| with c3' at enumeration radius r+1."""
    m = count_M(n, r)
    bound = 4.0 * m * c3_next * fnorm * gnorm
    return {
        "value": a_value,
        "bound": bound,
        "M": m,
        "ok": abs(a_value) <= bound * (1 + BOUND_SLACK) + 1e-12 * (1 + fnorm * gnorm),
    }


def full_certificate(t: DyadicOperator, f_values, g_values, r: int = None,
                     rtol: float = PARTITION_RTOL, report=None) -> BilinearCertificate:
    """Run the entire decomposition on (T, f, g) and verify every estimate.

    The C-term is certified by applying the B machinery to the adjoint with
    f and g (and their measures) swapped; the stopping family on that side
    is built from |f|.  ``report`` is a testing report of t at radius r with
    c3 at r + 1 in its c3_extra; without one it is computed here.
    """
    if r is None:
        r = ewl_radius(t)
    n = t.grid.dimension
    rep = report
    if rep is None:
        rep = testing_report(t, r=r, norm=False, extra_c3_radii=(r + 1,))
    c1, c2, c3 = rep.c1, rep.c2, rep.c3
    c3_next = rep.c3_extra[r + 1]

    fnorm = _norm(f_values, t.sigma)
    gnorm = _norm(g_values, t.omega)
    boundary, verdicts = boundary_terms_check(t, f_values, g_values, c1, c2)
    f0, _ = _mean_zero(f_values, t.sigma)
    g0, _ = _mean_zero(g_values, t.omega)

    a, b, c, parts = decompose_ABC(t, f0, g0, r, rtol=rtol)
    scale = max(fnorm * gnorm * max(t.frobenius(), 1.0), 1e-300)
    pi_full = t.pairing(np.asarray(f_values, float), np.asarray(g_values, float))
    residuals = {
        "abc_partition": abs(parts["residual"]) / scale,
        "mean_reduction": abs(pi_full - (parts["pi"] + sum(boundary))) / scale,
    }
    verdicts["abc_partition"] = residuals["abc_partition"] <= rtol
    verdicts["mean_reduction"] = residuals["mean_reduction"] <= rtol
    verdicts["partner_count"] = parts["max_partners"] <= count_M(n, r)

    family_g = build_stopping_family(g0, t.omega)
    emb_g = embedding_ratios(family_g, g0, t.omega)
    verdicts["packing_g"] = family_g.packing_ok()
    verdicts["embedding_g"] = emb_g["absolute"] <= EMBEDDING_LIMIT

    b1, b2, per_stopping, v_b, res_b, const_b = split_B(t, parts, family_g, r, c2, rtol)
    verdicts.update(v_b)
    residuals.update({f"{k}": v for k, v in res_b.items()})
    residuals["b_partition"] = abs(b - (b1 + b2)) / scale
    verdicts["b_partition"] = residuals["b_partition"] <= rtol

    # symmetric side through the adjoint
    ta = t.adjoint()
    a2, b2_adj, c2_adj, parts_adj = decompose_ABC(ta, g0, f0, r, rtol=rtol)
    residuals["c_is_adjoint_b"] = abs(c - b2_adj) / scale
    verdicts["c_is_adjoint_b"] = residuals["c_is_adjoint_b"] <= rtol
    family_f = build_stopping_family(f0, t.sigma)
    emb_f = embedding_ratios(family_f, f0, t.sigma)
    verdicts["packing_f"] = family_f.packing_ok()
    verdicts["embedding_f"] = emb_f["absolute"] <= EMBEDDING_LIMIT
    cb1, cb2, c_per_stop, v_c, res_c, _ = split_B(ta, parts_adj, family_f, r, c1, rtol)
    verdicts.update({f"c_{k}": v for k, v in v_c.items()})
    residuals.update({f"c_{k}": v for k, v in res_c.items()})

    a_check = a_term_bound(a, n, r, c3_next, parts["fnorm"], parts["gnorm"])
    verdicts["bound_A"] = a_check["ok"]

    m_const = a_check["M"]
    k_b1 = const_b["K_B1"]
    csum = c1 + c2 + c3
    total_bound = ((c2 + 2 * c1) * fnorm * gnorm
                   + 4 * m_const * c3_next * parts["fnorm"] * parts["gnorm"]
                   + (np.sqrt(8.0) + k_b1) * (c1 + c2) * parts["fnorm"] * parts["gnorm"])
    verdicts["bound_total"] = abs(pi_full) <= total_bound * (1 + BOUND_SLACK) + 1e-12 * (1 + scale)
    k_total = total_bound / (csum * fnorm * gnorm) if csum > 0 and fnorm * gnorm > 0 else 0.0

    slack_g = family_g.packing_slack()
    slack_f = family_f.packing_slack()
    bound_constants = {
        "r": int(r), "M": m_const, "c1": c1, "c2": c2, "c3": c3,
        "c3_enumeration_radius": int(r + 1), "c3_next": c3_next,
        "A_factor": 4.0 * m_const, "K_total": float(k_total),
        "embedding_ratio_g": emb_g["absolute"], "embedding_ratio_f": emb_f["absolute"],
        "embedding_signed_g": emb_g["signed"], "embedding_signed_f": emb_f["signed"],
        "packing_slack_g": slack_g[0], "packing_ratio_g": slack_g[1],
        "packing_slack_f": slack_f[0], "packing_ratio_f": slack_f[1],
        **const_b,
    }
    return BilinearCertificate(
        pi_total=parts["pi"], a_term=a, b_term=b, c_term=c,
        b1_term=b1, b2_term=b2, per_stopping=per_stopping,
        boundary_terms=boundary, bound_constants=bound_constants,
        verdicts={k: bool(v) for k, v in verdicts.items()},
        residuals={k: float(v) for k, v in residuals.items()},
        c_side={"b1": cb1, "b2": cb2,
                "per_stopping": {str(k): list(v) for k, v in c_per_stop.items()}},
        stopping_members=[int(s) for s in family_g.members],
    )
