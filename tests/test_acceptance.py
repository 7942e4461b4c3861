"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criteria 5-7 share one 200-trial certified sweep whose
dumped certificates are scanned for the partition, packing/embedding and
per-term-bound verdicts; criterion 8 runs the 2500-trial depth sweep.
"""

import json
import time

import numpy as np
import pytest

from twoweight import (
    GridSpec,
    HaarRectangle,
    LeafFunction,
    LeafMeasure,
    build_grid,
    martingale_decompose,
)
from twoweight.certificates import full_certificate
from twoweight.exceptions import KernelValidationError
from twoweight.localization import ewl_radius, wl_check
from twoweight.operators import (
    CoefficientSequence,
    haar_shift,
    martingale_transform,
    paraproduct,
    random_ewl,
)
from twoweight.perfect_dyadic import (
    corrupt_kernel,
    perfect_dyadic_operator,
    random_kernel,
    validate_kernel,
)
from twoweight.serialize import read_rows_csv
from twoweight.stopping import build_stopping_family, embedding_ratios
from twoweight.sweep import SweepConfig, run_sweep
from twoweight.testing import testing_report as make_report

RNG_SEED = 90125


def _announce(number, text, elapsed):
    print(f"\nPASS criterion {number}: {text} [{elapsed:.1f}s]")


def _measure(rng, grid, kind="positive"):
    if kind == "positive":
        return LeafMeasure(grid, rng.uniform(0.05, 1.0, grid.num_leaves))
    masses = rng.uniform(0.0, 1.0, grid.num_leaves)
    masses[rng.random(grid.num_leaves) < 0.3] = 0.0
    return LeafMeasure(grid, masses)


def test_criterion_1_basis_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED)
    for n in (1, 2, 3):
        for d in (1, 2, 3, 4):
            grid = build_grid(GridSpec(n, d))
            draws = 100 // 12 + 2  # ~100 draws spread over the 12 (n, d) cells
            for _ in range(draws):
                mu = _measure(rng, grid, "sparse")
                f = LeafFunction(grid, rng.standard_normal(grid.num_leaves))
                dec = martingale_decompose(f, mu)
                rec = dec.reconstruct()
                charged = mu.masses > 0
                if charged.any():
                    err = np.max(np.abs((rec.values - f.values)[charged]))
                    assert err <= 1e-10 * max(1.0, np.max(np.abs(f.values)))
                want = f.norm(mu) ** 2
                assert dec.norm_squared() == pytest.approx(want, rel=1e-10, abs=1e-12)
            # nesting trichotomy, exhaustive over pairs sharing a base
            lo, hi, depth = grid.box_lo, grid.box_hi, grid.box_depth
            for base in grid.cubes():
                if depth[base] // n >= d:
                    continue
                rects = [(base << a) + j for a in range(n) for j in range(1 << a)]
                for e1 in rects:
                    for e2 in rects:
                        if e1 == e2:
                            continue
                        nested = (lo[e1] <= lo[e2] and hi[e2] <= hi[e1]) or \
                                 (lo[e2] <= lo[e1] and hi[e1] <= hi[e2])
                        disjoint = hi[e1] <= lo[e2] or hi[e2] <= lo[e1]
                        assert nested != disjoint  # exactly one relation holds
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _announce(1, "reconstruction + Parseval at 1e-10, trichotomy exhaustive", elapsed)


def test_criterion_2_known_radii():
    start = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED + 1)
    grid = build_grid(GridSpec(1, 4))
    sigma, omega = _measure(rng, grid), _measure(rng, grid)
    b = CoefficientSequence.random(grid, rng)
    t = martingale_transform(b, sigma, omega)
    assert ewl_radius(t) == 0 and wl_check(t, 1)
    s = haar_shift(b, sigma, omega)
    assert ewl_radius(s) == 1 and wl_check(s, 2)
    p = paraproduct(b, sigma, omega)
    assert wl_check(p, 1)
    _announce(2, "martingale r=0/WL1, shift r=1/WL2, paraproduct WL1",
              time.perf_counter() - start)


def test_criterion_3_wl_ewl_bridge():
    start = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED + 2)
    grid = build_grid(GridSpec(1, 5))
    checked = 0
    for r in (0, 1, 2):
        for seed in range(50):
            sigma, omega = _measure(rng, grid, "sparse"), _measure(rng, grid, "sparse")
            if sigma.total == 0 or omega.total == 0:
                continue
            t = random_ewl(r, sigma, omega, (r, seed))
            r0 = ewl_radius(t)
            assert r0 <= r
            assert wl_check(t, r0 + 1)
            for rr in range(1, grid.tree_depth + 1):
                if wl_check(t, rr):
                    assert r0 <= rr
            checked += 1
    assert checked == 150
    _announce(3, f"WL <-> EWL bridge on {checked} operators (r in 0..2, d=5)",
              time.perf_counter() - start)


# --- criteria 4-7 share one certified 200-trial sweep -----------------------

ALL_MEASURES = ["uniform", "iid_uniform", "iid_exponential",
                {"kind": "sparse_atoms", "p": 0.3}, "lacunary", "from_weights"]


@pytest.fixture(scope="module")
def certified_sweep(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_sweep")
    configs = [
        {"dimension": 1, "depths": [3, 4, 5, 6], "radii": [0, 1, 2],
         "families": ["random_ewl"], "measures": ALL_MEASURES, "trials": 2,
         "seed": 501},
        {"dimension": 2, "depths": [2, 3], "radii": [0, 1, 2],
         "families": ["random_ewl"], "measures": ALL_MEASURES, "trials": 1,
         "seed": 502},
        {"dimension": 2, "depths": [4], "radii": [0, 1, 2],
         "families": ["random_ewl"],
         "measures": ["iid_uniform", "lacunary", {"kind": "sparse_atoms", "p": 0.3}],
         "trials": 1, "seed": 503},
        {"dimension": 2, "depths": [5], "radii": [0, 1, 2],
         "families": ["random_ewl"], "measures": ["iid_uniform"], "trials": 1,
         "seed": 504},
        {"dimension": 2, "depths": [6], "radii": [1], "families": ["random_ewl"],
         "measures": ["iid_uniform", "iid_exponential"], "trials": 1, "seed": 505},
        {"dimension": 1, "depths": [2], "radii": [0, 1, 2],
         "families": ["random_ewl"], "measures": ["uniform", "iid_uniform"],
         "trials": 1, "seed": 506},
    ]
    t0 = time.perf_counter()
    summaries, rows, certs = [], [], []
    for i, doc in enumerate(configs):
        doc["dump_certificates"] = True
        cfg = SweepConfig.from_dict(doc)
        sub = out / f"part{i}"
        summaries.append(run_sweep(cfg, out_dir=str(sub)))
        rows.extend(read_rows_csv(sub / "trials.csv"))
        for path in sorted((sub / "certificates").iterdir()):
            certs.append(json.loads(path.read_text()))
    elapsed = time.perf_counter() - t0
    return summaries, rows, certs, elapsed


def test_criterion_4_necessity_chain(certified_sweep):
    summaries, rows, _, _ = certified_sweep
    start = time.perf_counter()
    for row in rows:
        norm = float(row["norm"])
        worst = max(float(row["c1"]), float(row["c2"]), float(row["c3"]))
        assert worst <= norm * (1 + 1e-9)
        assert float(row["c1"]) <= float(row["c1g"]) * (1 + 1e-9)
        assert float(row["c2"]) <= float(row["c2g"]) * (1 + 1e-9)
    for s in summaries:
        assert not [f for f in s.failures if "necessity" in f or "global" in f]
    _announce(4, f"max(c1,c2,c3) <= norm and local <= global in all {len(rows)} trials",
              time.perf_counter() - start)


def test_criterion_5_partition_exactness(certified_sweep):
    summaries, rows, certs, elapsed = certified_sweep
    assert len(rows) == 200
    assert len(certs) == 200
    for s in summaries:
        assert s.failures == []
    for cert in certs:
        v = cert["verdicts"]
        assert v["abc_partition"] and v["b_partition"] and v["b_s_split"]
        assert v["b2_collapse"] and v["b1_sum"] and v["c_is_adjoint_b"]
        assert v["mean_reduction"] and v["partner_count"]
        assert cert["residuals"]["abc_partition"] <= 1e-10
    assert elapsed < 300.0
    _announce(5, f"Pi=A+B+C, B=B1+B2, B_S=I-II exact over 200 trials "
                 f"(sweep took {elapsed:.0f}s)", elapsed)


def test_criterion_6_carleson_suite(certified_sweep):
    _, _, certs, _ = certified_sweep
    start = time.perf_counter()
    # threshold pre-validation by exhaustive search at d <= 3
    worst = 0.0
    for d in (2, 3):
        grid = build_grid(GridSpec(1, d))
        n = grid.num_leaves
        omega = LeafMeasure(grid, np.full(n, 1.0 / n))
        for pattern in range(4**n):
            levels = np.array([(pattern // 4**i) % 4 for i in range(n)], dtype=float)
            g = np.where(levels == 3, 9.0, levels)
            if not np.any(g):
                continue
            fam = build_stopping_family(g, omega)
            assert fam.packing_ok()
            worst = max(worst, embedding_ratios(fam, g, omega)["absolute"])
    assert worst <= 8.0
    # every trial: packing exact and embedding within the validated threshold
    for cert in certs:
        v, bc = cert["verdicts"], cert["bound_constants"]
        assert v["packing_g"] and v["packing_f"]
        assert v["embedding_g"] and v["embedding_f"]
        assert bc["embedding_ratio_g"] <= 8.0 and bc["embedding_ratio_f"] <= 8.0
        assert bc["packing_ratio_g"] <= 2.0 + 1e-12
        assert bc["packing_ratio_f"] <= 2.0 + 1e-12
    _announce(6, f"packing <= 2, embedding <= 8 in all 200 trials "
                 f"(exhaustive d<=3 max ratio {worst:.3f})",
              time.perf_counter() - start)


def test_criterion_7_per_term_bounds(certified_sweep):
    _, _, certs, _ = certified_sweep
    start = time.perf_counter()
    # brute-force constant validation at d <= 3 precedes trusting the sweep
    # thresholds; the exhaustive/randomized sign grids live in
    # test_certificates and are rerun here in compact form
    rng = np.random.default_rng(RNG_SEED + 7)
    grid = build_grid(GridSpec(1, 3))
    for trial in range(40):
        sigma, omega = _measure(rng, grid), _measure(rng, grid)
        r = trial % 3
        t = random_ewl(r, sigma, omega, (7, trial))
        w_signed = np.sign(t.w) * (np.abs(t.w) > 0)
        from twoweight.operators import DyadicOperator

        ts = DyadicOperator(grid, sigma, omega, w_signed.astype(float),
                            claimed_radius=r)
        report = make_report(ts, r=max(r, ewl_radius(ts)), norm=False, c3_next=True)
        cert = full_certificate(ts, rng.standard_normal(8), rng.standard_normal(8),
                                report=report)
        bad = [k for k in cert.failures() if k.startswith(("bound", "c_bound"))]
        assert not bad, bad
    for cert in certs:
        v = cert["verdicts"]
        for key in ("bound_A", "bound_B1", "bound_B2", "bound_I", "bound_II",
                    "c_bound_B1", "c_bound_B2", "c_bound_I", "c_bound_II",
                    "bound_total", "boundary_term1", "boundary_term2",
                    "boundary_term3"):
            assert v[key], (key, cert["trial"])
    _announce(7, "A <= 4M c3', B2 <= sqrt(8) c2, I/II per-S bounds: "
                 "0 violations over 200 trials", time.perf_counter() - start)


def test_criterion_8_depth_uniform_comparability(tmp_path):
    start = time.perf_counter()
    ks = {}
    for d in (4, 5, 6, 7, 8):
        cfg = SweepConfig.from_dict({
            "dimension": 1, "depths": [d], "radii": [1], "trials": 250,
            "families": ["random_ewl"],
            "measures": ["iid_uniform", "iid_exponential"],
            "seed": 8000 + d, "certificates": False,
        })
        out = tmp_path / f"depth{d}"
        summary = run_sweep(cfg, out_dir=str(out))
        assert summary.failures == []
        rows = read_rows_csv(out / "trials.csv")
        assert len(rows) == 500
        ks[d] = max(float(r["ratio_sum"]) for r in rows)
    assert ks[8] <= 1.1 * max(ks[4], ks[5]), ks
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    _announce(8, "K_d stable: " + ", ".join(f"K_{d}={k:.3f}" for d, k in ks.items())
              + f"; K_8/max(K_4,K_5) = {ks[8] / max(ks[4], ks[5]):.3f} <= 1.1", elapsed)


def test_criterion_9_perfect_dyadic_classification():
    start = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED + 9)
    grid = build_grid(GridSpec(1, 4))
    sigma, omega = _measure(rng, grid), _measure(rng, grid)
    for r in (0, 1):
        for seed in range(10):
            kernel = random_kernel(grid, r, (9, r, seed))
            validate_kernel(kernel)
            t = perfect_dyadic_operator(kernel, sigma, omega)
            assert ewl_radius(t) <= r
    bad = corrupt_kernel(random_kernel(grid, 1, 99), 1)
    with pytest.raises(KernelValidationError) as err:
        validate_kernel(bad)
    assert err.value.cube_pair is not None
    _announce(9, "20 random kernels classify at ewl <= r; corrupted kernel "
                 f"flagged at cube pair {err.value.cube_pair}",
              time.perf_counter() - start)


def test_criterion_10_degenerate_measures():
    start = time.perf_counter()
    rng = np.random.default_rng(RNG_SEED + 10)
    grid = build_grid(GridSpec(1, 5))
    masses = rng.uniform(0.1, 1.0, 32)
    masses[:16] = 0.0  # omega vanishes on the left half of the root
    omega = LeafMeasure(grid, masses)
    sigma = _measure(rng, grid)
    # identities on the degenerate side
    f = LeafFunction(grid, rng.standard_normal(32))
    dec = martingale_decompose(f, omega)
    charged = omega.masses > 0
    assert np.max(np.abs((dec.reconstruct().values - f.values)[charged])) <= 1e-10
    assert dec.norm_squared() == pytest.approx(f.norm(omega) ** 2, rel=1e-10)
    # certificates across radii
    for r in (0, 1, 2):
        t = random_ewl(r, sigma, omega, (10, r))
        cert = full_certificate(t, rng.standard_normal(32), rng.standard_normal(32))
        assert cert.passed, cert.failures()
    _announce(10, "certificates and identities hold with omega dead on half of Q0",
              time.perf_counter() - start)
