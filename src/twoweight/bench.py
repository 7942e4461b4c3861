"""Time the heap transforms, the testing pass, the certificate, the norm and the classifiers.

Run as ``python -m twoweight.bench [--dimension N] [--depth D] [--repeat K]``.
Each row is the best of K timed calls after one warm-up call.  The
end-to-end benchmark is ``python3 perfbench/run.py``.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from . import _kernels
from .certificates import full_certificate
from .grid import GridSpec, build_grid
from .haar import basis
from .localization import ewl_radius, wl_radius
from .measures import LeafMeasure
from .operators import random_ewl
from .testing import LANCZOS_MIN_LEAVES, _indicator_pass, admissible_pairs, operator_norm
from .testing import testing_report


def _time(fn, repeat):
    fn()  # warmup
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times) * 1e3


def run(dimension=1, depth=10, repeat=20):
    grid = build_grid(GridSpec(dimension, depth))
    n = grid.num_leaves
    rng = np.random.default_rng(0)
    mu = LeafMeasure(grid, rng.uniform(0.1, 1.0, n))
    b = basis(mu)
    values = rng.standard_normal(n)
    coefs = rng.standard_normal(n)
    wsums = _kernels.box_sums(values * mu.masses)

    rows = [
        ("box_sums[numpy]", _time(lambda: _kernels.box_sums(values), repeat)),
        ("analyze[numpy]",
         _time(lambda: _kernels.analyze(b.alpha, b.beta, wsums, b.inv_sqrt_total), repeat)),
        ("synthesize[numpy]",
         _time(lambda: _kernels.synthesize(b.alpha, b.beta, coefs, b.inv_sqrt_total), repeat)),
    ]

    # the testing pass and ewl_radius dominate a sweep trial, wl_radius a classify
    bench_depth = min(depth, 8 // dimension if dimension > 1 else 8)
    g2 = build_grid(GridSpec(dimension, bench_depth))
    n2 = g2.num_leaves
    sigma = LeafMeasure(g2, rng.uniform(0.1, 1.0, n2))
    omega = LeafMeasure(g2, rng.uniform(0.1, 1.0, n2))
    t = random_ewl(1, sigma, omega, 0)
    offsets, partners = admissible_pairs(g2, 1)
    slow = max(3, repeat // 4)
    rows.append((f"testing_images[numpy] (d={bench_depth})",
                 _time(lambda: _indicator_pass(t.w.T, sigma, omega, offsets, partners), slow)))
    rows.append((f"ewl_radius[numpy] (d={bench_depth})", _time(lambda: ewl_radius(t), slow)))
    rows.append((f"wl_radius[numpy] (d={bench_depth})", _time(lambda: wl_radius(t), slow)))
    rows.append((f"testing_report[numpy] (d={bench_depth})",
                 _time(lambda: testing_report(t), slow)))
    # a sweep trial's certificate pass, which reuses the trial's testing report
    report = testing_report(t, r=1, norm=False, extra_c3_radii=(2,))
    f, g = rng.standard_normal(n2), rng.standard_normal(n2)
    rows.append((f"full_certificate[numpy] (d={bench_depth})",
                 _time(lambda: full_certificate(t, f, g, r=1, report=report), slow)))
    # the operator norm at full size, on the path operator_norm takes there
    t_full = random_ewl(1, mu, LeafMeasure(grid, rng.uniform(0.1, 1.0, n)), 0)
    path = "lanczos" if n >= LANCZOS_MIN_LEAVES else "svd"
    rows.append((f"operator_norm[{path}] (d={depth})",
                 _time(lambda: operator_norm(t_full), repeat)))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dimension", type=int, default=1)
    parser.add_argument("--depth", type=int, default=10)
    parser.add_argument("--repeat", type=int, default=20)
    args = parser.parse_args(argv)
    rows = run(args.dimension, args.depth, args.repeat)
    width = max(len(name) for name, _ in rows)
    for name, ms in rows:
        print(f"{name:<{width}s}  {ms:10.3f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
