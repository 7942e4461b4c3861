"""The benchmark's three workloads: inputs from a seed, items, checked outputs.

A workload builds its inputs once from ``--seed`` and runs them as a *pass*:
a fixed list of items, one in flight at a time.  ``run.py`` repeats the pass
for the measured time.  Every item returns a JSON-comparable output keyed by
what determines it, so repeated passes, the traced pass and the recorded
reference outputs (``reference.json``) can all be compared item by item.

The package is called through module attributes (``sweep.run_sweep``,
``cli.main``, ...) so that the spans installed by ``spans.Tracer`` see the
benchmark's own calls as well as the package's internal ones.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import time

import numpy as np

from twoweight import cli, grid, localization, perfect_dyadic, serialize, sweep
from twoweight.exceptions import KernelValidationError
from twoweight.measures import LeafMeasure

# Reference outputs are recorded at this seed (the one configs/example_sweep.json
# ships with).  deep_trials also draws its power-iteration-heavy trials from it.
REF_SEED = 20240817
# Relative tolerance of the reference comparison.  Power iteration stops at a
# relative change of 1e-10 and a new summation order moves the last digits, so
# exact equality would flag changes that keep every verdict.
REF_RTOL = 1e-9

SIZES = ("full", "reference", "tiny")

ALL_FAMILIES = ["martingale_transform", "paraproduct", "haar_shift", "random_ewl"]
ALL_MEASURES = ["uniform", "iid_uniform", "iid_exponential",
                {"kind": "sparse_atoms", "p": 0.3}, "lacunary", "from_weights"]


class Item:
    """One item's result: identity, output, failure reason, latency."""

    __slots__ = ("key", "output", "failure", "seconds")

    def __init__(self, key, output, failure=None, seconds=0.0):
        self.key = key
        self.output = output
        self.failure = failure
        self.seconds = seconds


class PassResult:
    def __init__(self, wall_s, items):
        self.wall_s = wall_s
        self.items = items


# -- sweep workloads ---------------------------------------------------------

class _TrialTimer:
    """Stands in for ``sweep.run_trial`` during a pass to time each trial.

    A trial that raises is recorded as a failure and answered with a NaN
    row, so one bad trial does not end the pass.
    """

    def __init__(self, run_trial):
        self.run_trial = run_trial
        self.records = []  # (trial index, seconds, failures)

    def __call__(self, config, index, *args):
        start = time.perf_counter()
        try:
            row, failures, cert = self.run_trial(config, index, *args)
        except Exception as exc:  # the item fails; the pass goes on
            row = dict.fromkeys(serialize.CSV_COLUMNS, math.nan)
            failures, cert = [f"raised {type(exc).__name__}: {exc}"], None
        self.records.append((index, time.perf_counter() - start, list(failures)))
        return row, failures, cert


class SweepWorkload:
    """Sweeps through ``sweep.run_sweep`` with an output directory.

    ``groups`` is a list of (label, config dict); each group is one
    ``run_sweep`` call per pass, and one item is one ``run_trial`` call.
    """

    item_span = "sweep.run_trial"

    def __init__(self, groups, workdir):
        self.workdir = workdir
        self.configs = []
        for label, doc in groups:
            path = os.path.join(workdir, f"{label}.json")
            text = json.dumps(doc, indent=1, sort_keys=True)
            with open(path, "w") as fh:
                fh.write(text)
            with open(path) as fh:  # the program sees only the generated file
                config = sweep.SweepConfig.from_dict(json.load(fh))
            # outputs are keyed by the exact config, so a key names its inputs
            digest = hashlib.sha256(text.encode()).hexdigest()[:12]
            self.configs.append((f"{label}@{digest}", config, path))

    def input_keys(self):
        return [label for label, _, _ in self.configs]

    def run_pass(self, tracer=None) -> PassResult:
        items = []
        wall = 0.0
        for g, (label, config, _) in enumerate(self.configs):
            out_dir = os.path.join(self.workdir, f"out{g}")
            timer = _TrialTimer(sweep.run_trial)
            sweep.run_trial = timer  # run_sweep looks the name up per trial
            try:
                start = time.perf_counter()
                sweep.run_sweep(config, out_dir=out_dir)
                wall += time.perf_counter() - start
            finally:
                sweep.run_trial = timer.run_trial
            items.extend(_read_outputs(label, out_dir, timer.records))
        return PassResult(wall, items)


def _read_outputs(label, out_dir, records):
    with open(os.path.join(out_dir, "trials.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    items = []
    for (index, seconds, failures), row in zip(records, rows):
        row.pop("wall_ms")
        output = {k: _number(v) for k, v in row.items()}
        failure = "; ".join(failures) if failures else None
        items.append(Item(f"{label}:trial{index}", output, failure, seconds))
    if len(rows) != len(records):
        items.append(Item(f"{label}:rows", len(rows), "trials.csv row count differs"))
    counts = {"trials": summary["trials"], "passes": summary["passes"],
              "failures": len(summary["failures"]),
              "max_embedding_ratio": summary["max_embedding_ratio"],
              "max_packing_slack": summary["max_packing_slack"]}
    # the summary is checked like an item but has no latency
    items.append(Item(f"{label}:summary", counts, None, None))
    return items


def _number(text):
    try:
        value = int(text)
    except ValueError:
        try:
            value = float(text)
        except ValueError:
            return text
    return value


def example_sweep(seed, size, workdir):
    """configs/example_sweep.json (432 trials, n=1, d=4-6, certificates on)."""
    doc = {"dimension": 1, "depths": [4, 5, 6], "radii": [0, 1, 2], "trials": 2,
           "families": ALL_FAMILIES, "measures": ALL_MEASURES, "seed": seed,
           "certificates": True, "dump_certificates": False}
    if size == "reference":
        doc.update(depths=[5], trials=1)
    elif size == "tiny":
        doc.update(depths=[3], radii=[1], trials=1,
                   families=["martingale_transform", "random_ewl"],
                   measures=["iid_uniform", "from_weights"])
    return SweepWorkload([("example_sweep", doc)], workdir)


def deep_trials(seed, size, workdir):
    """Uncertified trials at 1024 leaves, where operator_norm runs power iteration.

    Martingale-transform and Haar-shift trials cost 3-20 s each, set by the
    spectral gap of their random coefficients, so a run holds only a few and
    their cost would swing a run by 2x from seed to seed.  They are drawn from
    REF_SEED, whatever the run's seed: the first iid_uniform trial of each
    family (the martingale transform hits the dense-SVD fallback after 2 x 10k
    iterations, the Haar shift converges).  The paraproduct and random_ewl
    trials, at n=1 d=10 and n=2 d=5, come from the run's seed.
    An n=2 d=5 martingale transform is left out: at the same trial index it
    draws the same 1024 coefficients, so the same spectrum, as the n=1 d=10
    one.
    """
    base = {"radii": [1], "trials": 1, "certificates": False, "dump_certificates": False}
    measures = ["iid_uniform", {"kind": "sparse_atoms", "p": 0.3}]
    n1d10 = dict(base, dimension=1, depths=[10], seed=seed)
    n2d5 = dict(base, dimension=2, depths=[5], seed=seed)
    if size == "reference":
        # the heavy group is seed-independent and checked on every pass
        groups = [("light_n1d10", dict(n1d10, families=["paraproduct"], measures=[measures[1]])),
                  ("light_n2d5", dict(n2d5, families=["random_ewl"], measures=[measures[0]]))]
    elif size == "tiny":
        groups = [("tiny_n1d9", dict(base, dimension=1, depths=[9], seed=seed,
                                     families=["paraproduct"], measures=["iid_uniform"]))]
    else:
        # 3 random_ewl trials per cell against 1 paraproduct keep the median
        # item (in the run record) inside the random_ewl cluster, away from a
        # cluster boundary.
        groups = [("heavy_n1d10", dict(base, dimension=1, depths=[10], seed=REF_SEED,
                                       families=["martingale_transform", "haar_shift"],
                                       measures=["iid_uniform"]))]
        for label, cell in (("n1d10", n1d10), ("n2d5", n2d5)):
            groups += [(f"para_{label}", dict(cell, families=["paraproduct"], measures=measures)),
                       (f"rewl_{label}", dict(cell, families=["random_ewl"], measures=measures,
                                              trials=3))]
    return SweepWorkload(groups, workdir)


# -- classify ------------------------------------------------------------------

# (kind, family, n, d, radius): perfect-dyadic kernels go through
# random_kernel -> validate_kernel -> perfect_dyadic_operator in process;
# "corrupt" kernels must be rejected with a cube pair; "json" operators go
# through `twoweight classify --operator FILE` (cli.main).
CLASSIFY_ITEMS = [
    ("kernel", "perfect_dyadic", 1, 6, 2),
    ("json", "random_ewl", 1, 8, 2),
    ("json", "martingale_transform", 1, 8, 0),
    ("kernel", "perfect_dyadic", 2, 3, 1),
    ("json", "paraproduct", 1, 8, 0),
    ("corrupt", "perfect_dyadic", 1, 6, 1),
    ("json", "haar_shift", 1, 8, 1),
    ("json", "random_ewl", 2, 4, 1),
    ("json", "paraproduct", 2, 4, 0),
]
TINY_ITEMS = [
    ("kernel", "perfect_dyadic", 1, 4, 1),
    ("corrupt", "perfect_dyadic", 2, 2, 1),
    ("json", "random_ewl", 1, 5, 1),
    ("json", "haar_shift", 1, 5, 1),
]


class ClassifyWorkload:
    """One item classifies one operator; see CLASSIFY_ITEMS."""

    item_span = "item.classify"

    def __init__(self, seed, size, workdir):
        rng = np.random.default_rng([seed, 7])
        table = TINY_ITEMS if size == "tiny" else CLASSIFY_ITEMS
        self.items = []
        for i, (kind, family, n, d, radius) in enumerate(table):
            leaves = 1 << (n * d)
            sigma = (1.0 - rng.random(leaves)).tolist()
            omega = (1.0 - rng.random(leaves)).tolist()
            if (family == "random_ewl" and n == 2) or family == "paraproduct":
                omega = [m if u >= 0.3 else 0.0 for m, u in zip(omega, rng.random(leaves))]
            if kind == "json":
                doc = {"family": family, "claimed_radius": radius,
                       "grid": {"dimension": n, "depth": d},
                       "sigma_masses": sigma, "omega_masses": omega}
                if family == "random_ewl":
                    doc["seed"] = int(rng.integers(0, 2**63 - 1))
                else:
                    coef = rng.uniform(-1.0, 1.0, leaves)
                    doc["coefficients"] = {str(h): float(coef[h]) for h in range(1, leaves)}
            else:
                doc = {"n": n, "d": d, "radius": radius,
                       "kernel_seed": int(rng.integers(0, 2**63 - 1)),
                       "sigma": sigma, "omega": omega}
            text = json.dumps(doc, sort_keys=True)
            path = os.path.join(workdir, f"{kind}{i}.json")
            with open(path, "w") as fh:
                fh.write(text)
            digest = hashlib.sha256(text.encode()).hexdigest()[:12]
            key = f"{kind}:{family}:n{n}d{d}@{digest}"
            self.items.append((key, kind, path if kind == "json" else doc))

    def input_keys(self):
        return [key for key, _, _ in self.items]

    def run_pass(self, tracer=None) -> PassResult:
        items = []
        span = tracer.span if tracer is not None else _no_span
        pass_start = time.perf_counter()
        for key, kind, data in self.items:
            start = time.perf_counter()
            try:
                with span(self.item_span):
                    if kind == "json":
                        output, failure = _classify_json(data)
                    else:
                        output, failure = _classify_kernel(data, kind == "corrupt")
            except Exception as exc:  # the item fails; the pass goes on
                output, failure = None, f"raised {type(exc).__name__}: {exc}"
            items.append(Item(key, output, failure, time.perf_counter() - start))
        return PassResult(time.perf_counter() - pass_start, items)


@contextlib.contextmanager
def _no_span(name):
    yield


def _classify_json(path):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["classify", "--operator", path])
    if code != 0:
        return None, f"classify exited {code}"
    fields = dict(line.split(": ", 1) for line in buf.getvalue().splitlines())
    ewl = fields["ewl_radius"]
    wl = fields["well-localized radii"]
    output = {"family": fields["family"],
              "claimed": int(fields["claimed radius"]),
              "ewl": None if ewl == "not-EWL-within-grid" else int(ewl),
              "wl": [] if wl.startswith("none") else json.loads(wl)}
    return output, _radius_failure(output)


def _classify_kernel(spec, corrupt):
    g = grid.build_grid(grid.GridSpec(spec["n"], spec["d"]))
    kernel = perfect_dyadic.random_kernel(g, spec["radius"], spec["kernel_seed"])
    if corrupt:
        kernel = perfect_dyadic.corrupt_kernel(kernel, spec["kernel_seed"] + 1)
    try:
        perfect_dyadic.validate_kernel(kernel)
        t = perfect_dyadic.perfect_dyadic_operator(
            kernel, LeafMeasure(g, spec["sigma"]), LeafMeasure(g, spec["omega"]))
    except KernelValidationError as exc:
        output = {"rejected": None if exc.cube_pair is None else list(exc.cube_pair)}
        if not corrupt:
            return output, f"valid kernel rejected: {exc}"
        return output, None if exc.cube_pair is not None else "rejection names no cube pair"
    if corrupt:
        return None, "corrupted kernel accepted"
    r = localization.ewl_radius(t)
    radii = [rr for rr in range(1, g.tree_depth + 1) if localization.wl_check(t, rr)]
    output = {"family": t.family, "claimed": int(t.claimed_radius), "ewl": r, "wl": radii}
    # ewl <= kernel radius is established (and tested) for n=1 only: at n=2
    # the separated pairs are cube pairs, while E runs over every rectangle.
    return output, _radius_failure(output) if spec["n"] == 1 else None


def _radius_failure(output):
    """The operator is localized within its claimed radius."""
    if output["ewl"] is None or output["ewl"] > output["claimed"]:
        return f"ewl_radius {output['ewl']} above claimed radius {output['claimed']}"
    return None


# -- shared ----------------------------------------------------------------------

WORKLOADS = {
    "example_sweep": example_sweep,
    "deep_trials": deep_trials,
    "classify": ClassifyWorkload,
}


def build(name, seed, size, workdir):
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    os.makedirs(workdir, exist_ok=True)
    return WORKLOADS[name](seed, size, workdir)


def _float_magnitudes(x):
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, list):
        for v in x:
            yield from _float_magnitudes(v)
    elif isinstance(x, float) and math.isfinite(x):
        yield abs(x)


def outputs_equal(a, b, rtol=0.0) -> bool:
    """Structural equality with floats within ``rtol``.

    Two floats x, y match when |x - y| <= rtol * max(|x|, |y|, 1e-3 * s), s
    being the largest float magnitude in ``a``, so values that are zero up
    to rounding compare on the output's own scale.  Integers and strings
    must be equal; NaN matches only NaN.
    """
    floor = 1e-3 * max(_float_magnitudes(a), default=0.0)

    def eq(x, y):
        if isinstance(x, dict) and isinstance(y, dict):
            return x.keys() == y.keys() and all(eq(x[k], y[k]) for k in x)
        if isinstance(x, list) and isinstance(y, list):
            return len(x) == len(y) and all(eq(u, v) for u, v in zip(x, y))
        if isinstance(x, float) or isinstance(y, float):
            if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y)):
                return False
            if math.isnan(x) or math.isnan(y):
                return math.isnan(x) and math.isnan(y)
            return abs(x - y) <= rtol * max(abs(x), abs(y), floor)
        return x == y

    return eq(a, b)
