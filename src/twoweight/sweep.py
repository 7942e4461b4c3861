"""Configuration-driven sweeps: generate, test, certify, aggregate, persist.

A sweep enumerates cells (depth x radius x family x measure kind) and runs
``trials`` independent trials per cell.  Per-trial randomness comes from a
child seed derived from (master seed, trial index), so any execution order
or worker count reproduces identical rows.  Exit status is nonzero exactly
when an exact-partition certificate or exact-inequality invariant (the
necessity chain max(c1,c2,c3) <= norm, local <= global) fails, or when a
trial raises; such a trial is recorded as a failure and the sweep goes on.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field

import numpy as np

from . import __version__, serialize
from .certificates import full_certificate
from .exceptions import DecompositionError, NormError
from .grid import Grid, GridSpec, build_grid
from .measures import LeafFunction, LeafMeasure, from_pointwise_weights
from .operators import COEFFICIENT_BUILDERS, MAX_OPERATOR_LEAVES, CoefficientSequence, random_ewl
from .testing import testing_report

NECESSITY_SLACK = 1e-9
WORKERS_ENV = "TWOWEIGHT_WORKERS"

MEASURE_KINDS = ("uniform", "iid_uniform", "iid_exponential", "sparse_atoms",
                 "lacunary", "from_weights")
MEASURE_PARAMS = {"sparse_atoms": {"p"}}  # the keys a dict entry may add to "kind"


@dataclass
class SweepConfig:
    dimension: int = 1
    depths: list = field(default_factory=lambda: [3])
    radii: list = field(default_factory=lambda: [1])
    trials: int = 1
    families: list = field(default_factory=lambda: ["random_ewl"])
    measures: list = field(default_factory=lambda: ["iid_uniform"])
    seed: int = 0
    certificates: bool = True
    dump_certificates: bool = False
    coefficient_scale: float = 1.0

    @classmethod
    def from_dict(cls, doc: dict) -> "SweepConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**doc)
        cfg.validate()
        return cfg

    def validate(self):
        for name, low in (("dimension", 1), ("trials", 1), ("seed", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < low:  # bool is not an int here
                raise ValueError(f"{name} must be an integer >= {low}, not {value!r}")
        for name, low in (("depths", 1), ("radii", 0)):
            value = getattr(self, name)
            if not value or any(type(v) is not int or v < low for v in value):
                raise ValueError(f"{name} must be a nonempty list of integers >= {low}, "
                                 f"not {value!r}")
        bits = self.dimension * max(self.depths)
        if 2**bits > MAX_OPERATOR_LEAVES:
            raise ValueError(f"a grid of 2^{bits} leaves is above the cap of {MAX_OPERATOR_LEAVES}")
        if not self.families or not self.measures:
            raise ValueError("families and measures must not be empty")
        if type(self.coefficient_scale) not in (int, float):
            raise ValueError(f"coefficient_scale must be a number, not {self.coefficient_scale!r}")
        for fam in self.families:
            if fam not in COEFFICIENT_BUILDERS and fam != "random_ewl":
                raise ValueError(f"unknown family {fam!r}")
            if fam == "haar_shift" and self.dimension != 1:
                raise ValueError("haar_shift requires dimension 1")
        for kind in self.measures:
            if isinstance(kind, dict) and "kind" not in kind:
                raise ValueError(f"measure entry {kind!r} has no 'kind'")
            name, params = _measure_kind(kind)
            if name not in MEASURE_KINDS:
                raise ValueError(f"unknown measure kind {name!r}")
            unknown = set(params) - MEASURE_PARAMS.get(name, set())
            if unknown:
                raise ValueError(f"measure kind {name!r} takes no {sorted(unknown)}")
            p = params.get("p", 0.0)  # the share of empty leaves: p = 1 empties them all
            if isinstance(p, bool) or not isinstance(p, (int, float)) or not 0.0 <= p < 1.0:
                raise ValueError(f"measure kind {name!r}: p must be a number in [0, 1), not {p!r}")

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.as_dict(), sort_keys=True).encode()
        ).hexdigest()[:16]

    def cells(self):
        for d in self.depths:
            for r in self.radii:
                for family in self.families:
                    for kind in self.measures:
                        yield d, r, family, kind

    def trial_params(self):
        index = 0
        for d, r, family, kind in self.cells():
            for _ in range(self.trials):
                yield index, d, r, family, kind
                index += 1


def generate_measure(kind, grid: Grid, rng) -> LeafMeasure:
    """One measure of the named kind; see generate_measure_pair for
    from_weights, which produces the pair jointly."""
    name, params = _measure_kind(kind)
    n = grid.num_leaves
    if name == "uniform":
        return LeafMeasure(grid, np.full(n, grid.leaf_volume))
    if name == "iid_uniform":
        return LeafMeasure(grid, 1.0 - rng.random(n))  # uniform on (0, 1]
    if name == "iid_exponential":
        return LeafMeasure(grid, rng.exponential(1.0, n))
    if name == "sparse_atoms":
        p = params.get("p", 0.3)
        masses = (1.0 - rng.random(n)) * (rng.random(n) >= p)
        return LeafMeasure(grid, masses)
    if name == "lacunary":
        masses = np.zeros(n)
        for k in range(min(grid.depth, n - 1)):
            masses[k] = 2.0 ** -(k + 1)
        masses[min(grid.depth, n - 1)] = 2.0 ** -min(grid.depth, n - 1)
        return LeafMeasure(grid, masses)
    raise ValueError(f"generate_measure cannot build kind {name!r} alone")


def generate_measure_pair(kind, grid: Grid, rng):
    name, _ = _measure_kind(kind)
    if name == "from_weights":
        u = LeafFunction(grid, 1.0 - rng.random(grid.num_leaves))
        v = LeafFunction(grid, rng.random(grid.num_leaves))
        return from_pointwise_weights(u, v)
    return generate_measure(kind, grid, rng), generate_measure(kind, grid, rng)


def _measure_kind(kind):
    if isinstance(kind, dict):
        return kind["kind"], {k: v for k, v in kind.items() if k != "kind"}
    return kind, {}


def _measure_label(kind):
    name, params = _measure_kind(kind)
    if params:
        inner = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
        return f"{name}({inner})"
    return name


def _build_operator(family, r, grid, sigma, omega, rng, scale):
    if family == "random_ewl":
        return random_ewl(r, sigma, omega, rng.integers(0, 2**63 - 1))
    b = CoefficientSequence(grid, scale * rng.uniform(-1.0, 1.0, grid.num_leaves))
    b.values[0] = 0.0
    return COEFFICIENT_BUILDERS[family](b, sigma, omega)


def _trial_seed(config: SweepConfig, index: int):
    """The trial's child seed sequence and the seed its row records."""
    child = np.random.SeedSequence(entropy=config.seed, spawn_key=(index,))
    return child, int(child.generate_state(1)[0])


def run_trial(config: SweepConfig, index: int, d: int, r: int, family, kind):
    """One trial: generate, test, certify.  Returns (row, failures, cert_doc)."""
    child, child_seed = _trial_seed(config, index)
    rng = np.random.default_rng(child)
    grid = build_grid(GridSpec(config.dimension, d))
    sigma, omega = generate_measure_pair(kind, grid, rng)
    failures = []
    cert_doc = None
    if sigma.total == 0.0 or omega.total == 0.0:
        # degenerate draw: every constant is zero, nothing to verify
        row = dict.fromkeys(serialize.CSV_COLUMNS, 0.0)
        row.update({"seed": child_seed, "n": config.dimension, "d": d, "r": r,
                    "family": family, "wall_ms": 0.0})
        return row, failures, cert_doc

    t = _build_operator(family, r, grid, sigma, omega, rng, config.coefficient_scale)
    start = time.perf_counter()
    report = testing_report(t, c3_next=config.certificates)

    if max(report.c1, report.c2, report.c3) > report.norm * (1 + NECESSITY_SLACK):
        failures.append(f"necessity: max testing constant above norm (trial {index})")
    if report.c1 > report.c1_global * (1 + NECESSITY_SLACK):
        failures.append(f"local c1 above global (trial {index})")
    if report.c2 > report.c2_global * (1 + NECESSITY_SLACK):
        failures.append(f"local c2 above global (trial {index})")

    if config.certificates:
        f = rng.standard_normal(grid.num_leaves)
        g = rng.standard_normal(grid.num_leaves)
        try:
            cert = full_certificate(t, f, g, report=report)
        except (DecompositionError, NormError) as exc:
            failures.append(f"certificate error (trial {index}): {exc}")
            cert = None
        if cert is not None:
            if not cert.passed:
                failures.append(
                    f"certificate verdicts failed (trial {index}): {cert.failures()}")
            cert_doc = cert.as_dict()
            cert_doc["trial"] = index

    report.wall_ms = (time.perf_counter() - start) * 1e3
    row = serialize.trial_row(child_seed, config.dimension, d, report.r_used, family, report)
    return row, failures, cert_doc


def _trial_star(args):
    """run_trial that turns an unexpected exception into a failed trial.

    The row keeps the trial's identity with NaN values, and the failure
    names the raising line, the trial index and the replay command that
    re-raises it with its full traceback.
    """
    config, index, d, r, family, kind = args
    try:
        return run_trial(*args)
    except Exception as exc:  # one bad trial must not take the sweep down
        row = dict.fromkeys(serialize.CSV_COLUMNS, float("nan"))
        row.update({"seed": _trial_seed(config, index)[1], "n": config.dimension,
                    "d": d, "r": r, "family": family})
        where = traceback.extract_tb(exc.__traceback__)[-1]
        failure = (f"trial {index} raised {type(exc).__name__}: {exc} "
                   f"({os.path.basename(where.filename)}:{where.lineno}); "
                   f"replay with --replay {index}")
        return row, [failure], None


@dataclass
class SweepSummary:
    cells: dict
    trials: int
    passes: int
    failures: list
    max_embedding_ratio: float
    max_packing_slack: float
    config_digest: str
    version: str
    timestamp: str

    @property
    def exit_code(self) -> int:
        return 1 if self.failures else 0

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


def worker_count() -> int:
    """The worker pool size TWOWEIGHT_WORKERS sets; 1 when unset or empty."""
    raw = os.environ.get(WORKERS_ENV) or "1"
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{WORKERS_ENV} must be an integer, not {raw!r}") from None


def run_sweep(config: SweepConfig, out_dir=None) -> SweepSummary:
    params = [(config, idx, d, r, fam, kind)
              for idx, d, r, fam, kind in config.trial_params()]
    workers = worker_count()
    rows, all_failures, certs = [], [], []
    passes = 0
    max_emb = 0.0
    max_slack = 0.0
    with ExitStack() as stack:
        if workers > 1 and len(params) > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            results = pool.map(_trial_star, params, chunksize=4)
        else:
            results = (_trial_star(p) for p in params)
        # fold each trial as it arrives: only the rows and, when they are
        # dumped, the certificate documents outlive their trial
        for row, failures, cert in results:
            rows.append(row)
            passes += not failures
            all_failures.extend(failures)
            if cert is None:
                continue
            bc = cert["bound_constants"]
            max_emb = max(max_emb, bc.get("embedding_ratio_g", 0.0),
                          bc.get("embedding_ratio_f", 0.0))
            max_slack = max(max_slack, bc.get("packing_slack_g", 0.0),
                            bc.get("packing_slack_f", 0.0))
            if config.dump_certificates:
                certs.append(cert)

    cells = {}
    for (idx, d, r, fam, kind), row in zip(config.trial_params(), rows):
        key = f"n={config.dimension},d={d},r={r},{fam},{_measure_label(kind)}"
        cells.setdefault(key, []).append(row["ratio_sum"])
    cell_stats = {
        key: {
            "trials": len(vals),
            "max_ratio_sum": float(np.max(vals)),
            "median_ratio_sum": float(np.median(vals)),
        }
        for key, vals in cells.items()
    }

    summary = SweepSummary(
        cells=cell_stats,
        trials=len(rows),
        passes=passes,
        failures=all_failures,
        max_embedding_ratio=max_emb,
        max_packing_slack=max_slack,
        config_digest=config.digest(),
        version=__version__,
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%S"),
    )

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        serialize.write_rows_csv(os.path.join(out_dir, "trials.csv"), rows)
        serialize.dump_json(os.path.join(out_dir, "summary.json"), summary.as_dict())
        serialize.dump_json(os.path.join(out_dir, "config.json"), config.as_dict())
        if certs:
            cert_dir = os.path.join(out_dir, "certificates")
            os.makedirs(cert_dir, exist_ok=True)
            for cert in certs:
                serialize.dump_json(
                    os.path.join(cert_dir, f"trial_{cert['trial']:06d}.json"), cert)
    return summary


def replay_trial(config: SweepConfig, trial_index: int):
    """Re-run one trial by index; returns (row, failures, certificate)."""
    for idx, d, r, fam, kind in config.trial_params():
        if idx == trial_index:
            return run_trial(config, idx, d, r, fam, kind)
    raise ValueError(f"trial index {trial_index} outside this sweep "
                     f"({sum(1 for _ in config.trial_params())} trials)")
