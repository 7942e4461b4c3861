"""Sweep harness determinism, measure generators, CLI exit codes."""

import csv
import hashlib
import json
import os

import numpy as np
import pytest

from twoweight import GridSpec, build_grid
from twoweight import serialize
from twoweight.cli import main
from twoweight.exceptions import NormError
from twoweight.operators import zero_operator
from twoweight.sweep import (
    SweepConfig,
    generate_measure,
    generate_measure_pair,
    replay_trial,
    run_sweep,
)


def small_config(**overrides):
    doc = {
        "dimension": 1, "depths": [3], "radii": [0, 1], "trials": 2,
        "families": ["martingale_transform", "random_ewl"],
        "measures": ["iid_uniform", {"kind": "sparse_atoms", "p": 0.3}],
        "seed": 2024,
    }
    doc.update(overrides)
    return SweepConfig.from_dict(doc)


def test_generate_measure_uniform_quarters(rng):
    grid = build_grid(GridSpec(1, 2))
    mu = generate_measure("uniform", grid, rng)
    assert np.allclose(mu.masses, 0.25)


def test_generate_measure_sparse_all_zero(rng):
    grid = build_grid(GridSpec(1, 2))
    mu = generate_measure({"kind": "sparse_atoms", "p": 1.0}, grid, rng)
    assert mu.total == 0.0
    omega = generate_measure("uniform", grid, rng)
    from twoweight.testing import operator_norm

    with pytest.raises(NormError):
        operator_norm(zero_operator(grid, mu, omega))


def test_generate_measure_lacunary_pattern(rng):
    grid = build_grid(GridSpec(1, 3))
    mu = generate_measure("lacunary", grid, rng)
    assert np.allclose(mu.masses, [0.5, 0.25, 0.125, 0.125, 0, 0, 0, 0])
    assert mu.total == pytest.approx(1.0)


def test_generate_pair_from_weights(rng):
    grid = build_grid(GridSpec(1, 3))
    sigma, omega = generate_measure_pair("from_weights", grid, rng)
    assert sigma.total > 0 and np.all(sigma.masses > 0)
    assert np.all(omega.masses >= 0)


def test_sweep_zero_coefficient_trivial(tmp_path):
    cfg = small_config(families=["martingale_transform"], trials=1,
                       coefficient_scale=0.0, measures=["uniform"])
    summary = run_sweep(cfg, out_dir=str(tmp_path))
    assert summary.exit_code == 0
    rows = serialize.read_rows_csv(tmp_path / "trials.csv")
    assert all(float(r["norm"]) == 0.0 and float(r["c1"]) == 0.0 for r in rows)


def test_sweep_deterministic_modulo_wall_ms(tmp_path):
    cfg = small_config()
    out1, out2 = tmp_path / "a", tmp_path / "b"
    s1 = run_sweep(cfg, out_dir=str(out1))
    s2 = run_sweep(cfg, out_dir=str(out2))
    assert s1.exit_code == s2.exit_code == 0
    assert s1.trials == s2.trials == 16

    def stripped(path):
        with open(path / "trials.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("wall_ms")
        return [[c for i, c in enumerate(row) if i != drop] for row in rows]

    assert stripped(out1) == stripped(out2)


def test_replay_matches_sweep_row(tmp_path):
    cfg = small_config()
    run_sweep(cfg, out_dir=str(tmp_path))
    rows = serialize.read_rows_csv(tmp_path / "trials.csv")
    row, failures, _ = replay_trial(cfg, 5)
    assert not failures
    for key in ("seed", "n", "d", "r", "family", "norm", "c1", "c2", "c3"):
        got, want = row[key], rows[5][key]
        if isinstance(got, float):
            assert got == float(want)
        else:
            assert str(got) == want
    with pytest.raises(ValueError):
        replay_trial(cfg, 10_000)


def test_dump_certificates_files(tmp_path):
    cfg = small_config(trials=1, dump_certificates=True,
                       families=["random_ewl"], measures=["iid_uniform"])
    run_sweep(cfg, out_dir=str(tmp_path))
    certs = sorted((tmp_path / "certificates").iterdir())
    assert len(certs) == 2  # one per trial (two radii)
    doc = json.loads(certs[0].read_text())
    assert "verdicts" in doc and all(doc["verdicts"].values())
    assert doc["pi_total"] == pytest.approx(
        doc["a_term"] + doc["b_term"] + doc["c_term"], abs=1e-9)


def test_summary_metadata(tmp_path):
    cfg = small_config(trials=1)
    summary = run_sweep(cfg, out_dir=str(tmp_path))
    doc = serialize.load_json(tmp_path / "summary.json")
    assert doc["config_digest"] == cfg.digest()
    assert doc["trials"] == summary.trials
    assert doc["passes"] == summary.trials
    assert set(doc["cells"]) == set(summary.cells)


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        SweepConfig.from_dict({"bogus": 1})
    with pytest.raises(ValueError):
        SweepConfig.from_dict({"dimension": 2, "families": ["haar_shift"]})
    with pytest.raises(ValueError):
        SweepConfig.from_dict({"measures": ["nope"]})


def test_cli_sweep_report_classify_exit_codes(tmp_path, rng, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dimension": 1, "depths": [3], "radii": [1], "trials": 1,
        "families": ["haar_shift", "paraproduct"], "measures": ["iid_exponential"],
        "seed": 11,
    }))
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert main(["report", "--in", str(out)]) == 0
    shown = capsys.readouterr().out
    assert "max embedding ratio" in shown

    from conftest import random_measure
    from twoweight.operators import CoefficientSequence, haar_shift

    grid = build_grid(GridSpec(1, 3))
    t = haar_shift(CoefficientSequence.random(grid, rng),
                   random_measure(grid, rng, low=0.1),
                   random_measure(grid, rng, low=0.1))
    op_path = tmp_path / "op.json"
    serialize.dump_json(op_path, serialize.operator_to_dict(t))
    assert main(["classify", "--operator", str(op_path)]) == 0
    shown = capsys.readouterr().out
    assert "ewl_radius: 1" in shown
    assert "well-localized radii: [2, 3]" in shown


def test_classify_random_ewl_at_a_radius_past_the_tree(tmp_path, rng, capsys):
    """A random_ewl file may claim any radius.  From tree_depth on every
    window is the whole tree, so a claim of 10**20 builds the operator of
    radius tree_depth, keeps its claim and classifies (it once overflowed
    a shift of the heap indices)."""
    from conftest import random_measure
    from twoweight.operators import random_ewl

    grid = build_grid(GridSpec(1, 3))
    sigma, omega = random_measure(grid, rng), random_measure(grid, rng)
    huge = random_ewl(10**20, sigma, omega, 5)
    assert huge.claimed_radius == 10**20
    assert np.array_equal(huge.w, random_ewl(grid.tree_depth, sigma, omega, 5).w)
    op_path = tmp_path / "op.json"
    serialize.dump_json(op_path, serialize.operator_to_dict(huge))
    assert main(["classify", "--operator", str(op_path)]) == 0
    assert "claimed radius: 100000000000000000000\n" in capsys.readouterr().out


def test_cli_report_ranks_only_finite_trials(tmp_path, capsys):
    """A raised trial's NaN ratio is left out of the ranking, not sorted into it."""
    ratios = [1.5, float("nan"), 3.0, 2.0, 0.5, 4.0]
    serialize.write_rows_csv(tmp_path / "trials.csv", [
        dict(dict.fromkeys(serialize.CSV_COLUMNS, 0.0), seed=i, n=1, d=3, r=1,
             family="paraproduct", ratio_sum=ratio)
        for i, ratio in enumerate(ratios)])
    serialize.dump_json(tmp_path / "summary.json", {
        "config_digest": "abc", "version": 1, "trials": 6, "passes": 5,
        "max_embedding_ratio": 1.0, "cells": {},
        "failures": ["trial 1 seed 1: raised NormError"]})
    assert main(["report", "--in", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    listed = out.split("largest norm/(c1+c2+c3) trials:\n")[1].splitlines()
    assert [float(line.rsplit(": ", 1)[1]) for line in listed] == [4.0, 3.0, 2.0, 1.5, 0.5]
    assert [line.split()[1] for line in listed] == ["5", "2", "3", "0", "4"]
    assert err == "FAIL trial 1 seed 1: raised NormError\n"


def test_cli_parser_built_once_per_process(tmp_path, rng, capsys):
    """main builds its parser once per process, and a usage error does not
    change what the next call prints or returns."""
    from conftest import random_measure
    from twoweight import cli
    from twoweight.operators import CoefficientSequence, haar_shift

    grid = build_grid(GridSpec(1, 3))
    t = haar_shift(CoefficientSequence.random(grid, rng),
                   random_measure(grid, rng, low=0.1), random_measure(grid, rng, low=0.1))
    op_path = tmp_path / "op.json"
    serialize.dump_json(op_path, serialize.operator_to_dict(t))
    cli._build_parser.cache_clear()
    assert main(["classify"]) == 2  # no --operator
    assert "--operator" in capsys.readouterr().err
    assert main(["classify", "--operator", str(op_path)]) == 0
    shown = capsys.readouterr().out
    assert main(["report", "--in", str(tmp_path / "nowhere")]) == 2
    assert "report error" in capsys.readouterr().err
    assert cli._build_parser.cache_info().misses == 1
    cli._build_parser.cache_clear()
    assert main(["classify", "--operator", str(op_path)]) == 0
    assert capsys.readouterr().out == shown and "ewl_radius: 1" in shown


def test_cli_usage_errors(tmp_path, capsys, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dimension": 2, "families": ["haar_shift"]}))
    assert main(["sweep", "--config", str(bad)]) == 2
    assert main(["sweep", "--config", str(tmp_path / "missing.json")]) == 2
    assert main(["report", "--in", str(tmp_path / "nowhere")]) == 2
    assert main(["classify", "--operator", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()

    def one_line_error(argv, names):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and names in err

    # malformed input from outside the program: a one-line error naming it
    array_op = tmp_path / "array.json"
    array_op.write_text("[1, 2]")
    one_line_error(["classify", "--operator", str(array_op)], str(array_op))
    list_coeffs = tmp_path / "list_coeffs.json"
    list_coeffs.write_text(json.dumps({
        "family": "paraproduct", "grid": {"dimension": 1, "depth": 2},
        "sigma_masses": [1.0] * 4, "omega_masses": [1.0] * 4,
        "coefficients": [0.5, 0.5, 0.5]}))
    one_line_error(["classify", "--operator", str(list_coeffs)], str(list_coeffs))
    above_cap = tmp_path / "above_cap.json"  # refused before any N x N allocation
    above_cap.write_text(json.dumps({
        "family": "martingale_transform", "grid": {"dimension": 1, "depth": 13},
        "sigma_masses": [1.0] * 2**13, "omega_masses": [1.0] * 2**13, "coefficients": {}}))
    one_line_error(["classify", "--operator", str(above_cap)], "cap of 4096")
    # json reads NaN and Infinity; an operator built from them pairs nothing
    # above a tolerance, so classify would call it localized
    base = {"grid": {"dimension": 1, "depth": 2},
            "sigma_masses": [1.0] * 4, "omega_masses": [1.0] * 4}
    for bad in (float("nan"), float("inf"), -float("inf")):
        for doc in ({"family": "custom", "matrix": [[1.0, 0.0, 0.0, bad]] + [[0.0] * 4] * 3},
                    {"family": "martingale_transform", "coefficients": {"1": bad}}):
            not_finite = tmp_path / "not_finite.json"
            not_finite.write_text(json.dumps({**base, **doc}))
            one_line_error(["classify", "--operator", str(not_finite)], str(not_finite))
    with monkeypatch.context() as m:  # the cap is read before any grid is built
        m.setattr(serialize, "build_grid", lambda spec: pytest.fail("grid built"))
        one_line_error(["classify", "--operator", str(above_cap)], "cap of 4096")
    sweep_dir = tmp_path / "sweep_out"
    sweep_dir.mkdir()
    (sweep_dir / "summary.json").write_text('{"trials": ')
    one_line_error(["report", "--in", str(sweep_dir)], str(sweep_dir))
    (sweep_dir / "trials.csv").write_text("seed,ratio_sum\n")
    for not_a_summary in ("[]", '{"trials": 1}'):  # valid JSON, not a sweep summary
        (sweep_dir / "summary.json").write_text(not_a_summary)
        one_line_error(["report", "--in", str(sweep_dir)], str(sweep_dir))
    # a measure entry without a kind, with a key its kind does not take, or
    # with a p that is not a probability
    for measure, names in (({"p": 0.3}, "no 'kind'"),
                           ({"kind": "sparse_atoms", "q": 0.3}, "['q']"),
                           ({"kind": "sparse_atoms", "p": "x"}, "not 'x'"),
                           ({"kind": "sparse_atoms", "p": 1.5}, "not 1.5"),
                           ({"kind": "sparse_atoms", "p": 1.0}, "not 1.0")):
        malformed = tmp_path / "malformed_measure.json"
        malformed.write_text(json.dumps({"depths": [2], "measures": [measure]}))
        one_line_error(["sweep", "--config", str(malformed)], names)
    # a config every trial of which would fail, or that would run no trial
    for doc, names in (({"seed": -1}, "seed"), ({"seed": 1.5}, "seed"),
                       ({"depths": [2.5]}, "depths"), ({"radii": [0.5]}, "radii"),
                       ({"depths": [13]}, "2^13 leaves"),
                       ({"dimension": 2, "depths": [7]}, "2^14 leaves"),
                       ({"coefficient_scale": "big"}, "coefficient_scale"),
                       ({"coefficient_scale": float("nan")}, "coefficient_scale"),
                       ({"coefficient_scale": float("inf")}, "coefficient_scale"),
                       ({"trials": True}, "trials"), ({"radii": []}, "radii"),
                       ({"families": []}, "families"), ({"measures": []}, "measures"),
                       ({"certificates": "no"}, "certificates"),
                       ({"dump_certificates": 1}, "dump_certificates"),
                       ({"depths": 2}, "depths"), ({"radii": "1"}, "radii"),
                       ({"families": "random_ewl"}, "'random_ewl'"),
                       ({"measures": "uniform"}, "'uniform'")):
        malformed = tmp_path / "malformed_config.json"
        malformed.write_text(json.dumps({"depths": [2], **doc}))
        one_line_error(["sweep", "--config", str(malformed)], names)
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"depths": [2], "radii": [0]}))
    one_line_error(["sweep", "--config", str(good), "--seed", "-3"], "seed")
    for workers in ("two", "0", "-1"):
        monkeypatch.setenv("TWOWEIGHT_WORKERS", workers)
        one_line_error(["sweep", "--config", str(good)], "TWOWEIGHT_WORKERS")


def test_cli_replay(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "dimension": 1, "depths": [2], "radii": [0], "trials": 2,
        "families": ["random_ewl"], "measures": ["uniform"], "seed": 5,
    }))
    assert main(["sweep", "--config", str(cfg_path), "--replay", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["failures"] == []
    assert doc["row"]["d"] == 2
    assert main(["sweep", "--config", str(cfg_path), "--replay", "99"]) == 2


def test_parallel_workers_match_serial(tmp_path, monkeypatch):
    cfg = small_config(trials=1)
    out1, out2 = tmp_path / "serial", tmp_path / "par"
    run_sweep(cfg, out_dir=str(out1))
    monkeypatch.setenv("TWOWEIGHT_WORKERS", "2")
    run_sweep(cfg, out_dir=str(out2))

    def stripped(path):
        with open(path / "trials.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("wall_ms")
        return [[c for i, c in enumerate(row) if i != drop] for row in rows]

    assert stripped(out1) == stripped(out2)


# `twoweight classify` output for _classify_cases(), recorded from the
# per-box wl_check loop that preceded wl_radius
CLASSIFY_OUTPUT = [
    ("martingale_transform", 0, 0, "[1, 2, 3, 4, 5]"),
    ("paraproduct", 0, 0, "[1, 2, 3, 4, 5]"),
    ("haar_shift", 1, 1, "[2, 3, 4, 5]"),
    ("random_ewl", 2, 2, "[3, 4, 5]"),
    ("perfect_dyadic", 1, 1, "[2, 3, 4, 5]"),
    ("custom", None, 4, "[5]"),
    ("paraproduct", 0, 0, "[1, 2, 3, 4, 5, 6]"),
    ("random_ewl", 1, 1, "[2, 3, 4, 5, 6]"),
    ("perfect_dyadic", 1, 2, "[3, 4, 5, 6]"),
    ("martingale_transform", 0, 0, "none up to n*d"),
]


def _classify_cases():
    from twoweight import LeafMeasure
    from twoweight.operators import (CoefficientSequence, DyadicOperator, haar_shift,
                                     martingale_transform, paraproduct, random_ewl)
    from twoweight.perfect_dyadic import perfect_dyadic_operator, random_kernel

    rng = np.random.default_rng(4711)

    def measure(grid, zero_fraction):
        masses = rng.uniform(0.0, 1.0, grid.num_leaves)
        masses[rng.random(grid.num_leaves) < zero_fraction] = 0.0
        return LeafMeasure(grid, masses)

    grid = build_grid(GridSpec(1, 5))
    sigma, omega = measure(grid, 0.3), measure(grid, 0.3)
    b = CoefficientSequence.random(grid, rng)
    ops = [martingale_transform(b, sigma, omega), paraproduct(b, sigma, omega),
           haar_shift(b, sigma, omega), random_ewl(2, sigma, omega, 5),
           perfect_dyadic_operator(random_kernel(grid, 1, 3), sigma, omega),
           DyadicOperator(grid, sigma, omega, rng.standard_normal((32, 32)))]
    grid = build_grid(GridSpec(2, 3))
    sigma, omega = measure(grid, 0.3), measure(grid, 0.0)
    b = CoefficientSequence.random(grid, rng)
    ops += [paraproduct(b, sigma, omega), random_ewl(1, sigma, omega, 9),
            perfect_dyadic_operator(random_kernel(grid, 1, 4), sigma, omega)]
    grid = build_grid(GridSpec(1, 0))
    ops.append(martingale_transform(CoefficientSequence.random(grid, rng),
                                    LeafMeasure(grid, [0.5]), LeafMeasure(grid, [2.0])))
    return ops


def test_cli_classify_output_unchanged(tmp_path, capsys):
    ops = _classify_cases()
    assert len(ops) == len(CLASSIFY_OUTPUT)
    for i, (t, (family, claimed, ewl, radii)) in enumerate(zip(ops, CLASSIFY_OUTPUT)):
        path = tmp_path / f"op{i}.json"
        serialize.dump_json(path, serialize.operator_to_dict(t))
        assert main(["classify", "--operator", str(path)]) == 0
        assert capsys.readouterr().out == (
            f"family: {family}\nclaimed radius: {claimed}\n"
            f"ewl_radius: {ewl}\nwell-localized radii: {radii}\n"), i


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_isolates_a_raising_trial(tmp_path, monkeypatch, workers):
    import twoweight.sweep as sweep_module

    cfg = small_config(trials=1)
    good = tmp_path / "good"
    run_sweep(cfg, out_dir=str(good))
    build = sweep_module._build_operator

    def flaky(family, r, grid, *args):
        if family == "random_ewl" and r == 1:
            raise RuntimeError("boom")
        return build(family, r, grid, *args)

    monkeypatch.setattr(sweep_module, "_build_operator", flaky)
    monkeypatch.setenv("TWOWEIGHT_WORKERS", workers)
    out = tmp_path / "bad"
    summary = run_sweep(cfg, out_dir=str(out))
    assert summary.exit_code == 1
    bad = [idx for idx, d, r, fam, kind in cfg.trial_params()
           if fam == "random_ewl" and r == 1]
    assert len(bad) == 2 and summary.trials == 8
    assert len(summary.failures) == 2
    for idx, failure in zip(bad, summary.failures):
        assert failure.startswith(f"trial {idx} raised RuntimeError: boom (test_sweep_cli.py:")
        assert failure.endswith(f"); replay with --replay {idx}")
    assert summary.passes == 6
    rows = serialize.read_rows_csv(out / "trials.csv")
    want = serialize.read_rows_csv(good / "trials.csv")
    for idx, (row, ref) in enumerate(zip(rows, want)):
        if idx in bad:
            assert [row[k] for k in ("seed", "n", "d", "family")] == \
                [ref[k] for k in ("seed", "n", "d", "family")]
            assert row["r"] == "1"
            assert all(row[k] == "nan" for k in serialize.CSV_COLUMNS[5:])
        else:
            assert {k: v for k, v in row.items() if k != "wall_ms"} == \
                {k: v for k, v in ref.items() if k != "wall_ms"}
    assert serialize.load_json(out / "summary.json")["failures"] == summary.failures


# A small certified sweep over every family and measure kind, recorded from
# the per-rectangle split_B loop and the stack-built stopping families that
# preceded the array versions: summary counts and maxima, and the verdict
# dict and stopping-member count of every trial.  GOLDEN_CERT_SHA256 hashes
# every certificate document (JSON, sorted keys) in trial order.  The
# summary maximum, the member count and the digest were recorded with f0 and
# g0 synthesized from their coefficients, constant slot zeroed
# (certificates.prepare).  Trial 70 (lacunary, d=4) then has 2 stopping
# members, not 3: there g0 is positive on one charged leaf alone, so that
# leaf's <|g0|> is exactly twice the root's and the strict doubling test
# ties; the last bit decides it.  The digest was re-recorded once the
# boundary terms were read off W and the coefficients (no synthesis of T(sigma
# f0) or T(sigma 1)): their values moved by at most 5.9e-15 relative, and
# those at the rounding floor (|value| < 1e-13, at most 1.7e-16) now read 0.
# It was re-recorded again when the residual scale became ||f|| ||g|| ||W||_F
# with no floor of 1 on ||W||_F: only the abc_partition (4) and
# mean_reduction (6) residuals of trials with ||W||_F < 1 moved, every
# verdict held and every term, A/B/C included, stayed equal.
GOLDEN_SWEEP = {
    "dimension": 1, "depths": [4, 5], "radii": [0, 1, 2], "trials": 1,
    "families": ["martingale_transform", "paraproduct", "haar_shift", "random_ewl"],
    "measures": ["uniform", "iid_uniform", "iid_exponential",
                 {"kind": "sparse_atoms", "p": 0.3}, "lacunary", "from_weights"],
    "seed": 31, "dump_certificates": True,
}
GOLDEN_SUMMARY = {"trials": 144, "passes": 144, "failures": [], "cells": 144,
                  "max_embedding_ratio": 1.5993750959209243, "max_packing_slack": 0.0}
GOLDEN_VERDICT_KEYS = [
    "abc_partition", "b1_sum", "b2_collapse", "b_partition", "b_s_split", "b_structure",
    "bound_A", "bound_B1", "bound_B2", "bound_I", "bound_II", "bound_total",
    "boundary_term1", "boundary_term2", "boundary_term3", "c_b1_sum", "c_b2_collapse",
    "c_b_s_split", "c_b_structure", "c_bound_B1", "c_bound_B2", "c_bound_I", "c_bound_II",
    "c_is_adjoint_b", "c_projection_norms", "embedding_f", "embedding_g", "mean_reduction",
    "packing_f", "packing_g", "partner_count", "projection_norms",
]
GOLDEN_MEMBERS = {"total": 456, "max": 8}
GOLDEN_CERT_SHA256 = "dfbde23113bfd3025e31037e57eae28abe0c7427b6638a7979900c896ba8f8dc"


def test_certified_sweep_output_unchanged(tmp_path):
    run_sweep(SweepConfig.from_dict(GOLDEN_SWEEP), out_dir=str(tmp_path))
    doc = serialize.load_json(tmp_path / "summary.json")
    got = {key: doc[key] for key in GOLDEN_SUMMARY if key != "cells"}
    got["cells"] = len(doc["cells"])
    assert got == GOLDEN_SUMMARY
    names = sorted(os.listdir(tmp_path / "certificates"))
    assert names == [f"trial_{i:06d}.json" for i in range(144)]
    members = []
    digest = hashlib.sha256()
    for name in names:
        cert = serialize.load_json(tmp_path / "certificates" / name)
        assert cert["verdicts"] == dict.fromkeys(GOLDEN_VERDICT_KEYS, True), name
        members.append(len(cert["stopping_members"]))
        digest.update(json.dumps(cert, sort_keys=True).encode())
    assert {"total": sum(members), "max": max(members)} == GOLDEN_MEMBERS
    assert digest.hexdigest() == GOLDEN_CERT_SHA256
