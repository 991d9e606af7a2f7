"""The benchmark's own tests: toy-size runs and checks fed wrong outputs.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import llp_lab as llp  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import truth  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_worker(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), *args],
        env=run.worker_env(), cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# end to end at toy size


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_runs_clean_at_toy_size(name):
    out = run_worker("--workload", name, "--seed", "3", "--toy")
    assert out["attempted"] == out["pass_size"] >= 4
    assert out["failed"] == 0
    assert out["problems"] == []
    for key in ("ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"):
        assert out[key] > 0
    assert out["setup"]["adj_s"] > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_gives_every_layer_metric(name):
    out = run_worker("--workload", name, "--seed", "3", "--toy", "--trace", "1")
    from_run = {"import.llp_lab_ms", "import.scipy_ms", "traced.ops_per_s"}
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(out["layers"]) | from_run == set(declared)
    assert all(declared[k] == unit for k, (_, unit) in out["layers"].items())
    layers = {k: v for k, (v, _) in out["layers"].items()}
    if name == "trials-learners":
        assert layers["oracles.solve_calls"] == 0 and layers["learners.erm_ms"] > 0
    else:
        assert layers["oracles.solve_calls"] > 0 and layers["learners.erm_ms"] == 0
    if name == "consistency-sweep":
        assert 0 < layers["reductions.verify_useful_ratio"] <= 1


def test_same_seed_same_inputs():
    a = workloads.build("consistency-sweep", 5, toy=True)
    b = workloads.build("consistency-sweep", 5, toy=True)
    c = workloads.build("consistency-sweep", 6, toy=True)
    assert a.instances == b.instances and a.run_seeds == b.run_seeds
    assert a.run_seeds != c.run_seeds
    # the slot shapes do not depend on the seed
    assert [(i.desc, len(i.points), i.total) for i in a.instances] == [
        (i.desc, len(i.points), i.total) for i in c.instances
    ]


def test_run_refuses_a_tree_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# every check rejects a wrong output


def test_consistency_check_rejects_flipped_decision_and_bad_witness():
    wl = workloads.build("consistency-sweep", 3, toy=True)
    runs = [wl.op(slot) for slot in range(wl.pass_size)]
    for slot, r in enumerate(runs):
        assert wl.check(slot, r) is False
    assert wl.verdict() == []

    flipped = workloads.build("consistency-sweep", 3, toy=True)
    for slot, r in enumerate(runs):
        if slot == 0:
            r = dataclasses.replace(r, decision=not r.decision, witness=None)
        flipped.check(slot, r)
    assert any("decisions agree" in p for p in flipped.verdict())

    yes = next(s for s, r in enumerate(runs) if r.decision)
    inst = wl.instances[yes]
    kind = llp.MonotoneDisjunction if inst.desc.class_id == "monotone_disjunction" else llp.MonotoneConjunction
    wrong = next(
        h for h in (kind(inst.desc.n, (v,)) for v in range(1, inst.desc.n + 1))
        if not truth.witness_hits(h, inst.points, inst.mults, inst.k)
    )
    bad = workloads.build("consistency-sweep", 3, toy=True)
    bad.check(yes, dataclasses.replace(runs[yes], witness=wrong))
    assert any("does not hit" in p for p in bad.verdict())


def test_reference_consistency_matches_library_brute_force():
    wl = workloads.build("consistency-sweep", 8, toy=True)
    for inst, answer in zip(wl.instances, wl.answers):
        assert llp.brute_consistency(inst).decision == answer


def test_noisy_parity_check_rejects_wrong_parity():
    wl = workloads.build("noisy-parity", 3, toy=True)
    slot = 5 % wl.pass_size
    target = wl.setups[slot].target
    run_ok = llp.NoisyParityRun(target, 1, ())
    assert wl.check(slot, run_ok) is False and wl.verdict() == []

    outside = llp.Parity(target.mask[:4] + (1,) + target.mask[5:])
    wl.check(slot, llp.NoisyParityRun(outside, 1, ()))
    assert any("first 4 coordinates" in p for p in wl.verdict())

    wrong = workloads.build("noisy-parity", 3, toy=True)
    other = llp.Parity(tuple(1 - b for b in target.mask[:4]) + target.mask[4:])
    for s in range(wrong.pass_size):
        wrong.check(s, llp.NoisyParityRun(other if s == slot else wrong.setups[s].target, 1, ()))
    assert any("recovered" in p for p in wrong.verdict())


def _with_row(report, **changes):
    rows = list(report.rows)
    rows[0] = dataclasses.replace(rows[0], **changes)
    return dataclasses.replace(report, rows=tuple(rows))


def test_trials_check_accepts_real_output():
    wl = workloads.build("trials-learners", 3, toy=True)
    for slot in range(wl.pass_size):
        assert wl.check(slot, wl.op(slot)) is False
    assert wl.verdict() == []


@pytest.mark.parametrize(
    "name, change, expect",
    [
        ("erm_parity", {"p_h": Fraction(1, 3), "residual": None}, "cannot realize"),
        ("erm_parity", {"p_c": Fraction(1, 7)}, "target's proportion"),
        ("window", {"success": None}, "residual"),
        ("improper", {"p_h": Fraction(1, 10**9), "residual": None}, "cannot realize"),
    ],
)
def test_trials_check_rejects_wrong_rows(name, change, expect):
    wl = workloads.build("trials-learners", 3, toy=True)
    slot = wl.slot_names.index(name)
    report, as_json, as_csv = wl.op(slot)
    row = report.rows[0]
    if change.get("residual", 0) is None:
        change["residual"] = abs(row.p_c - change["p_h"])
    if change.get("success", 0) is None:
        change["success"] = not row.success
    bad = _with_row(report, **change)
    assert wl.check(slot, (bad, llp.report_to_json(bad), llp.report_to_csv(bad))) is False
    assert any(expect in p for p in wl.verdict())


def test_trials_check_rejects_broken_reports_and_counts_error_rows():
    wl = workloads.build("trials-learners", 3, toy=True)
    report, as_json, as_csv = wl.op(0)
    as_json = json.loads(json.dumps(as_json))
    as_json["rows"][0]["seed"] += 1
    wl.check(0, (report, as_json, as_csv))
    assert any("round-trip" in p for p in wl.verdict())

    wl = workloads.build("trials-learners", 3, toy=True)
    report, as_json, as_csv = wl.op(0)
    lines = as_csv.splitlines()
    lines[1] = lines[1][:-3] + ("0" if lines[1][-3] == "1" else "1") + lines[1][-2:]
    wl.check(0, (report, as_json, "\n".join(lines) + "\n"))
    assert any("CSV" in p for p in wl.verdict())

    wl = workloads.build("trials-learners", 3, toy=True)
    report, as_json, as_csv = wl.op(0)
    broken = _with_row(report, p_c=None, p_h=None, residual=None, success=False, error="ValueError: x")
    assert wl.check(0, (broken, as_json, as_csv)) is True


def test_trials_rate_check_rejects_low_success():
    wl = workloads.build("trials-learners", 3, toy=True)
    wl.tally["gap"] = [50, 100]
    assert any("gap succeeded 50/100" in p for p in wl.verdict())


# ---------------------------------------------------------------------------
# harness pieces


def test_adjustment_scales_by_local_reference():
    raw = [1.0] * 20
    refs = [speed.NOMINAL_REF_S] * 10 + [2 * speed.NOMINAL_REF_S] * 11
    adj = speed.adjust_ops(raw, refs)
    assert adj[0] == pytest.approx(1.0) and adj[-1] == pytest.approx(0.5)
    with pytest.raises(ValueError):
        speed.adjust_ops(raw, refs[:-1])


def test_reference_slice_checks_its_own_result(monkeypatch):
    assert speed.time_slice() > 0
    monkeypatch.setattr(speed, "_EXPECTED", (Fraction(1), 0))
    with pytest.raises(RuntimeError):
        speed.time_slice()


def test_worker_env_drops_outside_settings(monkeypatch):
    monkeypatch.setenv("LLP_LAB_THREADS", "4")
    monkeypatch.setenv("PYTHONHASHSEED", "123")
    monkeypatch.setenv("PYTHONPATH", "/elsewhere")
    env = run.worker_env()
    assert "LLP_LAB_THREADS" not in env
    assert env["PYTHONHASHSEED"] == "0"
    assert env["PYTHONPATH"] == str(ROOT / "src")


def test_parse_importtime():
    text = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 |     numpy.core",
            "import time:        50 |        300 |   scipy",
            "import time:       400 |        400 |     scipy.special",
            "import time:        20 |        900 |   scipy.stats",
            "import time:        10 |       1500 | llp_lab",
        ]
    )
    assert run.parse_importtime(text) == (1500, 1200)
