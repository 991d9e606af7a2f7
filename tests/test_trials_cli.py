"""Monte Carlo trial runner, report emission, and the command-line surface."""

import json
import math
from fractions import Fraction as F

import pytest

from llp_lab import (
    ClassDescriptor,
    FiniteSubset,
    Parity,
    TrialConfig,
    UniformCube,
    clopper_pearson,
    config_from_json,
    config_to_json,
    emit_report,
    make_distribution,
    report_from_json,
    report_to_csv,
    report_to_json,
    resolve_m,
    run_trials,
)
from llp_lab.cli import main
from llp_lab.errors import InvalidParams

TWO_ATOM = make_distribution([(1, F(3, 10)), (2, F(7, 10))])
CSV_HEADER = "trial,seed,p_c_num,p_c_den,p_h_num,p_h_den,residual,success,ms"


def improper_config(**overrides):
    base = dict(
        learner="improper",
        epsilon=F(1),
        delta=F(1, 10),
        trials=50,
        seed=7,
        distribution=TWO_ATOM,
        target=FiniteSubset((2,)),
        m=20,
    )
    base.update(overrides)
    return TrialConfig(**base)


def test_trial_config_validation():
    with pytest.raises(InvalidParams):
        improper_config(learner="no_such_learner")
    with pytest.raises(InvalidParams):
        improper_config(trials=0)
    with pytest.raises(InvalidParams):
        improper_config(m=0)
    with pytest.raises(InvalidParams):
        improper_config(learner="erm")  # needs a class descriptor
    with pytest.raises(InvalidParams):
        improper_config(learner="noisy_distinguisher")  # needs noise rates
    with pytest.raises(InvalidParams):
        improper_config(m_mode="no_such_mode")
    with pytest.raises(InvalidParams):
        improper_config(epsilon=F(3, 2))
    with pytest.raises(InvalidParams):
        improper_config(target=None)  # no class to draw random targets from


def test_resolve_m_modes():
    assert resolve_m(improper_config(m=37)) == 37
    hoeff = improper_config(epsilon=F(1, 10), delta=F(1, 20), m=None, m_mode="hoeffding")
    assert resolve_m(hoeff) == 185
    gap = improper_config(
        learner="gap",
        desc=ClassDescriptor("finite_subset", 1, ground_set=(1, 2)),
        epsilon=F(1, 10),
        delta=F(1, 10),
        m=None,
        m_mode="gap",
    )
    assert resolve_m(gap) == 67
    uc = improper_config(
        learner="erm",
        desc=ClassDescriptor("parity", 6, restriction=2),
        distribution=UniformCube(6),
        target=Parity((1, 1, 0, 0, 0, 0)),
        epsilon=F(3, 10),
        delta=F(1, 10),
        m=None,
        m_mode="uniform-convergence",
    )
    assert resolve_m(uc) == 2187


def test_resolve_m_uc_substitutes_support_size_at_infinite_vc():
    cfg = improper_config(
        learner="erm",
        desc=ClassDescriptor("finite_subset", 1, ground_set=(1, 2)),
        epsilon=F(1, 2),
        delta=F(1, 10),
        m=None,
        m_mode="uniform-convergence",
    )
    m = resolve_m(cfg)
    # d falls back to the explicit support size (2)
    from llp_lab import uniform_convergence_sample_size

    assert m == uniform_convergence_sample_size(2, 0.5, 0.1, 0)


def test_improper_trials_always_succeed_at_epsilon_one():
    report = run_trials(improper_config())
    assert report.successes == 50
    assert report.success_rate == 1
    assert all(row.error is None for row in report.rows)


def test_rows_record_exact_proportions():
    report = run_trials(improper_config(trials=8))
    for row in report.rows:
        assert row.p_c == F(7, 10)
        assert row.residual == abs(row.p_c - row.p_h)
        assert row.ms == 0  # timing suppressed unless requested


def test_aggregate_equals_mean_of_flags():
    cfg = improper_config(learner="gap", epsilon=F(1, 100), trials=40,
                          desc=ClassDescriptor("finite_subset", 1, ground_set=(1, 2)),
                          m=5)
    report = run_trials(cfg)
    assert report.success_rate == F(sum(r.success for r in report.rows), 40)
    lo, hi = report.ci95
    assert lo <= float(report.success_rate) <= hi


def test_error_rows_carry_cause():
    cfg = improper_config(learner="subset_sum", distribution=UniformCube(2),
                          target=Parity((1, 0)), trials=5)
    report = run_trials(cfg)
    assert all(row.error for row in report.rows)
    assert all(row.success is False for row in report.rows)
    assert report.successes == 0
    assert all(row.error.startswith("DomainMismatch: ") for row in report.rows)


def test_window_learner_without_span_bound_is_an_error_row():
    cfg = improper_config(learner="window", desc=ClassDescriptor("finite_subset", 1, ground_set=(1, 2)), trials=2)
    report = run_trials(cfg)
    assert all(row.error.startswith("InvalidParams: ") for row in report.rows)


def test_bug_inside_a_learner_propagates(monkeypatch):
    import llp_lab.trials

    def broken(sample):
        raise TypeError("a bug, not a failed trial")

    monkeypatch.setattr(llp_lab.trials, "subset_sum_learner", broken)
    with pytest.raises(TypeError, match="a bug"):
        run_trials(improper_config(learner="subset_sum", trials=3))


def test_parallel_matches_serial(monkeypatch):
    cfg = improper_config(trials=24)
    monkeypatch.setenv("LLP_LAB_THREADS", "1")
    serial = run_trials(cfg)
    monkeypatch.setenv("LLP_LAB_THREADS", "3")
    pooled = run_trials(cfg)
    assert report_to_csv(serial) == report_to_csv(pooled)
    assert report_to_json(serial) == report_to_json(pooled)


def test_report_csv_shape():
    report = run_trials(improper_config(trials=1))
    text = report_to_csv(report)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2
    assert lines[1].endswith(",1,0")  # success flag then ms


def test_empty_report_is_header_only():
    report = run_trials(improper_config(trials=1))
    empty = type(report)(config=report.config, rows=())
    assert report_to_csv(empty) == CSV_HEADER + "\n"


def test_report_json_round_trip():
    report = run_trials(improper_config(trials=6))
    again = report_from_json(report_to_json(report))
    assert again == report


def test_config_json_round_trip():
    cfg = improper_config(
        learner="erm",
        desc=ClassDescriptor("finite_subset", 1, ground_set=(1, 2)),
        epsilon=F(1, 10),
    )
    assert config_from_json(config_to_json(cfg)) == cfg


def test_emit_report_round_trip(tmp_path):
    report = run_trials(improper_config(trials=3))
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    emit_report(report, "json", json_path)
    emit_report(report, "csv", csv_path)
    assert report_from_json(json.loads(json_path.read_text())) == report
    assert csv_path.read_text().splitlines()[0] == CSV_HEADER


def test_clopper_pearson_edges():
    lo, hi = clopper_pearson(0, 20)
    assert lo == 0 and 0 < hi < 0.2
    lo, hi = clopper_pearson(20, 20)
    assert 0.8 < lo < 1 and hi == 1
    lo, hi = clopper_pearson(10, 20)
    assert lo < 0.5 < hi


# ---------------------------------------------------------------------------
# command-line surface


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_bounds_values(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--hoeffding", "--eps", "0.1", "--delta", "0.05")
    assert code == 0 and out.strip() == "185"
    code, out, _ = run_cli(capsys, "bounds", "--gap", "--beta", "3/10", "--delta", "0.1")
    assert code == 0 and out.strip() == "67"
    code, out, _ = run_cli(capsys, "bounds", "--uc", "--d", "2", "--eps", "0.3", "--delta", "0.1")
    assert code == 0 and out.strip() == "2187"
    code, out, _ = run_cli(
        capsys, "bounds", "--uc-bound", "--d", "1", "--m", "1000", "--delta", "0.05"
    )
    assert code == 0
    assert math.isclose(float(out), 0.345135989320807, rel_tol=1e-12)


def test_cli_usage_error_is_machine_readable(capsys):
    code, _, err = run_cli(capsys, "bounds")
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_cli_unknown_subcommand(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_cli_gen_is_deterministic(capsys):
    args = ("gen", "--x3c", "--universe", "6", "--triples", "4", "--seed", "7")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    inst = json.loads(out1)
    assert len(inst["universe"]) == 6 and len(inst["triples"]) == 4


def test_cli_gen_then_learn(tmp_path, capsys):
    task_path = tmp_path / "task.json"
    code, out, _ = run_cli(
        capsys,
        "gen",
        "--task",
        "--class-id",
        "monotone_disjunction",
        "--n",
        "3",
        "--cube",
        "--m",
        "12",
        "--eps",
        "1/10",
        "--delta",
        "1/20",
        "--seed",
        "5",
        "--out",
        str(task_path),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "learn", "--task", str(task_path), "--learner", "erm")
    assert code == 0
    outcome = json.loads(out)
    assert outcome["residual"] == {"num": 0, "den": 1}
    assert outcome["improper"] is False


def test_cli_oracle_subset_sum(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"counts": [2, 3, 5], "t": 5}))
    code, out, _ = run_cli(capsys, "oracle", "--solver", "subset-sum", "--in", str(inst))
    assert code == 0
    report = json.loads(out)
    assert report["optimum"] == 0
    assert report["witness"] == [0, 1]


def test_cli_reduce_chain_check(tmp_path, capsys):
    inst_path = tmp_path / "x3c.json"
    code, out, _ = run_cli(
        capsys, "gen", "--x3c", "--universe", "6", "--triples", "4", "--seed", "3",
        "--out", str(inst_path),
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "reduce", "--chain", "x3c-epsc-disjunction", "--in", str(inst_path), "--check"
    )
    assert code == 0
    report = json.loads(out)
    assert report["agree"] is True
    d = report["decisions"]
    assert d["x3c"] == d["epsc"] == d["disjunction"] == d["conjunction"]
    assert report["consistency"] == report["disjunction"]


def write_cli_config(tmp_path, **overrides):
    obj = {
        "learner": "improper",
        "epsilon": "1",
        "delta": "1/10",
        "trials": 5,
        "seed": 3,
        "distribution": {"kind": "uniform_cube", "n": 2},
        "target": {"kind": "parity", "mask": "10"},
        "m": 4,
    }
    obj.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_cli_trials_print_config(tmp_path, capsys):
    cfg_path = write_cli_config(tmp_path, m=None)
    code, out, _ = run_cli(
        capsys,
        "trials", "--config", cfg_path,
        "--epsilon", "1/10", "--delta", "1/20", "--m-mode", "hoeffding",
        "--print-config",
    )
    assert code == 0
    cfg = json.loads(out)
    assert cfg["m"] == 185
    assert cfg["m_mode"] == "explicit"
    assert cfg["epsilon"] == {"num": 1, "den": 10}


def test_cli_trials_csv_deterministic(tmp_path, capsys):
    cfg_path = write_cli_config(tmp_path, trials=10, seed=11, m=9)
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    base = ("trials", "--config", cfg_path, "--format", "csv")
    code, _, _ = run_cli(capsys, *base, "--out", str(out_a))
    assert code == 0
    code, _, _ = run_cli(capsys, *base, "--out", str(out_b))
    assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_text().splitlines()[0] == CSV_HEADER


def test_cli_trials_min_success_rate_gate(tmp_path, capsys):
    cfg_path = write_cli_config(tmp_path)
    code, out, err = run_cli(
        capsys, "trials", "--config", cfg_path, "--min-success-rate", "1"
    )
    assert code == 0
    # epsilon 0 demands the drawn proportion hit 1/2 exactly in every trial
    code, out, err = run_cli(
        capsys, "trials", "--config", cfg_path,
        "--epsilon", "0", "--min-success-rate", "1",
    )
    assert code == 3
    assert json.loads(err)["error"] == "check_failed"
