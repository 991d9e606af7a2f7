"""Monte Carlo trial runner, report emission, and the command-line surface."""

import json
import math
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings

from llp_lab import (
    ClassDescriptor,
    FiniteSubset,
    LLPTask,
    Parity,
    Sample,
    TrialConfig,
    UniformCube,
    clopper_pearson,
    config_from_json,
    config_to_json,
    distribution_to_json,
    emit_report,
    make_distribution,
    report_from_json,
    report_to_csv,
    report_to_json,
    resolve_m,
    run_trials,
    task_to_json,
)
from llp_lab.cli import build_parser, main
from llp_lab.errors import InvalidParams
from llp_lab.trials import LEARNER_IDS, SAMPLE_LEARNERS
from wire_values import configs, reports

TWO_ATOM = make_distribution([(1, F(3, 10)), (2, F(7, 10))])
CSV_HEADER = "trial,seed,p_c_num,p_c_den,p_h_num,p_h_den,residual,success,ms"


CLI_CONFIG = {
    "learner": "improper",
    "epsilon": "1",
    "delta": "1/10",
    "trials": 5,
    "seed": 3,
    "distribution": {"kind": "uniform_cube", "n": 2},
    "target": {"kind": "parity", "mask": "10"},
    "m": 4,
}


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


def test_noisy_distinguisher_needs_bit_vectors(tmp_path, capsys):
    noisy = dict(learner="noisy_distinguisher", eta=F(1, 10), eta_prime=F(1, 5))
    with pytest.raises(InvalidParams, match="bit vectors"):
        improper_config(**noisy)  # TWO_ATOM is over naturals
    bits = make_distribution([((0, 1), F(1, 2)), ((1, 1), F(1, 2))])
    report = run_trials(improper_config(**noisy, distribution=bits, target=Parity((1, 0)), trials=3))
    assert len(report.rows) == 3 and all(row.error is None for row in report.rows)
    cfg_path = write_cli_config(
        tmp_path,
        learner="noisy_distinguisher",
        eta="1/10",
        eta_prime="1/5",
        distribution=distribution_to_json(TWO_ATOM),
        target={"kind": "finite_subset", "elems": [2]},
    )
    code, _, err = run_cli(capsys, "trials", "--config", cfg_path)
    assert code == 2
    assert json.loads(err)["error"] == "InvalidParams"


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


def test_threads_that_are_not_an_integer_are_invalid_params(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LLP_LAB_THREADS", "abc")
    with pytest.raises(InvalidParams, match="LLP_LAB_THREADS"):
        run_trials(improper_config(trials=2))
    code, _, err = run_cli(capsys, "trials", "--config", write_cli_config(tmp_path))
    assert code == 2
    assert json.loads(err)["error"] == "InvalidParams"


def test_pool_has_at_most_one_worker_per_trial(monkeypatch):
    import concurrent.futures

    seen = []

    class Recorder:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # run_trials imports the pool class only when it fans out
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    monkeypatch.setenv("LLP_LAB_THREADS", "8")
    run_trials(improper_config(trials=3))
    assert seen == [3]


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


@given(reports)
@example(run_trials(improper_config(trials=6)))
def test_report_json_round_trip(report):
    again = report_from_json(report_to_json(report))
    assert again == report


@given(configs)
@example(improper_config(learner="erm", desc=ClassDescriptor("finite_subset", 1, ground_set=(1, 2)), epsilon=F(1, 10)))
def test_config_json_round_trip(cfg):
    assert config_from_json(config_to_json(cfg)) == cfg


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(reports)
@example(run_trials(improper_config(trials=3)))
def test_emit_report_round_trip(tmp_path, report):
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


_TINY = "1/1" + "0" * 170  # 1e-170: its square underflows to 0


@pytest.mark.parametrize(
    "argv, detail",
    [
        (("--hoeffding", "--eps", _TINY, "--delta", "1/10"), "the Hoeffding sample size for 1e-170, 0.1 does not fit a double"),
        (("--hoeffding", "--eps", "1/1" + "0" * 160, "--delta", "1/10"), "the Hoeffding sample size for 1e-160, 0.1 does not fit a double"),
        (("--gap", "--beta", _TINY, "--delta", "1/10"), "the Hoeffding sample size for 5e-171, 0.1 does not fit a double"),
        # half the gap rounds to 0.0 as a double, so it is named as given
        (("--gap", "--beta", "1/1" + "0" * 400, "--delta", "1/10"), f"the Hoeffding sample size for 1/2{'0' * 400}, 1/10 does not fit a double"),
        (("--uc", "--d", "2", "--eps", "1/1" + "0" * 160, "--delta", "1/10"), "the uniform-convergence sample size for 2, 1e-160, 1/10 does not fit a double"),
    ],
)
def test_cli_bounds_too_large_for_a_double_exit_2(capsys, argv, detail):
    # each once ended in a ZeroDivisionError, OverflowError or ZeroGap traceback
    code, out, err = run_cli(capsys, "bounds", *argv)
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "InvalidParams", "detail": detail}


def test_cli_trials_with_a_hoeffding_size_too_large_for_a_double_exits_2(tmp_path, capsys):
    cfg_path = write_cli_config(tmp_path, m=None, m_mode="hoeffding", epsilon=_TINY)
    code, out, err = run_cli(capsys, "trials", "--config", cfg_path)
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "InvalidParams",
        "detail": "the Hoeffding sample size for 1e-170, 0.1 does not fit a double",
    }


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


def test_cli_learn_with_a_distribution_that_is_not_an_object_is_malformed_encoding(tmp_path, capsys):
    # `"distribution": 7` once crashed `learn` with an AttributeError traceback and exit 1
    task_path = tmp_path / "task.json"
    args = ("gen", "--task", "--class-id", "monotone_disjunction", "--n", "3", "--cube", "--m", "12")
    code, _, _ = run_cli(capsys, *args, "--seed", "5", "--out", str(task_path))
    assert code == 0
    obj = json.loads(task_path.read_text())
    obj["task"]["distribution"] = 7
    task_path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "learn", "--task", str(task_path), "--learner", "erm")
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "MalformedEncoding",
        "detail": "distribution must be a JSON object, got 7",
    }


@pytest.mark.parametrize(
    "distribution, error, detail",
    [
        ({"kind": "explicit", "atoms": 7}, "MalformedEncoding", "distribution atoms must be a list of JSON objects, got 7"),
        ({"kind": "explicit", "atoms": [7]}, "MalformedEncoding", "distribution atoms must be a list of JSON objects, got [7]"),
        ({"kind": "uniform_cube", "n": "3"}, "InvalidParams", "cube dimension must be a positive int, got '3'"),
        ({"kind": "uniform_cube", "n": True}, "InvalidParams", "cube dimension must be a positive int, got True"),
    ],
)
def test_cli_learn_with_a_malformed_distribution_field_is_a_typed_error(tmp_path, capsys, distribution, error, detail):
    # the first and third once exited as "TypeError" and "ValueError"; a bool n was a 1-cube
    task_path = Path(write_task(tmp_path, ClassDescriptor("finite_subset", 1, ground_set=(1, 2))))
    obj = json.loads(task_path.read_text())
    obj["task"]["distribution"] = distribution
    task_path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "learn", "--task", str(task_path), "--learner", "erm")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": error, "detail": detail}


def _task_json(*path, value):
    """A learn task file's JSON with the field at `path` set to `value`."""
    obj = task_to_json(LLPTask(None, F(1, 10), F(1, 20), Sample((1, 2, 2), F(2, 3)), TWO_ATOM))
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return obj


LEARN = ["learn", "--task", "{in}", "--learner", "improper"]
PAC = ["reduce", "--run", "pac", "--in", "{in}"]
NOISY_PARITY = {"n": 3, "target": {"kind": "parity", "mask": "100"}, "eta": "1/10", "eta_prime": "1/5"}
# each input once exited 1 with a traceback (ZeroDivisionError or AttributeError)
# or 2 as an untyped "KeyError", "TypeError" or "ValueError"
MALFORMED = {
    "bounds eps 1/0": (None, ["bounds", "--hoeffding", "--eps", "1/0", "--delta", "1/2"], "InvalidParams"),
    "trials eps 1/0": (CLI_CONFIG, ["trials", "--config", "{in}", "--eps", "1/0"], "InvalidParams"),
    "learn p_hat_den 0": (_task_json("sample", "p_hat_den", value=0), LEARN, "InvalidParams"),
    "learn atom den 0": (_task_json("distribution", "atoms", 0, "den", value=0), LEARN, "InvalidParams"),
    "trials target 7": ({**CLI_CONFIG, "target": 7}, ["trials", "--config", "{in}"], "MalformedEncoding"),
    "noisy-parity target 7": (
        {**NOISY_PARITY, "target": 7},
        ["reduce", "--run", "noisy-parity", "--in", "{in}"],
        "MalformedEncoding",
    ),
    "x3c without triples": ({"universe": [1, 2, 3]}, ["oracle", "--solver", "x3c", "--in", "{in}"], "MalformedEncoding"),
    "x3c universe of two": (
        {"universe": [1, 2], "triples": []},
        ["oracle", "--solver", "x3c", "--in", "{in}"],
        "InvalidParams",
    ),
    "trials config a list": ([1], ["trials", "--config", "{in}", "--seed", "3"], "MalformedEncoding"),
    "noisy-parity restriction a string": (
        {**NOISY_PARITY, "restriction": "2"},
        ["reduce", "--run", "noisy-parity", "--in", "{in}"],
        "InvalidParams",
    ),
    "pac example of three items": (
        {"class": {"class_id": "monotone_disjunction", "n": 2}, "labeled": [[{"bits": "01"}, 1, 5]]},
        PAC,
        "MalformedEncoding",
    ),
    "pac conflicting labels": (
        {"class": {"class_id": "monotone_disjunction", "n": 2}, "labeled": [[{"bits": "01"}, 1], [{"bits": "01"}, 0]]},
        PAC,
        "InvalidParams",
    ),
    "pac label 5": (
        {"class": {"class_id": "monotone_disjunction", "n": 2}, "labeled": [[{"bits": "01"}, 5]]},
        PAC,
        "InvalidParams",
    ),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_cli_malformed_input_exits_2_with_a_typed_error(tmp_path, capsys, case):
    obj, argv, error = MALFORMED[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, *(arg.replace("{in}", str(path)) for arg in argv))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == error


def test_cli_learn_with_a_fractional_positive_count_is_invalid_params(tmp_path, capsys):
    # a task whose p_hat * m is not a whole count is bad input, typed as such
    sample = Sample(((0, 1), (1, 1), (1, 0)), F(1, 3))
    obj = task_to_json(LLPTask(ClassDescriptor("parity", 2), F(1, 10), F(1, 20), sample))
    obj["sample"]["p_hat_num"], obj["sample"]["p_hat_den"] = 1, 2
    task_path = tmp_path / "task.json"
    task_path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "learn", "--task", str(task_path), "--learner", "erm")
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "InvalidParams",
        "detail": "p_hat 1/2 invalid for m=3: not j/m for a whole j in [0, m], or 0 when m = 0",
    }


def test_cli_oracle_subset_sum(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"counts": [2, 3, 5], "t": 5}))
    code, out, _ = run_cli(capsys, "oracle", "--solver", "subset-sum", "--in", str(inst))
    assert code == 0
    report = json.loads(out)
    assert report["optimum"] == 0
    assert report["witness"] == [0, 1]


def test_cli_oracle_subset_sum_bad_counts_are_invalid_params(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    # the target and the counts must be ints: t = 1.5 and t = true once ran, 1.5 as "optimum": 0.5
    for counts, t in [([0], 1), ([1, 2], 1.5), ([1, 2], True), ([True, 2], 1), ([1.0, 2], 1)]:
        inst.write_text(json.dumps({"counts": counts, "t": t}))
        code, out, err = run_cli(capsys, "oracle", "--solver", "subset-sum", "--in", str(inst))
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "InvalidParams"


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


@pytest.mark.parametrize("m, code", [("0", 2), ("-3", 2), ("40", 0)])
def test_cli_reduce_noisy_parity_takes_m_as_given(tmp_path, capsys, m, code):
    setup = {"n": 3, "target": {"kind": "parity", "mask": "101"}, "eta": "1/10", "eta_prime": "1/5"}
    inst_path = tmp_path / "noisy.json"
    inst_path.write_text(json.dumps(setup))
    got, out, err = run_cli(capsys, "reduce", "--run", "noisy-parity", "--in", str(inst_path), "--m", m)
    assert got == code
    if code:
        assert out == "" and json.loads(err)["error"] == "InvalidParams"
    else:
        assert json.loads(out)["m"] == 40


def write_cli_config(tmp_path, **overrides):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**CLI_CONFIG, **overrides}))
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


@pytest.mark.parametrize(
    "field, value",
    [("seed", 1.0), ("seed", True), ("trials", True), ("trials", 5.0), ("m", True), ("m", 4.0), ("record_ms", "no")],
)
def test_cli_trials_refuses_counts_and_flags_of_another_json_type(tmp_path, capsys, field, value):
    # each was once run as the int or flag it stands for ("no" turned timing on)
    code, out, err = run_cli(capsys, "trials", "--config", write_cli_config(tmp_path, **{field: value}))
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "InvalidParams"


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


def write_task(tmp_path, desc, distribution=None):
    task = LLPTask(desc, F(1, 10), F(1, 20), Sample((1, 2, 2), F(2, 3)), distribution)
    path = tmp_path / "task.json"
    path.write_text(json.dumps({"task": task_to_json(task)}))
    return str(path)


@pytest.mark.parametrize(
    "learner, desc, distribution, detail",
    [
        ("erm", None, TWO_ATOM, "needs a class descriptor"),
        ("gap", ClassDescriptor("finite_subset", 1, ground_set=(1, 2)), None, "needs a distribution"),
        ("window", ClassDescriptor("finite_subset", 1, ground_set=(1, 2)), TWO_ATOM, "span bound"),
    ],
)
def test_cli_learn_preconditions_are_invalid_params(tmp_path, capsys, learner, desc, distribution, detail):
    task_path = write_task(tmp_path, desc, distribution)
    code, out, err = run_cli(capsys, "learn", "--task", task_path, "--learner", learner)
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["error"] == "InvalidParams"
    assert detail in error["detail"]


def test_cli_learn_task_with_epsilon_zero_is_invalid_params(tmp_path, capsys):
    task_path = Path(write_task(tmp_path, ClassDescriptor("finite_subset", 1, ground_set=(1, 2))))
    obj = json.loads(task_path.read_text())
    obj["task"]["epsilon"] = {"num": 0, "den": 1}
    task_path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "learn", "--task", str(task_path), "--learner", "erm")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "InvalidParams", "detail": "epsilon 0 outside (0, 1)"}


def test_one_table_names_the_learners():
    learn = next(
        action.choices["learn"]
        for action in build_parser()._actions
        if action.dest == "command"
    )
    learner = next(action for action in learn._actions if action.dest == "learner")
    assert list(learner.choices) == list(SAMPLE_LEARNERS)
    assert LEARNER_IDS == (*SAMPLE_LEARNERS, "noisy_distinguisher")


def test_trials_and_learn_call_the_learner_through_the_module(tmp_path, capsys, monkeypatch):
    import llp_lab.trials

    calls = []
    erm = llp_lab.trials.erm_proportion_matcher

    def counting(*args, **kwargs):
        calls.append(1)
        return erm(*args, **kwargs)

    monkeypatch.setattr(llp_lab.trials, "erm_proportion_matcher", counting)
    desc = ClassDescriptor("finite_subset", 1, ground_set=(1, 2))
    run_trials(improper_config(learner="erm", desc=desc, trials=3))
    assert len(calls) == 3
    code, _, _ = run_cli(
        capsys, "learn", "--task", write_task(tmp_path, desc, TWO_ATOM), "--learner", "erm"
    )
    assert code == 0 and len(calls) == 4
