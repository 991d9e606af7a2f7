"""Golden fixtures: seeded reduction transcripts, reports and CLI outputs.

Each case renders one family of seeded runs as text, and the test asserts
that the text equals the committed copy under tests/golden/ byte for byte.
The reduction, gap-trial, `reduce` and `oracle` copies were written by the
exact-Fraction oracle sweep that the integer sweep replaced; the `gen`,
`learn` and other `trials` copies were written by the per-point `evaluate`
loops that the bit-packed labeling kernel replaced.  So they pin witnesses,
tie-breaks, transcripts and reports across those changes and every later
one.  A reduction transcript
is stored as the SHA-256 of its `OracleCall.to_json` lines plus a run-length
summary (consecutive calls with the same response and verdict), so a diff
shows where two transcripts part.

Regenerate only for a deliberate change of output:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest

from llp_lab import (
    ClassDescriptor,
    FiniteSubset,
    LlpError,
    MonotoneDisjunction,
    NoisyParitySetup,
    Parity,
    TrialConfig,
    UniformCube,
    config_to_json,
    consistency_via_llp,
    derive_seed,
    gen_consistency,
    gen_distribution,
    gen_epsc,
    gen_x3c,
    hypothesis_to_json,
    make_brute_oracle,
    make_distribution,
    noisy_parity_sample_size,
    noisy_parity_via_llp,
    random_hypothesis,
    report_to_csv,
    report_to_json,
    run_trials,
)
from llp_lab.cli import main

GOLDEN = Path(__file__).parent / "golden"
MASTER = 1009  # the acceptance battery's master seed
TWO_ATOM = make_distribution([(1, F(3, 10)), (2, F(7, 10))])


def _dumps(obj: object) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def _transcript(transcript) -> dict:
    lines = "\n".join(json.dumps(c.to_json(), sort_keys=True) for c in transcript)
    runs: list[list] = []
    for call in transcript:
        response = None if call.response is None else hypothesis_to_json(call.response)
        if runs and runs[-1][3] == response and runs[-1][4] == call.accepted:
            runs[-1][1] = str(call.claimed)
            runs[-1][2] += 1
        else:
            runs.append([str(call.claimed), str(call.claimed), 1, response, call.accepted])
    return {
        "calls": len(transcript),
        "sha256": hashlib.sha256(lines.encode()).hexdigest(),
        "runs": [json.dumps(r, sort_keys=True) for r in runs],
    }


# ---------------------------------------------------------------------------
# reductions


def _c11_instances():
    """Acceptance criterion 11's 100 instances, drawn exactly as it draws them."""
    for i in range(100):
        rng = random.Random(derive_seed(MASTER, "c11", i))
        kind = ("monotone_disjunction", "monotone_conjunction")[i % 2]
        n = rng.randint(1, 4)
        desc = ClassDescriptor(kind, n)
        inst = gen_consistency(desc, rng.randint(1, min(10, 2**n)), derive_seed(MASTER, "c11", "gen", i))
        yield i, desc, inst


def _consistency_c11(mode: str) -> str:
    out = []
    for i, desc, inst in _c11_instances():
        run = consistency_via_llp(
            inst, make_brute_oracle(desc, mode), F(1, 20), seed=derive_seed(MASTER, "c11", "run", i)
        )
        out.append(
            {
                "instance": i,
                "decision": run.decision,
                "witness": None if run.witness is None else hypothesis_to_json(run.witness),
                "drawn": run.drawn,
                "transcript": _transcript(run.transcript),
            }
        )
    return _dumps(out)


def _noisy_parity_c09() -> str:
    """Criterion 09's first planted parities, through both oracle modes."""
    desc = ClassDescriptor("parity", 8, restriction=4)
    out = []
    for mode, runs in (("arbitrary", 6), ("reject", 3)):
        oracle = make_brute_oracle(desc, mode)
        m = noisy_parity_sample_size(oracle, F(1, 5), F(1, 10))
        for i in range(runs):
            target = random_hypothesis(desc, random.Random(derive_seed(MASTER, "c09", "plant", i)))
            setup = NoisyParitySetup(8, target, F(1, 10), F(1, 5), restriction=4)
            row: dict = {"mode": mode, "plant": i, "m": m, "target": hypothesis_to_json(target)}
            try:
                run = noisy_parity_via_llp(setup, m, oracle, F(1, 10), seed=derive_seed(MASTER, "c09", i))
            except LlpError as exc:
                row["error"] = type(exc).__name__
            else:
                row["hypothesis"] = hypothesis_to_json(run.hypothesis)
                row["filtered"] = run.filtered_size
                row["transcript"] = _transcript(run.transcript)
            out.append(row)
    return _dumps(out)


# ---------------------------------------------------------------------------
# trial reports


def _gap_configs() -> list[TrialConfig]:
    subsets = ClassDescriptor("finite_subset", 1, ground_set=(1, 2))
    wide = make_distribution([(3, F(1, 7)), (5, F(2, 7)), (8, F(4, 7))])
    return [
        TrialConfig(
            learner="gap", epsilon=F(1, 10), delta=F(1, 10), trials=40,
            seed=derive_seed(MASTER, "golden", "gap"), distribution=TWO_ATOM,
            desc=subsets, m_mode="gap",
        ),
        TrialConfig(
            learner="gap", epsilon=F(1, 20), delta=F(1, 10), trials=25, m=30,
            seed=derive_seed(MASTER, "golden", "gap-explicit"), distribution=wide,
            desc=ClassDescriptor("finite_subset", 1, ground_set=(3, 5, 8)),
        ),
        # 2^21 subsets exceed the enumeration budget: every trial is an error row
        TrialConfig(
            learner="gap", epsilon=F(1, 10), delta=F(1, 10), trials=3, m=10,
            seed=derive_seed(MASTER, "golden", "gap-budget"), distribution=TWO_ATOM,
            desc=ClassDescriptor("finite_subset", 1, ground_set=tuple(range(1, 22))),
            target=FiniteSubset((2,)),
        ),
    ]


def _trials_gap() -> str:
    return "".join(
        _dumps(report_to_json(report)) + report_to_csv(report)
        for report in map(run_trials, _gap_configs())
    )


# ---------------------------------------------------------------------------
# command line


def _cli_inputs() -> dict[str, dict]:
    disj = ClassDescriptor("monotone_disjunction", 3)
    conj = ClassDescriptor("monotone_conjunction", 4)
    subsets = ClassDescriptor("finite_subset", 1)
    return {
        "consistency_disj": gen_consistency(disj, 6, derive_seed(MASTER, "golden", "disj")).to_json(),
        "consistency_conj": gen_consistency(conj, 7, derive_seed(MASTER, "golden", "conj"), max_mult=4).to_json(),
        "consistency_no": {
            "class": {"class_id": "monotone_disjunction", "n": 2},
            "points": [{"bits": "00"}, {"bits": "11"}],
            "mult": [2, 3],
            "k": 2,
        },
        "consistency_nat": gen_consistency(subsets, 5, derive_seed(MASTER, "golden", "nat")).to_json(),
        "x3c": gen_x3c(6, 4, derive_seed(MASTER, "golden", "x3c")).to_json(),
        "epsc": gen_epsc(6, 4, derive_seed(MASTER, "golden", "epsc")).to_json(),
        "subset_sum": {"counts": [3, 5, 9, 14, 20], "t": 26},
        "noisy_parity": {
            "n": 6,
            "target": {"kind": "parity", "mask": "101000"},
            "eta": "1/10",
            "eta_prime": "1/5",
            "restriction": 3,
        },
        "pac": {
            "class": {"class_id": "monotone_disjunction", "n": 3},
            "labeled": [
                [{"bits": "000"}, 0],
                [{"bits": "100"}, 1],
                [{"bits": "010"}, 0],
                [{"bits": "110"}, 1],
                [{"bits": "001"}, 1],
            ],
        },
    }


def _trial_inputs() -> dict[str, dict]:
    """Small seeded trial configs, one per learner the gap fixture leaves out."""
    nat = gen_distribution(ClassDescriptor("finite_subset", 1), 6, derive_seed(MASTER, "golden", "nat-dist"))
    window = gen_distribution(
        ClassDescriptor("window", 3, k=2), 6, derive_seed(MASTER, "golden", "window-dist"), nat_range=8
    )
    conj = ClassDescriptor("monotone_conjunction", 4)
    configs = {
        "trials_improper": TrialConfig(
            learner="improper", epsilon=F(1, 10), delta=F(1, 10), trials=8, m=20,
            seed=derive_seed(MASTER, "golden", "improper"), distribution=TWO_ATOM,
            target=FiniteSubset((2,)),
        ),
        "trials_erm_parity": TrialConfig(
            learner="erm", epsilon=F(1, 10), delta=F(1, 10), trials=5, m=30,
            seed=derive_seed(MASTER, "golden", "erm-parity"), distribution=UniformCube(5),
            desc=ClassDescriptor("parity", 5),
        ),
        "trials_erm_conj": TrialConfig(
            learner="erm", epsilon=F(1, 10), delta=F(1, 10), trials=5, m=30,
            seed=derive_seed(MASTER, "golden", "erm-conj"),
            distribution=gen_distribution(conj, 7, derive_seed(MASTER, "golden", "conj-dist")),
            desc=conj,
        ),
        "trials_subset_sum": TrialConfig(
            learner="subset_sum", epsilon=F(1, 10), delta=F(1, 10), trials=5, m=50,
            seed=derive_seed(MASTER, "golden", "subset-sum"), distribution=nat,
            target=FiniteSubset(tuple(p for p, _ in nat.atoms[::2])),
        ),
        # bit-vector points: every row is a learner precondition error
        "trials_subset_sum_bits": TrialConfig(
            learner="subset_sum", epsilon=F(1, 10), delta=F(1, 10), trials=2, m=10,
            seed=derive_seed(MASTER, "golden", "subset-sum-bits"), distribution=UniformCube(2),
            target=Parity((1, 0)),
        ),
        "trials_window": TrialConfig(
            learner="window", epsilon=F(1, 10), delta=F(1, 10), trials=5, m=40,
            seed=derive_seed(MASTER, "golden", "window"), distribution=window,
            desc=ClassDescriptor("window", 3, k=2),
        ),
        "trials_halfspace_sweep": TrialConfig(
            learner="halfspace_sweep", epsilon=F(1, 10), delta=F(1, 10), trials=6, m=40,
            seed=derive_seed(MASTER, "golden", "halfspace"), distribution=UniformCube(6),
            target=MonotoneDisjunction(6, (2, 5)),
        ),
        "trials_noisy_distinguisher": TrialConfig(
            learner="noisy_distinguisher", epsilon=F(1, 10), delta=F(1, 10), trials=8, m=60,
            seed=derive_seed(MASTER, "golden", "noisy"), distribution=UniformCube(4),
            desc=ClassDescriptor("parity", 4), eta=F(1, 10), eta_prime=F(1, 5),
        ),
    }
    return {name: config_to_json(config) for name, config in configs.items()}


GEN_CASES = {
    "gen_x3c": ["gen", "--x3c", "--universe", "9", "--triples", "6", "--seed", "11"],
    "gen_epsc": ["gen", "--epsc", "--universe", "7", "--subsets", "4", "--seed", "12"],
    "gen_consistency_disj": [
        "gen", "--consistency", "--class-id", "monotone_disjunction", "--n", "4", "--points", "6", "--seed", "13",
    ],
    "gen_consistency_window": [
        "gen", "--consistency", "--class-id", "window", "--n", "3", "--k", "2", "--points", "5", "--seed", "14",
    ],
    "gen_task_parity": ["gen", "--task", "--class-id", "parity", "--n", "5", "--cube", "--m", "40", "--seed", "15"],
    "gen_task_conj": [
        "gen", "--task", "--class-id", "monotone_conjunction", "--n", "4", "--support", "6", "--m", "30",
        "--seed", "16",
    ],
    "gen_task_subset": [
        "gen", "--task", "--class-id", "finite_subset", "--ground", "2,3,5,7,11,13", "--support", "30",
        "--m", "40", "--seed", "17",
    ],
    "gen_task_window": [
        "gen", "--task", "--class-id", "window", "--n", "3", "--k", "2", "--support", "30", "--m", "40",
        "--seed", "21",
    ],
}

LEARN_CASES = {
    "learn_improper": ["learn", "--learner", "improper", "--task", "gen_task_subset"],
    "learn_erm_parity": ["learn", "--learner", "erm", "--task", "gen_task_parity"],
    "learn_erm_conj": ["learn", "--learner", "erm", "--task", "gen_task_conj"],
    "learn_gap": ["learn", "--learner", "gap", "--task", "gen_task_subset"],
    "learn_subset_sum": ["learn", "--learner", "subset_sum", "--task", "gen_task_subset"],
    "learn_window": ["learn", "--learner", "window", "--task", "gen_task_window"],
    "learn_halfspace_sweep": ["learn", "--learner", "halfspace_sweep", "--task", "gen_task_conj", "--seed", "3"],
}

TRIAL_CASES = {
    f"{name}_{fmt}": ["trials", "--config", name, "--format", fmt]
    for name in (
        "trials_improper", "trials_erm_parity", "trials_erm_conj", "trials_subset_sum",
        "trials_subset_sum_bits", "trials_window", "trials_halfspace_sweep", "trials_noisy_distinguisher",
    )
    for fmt in ("csv", "json")
}

CLI_CASES = {
    "reduce_consistency_disj": ["reduce", "--run", "consistency", "--in", "consistency_disj", "--seed", "3"],
    "reduce_consistency_disj_reject": [
        "reduce", "--run", "consistency", "--in", "consistency_disj", "--seed", "3", "--oracle", "reject",
    ],
    "reduce_consistency_conj": ["reduce", "--run", "consistency", "--in", "consistency_conj", "--seed", "5"],
    "reduce_consistency_no": ["reduce", "--run", "consistency", "--in", "consistency_no", "--seed", "1"],
    "reduce_consistency_no_reject": [
        "reduce", "--run", "consistency", "--in", "consistency_no", "--seed", "1", "--oracle", "reject",
    ],
    "reduce_consistency_nat": ["reduce", "--run", "consistency", "--in", "consistency_nat", "--seed", "7"],
    "reduce_noisy_parity": ["reduce", "--run", "noisy-parity", "--in", "noisy_parity", "--seed", "2"],
    "reduce_noisy_parity_reject": [
        "reduce", "--run", "noisy-parity", "--in", "noisy_parity", "--seed", "2", "--oracle", "reject",
    ],
    "reduce_pac": ["reduce", "--run", "pac", "--in", "pac", "--seed", "4"],
    "oracle_consistency": ["oracle", "--solver", "consistency", "--in", "consistency_disj"],
    "oracle_consistency_no": ["oracle", "--solver", "consistency", "--in", "consistency_no"],
    "oracle_x3c": ["oracle", "--solver", "x3c", "--in", "x3c"],
    "oracle_epsc": ["oracle", "--solver", "epsc", "--in", "epsc"],
    "oracle_subset_sum": ["oracle", "--solver", "subset-sum", "--in", "subset_sum"],
    **GEN_CASES,
    **LEARN_CASES,
    **TRIAL_CASES,
}
INPUT_FLAGS = ("--in", "--task", "--config")


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _input(key: str) -> dict:
    """A case's input file: a fixed object, a trial config, or a `gen` case's output."""
    if key in GEN_CASES:
        return json.loads(_run_cli(GEN_CASES[key])[1])
    return {**_cli_inputs(), **_trial_inputs()}[key]


def _cli(name: str) -> str:
    """Exit code, stdout and any stderr of one CLI case, its input in a scratch file."""
    argv = list(CLI_CASES[name])
    with tempfile.TemporaryDirectory() as tmp:
        for flag in INPUT_FLAGS:
            if flag in argv and argv[0] != "gen":  # gen's --task names a kind
                at = argv.index(flag) + 1
                path = Path(tmp) / "in.json"
                path.write_text(json.dumps(_input(argv[at])), encoding="utf-8")
                argv[at] = str(path)
        code, out, err = _run_cli(argv)
    return f"exit {code}\n{out}" + (f"stderr {err}" if err else "")


CASES = {
    "consistency_c11_arbitrary.json": lambda: _consistency_c11("arbitrary"),
    "consistency_c11_reject.json": lambda: _consistency_c11("reject"),
    "noisy_parity_c09.json": _noisy_parity_c09,
    "trials_gap.txt": _trials_gap,
    **{f"cli/{name}.txt": (lambda name=name: _cli(name)) for name in CLI_CASES},
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    assert CASES[name]() == (GOLDEN / name).read_text(encoding="utf-8")


def test_golden_gap_trials_pooled(monkeypatch):
    monkeypatch.setenv("LLP_LAB_THREADS", "2")
    assert _trials_gap() == (GOLDEN / "trials_gap.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    for name, render in CASES.items():
        path = GOLDEN / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render(), encoding="utf-8")
        print(f"wrote {path}", file=sys.stderr)
