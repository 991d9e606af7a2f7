"""Command-line front end.

Subcommands: learn (one learner, one task file), trials (Monte Carlo success
estimation), bounds (sample-size formulas), reduce (oracle-backed reductions
and the exact-cover chain), oracle (brute-force solvers), gen (seeded random
instances).  Usage and input errors print one JSON object to stderr and exit
2; failed --check style gates exit 3.
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import (
    RATIONAL,
    REQUIRED,
    UniformCube,
    _pack,
    check_same_domain,
    derive_seed,
    from_fields,
    json_list,
    parse_rational,
    point_from_json,
    rational_to_json,
)
from .errors import LlpError, MalformedEncoding
from .generators import gen_consistency, gen_distribution, gen_epsc, gen_task, gen_x3c
from .hypotheses import (
    CLASS_IDS,
    DESCRIPTOR,
    HYPOTHESIS,
    ClassDescriptor,
    hypothesis_to_json,
    labeler,
)
from .learners import LearnerOutcome
from .bounds import (
    gap_sample_size,
    hoeffding_sample_size,
    uniform_convergence_bound,
    uniform_convergence_sample_size,
)
from .oracles import (
    brute_consistency,
    brute_epsc,
    brute_subset_sum,
    brute_x3c,
    make_brute_oracle,
)
from .reductions import (
    ConsistencyInstance,
    EPSCInstance,
    NoisyParitySetup,
    X3CInstance,
    consistency_via_llp,
    epsc_to_conjunction_consistency,
    epsc_to_disjunction_consistency,
    llp_to_pac,
    noisy_parity_sample_size,
    noisy_parity_via_llp,
    x3c_to_epsc,
)
from .sampling import task_from_json, task_to_json
from .trials import (
    M_MODES,
    SAMPLE_LEARNERS,
    config_from_json,
    config_to_json,
    emit_report,
    report_to_csv,
    report_to_json,
    resolve_m,
    run_learner,
    run_trials,
)

__all__ = ["main"]


def _labeled_example(value: object) -> tuple:
    """A pac input's [point, label] pair, the point decoded."""
    if not isinstance(value, list) or len(value) != 2:
        raise MalformedEncoding(f"labeled example must be a [point, label] list, got {value!r}")
    return point_from_json(value[0]), value[1]


# the reduce and oracle inputs that have no type of their own
_PAC_INPUT = (
    ("class", "desc", DESCRIPTOR, REQUIRED),
    ("labeled", "labeled", json_list((None, _labeled_example), "pac labeled"), REQUIRED),
)
_NOISY_PARITY = (
    ("n", "n", None, REQUIRED),
    ("target", "target", HYPOTHESIS, REQUIRED),
    ("eta", "eta", RATIONAL, REQUIRED),
    ("eta_prime", "eta_prime", RATIONAL, REQUIRED),
    ("restriction", "restriction", None, None),
)
_SUBSET_SUM = (("counts", "counts", json_list(None, "subset-sum counts"), REQUIRED), ("t", "t", None, REQUIRED))
# the trials flags that override the config field of the same name
_CONFIG_FLAGS = ("learner", "epsilon", "delta", "trials", "seed", "m", "m_mode")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _emit(obj: object, path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _outcome_json(outcome: LearnerOutcome) -> dict:
    return {
        "hypothesis": hypothesis_to_json(outcome.hypothesis),
        "achieved": rational_to_json(outcome.achieved),
        "residual": rational_to_json(outcome.residual),
        "work": dict(outcome.work),
        "improper": outcome.improper,
    }


# ---------------------------------------------------------------------------
# learn


def _cmd_learn(args: argparse.Namespace) -> int:
    obj = _load(args.task)
    task = task_from_json(obj["task"] if "task" in obj else obj)
    outcome = run_learner(args.learner, task.desc, task.distribution, task.sample, args.seed)
    _emit(_outcome_json(outcome), args.out)
    return 0


# ---------------------------------------------------------------------------
# trials


def _cmd_trials(args: argparse.Namespace) -> int:
    obj: dict = _load(args.config) if args.config else {}
    if not isinstance(obj, dict):
        raise MalformedEncoding(f"config must be a JSON object, got {obj!r}")
    for name in _CONFIG_FLAGS:
        if getattr(args, name) is not None:
            obj[name] = getattr(args, name)
    if args.record_ms:
        obj["record_ms"] = True
    config = config_from_json(obj)
    if args.print_config:
        resolved = config_to_json(config)
        resolved["m"] = resolve_m(config)
        resolved["m_mode"] = "explicit"
        _emit(resolved, args.out)
        return 0
    report = run_trials(config)
    fmt = args.format or ("csv" if args.out and args.out.endswith(".csv") else "json")
    if args.out:
        emit_report(report, fmt, args.out)
    elif fmt == "csv":
        sys.stdout.write(report_to_csv(report))
    else:
        _emit(report_to_json(report), None)
    if args.min_success_rate is not None:
        if report.success_rate < parse_rational(args.min_success_rate):
            print(
                json.dumps(
                    {
                        "error": "check_failed",
                        "detail": f"success rate {report.success_rate} below {args.min_success_rate}",
                    }
                ),
                file=sys.stderr,
            )
            return 3
    return 0


# ---------------------------------------------------------------------------
# bounds


def _cmd_bounds(args: argparse.Namespace) -> int:
    if args.hoeffding:
        value: object = hoeffding_sample_size(
            parse_rational(args.epsilon), parse_rational(args.delta)
        )
    elif args.gap:
        value = gap_sample_size(parse_rational(args.beta), parse_rational(args.delta))
    elif args.uc:
        value = uniform_convergence_sample_size(
            args.d,
            parse_rational(args.epsilon),
            parse_rational(args.delta),
            parse_rational(args.slack),
        )
    else:
        value = uniform_convergence_bound(args.d, args.m, parse_rational(args.delta))
    print(json.dumps(value))
    return 0


# ---------------------------------------------------------------------------
# reduce


def _chain_report(inst: X3CInstance, ell: int | None, check: bool) -> tuple[dict, bool]:
    epsc = x3c_to_epsc(inst, ell)
    disj = epsc_to_disjunction_consistency(epsc)
    conj = epsc_to_conjunction_consistency(epsc)
    out: dict = {
        "x3c": inst.to_json(),
        "epsc": epsc.to_json(),
        "disjunction": disj.to_json(),
        "conjunction": conj.to_json(),
    }
    agree = True
    if check:
        decisions = {
            "x3c": brute_x3c(inst).decision,
            "epsc": brute_epsc(epsc).decision,
            "disjunction": brute_consistency(disj).decision,
            "conjunction": brute_consistency(conj).decision,
        }
        agree = len(set(decisions.values())) == 1
        out["decisions"] = decisions
        out["agree"] = agree
    return out, agree


def _cmd_reduce(args: argparse.Namespace) -> int:
    if args.chain:
        inst = X3CInstance.from_json(_load(args.infile))
        out, agree = _chain_report(inst, args.ell, args.check)
        if args.chain == "x3c-epsc-disjunction":
            out["consistency"] = out["disjunction"]
        elif args.chain == "x3c-epsc-conjunction":
            out["consistency"] = out["conjunction"]
        _emit(out, args.out)
        if args.check and not agree:
            print(
                json.dumps({"error": "check_failed", "detail": "chain decisions disagree"}),
                file=sys.stderr,
            )
            return 3
        return 0

    delta = parse_rational(args.delta)
    obj = _load(args.infile)
    if args.run == "consistency":
        inst = ConsistencyInstance.from_json(obj)
        oracle = make_brute_oracle(inst.desc, args.oracle)
        run = consistency_via_llp(inst, oracle, delta, args.seed)
        _emit(
            {
                "decision": run.decision,
                "witness": None if run.witness is None else hypothesis_to_json(run.witness),
                "drawn": run.drawn,
                "calls": len(run.transcript),
            },
            args.out,
        )
        return 0
    if args.run == "pac":
        pac = from_fields(_PAC_INPUT, obj, "pac input")
        labeled = pac["labeled"]
        oracle = make_brute_oracle(pac["desc"], args.oracle)
        run = llp_to_pac(labeled, oracle, delta, args.seed)
        label = labeler(run.hypothesis, check_same_domain(p for p, _ in labeled))
        errors = sum(label(_pack(p)) != lab for p, lab in labeled)
        _emit(
            {
                "hypothesis": hypothesis_to_json(run.hypothesis),
                "epsilon": rational_to_json(run.epsilon),
                "drawn": run.drawn,
                "calls": len(run.transcript),
                "empirical_errors": errors,
            },
            args.out,
        )
        return 0
    if args.run == "noisy-parity":
        setup = NoisyParitySetup(**from_fields(_NOISY_PARITY, obj, "noisy-parity setup"))
        desc = ClassDescriptor("parity", setup.n, restriction=setup.restriction)
        oracle = make_brute_oracle(desc, args.oracle)
        m = args.m if args.m is not None else noisy_parity_sample_size(oracle, setup.eta_prime, delta)
        run = noisy_parity_via_llp(setup, m, oracle, delta, args.seed)
        _emit(
            {
                "hypothesis": hypothesis_to_json(run.hypothesis),
                "m": m,
                "filtered": run.filtered_size,
                "calls": len(run.transcript),
                "recovered": run.hypothesis == setup.target,
            },
            args.out,
        )
        return 0
    raise _UsageError("reduce needs either --chain or --run")


# ---------------------------------------------------------------------------
# oracle


def _cmd_oracle(args: argparse.Namespace) -> int:
    obj = _load(args.infile)
    if args.solver == "x3c":
        report = brute_x3c(X3CInstance.from_json(obj))
    elif args.solver == "epsc":
        report = brute_epsc(EPSCInstance.from_json(obj))
    elif args.solver == "consistency":
        report = brute_consistency(ConsistencyInstance.from_json(obj))
    else:
        report = brute_subset_sum(**from_fields(_SUBSET_SUM, obj, "subset-sum input"))
    _emit(report.to_json(), args.out)
    return 0


# ---------------------------------------------------------------------------
# gen


def _desc_from_args(args: argparse.Namespace) -> ClassDescriptor:
    if args.class_id is None:
        raise _UsageError("--class-id is required for this kind of instance")
    ground = None
    if args.ground:
        ground = tuple(int(v) for v in args.ground.split(","))
    return ClassDescriptor(
        args.class_id, args.n, restriction=args.restriction, k=args.k, ground_set=ground
    )


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.kind == "x3c":
        _emit(gen_x3c(args.universe, args.triples, args.seed).to_json(), args.out)
    elif args.kind == "epsc":
        _emit(gen_epsc(args.universe, args.subsets, args.seed).to_json(), args.out)
    elif args.kind == "consistency":
        desc = _desc_from_args(args)
        inst = gen_consistency(desc, args.points, args.seed, args.max_mult)
        _emit(inst.to_json(), args.out)
    else:
        desc = _desc_from_args(args)
        if args.cube:
            dist: object = UniformCube(desc.n)
        else:
            dist = gen_distribution(desc, args.support, derive_seed(args.seed, "gen-dist"))
        task, target = gen_task(desc, dist, args.m, args.epsilon, args.delta, args.seed)
        _emit(
            {"task": task_to_json(task), "target": hypothesis_to_json(target)},
            args.out,
        )
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="llp-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn", help="run one learner on one task file")
    p.add_argument("--task", required=True, help="task JSON file")
    p.add_argument("--learner", required=True, choices=list(SAMPLE_LEARNERS))
    p.add_argument("--seed", type=int, default=0, help="seed for randomized learners")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("trials", help="Monte Carlo success-rate estimation")
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--learner")
    p.add_argument("--epsilon", "--eps", dest="epsilon")
    p.add_argument("--delta")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--m-mode", dest="m_mode", choices=M_MODES)
    p.add_argument("--record-ms", action="store_true", help="record wall time per trial (breaks byte determinism)")
    p.add_argument("--print-config", action="store_true", help="echo the resolved config and exit")
    p.add_argument("--format", choices=["csv", "json"])
    p.add_argument("--out")
    p.add_argument("--min-success-rate", help="exit 3 if the success rate falls below this rational")
    p.set_defaults(func=_cmd_trials)

    p = sub.add_parser("bounds", help="sample-size formulas and the generalization bound")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--hoeffding", action="store_true")
    group.add_argument("--gap", action="store_true")
    group.add_argument("--uc", action="store_true", help="sample size from the generalization bound")
    group.add_argument("--uc-bound", action="store_true", help="evaluate the bound at d, m")
    p.add_argument("--eps", "--epsilon", dest="epsilon")
    p.add_argument("--delta")
    p.add_argument("--beta")
    p.add_argument("--d", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--slack", default="0")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("reduce", help="run a reduction, or the exact-cover chain")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--chain", choices=["x3c-epsc-disjunction", "x3c-epsc-conjunction"])
    group.add_argument("--run", choices=["pac", "consistency", "noisy-parity"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--ell", type=int, help="auxiliary elements per subset in the chain")
    p.add_argument("--check", action="store_true", help="brute-force all four decisions and compare")
    p.add_argument("--oracle", choices=["arbitrary", "reject"], default="arbitrary")
    p.add_argument("--delta", default="1/20")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=int, help="noisy-parity draw count override")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("oracle", help="brute-force reference solvers")
    p.add_argument("--solver", required=True, choices=["x3c", "epsc", "consistency", "subset-sum"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("gen", help="seeded random instances")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--x3c", dest="kind", action="store_const", const="x3c")
    kind.add_argument("--epsc", dest="kind", action="store_const", const="epsc")
    kind.add_argument("--consistency", dest="kind", action="store_const", const="consistency")
    kind.add_argument("--task", dest="kind", action="store_const", const="task")
    p.add_argument("--universe", type=int, help="universe size for x3c/epsc")
    p.add_argument("--triples", type=int, help="triple count for x3c")
    p.add_argument("--subsets", type=int, help="subset count for epsc")
    p.add_argument("--class-id", dest="class_id", choices=CLASS_IDS)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--restriction", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--ground", help="comma-separated ground set for finite subsets")
    p.add_argument("--points", type=int, default=4, help="consistency instance point count")
    p.add_argument("--max-mult", dest="max_mult", type=int, default=3)
    p.add_argument("--cube", action="store_true", help="uniform cube distribution for tasks")
    p.add_argument("--support", type=int, default=4, help="explicit support size for tasks")
    p.add_argument("--m", type=int, default=20, help="task sample size")
    p.add_argument("--eps", "--epsilon", dest="epsilon", default="1/10")
    p.add_argument("--delta", default="1/20")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(json.dumps({"error": "usage", "detail": str(exc)}), file=sys.stderr)
        return 2
    except (LlpError, OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
