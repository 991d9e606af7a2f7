"""End-to-end acceptance battery: 13 numbered criteria, one verdict line each.

Every criterion prints `criterion NN: PASS/FAIL (...)` before asserting, so
`pytest tests/test_acceptance.py -s` gives a one-line-per-criterion summary.
All randomness flows from MASTER through derive_seed, so the battery is
reproducible byte for byte.
"""

import itertools
import math
import os
import random
from collections import Counter
from fractions import Fraction as F

from llp_lab import (
    ClassDescriptor,
    FiniteSubset,
    NoisyParitySetup,
    Parity,
    Sample,
    TrialConfig,
    UniformCube,
    Window,
    audit_satisfied_fraction,
    brute_consistency,
    brute_epsc,
    brute_llp_oracle,
    brute_subset_sum,
    brute_x3c,
    conditional_positive_distribution,
    consistency_via_llp,
    derive_seed,
    draw_labeled_points,
    empirical_generalization_audit,
    epsc_to_conjunction_consistency,
    epsc_to_disjunction_consistency,
    erm_proportion_matcher,
    evaluate,
    gen_consistency,
    gen_x3c,
    halfspace_sweep_learner,
    hits_exactly,
    hoeffding_sample_size,
    llp_to_pac,
    make_brute_oracle,
    make_distribution,
    noisy_parity_sample_size,
    noisy_parity_via_llp,
    positive_count,
    random_hypothesis,
    ranking_key,
    report_to_csv,
    report_to_json,
    run_trials,
    subset_sum_learner,
    uniform_convergence_sample_size,
    weight_of,
    window_learner,
    x3c_to_epsc,
)
from test_point_form import _tuple_counts

MASTER = 1009

TWO_ATOM = make_distribution([(1, F(3, 10)), (2, F(7, 10))])


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def _three_sigma(p: float, trials: int) -> float:
    return p + 3 * math.sqrt(p * (1 - p) / trials)


def _cube_points(rng: random.Random, n: int, m: int, distinct: bool = False):
    codes = rng.sample(range(1 << n), m) if distinct else [rng.randrange(1 << n) for _ in range(m)]
    return tuple(tuple((c >> (n - 1 - i)) & 1 for i in range(n)) for c in codes)


def test_criterion_01_erm_matches_exhaustive_search():
    # four class kinds, 200 random tasks each: identical residual AND witness
    kinds = ("parity", "monotone_disjunction", "monotone_conjunction", "finite_subset")
    mismatches = 0
    for kind in kinds:
        for i in range(200):
            rng = random.Random(derive_seed(MASTER, "c01", kind, i))
            m = rng.randint(1, 12)
            if kind == "finite_subset":
                pts = tuple(rng.randint(1, 12) for _ in range(m))
                desc = ClassDescriptor(kind, 1, ground_set=tuple(sorted(set(pts))))
            else:
                n = rng.randint(1, 4)
                pts = _cube_points(rng, n, m)
                desc = ClassDescriptor(kind, n)
            sample = Sample(pts, F(rng.randint(0, m), m))
            out = erm_proportion_matcher(desc, sample)
            ref = brute_llp_oracle(desc, sample, sample.p_hat, F(1, 10), F(1, 10))
            ref_residual = abs(F(positive_count(ref, sample), m) - sample.p_hat)
            if out.hypothesis != ref or out.residual != ref_residual:
                mismatches += 1
    _verdict(1, mismatches == 0, f"{mismatches} mismatches in 800 tasks")


def test_criterion_02_subset_sum_dp_exact():
    bad = 0
    for i in range(500):
        rng = random.Random(derive_seed(MASTER, "c02", i))
        u = rng.randint(1, 20)
        m = rng.randint(u, 50)
        values = sorted(rng.sample(range(1, 61), u))
        mults = [1] * u
        for _ in range(m - u):
            mults[rng.randrange(u)] += 1
        pts = tuple(itertools.chain.from_iterable([v] * c for v, c in zip(values, mults)))
        t = rng.randint(0, m)
        sample = Sample(pts, F(t, m))
        out = subset_sum_learner(sample)
        ref = brute_subset_sum(mults, t)
        if out.residual != F(ref.optimum, m) or out.work["dp_cells"] > (m + 1) * u:
            bad += 1
    _verdict(2, bad == 0, f"{bad} disagreements in 500 samples")


def _window_brute(sample: Sample, k: int):
    """Span-aware reference: anchors plus subsets of points within reach."""
    uniq = sorted(p for p, _ in _tuple_counts(sample))
    best = None
    for combo in itertools.chain(
        [()],
        (
            (a,) + rest
            for j, a in enumerate(uniq)
            for near in [[q for q in uniq[j + 1 :] if q - a <= k]]
            for r in range(len(near) + 1)
            for rest in itertools.combinations(near, r)
        ),
    ):
        h = Window(k, combo)
        count = positive_count(h, sample)
        key = ranking_key(abs(F(count, sample.m) - sample.p_hat), count, h)
        if best is None or key < best[0]:
            best = (key, h)
    return best[1], best[0][0]


def test_criterion_03_window_learner_exact():
    bad = 0
    over_budget = 0
    for i in range(200):
        rng = random.Random(derive_seed(MASTER, "c03", i))
        k = rng.randint(0, 8)
        m = rng.randint(1, 30)
        pts = tuple(rng.randint(1, 40) for _ in range(m))
        sample = Sample(pts, F(rng.randint(0, m), m))
        out = window_learner(sample, k)
        ref_h, ref_residual = _window_brute(sample, k)
        if out.hypothesis != ref_h or out.residual != ref_residual:
            bad += 1
        if out.work["candidates"] > m * 2**k + 1:
            over_budget += 1
    _verdict(3, bad == 0 and over_budget == 0, f"{bad} mismatches, {over_budget} over candidate budget")


def test_criterion_04_halfspace_sweep_hits_exact_count():
    # 200 distinct 10-bit points per seed, target count exactly half
    good = 0
    for i in range(1000):
        rng = random.Random(derive_seed(MASTER, "c04", "pts", i))
        pts = _cube_points(rng, 10, 200, distinct=True)
        sample = Sample(pts, F(1, 2))
        try:
            out = halfspace_sweep_learner(sample, derive_seed(MASTER, "c04", "sweep", i))
        except Exception:
            continue
        recount = sum(evaluate(out.hypothesis, p) for p in pts)
        if out.residual == 0 and out.work["draws"] <= 4 and recount == 100:
            good += 1
    _verdict(4, good >= 990, f"{good}/1000 seeds returned a verified exact split")


def test_criterion_05_improper_learner_failure_rate():
    cfg = TrialConfig(
        learner="improper", epsilon=F(1, 10), delta=F(1, 10), trials=2000,
        seed=derive_seed(MASTER, "c05"), distribution=TWO_ATOM,
        target=FiniteSubset((2,)), m_mode="hoeffding",
    )
    report = run_trials(cfg)
    assert report.config.m == 150
    failure = 1 - float(report.success_rate)
    limit = _three_sigma(0.1, 2000)
    _verdict(5, failure <= limit, f"failure rate {failure:.4f} vs limit {limit:.4f} at m=150")


def test_criterion_06_gap_learner_failure_rate():
    cfg = TrialConfig(
        learner="gap", epsilon=F(1, 10), delta=F(1, 10), trials=1000,
        seed=derive_seed(MASTER, "c06"), distribution=TWO_ATOM,
        desc=ClassDescriptor("finite_subset", 1, ground_set=(1, 2)), m_mode="gap",
    )
    report = run_trials(cfg)
    assert report.config.m == 67
    failure = 1 - float(report.success_rate)
    limit = _three_sigma(0.1, 1000)
    _verdict(6, failure <= limit, f"failure rate {failure:.4f} vs limit {limit:.4f} at m=67")


def test_criterion_07_generalization_bound_audit():
    m = uniform_convergence_sample_size(2, 0.3, 0.1, 0)
    assert m == 2187
    reports = empirical_generalization_audit(
        ClassDescriptor("parity", 6, restriction=2), UniformCube(6),
        Parity((1, 1, 0, 0, 0, 0)), m=m, delta=0.1, trials=500,
        seed=derive_seed(MASTER, "c07"),
    )
    violation = 1 - float(audit_satisfied_fraction(reports))
    limit = _three_sigma(0.1, 500)
    _verdict(7, violation <= limit, f"violation rate {violation:.4f} vs limit {limit:.4f} at m={m}")


def test_criterion_08_pac_from_proportions():
    desc = ClassDescriptor("parity", 6, restriction=3)
    oracle = make_brute_oracle(desc)
    zero_error = 0
    invariant_breaks = 0
    for i in range(100):
        rng = random.Random(derive_seed(MASTER, "c08", i))
        u = rng.randint(1, 12)
        pts = _cube_points(rng, 6, u, distinct=True)
        target = random_hypothesis(desc, rng)
        labeled = [(p, int(evaluate(target, p))) for p in pts]
        run = llp_to_pac(labeled, oracle, F(1, 20), seed=derive_seed(MASTER, "c08", "run", i))
        masses = [w for _, w in run.reweighted.atoms]
        if sum(masses) != 1 or min(masses) < F(1, u * u):
            invariant_breaks += 1
        if all(evaluate(run.hypothesis, p) == lab for p, lab in labeled):
            zero_error += 1
    _verdict(
        8, zero_error >= 95 and invariant_breaks == 0,
        f"{zero_error}/100 zero-error runs, {invariant_breaks} reweighting invariant breaks",
    )


def test_criterion_09_noisy_parity_recovery():
    desc = ClassDescriptor("parity", 8, restriction=4)
    oracle = make_brute_oracle(desc)
    m = noisy_parity_sample_size(oracle, F(1, 5), F(1, 10))
    recovered = 0
    for i in range(200):
        rng = random.Random(derive_seed(MASTER, "c09", "plant", i))
        target = random_hypothesis(desc, rng)
        setup = NoisyParitySetup(8, target, F(1, 10), F(1, 5), restriction=4)
        run = noisy_parity_via_llp(setup, m, oracle, F(1, 10), seed=derive_seed(MASTER, "c09", i))
        recovered += run.hypothesis == target

    # filtered draws must follow the positively-conditioned law per point
    target6 = Parity((1, 0, 1, 0, 0, 0))
    setup6 = NoisyParitySetup(6, target6, F(1, 10), F(1, 5))
    law = conditional_positive_distribution(setup6)
    pts, clean = draw_labeled_points(UniformCube(6), 100_000, derive_seed(MASTER, "c09", "law-pts"), target6)
    noise = random.Random(derive_seed(MASTER, "c09", "law-noise"))
    noisy = [lab ^ 1 if noise.random() < setup6.eta else lab for lab in clean]
    kept = Counter(p for p, lab in zip(pts, noisy) if lab)
    total = sum(kept.values())
    off_law = 0
    for code in range(64):
        x = tuple((code >> (5 - i)) & 1 for i in range(6))
        q = float(weight_of(law, x))
        if abs(kept.get(x, 0) / total - q) > 3 * math.sqrt(q * (1 - q) / total):
            off_law += 1
    _verdict(
        9, recovered >= 180 and off_law == 0,
        f"{recovered}/200 planted parities recovered at m={m}, {off_law}/64 points off the filtered law",
    )


def test_criterion_10_cover_chain_agreement():
    disagreements = 0
    for i in range(100):
        rng = random.Random(derive_seed(MASTER, "c10", i))
        inst = gen_x3c(rng.choice((3, 6, 9)), rng.randint(1, 8), derive_seed(MASTER, "c10", "gen", i))
        epsc = x3c_to_epsc(inst)
        decisions = {
            brute_x3c(inst).decision,
            brute_epsc(epsc).decision,
            brute_consistency(epsc_to_disjunction_consistency(epsc)).decision,
            brute_consistency(epsc_to_conjunction_consistency(epsc)).decision,
        }
        if len(decisions) != 1:
            disagreements += 1
    _verdict(10, disagreements == 0, f"{disagreements} chain disagreements in 100 instances")


def test_criterion_11_consistency_via_proportions():
    agree = 0
    unsound = 0
    for i in range(100):
        rng = random.Random(derive_seed(MASTER, "c11", i))
        kind = ("monotone_disjunction", "monotone_conjunction")[i % 2]
        n = rng.randint(1, 4)
        desc = ClassDescriptor(kind, n)
        inst = gen_consistency(desc, rng.randint(1, min(10, 2**n)), derive_seed(MASTER, "c11", "gen", i))
        run = consistency_via_llp(inst, make_brute_oracle(desc), F(1, 20), seed=derive_seed(MASTER, "c11", "run", i))
        if run.decision == brute_consistency(inst).decision:
            agree += 1
        if run.decision and not hits_exactly(inst, run.witness):
            unsound += 1
    _verdict(11, agree >= 99 and unsound == 0, f"{agree}/100 decisions agree, {unsound} unsound acceptances")


def test_criterion_12_noise_rate_distinguisher():
    m = hoeffding_sample_size(0.125, 0.05)
    assert m == 119
    worst = 1.0
    for eta in (F(0), F(1, 10), F(1, 5)):
        for target in (Parity((0,) * 8), Parity((1, 0, 0, 0, 0, 0, 0, 0))):
            cfg = TrialConfig(
                learner="noisy_distinguisher", epsilon=F(0), delta=F(1, 20), trials=500,
                seed=derive_seed(MASTER, "c12", str(eta), str(target.mask)),
                distribution=UniformCube(8), target=target,
                eta=eta, eta_prime=F(1, 4), m=m,
            )
            worst = min(worst, float(run_trials(cfg).success_rate))
    _verdict(12, worst >= 0.95, f"worst exact-proportion rate {worst:.4f} over 6 settings at m={m}")


def test_criterion_13_reports_byte_identical():
    configs = [
        TrialConfig(
            learner="improper", epsilon=F(1, 10), delta=F(1, 10), trials=300,
            seed=derive_seed(MASTER, "c13", "improper"), distribution=TWO_ATOM,
            target=FiniteSubset((2,)), m_mode="hoeffding",
        ),
        TrialConfig(
            learner="gap", epsilon=F(1, 10), delta=F(1, 10), trials=300,
            seed=derive_seed(MASTER, "c13", "gap"), distribution=TWO_ATOM,
            desc=ClassDescriptor("finite_subset", 1, ground_set=(1, 2)), m_mode="gap",
        ),
        TrialConfig(
            learner="noisy_distinguisher", epsilon=F(0), delta=F(1, 20), trials=200,
            seed=derive_seed(MASTER, "c13", "noisy"), distribution=UniformCube(8),
            target=Parity((1, 0, 0, 0, 0, 0, 0, 0)), eta=F(1, 10), eta_prime=F(1, 4), m=119,
        ),
    ]
    stable = True
    for cfg in configs:
        first = run_trials(cfg)
        second = run_trials(cfg)
        if report_to_csv(first) != report_to_csv(second):
            stable = False
        if report_to_json(first) != report_to_json(second):
            stable = False
    # a process pool must not change a single byte either
    old = os.environ.get("LLP_LAB_THREADS")
    os.environ["LLP_LAB_THREADS"] = "2"
    try:
        pooled = run_trials(configs[0])
    finally:
        if old is None:
            del os.environ["LLP_LAB_THREADS"]
        else:
            os.environ["LLP_LAB_THREADS"] = old
    if report_to_csv(pooled) != report_to_csv(run_trials(configs[0])):
        stable = False
    _verdict(13, stable, "serial reruns and a pooled rerun all byte-identical" if stable else "reports drifted")
