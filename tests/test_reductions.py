"""Oracle-driven reductions and the hardness instance translations."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llp_lab import (
    ClassDescriptor,
    ConsistencyInstance,
    DegenerateSample,
    DomainMismatch,
    EPSCInstance,
    InvalidAuxiliaryCount,
    InvalidNoiseBound,
    LLPOracle,
    MonotoneConjunction,
    MonotoneDisjunction,
    NoisyParitySetup,
    OracleReject,
    Parity,
    X3CInstance,
    brute_consistency,
    brute_epsc,
    brute_x3c,
    conditional_positive_distribution,
    consistency_via_llp,
    derive_seed,
    enumerate_class,
    epsc_to_conjunction_consistency,
    epsc_to_disjunction_consistency,
    evaluate,
    gen_consistency,
    gen_x3c,
    hits_exactly,
    llp_to_pac,
    make_brute_oracle,
    noisy_parity_via_llp,
    reweighted_distribution,
    support,
    true_proportion,
    weight_of,
    x3c_to_epsc,
)
from llp_lab.core import _sample_trusted, draw_counts, make_distribution, points_from_counts
from llp_lab.reductions import ConsistencyRun, OracleCall


def test_reweighted_distribution_worked_example():
    labeled = [((0, 0), 1), ((0, 1), 0), ((1, 0), 0)]
    dist, label_of, m, k = reweighted_distribution(labeled)
    assert (m, k) == (3, 1)
    assert weight_of(dist, (0, 0)) == F(3, 5)
    assert weight_of(dist, (0, 1)) == F(1, 5)
    assert weight_of(dist, (1, 0)) == F(1, 5)
    assert label_of[(0, 0)] == 1 and label_of[(1, 0)] == 0


def test_reweighted_distribution_all_positive_collapses_to_uniform():
    labeled = [((0, 0), 1), ((0, 1), 1), ((1, 1), 1)]
    dist, _, m, k = reweighted_distribution(labeled)
    assert k == m == 3
    assert all(weight_of(dist, x) == F(1, 3) for x in support(dist))


def test_reweighted_distribution_rejects_conflicting_labels():
    with pytest.raises(ValueError):
        reweighted_distribution([((0, 0), 1), ((0, 0), 0)])


def test_reweighted_distribution_rejects_empty():
    with pytest.raises(DegenerateSample):
        reweighted_distribution([])


def test_reweighted_mass_formula_grid():
    # closed-form masses: sum to 1 and the smallest is >= 1/m^2
    for m in range(1, 201):
        for k in range(1, m + 1):
            den = k * m + m - k
            total = k * F(m, den) + (m - k) * F(1, den)
            assert total == 1
            assert min(F(m, den), F(1, den)) >= F(1, m * m)


def test_reweighted_distribution_matches_formula_samples():
    rng = random.Random(31)
    for _ in range(60):
        m = rng.randint(1, 200)
        k = rng.randint(1, m)
        labeled = [(i, 1 if i <= k else 0) for i in range(1, m + 1)]
        dist, _, got_m, got_k = reweighted_distribution(labeled)
        assert (got_m, got_k) == (m, k)
        den = k * m + m - k
        assert weight_of(dist, 1) == F(m, den)
        if k < m:
            assert weight_of(dist, m) == F(1, den)
        assert min(weight_of(dist, x) for x in support(dist)) >= F(1, m * m)


def test_llp_to_pac_zero_error_on_realizable_samples():
    desc = ClassDescriptor("parity", 4, restriction=2)
    oracle = make_brute_oracle(desc)
    rng = random.Random(37)
    for seed in range(10):
        target = rng.choice(list(enumerate_class(desc)))
        pts = {tuple(rng.randint(0, 1) for _ in range(4)) for _ in range(6)}
        labeled = [(x, evaluate(target, x)) for x in sorted(pts)]
        run = llp_to_pac(labeled, oracle, F(1, 20), seed=seed)
        assert all(evaluate(run.hypothesis, x) == lab for x, lab in labeled)
        assert run.epsilon == F(1, 2 * len(labeled) ** 2)
        assert len(run.transcript) == 1
        assert run.drawn >= 1


def test_llp_to_pac_propagates_reject():
    refuser = LLPOracle(
        solve=lambda sample, claimed, eps, delta: None,
        sample_size=lambda eps, delta: 5,
    )
    labeled = [((0, 1), 1), ((1, 0), 0)]
    with pytest.raises(OracleReject):
        llp_to_pac(labeled, refuser, F(1, 20), seed=0)


DISJ_INST = ConsistencyInstance(
    ClassDescriptor("monotone_disjunction", 2),
    points=((0, 1), (1, 0)),
    mults=(1, 2),
    k=3,
)


def test_consistency_via_llp_accepts_full_cover():
    oracle = make_brute_oracle(DISJ_INST.desc)
    run = consistency_via_llp(DISJ_INST, oracle, F(1, 20), seed=1)
    assert run.decision is True
    assert run.witness == MonotoneDisjunction(2, (1, 2))
    assert hits_exactly(DISJ_INST, run.witness)


def test_consistency_via_llp_finds_singleton_witness():
    inst = ConsistencyInstance(DISJ_INST.desc, DISJ_INST.points, DISJ_INST.mults, k=1)
    oracle = make_brute_oracle(inst.desc)
    run = consistency_via_llp(inst, oracle, F(1, 20), seed=1)
    assert run.decision is True
    assert run.witness == MonotoneDisjunction(2, (2,))


def test_consistency_via_llp_k0_trivial_accept():
    inst = ConsistencyInstance(DISJ_INST.desc, DISJ_INST.points, DISJ_INST.mults, k=0)
    oracle = make_brute_oracle(inst.desc)
    run = consistency_via_llp(inst, oracle, F(1, 20), seed=1)
    assert run.decision is True
    assert run.witness == MonotoneDisjunction(2, ())
    assert len(run.transcript) == 1  # first claim 0 already verifies


def test_consistency_via_llp_claims_ascend():
    inst = ConsistencyInstance(
        ClassDescriptor("monotone_conjunction", 2), points=((1, 1),), mults=(2,), k=1
    )
    oracle = make_brute_oracle(inst.desc)
    run = consistency_via_llp(inst, oracle, F(1, 20), seed=4)
    assert run.decision is False and run.witness is None
    claims = [call.claimed for call in run.transcript]
    assert claims == sorted(claims)
    assert len(claims) == run.drawn + 1
    assert not any(call.accepted for call in run.transcript)


def test_consistency_via_llp_agrees_with_brute():
    rng = random.Random(41)
    oracles = {}
    for _ in range(20):
        class_id = rng.choice(["monotone_disjunction", "monotone_conjunction"])
        n = rng.randint(1, 3)
        desc = ClassDescriptor(class_id, n)
        u = rng.randint(1, 3)
        pts = sorted(
            {tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(u)}
        )
        mults = tuple(rng.randint(1, 3) for _ in pts)
        k = rng.randint(0, sum(mults))
        inst = ConsistencyInstance(desc, tuple(pts), mults, k)
        oracle = oracles.setdefault(desc, make_brute_oracle(desc))
        run = consistency_via_llp(inst, oracle, F(1, 20), seed=rng.randrange(10**6))
        assert run.decision == brute_consistency(inst).decision
        if run.decision:
            assert hits_exactly(inst, run.witness)


def test_noisy_parity_degenerate_noiseless_trivial():
    setup = NoisyParitySetup(3, Parity((0, 0, 0)), F(0), F(0))
    oracle = make_brute_oracle(ClassDescriptor("parity", 3))
    run = noisy_parity_via_llp(setup, 40, oracle, F(1, 10), seed=2)
    assert run.hypothesis == Parity((0, 0, 0))
    assert run.filtered_size == 0
    assert len(run.transcript) == 1
    assert run.transcript[0].claimed == 0


def test_noisy_parity_recovers_planted_target():
    desc = ClassDescriptor("parity", 4, restriction=2)
    setup = NoisyParitySetup(4, Parity((1, 1, 0, 0)), F(1, 10), F(1, 5), restriction=2)
    oracle = make_brute_oracle(desc)
    run = noisy_parity_via_llp(setup, 600, oracle, F(1, 10), seed=5)
    assert run.hypothesis == setup.target
    accepted = [call for call in run.transcript if call.accepted]
    assert accepted and accepted[-1].response == setup.target


def test_noisy_parity_setup_validation():
    with pytest.raises(InvalidNoiseBound):
        NoisyParitySetup(3, Parity((1, 0, 0)), F(1, 4), F(1, 8))  # eta > eta_prime
    with pytest.raises(InvalidNoiseBound):
        NoisyParitySetup(3, Parity((1, 0, 0)), F(1, 4), F(1, 2))  # bound not < 1/2
    with pytest.raises(DomainMismatch):
        NoisyParitySetup(3, Parity((0, 1, 0)), F(0), F(0), restriction=1)


def test_conditional_positive_distribution_masses():
    setup = NoisyParitySetup(4, Parity((1, 0, 0, 0)), F(1, 10), F(1, 5))
    dist = conditional_positive_distribution(setup)
    total = F(0)
    for x in support(dist):
        expected = (F(1, 10) if evaluate(setup.target, x) == 0 else F(9, 10)) / 2**3
        assert weight_of(dist, x) == expected
        total += weight_of(dist, x)
    assert total == 1


def test_conditional_positive_distribution_noiseless():
    setup = NoisyParitySetup(3, Parity((1, 1, 0)), F(0), F(1, 5))
    dist = conditional_positive_distribution(setup)
    assert all(evaluate(setup.target, x) == 1 for x in support(dist))
    assert true_proportion(setup.target, dist) == 1


def test_x3c_to_epsc_single_triple():
    inst = X3CInstance(universe=(1, 2, 3), triples=((1, 2, 3),))
    out = x3c_to_epsc(inst, ell=4)
    assert len(out.universe) == 7
    assert len(out.subsets) == 1 and len(out.subsets[0]) == 7
    assert out.k == 7
    assert brute_x3c(inst).decision is True
    assert brute_epsc(out).decision is True


def test_x3c_to_epsc_duplicate_triples_stay_distinct():
    inst = X3CInstance(universe=(1, 2, 3), triples=((1, 2, 3), (1, 2, 3)))
    out = x3c_to_epsc(inst, ell=4)
    assert out.k == 7
    assert len(set(out.subsets)) == 2  # distinct auxiliary blocks
    assert brute_epsc(out).decision is True


def test_x3c_to_epsc_no_instance():
    inst = X3CInstance(universe=(1, 2, 3, 4, 5, 6), triples=((1, 2, 3),))
    out = x3c_to_epsc(inst, ell=7)
    assert out.k == 20
    assert brute_x3c(inst).decision is False
    assert brute_epsc(out).decision is False


def test_x3c_to_epsc_default_and_invalid_ell():
    inst = X3CInstance(universe=(1, 2, 3), triples=((1, 2, 3),))
    assert x3c_to_epsc(inst).k == 3 + 4 * 1  # default ell = |U| + 1
    with pytest.raises(InvalidAuxiliaryCount):
        x3c_to_epsc(inst, ell=3)


def test_epsc_to_disjunction_worked_example():
    inst = EPSCInstance(universe=(1, 2, 3), subsets=((1, 2), (3,)), k=3)
    out = epsc_to_disjunction_consistency(inst)
    assert out.desc.class_id == "monotone_disjunction" and out.desc.n == 2
    assert out.k == 3 and out.total == 3
    assert dict(zip(out.points, out.mults)) == {(0, 1): 1, (1, 0): 2}
    report = brute_consistency(out)
    assert report.decision is True
    assert report.witness == MonotoneDisjunction(2, (1, 2))


def test_epsc_to_disjunction_k1_witness():
    inst = EPSCInstance(universe=(1, 2, 3), subsets=((1, 2), (3,)), k=1)
    report = brute_consistency(epsc_to_disjunction_consistency(inst))
    assert report.decision is True
    assert report.witness == MonotoneDisjunction(2, (2,))


def test_epsc_to_conjunction_worked_example():
    inst = EPSCInstance(universe=(1, 2, 3), subsets=((1, 2), (3,)), k=3)
    out = epsc_to_conjunction_consistency(inst)
    assert out.k == 0  # complement count |U| - k
    report = brute_consistency(out)
    assert report.decision is True
    h = MonotoneConjunction(2, (1, 2))
    assert hits_exactly(out, h)


def test_epsc_to_conjunction_k2_witness():
    inst = EPSCInstance(universe=(1, 2, 3), subsets=((1, 2), (3,)), k=2)
    out = epsc_to_conjunction_consistency(inst)
    assert out.k == 1
    assert hits_exactly(out, MonotoneConjunction(2, (1,)))
    assert brute_consistency(out).decision is True


def test_reduction_chain_four_way_agreement_smoke():
    for seed in range(12):
        inst = gen_x3c(6, 5, seed=seed)
        epsc = x3c_to_epsc(inst)
        want = brute_x3c(inst).decision
        assert brute_epsc(epsc).decision == want
        assert brute_consistency(epsc_to_disjunction_consistency(epsc)).decision == want
        assert brute_consistency(epsc_to_conjunction_consistency(epsc)).decision == want


def test_instance_json_round_trips():
    x3c = gen_x3c(6, 4, seed=3)
    assert X3CInstance.from_json(x3c.to_json()) == x3c
    epsc = x3c_to_epsc(x3c)
    assert EPSCInstance.from_json(epsc.to_json()) == epsc
    cons = epsc_to_disjunction_consistency(epsc)
    assert ConsistencyInstance.from_json(cons.to_json()) == cons


def _consistency_reference(inst, oracle, delta, seed):
    """The sweep with no verdict memo: every response goes to hits_exactly."""
    X = inst.total
    dist = make_distribution((p, F(a, X)) for p, a in zip(inst.points, inst.mults))
    eps = F(1, 2 * X)
    m = oracle.sample_size(eps, F(delta))
    counts = draw_counts(dist, m, derive_seed(seed, "consistency-draw"))
    points = points_from_counts(counts)
    transcript = []
    for j in range(m + 1):
        claim = F(j, m)
        response = oracle.solve(_sample_trusted(points, claim, counts), claim, eps, F(delta))
        if response is None:
            transcript.append(OracleCall(claim, None))
            continue
        ok = hits_exactly(inst, response)
        transcript.append(OracleCall(claim, response, accepted=ok))
        if ok:
            return ConsistencyRun(True, response, m, tuple(transcript))
    return ConsistencyRun(False, None, m, tuple(transcript))


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(("monotone_disjunction", "monotone_conjunction", "parity")),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(("arbitrary", "reject")),
    st.integers(min_value=0, max_value=2**32),
)
def test_consistency_via_llp_agrees_with_unmemoised_sweep(class_id, n, points, mode, seed):
    desc = ClassDescriptor(class_id, n)
    inst = gen_consistency(desc, min(points, 2**n), seed, max_mult=2)
    got = consistency_via_llp(inst, make_brute_oracle(desc, mode), F(1, 20), seed)
    assert got == _consistency_reference(inst, make_brute_oracle(desc, mode), F(1, 20), seed)


def test_consistency_via_llp_checks_each_response_once(monkeypatch):
    from llp_lab import reductions

    checked = []

    def counting(inst, h):
        checked.append(h)
        return hits_exactly(inst, h)

    monkeypatch.setattr(reductions, "hits_exactly", counting)
    inst = ConsistencyInstance(
        ClassDescriptor("monotone_conjunction", 2), points=((0, 1), (1, 1)), mults=(1, 2), k=1
    )
    run = consistency_via_llp(inst, make_brute_oracle(inst.desc), F(1, 20), seed=4)
    assert run.decision is False
    assert len(run.transcript) == run.drawn + 1
    assert len(checked) == len(set(checked)) == len({c.response for c in run.transcript}) > 1
