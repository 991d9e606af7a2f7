"""The three workloads: their inputs, one operation, and its checks.

Every workload is a fixed list of slots, one operation each; a pass runs
every slot once, and a run repeats whole passes.  Inputs come only from the
seed.  Slot shapes (instance sizes, planted masks, learner configurations)
are the same for every seed, so the work in a pass does not swing with the
seed; the seed picks the points, weights, targets and draws.

The library is reached only through `llp_lab`'s package attributes
(`llp.name(...)`), which is where the tracer puts its wrappers.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import llp_lab as llp

import truth

MASTER = 1009  # the acceptance battery's master seed; see ConsistencySweep


class Workload:
    """Slots, one timed operation per slot, and the checks of its outputs."""

    name = ""
    warmup_slot = 0

    def __init__(self) -> None:
        self.problems: list[str] = []

    @property
    def pass_size(self) -> int:
        raise NotImplementedError

    def op(self, slot: int):
        raise NotImplementedError

    def check(self, slot: int, result) -> bool:
        """Record wrong outputs in `problems`; return True if the op failed."""
        raise NotImplementedError

    def verdict(self) -> list[str]:
        """Run-level checks, after every operation; returns all problems."""
        return self.problems

    def problem(self, slot: int, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(f"{self.name} slot {slot}: {text}")


def at_least(share: Fraction, hits: int, total: int) -> bool:
    return Fraction(hits, total) >= share


# ---------------------------------------------------------------------------


class ConsistencySweep(Workload):
    """Decide exact-count consistency through the proportion oracle.

    Slot i holds acceptance criterion 11's instance i (`gen_consistency`,
    monotone disjunctions and conjunctions, n = 1..4, up to min(10, 2^n)
    points) with its variables relabelled by a permutation drawn from the
    seed, and the seed drives every draw of the reduction.  Relabelling
    maps the class onto itself, so the total weight (hence the oracle's
    sample size), k, the answer and the set of reachable counts stay fixed:
    a pass costs about the same for every seed.
    """

    name = "consistency-sweep"
    SLOTS = 100
    DELTA = Fraction(1, 20)

    def __init__(self, seed: int, slots: int = SLOTS) -> None:
        super().__init__()
        self.instances = []
        self.answers = []
        self.run_seeds = []
        for i in range(slots):
            rng = random.Random(llp.derive_seed(MASTER, "c11", i))
            kind = ("monotone_disjunction", "monotone_conjunction")[i % 2]
            n = rng.randint(1, 4)
            desc = llp.ClassDescriptor(kind, n)
            base = llp.gen_consistency(desc, rng.randint(1, min(10, 2**n)), llp.derive_seed(MASTER, "c11", "gen", i))
            perm = random.Random(llp.derive_seed(seed, "consistency-relabel", i)).sample(range(n), n)
            pairs = sorted((tuple(p[j] for j in perm), a) for p, a in zip(base.points, base.mults))
            inst = llp.ConsistencyInstance(
                desc, tuple(p for p, _ in pairs), tuple(a for _, a in pairs), base.k
            )
            self.instances.append(inst)
            self.answers.append(truth.consistent(kind, n, inst.points, inst.mults, inst.k))
            self.run_seeds.append(llp.derive_seed(seed, "consistency-run", i))
        self.agree = 0
        self.decided = 0

    @property
    def pass_size(self) -> int:
        return len(self.instances)

    def op(self, slot: int):
        inst = self.instances[slot]
        oracle = llp.make_brute_oracle(inst.desc)
        return llp.consistency_via_llp(inst, oracle, self.DELTA, seed=self.run_seeds[slot])

    def check(self, slot: int, run) -> bool:
        inst = self.instances[slot]
        self.decided += 1
        self.agree += run.decision == self.answers[slot]
        if run.decision and not truth.witness_hits(run.witness, inst.points, inst.mults, inst.k):
            self.problem(slot, f"accepted witness {run.witness!r} does not hit k={inst.k}")
        return False

    def verdict(self) -> list[str]:
        if self.decided and not at_least(1 - self.DELTA, self.agree, self.decided):
            self.problems.append(
                f"{self.name}: {self.agree}/{self.decided} decisions agree with brute force"
            )
        return self.problems


# ---------------------------------------------------------------------------


class NoisyParity(Workload):
    """Recover planted parities from noisy labels through one shared oracle.

    Criterion 09's setting: 8-bit parities supported on the first 4
    coordinates, eta = 1/10, eta' = 1/5, delta = 1/10.  The slots plant each
    of the 16 masks equally often.
    """

    name = "noisy-parity"
    warmup_slot = 1  # slot 0 plants the trivial parity, which stops at once
    N, RESTRICT = 8, 4
    ETA, ETA_PRIME, DELTA = Fraction(1, 10), Fraction(1, 5), Fraction(1, 10)
    SLOTS = 7 * 16

    def __init__(self, seed: int, slots: int = SLOTS) -> None:
        super().__init__()
        desc = llp.ClassDescriptor("parity", self.N, restriction=self.RESTRICT)
        self.oracle = llp.make_brute_oracle(desc)
        self.m = llp.noisy_parity_sample_size(self.oracle, self.ETA_PRIME, self.DELTA)
        self.setups = []
        self.run_seeds = []
        for i in range(slots):
            code = i % 16
            mask = tuple((code >> (self.RESTRICT - 1 - b)) & 1 for b in range(self.RESTRICT))
            target = llp.Parity(mask + (0,) * (self.N - self.RESTRICT))
            self.setups.append(
                llp.NoisyParitySetup(self.N, target, self.ETA, self.ETA_PRIME, restriction=self.RESTRICT)
            )
            self.run_seeds.append(llp.derive_seed(seed, "noisy-run", i))
        self.recovered = 0
        self.planted = 0

    @property
    def pass_size(self) -> int:
        return len(self.setups)

    def op(self, slot: int):
        try:
            return llp.noisy_parity_via_llp(
                self.setups[slot], self.m, self.oracle, self.DELTA, seed=self.run_seeds[slot]
            )
        except llp.NoCandidateAccepted:
            # a legitimate outcome of the randomized reduction; counts as
            # not recovered against the 1 - delta requirement
            return None

    def check(self, slot: int, run) -> bool:
        self.planted += 1
        if run is None:
            return False
        h = run.hypothesis
        mask = getattr(h, "mask", None)
        if type(h).__name__ != "Parity" or mask is None or len(mask) != self.N:
            self.problem(slot, f"output {h!r} is not an {self.N}-bit parity")
        elif any(mask[self.RESTRICT :]):
            self.problem(slot, f"output mask {mask} leaves the first {self.RESTRICT} coordinates")
        elif mask == self.setups[slot].target.mask:
            self.recovered += 1
        return False

    def verdict(self) -> list[str]:
        if self.planted and not at_least(1 - self.DELTA, self.recovered, self.planted):
            self.problems.append(
                f"{self.name}: {self.recovered}/{self.planted} planted parities recovered"
            )
        return self.problems


# ---------------------------------------------------------------------------


class TrialsLearners(Workload):
    """`run_trials` plus both reports, over a fixed cycle of learner configs.

    No oracle and no reduction runs here.  Each configuration keeps its
    distribution and target for the whole run; every slot gets its own trial
    seed.  Checks use the benchmark's own proportions, never the library's.
    """

    name = "trials-learners"
    EPS = DELTA = Fraction(1, 10)
    CYCLES = 17
    # configurations whose m comes from the learner's own bound
    RATE_CHECKED = ("improper", "gap")

    def __init__(self, seed: int, cycles: int = CYCLES, scale: int = 1) -> None:
        super().__init__()
        rng = random.Random(llp.derive_seed(seed, "trials-inputs"))
        self.configs = self._configs(rng, seed, scale)
        names = list(self.configs)
        self.slots = [
            replace(self.configs[names[j % len(names)]][0], seed=llp.derive_seed(seed, "trials", j))
            for j in range(cycles * len(names))
        ]
        self.slot_names = [names[j % len(names)] for j in range(len(self.slots))]
        self.tally = {name: [0, 0] for name in names}

    def _configs(self, rng: random.Random, seed: int, scale: int) -> dict:
        """name -> (TrialConfig, p_c by the benchmark, check of a p_h value)."""
        eps, delta = self.EPS, self.DELTA
        out = {}

        def subset(points):
            return tuple(sorted(p for p in points if rng.randrange(2)))

        def config(learner, dist, target, trials, **kw):
            return llp.TrialConfig(
                learner=learner, epsilon=eps, delta=delta, trials=max(1, trials // scale),
                seed=0, distribution=dist, target=target, **kw,
            )

        # improper baseline, m from Hoeffding
        dist = llp.gen_distribution(llp.ClassDescriptor("finite_subset", 1), 4, llp.derive_seed(seed, "improper"))
        target = llp.FiniteSubset(subset(p for p, _ in dist.atoms))
        out["improper"] = (
            config("improper", dist, target, 50, m_mode="hoeffding"),
            truth.proportion(target, dist.atoms),
            lambda p_h, m: 0 <= p_h <= 1 and (p_h * m).denominator == 1,
        )

        # gap learner, m from the class's proportion gap (weights 2^i / 31)
        ground = tuple(sorted(rng.sample(range(1, 31), 5)))
        powers = [1, 2, 4, 8, 16]
        rng.shuffle(powers)
        dist = llp.make_distribution((p, Fraction(w, 31)) for p, w in zip(ground, powers))
        target = llp.FiniteSubset(subset(ground))
        values = truth.subset_sums(w for _, w in dist.atoms)
        out["gap"] = (
            config("gap", dist, target, 12, m_mode="gap",
                   desc=llp.ClassDescriptor("finite_subset", 1, ground_set=ground)),
            truth.proportion(target, dist.atoms),
            lambda p_h, m, values=values: p_h in values,
        )

        # ERM over all 8-bit parities on the uniform cube
        target = llp.Parity(tuple(rng.randrange(2) for _ in range(8)))
        out["erm_parity"] = (
            config("erm", llp.UniformCube(8), target, 3, m=200,
                   desc=llp.ClassDescriptor("parity", 8)),
            truth.proportion(target, cube_n=8),
            lambda p_h, m: p_h in (Fraction(0), Fraction(1, 2)),
        )

        # ERM over monotone disjunctions under an explicit distribution
        desc = llp.ClassDescriptor("monotone_disjunction", 6)
        dist = llp.gen_distribution(desc, 20, llp.derive_seed(seed, "erm-disjunction"))
        target = llp.MonotoneDisjunction(6, tuple(v for v in range(1, 7) if rng.randrange(2)))
        values = truth.disjunction_values(6, dist.atoms)
        out["erm_disjunction"] = (
            config("erm", dist, target, 5, m=200, desc=desc),
            truth.proportion(target, dist.atoms),
            lambda p_h, m, values=values: p_h in values,
        )

        # subset-sum DP over 150 naturals, m large enough for count draws
        dist = llp.gen_distribution(
            llp.ClassDescriptor("finite_subset", 1), 150, llp.derive_seed(seed, "subset-sum"), nat_range=1000
        )
        target = llp.FiniteSubset(subset(p for p, _ in dist.atoms))
        reach, den = truth.subset_sum_reach([w for _, w in dist.atoms])
        out["subset_sum"] = (
            config("subset_sum", dist, target, 1, m=5000),
            truth.proportion(target, dist.atoms),
            lambda p_h, m, reach=reach, den=den: (p_h * den).denominator == 1
            and (reach >> int(p_h * den)) & 1 == 1,
        )

        # span-4 windows over the naturals 1..32
        desc = llp.ClassDescriptor("window", 5, k=4)
        dist = llp.gen_distribution(desc, 25, llp.derive_seed(seed, "window"), nat_range=32)
        v = rng.randint(1, 32)
        target = llp.Window(4, (v,) + subset(range(v + 1, min(v + 4, 32) + 1)))
        values = truth.window_values(4, 32, dist.atoms)
        out["window"] = (
            config("window", dist, target, 9, m=300, desc=desc),
            truth.proportion(target, dist.atoms),
            lambda p_h, m, values=values: p_h in values,
        )
        return out

    @property
    def pass_size(self) -> int:
        return len(self.slots)

    def op(self, slot: int):
        report = llp.run_trials(self.slots[slot])
        return report, llp.report_to_json(report), llp.report_to_csv(report)

    def check(self, slot: int, result) -> bool:
        report, as_json, as_csv = result
        cfg = self.slots[slot]
        name = self.slot_names[slot]
        _, p_c, realizable = self.configs[name]
        if any(r.error is not None for r in report.rows):
            return True
        if len(report.rows) != cfg.trials:
            self.problem(slot, f"{len(report.rows)} rows for {cfg.trials} trials")
        m = report.config.m
        for r in report.rows:
            if r.p_c != p_c:
                self.problem(slot, f"trial {r.trial}: p_c {r.p_c} but the target's proportion is {p_c}")
            elif not realizable(r.p_h, m):
                self.problem(slot, f"trial {r.trial}: {name} cannot realize p_h {r.p_h}")
            elif r.residual != abs(r.p_c - r.p_h) or r.success != (r.residual <= cfg.epsilon):
                self.problem(slot, f"trial {r.trial}: residual {r.residual} or success {r.success} is wrong")
        tally = self.tally[name]
        tally[0] += sum(r.success for r in report.rows)
        tally[1] += len(report.rows)
        if llp.report_from_json(json.loads(json.dumps(as_json))) != report:
            self.problem(slot, "JSON report does not round-trip")
        lines = as_csv.splitlines()
        header = lines[0].split(",") if lines else []
        if len(lines) != len(report.rows) + 1 or "success" not in header:
            self.problem(slot, f"CSV has {len(lines)} lines for {len(report.rows)} rows")
        else:
            col = header.index("success")
            if [line.split(",")[col] for line in lines[1:]] != [str(int(r.success)) for r in report.rows]:
                self.problem(slot, "CSV success column differs from the rows")
        return False

    def verdict(self) -> list[str]:
        for name in self.RATE_CHECKED:
            wins, total = self.tally[name]
            if not total:
                continue
            d = float(self.DELTA)
            floor = 1 - d - 3 * math.sqrt(d * (1 - d) / total)
            if wins / total < floor:
                self.problems.append(f"{self.name}: {name} succeeded {wins}/{total}, below {floor:.4f}")
        return self.problems


WORKLOADS = {w.name: w for w in (ConsistencySweep, NoisyParity, TrialsLearners)}


def build(name: str, seed: int, toy: bool = False) -> Workload:
    """The named workload's inputs for `seed`; `toy` makes a tiny pass for tests."""
    cls = WORKLOADS[name]
    if not toy:
        return cls(seed)
    if cls is TrialsLearners:
        return cls(seed, cycles=1, scale=10)
    return cls(seed, slots=4)
