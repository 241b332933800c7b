"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them live).

Reference rows are frozen at four decimals.  The uniform-powerset split
value at N=7 is 7.0148, pinned two ways: the row's own dimension is
10.3048 / 7.0148 = 1.4690, and direct enumeration over all 127 focal
sets gives the same number.
"""
from __future__ import annotations

import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

from conftest import permute_mass, random_mass
from evidim import (
    Frame,
    MassFunction,
    ProbabilityDistribution,
    brute_force_report,
    compare_reports,
    deng_entropy,
    family_profile,
    information_dimension,
    information_dimension_profile,
    max_deng_entropy,
    probability_dimension,
    render_table,
    run_convergence,
    split_scale,
    vacuous,
)

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
ROW_TOLERANCE = 5e-4

VACUOUS_ROWS = {
    1: (0.0, 0.0, 0.0),
    2: (1.5850, 1.5850, 1.0),
    3: (2.8074, 2.8074, 1.0),
    4: (3.9069, 3.9069, 1.0),
    5: (4.9542, 4.9542, 1.0),
    6: (5.9773, 5.9773, 1.0),
    7: (6.9887, 6.9887, 1.0),
    8: (7.9944, 7.9944, 1.0),
    19: (18.9999, 18.9999, 1.0),
    20: (20.0000, 20.0000, 1.0),
}

UNIFORM_BAYESIAN_ROWS = {
    1: (0.0, 0.0, 0.0),
    2: (1.0, 1.0, 1.0),
    3: (1.5850, 1.5850, 1.0),
    4: (2.0, 2.0, 1.0),
    5: (2.3219, 2.3219, 1.0),
    6: (2.5850, 2.5850, 1.0),
    7: (2.8074, 2.8074, 1.0),
    8: (3.0, 3.0, 1.0),
    9: (3.1699, 3.1699, 1.0),
    10: (3.3219, 3.3219, 1.0),
}

UNIFORM_POWERSET_ROWS = {
    1: (0.0, 0.0, 0.0),
    2: (2.1133, 1.7834, 1.1850),
    3: (3.8877, 2.9691, 1.3094),
    4: (5.5500, 4.0186, 1.3811),
    5: (7.1610, 5.0260, 1.4248),
    6: (8.7428, 6.0214, 1.4520),
    7: (10.3048, 7.0148, 1.4690),
    8: (11.8523, 8.0095, 1.4798),
    9: (13.3886, 9.0058, 1.4867),
    10: (14.9162, 10.0034, 1.4911),
    21: (31.4965, 21.0000, 1.4998),
    22: (32.9974, 22.0000, 1.4999),
    23: (34.4981, 23.0000, 1.4999),
    24: (35.9985, 24.0000, 1.4999),
    25: (37.4989, 25.0000, 1.5000),
}

MAX_DENG_ROWS = {
    1: (0.0, 0.0, 0.0),
    2: (2.3219, 1.9757, 1.1752),
    3: (4.2479, 3.1071, 1.3672),
    4: (6.0224, 4.0970, 1.4699),
    5: (7.7211, 5.0679, 1.5235),
    6: (9.3772, 6.0434, 1.5516),
    7: (11.0077, 7.0265, 1.5666),
    8: (12.6223, 8.0157, 1.5747),
    9: (14.2266, 9.0091, 1.5791),
    10: (15.8244, 10.0052, 1.5816),
    11: (17.4178, 11.0029, 1.5830),
    12: (19.0084, 12.0016, 1.5838),
    13: (20.5971, 13.0009, 1.5843),
    14: (22.1845, 14.0005, 1.5846),
    15: (23.7711, 15.0003, 1.5847),
    16: (25.3572, 16.0001, 1.5848),
    17: (26.9429, 17.0001, 1.5849),
    18: (28.5283, 18.0000, 1.5849),
    19: (30.1136, 19.0000, 1.5849),
    20: (31.6988, 20.0000, 1.5849),
}


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number}: {description}")
        raise
    else:
        print(f"PASS  criterion {number}: {description}")


def check_rows(family: str, n_max: int, reference: dict):
    table = run_convergence(family, 1, n_max)
    for row in table.rows:
        if row.n not in reference:
            continue
        entropy, split, dimension = reference[row.n]
        assert abs(row.entropy_bits - entropy) <= ROW_TOLERANCE, (family, row.n, "entropy")
        assert abs(row.split_scale_bits - split) <= ROW_TOLERANCE, (family, row.n, "split")
        assert abs(row.dimension - dimension) <= ROW_TOLERANCE, (family, row.n, "dimension")
    return table


def skewed_pair() -> MassFunction:
    frame = Frame(("w1", "w2"))
    return MassFunction.from_assignments(
        frame, {frame.subset(["w1"]): 5 / 6, frame.full_set(): 1 / 6}
    )


def best_time(fn, repeats: int = 5) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_criterion_1_worked_example():
    with criterion(1, "two-element worked example reproduces (0.9142, 1.1381, 0.8033)"):
        mass = skewed_pair()
        report = information_dimension(mass)
        assert abs(report.entropy_bits - 0.9142) <= ROW_TOLERANCE
        assert abs(report.split_scale_bits - 1.1381) <= ROW_TOLERANCE
        assert abs(report.dimension - 0.8033) <= ROW_TOLERANCE
        assert not report.degenerate
        assert best_time(lambda: information_dimension(mass)) < 1e-3


def test_criterion_2_vacuous_table():
    with criterion(2, "vacuous sweep N=1..20 matches the reference rows, dimension exactly 1"):
        table = check_rows("vacuous", 20, VACUOUS_ROWS)
        assert table.rows[0].dimension == 0.0
        for row in table.rows[1:]:
            assert abs(row.dimension - 1.0) <= 1e-12


def test_criterion_3_uniform_bayesian_table():
    with criterion(3, "uniform-bayesian sweep N=1..10 matches the reference rows"):
        table = check_rows("uniform-bayesian", 10, UNIFORM_BAYESIAN_ROWS)
        for row in table.rows[1:]:
            assert abs(row.dimension - 1.0) <= 1e-12


def test_criterion_4_uniform_powerset_table():
    with criterion(4, "uniform-powerset sweep N=1..25 matches the reference rows in <100 ms"):
        elapsed = best_time(lambda: run_convergence("uniform-powerset", 1, 25), repeats=3)
        table = check_rows("uniform-powerset", 25, UNIFORM_POWERSET_ROWS)
        assert abs(table.rows[-1].dimension - 1.5) <= 1e-3
        assert elapsed < 0.1


def test_criterion_5_max_deng_table():
    with criterion(5, "max-deng sweep N=1..20 matches the reference rows and hits log2(3)"):
        table = check_rows("max-deng", 20, MAX_DENG_ROWS)
        assert abs(table.rows[-1].dimension - math.log2(3)) <= 5e-4


def test_criterion_6_oracle_equivalence():
    with criterion(6, "profile path matches brute-force enumeration (families and random masses)"):
        start = time.perf_counter()
        for family in ("vacuous", "uniform-bayesian", "uniform-powerset", "max-deng"):
            for n in range(1, 17):
                profile = family_profile(family, n)
                grouped = information_dimension_profile(profile)
                enumerated = brute_force_report(profile.to_mass())
                assert compare_reports(grouped, enumerated, 1e-9), (family, n)
        rng = random.Random(1318)
        for _ in range(500):
            mass = random_mass(rng, rng.randint(2, 6))
            assert compare_reports(
                information_dimension(mass), brute_force_report(mass), 1e-9
            )
        assert time.perf_counter() - start < 30.0


def test_criterion_7_property_suite():
    with criterion(7, "base invariance, degenerations, permutation symmetry, bounds, limits"):
        rng = random.Random(2718)

        # dimension does not depend on the logarithm base
        for _ in range(50):
            mass = random_mass(rng, rng.randint(2, 6))
            report = information_dimension(mass)
            if report.degenerate:
                continue
            for base in (2.0, math.e, 10.0):
                ratio = deng_entropy(mass, base) / split_scale(mass, base)
                assert abs(ratio - report.dimension) <= 1e-12

        # Bayesian mass functions behave exactly like their distribution
        for _ in range(50):
            n = rng.randint(1, 8)
            frame = Frame.generic(n)
            weights = [rng.uniform(0.05, 1.0) for _ in range(n)]
            total = math.fsum(weights)
            mass = MassFunction.from_assignments(
                frame,
                [(frame.singleton(l), w / total) for l, w in zip(frame.labels, weights)],
            )
            dist = mass.to_probability()
            assert abs(deng_entropy(mass) - (-math.fsum(
                p * math.log2(p) for p in dist.probabilities
            ))) <= 1e-12
            assert abs(
                information_dimension(mass).dimension
                - probability_dimension(dist).dimension
            ) <= 1e-12

        # relabeling the frame changes nothing
        for _ in range(50):
            n = rng.randint(2, 6)
            mass = random_mass(rng, n)
            order = list(range(n))
            rng.shuffle(order)
            shuffled = permute_mass(mass, order)
            assert abs(deng_entropy(shuffled) - deng_entropy(mass)) <= 1e-12
            assert abs(
                information_dimension(shuffled).dimension
                - information_dimension(mass).dimension
            ) <= 1e-12

        # no assignment beats the closed-form entropy maximum
        for n in range(1, 7):
            bound = max_deng_entropy(n)
            for _ in range(200):
                mass = random_mass(rng, n, full_powerset=True)
                assert deng_entropy(mass) <= bound + 1e-9

        # total ignorance on N elements == uniform over its 2^N - 1 splits
        for n in range(2, 17):
            count = (1 << n) - 1
            uniform = ProbabilityDistribution((1.0 / count,) * count)
            assert abs(
                information_dimension_profile(vacuous(n)).dimension
                - probability_dimension(uniform).dimension
            ) <= 1e-12

        # concentrating all mass on one singleton sends the dimension to 0
        frame = Frame.generic(3)
        target = frame.singleton("e1")
        others = [s for s in frame.all_subsets() if s.mask != target.mask]
        dims = []
        for t in range(1, 13):
            a = 1.0 - 10.0**-t
            b = (1.0 - a) / len(others)
            mass = MassFunction.from_assignments(
                frame, [(target, a)] + [(s, b) for s in others]
            )
            dims.append(information_dimension(mass).dimension)
        assert all(later < earlier for earlier, later in zip(dims, dims[1:]))
        assert dims[-1] < 1e-2


def test_criterion_8_golden_files():
    with criterion(8, "golden CSVs are byte-identical across runs"):
        sweeps = {
            "table1.csv": ("vacuous", 1, 20),
            "table2.csv": ("uniform-bayesian", 1, 10),
            "table3.csv": ("uniform-powerset", 1, 25),
            "table4.csv": ("max-deng", 1, 20),
        }
        for name, (family, lo, hi) in sweeps.items():
            expected = (GOLDEN_DIR / name).read_bytes()
            for run in (1, 2):
                rendered = render_table(run_convergence(family, lo, hi), "csv", 4)
                assert rendered.encode() == expected, (name, run)
