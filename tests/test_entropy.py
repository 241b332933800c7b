"""Shannon entropy, Deng entropy, and the maximum-Deng-entropy value."""
from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_mass
from evidim import (
    BASE_10,
    BASE_E,
    Frame,
    MassFunction,
    ProbabilityDistribution,
    deng_entropy,
    deng_entropy_profile,
    max_deng,
    max_deng_entropy,
    shannon_entropy,
    shannon_max,
    uniform_bayesian,
    uniform_powerset,
    vacuous,
)

FOUR_DP = 5e-5  # frozen reference values carry four decimals


def uniform(n: int) -> ProbabilityDistribution:
    return ProbabilityDistribution((1.0 / n,) * n)


class TestShannon:
    def test_uniform_four_outcomes(self):
        assert shannon_entropy(uniform(4)) == pytest.approx(2.0, abs=1e-12)

    def test_deterministic_is_zero(self):
        assert shannon_entropy(ProbabilityDistribution((1.0,))) == 0.0
        assert shannon_entropy(ProbabilityDistribution((1.0,)), base=BASE_E) == 0.0

    def test_uniform_ten_outcomes(self):
        assert shannon_entropy(uniform(10)) == pytest.approx(3.3219, abs=FOUR_DP)

    def test_max_values(self):
        assert shannon_max(8) == pytest.approx(3.0, abs=1e-12)
        assert shannon_max(1) == 0.0
        assert shannon_max(3) == pytest.approx(1.5850, abs=FOUR_DP)

    def test_max_rejects_zero(self):
        with pytest.raises(ValueError):
            shannon_max(0)

    def test_base_must_exceed_one(self):
        for base in (1.0, math.inf):
            with pytest.raises(ValueError):
                shannon_entropy(uniform(2), base=base)


class TestDeng:
    def test_skewed_pair(self, skewed_pair_mass):
        assert deng_entropy(skewed_pair_mass) == pytest.approx(0.9142, abs=FOUR_DP)

    def test_vacuous_three(self):
        frame = Frame.generic(3)
        mass = MassFunction.from_assignments(frame, {frame.full_set(): 1.0})
        assert deng_entropy(mass) == pytest.approx(2.8074, abs=FOUR_DP)

    def test_deterministic_singleton_is_zero(self):
        frame = Frame(("a",))
        mass = MassFunction.from_assignments(frame, {frame.subset(["a"]): 1.0})
        assert deng_entropy(mass) == 0.0

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bayesian_masses_degenerate_to_shannon(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 8)
        frame = Frame.generic(n)
        weights = [rng.uniform(0.05, 1.0) for _ in range(n)]
        total = math.fsum(weights)
        mass = MassFunction.from_assignments(
            frame,
            [(frame.singleton(lab), w / total) for lab, w in zip(frame.labels, weights)],
        )
        dist = mass.to_probability()
        for base in (2.0, BASE_E, BASE_10):
            assert deng_entropy(mass, base) == pytest.approx(
                shannon_entropy(dist, base), abs=1e-12
            )

    def test_base_conversion(self):
        rng = random.Random(7)
        for _ in range(25):
            mass = random_mass(rng, rng.randint(2, 6))
            bits = deng_entropy(mass, 2.0)
            nats = deng_entropy(mass, BASE_E)
            dits = deng_entropy(mass, BASE_10)
            assert bits == pytest.approx(nats * math.log(BASE_E, 2.0), abs=1e-12)
            assert bits == pytest.approx(dits * math.log(10.0, 2.0), abs=1e-12)


class TestDengProfile:
    def test_uniform_powerset_two(self):
        assert deng_entropy_profile(uniform_powerset(2)) == pytest.approx(2.1133, abs=FOUR_DP)

    def test_max_deng_five(self):
        assert deng_entropy_profile(max_deng(5)) == pytest.approx(7.7211, abs=FOUR_DP)

    def test_vacuous_one_is_zero(self):
        assert deng_entropy_profile(vacuous(1)) == 0.0

    def test_matches_explicit_evaluation(self):
        for family in (vacuous, uniform_bayesian, uniform_powerset, max_deng):
            for n in range(1, 17):
                profile = family(n)
                grouped = deng_entropy_profile(profile)
                explicit = deng_entropy(profile.to_mass())
                assert grouped == pytest.approx(explicit, abs=1e-10), (family.__name__, n)


class TestMaxDengEntropy:
    def test_reference_values(self):
        assert max_deng_entropy(2) == pytest.approx(2.3219, abs=FOUR_DP)
        assert max_deng_entropy(1) == 0.0
        assert max_deng_entropy(10) == pytest.approx(15.8244, abs=FOUR_DP)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            max_deng_entropy(0)

    def test_closed_form_identity(self):
        # sum_k C(n,k) (2^k - 1) telescopes to 3^n - 2^n, in exact integers
        for n in range(1, 31):
            lhs = sum(math.comb(n, k) * (2**k - 1) for k in range(1, n + 1))
            assert lhs == 3**n - 2**n

    def test_large_frame_log_domain(self):
        got = max_deng_entropy(1024)
        assert got == pytest.approx(1024 * math.log2(3), rel=1e-12)

    def test_random_masses_never_exceed_the_maximum(self):
        rng = random.Random(42)
        for n in range(1, 7):
            bound = max_deng_entropy(n)
            for _ in range(200):
                mass = random_mass(rng, n, full_powerset=True)
                assert deng_entropy(mass) <= bound + 1e-9

    def test_maximum_is_attained_by_the_proportional_assignment(self):
        for n in range(1, 9):
            attained = deng_entropy_profile(max_deng(n))
            assert attained == pytest.approx(max_deng_entropy(n), abs=1e-9)

    def test_other_assignments_fall_strictly_below(self):
        frame = Frame.generic(3)
        uniform_mass = uniform_powerset(3).to_mass(frame)
        assert deng_entropy(uniform_mass) < max_deng_entropy(3) - 1e-3
