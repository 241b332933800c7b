"""Shannon and Deng entropy as report fields, and the closed-form maxima."""
from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_mass
from evidim import (
    EvidenceError,
    Frame,
    MassFunction,
    ProbabilityDistribution,
    information_dimension,
    information_dimension_profile,
    max_deng,
    max_deng_entropy,
    probability_dimension,
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
        assert probability_dimension(uniform(4)).entropy_bits == pytest.approx(2.0, abs=1e-12)

    def test_deterministic_is_zero(self):
        assert probability_dimension(ProbabilityDistribution((1.0,))).entropy_bits == 0.0

    def test_uniform_ten_outcomes(self):
        entropy = probability_dimension(uniform(10)).entropy_bits
        assert entropy == pytest.approx(3.3219, abs=FOUR_DP)

    def test_max_values(self):
        assert shannon_max(8) == pytest.approx(3.0, abs=1e-12)
        assert shannon_max(1) == 0.0
        assert shannon_max(3) == pytest.approx(1.5850, abs=FOUR_DP)

    def test_max_rejects_zero(self):
        # 2.5 and True returned a value, and "3" escaped as a TypeError
        for n in (0, 2.5, True, "3"):
            with pytest.raises(EvidenceError):
                shannon_max(n)


class TestDeng:
    def test_skewed_pair(self, skewed_pair_mass):
        entropy = information_dimension(skewed_pair_mass).entropy_bits
        assert entropy == pytest.approx(0.9142, abs=FOUR_DP)

    def test_vacuous_three(self):
        frame = Frame.generic(3)
        mass = MassFunction.from_assignments(frame, {frame.full_set(): 1.0})
        assert information_dimension(mass).entropy_bits == pytest.approx(2.8074, abs=FOUR_DP)

    def test_deterministic_singleton_is_zero(self):
        frame = Frame(("a",))
        mass = MassFunction.from_assignments(frame, {frame.subset(["a"]): 1.0})
        assert information_dimension(mass).entropy_bits == 0.0

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
        shannon = probability_dimension(mass.to_probability()).entropy_bits
        assert information_dimension(mass).entropy_bits == pytest.approx(shannon, abs=1e-12)


class TestDengProfile:
    def test_uniform_powerset_two(self):
        entropy = information_dimension_profile(uniform_powerset(2)).entropy_bits
        assert entropy == pytest.approx(2.1133, abs=FOUR_DP)

    def test_max_deng_five(self):
        entropy = information_dimension_profile(max_deng(5)).entropy_bits
        assert entropy == pytest.approx(7.7211, abs=FOUR_DP)

    def test_vacuous_one_is_zero(self):
        assert information_dimension_profile(vacuous(1)).entropy_bits == 0.0

    def test_matches_explicit_evaluation(self):
        for family in (vacuous, uniform_bayesian, uniform_powerset, max_deng):
            for n in range(1, 17):
                profile = family(n)
                grouped = information_dimension_profile(profile).entropy_bits
                explicit = information_dimension(profile.to_mass()).entropy_bits
                assert grouped == pytest.approx(explicit, abs=1e-10), (family.__name__, n)


class TestMaxDengEntropy:
    def test_reference_values(self):
        assert max_deng_entropy(2) == pytest.approx(2.3219, abs=FOUR_DP)
        assert max_deng_entropy(1) == 0.0
        assert max_deng_entropy(10) == pytest.approx(15.8244, abs=FOUR_DP)

    def test_rejects_zero(self):
        # 2.5 and True returned a value, and "3" escaped as a TypeError
        for n in (0, 2.5, True, "3"):
            with pytest.raises(EvidenceError):
                max_deng_entropy(n)

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
                assert information_dimension(mass).entropy_bits <= bound + 1e-9

    def test_maximum_is_attained_by_the_proportional_assignment(self):
        for n in range(1, 9):
            attained = information_dimension_profile(max_deng(n)).entropy_bits
            assert attained == pytest.approx(max_deng_entropy(n), abs=1e-9)

    def test_other_assignments_fall_strictly_below(self):
        frame = Frame.generic(3)
        uniform_mass = uniform_powerset(3).to_mass(frame)
        entropy = information_dimension(uniform_mass).entropy_bits
        assert entropy < max_deng_entropy(3) - 1e-3
