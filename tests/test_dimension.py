"""Split scale, dimension reports, and their degenerate and limit behavior."""
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
    information_dimension,
    information_dimension_profile,
    max_deng,
    probability_dimension,
    split_scale,
    split_scale_profile,
    uniform_powerset,
    vacuous,
)

FOUR_DP = 5e-5


def singleton_mass(frame: Frame, label: str) -> MassFunction:
    return MassFunction.from_assignments(frame, {frame.singleton(label): 1.0})


class TestSplitScale:
    def test_skewed_pair(self, skewed_pair_mass):
        assert split_scale(skewed_pair_mass) == pytest.approx(1.1381, abs=FOUR_DP)

    def test_uniform_powerset_two_expanded(self):
        assert split_scale(uniform_powerset(2).to_mass()) == pytest.approx(1.7834, abs=FOUR_DP)

    def test_single_singleton_is_zero(self):
        assert split_scale(singleton_mass(Frame(("a",)), "a")) == 0.0

    def test_profile_values(self):
        assert split_scale_profile(max_deng(2)) == pytest.approx(1.9757, abs=FOUR_DP)
        assert split_scale_profile(vacuous(4)) == pytest.approx(3.9069, abs=FOUR_DP)
        assert split_scale_profile(uniform_powerset(25)) == pytest.approx(25.0000, abs=FOUR_DP)

    def test_profile_matches_explicit(self):
        for n in range(1, 13):
            profile = uniform_powerset(n)
            assert split_scale_profile(profile) == pytest.approx(
                split_scale(profile.to_mass()), abs=1e-10
            )

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_and_zero_only_when_degenerate(self, seed):
        rng = random.Random(seed)
        mass = random_mass(rng, rng.randint(1, 6))
        value = split_scale(mass)
        degenerate = len(mass.focal) == 1 and mass.focal[0][0].cardinality == 1
        if degenerate:
            assert value == 0.0
        else:
            assert value > 0.0


class TestInformationDimension:
    def test_skewed_pair_report(self, skewed_pair_mass):
        report = information_dimension(skewed_pair_mass)
        assert not report.degenerate
        assert report.entropy_bits == pytest.approx(0.9142, abs=FOUR_DP)
        assert report.split_scale_bits == pytest.approx(1.1381, abs=FOUR_DP)
        assert report.dimension == pytest.approx(0.8032, abs=FOUR_DP)

    def test_degenerate_single_singleton(self):
        report = information_dimension(singleton_mass(Frame(("a", "b")), "a"))
        assert report == information_dimension_profile(vacuous(1))
        assert (report.entropy_bits, report.split_scale_bits, report.dimension) == (0, 0, 0)
        assert report.degenerate

    def test_vacuous_seven_has_unit_dimension(self):
        frame = Frame.generic(7)
        mass = MassFunction.from_assignments(frame, {frame.full_set(): 1.0})
        report = information_dimension(mass)
        assert report.entropy_bits == pytest.approx(6.9887, abs=FOUR_DP)
        assert report.dimension == pytest.approx(1.0, abs=1e-12)

    def test_vacuous_unit_dimension_range(self):
        for n in range(2, 21):
            assert information_dimension_profile(vacuous(n)).dimension == pytest.approx(
                1.0, abs=1e-12
            )

    def test_single_non_singleton_focal_has_unit_dimension(self):
        for k in range(2, 7):
            frame = Frame.generic(k)
            mass = MassFunction.from_assignments(frame, {frame.full_set(): 1.0})
            assert information_dimension(mass).dimension == pytest.approx(1.0, abs=1e-12)

    def test_profile_reference_values(self):
        assert information_dimension_profile(max_deng(20)).dimension == pytest.approx(
            1.5849, abs=FOUR_DP
        )
        assert information_dimension_profile(uniform_powerset(10)).dimension == pytest.approx(
            1.4911, abs=FOUR_DP
        )

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_report_identity(self, seed):
        rng = random.Random(seed)
        report = information_dimension(random_mass(rng, rng.randint(1, 6)))
        if report.degenerate:
            assert (report.entropy_bits, report.split_scale_bits, report.dimension) == (0, 0, 0)
        else:
            assert report.split_scale_bits > 0.0
            assert report.dimension == pytest.approx(
                report.entropy_bits / report.split_scale_bits, abs=1e-12
            )

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_base_invariance(self, seed):
        rng = random.Random(seed)
        mass = random_mass(rng, rng.randint(2, 6))
        report = information_dimension(mass)
        if report.degenerate:
            return
        for base in (2.0, BASE_E, BASE_10):
            ratio = deng_entropy(mass, base) / split_scale(mass, base)
            assert ratio == pytest.approx(report.dimension, abs=1e-12)


class TestProbabilityDimension:
    def test_uniform_five(self):
        dist = ProbabilityDistribution((0.2,) * 5)
        report = probability_dimension(dist)
        assert report.entropy_bits == pytest.approx(2.3219, abs=FOUR_DP)
        assert report.dimension == pytest.approx(1.0, abs=1e-12)

    def test_single_outcome_degenerate(self):
        report = probability_dimension(ProbabilityDistribution((1.0,)))
        assert report.degenerate and report.dimension == 0.0

    def test_skewed_two_outcomes(self):
        # -0.9 log2 0.9 - 0.1 log2 0.1 evaluated directly
        expected = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
        assert expected == pytest.approx(0.4689955935892812, abs=1e-15)
        report = probability_dimension(ProbabilityDistribution((0.9, 0.1)))
        assert report.dimension == pytest.approx(expected, abs=1e-12)
        assert report.dimension == pytest.approx(0.4690, abs=FOUR_DP)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bayesian_masses_agree_with_their_distribution(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        frame = Frame.generic(n)
        weights = [rng.uniform(0.05, 1.0) for _ in range(n)]
        total = math.fsum(weights)
        mass = MassFunction.from_assignments(
            frame,
            [(frame.singleton(lab), w / total) for lab, w in zip(frame.labels, weights)],
        )
        via_mass = information_dimension(mass)
        via_dist = probability_dimension(mass.to_probability())
        assert via_mass.degenerate == via_dist.degenerate
        assert via_mass.dimension == pytest.approx(via_dist.dimension, abs=1e-12)


class TestLargeFrames:
    def test_log_domain_path_agrees_with_known_limits(self):
        # per-set masses underflow doubles out here; the log-domain copy
        # carried by each profile row keeps the evaluation finite
        assert information_dimension_profile(max_deng(1024)).dimension == pytest.approx(
            math.log2(3), abs=1e-11
        )
        assert information_dimension_profile(uniform_powerset(1024)).dimension == pytest.approx(
            1.5, abs=1e-11
        )
        assert information_dimension_profile(vacuous(300)).dimension == pytest.approx(
            1.0, abs=1e-12
        )

    def test_profile_paths_agree_across_the_representation_switch(self):
        # frame sizes just below and above the explicit frame cap; the
        # closed-form maximum and the report identity must hold on both sides
        for n in (63, 64, 65, 66):
            report = information_dimension_profile(max_deng(n))
            assert report.entropy_bits == pytest.approx(
                math.log2(3**n - 2**n), abs=1e-9
            )
            assert report.dimension == pytest.approx(
                report.entropy_bits / report.split_scale_bits, abs=1e-12
            )


class TestLimitBehavior:
    def test_concentrating_mass_drives_dimension_to_zero(self):
        # m(one singleton) = a, the other 2^N - 2 nonempty subsets share
        # (1 - a)/(2^N - 2); as a -> 1 the dimension must fall to 0
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

    def test_vacuous_equals_uniform_over_the_split_count(self):
        # total ignorance on N elements and the uniform distribution on
        # 2^N - 1 outcomes carry the same dimension
        for n in range(2, 17):
            count = (1 << n) - 1
            via_profile = information_dimension_profile(vacuous(n)).dimension
            via_uniform = probability_dimension(
                ProbabilityDistribution((1.0 / count,) * count)
            ).dimension
            assert via_profile == pytest.approx(via_uniform, abs=1e-12)
