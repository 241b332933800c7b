"""The four parametric families and their exactness guarantees."""
from __future__ import annotations

import math
import sys
from fractions import Fraction

import pytest

from evidim import (
    FAMILIES,
    PROFILE_LIMIT,
    SYMMETRY_TOLERANCE,
    EvidenceError,
    Frame,
    FrameTooLargeError,
    UnknownFamilyError,
    family_profile,
    information_dimension_profile,
    max_deng,
    max_deng_entropy,
    uniform_bayesian,
    uniform_powerset,
    vacuous,
)

FOUR_DP = 5e-5

# (entropy_bits, split_scale_bits, dimension), recorded from the
# math.comb implementation of the family row counts; compared by repr, so
# a change in the last bit fails.
PINNED = {
    ("max-deng", 2): (2.321928094887362, 1.9756969620861178, 1.1752450600701752),
    ("max-deng", 30): (47.54886749782316, 30.000000017282858, 1.5849622490143493),
    ("max-deng", 64): (101.43760004614629, 64.0, 1.5849625007210357),
    ("max-deng", 65): (103.02256254686945, 65.0, 1.5849625007210686),
    ("max-deng", 200): (316.99250014422677, 200.0, 1.5849625007211339),
    ("max-deng", 512): (811.5008003692601, 512.0, 1.5849625007212111),
    ("max-deng", 1024): (1623.0016007385964, 1024.0, 1.5849625007212855),
    ("uniform-powerset", 2): (2.113283334294875, 1.783351699583871, 1.1850064879451376),
    ("uniform-powerset", 30): (44.999741815212644, 30.000000012625982, 1.499991393209126),
    ("uniform-powerset", 64): (95.99999998544216, 64.0, 1.4999999997725337),
    ("uniform-powerset", 65): (97.4999999890816, 65.0, 1.4999999998320246),
    ("uniform-powerset", 200): (299.9999999999998, 200.0, 1.499999999999999),
    ("uniform-powerset", 512): (768.0000000000013, 512.0, 1.5000000000000024),
    ("uniform-powerset", 1024): (1536.0000000000007, 1024.0, 1.5000000000000007),
}


def _layers(profile) -> list[tuple[int, int, float]]:
    """``(cardinality, set count, per-set mass)`` of each layer."""
    return list(zip(profile.cards, profile.counts, profile.masses))


class TestGenerators:
    def test_vacuous_rows(self):
        assert _layers(vacuous(2)) == [(2, 1, 1.0)]
        assert _layers(vacuous(1)) == [(1, 1, 1.0)]

    def test_vacuous_dimension_is_one(self):
        assert information_dimension_profile(vacuous(20)).dimension == pytest.approx(
            1.0, abs=1e-12
        )

    def test_uniform_bayesian_rows(self):
        assert _layers(uniform_bayesian(4)) == [(1, 4, 0.25)]

    def test_uniform_bayesian_reference_values(self):
        report = information_dimension_profile(uniform_bayesian(6))
        assert report.entropy_bits == pytest.approx(2.5850, abs=FOUR_DP)
        assert report.dimension == pytest.approx(1.0, abs=1e-12)
        assert information_dimension_profile(uniform_bayesian(1)).dimension == 0.0
        assert information_dimension_profile(uniform_bayesian(2)).entropy_bits == pytest.approx(
            1.0, abs=1e-12
        )

    def test_uniform_bayesian_is_bayesian(self):
        for n in (1, 3, 6):
            assert uniform_bayesian(n).to_mass().is_bayesian()

    def test_uniform_powerset_rows(self):
        assert _layers(uniform_powerset(3)) == [(1, 3, 1 / 7), (2, 3, 1 / 7), (3, 1, 1 / 7)]

    def test_uniform_powerset_reference_values(self):
        assert information_dimension_profile(uniform_powerset(4)).dimension == pytest.approx(
            1.3811, abs=FOUR_DP
        )
        assert information_dimension_profile(uniform_powerset(25)).dimension == pytest.approx(
            1.5000, abs=FOUR_DP
        )
        assert information_dimension_profile(uniform_powerset(1)).degenerate

    def test_max_deng_two_masses(self):
        assert _layers(max_deng(2)) == [(1, 2, 1 / 5), (2, 1, 3 / 5)]

    def test_max_deng_reference_values(self):
        assert information_dimension_profile(max_deng(3)).dimension == pytest.approx(
            1.3672, abs=FOUR_DP
        )
        assert information_dimension_profile(max_deng(15)).dimension == pytest.approx(
            1.5847, abs=FOUR_DP
        )


class TestExactness:
    def test_rational_mass_sums_are_exactly_one(self):
        for n in range(1, 26):
            for name in FAMILIES:
                profile = family_profile(name, n)
                total = Fraction(0)
                for k, count in zip(profile.cards, profile.counts):
                    num, den = _rational_mass(name, n, k)
                    assert count == _expected_count(name, n, k)
                    total += count * Fraction(num, den)
                assert total == 1

    def test_float_mass_sums_within_tolerance(self):
        for n in range(1, 26):
            for name in FAMILIES:
                total = family_profile(name, n).total_mass()
                assert abs(total - 1.0) <= 1e-12, (name, n)

    def test_max_deng_log2_masses_are_log2_ratios_of_the_exact_ints(self):
        for n in (*range(1, 71), *range(1020, 1025)):
            log2_den = math.log2(3**n - 2**n)
            expected = [math.log2((1 << k) - 1) - log2_den for k in range(1, n + 1)]
            assert list(max_deng(n).log2_masses) == expected, n

    def test_max_deng_attains_the_entropy_maximum(self):
        for n in range(1, 26):
            attained = information_dimension_profile(max_deng(n)).entropy_bits
            assert attained == pytest.approx(max_deng_entropy(n), abs=1e-10), n


class TestBounds:
    def test_profile_limit(self):
        assert max_deng(PROFILE_LIMIT).frame_size == PROFILE_LIMIT
        for generator in (uniform_powerset, max_deng):
            with pytest.raises(FrameTooLargeError):
                generator(PROFILE_LIMIT + 1)

    def test_positive_size_required(self):
        for generator in (vacuous, uniform_bayesian, uniform_powerset, max_deng):
            with pytest.raises(EvidenceError):
                generator(0)

    def test_integer_size_required(self):
        # True built a one-element vacuous profile; 2.5 escaped as a TypeError
        for generator in (vacuous, uniform_bayesian, uniform_powerset, max_deng):
            for n in (True, 2.5):
                with pytest.raises(EvidenceError, match="not an int"):
                    generator(n)

    def test_unknown_family(self):
        with pytest.raises(UnknownFamilyError):
            family_profile("bogus", 3)

    def test_registry_contents(self):
        assert sorted(FAMILIES) == [
            "max-deng",
            "uniform-bayesian",
            "uniform-powerset",
            "vacuous",
        ]

    def test_generic_frame_expansion_matches(self):
        frame = Frame(("x", "y", "z"))
        mass = uniform_powerset(3).to_mass(frame)
        assert len(mass) == 7


class TestBinomialCounts:
    @pytest.mark.parametrize("generator", [uniform_powerset, max_deng])
    def test_row_counts_are_binomials(self, generator):
        for n in [*range(1, 65), 511, 512, 1023, 1024]:
            profile = generator(n)
            assert profile.cards == tuple(range(1, n + 1)), n
            assert profile.counts == tuple(math.comb(n, k) for k in profile.cards), n

    @pytest.mark.parametrize("family, n", sorted(PINNED))
    def test_pinned_values(self, family, n):
        report = information_dimension_profile(family_profile(family, n))
        values = (report.entropy_bits, report.split_scale_bits, report.dimension)
        assert repr(values) == repr(PINNED[family, n])


class TestFlatColumns:
    SIZES = (1, 2, 3, 17, 200, 1024)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_columns_are_parallel_and_ascending(self, name):
        for n in self.SIZES:
            profile = family_profile(name, n)
            cards = list(profile.cards)
            assert cards == sorted(set(cards)), n
            columns = (profile.cards, profile.counts, profile.masses, profile.log2_masses)
            assert all(type(column) is tuple for column in columns), n
            assert {len(column) for column in columns} == {len(cards)}, n
            assert all(type(count) is int for count in profile.counts), n

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_columns_are_the_exact_ratios(self, name):
        # each layer's mass and log2 mass come from the same exact ratio, so
        # the kernel's two sums, one over each, describe one mass function
        for n in (1, 2, 3, 17, 200, 511, 512, 1023, 1024):
            profile = family_profile(name, n)
            for k, mass, log2_mass in zip(profile.cards, profile.masses, profile.log2_masses):
                num, den = _rational_mass(name, n, k)
                expected = 0.0 if num == den else math.log2(num) - math.log2(den)
                assert repr(mass) == repr(num / den), (n, k)
                assert repr(log2_mass) == repr(expected), (n, k)
                if mass >= sys.float_info.min:
                    assert math.isclose(
                        mass, 2.0 ** log2_mass, rel_tol=SYMMETRY_TOLERANCE, abs_tol=0.0
                    ), (n, k)

def _rational_mass(name: str, n: int, k: int) -> tuple[int, int]:
    if name == "vacuous":
        return 1, 1
    if name == "uniform-bayesian":
        return 1, n
    if name == "uniform-powerset":
        return 1, 2**n - 1
    return 2**k - 1, (3**n - 2**n if n > 1 else 1)


def _expected_count(name: str, n: int, k: int) -> int:
    if name == "vacuous":
        return 1
    if name == "uniform-bayesian":
        return n
    return math.comb(n, k)
