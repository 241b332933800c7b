"""Brute-force reference path against the grouped main path."""
from __future__ import annotations

import ast
import inspect
import math
import random
import re

import pytest

from conftest import random_mass
from evidim import (
    DimensionReport,
    EvidenceError,
    FAMILIES,
    Frame,
    MassFunction,
    Subset,
    brute_force_report,
    compare_reports,
    family_profile,
    information_dimension,
    information_dimension_profile,
    mass_to_json,
    max_deng,
    uniform_powerset,
)
from evidim import oracle
from evidim.cli import main


def _per_entry_report(mass: MassFunction) -> DimensionReport:
    """The oracle's sums as one Python loop over the focal sets."""
    if len(mass.masks) == 1 and bin(mass.masks[0]).count("1") == 1:
        return DimensionReport(0.0, 0.0, 0.0, True)
    entropy_terms = []
    split_terms = []
    for mask, m in zip(mass.masks, mass.masses):
        splits = 2 ** bin(mask).count("1") - 1
        entropy_terms.append(-m * math.log2(m / splits))
        split_terms.append(splits ** m)
    entropy = math.fsum(entropy_terms)
    split = math.log2(math.fsum(split_terms))
    return DimensionReport(entropy, split, entropy / split, False)


def _sparse_random_mass(rng: random.Random, n: int) -> MassFunction:
    """Up to 40 random focal sets on a generic n-element frame."""
    frame = Frame.generic(n)
    masks = {rng.getrandbits(n) or 1 for _ in range(rng.randint(1, 40))}
    weights = [rng.uniform(0.0, 1.0) ** rng.choice((1, 8)) + 1e-300 for _ in masks]
    total = math.fsum(weights)
    return MassFunction.from_assignments(
        frame, [(Subset(frame, mask), w / total) for mask, w in zip(masks, weights)]
    )


class TestBruteForce:
    def test_skewed_pair(self, skewed_pair_mass):
        report = brute_force_report(skewed_pair_mass)
        assert report.entropy_bits == pytest.approx(0.9142, abs=5e-5)
        assert report.split_scale_bits == pytest.approx(1.1381, abs=5e-5)
        assert report.dimension == pytest.approx(0.8032, abs=5e-5)
        assert not report.degenerate

    def test_degenerate_case(self):
        frame = Frame(("a",))
        mass = MassFunction.from_assignments(frame, {frame.subset(["a"]): 1.0})
        assert brute_force_report(mass) == DimensionReport(0.0, 0.0, 0.0, True)

    def test_thirty_element_frame(self, tmp_path):
        # brute force costs one step per focal set, whatever the frame size
        frame = Frame.generic(30)
        mass = MassFunction.from_assignments(
            frame, {frame.singleton("e1"): 0.25, frame.full_set(): 0.75}
        )
        assert compare_reports(information_dimension(mass), brute_force_report(mass), 1e-9)
        path = tmp_path / "mass.json"
        path.write_text(mass_to_json(mass), encoding="utf-8")
        assert main(["compute", str(path), "--oracle"]) == 0

    def test_uniform_powerset_twelve_matches_profile(self):
        profile = uniform_powerset(12)
        grouped = information_dimension_profile(profile)
        enumerated = brute_force_report(profile.to_mass())
        assert compare_reports(grouped, enumerated, 1e-10)


class TestOracleBits:
    def test_random_masses_match_a_per_entry_loop_bit_for_bit(self):
        rng = random.Random(2021)
        for n in range(2, 65):
            for _ in range(20):
                mass = _sparse_random_mass(rng, n)
                assert repr(brute_force_report(mass)) == repr(_per_entry_report(mass))

    def test_full_power_set_matches_a_per_entry_loop_bit_for_bit(self):
        mass = random_mass(random.Random(12), 12, full_powerset=True)
        assert len(mass) == (1 << 12) - 1
        assert repr(brute_force_report(mass)) == repr(_per_entry_report(mass))

    def test_degenerate_and_one_set_masses_match_a_per_entry_loop(self):
        frame = Frame.generic(3)
        for mask in range(1, 8):
            mass = MassFunction.from_assignments(frame, {Subset(frame, mask): 1.0})
            assert repr(brute_force_report(mass)) == repr(_per_entry_report(mass))

    def test_shares_only_the_value_types_with_the_main_path(self):
        tree = ast.parse(inspect.getsource(oracle))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(alias.name.startswith("evidim") for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.level or "evidim" in (node.module or "")):
                imported[node.module] = {alias.name for alias in node.names}
        # compare_reports checks its tolerance by the package's one rule on a
        # real number, and names it in an EvidenceError; no sum is shared
        assert imported == {
            "core": {"MassFunction", "EvidenceError", "_is_real", "_shown"},
            "dimension": {"DimensionReport"},
        }


class TestCompareReports:
    def test_reflexive(self, skewed_pair_mass):
        report = brute_force_report(skewed_pair_mass)
        assert compare_reports(report, report, 1e-12)

    def test_detects_small_divergence(self):
        a = DimensionReport(1.0, 1.0, 1.0, False)
        b = DimensionReport(1.0, 1.0, 1.0 + 1e-6, False)
        assert not compare_reports(a, b, 1e-9)
        assert compare_reports(a, b, 1e-3)

    def test_flag_mismatch_fails(self):
        a = DimensionReport(0.0, 0.0, 0.0, True)
        b = DimensionReport(0.0, 0.0, 0.0, False)
        assert not compare_reports(a, b, 1.0)

    @pytest.mark.parametrize("tol, shown", [
        ("1e-9", "'1e-9'"), (True, "True"), (0.0, "0.0"), (-1.0, "-1.0"), (math.nan, "nan"),
    ], ids=["string", "bool", "zero", "negative", "nan"])
    def test_tolerance_validation(self, tol, shown):
        # a tolerance is a real number, not a bool, above 0, as detect_limit's
        a = DimensionReport(0.0, 0.0, 0.0, True)
        with pytest.raises(EvidenceError, match=f"^tolerance {re.escape(shown)} is not a real"):
            compare_reports(a, a, tol)

    def test_max_deng_ten(self):
        profile = max_deng(10)
        assert compare_reports(
            information_dimension_profile(profile),
            brute_force_report(profile.to_mass()),
            1e-9,
        )


class TestEquivalence:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_families_match_for_all_small_frames(self, family):
        for n in range(1, 17):
            profile = family_profile(family, n)
            grouped = information_dimension_profile(profile)
            enumerated = brute_force_report(profile.to_mass())
            assert compare_reports(grouped, enumerated, 1e-9), (family, n)

    def test_random_masses_match(self):
        rng = random.Random(20240917)
        for _ in range(500):
            mass = random_mass(rng, rng.randint(2, 6))
            main = information_dimension(mass)
            reference = brute_force_report(mass)
            assert compare_reports(main, reference, 1e-10)
