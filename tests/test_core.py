"""Frames, subsets, mass-function validation, profiles, and the JSON format."""
from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import permute_mass, random_mass
from evidim import (
    CardinalityProfile,
    DuplicateLabelError,
    DuplicateSubsetError,
    EmptyFrameError,
    EmptySubsetError,
    EvidenceError,
    Frame,
    FrameTooLargeError,
    MassFunction,
    NegativeMassError,
    NonUnitTotalError,
    NotBayesianError,
    NotCardinalitySymmetricError,
    PartialLayerError,
    ProbabilityDistribution,
    ProfileRow,
    Subset,
    deng_entropy,
    information_dimension,
    mass_from_json,
    mass_to_json,
    max_deng,
    uniform_bayesian,
    uniform_powerset,
    vacuous,
)


class TestFrame:
    def test_two_element_frame(self):
        frame = Frame(("w1", "w2"))
        assert frame.size == 2
        assert frame.labels == ("w1", "w2")

    def test_minimal_frame(self):
        assert Frame(("a",)).size == 1

    def test_duplicate_labels_rejected(self):
        with pytest.raises(DuplicateLabelError):
            Frame(("a", "a"))

    def test_empty_frame_rejected(self):
        with pytest.raises(EmptyFrameError):
            Frame(())

    def test_empty_string_label_rejected(self):
        with pytest.raises(EvidenceError):
            Frame(("a", ""))

    def test_explicit_cap(self):
        Frame.generic(64)
        with pytest.raises(FrameTooLargeError):
            Frame.generic(65)


class TestSubset:
    def test_full_pair(self, two_frame):
        subset = two_frame.subset(["w1", "w2"])
        assert subset.cardinality == 2
        assert subset.members == ("w1", "w2")

    def test_singleton(self):
        frame = Frame(("a", "b", "c"))
        assert frame.subset(["a"]).cardinality == 1

    def test_empty_rejected(self, two_frame):
        with pytest.raises(EmptySubsetError):
            two_frame.subset([])

    def test_unknown_label_rejected(self, two_frame):
        with pytest.raises(EvidenceError):
            two_frame.subset(["nope"])

    def test_duplicate_labels_collapse(self, two_frame):
        assert two_frame.subset(["w1", "w1"]).cardinality == 1

    def test_mask_validation(self, two_frame):
        with pytest.raises(EmptySubsetError):
            Subset(two_frame, 0)
        with pytest.raises(EvidenceError):
            Subset(two_frame, 1 << 2)

    def test_members_follow_frame_order(self):
        frame = Frame(("c", "a", "b"))
        assert frame.subset(["b", "c"]).members == ("c", "b")


class TestMassConstruction:
    def test_skewed_pair(self, skewed_pair_mass):
        assert len(skewed_pair_mass) == 2
        assert math.fsum(m for _, m in skewed_pair_mass.focal) == pytest.approx(1.0)

    def test_non_unit_total_rejected(self, two_frame):
        with pytest.raises(NonUnitTotalError):
            MassFunction.from_assignments(
                two_frame,
                {two_frame.subset(["w1"]): 0.5, two_frame.subset(["w2"]): 0.6},
            )

    def test_vacuous_is_valid(self):
        frame = Frame.generic(5)
        mass = MassFunction.from_assignments(frame, {frame.full_set(): 1.0})
        assert len(mass) == 1

    def test_negative_mass_rejected(self, two_frame):
        with pytest.raises(NegativeMassError):
            MassFunction.from_assignments(
                two_frame,
                [(two_frame.subset(["w1"]), 1.5), (two_frame.subset(["w2"]), -0.5)],
            )

    def test_nan_mass_rejected(self, two_frame):
        # the other mass sums to 1, so only the NaN check can reject this
        with pytest.raises(NegativeMassError):
            MassFunction.from_assignments(
                two_frame,
                [(two_frame.subset(["w1"]), math.nan), (two_frame.subset(["w2"]), 1.0)],
            )

    def test_mass_too_large_for_a_float_rejected(self, two_frame):
        with pytest.raises(EvidenceError):
            MassFunction.from_assignments(two_frame, {two_frame.subset(["w1"]): 10**400})

    def test_duplicate_subsets_rejected(self, two_frame):
        a = two_frame.subset(["w1"])
        with pytest.raises(DuplicateSubsetError):
            MassFunction.from_assignments(two_frame, [(a, 0.5), (a, 0.5)])

    def test_zero_masses_dropped(self, two_frame):
        mass = MassFunction.from_assignments(
            two_frame,
            [(two_frame.subset(["w1"]), 1.0), (two_frame.subset(["w2"]), 0.0)],
        )
        assert len(mass) == 1

    def test_tolerance_is_adjustable(self, two_frame):
        off = {two_frame.subset(["w1"]): 1.0 + 5e-10}
        MassFunction.from_assignments(two_frame, off)
        with pytest.raises(NonUnitTotalError):
            MassFunction.from_assignments(two_frame, off, tolerance=1e-12)
        with pytest.raises(ValueError):
            MassFunction.from_assignments(two_frame, off, tolerance=0.0)

    def test_foreign_subset_rejected(self, two_frame):
        other = Frame(("x", "y"))
        with pytest.raises(EvidenceError):
            MassFunction.from_assignments(two_frame, {other.subset(["x"]): 1.0})


class TestBayesian:
    def test_uniform_singletons_are_bayesian(self):
        mass = uniform_bayesian(3).to_mass()
        assert mass.is_bayesian()

    def test_pair_focal_is_not_bayesian(self, skewed_pair_mass):
        assert not skewed_pair_mass.is_bayesian()

    def test_single_element_frame(self):
        frame = Frame(("a",))
        assert MassFunction.from_assignments(frame, {frame.full_set(): 1.0}).is_bayesian()

    def test_to_probability(self):
        frame = Frame(("a", "b"))
        mass = MassFunction.from_assignments(
            frame, {frame.subset(["a"]): 0.5, frame.subset(["b"]): 0.5}
        )
        assert mass.to_probability().probabilities == (0.5, 0.5)

    def test_to_probability_deterministic(self):
        frame = Frame(("a",))
        mass = MassFunction.from_assignments(frame, {frame.subset(["a"]): 1.0})
        assert mass.to_probability().probabilities == (1.0,)

    def test_to_probability_requires_bayesian(self, skewed_pair_mass):
        with pytest.raises(NotBayesianError):
            skewed_pair_mass.to_probability()


class TestProbabilityDistribution:
    def test_validation(self):
        with pytest.raises(NonUnitTotalError):
            ProbabilityDistribution((0.5, 0.6))
        with pytest.raises(NegativeMassError):
            ProbabilityDistribution((1.5, -0.5))
        with pytest.raises(NegativeMassError):
            ProbabilityDistribution((math.nan, 1.0))
        with pytest.raises(EvidenceError):
            ProbabilityDistribution(())


class TestProfiles:
    def test_uniform_powerset_profile(self):
        mass = uniform_powerset(3).to_mass()
        profile = mass.to_profile()
        assert [(k, row.count, row.mass) for k, row in profile.rows] == [
            (1, 3, 1 / 7),
            (2, 3, 1 / 7),
            (3, 1, 1 / 7),
        ]

    def test_asymmetric_mass_rejected(self):
        frame = Frame(("a", "b"))
        mass = MassFunction.from_assignments(
            frame, {frame.subset(["a"]): 0.3, frame.subset(["b"]): 0.7}
        )
        with pytest.raises(NotCardinalitySymmetricError):
            mass.to_profile()

    def test_symmetry_tolerance_is_relative(self):
        # 1e-13 and 5e-13 lie within 1e-12 of each other, but differ fivefold
        frame = Frame(("a", "b", "c"))
        mass = MassFunction.from_assignments(
            frame,
            {
                frame.subset(["a"]): 1e-13,
                frame.subset(["b"]): 5e-13,
                frame.full_set(): 1.0 - 6e-13,
            },
        )
        with pytest.raises(NotCardinalitySymmetricError):
            mass.to_profile()

    def test_vacuous_profile(self):
        frame = Frame.generic(5)
        mass = MassFunction.from_assignments(frame, {frame.full_set(): 1.0})
        profile = mass.to_profile()
        assert [(k, row.count, row.mass) for k, row in profile.rows] == [(5, 1, 1.0)]

    def test_expansion_of_max_deng_two(self):
        # normalizer over {a}, {b}, {a,b} is 1 + 1 + 3 = 5
        mass = max_deng(2).to_mass(Frame(("a", "b")))
        got = {subset.members: m for subset, m in mass.focal}
        assert got == {("a",): 1 / 5, ("b",): 1 / 5, ("a", "b"): 3 / 5}
        assert deng_entropy(mass) == pytest.approx(math.log2(5), abs=1e-12)

    def test_expansion_of_vacuous(self):
        mass = vacuous(3).to_mass()
        assert len(mass) == 1
        assert mass.focal[0][0].cardinality == 3

    def test_expansion_limit(self):
        with pytest.raises(FrameTooLargeError):
            vacuous(30).to_mass()
        vacuous(21).to_mass(limit=21)

    def test_partial_layer_rejected(self):
        profile = CardinalityProfile.from_counts(3, {1: (2, 0.5)})
        with pytest.raises(PartialLayerError):
            profile.to_mass()

    def test_frame_size_mismatch_rejected(self):
        with pytest.raises(EvidenceError):
            vacuous(3).to_mass(Frame(("a", "b")))

    def test_profile_validation(self):
        with pytest.raises(NonUnitTotalError):
            CardinalityProfile.from_counts(2, {1: (2, 0.4)})
        with pytest.raises(EvidenceError):
            CardinalityProfile.from_counts(2, {1: (3, 1 / 3)})  # > C(2,1) sets
        with pytest.raises(EvidenceError):
            CardinalityProfile.from_counts(2, {3: (1, 1.0)})  # k > N
        with pytest.raises(NegativeMassError):
            ProfileRow.from_mass(1, 0.0)

    def test_zero_count_rows_dropped(self):
        profile = CardinalityProfile.from_counts(2, {1: (0, 0.0), 2: (1, 1.0)})
        assert len(profile.rows) == 1

    def test_single_singleton_detection(self):
        assert vacuous(1).is_single_singleton
        assert not vacuous(2).is_single_singleton
        assert not uniform_bayesian(2).is_single_singleton


@st.composite
def layered_masses(draw):
    """Cardinality-symmetric mass functions with full layers only."""
    n = draw(st.integers(min_value=1, max_value=8))
    cards = draw(
        st.lists(st.integers(min_value=1, max_value=n), min_size=1, max_size=n, unique=True)
    )
    weights = [draw(st.floats(min_value=0.05, max_value=1.0)) for _ in cards]
    total = math.fsum(
        w * math.comb(n, k) for k, w in zip(cards, weights)
    )
    frame = Frame.generic(n)
    assignments = []
    for k, w in zip(cards, weights):
        share = w / total
        for subset in frame.all_subsets():
            if subset.cardinality == k:
                assignments.append((subset, share))
    return MassFunction.from_assignments(frame, assignments)


class TestRoundTrip:
    @given(mass=layered_masses())
    @settings(max_examples=150, deadline=None)
    def test_profile_round_trip_is_exact(self, mass):
        back = mass.to_profile().to_mass(mass.frame)
        assert back == mass

    def test_round_trip_for_families(self):
        frame = Frame.generic(6)
        for profile in (vacuous(6), uniform_bayesian(6), uniform_powerset(6), max_deng(6)):
            mass = profile.to_mass(frame)
            assert mass.to_profile().to_mass(frame) == mass


class TestPermutationInvariance:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_entropy_and_dimension_survive_relabeling(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randint(2, 6)
        mass = random_mass(rng, n)
        order = list(range(n))
        rng.shuffle(order)
        shuffled = permute_mass(mass, order)
        assert deng_entropy(shuffled) == pytest.approx(deng_entropy(mass), abs=1e-12)
        a = information_dimension(mass)
        b = information_dimension(shuffled)
        assert b.dimension == pytest.approx(a.dimension, abs=1e-12)
        assert b.degenerate == a.degenerate

    def test_profile_survives_relabeling(self):
        mass = uniform_powerset(4).to_mass()
        shuffled = permute_mass(mass, [2, 0, 3, 1])
        assert shuffled.to_profile().rows == mass.to_profile().rows


@st.composite
def arbitrary_assignments(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    frame = Frame.generic(n)
    masks = draw(
        st.lists(st.integers(min_value=1, max_value=(1 << n) - 1), min_size=1, unique=True)
    )
    weights = [draw(st.floats(min_value=0.0, max_value=1.0)) for _ in masks]
    total = math.fsum(weights)
    if total == 0.0:
        weights[0], total = 1.0, 1.0
    return frame, [(Subset(frame, m), w / total) for m, w in zip(masks, weights)]


class TestValidationSoundness:
    @given(data=arbitrary_assignments())
    @settings(max_examples=150, deadline=None)
    def test_constructed_masses_satisfy_the_axioms(self, data):
        frame, assignments = data
        mass = MassFunction.from_assignments(frame, assignments)
        assert all(subset.cardinality >= 1 for subset, _ in mass.focal)
        assert all(m > 0.0 for _, m in mass.focal)
        total = math.fsum(m for _, m in mass.focal)
        assert abs(total - 1.0) <= 1e-9


class TestJsonFormat:
    def test_round_trip(self, skewed_pair_mass):
        text = mass_to_json(skewed_pair_mass)
        assert mass_from_json(text) == skewed_pair_mass

    def test_documented_example(self):
        text = json.dumps(
            {
                "frame": ["w1", "w2"],
                "focal": [
                    {"elements": ["w1"], "mass": 0.8333333333333334},
                    {"elements": ["w1", "w2"], "mass": 0.16666666666666666},
                ],
            }
        )
        mass = mass_from_json(text)
        assert len(mass) == 2
        assert information_dimension(mass).dimension == pytest.approx(0.8032, abs=5e-4)

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(EvidenceError):
            mass_from_json('{"frame": ["a"], "focal": [], "extra": 1}')

    def test_unknown_entry_key_rejected(self):
        text = json.dumps(
            {"frame": ["a"], "focal": [{"elements": ["a"], "mass": 1.0, "note": "x"}]}
        )
        with pytest.raises(EvidenceError):
            mass_from_json(text)

    def test_order_insensitive_duplicates_rejected(self):
        text = json.dumps(
            {
                "frame": ["a", "b"],
                "focal": [
                    {"elements": ["a", "b"], "mass": 0.5},
                    {"elements": ["b", "a"], "mass": 0.5},
                ],
            }
        )
        with pytest.raises(DuplicateSubsetError):
            mass_from_json(text)

    def test_empty_elements_rejected(self):
        text = json.dumps({"frame": ["a"], "focal": [{"elements": [], "mass": 1.0}]})
        with pytest.raises(EmptySubsetError):
            mass_from_json(text)

    def test_repeated_keys_rejected(self):
        # last-wins would read a valid mass function from either object
        repeated_mass = (
            '{"frame": ["a", "b"], "focal": [{"elements": ["a"], "mass": 0.25, '
            '"mass": 0.5}, {"elements": ["b"], "mass": 0.5}]}'
        )
        repeated_frame = (
            '{"frame": ["x"], "frame": ["a"], "focal": [{"elements": ["a"], "mass": 1.0}]}'
        )
        for text in (repeated_mass, repeated_frame):
            with pytest.raises(EvidenceError, match="repeated keys"):
                mass_from_json(text)

    def test_malformed_json_raises(self):
        with pytest.raises(json.JSONDecodeError):
            mass_from_json("{not json")

    def test_non_numeric_mass_rejected(self):
        text = json.dumps({"frame": ["a"], "focal": [{"elements": ["a"], "mass": True}]})
        with pytest.raises(EvidenceError):
            mass_from_json(text)

    def test_missing_keys_rejected(self):
        with pytest.raises(EvidenceError):
            mass_from_json('{"frame": ["a"]}')
        with pytest.raises(EvidenceError):
            mass_from_json('[1, 2]')
