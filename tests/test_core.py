"""Frames, subsets, mass-function validation, profiles, and the JSON format."""
from __future__ import annotations

import itertools
import json
import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import permute_mass, random_mass
from evidim import (
    DEFAULT_EXPANSION_LIMIT,
    MASS_TOLERANCE,
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
    UnknownLabelError,
    deng_entropy,
    information_dimension,
    information_dimension_profile,
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
        for mass in (10**400, math.inf):
            with pytest.raises(EvidenceError, match="too large for a float"):
                MassFunction.from_assignments(two_frame, {two_frame.subset(["w1"]): mass})

    def test_non_real_mass_rejected(self, two_frame):
        # "1" and True were coerced to 1.0; 1j escaped as a TypeError
        for mass in ("1", True, 1j):
            with pytest.raises(EvidenceError, match="not a real number"):
                MassFunction.from_assignments(two_frame, {two_frame.subset(["w1"]): mass})
        exact = MassFunction.from_assignments(two_frame, {two_frame.subset(["w1"]): Fraction(1)})
        assert exact.focal[0][1] == 1.0

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
        w1 = two_frame.subset(["w1"])
        MassFunction.from_assignments(two_frame, {w1: 1.0 + MASS_TOLERANCE / 2})
        with pytest.raises(NonUnitTotalError):
            MassFunction.from_assignments(two_frame, {w1: 1.0 + 2 * MASS_TOLERANCE})

    def test_foreign_subset_rejected(self, two_frame):
        other = Frame(("x", "y"))
        # same labels in another order: without the frame check, mask 0b01
        # would silently move the mass from w2 to w1
        reordered = Frame(("w2", "w1"))
        for subset in (other.subset(["x"]), reordered.subset(["w2"])):
            with pytest.raises(EvidenceError, match="different frame"):
                MassFunction.from_assignments(two_frame, {subset: 1.0})


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
        for probabilities in ((10**400,), (math.inf,)):
            with pytest.raises(EvidenceError, match="too large for a float"):
                ProbabilityDistribution(probabilities)
        for probabilities in (("0.5", "0.5"), (True,)):
            with pytest.raises(EvidenceError, match="not a real number"):
                ProbabilityDistribution(probabilities)


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
        assert len(vacuous(DEFAULT_EXPANSION_LIMIT).to_mass()) == 1
        with pytest.raises(FrameTooLargeError):
            vacuous(DEFAULT_EXPANSION_LIMIT + 1).to_mass()

    def test_sparse_expansion_costs_its_focal_sets_only(self):
        # expansion enumerates the populated layers, not all 2^N masks: one
        # or N focal sets on N = 20 expand faster than 4095 on N = 12
        n = DEFAULT_EXPANSION_LIMIT
        assert len(vacuous(n).to_mass()) == 1
        assert len(uniform_bayesian(n).to_mass()) == n

        def best_of_three(profile):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                profile.to_mass()
                times.append(time.perf_counter() - start)
            return min(times)

        dense = best_of_three(max_deng(12))
        assert best_of_three(vacuous(n)) < dense
        assert best_of_three(uniform_bayesian(n)) < dense

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
            CardinalityProfile.from_counts(1, {1: (1, 0.0)})
        with pytest.raises(NegativeMassError):
            CardinalityProfile.from_counts(1, {1: (1, math.nan)})
        with pytest.raises(EvidenceError, match="too large for a float"):
            CardinalityProfile.from_counts(2, {1: (2, 10**400)})
        with pytest.raises(EvidenceError, match="too large for a float"):
            CardinalityProfile.from_counts(1, {1: (1, math.inf)})
        # set counts: 1.5 and True were accepted; 2.5 failed only the C(2,1) bound;
        # "2" escaped as a TypeError, and -1 was dropped while the rest summed to 1;
        # a zero count that is not an int, False or 0.0, was dropped
        for size, rows in (
            (3, {1: (1.5, 2 / 3)}),
            (3, {1: (True, 1.0)}),
            (2, {1: (2.5, 0.4)}),
            (2, {1: ("2", 0.5)}),
            (2, {1: (False, 0.5), 2: (1, 1.0)}),
            (2, {1: (0.0, 0.5), 2: (1, 1.0)}),
        ):
            with pytest.raises(EvidenceError, match="not an int"):
                CardinalityProfile.from_counts(size, rows)
        with pytest.raises(EvidenceError, match="positive set counts"):
            CardinalityProfile.from_counts(2, {1: (-1, 0.5), 2: (1, 1.0)})
        with pytest.raises(EvidenceError, match="not a real number"):
            CardinalityProfile.from_counts(1, {1: (1, "1")})
        # a float or str cardinality and a float frame size escaped as TypeErrors,
        # and a bool frame size built a profile; a str key beside an int one
        # must be named before sorting compares the two
        for size, rows in (
            (2, {1.5: (1, 1.0)}),
            (2, {"1": (2, 0.5)}),
            (2, {"1": (2, 0.5), 2: (1, 1.0)}),
            (2.5, {1: (2, 0.5)}),
            (True, {1: (1, 1.0)}),
        ):
            with pytest.raises(EvidenceError, match="not an int"):
                CardinalityProfile.from_counts(size, rows)
        # a row that is not a (count, mass) pair escaped as a TypeError or ValueError
        for rows in ({1: 0.5}, {1: (1, 1.0, 3)}, {1: (1,)}):
            with pytest.raises(EvidenceError, match=r"not a \(set count, mass\) pair"):
                CardinalityProfile.from_counts(1, rows)

    def test_count_bound_is_exact_for_large_frames(self):
        full = math.comb(1000, 500)
        accepted = CardinalityProfile.from_counts(1000, {500: (full, 1 / full)})
        assert accepted.counts == (full,)
        # the total is one within tolerance here too, so only the C(1000,500)
        # bound can reject
        with pytest.raises(EvidenceError, match=r"exceed C\(1000,500\)"):
            CardinalityProfile.from_counts(1000, {500: (full + 1, 1 / (full + 1))})

    def test_overflowing_total_is_not_one(self):
        # count * mass = 2^1150 overflows a double; OverflowError escaped
        with pytest.raises(NonUnitTotalError):
            CardinalityProfile.from_counts(200, {100: (2**150, 2.0**1000)})

    @pytest.mark.parametrize(
        "rows, error, message",
        [
            ({1: (2.0, 0.5)}, EvidenceError, "set count 2.0 .* not an int"),
            ({1: (3, 1 / 3)}, EvidenceError, r"exceed C\(2,1\)"),
            ({1: (-1, 0.5), 2: (1, 1.0)}, EvidenceError, "positive set counts"),
            ({1: (2, 0.5), 2: (1, 0.0)}, NegativeMassError, "strictly positive"),
            ({1: (2, 0.25), 2: (1, 0.25)}, NonUnitTotalError, "sum to 0.75"),
            ({3: (1, 1.0)}, EvidenceError, r"cardinality 3 outside 1\.\.2"),
            ({2: (1, 1.0), "1": (1, 1.0)}, EvidenceError, "cardinality '1' is not an int"),
        ],
    )
    def test_constructor_reaches_every_column_check(self, rows, error, message):
        with pytest.raises(error, match=message):
            CardinalityProfile.from_counts(2, rows)

    def test_row_constructor_is_gone(self):
        # from_counts and the private _from_columns are the only ways in
        with pytest.raises(TypeError):
            CardinalityProfile(2, ((2, ProfileRow(1, 1.0, 0.0)),))
        for name in ("from_rows", "_set_columns"):
            assert not hasattr(CardinalityProfile, name)
        for name in ("from_mass", "from_ratio"):
            assert not hasattr(ProfileRow, name)

    def test_row_mass_must_match_its_log2(self):
        # the kernel takes the split scale from each mass and the entropy from
        # its log2 mass; from_counts derives the one from the other, down to
        # subnormal masses, so the two describe the explicit mass function
        for tiny in (0.25, 1e-300, sys.float_info.min, 5e-324):
            profile = CardinalityProfile.from_counts(2, {1: (2, tiny), 2: (1, 1 - 2 * tiny)})
            assert profile.log2_masses == (math.log2(tiny), math.log2(1 - 2 * tiny))
            compressed = information_dimension_profile(profile)
            explicit = information_dimension(profile.to_mass())
            assert compressed.dimension == pytest.approx(explicit.dimension, abs=1e-12), tiny
            assert compressed.dimension <= math.log2(3)

    def test_from_counts_sorts_layers(self):
        profile = CardinalityProfile.from_counts(2, {2: (1, 0.5), 1: (2, 0.25)})
        assert profile == CardinalityProfile.from_counts(2, {1: (2, 0.25), 2: (1, 0.5)})
        assert (profile.cards, profile.counts, profile.masses, profile.log2_masses) == (
            (1, 2), (2, 1), (0.25, 0.5), (-2.0, -1.0)
        )

    def test_zero_count_rows_dropped(self):
        profile = CardinalityProfile.from_counts(2, {1: (0, 0.0), 2: (1, 1.0)})
        assert len(profile.rows) == 1

    def test_single_singleton_detection(self):
        assert information_dimension_profile(vacuous(1)).degenerate
        assert not information_dimension_profile(vacuous(2)).degenerate
        assert not information_dimension_profile(uniform_bayesian(2)).degenerate


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


class TestFlatStorage:
    """``focal`` is a view derived from the flat ``masks``/``masses``."""

    def test_shuffled_input_is_stored_in_mask_order(self):
        rng = random.Random(11)
        frame = Frame.generic(5)
        masks = rng.sample(range(1, 1 << 5), 12)
        weights = [rng.uniform(0.05, 1.0) for _ in masks]
        total = math.fsum(weights)
        mass = MassFunction.from_assignments(
            frame, [(Subset(frame, m), w / total) for m, w in zip(masks, weights)]
        )
        assert mass.masks == tuple(sorted(masks))
        assert [subset.mask for subset, _ in mass.focal] == sorted(masks)
        assert all(subset.frame is frame for subset, _ in mass.focal)
        assert tuple(m for _, m in mass.focal) == mass.masses
        assert mass_from_json(mass_to_json(mass)) == mass

    def test_to_probability_follows_frame_order(self):
        frame = Frame(("c", "a", "b"))
        mass = MassFunction.from_assignments(
            frame, [(frame.singleton("b"), 0.5), (frame.singleton("c"), 0.2),
                    (frame.singleton("a"), 0.3)]
        )
        assert mass.to_probability().probabilities == (0.2, 0.3, 0.5)

    def test_expansion_matches_combinations(self):
        for n in range(1, 9):
            frame = Frame.generic(n)
            for profile in (vacuous(n), uniform_bayesian(n), uniform_powerset(n), max_deng(n)):
                expected = []
                for card, row in profile.rows:
                    for members in itertools.combinations(range(n), card):
                        mask = sum(1 << i for i in members)
                        expected.append((Subset(frame, mask), row.mass))
                expected.sort(key=lambda pair: pair[0].mask)
                assert profile.to_mass(frame).focal == tuple(expected)


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

    def test_empty_elements_are_reported_before_later_entries(self):
        # each entry is checked as it is parsed, so the first defect wins
        later = [{"elements": ["z"], "mass": 0.5}, {"elements": "a", "mass": 0.5},
                 {"elements": ["a"], "mass": 0.5, "note": 1}]
        for entry in later:
            focal = [{"elements": [], "mass": 0.5}, entry]
            text = json.dumps({"frame": ["a"], "focal": focal})
            with pytest.raises(EmptySubsetError):
                mass_from_json(text)

    def test_bad_mass_is_named_by_its_focal_set(self):
        text = json.dumps({"frame": ["a", "b"], "focal": [
            {"elements": ["a"], "mass": 0.5}, {"elements": ["b", "a"], "mass": "0.5"}]})
        with pytest.raises(EvidenceError, match=r"mass '0\.5' of Subset\(\{a, b\}\) is not"):
            mass_from_json(text)
        frame = Frame(("a", "b"))
        with pytest.raises(NegativeMassError, match=r"of Subset\(\{b\}\) is negative"):
            MassFunction.from_assignments(frame, {frame.singleton("b"): -1.0})

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

    def test_deeply_nested_json_rejected(self):
        with pytest.raises(EvidenceError, match="nested too deeply"):
            mass_from_json("[" * 100_000 + "]" * 100_000)

    def test_malformed_json_raises(self):
        with pytest.raises(json.JSONDecodeError):
            mass_from_json("{not json")

    def test_non_numeric_mass_rejected(self):
        for mass in (True, "1", None):
            text = json.dumps({"frame": ["a"], "focal": [{"elements": ["a"], "mass": mass}]})
            with pytest.raises(EvidenceError, match="not a real number"):
                mass_from_json(text)

    @pytest.mark.parametrize(
        "payload",
        [
            {"frame": "a", "focal": [{"elements": ["a"], "mass": 1.0}]},
            {"frame": ["a"], "focal": {"elements": ["a"], "mass": 1.0}},
            {"frame": ["a"], "focal": [["a", 1.0]]},
            {"frame": ["a"], "focal": [{"elements": "a", "mass": 1.0}]},
            {"frame": ["a"], "focal": [{"elements": ["a"]}]},
        ],
        ids=[
            "frame-not-a-list",
            "focal-not-a-list",
            "entry-not-an-object",
            "elements-not-a-list",
            "entry-without-mass",
        ],
    )
    def test_malformed_shape_rejected(self, payload):
        with pytest.raises(EvidenceError):
            mass_from_json(json.dumps(payload))

    @pytest.mark.parametrize("label", [["a"], {"x": 1}, 1, None], ids=repr)
    def test_non_string_labels_are_unknown(self, label):
        # an unhashable label must not escape a dict lookup as a TypeError
        text = json.dumps({"frame": ["a"], "focal": [{"elements": [label], "mass": 1.0}]})
        with pytest.raises(UnknownLabelError):
            mass_from_json(text)
        with pytest.raises(UnknownLabelError):
            Frame(("a",)).subset([label])

    def test_missing_keys_rejected(self):
        with pytest.raises(EvidenceError):
            mass_from_json('{"frame": ["a"]}')
        with pytest.raises(EvidenceError):
            mass_from_json('[1, 2]')


def _stdlib_json(mass: MassFunction) -> str:
    """mass_to_json's format, written by the stdlib encoder."""
    payload = {
        "frame": list(mass.frame.labels),
        "focal": [{"elements": list(s.members), "mass": v} for s, v in mass.focal],
    }
    return json.dumps(payload, ensure_ascii=False, indent=2)


def _pinned_corpus():
    # non-ASCII, a quote, a backslash, control and separator characters
    frame = Frame(("\u00fc", "\u65e5\u672c", 'q"t', "b\\s", "c\x01\n\t", "\u2028\x7f"))
    yield MassFunction.from_assignments(
        frame,
        {
            frame.subset(["\u00fc"]): 5e-324,
            frame.subset(['q"t', "b\\s"]): 1e-300,
            frame.subset(["c\x01\n\t", "\u65e5\u672c"]): 0.1,
            frame.full_set(): 0.9,
        },
    )
    single = Frame(("only",))
    yield MassFunction.from_assignments(single, {single.full_set(): 1.0})
    for n in (1, 2, 6):
        yield max_deng(n).to_mass()
        yield uniform_powerset(n).to_mass()


class TestJsonBytes:
    def test_mass_to_json_matches_the_stdlib_encoder(self):
        for mass in _pinned_corpus():
            assert mass_to_json(mass) == _stdlib_json(mass)
