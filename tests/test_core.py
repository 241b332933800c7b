"""Frames, subsets, mass-function validation, profiles, and the JSON format."""
from __future__ import annotations

import itertools
import json
import math
import random
import re
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import permute_mass, random_mass
from evidim import (
    DEFAULT_EXPANSION_LIMIT,
    MASS_TOLERANCE,
    SYMMETRY_TOLERANCE,
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
    Subset,
    UnknownLabelError,
    information_dimension,
    information_dimension_profile,
    mass_from_json,
    mass_to_json,
    max_deng,
    uniform_bayesian,
    uniform_powerset,
    vacuous,
)
from evidim import core, wire
from evidim.core import PROFILE_LIMIT, _as_mass, _binomial_row


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

    def test_duplicate_labels_are_named_in_the_order_they_repeat(self):
        message = r"^frame labels are not distinct: \['b', 'a'\]$"
        with pytest.raises(DuplicateLabelError, match=message):
            Frame(("a", "b", "c", "b", "a", "b"))
        # past the six labels a message shows, at the end of a long frame
        with pytest.raises(DuplicateLabelError, match="'l19999'"):
            Frame(tuple(f"l{i}" for i in range(20_000)) + ("l19999",))

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

    def test_generic_past_the_cap_makes_no_labels(self):
        # the cap is checked before any label is made: 10**6 labels took
        # 0.6 s to build before the error, and enough of them a MemoryError
        labels = tuple(f"e{i}" for i in range(1, 66))
        assert _parse_outcome(Frame.generic, 65) == _parse_outcome(Frame, labels)
        outcome, peak = _traced(_parse_outcome, Frame.generic, 10**6)
        assert outcome == (
            FrameTooLargeError, "explicit frames are capped at 64 elements, got 1000000"
        )
        assert peak < 64 * 1024

    def test_bare_string_rejected(self):
        # "abc" iterated as the three labels a, b and c
        message = r"^Frame takes an iterable of labels, not the string 'abc'$"
        with pytest.raises(EvidenceError, match=message):
            Frame("abc")
        assert Frame(["abc"]).labels == ("abc",)

    # True built a one-label frame; 2.5 and "3" escaped as bare TypeErrors
    @pytest.mark.parametrize("size", [True, 2.5, "3"], ids=repr)
    def test_generic_size_not_an_int_rejected(self, size):
        message = rf"^frame size {re.escape(repr(size))} is not an int$"
        with pytest.raises(EvidenceError, match=message) as raised:
            Frame.generic(size)
        assert type(raised.value) is EvidenceError

    @pytest.mark.parametrize("size", [0, -3])
    def test_generic_size_below_one_rejected(self, size):
        with pytest.raises(EmptyFrameError):
            Frame.generic(size)


class TestIterableArguments:
    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: Frame(5), "frame labels 5 is not iterable"),
            (lambda: Frame(None), "frame labels None is not iterable"),
            (lambda: Frame.generic(2).subset(2.5), "subset labels 2.5 is not iterable"),
            (lambda: ProbabilityDistribution(5), "probabilities 5 is not iterable"),
            (lambda: MassFunction.from_assignments(Frame.generic(2), 5),
             "assignments 5 is not iterable"),
        ],
        ids=["Frame-int", "Frame-None", "subset", "ProbabilityDistribution", "from_assignments"],
    )
    def test_an_argument_that_is_not_iterable_is_named(self, call, message):
        # each escaped as a bare TypeError: 'int' object is not iterable
        with pytest.raises(EvidenceError) as raised:
            call()
        assert type(raised.value) is EvidenceError
        assert str(raised.value) == message

    def test_a_type_error_while_iterating_is_not_renamed(self):
        def labels():
            yield "a"
            raise TypeError("raised by the generator")

        with pytest.raises(TypeError, match="^raised by the generator$"):
            Frame(labels())


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
        # 1.0 escaped as a bare TypeError, and True was kept as a mask
        for mask in (1.0, True, "1", None):
            with pytest.raises(EvidenceError, match=r"^mask .* is not an int$") as raised:
                Subset(two_frame, mask)
            assert type(raised.value) is EvidenceError

    def test_members_follow_frame_order(self):
        frame = Frame(("c", "a", "b"))
        assert frame.subset(["b", "c"]).members == ("c", "b")

    def test_bare_string_rejected(self):
        # "ab" was read as the labels a and b, not as the label ab
        frame = Frame(("a", "b", "ab"))
        message = r"^Frame\.subset takes an iterable of labels, not the string 'ab'$"
        with pytest.raises(EvidenceError, match=message):
            frame.subset("ab")
        assert frame.subset(["ab"]).members == ("ab",)
        assert frame.subset(("a", "b")).members == ("a", "b")


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

    def test_errors_come_in_entry_order(self, two_frame):
        # each entry is read in full before the next: a bad mass or a repeated
        # subset is reported before a foreign subset or a malformed entry after it
        w1 = two_frame.subset(["w1"])
        foreign = Frame(("x", "y")).subset(["x"])
        with pytest.raises(NegativeMassError, match=r"mass -1.0 of Subset\(\{w1\}\)"):
            MassFunction.from_assignments(two_frame, [(w1, -1.0), (foreign, 1.0)])
        with pytest.raises(EvidenceError, match="is not a real number"):
            MassFunction.from_assignments(two_frame, [(w1, "1"), (foreign, 1.0)])
        with pytest.raises(DuplicateSubsetError):
            MassFunction.from_assignments(two_frame, [(w1, 0.5), (w1, 0.5), (foreign, 1.0)])
        with pytest.raises(NegativeMassError):
            MassFunction.from_assignments(two_frame, [(w1, -1.0), (w1,)])
        with pytest.raises(EvidenceError, match="different frame"):
            MassFunction.from_assignments(two_frame, [(foreign, 1.0), (w1, -1.0)])
        with pytest.raises(ValueError, match="not enough values to unpack"):
            MassFunction.from_assignments(two_frame, [(w1, 1.0), (w1,)])

    def test_total_too_large_for_a_float_is_not_one(self, two_frame):
        # each mass is a finite float; their exact sum overflowed math.fsum,
        # which escaped as a bare OverflowError
        masses = {two_frame.subset(["w1"]): 1e308, two_frame.subset(["w2"]): 1e308}
        with pytest.raises(NonUnitTotalError, match="focal masses sum to inf, expected 1"):
            MassFunction.from_assignments(two_frame, masses)
        with pytest.raises(NonUnitTotalError, match="probabilities sum to inf, expected 1"):
            ProbabilityDistribution((1e308, 1e308))


_AB = Frame(("a", "b"))


class TestColumnConstructor:
    """``MassFunction(frame, masks, masses)`` validates like every other
    way in."""

    @pytest.mark.parametrize(
        "frame, masks, masses, error, message",
        [
            # each was stored as given: d = 1.63 for the half mass, 1.0 for the
            # repeated set and a degenerate report for the mask past the frame
            (_AB, (1,), (0.5,), NonUnitTotalError, r"^focal masses sum to 0\.5, expected 1$"),
            (_AB, (1, 1), (0.5, 0.5), DuplicateSubsetError,
             r"^duplicate assignment for Subset\(\{a\}\)$"),
            (_AB, (1, 2), (-1.0, 2.0), NegativeMassError,
             r"^mass -1\.0 of Subset\(\{a\}\) is negative or NaN$"),
            (_AB, (8,), (1.0,), EvidenceError, "^subset members fall outside the frame$"),
            (_AB, (1, 0), (0.5, 0.5), EmptySubsetError,
             "^the empty set cannot be a focal element$"),
            (_AB, (1.0,), (1.0,), EvidenceError, r"^mask 1\.0 is not an int$"),
            # a float below the largest mask, which a range check alone passes
            (_AB, (3, 1.0), (0.5, 0.5), EvidenceError, r"^mask 1\.0 is not an int$"),
            (_AB, (True,), (1.0,), EvidenceError, "^mask True is not an int$"),
            # escaped as a ZeroDivisionError
            (_AB, (1, 2), (1.0,), EvidenceError, "^2 masks do not pair up with 1 masses$"),
            (("a", "b"), (1,), (1.0,), EvidenceError, r"^frame \('a', 'b'\) is not a Frame$"),
            (_AB, (), (), NonUnitTotalError, r"^focal masses sum to 0\.0, expected 1$"),
            # the masks are checked before the masses, each in entry order
            (_AB, (4, 0), ("1", 1.0), EvidenceError, "^subset members fall outside the frame$"),
            (_AB, (0, 4), (1.0, -1.0), EmptySubsetError,
             "^the empty set cannot be a focal element$"),
        ],
        ids=[
            "half-mass", "repeated-mask", "negative-mass", "mask-past-the-frame", "mask-zero",
            "float-mask", "float-mask-below-the-largest", "bool-mask", "short-masses",
            "frame-not-a-frame", "empty-columns", "first-bad-mask-too-wide",
            "first-bad-mask-empty",
        ],
    )
    def test_raw_columns_raise_typed_errors(self, frame, masks, masses, error, message):
        with pytest.raises(error, match=message) as raised:
            MassFunction(frame, masks, masses)
        assert type(raised.value) is error

    def test_valid_columns_build_the_validated_mass(self):
        expected = MassFunction.from_assignments(
            _AB, {_AB.full_set(): 0.75, _AB.singleton("a"): 0.25}
        )
        for masks, masses in (([3, 1], [0.75, 0.25]), ((1, 3), (0.25, 0.75)),
                              ([3, 2, 1], [0.75, 0.0, 0.25]), ([1, 3], [Fraction(1, 4), 0.75])):
            mass = MassFunction(_AB, masks, masses)
            assert mass == expected
            assert (mass.masks, mass.masses) == ((1, 3), (0.25, 0.75))
            assert type(mass.masks) is type(mass.masses) is tuple
            assert [type(m) for m in mass.masses] == [float, float]

    @pytest.mark.parametrize(
        "column",
        [{1: 0}, {1}, iter([1]), 1.0, None],
        ids=["dict", "set", "iterator", "float", "None"],
    )
    @pytest.mark.parametrize("name", ["masks", "masses"])
    def test_columns_that_are_not_sequences_are_named(self, name, column):
        # a dict of masks escaped as KeyError, a float or an iterator as a
        # TypeError from len()
        columns = {"masks": [1], "masses": [1.0], name: column}
        message = f"^{name} must be a sequence, not a {type(column).__name__}$"
        with pytest.raises(EvidenceError, match=message) as raised:
            MassFunction(Frame(("a", "b")), **columns)
        assert type(raised.value) is EvidenceError

    def test_any_sequence_of_masks_builds_the_same_mass(self):
        masses = (0.25, 0.25, 0.5)
        built = [MassFunction(_AB, masks, masses) for masks in ([1, 2, 3], (1, 2, 3), range(1, 4))]
        assert built[0] == built[1] == built[2]
        assert built[2].masks == (1, 2, 3)


# Values each mass rule handles differently: NaN, infinities, negatives, both
# zeros, an int too large for a float, a bool, a string, an int, a Fraction,
# and finite floats whose sum overflows.
ODD_MASSES = (
    math.nan, math.inf, -math.inf, -0.5, -0.0, 0.0, 10**400, True, "1", 1, 0,
    Fraction(1, 4), 1e308, 5e-324,
)
# Masks each mask check handles differently on a 4-element frame: empty,
# negative, past the frame (16 and a 65-bit int), and not ints at all.
ODD_MASKS = (0, -1, 16, 1 << 64, 1.0, True, "1", None, [1], Fraction(1))


# Orders in which mass_columns lists its entries: as drawn, ascending by mask
# (repeated masks side by side), each cardinality's masks descending with the
# cardinalities ascending (the order CardinalityProfile.to_mass builds), and
# shuffled, where repeated masks meet only once sorted.
COLUMN_ORDERS = ("drawn", "ascending", "descending-runs", "shuffled")


@st.composite
def mass_columns(draw) -> tuple[Frame, list[int], list]:
    """A 4-element frame and parallel mask and mass columns in one of
    COLUMN_ORDERS: masks distinct or not, and equal float masses summing
    to 1 with zero masses among them, a few replaced by values from
    ODD_MASSES or other floats, and sometimes a mask by one from
    ODD_MASKS."""
    frame = Frame.generic(4)
    size = draw(st.integers(min_value=0, max_value=6))
    zeros = draw(st.lists(st.sampled_from((0.0, -0.0)), max_size=2))
    masks = draw(st.lists(st.integers(min_value=1, max_value=15), min_size=size + len(zeros),
                          max_size=size + len(zeros), unique=draw(st.booleans())))
    masses = [1.0 / size] * size + zeros if size else zeros
    order = draw(st.sampled_from(COLUMN_ORDERS))
    entries = list(zip(masks, masses))
    if order == "ascending":
        entries.sort(key=lambda entry: entry[0])
    elif order == "descending-runs":
        entries.sort(key=lambda entry: (entry[0].bit_count(), -entry[0]))
    elif order == "shuffled":
        entries = draw(st.permutations(entries))
    masks, masses = [mask for mask, _ in entries], [mass for _, mass in entries]
    for i in draw(st.lists(st.integers(min_value=0, max_value=len(masks) - 1), max_size=3)
                  if masks else st.just([])):
        masses[i] = draw(st.one_of(st.sampled_from(ODD_MASSES), st.floats(0.0, 1.0)))
    if masks and not draw(st.integers(0, 3)):
        masks[draw(st.integers(0, len(masks) - 1))] = draw(st.sampled_from(ODD_MASKS))
    return frame, masks, masses


def _per_entry_reference(frame: Frame, masks: list[int], masses: list) -> MassFunction:
    """The per-entry construction the bulk checks must agree with: each mask
    through Subset's rule in entry order, then each mass through _as_mass,
    zero masses dropped, the rest sorted by mask and their exact sum checked
    (inf when it overflows).  The result is set up as pickle restores it,
    without the constructor."""
    for mask in masks:
        Subset(frame, mask)
    kept = {}
    for mask, mass in zip(masks, masses):
        mass = _as_mass(mass, (frame, mask))
        if mask in kept:
            raise DuplicateSubsetError(f"duplicate assignment for {Subset(frame, mask)!r}")
        kept[mask] = mass
    focal = tuple(sorted(mask for mask, mass in kept.items() if mass > 0.0))
    values = tuple(kept[mask] for mask in focal)
    try:
        total = math.fsum(values)
    except OverflowError:
        total = math.inf
    if abs(total - 1.0) > MASS_TOLERANCE:
        raise NonUnitTotalError(f"focal masses sum to {total!r}, expected 1")
    mass = MassFunction.__new__(MassFunction)
    mass.__setstate__((None, {"frame": frame, "masks": focal, "masses": values}))
    return mass


def _outcome(build):
    try:
        mass = build()
    except Exception as exc:
        return type(exc), str(exc)
    return mass, [type(value) for value in mass.masses]


def _edge(sign: int, inside: bool) -> float:
    """The double furthest from 1 on the ``sign`` side that the unit-total
    check accepts, or the next one out from it."""
    edge = 1.0 + sign * MASS_TOLERANCE
    away = 2.0 if sign > 0 else 0.0
    while abs(edge - 1.0) > MASS_TOLERANCE:
        edge = math.nextafter(edge, 1.0)
    while abs(math.nextafter(edge, away) - 1.0) <= MASS_TOLERANCE:
        edge = math.nextafter(edge, away)
    return edge if inside else math.nextafter(edge, away)


@st.composite
def near_unit_edge_terms(draw) -> list[float]:
    """1 to 65,535 nonnegative terms, some zero and some tiny, whose exact
    total lies within a fraction of an ulp of a double a few ulps from
    1 +- MASS_TOLERANCE, or about 4n ulps inside it, where a plain sum of n
    terms may first accept."""
    n = draw(st.integers(1, 65_535))
    edge = _edge(draw(st.sampled_from((-1, 1))), inside=True)
    inward = -1 if edge > 1.0 else 1
    steps = draw(st.integers(-4, 4)) + draw(st.sampled_from((0, 0, 4 * n, 5 * n)))
    total = edge + inward * steps * math.ulp(edge)
    if n == 1:
        return [total]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.integers(1, 60))
    weights = [rng.random() ** spread for _ in range(n - 1)]
    if draw(st.booleans()):
        weights[::3] = [0.0] * len(weights[::3])
    weights[-1] = 1.0
    scale = 0.6 * total / math.fsum(weights)
    terms = [w * scale for w in weights]
    # the fsum lies in [total / 2, total], so the difference is exact
    terms.append(total - math.fsum(terms))
    rng.shuffle(terms)
    return terms


def _unit_total_outcome(check, terms):
    try:
        check(terms, "focal masses")
    except NonUnitTotalError as exc:
        return str(exc)
    return None


def _exact_unit_total(terms, what):
    total = math.fsum(terms)
    if abs(total - 1.0) > MASS_TOLERANCE:
        raise NonUnitTotalError(f"{what} sum to {total!r}, expected 1")


class TestUnitTotal:
    @given(terms=near_unit_edge_terms())
    @example(terms=[_edge(1, inside=True)])
    @example(terms=[_edge(1, inside=False)])
    @example(terms=[_edge(-1, inside=True)])
    @example(terms=[_edge(-1, inside=False)])
    @example(terms=[_edge(1, inside=True) / 4096] * 4096)
    @example(terms=[_edge(-1, inside=False) / 4096] * 4096)
    @settings(max_examples=300, deadline=None)
    def test_quick_sum_decides_as_the_exact_sum(self, terms):
        # the plain sum accepts at once only where its error bound proves the
        # fsum within the tolerance; every other total is decided by fsum
        assert (_unit_total_outcome(core._check_unit_total, terms)
                == _unit_total_outcome(_exact_unit_total, terms))

    def test_edge_examples_sit_one_ulp_apart(self):
        for sign in (1, -1):
            inside, outside = _edge(sign, inside=True), _edge(sign, inside=False)
            assert math.nextafter(inside, outside) == outside
            assert abs(inside - 1.0) <= MASS_TOLERANCE < abs(outside - 1.0)


class TestBulkCheck:
    @given(columns=mass_columns())
    # a repeated mask that only the sort brings next to its twin, with a
    # zero mass between; the same entries ascending; and descending runs
    @example(columns=(Frame.generic(4), [6, 8, 3, 6], [0.5, 0.0, 0.5, 0.0]))
    @example(columns=(Frame.generic(4), [3, 6, 6, 8], [0.5, 0.5, 0.0, 0.0]))
    @example(columns=(Frame.generic(4), [8, 4, 2, 1, 12, 3], [0.25, 0.0, 0.25, 0.0, 0.25, 0.25]))
    @settings(max_examples=400, deadline=None)
    def test_bulk_check_never_changes_an_outcome(self, columns):
        frame, masks, masses = columns
        expected = _outcome(lambda: _per_entry_reference(frame, masks, masses))
        assert _outcome(lambda: MassFunction(frame, masks, masses)) == expected
        if all(type(mask) is int and 0 < mask < 16 for mask in masks):
            assignments = [(Subset(frame, mask), mass) for mask, mass in zip(masks, masses)]
            assert _outcome(lambda: MassFunction.from_assignments(frame, assignments)) == expected


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
        assert list(zip(profile.cards, profile.counts, profile.masses)) == [
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
        assert list(zip(profile.cards, profile.counts, profile.masses)) == [(5, 1, 1.0)]

    def test_expansion_of_max_deng_two(self):
        # normalizer over {a}, {b}, {a,b} is 1 + 1 + 3 = 5
        mass = max_deng(2).to_mass(Frame(("a", "b")))
        got = {subset.members: m for subset, m in mass.focal}
        assert got == {("a",): 1 / 5, ("b",): 1 / 5, ("a", "b"): 3 / 5}
        assert information_dimension(mass).entropy_bits == pytest.approx(math.log2(5), abs=1e-12)

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

    def test_total_mass_sums_largest_first(self):
        # math.fsum slows as its partials list grows, and the layer weights of
        # max_deng(1024) span about 800 binary orders: summed smallest first,
        # in the cardinality order they are stored in, the weights cost more
        # than total_mass, which sorts the same weights largest first
        profile = max_deng(1024)
        ascending = [
            2.0 ** (math.log2(count) + log2_mass)
            for count, log2_mass in zip(profile.counts, profile.log2_masses)
        ]

        def best_of_five(fn):
            times = []
            for _ in range(5):
                start = time.perf_counter()
                fn()
                times.append(time.perf_counter() - start)
            return min(times)

        assert best_of_five(profile.total_mass) < best_of_five(lambda: math.fsum(ascending))
        # the weights are formed once, when the profile is built, and kept
        # in cardinality order
        assert type(profile._weights) is tuple
        assert profile._weights == tuple(
            2.0 ** (log2_count + log2_mass)
            for log2_count, log2_mass in zip(profile._log2_counts, profile.log2_masses)
        )
        assert profile.total_mass() == math.fsum(ascending)

    def test_partial_layer_rejected(self):
        profile = CardinalityProfile.from_counts(3, {1: (2, 0.5)})
        with pytest.raises(PartialLayerError):
            profile.to_mass()

    def test_frame_size_mismatch_rejected(self):
        with pytest.raises(EvidenceError):
            vacuous(3).to_mass(Frame(("a", "b")))

    @pytest.mark.parametrize("frame", [["a", "b", "c"], "abc", 3])
    def test_expansion_frame_must_be_a_frame(self, frame):
        # a list, a str or an int escaped as an AttributeError on .size
        with pytest.raises(EvidenceError, match=r"^frame .* is not a Frame$") as raised:
            vacuous(3).to_mass(frame)
        assert type(raised.value) is EvidenceError

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

    def test_count_bound_holds_above_the_middle_layer(self):
        # C(10, 9) is read as C(10, 1)
        assert CardinalityProfile.from_counts(10, {9: (10, 0.1)}).counts == (10,)
        with pytest.raises(EvidenceError, match=r"11 sets of cardinality 9 exceed C\(10,9\)"):
            CardinalityProfile.from_counts(10, {9: (11, 1 / 11)})

    @pytest.mark.parametrize("n", [*range(1, 71), 1023, 1024])
    def test_binomial_row_is_exact(self, n):
        # the row walks to n // 2 and mirrors the rest, the middle entry of an
        # even n once
        assert _binomial_row(n) == tuple(math.comb(n, k) for k in range(n + 1))

    @pytest.mark.parametrize("order", [
        [*range(1, 71)],  # ascending: a Pascal step from each row to the next
        [70, 69, 12, 3, 1],  # jumps down: each a walk
        [9, 9, 10, 10, 10],  # repeats: the row kept from the call before
        [1023, 1024, 1023, 1024],
        [5, 6, 40, 41, 42, 2, 1, 2, 64],
    ])
    def test_binomial_row_is_exact_in_any_call_order(self, order):
        _binomial_row(order[0] + 3)  # no step leads into the first row
        for n in order:
            assert _binomial_row(n) == tuple(math.comb(n, k) for k in range(n + 1)), n

    def test_binomial_rows_returned_cannot_change_a_later_row(self):
        row = _binomial_row(10)
        with pytest.raises(TypeError):
            row[3] = 0
        with pytest.raises(AttributeError):
            row.append(1)
        # the kept row, then a step from it
        assert _binomial_row(10) == tuple(math.comb(10, k) for k in range(11))
        assert _binomial_row(11) == tuple(math.comb(11, k) for k in range(12))

    def test_binomial_rows_stay_exact_under_racing_threads(self):
        # the kept (n, row) pair is replaced in one assignment, so a thread
        # switched out mid-step never pairs one n with another n's row
        rows = {n: tuple(math.comb(n, k) for k in range(n + 1)) for n in range(1, 42)}
        wrong = []

        def sweep(seed):
            # every thread sweeps one range, so they often ask for one n or
            # the next, and step from a row another thread kept
            rng = random.Random(seed)
            for _ in range(150):
                for n in range(rng.randrange(1, 3), 42):
                    if _binomial_row(n) != rows[n]:
                        wrong.append(n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=sweep, args=(seed,)) for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    @pytest.mark.parametrize("family", [max_deng, uniform_powerset])
    def test_full_layer_families_walk_one_binomial_row(self, family, monkeypatch):
        walked = []

        def counted(n):
            walked.append(n)
            return _binomial_row(n)

        monkeypatch.setattr(core, "_binomial_row", counted)
        profile = family(40)
        assert walked == [40]
        assert profile.counts == tuple(math.comb(40, k) for k in range(1, 41))

    @pytest.mark.parametrize("family", [max_deng, uniform_powerset])
    def test_full_layer_counts_and_their_log2_hold_at_every_size(self, family):
        # full layers slice their counts from the binomial row and take the
        # log2 of half of them, mirrored by C(N, k) = C(N, N - k)
        for n in range(1, PROFILE_LIMIT + 1):
            profile = family(n)
            assert profile.cards == tuple(range(1, n + 1)), n
            if n <= 70 or n >= 1020:
                assert profile.counts == tuple(math.comb(n, k) for k in profile.cards), n
            assert profile._log2_counts == tuple(map(math.log2, profile.counts)), n

    @pytest.mark.parametrize("size, rows", [
        (1, {1: (1, 1.0)}),
        (4, {1: (4, 0.125), 2: (6, 1 / 12)}),
        (5, {2: (10, 0.05), 4: (5, 0.1)}),
        (1000, {499: (math.comb(1000, 499), 0.5 / math.comb(1000, 499)),
                501: (math.comb(1000, 501), 0.5 / math.comb(1000, 501))}),
    ])
    def test_listed_log2_counts_are_the_log2_of_each_count(self, size, rows):
        profile = CardinalityProfile.from_counts(size, rows)
        assert profile._log2_counts == tuple(map(math.log2, profile.counts))

    def test_listed_counts_walk_no_binomial_row(self, monkeypatch):
        # a row for one layer of a 20,000-element frame would walk the
        # recurrence 10,000 steps; listed counts are checked by math.comb
        def walk(n):
            raise AssertionError(f"walked the binomial row of {n}")

        monkeypatch.setattr(core, "_binomial_row", walk)
        assert vacuous(20_000).counts == (1,)
        assert uniform_bayesian(20_000).counts == (20_000,)
        assert CardinalityProfile.from_counts(1000, {999: (1000, 1 / 1000)}).counts == (1000,)

    @pytest.mark.parametrize(
        "cards, counts, message",
        [
            # two counts of 0; a count of 0 before a count above C(4, 3), and
            # the reverse
            ((1, 2, 3), (0, 6, 0), "^profile rows must have positive set counts$"),
            ((1, 2, 3), (4, 0, 9), "^profile rows must have positive set counts$"),
            ((1, 2, 3), (4, 9, 0), r"^9 sets of cardinality 2 exceed C\(4,2\)$"),
            ((1, 2, 3), (4, 7, 5), r"^7 sets of cardinality 2 exceed C\(4,2\)$"),
            # a count above C(4, 2) before cardinalities above N
            ((1, 2, 5, 6), (4, 7, 1, 1), r"^7 sets of cardinality 2 exceed C\(4,2\)$"),
            ((1, 5, 6), (4, 1, 1), r"^cardinality 5 outside 1\.\.4$"),
            ((0, 5), (1, 1), r"^cardinality 0 outside 1\.\.4$"),
        ],
    )
    def test_first_bad_layer_is_named(self, cards, counts, message):
        # the bulk checks fail on two bad layers; the message is the one a
        # walk in cardinality order meets first
        masses = [0.1] * len(cards)
        with pytest.raises(EvidenceError, match=message) as raised:
            CardinalityProfile._from_columns(
                4, cards, counts, masses, list(map(math.log2, masses))
            )
        assert type(raised.value) is EvidenceError

    def test_vacuous_builds_on_a_large_frame(self):
        profile = vacuous(20_000)
        assert (profile.frame_size, profile.cards, profile.counts) == (20_000, (20_000,), (1,))

    def test_overflowing_total_is_not_one(self):
        # count * mass = 2^1150 overflows a double; OverflowError escaped
        with pytest.raises(NonUnitTotalError, match=r"^profile masses sum to inf, expected 1$"):
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
            ([(1, (1, 1.0))], EvidenceError, "got a list"),
        ],
    )
    def test_constructor_reaches_every_column_check(self, rows, error, message):
        with pytest.raises(error, match=message):
            CardinalityProfile.from_counts(2, rows)

    def test_row_constructor_is_gone(self):
        # from_counts and the private _from_columns are the only ways in, and
        # the columns the only form
        with pytest.raises(TypeError):
            CardinalityProfile(2, ((2, (1, 1.0, 0.0)),))
        for name in ("from_rows", "_set_columns", "rows"):
            assert not hasattr(CardinalityProfile, name)
        assert not hasattr(core, "ProfileRow")

    @pytest.mark.parametrize("args", [(), (3, (1,), (3,), (1 / 3,), (-math.log2(3),))])
    def test_direct_construction_names_from_counts(self, args):
        # a bare call built a profile with unset slots; pickle and copy
        # restore through __new__ and __setstate__ (see test_values.py)
        with pytest.raises(TypeError, match=r"CardinalityProfile\.from_counts"):
            CardinalityProfile(*args)

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
        assert (profile.cards, profile.counts) == ((2,), (1,))

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
        for subset in (Subset(frame, mask) for mask in range(1, 1 << frame.size)):
            if subset.cardinality == k:
                assignments.append((subset, share))
    return MassFunction.from_assignments(frame, assignments)


def _symmetry_edge(mass: float, sign: int, inside: bool) -> float:
    """The double furthest from ``mass`` on the ``sign`` side that is close
    to it under the symmetry rule, or the next one out from it."""
    def close(other):
        return math.isclose(other, mass, rel_tol=SYMMETRY_TOLERANCE, abs_tol=0.0)

    away = math.inf if sign > 0 else 0.0
    edge = mass * (1.0 + sign * SYMMETRY_TOLERANCE)
    while not close(edge):
        edge = math.nextafter(edge, mass)
    while close(math.nextafter(edge, away)):
        edge = math.nextafter(edge, away)
    return edge if inside else math.nextafter(edge, away)


@st.composite
def near_symmetric_masses(draw) -> MassFunction:
    """Mass functions on 1 to 6 elements, their layers full or partial, in
    which each cardinality's focal sets share one mass, but for up to three
    masses moved to the edge of SYMMETRY_TOLERANCE, one double past it, or
    far past it."""
    n = draw(st.integers(min_value=1, max_value=6))
    masks = draw(st.lists(st.integers(min_value=1, max_value=(1 << n) - 1), min_size=1,
                          max_size=1 << n, unique=True))
    weights = {card: draw(st.floats(0.05, 1.0)) for card in sorted({m.bit_count() for m in masks})}
    total = math.fsum(weights[mask.bit_count()] for mask in masks)
    masses = [weights[mask.bit_count()] / total for mask in masks]
    for i in draw(st.lists(st.integers(0, len(masks) - 1), max_size=3)):
        sign = draw(st.sampled_from((-1, 1)))
        where = draw(st.sampled_from(("edge", "past", "far")))
        if where == "far":
            masses[i] *= 1.0 + sign * 100 * SYMMETRY_TOLERANCE
        else:
            masses[i] = _symmetry_edge(masses[i], sign, inside=where == "edge")
    return MassFunction(Frame.generic(n), masks, masses)


def _per_entry_profile(mass: MassFunction) -> CardinalityProfile:
    """The per-entry grouping the C-level one must agree with: the masses
    of each cardinality in mask order, each within SYMMETRY_TOLERANCE of
    the first, which the layer keeps, and the lowest uneven cardinality
    named."""
    layers = {}
    for mask, value in zip(mass.masks, mass.masses):
        layers.setdefault(mask.bit_count(), []).append(value)
    rows = {}
    for card in sorted(layers):
        values = layers[card]
        if not all(math.isclose(value, values[0], rel_tol=SYMMETRY_TOLERANCE, abs_tol=0.0)
                   for value in values):
            raise NotCardinalitySymmetricError(
                f"focal sets of cardinality {card} carry unequal masses"
            )
        rows[card] = (len(values), values[0])
    return CardinalityProfile.from_counts(mass.frame.size, rows)


def _profile_outcome(build):
    try:
        return build()
    except EvidenceError as exc:
        return type(exc), str(exc)


class TestProfileGrouping:
    @given(mass=near_symmetric_masses())
    @settings(max_examples=300, deadline=None)
    def test_grouping_matches_the_per_entry_reference(self, mass):
        assert (_profile_outcome(mass.to_profile)
                == _profile_outcome(lambda: _per_entry_profile(mass)))

    @pytest.mark.parametrize("sign", [-1, 1])
    def test_a_mass_at_the_edge_is_kept_apart_from_one_past_it(self, sign):
        frame = Frame.generic(3)
        share = 1 / 7
        for inside in (True, False):
            # the singletons {e1}, {e2}, {e3}, the second moved off the first
            masses = [share, _symmetry_edge(share, sign, inside), share, *[share] * 4]
            mass = MassFunction(frame, list(range(1, 8)), masses)
            if inside:
                profile = mass.to_profile()
                assert profile == _per_entry_profile(mass)
                assert profile.masses[0] == share
                assert profile.counts == (3, 3, 1)
            else:
                message = "^focal sets of cardinality 1 carry unequal masses$"
                with pytest.raises(NotCardinalitySymmetricError, match=message):
                    mass.to_profile()

    def test_the_lowest_uneven_cardinality_is_named(self):
        # mask 7, of cardinality 3, comes before mask 9, of cardinality 2
        share = 1 / 15
        masses = [share] * 15
        masses[7 - 1] = masses[9 - 1] = _symmetry_edge(share, 1, inside=False)
        mass = MassFunction(Frame.generic(4), range(1, 16), masses)
        with pytest.raises(NotCardinalitySymmetricError, match="cardinality 2 carry"):
            mass.to_profile()


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
                for card, share in zip(profile.cards, profile.masses):
                    for members in itertools.combinations(range(n), card):
                        mask = sum(1 << i for i in members)
                        expected.append((Subset(frame, mask), share))
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
        a = information_dimension(mass)
        b = information_dimension(shuffled)
        assert b.entropy_bits == pytest.approx(a.entropy_bits, abs=1e-12)
        assert b.dimension == pytest.approx(a.dimension, abs=1e-12)
        assert b.degenerate == a.degenerate

    def test_profile_survives_relabeling(self):
        mass = uniform_powerset(4).to_mass()
        shuffled = permute_mass(mass, [2, 0, 3, 1])
        assert shuffled.to_profile() == mass.to_profile()


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


# The rounding each bound below is allowed, measured on this kernel (CPython
# 3.11, x86-64): the largest excess seen over 200,000 random masses on up to
# 5 labels, drawn like arbitrary_assignments with tiny, equal and zero
# weights mixed in, and over the 526 tight masses of _tight_masses that are
# not degenerate.
EPS = sys.float_info.epsilon
# S >= log2 k: exceeded by at most 1 ulp of log2 k (random masses)
SPLIT_ULPS = 4
# H <= k S - (k - 1) log2 k: exceeded by at most 0.98 k S EPS (tight masses);
# the two products the bound subtracts each round by about k S EPS / 2
JENSEN_EPS = 4
# d <= 1 for a Bayesian mass: exceeded by at most 1 EPS (uniform on 10)
BAYESIAN_EPS = 4


def _check_bounds(mass: MassFunction):
    """The bounds on a mass function's report, each within its error.

    With x_A = m(A) log2(2^|A| - 1) >= 0, S = log2 sum 2^x_A and
    H = sum x_A - sum m(A) log2 m(A), over k focal sets:
    - 0 <= d: each entropy term m(A) (log2(2^|A| - 1) - log2 m(A)) is
      non-negative when m(A) <= 1, so exactly, with no error;
    - S >= log2 k: each 2^x_A >= 1;
    - H <= k S - (k - 1) log2 k: Jensen gives sum x_A <= k (S - log2 k),
      and the Shannon part is at most log2 k, so d < k for k >= 2;
    - a Bayesian mass has S = log2 k exactly and H <= log2 k, so d <= 1.
    """
    report = information_dimension(mass)
    k = len(mass)
    entropy, split, d = report.entropy_bits, report.split_scale_bits, report.dimension
    assert d >= 0.0
    if report.degenerate:
        return
    log2_k = math.log2(k)
    assert split >= log2_k - SPLIT_ULPS * math.ulp(log2_k)
    assert entropy <= k * split - (k - 1) * log2_k + JENSEN_EPS * k * split * EPS
    if k >= 2:
        assert d < k
    if mass.is_bayesian():
        assert d <= 1.0 + BAYESIAN_EPS * EPS


def _tight_masses():
    """Equal masses on k sets of one cardinality, where Jensen's bound is
    an equality: every layer of up to 12 labels, k drawn across it."""
    rng = random.Random(7)
    for n in range(1, 13):
        frame = Frame.generic(n)
        for card in range(1, n + 1):
            layer = [mask for mask in range(1, 1 << n) if mask.bit_count() == card]
            sizes = {1, min(2, len(layer)), min(3, len(layer)), len(layer)}
            sizes.update(rng.randint(1, len(layer)) for _ in range(6))
            for k in sorted(sizes):
                yield MassFunction(frame, rng.sample(layer, k), [1 / k] * k)


class TestBoundsThatHold:
    @given(data=arbitrary_assignments())
    @settings(max_examples=300, deadline=None)
    def test_bounds_hold_on_arbitrary_masses(self, data):
        _check_bounds(MassFunction.from_assignments(*data))

    def test_bounds_hold_where_jensen_is_tight(self):
        masses = list(_tight_masses())
        assert len(masses) == 538
        for mass in masses:
            _check_bounds(mass)

    def test_bayesian_masses_reach_at_most_one(self):
        for n in range(2, 40):
            frame = Frame.generic(n)
            _check_bounds(MassFunction(frame, [1 << i for i in range(n)], [1 / n] * n))


def _json_reference(text: str) -> MassFunction:
    """mass_from_json's result for well-formed text, without its decoder hook."""
    data = json.loads(text)
    frame = Frame(tuple(data["frame"]))
    return MassFunction.from_assignments(
        frame, [(frame.subset(entry["elements"]), entry["mass"]) for entry in data["focal"]]
    )


_ENTRY = {"elements": ["a"], "mass": 1.0}


class _Pairs(list):
    """A JSON object as its ``(key, value)`` pairs, so a key may repeat."""


class _Raw(str):
    """A JSON number written as is, such as ``1e400``."""


def _dump(value) -> str:
    if isinstance(value, _Pairs):
        return "{" + ", ".join(f"{json.dumps(key)}: {_dump(item)}" for key, item in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(_dump, value)) + "]"
    return value if isinstance(value, _Raw) else json.dumps(value)


def _entry(elements, mass, mass_first=False) -> _Pairs:
    pairs = [("elements", elements), ("mass", mass)]
    return _Pairs(pairs[::-1] if mass_first else pairs)


# each defect maps an entry's (elements, mass) to its broken form; the
# first set leaves it a mask, with any mass the constructor must judge
_PLAIN_DEFECTS = {
    "int-mass": lambda elements, mass: (elements, int(mass > 0.5)),
    "nan-mass": lambda elements, mass: (elements, math.nan),
    "overflowing-mass": lambda elements, mass: (elements, _Raw("1e400")),
    "negative-mass": lambda elements, mass: (elements, -mass),
    "half-mass": lambda elements, mass: (elements, mass / 2),
    "bool-mass": lambda elements, mass: (elements, True),
    "string-mass": lambda elements, mass: (elements, "0.5"),
    "null-mass": lambda elements, mass: (elements, None),
}
_OTHER_DEFECTS = {
    "repeated-label": lambda elements, mass: (elements + elements[:1], mass),
    "unknown-label": lambda elements, mass: (elements + ["z"], mass),
    "number-label": lambda elements, mass: ([1, *elements], mass),
    "null-label": lambda elements, mass: (elements + [None], mass),
    "list-label": lambda elements, mass: (elements + [elements[:1]], mass),
    "object-label": lambda elements, mass: (elements + [_Pairs([("x", 1)])], mass),
    "entry-label": lambda elements, mass: ([_entry(elements, mass)], mass),
    "no-labels": lambda elements, mass: ([], mass),
    "entry-mass": lambda elements, mass: (elements, _entry(elements, mass)),
    "list-mass": lambda elements, mass: (elements, [_entry(elements, mass)]),
}
_DEFECTS = {**_PLAIN_DEFECTS, **_OTHER_DEFECTS}


@st.composite
def wire_documents(draw):
    """JSON text in or near the mass-function format, and whether the
    mask decode must take it (no defect that sends it to the strict
    path)."""
    frame = draw(st.permutations("abcdef"[: draw(st.integers(1, 6))]))
    masks = draw(
        st.lists(st.integers(1, (1 << len(frame)) - 1), min_size=1, max_size=10, unique=True)
    )
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(masks), max_size=len(masks)))
    noisy = draw(st.booleans())
    plain = True
    focal, first = [], None
    for mask, weight in zip(masks, weights):
        elements = draw(st.permutations([lab for i, lab in enumerate(frame) if mask >> i & 1]))
        first = first or elements
        mass = weight / math.fsum(weights)
        if noisy and draw(st.booleans()):
            defect = draw(st.sampled_from(sorted(_DEFECTS)))
            elements, mass = _DEFECTS[defect](elements, mass)
            plain = plain and defect in _PLAIN_DEFECTS
        entry = _entry(elements, mass, mass_first=draw(st.booleans()))
        if noisy and not draw(st.integers(0, 15)):
            entry.append(("mass", mass))
        focal.append(entry)
    if noisy and not draw(st.integers(0, 7)):
        # the first entry's set again, its labels in reverse
        focal.append(_entry(first[::-1], 0.5))
    document = [("frame", frame), ("focal", focal)]
    if draw(st.booleans()):
        document.reverse()
    if noisy and not draw(st.integers(0, 15)):
        return _dump(focal[0]), False
    return _dump(_Pairs(document)), plain


def _parse_outcome(parse, text):
    """What ``parse`` returns, or the type and message of what it raises."""
    try:
        return parse(text)
    except (EvidenceError, ValueError) as exc:
        return type(exc), str(exc)


def _traced(call, *args):
    """``call(*args)`` and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _shuffled_power_set_text(focal_first: bool = False) -> str:
    """A full 14-label power set, the frame and each entry's labels
    shuffled, written with ``"frame"`` or ``"focal"`` first."""
    rng = random.Random(14)
    labels = [f"e{i}" for i in range(1, 15)]
    rng.shuffle(labels)
    focal = []
    for mask in range(1, 1 << 14):
        elements = [lab for i, lab in enumerate(labels) if mask >> i & 1]
        rng.shuffle(elements)
        focal.append({"elements": elements, "mass": 1 / ((1 << 14) - 1)})
    rng.shuffle(labels)
    if focal_first:
        return json.dumps({"focal": focal, "frame": labels})
    return json.dumps({"frame": labels, "focal": focal})


def _strict_fails(monkeypatch) -> None:
    """Patch the strict path to fail, so a parse must take the mask decode."""
    def strict(text):
        raise AssertionError("a valid text took the strict parse")

    monkeypatch.setattr(wire, "_strict_mass_from_json", strict)


# frames that the guess reads as no labels, or as labels that the frame
# check then rejects as the strict path does
_BAD_FRAMES = pytest.mark.parametrize(
    "value, guess",
    [
        (json.dumps([f"l{i}" for i in range(65)]), None),
        ('["a", 1]', None),
        ('["a", "b", "a"]', ["a", "b", "a"]),
        ('{"a": "b"}', None),
        ('["a", "b"', None),
        ('"a"', None),
        ("[]", []),
    ],
    ids=["65-labels", "non-string-label", "repeated-labels", "an-object", "truncated",
         "a-string", "empty"],
)


class TestJsonFormat:
    @given(data=arbitrary_assignments(), orders=st.lists(st.booleans(), min_size=32))
    @settings(max_examples=150, deadline=None)
    def test_both_key_orders_parse_like_the_reference(self, data, orders):
        frame, assignments = data
        focal = [
            {"mass": mass, "elements": list(subset.members)} if mass_first
            else {"elements": list(subset.members), "mass": mass}
            for (subset, mass), mass_first in zip(assignments, orders)
        ]
        text = json.dumps({"frame": list(frame.labels), "focal": focal})
        assert mass_from_json(text) == _json_reference(text)

    def test_mass_before_elements(self):
        text = '{"focal": [{"mass": 0.25, "elements": ["b"]}, ' \
            '{"elements": ["a", "b"], "mass": 0.75}], "frame": ["a", "b"]}'
        frame = Frame(("a", "b"))
        assert mass_from_json(text) == MassFunction.from_assignments(
            frame, {frame.singleton("b"): 0.25, frame.full_set(): 0.75}
        )

    @pytest.mark.parametrize(
        "text, error, message",
        [
            (json.dumps(_ENTRY), EvidenceError,
             r"^the top-level JSON value needs exactly the keys \['focal', 'frame'\]: "
             r"unknown \['elements', 'mass'\], missing \['focal', 'frame'\]$"),
            ('{"mass": 1.0, "elements": ["a"]}', EvidenceError,
             r"^the top-level JSON value needs exactly the keys"),
            (json.dumps({"frame": _ENTRY, "focal": [_ENTRY]}), EvidenceError,
             '^"frame" must be a list of labels$'),
            (json.dumps({"frame": ["a"], "focal": _ENTRY}), EvidenceError,
             '^"focal" must be a list of assignments$'),
            (json.dumps({"frame": ["a", _ENTRY], "focal": [_ENTRY]}), EvidenceError,
             "^frame labels must be nonempty strings$"),
            # an entry nested as a label or a mass is shown as it was written
            (json.dumps({"frame": ["a"], "focal": [{"elements": [_ENTRY], "mass": 1.0}]}),
             UnknownLabelError,
             r"^label \{'elements': \['a'\], 'mass': 1\.0\} is not in the frame$"),
            (json.dumps({"frame": ["a"], "focal": [{"elements": ["a"], "mass": _ENTRY}]}),
             EvidenceError,
             r"^mass \{'elements': \['a'\], 'mass': 1\.0\} of Subset\(\{a\}\) "
             r"is not a real number$"),
            (json.dumps({"frame": ["a"], "focal": [{"elements": [["a"]], "mass": 1.0}]}),
             UnknownLabelError, r"^label \['a'\] is not in the frame$"),
            (json.dumps({"frame": ["a"], "focal": [{"elements": "a", "mass": 1.0}]}),
             EvidenceError, '^"elements" must be a list of labels$'),
            (json.dumps({"frame": ["a"], "focal": [{"mass": 1.0, "elements": "a"}]}),
             EvidenceError, '^"elements" must be a list of labels$'),
            ('{"frame": ["a"], "focal": [{"mass": 1.0, "mass": 1.0}]}', EvidenceError,
             r"^repeated keys in a mass-function JSON object: \['mass'\]$"),
            ('{"frame": ["a"], "focal": [{"mass": 1.0, "elements": ["a"], "mass": 1.0}]}',
             EvidenceError, r"^repeated keys in a mass-function JSON object: \['mass'\]$"),
        ],
        ids=[
            "top-level", "top-level-mass-first", "as-frame", "as-focal", "in-frame", "as-label",
            "as-mass", "list-label", "elements-a-string", "elements-a-string-mass-first",
            "mass-twice", "mass-twice-around-elements",
        ],
    )
    def test_error_types_and_messages_around_entries(self, text, error, message):
        with pytest.raises(error, match=message) as caught:
            mass_from_json(text)
        assert type(caught.value) is error
        assert _parse_outcome(wire._strict_mass_from_json, text) == (error, str(caught.value))

    def test_nesting_near_the_recursion_limit_parses_as_the_strict_path(self):
        # the mask decoder's own frames count toward the limit on some
        # Pythons, so near it only the strict parse may get through; the
        # lambda calls that parse from the depth mass_from_json calls it
        limit = sys.getrecursionlimit()
        for depth in range(limit // 2, limit):
            nested = "[" * depth + json.dumps(_ENTRY) + "]" * depth
            text = '{"frame": ["a"], "focal": [], "x": %s}' % nested
            expected = _parse_outcome(lambda text: wire._strict_mass_from_json(text), text)
            assert _parse_outcome(mass_from_json, text) == expected

    def test_round_trip(self, skewed_pair_mass):
        text = mass_to_json(skewed_pair_mass)
        assert mass_from_json(text) == skewed_pair_mass

    @given(document=wire_documents())
    @settings(max_examples=300, deadline=None)
    def test_mask_decode_matches_the_strict_path(self, document):
        text, plain = document
        expected = _parse_outcome(wire._strict_mass_from_json, text)
        decoded = _parse_outcome(wire._mask_decoded, text)
        assert decoded == expected or (decoded is None and not plain)
        assert _parse_outcome(mass_from_json, text) == expected

    @pytest.mark.parametrize("focal_first", [False, True])
    @pytest.mark.parametrize("bad", ["0.5", True, None], ids=["string", "bool", "null"])
    def test_mask_decode_rejects_a_non_real_mass_as_the_strict_path(self, bad, focal_first):
        # the decode hands such a mass to the constructor, which names it
        # on the same renumbered mask, after the entries before it and
        # before a repeated set after it
        focal = [{"elements": ["c", "a"], "mass": 0.25}, {"mass": bad, "elements": ["b", "c"]},
                 {"elements": ["a", "c"], "mass": 0.75}]
        document = {"frame": ["a", "b", "c"], "focal": focal}
        text = json.dumps(dict(reversed(document.items())) if focal_first else document)
        message = rf"^mass {re.escape(repr(bad))} of Subset\(\{{b, c\}}\) is not a real number$"
        with pytest.raises(EvidenceError, match=message) as raised:
            wire._mask_decoded(text)
        assert _parse_outcome(wire._strict_mass_from_json, text) == (
            EvidenceError, str(raised.value)
        )
        assert _parse_outcome(mass_from_json, text) == (EvidenceError, str(raised.value))

    @staticmethod
    def _sparse_64_label_mass(focal_first: bool) -> tuple[str, MassFunction]:
        # the first entry lists the whole frame backwards, so every label's
        # first-seen bit in the focal list differs from its frame bit
        frame = Frame(tuple(f"l{i}" for i in range(64)))
        masks = [(1 << 64) - 1, 1, 1 << 8, 1 << 63, 0xFF << 56, 0x5555555555555555,
                 0x0123456789ABCDEF, 1 << 31 | 1 << 32]
        masses = [i / 36 for i in range(1, 9)]
        expected = MassFunction.from_assignments(
            frame, [(Subset(frame, mask), mass) for mask, mass in zip(masks, masses)]
        )
        focal = [{"elements": list(Subset(frame, mask).members)[::-1], "mass": mass}
                 for mask, mass in zip(masks, masses)]
        if focal_first:
            return json.dumps({"focal": focal, "frame": list(frame.labels)}), expected
        return json.dumps({"frame": list(frame.labels), "focal": focal}), expected

    def test_sparse_64_label_mass_first_seen_in_reverse(self):
        text, expected = self._sparse_64_label_mass(focal_first=False)
        assert wire._mask_decoded(text) == expected
        assert mass_from_json(text) == expected

    def test_sparse_64_label_mass_first_seen_in_reverse_focal_first(self, monkeypatch):
        # the frame closes the text, and its bits number every mask up to the top one
        text, expected = self._sparse_64_label_mass(focal_first=True)
        _strict_fails(monkeypatch)
        assert wire._mask_decoded(text) == expected
        assert mass_from_json(text) == expected

    def test_mass_to_json_power_set_takes_the_mask_decode(self, monkeypatch):
        mass = max_deng(12).to_mass()
        text = mass_to_json(mass)
        _strict_fails(monkeypatch)
        assert mass_from_json(text) == mass

    def test_frame_first_shuffled_power_set_takes_the_mask_decode(self, monkeypatch):
        text = _shuffled_power_set_text()
        _strict_fails(monkeypatch)
        assert len(mass_from_json(text)) == (1 << 14) - 1

    @staticmethod
    def _short_text(focal_first: bool) -> tuple[str, MassFunction]:
        frame = ["a", "b", "c", "d"]
        focal = [
            {"elements": ["d", "b"], "mass": 0.5},
            {"mass": 0.25, "elements": ["c"]},
            {"elements": ["c", "a", "d"], "mass": 0.25},
        ]
        if focal_first:
            text = json.dumps({"focal": focal, "frame": frame})
        else:
            text = json.dumps({"frame": frame, "focal": focal})
        frame = Frame(frame)
        return text, MassFunction.from_assignments(frame, {
            frame.subset(("b", "d")): 0.5,
            frame.singleton("c"): 0.25,
            frame.subset(("a", "c", "d")): 0.25,
        })

    @pytest.mark.parametrize("focal_first", [False, True], ids=["frame-first", "focal-first"])
    def test_short_text_takes_the_mask_decode(self, monkeypatch, focal_first):
        text, expected = self._short_text(focal_first)
        assert len(text) < 1000
        _strict_fails(monkeypatch)
        assert mass_from_json(text) == expected

    @_BAD_FRAMES
    def test_a_bad_leading_frame_parses_as_the_strict_path(self, value, guess):
        # only a list of at most 64 strings is guessed; the frame is then
        # rejected as the strict path rejects it
        for focal in ('[{"elements": ["a"], "mass": 1.0}]',
                      '[{"elements": ["b", "a"], "mass": 0.5}, {"elements": ["b"], "mass": 0.5}]'):
            text = '{"frame": %s, "focal": %s}' % (value, focal)
            assert wire._guessed_frame(text) == guess
            expected = _parse_outcome(wire._strict_mass_from_json, text)
            assert isinstance(expected, tuple)
            assert _parse_outcome(mass_from_json, text) == expected

    @_BAD_FRAMES
    def test_a_bad_closing_frame_parses_as_the_strict_path(self, value, guess):
        for focal in ('[{"elements": ["a"], "mass": 1.0}]',
                      '[{"elements": ["b", "a"], "mass": 0.5}, {"elements": ["b"], "mass": 0.5}]'):
            text = '{"focal": %s, "frame": %s}' % (focal, value)
            assert wire._guessed_frame(text) == guess
            expected = _parse_outcome(wire._strict_mass_from_json, text)
            assert isinstance(expected, tuple)
            assert _parse_outcome(mass_from_json, text) == expected

    def test_a_frame_nested_near_the_recursion_limit_parses_as_the_strict_path(self):
        limit = sys.getrecursionlimit()
        for depth in range(limit // 2, limit + 10):
            nested = "[" * depth + "]" * depth
            for text in ('{"frame": %s, "focal": []}' % nested,
                         '{"focal": [], "frame": %s}' % nested):
                assert wire._guessed_frame(text) is None
                expected = _parse_outcome(lambda text: wire._strict_mass_from_json(text), text)
                assert _parse_outcome(mass_from_json, text) == expected

    @pytest.mark.parametrize("text", [
        ' \n\t{ \r\n "frame" \t:\n ["b", "a"], "focal": ['
        '{"elements": ["a"], "mass": 0.25}, {"elements": ["a", "b"], "mass": 0.75}]} \n',
        ' \n\t{ "focal": [{"elements": ["a"], "mass": 0.25}, '
        '{"elements": ["a", "b"], "mass": 0.75}] , \r\n "frame" \t:\n ["b", "a"] \n} \n',
    ], ids=["frame-first", "focal-first"])
    def test_a_frame_among_whitespace_takes_the_mask_decode(self, monkeypatch, text):
        assert wire._guessed_frame(text) == ["b", "a"]
        frame = Frame(("b", "a"))
        expected = MassFunction.from_assignments(
            frame, {frame.singleton("a"): 0.25, frame.full_set(): 0.75}
        )
        assert wire._strict_mass_from_json(text) == expected
        _strict_fails(monkeypatch)
        assert mass_from_json(text) == expected

    @pytest.mark.parametrize("frame", [["a", "frame", "b"], ["a", "b", "frame"]],
                             ids=["inside", "last"])
    def test_a_closing_frame_with_a_label_named_frame_takes_the_mask_decode(
        self, monkeypatch, frame
    ):
        # the last "frame" in the text is the label, the one before it the key
        focal = [{"elements": ["frame", "a"], "mass": 0.5}, {"elements": ["b"], "mass": 0.5}]
        text = json.dumps({"focal": focal, "frame": frame})
        assert wire._guessed_frame(text) == frame
        expected = wire._strict_mass_from_json(text)
        _strict_fails(monkeypatch)
        assert mass_from_json(text) == expected

    def test_a_closing_frame_listing_frame_twice_parses_as_the_strict_path(self):
        text = json.dumps({"focal": [{"elements": ["a"], "mass": 1.0}],
                           "frame": ["frame", "a", "frame"]})
        assert wire._guessed_frame(text) is None
        expected = _parse_outcome(wire._strict_mass_from_json, text)
        assert expected[0] is DuplicateLabelError
        assert _parse_outcome(mass_from_json, text) == expected

    @pytest.mark.parametrize("focal_first", [False, True], ids=["frame-first", "focal-first"])
    def test_an_escaped_frame_key_parses_as_the_strict_path(self, focal_first):
        # the text search cannot read "fr\u0061me" as "frame"
        text, expected = self._short_text(focal_first)
        text = text.replace('"frame":', '"fr\\u0061me":')
        assert '"frame"' not in text
        assert wire._guessed_frame(text) is None
        assert wire._strict_mass_from_json(text) == expected
        assert mass_from_json(text) == expected

    def test_a_guess_that_is_not_the_frame_parses_as_the_strict_path(self):
        # the key is escaped, so the guess is a "frame" in a mass; on the
        # guessed bits the bad mass would be named on {a}, not {b}
        text = ('{"fr\\u0061me": ["a", "b"], "focal": [{"elements": ["a"], "mass": 0.5}, '
                '{"elements": ["b"], "mass": {"frame": ["b", "a"]}}]}')
        assert wire._guessed_frame(text) == ["b", "a"]
        assert wire._mask_decoded(text) is None
        message = r"^mass \{'frame': \['b', 'a'\]\} of Subset\(\{b\}\) is not a real number$"
        with pytest.raises(EvidenceError, match=message) as raised:
            mass_from_json(text)
        assert _parse_outcome(wire._strict_mass_from_json, text) == (
            EvidenceError, str(raised.value)
        )

    def test_a_closing_frame_past_the_cap_costs_no_wider_masks(self):
        # a guess past 64 labels is dropped before any entry is decoded:
        # decoded on the bits of these 20,000 labels, the parse peaked at
        # 61 MB here, against 11 MB for the strict path
        labels = [f"x{i}" for i in range(20_000)]
        focal = [{"elements": [label], "mass": 1 / 20_000} for label in labels]
        text = json.dumps({"focal": focal, "frame": labels})
        outcome, peak = _traced(_parse_outcome, mass_from_json, text)
        assert outcome == (FrameTooLargeError,
                           "explicit frames are capped at 64 elements, got 20000")
        assert peak < 1.5 * _traced(_parse_outcome, wire._strict_mass_from_json, text)[1]

    def test_repeated_label_collapses_on_both_paths(self):
        text = json.dumps({"frame": ["a", "b"], "focal": [{"elements": ["a", "a", "b"], "mass": 1.0}]})
        frame = Frame(("a", "b"))
        expected = MassFunction.from_assignments(frame, {frame.full_set(): 1.0})
        assert wire._mask_decoded(text) is None
        assert mass_from_json(text) == expected

    def test_power_set_parse_keeps_no_string_per_label(self):
        # the JSON scanner makes a new str for every label in an array: a
        # parse that kept them all peaked near 6.6x the text here
        text = _shuffled_power_set_text()
        mass, peak = _traced(mass_from_json, text)
        assert len(mass) == (1 << 14) - 1
        assert peak < 4 * len(text)

    def test_power_set_parse_keeps_only_its_columns(self):
        # each entry leaves its mask and mass in two columns and one shared
        # sentinel in the focal list; a (mask, mass) tuple per entry, split
        # into the columns after the decode, peaked near 2.4x the text here
        text = _shuffled_power_set_text()
        mass, peak = _traced(mass_from_json, text)
        assert len(mass) == (1 << 14) - 1
        assert peak < 2.1 * len(text)

    def test_focal_first_power_set_parse_keeps_no_string_per_label(self, monkeypatch):
        text = _shuffled_power_set_text(focal_first=True)
        _strict_fails(monkeypatch)
        mass, peak = _traced(mass_from_json, text)
        assert len(mass) == (1 << 14) - 1
        assert peak < 4 * len(text)

    def test_focal_first_power_set_parse_keeps_only_its_columns(self, monkeypatch):
        # the closing frame numbers the masks as they are decoded, so no
        # second mask column is made: renumbering the masks after the
        # decode peaked near 1.83x the text here, against 1.40x now
        text = _shuffled_power_set_text(focal_first=True)
        _strict_fails(monkeypatch)
        mass, peak = _traced(mass_from_json, text)
        assert len(mass) == (1 << 14) - 1
        assert peak < 1.6 * len(text)

    def test_labels_past_a_frame_cost_no_wider_masks(self):
        # numbering stops at 64 labels: the 20,000th unknown label would
        # otherwise take a 20,000-bit mask
        focal = [{"elements": [f"x{i}"], "mass": 1 / 20_000} for i in range(20_000)]
        text = json.dumps({"frame": ["a"], "focal": focal})
        outcome, peak = _traced(_parse_outcome, mass_from_json, text)
        assert outcome == (UnknownLabelError, "label 'x0' is not in the frame")
        assert peak < 1.5 * _traced(_parse_outcome, wire._strict_mass_from_json, text)[1]

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

    @pytest.mark.parametrize("text", [b"{}", bytearray(b"{}"), None, 1], ids=repr)
    def test_text_that_is_not_a_str_is_named(self, text):
        # bytes escaped as a TypeError from the frame guess's str pattern
        message = f"^mass-function JSON must be a str, not a {type(text).__name__}$"
        with pytest.raises(EvidenceError, match=message):
            mass_from_json(text)


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
    # frames on both sides of the 8-label runs mass_to_json tabulates, with
    # sets that touch only a high run, and the top bit of a 64-label frame
    for n in (7, 8, 9, 17, 64):
        frame = Frame(tuple(f"\u00e9{i}" if i % 3 else f'"{i}' for i in range(n)))
        full = (1 << n) - 1
        top = 1 << (n - 1)
        masks = sorted({1, top, top | 1, top | 1 << n // 2, full, full & ~0xFF,
                        full & 0x5555555555555555} - {0})
        total = sum(range(1, len(masks) + 1))
        yield MassFunction.from_assignments(
            frame, [(Subset(frame, mask), i / total) for i, mask in enumerate(masks, 1)]
        )
    yield max_deng(9).to_mass()
    # entry counts one below, at, one above and about twice the runs of
    # 1024 entries that mass_to_json writes, so every seam between runs
    # is covered
    yield uniform_powerset(10).to_mass()
    frame = Frame.generic(11)
    for count in (1024, 1025):
        total = count * (count + 1) // 2
        yield MassFunction(
            frame, list(range(1, count + 1)), [i / total for i in range(1, count + 1)]
        )
    yield max_deng(11).to_mass()


class TestJsonBytes:
    def test_mass_to_json_matches_the_stdlib_encoder(self):
        for mass in _pinned_corpus():
            assert mass_to_json(mass) == _stdlib_json(mass)

    def test_mass_to_json_makes_one_full_size_copy(self):
        # the run strings and the one text they are joined into, with one
        # run's entry strings beside them; keeping every entry's strings
        # until a single join peaked above 2.3x the text here
        mass = uniform_powerset(14).to_mass()
        text, peak = _traced(mass_to_json, mass)
        assert peak < 2.2 * len(text)
