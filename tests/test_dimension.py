"""Split scale, dimension reports, and their degenerate and limit behavior."""
from __future__ import annotations

import math
import random
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import compute_by_base, random_mass
from evidim import (
    FAMILIES,
    PROFILE_LIMIT,
    CardinalityProfile,
    Frame,
    MassFunction,
    NonUnitTotalError,
    ProbabilityDistribution,
    Subset,
    information_dimension,
    information_dimension_profile,
    max_deng,
    probability_dimension,
    uniform_powerset,
    vacuous,
)
from evidim.dimension import _SPLITS, _profile_columns

FOUR_DP = 5e-5


def singleton_mass(frame: Frame, label: str) -> MassFunction:
    return MassFunction.from_assignments(frame, {frame.singleton(label): 1.0})


class TestSplitScale:
    def test_skewed_pair(self, skewed_pair_mass):
        report = information_dimension(skewed_pair_mass)
        assert report.split_scale_bits == pytest.approx(1.1381, abs=FOUR_DP)

    def test_uniform_powerset_two_expanded(self):
        report = information_dimension(uniform_powerset(2).to_mass())
        assert report.split_scale_bits == pytest.approx(1.7834, abs=FOUR_DP)

    def test_single_singleton_is_zero(self):
        report = information_dimension(singleton_mass(Frame(("a",)), "a"))
        assert report.split_scale_bits == 0.0

    def test_profile_values(self):
        for profile, expected in (
            (max_deng(2), 1.9757),
            (vacuous(4), 3.9069),
            (uniform_powerset(25), 25.0000),
        ):
            report = information_dimension_profile(profile)
            assert report.split_scale_bits == pytest.approx(expected, abs=FOUR_DP)

    def test_profile_matches_explicit(self):
        for n in range(1, 13):
            profile = uniform_powerset(n)
            assert information_dimension_profile(profile).split_scale_bits == pytest.approx(
                information_dimension(profile.to_mass()).split_scale_bits, abs=1e-10
            )

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_nonnegative_and_zero_only_when_degenerate(self, seed):
        rng = random.Random(seed)
        mass = random_mass(rng, rng.randint(1, 6))
        value = information_dimension(mass).split_scale_bits
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
        # the base lives in the CLI; the dimension it prints is the library's
        rng = random.Random(seed)
        mass = random_mass(rng, rng.randint(2, 6))
        report = information_dimension(mass)
        if report.degenerate:
            return
        with tempfile.TemporaryDirectory() as scratch:
            printed = compute_by_base(mass, Path(scratch) / "mass.json")
        for base, fields in printed.items():
            assert fields["dimension"] == report.dimension, base
            ratio = fields["entropy_bits"] / fields["split_scale_bits"]
            assert ratio == pytest.approx(report.dimension, abs=1e-12), base


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


    def test_one_layer_costs_its_layer_only(self):
        # log2(2^k - 1) is taken for the cardinalities present, not for every
        # k up to the largest: one layer on N = 200,000 evaluates faster than
        # the 1024 layers of max_deng(1024)
        def best_of_three(profile):
            times = []
            for _ in range(3):
                start = time.perf_counter()
                information_dimension_profile(profile)
                times.append(time.perf_counter() - start)
            return min(times)

        wide = vacuous(200_000)
        assert information_dimension_profile(wide).dimension == 1.0
        assert best_of_three(wide) < best_of_three(max_deng(1024))

    def test_explicit_kernel_keeps_two_float_columns(self):
        # a new float and a list slot per focal set in the log2 masses and
        # in the split scale's terms, about 64 bytes, plus a slot in the
        # split column, whose floats are shared: about 73 bytes measured on
        # CPython 3.11.  A count column of 0.0 on top of those peaked near
        # 81 bytes, and a list of the entropy's terms above 110
        mass = uniform_powerset(14).to_mass()
        tracemalloc.start()
        try:
            information_dimension(mass)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 80 * len(mass.masks)


@st.composite
def sparse_profile_rows(draw) -> tuple[int, dict[int, tuple[int, float]]]:
    """``(N, {k: (count, mass)})`` for N up to 1024: a few layers, each with
    any count up to C(N, k) and a per-set mass anywhere from 2^-1000 to
    1/count, plus one anchor layer whose mass brings the total to 1."""
    n = draw(st.integers(min_value=1, max_value=1024))
    cards = draw(st.lists(st.integers(min_value=1, max_value=n), min_size=1,
                          max_size=min(n, 24), unique=True))
    rows = {}
    for card in cards[1:]:
        count = draw(st.integers(min_value=1, max_value=math.comb(n, card)))
        # past 2^1000 sets, 1/count itself lies below 2^-1000
        top = -math.log2(count)
        log2_mass = draw(st.floats(min_value=min(-1000.0, top), max_value=top))
        rows[card] = (count, 2.0 ** log2_mass)
    others = math.fsum(count * mass for count, mass in rows.values())
    if others > 0.5:
        rows = {card: (count, mass * 0.5 / others) for card, (count, mass) in rows.items()}
        others = math.fsum(count * mass for count, mass in rows.values())
    anchor = draw(st.integers(min_value=1, max_value=math.comb(n, cards[0])))
    rows[cards[0]] = (anchor, (1.0 - others) / anchor)
    return n, rows


def _row_sums(rows: list[tuple[float, float, float, float]]) -> tuple[float, float]:
    """(Deng entropy, split scale) by the kernel's formulas, row by row over
    ``(log2(2^k - 1), log2 count, log2 mass, mass)`` rows."""
    entropy = math.fsum([2.0 ** (lc + lm) * (s - lm) for s, lc, lm, _ in rows])
    return entropy, _log2_sum([lc + m * s for s, lc, _, m in rows])


def _log2_sum(exponents: list[float]) -> float:
    top = max(exponents)
    return top + math.log2(math.fsum([2.0 ** (v - top) for v in exponents]))


def _ascending_sums(rows: dict[int, tuple[int, float]]) -> tuple[float, float, float]:
    """(Deng entropy, split scale, total mass) by the kernel's formulas, each
    an exact sum over the layers in ascending cardinality; the total is the
    correctly rounded sum of the layer weights 2^(lc + lm)."""
    layers = [
        (math.log2((1 << card) - 1), math.log2(count), math.log2(mass), mass)
        for card, (count, mass) in sorted(rows.items())
    ]
    entropy, split = _row_sums(layers)
    return entropy, split, math.fsum([2.0 ** (lc + lm) for _, lc, lm, _ in layers])


def _assert_report_matches_columns(profile: CardinalityProfile):
    report = information_dimension_profile(profile)
    if (profile.cards, profile.counts) == ((1,), (1,)):
        assert report.degenerate
        return
    entropy, split = _row_sums([
        (math.log2((1 << card) - 1), math.log2(count), log2_mass, mass)
        for card, count, mass, log2_mass in zip(
            profile.cards, profile.counts, profile.masses, profile.log2_masses
        )
    ])
    assert (report.entropy_bits, report.split_scale_bits) == (entropy, split)
    assert report.dimension == entropy / split
    assert not report.degenerate


@st.composite
def spread_weights(draw, min_size: int, max_size: int) -> list[float]:
    """``min_size`` to ``max_size`` positive weights summing to 1, spread
    from 2^-1000 of the largest up to it."""
    exponents = draw(st.lists(st.floats(min_value=-1000.0, max_value=0.0),
                              min_size=min_size, max_size=max_size))
    weights = [2.0 ** e for e in exponents]
    total = math.fsum(weights)
    return [w / total for w in weights]


@st.composite
def explicit_masses(draw) -> MassFunction:
    """A mass function on up to 64 elements with masses from spread_weights."""
    n = draw(st.integers(min_value=1, max_value=64))
    masks = draw(st.lists(st.integers(min_value=1, max_value=(1 << n) - 1),
                          min_size=1, max_size=40, unique=True))
    weights = draw(spread_weights(len(masks), len(masks)))
    frame = Frame.generic(n)
    return MassFunction.from_assignments(
        frame, [(Subset(frame, mask), w) for mask, w in zip(masks, weights)]
    )


class TestSumOrder:
    @given(case=sparse_profile_rows())
    @example(case=(2, {1: (1, 0.998046875), 2: (1, 0.001953125)}))
    # a layer of more than 2^1000 sets, each of mass below 2^-1000
    @example(case=(1024, {1: (1, 0.5), 512: (math.comb(1024, 512), 0.5 / math.comb(1024, 512))}))
    @settings(max_examples=80, deadline=None)
    def test_profile_sums_match_ascending_order_bit_for_bit(self, case):
        # the profile path sums its terms largest first; math.fsum is
        # correctly rounded, so the bits must be those of the stored order
        n, rows = case
        profile = CardinalityProfile.from_counts(n, rows)
        entropy, split, total = _ascending_sums(rows)
        assert profile.total_mass() == total
        report = information_dimension_profile(profile)
        if rows == {1: (1, 1.0)}:
            assert report.degenerate
            return
        assert (report.entropy_bits, report.split_scale_bits) == (entropy, split)
        assert report.dimension == entropy / split

    def test_total_mass_is_the_correctly_rounded_sum_of_the_weights(self):
        # the weights are 2^(log2 m) for m = 1 - 2^-9 and 2^-9, the masses
        # themselves, so their sum is 1.0 exactly; taken back from the log2
        # of that sum, it reads 1 - 2^-53
        profile = CardinalityProfile.from_counts(2, {1: (1, 0.998046875), 2: (1, 0.001953125)})
        assert profile.total_mass() == 1.0

    def test_split_term_of_every_cardinality_is_exact(self):
        # one layer of one set of cardinality k has entropy and split scale
        # log2(2^k - 1), whether or not 2^k - 1 fits a double exactly
        for k in range(1, 1200):
            report = information_dimension_profile(vacuous(k))
            expected = math.log2((1 << k) - 1)
            assert (report.entropy_bits, report.split_scale_bits) == (expected, expected)

    def test_split_table_holds_its_definition(self):
        # the table runs math.log2 up to k = 53 and float(k) past it; every
        # entry up to the profile limit must be log2(2^k - 1) itself
        assert len(_SPLITS) == PROFILE_LIMIT + 1
        for k in range(1, PROFILE_LIMIT + 1):
            assert _SPLITS[k] == math.log2((1 << k) - 1), k

    @pytest.mark.parametrize("size, rows", [
        *((n, None) for n in (1, 2, 3, 64, 65, 512, 1024)),
        (3, {1: (3, 0.125), 2: (3, 0.125), 3: (1, 0.25)}),
        (5, {2: (10, 0.05), 4: (5, 0.1)}),
        (1100, {1: (1, 0.5), 1100: (1, 0.5)}),
        (1100, {k: (1, 1 / 1100) for k in range(1, 1101)}),
        (20_000, {20_000: (1, 1.0)}),
    ], ids=lambda arg: (
        "max-deng" if arg is None else f"{len(arg)}-layers" if isinstance(arg, dict) else str(arg)
    ))
    def test_split_column_is_log2_of_each_numerator(self, size, rows):
        # cards 1..n within the table gather a slice of it (max-deng, rows of
        # None); sparse cards, and 1..n past it, read each k
        if rows is None:
            profile = max_deng(size)
        else:
            profile = CardinalityProfile.from_counts(size, rows)
        column = _profile_columns(profile)[0]
        cards = [profile.cards[i] for i in profile._order]
        assert list(column) == [math.log2((1 << k) - 1) for k in cards]

    @pytest.mark.parametrize("family", FAMILIES)
    def test_family_reports_match_their_public_columns_bit_for_bit(self, family):
        # the kernel gathers each column in the profile's largest-first order;
        # the row formulas over the public columns, ascending in cardinality,
        # must give the same bits
        for n in (*range(1, 81), *range(1020, 1025)):
            _assert_report_matches_columns(FAMILIES[family](n))

    @pytest.mark.parametrize("rows", [
        {1: (1, 1.0)},
        {3: (1, 1.0)},
        {2: (1, 1.0)},
        {1: (2, 0.5)},
        {1: (1, 0.25), 3: (1, 0.75)},
        {2: (3, 0.25), 1: (1, 0.25)},
    ])
    def test_small_profile_reports_match_their_public_columns_bit_for_bit(self, rows):
        # one and two layers: itemgetter returns one index's item bare
        _assert_report_matches_columns(CardinalityProfile.from_counts(3, rows))

    def test_profile_with_no_layers_is_not_one(self):
        with pytest.raises(NonUnitTotalError, match="sum to 0.0"):
            CardinalityProfile.from_counts(3, {})

    @given(mass=explicit_masses())
    @settings(max_examples=150, deadline=None)
    def test_explicit_report_matches_the_row_formulas_bit_for_bit(self, mass):
        # the kernel sums columns; one row per focal set, with a count of one,
        # must give the same bits
        report = information_dimension(mass)
        if len(mass) == 1 and mass.masks[0].bit_count() == 1:
            assert report.degenerate
            return
        rows = [
            (math.log2((1 << mask.bit_count()) - 1), 0.0, math.log2(m), m)
            for mask, m in zip(mass.masks, mass.masses)
        ]
        entropy, split = _row_sums(rows)
        assert (report.entropy_bits, report.split_scale_bits) == (entropy, split)
        assert report.dimension == entropy / split
        assert not report.degenerate

    @given(probabilities=spread_weights(1, 300))
    @settings(max_examples=150, deadline=None)
    def test_probability_report_matches_the_row_formulas_bit_for_bit(self, probabilities):
        report = probability_dimension(ProbabilityDistribution(tuple(probabilities)))
        if len(probabilities) == 1:
            assert report.degenerate
            return
        entropy, split = _row_sums([(0.0, 0.0, math.log2(p), p) for p in probabilities])
        assert (report.entropy_bits, report.split_scale_bits) == (entropy, split)
        assert report.dimension == entropy / split


class TestLimitBehavior:
    def test_concentrating_mass_drives_dimension_to_zero(self):
        # m(one singleton) = a, the other 2^N - 2 nonempty subsets share
        # (1 - a)/(2^N - 2); as a -> 1 the dimension must fall to 0
        frame = Frame.generic(3)
        target = frame.singleton("e1")
        others = [Subset(frame, mask) for mask in range(1, 1 << frame.size) if mask != target.mask]
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
