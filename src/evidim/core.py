"""Frames of discernment, subsets, mass functions, and cardinality profiles.

A mass function (basic probability assignment) distributes a unit of mass
over nonempty subsets of a finite frame.  Subsets are bit masks over frame
indices, which caps explicit frames at 64 elements; a :class:`Frame` maps
each label to its bit through a dict built once.  A :class:`MassFunction`
is stored flat, as parallel ``masks`` and ``masses`` tuples sorted by mask;
:class:`Subset` objects are built only at API edges (``focal``,
:meth:`Frame.subset`, error messages), never on the parse, expansion or
kernel paths.  Its one constructor, ``MassFunction(frame, masks,
masses)``, owns every rule: the frame a :class:`Frame`, the columns of
equal length, each mask an int naming a nonempty subset of the frame, the
masses and duplicate sets, and the total.  The common case passes a few
C-level passes over the columns: the masks' types, minimum and maximum,
then every mass a plain float, none negative, NaN or infinite, and the
masks distinct.  Any other input goes entry by entry, masks through
:class:`Subset`'s rule and masses through :func:`_as_mass`, the one rule
on a mass, so errors and their order are those of a single pass.  Zero
masses are dropped, the rest sorted by mask through one index sort, and
their exact sum checked, a sum too large for a float reading as ``inf``.

The :class:`CardinalityProfile` compressed form has no frame cap and
carries a log-domain copy of each per-set mass so that very large frames
survive double-precision underflow.  It is stored flat too, as parallel
``cards``, ``counts``, ``masses`` and ``log2_masses`` columns ascending in
cardinality, and read only through them.  It has one public
constructor, :meth:`CardinalityProfile.from_counts`, which checks its
plain input and takes each mass's log2.  It and the families, whose
columns come from exact ratios, build through one private one,
``CardinalityProfile._from_columns``, which validates every profile and
does each job on its layers once; ``CardinalityProfile(...)`` itself
raises a ``TypeError`` that names ``from_counts``.  Set counts are exact
ints: the families that fill every layer 1..N pass none, and their
counts are the slice C(N, 1..N) of one exact binomial row,
:func:`_binomial_row`, which takes one Pascal step from the row it
returned last when that row was for N - 1, as in a sweep, and otherwise
walks the recurrence, either way up to N // 2, and mirrors the rest.
Such layers need no bounds check, and since C(N, k) = C(N, N - k) as
ints, the log2 of their counts is taken up to N // 2 and mirrored, the
same bits.  Listed counts
are checked against :func:`math.comb`, in C-level passes that fall back
to a walk over the layers only to name the first bad one.  The log2 of
each count and each layer's weight (count * mass, formed once as
2^(log2 count + log2 mass)) are kept as derived slots, ascending in
cardinality like the fields, so that the dimension kernel forms no
weight again; each weight is a ``math.pow``, the same bits as the
builtin ``pow``.  Their exact total,
:meth:`CardinalityProfile.total_mass`, sorts them largest first
(:func:`_fsum_largest_first`).  The unit-total check of a profile, a
mass function or a distribution first takes the plain sum, which settles
every total well inside the tolerance, and takes the exact sum only for
the rest (see :func:`_check_unit_total`).  The tables ``_NUMERATORS``,
2^k - 1 as exact ints, and ``_SPLITS``, its log2, for k up to
:data:`PROFILE_LIMIT`, live here, so that the dimension kernel and the
families read one copy.

All types are immutable after construction and safe to share across
threads: ``__slots__`` classes on one private base, :class:`_Value`,
whose listed fields give equality, hash and repr, and whose attributes
cannot be assigned or deleted.  Importing the module loads no
``dataclasses``.
"""
from __future__ import annotations

import math
import reprlib
from itertools import combinations, compress, repeat
from operator import add, attrgetter, itemgetter, le
from typing import Callable, Iterable, Mapping, Sequence

MAX_EXPLICIT_FRAME = 64
PROFILE_LIMIT = 1024
DEFAULT_EXPANSION_LIMIT = 20
MASS_TOLERANCE = 1e-9
SYMMETRY_TOLERANCE = 1e-12

# bounds each echoed input value in a message (see _shown); configured once,
# read only.  reprlib costs no import, since collections, which typing and
# json load, imports it
_SHOWN = reprlib.Repr()
_SHOWN.maxlevel = 2
_SHOWN.maxstring = _SHOWN.maxlong = _SHOWN.maxother = 82

# 2^k - 1 as an exact int for k = 0..PROFILE_LIMIT, the widest family
# profile: families.max_deng divides each by its normalizer, so a sweep
# builds no numerator per layer
_NUMERATORS = [(1 << k) - 1 for k in range(PROFILE_LIMIT + 1)]

# log2(2^k - 1) for the same k, 0.0 at k = 0 unused; the dimension kernel
# reads its split column here and families.max_deng its log2 numerators.
# Past k = 53, the bits of a double's significand, 2^k - 1 rounds to 2^k,
# so math.log2 gives k exactly: those entries are float(k), the same bits
# without a k-bit integer, and a wider profile reads a larger k as
# float(k) too.
_SPLITS = [
    0.0,
    *map(math.log2, _NUMERATORS[1:54]),
    *map(float, range(54, PROFILE_LIMIT + 1)),
]


class EvidenceError(ValueError):
    """Base class for every validation failure raised by this package."""


class EmptyFrameError(EvidenceError):
    pass


class DuplicateLabelError(EvidenceError):
    pass


class FrameTooLargeError(EvidenceError):
    pass


class UnknownLabelError(EvidenceError):
    pass


class EmptySubsetError(EvidenceError):
    pass


class NegativeMassError(EvidenceError):
    pass


class NonUnitTotalError(EvidenceError):
    pass


class DuplicateSubsetError(EvidenceError):
    pass


class NotBayesianError(EvidenceError):
    pass


class NotCardinalitySymmetricError(EvidenceError):
    pass


class PartialLayerError(EvidenceError):
    pass


class _Value:
    """Immutable ``__slots__`` base: equality, hash and repr come from the
    ``_fields`` a subclass lists, derived slots left out; assigning or
    deleting an attribute raises AttributeError.  Constructors set slots
    with ``object.__setattr__``."""

    __slots__ = ()

    def __init_subclass__(cls):
        # one C-level getter of the compared fields: equality and hash run
        # once per entry when Subsets key a dict
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other):
        # a shared frame is compared once per entry of a mass function
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # pickle and copy save a slots instance as (None, {slot: value}) and
        # would restore it through the __setattr__ above
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


def _frame_too_large(size: int) -> FrameTooLargeError:
    return FrameTooLargeError(
        f"explicit frames are capped at {MAX_EXPLICIT_FRAME} elements, got {size}"
    )


class Frame(_Value):
    """Ordered universe of distinct outcome labels.

    Explicit subset operations use a 64-bit membership mask, so a frame
    holds at most :data:`MAX_EXPLICIT_FRAME` labels.  Profile-based
    operations work from a bare element count and accept larger sizes.
    """

    __slots__ = ("labels", "_bits")
    _fields = ("labels",)
    labels: tuple[str, ...]
    # each label's bit, built once; derived, so not compared
    _bits: dict[str, int]

    def __init__(self, labels: Iterable[str]):
        _refuse_string(labels, "Frame")
        labels = tuple(labels)
        if not labels:
            raise EmptyFrameError("a frame needs at least one label")
        if any(not isinstance(lab, str) or not lab for lab in labels):
            raise EvidenceError("frame labels must be nonempty strings")
        if len(set(labels)) != len(labels):
            seen: set[str] = set()
            repeated: dict[str, None] = {}  # in the order each first repeats
            for lab in labels:
                if lab in seen:
                    repeated[lab] = None
                seen.add(lab)
            raise DuplicateLabelError(f"frame labels are not distinct: {_shown(list(repeated))}")
        if len(labels) > MAX_EXPLICIT_FRAME:
            raise _frame_too_large(len(labels))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_bits", {lab: 1 << i for i, lab in enumerate(labels)})

    @property
    def size(self) -> int:
        return len(self.labels)

    def subset(self, labels: Iterable[str]) -> Subset:
        """Subset from labels; duplicates collapse, empty input is rejected."""
        _refuse_string(labels, "Frame.subset")
        return Subset(self, self._mask(labels))

    def singleton(self, label: str) -> Subset:
        return Subset(self, self._mask((label,)))

    def _mask(self, labels: Iterable[str]) -> int:
        """Union of the labels' bits; no labels is an EmptySubsetError."""
        bits = self._bits
        mask = 0
        for label in labels:
            try:
                mask |= bits[label]
            except (KeyError, TypeError):  # TypeError: an unhashable label
                raise UnknownLabelError(f"label {_shown(label)} is not in the frame") from None
        if not mask:
            raise EmptySubsetError("the empty set cannot be a focal element")
        return mask

    def full_set(self) -> Subset:
        return Subset(self, (1 << self.size) - 1)

    @staticmethod
    def generic(size: int) -> Frame:
        """Frame with synthesized labels e1..eN; a size below 1 leaves no
        label, an EmptyFrameError.  A size past the cap is refused before
        any label is made."""
        if type(size) is not int:
            _check_frame_size(size)
        if size > MAX_EXPLICIT_FRAME:
            raise _frame_too_large(size)
        return Frame(tuple(f"e{i}" for i in range(1, size + 1)))


class Subset(_Value):
    """Nonempty subset of a frame, stored as a membership bit mask."""

    __slots__ = _fields = ("frame", "mask")
    frame: Frame
    mask: int

    def __init__(self, frame: Frame, mask: int):
        if type(mask) is not int:
            raise EvidenceError(f"mask {_shown(mask)} is not an int")
        if mask <= 0:
            raise EmptySubsetError("the empty set cannot be a focal element")
        if mask >> frame.size:
            raise EvidenceError("subset members fall outside the frame")
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "mask", mask)

    @property
    def cardinality(self) -> int:
        return self.mask.bit_count()

    @property
    def members(self) -> tuple[str, ...]:
        return tuple(
            lab for i, lab in enumerate(self.frame.labels) if self.mask >> i & 1
        )

    def __repr__(self):
        return f"Subset({{{', '.join(self.members)}}})"


class ProbabilityDistribution(_Value):
    """Strictly positive probabilities summing to one."""

    __slots__ = _fields = ("probabilities",)
    probabilities: tuple[float, ...]

    def __init__(self, probabilities: Iterable[float]):
        probabilities = tuple(_as_mass(p, "a probability") for p in probabilities)
        if not probabilities:
            raise EvidenceError("a distribution needs at least one outcome")
        if not all(p > 0.0 for p in probabilities):
            raise NegativeMassError("probabilities must be strictly positive")
        _check_unit_total(probabilities, "probabilities")
        object.__setattr__(self, "probabilities", probabilities)

    @property
    def size(self) -> int:
        return len(self.probabilities)


class MassFunction(_Value):
    """Map from focal subsets to strictly positive masses summing to one.

    Stored flat: ``masks[i]`` is a focal set's membership mask over
    ``frame`` and ``masses[i]`` its mass, ascending by mask, so equal mass
    functions compare equal structurally and iteration order is
    deterministic.  Every way in validates.
    """

    __slots__ = _fields = ("frame", "masks", "masses")
    frame: Frame
    masks: tuple[int, ...]
    masses: tuple[float, ...]

    def __init__(self, frame: Frame, masks: Sequence[int], masses: Sequence):
        """The one construction, from parallel ``masks`` and ``masses``
        columns: each mask an int naming a nonempty subset of ``frame``,
        masses :func:`_as_mass` rejects and duplicate masks are errors,
        zero masses are dropped, the rest sorted by mask, and the total
        checked.

        The masks get three C-level checks, types first because a float
        below the largest mask passes a minimum and a maximum; the masses
        get one bulk check (:func:`_plain_columns`).  Only columns that
        fail them are walked entry by entry (:class:`Subset`,
        :func:`_checked_entries`), to raise the first error in entry
        order.  Pickle and copy restore through ``__setstate__``, not
        here.
        """
        if not isinstance(frame, Frame):
            raise EvidenceError(f"frame {_shown(frame)} is not a Frame")
        if len(masks) != len(masses):
            raise EvidenceError(f"{len(masks)} masks do not pair up with {len(masses)} masses")
        if not (
            set(map(type, masks)) <= {int}
            and min(masks, default=1) > 0
            and not max(masks, default=0) >> frame.size
        ):
            for mask in masks:  # Subset raises at the first bad mask
                Subset(frame, mask)
        if not _plain_columns(masks, masses):
            kept = _checked_entries(frame, masks, masses)
            masks, masses = list(kept), list(kept.values())
        index = range(len(masks))
        if 0.0 in masses:
            index = compress(index, map((0.0).__lt__, masses))
        gather = _gather(sorted(index, key=masks.__getitem__))
        masses = gather(masses)
        _check_unit_total(masses, "focal masses")
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "masks", gather(masks))
        object.__setattr__(self, "masses", masses)

    @classmethod
    def from_assignments(
        cls,
        frame: Frame,
        assignments: Mapping[Subset, float] | Iterable[tuple[Subset, float]],
    ) -> MassFunction:
        """Construction from ``(Subset, mass)`` pairs or a mapping.

        Zero masses are dropped (a subset with no mass is simply not
        focal); negative, NaN and infinite or float-overflowing masses,
        duplicate subsets, subsets from a different frame, and totals off
        one by more than :data:`MASS_TOLERANCE` are rejected.
        """
        if isinstance(assignments, Mapping):
            assignments = assignments.items()
        masks: list[int] = []
        masses: list = []
        try:
            for subset, mass in assignments:
                if subset.frame != frame:
                    raise EvidenceError("subset belongs to a different frame")
                masks.append(subset.mask)
                masses.append(mass)
        except Exception as exc:
            failure = exc
        else:
            return cls(frame, masks, masses)
        # one pass in entry order would have read the entries before the
        # failing one first, so their errors come first
        _checked_entries(frame, masks, masses)
        raise failure

    @property
    def focal(self) -> tuple[tuple[Subset, float], ...]:
        """``(subset, mass)`` pairs, ascending by mask."""
        return tuple((Subset(self.frame, mask), m) for mask, m in zip(self.masks, self.masses))

    def __len__(self) -> int:
        return len(self.masks)

    def is_bayesian(self) -> bool:
        """True iff every focal element is a singleton."""
        return all(mask.bit_count() == 1 for mask in self.masks)

    def to_probability(self) -> ProbabilityDistribution:
        """Bayesian mass as a distribution over its focal singletons.

        Outcomes follow frame order; non-focal elements carry no entry
        (the distribution type holds positive probabilities only).
        """
        if not self.is_bayesian():
            raise NotBayesianError("mass function has non-singleton focal elements")
        return ProbabilityDistribution(self.masses)

    def to_profile(self) -> CardinalityProfile:
        """Compress to per-cardinality (count, shared mass) rows.

        Requires all focal sets of equal cardinality to carry equal mass
        (within a relative :data:`SYMMETRY_TOLERANCE`); the stored
        representative is the mass of the lowest-mask subset in each layer,
        which makes the profile -> explicit round trip bit-exact.
        """
        layers: dict[int, list[float]] = {}
        for mask, mass in zip(self.masks, self.masses):
            layers.setdefault(mask.bit_count(), []).append(mass)
        rows = {}
        for card in sorted(layers):
            masses = layers[card]
            if not all(
                math.isclose(m, masses[0], rel_tol=SYMMETRY_TOLERANCE, abs_tol=0.0)
                for m in masses
            ):
                raise NotCardinalitySymmetricError(
                    f"focal sets of cardinality {card} carry unequal masses"
                )
            rows[card] = (len(masses), masses[0])
        return CardinalityProfile.from_counts(self.frame.size, rows)


class CardinalityProfile(_Value):
    """Cardinality-symmetric mass function in compressed form.

    Stored flat, as parallel columns ascending in cardinality: layer ``i``
    holds ``counts[i]`` focal sets of cardinality ``cards[i]``, each
    carrying ``masses[i]``, with ``log2_masses[i]`` its log2.  Only
    positive-count layers appear.  Exact for any family in which all focal
    sets of equal cardinality share one mass.  Construct through
    :meth:`from_counts`, which validates; calling the class raises
    ``TypeError``.
    """

    _fields = ("frame_size", "cards", "counts", "masses", "log2_masses")
    __slots__ = (*_fields, "_log2_counts", "_weights")
    frame_size: int
    cards: tuple[int, ...]
    counts: tuple[int, ...]
    masses: tuple[float, ...]
    log2_masses: tuple[float, ...]
    # derived while validating, so not compared, and ascending in cardinality
    # like the fields: the log2 of each count, and each layer's weight, count
    # * mass formed as 2^(log2 count + log2 mass)
    _log2_counts: tuple[float, ...]
    _weights: tuple[float, ...]

    def __init__(self, *args, **kwargs):
        # every profile is validated: from_counts and _from_columns build
        # through __new__, and pickle and copy restore through __setstate__
        raise TypeError(
            "CardinalityProfile has no direct constructor; use "
            "CardinalityProfile.from_counts(frame_size, {cardinality: (set_count, per_set_mass)})"
        )

    @classmethod
    def from_counts(
        cls, frame_size: int, rows: Mapping[int, tuple[int, float]]
    ) -> CardinalityProfile:
        """Validated construction from plain ``{cardinality: (set_count,
        per_set_mass)}``, in any order.

        Cardinalities and set counts must be ints, and masses real numbers
        that :func:`_as_mass` accepts; a layer with a zero count is dropped,
        and a zero mass on any other layer is an error.
        """
        if not isinstance(rows, Mapping):
            raise EvidenceError(
                "profile rows must map cardinality to (set count, mass), "
                f"got a {type(rows).__name__}"
            )
        layers = []
        for card, row in rows.items():
            if type(card) is not int:
                raise EvidenceError(f"cardinality {_shown(card)} is not an int")
            try:
                count, mass = row
            except (TypeError, ValueError):
                raise EvidenceError(
                    f"row {_shown(row)} of cardinality {card} is not a (set count, mass) pair"
                ) from None
            if type(count) is not int:
                raise EvidenceError(
                    f"set count {_shown(count)} of cardinality {card} is not an int"
                )
            if count:
                mass = _as_mass(mass, "a profile row")
                if mass == 0.0:
                    raise NegativeMassError("per-set mass must be strictly positive")
                layers.append((card, count, mass, math.log2(mass)))
        # the cardinalities are distinct ints, so this sorts by cardinality
        layers.sort()
        cards, counts, masses, log2_masses = zip(*layers) if layers else ((), (), (), ())
        return cls._from_columns(frame_size, cards, counts, masses, log2_masses)

    @classmethod
    def _from_columns(
        cls,
        frame_size: int,
        cards: Sequence[int],
        counts: Sequence[int] | None,
        masses: Sequence[float],
        log2_masses: Sequence[float],
    ) -> CardinalityProfile:
        """The one validation of a profile, run on every construction.

        Takes columns of equal length, strictly ascending in cardinality,
        of int cardinalities and counts, each mass the double image of its
        log2 mass.  ``counts`` of ``None`` says that ``cards`` is every
        layer 1..N, each full, C(N, k) sets: the counts are then the
        slice ``_binomial_row(N)[1:]``, valid by construction, and their
        log2 are taken up to N // 2 and mirrored.  The frame size must be
        an int of at least 1; per listed layer, ``1 <= k <= N`` and a
        count in ``1..C(N, k)``.  Last, the masses must sum to one.

        Listed cardinalities and counts pass a few C-level checks against
        :func:`math.comb`; only a profile that fails them is walked layer
        by layer, to name its first bad layer.  Each layer's weight,
        2^(log2 count + log2 mass), is formed once, for :meth:`total_mass`
        and the dimension kernel; a weight too large for a float makes the
        total ``inf``.
        """
        _check_frame_size(frame_size)
        if counts is None:
            row = _binomial_row(frame_size)
            counts = row[1:]
            # C(N, k) = C(N, N - k) as exact ints, so their log2 are the same
            # bits: one math.log2 for each k up to N // 2, mirrored without
            # an even N's middle entry, and log2 C(N, N) = 0.0
            half = list(map(math.log2, row[1:frame_size // 2 + 1]))
            log2_counts = (*half, *half[::-1][1 - frame_size % 2:], 0.0)
        else:
            # math.comb per listed layer, not a row: a frame of 20,000 with one
            # layer would walk 10,000 steps of the recurrence
            if not (
                min(cards, default=1) >= 1
                and max(cards, default=1) <= frame_size
                and min(counts, default=1) >= 1
                and all(map(le, counts, map(math.comb, repeat(frame_size), cards)))
            ):
                raise _first_bad_layer(frame_size, cards, counts)
            log2_counts = tuple(map(math.log2, counts))
        try:
            weights = tuple(map(math.pow, repeat(2.0), map(add, log2_counts, log2_masses)))
        except OverflowError:
            raise NonUnitTotalError("profile masses sum to inf, expected 1") from None
        _check_unit_total(weights, "profile masses", _fsum_largest_first)
        profile = cls.__new__(cls)
        object.__setattr__(profile, "frame_size", frame_size)
        object.__setattr__(profile, "cards", tuple(cards))
        object.__setattr__(profile, "counts", tuple(counts))
        object.__setattr__(profile, "masses", tuple(masses))
        object.__setattr__(profile, "log2_masses", tuple(log2_masses))
        object.__setattr__(profile, "_log2_counts", log2_counts)
        object.__setattr__(profile, "_weights", weights)
        return profile

    def total_mass(self) -> float:
        """Sum of count * mass over all layers: the correctly rounded sum
        of the layer weights, 2^(log2 count + log2 mass) each."""
        return _fsum_largest_first(self._weights)

    def to_mass(self, frame: Frame | None = None) -> MassFunction:
        """Expand into an explicit mass function, enumerating every subset
        of each populated layer.

        Only full layers expand: each row must cover all C(N, k) subsets
        of its cardinality, and the frame holds at most
        :data:`DEFAULT_EXPANSION_LIMIT` elements.  ``frame`` defaults to
        synthesized labels.
        """
        if self.frame_size > DEFAULT_EXPANSION_LIMIT:
            raise FrameTooLargeError(
                f"explicit expansion is capped at {DEFAULT_EXPANSION_LIMIT} elements, "
                f"got {self.frame_size}"
            )
        if frame is None:
            frame = Frame.generic(self.frame_size)
        elif not isinstance(frame, Frame):
            raise EvidenceError(f"frame {_shown(frame)} is not a Frame")
        elif frame.size != self.frame_size:
            raise EvidenceError(
                f"frame has {frame.size} elements, profile expects {self.frame_size}"
            )
        binomials = _binomial_row(self.frame_size)
        # highest bit first, so each layer's masks come out descending,
        # a run the constructor's sort reverses in one pass
        bits = [1 << i for i in reversed(range(self.frame_size))]
        masks: list[int] = []
        masses: list[float] = []
        for card, count, mass in zip(self.cards, self.counts, self.masses):
            full = binomials[card]
            if count != full:
                raise PartialLayerError(
                    f"cardinality {card} holds {count} of {full} subsets; "
                    "only full layers expand"
                )
            masks += map(sum, combinations(bits, card))
            masses += repeat(mass, count)
        return MassFunction(frame, masks, masses)


def _check_frame_size(n: int):
    """The one rule on a frame size given as a bare count: an int (not a
    bool) of at least 1."""
    if type(n) is not int:
        raise EvidenceError(f"frame size {_shown(n)} is not an int")
    if n < 1:
        raise EvidenceError("frame size must be at least 1")


# the last row _binomial_row returned, with its n: one immutable pair,
# replaced in one assignment, so a racing caller reads a consistent pair
_last_row: tuple[int, tuple[int, ...]] = (0, (1,))


def _binomial_row(n: int) -> tuple[int, ...]:
    """C(n, 0), C(n, 1), ..., C(n, n) as exact ints.

    The row for n - 1 returned last takes one Pascal step, C(n, k) =
    C(n - 1, k - 1) + C(n - 1, k), the order a sweep asks in; the row for
    n returned last is returned again.  Any other n walks the recurrence
    C(n, k) = C(n, k - 1) (n - k + 1) / k, whose division is exact.  Either
    way only k up to n // 2 is formed, and the rest mirrored, C(n, k) =
    C(n, n - k).
    """
    global _last_row
    last, row = _last_row
    if last == n:
        return row
    if last == n - 1:
        half = [1, *map(add, row[:n // 2], row[1:n // 2 + 1])]
    else:
        count = 1
        half = [count]
        for k in range(1, n // 2 + 1):
            count = count * (n - k + 1) // k
            half.append(count)
    # an even n has one middle entry, which the mirror must not repeat
    row = (*half, *half[::-1][1 - n % 2:])
    _last_row = (n, row)
    return row


def _gather(index: Sequence[int]) -> Callable[[Sequence], tuple]:
    """A getter of ``column[i]`` for each ``i`` in ``index``, as a tuple, in
    one C-level call per column.  ``itemgetter`` returns one index's item
    bare and takes no empty index, so those two gather through ``map``."""
    if len(index) > 1:
        return itemgetter(*index)
    return lambda column: tuple(map(column.__getitem__, index))


def _first_bad_layer(
    frame_size: int, cards: Sequence[int], counts: Sequence[int]
) -> EvidenceError:
    """The error of the first layer, in cardinality order, whose
    cardinality is outside ``1..frame_size`` or whose count is outside
    ``1..C(frame_size, k)``."""
    for card, count in zip(cards, counts):
        if not 1 <= card <= frame_size:
            return EvidenceError(f"cardinality {card} outside 1..{frame_size}")
        if count <= 0:
            return EvidenceError("profile rows must have positive set counts")
        if count > math.comb(frame_size, card):
            return EvidenceError(
                f"{count} sets of cardinality {card} exceed C({frame_size},{card})"
            )


def _as_mass(value, owner) -> float:
    """``value`` as a float: a value that is not a real number (a string
    or a bool, say), or one infinite or too large for a float, is an
    EvidenceError, and NaN or negative a NegativeMassError.  ``owner``
    names it in messages (see :func:`_name`)."""
    if not _is_real(value):
        raise EvidenceError(f"mass {_shown(value)} of {_name(owner)} is not a real number")
    try:
        mass = float(value)
    except OverflowError:
        mass = math.inf
    if mass == math.inf:
        raise _too_large(owner)
    if not mass >= 0.0:
        raise NegativeMassError(f"mass {mass!r} of {_name(owner)} is negative or NaN")
    return mass


def _is_real(value) -> bool:
    """True for a real number that is not a bool."""
    if isinstance(value, bool):
        return False
    if isinstance(value, (float, int)):
        return True
    # imported on first use, so that importing evidim, and every float or
    # int value, goes without the numbers module
    from numbers import Real

    return isinstance(value, Real)


def _refuse_string(labels, taker: str):
    """A str iterates as its characters, so as labels "ab" would read as
    "a" and "b"; it is refused, not guessed at."""
    if isinstance(labels, str):
        raise EvidenceError(f"{taker} takes an iterable of labels, not the string {_shown(labels)}")


def _shown(value) -> str:
    """``repr`` of a value from the input, bounded for a message: strings
    of up to 80 characters, and containers of up to six items two levels
    deep, are shown whole."""
    return _SHOWN.repr(value)


def _name(owner) -> str:
    """A description as it is, or a ``(frame, mask)`` pair as its
    :class:`Subset`, built only when a message needs it."""
    if isinstance(owner, tuple):
        return repr(Subset(*owner))
    return owner


def _too_large(owner) -> EvidenceError:
    return EvidenceError(f"mass of {_name(owner)} is too large for a float")


def _plain_columns(masks: list[int], masses: list) -> bool:
    """True when every mass is a plain float, none is negative, NaN or
    infinite, the sum is finite and the masks are distinct: then
    :func:`_checked_entries` would raise nothing and keep every mass as it
    is.  False sends the columns through that loop."""
    if set(map(type, masses)) != {float}:
        return False
    # a NaN or infinite mass, or a sum past the largest float, makes the sum
    # infinite or NaN; min then sees finite masses only
    return (
        math.isfinite(sum(masses))
        and min(masses) >= 0.0
        and len(set(masks)) == len(masks)
    )


def _checked_entries(frame: Frame, masks: list[int], masses: list) -> dict[int, float]:
    """Each mass as :func:`_as_mass` reads it, by mask, in entry order; the
    first entry whose mass is rejected or whose mask repeats raises."""
    kept: dict[int, float] = {}
    for mask, mass in zip(masks, masses):
        mass = _as_mass(mass, (frame, mask))
        if mask in kept:
            raise DuplicateSubsetError(f"duplicate assignment for {Subset(frame, mask)!r}")
        kept[mask] = mass
    return kept


def _fsum_largest_first(terms: Iterable[float]) -> float:
    """``math.fsum`` of the terms, largest first: the sum of a profile's
    layers.  fsum is correctly rounded in any order, but keeps one partial
    per non-overlapping magnitude, so terms spanning hundreds of binary
    orders, rising as a profile's do in cardinality order, keep its partials
    list growing; falling, they keep it short."""
    return math.fsum(sorted(terms, reverse=True))


def _check_unit_total(terms: Sequence[float], what: str, fsum=math.fsum):
    """Reject nonnegative masses whose exact sum, taken by ``fsum``, is
    further than :data:`MASS_TOLERANCE` from 1; a sum too large for a float
    reads as ``inf``.

    The plain ``sum`` of n nonnegative doubles, left to right, lies within
    a relative gamma(n - 1) = (n - 1)u / (1 - (n - 1)u) of their exact sum,
    u = 2^-53 (Higham, *Accuracy and Stability of Numerical Algorithms*,
    section 4.2), and the compensated ``sum`` of Python 3.12 on is closer
    still.  So a plain sum that is within the tolerance by more than
    n 2^-51 times itself, a safe overbound of that error and of the final
    rounding, proves the exact one within it too, and accepts at once.
    Any other total, near the edge or past it, is taken exactly, so the
    decision and the message are those of the exact sum on every input.
    """
    quick = sum(terms)
    if abs(quick - 1.0) + len(terms) * 2**-51 * quick <= MASS_TOLERANCE:
        return
    try:
        total = fsum(terms)
    except OverflowError:
        total = math.inf
    if abs(total - 1.0) > MASS_TOLERANCE:
        raise NonUnitTotalError(f"{what} sum to {total!r}, expected 1")
