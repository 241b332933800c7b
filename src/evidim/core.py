"""Frames of discernment, subsets, mass functions, and cardinality profiles.

A mass function (basic probability assignment) distributes a unit of mass
over nonempty subsets of a finite frame.  Subsets are stored as bit masks
over frame indices, which caps explicit frames at 64 elements; the
:class:`CardinalityProfile` compressed form has no such cap and carries a
log-domain copy of each per-set mass so that very large frames survive
double-precision underflow.

All types are immutable after construction and safe to share across
threads.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping

MAX_EXPLICIT_FRAME = 64
DEFAULT_EXPANSION_LIMIT = 20
MASS_TOLERANCE = 1e-9
SYMMETRY_TOLERANCE = 1e-12


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


@dataclass(frozen=True)
class Frame:
    """Ordered universe of distinct outcome labels.

    Explicit subset operations use a 64-bit membership mask, so a frame
    holds at most :data:`MAX_EXPLICIT_FRAME` labels.  Profile-based
    operations work from a bare element count and accept larger sizes.
    """

    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.labels:
            raise EmptyFrameError("a frame needs at least one label")
        if any(not isinstance(lab, str) or not lab for lab in self.labels):
            raise EvidenceError("frame labels must be nonempty strings")
        if len(set(self.labels)) != len(self.labels):
            raise DuplicateLabelError(f"frame labels are not distinct: {self.labels!r}")
        if len(self.labels) > MAX_EXPLICIT_FRAME:
            raise FrameTooLargeError(
                f"explicit frames are capped at {MAX_EXPLICIT_FRAME} elements, got {len(self.labels)}"
            )

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownLabelError(f"label {label!r} is not in the frame") from None

    def subset(self, labels: Iterable[str]) -> Subset:
        """Subset from labels; duplicates collapse, empty input is rejected."""
        mask = 0
        for label in labels:
            mask |= 1 << self.index(label)
        if mask == 0:
            raise EmptySubsetError("the empty set cannot be a focal element")
        return Subset(self, mask)

    def singleton(self, label: str) -> Subset:
        return Subset(self, 1 << self.index(label))

    def full_set(self) -> Subset:
        return Subset(self, (1 << self.size) - 1)

    def all_subsets(self) -> Iterable[Subset]:
        """All nonempty subsets, ascending by mask."""
        return (Subset(self, mask) for mask in range(1, 1 << self.size))

    @staticmethod
    def generic(size: int) -> Frame:
        """Frame with synthesized labels e1..eN."""
        return Frame(tuple(f"e{i}" for i in range(1, size + 1)))


@dataclass(frozen=True)
class Subset:
    """Nonempty subset of a frame, stored as a membership bit mask."""

    frame: Frame
    mask: int

    def __post_init__(self):
        if self.mask <= 0:
            raise EmptySubsetError("the empty set cannot be a focal element")
        if self.mask >> self.frame.size:
            raise EvidenceError("subset members fall outside the frame")

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


@dataclass(frozen=True)
class ProbabilityDistribution:
    """Strictly positive probabilities summing to one."""

    probabilities: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "probabilities", tuple(float(p) for p in self.probabilities))
        if not self.probabilities:
            raise EvidenceError("a distribution needs at least one outcome")
        if not all(p > 0.0 for p in self.probabilities):
            raise NegativeMassError("probabilities must be strictly positive")
        total = math.fsum(self.probabilities)
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise NonUnitTotalError(f"probabilities sum to {total!r}, expected 1")

    @property
    def size(self) -> int:
        return len(self.probabilities)


@dataclass(frozen=True)
class MassFunction:
    """Map from focal subsets to strictly positive masses summing to one.

    ``focal`` is kept sorted by subset mask, so equal mass functions
    compare equal structurally and iteration order is deterministic.
    Construct through :meth:`from_assignments`, which validates.
    """

    frame: Frame
    focal: tuple[tuple[Subset, float], ...]

    @classmethod
    def from_assignments(
        cls,
        frame: Frame,
        assignments: Mapping[Subset, float] | Iterable[tuple[Subset, float]],
        tolerance: float = MASS_TOLERANCE,
    ) -> MassFunction:
        """Validated construction.

        Zero masses are dropped (a subset with no mass is simply not
        focal); negative, NaN and float-overflowing masses, duplicate
        subsets, subsets from a different frame, and totals off one by
        more than ``tolerance`` are rejected.
        """
        if not tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        if isinstance(assignments, Mapping):
            assignments = assignments.items()
        kept: dict[int, tuple[Subset, float]] = {}
        for subset, mass in assignments:
            if subset.frame != frame:
                raise EvidenceError("subset belongs to a different frame")
            try:
                mass = float(mass)
            except OverflowError:
                raise EvidenceError(f"mass for {subset!r} is too large for a float") from None
            if not mass >= 0.0:
                raise NegativeMassError(f"mass {mass!r} for {subset!r} is negative or NaN")
            if subset.mask in kept:
                raise DuplicateSubsetError(f"duplicate assignment for {subset!r}")
            kept[subset.mask] = (subset, mass)
        focal = tuple(
            (subset, mass)
            for _, (subset, mass) in sorted(kept.items())
            if mass > 0.0
        )
        total = math.fsum(mass for _, mass in focal)
        if abs(total - 1.0) > tolerance:
            raise NonUnitTotalError(f"focal masses sum to {total!r}, expected 1")
        return cls(frame, focal)

    def __len__(self) -> int:
        return len(self.focal)

    def is_bayesian(self) -> bool:
        """True iff every focal element is a singleton."""
        return all(subset.cardinality == 1 for subset, _ in self.focal)

    def to_probability(self) -> ProbabilityDistribution:
        """Bayesian mass as a distribution over its focal singletons.

        Outcomes follow frame order; non-focal elements carry no entry
        (the distribution type holds positive probabilities only).
        """
        if not self.is_bayesian():
            raise NotBayesianError("mass function has non-singleton focal elements")
        return ProbabilityDistribution(tuple(mass for _, mass in self.focal))

    def to_profile(self) -> CardinalityProfile:
        """Compress to per-cardinality (count, shared mass) rows.

        Requires all focal sets of equal cardinality to carry equal mass
        (within a relative :data:`SYMMETRY_TOLERANCE`); the stored
        representative is the mass of the lowest-mask subset in each layer,
        which makes the profile -> explicit round trip bit-exact.
        """
        layers: dict[int, list[float]] = {}
        for subset, mass in self.focal:
            layers.setdefault(subset.cardinality, []).append(mass)
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
            rows[card] = ProfileRow.from_mass(len(masses), masses[0])
        return CardinalityProfile.from_rows(self.frame.size, rows)


@dataclass(frozen=True)
class ProfileRow:
    """One cardinality layer: how many focal sets, and the mass each carries.

    ``log2_mass`` is the authoritative log-domain value; ``mass`` is its
    double-precision image and may underflow to 0.0 for huge frames.
    """

    count: int
    mass: float
    log2_mass: float

    @classmethod
    def from_mass(cls, count: int, mass: float) -> ProfileRow:
        mass = float(mass)
        if mass <= 0.0:
            raise NegativeMassError("per-set mass must be strictly positive")
        return cls(count, mass, math.log2(mass))

    @classmethod
    def from_ratio(cls, count: int, num: int, den: int) -> ProfileRow:
        """Exact-integer construction; keeps the log-domain mass accurate
        even when num/den underflows a double."""
        if num <= 0 or den <= 0:
            raise NegativeMassError("per-set mass must be strictly positive")
        if num == den:
            return cls(count, 1.0, 0.0)
        return cls(count, num / den, math.log2(num) - math.log2(den))


@dataclass(frozen=True)
class CardinalityProfile:
    """Cardinality-symmetric mass function in compressed form.

    ``rows`` maps cardinality k to a :class:`ProfileRow`, ascending in k
    and holding positive-count layers only.  Exact for any family in
    which all focal sets of equal cardinality share one mass.
    """

    frame_size: int
    rows: tuple[tuple[int, ProfileRow], ...]

    def __post_init__(self):
        if self.frame_size < 1:
            raise EvidenceError("frame size must be at least 1")
        rows = tuple(sorted(self.rows))
        object.__setattr__(self, "rows", rows)
        seen = set()
        for card, row in rows:
            if card in seen:
                raise EvidenceError(f"duplicate cardinality row {card}")
            seen.add(card)
            if not 1 <= card <= self.frame_size:
                raise EvidenceError(
                    f"cardinality {card} outside 1..{self.frame_size}"
                )
            if row.count <= 0:
                raise EvidenceError("profile rows must have positive set counts")
            if row.count > math.comb(self.frame_size, card):
                raise EvidenceError(
                    f"{row.count} sets of cardinality {card} exceed C({self.frame_size},{card})"
                )
            if not math.isfinite(row.log2_mass):
                raise NegativeMassError("per-set mass must be strictly positive")
        total = self.total_mass()
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise NonUnitTotalError(f"profile mass totals {total!r}, expected 1")

    @classmethod
    def from_rows(cls, frame_size: int, rows: Mapping[int, ProfileRow]) -> CardinalityProfile:
        return cls(frame_size, tuple((k, row) for k, row in rows.items() if row.count > 0))

    @classmethod
    def from_counts(
        cls, frame_size: int, rows: Mapping[int, tuple[int, float]]
    ) -> CardinalityProfile:
        """Build from plain ``{cardinality: (set_count, per_set_mass)}``."""
        return cls.from_rows(
            frame_size,
            {k: ProfileRow.from_mass(count, mass) for k, (count, mass) in rows.items() if count},
        )

    def total_mass(self) -> float:
        """Sum of count * mass over all rows, summed in the log domain."""
        if not self.rows:
            return 0.0
        return 2.0 ** _logsumexp2(
            [math.log2(row.count) + row.log2_mass for _, row in self.rows]
        )

    @property
    def focal_set_count(self) -> int:
        return sum(row.count for _, row in self.rows)

    @property
    def is_single_singleton(self) -> bool:
        """True iff the whole mass sits on one singleton (degenerate case)."""
        return (
            len(self.rows) == 1
            and self.rows[0][0] == 1
            and self.rows[0][1].count == 1
        )

    def to_mass(self, frame: Frame | None = None, limit: int = DEFAULT_EXPANSION_LIMIT) -> MassFunction:
        """Expand into an explicit mass function, enumerating every subset
        of each populated layer.

        Only full layers expand: each row must cover all C(N, k) subsets
        of its cardinality.  ``frame`` defaults to synthesized labels.
        """
        if self.frame_size > limit:
            raise FrameTooLargeError(
                f"explicit expansion is capped at {limit} elements, got {self.frame_size}"
            )
        if frame is None:
            frame = Frame.generic(self.frame_size)
        elif frame.size != self.frame_size:
            raise EvidenceError(
                f"frame has {frame.size} elements, profile expects {self.frame_size}"
            )
        assignments = []
        for card, row in self.rows:
            full = math.comb(self.frame_size, card)
            if row.count != full:
                raise PartialLayerError(
                    f"cardinality {card} holds {row.count} of {full} subsets; "
                    "only full layers expand"
                )
            for indices in combinations(range(self.frame_size), card):
                mask = 0
                for i in indices:
                    mask |= 1 << i
                assignments.append((Subset(frame, mask), row.mass))
        return MassFunction.from_assignments(frame, assignments)


def _logsumexp2(values: list[float]) -> float:
    """log2 of a sum of powers of two, shifted to avoid overflow."""
    top = max(values)
    return top + math.log2(math.fsum(2.0 ** (v - top) for v in values))


# JSON wire format, shared by the CLI:
# {"frame": ["a", "b"], "focal": [{"elements": ["a"], "mass": 0.5}, ...]}
# Unknown keys, repeated keys and duplicate (order-insensitive) subsets are
# rejected.


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    data = dict(pairs)
    if len(data) != len(pairs):
        counts = Counter(key for key, _ in pairs)
        repeated = sorted(key for key, count in counts.items() if count > 1)
        raise EvidenceError(f"repeated keys in a mass-function JSON object: {repeated}")
    return data


def mass_from_json(text: str, tolerance: float = MASS_TOLERANCE) -> MassFunction:
    """Parse the JSON mass-function format, strictly."""
    data = json.loads(text, object_pairs_hook=_unique_keys)
    if not isinstance(data, dict):
        raise EvidenceError("top-level JSON value must be an object")
    extra = set(data) - {"frame", "focal"}
    if extra:
        raise EvidenceError(f"unknown keys in mass-function JSON: {sorted(extra)}")
    if "frame" not in data or "focal" not in data:
        raise EvidenceError('mass-function JSON needs "frame" and "focal" keys')
    if not isinstance(data["frame"], list):
        raise EvidenceError('"frame" must be a list of labels')
    frame = Frame(tuple(data["frame"]))
    if not isinstance(data["focal"], list):
        raise EvidenceError('"focal" must be a list of assignments')
    assignments = []
    for entry in data["focal"]:
        if not isinstance(entry, dict):
            raise EvidenceError("focal entries must be objects")
        extra = set(entry) - {"elements", "mass"}
        if extra:
            raise EvidenceError(f"unknown keys in focal entry: {sorted(extra)}")
        if "elements" not in entry or "mass" not in entry:
            raise EvidenceError('focal entries need "elements" and "mass" keys')
        if not isinstance(entry["elements"], list):
            raise EvidenceError('"elements" must be a list of labels')
        mass = entry["mass"]
        if isinstance(mass, bool) or not isinstance(mass, (int, float)):
            raise EvidenceError('"mass" must be a number')
        assignments.append((frame.subset(entry["elements"]), mass))
    return MassFunction.from_assignments(frame, assignments, tolerance)


def mass_to_json(mass: MassFunction) -> str:
    """Serialize to the JSON mass-function format (focal sets in mask order)."""
    payload = {
        "frame": list(mass.frame.labels),
        "focal": [
            {"elements": list(subset.members), "mass": value}
            for subset, value in mass.focal
        ],
    }
    return json.dumps(payload, ensure_ascii=False, indent=2)
