"""The JSON wire format of a mass function, shared by the CLI.

``{"frame": ["a", "b"], "focal": [{"elements": ["a"], "mass": 0.5}, ...]}``

Parsing is strict: unknown, missing and repeated keys and duplicate
(order-insensitive) subsets are rejected, and each focal entry's labels
are checked as it is read.

A text of 64 KiB or more has each well-formed focal entry decoded
straight into its bit mask: the decoder numbers labels in the order it
first sees them and returns a plain ``(mask, mass)`` tuple, which cyclic
GC stops tracking, so a label string lives only until its entry is
decoded.  The JSON scanner shares repeated object keys but makes a new
string for every label in an array, so on a full 16-element power set
(524,288 label occurrences) this cuts the parse's traced peak from about
45 to 15 MB.  Once the
frame is known, the masks are renumbered onto the frame's bits by
per-run tables, a step skipped when the labels were first seen in frame
order, as in :func:`mass_to_json` output.

Any other text, and any input that does not decode to that form (an
unknown, repeated or non-string label, an empty entry, a mass that is
not a plain number), is parsed by the strict path: each entry becomes a
plain ``(elements, mass)`` tuple whose labels :meth:`Frame._mask` looks
up, so its errors, messages and their order are that path's.
"""
from __future__ import annotations

import json
from collections import Counter
from json.encoder import encode_basestring
from operator import itemgetter

from .core import MAX_EXPLICIT_FRAME, EvidenceError, Frame, MassFunction


def _object_decoder(elements_of):
    """An ``object_pairs_hook``: a JSON object whose keys are exactly
    "elements" (a list) and "mass", in either order, becomes a plain
    ``(elements_of(list), mass)`` tuple, any other a dict; repeated keys
    are rejected."""

    def decode(pairs: list[tuple[str, object]]) -> tuple | dict:
        if len(pairs) == 2:
            (key, value), (other, mass) = pairs
            if key == "mass":
                key, value, other, mass = other, mass, key, value
            if key == "elements" and other == "mass" and type(value) is list:
                return elements_of(value), mass
        data = dict(pairs)
        if len(data) != len(pairs):
            counts = Counter(key for key, _ in pairs)
            repeated = sorted(key for key, count in counts.items() if count > 1)
            raise EvidenceError(f"repeated keys in a mass-function JSON object: {repeated}")
        return data

    return decode


class _FirstSeen(dict):
    """Labels numbered in the order they are first seen, each new one the
    next bit.  A label past the 64th is a KeyError: no frame holds it."""

    __slots__ = ()

    def __missing__(self, label):
        if len(self) == MAX_EXPLICIT_FRAME:
            raise KeyError(label)
        bit = self[label] = 1 << len(self)
        return bit

    def mask(self, labels: list) -> int | tuple:
        """The labels' mask over these bits, or their tuple when there are
        none, one repeats, or one is unhashable or past the 64th."""
        try:
            mask = sum(map(self.__getitem__, labels))
        except (KeyError, TypeError):
            return tuple(labels)
        # distinct bits add without a carry, so a repeated label lowers the count
        return mask if mask and mask.bit_count() == len(labels) else tuple(labels)


def _renumbered(masks: list[int], bits: list[int]) -> list[int]:
    """``masks`` with bit i of each replaced by ``bits[i]``: each run of 8
    bits gets a table indexed by a mask's byte over that run, each entry
    the union of the ``bits`` the byte selects, so a mask takes one lookup
    per run."""
    renumbered = [0] * len(masks)
    for start in range(0, len(bits), 8):
        table = [0]
        for bit in bits[start:start + 8]:
            table += [chosen | bit for chosen in table]
        renumbered = [
            chosen | table[mask >> start & 255] for chosen, mask in zip(renumbered, masks)
        ]
    return renumbered


def _exact_keys(value, keys: frozenset, what: str):
    """Reject ``value`` unless it is a JSON object with exactly ``keys``
    (a decoded ``(elements, mass)`` tuple has the entry keys)."""
    if type(value) is tuple:
        value = dict.fromkeys(_ENTRY_KEYS)
    if not isinstance(value, dict):
        raise EvidenceError(f"{what} must be an object")
    if value.keys() != keys:
        raise EvidenceError(
            f"{what} needs exactly the keys {sorted(keys)}: "
            f"unknown {sorted(value.keys() - keys)}, missing {sorted(keys - value.keys())}"
        )


_TOP_KEYS = frozenset(("frame", "focal"))
_ENTRY_KEYS = frozenset(("elements", "mass"))
_decode_labels = _object_decoder(tuple)


def _frame_and_focal(data) -> tuple[Frame, list]:
    """The frame and the focal list of a decoded document, checked."""
    _exact_keys(data, _TOP_KEYS, "the top-level JSON value")
    if not isinstance(data["frame"], list):
        raise EvidenceError('"frame" must be a list of labels')
    frame = Frame(tuple(data["frame"]))
    if not isinstance(data["focal"], list):
        raise EvidenceError('"focal" must be a list of assignments')
    return frame, data["focal"]


# Shorter texts take the strict path: they hold few label strings, and on
# them the mask decode's numbering, checks and tables cost 15-50% more time
# (in-process, random sparse files of 1 to 150 KB)
_MASK_DECODE_MIN = 1 << 16


def mass_from_json(text: str) -> MassFunction:
    """Parse the JSON mass-function format, strictly.

    A text of at least :data:`_MASK_DECODE_MIN` characters is first
    decoded to masks (:func:`_mask_decoded`); a shorter one, or one that
    does not decode to plain masks and masses, is parsed entry by entry
    (:func:`_strict_mass_from_json`).  Both give the same mass function,
    or the same error.
    """
    if len(text) >= _MASK_DECODE_MIN:
        mass = _mask_decoded(text)
        if mass is not None:
            return mass
    return _strict_mass_from_json(text)


def _mask_decoded(text: str) -> MassFunction | None:
    """The mass function, when every focal entry decodes to a mask over
    labels in first-seen order with a plain ``float`` or ``int`` mass and
    every label is in the frame; the masks are renumbered onto the frame's
    bits unless the labels were first seen in frame order.  ``None`` for
    any other document that decodes.  The errors it raises are those
    :func:`_strict_mass_from_json` raises on the same text."""
    seen = _FirstSeen()
    try:
        data = json.loads(text, object_pairs_hook=_object_decoder(seen.mask))
    except RecursionError:  # the numbering's frames count toward the depth
        return None
    frame, focal = _frame_and_focal(data)
    if set(map(type, focal)) != {tuple}:
        return None
    masks = list(map(itemgetter(0), focal))
    masses = list(map(itemgetter(1), focal))
    if not (
        set(map(type, masks)) == {int}
        and set(map(type, masses)) <= {float, int}
        and seen.keys() <= frame._bits.keys()
    ):
        return None
    labels = tuple(seen)
    if labels != frame.labels[:len(labels)]:
        masks = _renumbered(masks, list(map(frame._bits.__getitem__, labels)))
    return MassFunction._from_masks(frame, masks, masses)


def _strict_mass_from_json(text: str) -> MassFunction:
    """Parse with each entry decoded to its label tuple and looked up
    through :meth:`Frame._mask`, so the first defect in entry order
    raises."""
    try:
        data = json.loads(text, object_pairs_hook=_decode_labels)
    except RecursionError:
        raise EvidenceError("mass-function JSON is nested too deeply to parse") from None
    frame, focal = _frame_and_focal(data)
    mask_of = frame._mask
    masks = []
    for entry in focal:
        if type(entry) is not tuple:  # each well-formed entry was decoded to a tuple
            _exact_keys(entry, _ENTRY_KEYS, "a focal entry")
            raise EvidenceError('"elements" must be a list of labels')
        masks.append(mask_of(entry[0]))
    return MassFunction._from_masks(frame, masks, list(map(itemgetter(1), focal)))


def mass_to_json(mass: MassFunction) -> str:
    """Serialize to the JSON mass-function format (focal sets in mask order).

    The text is byte for byte ``json.dumps(payload, ensure_ascii=False,
    indent=2)``, written here around the C string encoder and ``repr`` of
    each mass, because ``indent`` sends ``json.dumps`` to its pure-Python
    encoder.  Each run of 8 frame labels (fewer in the last run) gets two
    tables indexed by the byte of a mask over that run, each entry the
    labels the byte selects, encoded and joined: one table for a run that
    opens an entry's list, one with a leading separator for a run that
    continues it.  An entry's labels then take one lookup per run, and
    ``repr`` runs once per distinct mass.
    """
    labels = [encode_basestring(label) for label in mass.frame.labels]
    tables = []
    for start in range(0, len(labels), 8):
        # entry b lists label start + i exactly when bit i of b is set
        continuing = [""]
        for label in labels[start:start + 8]:
            continuing += [chosen + ",\n        " + label for chosen in continuing]
        # an opening run drops the comma of its first separator
        tables.append((start, [chosen[1:] for chosen in continuing], continuing))
    masks = mass.masks
    elements = [""] * len(masks)
    for start, opening, continuing in tables:
        elements = [
            chosen + (continuing if chosen else opening)[mask >> start & 255]
            for chosen, mask in zip(elements, masks)
        ]
    distinct = set(mass.masses)
    reprs = dict(zip(distinct, map(repr, distinct)))
    entries = [
        f'{{\n      "elements": [{chosen}\n      ],\n      "mass": {reprs[value]}\n    }}'
        for chosen, value in zip(elements, mass.masses)
    ]
    return (
        '{\n  "frame": [\n    '
        + ",\n    ".join(labels)
        + '\n  ],\n  "focal": [\n    '
        + ",\n    ".join(entries)
        + "\n  ]\n}"
    )
