"""The JSON wire format of a mass function, shared by the CLI.

``{"frame": ["a", "b"], "focal": [{"elements": ["a"], "mass": 0.5}, ...]}``

Parsing is strict: unknown, missing and repeated keys and duplicate
(order-insensitive) subsets are rejected, and each focal entry's labels
are checked as it is read.

Every text is first decoded with each well-formed focal entry turned
straight into its bit mask: the decoder numbers labels in the order it
first sees them, appends each entry's mask and mass to two columns and
leaves one shared sentinel in the entry's place, so a label string lives
only until its entry is decoded and an entry leaves only its mask and its
mass behind.  The decode stops at the first entry that is not a mask.
The JSON scanner shares repeated object keys but makes a new string for
every label in an array, so on a full 16-element power set (524,288
label occurrences) the parse's traced peak is about 8.5 MB, against 45 MB
for a parse that keeps them and 15 MB for one that keeps a ``(mask,
mass)`` tuple per entry.  A text that opens with ``"frame"``, as
:func:`mass_to_json` output and ``json.dumps`` of a ``{"frame",
"focal"}`` dict do, has that value decoded on its own first, and a list
of at most 64 strings seeds the numbering in frame order, so the masks
come out on the frame's bits.  Only when ``"focal"`` comes first are the
masks renumbered onto the frame's bits once it is known, by per-run
tables.

A text that does not decode to that form (an invalid document, an entry
nested in another, or an entry with an unknown, repeated or non-string
label or no labels) is parsed again by the strict path, which names the error: each entry
becomes a plain dict whose keys are checked and whose labels
:meth:`Frame._mask` looks up, so the errors, their messages and their
order are that path's.  A valid entry that repeats a label is the one
input it parses to a mass function.  The masses of a decoded text go to
the :class:`MassFunction` constructor as written, in entry order on the
same masks as the strict path's, so it rejects a mass that is not a
real number as that path does.

:func:`mass_to_json` builds one string per entry and joins them once,
the head and the tail of the document riding on the first and the last
entry, so the text is copied in full only by that join.
"""
from __future__ import annotations

import json
import re
from collections import Counter
from json.encoder import encode_basestring

from .core import MAX_EXPLICIT_FRAME, EvidenceError, Frame, MassFunction


def _checked_object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; repeated keys are rejected."""
    data = dict(pairs)
    if len(data) != len(pairs):
        counts = Counter(key for key, _ in pairs)
        repeated = sorted(key for key, count in counts.items() if count > 1)
        raise EvidenceError(f"repeated keys in a mass-function JSON object: {repeated}")
    return data


class _FirstSeen(dict):
    """Labels numbered in the order they are first seen, each new one the
    next bit.  A label past the 64th is a KeyError: no frame holds it."""

    __slots__ = ()

    def __missing__(self, label):
        if len(self) == MAX_EXPLICIT_FRAME:
            raise KeyError(label)
        bit = self[label] = 1 << len(self)
        return bit


# the opening of a text whose first key is "frame", up to that key's value;
# json.loads allows whitespace around every token.  re compiles it on the
# first parse (about 0.2 ms), so importing the module or a sweep never does
_FRAME_FIRST = r'[ \t\n\r]*\{[ \t\n\r]*"frame"[ \t\n\r]*:[ \t\n\r]*'
_decoded_value = json.JSONDecoder().raw_decode


def _leading_frame(text: str) -> list[str]:
    """The labels of a ``"frame"`` that opens ``text``, when it decodes to
    a list of at most :data:`MAX_EXPLICIT_FRAME` strings, else no labels:
    any other frame is left to the full decode to accept or reject."""
    opening = re.match(_FRAME_FIRST, text)
    if opening is None:
        return []
    try:
        labels = _decoded_value(text, opening.end())[0]
    except (ValueError, RecursionError):
        return []
    if (
        type(labels) is list
        and len(labels) <= MAX_EXPLICIT_FRAME
        and all(type(label) is str for label in labels)
    ):
        return labels
    return []


# what the mask decode's hook returns for an entry it moved into its columns
_DECODED = object()


class _NotAMask(Exception):
    """An entry's labels repeat or are empty: the mask decode stops."""


def _renumbered(masks: list[int], bits: list[int]) -> list[int]:
    """``masks`` with bit i of each replaced by ``bits[i]``, by tables: each
    run of 8 bits gets a table indexed by a mask's byte over that run, each
    entry the union of the ``bits`` the byte selects, so a mask takes one
    lookup per run."""
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
    """Reject ``value`` unless it is a JSON object with exactly ``keys``."""
    if not isinstance(value, dict):
        raise EvidenceError(f"{what} must be an object")
    if value.keys() != keys:
        raise EvidenceError(
            f"{what} needs exactly the keys {sorted(keys)}: "
            f"unknown {sorted(value.keys() - keys)}, missing {sorted(keys - value.keys())}"
        )


_TOP_KEYS = frozenset(("frame", "focal"))
_ENTRY_KEYS = frozenset(("elements", "mass"))


def _frame_and_focal(data) -> tuple[Frame, list]:
    """The frame and the focal list of a decoded document, checked."""
    _exact_keys(data, _TOP_KEYS, "the top-level JSON value")
    if not isinstance(data["frame"], list):
        raise EvidenceError('"frame" must be a list of labels')
    frame = Frame(tuple(data["frame"]))
    if not isinstance(data["focal"], list):
        raise EvidenceError('"focal" must be a list of assignments')
    return frame, data["focal"]


def mass_from_json(text: str) -> MassFunction:
    """Parse the JSON mass-function format, strictly.

    The text is decoded to masks (:func:`_mask_decoded`); one that does
    not decode to masks is parsed entry by entry
    (:func:`_strict_mass_from_json`), which gives the same mass function
    or names the error.
    """
    mass = _mask_decoded(text)
    return _strict_mass_from_json(text) if mass is None else mass


def _mask_decoded(text: str) -> MassFunction | None:
    """The mass function, when every focal entry decodes to a mask over
    labels in first-seen order and every label is in the frame.  A leading
    frame (:func:`_leading_frame`) is numbered first, so its labels are
    seen in frame order; otherwise the masks are renumbered onto the
    frame's bits unless the labels were first seen in frame order.
    ``None`` for any other document that decodes.  The errors it raises
    are those :func:`_strict_mass_from_json` raises on the same text.

    The hook appends each entry's mask and mass to two columns and leaves
    :data:`_DECODED` in its place, so a document is taken only when its
    focal list is all such entries and holds every one decoded.
    """
    seen = _FirstSeen()
    bit_of = seen.__getitem__
    for label in _leading_frame(text):
        bit_of(label)
    masks: list[int] = []
    masses: list = []
    add_mask, add_mass = masks.append, masses.append

    def decode(pairs: list[tuple[str, object]]) -> object:
        if len(pairs) == 2:
            (key, labels), (other, mass) = pairs
            if key == "mass":
                key, labels, other, mass = other, mass, key, labels
            if key == "elements" and other == "mass" and type(labels) is list:
                # a label past the 64th is a KeyError, an unhashable one a TypeError
                mask = sum(map(bit_of, labels))
                # distinct bits add without a carry, so a repeated label
                # lowers the count; no labels leave the mask 0
                if not (mask and mask.bit_count() == len(labels)):
                    raise _NotAMask
                add_mask(mask)
                add_mass(mass)
                return _DECODED
        return _checked_object(pairs)

    try:
        data = json.loads(text, object_pairs_hook=decode)
    # an entry that is not a mask leaves the document to the strict path,
    # which raises any error the rest of the text holds; the hook's frames
    # count toward the recursion limit
    except (KeyError, TypeError, _NotAMask, RecursionError):
        return None
    if data is _DECODED:  # a lone entry: the strict path names the missing keys
        return None
    frame, focal = _frame_and_focal(data)
    entries_only = len(focal) == len(masks) and focal.count(_DECODED) == len(focal)
    del data, focal  # a sentinel per entry, freed before the renumbering
    if not (entries_only and seen.keys() <= frame._bits.keys()):
        return None
    labels = tuple(seen)
    if labels != frame.labels[:len(labels)]:
        masks = _renumbered(masks, list(map(frame._bits.__getitem__, labels)))
    return MassFunction(frame, masks, masses)


def _strict_mass_from_json(text: str) -> MassFunction:
    """Parse with each entry kept as a dict, its keys checked and its
    labels looked up through :meth:`Frame._mask`, so the first defect in
    entry order raises."""
    try:
        data = json.loads(text, object_pairs_hook=_checked_object)
    except RecursionError:
        raise EvidenceError("mass-function JSON is nested too deeply to parse") from None
    frame, focal = _frame_and_focal(data)
    mask_of = frame._mask
    masks = []
    for entry in focal:
        _exact_keys(entry, _ENTRY_KEYS, "a focal entry")
        if not isinstance(entry["elements"], list):
            raise EvidenceError('"elements" must be a list of labels')
        masks.append(mask_of(entry["elements"]))
    return MassFunction(frame, masks, [entry["mass"] for entry in focal])


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
    ``repr`` runs once per distinct mass.  The entries are joined once,
    so the traced peak is about 2.3 times the text (13.9 MB for the 6.1 MB
    of a full 15-element power set), against 4.2 times for a join wrapped
    in a head and a tail with ``+``.
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
    del elements
    head = '{\n  "frame": [\n    ' + ",\n    ".join(labels) + '\n  ],\n  "focal": ['
    # the head rides on the first entry and the tail on the last (a lone
    # entry takes both), so the one join makes the only full-size copy
    entries[0] = head + "\n    " + entries[0]
    entries[-1] += "\n  ]\n}"
    return ",\n    ".join(entries)
