"""The JSON wire format of a mass function, shared by the CLI.

``{"frame": ["a", "b"], "focal": [{"elements": ["a"], "mass": 0.5}, ...]}``

Parsing is strict: unknown, missing and repeated keys and duplicate
(order-insensitive) subsets are rejected, and each focal entry's labels
are checked as it is read.

Each well-formed focal entry is decoded straight into a plain
``(elements, mass)`` tuple, which cyclic GC stops tracking, where a dict
and a list per entry stayed tracked for the whole parse; on a full
16-element power set that roughly halves the parse time.
"""
from __future__ import annotations

import json
from collections import Counter
from json.encoder import encode_basestring
from operator import itemgetter

from .core import EvidenceError, Frame, MassFunction


def _decode_object(pairs: list[tuple[str, object]]) -> tuple | dict:
    """A JSON object as a plain ``(elements, mass)`` tuple when its keys are
    exactly "elements" (a list) and "mass", else as a dict; repeated keys
    are rejected."""
    if len(pairs) == 2:
        (key, value), (other, mass) = pairs
        if key == "mass":
            key, value, other, mass = other, mass, key, value
        if key == "elements" and other == "mass" and type(value) is list:
            return tuple(value), mass
    data = dict(pairs)
    if len(data) != len(pairs):
        counts = Counter(key for key, _ in pairs)
        repeated = sorted(key for key, count in counts.items() if count > 1)
        raise EvidenceError(f"repeated keys in a mass-function JSON object: {repeated}")
    return data


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


def mass_from_json(text: str) -> MassFunction:
    """Parse the JSON mass-function format, strictly."""
    try:
        data = json.loads(text, object_pairs_hook=_decode_object)
    except RecursionError:
        raise EvidenceError("mass-function JSON is nested too deeply to parse") from None
    _exact_keys(data, _TOP_KEYS, "the top-level JSON value")
    if not isinstance(data["frame"], list):
        raise EvidenceError('"frame" must be a list of labels')
    frame = Frame(tuple(data["frame"]))
    if not isinstance(data["focal"], list):
        raise EvidenceError('"focal" must be a list of assignments')
    focal = data["focal"]
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
