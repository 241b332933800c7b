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
    pairs = []
    for entry in data["focal"]:
        if type(entry) is not tuple:  # each well-formed entry was decoded to a tuple
            _exact_keys(entry, _ENTRY_KEYS, "a focal entry")
            raise EvidenceError('"elements" must be a list of labels')
        pairs.append((frame._mask(entry[0]), entry[1]))
    return MassFunction._from_masks(frame, pairs)


def mass_to_json(mass: MassFunction) -> str:
    """Serialize to the JSON mass-function format (focal sets in mask order).

    The text is byte for byte ``json.dumps(payload, ensure_ascii=False,
    indent=2)``, written here around the C string encoder and ``repr`` of
    each mass, because ``indent`` sends ``json.dumps`` to its pure-Python
    encoder.
    """
    labels = [encode_basestring(label) for label in mass.frame.labels]
    entries = [
        '{\n      "elements": [\n        '
        + ",\n        ".join([label for i, label in enumerate(labels) if mask >> i & 1])
        + '\n      ],\n      "mass": '
        + repr(value)
        + "\n    }"
        for mask, value in zip(mass.masks, mass.masses)
    ]
    return (
        '{\n  "frame": [\n    '
        + ",\n    ".join(labels)
        + '\n  ],\n  "focal": [\n    '
        + ",\n    ".join(entries)
        + "\n  ]\n}"
    )
