"""The JSON wire format of a mass function, shared by the CLI.

``{"frame": ["a", "b"], "focal": [{"elements": ["a"], "mass": 0.5}, ...]}``

Parsing is strict: unknown, missing and repeated keys and duplicate
(order-insensitive) subsets are rejected, and each focal entry's labels
are checked as it is read.

The frame numbers every mask.  A valid document has exactly the keys
``"frame"`` and ``"focal"``, so its frame opens or closes the text: the
labels of that frame are read from the text first, and each well-formed
focal entry is decoded straight onto their bits, its mask and mass
appended to two columns and one shared sentinel left in its place.  The
JSON scanner shares repeated object keys but makes a new string for every
label in an array, so a label string lives only until its entry is
decoded, and an entry leaves only its mask and its mass behind.

The 64-label limit on that guessed frame is the memory bound: a guess of
more labels is dropped and any label outside it stops the decode, so no
mask is wider than 64 bits whatever the text lists.

Every other text goes to the strict path: one whose frame is neither
first nor last (a key written with an escape is not found), whose guessed
frame holds more than 64 labels or does not match the decoded document's
frame, or that has an entry nested in another or an entry with an
unknown, repeated or non-string label or no labels.  That path names the
error: each entry becomes a plain dict whose keys are checked and whose
labels :meth:`Frame._mask` looks up, so the errors, their messages and
their order are its own.  A valid entry that repeats a label is the one
input it parses to a mass function.  The masses of a decoded text go to
the :class:`MassFunction` constructor as written, in entry order on the
same masks as the strict path's, so it rejects a mass that is not a real
number as that path does.

:func:`mass_to_json` writes the entries in runs of a fixed length and
joins each run into one string before the next run starts, so only one
run's per-entry strings are alive at a time; the run strings are joined
once at the end, which makes the only full-size copy of the text.
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


# a "frame" key up to its value, and the opening of a text whose first key
# it is; json.loads allows whitespace around every token.  re compiles them
# on the first parse (about 0.2 ms), so importing the module or a sweep
# never does
_FRAME_KEY = r'"frame"[ \t\n\r]*:[ \t\n\r]*'
_FRAME_FIRST = r'[ \t\n\r]*\{[ \t\n\r]*' + _FRAME_KEY
_decoded_value = json.JSONDecoder().raw_decode


def _frame_start(text: str) -> int:
    """Where the value of the ``"frame"`` key that opens ``text`` starts or,
    failing that, of the last ``"frame"`` followed by a colon, past at most
    one label ``"frame"`` of the frame itself; -1 when neither is found."""
    opening = re.match(_FRAME_FIRST, text)
    if opening is not None:
        return opening.end()
    key = re.compile(_FRAME_KEY)
    at = len(text)
    for _ in range(2):
        at = text.rfind('"frame"', 0, at)
        if at < 0:
            break
        closing = key.match(text, at)
        if closing is not None:
            return closing.end()
    return -1


def _guessed_frame(text: str) -> list[str] | None:
    """The labels of the frame that opens or closes ``text``
    (:func:`_frame_start`), when its value decodes to a list of at most
    :data:`MAX_EXPLICIT_FRAME` strings, else ``None``: any other frame is
    left to the strict path to accept or reject."""
    start = _frame_start(text)
    if start < 0:
        return None
    try:
        labels = _decoded_value(text, start)[0]
    except (ValueError, RecursionError):
        return None
    if (
        type(labels) is list
        and len(labels) <= MAX_EXPLICIT_FRAME
        and all(type(label) is str for label in labels)
    ):
        return labels
    return None


# what the mask decode's hook returns for an entry it moved into its columns
_DECODED = object()


class _NotAMask(Exception):
    """An entry's labels repeat or are empty: the mask decode stops."""


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

    The frame that opens or closes the text numbers every mask
    (:func:`_mask_decoded`); a text whose frame is neither, or whose
    entries do not all decode to masks over that frame, is parsed entry by
    entry (:func:`_strict_mass_from_json`), which names the error.  Both
    give the same mass function.
    """
    mass = _mask_decoded(text)
    return _strict_mass_from_json(text) if mass is None else mass


def _mask_decoded(text: str) -> MassFunction | None:
    """The mass function, when every focal entry decodes to a mask on the
    bits of the guessed frame (:func:`_guessed_frame`) and that guess is
    the decoded document's frame.  ``None`` for a text with no guess and
    for any other document that decodes.  The errors it raises are those
    :func:`_strict_mass_from_json` raises on the same text.

    A guess holds at most :data:`MAX_EXPLICIT_FRAME` labels and any other
    label stops the decode, so no mask is wider than 64 bits.  The hook
    appends each entry's mask and mass to two columns and leaves
    :data:`_DECODED` in its place, so a document is taken only when its
    focal list is all such entries and holds every one decoded.
    """
    guess = _guessed_frame(text)
    if guess is None:
        return None
    bit_of = {label: 1 << i for i, label in enumerate(guess)}.__getitem__
    masks: list[int] = []
    masses: list = []
    add_mask, add_mass = masks.append, masses.append

    def decode(pairs: list[tuple[str, object]]) -> object:
        if len(pairs) == 2:
            (key, labels), (other, mass) = pairs
            if key == "mass":
                key, labels, other, mass = other, mass, key, labels
            if key == "elements" and other == "mass" and type(labels) is list:
                # an unknown label is a KeyError, an unhashable one a TypeError
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
    del data, focal  # a sentinel per entry, freed before the constructor runs
    if not (entries_only and frame.labels == tuple(guess)):
        return None
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


# entries per run of mass_to_json: each run's strings are joined and freed
# before the next run's are formed
_RUN = 1024


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
    ``repr`` runs once per distinct mass.  The entries are written in runs
    of :data:`_RUN`, each joined into one string before the next run is
    formed, and the run strings are joined once, with the head of the
    document on the first and the tail on the last.  So at most one run's
    entry strings are alive beside the run strings, and the result is the
    only full-size copy of the text.
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
    masks, masses = mass.masks, mass.masses
    distinct = set(masses)
    reprs = dict(zip(distinct, map(repr, distinct)))
    runs = []
    for begin in range(0, len(masks), _RUN):
        run_masks = masks[begin:begin + _RUN]
        elements = [""] * len(run_masks)
        for start, opening, continuing in tables:
            elements = [
                chosen + (continuing if chosen else opening)[mask >> start & 255]
                for chosen, mask in zip(elements, run_masks)
            ]
        runs.append(",\n    ".join([
            f'{{\n      "elements": [{chosen}\n      ],\n      "mass": {reprs[value]}\n    }}'
            for chosen, value in zip(elements, masses[begin:begin + _RUN])
        ]))
    # the head rides on the first run and the tail on the last (a lone run
    # takes both), so the one join makes the only full-size copy
    runs[0] = (
        '{\n  "frame": [\n    ' + ",\n    ".join(labels) + '\n  ],\n  "focal": [\n    '
        + runs[0]
    )
    runs[-1] += "\n  ]\n}"
    return ",\n    ".join(runs)
