"""The public value types: copies, immutability, reprs, equality, and the
import path of the CLI."""
from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from evidim import (
    CardinalityProfile,
    ConvergenceRow,
    ConvergenceTable,
    ConvergenceVerdict,
    DimensionReport,
    Frame,
    MassFunction,
    ProbabilityDistribution,
    Subset,
    detect_limit,
    information_dimension,
    max_deng,
    run_convergence,
)

ROOT = Path(__file__).resolve().parent.parent


def _values() -> dict:
    """One value of each public type, by type name."""
    frame = Frame(("a", "b", "c"))
    subset = frame.subset(["a", "c"])
    mass = MassFunction.from_assignments(frame, {subset: 0.25, frame.full_set(): 0.75})
    profile = max_deng(3)
    table = run_convergence("max-deng", 1, 3)
    return {
        "Frame": frame,
        "Subset": subset,
        "MassFunction": mass,
        "CardinalityProfile": profile,
        "ProbabilityDistribution": ProbabilityDistribution((0.25, 0.75)),
        "DimensionReport": information_dimension(mass),
        "ConvergenceRow": table.rows[-1],
        "ConvergenceTable": table,
        "ConvergenceVerdict": detect_limit(table, 2, 0.5),
    }


VALUES = _values()
TYPES = (
    Frame, Subset, MassFunction, CardinalityProfile, ProbabilityDistribution, DimensionReport,
    ConvergenceRow, ConvergenceTable, ConvergenceVerdict,
)
COPIES = {
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


def test_every_public_value_type_is_covered():
    assert {name: type(value) for name, value in VALUES.items()} == {
        cls.__name__: cls for cls in TYPES
    }


class TestCopies:
    @pytest.mark.parametrize("how", COPIES)
    @pytest.mark.parametrize("name", VALUES)
    def test_round_trip_keeps_the_value(self, name, how):
        value = VALUES[name]
        copied = COPIES[how](value)
        assert type(copied) is type(value)
        assert copied == value
        assert hash(copied) == hash(value)
        assert repr(copied) == repr(value)

    @pytest.mark.parametrize("how", COPIES)
    def test_derived_columns_survive(self, how):
        frame, profile = VALUES["Frame"], VALUES["CardinalityProfile"]
        assert COPIES[how](frame)._bits == {"a": 1, "b": 2, "c": 4}
        for derived in ("_log2_counts", "_order", "_log2_weights"):
            kept = getattr(COPIES[how](profile), derived)
            assert type(kept) is tuple and kept == getattr(profile, derived)
        copied = COPIES[how](VALUES["MassFunction"])
        assert copied.frame._bits == frame._bits
        assert copied.frame.subset(["b"]).mask == 2


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("name", ["MassFunction", "CardinalityProfile"])
def test_copies_restore_without_the_constructor(name, how, monkeypatch):
    # a copy is already valid; it restores its slots through __setstate__
    value = VALUES[name]

    def constructor(self, *args, **kwargs):
        raise AssertionError(f"{name} was constructed again")

    monkeypatch.setattr(type(value), "__init__", constructor)
    assert COPIES[how](value) == value


def _fields(value) -> list[str]:
    return [name for name in type(value).__annotations__ if not name.startswith("_")]


class TestImmutability:
    @pytest.mark.parametrize("name", VALUES)
    def test_fields_cannot_be_assigned_or_deleted(self, name):
        value = VALUES[name]
        fields = _fields(value)
        assert fields
        for field in fields:
            before = getattr(value, field)
            with pytest.raises(AttributeError):
                setattr(value, field, before)
            with pytest.raises(AttributeError):
                delattr(value, field)
            assert getattr(value, field) is before

    @pytest.mark.parametrize("name", VALUES)
    def test_no_new_attribute(self, name):
        with pytest.raises(AttributeError):
            VALUES[name].extra = 1

    def test_derived_slots_cannot_be_assigned(self):
        with pytest.raises(AttributeError):
            VALUES["Frame"]._bits = {}
        for derived in ("_log2_counts", "_order", "_log2_weights"):
            with pytest.raises(AttributeError):
                setattr(VALUES["CardinalityProfile"], derived, ())


# captured from the dataclass implementation the reprs must keep
REPRS = {
    "Frame": "Frame(labels=('a', 'b', 'c'))",
    "Subset": "Subset({a, c})",
    "MassFunction": (
        "MassFunction(frame=Frame(labels=('a', 'b', 'c')), masks=(5, 7), masses=(0.25, 0.75))"
    ),
    "CardinalityProfile": (
        "CardinalityProfile(frame_size=3, cards=(1, 2, 3), counts=(3, 3, 1), "
        "masses=(0.05263157894736842, 0.15789473684210525, 0.3684210526315789), "
        "log2_masses=(-4.247927513443585, -2.662965012722429, -1.440572591385981))"
    ),
    "ProbabilityDistribution": "ProbabilityDistribution(probabilities=(0.25, 0.75))",
    "DimensionReport": (
        "DimensionReport(entropy_bits=3.313034941182625, split_scale_bits=2.490465154803952, "
        "dimension=1.3302876110480757, degenerate=False)"
    ),
    "ConvergenceRow": (
        "ConvergenceRow(n=3, entropy_bits=4.247927513443586, "
        "split_scale_bits=3.1070787067647503, dimension=1.36717731166416)"
    ),
    "ConvergenceTable": (
        "ConvergenceTable(family='max-deng', rows=("
        "ConvergenceRow(n=1, entropy_bits=0.0, split_scale_bits=0.0, dimension=0.0), "
        "ConvergenceRow(n=2, entropy_bits=2.321928094887362, "
        "split_scale_bits=1.9756969620861178, dimension=1.1752450600701752), "
        "ConvergenceRow(n=3, entropy_bits=4.247927513443586, "
        "split_scale_bits=3.1070787067647503, dimension=1.36717731166416)))"
    ),
    "ConvergenceVerdict": (
        "ConvergenceVerdict(converged=True, limit_estimate=1.36717731166416, "
        "achieved_at_n=2, tolerance=0.5)"
    ),
}


class TestReprAndEquality:
    @pytest.mark.parametrize("name", VALUES)
    def test_repr_is_pinned(self, name):
        assert repr(VALUES[name]) == REPRS[name]

    def test_frame_equality_ignores_the_bit_table(self):
        frame, twin = Frame(("a", "b")), Frame(("a", "b"))
        object.__setattr__(twin, "_bits", {})
        assert frame == twin and hash(frame) == hash(twin)
        assert frame != Frame(("b", "a"))
        assert frame != ("a", "b")

    def test_profile_equality_ignores_the_log2_counts(self):
        profile, twin = max_deng(4), max_deng(4)
        for derived in ("_log2_counts", "_order", "_log2_weights"):
            object.__setattr__(twin, derived, ())
        assert repr(profile) == repr(twin)
        assert profile == twin and hash(profile) == hash(twin)
        assert profile != max_deng(5)

    def test_mass_functions_compare_by_value(self):
        mass = VALUES["MassFunction"]
        frame = Frame(mass.frame.labels)
        twin = MassFunction.from_assignments(
            frame, [(frame.full_set(), 0.75), (frame.subset(["c", "a"]), 0.25)]
        )
        assert twin == mass and hash(twin) == hash(mass)
        assert MassFunction.from_assignments(frame, {frame.full_set(): 1.0}) != mass

    def test_subset_is_a_dict_key_across_equal_frames(self):
        first, second = Frame(("x", "y")), Frame(("x", "y"))
        table = {first.subset(["x"]): "x", first.full_set(): "xy"}
        assert table[second.singleton("x")] == "x"
        assert table[Subset(second, 3)] == "xy"
        assert Subset(Frame(("y", "x")), 1) not in table


def test_importing_the_cli_loads_no_dataclasses():
    # compared before and after the import, so that a module a site hook
    # loads at startup does not count
    probe = (
        "import sys; before = set(sys.modules); import evidim.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout == "[]\n"
