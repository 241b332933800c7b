"""Seeded input generator for the evidim benchmark.

    python3 bench/gen.py --workload NAME --seed N --out DIR [--smoke]

Writes the workload's input files and ``manifest.json`` into DIR.  The
manifest lists the closed loop's operations ("ops") in order, each with the
reference its output is checked against, and the input size.  Files are
written with the stdlib ``json`` module only and references come from
``reference.py``: the program under test sees nothing it produced itself.
The same workload and seed give byte-identical files.

This runs as its own process so that its peak memory stays out of the
``peak_rss_mb`` of the process that runs the timed loop.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import string
import sys
from pathlib import Path

import reference

GOLDEN_TABLES = (
    ("vacuous", 20, "table1.csv"),
    ("uniform-bayesian", 10, "table2.csv"),
    ("uniform-powerset", 25, "table3.csv"),
    ("max-deng", 20, "table4.csv"),
)

# Known defects (ROADMAP item 4): these inputs should exit 2 but do not.
# They stay in the corpus and count as failed ops until the fix lands.
KNOWN_DEFECTS = {
    "nan-mass": "NaN mass is accepted and dropped as non-focal",
    "overflow-mass": "integer mass too large for a float escapes as OverflowError",
    "duplicate-keys": "duplicate JSON keys are resolved last-wins",
}


class Corpus:
    """Accumulates ops, files and input-size counters for one workload."""

    def __init__(self, out: Path):
        self.out = out
        self.ops: list[dict] = []
        self.files = 0
        self.bytes = 0
        self.focal_sets = 0

    def write(self, name: str, text: str, focal_sets: int) -> str:
        data = text.encode("utf-8")
        (self.out / name).write_bytes(data)
        self.files += 1
        self.bytes += len(data)
        self.focal_sets += focal_sets
        return name

    def manifest(self, workload: str, seed: int, notes: str) -> dict:
        return {
            "workload": workload,
            "seed": seed,
            "input": {
                "files": self.files,
                "bytes": self.bytes,
                "focal_sets": self.focal_sets,
                "notes": notes,
            },
            "ops": self.ops,
        }


def _labels(rng: random.Random, n: int) -> list[str]:
    labels: set[str] = set()
    while len(labels) < n:
        labels.add("".join(rng.choice(string.ascii_lowercase) for _ in range(3)))
    return rng.sample(sorted(labels), n)


def _mass_file(rng: random.Random, n: int, masks: list[int]) -> tuple[str, list]:
    """Random-label JSON mass function on the given focal masks, with
    masses that are not symmetric in cardinality; returns the text and the
    (cardinality, mass) pairs as written."""
    labels = _labels(rng, n)
    weights = [rng.random() ** 2 + 1e-3 for _ in masks]
    total = math.fsum(weights)
    focal, pairs = [], []
    for mask, weight in zip(masks, weights):
        mass = weight / total
        elements = [labels[i] for i in range(n) if mask >> i & 1]
        rng.shuffle(elements)
        focal.append({"elements": elements, "mass": mass})
        pairs.append((len(elements), mass))
    return json.dumps({"frame": labels, "focal": focal}), pairs


def _report_expect(pairs) -> dict:
    return {"exit": 0, "report": list(reference.explicit_report(pairs))}


def compute_powerset(corpus: Corpus, rng: random.Random, smoke: bool):
    n = 8 if smoke else 16
    for i in range(2):
        masks = list(range(1, 1 << n))
        rng.shuffle(masks)
        text, pairs = _mass_file(rng, n, masks)
        name = corpus.write(f"powerset{i}.json", text, len(masks))
        # plain on one file, --oracle on the other: a two-op cycle
        extra = ["--oracle"] if i else []
        corpus.ops.append({"argv": ["compute", name, *extra], "file": name,
                           "focal_sets": len(masks), "expect": _report_expect(pairs)})
    return f"full power sets, N={n}, {(1 << n) - 1} focal sets per file"


def sweep_wide(corpus: Corpus, rng: random.Random, smoke: bool):
    n_max = 48 if smoke else 512
    families = ["max-deng", "uniform-powerset"]
    rng.shuffle(families)
    for family in families:
        rows = [[n, *reference.family_report(family, n)[:3]] for n in range(1, n_max + 1)]
        corpus.ops.append({
            "argv": ["sweep", family, "1", str(n_max), "--format", "json",
                     "--detect-limit", "1e-9", "32"],
            "expect": {"exit": 0, "sweep": {"family": family, "rows": rows,
                                             "window": 32, "tolerance": 1e-9}},
        })
    return f"2 sweeps over N=1..{n_max}, {n_max * (n_max + 1)} cardinality rows in all"


def _malformed() -> dict[str, str]:
    """One file per rejection class, keyed by the class.  Each breaks one
    rule only (an empty frame cannot carry mass, so that file breaks two),
    so that the rule it targets is the one that must reject it."""
    d = json.dumps
    ok = [{"elements": ["a"], "mass": 0.5}, {"elements": ["a", "b"], "mass": 0.5}]
    many = [f"x{i}" for i in range(65)]
    return {
        "invalid-json": '{"frame": ["a", "b"], "focal": [',
        "not-an-object": d([["a"], 1.0]),
        "unknown-key": d({"frame": ["a", "b"], "focal": ok, "note": 1}),
        "empty-frame": d({"frame": [], "focal": []}),
        "duplicate-label": d({"frame": ["a", "a"], "focal": ok}),
        "frame-too-large": d({"frame": many, "focal": [{"elements": many, "mass": 1.0}]}),
        "unknown-label": d({"frame": ["a", "b"], "focal": [{"elements": ["z"], "mass": 1.0}]}),
        "empty-subset": d({"frame": ["a", "b"], "focal": [{"elements": [], "mass": 1.0}]}),
        # the positive masses sum to 1, so only the sign rule rejects this file
        "negative-mass": d({"frame": ["a", "b"], "focal": [
            {"elements": ["a"], "mass": 1.0}, {"elements": ["b"], "mass": -0.25}]}),
        "non-unit-total": d({"frame": ["a", "b"], "focal": [
            {"elements": ["a"], "mass": 0.5}, {"elements": ["b"], "mass": 0.4}]}),
        "duplicate-subset": d({"frame": ["a", "b"], "focal": [
            {"elements": ["a", "b"], "mass": 0.5}, {"elements": ["b", "a"], "mass": 0.5}]}),
        "non-numeric-mass": d({"frame": ["a", "b"], "focal": [{"elements": ["a"], "mass": "1"}]}),
        "nan-mass": d({"frame": ["a", "b"], "focal": [
            {"elements": ["a"], "mass": math.nan}, {"elements": ["b"], "mass": 1.0}]}),
        "overflow-mass": d({"frame": ["a", "b"], "focal": [{"elements": ["a"], "mass": 10 ** 400}]}),
        # json.dumps cannot repeat a key, so the object is joined from encoded parts
        "duplicate-keys": '{"frame": %s, "focal": [{"elements": %s, "mass": %s, "mass": %s}, %s]}'
        % (d(["a", "b"]), d(["a"]), d(0.25), d(0.5), d({"elements": ["b"], "mass": 0.5})),
    }


def compute_small(corpus: Corpus, rng: random.Random, smoke: bool):
    valid = 24 if smoke else 240
    for i in range(valid):
        n = rng.randint(2, 10)
        count = rng.randint(1, min((1 << n) - 1, 24))
        masks = rng.sample(range(1, 1 << n), count)
        text, pairs = _mass_file(rng, n, masks)
        name = corpus.write(f"small{i:03d}.json", text, count)
        extra = ["--oracle"] if i % 2 else []
        corpus.ops.append({"argv": ["compute", name, *extra], "file": name,
                           "focal_sets": count, "expect": _report_expect(pairs)})
    malformed = _malformed()
    for kind, text in malformed.items():
        name = corpus.write(f"bad-{kind}.json", text, 0)
        expect = {"exit": 2}
        if kind in KNOWN_DEFECTS:
            expect["known_defect"] = f"{kind}: {KNOWN_DEFECTS[kind]}"
        corpus.ops.append({"argv": ["compute", name], "file": name, "expect": expect})
    for family, n_max, golden in GOLDEN_TABLES:
        corpus.ops.append({
            "argv": ["sweep", family, "1", str(n_max), "--format", "csv", "--decimals", "4"],
            "expect": {"exit": 0, "golden": golden},
        })
    rng.shuffle(corpus.ops)
    return (f"{valid} sparse files (N=2..10, half with --oracle), "
            f"{len(malformed)} malformed files, {len(GOLDEN_TABLES)} paper-table sweeps")


def roundtrip(corpus: Corpus, rng: random.Random, smoke: bool):
    # A two-op cycle, both families at one size: the ops cost about the same,
    # so the median latency is a central value, not the gap between sizes.
    n = 6 if smoke else 15
    cycle = ["max-deng", "uniform-powerset"]
    rng.shuffle(cycle)
    for family in cycle:
        corpus.ops.append({
            "roundtrip": [family, n], "focal_sets": (1 << n) - 1,
            "expect": {"exit": 0, "report": list(reference.family_report(family, n))},
        })
        corpus.focal_sets += (1 << n) - 1
    return f"profile -> explicit -> JSON -> explicit -> profile chains at N={n}"


WORKLOADS = {
    "compute-powerset": compute_powerset,
    "sweep-wide": sweep_wide,
    "compute-small": compute_small,
    "roundtrip": roundtrip,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--smoke", action="store_true", help="small sizes, for the smoke mode")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{args.workload}:{args.seed}")
    corpus = Corpus(args.out)
    notes = WORKLOADS[args.workload](corpus, rng, args.smoke)
    manifest = corpus.manifest(args.workload, args.seed, notes)
    (args.out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
