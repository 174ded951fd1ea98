"""The records of the numpy-free modules are NamedTuples.

`frame.PaleyFrame`, `bounds.Family`, `bounds.SparsityThreshold`,
`pairs.ConjectureRecord` and `pairs.ConjectureScanSummary` keep their
field order, defaults and properties, refuse assignment, and compare equal
to the tuple of their fields.  They hold results, not the arguments they
were computed from: a field stays only where a method of its record reads
it.  The CLI turns them into the printed documents; a `ConjectureRecord`
is pinned at two inputs against the golden JSON of `conjecture --support`.
"""

import json
from pathlib import Path

import pytest

from paleyrip.bounds import FAMILIES, Family, SparsityThreshold, max_sparsity
from paleyrip.frame import PaleyFrame, build_frame
from paleyrip.pairs import ConjectureRecord, ConjectureScanSummary, conjecture_scan, conjecture_search

GOLDEN = Path(__file__).resolve().parent / "golden"

RECORDS = [
    (PaleyFrame, ("p", "rows", "entries"), {}),
    (Family, ("f", "min_k", "min_p", "floor"), {"min_k": 1, "min_p": 3, "floor": None}),
    (SparsityThreshold, ("max_even", "floor_threshold"), {}),
    (ConjectureRecord, ("support", "pair", "ratio", "satisfied", "numerator"), {}),
    (ConjectureScanSummary,
     ("records", "fraction_satisfied", "worst_ratio", "worst_support"), {}),
]


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=lambda v: getattr(v, "__name__", ""))
def test_fields_and_defaults(cls, fields, defaults):
    assert cls._fields == fields
    assert cls._field_defaults == defaults


@pytest.mark.parametrize("record", [
    build_frame(7),
    FAMILIES["gershgorin"],
    max_sparsity(1009, "gershgorin"),
    conjecture_search(5, (0, 1, 2, 3, 4)),
    conjecture_scan(19, 5, 2),
], ids=lambda r: type(r).__name__)
def test_assignment_raises(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], 0)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[-1], None)


def test_frame_shape_and_repr():
    frame = build_frame(7)
    assert frame.shape == (4, 7)
    assert repr(frame) == "PaleyFrame(p=7, rows=(0, 1, 2, 4))"


def test_family_defaults_and_tuple_equality():
    f = FAMILIES["gershgorin"].f
    assert Family(f) == (f, 1, 3, None)
    assert FAMILIES["dembo_recursive"][1:3] == (3, 7)
    assert max_sparsity(1009, "gershgorin") == (22, 23)


@pytest.mark.parametrize("support, golden", [
    ((0, 1, 2, 3, 4), "conjecture-p5-support0-4.json"),
    ((2, 11, 5, 0, 7, 12, 8, 3), "conjecture-p13-k8.json"),
])
def test_conjecture_record_unchanged(support, golden):
    doc = json.loads((GOLDEN / golden).read_text())
    rec = conjecture_search(doc["p"], support, doc["alpha"])
    assert rec == (tuple(doc["support"]), tuple(doc["pair"]), doc["ratio"], doc["satisfied"],
                   doc["numerator"])
    assert doc["zero_terms"] == 0
    assert type(rec.numerator) is int and type(rec.satisfied) is bool


def test_scan_summary_records():
    summary = conjecture_scan(19, 12, 20, seed=7)
    assert len(summary.records) == 20
    assert all(type(r) is ConjectureRecord for r in summary.records)
    worst = max(summary.records, key=lambda r: r.ratio)
    assert (summary.worst_ratio, summary.worst_support) == (worst.ratio, worst.support)
