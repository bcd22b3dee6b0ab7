"""Boogie theory export: golden file, coverage, grammar."""

import pathlib

import pytest

import mbc.model_math as mm
from mbc import boogie_export as bx
from mbc.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "theories.bpl"


def test_matches_golden_byte_exactly(tmp_path):
    out = tmp_path / "theories.bpl"
    assert main(["export-boogie", "--out", str(out)]) == 0
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_sequence_theory_core_lines():
    text = bx.export_theory("Sequence")
    assert "type Sequence T = [int] T ;" in text
    assert ("axiom (forall <T> s: Sequence T, x: T :: {Sequence.extended(s, x)}\n"
            "  Sequence.extended(s, x) == s[Sequence.count(s)+1 := x]);") in text
    assert ("axiom (forall <T> s: Sequence T, x: T :: "
            "{Sequence.count(Sequence.extended(s, x))}\n"
            "  Sequence.count(Sequence.extended(s, x)) == Sequence.count(s)+1);"
            ) in text


def test_sorts_alphabetical():
    text = bx.export_all_text()
    positions = [text.index(f"// {s} theory.")
                 for s in ["Bag", "Map", "Relation", "Sequence", "Set"]]
    assert positions == sorted(positions)


def test_every_operation_exported_or_manifested():
    ops = set()
    for cls in (mm.MSeq, mm.MSet, mm.MBag, mm.MMap, mm.MRel):
        for n in dir(cls):
            if not n.startswith("_") and n not in ("items", "pairs"):
                ops.add(f"{cls.__name__}.{n}")
    ops |= {"int_interval", "identity_relation", "total_relation"}
    covered = set(bx.exported_operations()) | set(bx.NOT_EXPORTED)
    assert ops <= covered, sorted(ops - covered)
    assert not covered - ops, sorted(covered - ops)


def test_grammar_check_accepts_output():
    bx.grammar_check(bx.export_all_text())


def test_grammar_check_rejects_garbage():
    with pytest.raises(bx.ExportError):
        bx.grammar_check("axiom (forall x :: x == (y);")
    with pytest.raises(bx.ExportError):
        bx.grammar_check("procedure Foo();")


def test_unregistered_sort_rejected():
    with pytest.raises(bx.ExportError):
        bx.export_theory("Tree")


def test_export_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.bpl", tmp_path / "b.bpl"
    for p in (p1, p2):
        assert main(["export-boogie", "--out", str(p)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
