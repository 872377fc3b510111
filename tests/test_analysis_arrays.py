"""The array forms of `mmv.analysis` against the reference loops of
`analysis_loops`: equal values, equal first witnesses and Python scalars,
on the corpus, the one-element algebra, seeded generated algebras and
element-shuffled tabular copies of them.  The questions that read the tables
only, without assuming the MV axioms, are also asked of random tables."""

from __future__ import annotations

import math

import pytest

import analysis_loops as loops
from mmv import analysis
from mmv.analysis import (
    classify,
    filters,
    maximal_filters,
    prime_filters,
    represent_simple,
    width_equation_holds,
)

ALGEBRAS = loops.algebra_set()
IDS = [name for name, _ in ALGEBRAS]
TABLES_TOO = ALGEBRAS + loops.random_tables()
TABLES_TOO_IDS = [name for name, _ in TABLES_TOO]
TABLE_NAMES = ("impl", "neg", "oplus", "star", "join", "meet", "exists", "forall")


def _ints(values) -> bool:
    return all(type(v) is int for v in values)


def test_algebra_set_covers_sizes_and_forms():
    sizes = {algebra.size for _, algebra in ALGEBRAS}
    assert {1, 2, 64} <= sizes and max(sizes) <= 120
    assert sum(algebra.carrier is None for _, algebra in ALGEBRAS) > len(ALGEBRAS) // 2


@pytest.mark.parametrize("name, algebra", TABLES_TOO, ids=TABLES_TOO_IDS)
def test_filters_match_reference(name, algebra):
    assert filters(algebra) == loops.filters(algebra)
    assert prime_filters(algebra) == loops.prime_filters(algebra)
    assert maximal_filters(algebra) == loops.maximal_filters(algebra)
    assert all(_ints(f) for f in filters(algebra))
    assert _ints(algebra.idempotents()) and _ints(algebra.exists_image())


@pytest.mark.parametrize("name, algebra", TABLES_TOO, ids=TABLES_TOO_IDS)
def test_classification_matches_reference(name, algebra):
    result = classify(algebra, width_cap=algebra.size)
    assert (result.fsi, result.fsi_witness) == loops.fsi(algebra)
    assert (result.simple, result.simple_witness) == loops.simplicity(algebra)
    assert (result.width, result.width_witness) == loops.orthogonal_width(algebra, algebra.size)
    assert type(result.fsi) is bool and type(result.simple) is bool
    assert type(result.width) is int and _ints(result.width_witness)
    assert _ints(result.fsi_witness or ()) and _ints(result.simple_witness or ())


@pytest.mark.parametrize("name, algebra", ALGEBRAS, ids=IDS)
def test_fsi_agrees_with_simple(name, algebra):
    # a finite MV-chain is some L_m, which has no idempotent strictly between
    # 0 and 1, so a finite algebra with a chain for its image is simple
    result = classify(algebra, width_cap=algebra.size)
    assert result.fsi == result.simple


@pytest.mark.parametrize("name, algebra", ALGEBRAS, ids=IDS)
def test_quotient_ranks_and_representation_match_reference(name, algebra):
    for filter_set in maximal_filters(algebra):
        assert analysis._quotient_ranks(algebra, filter_set) == loops.quotient_ranks(
            algebra, filter_set
        )
    if classify(algebra, width_cap=algebra.size).simple:
        rep = represent_simple(algebra)
        assert (rep.denominators, rep.mapping) == loops.representation(algebra)
        assert _ints(rep.mapping)


@pytest.mark.parametrize("name, algebra", TABLES_TOO, ids=TABLES_TOO_IDS)
def test_join_to_one_graph_matches_reference(name, algebra):
    vertices = [a for a in range(algebra.size) if a != algebra.one]
    assert analysis._adjacency(algebra, vertices) == loops.adjacency(algebra)


@pytest.mark.parametrize("name, algebra", TABLES_TOO, ids=TABLES_TOO_IDS)
def test_width_equation_matches_reference(name, algebra):
    # k + 1 elements out of size - 1, kept to ~50,000 subsets for the loops
    for k in range(1, 4):
        if math.comb(algebra.size - 1, k + 1) > 50_000:
            continue
        holds, witness = width_equation_holds(algebra, k)
        assert (holds, witness) == loops.width_equation_holds(algebra, k)
        assert type(holds) is bool and _ints(witness or ())


def test_width_equation_scans_past_one_block(monkeypatch):
    # the first failing subset sits in a later block of the scan
    monkeypatch.setattr(analysis, "_BLOCK", 3)
    for name, algebra in TABLES_TOO:
        if algebra.size <= 27:
            for k in (1, 2):
                assert width_equation_holds(algebra, k) == loops.width_equation_holds(algebra, k)


def test_one_element_algebra_is_neither_fsi_nor_simple():
    algebra = loops.one_element()
    result = classify(algebra)
    assert result.fsi is False and result.fsi_witness is None
    assert result.simple is False
    data = result.to_json(algebra)
    assert data["fsi"] is False and data["fsi_witness"] is None


@pytest.mark.parametrize("name", TABLE_NAMES)
def test_tables_are_read_only_int32(name):
    for _, algebra in loops.corpus():  # functional and tabular
        table = getattr(algebra, f"{name}_table")
        assert table.dtype == "int32"
        with pytest.raises(ValueError, match="read-only"):
            table[(0,) * table.ndim] = 1
