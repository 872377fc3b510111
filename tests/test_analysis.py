"""Tests for finite monadic algebra analysis: generation, identity checking,
filters, classification, representation, and finite-embedding construction."""

from __future__ import annotations

import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mmv import analysis, core
from mmv.analysis import (
    AlgebraError,
    FiniteMonadicAlgebra,
    NotSimpleError,
    WitnessError,
    algebra_from_json,
    algebra_to_json,
    canonical_witnesses,
    classify,
    fep_embed,
    filters,
    generate_subalgebra,
    maximal_filters,
    orthogonal_width,
    prime_filters,
    proper_filters,
    radical,
    represent_simple,
    width_equation_holds,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "algebras"

F = Fraction


def boolean_square() -> FiniteMonadicAlgebra:
    """The four Boolean pairs with the canonical sup/inf quantifiers."""
    return generate_subalgebra(1, 2, [(F(1), F(0))])


def chain_l2() -> FiniteMonadicAlgebra:
    """The three-element chain 0 < 1/2 < 1 (quantifiers are the identity)."""
    return generate_subalgebra(2, 1, [(F(1, 2),)])


def boolean_cube() -> FiniteMonadicAlgebra:
    """All eight Boolean triples with the canonical quantifiers."""
    return generate_subalgebra(
        1, 3, [(F(1), F(0), F(0)), (F(0), F(1), F(0))]
    )


def identity_quantifier_square() -> FiniteMonadicAlgebra:
    """The nine pairs over the three-element chain with exists = identity.

    The identity quantifier satisfies every monadic identity, but the algebra
    is not subdirectly irreducible: its exists-image is the whole product.
    """
    elements = list(core.enumerate_power(2, 2))
    index = {element: i for i, element in enumerate(elements)}
    impl = [
        [index[core.power_binop("impl", a, b)] for b in elements]
        for a in elements
    ]
    labels = [core.format_rational(a) + "," + core.format_rational(b) for a, b in elements]
    return FiniteMonadicAlgebra(
        labels, impl, index[(F(0), F(0))], list(range(len(elements)))
    )


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def test_generate_trivial_algebra():
    algebra = generate_subalgebra(1, 1, [])
    assert algebra.size == 2
    assert [algebra.label(i) for i in range(2)] == ["(0)", "(1)"]
    assert algebra.zero == 0


def test_generate_boolean_square():
    algebra = boolean_square()
    assert algebra.size == 4
    assert [algebra.label(i) for i in range(4)] == [
        "(0, 0)",
        "(0, 1)",
        "(1, 0)",
        "(1, 1)",
    ]


def test_generate_full_chain_from_single_step():
    assert chain_l2().size == 3


def test_generation_closes_under_quantifier():
    # (1, 1/2) alone reaches all nine pairs: the sup quantifier manufactures
    # constants that implication then spreads across both coordinates
    algebra = generate_subalgebra(2, 2, [(F(1), F(1, 2))])
    assert algebra.size == 9
    assert algebra.generators == ((F(1), F(1, 2)),)


def test_generation_respects_max_size():
    with pytest.raises(AlgebraError, match="closure exceeds 4 elements"):
        generate_subalgebra(2, 2, [(F(1), F(1, 2))], max_size=4)


@pytest.mark.parametrize("block", [analysis._BLOCK, 1])
def test_generation_accepts_a_closure_of_exactly_max_size(block, monkeypatch):
    monkeypatch.setattr(analysis, "_BLOCK", block)
    assert generate_subalgebra(2, 2, [(F(1), F(1, 2))], max_size=9).size == 9
    with pytest.raises(AlgebraError, match="^closure exceeds 8 elements$"):
        generate_subalgebra(2, 2, [(F(1), F(1, 2))], max_size=8)


@pytest.mark.parametrize("block", [analysis._BLOCK, 3])
def test_generation_closes_a_chain_over_many_rounds(block, monkeypatch):
    # 1/m generates L_m a few elements at a time: ten rounds at m = 60
    monkeypatch.setattr(analysis, "_BLOCK", block)
    rounds = []
    round_ = analysis._round

    def spy(rows, *args):
        rounds.append(len(rows))
        return round_(rows, *args)

    monkeypatch.setattr(analysis, "_round", spy)
    for m in range(1, 61):
        chain = FiniteMonadicAlgebra.from_carrier(m, 1, core.enumerate_power(m, 1))
        rounds.clear()
        assert _tables(generate_subalgebra(m, 1, [(F(1, m),)])) == _tables(chain)
    assert len(rounds) == 10


def test_generation_stops_inside_a_large_round(monkeypatch):
    # 300 Boolean generators on 12 points make a first round of ~90,000
    # implications; the limit must stop it after a few blocks, each bounded
    rng = random.Random(5)
    generators = list(
        {tuple(F(rng.randint(0, 1)) for _ in range(12)) for _ in range(300)}
    )
    blocks = []
    row_blocks = analysis._row_blocks

    def spy(rows, values_per_row):
        for block in row_blocks(rows, values_per_row):
            blocks.append((block.stop - block.start) * values_per_row // 12)  # results
            yield block

    monkeypatch.setattr(analysis, "_BLOCK", 1024)
    monkeypatch.setattr(analysis, "_row_blocks", spy)
    with pytest.raises(AlgebraError, match="closure exceeds 400 elements"):
        generate_subalgebra(1, 12, generators, max_size=400)
    full_round = (len(generators) + 1) ** 2
    assert max(blocks) <= 2 * 1024
    assert sum(blocks) < full_round // 20


def test_closure_blocks_hold_a_bounded_number_of_values(monkeypatch):
    # 8 generators, each 1 on its own block of 4 of the 32 points, close to
    # a 256-element Boolean algebra; blocks sized by pairs alone would hold
    # 2**17 rows of 32 values each, ~50 MB at the peak
    n = 32
    generators = [tuple(F(int(i // 4 == k)) for i in range(n)) for k in range(8)]
    generate_subalgebra(1, n, generators[:1])  # load what the first call loads
    tracemalloc.start()
    try:
        blocked = generate_subalgebra(1, n, generators)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert blocked.size == 256
    assert peak < 8 << 20
    monkeypatch.setattr(analysis, "_BLOCK", 1 << 40)
    assert _tables(blocked) == _tables(generate_subalgebra(1, n, generators))


def test_generator_must_live_in_the_power():
    with pytest.raises(AlgebraError, match="is not an n-tuple over the m-chain"):
        generate_subalgebra(2, 1, [(F(1, 3),)])


def test_from_carrier_requires_closure():
    with pytest.raises(AlgebraError, match="carrier is not closed"):
        FiniteMonadicAlgebra.from_carrier(
            1, 2, [(F(0), F(0)), (F(1), F(0)), (F(1), F(1))]
        )


# ---------------------------------------------------------------------------
# identity validation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "factory", [boolean_square, chain_l2, boolean_cube, identity_quantifier_square]
)
def test_valid_algebras_have_no_violations(factory):
    assert factory().validate() == []


def test_generated_power_l2_squared_is_valid():
    algebra = generate_subalgebra(2, 2, [(F(1), F(1, 2)), (F(1, 2), F(0))])
    assert algebra.size == 9
    assert algebra.validate() == []


def test_corpus_broken_exists_violations():
    data = json.loads((CORPUS / "broken-exists.json").read_text())
    algebra = algebra_from_json(data, check=False)
    violations = algebra.validate()
    identities = {v.identity.split(":")[0] for v in violations}
    assert identities == {"M2", "M3", "M4"}
    witnesses = {(v.identity.split(":")[0], tuple(v.witness)) for v in violations}
    assert ("M2", ("(0,1)", "(0,1)")) in witnesses


def test_constructor_rejects_broken_algebra_when_checking():
    data = json.loads((CORPUS / "broken-exists.json").read_text())
    with pytest.raises(AlgebraError, match="identity check"):
        algebra_from_json(data, check=True)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(labels=[], impl=[], zero=0, exists=[]), "empty carrier"),
        (
            dict(labels=["a", "a"], impl=[[0, 0], [0, 0]], zero=0, exists=[0, 0]),
            "duplicate element labels",
        ),
        (
            dict(labels=["a", "b"], impl=[[0, 0]], zero=0, exists=[0, 0]),
            "implication table must be 2x2",
        ),
        (
            dict(labels=["a", "b"], impl=[[0, 0], [0, 0]], zero=0, exists=[0]),
            "exists column must have 2 entries",
        ),
        (
            dict(labels=["a", "b"], impl=[[0, 5], [0, 0]], zero=0, exists=[0, 0]),
            "not an element index",
        ),
    ],
)
def test_tabular_shape_errors(kwargs, message):
    with pytest.raises(AlgebraError, match=message):
        FiniteMonadicAlgebra(**kwargs)


# ---------------------------------------------------------------------------
# filters
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "factory", [boolean_square, chain_l2, boolean_cube, identity_quantifier_square]
)
def test_membership_mask_matches_isin(factory):
    algebra = factory()
    size = algebra.size
    rng = random.Random(size)
    members = [
        [],
        list(range(size)),
        [0, 0, size - 1, size - 1],
        [rng.randrange(size) for _ in range(2 * size)],
        *([i] for i in range(size)),
        *(sorted(f) for f in filters(algebra)),
        algebra.exists_table,
    ]
    assert algebra.exists_table.dtype == np.int32
    for xs in members:
        mask = analysis._mask(size, xs)
        assert mask.dtype == bool
        assert mask.tolist() == np.isin(np.arange(size), xs).tolist()


def test_distinct_rows():
    assert analysis._distinct(np.array([[0, 1], [1, 0]]))
    assert not analysis._distinct(np.array([[2, -1], [0, 0], [2, -1]]))
    assert analysis._distinct(np.array([[-3], [2]]))
    assert analysis._distinct(np.zeros((1, 0), dtype=np.int64))
    assert not analysis._distinct(np.zeros((2, 0), dtype=np.int64))
    big = np.array([[2**70, 0], [2**70, 1]], dtype=object)
    assert analysis._distinct(big) and not analysis._distinct(big[[0, 0]])


def test_boolean_square_filters():
    algebra = boolean_square()
    assert [sorted(f) for f in filters(algebra)] == [
        [3],
        [1, 3],
        [2, 3],
        [0, 1, 2, 3],
    ]
    assert len(proper_filters(algebra)) == 3
    assert [sorted(f) for f in prime_filters(algebra)] == [[1, 3], [2, 3]]
    assert prime_filters(algebra) == maximal_filters(algebra)


def test_chain_filters_are_trivial():
    # 1/2 * 1/2 = 0, so the only idempotents are the endpoints
    algebra = chain_l2()
    assert [sorted(f) for f in filters(algebra)] == [[2], [0, 1, 2]]
    assert maximal_filters(algebra) == [frozenset({2})]


def test_identity_quantifier_square_filters():
    algebra = identity_quantifier_square()
    assert len(filters(algebra)) == 4
    assert len(proper_filters(algebra)) == 3
    assert len(prime_filters(algebra)) == 2
    assert len(maximal_filters(algebra)) == 2


@pytest.mark.parametrize(
    "factory", [boolean_square, chain_l2, boolean_cube, identity_quantifier_square]
)
def test_filter_invariants(factory):
    algebra = factory()
    one = algebra.one
    for filter_set in filters(algebra):
        assert one in filter_set
        for a in filter_set:
            # upward closed
            for b in range(algebra.size):
                if algebra.leq(a, b):
                    assert b in filter_set
            # closed under the strong conjunction
            for b in filter_set:
                assert algebra.star_table[a][b] in filter_set
    assert set(prime_filters(algebra)) <= set(proper_filters(algebra))
    assert set(maximal_filters(algebra)) <= set(proper_filters(algebra))


# ---------------------------------------------------------------------------
# radical
# ---------------------------------------------------------------------------


def test_radical_oracles():
    assert sorted(radical(boolean_square())) == [3]
    algebra = identity_quantifier_square()
    assert [algebra.label(i) for i in sorted(radical(algebra))] == ["1,1"]


@pytest.mark.parametrize(
    "factory", [boolean_square, chain_l2, boolean_cube, identity_quantifier_square]
)
def test_radical_matches_double_power_characterization(factory):
    # the radical is exactly the set of a with 2(a^n) = 1 for every n
    algebra = factory()
    rad = radical(algebra)

    def always_doubles_to_one(a: int) -> bool:
        return all(
            algebra.oplus_table[p][p] == algebra.one
            for p in (algebra.star_power(a, n) for n in range(1, algebra.size + 1))
        )

    for a in range(algebra.size):
        assert (a in rad) == always_doubles_to_one(a)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_boolean_square():
    algebra = boolean_square()
    result = classify(algebra)
    assert result.fsi and result.simple
    assert result.width == 2
    assert {algebra.label(i) for i in result.width_witness} == {"(0, 1)", "(1, 0)"}
    assert result.exists_image == [0, 3]


def test_classify_chain():
    result = classify(chain_l2())
    assert result.fsi and result.simple
    assert result.width == 1


def test_classify_identity_quantifier_square():
    algebra = identity_quantifier_square()
    result = classify(algebra)
    assert not result.fsi
    assert not result.simple
    assert result.fsi_witness is not None
    assert result.simple_witness is not None
    # the simplicity witness is a nontrivial proper monadic filter
    witness = frozenset(result.simple_witness)
    assert witness in set(proper_filters(algebra))
    assert witness != frozenset({algebra.one})
    data = result.to_json(algebra)
    assert data["fsi"] is False and data["simple"] is False


def test_classification_json_shape():
    algebra = boolean_square()
    data = classify(algebra).to_json(algebra)
    assert data["fsi"] is True and data["simple"] is True
    assert data["width"] == 2
    assert data["exists_image"] == ["(0, 0)", "(1, 1)"]
    assert data["width_witness"] == ["(0, 1)", "(1, 0)"]


@pytest.mark.parametrize("m", range(1, 9))
def test_chains_are_simple(m):
    algebra = generate_subalgebra(m, 1, [(F(1, m),)])
    assert algebra.size == m + 1
    result = classify(algebra)
    assert result.fsi and result.simple
    assert result.width == 1


@pytest.mark.parametrize("m", range(1, 9))
def test_chain_absorption_property(m):
    # on a chain, anything below every power of b is absorbed by b:
    # a <= b^n for all n forces a = a * b
    chain = core.enumerate_chain(m)
    for a, b in itertools.product(chain, repeat=2):
        powers = (core.star_power(b, n) for n in range(1, m + 2))
        if all(a <= p for p in powers):
            assert core.mv_star(a, b) == a


# ---------------------------------------------------------------------------
# orthogonal width
# ---------------------------------------------------------------------------


def test_orthogonal_width_oracles():
    assert orthogonal_width(chain_l2()) == (1, [1])
    size, witness = orthogonal_width(boolean_square())
    assert size == 2 and witness == [1, 2]
    size, witness = orthogonal_width(boolean_cube())
    assert size == 3
    algebra = boolean_cube()
    # witness elements are pairwise orthogonal: none is 1, joins are 1
    for a, b in itertools.combinations(witness, 2):
        assert algebra.join_table[a][b] == algebra.one
        assert a != algebra.one and b != algebra.one


def test_orthogonal_width_cap():
    with pytest.raises(AlgebraError, match="width brute force capped"):
        orthogonal_width(boolean_square(), cap=2)


# ---------------------------------------------------------------------------
# width equations
# ---------------------------------------------------------------------------


def test_width_equation_frozen_table():
    square = boolean_square()
    assert width_equation_holds(square, 1)[0] is False
    assert width_equation_holds(square, 2)[0] is True
    assert width_equation_holds(chain_l2(), 1)[0] is True
    cube = boolean_cube()
    assert width_equation_holds(cube, 2)[0] is False
    assert width_equation_holds(cube, 3)[0] is True


def test_width_equation_failure_witness():
    square = boolean_square()
    holds, witness = width_equation_holds(square, 1)
    assert not holds
    assert [square.label(i) for i in witness] == ["(0, 1)", "(1, 0)"]


def test_width_equation_monotone_in_k():
    square = boolean_square()
    for k in range(2, 5):
        assert width_equation_holds(square, k)[0] is True


def test_width_equation_requires_positive_k():
    with pytest.raises(ValueError, match="k must be >= 1"):
        width_equation_holds(boolean_square(), 0)


def test_width_agrees_with_least_width_equation():
    for algebra in (boolean_square(), chain_l2(), boolean_cube()):
        width, _ = orthogonal_width(algebra)
        assert width_equation_holds(algebra, width)[0]
        if width > 1:
            assert not width_equation_holds(algebra, width - 1)[0]


# ---------------------------------------------------------------------------
# representation of simple algebras
# ---------------------------------------------------------------------------


def test_represent_boolean_square_is_bijective_onto_pairs():
    algebra = boolean_square()
    rep = represent_simple(algebra)
    assert rep.denominators == (1, 1)
    assert len(rep.index_filters) == 2
    images = sorted(rep.mapping.values())
    assert images == [
        (F(0), F(0)),
        (F(0), F(1)),
        (F(1), F(0)),
        (F(1), F(1)),
    ]


def test_represent_trivial_algebra():
    rep = represent_simple(generate_subalgebra(1, 1, []))
    assert rep.denominators == (1,)
    assert rep.mapping == {0: (F(0),), 1: (F(1),)}


def test_represent_chain_keeps_granularity():
    rep = represent_simple(chain_l2())
    assert rep.denominators == (2,)
    assert rep.mapping == {0: (F(0),), 1: (F(1, 2),), 2: (F(1),)}


def test_representation_is_a_homomorphism():
    algebra = boolean_square()
    rep = represent_simple(algebra)
    f = rep.mapping
    for a in range(algebra.size):
        for b in range(algebra.size):
            assert f[algebra.impl_table[a][b]] == core.power_binop(
                "impl", f[a], f[b]
            )
            assert f[algebra.star_table[a][b]] == core.power_binop(
                "star", f[a], f[b]
            )
    for a in range(algebra.size):
        assert f[algebra.exists_table[a]] == core.exists_sup(f[a])
        assert f[algebra.forall_table[a]] == core.forall_inf(f[a])


def test_representation_json_shape():
    algebra = chain_l2()
    data = represent_simple(algebra).to_json(algebra)
    assert data["index"] == [["(1)"]]
    assert data["denominators"] == [2]
    assert data["embedding"] == {"(0)": ["0"], "(1/2)": ["1/2"], "(1)": ["1"]}


def test_represent_refuses_non_simple_algebra():
    algebra = identity_quantifier_square()
    with pytest.raises(NotSimpleError, match="representation refused") as info:
        represent_simple(algebra)
    classification = info.value.classification
    assert classification.simple is False
    assert classification.simple_witness is not None


# ---------------------------------------------------------------------------
# finite embedding of witnessed families
# ---------------------------------------------------------------------------


def test_fep_three_point_example():
    a = (F(1, 2), F(1, 3), F(1))
    inf_a = (F(1, 3), F(1, 3), F(1, 3))
    emb = fep_embed([a, inf_a])
    assert emb.m == 6
    assert emb.n == 2
    assert emb.points == (1, 0)
    assert emb.mapping[a] == (F(1, 3), F(1, 2))
    assert emb.mapping[inf_a] == (F(1, 3), F(1, 3))


def test_fep_trivial_family():
    emb = fep_embed([(F(0), F(0)), (F(1), F(1))])
    assert (emb.m, emb.n) == (1, 1)
    assert emb.points == (0,)


def test_fep_witness_condition_is_checked():
    a = (F(1, 2), F(1, 3), F(1))
    with pytest.raises(
        WitnessError,
        match=r"witness point 0 for \(1/2, 1/3, 1\) does not attain its minimum 1/3",
    ):
        fep_embed([a], witnesses={a: 0})
    with pytest.raises(WitnessError, match="out of range"):
        fep_embed([a], witnesses={a: 7})
    with pytest.raises(WitnessError, match="no witness point"):
        fep_embed([a], witnesses={})


def test_fep_witness_overlay_changes_kept_points():
    b = (F(1, 3), F(1, 3), F(1))
    assert canonical_witnesses([b], 3) == {b: 0}
    assert fep_embed([b]).points == (0,)
    assert fep_embed([b], witnesses={b: 1}).points == (1,)


def test_fep_input_validation():
    with pytest.raises(ValueError, match="cannot infer the point count"):
        fep_embed([])
    with pytest.raises(ValueError, match="is not a function on 3 points"):
        fep_embed([(F(1, 3), F(1, 3), F(1)), (F(1, 2),)])
    with pytest.raises(ValueError, match="at least one point"):
        fep_embed([(F(1),)], points=0)
    with pytest.raises(ValueError, match="outside"):
        fep_embed([(F(2), F(0))])


def test_fep_json_shape():
    # a single function keeps only its witness point, so only the minimum
    # value's denominator survives
    a = (F(1, 2), F(1, 3), F(1))
    data = fep_embed([a]).to_json()
    assert data["m"] == 3
    assert data["n"] == 1
    assert data["points"] == [1]
    assert data["embedding"] == [
        {"element": ["1/2", "1/3", "1"], "image": ["1/3"]}
    ]


def test_fep_random_families_embed_and_preserve_structure():
    rng = random.Random(20250825)
    chain = core.enumerate_chain(4)
    for _ in range(25):
        points = rng.randint(1, 4)
        family = list(
            dict.fromkeys(
                tuple(rng.choice(chain) for _ in range(points))
                for _ in range(rng.randint(1, 6))
            )
        )
        emb = fep_embed(family)
        images = [emb.mapping[element] for element in family]
        # injective, inside the target power, zero preserved pointwise
        assert len(set(images)) == len(family)
        for element, image in zip(family, images):
            assert core.in_power(image, emb.m, emb.n)
            assert min(image) == min(element)
        # implication preserved whenever the pointwise result stays in S
        family_set = set(family)
        for x, y in itertools.product(family, repeat=2):
            pointwise = core.power_binop("impl", x, y)
            if pointwise in family_set:
                assert emb.mapping[pointwise] == core.power_binop(
                    "impl", emb.mapping[x], emb.mapping[y]
                )


def test_canonical_witnesses_pick_first_minimum():
    a = (F(1, 2), F(1, 3), F(1))
    b = (F(1, 3), F(1, 3), F(1, 3))
    assert canonical_witnesses([a, b], 3) == {a: 1, b: 0}


# Faulty inputs on 3 points: (elements, witnesses of those elements).
FEP_FAULTS = {
    "duplicate": (
        [(F(1, 4), F(1, 2), F(1, 4)), (F(1, 4), F(1, 2), F(1, 4))],
        {(F(1, 4), F(1, 2), F(1, 4)): 2},
    ),
    "length": ([(F(1, 2), F(1, 2))], {(F(1, 2), F(1, 2)): 0}),
    "length and range": ([(F(2),)], {(F(2),): 0}),
    "below 0": ([(F(1, 2), F(-1, 3), F(1))], {(F(1, 2), F(-1, 3), F(1)): 1}),
    "above 1": ([(F(0), F(3, 2), F(1))], {(F(0), F(3, 2), F(1)): 0}),
    "missing witness": ([(F(1, 4), F(1), F(1))], {}),
    "witness out of range": ([(F(1), F(1, 5), F(1))], {(F(1), F(1, 5), F(1)): 3}),
    "witness off the minimum": ([(F(1, 2), F(1, 6), F(1))], {(F(1, 2), F(1, 6), F(1)): 0}),
}
FEP_GOOD = ([(F(1, 2), F(1, 3), F(1)), (F(1, 3), F(1, 3), F(1, 3))], {
    (F(1, 2), F(1, 3), F(1)): 1, (F(1, 3), F(1, 3), F(1, 3)): 2,
})


def reference_fep_error(family, witnesses, points=None):
    """(type, message) of the first input check fep_embed fails, or None.

    Lengths and values are checked element by element in family order
    first, then the witnesses, also in family order.
    """
    family = list(dict.fromkeys(family))
    points = len(family[0]) if points is None else points
    label = analysis._element_label
    for element in family:
        if len(element) != points:
            return ValueError, f"element {label(element)} is not a function on {points} points"
        if not all(0 <= v <= 1 for v in element):
            return ValueError, f"element {label(element)} takes values outside [0,1]"
    if witnesses is None:
        return None
    for element in family:
        if element not in witnesses:
            return WitnessError, f"no witness point for {label(element)}"
        w = witnesses[element]
        if not 0 <= w < points:
            return WitnessError, f"witness point {w} for {label(element)} is out of range"
        if element[w] != min(element):
            return WitnessError, (
                f"witness point {w} for {label(element)} does not attain "
                f"its minimum {core.format_rational(min(element))}"
            )
    return None


def _fep_error(*args):
    try:
        fep_embed(*args)
    except (ValueError, WitnessError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("first, second", itertools.permutations(FEP_FAULTS, 2))
def test_fep_reports_the_first_faulty_element(first, second):
    family = FEP_GOOD[0][:1] + FEP_FAULTS[first][0] + FEP_GOOD[0][1:] + FEP_FAULTS[second][0]
    witnesses = {**FEP_GOOD[1], **FEP_FAULTS[first][1], **FEP_FAULTS[second][1]}
    expected = reference_fep_error(family, witnesses)
    assert expected is not None or {first, second} == {"duplicate"}
    assert _fep_error(family, witnesses) == expected
    assert _fep_error(family, None) == reference_fep_error(family, None)
    # the family again, each element twice in a row: duplicates change nothing
    doubled = [element for element in family for _ in range(2)]
    assert _fep_error(doubled, witnesses) == expected


def test_fep_checks_values_before_witnesses():
    off_minimum, short = FEP_FAULTS["witness off the minimum"], FEP_FAULTS["length"]
    witnesses = {**off_minimum[1], **short[1]}
    for family in (off_minimum[0] + short[0], short[0] + off_minimum[0]):
        assert _fep_error(family, witnesses, 3) == (
            ValueError, "element (1/2, 1/2) is not a function on 3 points"
        )
    above, below = FEP_FAULTS["above 1"][0], FEP_FAULTS["below 0"][0]
    assert _fep_error(above + below, None) == (
        ValueError, "element (0, 3/2, 1) takes values outside [0,1]"
    )
    assert _fep_error(below + above, None) == (
        ValueError, "element (1/2, -1/3, 1) takes values outside [0,1]"
    )
    missing, out_of_range = FEP_FAULTS["missing witness"], FEP_FAULTS["witness out of range"]
    witnesses = {**missing[1], **out_of_range[1], **off_minimum[1]}
    assert _fep_error(out_of_range[0] + missing[0] + off_minimum[0], witnesses) == (
        WitnessError, "witness point 3 for (1, 1/5, 1) is out of range"
    )
    assert _fep_error(off_minimum[0] + missing[0], witnesses) == (
        WitnessError, "witness point 0 for (1/2, 1/6, 1) does not attain its minimum 1/6"
    )
    assert _fep_error(missing[0] + off_minimum[0], witnesses) == (
        WitnessError, "no witness point for (1/4, 1, 1)"
    )
    assert _fep_error([], {}, 3) is None


def reference_fep_json(family, witnesses, points):
    """fep_embed(family, witnesses, points).to_json(), pair by pair in Fractions."""
    subset = list(dict.fromkeys(family))
    if not subset:
        return {"m": 1, "n": 1, "points": [0], "embedding": []}
    if witnesses is None:
        witnesses = canonical_witnesses(subset, points)
    m, chosen, mapping = reference_fep(subset, witnesses)
    return {
        "m": m,
        "n": len(chosen),
        "points": list(chosen),
        "embedding": [
            {"element": core.format_tuple(a), "image": core.format_tuple(mapping[a])}
            for a in subset
        ],
    }


@pytest.mark.parametrize("seed", range(40))
def test_fep_json_matches_fraction_reference(seed):
    rng = random.Random(seed)
    points = rng.randint(1, 4)
    values = [0, 1, F(0), F(1), F(1, 2), F(1, 3), F(2, 3), F(3, 4), F(1, 6)]
    size = rng.randint(0, 8) if seed > 1 else 0  # seeds 0 and 1: the empty family
    family = [tuple(rng.choice(values) for _ in range(points)) for _ in range(size)]
    # repeats, some of them written with int entries where the first has Fractions
    family += [tuple(int(v) if v.denominator == 1 else v for v in e) for e in family[::2]]
    rng.shuffle(family)
    witnesses = None
    if seed % 2:
        witnesses = {
            element: rng.choice([x for x in range(points) if element[x] == min(element)])
            for element in family
        }
    emb = fep_embed(family, witnesses, points)
    data = reference_fep_json(family, witnesses, points)
    assert emb.to_json() == data
    assert list(emb.mapping) == list(dict.fromkeys(family))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_functional_json_round_trip():
    algebra = boolean_square()
    data = algebra_to_json(algebra)
    assert data == {
        "form": "functional",
        "m": 1,
        "n": 2,
        "generators": [["1", "0"]],
    }
    again = algebra_from_json(data)
    assert again.size == algebra.size
    assert again.impl_table.tolist() == algebra.impl_table.tolist()
    assert again.exists_table.tolist() == algebra.exists_table.tolist()


def test_tabular_json_round_trip():
    algebra = boolean_square()
    data = algebra_to_json(algebra, form="tabular")
    assert sorted(data) == ["elements", "exists", "form", "impl", "zero"]
    again = algebra_from_json(data)
    assert again.labels == algebra.labels
    assert again.impl_table.tolist() == algebra.impl_table.tolist()
    assert again.exists_table.tolist() == algebra.exists_table.tolist()


def test_corpus_algebra_files_load():
    for name, size in (
        ("boolean-square.json", 4),
        ("chain-l2.json", 3),
        ("identity-quantifier-product.json", 4),
    ):
        data = json.loads((CORPUS / name).read_text())
        assert algebra_from_json(data).size == size


@pytest.mark.parametrize(
    "data, message",
    [
        ({"form": "nope"}, "unknown algebra form"),
        ({"form": "functional"}, "bad functional algebra data"),
        (
            {"form": "functional", "m": 0, "n": 1, "generators": []},
            "m >= 1 and n >= 1",
        ),
        ({"form": "tabular", "elements": ["a"]}, "bad tabular algebra data"),
        ([], "algebra data must be a JSON object"),
    ],
)
def test_algebra_from_json_errors(data, message):
    with pytest.raises(AlgebraError, match=message):
        algebra_from_json(data)


def test_functional_export_requires_functional_origin():
    tabular = algebra_from_json(
        algebra_to_json(boolean_square(), form="tabular")
    )
    with pytest.raises(AlgebraError, match="no functional form"):
        algebra_to_json(tabular, form="functional")


# ---------------------------------------------------------------------------
# pinned outputs
# ---------------------------------------------------------------------------
# tests/data/analysis_pinned.json holds outputs of the Fraction implementation
# that preceded the scaled-integer kernels: validate() lists of the broken
# corpus algebra and of seeded single-entry table mutations, the tables,
# representations and embeddings of functional algebras, and embeddings
# whose separating points depend on the order pairs are examined in.

PINNED = json.loads(
    (Path(__file__).resolve().parent / "data" / "analysis_pinned.json").read_text()
)


def _violation_list(algebra: FiniteMonadicAlgebra) -> list:
    return [[v.identity, list(v.witness)] for v in algebra.validate()]


def _tables(algebra: FiniteMonadicAlgebra) -> dict:
    return {
        "labels": list(algebra.labels),
        "zero": algebra.zero,
        "impl": algebra.impl_table.tolist(),
        "exists": algebra.exists_table.tolist(),
        "neg": algebra.neg_table.tolist(),
        "oplus": algebra.oplus_table.tolist(),
        "star": algebra.star_table.tolist(),
        "join": algebra.join_table.tolist(),
        "meet": algebra.meet_table.tolist(),
        "forall": algebra.forall_table.tolist(),
    }


def test_pinned_broken_exists_violations():
    data = json.loads((CORPUS / "broken-exists.json").read_text())
    algebra = algebra_from_json(data, check=False)
    assert _violation_list(algebra) == PINNED["broken_exists_validate"]


@pytest.mark.parametrize(
    "case", PINNED["mutations"], ids=lambda c: f"{c['base']}-{c['mutation']}"
)
def test_pinned_mutation_violations(case):
    base = {"boolean-square": boolean_square, "chain-l2": chain_l2}[case["base"]]()
    impl = [list(row) for row in base.impl_table]
    exists = list(base.exists_table)
    if case["mutation"][0] == "impl":
        _, i, j, value = case["mutation"]
        impl[i][j] = value
    else:
        _, i, value = case["mutation"]
        exists[i] = value
    mutated = FiniteMonadicAlgebra(base.labels, impl, base.zero, exists, check=False)
    assert _violation_list(mutated) == case["violations"]


@pytest.mark.parametrize("case", PINNED["functional"], ids=lambda c: c["name"])
def test_pinned_functional_algebras(case):
    algebra = algebra_from_json(case["document"])
    assert _tables(algebra) == case["tables"]
    assert [core.format_tuple(e) for e in algebra.carrier] == case["carrier"]
    again = FiniteMonadicAlgebra.from_carrier(
        algebra.m, algebra.n, list(reversed(algebra.carrier))
    )
    assert _tables(again) == case["tables"]
    assert represent_simple(algebra).to_json(algebra) == case["representation"]
    assert fep_embed(list(algebra.carrier)).to_json() == case["fep"]


@pytest.mark.parametrize("case", PINNED["fep_pair_order"], ids=lambda c: str(c["points"]))
def test_pinned_fep_pair_order(case):
    subset = [core.parse_tuple(element) for element in case["subset"]]
    data = fep_embed(subset).to_json()
    assert data == {key: case[key] for key in ("m", "n", "points", "embedding")}


# ---------------------------------------------------------------------------
# brute-force references: the Fraction loops of core.power_binop that the
# scaled-integer kernels replace
# ---------------------------------------------------------------------------


def reference_closure(m, n, generators, max_size):
    """Sorted closure under impl, 0 and exists, or None past max_size."""
    closure = {core.const_tuple(F(0), n), *generators}
    frontier = list(closure)
    while frontier:
        fresh = set()
        for a in frontier:
            fresh.add(core.exists_sup(a))
            for b in closure:
                fresh.add(core.power_binop("impl", a, b))
                fresh.add(core.power_binop("impl", b, a))
        fresh -= closure
        closure |= fresh
        if len(closure) > max_size:
            return None
        frontier = list(fresh)
    return sorted(closure)


def reference_tables(carrier):
    index = {element: i for i, element in enumerate(carrier)}
    impl = [[index[core.power_binop("impl", a, b)] for b in carrier] for a in carrier]
    exists = [index[core.exists_sup(a)] for a in carrier]
    return impl, exists


def reference_validate(algebra):
    found = []
    rng = range(algebra.size)
    oplus, neg, star = algebra.oplus_table, algebra.neg_table, algebra.star_table
    impl, join = algebra.impl_table, algebra.join_table
    forall, exists = algebra.forall_table, algebra.exists_table
    zero, one = algebra.zero, algebra.one

    def report(identity, *witness):
        found.append([identity, [algebra.labels[w] for w in witness]])

    for a in rng:
        if oplus[a][zero] != a:
            report("MV3: a (+) 0 = a", a)
        if neg[neg[a]] != a:
            report("MV4: ~~a = a", a)
        if oplus[a][one] != one:
            report("MV5: a (+) 1 = 1", a)
    for a, b in itertools.product(rng, repeat=2):
        if oplus[a][b] != oplus[b][a]:
            report("MV2: a (+) b = b (+) a", a, b)
        if oplus[neg[oplus[neg[a]][b]]][b] != oplus[neg[oplus[neg[b]][a]]][a]:
            report("MV6: ~(~a (+) b) (+) b = ~(~b (+) a) (+) a", a, b)
    for a, b, c in itertools.product(rng, repeat=3):
        if oplus[oplus[a][b]][c] != oplus[a][oplus[b][c]]:
            report("MV1: (a (+) b) (+) c = a (+) (b (+) c)", a, b, c)
    for a in rng:
        if impl[forall[a]][a] != one:
            report("M1: forall a -> a = 1", a)
        if exists[star[a][a]] != star[exists[a]][exists[a]]:
            report("M5: exists (a*a) = exists a * exists a", a)
    for a, b in itertools.product(rng, repeat=2):
        if forall[impl[a][forall[b]]] != impl[exists[a]][forall[b]]:
            report("M2: forall (a -> forall b) = exists a -> forall b", a, b)
        if forall[impl[forall[a]][b]] != impl[forall[a]][forall[b]]:
            report("M3: forall (forall a -> b) = forall a -> forall b", a, b)
        if forall[join[exists[a]][b]] != join[exists[a]][forall[b]]:
            report("M4: forall (exists a \\/ b) = exists a \\/ forall b", a, b)
    return found


def reference_verify_representation(algebra, mapping):
    """The first failed check's message, or None."""
    if len(set(mapping.values())) != algebra.size:
        return "representation is not injective"
    if mapping[algebra.zero] != core.const_tuple(F(0), len(mapping[algebra.zero])):
        return "representation does not send 0 to 0"
    tables = {
        "impl": algebra.impl_table,
        "star": algebra.star_table,
        "oplus": algebra.oplus_table,
        "meet": algebra.meet_table,
        "join": algebra.join_table,
    }
    for a in range(algebra.size):
        image = mapping[a]
        if mapping[algebra.neg_table[a]] != core.power_neg(image):
            return "representation does not respect negation"
        if mapping[algebra.exists_table[a]] != core.exists_sup(image):
            return "representation does not respect the sup-quantifier"
        if mapping[algebra.forall_table[a]] != core.forall_inf(image):
            return "representation does not respect the inf-quantifier"
        for b in range(algebra.size):
            for name, table in tables.items():
                if mapping[table[a][b]] != core.power_binop(name, image, mapping[b]):
                    return f"representation does not respect {name}"
    return None


def reference_verify_fep(subset, mapping, m, n):
    """The first failed check's message, or None."""
    if len(set(mapping.values())) != len(subset):
        return "restriction map is not injective"
    members = set(subset)
    for image in mapping.values():
        if not core.in_power(image, m, n):
            return "restricted values escape the common chain"
    zero_fn = core.const_tuple(F(0), len(subset[0]))
    if zero_fn in members and mapping[zero_fn] != core.const_tuple(F(0), n):
        return "restriction map does not send 0 to 0"
    for a in subset:
        forall_a = core.forall_inf(a)
        if forall_a in members and mapping[forall_a] != core.forall_inf(mapping[a]):
            return "restriction map does not respect the inf-quantifier"
        for b in subset:
            c = core.power_binop("impl", a, b)
            if c in members and mapping[c] != core.power_binop(
                "impl", mapping[a], mapping[b]
            ):
                return "restriction map does not respect implication"
    return None


def reference_fep(subset, witnesses):
    """(m, points, mapping) of the embedding, built pair by pair."""
    points = len(subset[0])
    chosen = []
    for element in subset:
        if witnesses[element] not in chosen:
            chosen.append(witnesses[element])
    for a, b in itertools.combinations(subset, 2):
        if all(a[x] == b[x] for x in chosen):
            chosen.append(next(x for x in range(points) if a[x] != b[x]))
    m = math.lcm(1, *(element[x].denominator for element in subset for x in chosen))
    mapping = {element: tuple(element[x] for x in chosen) for element in subset}
    assert reference_verify_fep(subset, mapping, m, len(chosen)) is None
    return m, tuple(chosen), mapping


def _family_numerators(family):
    """The (values, d) pair that fep_embed hands to _verify_images."""
    return analysis._scaled(family, len(family[0]))


def _message(check, *args):
    try:
        check(*args)
    except RuntimeError as exc:
        return str(exc)
    return None


# ---------------------------------------------------------------------------
# differential tests against the references
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("block", [analysis._BLOCK, 5])
@pytest.mark.parametrize("seed", range(20))
def test_generation_matches_fraction_reference(seed, block, monkeypatch):
    monkeypatch.setattr(analysis, "_BLOCK", block)
    rng = random.Random(seed)
    m, n = rng.randint(1, 4), rng.randint(1, 4)
    chain = core.enumerate_chain(m)
    generators = [
        tuple(rng.choice(chain) for _ in range(n)) for _ in range(rng.randint(1, 3))
    ]
    expected = reference_closure(m, n, generators, 81)
    if expected is None:
        with pytest.raises(AlgebraError, match="closure exceeds 81 elements"):
            generate_subalgebra(m, n, generators, max_size=81)
        return
    algebra = generate_subalgebra(m, n, generators, max_size=81)
    assert list(algebra.carrier) == expected
    assert list(algebra.labels) == [analysis._element_label(e) for e in expected]
    assert (algebra.impl_table.tolist(), algebra.exists_table.tolist()) == reference_tables(
        expected
    )
    if algebra.size <= 27:
        assert algebra.validate() == []
        assert reference_validate(algebra) == []


def test_from_carrier_reports_the_first_unclosed_pair():
    # messages of the Fraction implementation: the first missing implication
    # in row-major order, then the first missing sup
    carrier = [(F(0), F(0)), (F(1, 2), F(0)), (F(0), F(1, 2)), (F(1), F(1))]
    with pytest.raises(
        AlgebraError,
        match=r"^carrier is not closed: \(0, 1/2\) -> \(0, 0\) gives \(1, 1/2\)$",
    ):
        FiniteMonadicAlgebra.from_carrier(2, 2, carrier)
    implication_closed = list(itertools.product([F(0), F(1)], core.enumerate_chain(2)))
    with pytest.raises(
        AlgebraError,
        match=r"^carrier is not closed: exists \(0, 1/2\) gives \(1/2, 1/2\)$",
    ):
        FiniteMonadicAlgebra.from_carrier(2, 2, implication_closed)


def _mutated(algebra, rng, entries):
    impl = [list(row) for row in algebra.impl_table]
    exists = list(algebra.exists_table)
    for _ in range(entries):
        a = rng.randrange(algebra.size)
        if rng.random() < 0.75:
            impl[a][rng.randrange(algebra.size)] = rng.randrange(algebra.size)
        else:
            exists[a] = rng.randrange(algebra.size)
    return FiniteMonadicAlgebra(algebra.labels, impl, algebra.zero, exists, check=False)


@pytest.mark.parametrize("block", [analysis._BLOCK, 7])
@pytest.mark.parametrize("seed", range(12))
def test_validate_matches_reference(seed, block, monkeypatch):
    monkeypatch.setattr(analysis, "_BLOCK", block)
    rng = random.Random(seed)
    size = rng.randint(1, 6)
    random_tables = FiniteMonadicAlgebra(
        [str(i) for i in range(size)],
        [[rng.randrange(size) for _ in range(size)] for _ in range(size)],
        rng.randrange(size),
        [rng.randrange(size) for _ in range(size)],
        check=False,
    )
    base = [boolean_square, chain_l2, boolean_cube, identity_quantifier_square][seed % 4]()
    for algebra in (random_tables, _mutated(base, rng, 1 + seed % 2)):
        assert _violation_list(algebra) == reference_validate(algebra)


def _corrupted_mappings(mapping, candidates, pairs):
    keys = sorted(mapping)
    for x in keys:
        for value in candidates:
            yield {**mapping, x: value}
    if pairs:
        for x, y in itertools.combinations(keys, 2):
            for v, w in itertools.product(candidates, repeat=2):
                yield {**mapping, x: v, y: w}


@pytest.mark.parametrize("block", [analysis._BLOCK, 3])
def test_verify_representation_matches_reference(block, monkeypatch):
    monkeypatch.setattr(analysis, "_BLOCK", block)
    seen = set()
    for algebra, pairs in (
        (boolean_square(), True),
        (generate_subalgebra(3, 1, [(F(1, 3),)]), True),
        (generate_subalgebra(2, 2, [(F(1), F(1, 2))]), False),
    ):
        rep = represent_simple(algebra)
        assert reference_verify_representation(algebra, rep.mapping) is None
        chain = core.enumerate_chain(2 * max(rep.denominators))
        candidates = list(itertools.product(chain, repeat=len(rep.denominators)))
        for mapping in _corrupted_mappings(rep.mapping, candidates, pairs):
            expected = reference_verify_representation(algebra, mapping)
            assert _message(analysis._verify_representation, algebra, mapping) == expected
            seen.add(expected)
    assert {None, "representation is not injective", "representation does not send 0 to 0"} < seen
    for name in ("negation", "the sup-quantifier", "the inf-quantifier", "impl", "star", "oplus"):
        assert f"representation does not respect {name}" in seen


@pytest.mark.parametrize(
    "table, name",
    [
        ("neg", "negation"),
        ("exists", "the sup-quantifier"),
        ("forall", "the inf-quantifier"),
        ("impl", "impl"),
        ("star", "star"),
        ("oplus", "oplus"),
        ("meet", "meet"),
        ("join", "join"),
    ],
)
def test_verify_representation_flags_each_corrupted_table(table, name):
    # one wrong entry in one of the tables the verifier reads; the injective
    # mapping then disagrees there, and only there
    algebra = generate_subalgebra(2, 2, [(F(1), F(1, 2))])
    mapping = represent_simple(algebra).mapping
    corrupted = getattr(algebra, f"{table}_table").copy()
    entry = (4,) if corrupted.ndim == 1 else (4, 6)
    corrupted[entry] = (corrupted[entry] + 1) % algebra.size
    setattr(algebra, f"{table}_table", corrupted)
    with pytest.raises(RuntimeError, match=f"^representation does not respect {name}$"):
        analysis._verify_representation(algebra, mapping)


@pytest.mark.parametrize("block", [analysis._BLOCK, 2])
def test_verify_fep_matches_reference(block, monkeypatch):
    monkeypatch.setattr(analysis, "_BLOCK", block)
    seen = set()
    for family in (
        list(generate_subalgebra(2, 2, [(F(1), F(1, 2))]).carrier),
        list(boolean_square().carrier),
        [(F(1, 2), F(1, 3), F(1)), (F(1, 3), F(1, 3), F(1, 3))],
    ):
        emb = fep_embed(family)
        # the finer target chain leaves room for wrong images that stay on it
        for m in (emb.m, 2 * emb.m):
            candidates = list(itertools.product(core.enumerate_chain(2 * emb.m), repeat=emb.n))
            for mapping in _corrupted_mappings(emb.mapping, candidates, False):
                expected = reference_verify_fep(family, mapping, m, emb.n)
                images = [mapping[a] for a in family]
                assert _message(
                    analysis._verify_images, *_family_numerators(family), images, m, emb.n
                ) == expected
                seen.add(expected)
    assert seen == {
        None,
        "restriction map is not injective",
        "restricted values escape the common chain",
        "restriction map does not send 0 to 0",
        "restriction map does not respect the inf-quantifier",
        "restriction map does not respect implication",
    }


@pytest.mark.parametrize("block", [analysis._BLOCK, 3])
@pytest.mark.parametrize("seed", range(30))
def test_fep_matches_fraction_reference(seed, block, monkeypatch):
    monkeypatch.setattr(analysis, "_BLOCK", block)
    rng = random.Random(seed)
    values = sorted({F(k, d) for d in range(1, 8) for k in range(d + 1)})
    points = rng.randint(1, 5)
    family = [tuple(rng.choice(values) for _ in range(points)) for _ in range(rng.randint(1, 7))]
    # implications and infima of members, so that the verifier's checks bite
    for a, b in itertools.product(family[:3], repeat=2):
        family.append(core.power_binop("impl", a, b))
    family.append(core.forall_inf(family[0]))
    family = list(dict.fromkeys(family))
    witnesses = {
        element: rng.choice([x for x in range(points) if element[x] == min(element)])
        for element in family
    }
    emb = fep_embed(family, witnesses)
    assert (emb.m, emb.points, emb.mapping) == reference_fep(family, witnesses)
    assert list(emb.mapping) == family


# ---------------------------------------------------------------------------
# integers past int64
# ---------------------------------------------------------------------------


def test_generation_over_a_chain_past_int64():
    algebra = generate_subalgebra(2**70, 2, [(F(1), F(0))])
    square = boolean_square()
    assert algebra.m == 2**70
    assert algebra.carrier == square.carrier
    assert _tables(algebra) == _tables(square)
    assert represent_simple(algebra).to_json(algebra) == represent_simple(square).to_json(square)


def test_generation_past_int64_with_fine_values():
    m = 3 * 2**64
    algebra = generate_subalgebra(m, 2, [(F(1, 3), F(1))])
    small = generate_subalgebra(3, 2, [(F(1, 3), F(1))])
    assert algebra.carrier == small.carrier
    assert _tables(algebra) == _tables(small)
    with pytest.raises(AlgebraError, match="closure exceeds 5 elements"):
        generate_subalgebra(m, 2, [(F(1, 3), F(1))], max_size=5)


def test_fep_with_a_common_denominator_past_int64():
    primes = (65521, 65519, 65497, 65479)
    assert math.prod(primes) >= 2**63
    one = F(1)
    family = [core.const_tuple(F(0), 4), core.const_tuple(one, 4)]
    for i, p in enumerate(primes):
        family.append(tuple(F(1, p) if x == i else one for x in range(4)))
        family.append(core.const_tuple(F(1, p), 4))
        family.append(tuple(F(p - 1, p) if x == i else F(1, 2) for x in range(4)))
    emb = fep_embed(family)
    witnesses = canonical_witnesses(family, 4)
    assert (emb.m, emb.points, emb.mapping) == reference_fep(family, witnesses)
    assert emb.m >= 2**63
    mapping = dict(emb.mapping)
    mapping[family[2]] = tuple(F(1, 2 * primes[0]) if v == F(1, primes[0]) else v for v in mapping[family[2]])
    images = [mapping[a] for a in family]
    assert _message(
        analysis._verify_images, *_family_numerators(family), images, 2 * emb.m, emb.n
    ) == reference_verify_fep(family, mapping, 2 * emb.m, emb.n)
    assert reference_verify_fep(family, mapping, 2 * emb.m, emb.n) is not None
