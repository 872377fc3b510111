"""Reference loops for the table questions of `mmv.analysis`.

Each function is the nested-loop form that `mmv.analysis` answered these
questions with before they became array expressions: it reads Python lists
of the tables element by element and visits elements, pairs and subsets in
the same order, so it returns the same values and the same first witnesses.
Also here: the set of algebras the array forms are checked on.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from mmv import core
from mmv.analysis import AlgebraError, FiniteMonadicAlgebra, algebra_from_json, generate_subalgebra

CORPUS = Path(__file__).resolve().parent.parent / "corpus" / "algebras"


def _lists(algebra: FiniteMonadicAlgebra) -> dict:
    names = ("impl", "star", "join", "meet", "exists", "forall")
    return {name: getattr(algebra, f"{name}_table").tolist() for name in names}


def filters(algebra):
    t = _lists(algebra)
    idempotents = [a for a in range(algebra.size) if t["star"][a][a] == a]
    found = {
        frozenset(a for a in range(algebra.size) if t["impl"][e][a] == algebra.one)
        for e in idempotents
    }
    return sorted(found, key=lambda f: (len(f), sorted(f)))


def prime_filters(algebra):
    join = _lists(algebra)["join"]
    result = []
    for f in filters(algebra):
        if algebra.zero in f:
            continue
        prime = True
        for a in range(algebra.size):
            if not prime:
                break
            for b in range(algebra.size):
                if join[a][b] in f and a not in f and b not in f:
                    prime = False
                    break
        if prime:
            result.append(f)
    return result


def maximal_filters(algebra):
    proper = [f for f in filters(algebra) if algebra.zero not in f]
    return [f for f in proper if not any(other != f and other > f for other in proper)]


def quotient_ranks(algebra, filter_set):
    """(rank of each element, top rank) in the quotient by a maximal filter."""
    impl = _lists(algebra)["impl"]
    reps: list[int] = []
    class_of: dict[int, int] = {}
    for a in range(algebra.size):
        for idx, r in enumerate(reps):
            if impl[a][r] in filter_set and impl[r][a] in filter_set:
                class_of[a] = idx
                break
        else:
            reps.append(a)
            class_of[a] = len(reps) - 1
    rank_of_class: list[int] = []
    for i, r in enumerate(reps):
        below = 0
        for j, s in enumerate(reps):
            if i == j:
                continue
            s_le_r = impl[s][r] in filter_set
            r_le_s = impl[r][s] in filter_set
            if not s_le_r and not r_le_s:
                raise RuntimeError("quotient by a maximal filter is not totally ordered")
            if s_le_r:
                below += 1
        rank_of_class.append(below)
    return [rank_of_class[class_of[a]] for a in range(algebra.size)], len(reps) - 1


def representation(algebra):
    """(denominators, mapping) that represent_simple builds from the ranks."""
    coordinates, denominators = [], []
    for filter_set in maximal_filters(algebra):
        ranks, top = quotient_ranks(algebra, filter_set)
        denominators.append(top)
        coordinates.append({a: Fraction(r, top) for a, r in enumerate(ranks)})
    mapping = {a: tuple(c[a] for c in coordinates) for a in range(algebra.size)}
    return tuple(denominators), mapping


def simplicity(algebra):
    t = _lists(algebra)
    if algebra.zero == algebra.one:
        return False, [algebra.zero]
    image = set(t["exists"])
    for e in range(algebra.size):
        if t["star"][e][e] == e and e in image and e not in (algebra.one, algebra.zero):
            return False, sorted(a for a in image if t["impl"][e][a] == algebra.one)
    return True, None


def fsi(algebra):
    """(fsi, witness): the first incomparable pair of the quantifier image."""
    t = _lists(algebra)
    impl, one = t["impl"], algebra.one
    if algebra.zero == one:
        return False, None
    for a, b in itertools.combinations(sorted(set(t["exists"])), 2):
        if impl[a][b] != one and impl[b][a] != one:
            return False, (a, b)
    return True, None


def adjacency(algebra):
    """Bit j of entry i: elements i and j, both below 1, join to 1."""
    join, one = _lists(algebra)["join"], algebra.one
    vertices = [a for a in range(algebra.size) if a != one]
    bits = [0] * len(vertices)
    for i, a in enumerate(vertices):
        for j, b in enumerate(vertices):
            if i != j and join[a][b] == one:
                bits[i] |= 1 << j
    return bits


def orthogonal_width(algebra, cap):
    vertices = [a for a in range(algebra.size) if a != algebra.one]
    if len(vertices) > cap:
        raise AlgebraError(
            f"width brute force capped at {cap} elements, carrier has {len(vertices)}"
        )
    adjacent = adjacency(algebra)
    best: list[int] = []

    def expand(clique, candidates):
        nonlocal best
        if not candidates:
            if len(clique) > len(best):
                best = clique[:]
            return
        if len(clique) + candidates.bit_count() <= len(best):
            return
        pivot = candidates.bit_length() - 1
        rest = (candidates & ~adjacent[pivot]) | (1 << pivot)
        while rest:
            v = rest.bit_length() - 1
            rest &= ~(1 << v)
            candidates &= ~(1 << v)
            clique.append(v)
            expand(clique, candidates & adjacent[v])
            clique.pop()

    expand([], (1 << len(vertices)) - 1)
    return len(best), sorted(vertices[i] for i in best)


def width_equation_holds(algebra, k):
    t = _lists(algebra)
    one, meet, join, forall = algebra.one, t["meet"], t["join"], t["forall"]
    others = [a for a in range(algebra.size) if a != one]
    for subset in itertools.combinations(others, k + 1):
        premise = one
        for i in range(len(subset)):
            for j in range(i + 1, len(subset)):
                premise = meet[premise][forall[join[subset[i]][subset[j]]]]
        conclusion = algebra.zero
        for a in subset:
            conclusion = join[conclusion][forall[a]]
        if t["impl"][premise][conclusion] != one:
            return False, subset
    return True, None


# ---------------------------------------------------------------------------
# the algebras the array forms are checked on


def one_element() -> FiniteMonadicAlgebra:
    return FiniteMonadicAlgebra(labels=["0"], impl=[[0]], zero=0, exists=[0])


def corpus() -> list[tuple[str, FiniteMonadicAlgebra]]:
    """The corpus algebras that pass validation."""
    names = ("boolean-square", "chain-l2", "identity-quantifier-product")
    return [(name, algebra_from_json(json.loads((CORPUS / f"{name}.json").read_text())))
            for name in names]


def random_generated(seeds=range(40), max_size=120) -> list[tuple[str, FiniteMonadicAlgebra]]:
    """Seeded subalgebras of L_m^n (m <= 4, n <= 3) with at most max_size elements."""
    found = []
    for seed in seeds:
        rng = random.Random(seed)
        m, n = rng.randint(1, 4), rng.randint(1, 3)
        chain = core.enumerate_chain(m)
        generators = [tuple(rng.choice(chain) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        try:
            found.append((f"generated-{seed}", generate_subalgebra(m, n, generators, max_size)))
        except AlgebraError:
            continue
    return found


def shuffled(algebra: FiniteMonadicAlgebra, seed: int) -> FiniteMonadicAlgebra:
    """A tabular copy of the algebra with its elements in a seeded random order."""
    size = algebra.size
    new = list(range(size))
    random.Random(seed).shuffle(new)  # element a becomes element new[a]
    impl, exists = algebra.impl_table.tolist(), algebra.exists_table.tolist()
    labels, impl_new, exists_new = [""] * size, [[0] * size for _ in range(size)], [0] * size
    for a in range(size):
        labels[new[a]] = algebra.labels[a]
        exists_new[new[a]] = new[exists[a]]
        for b in range(size):
            impl_new[new[a]][new[b]] = new[impl[a][b]]
    return FiniteMonadicAlgebra(labels, impl_new, new[algebra.zero], exists_new)


def random_tables(seeds=range(30)) -> list[tuple[str, FiniteMonadicAlgebra]]:
    """Seeded random tables of up to 12 elements, mostly not MV-algebras."""
    found = []
    for seed in seeds:
        rng = random.Random(seed)
        size = rng.randint(1, 12)
        impl = [[rng.randrange(size) for _ in range(size)] for _ in range(size)]
        exists = [rng.randrange(size) for _ in range(size)]
        labels = [str(i) for i in range(size)]
        algebra = FiniteMonadicAlgebra(labels, impl, rng.randrange(size), exists, check=False)
        found.append((f"tables-{seed}", algebra))
    return found


def algebra_set() -> list[tuple[str, FiniteMonadicAlgebra]]:
    """Corpus, one-element and seeded generated algebras, and shuffled copies."""
    base = corpus() + [("one-element", one_element())] + random_generated()
    return base + [(f"{name}-shuffled", shuffled(algebra, i)) for i, (name, algebra) in enumerate(base)]
