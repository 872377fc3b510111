"""Finite monadic MV-algebras: validation, filters, width, representations.

An algebra is given either functionally, as a subset of a finite power of a
finite chain closed under implication, 0, and the sup-quantifier, or by
tables: an implication matrix, a zero element, and a sup-quantifier column.
Everything else is derived: not a = a -> 0, a (+) b = ~a -> b,
a * b = ~(a -> ~b), a \\/ b = (a -> b) -> b, a /\\ b = ~(~a \\/ ~b), 1 = ~0,
and the inf-quantifier as ~exists~.

`validate` checks the MV axioms of the reduct and the five quantifier
identities exhaustively and reports every violation with witnesses.  The
structure theory here is exact and finite: filters are up-sets of idempotent
elements (closure under * forces an idempotent minimum in the finite case),
the orthogonal width is a maximum-clique computation on the join-equals-one
graph, the radical is the intersection of the maximal filters, simple
algebras get a concrete coordinatewise embedding indexed by their maximal
filters, and finite witnessed families of rational-valued functions embed
into a single finite power via a common-denominator chain.

Element arithmetic runs on integers.  A family of tuples of rationals is one
(size, n) integer array over a common denominator D, the value k/D held as
k: D = m for the carriers inside L_m^n, and the lcm of the denominators
involved for the two verifiers.  Every operation has an exact integer form

    neg a    = D - a              impl a b = min(D, D - a + b)
    star a b = max(0, a + b - D)  oplus a b = min(D, a + b)
    meet/join = min/max           forall/exists = row min/max

and the scaling k <-> k/D is an isomorphism onto the Fraction arithmetic in
`mmv.core` (it is linear and keeps the order), so results are exact.  Whole
families are combined pair by pair through numpy broadcasting, in blocks of
at most `_BLOCK` values.  A row is identified by its mixed-radix key in base
D+1, first coordinate most significant, so keys sort like the tuples.  No
intermediate exceeds 2D, nor a key (D+1)^n; an array is int64 when its bound
passes `2 * bound < 2**62` and holds Python integers (dtype object)
otherwise, so nothing overflows silently.  Fractions appear only at the
boundary: parsing, carriers and labels (made once from sorted integer
rows), and the returned `Representation.mapping` and `FepEmbedding.mapping`.
`fep_embed` and both verifiers work on scaled integers, injectivity checks
included.  Tables are read-only int32 index arrays, so `validate`, filters,
classification and width checks ask each question of all elements at once
via fancy indexing.  A closure repeats a round, a -> b and exists a for
all rows; the round that adds nothing is the algebra's table.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import core
from .core import MonadicElement
from .syntax import InputError

_ZERO = Fraction(0)

# Values per block in the pairwise kernels, n per pair of n-wide rows; a
# block of a closure round holds at least one row of pairs.
_BLOCK = 1 << 16


class AlgebraError(InputError):
    """Structurally bad algebra input (shape, closure, failed load checks)."""

    prefix = "bad algebra: "


class NotSimpleError(AlgebraError):
    """Raised when an operation requiring simplicity meets a non-simple algebra."""

    def __init__(self, message: str, classification: "Classification"):
        super().__init__(message)
        self.classification = classification


class WitnessError(AlgebraError):
    """A claimed quantifier witness does not attain the minimum."""


@dataclass(frozen=True, slots=True)
class Violation:
    identity: str
    witness: tuple[str, ...]

    def to_json(self) -> dict:
        return {"identity": self.identity, "witness": list(self.witness)}


def _element_label(element: MonadicElement) -> str:
    return "(" + ", ".join(core.format_rational(v) for v in element) + ")"


# ---------------------------------------------------------------------------
# Scaled-integer kernels


def _dtype(bound: int):
    """int64 when every intermediate (below 2 * bound) fits, else Python ints."""
    return np.int64 if 2 * bound < 2**62 else object


def _scaled(
    elements: Sequence[MonadicElement], width: int, denominator: int | None = None
) -> tuple[np.ndarray, int]:
    """The (len(elements), width) array of numerators over one denominator D.

    D is `denominator` when given (every value must then be a multiple of
    1/D), otherwise the lcm of the values' denominators.
    """
    if denominator is None:
        denominator = math.lcm(1, *(v.denominator for e in elements for v in e))
    rows = [[v.numerator * (denominator // v.denominator) for v in e] for e in elements]
    array = np.array(rows, dtype=_dtype(denominator)).reshape(len(rows), width)
    return array, denominator


def _fractions(row: Sequence[int], denominator: int) -> MonadicElement:
    return tuple(Fraction(int(k), denominator) for k in row)


def _keys(rows: np.ndarray, base: int) -> np.ndarray:
    """Mixed-radix key of each row of digits in [0, base), first digit first.

    Keys order like the rows do lexicographically.
    """
    width = rows.shape[-1]
    dtype = _dtype(base**width)
    keys = np.zeros(rows.shape[:-1], dtype=dtype)
    for column in range(width):
        keys = keys * base + rows[..., column].astype(dtype)
    return keys


def _find(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Position of each key in `sorted_keys`, or -1 where it is absent."""
    at = np.searchsorted(sorted_keys, keys)
    found = at < len(sorted_keys)
    found[found] = sorted_keys[at[found]] == keys[found]
    return np.where(found, at, -1)


def _first(failed: np.ndarray) -> tuple[int, ...] | None:
    """Index of the first true entry in row-major order, if there is one."""
    flat = np.flatnonzero(failed)
    if not len(flat):
        return None
    return tuple(int(i) for i in np.unravel_index(flat[0], failed.shape))


def _mask(size: int, members) -> np.ndarray:
    """Membership in `members` of each of 0..size-1, as booleans."""
    mask = np.zeros(size, dtype=bool)
    mask[members] = True
    return mask


def _distinct(rows: np.ndarray) -> bool:
    """Are the integer rows pairwise different?"""
    low = int(rows.min(initial=0))
    keys = np.sort(_keys(rows - low, int(rows.max(initial=0)) - low + 1))
    return bool((keys[1:] != keys[:-1]).all())


def _impl(a, b, d):
    return np.minimum(d, d - a + b)


# Binary operations on numerators over the denominator d.
_INT_OPS = {
    "impl": _impl,
    "star": lambda a, b, d: np.maximum(0, a + b - d),
    "oplus": lambda a, b, d: np.minimum(d, a + b),
    "meet": lambda a, b, d: np.minimum(a, b),
    "join": lambda a, b, d: np.maximum(a, b),
}


def _row_blocks(rows: int, values_per_row: int) -> Iterable[slice]:
    """Slices of `range(rows)` holding at most `_BLOCK` values (at least one row)."""
    step = max(1, _BLOCK // max(1, values_per_row))
    for start in range(0, rows, step):
        yield slice(start, min(rows, start + step))


def _is_index(value: object, size: int) -> bool:
    """Whether `value` is an int (not a bool) in range(size)."""
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value < size


def _index_table(values, shape: tuple[int, ...], size: int, message: str) -> np.ndarray:
    """`values` as an array, in object form unless every entry is in range(size).

    numpy reads a bool among ints as 0 or 1, so nested lists holding one
    take the object form too.
    """
    try:
        table = np.asarray(values)
    except ValueError:  # ragged, or entries of mixed nesting
        table = np.array(values, dtype=object)
    if table.shape != shape:
        raise AlgebraError(message)
    if table.dtype.kind in "iu" and 0 <= table.min() and table.max() < size:
        if isinstance(values, np.ndarray):
            return table
        entries = values
        for _ in shape[1:]:
            entries = itertools.chain.from_iterable(entries)
        if bool not in set(map(type, entries)):
            return table
    return np.array(values, dtype=object)


class FiniteMonadicAlgebra:
    """Finite MV-algebra with a sup-quantifier, in table form.

    Elements are indices 0..size-1 with display labels, and the `*_table`
    attributes are read-only int32 index arrays.  Functional algebras also
    carry the chain denominator m, power exponent n and aligned carrier tuples.
    """

    def __init__(
        self,
        labels: Sequence[str],
        impl: Sequence[Sequence[int]],
        zero: int,
        exists: Sequence[int],
        m: int | None = None,
        n: int | None = None,
        carrier: Sequence[MonadicElement] | None = None,
        generators: Sequence[MonadicElement] | None = None,
        check: bool = True,
    ):
        self.labels = tuple(labels)
        size = len(self.labels)
        if size == 0:
            raise AlgebraError("empty carrier")
        if len(set(self.labels)) != size:
            raise AlgebraError("duplicate element labels")
        impl = _index_table(impl, (size, size), size, f"implication table must be {size}x{size}")
        exists = _index_table(exists, (size,), size, f"exists column must have {size} entries")
        if object in (impl.dtype, exists.dtype) or not _is_index(zero, size):
            for value in itertools.chain((zero,), exists.tolist(), impl.ravel().tolist()):
                if not _is_index(value, size):
                    raise AlgebraError(f"table entry {value!r} is not an element index")
        impl, exists = impl.astype(np.int32), exists.astype(np.int32)
        self.zero = int(zero)
        self.m = m
        self.n = n
        self.carrier = tuple(carrier) if carrier is not None else None
        self.generators = tuple(generators) if generators is not None else None
        if self.carrier is not None and len(self.carrier) != size:
            raise AlgebraError("carrier does not match label count")

        neg = impl[:, zero]
        join = impl[impl, np.arange(size)]
        self.impl_table = impl
        self.neg_table = neg
        self.oplus_table = impl[neg]
        self.star_table = neg[impl[:, neg]]
        self.join_table = join
        self.meet_table = neg[join[np.ix_(neg, neg)]]
        self.exists_table = exists
        self.forall_table = neg[exists[neg]]
        for table in (impl, neg, self.oplus_table, self.star_table, join,
                      self.meet_table, exists, self.forall_table):
            table.flags.writeable = False
        self.one = int(neg[zero])

        if check:
            violations = self.validate()
            if violations:
                summary = "; ".join(
                    f"{v.identity} at ({', '.join(v.witness)})" for v in violations[:3]
                )
                raise AlgebraError(
                    f"algebra fails {len(violations)} identity check(s): {summary}"
                )

    # -- basic access

    @property
    def size(self) -> int:
        return len(self.labels)

    def label(self, index: int) -> str:
        return self.labels[index]

    def leq(self, a: int, b: int) -> bool:
        return bool(self.impl_table[a, b] == self.one)

    def idempotents(self) -> list[int]:
        a = np.arange(self.size)
        return np.flatnonzero(self.star_table[a, a] == a).tolist()

    def star_power(self, a: int, exponent: int) -> int:
        if exponent < 0:
            raise ValueError("negative exponent")
        result = self.one
        for _ in range(exponent):
            result = int(self.star_table[result, a])
        return result

    def exists_image(self) -> list[int]:
        return np.flatnonzero(_mask(self.size, self.exists_table)).tolist()

    # -- construction from a functional carrier

    @classmethod
    def from_carrier(
        cls,
        m: int,
        n: int,
        elements: Sequence[MonadicElement],
        generators: Sequence[MonadicElement] | None = None,
        check: bool = True,
    ) -> "FiniteMonadicAlgebra":
        carrier = sorted(set(elements))
        if not carrier:
            raise AlgebraError("empty carrier")
        for element in carrier:
            if not core.in_power(element, m, n):
                raise AlgebraError(
                    f"element {_element_label(element)} is not an n-tuple over the m-chain"
                )
        # the zero tuple is the least element, so it comes first if present
        if carrier[0] != core.const_tuple(_ZERO, n):
            raise AlgebraError("carrier lacks the zero tuple")
        rows, _ = _scaled(carrier, n, m)
        carrier = [_fractions(row, m) for row in rows.tolist()]
        labels = [_element_label(e) for e in carrier]
        impl, exists, missing, _ = _round(rows, _keys(rows, m + 1), m, len(rows))
        if len(missing):
            # the first pair in row-major order, else the first sup
            pair = _first(impl < 0)
            if pair is not None:
                a, b = pair
                description, row = f"{labels[a]} -> {labels[b]}", _impl(rows[a], rows[b], m)
            else:
                a = _first(exists < 0)[0]
                description, row = f"exists {labels[a]}", [rows[a].max()] * n
            raise AlgebraError(
                f"carrier is not closed: {description} gives {_element_label(_fractions(row, m))}"
            )
        return cls(labels, impl, 0, exists, m, n, carrier, generators, check)

    # -- identity checking

    def validate(self) -> list[Violation]:
        """Exhaustive check of the MV axioms and quantifier identities.

        Returns every violated identity with (labels of) witnessing elements,
        ordered as nested loops over the witnesses would find them.  Each
        identity is evaluated for all witnesses at once on the index tables;
        the cubic associativity check runs in blocks of a.
        """
        violations: list[Violation] = []
        oplus, neg, star = self.oplus_table, self.neg_table, self.star_table
        impl, join = self.impl_table, self.join_table
        forall, exists = self.forall_table, self.exists_table
        zero, one = self.zero, self.one
        a = np.arange(self.size)

        def report(identities: Sequence[str], *failed: np.ndarray, offset: int = 0) -> None:
            if not any(f.any() for f in failed):
                return
            # rows of argwhere come in the order of nested loops over the
            # witnesses, with the identity innermost
            for *witness, k in np.argwhere(np.stack(failed, axis=-1)).tolist():
                witness[0] += offset
                violations.append(
                    Violation(identities[k], tuple(self.labels[w] for w in witness))
                )

        report(
            ("MV3: a (+) 0 = a", "MV4: ~~a = a", "MV5: a (+) 1 = 1"),
            oplus[:, zero] != a,
            neg[neg] != a,
            oplus[:, one] != one,
        )
        mv6 = oplus[neg[oplus[neg]], a]  # ~(~a (+) b) (+) b at [a, b]
        report(
            ("MV2: a (+) b = b (+) a", "MV6: ~(~a (+) b) (+) b = ~(~b (+) a) (+) a"),
            oplus != oplus.T,
            mv6 != mv6.T,
        )
        for block in _row_blocks(self.size, self.size**2):
            sums = oplus[block]  # a (+) b at [a, b]
            report(
                ("MV1: (a (+) b) (+) c = a (+) (b (+) c)",),
                oplus[sums] != sums[:, oplus],
                offset=block.start,
            )

        report(
            ("M1: forall a -> a = 1", "M5: exists (a*a) = exists a * exists a"),
            impl[forall, a] != one,
            exists[star[a, a]] != star[exists, exists],
        )
        report(
            (
                "M2: forall (a -> forall b) = exists a -> forall b",
                "M3: forall (forall a -> b) = forall a -> forall b",
                "M4: forall (exists a \\/ b) = exists a \\/ forall b",
            ),
            forall[impl[:, forall]] != impl[np.ix_(exists, forall)],
            forall[impl[forall]] != impl[np.ix_(forall, forall)],
            forall[join[exists]] != join[np.ix_(exists, forall)],
        )
        return violations


def generate_subalgebra(
    m: int,
    n: int,
    generators: Iterable[MonadicElement],
    max_size: int = 4096,
) -> FiniteMonadicAlgebra:
    """Close the generators under implication, 0, and the sup-quantifier.

    Each round looks up a -> b and exists a for all rows so far and adds
    the results that are missing; the round that adds nothing gives the
    algebra's tables.  The closure inside a finite power is finite;
    `max_size` guards against blowing up on large chains, and is checked
    after every block of a round, so a round stops as soon as the closure
    passes it.
    """
    generators = tuple(generators)
    for element in generators:
        if not core.in_power(element, m, n):
            raise AlgebraError(
                f"generator {_element_label(element)} is not an n-tuple over the m-chain"
            )
    rows, _ = _scaled((core.const_tuple(_ZERO, n),) + generators, n, m)
    keys = _keys(rows, m + 1)
    while True:
        keys, first = np.unique(keys, return_index=True)
        rows = rows[first]  # the closure so far, in ascending key order
        if len(keys) > max_size:
            raise AlgebraError(f"closure exceeds {max_size} elements")
        impl, exists, fresh_keys, fresh = _round(rows, keys, m, max_size)
        if not len(fresh_keys):
            break
        keys, rows = np.concatenate([keys, fresh_keys]), np.concatenate([rows, fresh])
    carrier = [_fractions(row, m) for row in rows.tolist()]
    labels = [_element_label(e) for e in carrier]
    return FiniteMonadicAlgebra(labels, impl, 0, exists, m, n, carrier, generators, check=False)


def _round(rows: np.ndarray, keys: np.ndarray, m: int, limit: int) -> tuple[np.ndarray, ...]:
    """One closure round: a -> b and exists a for all distinct, key-sorted rows.

    Returns the implication table and the exists column as row positions,
    -1 where a result is not a row, and the missing results as sorted keys
    and their rows.  The round stops after the first block (a `_row_blocks`
    slice of a, or the exists column last) that takes the rows and the
    missing results past `limit`, and leaves the entries after it -1.
    """
    size, n = rows.shape
    impl = np.full((size, size), -1, dtype=np.int32)
    exists = np.full(size, -1, dtype=np.int32)
    fresh_keys, fresh = keys[:0], rows[:0]
    blocks = itertools.chain(
        ((impl[block], _impl(rows[block, None], rows, m)) for block in _row_blocks(size, size * n)),
        [(exists, np.repeat(rows.max(axis=1, keepdims=True), n, axis=1))],
    )
    for table, results in blocks:
        found = _keys(results, m + 1)
        table[...] = _find(keys, found)
        missing = table < 0
        if missing.any():
            fresh_keys, first = np.unique(
                np.concatenate([fresh_keys, found[missing]]), return_index=True
            )
            fresh = np.concatenate([fresh, results[missing]])[first]
            if size + len(fresh_keys) > limit:
                break
    return impl, exists, fresh_keys, fresh


# ---------------------------------------------------------------------------
# Filters


def filters(algebra: FiniteMonadicAlgebra) -> list[frozenset[int]]:
    """Every filter: up-sets of idempotent elements, smallest first."""
    above = algebra.impl_table[algebra.idempotents()] == algebra.one
    found = {frozenset(np.flatnonzero(row).tolist()) for row in above}
    return sorted(found, key=lambda f: (len(f), sorted(f)))


def proper_filters(algebra: FiniteMonadicAlgebra) -> list[frozenset[int]]:
    return [f for f in filters(algebra) if algebra.zero not in f]


def prime_filters(algebra: FiniteMonadicAlgebra) -> list[frozenset[int]]:
    """Proper filters where membership of a join forces a member disjunct."""
    result = []
    for f in proper_filters(algebra):
        inside = _mask(algebra.size, list(f))
        # is some join of two non-members a member?
        if not inside[algebra.join_table[np.ix_(~inside, ~inside)]].any():
            result.append(f)
    return result


def maximal_filters(algebra: FiniteMonadicAlgebra) -> list[frozenset[int]]:
    proper = proper_filters(algebra)
    return [
        f
        for f in proper
        if not any(other != f and other > f for other in proper)
    ]


def radical(algebra: FiniteMonadicAlgebra) -> frozenset[int]:
    """Intersection of the maximal filters."""
    maximal = maximal_filters(algebra)
    if not maximal:
        return frozenset(range(algebra.size))
    result = set(maximal[0])
    for f in maximal[1:]:
        result &= f
    return frozenset(result)


# ---------------------------------------------------------------------------
# Width


def orthogonal_width(
    algebra: FiniteMonadicAlgebra, cap: int = 64
) -> tuple[int, list[int]]:
    """Size of the largest orthogonal set and one witness.

    Orthogonal: elements below 1, pairwise joining to 1.  This is a maximum
    clique in the join-equals-one graph, found by branch and bound.
    """
    vertices = [a for a in range(algebra.size) if a != algebra.one]
    if len(vertices) > cap:
        raise AlgebraError(
            f"width brute force capped at {cap} elements, carrier has {len(vertices)}"
        )
    adjacency = _adjacency(algebra, vertices)
    best: list[int] = []

    def expand(clique: list[int], candidates: int) -> None:
        nonlocal best
        if not candidates:
            if len(clique) > len(best):
                best = clique[:]
            return
        if len(clique) + candidates.bit_count() <= len(best):
            return
        pivot = (candidates).bit_length() - 1
        rest = candidates & ~adjacency[pivot]
        rest |= 1 << pivot
        while rest:
            v = rest.bit_length() - 1
            rest &= ~(1 << v)
            candidates &= ~(1 << v)
            clique.append(v)
            expand(clique, candidates & adjacency[v])
            clique.pop()

    expand([], (1 << len(vertices)) - 1)
    return len(best), sorted(vertices[i] for i in best)


def _adjacency(algebra: FiniteMonadicAlgebra, vertices: list[int]) -> list[int]:
    """Bit j of entry i is set when vertices i != j join to 1."""
    joins_to_one = algebra.join_table[np.ix_(vertices, vertices)] == algebra.one
    np.fill_diagonal(joins_to_one, False)
    packed = np.packbits(joins_to_one, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def width_equation_holds(
    algebra: FiniteMonadicAlgebra, k: int
) -> tuple[bool, tuple[int, ...] | None]:
    """Does the width-k equation hold over the whole algebra?

    The equation bounds the meet of forall(x_i \\/ x_j) over pairs by the
    join of forall(x_i), for any k+1 elements.  Tuples with repeats or
    containing 1 satisfy it trivially, so only (k+1)-subsets of the other
    elements are scanned.  Returns the first violating subset if any.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    one = algebra.one
    meet, join, forall = algebra.meet_table, algebra.join_table, algebra.forall_table
    others = [a for a in range(algebra.size) if a != one]
    subsets = itertools.chain.from_iterable(itertools.combinations(others, k + 1))
    while True:
        # the next _BLOCK subsets, one per row, in combinations order
        x = np.fromiter(itertools.islice(subsets, _BLOCK * (k + 1)), dtype=np.intp)
        x = x.reshape(-1, k + 1)
        if not len(x):
            return True, None
        premise, conclusion = np.full(len(x), one), np.full(len(x), algebra.zero)
        for i, j in itertools.combinations(range(k + 1), 2):
            premise = meet[premise, forall[join[x[:, i], x[:, j]]]]
        for column in x.T:
            conclusion = join[conclusion, forall[column]]
        failed = np.flatnonzero(algebra.impl_table[premise, conclusion] != one)
        if len(failed):
            return False, tuple(x[failed[0]].tolist())


# ---------------------------------------------------------------------------
# Classification


@dataclass(slots=True)
class Classification:
    fsi: bool
    simple: bool
    width: int
    exists_image: list[int]
    fsi_witness: tuple[int, int] | None
    simple_witness: list[int] | None
    width_witness: list[int]

    def to_json(self, algebra: FiniteMonadicAlgebra) -> dict:
        lab = algebra.labels
        return {
            "fsi": self.fsi,
            "simple": self.simple,
            "width": self.width,
            "exists_image": [lab[a] for a in self.exists_image],
            "fsi_witness": (
                [lab[self.fsi_witness[0]], lab[self.fsi_witness[1]]]
                if self.fsi_witness
                else None
            ),
            "simple_witness": (
                [lab[a] for a in self.simple_witness] if self.simple_witness else None
            ),
            "width_witness": [lab[a] for a in self.width_witness],
        }


def _simplicity(algebra: FiniteMonadicAlgebra) -> tuple[bool, list[int] | None]:
    """Is the quantifier image simple as an MV-algebra?

    A finite MV-algebra is simple exactly when it has no idempotent strictly
    between 0 and 1; the witness returned is the nontrivial filter of the
    image that such an idempotent generates.
    """
    if algebra.zero == algebra.one:
        return False, [algebra.zero]
    a = np.arange(algebra.size)
    image = _mask(algebra.size, algebra.exists_table)
    inner = (algebra.star_table[a, a] == a) & image & (a != algebra.one) & (a != algebra.zero)
    if not inner.any():
        return True, None
    e = int(np.argmax(inner))  # the least such idempotent
    return False, np.flatnonzero(image & (algebra.impl_table[e] == algebra.one)).tolist()


def classify(algebra: FiniteMonadicAlgebra, width_cap: int = 64) -> Classification:
    """Subdirect irreducibility, simplicity, and orthogonal width.

    The algebra is finitely subdirectly irreducible exactly when it is
    nontrivial and its quantifier image is a chain, and simple exactly when
    that image has no filter strictly between {1} and itself.  So the
    one-element algebra (0 = 1) is neither, and has no fsi witness.
    """
    image = algebra.exists_image()
    fsi, fsi_witness = algebra.zero != algebra.one, None
    if fsi:
        le = algebra.impl_table[np.ix_(image, image)] == algebra.one
        pair = _first(np.triu(~le & ~le.T, 1))  # in itertools.combinations order
        if pair is not None:
            fsi, fsi_witness = False, (image[pair[0]], image[pair[1]])

    simple, simple_witness = _simplicity(algebra)
    width, width_witness = orthogonal_width(algebra, cap=width_cap)
    return Classification(
        fsi=fsi,
        simple=simple,
        width=width,
        exists_image=image,
        fsi_witness=fsi_witness,
        simple_witness=simple_witness,
        width_witness=width_witness,
    )


# ---------------------------------------------------------------------------
# Representation of simple algebras


@dataclass(slots=True)
class Representation:
    """Coordinatewise embedding of a simple algebra, indexed by maximal filters."""

    index_filters: tuple[frozenset[int], ...]
    denominators: tuple[int, ...]
    mapping: dict[int, MonadicElement]

    def to_json(self, algebra: FiniteMonadicAlgebra) -> dict:
        lab = algebra.labels
        return {
            "index": [sorted(lab[a] for a in f) for f in self.index_filters],
            "denominators": list(self.denominators),
            "embedding": {
                lab[a]: [core.format_rational(v) for v in image]
                for a, image in sorted(self.mapping.items())
            },
        }


def _quotient_ranks(
    algebra: FiniteMonadicAlgebra, filter_set: frozenset[int]
) -> tuple[list[int], int]:
    """Rank each element in the chain quotient by a maximal filter.

    Elements are identified when both implications between them land in the
    filter; classes are ordered by one-sided implication.  Returns the rank
    of each element and the top rank.
    """
    impl = algebra.impl_table
    inside = _mask(algebra.size, list(filter_set))
    class_of = np.full(algebra.size, -1)
    reps: list[int] = []
    # the least element left starts a class of the elements left equivalent to it
    while (left := class_of < 0).any():
        r = int(np.argmax(left))
        same = left & inside[impl[:, r]] & inside[impl[r]]
        same[r] = True
        class_of[same] = len(reps)
        reps.append(r)
    others = ~np.eye(len(reps), dtype=bool)
    le = inside[impl[np.ix_(reps, reps)]] & others  # le[i, j]: class i below class j
    if (~le & ~le.T & others).any():
        raise RuntimeError("quotient by a maximal filter is not totally ordered")
    return le.sum(axis=0)[class_of].tolist(), len(reps) - 1


def represent_simple(
    algebra: FiniteMonadicAlgebra, width_cap: int = 64
) -> Representation:
    """Embed a simple algebra into tuples over its maximal filters.

    Each maximal filter quotients the algebra onto a finite chain; ranking
    that chain as k/t places every coordinate in [0,1].  The combined map is
    verified to be an injective homomorphism that also turns the quantifiers
    into coordinatewise sup and inf.
    """
    simple, _ = _simplicity(algebra)
    if not simple:
        raise NotSimpleError(
            "algebra is not simple; representation refused",
            classify(algebra, width_cap=width_cap),
        )
    maximal = maximal_filters(algebra)
    if not maximal:
        raise RuntimeError("simple algebra has no maximal filter")
    denominators: list[int] = []
    coordinates: list[list[Fraction]] = []
    for filter_set in maximal:
        ranks, top = _quotient_ranks(algebra, filter_set)
        if top == 0:
            raise RuntimeError("quotient by a proper filter collapsed to a point")
        denominators.append(top)
        chain = core.enumerate_chain(top)
        coordinates.append([chain[r] for r in ranks])
    mapping = dict(enumerate(zip(*coordinates)))
    _verify_representation(algebra, mapping)
    return Representation(
        index_filters=tuple(maximal),
        denominators=tuple(denominators),
        mapping=mapping,
    )


def _verify_representation(
    algebra: FiniteMonadicAlgebra, mapping: dict[int, MonadicElement]
) -> None:
    size = algebra.size
    images, d = _scaled([mapping[a] for a in range(size)], len(mapping[algebra.zero]))
    if not _distinct(images):
        raise RuntimeError("representation is not injective")
    if images[algebra.zero].any():
        raise RuntimeError("representation does not send 0 to 0")
    # the checks of one element a in the order they are reported: its three
    # unary checks, then every (b, operation) pair
    unary_names = ("negation", "the sup-quantifier", "the inf-quantifier")
    unary = np.stack(
        [
            (images[algebra.neg_table] != d - images).any(axis=1),
            (images[algebra.exists_table] != images.max(axis=1, keepdims=True)).any(axis=1),
            (images[algebra.forall_table] != images.min(axis=1, keepdims=True)).any(axis=1),
        ],
        axis=1,
    )
    for block in _row_blocks(size, size * images.shape[1]):
        left = images[block, None]
        binary = np.stack(
            [
                (images[getattr(algebra, f"{name}_table")[block]] != op(left, images, d))
                .any(axis=-1)
                for name, op in _INT_OPS.items()
            ],
            axis=-1,
        )
        failed = _first(np.concatenate([unary[block], binary.reshape(len(left), -1)], axis=1))
        if failed is not None:
            check = failed[1]
            if check < len(unary_names):
                raise RuntimeError(
                    f"representation does not respect {unary_names[check]}"
                )
            name = list(_INT_OPS)[(check - len(unary_names)) % len(_INT_OPS)]
            raise RuntimeError(f"representation does not respect {name}")


# ---------------------------------------------------------------------------
# Finite embeddability for witnessed families of rational functions


@dataclass(slots=True)
class FepEmbedding:
    """Restriction map landing a finite family in one finite power."""

    m: int
    n: int
    points: tuple[int, ...]
    mapping: dict[MonadicElement, MonadicElement]

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "points": list(self.points),
            "embedding": [
                {
                    "element": [core.format_rational(v) for v in element],
                    "image": [core.format_rational(v) for v in image],
                }
                for element, image in self.mapping.items()
            ],
        }


def canonical_witnesses(
    elements: Iterable[MonadicElement], points: int
) -> dict[MonadicElement, int]:
    """First point where each function attains its minimum."""
    result = {}
    for element in elements:
        result[element] = min(range(points), key=lambda x: element[x])
    return result


def fep_embed(
    subset: Sequence[MonadicElement],
    witnesses: Mapping[MonadicElement, int] | None = None,
    points: int | None = None,
) -> FepEmbedding:
    """Embed a finite witnessed family into one finite power of one chain.

    The functions live on a common finite point set; each comes with a
    witness point attaining its minimum (so the inf-quantifier is decided by
    that point).  Keeping only the witness points plus enough points to
    separate the functions, and taking the least common denominator of the
    surviving values, yields an injective restriction map into the
    denominator chain's power that preserves 0, implication, and the
    inf-quantifier wherever the family contains the result.
    """
    subset = list(subset)
    if points is None:
        if not subset:
            raise ValueError("cannot infer the point count from an empty family")
        points = len(subset[0])
    if points < 1:
        raise ValueError("the family needs at least one point")
    # the first element with a wrong length or a value outside [0,1]
    short = next((i for i, e in enumerate(subset) if len(e) != points), len(subset))
    values, d = _scaled(subset[:short], points)
    outside = _first((values < 0) | (values > d))
    if outside is not None:
        raise ValueError(
            f"element {_element_label(subset[outside[0]])} takes values outside [0,1]"
        )
    if short < len(subset):
        raise ValueError(
            f"element {_element_label(subset[short])} is not a function on {points} points"
        )
    _, first = np.unique(_keys(values, d + 1), return_index=True)
    if len(first) < len(subset):  # keep the first of equal elements
        first.sort()
        subset, values = [subset[i] for i in first.tolist()], values[first]

    if witnesses is None:
        at = values.argmin(axis=1).tolist()  # the first minimum
    else:
        at = []
        for element, row, low in zip(subset, values.tolist(), values.min(axis=1).tolist()):
            if element not in witnesses:
                raise WitnessError(f"no witness point for {_element_label(element)}")
            w = witnesses[element]
            if not 0 <= w < points:
                raise WitnessError(
                    f"witness point {w} for {_element_label(element)} is out of range"
                )
            if row[w] != low:
                raise WitnessError(
                    f"witness point {w} for {_element_label(element)} does not attain "
                    f"its minimum {core.format_rational(min(element))}"
                )
            at.append(w)
    chosen = list(dict.fromkeys(at))
    _separate(values, chosen)
    if not chosen:
        chosen.append(0)

    # the lcm of the denominators of the kept values k/d in lowest terms
    m = d // math.gcd(d, *values[:, chosen].ravel().tolist())
    images = [tuple(element[x] for x in chosen) for element in subset]
    _verify_images(values, d, images, m, len(chosen))
    return FepEmbedding(
        m=m, n=len(chosen), points=tuple(chosen), mapping=dict(zip(subset, images))
    )


def _verify_images(
    values: np.ndarray, d: int, images: list[MonadicElement], m: int, n: int
) -> None:
    """Check the images, row by row, of the family whose numerators over d are `values`."""
    if any(len(image) != n for image in images):
        raise RuntimeError("restricted values escape the common chain")
    images, e = _scaled(images, n)
    if not _distinct(images):
        raise RuntimeError("restriction map is not injective")
    if m % e or ((images < 0) | (images > e)).any():
        raise RuntimeError("restricted values escape the common chain")
    images = images.astype(_dtype(m)) * (m // e)
    if not len(values):
        return
    if ((values == 0).all(axis=1) & (images != 0).any(axis=1)).any():
        raise RuntimeError("restriction map does not send 0 to 0")
    keys = _keys(values, d + 1)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]

    def member(results: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which results lie in the family, and the index of each one that does."""
        found = _find(sorted_keys, _keys(results, d + 1))
        return found >= 0, order[np.maximum(found, 0)]

    # the checks of one element a in the order they are reported: the
    # inf-quantifier, then implication with every b
    inside, c = member(np.repeat(values.min(axis=1, keepdims=True), values.shape[1], axis=1))
    forall = inside & (images[c] != images.min(axis=1, keepdims=True)).any(axis=1)
    for block in _row_blocks(len(values), len(values) * max(values.shape[1], n)):
        inside, c = member(_impl(values[block, None], values, d))
        impl = inside & (images[c] != _impl(images[block, None], images, m)).any(axis=-1)
        failed = _first(np.concatenate([forall[block, None], impl], axis=1))
        if failed is not None:
            if failed[1] == 0:
                raise RuntimeError("restriction map does not respect the inf-quantifier")
            raise RuntimeError("restriction map does not respect implication")


def _separate(values: np.ndarray, chosen: list[int]) -> None:
    """Append points to `chosen` until they separate all rows of `values`.

    Equivalent to visiting the pairs of rows in `itertools.combinations`
    order and, for each pair still equal on the chosen points, appending the
    first point where the two differ: the first such pair is always the
    least row i that shares its class (its values on the chosen points) with
    a later row, paired with the next row of that class.
    """
    classes = np.zeros(len(values), dtype=np.intp)

    def refine(x: int) -> np.ndarray:
        codes = np.unique(values[:, x], return_inverse=True)[1].reshape(-1)
        return np.unique(classes * len(values) + codes, return_inverse=True)[1].reshape(-1)

    for x in chosen:
        classes = refine(x)
    while True:
        _, first, counts = np.unique(classes, return_index=True, return_counts=True)
        shared = first[counts > 1]
        if not len(shared):
            return
        i = int(shared.min())
        j = i + 1 + int(np.flatnonzero(classes[i + 1 :] == classes[i])[0])
        x = int(np.flatnonzero(values[i] != values[j])[0])
        chosen.append(x)
        classes = refine(x)


# ---------------------------------------------------------------------------
# JSON forms


def _json_int(data: Mapping, key: str) -> int:
    """`data[key]`, which must be a JSON integer (not a bool)."""
    value = data[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{key} must be an integer, got {json.dumps(value)}")
    return value


def _generator_entry(entry: object) -> MonadicElement:
    """A functional `generators` entry [rational string, ...], parsed."""
    if not isinstance(entry, (list, tuple)) or not all(isinstance(v, str) for v in entry):
        raise TypeError(f"generators entry {json.dumps(entry)} is not a list of rational strings")
    return tuple(core.parse_rational(v) for v in entry)


def algebra_from_json(data: Mapping, check: bool = True) -> FiniteMonadicAlgebra:
    """Load an algebra from its functional or tabular JSON form.

    Functional algebras are regenerated from their generators, which makes
    their tables valid by construction; their n is at most
    `core.MAX_WORLDS`, their m unbounded.  Tabular algebras run the full
    identity check unless `check` is false.
    """
    if not isinstance(data, Mapping):
        raise AlgebraError("algebra data must be a JSON object")
    form = data.get("form")
    if form == "functional":
        try:
            m, n = _json_int(data, "m"), _json_int(data, "n")
            generators = [_generator_entry(element) for element in data["generators"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise AlgebraError(f"bad functional algebra data: {exc}") from exc
        if m < 1 or n < 1:
            raise AlgebraError("functional form needs m >= 1 and n >= 1")
        if n > core.MAX_WORLDS:
            raise AlgebraError(f"functional form needs n <= {core.MAX_WORLDS}, got {n}")
        for element in generators:
            if len(element) != n:
                raise AlgebraError(
                    f"generator {_element_label(element)} is not an {n}-tuple"
                )
        return generate_subalgebra(m, n, generators)
    if form == "tabular":
        try:
            elements, impl = data["elements"], data["impl"]
            zero, exists = data["zero"], data["exists"]
        except KeyError as exc:
            raise AlgebraError(f"bad tabular algebra data: missing {exc}") from exc
        if not isinstance(elements, list):
            raise AlgebraError(
                f"bad tabular algebra data: elements must be a list, got {json.dumps(elements)}"
            )
        return FiniteMonadicAlgebra(
            labels=[str(e) for e in elements], impl=impl, zero=zero, exists=exists, check=check
        )
    raise AlgebraError(f"unknown algebra form {form!r}")


def algebra_to_json(algebra: FiniteMonadicAlgebra, form: str | None = None) -> dict:
    if form is None:
        form = "functional" if algebra.carrier is not None else "tabular"
    if form == "functional":
        if algebra.carrier is None or algebra.m is None or algebra.n is None:
            raise AlgebraError("algebra has no functional form")
        generators = (
            algebra.generators if algebra.generators is not None else algebra.carrier
        )
        return {
            "form": "functional",
            "m": algebra.m,
            "n": algebra.n,
            "generators": [
                [core.format_rational(v) for v in element] for element in generators
            ],
        }
    if form == "tabular":
        return {
            "form": "tabular",
            "elements": list(algebra.labels),
            "impl": algebra.impl_table.tolist(),
            "zero": algebra.zero,
            "exists": algebra.exists_table.tolist(),
        }
    raise AlgebraError(f"unknown algebra form {form!r}")
