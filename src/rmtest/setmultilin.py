"""Partitioned multilinear polynomial systems over F_q.

Variables are split into blocks; a polynomial is block-multilinear when no
monomial uses two variables from the same block, and block-set-multilinear
when every monomial uses exactly one variable from each block (its
homogeneous top component).  Dropping constant terms can only grow the
solution count of a linear system, and iterating that block by block shows
the full system vanishes no more often than its set-multilinear part;
both probabilities are computed here by exhaustive enumeration.

Polynomials here are sparse (monomial -> coefficient) and multilinear in
each variable, a deliberately different carrier from the dense tables used
for the quotient ring.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .algebra import coefficient_blocks, ensure_prime
from .errors import StructureError
from .estimator import check_budget


@dataclass(frozen=True)
class Partition:
    """A partition of variables 0..n_vars-1 into ordered blocks."""

    q: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        ensure_prime(self.q)
        seen = [v for blk in self.blocks for v in blk]
        if sorted(seen) != list(range(len(seen))):
            raise ValueError("blocks must partition 0..N-1")
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))

    @classmethod
    def from_sizes(cls, q: int, sizes: Iterable[int]) -> "Partition":
        """Consecutive blocks of the given sizes: (0..s0-1), (s0..s0+s1-1), ..."""
        blocks, start = [], 0
        for size in sizes:
            blocks.append(tuple(range(start, start + size)))
            start += size
        return cls(q, tuple(blocks))

    @property
    def n_vars(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    def block_of(self, var: int) -> int:
        for i, blk in enumerate(self.blocks):
            if var in blk:
                return i
        raise ValueError(f"variable {var} not in partition")


class MultilinearPoly:
    """Sparse multilinear polynomial: {frozenset of variables: coefficient}."""

    __slots__ = ("q", "n_vars", "terms")

    def __init__(self, q: int, n_vars: int, terms: Mapping[frozenset, int]):
        ensure_prime(q)
        clean = {}
        for mon, c in terms.items():
            mon = frozenset(mon)
            if any(v < 0 or v >= n_vars for v in mon):
                raise ValueError("variable index out of range")
            c = c % q
            if c:
                clean[mon] = c
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultilinearPoly is immutable")

    def __eq__(self, other):
        if not isinstance(other, MultilinearPoly):
            return NotImplemented
        return (
            self.q == other.q
            and self.n_vars == other.n_vars
            and self.terms == other.terms
        )

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        parts = [
            "*".join([str(c)] + [f"z{v+1}" for v in sorted(mon)])
            for mon, c in sorted(self.terms.items(), key=lambda t: sorted(t[0]))
        ]
        return " + ".join(parts) if parts else "0"


def is_block_multilinear(p: MultilinearPoly, part: Partition) -> bool:
    for mon in p.terms:
        used = [part.block_of(v) for v in mon]
        if len(used) != len(set(used)):
            return False
    return True


def set_multilinear_part(p: MultilinearPoly, part: Partition) -> MultilinearPoly:
    """Keep the monomials using exactly one variable from every block."""
    if not is_block_multilinear(p, part):
        raise StructureError("polynomial is not multilinear over the partition")
    k = part.n_blocks
    kept = {mon: c for mon, c in p.terms.items() if len(mon) == k}
    return MultilinearPoly(p.q, p.n_vars, kept)


def homogenization_chain(
    polys: Iterable[MultilinearPoly], part: Partition
) -> list[list[MultilinearPoly]]:
    """The block-by-block systems from the originals down to the parts.

    Step j+1 drops every monomial that misses block j+1; the last step is
    the set-multilinear part of each polynomial.
    """
    current = list(polys)
    chain = [current]
    for blk in part.blocks:
        blkset = set(blk)
        nxt = []
        for p in current:
            kept = {mon: c for mon, c in p.terms.items() if mon & blkset}
            nxt.append(MultilinearPoly(p.q, p.n_vars, kept))
        chain.append(nxt)
        current = nxt
    return chain


def _vanishing_probabilities(
    systems: list[Sequence[MultilinearPoly]], part: Partition, budget: int | None
) -> list[Fraction]:
    """Probability over uniform assignments that each system vanishes.

    The assignments are enumerated once, block by block, and each distinct
    monomial's values are computed once per block.  A polynomial's terms
    (at most 2^N, each below q^2) are summed unreduced; products and sums
    stay below q^(N+2), so int64 holds them exactly while the enumeration's
    length q^N is below 2^63 / q^2.
    """
    q, total = part.q, part.q**part.n_vars
    check_budget(total, budget, "assignment enumeration")
    counts = [0] * len(systems)
    for rows in coefficient_blocks(q, part.n_vars):
        columns = {}
        for i, polys in enumerate(systems):
            good = np.ones(len(rows), dtype=bool)
            for p in polys:
                acc = np.zeros(len(rows), dtype=np.int64)
                for mon, c in p.terms.items():
                    if mon not in columns:
                        columns[mon] = np.prod(rows[:, sorted(mon)], axis=1) % q
                    acc += c * columns[mon]
                good &= acc % q == 0
            counts[i] += int(good.sum())
    return [Fraction(count, total) for count in counts]


def vanishing_probability(
    polys: Iterable[MultilinearPoly], part: Partition, budget: int | None = None
) -> Fraction:
    """Probability over uniform assignments that every polynomial vanishes."""
    return _vanishing_probabilities([list(polys)], part, budget)[0]


@dataclass(frozen=True)
class PartitionedSystem:
    partition: Partition
    polys: tuple[MultilinearPoly, ...]

    def __post_init__(self):
        for p in self.polys:
            if p.q != self.partition.q or p.n_vars != self.partition.n_vars:
                raise StructureError("system polynomials disagree with partition")
            if not is_block_multilinear(p, self.partition):
                raise StructureError("system polynomial is not block-multilinear")


def system_vanishing_probability(
    sys: PartitionedSystem, budget: int | None = None
) -> tuple[Fraction, Fraction]:
    """(p_full, p_sm): joint vanishing of the system and of its parts.

    The domination p_full <= p_sm is asserted; it holds for every system.
    """
    part = sys.partition
    parts = [set_multilinear_part(p, part) for p in sys.polys]
    p_full, p_sm = _vanishing_probabilities([sys.polys, parts], part, budget)
    if p_full > p_sm:
        raise AssertionError(
            f"domination violated: {p_full} > {p_sm} for {sys.polys}"
        )
    return p_full, p_sm


def chain_probabilities(
    sys: PartitionedSystem, budget: int | None = None
) -> list[Fraction]:
    """Vanishing probability of each intermediate homogenized system."""
    chain = homogenization_chain(sys.polys, sys.partition)
    return _vanishing_probabilities(chain, sys.partition, budget)


def random_system(
    part: Partition, m: int, rng: np.random.Generator
) -> PartitionedSystem:
    """m random block-multilinear polynomials (uniform coefficient on every
    admissible monomial, including zero)."""
    q = part.q
    choices = [tuple(b) + (None,) for b in part.blocks]
    monomials = [
        frozenset(v for v in picks if v is not None)
        for picks in itertools.product(*choices)
    ]
    polys = []
    for _ in range(m):
        terms = {mon: int(rng.integers(0, q)) for mon in monomials}
        polys.append(MultilinearPoly(q, part.n_vars, terms))
    return PartitionedSystem(part, tuple(polys))
