"""The ordered univariate basis and its upper-triangular product structure.

Fixing an ordering xi_0, ..., xi_{q-1} of the field, the basis polynomial
at level i is prod_{j<i} (X - xi_j): a monic degree-i polynomial vanishing
at the first i nodes (a Newton basis on the ordered nodes).  Products of
basis elements expand upper-triangularly, which gives every polynomial
product a triangular decomposition along any chosen variable; that
structure is what the multiplier tests' analysis rides on, so this module
also exposes the structure constants and the product-component tensors,
each verified against direct multiplication.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import (
    Monomial,
    Polynomial,
    batch_evaluate,
    ensure_prime,
    inverse_mod_matrix,
    mul_reduced,
    transform_rows,
)
from .errors import ParamsMismatchError


@dataclass(frozen=True)
class FieldOrdering:
    """A linear ordering of the elements of F_q."""

    q: int
    xi: tuple[int, ...]

    def __post_init__(self):
        ensure_prime(self.q)
        if sorted(self.xi) != list(range(self.q)):
            raise ValueError(f"ordering must be a permutation of 0..{self.q-1}")

    @classmethod
    def natural(cls, q: int) -> "FieldOrdering":
        return cls(q, tuple(range(q)))

    @classmethod
    def reversed_natural(cls, q: int) -> "FieldOrdering":
        """The reverse ordering; pairs with natural() in the tightness proofs."""
        return cls(q, tuple(range(q - 1, -1, -1)))


@dataclass(frozen=True)
class GeneralizedMonomial:
    """Product of basis polynomials, one level index per variable."""

    indices: tuple[int, ...]
    ordering: FieldOrdering

    def __post_init__(self):
        if any(i < 0 or i >= self.ordering.q for i in self.indices):
            raise ValueError("indices must lie in [0, q)")

    @property
    def degree(self) -> int:
        return sum(self.indices)

    def as_polynomial(self) -> Polynomial:
        """The product as a polynomial: the unit generalized coefficient
        vector at these levels, changed back to the monomial basis."""
        q, n = self.ordering.q, len(self.indices)
        unit = np.zeros(q**n, dtype=np.int64)
        unit[Monomial(q, self.indices).index()] = 1
        return from_generalized(unit, q, n, self.ordering)


def generalized_monomials(
    ordering: FieldOrdering, n: int, d: int | None = None
) -> tuple[GeneralizedMonomial, ...]:
    """All level-index products over n variables with degree at most d.

    There are exactly as many as standard monomials of the same degree
    cap, and their evaluations span the degree-<=d space.
    """
    q = ordering.q
    top = n * (q - 1) if d is None else d
    out = [
        GeneralizedMonomial(idx, ordering)
        for idx in itertools.product(range(q), repeat=n)
        if sum(idx) <= top
    ]
    out.sort(key=lambda gm: (gm.degree, gm.indices))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def basis_polys(ordering: FieldOrdering) -> tuple[Polynomial, ...]:
    """The q univariate basis polynomials for the given node ordering."""
    q = ordering.q
    out = []
    f = Polynomial.one(q, 1)
    for i in range(q):
        out.append(f)
        if i < q - 1:
            factor = Polynomial.from_terms(q, 1, {(1,): 1, (0,): -ordering.xi[i]})
            f = mul_reduced(f, factor)
    return tuple(out)


@functools.lru_cache(maxsize=None)
def basis_matrix(ordering: FieldOrdering) -> np.ndarray:
    """Columns are the coefficient vectors of the basis polynomials.

    Unitriangular (level i is monic of degree i), hence invertible and
    degree preserving under basis change.
    """
    q = ordering.q
    b = np.zeros((q, q), dtype=np.int64)
    for i, poly in enumerate(basis_polys(ordering)):
        b[:, i] = poly.coeffs
    b.flags.writeable = False
    return b


@functools.lru_cache(maxsize=None)
def basis_matrix_inv(ordering: FieldOrdering) -> np.ndarray:
    m = inverse_mod_matrix(basis_matrix(ordering), ordering.q)
    m.flags.writeable = False
    return m


def to_generalized(f: Polynomial, ordering: FieldOrdering) -> np.ndarray:
    """Coefficients of f over products of basis polynomials.

    Indexed like the standard coefficient table (mixed radix over the per
    variable levels, X_1 most significant).
    """
    if f.q != ordering.q:
        raise ParamsMismatchError("ordering modulus differs from polynomial's")
    return transform_rows(f.q, f.n, f.coeffs, basis_matrix_inv(ordering))


def from_generalized(gen: np.ndarray, q: int, n: int, ordering: FieldOrdering) -> Polynomial:
    out = np.asarray(gen, dtype=np.int64) % q
    return Polynomial(q, n, transform_rows(q, n, out, basis_matrix(ordering)))


def generalized_terms(
    f: Polynomial, ordering: FieldOrdering
) -> list[tuple[tuple[int, ...], int]]:
    """Nonzero generalized coefficients sorted by degree then lex indices."""
    gen = to_generalized(f, ordering)
    q, n = f.q, f.n
    out = [
        (Monomial.from_index(q, n, int(flat)).exponents, int(gen[flat]))
        for flat in np.flatnonzero(gen)
    ]
    out.sort(key=lambda t: (sum(t[0]), t[0]))
    return out


def generalized_degree(f: Polynomial, ordering: FieldOrdering):
    """Degree read off the generalized coefficients (equals f.degree)."""
    terms = generalized_terms(f, ordering)
    return max((sum(ix) for ix, _ in terms), default=float("-inf"))


# ---------------------------------------------------------------------------
# Structure constants and product decompositions
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def structure_constants(ordering: FieldOrdering) -> np.ndarray:
    """gamma[r, i, j] = coefficient of level r in the product of levels i, j,
    read-only.

    Zero unless r >= max(i, j); the diagonal gamma[r, r, r] is the value of
    the level-r basis polynomial at its own node, hence nonzero.
    """
    q = ordering.q
    polys = basis_polys(ordering)
    inv = basis_matrix_inv(ordering)
    gamma = np.zeros((q, q, q), dtype=np.int64)
    for i in range(q):
        for j in range(q):
            prod = mul_reduced(polys[i], polys[j])
            gamma[:, i, j] = inv @ prod.coeffs % q
    gamma.flags.writeable = False
    return gamma


def components_along(
    f: Polynomial, var: int, ordering: FieldOrdering
) -> tuple[Polynomial, ...]:
    """Write f = sum_i b_i(X_var) * f_i with each f_i over the other n-1 vars."""
    if not 0 <= var < f.n:
        raise ValueError(f"variable index {var} out of range")
    q, n = f.q, f.n
    tensor = np.moveaxis(f.coeffs.reshape((q,) * n), var, 0).reshape(q, -1)
    gen = basis_matrix_inv(ordering) @ tensor % q
    return tuple(Polynomial(q, n - 1, gen[i]) for i in range(q))


def assemble_along(
    components: tuple[Polynomial, ...], var: int, ordering: FieldOrdering
) -> Polynomial:
    """Inverse of components_along."""
    q = ordering.q
    n = components[0].n + 1
    gen = np.stack([c.coeffs for c in components])
    tensor = (basis_matrix(ordering) @ gen % q).reshape((q,) * n)
    coeffs = np.moveaxis(tensor, 0, var).reshape(-1)
    return Polynomial(q, n, coeffs)


@dataclass(frozen=True)
class UTDecomposition:
    """Triangular decomposition of a product along one variable.

    The product f*P equals sum_k b_k(X_var) * R_k where
    R_k = Q_k * f|_{X_var=xi_k} + sum_{j<k} Q_j * h_{j,k}:
    the level-k component only involves multiplier components up to k.
    """

    var: int
    ordering: FieldOrdering
    f_components: tuple[Polynomial, ...]
    multiplier_components: tuple[Polynomial, ...]  # the Q_k
    h: dict  # (j, k) -> Polynomial for j < k
    products: tuple[Polynomial, ...]  # the R_k


def ut_decompose(
    f: Polynomial, p: Polynomial, var: int, ordering: FieldOrdering
) -> UTDecomposition:
    f._check(p)
    if f.n < 1:
        raise ValueError("need at least one variable")
    q = f.q
    sc = structure_constants(ordering)
    f_comp = components_along(f, var, ordering)
    q_comp = components_along(p, var, ordering)

    # h_{j,k} = sum_i gamma[k, i, j] * f_i  (k > j)
    comps = np.stack([c.coeffs for c in f_comp])
    h_all = np.einsum("kij,ix->jkx", sc, comps) % q
    h = {(j, k): Polynomial(q, f.n - 1, h_all[j, k]) for k in range(q) for j in range(k)}

    # f|_{X_var = xi_k} = sum_i b_i(xi_k) * f_i, with nodes[i, k] = b_i(xi_k)
    nodes = batch_evaluate(q, 1, basis_matrix(ordering).T)[:, list(ordering.xi)]
    restrictions = [Polynomial(q, f.n - 1, row) for row in nodes.T @ comps % q]

    r_comp = []
    for k in range(q):
        acc = mul_reduced(q_comp[k], restrictions[k])
        for j in range(k):
            acc = acc + mul_reduced(q_comp[j], h[(j, k)])
        r_comp.append(acc)

    return UTDecomposition(var, ordering, f_comp, q_comp, h, tuple(r_comp))


def reassemble(dec: UTDecomposition) -> Polynomial:
    """Rebuild the product from its triangular components."""
    return assemble_along(dec.products, dec.var, dec.ordering)


@dataclass(frozen=True)
class ProductComponents:
    """Components of a k-fold product along one variable, with the tensor
    expressing each product component over products of factor components."""

    var: int
    ordering: FieldOrdering
    factor_components: tuple[tuple[Polynomial, ...], ...]  # [i][j] = Q_{i,j}
    product_components: tuple[Polynomial, ...]  # Q_j of prod P_i
    beta: np.ndarray  # beta[j, j_1, ..., j_k]


def product_components(
    p_list: list[Polynomial], var: int, ordering: FieldOrdering
) -> ProductComponents:
    """Decompose prod P_i along var and verify the triangular expansion.

    The tensor is built by the structure-constant recurrence; the expansion
    it defines is checked against the directly computed components, and its
    diagonal entries are nonzero.
    """
    if not p_list:
        raise ValueError("need at least one factor")
    q = p_list[0].q
    n = p_list[0].n
    k = len(p_list)
    factor_comp = tuple(components_along(p, var, ordering) for p in p_list)

    prod = p_list[0]
    for p in p_list[1:]:
        prod = mul_reduced(prod, p)
    prod_comp = components_along(prod, var, ordering)

    beta = _beta_tensor(ordering, k)

    # verify: Q_j == sum over tuples <= j of beta * prod of factor components,
    # on value tables (evaluation is a bijection of the ring)
    tables = [
        batch_evaluate(q, n - 1, np.stack([c.coeffs for c in comps]))
        for comps in factor_comp
    ]
    prod_tables = batch_evaluate(q, n - 1, np.stack([c.coeffs for c in prod_comp]))
    for j in range(q):
        acc = beta[(j,) + (slice(j + 1),) * k][..., None]
        for table in reversed(tables):
            acc = (acc * table[: j + 1]).sum(axis=-2) % q
        if not np.array_equal(acc, prod_tables[j]):
            raise AssertionError(
                f"triangular expansion mismatch at level {j} (k={k}, q={q})"
            )
        if beta[(j,) + (j,) * k] % q == 0:
            raise AssertionError(f"zero diagonal tensor entry at level {j}")

    return ProductComponents(var, ordering, factor_comp, prod_comp, beta)


def _beta_tensor(ordering: FieldOrdering, k: int) -> np.ndarray:
    """Tensor beta[j, j_1..j_k] with prod component Q_j = sum beta * Q_(j_1..j_k).

    Built by the recurrence beta_k[r, (jvec, l)] =
    sum_j gamma[r, j, l] * beta_{k-1}[j, jvec]; the base case is the
    identity.  Diagonals stay nonzero because the structure-constant
    diagonal does.
    """
    q = ordering.q
    gamma = structure_constants(ordering)
    beta = np.eye(q, dtype=np.int64)  # beta[j, j1]
    for _ in range(k - 1):
        # beta'[r, jvec, l] = sum_j gamma[r, j, l] * beta[j, jvec]
        beta = np.tensordot(gamma, beta, axes=([1], [0])) % q
        # axes now (r, l, jvec...) -> move l to the end
        beta = np.moveaxis(beta, 1, -1)
    return beta
