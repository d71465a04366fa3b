"""Exact arithmetic in the ring of functions F_q^n -> F_q for prime q.

Functions are identified with polynomials of individual degree < q via the
relations X_i^q = X_i.  A polynomial is stored as a dense coefficient table
of length q**n indexed by the mixed-radix encoding of exponent vectors
(X_1 most significant); evaluation tables use the same encoding on points.
This keeps reduction, evaluation and enumeration branch-free at the cost of
refusing instances with q**n above a configurable cap.

All values are immutable after construction and every operation is a pure
function, so the module is safe to use from multiple threads.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    DegenerateFormError,
    ParamsMismatchError,
    ZeroPolynomialError,
)

NEG_INF = float("-inf")

# Instances with q**n above this cap are refused (dense tables only).
DENSE_CAP = 1 << 24

# transform_rows multiplies by Kronecker powers with at most this many rows.
_KRON_ROWS = 32

# mul_reduced looks products up in index tables with at most this many rows.
_PRODUCT_ROWS = 1 << 10


def is_prime(q: int) -> bool:
    """Primality by trial division; adequate for the small moduli used here."""
    if q < 2:
        return False
    if q < 4:
        return True
    if q % 2 == 0:
        return False
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def ensure_prime(q: int) -> int:
    if not is_prime(q):
        raise ValueError(f"modulus must be prime, got {q}")
    return q


def _check_size(q: int, n: int) -> None:
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if q**n > DENSE_CAP:
        raise ValueError(f"q**n = {q**n} exceeds the dense table cap {DENSE_CAP}")


# ---------------------------------------------------------------------------
# Monomials
# ---------------------------------------------------------------------------


@functools.total_ordering
@dataclass(frozen=True)
class Monomial:
    """A reduced monomial: exponent vector with every entry in [0, q).

    Ordering is graded lexicographic: higher total degree wins, ties are
    broken by the exponent at the least index where the vectors differ.
    """

    q: int
    exponents: tuple[int, ...]

    def __post_init__(self):
        ensure_prime(self.q)
        exps = tuple(int(e) for e in self.exponents)
        if any(e < 0 or e >= self.q for e in exps):
            raise ValueError(f"exponents must lie in [0, {self.q}): {exps}")
        object.__setattr__(self, "exponents", exps)

    @property
    def n(self) -> int:
        return len(self.exponents)

    @property
    def degree(self) -> int:
        return sum(self.exponents)

    def sort_key(self) -> tuple:
        return (self.degree, self.exponents)

    def __lt__(self, other: "Monomial") -> bool:
        self._check(other)
        return self.sort_key() < other.sort_key()

    def _check(self, other: "Monomial") -> None:
        if not isinstance(other, Monomial):
            raise TypeError(f"expected Monomial, got {type(other)!r}")
        if self.q != other.q or self.n != other.n:
            raise ParamsMismatchError("monomials live over different (q, n)")

    def index(self) -> int:
        """Mixed-radix encoding, X_1 most significant."""
        idx = 0
        for e in self.exponents:
            idx = idx * self.q + e
        return idx

    @classmethod
    def from_index(cls, q: int, n: int, idx: int) -> "Monomial":
        exps = [0] * n
        for j in range(n - 1, -1, -1):
            exps[j] = idx % q
            idx //= q
        return cls(q, tuple(exps))

    def is_disjoint(self, other: "Monomial") -> bool:
        """True iff the reduced and unreduced products agree."""
        self._check(other)
        return all(a + b < self.q for a, b in zip(self.exponents, other.exponents))

    def __mul__(self, other: "Monomial") -> "Monomial":
        """Reduced product: exponent sums folded back below q via X^q -> X."""
        self._check(other)
        exps = tuple(
            s if s < self.q else s - (self.q - 1)
            for s in (a + b for a, b in zip(self.exponents, other.exponents))
        )
        return Monomial(self.q, exps)

    def unreduced_exponents(self, other: "Monomial") -> tuple[int, ...]:
        self._check(other)
        return tuple(a + b for a, b in zip(self.exponents, other.exponents))

    def __str__(self) -> str:
        parts = [
            f"X{j+1}" + (f"^{e}" if e > 1 else "")
            for j, e in enumerate(self.exponents)
            if e
        ]
        return "*".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# Linear algebra mod q and the per-axis transform
# ---------------------------------------------------------------------------


def inverse_mod_matrix(mat: Sequence[Sequence[int]], q: int) -> np.ndarray:
    """Inverse of a square matrix over F_q by Gauss-Jordan elimination."""
    mat = np.asarray(mat, dtype=np.int64)
    m = mat.shape[0]
    aug = np.concatenate([mat % q, np.eye(m, dtype=np.int64)], axis=1)
    for col in range(m):
        pivot = next((r for r in range(col, m) if aug[r, col] % q), None)
        if pivot is None:
            raise ValueError("matrix is singular mod q")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = (aug[col] * pow(int(aug[col, col]), q - 2, q)) % q
        for r in range(m):
            if r != col and aug[r, col]:
                aug[r] = (aug[r] - aug[r, col] * aug[col]) % q
    return aug[:, m:]


def rank_mod(mat: np.ndarray, q: int):
    """Rank over F_q of an integer matrix (an int), or of every matrix in a
    (..., R, C) stack (an int64 array of the leading shape).

    The whole stack is eliminated at once, one row at a time along the
    shorter side (rank is invariant under transposition): a row's first
    nonzero entry p at column j is its pivot, and every later row r becomes
    p * r + (q - r[j]) * row mod q, which clears column j without an inverse
    and, p being nonzero, keeps the span (at q = 2, r XOR r[j] * row).  A
    row that is zero when its turn comes depends on the rows before it, and
    stays zero; the others form a triangular set.
    """
    # entries stay below q before a step and below 2q^2 within one
    dtype = np.uint8 if 2 * q * q < 256 else np.uint64
    a = (np.asarray(mat) % q).astype(dtype, copy=False)
    if a.shape[-2] > a.shape[-1]:
        a = a.swapaxes(-1, -2)
    *lead, rows, cols = a.shape
    a = a.reshape(math.prod(lead), rows, cols)  # a view when lead is empty
    for i in range(rows - 1):
        stack = np.arange(len(a))
        row = a[:, i, :]
        j = (row != 0).argmax(axis=1)  # column 0 for a zero row
        rest = a[:, i + 1 :, :]
        below = rest[stack, :, j][:, :, None]
        if q == 2:
            rest ^= below & row[:, None, :]
            continue
        pivot = row[stack, j]
        pivot += pivot == 0  # a zero row leaves the rest unchanged
        rest *= pivot[:, None, None]
        rest += (q - below) * row[:, None, :]
        rest %= q
    nonzero = a.any(axis=2)
    if lead:
        return nonzero.sum(axis=1).reshape(lead)
    return int(np.count_nonzero(nonzero))


@functools.lru_cache(maxsize=None)
def _vandermonde(q: int) -> np.ndarray:
    v = np.empty((q, q), dtype=np.int64)
    for x in range(q):
        for e in range(q):
            v[x, e] = pow(x, e, q) if e else 1
    v.flags.writeable = False
    return v


@functools.lru_cache(maxsize=None)
def _vandermonde_inv(q: int) -> np.ndarray:
    v = inverse_mod_matrix(_vandermonde(q), q)
    v.flags.writeable = False
    return v


@functools.lru_cache(maxsize=None)
def _kron_power(q: int, size: int, mat_bytes: bytes) -> np.ndarray:
    """The size-fold Kronecker power of a q x q matrix, reduced mod q."""
    mat = np.frombuffer(mat_bytes, dtype=np.int64).reshape(q, q)
    out = np.ones((1, 1), dtype=np.int64)
    for _ in range(size):
        out = np.kron(out, mat) % q
    out.flags.writeable = False
    return out


def eval_matrix(q: int, n: int) -> np.ndarray:
    """Dense reference M with M[point, monomial] = value of the monomial at
    the point; q**n x q**n, so the batch transforms never build it."""
    _check_size(q, n)
    return _kron_power(q, n, _vandermonde(q).tobytes())


def interp_matrix(q: int, n: int) -> np.ndarray:
    """Dense reference inverse of eval_matrix(q, n)."""
    _check_size(q, n)
    return _kron_power(q, n, _vandermonde_inv(q).tobytes())


@functools.lru_cache(maxsize=None)
def degree_table(q: int, n: int) -> np.ndarray:
    """degree_table(q, n)[idx] = total degree of the monomial at idx."""
    _check_size(q, n)
    deg = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        deg = (deg[:, None] + np.arange(q)[None, :]).ravel()
    deg.flags.writeable = False
    return deg


def _digit_table(digit: np.ndarray, w: int) -> np.ndarray:
    """table[i, j] = mixed-radix index whose every digit is digit[a, b] for
    the digits a, b of i and j, over w digits; read-only int32 q^w x q^w.

    Built one digit at a time by broadcasting; every digit combines alike,
    so each new one is prepended as the most significant digit, which keeps
    the long axis innermost.
    """
    q = len(digit)
    digit = digit.astype(np.int32)
    table = np.zeros((1, 1), dtype=np.int32)
    for _ in range(w):
        rows = len(table)
        table = digit[:, None, :, None] * rows + table[None, :, None, :]
        table = table.reshape(rows * q, rows * q)
    table.flags.writeable = False
    return table


@functools.lru_cache(maxsize=None)
def _product_index(q: int, w: int) -> np.ndarray:
    """_product_index(q, w)[i, j] = index of the reduced product X^i * X^j
    of two monomials over w variables."""
    a = np.arange(q)
    return _digit_table(_fold(q)[a[:, None] + a[None, :]], w)


@functools.lru_cache(maxsize=None)
def sum_index(q: int, n: int) -> np.ndarray:
    """sum_index(q, n)[i, j] = index of the point i + j of F_q^n."""
    a = np.arange(q)
    return _digit_table((a[:, None] + a[None, :]) % q, n)


@functools.lru_cache(maxsize=None)
def _powers(q: int, n: int) -> np.ndarray:
    """Mixed-radix place values q^(n-1), ..., q, 1 (X_1 most significant)."""
    powers = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    powers.flags.writeable = False
    return powers


@functools.lru_cache(maxsize=None)
def _fold(q: int) -> np.ndarray:
    """_fold(q)[a + b] = exponent of X^a * X^b reduced by X^q -> X."""
    fold = np.arange(2 * q - 1, dtype=np.int64)
    fold[q:] -= q - 1
    fold.flags.writeable = False
    return fold


@functools.lru_cache(maxsize=None)
def monomial_indices_up_to_degree(q: int, n: int, d: int) -> np.ndarray:
    """Indices of all monomials of total degree <= d (empty for d < 0),
    read-only."""
    if d < 0:
        idx = np.empty(0, dtype=np.int64)
    else:
        idx = np.flatnonzero(degree_table(q, n) <= d)
    idx.flags.writeable = False
    return idx


def transform_rows(q: int, n: int, rows: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Apply a q x q matrix mod q along every axis of each length-q**n row.

    Consecutive axes are taken in groups whose Kronecker power of mat has
    at most _KRON_ROWS rows, one matmul per group, so no q**n x q**n
    matrix is ever built; rows may be one row or any (..., q**n) array.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if n == 0:
        return rows % q
    size = 1
    while q ** (size + 1) <= _KRON_ROWS:
        size += 1
    mat_bytes = np.ascontiguousarray(mat, dtype=np.int64).tobytes()
    lead = rows.size // q**n
    out = rows
    for start in range(0, n, size):
        width = min(size, n - start)
        kron = _kron_power(q, width, mat_bytes)
        inner = q ** (n - start - width)
        if inner == 1:
            out = out.reshape(-1, q**width) @ kron.T
        else:
            out = np.matmul(kron, out.reshape(lead * q**start, q**width, inner))
        out %= q
    return out.reshape(rows.shape)


def _xor_butterfly(n: int, rows: np.ndarray) -> np.ndarray:
    """Evaluation and interpolation at q = 2, which are the same map: the
    Vandermonde matrix and its inverse mod 2 are both [[1, 0], [1, 1]], so
    every axis is one in-place XOR of its upper half with its lower half."""
    # a C-ordered copy, so every reshape below is a view; the cast wraps
    # mod 256, which keeps the parity
    out = np.asarray(rows).astype(np.uint8, order="C")
    out &= 1
    lead = out.size >> n
    for j in range(n):
        axis = out.reshape(lead << j, 2, 1 << (n - j - 1))
        axis[:, 1, :] ^= axis[:, 0, :]
    return out.astype(np.int64)


def batch_evaluate(q: int, n: int, coeff_rows: np.ndarray) -> np.ndarray:
    """Evaluation tables (rows) for a matrix of coefficient rows."""
    if q == 2:
        return _xor_butterfly(n, coeff_rows)
    return transform_rows(q, n, coeff_rows, _vandermonde(q))


def batch_interpolate(q: int, n: int, value_rows: np.ndarray) -> np.ndarray:
    if q == 2:
        return _xor_butterfly(n, value_rows)
    return transform_rows(q, n, value_rows, _vandermonde_inv(q))


def batch_degrees(q: int, n: int, coeff_rows: np.ndarray) -> np.ndarray:
    """Row-wise degrees; the zero row is reported as -1 (stands in for -inf)."""
    score = (coeff_rows != 0) * (degree_table(q, n) + 1)
    return score.max(axis=1) - 1


def coefficient_blocks(
    q: int, count: int, block_size: int = 1 << 14
) -> Iterator[np.ndarray]:
    """Yield all q**count coefficient vectors as row blocks, in counter order."""
    total = q**count
    powers = q ** np.arange(count - 1, -1, -1, dtype=np.int64) if count else None
    for start in range(0, total, block_size):
        idx = np.arange(start, min(start + block_size, total), dtype=np.int64)
        if count == 0:
            yield np.zeros((len(idx), 0), dtype=np.int64)
        else:
            yield (idx[:, None] // powers[None, :]) % q


# ---------------------------------------------------------------------------
# Polynomials and evaluation tables
# ---------------------------------------------------------------------------


class Polynomial:
    """Element of F_q[X_1..X_n]/(X_i^q - X_i) as a dense coefficient table."""

    __slots__ = ("q", "n", "coeffs")

    def __init__(self, q: int, n: int, coeffs=None):
        ensure_prime(q)
        _check_size(q, n)
        if coeffs is None:
            arr = np.zeros(q**n, dtype=np.int64)
        else:
            arr = np.asarray(coeffs, dtype=np.int64) % q
            if arr.shape != (q**n,):
                raise ValueError(f"coefficient table must have length {q**n}")
            arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _wrap(cls, q: int, n: int, arr: np.ndarray) -> "Polynomial":
        """Adopt arr without validating or copying it: (q, n) must already
        be valid and arr a fresh int64 array of length q**n reduced mod q."""
        arr.flags.writeable = False
        poly = object.__new__(cls)
        object.__setattr__(poly, "q", q)
        object.__setattr__(poly, "n", n)
        object.__setattr__(poly, "coeffs", arr)
        return poly

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, q: int, n: int) -> "Polynomial":
        return cls(q, n)

    @classmethod
    def constant(cls, q: int, n: int, c: int) -> "Polynomial":
        coeffs = np.zeros(q**n, dtype=np.int64)
        coeffs[0] = c % q
        return cls(q, n, coeffs)

    @classmethod
    def one(cls, q: int, n: int) -> "Polynomial":
        return cls.constant(q, n, 1)

    @classmethod
    def variable(cls, q: int, n: int, j: int) -> "Polynomial":
        """The polynomial X_{j+1} (0-based index j)."""
        if not 0 <= j < n:
            raise ValueError(f"variable index {j} out of range for n={n}")
        exps = [0] * n
        exps[j] = 1
        return cls.from_terms(q, n, {tuple(exps): 1})

    @classmethod
    def from_terms(cls, q: int, n: int, terms: dict) -> "Polynomial":
        """Build from {exponent tuple or Monomial: coefficient}."""
        coeffs = np.zeros(q**n, dtype=np.int64)
        for mon, c in terms.items():
            if isinstance(mon, Monomial):
                idx = mon.index()
            else:
                idx = Monomial(q, tuple(mon)).index()
            coeffs[idx] = (coeffs[idx] + c) % q
        return cls(q, n, coeffs)

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if self.q != other.q or self.n != other.n:
            raise ParamsMismatchError(
                f"(q={self.q}, n={self.n}) vs (q={other.q}, n={other.n})"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return Polynomial._wrap(self.q, self.n, (self.coeffs + other.coeffs) % self.q)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        return Polynomial._wrap(self.q, self.n, (self.coeffs - other.coeffs) % self.q)

    def __neg__(self) -> "Polynomial":
        return Polynomial._wrap(self.q, self.n, -self.coeffs % self.q)

    def scale(self, c: int) -> "Polynomial":
        return Polynomial._wrap(self.q, self.n, self.coeffs * (c % self.q) % self.q)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return mul_reduced(self, other)

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative powers unsupported")
        out = Polynomial.one(self.q, self.n)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (
            self.q == other.q
            and self.n == other.n
            and bool(np.array_equal(self.coeffs, other.coeffs))
        )

    def __hash__(self) -> int:
        return hash((self.q, self.n, self.coeffs.tobytes()))

    def is_zero(self) -> bool:
        return not self.coeffs.any()

    # -- degree and terms ---------------------------------------------------

    @property
    def degree(self):
        """Total degree; the zero polynomial has degree -inf."""
        nz = self.coeffs.nonzero()[0]
        if len(nz) == 0:
            return NEG_INF
        return int(degree_table(self.q, self.n)[nz].max())

    def leading_monomial(self) -> Monomial:
        """Graded-lex-largest monomial with nonzero coefficient."""
        if self.is_zero():
            raise ZeroPolynomialError("the zero polynomial has no leading monomial")
        nz = np.flatnonzero(self.coeffs)
        degs = degree_table(self.q, self.n)[nz]
        top = nz[degs == degs.max()]
        # equal-degree monomials sort by index (X_1 most significant)
        return Monomial.from_index(self.q, self.n, int(top.max()))

    def terms(self) -> list[tuple[Monomial, int]]:
        """Nonzero terms in decreasing graded-lex order."""
        out = [
            (Monomial.from_index(self.q, self.n, int(i)), int(self.coeffs[i]))
            for i in np.flatnonzero(self.coeffs)
        ]
        out.sort(key=lambda t: t[0].sort_key(), reverse=True)
        return out

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, point: Sequence[int]) -> int:
        if len(point) != self.n:
            raise ValueError(f"point must have {self.n} coordinates")
        idx = 0
        for x in point:
            idx = idx * self.q + (int(x) % self.q)
        return int(self.evaluate_all().values[idx])

    def evaluate_all(self) -> "EvalTable":
        vals = transform_rows(self.q, self.n, self.coeffs, _vandermonde(self.q))
        return EvalTable._wrap(self.q, self.n, vals)

    def restrict(self, ell: Sequence[int], alpha: int) -> "Polynomial":
        return restrict(self, ell, alpha)

    def __repr__(self) -> str:
        return f"Polynomial({poly_to_text(self)!r})"


class EvalTable:
    """Values of a function on all of F_q^n, points in mixed-radix order."""

    __slots__ = ("q", "n", "values")

    def __init__(self, q: int, n: int, values):
        ensure_prime(q)
        _check_size(q, n)
        arr = np.asarray(values, dtype=np.int64) % q
        if arr.shape != (q**n,):
            raise ValueError(f"table must have length {q**n}, got {arr.shape}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("EvalTable is immutable")

    @classmethod
    def _wrap(cls, q: int, n: int, arr: np.ndarray) -> "EvalTable":
        """Adopt arr unchecked, as Polynomial._wrap does."""
        arr.flags.writeable = False
        table = object.__new__(cls)
        object.__setattr__(table, "q", q)
        object.__setattr__(table, "n", n)
        object.__setattr__(table, "values", arr)
        return table

    def support_size(self) -> int:
        return int(np.count_nonzero(self.values))

    def __eq__(self, other) -> bool:
        if not isinstance(other, EvalTable):
            return NotImplemented
        return (
            self.q == other.q
            and self.n == other.n
            and bool(np.array_equal(self.values, other.values))
        )

    def __hash__(self) -> int:
        return hash((self.q, self.n, self.values.tobytes()))


def interpolate(t: EvalTable) -> Polynomial:
    """The unique reduced polynomial with the given evaluation table."""
    coeffs = transform_rows(t.q, t.n, t.values, _vandermonde_inv(t.q))
    return Polynomial._wrap(t.q, t.n, coeffs)


def mul_reduced(f: Polynomial, g: Polynomial) -> Polynomial:
    """Product in the quotient ring: convolution with X^q -> X folding.

    The product index of two monomials is looked up group by group of
    consecutive variables in _product_index tables of at most _PRODUCT_ROWS
    rows (one lookup up to q**n = _PRODUCT_ROWS); a variable with q above
    that folds its exponent sum through _fold(q) instead.
    """
    f._check(g)
    q, n = f.q, f.n
    fi = f.coeffs.nonzero()[0]
    gi = g.coeffs.nonzero()[0]
    if len(fi) == 0 or len(gi) == 0:
        return Polynomial._wrap(q, n, np.zeros(q**n, dtype=np.int64))
    group = 0  # variables per table lookup; 0 when q alone exceeds the cap
    while q ** (group + 1) <= _PRODUCT_ROWS:
        group += 1
    idx = np.zeros((1, 1), dtype=np.int32)  # n = 0: the constant monomial
    for start in range(0, n, max(group, 1)):
        width = min(group, n - start) if group else 1
        place = q ** (n - start - width)
        fd, gd = (fi // place, gi // place) if place > 1 else (fi, gi)
        if start:
            fd, gd = fd % q**width, gd % q**width
        if group:
            part = _product_index(q, width)[fd[:, None], gd[None, :]]
        else:
            part = _fold(q)[fd[:, None] + gd[None, :]]
        if place > 1:
            part = part * place
        idx = idx + part if start else part
    # terms are reduced below q first; a bin then takes at most 2^n terms
    # per nonzero of f, so its sum stays below 2^50 for q**n <= DENSE_CAP
    # and bincount's float64 accumulation is exact
    vals = f.coeffs[fi][:, None] * g.coeffs[gi][None, :] % q
    coeffs = np.bincount(idx.ravel(), weights=vals.ravel(), minlength=q**n)
    return Polynomial._wrap(q, n, coeffs.astype(np.int64) % q)


def restrict(f: Polynomial, ell: Sequence[int], alpha: int) -> Polynomial:
    """Restriction of f to the hyperplane {ell(x) = alpha} in n-1 variables.

    The coordinate change completes ell to a basis by pivoting on its first
    nonzero coordinate, so the result is deterministic.  The returned
    polynomial agrees with f on the hyperplane under that coordinate map.
    """
    q, n = f.q, f.n
    ell = [int(c) % q for c in ell]
    if len(ell) != n:
        raise ValueError(f"form must have {n} coefficients")
    if not any(ell):
        raise DegenerateFormError("restriction along the zero form")
    pivot = next(j for j, c in enumerate(ell) if c)
    rows = [[1 if i == j else 0 for i in range(n)] for j in range(n) if j != pivot]
    rows.append(ell)
    a_inv = inverse_mod_matrix(rows, q)
    # x = A^{-1}(y, alpha): the first n-1 columns are the directions
    return restrict_to_affine(f, a_inv[:, :-1].T, alpha * a_inv[:, -1])


def restrict_to_affine(
    f: Polynomial, directions: Sequence[Sequence[int]], offset: Sequence[int]
) -> Polynomial:
    """Restriction of f to {offset + sum t_i v_i} as a polynomial in the t_i."""
    q, n = f.q, f.n
    dirs = np.asarray(directions, dtype=np.int64) % q
    off = np.asarray(offset, dtype=np.int64) % q
    m = dirs.shape[0]
    if dirs.shape != (m, n) or off.shape != (n,):
        raise ValueError("directions must be m x n and offset length n")
    table = f.evaluate_all().values
    grid = next(coefficient_blocks(q, m, block_size=q**m))
    xs = (off[None, :] + grid @ dirs) % q
    vals = table[xs @ _powers(q, n)]
    return interpolate(EvalTable(q, m, vals))


def random_polynomial(
    q: int, n: int, e: int, rng: np.random.Generator
) -> Polynomial:
    """Uniform polynomial of degree <= e: iid uniform coefficients on
    every monomial of degree <= e, zero elsewhere."""
    if not 0 <= e <= n * (q - 1):
        raise ValueError(f"degree bound {e} outside [0, {n * (q - 1)}]")
    ensure_prime(q)
    idx = monomial_indices_up_to_degree(q, n, e)
    coeffs = np.zeros(q**n, dtype=np.int64)
    coeffs[idx] = rng.integers(0, q, size=len(idx))
    return Polynomial._wrap(q, n, coeffs)


# ---------------------------------------------------------------------------
# Text formats
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"^X(\d+)(?:\^(\d+))?$")


def poly_to_text(f: Polynomial) -> str:
    """`q=<q> n=<n>: <c>*X<i>^<e>*... + ...` with terms in decreasing graded lex."""
    head = f"q={f.q} n={f.n}:"
    if f.is_zero():
        return f"{head} 0"
    parts = []
    for mon, c in f.terms():
        factors = [str(c)] + [
            f"X{j+1}" + (f"^{e}" if e > 1 else "")
            for j, e in enumerate(mon.exponents)
            if e
        ]
        parts.append("*".join(factors))
    return f"{head} " + " + ".join(parts)


def poly_from_text(text: str) -> Polynomial:
    """Parse the polynomial text format; terms may appear in any order."""
    m = re.match(r"\s*q\s*=\s*(\d+)\s+n\s*=\s*(\d+)\s*:\s*(.*)$", text.strip())
    if not m:
        raise ValueError(f"malformed polynomial header in {text!r}")
    q, n, body = int(m.group(1)), int(m.group(2)), m.group(3)
    terms: dict[tuple[int, ...], int] = {}
    if body.strip():
        for chunk in body.split("+"):
            chunk = chunk.strip()
            if not chunk:
                continue
            coeff = 1
            exps = [0] * n
            for token in (t.strip() for t in chunk.split("*")):
                tm = _TERM_RE.match(token)
                if tm:
                    j = int(tm.group(1))
                    if not 1 <= j <= n:
                        raise ValueError(f"variable X{j} out of range in {chunk!r}")
                    exps[j - 1] += int(tm.group(2) or 1)
                else:
                    coeff = coeff * int(token)
            if any(e >= q for e in exps):
                raise ValueError(f"exponent at or above q in term {chunk!r}")
            key = tuple(exps)
            terms[key] = (terms.get(key, 0) + coeff) % q
    return Polynomial.from_terms(q, n, terms)


def all_polynomials(q: int, n: int, d: int | None = None) -> Iterator[Polynomial]:
    """Every polynomial of degree <= d (the whole ring when d is None)."""
    max_d = n * (q - 1) if d is None else d
    idx = monomial_indices_up_to_degree(q, n, max_d)
    for block in coefficient_blocks(q, len(idx)):
        for row in block:
            coeffs = np.zeros(q**n, dtype=np.int64)
            coeffs[idx] = row
            yield Polynomial(q, n, coeffs)
