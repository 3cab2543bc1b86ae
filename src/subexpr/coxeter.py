"""Coxeter systems, the geometric representation, and root arithmetic.

A Coxeter system is given by its Coxeter matrix (entries ``math.inf`` for
infinite orders).  Generators act on E = R^rank in the simple-root basis,
preserving the Gram form B_ij = -cos(pi / m_ij).  The representation is
faithful, so group elements are compared through their matrices.

Elements and roots produced while enumerating subexpressions are interned
per system (matrices/vectors keyed by their values rounded to 6 decimals),
which turns most of the downstream combinatorics into integer bookkeeping:
an element is an id into ``CoxeterSystem._elems`` and a root is a signed id
``+-(index+1)`` into the table of positive representatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

# Tolerance of the numeric equality and sign tests.  Interning does not use
# it: element and root keys are values rounded to _KEY_DECIMALS places.
EPS = 1e-9

_KEY_DECIMALS = 6


class MalformedMatrix(ValueError):
    """Raised for non-symmetric or otherwise invalid Coxeter matrices."""


class NotUnit(ValueError):
    """Raised when a reflection axis is not a unit root."""


class MixedSigns(ValueError):
    """Raised when a vector has both strictly positive and negative coefficients."""


def _key(a: np.ndarray) -> bytes:
    """Stable hash key for a float array (rounded, -0.0 normalized)."""
    return (np.round(np.asarray(a, dtype=float), _KEY_DECIMALS) + 0.0).tobytes()


class CoxeterSystem:
    """A Coxeter system with its geometric representation and intern tables."""

    def __init__(self, cox_matrix):
        m = [[math.inf if x in (math.inf, None, "inf") else int(x) for x in row]
             for row in cox_matrix]
        n = len(m)
        if any(len(row) != n for row in m):
            raise MalformedMatrix("Coxeter matrix must be square")
        for i in range(n):
            if m[i][i] != 1:
                raise MalformedMatrix("diagonal entries must equal 1")
            for j in range(n):
                if m[i][j] != m[j][i]:
                    raise MalformedMatrix("Coxeter matrix must be symmetric")
                if i != j and m[i][j] != math.inf and m[i][j] < 2:
                    raise MalformedMatrix("off-diagonal entries must be >= 2 or inf")

        self.rank = n
        self.cox_matrix = m
        gram = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                gram[i, j] = -1.0 if m[i][j] == math.inf else -math.cos(math.pi / m[i][j])
        self.gram = gram
        self.gen_matrices = [self.reflection_matrix(np.eye(n)[i]) for i in range(n)]

        # intern tables
        self._elems = [np.eye(n)]
        self._elem_ids = {_key(np.eye(n)): 0}
        self._mult_gen = {}            # (eid, gen) -> eid
        self._roots = []               # positive representatives
        self._root_ids = {}            # key -> index
        self._arrow = {}               # (eid, gen) -> signed root id of  w(-e_gen)
        # (|lam id|, |mu id|) -> dihedral.DihedralContext, filled on demand
        # by cyclespace when it resolves crossing special pairs
        self.dihedral_contexts = {}

    # -- basic linear algebra -------------------------------------------------

    def inner(self, u, v) -> float:
        return float(np.asarray(u) @ self.gram @ np.asarray(v))

    def reflection_matrix(self, root) -> np.ndarray:
        """Matrix of r_v : x -> x - 2(x|v)v in the simple-root basis."""
        v = np.asarray(root, dtype=float)
        return np.eye(self.rank) - 2.0 * np.outer(v, self.gram @ v)

    # -- element interning ----------------------------------------------------

    def element_id(self, matrix: np.ndarray) -> int:
        k = _key(matrix)
        eid = self._elem_ids.get(k)
        if eid is None:
            eid = len(self._elems)
            self._elems.append(np.asarray(matrix, dtype=float))
            self._elem_ids[k] = eid
        return eid

    def elem_matrix(self, eid: int) -> np.ndarray:
        return self._elems[eid]

    def multiply_gen(self, eid: int, gen: int) -> int:
        """Id of (element eid) * s_gen."""
        r = self._mult_gen.get((eid, gen))
        if r is None:
            r = self.element_id(self._elems[eid] @ self.gen_matrices[gen])
            self._mult_gen[(eid, gen)] = r
        return r

    def element_from_word(self, word: Sequence[int]) -> "Element":
        eid = 0
        for g in word:
            eid = self.multiply_gen(eid, g)
        return Element(self, self.elem_matrix(eid), tuple(word))

    def identity(self) -> "Element":
        return Element(self, np.eye(self.rank), ())

    # -- root interning -------------------------------------------------------

    def root_id(self, vec: np.ndarray) -> int:
        """Signed id of a root: sign * (index of positive representative + 1)."""
        sign = root_sign_vec(vec)
        pos = vec if sign > 0 else -vec
        k = _key(pos)
        idx = self._root_ids.get(k)
        if idx is None:
            idx = len(self._roots)
            self._roots.append(np.asarray(pos, dtype=float))
            self._root_ids[k] = idx
        return sign * (idx + 1)

    def root_vec(self, rid: int) -> np.ndarray:
        """Vector of a signed root id."""
        v = self._roots[abs(rid) - 1]
        return v if rid > 0 else -v

    def arrow_root(self, eid: int, gen: int) -> int:
        """Signed root id of w(-e_gen) for the element with id eid."""
        r = self._arrow.get((eid, gen))
        if r is None:
            r = self.root_id(-self._elems[eid][:, gen])
            self._arrow[(eid, gen)] = r
        return r

    def __repr__(self):
        return f"CoxeterSystem(rank={self.rank})"


@dataclass
class Element:
    """A group element: its matrix under the geometric representation.

    The defining word (generator indices) is kept when known; it is never
    used for equality, only for error messages and the projection formula.
    """

    system: CoxeterSystem
    matrix: np.ndarray
    word: Optional[Tuple[int, ...]] = None

    def __mul__(self, other: "Element") -> "Element":
        word = None
        if self.word is not None and other.word is not None:
            word = self.word + other.word
        return Element(self.system, self.matrix @ other.matrix, word)

    def inverse(self) -> "Element":
        word = tuple(reversed(self.word)) if self.word is not None else None
        return Element(self.system, np.linalg.inv(self.matrix), word)


# -- spec operations ---------------------------------------------------------

def new_system(cox_matrix) -> CoxeterSystem:
    """Build a Coxeter system from its Coxeter matrix."""
    return CoxeterSystem(cox_matrix)


def act(w: Element, v) -> np.ndarray:
    """Image of the vector v under the element w."""
    return w.matrix @ np.asarray(v, dtype=float)


def reflect(system: CoxeterSystem, v, u) -> np.ndarray:
    """Reflect v in the unit root u:  v - 2(v|u)u."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if abs(system.inner(u, u) - 1.0) > EPS:
        raise NotUnit("reflection axis must have unit norm")
    return v - 2.0 * system.inner(v, u) * u


def root_sign_vec(vec) -> int:
    """+1 for a positive root, -1 for a negative one (uniform coefficient signs)."""
    v = np.asarray(vec, dtype=float)
    has_pos = bool(np.any(v > EPS))
    has_neg = bool(np.any(v < -EPS))
    if has_pos and has_neg:
        raise MixedSigns(f"vector has mixed coefficient signs: {v}")
    if not has_pos and not has_neg:
        raise MixedSigns(f"zero vector is not a root: {v}")
    return 1 if has_pos else -1


def elements_equal(x: Element, y: Element) -> bool:
    """Group equality via matrix comparison (the representation is faithful)."""
    return bool(np.max(np.abs(x.matrix - y.matrix)) < EPS)


def matrices_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.max(np.abs(a - b)) < EPS)


def reflection_order(x: Element, y: Element, max_order: int = 64):
    """Least k <= max_order with (xy)^k = 1, else math.inf."""
    m = x.matrix @ y.matrix
    p = np.eye(m.shape[0])
    for k in range(1, max_order + 1):
        p = p @ m
        if matrices_equal(p, np.eye(m.shape[0])):
            return k
    return math.inf


# -- named systems ------------------------------------------------------------

# smallest rank of each family; below it the formulas give another type
_MIN_RANK = {"A": 1, "B": 2, "D": 3}


def coxeter_matrix_for(type_name: str, rank: Optional[int] = None):
    """Coxeter matrix of a named (possibly affine) system.

    Supported: A1, An, B2, Bn, Dn, F4, G2 and the affine triangle "A2~";
    the rank of An, Bn and Dn (given as ``rank`` or in the name, as in
    "B3") must be at least 1, 2 and 3.
    """
    t = type_name
    if t == "A2~":
        return [[1, 3, 3], [3, 1, 3], [3, 3, 1]]
    if t == "A1":
        return [[1]]
    if t == "G2":
        return [[1, 6], [6, 1]]
    if t == "B2":
        return [[1, 4], [4, 1]]
    if t == "F4":
        return _chain([3, 4, 3])
    if t in ("An", "Bn", "Dn") and rank is None:
        raise ValueError(f"type {t} needs a rank")
    family = t[:1]
    if family not in _MIN_RANK:
        raise ValueError(f"unsupported type {type_name}")
    try:
        n = rank if t[1:] == "n" else int(t[1:])
    except ValueError:
        raise ValueError(f"unsupported type {type_name}") from None
    if not isinstance(n, int) or n < _MIN_RANK[family]:
        raise ValueError(f"type {family}n needs an integer rank >= "
                         f"{_MIN_RANK[family]}, got {n!r}")
    if family == "A":
        return _chain([3] * (n - 1))
    if family == "B":
        return _chain([4] + [3] * (n - 2))
    m = _chain([3] * (n - 2))              # Dn: chain on generators 0..n-2
    for row in m:
        row.append(2)
    m.append([2] * (n - 1) + [1])
    m[n - 3][n - 1] = m[n - 1][n - 3] = 3       # fork at the third-to-last node
    return m


def _chain(orders):
    n = len(orders) + 1
    m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, o in enumerate(orders):
        m[i][i + 1] = m[i + 1][i] = o
    return m


def named_system(type_name: str, rank: Optional[int] = None) -> CoxeterSystem:
    return CoxeterSystem(coxeter_matrix_for(type_name, rank))
