"""Dihedral reflection subgroups: projections, the integer circle model,
the explicit dihedral cycles Cyc1/Cyc2, special-vertex reduction, and the
Tits-cone parametrization of the hyperbolic case.

The Coxeter complex of a finite dihedral group of order 2n is modelled on
the circle R mod 2n in I-coordinates: panels at the integers, walls as
antipodal pairs {w, w+n}, fundamental chamber (0,1) with center O = 1/2.
The generator A acts by I -> 2-I (wall {1, 1+n}) and B by I -> -I (wall
{0, n}).  All circle arithmetic uses doubled integers so that chamber
centers stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import coxeter, roots
from .coxeter import CoxeterSystem, Element
from .expressions import Expression, Subexpression, is_special_pair

A, B = 0, 1


class WordRequired(ValueError):
    pass


class ProjectionError(RuntimeError):
    """The projected gallery failed to read off as an A/B-subexpression."""


class MovePreconditionViolated(ValueError):
    pass


class ParamOutOfRange(ValueError):
    pass


class NotSpecial(ValueError):
    pass


class InfiniteOrder(RuntimeError):
    pass


class NotHyperbolic(ValueError):
    pass


class OutsideCone(ValueError):
    pass


@dataclass
class DihedralContext:
    """The reflection subgroup generated by two root reflections."""

    system: CoxeterSystem
    pair: roots.ProperPair
    order_n: object                  # int or math.inf
    xi: float
    gen_a: Element                   # t_alpha
    gen_b: Element                   # t_beta
    closure_rids: frozenset          # |root ids| of Rcl(alpha, beta)
    closure_finite: bool


def make_dihedral(system: CoxeterSystem, lam, mu) -> DihedralContext:
    pair = roots.properly_situated_pair(system, lam, mu)
    order_n = pair.order
    ga = Element(system, system.reflection_matrix(pair.alpha))
    gb = Element(system, system.reflection_matrix(pair.beta))
    closure = roots.reflection_closure(system, pair.alpha, pair.beta)
    rids = frozenset(abs(system.root_id(r)) for r in closure.roots)
    return DihedralContext(system, pair, order_n, pair.xi, ga, gb,
                           rids, closure.finite)


def in_dihedral(ctx: DihedralContext, root_vec) -> bool:
    """Is the reflection in this root a member of the subgroup?"""
    return abs(ctx.system.root_id(root_vec)) in ctx.closure_rids


def project_element(w: Element, ctx: DihedralContext) -> Element:
    """pr_D(w), computed along the defining word of w.

    Extends by a letter s only when (prefix) s (prefix)^-1 lies in the
    subgroup, in which case that reflection is multiplied on the left.
    """
    if w.word is None:
        raise WordRequired("projection needs an element with a defining word")
    sys_ = ctx.system
    prefix = np.eye(sys_.rank)
    pr = np.eye(sys_.rank)
    for g in w.word:
        root = prefix[:, g].copy()          # prefix(e_g)
        if in_dihedral(ctx, root):
            pr = sys_.reflection_matrix(root) @ pr
        prefix = prefix @ sys_.gen_matrices[g]
    return Element(sys_, pr)


@dataclass
class Morphism:
    """A positive-cosign index embedding between subexpression classes.

    Defined by the pair (pi, gamma): position z of the source expression
    maps to p[z] in the target expression, and images of fold orbits are
    obtained by transporting bit flips through p.
    """

    p: Tuple[int, ...]
    letters: Tuple[int, ...]         # source expression letters (0=A, 1=B)
    pi_mask: int
    gamma_mask: int

    def apply_mask(self, v_mask: int) -> int:
        """Image mask of a source subexpression given by its bit mask."""
        out = self.gamma_mask
        diff = v_mask ^ self.pi_mask
        z = 0
        while diff:
            if diff & 1:
                out ^= 1 << self.p[z]
            diff >>= 1
            z += 1
        return out

    def apply_fold(self, i: int, j: int) -> Tuple[int, int]:
        return (self.p[i], self.p[j])


def project_subexpression(gamma: Subexpression, ctx: DihedralContext):
    """Project a subexpression to the dihedral subgroup.

    Returns (pi, p, morphism): p enumerates the positions whose
    prefix-root reflection lies in the subgroup, and pi is the projected
    subexpression over the induced A/B-word (an expression in the rank-2
    system of order ord(AB)).  The construction realizes the
    positive-cosign property pi^{->z} = gamma^{->p(z)} exactly.
    """
    sys_ = ctx.system
    alpha, beta = ctx.pair.alpha, ctx.pair.beta
    aid = sys_.root_id(alpha)
    bid = sys_.root_id(beta)
    p = [r for r, rid in enumerate(gamma.roots) if abs(rid) in ctx.closure_rids]
    cur = np.eye(sys_.rank)
    cur_inv = np.eye(sys_.rank)
    letters: List[int] = []
    pi_bits: List[int] = []
    for r in p:
        root = sys_.root_vec(gamma.roots[r])
        u = -(cur_inv @ root)
        uid = sys_.root_id(u)
        if uid == aid:
            letters.append(A)
        elif uid == bid:
            letters.append(B)
        else:
            raise ProjectionError(
                f"projected wall at position {r} is not simple in the subgroup")
        bit = gamma.bits[r]
        pi_bits.append(bit)
        if bit:
            refl = sys_.reflection_matrix(root)
            cur = refl @ cur
            cur_inv = cur_inv @ refl
    pi_mask = sum(b << z for z, b in enumerate(pi_bits))
    morph = Morphism(tuple(p), tuple(letters), pi_mask, gamma.mask)
    pi = Subexpression(_ab_expression(ctx.order_n, tuple(letters)), pi_bits)
    return pi, tuple(p), morph


def _ab_expression(n, letters) -> Expression:
    return Expression(i2_system(n), letters)


# -- signature moves ---------------------------------------------------------

def signature_move(eps: Sequence[int], k: int, l: int) -> Tuple[int, ...]:
    """Complement bits k and l (1-based); requires k+l even and zeros between."""
    bits = list(int(b) for b in eps)
    if not (1 <= k < l <= len(bits)):
        raise MovePreconditionViolated("indices out of range")
    if (k + l) % 2 != 0:
        raise MovePreconditionViolated("k + l must be even")
    if any(bits[t] for t in range(k, l - 1)):
        raise MovePreconditionViolated("bits strictly between k and l must be 0")
    bits[k - 1] ^= 1
    bits[l - 1] ^= 1
    return tuple(bits)


# -- the explicit dihedral cycles -------------------------------------------

def _zeros_to_mask(width: int, zeros) -> int:
    """Mask of the subexpression with ones everywhere except zeros (1-based)."""
    m = (1 << width) - 1
    for z in zeros:
        if not 1 <= z <= width:
            raise AssertionError(f"zero position {z} out of range 1..{width}")
        m &= ~(1 << (z - 1))
    return m


def _check_chain(masks: List[int], what: str):
    seen = set()
    for m in masks:
        if m in seen:
            raise AssertionError(f"{what}: repeated vertex")
        seen.add(m)
    for a, b in zip(masks, masks[1:] + masks[:1]):
        if bin(a ^ b).count("1") != 2:
            raise AssertionError(f"{what}: consecutive vertices not at distance 2")


def cyc1_masks(n: int, x: int, y: int) -> List[int]:
    """Vertex masks (cycle order) of the first-type dihedral cycle.

    Width y, top vertex all-ones; length n + 2.
    """
    if not (1 <= x <= n - 1 and x + n + 1 <= y <= 2 * n):
        raise ParamOutOfRange(f"cyc1 parameters n={n}, x={x}, y={y}")
    masks = [_zeros_to_mask(y, [])]
    masks.append(_zeros_to_mask(y, [x + 1, x + n + 1]))            # sigma
    for i in range(x, 0, -1):
        masks.append(_zeros_to_mask(y, [x, 2 * x + 1 - i, 2 * x + 2 - i,
                                        x + n + 1]))
    for i in range(-1, x - n, -1):
        masks.append(_zeros_to_mask(y, [x, 2 * x - i, 2 * x + 1 - i,
                                        x + n + 1]))
    masks.append(_zeros_to_mask(y, [x, x + n]))                    # sigma~
    _check_chain(masks, f"cyc1(n={n},x={x},y={y})")
    if len(masks) != n + 2:
        raise AssertionError("cyc1 length mismatch")
    return masks


def cyc2_masks(n: int, x: int, y: int) -> List[int]:
    """Vertex masks (cycle order) of the second-type dihedral cycle.

    Width L = 2x + 2n - y, top vertex with a single zero at x + n;
    length n + 2.  The three case families are keyed on m2 = 2y - x - n.
    """
    if not (1 <= x < y <= n):
        raise ParamOutOfRange(f"cyc2 parameters n={n}, x={x}, y={y}")
    L = 2 * x + 2 * n - y
    m2 = 2 * y - x - n

    def left_zeros(i):
        if m2 >= x:                                    # case 1
            if m2 < i < y:
                return [*range(i, 2 * y - i + 1), x + n, L]
            if x <= i <= m2:
                return [*range(i, 2 * x - 2 * y + 2 * n - 1 + i + 1), L]
            return [x, *range(2 * x + 1 - i, 2 * x - 2 * y + 2 * n - 1 + i + 1), L]
        if m2 > 0:                                     # case 2
            if x <= i < y:
                return [*range(i, 2 * y - i + 1), x + n, L]
            if m2 < i < x:
                return [x, *range(2 * x + 1 - i, 2 * y - i + 1), x + n, L]
            return [x, *range(2 * x + 1 - i, 2 * x - 2 * y + 2 * n - 1 + i + 1), L]
        # case 3
        if x <= i < y:
            return [*range(i, 2 * y - i + 1), x + n, L]
        return [x, *range(2 * x + 1 - i, 2 * y - i + 1), x + n, L]

    def right_zeros(i):
        if m2 > 0 or i <= m2:
            return [x, *range(2 * x - i, 2 * x - 2 * y + 2 * n + i + 1), L]
        return [x, *range(2 * x - i, 2 * y - 1 - i + 1), x + n, L]

    masks = [_zeros_to_mask(L, [x + n])]                           # delta
    masks.append(_zeros_to_mask(L, [y, x + n, L]))                 # sigma
    for i in range(y - 1, 0, -1):
        masks.append(_zeros_to_mask(L, left_zeros(i)))
    for i in range(-1, y - n, -1):
        masks.append(_zeros_to_mask(L, right_zeros(i)))
    if y < n:
        masks.append(_zeros_to_mask(L, [x, L - n, L]))             # sigma^
    else:
        # y == n: the right chain is just sigma^ = sigma^{(0)}; nothing extra
        if masks[-1] != _zeros_to_mask(L, [x, L - n, L]):
            raise AssertionError("cyc2 boundary: sigma^ mismatch")
    masks.append(_zeros_to_mask(L, [x]))                           # sigma~
    _check_chain(masks, f"cyc2(n={n},x={x},y={y})")
    if len(masks) != n + 2:
        raise AssertionError("cyc2 length mismatch")
    return masks


@lru_cache(maxsize=None)
def i2_system(n: int) -> CoxeterSystem:
    """The rank-2 system with m(A,B) = n (intern tables shared per n)."""
    return CoxeterSystem([[1, n], [n, 1]])


def _alternating_expression(n: int, c: int, width: int) -> Expression:
    letters = tuple((c + z) % 2 for z in range(width))
    return Expression(i2_system(n), letters)


def _subexpressions_from_masks(expr: Expression, masks: List[int]):
    out = []
    for m in masks:
        bits = [(m >> i) & 1 for i in range(len(expr))]
        out.append(Subexpression(expr, bits))
    t0 = out[0].target_id()
    for s in out[1:]:
        if s.target_id() != t0:
            raise AssertionError("cycle vertices have differing targets")
    return out


def generate_cyc1(ctx_or_n, c: int, x: int, y: int):
    """The first-type cycle as subexpressions over the alternating word."""
    n = ctx_or_n.order_n if isinstance(ctx_or_n, DihedralContext) else ctx_or_n
    if n == math.inf:
        raise ParamOutOfRange("dihedral cycles need a finite order")
    masks = cyc1_masks(n, x, y)
    return _subexpressions_from_masks(_alternating_expression(n, c, y), masks)


def generate_cyc2(ctx_or_n, c: int, x: int, y: int):
    """The second-type cycle as subexpressions over the alternating word."""
    n = ctx_or_n.order_n if isinstance(ctx_or_n, DihedralContext) else ctx_or_n
    if n == math.inf:
        raise ParamOutOfRange("dihedral cycles need a finite order")
    masks = cyc2_masks(n, x, y)
    expr = _alternating_expression(n, c, 2 * x + 2 * n - y)
    return _subexpressions_from_masks(expr, masks)


# -- circle walks and special-vertex reduction -------------------------------

def _circle_walk(letters, bits, n: int) -> List[int]:
    """I-coordinates (mod 2n) of the wall point met at each position."""
    a, b = 0, 1                       # current element acts by I -> a + b I
    out = []
    for g, bit in zip(letters, bits):
        base = 1 if g == A else 0
        out.append((a + b * base) % (2 * n))
        if bit:
            ga, gb = (2, -1) if g == A else (0, -1)
            a, b = (a + b * ga) % (2 * n), b * gb
    return out


def _side2(point2: int, wall: int, n: int) -> int:
    """Side of a doubled-coordinate point w.r.t. the wall {wall, wall+n}."""
    t = (point2 - 2 * wall) % (4 * n)
    if t == 0 or t == 2 * n:
        raise AssertionError("point lies on the wall")
    return 0 if t < 2 * n else 1


def _minor_arc2(p2: int, q2: int, n: int) -> Tuple[int, int]:
    """(doubled length, direction) of the minor arc from p2 to q2."""
    fwd = (q2 - p2) % (4 * n)
    bwd = (p2 - q2) % (4 * n)
    if fwd == bwd:
        raise AssertionError("antipodal points have no minor arc")
    return (fwd, 1) if fwd < bwd else (bwd, -1)


@dataclass
class CircleConfig:
    """Geometry of a special-vertex reduction on the circle."""

    n: int
    u: int
    c: int                           # first letter of the alternating word
    breakpoints: Tuple[int, int, int, int]     # x1..x4 (integers)
    points: Dict[str, float]
    p_map: Tuple[int, ...]           # 0-based q-map into the source word


def reduce_special_vertex(gamma: Subexpression, mu_pair: Tuple[int, int],
                          lam_pair: Tuple[int, int]):
    """Resolve two crossing special pairs of a dihedral subexpression.

    gamma lives over a word in the two generators of a finite dihedral
    system; (i,k) and (j,l) are special pairs with i < j < k < l.  Returns
    (cycles, residual_edges, config) where cycles is a list of
    (kind, x, y, vertex masks) whose GF(2) sum meets gamma only in the two
    residual edges {gamma, f_{i,k}gamma} and {gamma, f_{j,l}gamma}.
    """
    expr = gamma.expr
    sys_ = expr.system
    if sys_.rank != 2:
        raise ValueError("special-vertex reduction runs inside a dihedral system")
    n = sys_.cox_matrix[0][1]
    if n == math.inf:
        raise InfiniteOrder("crossing special pairs cannot occur at infinite order")
    i, k = mu_pair
    j, l = lam_pair
    if not (i < j < k < l):
        raise NotSpecial("pairs must cross: i < j < k < l")
    if not (is_special_pair(gamma, i, k) and is_special_pair(gamma, j, l)):
        raise NotSpecial("both index pairs must be special")

    f = _circle_walk(expr.letters, gamma.bits, n)
    two_n = 2 * n
    m_pts = (f[i], (f[i] + n) % two_n)
    l_pts = (f[j], (f[j] + n) % two_n)
    if f[k] not in m_pts or f[k] == f[i]:
        raise AssertionError("walk does not return to the opposite wall point")
    if f[l] not in l_pts:
        raise AssertionError("walk misses the second wall")
    O2 = 1
    lam_wall, mu_wall = f[j] % n, f[i] % n
    # M1: the mu-wall point on the fundamental side of the lambda-wall
    m1 = next(p for p in m_pts if _side2(2 * p, lam_wall, n) == _side2(O2, lam_wall, n))
    m2_pt = m_pts[0] if m1 == m_pts[1] else m_pts[1]
    l1 = next(p for p in l_pts if _side2(2 * p, mu_wall, n) == _side2(O2, mu_wall, n))
    l2 = l_pts[0] if l1 == l_pts[1] else l_pts[1]
    if f[i] != m1 or f[j] != l2 or f[k] != m2_pt:
        raise AssertionError("wall points visited out of the expected order")
    u = 1 if f[l] == l1 else 2
    lu = l1 if u == 1 else l2
    # O': center of the chamber at lu on the fundamental side of the lambda-wall
    o_prime2 = None
    for cand in (2 * lu - 1, 2 * lu + 1):
        if _side2(cand % (4 * n), lam_wall, n) == _side2(O2, lam_wall, n):
            o_prime2 = cand % (4 * n)
    if o_prime2 is None:
        raise AssertionError("no chamber center found at the final wall point")

    y_pts2 = [O2, 2 * m1, 2 * l2, 2 * m2_pt, 2 * lu, o_prime2]
    x2 = [O2]
    dirs = []
    for a, b in zip(y_pts2, y_pts2[1:]):
        d, direction = _minor_arc2(a % (4 * n), b % (4 * n), n)
        x2.append(x2[-1] + d)
        dirs.append(direction)
    if any(v % 2 for v in x2[1:5]):
        raise AssertionError("breakpoints are not integers")
    x1, xx2, x3, x4 = (v // 2 for v in x2[1:5])
    if x3 != x1 + n:
        raise AssertionError("x3 != x1 + n")
    if u == 1 and x4 != xx2 + n:
        raise AssertionError("x4 != x2 + n")
    if u == 2 and x4 != 2 * x1 + 2 * n - xx2:
        raise AssertionError("x4 != 2 x1 + 2n - x2")

    # q-map: earliest wall visit per segment, with breakpoints pinned
    y_times = [-1, i, j, k, l]
    p_map: List[int] = []
    for z in range(1, x4 + 1):
        m_seg = next(m for m in range(1, 5) if x2[m - 1] < 2 * z <= x2[m])
        if 2 * z == x2[m_seg]:
            p_map.append(y_times[m_seg])
            continue
        pos2 = (y_pts2[m_seg - 1] + dirs[m_seg - 1] * (2 * z - x2[m_seg - 1])) % (4 * n)
        if pos2 % 2:
            raise AssertionError("integer parameter off a panel")
        point = (pos2 // 2) % two_n
        r = next((r for r in range(y_times[m_seg - 1] + 1, y_times[m_seg] + 1)
                  if f[r] == point), None)
        if r is None:
            raise AssertionError("no wall visit matches the path point")
        p_map.append(r)
    if any(a >= b for a, b in zip(p_map, p_map[1:])):
        raise AssertionError("q-map is not strictly increasing")
    if (p_map[x1 - 1], p_map[xx2 - 1], p_map[x3 - 1], p_map[x4 - 1]) != (i, j, k, l):
        raise AssertionError("q-map misses the special indices")

    # first letter of the alternating word
    first2 = (y_pts2[0] + dirs[0]) % (4 * n)
    c = A if (first2 // 2) % two_n in (1, (1 + n) % two_n) else B

    alt = _alternating_expression(n, c, x4)
    if u == 1:
        top_bits = [1] * x4
    else:
        top_bits = [1] * x4
        top_bits[x1 + n - 1] = 0
    top = Subexpression(alt, top_bits)
    for z in range(x4):
        if top.roots[z] != gamma.roots[p_map[z]]:
            raise AssertionError("positive-cosign root relation fails")

    top_mask = top.mask
    cycles = []
    if u == 1:
        if not (1 <= x1 < xx2 <= n):
            raise AssertionError("cyc1 parameter window is empty")
        for x in range(x1, xx2):
            cycles.append(("Cyc1", x, x4, cyc1_masks(n, x, x4)))
    else:
        cycles.append(("Cyc2", x1, xx2, cyc2_masks(n, x1, xx2)))

    morph = Morphism(tuple(p_map), alt.letters, top_mask, gamma.mask)
    out = []
    for kind, x, y, masks in cycles:
        out.append((kind, x, y, [morph.apply_mask(m) for m in masks]))

    _check_reduction(gamma, (i, k), (j, l), out)
    config = CircleConfig(n, u, c, (x1, xx2, x3, x4),
                          {"O": 0.5, "M1": m1, "L2": l2, "M2": m2_pt,
                           "Lu": lu, "O'": o_prime2 / 2.0},
                          tuple(p_map))
    return out, ((i, k), (j, l)), config


def _check_reduction(gamma, pair1, pair2, cycles):
    """The GF(2) sum must meet gamma exactly in its two special-pair edges."""
    at_gamma = set()
    gm = gamma.mask
    for _, _, _, masks in cycles:
        for a, b in zip(masks, masks[1:] + masks[:1]):
            if gm in (a, b):
                e = frozenset((a, b))
                at_gamma.symmetric_difference_update({e})
    want = {frozenset((gm, gm ^ (1 << pair1[0]) ^ (1 << pair1[1]))),
            frozenset((gm, gm ^ (1 << pair2[0]) ^ (1 << pair2[1])))}
    if at_gamma != want:
        raise AssertionError("reduction does not isolate the special edges")


# -- Tits cone of the hyperbolic dihedral case -------------------------------

def _xi_of(ctx_or_xi) -> float:
    return ctx_or_xi.xi if isinstance(ctx_or_xi, DihedralContext) else float(ctx_or_xi)


def tits_omega(ctx_or_xi, t: float) -> np.ndarray:
    """The curve omega(t) in dual coordinates (alpha*, beta*), xi > 1."""
    xi = _xi_of(ctx_or_xi)
    if xi <= 1.0 + 1e-12:
        raise NotHyperbolic("omega needs a hyperbolic pair (xi > 1)")
    s = math.sqrt(xi * xi - 1.0)
    xp, xm = xi + s, xi - s
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    cp = (xi * xp - 1.0) * (xp * a - b) / (2.0 * (xi * xi - 1.0))
    cm = (xi * xm - 1.0) * (xm * a - b) / (2.0 * (xi * xi - 1.0))
    return cp / xp ** (t + 1.0) + cm / xm ** (t + 1.0)


def dual_action(ctx_or_xi, gen: int, pt) -> np.ndarray:
    """Contragredient action of t_alpha (gen=A) or t_beta (gen=B) on E*."""
    xi = _xi_of(ctx_or_xi)
    x, y = float(pt[0]), float(pt[1])
    if gen == A:
        return np.array([-x, 2.0 * xi * x + y])
    return np.array([x + 2.0 * xi * y, -y])


def tits_Omega(ctx_or_xi, pt) -> np.ndarray:
    """The map Omega from the degenerate cone onto the hyperbolic one.

    Omega(x (e_A^inf)* + y (e_B^inf)*) = (x+y) omega(y/(x+y)); Omega(0)=0.
    """
    xi = _xi_of(ctx_or_xi)
    x, y = float(pt[0]), float(pt[1])
    if x == 0.0 and y == 0.0:
        return np.zeros(2)
    if x + y <= 0.0:
        raise OutsideCone("point outside the open half-plane x+y>0")
    return (x + y) * tits_omega(xi, y / (x + y))


def omega_jacobian(ctx_or_xi) -> float:
    """The constant Jacobian determinant of Omega: ln(xi_+)/sqrt(xi^2-1)."""
    xi = _xi_of(ctx_or_xi)
    s = math.sqrt(xi * xi - 1.0)
    return math.log(xi + s) / s
