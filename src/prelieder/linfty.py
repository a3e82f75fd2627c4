"""The L-infinity algebra controlling deformations of a pair.

Underlying graded space: a shifted copy of the bidegree-(k|0) cochains
together with the bidegree-(k|-1) ones. A homogeneous element of degree
d is a pair

  (shifted, h_part)

where shifted is a full cochain of arity d+2 concentrated in bidegree
(d+1)|0 (the desuspension s^{-1}f of f) and h_part is a component map of
shape (d, 0, 'g') -> 'v' (arity d+1, bidegree (d+1)|-1).

On this subalgebra l1 vanishes, every l_k with k >= 3 vanishes, and l2
is built from the matching bracket:

  l2(s^{-1}f, s^{-1}g) = (-1)^(|f|) s^{-1} [f, g]
  l2(s^{-1}f, theta)   = P([f, theta])      (P = bidegree (.|-1) part)
  l2(theta,  eta)      = 0

so the Maurer-Cartan equation is the finite equation l2(a, a)/2 = 0.
Maurer-Cartan elements are exactly the valid pair structures, and
twisting by one reproduces the pair coboundary up to the sign
(-1)^(n-2).
"""

from __future__ import annotations

from fractions import Fraction

from .cochain import (
    Cochain,
    MixedMap,
    MixedShape,
    SplitDims,
    bidegree_of,
    lift,
    theta_component,
)
from .exact_linalg import Matrix
from .mn_bracket import mn_bracket
from .prelie import DerPair, PreLieAlgebra, Representation, d_component, structure_cochain


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


class LElement:
    """Homogeneous element (s^{-1}f, theta) of degree d >= -1.

    At d = -1 the h slot is the zero space and only the arity-1 shifted
    part remains.
    """

    def __init__(self, dims: SplitDims, degree: int, shifted: Cochain, h_part: MixedMap):
        if degree < -1:
            raise ValueError(f"L-infinity degree must be at least -1, got {degree}")
        self.dims = dims
        self.degree = degree
        self.shifted = shifted
        self.h_part = h_part
        if shifted.dims != dims or shifted.arity != degree + 2:
            raise ValueError(f"shifted part must have arity {degree + 2} over {dims}")
        # bidegree_of is None both for zero and for mixed cochains, so the
        # zero test keeps the former while rejecting the latter
        if bidegree_of(shifted) != (degree + 1, 0) and not shifted.is_zero():
            raise ValueError(f"shifted part not homogeneous of bidegree {degree + 1}|0")
        shape = MixedShape(degree, 0, "g")
        if h_part.dims != dims or h_part.shape != shape or h_part.target != "v":
            raise ValueError(f"h part must be a V-valued map of shape {shape} over {dims}")

    @staticmethod
    def zero(dims: SplitDims, degree: int) -> "LElement":
        return LElement(
            dims,
            degree,
            Cochain(dims, degree + 2),
            MixedMap(dims, MixedShape(degree, 0, "g"), "v"),
        )

    def is_zero(self) -> bool:
        return self.shifted.is_zero() and self.h_part.is_zero()

    def __eq__(self, other):
        return (
            isinstance(other, LElement)
            and (self.dims, self.degree) == (other.dims, other.degree)
            and self.shifted == other.shifted
            and self.h_part == other.h_part
        )

    def __add__(self, other: "LElement") -> "LElement":
        if self.degree != other.degree:
            raise ValueError(f"cannot add elements of degrees {self.degree} and {other.degree}")
        return LElement(
            self.dims,
            self.degree,
            self.shifted + other.shifted,
            self.h_part + other.h_part,
        )

    def __sub__(self, other: "LElement") -> "LElement":
        return self + other.scale(-1)

    def scale(self, c) -> "LElement":
        return LElement(self.dims, self.degree, self.shifted.scale(c), self.h_part.scale(c))


def l2(x: LElement, y: LElement) -> LElement:
    """Binary product; output degree |x| + |y| + 1."""
    if x.dims != y.dims:
        raise ValueError(f"l2 of elements over {x.dims} and {y.dims}")
    dims = x.dims
    dx, dy = x.degree, y.degree
    out_deg = dx + dy + 1
    # shifted-shifted: (-1)^{|f|} s^{-1}[f,g], |f| = dx + 1 unshifted
    shifted_out = mn_bracket(x.shifted, y.shifted).scale(_sign(dx + 1))
    # shifted-h both ways; h-h vanishes
    h_out = MixedMap(dims, MixedShape(out_deg, 0, "g"), "v")
    if not (x.shifted.is_zero() or y.h_part.is_zero()):
        h_out = h_out + theta_component(mn_bracket(x.shifted, lift(y.h_part)))
    if not (y.shifted.is_zero() or x.h_part.is_zero()):
        h_out = h_out + theta_component(
            mn_bracket(y.shifted, lift(x.h_part))
        ).scale(_sign(dx * dy))
    return LElement(dims, out_deg, shifted_out, h_out)


def higher_lk(args) -> LElement:
    """l_k for k >= 3: identically zero on this subalgebra."""
    args = list(args)
    if len(args) < 3:
        raise ValueError(f"higher_lk takes at least 3 arguments, got {len(args)}")
    dims = args[0].dims
    out_deg = sum(a.degree for a in args) + 1
    return LElement.zero(dims, out_deg)


def l1_on_subalgebra(x: LElement) -> LElement:
    """l1 restricted to the subalgebra: zero."""
    return LElement.zero(x.dims, x.degree + 1)


class MCCandidate:
    """A would-be pair structure: product table, action maps, derivation.

    Nothing is validated at construction; mc_check decides.
    """

    def __init__(self, algebra: PreLieAlgebra, rho, mu, D: Matrix):
        self.algebra = algebra
        self.rho = list(rho)
        self.mu = list(mu)
        self.D = D
        dim_v = D.rows
        if D.cols != algebra.dim:
            raise ValueError(f"D must have {algebra.dim} columns, got {D.cols}")
        if not all(m.rows == m.cols == dim_v for m in self.rho + self.mu):
            raise ValueError(f"rho and mu must be {dim_v} x {dim_v} matrices")
        if not len(self.rho) == len(self.mu) == algebra.dim:
            raise ValueError(f"rho and mu must have {algebra.dim} matrices each")
        self.dims = SplitDims(algebra.dim, dim_v)

    def element(self) -> LElement:
        """(s^{-1}(pi + rho + mu), D) as a degree-0 element."""
        p = DerPair(self.algebra, Representation(self.dims.dim_v, self.rho, self.mu), self.D)
        return LElement(self.dims, 0, structure_cochain(p), d_component(self.D, self.dims))


def mc_residual(x: LElement) -> LElement:
    """l1(x) + l2(x,x)/2 + l3(x,x,x)/6; only the l2 term can survive."""
    return l2(x, x).scale(Fraction(1, 2))


def mc_check(c: MCCandidate) -> dict:
    """Maurer-Cartan test; residual = (-half self-bracket, mixing bracket)."""
    alpha = c.element()
    res = mc_residual(alpha)
    return {
        "is_mc": res.is_zero(),
        "residual": (res.shifted, res.h_part),
    }


def twist(alpha: LElement):
    """Twisted products by a Maurer-Cartan element.

    l1^alpha(x) = l2(alpha, x) and l2^alpha = l2; everything higher is
    zero. Raises if alpha does not satisfy the MC equation.
    """
    if alpha.degree != 0 or not mc_residual(alpha).is_zero():
        raise ValueError("twisting element does not satisfy the Maurer-Cartan equation")

    def l1_twisted(x: LElement) -> LElement:
        return l2(alpha, x)

    return {"l1": l1_twisted, "l2": l2}


def mc_twisted_check(alpha: LElement, alpha_prime: LElement) -> bool:
    """MC test for alpha_prime in the algebra twisted by alpha.

    Equivalent to mc_check on alpha + alpha_prime when both have degree
    zero.
    """
    if not alpha_prime.degree == alpha.degree == 0:
        raise ValueError("mc_twisted_check takes two elements of degree 0")
    t = twist(alpha)
    res = t["l1"](alpha_prime) + mc_residual(alpha_prime)
    return res.is_zero()
