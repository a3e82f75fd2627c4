"""The graded Lie bracket on multilinear maps wedge^(n-1)(W) tensor W -> W.

For P of arity p+1 and Q of arity q+1 the composition P . Q has arity
p+q+1 and is defined by two unshuffle sums (ordinary signatures, the
grading only enters through the global (-1)^(pq) factors):

  (P.Q)(x_1,...,x_{p+q+1}) =
      sum over (q,1,p-1)-unshuffles s of sgn(s) *
          P(Q(x_{s(1)},...,x_{s(q)}, x_{s(q+1)}), x_{s(q+2)},...,x_{s(p+q)}, x_{p+q+1})
    + (-1)^{pq} * sum over (p,q)-unshuffles s of sgn(s) *
          P(x_{s(1)},...,x_{s(p)}, Q(x_{s(p+1)},...,x_{s(p+q)}, x_{p+q+1}))

and [P,Q] = P.Q - (-1)^{pq} Q.P. The unshuffles permute only the first
p+q arguments; the last argument stays put. When p = 0 the first sum is
empty (its last block has size -1), so on linear maps the bracket is the
matrix commutator. An element of C^m carries graded-Lie degree m-1.

The sums are computed by scatter from the nonzeros of Q, not by walking
the output basis. On basis arguments an unshuffle is fixed by which
arguments fill each block, so every nonzero term is one pair of stored
entries: a nonzero component e_k of Q(qw; qt) together with an entry of
P that takes e_k in its wedge (first sum) or as its tail (second sum).
The term lands on the sorted union of the arguments it reads, with the
sign of that sort, and vanishes when two of those arguments coincide.
"""

from __future__ import annotations

from collections import defaultdict

from .cochain import Cochain
from .spaces import perm_sign


def _nonzeros(vec):
    return [(m, c) for m, c in enumerate(vec) if c]


def circ(P: Cochain, Q: Cochain) -> Cochain:
    """The composition P . Q of the displayed double unshuffle sum."""
    if P.dims != Q.dims:
        raise ValueError(f"circ needs cochains on one space, got {P.dims} and {Q.dims}")
    total = P.dims.total
    p, q = P.arity - 1, Q.arity - 1
    sign2 = -1 if (p * q) % 2 else 1
    # P's entries indexed by each member k of the wedge, with the rest of
    # the wedge and the sign (-1)^pos of moving k to the front, and by tail
    by_member = defaultdict(list)
    by_tail = defaultdict(list)
    for (pw, pt), val in P.coeffs.items():
        nz = _nonzeros(val)
        by_tail[pt].append((pw, nz))
        for pos, k in enumerate(pw):
            by_member[k].append((pw[:pos] + pw[pos + 1:], -1 if pos % 2 else 1, pt, nz))
    acc = {}

    def scatter(args, tail, coef, nz):
        key = (tuple(sorted(args)), tail)
        vec = acc.get(key)
        if vec is None:
            vec = acc[key] = [0] * total
        coef *= perm_sign(args)
        for m, c in nz:
            vec[m] += coef * c

    for (qw, qt), val in Q.coeffs.items():
        head = qw + (qt,)
        # Q's arguments are distinct arguments of P . Q in the first sum
        first = qt not in qw
        for k, c in _nonzeros(val):
            if first:
                for rest, s, pt, nz in by_member.get(k, ()):
                    if set(rest).isdisjoint(head):
                        scatter(head + rest, pt, s * c, nz)
            for pw, nz in by_tail.get(k, ()):
                if set(pw).isdisjoint(qw):
                    scatter(pw + qw, qt, sign2 * c, nz)
    return Cochain(P.dims, p + q + 1, {key: acc[key] for key in sorted(acc)})


def mn_bracket(P: Cochain, Q: Cochain) -> Cochain:
    """[P,Q] = P.Q - (-1)^(pq) Q.P.

    A self-bracket composes once: [P,P] = (1 - (-1)^(pp)) P.P, which is
    2 P.P for odd p and zero for even p.
    """
    p, q = P.arity - 1, Q.arity - 1
    if P is Q:
        return circ(P, P).scale(2) if p % 2 else Cochain(P.dims, 2 * p + 1)
    sign = -1 if (p * q) % 2 else 1
    return circ(P, Q) - circ(Q, P).scale(sign)
