"""The two workloads: seeded inputs, the operations of one round, checks.

A workload is built once per process (`build`) and gives a fixed list of
operations; the runner repeats that list in whole rounds. An operation
is one `cohomology_dim` or one `cli_run` call, always looked up on the
package at call time so the tracer's patches apply.
Checks run after the timed region on the outputs of one round, with the
benchmark's own arithmetic (`exact`), and return a list of problems.
"""

from __future__ import annotations

import random
from math import comb

import prelieder as P

import exact as X
import gen

TRIPLE = ("coeffs", "prelie", "pair")

# dim g = 4 members of the sweep: the (4,4) regular complex and the
# (4,2) triple of tri+line, and fully abelian dim 4 data. The rest of
# dim g = 4 costs seconds per sweep and would leave too few rounds.
SWEEP_DIM4 = {
    ("regular", "tri+line"),
    ("coeffs", "tri+line/char2"),
    ("prelie", "tri+line/char2"),
    ("pair", "tri+line/char2"),
    ("rep", "tri+line/char2"),
    ("rep", "tri+line/zero1"),
    ("regular", "ab4"),
    ("rep", "ab4/zero2"),
}

# ---------------------------------------------------------------------------
# plain structures -> prelieder objects


def matrix(rows):
    return P.Matrix(len(rows), len(rows[0]), rows)


def algebra(s):
    return P.PreLieAlgebra(s.dg, s.table)


def derpair(s):
    rep = P.Representation(s.dv, [matrix(m) for m in s.rho], [matrix(m) for m in s.mu])
    return P.DerPair(algebra(s), rep, matrix(s.D))


def regpair(s):
    return P.RegularPair(algebra(s), matrix(s.D))


def module(s):
    K, rho, mu = s.module
    return P.DerPairRepresentation(len(K), matrix(K), [matrix(m) for m in rho], [matrix(m) for m in mu])


def complex_data(cid, s):
    if cid in TRIPLE:
        return derpair(s)
    if cid == "regular":
        return regpair(s)
    return (regpair(s), module(s))


# ---------------------------------------------------------------------------
# own values: ranks of the differentials modulo primes


class OwnComplex:
    """z, b, h of one complex from ranks of `differential_matrix` recomputed here."""

    def __init__(self, cid, data):
        self.cid = cid
        self.data = data
        self.mats = {}
        self.ranks = {}

    def d(self, n):
        if n not in self.mats:
            self.mats[n] = P.differential_matrix(self.cid, n, self.data)
        return self.mats[n]

    def rank(self, n):
        if n < 1:
            return 0
        if n not in self.ranks:
            m = self.d(n)
            self.ranks[n] = X.rank_mod_p(m.entries, m.cols)
        return self.ranks[n]

    def zbh(self, n):
        z = self.d(n).cols - self.rank(n)
        b = self.rank(n - 1)
        return (z, b, z - b)


def check_zbh(own, n, got):
    want = own.zbh(n)
    if tuple(got) != want:
        return [f"{own.cid} degree {n}: got (z, b, h) = {tuple(got)}, ranks mod p give {want}"]
    return []


def check_d_squared(cid, mats):
    """d_(n+1) d_n = 0 exactly, for consecutive matrices {n: Matrix}."""
    bad = []
    for n in sorted(mats):
        if n + 1 in mats and not X.product_is_zero(mats[n + 1].entries, mats[n].entries):
            bad.append(f"{cid}: d_{n + 1} d_{n} != 0")
    return bad


def closed_form_dim(cid, n, dg, dv):
    c = lambda k: comb(dg, k) if k >= 0 else 0  # noqa: E731
    coeffs = c(n - 1) * dg * dv
    prelie = c(n - 1) * dg * dg + c(n - 1) * dv * dv + c(n - 2) * dv * dg * dv
    return {
        "coeffs": coeffs,
        "prelie": prelie,
        "pair": prelie + c(n - 2) * dg * dv,
        "regular": (c(n - 1) + c(n - 2)) * dg * dg,
        "rep": (c(n - 1) + c(n - 2)) * dg * dv,
    }[cid]


def check_closed_form(cid, n, dg, dv, got):
    """Fully abelian data: every differential vanishes, h^n = dim C^n."""
    f = closed_form_dim(cid, n, dg, dv)
    if tuple(got) != (f, 0, f):
        return [f"abelian {cid} (dg={dg}, dv={dv}) degree {n}: got {tuple(got)}, closed form ({f}, 0, {f})"]
    return []


# ---------------------------------------------------------------------------
# sweep


class Workload:
    """ops: list of zero-argument callables; check(outputs) -> problems."""

    def __init__(self, ops, check):
        self.ops = ops
        self.check = check


def _degree_ops(entries):
    """One `cohomology_dim` call per degree with dim C^n > 0."""
    ops, items = [], []
    for k, (cid, s, data) in enumerate(entries):
        n = 1
        while P.space_dimension(cid, n, data) > 0:
            ops.append(lambda cid=cid, n=n, data=data: P.cohomology_dim(cid, n, data))
            items.append((k, n))
            n += 1
    return ops, items


def _check_degrees(entries, items, outputs):
    problems = [f"generated input {cid} {s.name} is not valid" for cid, s, _ in entries if not gen.valid(s)]
    owns = {}
    for (k, n), got in zip(items, outputs):
        cid, s, data = entries[k]
        own = owns.setdefault(k, OwnComplex(cid, data))
        problems += check_zbh(own, n, got)
        dv = gen.module_dim(s) if cid != "regular" else s.dg
        if s.name.startswith("ab"):
            problems += check_closed_form(cid, n, s.dg, dv, got)
    for k, own in owns.items():
        top = max(n for kk, n in items if kk == k)
        own.d(top)
        problems += check_d_squared(own.cid, own.mats)
    return problems


def build_sweep(seed):
    rng = random.Random(seed)
    entries = [(cid, s, complex_data(cid, s)) for cid, s in gen.sweep_corpus(rng) if s.dg <= 3 or (cid, s.name) in SWEEP_DIM4]
    ops, items = _degree_ops(entries)
    return Workload(ops, lambda outputs: _check_degrees(entries, items, outputs))


def build(name, seed, workdir):
    """The workload's operations; only requests writes (its documents) to workdir."""
    if name == "requests":
        import requests_stream

        return requests_stream.build(seed, workdir)
    return build_sweep(seed)
