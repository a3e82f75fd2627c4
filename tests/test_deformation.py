"""Deformation data: validity, cocycles, equivalences, classification.

A datum is valid when deforming by it keeps the pair axioms for every
parameter value; two of the four defining equations are quadratic, so
valid data form a cone, not a subspace. Classification of equivalence
happens in degree-2 cohomology of the pair complex.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prelieder import (
    DeformationDatum,
    DerPair,
    DerPairCochain,
    EquivalenceWitness,
    ExtensionCocycle,
    Matrix,
    MixedMap,
    MixedShape,
    RegularPair,
    SplitDims,
    coboundary_datum,
    cohomology_dim,
    deformation_cocycle,
    deformed_pair,
    differential_matrix,
    huaD,
    is_equivalence,
    is_infinitesimal_deformation,
    kernel_basis,
    mc_twisted_check,
    same_cohomology_class,
)
from prelieder.cohomology import COMPLEXES, _unflatten
from prelieder.deformation import EQUIVALENCE_TAGS
from prelieder.linfty import MCCandidate

from conftest import (
    corpus_pairs,
    derivation_space,
    random_matrix,
    rational,
    shift_algebra,
    zero_representation,
)
from oracles import equivalence_reference, in_span, pair_reference


@pytest.fixture(scope="module")
def small_pairs():
    return [
        p
        for p in corpus_pairs(random.Random(7))
        if p.algebra.dim <= 2 and p.rep.dim_v <= 2
    ]


def rand_datum(rng, dims) -> DeformationDatum:
    dg, dv = dims.dim_g, dims.dim_v
    table = [
        [[rng.randrange(-1, 2) for _ in range(dg)] for _ in range(dg)]
        for _ in range(dg)
    ]
    sig = [random_matrix(rng, dv, dv) for _ in range(dg)]
    tau = [random_matrix(rng, dv, dv) for _ in range(dg)]
    dh = random_matrix(rng, dv, dg)
    return DeformationDatum.from_matrices(dims, table, sig, tau, dh)


def structure_datum(p: DerPair) -> DeformationDatum:
    """The structure itself as a datum; deforming scales everything by 1+t."""
    dg = p.algebra.dim
    table = [[p.algebra.prod_basis(i, j) for j in range(dg)] for i in range(dg)]
    return DeformationDatum.from_matrices(
        p.dims, table, list(p.rep.rho), list(p.rep.mu), p.D
    )


def test_from_matrices_round_trip():
    rng = random.Random(0)
    dims = SplitDims(2, 2)
    d = rand_datum(rng, dims)
    e = DeformationDatum.from_matrices(
        dims,
        [[d.omega_vec(i, j) for j in range(2)] for i in range(2)],
        [d.sigma_mat(i) for i in range(2)],
        [d.tau_mat(j) for j in range(2)],
        d.dhat_mat(),
    )
    assert d == e
    assert d.n == 2
    assert d.lelement().degree == 0
    assert DeformationDatum.zero(dims).is_zero()


def test_from_matrices_refuses_floats():
    # the tables go through MixedMap, which takes int, str and Fraction
    dims = SplitDims(1, 1)
    one, z = Matrix.identity(1), Matrix.zeros(1, 1)
    with pytest.raises(TypeError):
        DeformationDatum.from_matrices(dims, [[[0.5]]], [one], [one], z)
    with pytest.raises(TypeError):
        ExtensionCocycle.from_matrices(dims, [[[0.25]]], z)
    half = DeformationDatum.from_matrices(dims, [[["1/2"]]], [one], [one], z)
    assert half.omega_vec(0, 0) == (Fraction(1, 2),)


def test_validator_iff_deformed_pair_valid(small_pairs):
    # base is valid at t = 0, the equations are quadratic in t, so
    # validity at t in {1, 2} settles validity for every t
    rng = random.Random(1)
    valid_seen = invalid_seen = 0
    for p in small_pairs:
        candidates = [DeformationDatum.zero(p.dims), structure_datum(p)]
        for K in derivation_space(p.algebra, p.rep.rho, p.rep.mu, p.rep.dim_v)[:2]:
            candidates.append(
                DeformationDatum.from_matrices(
                    p.dims,
                    [[(0,) * p.algebra.dim] * p.algebra.dim] * p.algebra.dim,
                    [Matrix.zeros(p.rep.dim_v, p.rep.dim_v)] * p.algebra.dim,
                    [Matrix.zeros(p.rep.dim_v, p.rep.dim_v)] * p.algebra.dim,
                    K,
                )
            )
        candidates += [rand_datum(rng, p.dims) for _ in range(3)]
        for d in candidates:
            res = is_infinitesimal_deformation(p, d)
            stays = all(
                pair_reference(deformed_pair(p, d, Fraction(t))) == [] for t in (1, 2)
            )
            assert res["ok"] == stays
            valid_seen += res["ok"]
            invalid_seen += not res["ok"]
            # at t = 1 validity of the shifted structure is the twisted
            # Maurer-Cartan equation for the datum
            alpha = MCCandidate(p.algebra, p.rep.rho, p.rep.mu, p.D).element()
            assert mc_twisted_check(alpha, d.lelement()) == (
                pair_reference(deformed_pair(p, d, Fraction(1))) == []
            )
    assert valid_seen >= 10 and invalid_seen >= 10


def test_valid_datum_is_cocycle(small_pairs):
    for p in small_pairs:
        for d in (DeformationDatum.zero(p.dims), structure_datum(p)):
            if not is_infinitesimal_deformation(p, d)["ok"]:
                continue
            c = deformation_cocycle(p, d)
            assert c == DerPairCochain(p.dims, 2, *d.blocks())
            assert huaD(p, c).is_zero()


def test_deformation_cocycle_refuses_invalid(small_pairs):
    rng = random.Random(2)
    raised = 0
    for p in small_pairs:
        for _ in range(4):
            d = rand_datum(rng, p.dims)
            res = is_infinitesimal_deformation(p, d)
            if res["ok"]:
                continue
            with pytest.raises(ValueError) as exc:
                deformation_cocycle(p, d)
            for tag in res["failed"]:
                assert tag in str(exc.value)
            raised += 1
    assert raised >= 10


def test_coboundary_datum_is_cocycle_but_maybe_not_deformation(small_pairs):
    # the linear equations always hold for a coboundary, the quadratic
    # ones are free to fail
    rng = random.Random(3)
    quadratic_failures = 0
    for p in small_pairs:
        for _ in range(3):
            N = random_matrix(rng, p.algebra.dim, p.algebra.dim)
            S = random_matrix(rng, p.rep.dim_v, p.rep.dim_v)
            d = coboundary_datum(p, N, S)
            assert huaD(p, d).is_zero()
            failed = is_infinitesimal_deformation(p, d)["failed"]
            assert set(failed) <= {"deformation-2", "deformation-4"}
            quadratic_failures += bool(failed)
    assert quadratic_failures >= 5


def shift_fixture():
    """Shift algebra, one-dimensional zero module, zero derivation."""
    a = shift_algebra()
    rep = zero_representation(a, 1)
    return DerPair(a, rep, Matrix.zeros(1, 2))


def test_equivalence_identities_on_shift_witness():
    p = shift_fixture()
    dims = p.dims
    N = Matrix(2, 2, [[0, 0], [1, 0]])
    S = Matrix.zeros(1, 1)
    w = EquivalenceWitness(N, S)
    d1 = coboundary_datum(p, N, S)

    # the coboundary moves only the product: omega'(e1, e1) = e2
    assert d1.omega_vec(0, 0) == (Fraction(0), Fraction(1))
    assert all(
        d1.omega_vec(i, j) == (0, 0) for i, j in ((0, 1), (1, 0), (1, 1))
    )
    assert d1.sigma_mat(0).is_zero() and d1.tau_mat(1).is_zero()
    assert d1.dhat_mat().is_zero()

    zero = DeformationDatum.zero(dims)
    assert is_equivalence(p, d1, zero, w) == {"ok": True, "failed": []}
    # identity witness relates a datum to itself
    idw = EquivalenceWitness(Matrix.zeros(2, 2), Matrix.zeros(1, 1))
    assert is_equivalence(p, d1, d1, idw)["ok"]

    # single-entry perturbations trip the matching linear identity
    def tweaked(omega=None, sigma=None, tau=None, dhat=None):
        return DeformationDatum(
            dims,
            omega or d1.omega,
            sigma or d1.sigma,
            tau or d1.tau,
            dhat or d1.dhat,
        )

    bump_omega = d1.omega + MixedMap(
        dims, MixedShape(1, 0, "g"), "g", {((1,), (), 1): (1, 0)}
    )
    assert "equi-deformation-1" in is_equivalence(p, tweaked(omega=bump_omega), zero, w)["failed"]

    bump_sigma = d1.sigma + MixedMap(
        dims, MixedShape(1, 0, "v"), "v", {((0,), (), 0): (1,)}
    )
    assert "equi-deformation-4" in is_equivalence(p, tweaked(sigma=bump_sigma), zero, w)["failed"]

    bump_tau = d1.tau + MixedMap(
        dims, MixedShape(0, 1, "g"), "v", {((), (0,), 0): (1,)}
    )
    assert "equi-deformation-7" in is_equivalence(p, tweaked(tau=bump_tau), zero, w)["failed"]

    bump_dhat = d1.dhat + MixedMap(
        dims, MixedShape(0, 0, "g"), "v", {((), (), 0): (1,)}
    )
    assert "equi-deformation-10" in is_equivalence(p, tweaked(dhat=bump_dhat), zero, w)["failed"]


def _sparse_matrix(rng, rows: int, cols: int, density: float) -> Matrix:
    return Matrix(
        rows, cols, [[rational(rng) if rng.random() < density else 0 for _ in range(cols)] for _ in range(rows)]
    )


def _sparse_datum(rng, dims: SplitDims, density: float) -> DeformationDatum:
    dg, dv = dims.dim_g, dims.dim_v
    table = [
        [[rational(rng) if rng.random() < density else 0 for _ in range(dg)] for _ in range(dg)]
        for _ in range(dg)
    ]
    return DeformationDatum.from_matrices(
        dims,
        table,
        [_sparse_matrix(rng, dv, dv, density) for _ in range(dg)],
        [_sparse_matrix(rng, dv, dv, density) for _ in range(dg)],
        _sparse_matrix(rng, dv, dg, density),
    )


def _plus(d: DeformationDatum, e: DeformationDatum) -> DeformationDatum:
    return DeformationDatum(d.dims, d.omega + e.omega, d.sigma + e.sigma, d.tau + e.tau, d.dhat + e.dhat)


def test_equivalence_tags_match_the_hand_expansion(pair_corpus):
    # is_equivalence reads the eleven tags off the morphism identities at
    # t = 1, 2, 3; the reference writes each identity out by hand. d1 is
    # d2 moved by the coboundary of (N, S), which the linear tags accept,
    # and sometimes pushed off it; sparse data let each tag pass and fail
    pairs = [p for p in pair_corpus if p.dims.dim_v <= 2]
    assert (3, 2) in {(p.dims.dim_g, p.dims.dim_v) for p in pairs}
    seen = {tag: set() for tag in EQUIVALENCE_TAGS}

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(pairs), st.integers(0, 2**32 - 1))
    def check(p, seed):
        rng = random.Random(seed)
        dg, dv = p.dims.dim_g, p.dims.dim_v
        N = _sparse_matrix(rng, dg, dg, rng.choice((0, 0.2, 0.5)))
        S = _sparse_matrix(rng, dv, dv, rng.choice((0, 0.3, 0.6)))
        d2 = _sparse_datum(rng, p.dims, rng.choice((0, 0.1, 0.3)))
        d1 = _plus(d2, coboundary_datum(p, N, S))
        if rng.random() < 0.5:
            d1 = _plus(d1, _sparse_datum(rng, p.dims, 0.1))
        w = EquivalenceWitness(N, S)
        got = is_equivalence(p, d1, d2, w)
        assert got == equivalence_reference(p, d1, d2, w)
        for tag in EQUIVALENCE_TAGS:
            seen[tag].add(tag in got["failed"])

    check()
    assert all(outcomes == {True, False} for outcomes in seen.values()), seen


def test_equivalent_data_share_class(small_pairs):
    rng = random.Random(4)
    for p in small_pairs[:6]:
        N = random_matrix(rng, p.algebra.dim, p.algebra.dim)
        S = random_matrix(rng, p.rep.dim_v, p.rep.dim_v)
        d = coboundary_datum(p, N, S)
        w = same_cohomology_class(p, d, DeformationDatum.zero(p.dims))
        assert w is not None
        assert coboundary_datum(p, w.N, w.S) == d


def test_class_decision_matches_span_membership():
    p = RegularPair(shift_algebra(), Matrix(2, 2, [[0, 0], [0, 1]])).to_derpair()
    dims = p.dims
    specs = COMPLEXES["pair"].specs(2)
    d2 = differential_matrix("pair", 2, p)
    d1 = differential_matrix("pair", 1, p)
    d1_cols = [d1.col(j) for j in range(d1.cols)]
    zero = DeformationDatum.zero(dims)

    z, b, h = cohomology_dim("pair", 2, p)
    assert h > 0
    cocycles = kernel_basis(d2)
    assert len(cocycles) == z
    outside = 0
    for vec in cocycles:
        d = _as_datum(dims, specs, vec)
        w = same_cohomology_class(p, d, zero)
        expected = in_span(d1_cols, list(vec))
        assert (w is not None) == expected
        if w is None:
            outside += 1
        else:
            assert coboundary_datum(p, w.N, w.S) == d
    assert outside >= 1

    # distinct classes stay distinct after shifting both by one coboundary
    non_triv = next(
        _as_datum(dims, specs, v)
        for v in cocycles
        if not in_span(d1_cols, list(v))
    )
    shift_by = coboundary_datum(p, Matrix(2, 2, [[1, 0], [0, 0]]), Matrix.zeros(2, 2))
    moved = non_triv + shift_by
    assert same_cohomology_class(p, non_triv, moved) is not None
    assert same_cohomology_class(p, non_triv, zero) is None


def test_same_class_certificate_survives_a_failed_coboundary_check(monkeypatch):
    # the coboundary certificate is a real check: when the solved witness
    # does not bound d1 - d2, same_cohomology_class raises (even under -O)
    from prelieder.cohomology import Complex

    p = RegularPair(shift_algebra(), Matrix(2, 2, [[0, 0], [0, 1]])).to_derpair()
    d = coboundary_datum(p, Matrix(2, 2, [[1, 2], [0, 1]]), Matrix(2, 2, [[0, 1], [1, 0]]))
    zero = DeformationDatum.zero(p.dims)
    assert same_cohomology_class(p, d, zero) is not None

    solve_for = Complex.preimage
    monkeypatch.setattr(
        Complex, "preimage", lambda cx, n, y: [m.scale(2) for m in solve_for(cx, n, y)]
    )
    with pytest.raises(RuntimeError):
        same_cohomology_class(p, d, zero)


def _as_datum(dims, specs, vec) -> DeformationDatum:
    return DeformationDatum(dims, *_unflatten(dims, specs, list(vec)))


def test_same_class_requires_cocycles(small_pairs):
    rng = random.Random(5)
    p = small_pairs[0]
    zero = DeformationDatum.zero(p.dims)
    bad = None
    for _ in range(20):
        cand = rand_datum(rng, p.dims)
        if not huaD(p, cand).is_zero():
            bad = cand
            break
    assert bad is not None
    with pytest.raises(ValueError):
        same_cohomology_class(p, bad, zero)
    with pytest.raises(ValueError):
        same_cohomology_class(p, zero, bad)


def test_shape_checks_are_value_errors_under_optimize():
    # python -O strips assert statements; the shape checks of data,
    # witnesses, the equation checkers and is_morphism must not be asserts
    script = (
        "from prelieder import (DeformationDatum, DerPairCochain, EquivalenceWitness, Matrix, PreLieAlgebra,\n"
        "    RegularPair, SplitDims, is_equivalence, is_infinitesimal_deformation, is_morphism)\n"
        "dims = SplitDims(2, 1)\n"
        "z = DeformationDatum.zero(dims)\n"
        "om, sg, ta, dh = z.omega, z.sigma, z.tau, z.dhat\n"
        "wide = DeformationDatum.zero(SplitDims(2, 2))\n"
        "shift = PreLieAlgebra(2, [[[0, 0], [0, 1]], [[0, 0], [0, 0]]])\n"
        "base = RegularPair(shift, Matrix.zeros(2, 2)).to_derpair()\n"
        "cases = [\n"
        "    lambda: DeformationDatum(dims, sg, sg, ta, dh),\n"
        "    lambda: DeformationDatum(dims, om, om, ta, dh),\n"
        "    lambda: DeformationDatum(dims, om, sg, sg, dh),\n"
        "    lambda: DeformationDatum(dims, om, sg, ta, ta),\n"
        "    lambda: DeformationDatum(dims, om, sg, ta, wide.dhat),\n"
        "    lambda: DerPairCochain(dims, 2, *DerPairCochain.zero(SplitDims(2, 2), 2).blocks()),\n"
        "    lambda: EquivalenceWitness(Matrix.zeros(2, 1), Matrix.zeros(1, 1)),\n"
        "    lambda: is_infinitesimal_deformation(base, z),\n"
        "    lambda: is_equivalence(base, wide, wide,\n"
        "        EquivalenceWitness(Matrix.zeros(1, 1), Matrix.zeros(2, 2))),\n"
        "    lambda: is_equivalence(base, wide, z,\n"
        "        EquivalenceWitness(Matrix.zeros(2, 2), Matrix.zeros(1, 1))),\n"
        "    lambda: is_morphism(Matrix.zeros(1, 2), Matrix.identity(1), base, base),\n"
        "    lambda: is_morphism(Matrix.identity(2), Matrix.zeros(2, 1), base, base),\n"
        "]\n"
        "for bad in cases:\n"
        "    try:\n"
        "        bad()\n"
        "    except ValueError as e:\n"
        "        print(type(e).__name__)\n"
        "    else:\n"
        "        print('accepted')\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["ValueError"] * 12
