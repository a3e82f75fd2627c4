"""The requests workload: a seeded stream of in-process `cli_run` calls.

Documents are generated from the seed into a work directory before the
timed region; every request runs `cli_run([..., "--json"])` with stdout
and stderr captured. Each request carries what its check needs, and the
checks use only the benchmark's own arithmetic (`exact`) and the report
schema in docs/.
"""

from __future__ import annotations

import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations

import prelieder as P

import exact as X
import gen
from workloads import OwnComplex, Workload, complex_data

SCHEMA = os.path.join("docs", "report.schema.json")


# ---------------------------------------------------------------------------
# documents


def sq(x):
    return str(X.Q(x))


def vec(v):
    return [sq(x) for x in v]


def mat(m):
    return [vec(r) for r in m]


def alg_doc(table):
    return {"dim": len(table), "table": [[vec(v) for v in row] for row in table]}


def pair_doc(s):
    doc = {"kind": "derpair", "algebra": alg_doc(s.table), "D": mat(s.D)}
    if not s.regular:
        doc.update(dim_v=s.dv, rho=[mat(m) for m in s.rho], mu=[mat(m) for m in s.mu])
    return doc


def module_doc(s):
    K, rho, mu = s.module
    return {
        "kind": "representation",
        "algebra": alg_doc(s.table),
        "dim_v": len(K),
        "rho": [mat(m) for m in rho],
        "mu": [mat(m) for m in mu],
        "K": mat(K),
    }


def datum_doc(dg, dv, d):
    omega, sigma, tau, dhat = d
    return {
        "kind": "deformation",
        "dim_g": dg,
        "dim_v": dv,
        "omega": [[vec(v) for v in row] for row in omega],
        "sigma": [mat(m) for m in sigma],
        "tau": [mat(m) for m in tau],
        "dhat": mat(dhat),
    }


def cocycle_doc(dg, dv, c):
    theta, xi = c
    f = [{"wedge": [i], "tail": j, "value": vec(theta[i][j])} for i in range(dg) for j in range(dg) if any(theta[i][j])]
    t = [{"wedge": [], "tail": j, "value": vec(X.column(xi, j))} for j in range(dg) if any(X.column(xi, j))]
    return {"kind": "cochain", "format": "two-slot", "dim_g": dg, "dim_v": dv, "degree": 2, "target": "v", "f": f, "theta": t}


def inclusion(dg, dv):
    n = dg + dv
    iota = [[X.Q(int(i == dg + u)) for u in range(dv)] for i in range(n)]
    proj = [[X.Q(int(j == i)) for j in range(n)] for i in range(dg)]
    return iota, proj


def extension_doc(tab, Dt, dg, dv):
    iota, proj = inclusion(dg, dv)
    return {"kind": "extension", "total": {"algebra": alg_doc(tab), "D": mat(Dt)}, "iota": mat(iota), "proj": mat(proj)}


def cochain_doc(dg, dv, arity, coeffs):
    entries = [{"wedge": list(w), "tail": t, "value": vec(v)} for (w, t), v in sorted(coeffs.items())]
    return {"kind": "cochain", "format": "full", "dim_g": dg, "dim_v": dv, "arity": arity, "entries": entries}


# ---------------------------------------------------------------------------
# the benchmark's own formulas


def deformed(s, d, t):
    """The structure deformed by the datum d at parameter t."""
    omega, sigma, tau, dhat = d
    table = [[[a + t * b for a, b in zip(s.table[i][j], omega[i][j])] for j in range(s.dg)] for i in range(s.dg)]
    rho = [X.mat_add(s.rho[i], sigma[i], t) for i in range(s.dg)]
    mu = [X.mat_add(s.mu[i], tau[i], t) for i in range(s.dg)]
    return gen.Structure(s.name, table, rho, mu, X.mat_add(s.D, dhat, t))


def is_deformation(s, d):
    """Valid for every t: the axioms are quadratic in t and vanish at t = 0."""
    return X.is_pair(deformed(s, d, 1)) and X.is_pair(deformed(s, d, -1))


def deform_coboundary(s, N, S):
    """d1 - d2 when (Id + tN, Id + tS) maps the d1-deformed pair to the d2-deformed one, to first order."""
    dg = s.dg
    e = [X.unit(dg, i) for i in range(dg)]
    ncol = [X.column(N, i) for i in range(dg)]
    omega = [
        [
            [a + b - c for a, b, c in zip(X.prod(s.table, ncol[i], e[j]), X.prod(s.table, e[i], ncol[j]), X.mat_vec(N, s.table[i][j]))]
            for j in range(dg)
        ]
        for i in range(dg)
    ]

    def act(mats, i):
        return X.mat_add(X.mat_add(X.act(mats, ncol[i]), X.mat_mul(mats[i], S)), X.mat_mul(S, mats[i]), -1)

    sigma = [act(s.rho, i) for i in range(dg)]
    tau = [act(s.mu, i) for i in range(dg)]
    dhat = X.mat_add(X.mat_mul(s.D, N), X.mat_mul(S, s.D), -1)
    return (omega, sigma, tau, dhat)


def flat_datum(d):
    omega, sigma, tau, dhat = d
    return [x for row in omega for v in row for x in v] + [x for m in sigma + tau for r in m for x in r] + [x for r in dhat for x in r]


def datum_add(a, b, t=1):
    """a + t b for deformation data (omega, sigma, tau, dhat)."""
    (oa, sa, ta, da), (ob, sb, tb, db) = a, b
    omega = [[[x + t * y for x, y in zip(u, v)] for u, v in zip(ra, rb)] for ra, rb in zip(oa, ob)]
    return (omega, [X.mat_add(p, q, t) for p, q in zip(sa, sb)], [X.mat_add(p, q, t) for p, q in zip(ta, tb)], X.mat_add(da, db, t))


def zero_datum(dg, dv):
    return ([[[X.Q(0)] * dg for _ in range(dg)] for _ in range(dg)], [X.zeros(dv, dv) for _ in range(dg)], [X.zeros(dv, dv) for _ in range(dg)], X.zeros(dv, dg))


def linear_map_columns(f, shapes):
    """Columns of the linear map f on the unknown matrices of the given shapes."""
    size = sum(r * c for r, c in shapes)
    cols = []
    for k in range(size):
        mats, pos = [], 0
        for r, c in shapes:
            mats.append([[X.Q(int(pos + i * c + j == k)) for j in range(c)] for i in range(r)])
            pos += r * c
        cols.append(f(*mats))
    return [list(row) for row in zip(*cols)]


def same_deformation_class(s, d1, d2):
    """Is d1 - d2 = deform_coboundary(N, S) solvable? Own elimination."""
    rows = linear_map_columns(lambda N, S: flat_datum(deform_coboundary(s, N, S)), [(s.dg, s.dg), (s.dv, s.dv)])
    return X.consistent(rows, flat_datum(datum_add(d1, d2, -1)), s.dg * s.dg + s.dv * s.dv)


def ext_coboundary(s, phi):
    """theta = rho(x)phi(y) + mu(y)phi(x) - phi(x.y), xi = K phi - phi D."""
    K, rho, mu = s.module
    dg = s.dg
    cols = [X.column(phi, j) for j in range(dg)]
    theta = [
        [[a + b - c for a, b, c in zip(X.mat_vec(rho[i], cols[j]), X.mat_vec(mu[j], cols[i]), X.mat_vec(phi, s.table[i][j]))] for j in range(dg)]
        for i in range(dg)
    ]
    return (theta, X.mat_add(X.mat_mul(K, phi), X.mat_mul(phi, s.D), -1))


def flat_cocycle(c):
    theta, xi = c
    return [x for row in theta for v in row for x in v] + [x for r in xi for x in r]


def cocycle_add(a, b, t=1):
    return (
        [[[x + t * y for x, y in zip(u, v)] for u, v in zip(ra, rb)] for ra, rb in zip(a[0], b[0])],
        X.mat_add(a[1], b[1], t),
    )


def zero_cocycle(dg, dv):
    return ([[[X.Q(0)] * dv for _ in range(dg)] for _ in range(dg)], X.zeros(dv, dg))


def total(s, c):
    K, rho, mu = s.module
    return X.total_structure(s.table, s.D, K, rho, mu, c[0], c[1])


def cocycle_space(s):
    """Basis of the (theta, xi) for which the total structure is a regular pair.

    The residual of the axioms is linear in (theta, xi) once the module
    is valid, so its kernel, solved here exactly, is the cocycle space.
    """
    dg, dv = s.dg, len(s.module[0])

    def residual(theta_flat, xi):
        theta = [[[theta_flat[i * dg + j][u] for u in range(dv)] for j in range(dg)] for i in range(dg)]
        return X.regular_residual(*total(s, (theta, xi)))

    rows = linear_map_columns(residual, [(dg * dg, dv), (dv, dg)])
    out = []
    for v in X.kernel(rows, dg * dg * dv + dv * dg):
        theta = [[v[(i * dg + j) * dv : (i * dg + j + 1) * dv] for j in range(dg)] for i in range(dg)]
        xi = [v[dg * dg * dv + u * dg : dg * dg * dv + (u + 1) * dg] for u in range(dv)]
        out.append((theta, xi))
    return out


def same_extension_class(s, c1, c2):
    dg, dv = s.dg, len(s.module[0])
    rows = linear_map_columns(lambda phi: flat_cocycle(ext_coboundary(s, phi)), [(dv, dg)])
    return X.consistent(rows, flat_cocycle(cocycle_add(c1, c2, -1)), dv * dg)


def is_pair_morphism(f, src, dst):
    """f(a.b) = f(a).f(b) and f D = D' f on (table, D) regular pairs; f invertible."""
    (t1, D1), (t2, D2) = src, dst
    n = len(t1)
    cols = [X.column(f, i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            if X.mat_vec(f, t1[i][j]) != X.prod(t2, cols[i], cols[j]):
                return False
    return X.mat_mul(f, D1) == X.mat_mul(D2, f) and len(X.rref(f, n)[1]) == n


def bracket_entries(doc):
    return {(tuple(e["wedge"]), e["tail"]): tuple(X.Q(x) for x in e["value"]) for e in doc["entries"]}


def random_cochain(rng, total_dim, arity, density):
    coeffs = {}
    for w in combinations(range(total_dim), arity - 1):
        for t in range(total_dim):
            if rng.random() < density:
                v = [X.Q(0)] * total_dim
                for k in rng.sample(range(total_dim), 2):
                    v[k] = X.Q(rng.choice((-2, -1, 1, 2, 3)))
                coeffs[(w, t)] = v
    return coeffs


# ---------------------------------------------------------------------------
# requests and their checks


class Request:
    """argv for cli_run, the check to apply and what it needs."""

    def __init__(self, argv, check, **info):
        self.argv = argv
        self.check = check
        self.info = info


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = P.cli_run(argv)
    return code, out.getvalue(), err.getvalue()


def _report(result, expect_code):
    code, out, err = result
    problems = [] if code == expect_code else [f"exit {code}, expected {expect_code} ({err.strip()[:120]})"]
    try:
        report = json.loads(out)
    except ValueError:
        return None, problems + [f"stdout is not one JSON report: {out[:80]!r}"]
    return report, problems


def check_validate(info, result, _):
    want = 0 if info["valid"] else 1
    report, problems = _report(result, want)
    if report is not None and report.get("ok") is not info["valid"]:
        problems.append(f"validate ok = {report.get('ok')}, own axiom check says {info['valid']}")
    return problems


def check_mc(info, result, _):
    report, problems = _report(result, 0 if info["valid"] else 1)
    if report is not None:
        if report.get("is_mc") is not info["valid"]:
            problems.append(f"is_mc = {report.get('is_mc')}, own axiom check says {info['valid']}")
        residual = report.get("residual", {})
        if info["valid"] and (residual.get("structure") or residual.get("mixing")):
            problems.append("Maurer-Cartan residual of a valid pair is not exactly zero")
    return problems


def check_bracket(info, result, results):
    report, problems = _report(result, 0)
    if report is None:
        return problems
    other, _ = _report(results[info["partner"]], 0)
    if other is None:
        return problems + ["partner bracket gave no report"]
    fg, gf = bracket_entries(report["result"]), bracket_entries(other["result"])
    sign = -1 if info["pq"] % 2 else 1
    want = {k: tuple(-sign * x for x in v) for k, v in gf.items()}
    if fg != want:
        problems.append("[f, g] != -(-1)^(pq) [g, f]")
    return problems


def check_cohomology(info, result, _):
    report, problems = _report(result, 0)
    if report is not None:
        got = (report.get("z"), report.get("b"), report.get("h"))
        want = OwnComplex(info["cid"], complex_data(info["cid"], info["s"])).zbh(info["n"])
        if got != want:
            problems.append(f"cohomology {info['cid']} degree {info['n']}: {got}, ranks mod p give {want}")
    return problems


def check_deform(info, result, _):
    valid = is_deformation(info["s"], info["d"])
    report, problems = _report(result, 0 if valid else 1)
    if report is not None and report.get("ok") is not valid:
        problems.append(f"deform check ok = {report.get('ok')}, own check says {valid}")
    return problems


def check_deform_class(info, result, _):
    s, d1, d2 = info["s"], info["d1"], info["d2"]
    same = same_deformation_class(s, d1, d2)
    report, problems = _report(result, 0 if same else 1)
    if report is not None and report.get("same_class"):
        N = [[X.Q(x) for x in r] for r in report["witness"]["N"]]
        S = [[X.Q(x) for x in r] for r in report["witness"]["S"]]
        if flat_datum(deform_coboundary(s, N, S)) != flat_datum(datum_add(d1, d2, -1)):
            problems.append("deform class witness (N, S) does not map d1 to d2 to first order")
    return problems


def check_ext_build(info, result, _):
    report, problems = _report(result, 0)
    if report is not None and report.get("ok"):
        s, c = info["s"], info["c"]
        tab, Dt = total(s, c)
        iota, proj = inclusion(s.dg, len(s.module[0]))
        ext = report["extension"]
        got = (ext["total"]["algebra"]["table"], ext["total"]["D"], ext["iota"], ext["proj"])
        want = ([[vec(v) for v in row] for row in tab], mat(Dt), mat(iota), mat(proj))
        if got != want:
            problems.append("ext build: total structure differs from the one built from (theta, xi)")
        if not X.is_regular_pair(tab, Dt):
            problems.append("ext build of a cocycle: own check finds the total is not a regular pair")
    return problems


def check_ext_extract(info, result, _):
    report, problems = _report(result, 0)
    if report is not None and report.get("ok"):
        s, c = info["s"], info["c"]
        dg, dv = s.dg, len(s.module[0])
        want = {k: v for k, v in cocycle_doc(dg, dv, c).items() if k != "kind"}
        if report["cocycle"] != want:
            problems.append("ext extract did not return the cocycle the extension was built from")
        K, rho, mu = s.module
        if report["module"] != {"dim_v": dv, "K": mat(K), "rho": [mat(m) for m in rho], "mu": [mat(m) for m in mu]}:
            problems.append("ext extract did not return the module the extension was built from")
    return problems


def check_ext_classify(info, result, _):
    s, c1, c2 = info["s"], info["c1"], info["c2"]
    same = same_extension_class(s, c1, c2)
    report, problems = _report(result, 0 if same else 1)
    if report is not None and report.get("same_class"):
        zeta = [[X.Q(x) for x in r] for r in report["zeta"]]
        if not is_pair_morphism(zeta, total(s, c1), total(s, c2)):
            problems.append("ext classify: zeta is not an isomorphism of the two extensions")
    return problems


def check_les(info, result, _):
    report, problems = _report(result, 0)
    if report is not None:
        if report.get("all_exact") is not True:
            problems.append("les reports a non-exact node")
        data = complex_data("pair", info["s"])
        owns = {cid: OwnComplex(cid, data) for cid in ("coeffs", "prelie", "pair")}
        for node in report.get("nodes", []):
            want = owns[node["node"]].zbh(node["degree"])[2]
            if node["h"] != want:
                problems.append(f"les node {node['node']} degree {node['degree']}: h = {node['h']}, own h = {want}")
    return problems


def check_malformed(info, result, _):
    code, out, err = result
    problems = []
    if code != 2:
        problems.append(f"malformed document: exit {code}, expected 2")
    if out:
        problems.append("malformed document: a report was printed")
    if info["path"] not in err:
        problems.append(f"malformed document: stderr does not name {info['path']}: {err.strip()[:120]!r}")
    return problems


def check_schema(results, requests):
    import jsonschema

    with open(SCHEMA, encoding="utf-8") as fh:
        validator = jsonschema.Draft202012Validator(json.load(fh))
    problems = []
    for req, (code, out, _) in zip(requests, results):
        if code == 2:
            continue
        try:
            report = json.loads(out)
        except ValueError:
            continue  # reported by the request's own check
        for e in validator.iter_errors(report):
            problems.append(f"{req.argv[0]}: report does not match the schema: {e.message[:120]}")
    return problems


# ---------------------------------------------------------------------------
# the stream


class Docs:
    def __init__(self, workdir):
        self.dir = workdir
        self.count = 0

    def put(self, doc, raw=None):
        self.count += 1
        path = os.path.join(self.dir, f"doc{self.count:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(raw if raw is not None else json.dumps(doc, indent=2, sort_keys=True))
        return path


def perturbed(s, rng):
    """A copy with one product coefficient moved: usually no longer a pair."""
    table = [[list(v) for v in row] for row in s.table]
    i, j, k = (rng.randrange(s.dg) for _ in range(3))
    table[i][j][k] += 1
    rho, mu = (X.left_mult(table), X.right_mult(table)) if s.regular else (s.rho, s.mu)
    return gen.Structure(s.name + "*", table, rho, mu, s.D, s.regular)


def requests(seed, workdir):
    """The requests of one round, with their documents written to workdir."""
    rng = random.Random(seed)
    corpus = {(cid, s.name): s for cid, s in gen.sweep_corpus(rng)}
    docs = Docs(workdir)
    reqs = []

    def add(argv, check, **info):
        reqs.append(Request(list(argv) + ["--json"], check, **info))
        return len(reqs) - 1

    pairs = [corpus["pair", n] for n in ("shift/zero1", "dual/char2", "tri/char2", "shift+line/zero1")]
    regulars = [corpus["regular", n] for n in ("shift", "tri")]

    # validate and mc: valid pairs, regular pairs and perturbed copies
    for s in pairs + regulars + [perturbed(pairs[1], rng), perturbed(pairs[2], rng), perturbed(regulars[0], rng)]:
        valid = X.is_regular_pair(s.table, s.D) if s.regular else X.is_pair(s)
        path = docs.put(pair_doc(s))
        add(["validate", path], check_validate, valid=valid)
        add(["mc", path], check_mc, valid=valid)

    # bracket: two pairs of full cochains, both orders
    for (dg, dv, ap, aq) in ((2, 1, 2, 2), (2, 2, 3, 2)):
        f = docs.put(cochain_doc(dg, dv, ap, random_cochain(rng, dg + dv, ap, 0.3)))
        g = docs.put(cochain_doc(dg, dv, aq, random_cochain(rng, dg + dv, aq, 0.3)))
        pq = (ap - 1) * (aq - 1)
        k = add(["bracket", f, g], check_bracket, pq=pq)
        j = add(["bracket", g, f], check_bracket, pq=pq, partner=k)
        reqs[k].info["partner"] = j

    # one-degree cohomology of each complex
    for cid, s in (("pair", pairs[1]), ("prelie", pairs[3]), ("coeffs", pairs[0]), ("regular", regulars[0])):
        add(["cohomology", docs.put(pair_doc(s)), "--complex", cid, "--degree", "2"], check_cohomology, cid=cid, s=s, n=2)
    rep = corpus["rep", "shift/char2"]
    base = gen.Structure(rep.name, rep.table, rep.rho, rep.mu, rep.D, True)
    add(
        ["cohomology", docs.put(pair_doc(base)), "--complex", "rep", "--degree", "2", "--rep", docs.put(module_doc(rep))],
        check_cohomology,
        cid="rep",
        s=rep,
        n=2,
    )

    # deformations of two module pairs
    for s in pairs[:2]:
        dg, dv = s.dg, s.dv
        base_path = docs.put(pair_doc(s))
        ders = gen.derivation_space(s.table, s.rho, s.mu, dv)
        dhat = gen.random_combination(rng, ders, (dv, dg))
        a = rng.choice(gen.NONZERO)
        scaled = ([[[a * x for x in v] for v in row] for row in s.table], [[[a * x for x in r] for r in m] for m in s.rho], [[[a * x for x in r] for r in m] for m in s.mu], dhat)
        noise = zero_datum(dg, dv)
        noise[0][rng.randrange(dg)][rng.randrange(dg)][rng.randrange(dg)] = X.Q(1)
        for d in (scaled, noise):
            add(["deform", "check", base_path, docs.put(datum_doc(dg, dv, d))], check_deform, s=s, d=d)
        N, S = gen.random_sparse(rng, dg, dg, 2), gen.random_sparse(rng, dv, dv, 1)
        cob = deform_coboundary(s, N, S)
        zero = zero_datum(dg, dv)
        if s is pairs[0]:
            cases = [(datum_add(scaled, cob), scaled)]
        else:
            other = zero[:3] + (gen.random_combination(rng, ders, (dv, dg)),)
            cases = [(cob, zero), (other, zero)]
        for x, y in cases:
            add(["deform", "class", base_path, docs.put(datum_doc(dg, dv, x)), docs.put(datum_doc(dg, dv, y))], check_deform_class, s=s, d1=x, d2=y)

    # abelian extensions over regular pairs with three kinds of module
    tri = corpus["regular", "tri"]
    mods = [corpus["rep", "shift/char2"], corpus["rep", "tri/zero1"], gen.rep_module(rng, "tri/regular3", tri, "regular", 3)]
    for k, s in enumerate(mods):
        dg, dv = s.dg, len(s.module[0])
        base_path = docs.put(pair_doc(gen.Structure(s.name, s.table, s.rho, s.mu, s.D, True)))
        mod_path = docs.put(module_doc(s))
        c = zero_cocycle(dg, dv)
        for b in cocycle_space(s):
            c = cocycle_add(c, b, rng.choice(gen.NONZERO))
        c_path = docs.put(cocycle_doc(dg, dv, c))
        add(["ext", "build", base_path, mod_path, c_path], check_ext_build, s=s, c=c)
        add(["ext", "extract", docs.put(extension_doc(*total(s, c), dg, dv))], check_ext_extract, s=s, c=c)
        if k < 2:
            phi = gen.random_sparse(rng, dv, dg, 2)
            c1 = cocycle_add(c, ext_coboundary(s, phi))
            c2 = c
        else:
            c1, c2 = c, zero_cocycle(dg, dv)
        add(["ext", "classify", base_path, mod_path, docs.put(cocycle_doc(dg, dv, c1)), docs.put(cocycle_doc(dg, dv, c2))], check_ext_classify, s=s, c1=c1, c2=c2)

    # the long exact sequence up to degree 2
    for s in (pairs[1], pairs[3]):
        add(["les", docs.put(pair_doc(s)), "--max", "2"], check_les, s=s)

    # malformed documents: exit 2 naming the JSON path
    good = pair_doc(pairs[1])
    bad_rational = json.loads(json.dumps(good))
    bad_rational["algebra"]["table"][0][1][1] = "1/0"
    no_d = {k: v for k, v in good.items() if k != "D"}
    short_rho = dict(good, rho=good["rho"][:-1])
    extra = dict(good, extra=1)
    text = json.dumps(good)
    path = docs.put(bad_rational)
    add(["validate", path], check_malformed, path="$.algebra.table[0][1][1]")
    add(["cohomology", path, "--complex", "pair", "--degree", "1"], check_malformed, path="$.algebra.table[0][1][1]")
    add(["validate", docs.put(no_d)], check_malformed, path="$: missing field 'D'")
    add(["validate", docs.put(short_rho)], check_malformed, path="$.rho: expected length")
    add(["validate", docs.put(extra)], check_malformed, path="$: unknown field 'extra'")
    add(["validate", docs.put(None, raw=text[: len(text) // 2])], check_malformed, path="$: not valid JSON")
    s = pairs[0]
    bad_datum = datum_doc(s.dg, s.dv, zero_datum(s.dg, s.dv))
    bad_datum["dhat"][0][0] = 0.5
    add(["deform", "check", docs.put(pair_doc(s)), docs.put(bad_datum)], check_malformed, path="$.dhat[0][0]: expected a rational string")

    return reqs


def build(seed, workdir):
    reqs = requests(seed, workdir)
    ops = [lambda argv=r.argv: run_cli(argv) for r in reqs]

    def check(results):
        problems = []
        for r, res in zip(reqs, results):
            problems += [f"{' '.join(r.argv[:2])}: {p}" for p in r.check(r.info, res, results)]
        return problems + check_schema(results, reqs)

    return Workload(ops, check)
