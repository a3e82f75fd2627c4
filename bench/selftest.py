#!/usr/bin/env python3
"""Shows that every output check of the benchmark rejects a planted wrong answer.

    python3 bench/selftest.py          (from the repository root)

Each check is first given the program's real output, which it must
accept, then the same output with one planted error, which it must
reject. Prints one line per case and exits 1 if any case misbehaves.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.getcwd(), "src"), BENCH]

import prelieder as P  # noqa: E402

import gen  # noqa: E402
import requests_stream as R  # noqa: E402
import workloads as W  # noqa: E402
from run import OUT, compare_rounds  # noqa: E402

failures = []


def case(name, real_problems, planted_problems):
    ok = not real_problems and bool(planted_problems)
    print(f"{'ok  ' if ok else 'FAIL'} {name}: real output {'accepted' if not real_problems else real_problems[:1]}, "
          f"planted error {'rejected' if planted_problems else 'ACCEPTED'}")
    if not ok:
        failures.append(name)


def cohomology_cases():
    corpus = {(cid, s.name): s for cid, s in gen.sweep_corpus(random.Random(1))}
    s = corpus["pair", "tri/char2"]
    data = W.complex_data("pair", s)
    own = W.OwnComplex("pair", data)
    z, b, h = P.cohomology_dim("pair", 2, data)
    case("sweep: (z, b, h) against ranks mod p", W.check_zbh(own, 2, (z, b, h)), W.check_zbh(own, 2, (z + 1, b, h + 1)))

    mats = {n: P.differential_matrix("pair", n, data) for n in (1, 2, 3)}
    rows = [list(r) for r in mats[2].entries]
    i, j = next((i, j) for i, r in enumerate(rows) for j, x in enumerate(r) if x)
    rows[i][j] += 1
    planted = dict(mats)
    planted[2] = P.Matrix(mats[2].rows, mats[2].cols, rows)
    case("sweep: d_(n+1) d_n = 0", W.check_d_squared("pair", mats), W.check_d_squared("pair", planted))

    ab = corpus["pair", "ab2/zero2"]
    got = P.cohomology_dim("pair", 2, W.complex_data("pair", ab))
    case("sweep: abelian closed form", W.check_closed_form("pair", 2, 2, 2, got), W.check_closed_form("pair", 2, 2, 2, (got[0], 1, got[2] - 1)))

    case("runner: every round gives the outputs of round 1", compare_rounds([1, 2, 1, 2], 2), compare_rounds([1, 2, 1, 3], 2))


def _edit(result, fn):
    """A copy of a cli result whose JSON report is changed by fn(report)."""
    code, out, err = result
    report = json.loads(out)
    new_code = fn(report)
    return (code if new_code is None else new_code, json.dumps(report), err)


def _flip(result, field):
    def fn(report):
        report[field] = not report[field]
        return 1 - result[0]

    return _edit(result, fn)


def _bump(m):
    m[0][0] = str(R.X.Q(m[0][0]) + 1)


def plant(check, info, result):
    """The result with one error that `check` must notice."""
    if check is R.check_validate:
        return _flip(result, "ok")
    if check is R.check_mc:
        return _flip(result, "is_mc")
    if check is R.check_bracket:
        return _edit(result, lambda r: _bump([r["result"]["entries"][0]["value"]]))
    if check is R.check_cohomology:
        return _edit(result, lambda r: r.__setitem__("z", r["z"] + 1))
    if check is R.check_deform:
        return _flip(result, "ok")
    if check is R.check_deform_class:
        if result[0] == 0:
            return _edit(result, lambda r: _bump(r["witness"]["N"]))
        return (0, result[1], result[2])
    if check is R.check_ext_build:
        return _edit(result, lambda r: _bump(r["extension"]["total"]["D"]))
    if check is R.check_ext_extract:
        return _edit(result, lambda r: _bump([(r["cocycle"]["f"] or r["cocycle"]["theta"])[0]["value"]]))
    if check is R.check_ext_classify:
        if result[0] == 0:
            return _edit(result, lambda r: _bump(r["zeta"][-1:]))
        return (0, result[1], result[2])
    if check is R.check_les:
        return _edit(result, lambda r: r["nodes"][0].__setitem__("h", r["nodes"][0]["h"] + 1))
    if check is R.check_malformed:
        return (1, result[1], "error: something went wrong")
    raise AssertionError(check)


def requests_cases():
    workdir = os.path.join(OUT, "selftest")
    os.makedirs(workdir, exist_ok=True)
    try:
        reqs = R.requests(1, workdir)
        results = [R.run_cli(r.argv) for r in reqs]
        seen = set()
        for k, (r, res) in enumerate(zip(reqs, results)):
            variant = (r.check.__name__, r.argv[0], res[0])
            if variant in seen:
                continue
            seen.add(variant)
            planted = plant(r.check, r.info, res)
            others = results[:k] + [planted] + results[k + 1 :]
            case(f"requests: {r.check.__name__} on {' '.join(r.argv[:2])} (exit {res[0]})", r.check(r.info, res, results), r.check(r.info, planted, others))
        k = next(k for k, r in enumerate(reqs) if r.check is R.check_validate)
        extra = _edit(results[k], lambda r: r.__setitem__("extra", 1))
        case("requests: reports match docs/report.schema.json", R.check_schema(results, reqs), R.check_schema(results[:k] + [extra] + results[k + 1 :], reqs))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    cohomology_cases()
    requests_cases()
    print(f"{len(failures)} case(s) misbehaved" if failures else "every check accepts the real output and rejects the planted error")
    sys.exit(1 if failures else 0)
