"""Checks of the program's CLI output against the reference values.

``check_call(argv, code, stdout)`` returns a list of error strings, empty
when the output of that call is right.  It knows the three kinds of call
the workloads make: ``check``, ``resolve`` and ``dual --emit json``.
"""

from __future__ import annotations

import json
from fractions import Fraction

import reference as ref

# The CLI's documented default grid and check battery, in report order.
GRID = ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2))
CHECKS = ("qh", "cover", "borel", "koszul", "standard-koszul",
          "delta-koszul", "socle-lemmas", "degree-law", "dual",
          "dual-koszul")


def option(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def point(argv):
    return int(option(argv, "--n")), int(option(argv, "--s"))


def vertex(text):
    return tuple(int(c) for c in text.split(","))


def check_call(argv, code, stdout) -> list:
    if code != 0:
        return [f"exit code {code}"]
    try:
        doc = json.loads(stdout)
    except ValueError as e:
        return [f"output is not JSON: {e}"]
    checker = {"check": _check_reports, "resolve": _check_resolution,
               "dual": _check_dual_presentation}.get(argv[0])
    if checker is None:
        return [f"no checker for {argv[0]!r}"]
    try:
        return checker(argv, doc)
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        return [f"malformed output: {e!r}"]


# ---------------------------------------------------------------------------
# check reports


def _check_reports(argv, doc):
    name = argv[1]
    names = CHECKS if name == "all" else (name,)
    points = [point(argv)] if "--n" in argv else GRID
    want = [(c, n, s) for n, s in points for c in names]
    results = doc.get("results", [])
    got = [(r.get("check"), r.get("n"), r.get("s")) for r in results]
    if got != want:
        return [f"reports for {got}, expected {want}"]
    errors = [] if doc.get("passed") is True else ["top-level passed is not true"]
    for r in results:
        where = f"{r['check']} at ({r['n']},{r['s']})"
        report = r.get("report", {})
        if r.get("passed") is not True or report.get("passed") is not True:
            errors.append(f"{where}: not passed")
        errors += [f"{where}: {e}" for e in
                   _REPORT_CHECKS.get(r["check"], _no_extra)(
                       r["n"], r["s"], report)]
    return errors


def _no_extra(n, s, report):
    return []


def _socle_lemmas(n, s, report):
    want = ref.dual_dimension(n, s)
    if report.get("dim") != want:
        return [f"shifted dual dim {report.get('dim')}, predicted {want}"]
    return []


def _koszul(n, s, report):
    modules = report.get("modules", {})
    want = {ref.name(x) for x in ref.vertices(n, s)}
    if set(modules) != want:
        return [f"resolved simples {sorted(modules)}, expected {sorted(want)}"]
    return [f"simple {x} not linear and complete" for x, m in
            sorted(modules.items())
            if m.get("linear") is not True or m.get("complete") is not True]


def _dual(n, s, report):
    errors = [f"{flag} is {report.get(flag)}" for flag, want in
              (("arrows_equal", True), ("relations_equal", True),
               ("relations_rescaled", False))
              if report.get(flag) is not want]
    sc = report.get("simple_costandard", {})
    if sc.get("passed") is not True:
        errors.append("simple_costandard not passed")
    names = [ref.name(x) for x in ref.vertices(n, s)]
    want = {f"{y}->{x}": int(x == y) for x in names for y in names}
    if sc.get("hom_dims") != want:
        errors.append("dim Hom(Delta_y, Nabla_x) is not the identity")
    return errors


_REPORT_CHECKS = {"socle-lemmas": _socle_lemmas, "koszul": _koszul,
                  "dual": _dual}


# ---------------------------------------------------------------------------
# resolutions of simples


def _check_resolution(argv, doc):
    kind, _, vtext = option(argv, "--module").partition(":")
    if kind != "simple" or option(argv, "--grading", "length") != "length":
        return [f"no reference for {option(argv, '--module')}"]
    n, s = point(argv)
    errors = []
    if doc.get("complete") is not True:
        errors.append("resolution not complete")
    if doc.get("linear", {}).get("linear") is not True:
        errors.append("resolution not linear")
    want = ref.simple_resolution(n, s, vertex(vtext))
    steps = doc.get("steps", [])
    if len(steps) != len(want):
        errors.append(f"{len(steps)} steps, predicted {len(want)}")
    for i, (got, level) in enumerate(zip(steps, want)):
        have = {(t["vertex"], t["shift"]): t["mult"] for t in got}
        expect = {(ref.name(y), i): m for y, m in level.items()}
        if have != expect:
            errors.append(f"step {i}: {sorted(have.items())}, "
                          f"predicted {sorted(expect.items())}")
    return errors


# ---------------------------------------------------------------------------
# the extracted dual presentation


def _check_dual_presentation(argv, doc):
    n, s = point(argv)
    errors = []
    verts = [ref.name(x) for x in ref.vertices(n, s)]
    if doc.get("vertices") != verts:
        errors.append("vertex list differs from the simplex")
    arrows = {(vertex(a["src"]), vertex(a["tgt"]), a["i"])
              for a in doc.get("arrows", [])}
    if len(doc.get("arrows", [])) != len(ref.cover_arrows(n, s)):
        errors.append(f"{len(doc.get('arrows', []))} arrows, the cover's "
                      f"quiver has {len(ref.cover_arrows(n, s))}")
    if arrows != ref.dual_arrows(n, s):
        errors.append("arrows differ from the closed form")
    rels = []
    for terms in doc.get("relations", []):
        srcs = {t["src"] for t in terms}
        if len(srcs) != 1 or any(len(t["labels"]) != 2 for t in terms):
            errors.append(f"relation {terms} is not quadratic and homogeneous")
            continue
        rels.append((vertex(srcs.pop()),
                     {tuple(t["labels"]): Fraction(t["coeff"])
                      for t in terms}))
    try:
        blocks = ref.relation_blocks(rels, n, s)
    except (IndexError, KeyError, ValueError) as e:
        return errors + [f"relations do not live on the dual quiver: {e}"]
    want = ref.dual_relation_blocks(n, s)
    for key in sorted(set(blocks) | set(want)):
        if blocks.get(key) != want.get(key):
            errors.append(f"relations from {ref.name(key[0])} to "
                          f"{ref.name(key[1])} differ from the closed form")
    return errors
