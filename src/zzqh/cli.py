"""Batch command line surface.

Subcommands build the algebras, dump bases and dimension tables, run
minimal resolutions, execute the check suites, and emit DOT or JSON.
All JSON output is canonically ordered, so identical invocations
produce byte-identical bytes.

Exit codes: 0 everything requested succeeded, 1 at least one check
failed (the report carries a witness), 2 argument errors, 3 a
computation hit its step cap.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from fractions import Fraction
from functools import cache, partial

from .algebra import (AlgebraInstance, NonTerminationError, Presentation,
                      compute_basis, presentation_borel, presentation_cover,
                      presentation_dual_conjectured, presentation_zigzag,
                      quadratic_dual, scope)
from .extdual import (build_dual_from_ext, check_degree_law,
                      check_dual_koszul, check_simple_costandard_dims,
                      compare_dual, dual_presentation_json, ext_table,
                      relations_json)
from .koszul import (brauer_line_presentation, check_delta_koszul,
                     check_koszul, check_shifted_dual_lemmas,
                     check_standard_koszul, counterexample_presentation,
                     fixture_brauer_line, fixture_counterexample,
                     loop_presentation)
from .modules import (algebra_order, canonical_module, is_linear,
                      minimal_resolution)
from .qh import check_borel, check_cover, check_quasi_hereditary
from .quiver import build_quiver, export_dot, order_data, vertex_name

EXIT_OK, EXIT_FAIL, EXIT_USAGE, EXIT_NONTERM = 0, 1, 2, 3

GRID = ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2))

CHECKS = ("qh", "cover", "borel", "koszul", "standard-koszul",
          "delta-koszul", "socle-lemmas", "degree-law", "dual",
          "dual-koszul")

ALGEBRA_KINDS = ("zigzag", "cover", "borel", "qdual", "dual-conjectured",
                 "dual-built")

# The checks that run on each algebra kind; other pairs are usage errors.
CHECK_ALGEBRAS = {"cover": CHECKS, "zigzag": ("qh", "koszul")}

FIXTURES = ("counterexample", "loop", "brauer-line")

MODULE_KINDS = ("simple", "projective", "injective", "standard",
                "costandard")


class UsageError(Exception):
    pass


def _jsonable(obj):
    """Reports carry Fractions, tuples and report objects; flatten to
    plain JSON values with deterministic key order."""
    if hasattr(obj, "as_dict"):
        return _jsonable(obj.as_dict())
    if isinstance(obj, Fraction):
        return int(obj) if obj.denominator == 1 else str(obj)
    if isinstance(obj, dict):
        return {_key(k): _jsonable(v) for k, v in sorted(
            obj.items(), key=lambda kv: _key(kv[0]))}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = [_jsonable(v) for v in obj]
        return sorted(items, key=json.dumps) if isinstance(
            obj, (set, frozenset)) else items
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, float, str)):
        return obj
    return str(obj)


def _key(k):
    if isinstance(k, tuple):
        return vertex_name(k)
    return k if isinstance(k, str) else str(k)


def _emit(text: str, out: str | None):
    if not text.endswith("\n"):
        text += "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(obj, out: str | None):
    _emit(json.dumps(_jsonable(obj), indent=2, sort_keys=True), out)


def _max_steps(args):
    cap = getattr(args, "max_steps", None)
    env = os.environ.get("ZZQH_MAX_STEPS")
    if cap is None and env:
        try:
            cap = int(env)
        except ValueError:
            raise UsageError(f"ZZQH_MAX_STEPS is not an integer: {env!r}") from None
    if cap is not None and cap < 1:
        raise UsageError(f"the step cap must be at least 1, got {cap}")
    return cap


def _presentation(kind: str, n, s) -> Presentation:
    if kind.startswith("fixture:"):
        name = kind.split(":", 1)[1]
        make = {"counterexample": counterexample_presentation,
                "loop": loop_presentation,
                "brauer-line": partial(brauer_line_presentation,
                                        2 if s is None else s)}.get(name)
        if make is None:
            raise UsageError(f"unknown fixture: {name!r}")
    elif kind not in ALGEBRA_KINDS:
        raise UsageError(f"unknown algebra kind: {kind!r}")
    elif n is None or s is None:
        raise UsageError(f"algebra kind {kind!r} needs --n and --s")
    else:  # qdual and dual-built are built from the cover
        make = partial({"zigzag": presentation_zigzag, "borel": presentation_borel,
                        "dual-conjectured": presentation_dual_conjectured,
                        }.get(kind, presentation_cover), n, s)
    try:
        pres = make()
    except ValueError as e:  # parameters out of range for the algebra
        raise UsageError(str(e)) from None
    if kind == "qdual":
        return quadratic_dual(pres)
    if kind == "dual-built":
        return build_dual_from_ext(compute_basis(pres))
    return pres


def _instance(kind: str, n, s, cap) -> AlgebraInstance:
    pres = _presentation(kind, n, s)
    return compute_basis(pres) if cap is None else compute_basis(pres, cap)


def algebra_json(pres: Presentation, inst: AlgebraInstance = None) -> dict:
    out = {
        "kind": pres.kind,
        "params": dict(pres.params),
        "vertices": [vertex_name(v) for v in pres.vertices],
        "arrows": [{"src": vertex_name(a.source),
                    "tgt": vertex_name(a.target),
                    "label": a.label,
                    "bidegree": list(a.bidegree)} for a in pres.arrows],
        "relations": relations_json(pres),
    }
    if inst is not None:
        out["dim"] = inst.dim()
        out["dims_by_length"] = inst.dims_by_length()
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_build(args) -> int:
    try:
        inst = _instance(args.algebra, args.n, args.s, _max_steps(args))
    except NonTerminationError as e:
        _emit_json({"algebra": args.algebra,
                    "nonterminating": True,
                    "max_length": e.max_len,
                    "dims_so_far": e.dims}, args.out)
        return EXIT_NONTERM
    _emit_json(algebra_json(inst.presentation, inst), args.out)
    return EXIT_OK


def cmd_dims(args) -> int:
    inst = _instance(args.algebra, args.n, args.s, _max_steps(args))
    verts = inst.presentation.vertices
    blocks = {}
    for x in verts:
        for y in verts:
            table = inst.block_bidegrees(x, y)
            if table:
                blocks[f"{vertex_name(x)}|{vertex_name(y)}"] = {
                    vertex_name(d): m for d, m in sorted(table.items())}
    _emit_json({"algebra": args.algebra, "n": args.n, "s": args.s,
                "dim": inst.dim(), "dims_by_length": inst.dims_by_length(),
                "blocks": blocks}, args.out)
    return EXIT_OK


def cmd_cartan(args) -> int:
    inst = _instance(args.algebra, args.n, args.s, _max_steps(args))
    verts = inst.presentation.vertices
    matrix = [[inst.dim_block(x, y) for y in verts] for x in verts]
    _emit_json({"algebra": args.algebra, "n": args.n, "s": args.s,
                "vertices": [vertex_name(v) for v in verts],
                "matrix": matrix}, args.out)
    return EXIT_OK


def cmd_resolve(args) -> int:
    if ":" not in args.module:
        raise UsageError("--module wants kind:vertex, e.g. simple:0,2")
    kind, _, vtext = args.module.partition(":")
    if kind not in MODULE_KINDS:
        raise UsageError(f"unknown module kind: {kind!r}")
    cap = _max_steps(args)
    inst = _instance(args.algebra, args.n, args.s, cap)
    x = next((v for v in inst.presentation.vertices
              if vertex_name(v) == vtext), None)
    if x is None:
        raise UsageError(f"no vertex {vtext!r} in this algebra")
    if kind in ("standard", "costandard"):
        try:
            algebra_order(inst)
        except ValueError:  # only covers and Borels carry an order
            raise UsageError(f"no partial order on --algebra {args.algebra!r}, "
                             f"so no {kind} module") from None
    res = minimal_resolution(canonical_module(inst, kind, x), max_steps=cap)
    steps = []
    for terms in res.terms:
        counts = {}
        for v, d in terms:
            shift = d[0] if args.grading == "flat" else d[0] + d[1]
            key = (vertex_name(v), shift)
            counts[key] = counts.get(key, 0) + 1
        steps.append([{"vertex": v, "shift": sh, "mult": m}
                      for (v, sh), m in sorted(counts.items())])
    _emit_json({"algebra": args.algebra, "n": args.n, "s": args.s,
                "module": args.module, "grading": args.grading,
                "complete": res.complete, "length": res.length,
                "linear": is_linear(res, args.grading),
                "steps": steps}, args.out)
    return EXIT_OK if res.complete else EXIT_NONTERM


def _check_one(name: str, n: int, s: int, basis, cap):
    """One named check at one grid point on a pair of ``CHECK_ALGEBRAS``;
    ``basis()`` is the point's algebra, which its checks share.  Returns
    a plain report dict with a ``passed`` entry."""
    if name == "socle-lemmas":
        return check_shifted_dual_lemmas(n, s)
    if name == "dual-koszul":
        return check_dual_koszul(n, s)
    cover = basis()  # or the zigzag algebra, for qh and koszul only
    if name == "qh":
        order = (order_data(build_quiver(n, s - 1))
                 if cover.presentation.kind == "zigzag" else None)
        return check_quasi_hereditary(cover, order=order, max_steps=cap)
    if name == "koszul":
        return check_koszul(cover, max_steps=cap)
    if name == "cover":
        return check_cover(cover)
    if name == "borel":
        with scope():  # the Borel and its opposite go when the check returns
            return check_borel(cover, compute_basis(presentation_borel(n, s)))
    if name == "standard-koszul":
        return check_standard_koszul(cover)
    if name == "delta-koszul":
        return check_delta_koszul(cover)
    table = ext_table(cover)
    if name == "degree-law":
        return check_degree_law(table)
    built = build_dual_from_ext(cover, table)
    report = compare_dual(built, presentation_dual_conjectured(n, s), table)
    report["simple_costandard"] = check_simple_costandard_dims(cover)
    report["passed"] = (report["passed"]
                        and report["simple_costandard"]["passed"])
    return report


def _report_passed(report) -> bool:
    if hasattr(report, "passed"):
        return bool(report.passed())
    return bool(report.get("passed"))


def cmd_check(args) -> int:
    supported = CHECK_ALGEBRAS.get(args.algebra, ())
    names = list(supported) if args.name == "all" else [args.name]
    if not supported or names[0] not in supported:
        raise UsageError(f"check {args.name!r} does not run on "
                         f"--algebra {args.algebra!r}")
    if (args.n is None) != (args.s is None):
        raise UsageError("--n and --s go together")
    if args.n is not None:  # parameters out of range fail before any check
        _presentation(args.algebra, args.n, args.s)
    points = [(args.n, args.s)] if args.n is not None else list(GRID)
    cap = _max_steps(args)
    results, worst = [], EXIT_OK
    for n, s in points:
        # built on first use, under the step cap, and freed with the point
        with scope():
            basis = cache(partial(_instance, args.algebra, n, s, cap))
            for name in names:
                try:
                    report = _check_one(name, n, s, basis, cap)
                    code = EXIT_OK if _report_passed(report) else EXIT_FAIL
                except NonTerminationError as e:
                    code, report = EXIT_NONTERM, {"passed": False,
                                                  "nonterminating": True,
                                                  "max_length": e.max_len,
                                                  "dims_so_far": e.dims}
                worst = max(worst, code)
                results.append({"check": name, "n": n, "s": s,
                                "passed": code == EXIT_OK,
                                "report": _jsonable(report)})
    _emit_json({"passed": worst == EXIT_OK, "results": results}, args.out)
    return worst


def cmd_dual(args) -> int:
    cover = _instance("cover", args.n, args.s, _max_steps(args))
    built = build_dual_from_ext(cover)
    if args.emit == "dot":
        _emit(export_dot(built), args.out)
    else:
        _emit_json(dual_presentation_json(built), args.out)
    return EXIT_OK


def cmd_fixtures(args) -> int:
    reports = {"counterexample": fixture_counterexample(),
               "brauer-line": {str(s): fixture_brauer_line(s) for s in (2, 3)}}
    passed = (reports["counterexample"]["passed"]
              and all(r["passed"] for r in reports["brauer-line"].values()))
    _emit_json({"passed": passed, "reports": reports}, args.out)
    return EXIT_OK if passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# argument plumbing


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="zzqh",
        description="zigzag covers: builds, dimension tables, resolutions, "
                    "check suites, dual extraction")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, algebra=None):
        p.add_argument("--n", type=int, help="number of colours minus one")
        p.add_argument("--s", type=int, help="weight")
        p.add_argument("--max-steps", type=int,
                       help="step cap for basis and resolution computations "
                            "(ZZQH_MAX_STEPS also works)")
        p.add_argument("--out", help="write the report here instead of stdout")
        if algebra:
            p.add_argument("--algebra", default=algebra,
                           help="one of %s or fixture:<%s>" % (
                               "|".join(ALGEBRA_KINDS), "|".join(FIXTURES)))

    common(sub.add_parser("build", help="emit the algebra as JSON"),
           algebra="cover")
    common(sub.add_parser("dims", help="dimension tables per length and "
                                       "bidegree"), algebra="cover")
    common(sub.add_parser("cartan", help="Cartan matrix"), algebra="cover")

    p = sub.add_parser("resolve", help="minimal resolution of one module")
    common(p, algebra="cover")
    p.add_argument("--module", required=True,
                   help="kind:vertex, kind one of %s" % "|".join(MODULE_KINDS))
    p.add_argument("--grading", choices=("length", "flat"), default="length")

    p = sub.add_parser("check", help="run a check suite")
    common(p, algebra="cover")
    p.add_argument("name", choices=CHECKS + ("all",))

    p = sub.add_parser("dual", help="extract the dual presentation")
    common(p)
    p.add_argument("--emit", choices=("dot", "json"), default="json")

    p = sub.add_parser("fixtures", help="run the recorded fixtures")
    common(p)
    return top


COMMANDS = {"build": cmd_build, "dims": cmd_dims, "cartan": cmd_cartan,
            "resolve": cmd_resolve, "check": cmd_check, "dual": cmd_dual,
            "fixtures": cmd_fixtures}


def run_cli(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code else EXIT_OK
    enabled = gc.isenabled()
    gc.disable()  # the scope frees all that a call derives by refcounting
    try:
        with scope():  # nothing the command derives outlives it
            return COMMANDS[args.command](args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except NonTerminationError as e:
        _emit_json({"nonterminating": True, "max_length": e.max_len,
                    "dims_so_far": e.dims}, getattr(args, "out", None))
        return EXIT_NONTERM
    finally:
        if enabled:
            gc.enable()


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
