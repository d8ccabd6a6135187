"""Command-line interface.

Subcommands: gen, flow, bracket, jacobi, ratios, probe, tables, graph.
Every run is a pure function of (argv, input files); in json mode the output
is byte-identical across runs.  Exit codes: 0 success / assertion held,
1 assertion failed (--assert-zero, grid mismatch, non-Poisson generator
output), 2 usage or parse error.

Bi-vectors and tri-vectors travel as JSON documents
{"dim": n, "degree": k, "components": {"1,2": "<polynomial>", ...}} with
polynomials in the x1..xn grammar.  The even-dimensional generator maps its
coordinates onto x1..x(2d): u_i -> x<i>, v_i -> x<d+i>; gen prints the alias
map alongside the result.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analysis import (
    find_ratios,
    perturb_probe,
    reproduce_tables,
)
from .generators import (
    DetSpec,
    VanhaeckeSpec,
    build_bivector,
    generator_from_json_dict,
)
from .graphflow import (
    balanced_flow,
    evaluate_kgraph,
    gamma1,
    gamma2,
    parse_kgraph,
)
from .multivector import MultiVector, is_poisson, jacobiator, schouten
from .polyring import Context, Polynomial, _number

__all__ = ["main"]


class _UsageError(ValueError):
    pass


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    common.add_argument("--output", metavar="PATH", help="write the artifact JSON to PATH")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    ap = argparse.ArgumentParser(
        prog="tetraflows",
        description="Exact tetrahedral graph flows on polynomial Poisson bi-vectors.",
    )
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")

    gen = sub.add_parser("gen", parents=[common], help="generate a Poisson bi-vector")
    kind = gen.add_mutually_exclusive_group(required=True)
    kind.add_argument("--det", action="store_true", help="determinant construction")
    kind.add_argument("--vanhaecke", action="store_true", help="even-dimensional construction")
    kind.add_argument("--spec", metavar="PATH", help="generator spec JSON file")
    gen.add_argument("--dim", help="dimension n (determinant construction)")
    gen.add_argument(
        "--arg",
        action="append",
        default=[],
        metavar="POLY",
        help="argument polynomial (repeat n-2 times)",
    )
    gen.add_argument("--prefactor", metavar="POLY", help="pre-multiplication factor")
    gen.add_argument("--d", help="degree d (even-dimensional construction)")
    gen.add_argument("--phi", metavar="POLY", help="bivariate polynomial in x, y")

    flow = sub.add_parser("flow", parents=[common], help="apply a tetrahedral flow")
    flow.add_argument("bivector", metavar="P.json")
    flow.add_argument("--which", choices=("gamma1", "gamma2", "balanced"), required=True)
    flow.add_argument("--a", default="1", help="gamma1 weight (balanced flow)")
    flow.add_argument("--b", default="6", help="gamma2 weight (balanced flow)")
    flow.add_argument("--raw", action="store_true", help="also emit the raw matrix")

    bracket = sub.add_parser("bracket", parents=[common], help="Schouten bracket of two bi-vectors")
    bracket.add_argument("left", metavar="P.json")
    bracket.add_argument("right", metavar="Q.json")
    bracket.add_argument("--assert-zero", action="store_true", help="exit 1 unless the bracket vanishes")

    jacobi = sub.add_parser("jacobi", parents=[common], help="Jacobi identity test")
    jacobi.add_argument("bivector", metavar="P.json")
    jacobi.add_argument("--assert-zero", action="store_true", help="exit 1 unless the Jacobiator vanishes")

    ratios = sub.add_parser("ratios", parents=[common], help="exact balance-ratio solver")
    ratios.add_argument("bivector", metavar="P.json")
    ratios.add_argument("basis", nargs="+", metavar="B.json")

    probe = sub.add_parser("probe", parents=[common], help="eps-perturbation probe")
    probe.add_argument("bivector", metavar="P.json")
    probe.add_argument("delta", metavar="Delta.json")

    tables = sub.add_parser("tables", parents=[common], help="reproduce the builtin example grid")
    tables.add_argument(
        "--no-witnesses",
        action="store_true",
        help="omit the nonzero witnesses from json output",
    )

    graph = sub.add_parser("graph", parents=[common], help="evaluate a graph on a bi-vector")
    graph.add_argument("verb", choices=("eval",))
    graph.add_argument("text", metavar="GRAPH", help='e.g. "1; (S1,S2)"')
    graph.add_argument("bivector", metavar="P.json")
    graph.add_argument("--raw", action="store_true", help="also emit the raw matrix")

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        return _dispatch(args)
    except (ValueError, OSError) as exc:  # every error class of the package is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    handler = {
        "gen": _cmd_gen,
        "flow": _cmd_flow,
        "bracket": _cmd_bracket,
        "jacobi": _cmd_jacobi,
        "ratios": _cmd_ratios,
        "probe": _cmd_probe,
        "tables": _cmd_tables,
        "graph": _cmd_graph,
    }[args.command]
    return handler(args)


# -- helpers ---------------------------------------------------------------------


def _load_doc(path: str, build):
    """Build an object from the JSON document in ``path``.

    A file that is not JSON, or a document of the wrong shape (not an
    object, a missing field, a field of the wrong type) or with a bad value,
    is a usage error naming the file.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if isinstance(doc, dict):
            return build(doc)
        detail = f"expected a JSON object, got {type(doc).__name__}"
    except KeyError as exc:
        detail = f"missing field {exc.args[0]!r}"
    except (TypeError, AttributeError) as exc:
        detail = f"malformed document ({exc})"
    except ValueError as exc:
        detail = str(exc)
    raise _UsageError(f"{path}: {detail}")


def _load_mv(path: str) -> MultiVector:
    mv = _load_doc(path, MultiVector.from_json_dict)
    if mv.degree != 2:
        raise _UsageError(f"{path}: expected a degree-2 multi-vector, got degree {mv.degree}")
    return mv


def _emit(args, doc: dict, text_lines: "list[str]") -> None:
    if args.output:
        artifact = doc.get("artifact", doc)
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(artifact, fh, sort_keys=True, indent=2)
            fh.write("\n")
    if args.format == "json":
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)
        if args.output:
            print(f"wrote: {args.output}")


def _mv_lines(mv: MultiVector, label: str) -> "list[str]":
    if mv.is_zero:
        return [f"{label}: 0"]
    lines = [f"{label}:"]
    for idx, poly in sorted(mv.comps.items()):
        key = ",".join(map(str, idx))
        lines.append(f"  ({key}): {poly.render()}")
    return lines


def _parse_phi(text: str) -> "list[tuple]":
    """Parse a bivariate polynomial in x and y into (a, b, coeff) triples."""
    poly = Polynomial.parse(text, Context(2), names=("x", "y"))
    return sorted((a, b, c) for (a, b), c in poly.items())


# -- subcommands -----------------------------------------------------------------


def _cmd_gen(args) -> int:
    dim, d = (t if t is None else _number(t, flag, integer=True) for t, flag in ((args.dim, "--dim"), (args.d, "--d")))
    if args.spec:
        spec = _load_doc(args.spec, generator_from_json_dict)
    elif args.det:
        if dim is None:
            raise _UsageError("--det requires --dim")
        ctx = Context(dim)
        spec = DetSpec(
            ctx,
            [Polynomial.parse(t, ctx) for t in args.arg],
            Polynomial.parse(args.prefactor, ctx) if args.prefactor else None,
        )
    else:
        if d is None or args.phi is None:
            raise _UsageError("--vanhaecke requires --d and --phi")
        spec = VanhaeckeSpec(d, _parse_phi(args.phi))

    mv = build_bivector(spec)
    poisson = is_poisson(mv)
    doc = {"artifact": mv.to_json_dict(), "is_poisson": poisson}
    lines = [f"poisson: {'true' if poisson else 'false'}"]
    if isinstance(spec, VanhaeckeSpec):
        alias = {f"u{i}": f"x{i}" for i in range(1, spec.d + 1)}
        alias.update({f"v{i}": f"x{spec.d + i}" for i in range(1, spec.d + 1)})
        doc["alias"] = alias
        lines.append("alias: " + ", ".join(f"{k}={v}" for k, v in alias.items()))
    lines.extend(_mv_lines(mv, "bi-vector"))
    _emit(args, doc, lines)
    if not poisson:
        print("error: generator produced a non-Poisson bi-vector", file=sys.stderr)
        return 1
    return 0


def _emit_flow(args, result, label: str) -> None:
    """Emit a flow's skew part, and with --raw also the raw matrix it came
    from.  The raw matrix is read first, so that the skew part is read off
    it and the flow runs one graph sum."""
    raw = result.raw if args.raw else None
    skew = result.skew
    doc = {"artifact": skew.to_json_dict()}
    lines = _mv_lines(skew, label)
    if raw is not None:
        doc = {"artifact": {"skew": doc["artifact"], "raw": raw.to_json_dict()}}
        lines.append("raw matrix:")
        for i, row in enumerate(raw.entries, start=1):
            lines.append(f"  row {i}: " + " | ".join(p.render() for p in row))
    _emit(args, doc, lines)


def _cmd_flow(args) -> int:
    p = _load_mv(args.bivector)
    if args.which == "balanced":
        if args.raw:
            raise _UsageError("--raw applies to gamma1/gamma2 only")
        skew = balanced_flow(p, _number(args.a, "--a"), _number(args.b, "--b"))
        _emit(args, {"artifact": skew.to_json_dict()}, _mv_lines(skew, "balanced skew part"))
    else:
        result = (gamma1 if args.which == "gamma1" else gamma2)(p)
        _emit_flow(args, result, f"{args.which} skew part")
    return 0


def _cmd_bracket(args) -> int:
    p = _load_mv(args.left)
    q = _load_mv(args.right)
    t = schouten(p, q)
    doc = {"artifact": t.to_json_dict(), "is_zero": t.is_zero}
    lines = [f"zero: {'true' if t.is_zero else 'false'}"] + _mv_lines(t, "bracket")
    _emit(args, doc, lines)
    if args.assert_zero and not t.is_zero:
        return 1
    return 0


def _cmd_jacobi(args) -> int:
    p = _load_mv(args.bivector)
    t = jacobiator(p)
    doc = {
        "artifact": t.to_json_dict(),
        "is_zero": t.is_zero,
        "is_poisson": t.is_zero,
    }
    lines = [f"poisson: {'true' if t.is_zero else 'false'}"] + _mv_lines(t, "jacobiator")
    _emit(args, doc, lines)
    if args.assert_zero and not t.is_zero:
        return 1
    return 0


def _cmd_ratios(args) -> int:
    p = _load_mv(args.bivector)
    basis = [_load_mv(path) for path in args.basis]
    sol = find_ratios(p, basis)
    doc = {
        "artifact": {
            "dimension": sol.solution_dimension,
            "basis": [list(v) for v in sol.basis],
        }
    }
    if sol.solution_dimension == 0:
        lines = ["solution space dim 0: only the trivial combination"]
    else:
        vecs = "; ".join("(" + ", ".join(map(str, v)) + ")" for v in sol.basis)
        lines = [f"solution space dim {sol.solution_dimension}: {vecs}"]
    _emit(args, doc, lines)
    return 0


def _cmd_probe(args) -> int:
    p = _load_mv(args.bivector)
    delta = _load_mv(args.delta)
    if p.ctx != delta.ctx:
        raise _UsageError("P and Delta must share one context")
    eps_ctx = p.ctx.with_epsilon()
    orders = perturb_probe(p.lift(eps_ctx), delta.lift(eps_ctx))
    doc = {
        "artifact": {
            "orders": {
                str(k): {
                    "jacobi": jv.to_json_dict(),
                    "compat": cv.to_json_dict(),
                }
                for k, (jv, cv) in orders.items()
            }
        }
    }
    lines = []
    if not orders:
        lines.append("all eps-orders vanish")
    for k, (jv, cv) in orders.items():
        lines.extend(_mv_lines(jv, f"eps^{k} of [[P~,P~]]"))
        lines.extend(_mv_lines(cv, f"eps^{k} of [[P~,Q(P~)]]"))
    _emit(args, doc, lines)
    return 0


def _cmd_tables(args) -> int:
    report = reproduce_tables()
    doc = {"artifact": report.to_json_dict(include_witnesses=not args.no_witnesses)}
    lines = report.render_text().splitlines()
    _emit(args, doc, lines)
    return 0 if report.all_match else 1


def _cmd_graph(args) -> int:
    g = parse_kgraph(args.text)
    p = _load_mv(args.bivector)
    _emit_flow(args, evaluate_kgraph(g, p), "skew part")
    return 0


if __name__ == "__main__":
    sys.exit(main())
