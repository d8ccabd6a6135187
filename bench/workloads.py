"""The four benchmark workloads and their exact output checks.

A workload is built by a setup function ``setup_<name>(tf, seed)``, where
``tf`` is a namespace holding the freshly imported tetraflows modules.  Setup
returns the list of operations of one pass.  An operation is a named
callable that takes the pass's scratch dict, does one timed piece of work
and returns whether its output passed an exact check.  Every call into the
package goes through the module attribute (``tf.graphflow.gamma1``), so the
wrappers of a traced run are seen.

Every operation is short (tens to a few hundred milliseconds), so a run
times each one many times and can take its lower-quartile time (see run.py).

Why these four:

* ``grid``: the builtin example grid row by row, as ``tables`` computes and
  prints it, plus one CLI call; it touches all six modules, and its many
  small and medium products stress per-call overhead.
* ``flows``: the largest operands and deepest index loops (an
  even-dimensional bracket of dim 8 and one of dim 6); almost all of its
  time is polynomial kernel work inside the closed-form flows.
* ``graph_generic``: the index-enumerating graph evaluator, which the closed
  forms bypass.
* ``probe``: the only workload with an eps exponent slot, Fraction
  coefficients and the exact null-space solver.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
import traceback
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

EXPECTED = Path(__file__).resolve().parent / "expected.json"


class Op(NamedTuple):
    name: str
    run: Callable[[dict], bool]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def mv_digest(mv) -> str:
    """Digest of a multi-vector's canonical JSON document."""
    return sha256(json.dumps(mv.to_json_dict(), sort_keys=True, separators=(",", ":")))


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def run_pass(ops: "list[Op]", times: "dict | None" = None) -> "list[str]":
    """Run one pass; return the names of the operations that failed.

    An operation fails when its check is false or when it raises.  The pass
    goes on after a failure: later operations that need a failed one's
    output raise in turn and are counted too.  Tracebacks go to stderr.  With ``times``, each
    operation's wall time is appended to ``times[op.name]``.
    """
    scratch: dict = {}
    failed = []
    for op in ops:
        start = time.perf_counter()
        try:
            ok = op.run(scratch)
        except Exception:  # the benchmark counts errors instead of aborting
            traceback.print_exc()
            ok = False
        if times is not None:
            times[op.name].append(time.perf_counter() - start)
        if not ok:
            failed.append(op.name)
    return failed


# -- grid ------------------------------------------------------------------------

# Row 11 (dim 6) is left out: one report of it takes 6-10 s, too long a single
# operation to time many times in a run; `flows` covers the large operands.
GRID_ROWS = tuple(range(1, 11))
CLI_GEN = ("gen", "--vanhaecke", "--d", "4", "--phi", "x^2*y", "--format", "json")


def tables_stdout(report) -> str:
    """What ``tetraflows tables --format json`` prints for ``report``."""
    doc = {"artifact": report.to_json_dict(include_witnesses=True)}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def cli_op(tf, name: str, argv, digest: str) -> Op:
    """``tf.cli.main(argv)`` in-process: exit code 0 and the stdout digest."""

    def call(scratch):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = tf.cli.main(list(argv))
        return rc == 0 and sha256(out.getvalue()) == digest

    return Op(name, call)


def grid_ops(tf, rows, expected: dict) -> "list[Op]":
    """One operation per builtin row: its report must match the reference
    grid, and its JSON document with witnesses must match the stored digest.
    """
    ops = []
    for row in rows:

        def report(scratch, row=row):
            result = tf.analysis.reproduce_tables([row])
            return result.all_match and sha256(tables_stdout(result)) == expected[str(row[0])]

        ops.append(Op(f"row{row[0]}", report))
    return ops


def setup_grid(tf, seed: int) -> "list[Op]":
    expected = load_expected()
    rows = [r for r in tf.analysis.builtin_rows() if r[0] in GRID_ROWS]
    return grid_ops(tf, rows, expected["grid_rows"]) + [
        cli_op(tf, "cli.gen", CLI_GEN, expected["cli_gen_stdout_sha256"])
    ]


# -- flows -------------------------------------------------------------------------


def flow_ops(tf, label: str, spec, expected: dict) -> "list[Op]":
    """Generator, both flows, Q = P1 + 6*P2 and [[P0, Q]] for one spec.

    ``expected`` holds the digests of P0, P1 and P2; [[P0, Q]] must be
    exactly zero.
    """

    def gen(s):
        s[label, "p0"] = tf.generators.build_bivector(spec)
        return mv_digest(s[label, "p0"]) == expected["p0"]

    def flow1(s):
        s[label, "p1"] = tf.graphflow.gamma1(s[label, "p0"]).skew
        return mv_digest(s[label, "p1"]) == expected["p1"]

    def flow2(s):
        s[label, "p2"] = tf.graphflow.gamma2(s[label, "p0"]).skew
        return mv_digest(s[label, "p2"]) == expected["p2"]

    def bracket(s):
        q = tf.multivector.mv_linear_combination([(1, s[label, "p1"]), (6, s[label, "p2"])])
        return tf.multivector.schouten(s[label, "p0"], q).is_zero

    return [
        Op(f"{label}.gen", gen),
        Op(f"{label}.gamma1", flow1),
        Op(f"{label}.gamma2", flow2),
        Op(f"{label}.bracket", bracket),
    ]


def flow_specs(tf) -> dict:
    """Even-dimensional brackets: d = 4, phi = x^2*y (dim 8) and d = 3,
    phi = x^3*y (dim 6)."""
    spec = tf.generators.VanhaeckeSpec
    return {"dim8": spec(4, [(2, 1, 1)]), "dim6": spec(3, [(3, 1, 1)])}


def setup_flows(tf, seed: int) -> "list[Op]":
    expected = load_expected()["flows"]
    return [
        op
        for label, spec in flow_specs(tf).items()
        for op in flow_ops(tf, label, spec, expected[label])
    ]


# -- graph_generic -----------------------------------------------------------------

GRAPH_ROWS = (3, 7, 8)


def row_bivector(tf, row_id: int):
    spec = next(r[2] for r in tf.analysis.builtin_rows() if r[0] == row_id)
    return tf.generators.build_bivector(spec)


def setup_graph_generic(tf, seed: int) -> "list[Op]":
    """Generic evaluation of both tetrahedra on rows 3, 7 and 8 (dim 4).

    The references are the closed-form raw matrices, computed here.
    """
    gf = tf.graphflow
    ops = []
    for row_id in GRAPH_ROWS:
        p = row_bivector(tf, row_id)
        for label, graph, closed in (
            ("gamma1", gf.GAMMA1_GRAPH, gf.gamma1),
            ("gamma2", gf.GAMMA2_GRAPH, gf.gamma2),
        ):
            ref = closed(p).raw

            def evaluate(s, graph=graph, p=p, ref=ref):
                return tf.graphflow.evaluate_kgraph(graph, p).raw == ref

            ops.append(Op(f"row{row_id}.{label}", evaluate))
    return ops


# -- probe ---------------------------------------------------------------------------

PROBE_ROW = 2
RATIO_ROW = 10


# The two terms of each Delta component: exponent vector and the numerators
# its coefficient may have over a fixed denominator.
DELTA_TERMS = (((2, 1), (1, 2), 3), ((1, 1, 1), (1, 3), 4))


def seeded_delta(tf, ctx, rng: random.Random):
    """A bi-vector with two terms per component and seeded coefficients:
    +-1/3 or +-2/3 times (2, 1, 0, ...) and +-1/4 or +-3/4 times
    (1, 1, 1, 0, ...), both rotated by c places in component number c.

    Only the signs and numerators come from ``rng``; the terms and the
    denominators are fixed, so every seed gives the same products of the
    same Fraction sizes, and the work per pass hardly depends on the seed.
    """
    poly = tf.polyring.Polynomial
    pairs = [(i, j) for i in range(1, ctx.dim + 1) for j in range(i + 1, ctx.dim + 1)]
    comps = {}
    for c, pair in enumerate(pairs):
        acc = poly.zero(ctx)
        for base, numerators, denominator in DELTA_TERMS:
            exps = base + (0,) * (ctx.dim - len(base))
            shift = c % ctx.dim
            exps = exps[shift:] + exps[:shift]
            coeff = Fraction(rng.choice((-1, 1)) * rng.choice(numerators), denominator)
            acc = acc + poly.monomial(ctx, exps, coeff)
        comps[pair] = acc
    return tf.multivector.MultiVector(ctx, 2, comps)


def probe_op(tf, name: str, p, delta) -> Op:
    """The eps^1 Jacobi part of P~ = P + eps*Delta must equal 2*[[P, Delta]]."""
    expected_eps1 = tf.multivector.schouten(p, delta).scale(2)
    eps_ctx = p.ctx.with_epsilon()
    p_eps, delta_eps = p.lift(eps_ctx), delta.lift(eps_ctx)
    zero = tf.multivector.MultiVector.zero(p.ctx, 3)

    def probe(s):
        orders = tf.analysis.perturb_probe(p_eps, delta_eps)
        return orders.get(1, (zero, None))[0] == expected_eps1

    return Op(name, probe)


def ratio_ops(tf, p0, expected: dict) -> "list[Op]":
    """Both flows of P0 against stored digests, then the ratio solve, which
    must return exactly span{(1, 6)}."""

    def flow1(s):
        s["b1"] = tf.graphflow.gamma1(p0).skew
        return mv_digest(s["b1"]) == expected["p1"]

    def flow2(s):
        s["b2"] = tf.graphflow.gamma2(p0).skew
        return mv_digest(s["b2"]) == expected["p2"]

    def ratios(s):
        sol = tf.analysis.find_ratios(p0, [s["b1"], s["b2"]])
        return sol.solution_dimension == 1 and sol.basis == ((1, 6),)

    return [Op("ratios.gamma1", flow1), Op("ratios.gamma2", flow2), Op("find_ratios", ratios)]


def setup_probe(tf, seed: int) -> "list[Op]":
    """eps-probes of row 2 with two seeded Deltas, then the 1:6 ratio solve
    on row 10."""
    rng = random.Random(seed)
    p = row_bivector(tf, PROBE_ROW)
    probes = [probe_op(tf, f"probe.{k}", p, seeded_delta(tf, p.ctx, rng)) for k in "ab"]
    ratio = ratio_ops(tf, row_bivector(tf, RATIO_ROW), load_expected()["ratios"])
    return probes + ratio


WORKLOADS = {
    "grid": setup_grid,
    "flows": setup_flows,
    "graph_generic": setup_graph_generic,
    "probe": setup_probe,
}
