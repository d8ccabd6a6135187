"""Tests of the benchmark itself: its output checks and its tracer.

Run from the root of a checkout:

    python3 bench/selftest.py

Most use small inputs (builtin row 7, dim 4); the check that the grid rows
join into the CLI's stored output computes all 11 rows and takes 10-20 s.
The file is not named test_*.py, so the package's own pytest run does not
collect it.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import types
import unittest

import run
import workloads
from reference import REFERENCE_S, Reference
from tracing import PER_LAYER, Tracer
from workloads import Op, run_pass

sys.path.insert(0, str(run.SRC))


def row7(tf):
    return next(r[2] for r in tf.analysis.builtin_rows() if r[0] == 7)


def digests(tf, spec) -> dict:
    p0 = tf.generators.build_bivector(spec)
    return {
        "p0": workloads.mv_digest(p0),
        "p1": workloads.mv_digest(tf.graphflow.gamma1(p0).skew),
        "p2": workloads.mv_digest(tf.graphflow.gamma2(p0).skew),
    }


def small_flow_ops(tf):
    """flow_ops on builtin row 7 (dim 4) with the right digests."""
    return workloads.flow_ops(tf, "row7", row7(tf), digests(tf, row7(tf)))


def flip(digest: str) -> str:
    return ("0" if digest[0] != "0" else "1") + digest[1:]


class OutputChecks(unittest.TestCase):
    def setUp(self):
        self.tf = run.fresh_import()

    def test_correct_outputs_pass(self):
        self.assertEqual(run_pass(small_flow_ops(self.tf)), [])

    def test_flipped_digest_is_a_failure(self):
        expected = digests(self.tf, row7(self.tf))
        expected["p1"] = flip(expected["p1"])
        ops = workloads.flow_ops(self.tf, "row7", row7(self.tf), expected)
        self.assertEqual(run_pass(ops), ["row7.gamma1"])

    def test_nonzero_q_bracket_is_a_failure(self):
        # Doubling P2 makes Q = P1 + 12*P2, whose bracket with row 7 is
        # nonzero; the digests follow the doubled P2, so only the bracket fails.
        gf = self.tf.graphflow
        doubled = types.SimpleNamespace(
            gamma1=gf.gamma1,
            gamma2=lambda p: types.SimpleNamespace(skew=gf.gamma2(p).skew.scale(2)),
        )
        tampered = types.SimpleNamespace(**{**vars(self.tf), "graphflow": doubled})
        ops = workloads.flow_ops(
            tampered, "row7", row7(self.tf), digests(tampered, row7(self.tf))
        )
        self.assertEqual(run_pass(ops), ["row7.bracket"])

    def test_exception_is_a_failure_and_the_pass_goes_on(self):
        def boom(s):
            raise ValueError("boom")

        ops = [Op("first", boom), Op("second", lambda s: True), Op("third", lambda s: False)]
        self.assertEqual(run_pass(ops), ["first", "third"])

    def test_cli_check_needs_exit_code_zero_and_the_digest(self):
        def fake_cli(rc):
            def main(argv):
                print('{"rows": []}')
                return rc
            return types.SimpleNamespace(cli=types.SimpleNamespace(main=main))

        digest = workloads.sha256('{"rows": []}\n')
        op = workloads.cli_op
        self.assertEqual(run_pass([op(fake_cli(0), "cli", [], digest)]), [])
        self.assertEqual(run_pass([op(fake_cli(0), "cli", [], flip(digest))]), ["cli"])
        self.assertEqual(run_pass([op(fake_cli(1), "cli", [], digest)]), ["cli"])

    def test_flipped_grid_row_digest_is_a_failure(self):
        expected = workloads.load_expected()["grid_rows"]
        rows = [r for r in self.tf.analysis.builtin_rows() if r[0] in (2, 8)]
        self.assertEqual(run_pass(workloads.grid_ops(self.tf, rows, expected)), [])
        expected = {**expected, "8": flip(expected["8"])}
        self.assertEqual(run_pass(workloads.grid_ops(self.tf, rows, expected)), ["row8"])

    def test_grid_rows_join_into_the_cli_output(self):
        # The per-row digests stand for the CLI's byte-identical JSON: the
        # row documents of all 11 rows, joined, give the stored digest of
        # `tetraflows tables --format json`.
        rows = []
        for row in self.tf.analysis.builtin_rows():
            report = self.tf.analysis.reproduce_tables([row])
            rows.extend(report.to_json_dict(include_witnesses=True)["rows"])
        doc = {"artifact": {"rows": rows, "all_match": True}}
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        self.assertEqual(workloads.sha256(text), workloads.load_expected()["grid_stdout_sha256"])

    def test_seeded_delta_depends_only_on_the_seed(self):
        ctx = self.tf.polyring.Context(4)
        a = workloads.seeded_delta(self.tf, ctx, random.Random(5))
        self.assertEqual(a, workloads.seeded_delta(self.tf, ctx, random.Random(5)))
        b = workloads.seeded_delta(self.tf, ctx, random.Random(6))
        self.assertNotEqual(a, b)
        # Only the coefficients change with the seed, not the terms.
        self.assertEqual(
            {k: set(v.terms) for k, v in a.comps.items()},
            {k: set(v.terms) for k, v in b.comps.items()},
        )

    def test_probe_check_is_not_vacuous(self):
        # The eps^1 check compares with 2*[[P, Delta]]; it must not be zero.
        p = workloads.row_bivector(self.tf, workloads.PROBE_ROW)
        for seed in range(1, 6):
            delta = workloads.seeded_delta(self.tf, p.ctx, random.Random(seed))
            self.assertFalse(self.tf.multivector.schouten(p, delta).is_zero, seed)


class Tracing(unittest.TestCase):
    def setUp(self):
        self.tf = run.fresh_import()

    def traced_counts(self):
        ops = small_flow_ops(self.tf)
        with Tracer() as tracer:
            tracer.install(self.tf)
            result = run.measure(ops, 0, Reference(), tracer)
        self.assertEqual(result["failures"], [])
        metrics = run.layer_metrics(result["stats"], 1.0)
        return {n: m["value"] for n, m in metrics.items() if m["unit"] == "count"}

    def test_counts_repeat_exactly(self):
        first = self.traced_counts()
        self.assertGreater(first["polyring.mul.calls"], 0)
        self.assertEqual(first, self.traced_counts())

    def test_wrappers_cover_every_namespace_and_are_removed(self):
        tf = self.tf
        package = sys.modules["tetraflows"]
        poly = tf.polyring.Polynomial
        with Tracer() as tracer:
            tracer.install(tf)
            for fn in (
                tf.analysis.gamma1,
                tf.cli.gamma1,
                package.gamma1,
                tf.cli.reproduce_tables,
                tf.generators.is_poisson,
                tf.analysis.schouten,
                poly.__mul__,
                poly.__add__,
                poly.diff,
                poly.parse,
            ):
                self.assertTrue(hasattr(fn, "__wrapped__"), fn)
        for fn in (tf.analysis.gamma1, package.gamma1, poly.__mul__, poly.parse):
            self.assertFalse(hasattr(fn, "__wrapped__"), fn)

    def test_untraced_runs_install_no_wrappers(self):
        run.measure(small_flow_ops(self.tf), 0, Reference())
        self.assertFalse(hasattr(self.tf.polyring.Polynomial.__mul__, "__wrapped__"))
        self.assertFalse(hasattr(self.tf.graphflow.gamma1, "__wrapped__"))

    def test_pass_s_is_the_scaled_sum_of_operation_means(self):
        ops = small_flow_ops(self.tf)
        result = run.measure(ops, 0.5, Reference())
        times, passes = result["op_times"], len(result["pass_times"])
        self.assertGreater(passes, 1)
        # The reference task runs after every operation but is not one.
        self.assertEqual(list(times), [op.name for op in ops])
        self.assertEqual(result["attempted"], len(ops) * passes)
        self.assertEqual(len(result["reference_times"]), len(ops) * passes)
        unscaled = sum(statistics.fmean(t) for t in times.values())
        scale = REFERENCE_S / statistics.fmean(result["reference_times"])
        self.assertAlmostEqual(result["pass_s"], unscaled * scale)

    def test_self_time_excludes_wrapped_callees(self):
        ops = small_flow_ops(self.tf)
        with Tracer() as tracer:
            tracer.install(self.tf)
            result = run.measure(ops, 0, Reference(), tracer)
        spans = tracer.spans
        stats = result["stats"][0]
        gamma1 = [s for s in spans if s[3] == "graphflow.gamma1"]
        self.assertEqual(len(gamma1), 1)
        duration = gamma1[0][5] - gamma1[0][4]
        self.assertLess(stats["graphflow.gamma1.self_s"], duration)
        self.assertGreater(stats["graphflow.gamma1.self_s"], 0)


class Manifest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        self.assertEqual([w["name"] for w in doc["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in doc["per_layer"]}, PER_LAYER)
        self.assertEqual(
            [m["name"] for m in doc["end_to_end"]], ["pass_s", "setup_s", "peak_rss_mb"]
        )


if __name__ == "__main__":
    unittest.main()
