import contextlib
import io
import json
import random
import sys
import tempfile
import time
from fractions import Fraction
from hashlib import sha256
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tetraflows import multivector
from tetraflows.analysis import builtin_rows, reproduce_tables
from tetraflows.cli import _parse_phi, main
from tetraflows.generators import VanhaeckeSpec, build_bivector
from tetraflows.graphflow import GraphParseError, balanced_flow, parse_kgraph
from tetraflows.multivector import MultiVector
from tetraflows.polyring import DIM_LIMIT, Context, PolyParseError, Polynomial

from example4d import BRACKET_P0_P1, P0_UPPER, P2_RAW, ctx4, p0, parse4
from helpers import _parse_phi as reference_parse_phi
from helpers import brute_jacobi_tensor, random_bivector


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def p0_file(tmp_path):
    path = tmp_path / "P0.json"
    path.write_text(json.dumps(p0().to_json_dict()))
    return str(path)


def test_gen_det_reference_example(tmp_path, capsys):
    out_path = tmp_path / "P0.json"
    code, out, err = run(
        capsys,
        "gen",
        "--det",
        "--dim",
        "4",
        "--arg",
        "x2^3*x3^2*x4",
        "--arg",
        "x1*x3^4*x4",
        "--output",
        str(out_path),
    )
    assert code == 0 and err == ""
    assert "poisson: true" in out
    stored = MultiVector.from_json_dict(json.loads(out_path.read_text()))
    assert stored == p0()


def test_gen_constant_bracket(capsys):
    code, out, _ = run(capsys, "gen", "--det", "--dim", "3", "--arg", "x3")
    assert code == 0
    assert "poisson: true" in out
    assert "(1,2): 1" in out


def test_gen_vanhaecke_alias_map(capsys):
    code, out, _ = run(capsys, "gen", "--vanhaecke", "--d", "2", "--phi", "x^2*y^2")
    assert code == 0
    assert "poisson: true" in out
    assert "alias: u1=x1, u2=x2, v1=x3, v2=x4" in out


def test_gen_vanhaecke_multi_term_phi(capsys):
    code, out, _ = run(capsys, "gen", "--vanhaecke", "--d", "2", "--phi", "x^2*y^2 + 1/3*x*y")
    assert code == 0
    assert "poisson: true" in out


def test_flow_gamma1_and_raw(tmp_path, capsys, p0_file):
    out_path = tmp_path / "P1.json"
    code, out, _ = run(capsys, "flow", p0_file, "--which", "gamma1", "--output", str(out_path))
    assert code == 0
    p1 = MultiVector.from_json_dict(json.loads(out_path.read_text()))
    assert p1.comps.get((1, 2)) == parse4("-24480*x1*x2^9*x3^20*x4^4")

    code, out, _ = run(capsys, "flow", p0_file, "--which", "gamma2", "--raw")
    assert code == 0
    assert "raw matrix:" in out
    assert "16920*x1^2*x2^8*x3^20*x4^4" in out
    code, out, _ = run(capsys, "flow", p0_file, "--which", "gamma2", "--raw", "--format", "json")
    assert code == 0
    raw = json.loads(out)["artifact"]["raw"]
    assert raw == {"dim": 4, "entries": [[parse4(t).render() for t in row] for row in P2_RAW]}


def test_flow_balanced_zero_weights(capsys, p0_file):
    code, out, _ = run(capsys, "flow", p0_file, "--which", "balanced", "--a", "0", "--b", "0")
    assert code == 0
    assert "balanced skew part: 0" in out


def test_flow_raw_with_balanced_is_usage_error(capsys, p0_file):
    code, _, err = run(capsys, "flow", p0_file, "--which", "balanced", "--raw")
    assert code == 2
    assert "error:" in err


def test_bracket_pipeline_and_assert_zero(tmp_path, capsys, p0_file):
    p1_path = tmp_path / "P1.json"
    q_path = tmp_path / "Q.json"
    assert run(capsys, "flow", p0_file, "--which", "gamma1", "--output", str(p1_path))[0] == 0
    assert run(capsys, "flow", p0_file, "--which", "balanced", "--output", str(q_path))[0] == 0

    code, out, _ = run(capsys, "bracket", p0_file, str(p1_path))
    assert code == 0
    assert "zero: false" in out
    for text in BRACKET_P0_P1.values():
        assert text in out

    assert run(capsys, "bracket", p0_file, str(p1_path), "--assert-zero")[0] == 1
    code, out, _ = run(capsys, "bracket", p0_file, str(q_path), "--assert-zero")
    assert code == 0
    assert "zero: true" in out


def test_bracket_of_a_file_with_itself(tmp_path, capsys):
    # The file is loaded twice, into two equal bi-vectors; the output is the
    # self-bracket 2 * Jac(P) of the brute-force Jacobi tensor.
    p = random_bivector(random.Random(21), ctx4(), max_terms=3)
    path = tmp_path / "P.json"
    path.write_text(json.dumps(p.to_json_dict()))
    tensor = brute_jacobi_tensor(p)
    expected = MultiVector(
        p.ctx, 3, {idx: tensor[idx].scale(2) for idx in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))}
    )
    code, out, _ = run(capsys, "bracket", str(path), str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["artifact"] == expected.to_json_dict()
    code, out, _ = run(capsys, "bracket", str(path), str(path))
    assert code == 0
    assert out.splitlines()[0] == "zero: false"
    for idx, poly in expected.comps.items():
        assert f"  ({','.join(map(str, idx))}): {poly.render()}" in out.splitlines()


def test_jacobi_verdicts(tmp_path, capsys, p0_file):
    code, out, _ = run(capsys, "jacobi", p0_file, "--assert-zero")
    assert code == 0
    assert "poisson: true" in out

    p1_path = tmp_path / "P1.json"
    run(capsys, "flow", p0_file, "--which", "gamma1", "--output", str(p1_path))
    code, out, _ = run(capsys, "jacobi", str(p1_path), "--assert-zero")
    assert code == 1
    assert "poisson: false" in out


def test_ratios_output_line(tmp_path, capsys, p0_file):
    p1_path = tmp_path / "P1.json"
    p2_path = tmp_path / "P2.json"
    run(capsys, "flow", p0_file, "--which", "gamma1", "--output", str(p1_path))
    run(capsys, "flow", p0_file, "--which", "gamma2", "--output", str(p2_path))
    code, out, _ = run(capsys, "ratios", p0_file, str(p1_path), str(p2_path))
    assert code == 0
    assert "solution space dim 1: (1, 6)" in out
    code, out, _ = run(capsys, "ratios", p0_file, str(p1_path))
    assert code == 0
    assert "solution space dim 0" in out


def test_graph_eval_wedge_echoes_input(capsys, p0_file):
    code, out, _ = run(capsys, "graph", "eval", "1; (S1,S2)", p0_file)
    assert code == 0
    for text in P0_UPPER.values():
        assert parse4(text).render() in out


@pytest.mark.parametrize("text", ["2; (S1,S2) (V1,S3)", "2; (S1,V2) (V1,V1)"])
def test_graph_eval_needs_two_sinks(capsys, p0_file, text):
    # The text encoding accepts any number of sinks; graph eval prints a
    # bi-vector, so it takes exactly S1 and S2.
    code, out, err = run(capsys, "graph", "eval", text, p0_file)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_probe_appendix_style_instance(tmp_path, capsys):
    from tetraflows.generators import DetSpec, det_bracket
    from tetraflows.polyring import Context, Polynomial

    ctx = Context(3)
    bi = det_bracket(DetSpec(ctx, [Polynomial.parse("x3^3", ctx)])).mul_poly(
        Polynomial.parse("x1^2", ctx)
    )
    delta = MultiVector(
        ctx,
        2,
        {(1, 2): Polynomial.parse("x2^2*x3", ctx), (1, 3): Polynomial.parse("x2^3*x3^2", ctx)},
    )
    p_path = tmp_path / "P.json"
    d_path = tmp_path / "D.json"
    p_path.write_text(json.dumps(bi.to_json_dict()))
    d_path.write_text(json.dumps(delta.to_json_dict()))
    code, out, _ = run(capsys, "probe", str(p_path), str(d_path))
    assert code == 0
    assert "eps^1 of [[P~,P~]]" in out
    assert "12*x1*x2^3*x3^4" in out
    assert "-7776*x1^4*x3^10" in out


def test_tables_grid(capsys):
    code, out, _ = run(capsys, "tables")
    assert code == 0
    assert "all 11 rows match" in out


def test_tables_json_document_carries_witnesses(capsys):
    code, out, _ = run(capsys, "tables", "--format", "json")
    assert code == 0
    # Both digests of `tables --format json`: as printed, and re-dumped the
    # way `--no-witnesses` prints it.
    assert sha256(out.encode()).hexdigest() == (
        "e142fb9aa5fadcae014b76984a49726b2a5b9b859c401c748bba195ac5948fdb"
    )
    bare = json.loads(out)
    for row in bare["artifact"]["rows"]:
        del row["witnesses"]
    assert sha256((json.dumps(bare, sort_keys=True, indent=2) + "\n").encode()).hexdigest() == (
        "206222b308fde6148e31866e27efac0395e0e70df100fd859a58a5d6a466972d"
    )
    doc = json.loads(out)["artifact"]
    assert doc["all_match"] is True
    assert [row["id"] for row in doc["rows"]] == list(range(1, 12))
    row3 = doc["rows"][2]
    assert set(row3["witnesses"]) == {"bracket_p1_zero", "p2_zero", "bracket_p2_zero", "q_zero"}
    row4 = doc["rows"][3]
    assert "q_zero" not in row4["witnesses"]


def test_json_mode_is_byte_identical(capsys, p0_file):
    code1, out1, _ = run(capsys, "jacobi", p0_file, "--format", "json")
    code2, out2, _ = run(capsys, "jacobi", p0_file, "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["is_poisson"] is True


def test_usage_errors_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "gen", "--det", "--dim", "4", "--arg", "x9")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "bracket", str(tmp_path / "missing.json"), str(tmp_path / "also.json"))
    assert code == 2
    code, _, err = run(capsys, "gen", "--det")
    assert code == 2
    code, _, _ = run(capsys, "nonsense")
    assert code == 2
    code, _, err = run(capsys, "graph", "eval", "1; (V1,S1)", str(tmp_path / "x.json"))
    assert code == 2


def test_exponent_limit_is_a_one_line_usage_error(capsys):
    code, out, err = run(capsys, "gen", "--det", "--dim", "3", "--arg", "x1^999999999")
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: exponent 999999999 of x1 is not below the limit 32768")


@pytest.mark.parametrize("command", ["jacobi", "gen"])
def test_huge_dim_is_a_one_line_usage_error_within_a_second(tmp_path, capsys, command):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dim": 100000000, "degree": 2, "components": {"1,2": "x1"}}))
    argv = ["jacobi", str(path)] if command == "jacobi" else ["gen", "--det", "--dim", "100000000"]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == "" and err.count("\n") == 1
    named = f"{path}: " if command == "jacobi" else ""  # a loader error names its file
    assert err.startswith(f"error: {named}Context dim must be an integer >= 2 and below {DIM_LIMIT}")


def test_gen_spec_file(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps({"kind": "det", "dim": 4, "args": ["x2^3*x3^2*x4", "x1*x3^4*x4"]})
    )
    code, out, _ = run(capsys, "gen", "--spec", str(spec_path), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["is_poisson"] is True
    assert MultiVector.from_json_dict(doc["artifact"]) == p0()


@pytest.mark.parametrize("consumer", ["gen", "tables"])
def test_each_consumer_runs_one_jacobi_test(monkeypatch, capsys, consumer):
    # Generators only build; the consumer that needs P0 Poisson tests it once.
    calls = []
    jacobiator = multivector.jacobiator
    monkeypatch.setattr(multivector, "jacobiator", lambda p: calls.append(p) or jacobiator(p))
    if consumer == "gen":
        code, out, _ = run(capsys, "gen", "--vanhaecke", "--d", "2", "--phi", "x^2*y^2")
        assert code == 0 and out.startswith("poisson: true")
    else:
        assert reproduce_tables([r for r in builtin_rows() if r[0] == 7]).all_match
    assert len(calls) == 1


@pytest.mark.parametrize(
    "doc",
    [
        {"degree": 2, "components": {"1,2": "x1"}},
        [1, 2],
        {"components": {"1,2": 5}},
        {"dim": 3, "degree": 2, "components": {"1,2": 5}},
        {"dim": 3, "degree": 2, "components": {"1,2": "x1"}, "epsilon": "no"},
        {"dim": 3.7, "degree": 2, "components": {"1,2": "x1"}},
        {"dim": 3, "degree": 2.6, "components": {"1,2": "x1"}},
        {"dim": True, "degree": 2, "components": {"1,2": "x1"}},
    ],
    ids=[
        "no-dim",
        "top-level-list",
        "only-components",
        "non-string-component",
        "non-bool-epsilon",
        "fractional-dim",
        "fractional-degree",
        "boolean-dim",
    ],
)
def test_malformed_bivector_document_is_a_one_line_usage_error(tmp_path, capsys, doc):
    path = tmp_path / "P.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "jacobi", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "doc",
    [
        [1],
        {"kind": "det"},
        {"kind": "det", "dim": 3, "args": "x1"},
        {"kind": "vanhaecke", "d": 2, "phi": [[2, 2]]},
        {"kind": "vanhaecke", "d": 2.9, "phi": [[2, 2, "1"]]},
        {"kind": "vanhaecke", "d": 2, "dim": 4.0, "phi": [[2, 2, "1"]]},
        {"kind": "vanhaecke", "d": 2, "phi": [[2.5, 2, "1"]]},
        {"kind": "det", "dim": 3.0, "args": ["x1"]},
    ],
    ids=[
        "top-level-list",
        "det-without-dim",
        "args-not-a-list",
        "phi-pair-not-triple",
        "fractional-d",
        "float-dim",
        "fractional-phi-exponent",
        "float-det-dim",
    ],
)
def test_malformed_spec_document_is_a_one_line_usage_error(tmp_path, capsys, doc):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "gen", "--spec", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "text",
    [
        json.dumps({"dim": 3, "degree": 2, "components": {"a,b": "x1"}}),
        json.dumps({"dim": 3, "degree": 2, "components": {"1,5": "x1"}}),
        json.dumps({"dim": 3, "degree": 2, "components": {"1,2": "x1^"}}),
        json.dumps({"dim": 3, "degree": 1, "components": {"1": "x1"}}),
        "{not json",
    ],
    ids=["non-integer-index", "index-above-dim", "bad-polynomial", "degree-1", "not-json"],
)
def test_loader_errors_name_the_file(tmp_path, capsys, p0_file, text):
    # with two input files, the error must say which one is wrong
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, out, err = run(capsys, "bracket", p0_file, str(bad))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1


# -- digits are ASCII only -----------------------------------------------------------
# int() and the regex class \d read every Unicode decimal digit, so without
# these checks a Bengali or Arabic-Indic digit loads as if typed in ASCII.


def test_polynomial_digits_are_ascii_only(capsys):
    with pytest.raises(PolyParseError, match="unexpected character '৩'"):
        Polynomial.parse("৩*x1^২", Context(2))
    code, out, err = run(capsys, "gen", "--det", "--dim", "3", "--arg", "x1^২")
    assert (code, out, err) == (2, "", "error: unexpected character '২' (at position 3)\n")
    code, out, err = run(capsys, "gen", "--vanhaecke", "--d", "2", "--phi", "x^٢")
    assert (code, out, err) == (2, "", "error: unexpected character '٢' (at position 2)\n")


def test_graph_digits_are_ascii_only(capsys, p0_file):
    with pytest.raises(GraphParseError, match="bad vertex count"):
        parse_kgraph("٢; (S1,S٢) (V١,S3)")
    with pytest.raises(GraphParseError, match="bad target pair"):
        parse_kgraph("2; (S1,S٢) (V1,S3)")
    code, out, err = run(capsys, "graph", "eval", "1; (S1,S٢)", p0_file)
    assert (code, out) == (2, "") and err.startswith("error: bad target pair") and err.count("\n") == 1


def test_component_key_digits_are_ascii_only(tmp_path, capsys):
    doc = {"dim": 3, "degree": 2, "components": {"١,2": "x1"}}
    with pytest.raises(ValueError, match="ASCII digits"):
        MultiVector.from_json_dict(doc)
    path = tmp_path / "P.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "jacobi", str(path))
    assert (code, out) == (2, "") and err.startswith(f"error: {path}: ") and err.count("\n") == 1


# -- numbers ------------------------------------------------------------------------
# Every number given as text is read by the grammar's rational rule, an int
# where one is needed: Fraction() and int() would also read "0.5", "1e3",
# "1_0" and non-ASCII digits.


@pytest.mark.parametrize(
    "coeff",
    ["0.5", "1e3", "1_0", "١/٢", 0.5, True, "1/0"],
    ids=["decimal", "exponent", "underscore", "arabic-indic", "json-float", "json-true", "zero-denominator"],
)
def test_phi_coefficients_outside_the_rational_rule_are_one_line_errors(tmp_path, capsys, coeff):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "vanhaecke", "d": 2, "phi": [[2, 2, coeff]]}))
    code, out, err = run(capsys, "gen", "--spec", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("coeff, value", [("-1/3", Fraction(-1, 3)), (" 2 ", 2), (3, 3)])
def test_phi_coefficients_in_the_rational_rule_load(tmp_path, capsys, coeff, value):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": "vanhaecke", "d": 2, "phi": [[2, 2, coeff]]}))
    code, out, err = run(capsys, "gen", "--spec", str(path), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["artifact"] == build_bivector(VanhaeckeSpec(2, [(2, 2, value)])).to_json_dict()


@pytest.mark.parametrize("flag, text", [("--a", "0.5"), ("--a", "١"), ("--dim", "٣"), ("--d", "2_0")])
def test_number_flags_outside_the_rational_rule_are_one_line_errors(capsys, p0_file, flag, text):
    argv = {
        "--a": ["flow", p0_file, "--which", "balanced"],
        "--dim": ["gen", "--det", "--arg", "x3"],
        "--d": ["gen", "--vanhaecke", "--phi", "x^2*y"],
    }[flag]
    code, out, err = run(capsys, *argv, flag, text)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag} {text!r}: ") and err.count("\n") == 1


# One digit more than int() converts from text (sys.get_int_max_str_digits).
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = "1" * (LIMIT + 1)
TOO_LONG = f"number of {LIMIT + 1} digits is above the limit of {LIMIT} digits"


@pytest.mark.skipif(not LIMIT, reason="int() converts numbers of any length")
@pytest.mark.parametrize("source", ["parse", "--phi", "--dim", "--a", "component", "graph"])
def test_numbers_longer_than_int_converts_are_one_line_errors(tmp_path, capsys, p0_file, source):
    # A number token is read by one conversion, which raises a parse error
    # at the token's position: the flag or file is named as for any other
    # malformed number, and no bare ValueError of int() gets through.
    if source == "parse":
        with pytest.raises(PolyParseError, match=rf"^{TOO_LONG} \(at position 3\)$"):
            Polynomial.parse("x1^" + LONG, Context(2))
        with pytest.raises(PolyParseError, match=rf"^{TOO_LONG} \(at position 7\)$"):
            Polynomial.parse("x1 + 1/" + LONG, Context(2))
        return
    path = tmp_path / "P.json"
    path.write_text(json.dumps({"dim": 3, "degree": 2, "components": {"1,2": "x1^" + LONG}}))
    argv, want = {
        "--phi": (["gen", "--vanhaecke", "--d", "2", "--phi", "x^" + LONG], f"{TOO_LONG} (at position 2)"),
        "--dim": (["gen", "--det", "--dim", LONG, "--arg", "x1"], f"--dim {LONG!r}: {TOO_LONG} (at position 0)"),
        "--a": (["flow", p0_file, "--which", "balanced", "--a", LONG], f"--a {LONG!r}: {TOO_LONG} (at position 0)"),
        "component": (["jacobi", str(path)], f"{path}: {TOO_LONG} (at position 3)"),
        "graph": (["graph", "eval", "1; (S1,S" + LONG + ")", p0_file], f"{TOO_LONG} (at position 8)"),
    }[source]
    assert run(capsys, *argv) == (2, "", f"error: {want}\n")
    if source == "graph":
        with pytest.raises(GraphParseError, match=rf"^{TOO_LONG} \(at position 0\)$"):
            parse_kgraph(LONG + "; (S1,S2)")


def test_flow_weights_are_read_as_rationals(capsys, p0_file):
    # "--a -5/3" would be taken for an option by argparse (only "-5" or "-.5"
    # read as negative numbers), here as at the parent: "--a=-5/3" passes it
    code, out, err = run(capsys, "flow", p0_file, "--which", "balanced", "--a=-5/3", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["artifact"] == balanced_flow(p0(), Fraction(-5, 3), 6).to_json_dict()


@pytest.mark.parametrize(
    "phi, message, position",
    [
        ("x^2*y^2*z", "unexpected character 'z'", 8),
        ("x^-1", "expected positive exponent", 2),
        ("y^2 + x^", "expected positive exponent", 8),
        ("x*y 3", "expected '+' or '-', found '3'", 4),
        ("x*y x", "expected '+' or '-', found 'x'", 4),
        ("x^99999", "exponent 99999 of x is not below the limit 32768", 2),
        ("x*y^40000", "exponent 40000 of y is not below the limit 32768", 4),
        ("y^40000", "exponent 40000 of y is not below the limit 32768", 2),
        ("x1", "unknown variable 'x1' (variables: x, y)", 0),
        ("y*x2", "unknown variable 'x2' (variables: x, y)", 2),
        ("2x", "missing '*' before 'x'", 1),
        ("x^2 - 3/2y", "missing '*' before 'y'", 9),
    ],
)
def test_phi_parse_errors_give_the_position_in_the_text(capsys, phi, message, position):
    code, out, err = run(capsys, "gen", "--vanhaecke", "--d", "2", "--phi", phi)
    assert code == 2 and out == ""
    assert err == f"error: {message} (at position {position})\n"


def _phi_texts(rng):
    """Seeded phi texts: 20,000 random strings over phi's alphabet (and a
    few characters outside it), then 5,000 drawn from the grammar, with
    random spacing, repeated factors and exponents near EXPONENT_LIMIT."""
    alphabet = "xxxyyy0123456789+-*/^^ " + "ez_"
    for _ in range(20000):
        yield "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))

    def around(op):
        return rng.choice(("", "", " ")) + op + rng.choice(("", "", " "))

    def factor():
        exponent = rng.choice(("", "", "1", "2", "10", "16384", "32767"))
        return rng.choice("xy") + (around("^") + exponent if exponent else "")

    for _ in range(5000):
        text = ""
        for _ in range(rng.randint(1, 4)):
            coeff = rng.choice(("", "", "3", "0", "12", "1/2", "7/3", "4/6"))
            factors = [factor() for _ in range(rng.randint(0, 3))]
            text += around(rng.choice("+-")) + (around("*").join([coeff] * bool(coeff) + factors) or "5")
        yield text if rng.random() < 0.5 else text.lstrip("+ ")


def test_phi_parse_agrees_with_the_rewriting_reference():
    # phi is parsed in its own names x and y; the reference rewrites them to
    # x1 and x2 and maps the errors back.  Every text gets the same verdict
    # and, when valid, the same triples.  An error is one PolyParseError
    # inside the text; on a text with several faults the two may report
    # different ones (the reference looks for x1-like names first).
    outcomes = {True: 0, False: 0}
    for text in _phi_texts(random.Random(25)):
        try:
            want = reference_parse_phi(text)
        except PolyParseError:
            want = None
        try:
            got = _parse_phi(text)
        except PolyParseError as exc:
            assert want is None, text
            assert exc.__context__ is None and 0 <= exc.position <= len(text), text
        else:
            assert got == want, text
        outcomes[want is not None] += 1
    assert outcomes[True] > 3000 and outcomes[False] > 15000, outcomes


# -- loader fuzzing ----------------------------------------------------------------

# Leaves lean towards what the loaders read: small integers, rationals and
# polynomial-like text, besides arbitrary text, floats, bools and null.
_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-2, 4)
    | st.floats()
    | st.text(max_size=6)
    | st.from_regex(r"\A-?\d{1,2}(/\d)?\Z")
    | st.from_regex(r"\A(-?\d\*)?(x\d|eps)(\^\d)?([-+*]x\d)?\Z")
)
_JSON = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8,
)
_FIELDS = ("dim", "degree", "components", "epsilon", "kind", "args", "prefactor", "d", "phi")
_INDEX_KEYS = st.from_regex(r"\A\d(,\d){0,2}\Z") | st.text(max_size=4)
# dim and d also take a few values above the ceiling, which the loaders
# must refuse at once instead of building a huge context.  (Not as leaves:
# a phi exponent that large runs unbounded, see ROADMAP.)
_DIMS = st.integers(2, 4) | st.sampled_from((DIM_LIMIT, DIM_LIMIT + 1, 10**8))
_DOCUMENTS = (
    _JSON
    | st.dictionaries(st.sampled_from(_FIELDS), _JSON, max_size=5)
    | st.fixed_dictionaries(
        {"dim": _DIMS, "degree": st.integers(1, 3)},
        optional={"components": st.dictionaries(_INDEX_KEYS, _JSON, max_size=3), "epsilon": _JSON},
    )
    | st.fixed_dictionaries(
        {"kind": st.just("det"), "dim": _DIMS, "args": st.lists(_JSON, max_size=2)},
        optional={"prefactor": _JSON},
    )
    | st.fixed_dictionaries(
        {
            "kind": st.just("vanhaecke"),
            "d": st.integers(0, 2) | st.sampled_from((DIM_LIMIT // 2, 10**8)),
            "phi": st.lists(st.lists(_JSON, min_size=3, max_size=3) | _JSON, max_size=2),
        },
        optional={"dim": _JSON},
    )
)


@settings(max_examples=150, deadline=None)
@given(_DOCUMENTS)
@example({"kind": "vanhaecke", "d": 1, "phi": [[1, 1, "1/0"]]})
def test_loaders_fuzz_load_or_fail_with_one_line_error(doc):
    # every JSON value either loads or is a one-line usage error, never a
    # traceback, through the multi-vector loader and the spec loader
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        for argv in (["jacobi", str(path)], ["gen", "--spec", str(path)]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            if code == 2:
                assert out.getvalue() == ""
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            else:
                assert code == 0 and err.getvalue() == "", (argv, code, err.getvalue())
