import json
import random

import pytest

from tetraflows.cli import main
from tetraflows.multivector import MultiVector

from example4d import BRACKET_P0_P1, P0_UPPER, ctx4, p0, parse4
from helpers import brute_jacobi_tensor, random_bivector


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def p0_file(tmp_path):
    path = tmp_path / "P0.json"
    path.write_text(p0().to_json())
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
    assert p1.component((1, 2)) == parse4("-24480*x1*x2^9*x3^20*x4^4")

    code, out, _ = run(capsys, "flow", p0_file, "--which", "gamma2", "--raw")
    assert code == 0
    assert "raw matrix:" in out
    assert "16920*x1^2*x2^8*x3^20*x4^4" in out


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
    path.write_text(p.to_json())
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
    from tetraflows.generators import DetSpec, det_bracket, premultiply
    from tetraflows.polyring import Context, Polynomial

    ctx = Context(3)
    bi = premultiply(
        det_bracket(DetSpec(ctx, [Polynomial.parse("x3^3", ctx)])),
        Polynomial.parse("x1^2", ctx),
    )
    delta = MultiVector(
        ctx,
        2,
        {(1, 2): Polynomial.parse("x2^2*x3", ctx), (1, 3): Polynomial.parse("x2^3*x3^2", ctx)},
    )
    p_path = tmp_path / "P.json"
    d_path = tmp_path / "D.json"
    p_path.write_text(bi.to_json())
    d_path.write_text(delta.to_json())
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
