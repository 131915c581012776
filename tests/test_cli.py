import argparse
import json
import os
import random
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

from thetaparam import cli
from thetaparam.cli import datum_to_json, load_document, main, parse_datum
from thetaparam.quadform import QuadInvariants, invariants_of_orthogonal_datum
from thetaparam.localfield import SQ_U

import gen

DEPTH_ZERO = {
    "base": {"p": 5, "f": 1},
    "polarity": "symplectic",
    "factors": [
        {"m": 1, "step": "unramified", "c": {"val": 0, "residue_coeffs": [0, 2], "sym": "anti"}, "chi0": 1}
    ],
}

WITNESS = {
    "base": {"p": 5, "f": 1},
    "polarity": "symplectic",
    "factors": [
        {
            "m": 1,
            "step": "ramified",
            "c": {"val": 1, "residue_coeffs": [3, 0], "sym": "anti"},
            "chi0": 2,
            "gamma": [{"r": "1/2", "residue_coeffs": [0, 2]}],
        }
    ],
    "distinction": {"E": "unramified", "F_structure": [{"sigma_c": "fixed", "sigma_gamma": ["anti"]}]},
}


def write(tmp_path, doc, name="d.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(args, tmp_path):
    out = tmp_path / "report.json"
    code = main(["--out", str(out), *args])
    return code, json.loads(out.read_text())


def test_validate_ok(tmp_path):
    code, rep = run_cli(["validate", write(tmp_path, DEPTH_ZERO)], tmp_path)
    assert code == 0 and rep["result"]["ok"]
    assert rep["operation"] == "validate" and "input_sha256" in rep


def test_validate_failure_exits_one(tmp_path):
    doc = json.loads(json.dumps(DEPTH_ZERO))
    doc["factors"][0]["c"]["sym"] = "fixed"
    code, rep = run_cli(["validate", write(tmp_path, doc)], tmp_path)
    assert code == 1 and not rep["result"]["ok"]
    assert rep["result"]["violations"]


def test_schema_error_exits_two(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"nope": true}')
    out = tmp_path / "r.json"
    code = main(["--out", str(out), "validate", str(path)])
    assert code == 2
    assert json.loads(out.read_text())["kind"] == "schema"


SCHEMA_VIOLATIONS = {
    "not_an_object": [1, 2],
    "missing_base": {"polarity": "symplectic", "factors": DEPTH_ZERO["factors"]},
    "extra_property": {**DEPTH_ZERO, "extra": 1},
    "p_below_three": {**DEPTH_ZERO, "base": {"p": 2, "f": 1}},
    "bad_polarity": {**DEPTH_ZERO, "polarity": "unitary"},
    "no_factors": {**DEPTH_ZERO, "factors": []},
    "string_residue_coeff": {
        **DEPTH_ZERO,
        "factors": [{**DEPTH_ZERO["factors"][0], "c": {"val": 0, "residue_coeffs": [0, "2"], "sym": "anti"}}],
    },
    "bad_step": {**DEPTH_ZERO, "factors": [{**DEPTH_ZERO["factors"][0], "step": "wild"}]},
    # three errors; jsonschema reports the shallowest, the second one found
    "several_errors": {
        "base": {"p": 2, "f": 1},
        "polarity": "unitary",
        "factors": [{**DEPTH_ZERO["factors"][0], "step": "wild"}],
    },
}


@pytest.mark.parametrize("case", sorted(SCHEMA_VIOLATIONS))
def test_schema_error_message_matches_jsonschema_validate(tmp_path, case):
    doc = SCHEMA_VIOLATIONS[case]
    schema_file = resources.files("thetaparam.schemas").joinpath("datum.schema.json")
    with pytest.raises(jsonschema.ValidationError) as oracle:
        jsonschema.validate(doc, json.loads(schema_file.read_text()))
    path = write(tmp_path, doc)
    out = tmp_path / "r.json"
    assert main(["--out", str(out), "validate", path]) == 2
    rep = json.loads(out.read_text())
    assert rep["kind"] == "schema"
    assert rep["error"] == f"{path} violates the datum schema: {oracle.value.message}"


def test_schema_is_checked_once_per_process(tmp_path, monkeypatch):
    cls = type(cli._validator())
    check_schema, calls = cls.check_schema, []
    monkeypatch.setattr(cls, "check_schema", lambda schema: calls.append(schema) or check_schema(schema))
    cli._validator.cache_clear()
    path = write(tmp_path, DEPTH_ZERO)
    load_document(path)
    load_document(path)
    assert len(calls) == 1


def test_parser_is_built_once_per_process(tmp_path, monkeypatch):
    path = write(tmp_path, DEPTH_ZERO)
    assert main(["--out", str(tmp_path / "first.json"), "validate", path]) == 0
    init, calls = argparse.ArgumentParser.__init__, []
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: calls.append(a) or init(self, *a, **k))
    assert main(["--out", str(tmp_path / "second.json"), "validate", path]) == 0
    assert calls == []
    assert (tmp_path / "first.json").read_text() == (tmp_path / "second.json").read_text()


ROOT = Path(__file__).resolve().parents[1]


def _python(code: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_numpy_and_finitetheta_unloaded():
    loaded = _python(
        "import thetaparam.cli, sys; "
        "print([m for m in ('numpy', 'thetaparam.finitetheta') if m in sys.modules])"
    )
    assert loaded.strip() == "[]"


_TRACED_RUN = """
import contextlib, io, json, sys
perfbench, traced, path = sys.argv[1:]
sys.path.insert(0, perfbench)
import spans
from thetaparam import cli
tracer = spans.Tracer()
if traced == "yes":
    tracer.install()
outputs = []
for argv in (["lift", path], ["finite-verify", "--q", "3"]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    outputs.append([code, buf.getvalue()])
print(json.dumps({"outputs": outputs, "spans": sorted({s[2] for s in tracer.spans})}))
"""


def test_benchmark_tracer_wraps_the_cli_boundaries(tmp_path):
    # perfbench/spans.py patches names in thetaparam.cli from outside; a
    # renamed boundary must fail here, and tracing must not change a report
    path = write(tmp_path, DEPTH_ZERO)
    runs = {
        traced: json.loads(_python(_TRACED_RUN, str(ROOT / "perfbench"), traced, path))
        for traced in ("no", "yes")
    }
    assert runs["yes"]["outputs"] == runs["no"]["outputs"]
    assert [code for code, _ in runs["yes"]["outputs"]] == [0, 0]
    assert {"cli.load_document", "finitetheta.verify_finite_theta"} <= set(runs["yes"]["spans"])


@pytest.mark.parametrize(
    "case", ["missing", "undecodable", "nested_too_deep", "out_in_missing_dir", "out_is_a_dir"]
)
def test_io_error_exits_two(tmp_path, capsys, case):
    # each case yields exit 2 and one JSON report, in --out or, if that cannot be written, on stdout
    path = tmp_path / "d.json"
    if case == "undecodable":
        path.write_bytes(b'{"a": 1}\xff')
    elif case == "nested_too_deep":
        path.write_text("[" * 100000 + "]" * 100000)
    elif case != "missing":
        path.write_text(json.dumps(DEPTH_ZERO))
    out = {"out_in_missing_dir": tmp_path / "nonexistent" / "x.json", "out_is_a_dir": tmp_path}
    out = out.get(case, tmp_path / "r.json")
    code = main(["--out", str(out), "validate", str(path)])
    assert code == 2
    text = out.read_text() if out.is_file() else capsys.readouterr().out
    assert json.loads(text)["kind"] == "schema"


def test_lift_report_content_and_round_trip(tmp_path):
    code, rep = run_cli(["lift", write(tmp_path, DEPTH_ZERO)], tmp_path)
    assert code == 0
    inv = rep["result"]["invariants"]
    assert inv == {"dim": 2, "disc": "u", "hasse": -1}
    lifted_doc = rep["result"]["lifted"]
    lifted_path = write(tmp_path, lifted_doc, "lifted.json")
    lifted, _ = parse_datum(load_document(lifted_path)[0])
    re_inv = invariants_of_orthogonal_datum(lifted)
    assert re_inv == QuadInvariants(2, SQ_U, -1)


def test_predict_matches_remark_row(tmp_path):
    code, rep = run_cli(["predict", write(tmp_path, DEPTH_ZERO)], tmp_path)
    assert code == 0
    assert rep["result"]["invariants"]["disc"] == "u"
    assert rep["result"]["so_type"]["label"] == "quasi_split_unramified"


def test_determinism_byte_identical(tmp_path):
    path = write(tmp_path, DEPTH_ZERO)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["--out", str(out1), "lift", path])
    main(["--out", str(out2), "lift", path])
    assert out1.read_bytes() == out2.read_bytes()


def test_lift_with_seed_records_choices(tmp_path):
    path = write(tmp_path, DEPTH_ZERO)
    code, rep = run_cli(["lift", "--tau-seed", "7", path], tmp_path)
    assert code == 0
    assert "tau" in rep["choices"] and "uniformizer" in rep["choices"]
    # same invariants as the canonical lift
    _, base_rep = run_cli(["lift", path], tmp_path)
    assert rep["result"]["invariants"] == base_rep["result"]["invariants"]


def test_equiv_command(tmp_path):
    a = write(tmp_path, DEPTH_ZERO, "a.json")
    b = write(tmp_path, DEPTH_ZERO, "b.json")
    code, rep = run_cli(["equiv", a, b], tmp_path)
    assert code == 0 and rep["result"]["equivalent"]
    code, rep = run_cli(["equiv", "--mode", "strict", a, b], tmp_path)
    assert rep["result"]["mode"] == "strict" and rep["result"]["equivalent"]


def test_blocks_command(tmp_path):
    code, rep = run_cli(["blocks", write(tmp_path, WITNESS)], tmp_path)
    assert code == 0
    assert rep["result"]["levels"] == {"1/2": [0]}


def test_distinguish_and_transport(tmp_path):
    path = write(tmp_path, WITNESS)
    code, rep = run_cli(["distinguish", path], tmp_path)
    assert code == 0 and rep["result"]["distinguished"]
    code, rep = run_cli(["transport", path], tmp_path)
    assert code == 0
    assert rep["result"]["checks"]["re_extension_equivalent"]
    assert rep["result"]["checks"]["sigma_anti_c_theta"]
    assert rep["result"]["invariants_over_F"]["dim"] == 2


def test_transport_without_distinction_block(tmp_path):
    out = tmp_path / "r.json"
    code = main(["--out", str(out), "transport", write(tmp_path, DEPTH_ZERO)])
    assert code == 1


def test_finite_verify_smoke(tmp_path):
    code, rep = run_cli(["finite-verify", "--q", "3"], tmp_path)
    assert code == 0
    assert rep["result"]["theta"]["ok"] and rep["result"]["weyl"]["ok"]


def test_datum_json_round_trip_random():
    rng = random.Random(3)
    for _ in range(20):
        d = gen.random_mixed_datum(rng.choice([5, 7]), rng, 3)
        doc = datum_to_json(d)
        parsed, _ = parse_datum(doc)
        assert parsed == d


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "thetaparam.cli", "finite-verify", "--q", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["theta"]["ok"]


def _with(doc, edit):
    out = json.loads(json.dumps(doc))
    edit(out)
    return out


def _domain_error(tmp_path, args, doc):
    out = tmp_path / "r.json"
    code = main(["--out", str(out), *args, write(tmp_path, doc)])
    rep = json.loads(out.read_text())
    assert code == 1 and rep["kind"] == "DomainError", rep
    return rep["error"]


def test_gamma_depth_with_zero_denominator_is_a_domain_error(tmp_path):
    doc = _with(WITNESS, lambda d: d["factors"][0]["gamma"][0].update(r="1/0"))
    assert "zero denominator" in _domain_error(tmp_path, ["lift"], doc)


def test_gamma_depth_outside_the_value_group_is_a_domain_error(tmp_path):
    # an unramified factor has e = 1, so r = 1/2 is not a valuation of L
    gamma = [{"r": "1/2", "residue_coeffs": [0, 2]}]
    doc = _with(DEPTH_ZERO, lambda d: d["factors"][0].update(gamma=gamma))
    assert "not in (1/1)Z" in _domain_error(tmp_path, ["blocks"], doc)


def test_residue_coeffs_beyond_the_residue_degree_are_a_domain_error(tmp_path):
    doc = _with(DEPTH_ZERO, lambda d: d["factors"][0]["c"].update(residue_coeffs=[0, 2, 1]))
    assert "3 residue coefficients" in _domain_error(tmp_path, ["lift"], doc)


def test_residue_coeffs_above_p_minus_one_are_a_domain_error(tmp_path):
    doc = _with(DEPTH_ZERO, lambda d: d["factors"][0]["c"].update(residue_coeffs=[5, 7]))
    assert "residue coefficient 5 is outside 0..4" in _domain_error(tmp_path, ["lift"], doc)


def test_negative_residue_coeffs_are_a_domain_error(tmp_path):
    doc = _with(DEPTH_ZERO, lambda d: d["factors"][0]["c"].update(residue_coeffs=[0, -3]))
    assert "residue coefficient -3 is outside 0..4" in _domain_error(tmp_path, ["lift"], doc)


def test_more_sigma_gamma_entries_than_gamma_levels_is_a_domain_error(tmp_path):
    structure = {"sigma_c": "fixed", "sigma_gamma": ["anti", "fixed", "none"]}
    doc = _with(WITNESS, lambda d: d["distinction"].update(F_structure=[structure]))
    assert "3 entries for 1 gamma levels" in _domain_error(tmp_path, ["distinguish"], doc)


def test_more_f_structure_entries_than_factors_is_a_domain_error(tmp_path):
    extra = {"sigma_c": "fixed", "sigma_gamma": ["anti"]}
    doc = _with(WITNESS, lambda d: d["distinction"]["F_structure"].append(extra))
    assert "2 entries for 1 factors" in _domain_error(tmp_path, ["distinguish"], doc)


def test_predict_validates_like_lift(tmp_path):
    code, rep = run_cli(["lift", write(tmp_path, DEPTH_ZERO)], tmp_path)
    orthogonal = rep["result"]["lifted"]
    for args in (["predict"], ["lift"]):
        error = _domain_error(tmp_path, args, orthogonal)
        assert error == "theta lift starts from a symplectic datum"
    not_general = _with(DEPTH_ZERO, lambda d: d["factors"][0].update(chi0=0))
    for args in (["predict"], ["lift"]):
        assert "not in general position" in _domain_error(tmp_path, args, not_general)


def test_validate_applies_the_witness_checks(tmp_path):
    # without sigma_c the witness's c is not declared sigma-fixed
    doc = _with(WITNESS, lambda d: d["distinction"]["F_structure"][0].pop("sigma_c"))
    path = write(tmp_path, doc)
    code, rep = run_cli(["validate", path], tmp_path)
    assert code == 1 and not rep["result"]["ok"]
    assert rep["result"]["violations"] == ["factor 0: c is not declared and consistent sigma-fixed"]
    code, rep = run_cli(["distinguish", path], tmp_path)
    assert code == 1 and rep["kind"] == "InvalidWitness"
