import argparse
import json
import os
import random
import subprocess
import sys
from decimal import Decimal
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


def test_schema_is_compiled_once_per_process(tmp_path, monkeypatch):
    compile_schema, calls = cli.compile_schema, []
    monkeypatch.setattr(cli, "compile_schema", lambda schema: calls.append(schema) or compile_schema(schema))
    cli._check.cache_clear()
    valid = write(tmp_path, DEPTH_ZERO, "a.json")
    rejected = write(tmp_path, SCHEMA_VIOLATIONS["several_errors"])
    for _ in range(2):
        load_document(valid)
        with pytest.raises(cli.SchemaError):
            load_document(rejected)
    assert len(calls) == 1


# the first golden lift document: every integer field of the schema, gamma included
LIFT_DOC = {
    "base": {"p": 3, "f": 1},
    "polarity": "symplectic",
    "factors": [
        {
            "m": 3,
            "step": "unramified",
            "c": {"val": 3, "residue_coeffs": [0, 1, 1, 0, 0, 0], "sym": "anti"},
            "chi0": 14,
            "gamma": [{"r": "4", "residue_coeffs": [2, 1, 0, 2, 0, 0]}],
        }
    ],
}

INTEGRAL_FLOATS = {
    "p": lambda d: d["base"].update(p=3.0),
    "f": lambda d: d["base"].update(f=1.0),
    "m": lambda d: d["factors"][0].update(m=3.0),
    "val": lambda d: d["factors"][0]["c"].update(val=3.0),
    "chi0": lambda d: d["factors"][0].update(chi0=14.0),
    "c_residue_coeffs": lambda d: d["factors"][0]["c"]["residue_coeffs"].__setitem__(1, 1.0),
    "gamma_residue_coeffs": lambda d: d["factors"][0]["gamma"][0]["residue_coeffs"].__setitem__(0, 2.0),
}


@pytest.mark.parametrize("op", ["validate", "lift", "blocks", "predict"])
@pytest.mark.parametrize("field", sorted(INTEGRAL_FLOATS))
def test_integral_float_token_reads_as_its_integer(tmp_path, field, op):
    # draft 2020-12 counts 3.0 as an integer; the report must not tell the two apart
    reports = []
    for doc in (LIFT_DOC, _with(LIFT_DOC, INTEGRAL_FLOATS[field])):
        out = tmp_path / "r.json"
        code = main(["--out", str(out), op, write(tmp_path, doc)])
        rep = json.loads(out.read_text())
        rep.pop("input_sha256", None)
        reports.append((code, rep))
    assert ".0" in (tmp_path / "d.json").read_text()
    assert reports[0] == reports[1]


def test_number_tokens_that_denote_integers_parse_to_exact_ints():
    tokens = ["5.0", "1e30", "-0.0", "1.5", "1e400", "1.0000000000000000001", "1e-400"]
    assert [(v, type(v).__name__) for v in map(cli._exact_number, tokens)] == [
        (5, "int"), (10**30, "int"), (0, "int"), (1.5, "float"), (float("inf"), "float"),
        (Decimal("1.0000000000000000001"), "Decimal"), (Decimal("1e-400"), "Decimal"),
    ]


@pytest.mark.parametrize("token", ["1.0000000000000000001", "1e-400"])
def test_number_token_that_only_rounds_to_an_integer_is_a_schema_error(tmp_path, token):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(DEPTH_ZERO).replace('"chi0": 1', f'"chi0": {token}'))
    out = tmp_path / "r.json"
    assert main(["--out", str(out), "lift", str(path)]) == 2
    rep = json.loads(out.read_text())
    assert rep["error"] == f"{path} violates the datum schema: {Decimal(token)!r} is not of type 'integer'"


@pytest.mark.parametrize("level", ["top", "nested"])
def test_duplicate_key_exits_two(tmp_path, level):
    text = json.dumps(DEPTH_ZERO)
    if level == "top":
        text, key = text[:-1] + ', "base": {"p": 7, "f": 1}}', "base"
    else:
        text, key = text.replace('"f": 1}', '"f": 1, "p": 7}', 1), "p"
    path = tmp_path / "dup.json"
    path.write_text(text)
    out = tmp_path / "r.json"
    assert main(["--out", str(out), "lift", str(path)]) == 2
    rep = json.loads(out.read_text())
    assert (rep["kind"], rep["error"]) == ("schema", f"{path} is not valid JSON: duplicate key '{key}'")


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


def _python(code: str, *args: str, flags: tuple = ()) -> str:
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_numpy_finitetheta_and_jsonschema_unloaded():
    loaded = _python(
        "import thetaparam.cli, sys; "
        "print([m for m in ('numpy', 'thetaparam.finitetheta', 'thetaparam.oracle', 'jsonschema', "
        "'dataclasses', 'hashlib') if m in sys.modules])"
    )
    assert loaded.strip() == "[]"


def test_cli_and_its_schema_load_under_python_s_without_resource_machinery():
    """The schema is read from the file next to the CLI module, so under
    python -S (no site, as on a bare interpreter) importing the CLI and
    compiling its schema load no resource or archive machinery."""
    loaded = _python(
        "import sys; from thetaparam import cli; cli._check(); "
        "print([m for m in ('importlib.resources', 'pathlib', 'tempfile', 'typing', 'zipfile', "
        "'numpy', 'jsonschema', 'thetaparam.finitetheta', 'thetaparam.oracle') if m in sys.modules])",
        flags=("-S",),
    )
    assert loaded.strip() == "[]"


_COLD_RUN = """
import contextlib, io, json, sys
from importlib import resources
from thetaparam import cli
path, out = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    verify_code = cli.main(["finite-verify", "--q", "3"])
after_verify = [m for m in ("jsonschema", "dataclasses", "thetaparam.oracle", "numpy", "thetaparam.finitetheta")
                if m in sys.modules]
validate_code = cli.main(["--out", out, "validate", path])
after_validate = "jsonschema" in sys.modules
import jsonschema
schema = json.loads(resources.files("thetaparam.schemas").joinpath("datum.schema.json").read_text())
try:
    jsonschema.validate(json.load(open(path)), schema)
except jsonschema.ValidationError as ex:
    oracle = ex.message
print(json.dumps([verify_code, after_verify, validate_code, after_validate, oracle]))
"""


def test_finite_verify_and_a_rejected_document_leave_jsonschema_unloaded(tmp_path):
    path, out = write(tmp_path, SCHEMA_VIOLATIONS["several_errors"]), tmp_path / "r.json"
    *codes_and_modules, oracle = json.loads(_python(_COLD_RUN, path, str(out)))
    assert codes_and_modules == [0, [], 2, False]
    assert json.loads(out.read_text())["error"] == f"{path} violates the datum schema: {oracle}"


_VALID_RUN = """
import contextlib, io, json, sys
from thetaparam import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps([codes, [m for m in ("jsonschema", "dataclasses", "thetaparam.oracle") if m in sys.modules]]))
"""


def test_valid_documents_leave_jsonschema_unloaded(tmp_path):
    plain, witness = write(tmp_path, DEPTH_ZERO, "a.json"), write(tmp_path, WITNESS, "w.json")
    argvs = [["validate", plain], ["lift", plain], ["equiv", plain, plain], ["transport", witness]]
    codes, loaded = json.loads(_python(_VALID_RUN, json.dumps(argvs)))
    assert (codes, loaded) == ([0, 0, 0, 0], [])


GOLDEN_DOCS = sorted({
    text
    for line in (ROOT / "tests" / "golden" / "corpus.jsonl").read_text().splitlines()
    for text in json.loads(line)["docs"]
})
_REPLACEMENTS = [True, None, 0, 1, 2, 3, -1, 1.0, 2.0, 1.5, float("nan"), float("inf"),
                 "", "1/2", "1/2\n", "x", "fixed", "anti", "unramified", "orthogonal", [], [0], {}]
_KEYS = ["p", "f", "m", "val", "sym", "sigma_sym", "sigma_c", "chi0", "gamma", "r", "E", "extra"]


def _mutate(doc, rng: random.Random) -> None:
    """Replace a value, delete a key, add a key or append an item, at a
    random object or array of `doc`."""
    containers, stack = [], [doc]
    while stack:
        x = stack.pop()
        if isinstance(x, (dict, list)):
            containers.append(x)
            stack.extend(x.values() if isinstance(x, dict) else x)
    target = rng.choice(containers)
    value = rng.choice(_REPLACEMENTS)
    value = value.copy() if isinstance(value, (dict, list)) else value
    edit = rng.randrange(3)
    if isinstance(target, dict) and target and edit < 2:
        key = rng.choice(sorted(target))
        if edit:
            target[key] = value
        else:
            del target[key]
    elif isinstance(target, dict):
        target[rng.choice(_KEYS)] = value
    elif target and edit:
        target[rng.randrange(len(target))] = value
    else:
        target.append(value)


_ORACLE = jsonschema.validators.validator_for(cli._schema())(cli._schema())


def _oracle_message(doc):
    """The message of the error jsonschema.validate raises, or None."""
    error = jsonschema.exceptions.best_match(_ORACLE.iter_errors(doc))
    return None if error is None else error.message


def test_compiled_schema_agrees_with_jsonschema_on_mutated_golden_documents():
    check, rng = cli._check(), random.Random(13)
    verdicts, disagreements = set(), []
    for k in range(3000):
        doc = json.loads(GOLDEN_DOCS[k % len(GOLDEN_DOCS)])
        _mutate(doc, rng)
        message = _oracle_message(doc)
        verdicts.add(message is None)
        if check(doc) != message:
            disagreements.append(doc)
    assert disagreements == []
    assert verdicts == {True, False}


def _set(path, value):
    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value
    return edit


_C, _GAMMA = ("factors", 0, "c"), ("factors", 0, "gamma", 0)
PINNED = {
    "integer_1.0": (DEPTH_ZERO, _set((*_C, "val"), 1.0), True),
    "integer_true": (DEPTH_ZERO, _set((*_C, "val"), True), False),
    "integer_1.5": (DEPTH_ZERO, _set((*_C, "val"), 1.5), False),
    "integer_nan": (DEPTH_ZERO, _set((*_C, "val"), float("nan")), False),
    "integer_1e400": (DEPTH_ZERO, _set((*_C, "val"), json.loads("1e400")), False),
    "integer_decimal": (DEPTH_ZERO, _set((*_C, "val"), Decimal("1e-400")), False),
    "minimum_decimal": (DEPTH_ZERO, _set(("base", "p"), Decimal("2.5")), False),
    "polarity_true": (DEPTH_ZERO, _set(("polarity",), True), False),
    "r_trailing_newline": (WITNESS, _set((*_GAMMA, "r"), "1/2\n"), True),
    "p_2": (DEPTH_ZERO, _set(("base", "p"), 2), False),
    "p_2.0": (DEPTH_ZERO, _set(("base", "p"), 2.0), False),
    "extra_key_top": (WITNESS, _set(("extra",), 0), False),
    "extra_key_base": (WITNESS, _set(("base", "extra"), 0), False),
    "extra_key_factor": (WITNESS, _set(("factors", 0, "extra"), 0), False),
    "extra_key_c": (WITNESS, _set((*_C, "extra"), 0), False),
    "extra_key_gamma": (WITNESS, _set((*_GAMMA, "extra"), 0), False),
    "extra_key_distinction": (WITNESS, _set(("distinction", "extra"), 0), False),
    "extra_key_f_structure": (WITNESS, _set(("distinction", "F_structure", 0, "extra"), 0), False),
    # c is a $ref into $defs: its rules are followed there
    "ref_sym_missing": (DEPTH_ZERO, lambda d: d["factors"][0]["c"].pop("sym"), False),
    "ref_empty_residue_coeffs": (DEPTH_ZERO, _set((*_C, "residue_coeffs"), []), False),
    "ref_sigma_sym": (DEPTH_ZERO, _set((*_C, "sigma_sym"), "fixed"), True),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_compiled_schema_pinned_cases(case):
    base, edit, expected = PINNED[case]
    doc = _with(base, edit)
    message = _oracle_message(doc)
    assert (message is None) is expected
    assert cli._check()(doc) == message


# two nodes at one path: the minimum error comes first, but its instance
# matches its node's type, and the enum node has none, so best_match takes the enum error
TYPE_RULE = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "properties": {"a": {"type": "integer", "minimum": 3, "$ref": "#/$defs/x"}},
    "$defs": {"x": {"enum": ["x"]}},
}


@pytest.mark.parametrize("a", [2, 5, "x", "y"])
def test_compiled_schema_prefers_an_instance_that_misses_its_node_type(a):
    error = jsonschema.exceptions.best_match(jsonschema.Draft202012Validator(TYPE_RULE).iter_errors({"a": a}))
    message = cli.compile_schema(TYPE_RULE)({"a": a})
    assert message == error.message
    assert a != 2 or message == "2 is not one of ['x']"


@pytest.mark.parametrize("schema", [
    {"maxItems": 1},
    {"minItems": 2},
    {"additionalProperties": {}},
    {"$ref": "other.json#/$defs/leading_term"},
    {"$schema": "http://json-schema.org/draft-04/schema#"},
])
def test_compile_schema_raises_on_what_it_does_not_cover(schema):
    with pytest.raises(ValueError, match="does not support"):
        cli.compile_schema(schema)


def test_shipped_schema_passes_its_metaschema():
    schema = cli._schema()
    jsonschema.validators.validator_for(schema).check_schema(schema)


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


# rejected by validate: a gamma-free factor on a ramified tower; and an
# anti-flagged c at even valuation on a ramified tower, beside a valid datum
RAMIFIED_GAMMA = {
    "base": {"p": 5, "f": 1},
    "polarity": "symplectic",
    "factors": [{"m": 1, "step": "ramified", "c": {"val": 1, "residue_coeffs": [2], "sym": "anti"},
                 "chi0": 1, "gamma": [{"r": "1/2", "residue_coeffs": [3]}]}],
}
RAMIFIED_GAMMA_FREE = _with(RAMIFIED_GAMMA, lambda d: d["factors"][0].pop("gamma"))
FLAG_INCONSISTENT = _with(RAMIFIED_GAMMA, lambda d: d["factors"][0]["c"].update(val=0))


@pytest.mark.parametrize("args, docs, violation", [
    (["blocks"], [RAMIFIED_GAMMA_FREE], "depth-zero factor on a ramified tower"),
    (["equiv"], [RAMIFIED_GAMMA_FREE, RAMIFIED_GAMMA_FREE], "depth-zero factor on a ramified tower"),
    (["equiv"], [FLAG_INCONSISTENT, RAMIFIED_GAMMA], "declared anti flag contradicts"),
])
def test_equiv_and_blocks_give_no_verdict_on_an_invalid_document(tmp_path, capsys, args, docs,
                                                                 violation):
    paths = [write(tmp_path, doc, f"d{i}.json") for i, doc in enumerate(docs)]
    code = main([*args, *paths])
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert (code, report["kind"], err) == (1, "DomainError", "")
    assert report["error"].startswith("invalid datum: factor 0: ") and violation in report["error"]
    _, rep = run_cli(["validate", paths[0]], tmp_path)
    assert report["error"] == "invalid datum: " + "; ".join(rep["result"]["violations"])


def test_gamma_depth_with_zero_denominator_is_a_domain_error(tmp_path):
    doc = _with(WITNESS, lambda d: d["factors"][0]["gamma"][0].update(r="1/0"))
    assert "zero denominator" in _domain_error(tmp_path, ["lift"], doc)


@pytest.mark.parametrize("r", ["1" * 5000, "1/" + "3" * 5000])
def test_gamma_depth_with_too_many_digits_is_a_domain_error(tmp_path, capsys, r):
    """A depth beyond the interpreter's int-string digit limit gets one
    DomainError report, not a ValueError traceback."""
    gamma = [{"r": r, "residue_coeffs": [0, 2]}]
    doc = _with(DEPTH_ZERO, lambda d: d["factors"][0].update(gamma=gamma))
    code = main(["validate", write(tmp_path, doc)])
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert (code, report["kind"], err) == (1, "DomainError", "")
    assert report["error"] == f"factor 0: gamma r = {r} has too many digits"


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="the interpreter has no int-string digit limit")
@pytest.mark.parametrize("sign, gamma", [("", []), ("-", [{"r": "1", "residue_coeffs": [0, 2]}])],
                         ids=["depth-zero", "positive-depth"])
def test_lift_past_the_int_string_digit_limit_is_a_domain_error(tmp_path, capsys, sign, gamma):
    """The README depth-zero example with c.val the largest printable int
    (4,300 nines by default), and a positive-depth block with its negative:
    each lifted val has one digit more, so lift exits 1 with one DomainError
    report and no ValueError traceback."""
    doc = json.loads(json.dumps(DEPTH_ZERO))
    doc["factors"][0]["c"]["val"] = int(sign + "9" * sys.get_int_max_str_digits())
    if gamma:
        doc["factors"][0]["gamma"] = gamma
    code = main(["lift", write(tmp_path, doc)])
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert (code, report["kind"], err) == (1, "DomainError", "")
    assert report["error"].startswith("the report cannot be written: Exceeds the limit")


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
