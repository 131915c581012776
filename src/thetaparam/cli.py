"""Command-line front end: JSON datum files in, deterministic reports out.

Exit codes: 0 on success (a negative verdict is still a success), 1 on a
domain error (the error is serialized into the report), 2 on schema or IO
problems.  Reports are byte-identical across runs for identical inputs:
keys are sorted, rational depths are printed as "num/den" strings, and no
floating point reaches the output.  One indent-2 encoder (`_render`) writes
every report, with the bytes of json.dumps(report, sort_keys=True, indent=2)
but on json's C string quoter: any indent sends json.dumps itself to its
pure-Python encoder.
"""

from __future__ import annotations

import argparse
import json
import numbers
import os
import random
import re
import sys
from fractions import Fraction
from functools import lru_cache

from . import __version__
from .errors import DomainError
from .localfield import (
    STEP_UNRAMIFIED,
    SYM_ANTI,
    SYM_FIXED,
    SYM_NONE,
    LeadingTerm,
    base_field,
    canonical_tau,
    factor_field,
)
from .finitefield import fq_embedding
from .theta import (
    DistinctionWitness,
    distinction_transport,
    distinguished_check,
    e_descriptor,
    lift,
    parity_predict,
    validate_for_lift,
    witness_violations,
)
from .torusdata import (
    Factor,
    TorusDatum,
    ValidationReport,
    block_decompose,
    datum_equivalent,
    validate,
)


class SchemaError(Exception):
    pass


def _is_integer(x) -> bool:
    """Draft 2020-12's integer: 1.0 is one, True and 1.5 are not."""
    if isinstance(x, float):
        return x.is_integer()
    return isinstance(x, int) and not isinstance(x, bool)


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "integer": _is_integer,
}
_DRAFT = "https://json-schema.org/draft/2020-12/schema"
_DEFS = "#/$defs/"


def compile_schema(schema: dict):
    """A check of a document against `schema` under draft 2020-12, as
    jsonschema 4.26.0 applies it: None when the schema accepts the document,
    else the message of the error `best_match` picks: the first in
    `iter_errors` order (keywords and properties in schema order, items by
    index, `$ref` in place) with the greatest key (-len(path), path, the
    instance does not match its node's "type").  A keyword or value it does
    not cover raises ValueError, so no edit to the schema goes unseen."""

    def node(sub: dict):
        checks = [keyword(key, value, sub) for key, value in sub.items()
                  if key not in ("title", "$defs") and (key, value) != ("$schema", _DRAFT)]

        def check(x, path, errors):
            for each in checks:
                each(x, path, errors)
        return check

    def leaf(sub, accepts, message):
        typed = _TYPES.get(sub.get("type"), lambda x: False)

        def check(x, path, errors):
            if not accepts(x):
                errors.append(((-len(path), path, not typed(x)), message(x)))
        return check

    def keyword(key, value, sub):
        if key == "type" and value in _TYPES:
            return leaf(sub, _TYPES[value], lambda x: f"{x!r} is not of type {value!r}")
        if key == "enum" and all(isinstance(v, str) for v in value):
            return leaf(sub, lambda x: isinstance(x, str) and x in value,
                        lambda x: f"{x!r} is not one of {value!r}")
        if key == "minimum":
            return leaf(sub, lambda x: isinstance(x, bool) or not isinstance(x, numbers.Number)
                        or not x < value, lambda x: f"{x!r} is less than the minimum of {value!r}")
        if key == "minItems" and value == 1:  # jsonschema words any other bound differently
            return leaf(sub, lambda x: not isinstance(x, list) or x, lambda x: f"{x!r} should be non-empty")
        if key == "required":  # only the first missing key can be best_match's pick
            needed = frozenset(value)
            return leaf(sub, lambda x: not isinstance(x, dict) or x.keys() >= needed,
                        lambda x: f"{next(k for k in value if k not in x)!r} is a required property")
        if key == "additionalProperties" and value is False:
            allowed = set(sub.get("properties", ()))

            def extras(x):
                names = sorted(x.keys() - allowed)
                return (f"Additional properties are not allowed ({', '.join(map(repr, names))} "
                        f"{'was' if len(names) == 1 else 'were'} unexpected)")
            return leaf(sub, lambda x: not isinstance(x, dict) or x.keys() <= allowed, extras)
        if key == "properties":
            props = [(k, node(v)) for k, v in value.items()]

            def check(x, path, errors):
                if isinstance(x, dict):
                    for k, child in props:
                        if k in x:
                            child(x[k], path + (k,), errors)
            return check
        if key == "items":
            item = node(value)

            def check(x, path, errors):
                if isinstance(x, list):
                    for i, y in enumerate(x):
                        item(y, path + (i,), errors)
            return check
        if key == "pattern":
            search = re.compile(value).search  # unanchored, as jsonschema's re.search
            return leaf(sub, lambda x: not isinstance(x, str) or search(x),
                        lambda x: f"{x!r} does not match {value!r}")
        if key == "$ref" and value.startswith(_DEFS):
            return node(schema["$defs"][value[len(_DEFS):]])
        raise ValueError(f"compile_schema does not support {key!r}: {value!r}")

    root = node(schema)

    def check(doc):
        errors = []
        root(doc, (), errors)
        return max(errors, key=lambda error: error[0])[1] if errors else None
    return check


@lru_cache(maxsize=None)
def _schema() -> dict:
    with open(os.path.join(os.path.dirname(__file__), "schemas", "datum.schema.json")) as fh:
        return json.load(fh)


@lru_cache(maxsize=None)
def _check():
    """The compiled datum schema, built once per process."""
    return compile_schema(_schema())


def _exact_number(token: str):
    """A number token with a fraction or an exponent.  One that denotes an
    integer (draft 2020-12 counts 5.0 as one) becomes that exact int, so no
    float reaches the maps or a report.  One whose float only rounds to an
    integer (1.0000000000000000001) stays an exact Decimal, and any other
    stays a float; the schema rejects both."""
    value = float(token)
    if value.is_integer():  # finite, so the int below has at most 309 digits
        from decimal import Decimal
        exact = Decimal(token)
        return int(exact) if exact == exact.to_integral_value() else exact
    return value


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"duplicate key {key!r}")
            seen.add(key)
    return obj


def load_document(path: str) -> tuple[dict, str]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as ex:
        raise SchemaError(f"cannot read {path}: {ex}") from ex
    import hashlib  # here, not at import: no other path needs it

    digest = hashlib.sha256(raw).hexdigest()
    try:
        doc = json.loads(raw, parse_float=_exact_number, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as ex:  # also undecodable bytes and too deep nesting
        raise SchemaError(f"{path} is not valid JSON: {ex}") from ex
    message = _check()(doc)
    if message is not None:
        raise SchemaError(f"{path} violates the datum schema: {message}")
    return doc, digest


def parse_datum(doc: dict):
    """Build the in-memory datum; with a distinction block the datum lives
    over E and a witness is returned as well.  Input that would have to be
    truncated or reinterpreted raises DomainError instead."""
    base_f = base_field(doc["base"]["p"], doc["base"]["f"])
    distinction = doc.get("distinction")
    base = e_descriptor(base_f) if distinction else base_f
    structures = (distinction or {}).get("F_structure") or []
    if len(structures) > len(doc["factors"]):
        raise DomainError(
            f"F_structure has {len(structures)} entries for {len(doc['factors'])} factors"
        )
    factors = []
    for i, fdoc in enumerate(doc["factors"]):
        field = factor_field(base, fdoc["m"], fdoc["step"])
        k = field.residue_field()
        struct = structures[i] if i < len(structures) else {}
        cdoc = fdoc["c"]
        c_sigma = cdoc.get("sigma_sym") or struct.get("sigma_c") or SYM_NONE
        c_res = _residue(k, cdoc["residue_coeffs"], f"factor {i}: c")
        c = LeadingTerm(field, cdoc["val"], c_res, cdoc["sym"], c_sigma)
        gammas = []
        gsigmas = struct.get("sigma_gamma") or []
        gdocs = fdoc.get("gamma") or []
        if len(gsigmas) > len(gdocs):
            raise DomainError(
                f"factor {i}: sigma_gamma has {len(gsigmas)} entries for {len(gdocs)} gamma levels"
            )
        for j, gdoc in enumerate(gdocs):
            tag = f"factor {i}: gamma r = {gdoc['r']}"
            try:
                r = Fraction(gdoc["r"])
            except ZeroDivisionError:
                raise DomainError(f"{tag} has a zero denominator") from None
            except ValueError:  # beyond the interpreter's int-string digit limit
                raise DomainError(f"{tag} has too many digits") from None
            if (r * field.e).denominator != 1:
                raise DomainError(f"{tag} is not in (1/{field.e})Z, the value group of L")
            gs = gdoc.get("sigma_sym") or (gsigmas[j] if j < len(gsigmas) else SYM_NONE)
            g_res = _residue(k, gdoc["residue_coeffs"], tag)
            gammas.append((r, LeadingTerm(field, -int(r * field.e), g_res, SYM_ANTI, gs)))
        factors.append(Factor(fdoc["m"], fdoc["step"], c, fdoc.get("chi0", 0), tuple(gammas)))
    datum = TorusDatum(base, tuple(factors), doc["polarity"])
    witness = DistinctionWitness(base_f, datum) if distinction else None
    return datum, witness


def datum_to_json(datum: TorusDatum, base_is_e: bool = False) -> dict:
    base_f = datum.base.base_f // 2 if base_is_e else datum.base.base_f
    out = {
        "base": {"p": datum.base.base_p, "f": base_f},
        "polarity": datum.polarity,
        "factors": [],
    }
    for f in datum.factors:
        fdoc = {
            "m": f.m,
            "step": f.step,
            "c": _lt_to_json(f.c),
            "chi0": f.chi0,
        }
        if f.gamma_levels:
            fdoc["gamma"] = [
                {
                    "r": _frac_str(r),
                    "residue_coeffs": list(g.residue.coeffs),
                    **({"sigma_sym": g.sigma_sym} if g.sigma_sym != SYM_NONE else {}),
                }
                for r, g in f.gamma_levels
            ]
        out["factors"].append(fdoc)
    if base_is_e:
        out["distinction"] = {"E": "unramified"}
    return out


def _residue(k, coeffs: list, tag: str):
    if len(coeffs) > k.f:
        raise DomainError(f"{tag}: {len(coeffs)} residue coefficients for a field of degree {k.f}")
    for c in coeffs:
        if not 0 <= c < k.p:
            raise DomainError(f"{tag}: residue coefficient {c} is outside 0..{k.p - 1}")
    return k.element(coeffs)


def _lt_to_json(lt: LeadingTerm) -> dict:
    doc = {"val": lt.val, "residue_coeffs": list(lt.residue.coeffs), "sym": lt.sym}
    if lt.sigma_sym != SYM_NONE:
        doc["sigma_sym"] = lt.sigma_sym
    return doc


def _frac_str(r: Fraction) -> str:
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def seeded_choices(datum: TorusDatum, seed: int):
    """Deterministic alternative (tau, uniformizer) choices from a seed:
    tau is scaled by a random unit of L0, the uniformizer by a random unit
    of the base field."""
    rng = random.Random(seed)
    k_base = datum.base.residue_field()
    while True:
        w = k_base.element([rng.randrange(datum.base.base_p) for _ in range(k_base.f)])
        if not w.is_zero():
            break
    uniformizer = LeadingTerm(datum.base, 1, w, SYM_FIXED, SYM_NONE)
    taus = {}
    for i, f in enumerate(datum.factors):
        if f.gamma_levels or f.step != STEP_UNRAMIFIED:
            continue
        field = f.c.field
        k0 = field.subfield_residue()
        while True:
            x = k0.element([rng.randrange(field.base_p) for _ in range(k0.f)])
            if not x.is_zero():
                break
        emb = fq_embedding(k0, field.residue_field())
        tau = canonical_tau(field)
        taus[i] = LeadingTerm(field, 0, tau.residue * emb.apply(x), SYM_ANTI, tau.sigma_sym)
    return uniformizer, taus


# ---------------------------------------------------------------------------
# commands


def _report(operation: str, digest: str | None, payload: dict) -> dict:
    rep = {"tool": "thetaparam", "version": __version__, "operation": operation}
    if digest is not None:
        rep["input_sha256"] = digest
    rep.update(payload)
    return rep


def _validation_report(datum: TorusDatum, witness) -> ValidationReport:
    """validate's report on a parsed document; for a distinction document,
    the witness violations, which include validate's on the datum over E."""
    return ValidationReport(witness_violations(witness)) if witness else validate(datum)


def _require_valid(datum: TorusDatum, witness):
    """Raise DomainError unless the document is valid: a command gives no
    verdict on a document that validation rejects."""
    report = _validation_report(datum, witness)
    if not report.ok:
        raise DomainError("invalid datum: " + "; ".join(report.violations))


def cmd_validate(args) -> tuple[dict, int]:
    doc, digest = load_document(args.path)
    report = _validation_report(*parse_datum(doc))
    payload = {"result": report.as_dict()}
    return _report("validate", digest, payload), 0 if report.ok else 1


def cmd_lift(args) -> tuple[dict, int]:
    doc, digest = load_document(args.path)
    datum, _ = parse_datum(doc)
    if args.tau_seed is not None:
        uniformizer, taus = seeded_choices(datum, args.tau_seed)
    else:
        uniformizer, taus = None, None
    res = lift(datum, uniformizer, taus)
    invariants = res.target_invariants.as_dict()
    payload = {
        "result": {
            "lifted": datum_to_json(res.lifted),
            "invariants": invariants,
            "predicted_invariants": invariants,
            "so_type": res.so.as_dict(),
        },
        "choices": res.choices,
    }
    return _report("lift", digest, payload), 0


def cmd_predict(args) -> tuple[dict, int]:
    doc, digest = load_document(args.path)
    datum, _ = parse_datum(doc)
    validate_for_lift(datum)
    inv, so = parity_predict(datum)
    payload = {"result": {"invariants": inv.as_dict(), "so_type": so.as_dict()}}
    return _report("predict", digest, payload), 0


def cmd_equiv(args) -> tuple[dict, int]:
    doc_a, dig_a = load_document(args.path_a)
    doc_b, dig_b = load_document(args.path_b)
    a, witness_a = parse_datum(doc_a)
    b, witness_b = parse_datum(doc_b)
    _require_valid(a, witness_a)
    _require_valid(b, witness_b)
    verdict = datum_equivalent(a, b, mode=args.mode)
    payload = {"input_sha256_b": dig_b, "result": {"equivalent": verdict, "mode": args.mode}}
    return _report("equiv", dig_a, payload), 0


def cmd_blocks(args) -> tuple[dict, int]:
    doc, digest = load_document(args.path)
    datum, witness = parse_datum(doc)
    _require_valid(datum, witness)
    decomposition = block_decompose(datum)
    payload = {"result": {"levels": decomposition.as_dict()}}
    return _report("blocks", digest, payload), 0


def cmd_distinguish(args) -> tuple[dict, int]:
    doc, digest = load_document(args.path)
    _, witness = parse_datum(doc)
    if witness is None:
        raise DomainError("the input file carries no distinction block")
    verdict = distinguished_check(witness)
    payload = {"result": verdict.as_dict()}
    return _report("distinguish", digest, payload), 0


def cmd_transport(args) -> tuple[dict, int]:
    doc, digest = load_document(args.path)
    _, witness = parse_datum(doc)
    if witness is None:
        raise DomainError("the input file carries no distinction block")
    res = distinction_transport(witness)
    payload = {
        "result": {
            "twisted_datum_over_E": datum_to_json(res.twisted_datum_e, base_is_e=True),
            "invariants_over_E": res.invariants_e.as_dict(),
            "f_structure": datum_to_json(res.f_datum),
            "invariants_over_F": res.invariants_f.as_dict(),
            "so_type_over_F": res.so_f.as_dict(),
            "checks": res.checks,
        },
        "choices": res.choices,
    }
    return _report("transport", digest, payload), 0


def verify_finite_theta(q: int) -> dict:
    """weilchar is imported only when finite-verify runs."""
    from .weilchar import verify_finite_theta
    return verify_finite_theta(q)


def validate_weyl_form_rank1(q: int) -> dict:
    from .weilchar import validate_weyl_form_rank1
    return validate_weyl_form_rank1(q)


def cmd_finite_verify(args) -> tuple[dict, int]:
    out = {"theta": verify_finite_theta(args.q), "weyl": validate_weyl_form_rank1(args.q)}
    return _report("finite-verify", None, {"result": out}), 0


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="thetaparam",
        description="parameter-level theta correspondence for torus data over p-adic fields",
    )
    parser.add_argument("--out", help="write the report to this path instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="structural validation of a datum file")
    p.add_argument("path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("lift", help="theta lift of a symplectic datum")
    p.add_argument("path")
    p.add_argument("--tau-seed", type=int, default=None,
                   help="derive alternative (tau, uniformizer) choices from this seed")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("predict", help="parity prediction for a depth-zero datum")
    p.add_argument("path")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("equiv", help="equivalence of two datum files")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.add_argument("--mode", choices=["weyl", "strict"], default="weyl")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("blocks", help="block decomposition by depth")
    p.add_argument("path")
    p.set_defaults(func=cmd_blocks)

    p = sub.add_parser("distinguish", help="distinction verdict for a witness file")
    p.add_argument("path")
    p.set_defaults(func=cmd_distinguish)

    p = sub.add_parser("transport", help="distinction transport of a distinguished witness")
    p.add_argument("path")
    p.set_defaults(func=cmd_transport)

    p = sub.add_parser("finite-verify", help="finite-field theta oracle report")
    p.add_argument("--q", type=int, choices=[3, 5], required=True)
    p.set_defaults(func=cmd_finite_verify)

    return parser


_quote = json.encoder.encode_basestring_ascii  # json's own C string quoter
_NEWLINES = ["\n"]  # depth d -> a newline and 2*d spaces, grown on demand


def _encode(value, depth: int, out: list) -> None:
    """Append value at nesting depth `depth` to out, as the chunks of
    json.dumps(value, sort_keys=True, indent=2).  Any type that a report
    does not hold (a float, a set, bytes, a non-str key) is a TypeError."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))  # ValueError past sys.get_int_max_str_digits()
    elif isinstance(value, (dict, list, tuple)):
        brackets = "{}" if isinstance(value, dict) else "[]"
        if not value:
            out.append(brackets)
            return
        if len(_NEWLINES) < depth + 2:
            _NEWLINES.append(_NEWLINES[-1] + "  ")
        inner = _NEWLINES[depth + 1]
        out.append(brackets[0])
        if brackets == "{}":
            for key in sorted(value):
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                out += (inner, _quote(key), ": ")
                _encode(value[key], depth + 1, out)
                out.append(",")
        else:
            for item in value:
                out.append(inner)
                _encode(item, depth + 1, out)
                out.append(",")
        out[-1] = _NEWLINES[depth] + brackets[1]  # in place of the last ","
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _render(report: dict) -> str:
    """The report as json.dumps(report, sort_keys=True, indent=2) writes
    it, plus a newline."""
    out = []
    try:
        _encode(report, 0, out)
    except ValueError as ex:  # an int longer than sys.get_int_max_str_digits()
        raise DomainError(f"the report cannot be written: {ex}") from None
    out.append("\n")
    return "".join(out)


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _error(message, kind: str) -> dict:
    return {"tool": "thetaparam", "version": __version__, "error": str(message), "kind": kind}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.func(args)
        text = _render(report)
    except SchemaError as ex:
        text, code = _render(_error(ex, "schema")), 2
    except DomainError as ex:
        text, code = _render(_error(ex, type(ex).__name__)), 1
    try:
        _emit(text, args.out)
    except OSError as ex:  # an unwritable --out: the error goes to stdout
        _emit(_render(_error(f"cannot write {args.out}: {ex}", "schema")), None)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
