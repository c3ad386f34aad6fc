"""Command line front end: construct, analyze, canonicalize, compare, census.

Every verb reads JSON documents, writes one JSON document with sorted keys
and an embedded version string, and exits 0 on success, 1 when an input
fails validation, 2 when the answer is out of scope or undecided. Identical
commands on identical inputs produce byte-identical output.
"""

import argparse
import functools
import json
import sys

from . import __version__
from .errors import CapabilityError, ValidationError, json_list
from .exact_field import Field, square_class
from .liecore import invariant_forms_basis
from .oscillator import (
    IsoWitness,
    OscillatorData,
    build_double_extension,
    classify_nilpotent,
    decide_isometric,
    lorentz_normalize,
    skew_census,
    verify_iso_witness,
    verify_structure,
)
from .skewcanon import canonical_pair, spectral_form


def _load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as e:
        raise ValidationError(f"cannot read input: {e}")
    except json.JSONDecodeError as e:
        raise ValidationError(f"input is not valid JSON: {e}")


def _field_arg(spec):
    if spec is None:
        return None
    return Field.parse(spec)


def _parsed(what, parse):
    """parse(), with a malformed document reported as a ValidationError."""
    try:
        return parse()
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise ValidationError(f"{what} is malformed: {e}")


def _data(doc, field):
    return _parsed("input document", lambda: OscillatorData.from_json(doc, field=field))


def _strs(F, vec):
    return [F.to_str(c) for c in vec]


def _heisenberg_doc(F, heis):
    if heis is None:
        return None
    return {
        "pairs": heis["pairs"],
        "vs": [_strs(F, v) for v in heis["vs"]],
        "ws": [_strs(F, w) for w in heis["ws"]],
    }


def _witness_doc(w):
    return None if w is None else w.to_json()


def _need(inputs, verb, count):
    if len(inputs) != count:
        raise ValidationError(
            f"{verb} needs exactly {count} --in document(s), got {len(inputs)}"
        )


def _seed(args, docs, field):
    """The one seed document of a verb that reads exactly one."""
    _need(docs, args.verb, 1)
    return _data(docs[0], field)


def _run_construct(args, docs, field):
    return 0, build_double_extension(_seed(args, docs, field)).to_json()


def _run_analyze(args, docs, field):
    data = _seed(args, docs, field)
    rep = verify_structure(data)
    # the extension again: building it only assembles the table
    dq = len(invariant_forms_basis(build_double_extension(data).algebra))
    rep["heisenberg"] = _heisenberg_doc(data.field, rep["heisenberg"])
    return 0, {"structure": rep, "dq": dq}


def _run_canon(args, docs, field):
    cp = canonical_pair(_seed(args, docs, field).delta)  # certified before it is returned
    doc = cp.to_json()
    doc["signature"] = cp.block_signature()
    return 0, doc


def _run_spectral(args, docs, field):
    S, D, P = spectral_form(_seed(args, docs, field).delta)
    return 0, {
        "companion": S.to_json(),
        "gram": D.to_json(),
        "basis_change": P.to_json(),
    }


def _run_iso(args, docs, field):
    if len(docs) not in (2, 3):
        raise ValidationError(
            f"{args.verb} needs two --in documents, plus an optional third witness document"
        )
    d1 = _data(docs[0], field)
    d2 = _data(docs[1], field)
    F = d1.field
    if len(docs) == 3:
        w = _parsed("witness document", lambda: IsoWitness.from_json(F, docs[2]))
        rep = verify_iso_witness(d1, d2, w)
        doc = {
            "mode": "verify",
            "verdict": rep["verdict"],
            "isometric": rep.get("isometric"),
            "conditions": rep.get("conditions"),
            "reason": rep.get("reason"),
        }
        return 0, doc
    dec = decide_isometric(d1, d2)
    doc = {
        "mode": "decide",
        "verdict": dec["verdict"],
        "mu": None if dec.get("mu") is None else F.to_str(dec["mu"]),
        "reason": dec.get("reason"),
        "witness": _witness_doc(dec.get("witness")),
    }
    return (2 if dec["verdict"] == "undecided" else 0), doc


def _run_classify(args, docs, field):
    rep = classify_nilpotent(_seed(args, docs, field))
    return 0, {
        "min_poly_degree": rep["min_poly_degree"],
        "sizes": rep["sizes"],
        "key": rep["key"],
    }


def _run_lorentz(args, docs, field):
    _need(docs, args.verb, 1)
    doc = docs[0]
    if not isinstance(doc, dict):
        raise ValidationError(f"{args.verb} input must be a JSON object")
    F = field or Field.parse(doc.get("field", "Q"))
    if "lambda" not in doc:
        raise ValidationError(f"{args.verb} input needs a 'lambda' list")

    def parse():
        lams = [F.of(c) for c in json_list(doc["lambda"], f"{args.verb} 'lambda'")]
        if "t" in doc or "s" in doc:
            return lams, (F.of(doc.get("t", 0)), F.of(doc.get("s", 1)))
        return lams, None

    lams, params = _parsed(f"{args.verb} document", parse)
    key = lorentz_normalize(F, lams, params)
    out = key.to_json()
    out["s_class"] = F.to_str(square_class(F, key.form_params[1]))
    return 0, out


def _run_census(args, docs, field):
    if docs:
        raise ValidationError(f"{args.verb} takes no --in documents")
    if field is None or args.dim is None:
        raise ValidationError(f"{args.verb} needs --field and --dim")
    c = skew_census(field, args.dim, unsafe=args.unsafe_size)
    return 0, c


_DISPATCH = {
    "construct": _run_construct,
    "analyze": _run_analyze,
    "canon": _run_canon,
    "spectral": _run_spectral,
    "iso": _run_iso,
    "classify-nilpotent": _run_classify,
    "lorentz": _run_lorentz,
    "census": _run_census,
}
VERBS = tuple(_DISPATCH)


def _emit(doc, out_path):
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise ValidationError(f"cannot write output: {e}")
    else:
        sys.stdout.write(text)


def build_parser():
    p = argparse.ArgumentParser(
        prog="quadlie",
        description="Exact computations with skew canonical pairs and their "
        "one dimensional double extensions.",
    )
    p.add_argument("verb", choices=VERBS)
    p.add_argument("--field", help="base field: Q or Fp:<p>")
    p.add_argument(
        "--in",
        dest="inputs",
        action="append",
        default=[],
        metavar="PATH",
        help="input JSON document; repeat for verbs that take several",
    )
    p.add_argument("--out", help="output path; stdout when omitted")
    p.add_argument(
        "--seed", type=int, default=0, help="value recorded in the output document"
    )
    p.add_argument("--dim", type=int, help="core dimension (census)")
    p.add_argument(
        "--unsafe-size",
        action="store_true",
        help="lift the census size caps",
    )
    return p


@functools.cache
def _parser():
    """The parser, built once per process: parse_args keeps no state in it
    (append copies its default list before adding to it)."""
    return build_parser()


def _fail(verb, kind, code, error, out_path):
    """Report an error: its kind and message on stderr, the JSON error
    document to out_path (stdout when None). When out_path cannot be
    written, that failure is reported the same way on stdout, exit 1."""
    print(f"{kind} error: {error}", file=sys.stderr)
    try:
        _emit({"version": __version__, "verb": verb, "error": str(error)}, out_path)
    except ValidationError as e:
        return _fail(verb, "validation", 1, e, None)
    return code


def main(argv=None):
    args = _parser().parse_args(argv)
    verb = args.verb
    try:
        field = _field_arg(args.field)
        docs = [_load(path) for path in args.inputs]
        code, doc = _DISPATCH[verb](args, docs, field)
    except ValidationError as e:
        return _fail(verb, "validation", 1, e, args.out)
    except CapabilityError as e:
        return _fail(verb, "capability", 2, e, args.out)
    doc = dict(doc)
    doc["version"] = __version__
    doc["verb"] = verb
    doc["seed"] = args.seed
    try:
        _emit(doc, args.out)
    except ValidationError as e:
        return _fail(verb, "validation", 1, e, None)
    return code


if __name__ == "__main__":
    sys.exit(main())
