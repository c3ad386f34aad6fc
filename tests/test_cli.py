"""Command line round trips: verbs, exit codes, deterministic output."""

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadlie
from quadlie import __version__
from quadlie.cli import VERBS, main
from quadlie.exact_field import Field
from quadlie.linalg import Matrix
from quadlie.liecore import LieAlgebra, QuadraticLieAlgebra
from quadlie.oscillator import (
    IsoWitness,
    OscillatorData,
    build_double_extension,
    from_lambda_tuple,
    recover_double_extension,
)
from quadlie.quadspace import OrthogonalSpace

Q = Field.parse("Q")


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def n23_seed():
    return OscillatorData(
        OrthogonalSpace(Matrix(Q, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])),
        Matrix(Q, [[0, 0, 0], [1, 0, 0], [0, -1, 0]]),
    )


def n23_doc(tmp_path):
    return write(tmp_path, "n23.json", n23_seed().to_json())


def test_construct(tmp_path, capsys):
    code, doc = run(capsys, "construct", "--in", n23_doc(tmp_path))
    assert code == 0
    assert doc["version"] == __version__
    assert doc["algebra"]["dim"] == 5
    assert {"i": 0, "j": 1, "v": ["0", "0", "1", "0", "0"]} in doc["algebra"]["brackets"]


def test_analyze_zero_seed(tmp_path, capsys):
    d = OscillatorData(
        OrthogonalSpace(Matrix.identity(Q, 2)), Matrix.zeros(Q, 2, 2)
    )
    path = write(tmp_path, "zero.json", d.to_json())
    code, doc = run(capsys, "analyze", "--in", path)
    assert code == 0
    assert doc["structure"]["abelian"]
    # symmetric forms of the 4-dimensional abelian extension
    assert doc["dq"] == 10


def test_analyze_rotation(tmp_path, capsys):
    path = write(tmp_path, "rot.json", from_lambda_tuple(Q, (1, 2)).to_json())
    code, doc = run(capsys, "analyze", "--in", path)
    assert code == 0
    assert doc["structure"]["second_derived"] == "line"
    assert doc["structure"]["heisenberg"]["pairs"] == 2


def test_canon(tmp_path, capsys):
    code, doc = run(capsys, "canon", "--in", n23_doc(tmp_path))
    assert code == 0
    assert doc["signature"] == [["zero_odd", 3, ["0", "1"], "-1"]]
    assert doc["residual"] == []
    assert doc["basis_change"]["rows"] == 3


def test_spectral(tmp_path, capsys):
    path = write(tmp_path, "rot.json", from_lambda_tuple(Q, (1,)).to_json())
    code, doc = run(capsys, "spectral", "--in", path)
    assert code == 0
    assert doc["companion"]["entries"] == ["0", "-1", "1", "0"]
    assert doc["gram"]["entries"] == ["1", "0", "0", "1"]


def test_iso_decide(tmp_path, capsys):
    a = write(tmp_path, "a.json", from_lambda_tuple(Q, (2, 4, 6)).to_json())
    b = write(tmp_path, "b.json", from_lambda_tuple(Q, (1, 2, 3)).to_json())
    code, doc = run(capsys, "iso", "--in", a, "--in", b)
    assert code == 0
    assert doc["verdict"] == "yes"
    assert doc["mu"] == "2"
    assert doc["witness"]["mu"] == "2"


def test_iso_verify(tmp_path, capsys):
    a = write(tmp_path, "a.json", from_lambda_tuple(Q, (2, 4, 6)).to_json())
    b = write(tmp_path, "b.json", from_lambda_tuple(Q, (1, 2, 3)).to_json())
    w = IsoWitness(
        Matrix.identity(Q, 6), [Q.zero] * 6, Q.of("1/2"), Q.of(2), Q.zero
    )
    wp = write(tmp_path, "w.json", w.to_json())
    code, doc = run(capsys, "iso", "--in", a, "--in", b, "--in", wp)
    assert code == 0
    assert doc["verdict"] == "isometric-isomorphism"
    assert doc["conditions"]["lambda_mu_is_one"]


def test_iso_undecided_exit(tmp_path, capsys):
    d = OscillatorData(
        OrthogonalSpace(Matrix.identity(Q, 4)),
        Matrix(Q, [[0, 1, 1, 0], [-1, 0, 0, 0], [-1, 0, 0, 1], [0, 0, -1, 0]]),
    )
    path = write(tmp_path, "quartic.json", d.to_json())
    code, doc = run(capsys, "iso", "--in", path, "--in", path)
    assert code == 2
    assert doc["verdict"] == "undecided"


def test_iso_witness_built_by_sympy(tmp_path, capsys, monkeypatch):
    # the (1, 2) seed against a scrambled copy: the plane norm equation
    # alpha^2 + 4 beta^2 = 4/5 has no square-root shortcut, so sympy builds
    # the witness; sympy returns sets, so the bytes must not depend on the
    # hash seed
    import sympy.solvers.diophantine  # noqa: F401

    d1 = from_lambda_tuple(Q, (1, 2))
    d2 = scrambled_seed(d1, [[0, 1, -1, 1], [-1, 0, -1, -1], [-1, 1, 1, -1], [0, 1, -1, 0]])
    a = write(tmp_path, "a.json", d1.to_json())
    b = write(tmp_path, "b.json", d2.to_json())
    dmod = sys.modules["sympy.solvers.diophantine"]
    calls = []
    real = dmod.diophantine
    monkeypatch.setattr(dmod, "diophantine", lambda *args: calls.append(args) or real(*args))
    code, doc = run(capsys, "iso", "--in", a, "--in", b)
    assert code == 0 and doc["verdict"] == "yes"
    assert len(calls) == 1
    w = write(tmp_path, "w.json", doc["witness"])
    code, rep = run(capsys, "iso", "--in", a, "--in", b, "--in", w)
    assert code == 0 and rep["verdict"] == "isometric-isomorphism"
    src = os.path.dirname(os.path.dirname(os.path.abspath(quadlie.__file__)))
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "quadlie", "iso", "--in", a, "--in", b],
                              capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0]) == doc


def test_importing_quadlie_loads_no_sympy():
    # sympy is imported only where a norm-equation witness is built
    src = os.path.dirname(os.path.dirname(os.path.abspath(quadlie.__file__)))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, quadlie, quadlie.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_lorentz(tmp_path, capsys):
    path = write(tmp_path, "lor.json", {"field": "Q", "lambda": [5, 5]})
    code, doc = run(capsys, "lorentz", "--in", path)
    assert code == 0
    assert doc["lambda"] == ["1", "1"]
    assert doc["s_class"] == "1"


def test_lorentz_prints_huge_entries(tmp_path, capsys):
    # 5000 digits: beyond what str() of an int may print by default
    big = "9" * 4000 + "e1000"
    path = write(tmp_path, "lor.json", {"field": "Q", "lambda": ["1", big]})
    code, doc = run(capsys, "lorentz", "--in", path)
    assert code == 0
    assert doc["lambda"] == ["1", "9" * 4000 + "0" * 1000]


def test_classify(tmp_path, capsys):
    code, doc = run(capsys, "classify-nilpotent", "--in", n23_doc(tmp_path))
    assert code == 0
    assert doc["sizes"] == [3]
    assert doc["key"] == [["zero_odd", 3, ["0", "1"], "-1"]]


def test_census_deterministic(tmp_path, capsys):
    out1 = tmp_path / "c1.json"
    out2 = tmp_path / "c2.json"
    assert main(["census", "--field", "Fp:3", "--dim", "2", "--out", str(out1)]) == 0
    assert main(["census", "--field", "Fp:3", "--dim", "2", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["total"] == 3
    assert sum(doc["buckets"].values()) == 3


def test_census_cap_exit(capsys):
    code, doc = run(capsys, "census", "--field", "Fp:3", "--dim", "5")
    assert code == 2
    assert "error" in doc


def test_validation_exit(tmp_path, capsys):
    bad = {
        "field": "Q",
        "gram": {"rows": 2, "cols": 2, "entries": ["0", "0", "0", "1"]},
        "delta": {"rows": 2, "cols": 2, "entries": ["0", "0", "0", "0"]},
    }
    path = write(tmp_path, "bad.json", bad)
    code, doc = run(capsys, "analyze", "--in", path)
    assert code == 1
    assert "regular" in doc["error"]


def _bad_canon(tmp_path, doc):
    doc["delta"]["entries"][3] = "1/0"
    return ["canon", "--in", write(tmp_path, "bad.json", doc)]


def _bad_canon_exponent(tmp_path, doc):
    # 10**40000000 would be built exactly before anything else could fail
    doc["delta"]["entries"][3] = "1e40000000"
    return ["canon", "--in", write(tmp_path, "bad.json", doc)]


def _bad_canon_field(tmp_path, doc):
    doc["field"] = 5
    return ["canon", "--in", write(tmp_path, "bad.json", doc)]


def _bad_witness(tmp_path, doc):
    a = write(tmp_path, "a.json", from_lambda_tuple(Q, (2, 4, 6)).to_json())
    b = write(tmp_path, "b.json", from_lambda_tuple(Q, (1, 2, 3)).to_json())
    w = IsoWitness(
        Matrix.identity(Q, 6), [Q.zero] * 6, Q.of("1/2"), Q.of(2), Q.zero
    ).to_json()
    w["lambda"] = "1/0"
    return ["iso", "--in", a, "--in", b, "--in", write(tmp_path, "w.json", w)]


def _bad_shape(verb, shape):
    def argv(tmp_path, doc):
        doc["gram"] = dict(shape)
        doc["delta"] = dict(shape)
        return [verb, "--in", write(tmp_path, "bad.json", doc)]

    return argv


def _bad_canon_bool(tmp_path, doc):
    # read as 1 and 0 these would be the document's own "1" and "0"
    doc["delta"]["entries"][3] = True
    doc["delta"]["entries"][0] = False
    return ["canon", "--in", write(tmp_path, "bad.json", doc)]


def _string_gram(tmp_path, doc):
    # read one character per entry, "1001" would be the identity form
    doc["gram"] = {"rows": 2, "cols": 2, "entries": "1001"}
    doc["delta"] = {"rows": 2, "cols": 2, "entries": ["0", "1", "-1", "0"]}
    return ["canon", "--in", write(tmp_path, "bad.json", doc)]


def _string_witness(part):
    # read one character per entry, each would be a valid identity witness
    def argv(tmp_path, _):
        seed = write(tmp_path, "a.json", from_lambda_tuple(Q, (1,)).to_json())
        w = IsoWitness(Matrix.identity(Q, 2), [Q.zero] * 2, Q.one, Q.one, Q.zero).to_json()
        if part == "f":
            w["f"]["entries"] = "1001"
        else:
            w["z"] = "00"
        return ["iso", "--in", seed, "--in", seed, "--in", write(tmp_path, "w.json", w)]

    return argv


def _bad_lorentz(doc):
    return lambda tmp_path, _: ["lorentz", "--in", write(tmp_path, "lor.json", doc)]


@pytest.mark.parametrize(
    "argv",
    [
        _bad_canon,
        _bad_witness,
        _bad_lorentz({"field": "Q", "lambda": ["abc"]}),
        _bad_lorentz({"field": "Q", "lambda": 5}),
        _bad_lorentz({"field": "Q", "lambda": [1, 2], "s": "x"}),
        _bad_lorentz({"field": "Q", "lambda": ["1/0"]}),
        _bad_canon_field,
        _bad_lorentz("abc"),
        lambda tmp_path, _: ["census", "--field", "Fp:3", "--dim", "-1"],
        _bad_shape("construct", {"rows": -1, "cols": -1, "entries": ["7"]}),
        _bad_shape("canon", {"rows": 0, "cols": 3, "entries": []}),
        _bad_canon_bool,
        _bad_canon_exponent,
        _bad_lorentz({"field": "Q", "lambda": "123"}),
        _string_gram,
        _string_witness("f"),
        _string_witness("z"),
    ],
    ids=["canon-1/0", "witness-lambda-1/0", "lorentz-abc", "lorentz-int",
         "lorentz-s-x", "lorentz-1/0", "canon-field-int", "lorentz-not-object",
         "census-dim-negative", "construct-shape-negative", "canon-shape-0x3",
         "canon-bool-entries", "canon-huge-exponent", "lorentz-lambda-string",
         "canon-gram-entries-string", "witness-f-entries-string", "witness-z-string"],
)
def test_malformed_input_exit(tmp_path, capsys, argv):
    d = OscillatorData(
        OrthogonalSpace(Matrix(Q, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])),
        Matrix(Q, [[0, 0, 0], [1, 0, 0], [0, -1, 0]]),
    )
    code, doc = run(capsys, *argv(tmp_path, d.to_json()))
    assert code == 1
    assert doc["error"]


@pytest.mark.parametrize("limit, nines", [(None, 1500), (640, 600)],
                         ids=["spectral-huge-digits", "limit-640"])
def test_huge_digits_are_printed_exactly(tmp_path, capsys, limit, nines):
    # a = (10^nines - 1) 10^1000 is accepted as input (its mantissa is within
    # the limit); the companion matrix holds -a^2, whose digits are beyond
    # what str() of an int may print under the limit (4300 by default, 640
    # the least), and printing it must not touch the limit
    big = "9" * nines + "e1000"
    doc = from_lambda_tuple(Q, (1,)).to_json()
    doc["delta"]["entries"] = ["0", "-" + big, big, "0"]
    path = write(tmp_path, "huge.json", doc)
    before = sys.get_int_max_str_digits()
    if limit is not None:
        sys.set_int_max_str_digits(limit)
    try:
        code = main(["spectral", "--in", path])
        out = capsys.readouterr().out
        assert sys.get_int_max_str_digits() == (limit or before)
    finally:
        sys.set_int_max_str_digits(before)
    assert code == 0
    result = json.loads(out)
    a_squared = "9" * (nines - 1) + "8" + "0" * (nines - 1) + "1" + "0" * 2000
    assert result["companion"]["entries"] == ["0", "-" + a_squared, "1", "0"]
    assert result["gram"]["entries"][3] == a_squared


def test_canon_refuses_an_unfactorable_scalar(tmp_path, capsys):
    # the rotation scalar's square class needs the squarefree part of a
    # ~2500-digit integer; factoring it stalled before FACTOR_STEP_BOUND
    big = "9" * 1500 + "e1000"
    doc = from_lambda_tuple(Q, (1,)).to_json()
    doc["delta"]["entries"] = ["0", "-" + big, big, "0"]
    path = write(tmp_path, "huge.json", doc)
    code, out = run(capsys, "canon", "--in", path)
    assert code == 2
    assert "integer factorization capped" in out["error"]


def test_missing_input_exit(capsys):
    code, doc = run(capsys, "analyze")
    assert code == 1
    assert "--in" in doc["error"]


@pytest.mark.parametrize("where", ["directory", "missing parent"])
@pytest.mark.parametrize("argv", [
    ["census", "--field", "Fp:3", "--dim", "1"],  # a result that cannot be written
    ["census", "--field", "Fp:3"],  # an error document that cannot be written
])
def test_unwritable_output_exit(tmp_path, capsys, where, argv):
    out = tmp_path if where == "directory" else tmp_path / "missing" / "c.json"
    code = main(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    doc = json.loads(captured.out)
    assert doc["verb"] == "census" and doc["version"] == __version__
    assert doc["error"].startswith("cannot write output:")
    assert captured.err.splitlines()[-1] == f"validation error: {doc['error']}"
    assert not (tmp_path / "missing").exists()


def test_consecutive_main_calls_share_no_state(tmp_path, capsys):
    n23 = n23_doc(tmp_path)
    rot = write(tmp_path, "rot.json", from_lambda_tuple(Q, (1, 2)).to_json())
    code, first = run(capsys, "classify-nilpotent", "--in", n23, "--seed", "7")
    assert (code, first["seed"], first["sizes"]) == (0, 7, [3])
    # two --in documents after one: the earlier list does not grow
    code, doc = run(capsys, "iso", "--in", rot, "--in", rot)
    assert (code, doc["seed"], doc["verdict"]) == (0, 0, "yes")
    # no --in after two, and no --seed or --field after both were given
    code, doc = run(capsys, "analyze")
    assert code == 1 and "got 0" in doc["error"]
    code, doc = run(capsys, "classify-nilpotent", "--in", n23, "--field", "Fp:5", "--seed", "3")
    assert (code, doc["seed"], doc["sizes"]) == (0, 3, [3])
    code, doc = run(capsys, "classify-nilpotent", "--in", n23)
    assert doc == dict(first, seed=0)
    out = tmp_path / "c.json"
    assert main(["census", "--field", "Fp:3", "--dim", "1", "--out", str(out)]) == 0
    code, doc = run(capsys, "census", "--field", "Fp:3", "--dim", "1")
    assert code == 0 and doc == json.loads(out.read_text())


def test_field_override(tmp_path, capsys):
    # a rational document reread over F5: entries coerce, -1 becomes 4
    path = n23_doc(tmp_path)
    code, doc = run(capsys, "classify-nilpotent", "--in", path, "--field", "Fp:5")
    assert code == 0
    assert doc["sizes"] == [3]
    # fraction entries reread over F5: 1/2 becomes 3
    d = OscillatorData(
        OrthogonalSpace(Matrix(Q, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])),
        Matrix(Q, [[0, 0, 0], ["1/2", 0, 0], [0, "-1/2", 0]]),
    )
    assert "1/2" in d.to_json()["delta"]["entries"]
    path = write(tmp_path, "half.json", d.to_json())
    code, doc = run(capsys, "classify-nilpotent", "--in", path, "--field", "Fp:5")
    assert code == 0
    assert doc["sizes"] == [3]


# --- frozen output bytes ------------------------------------------------------

README_SEED = {
    "field": "Q",
    "gram": {"rows": 2, "cols": 2, "entries": ["1", "0", "0", "1"]},
    "delta": {"rows": 2, "cols": 2, "entries": ["0", "-1", "1", "0"]},
}


def mixed_seed(F):
    """A nilpotent 3-chain next to a rotation plane (x^2 + 4), scrambled."""
    G = Matrix(F, [[0, 0, 1, 0, 0], [0, 1, 0, 0, 0], [1, 0, 0, 0, 0],
                   [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]])
    D = Matrix(F, [[0, 0, 0, 0, 0], [1, 0, 0, 0, 0], [0, -1, 0, 0, 0],
                   [0, 0, 0, 0, 2], [0, 0, 0, -2, 0]])
    P = Matrix(F, [[1, 1, 0, 0, 1], [0, 1, 1, 0, 0], [1, 0, 1, 1, 0],
                   [0, 0, 1, 1, 1], [1, 0, 0, 1, 1]])
    return OscillatorData(OrthogonalSpace(P.transpose() * G * P), P.inverse() * D * P)


def scrambled_extension(F, seed):
    """Extension of an invertible seed (x^2 + 4 next to x^2 - 1) in a random basis."""
    G = Matrix(F, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    D = Matrix(F, [[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]])
    Qx = build_double_extension(OscillatorData(OrthogonalSpace(G), D))
    n = Qx.dim
    rng = random.Random(seed)
    while True:
        P = Matrix(F, [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if P.rank() == n:
            break
    Pi = P.inverse()
    cols = P.cols()
    brackets = {
        (i, j): Pi.matvec(Qx.algebra.bracket(cols[i], cols[j]))
        for i in range(n)
        for j in range(i + 1, n)
    }
    return QuadraticLieAlgebra(
        LieAlgebra.from_brackets(F, n, brackets),
        OrthogonalSpace(P.transpose() * Qx.space.gram * P),
    )


def scrambled_seed(d, rows):
    """The seed d in the basis given by the columns of rows."""
    P = Matrix(d.field, rows)
    return OscillatorData(OrthogonalSpace(P.transpose() * d.space.gram * P),
                          P.inverse() * d.delta.matrix * P)


def iso_pairs():
    """Decision pairs: definite Q (yes, with a witness), split F5 (yes at
    scale 2), repeated rotation scalar over Q (answered "no")."""
    definite = from_lambda_tuple(Q, (1, 2))
    F5 = Field.parse("Fp:5")
    G = Matrix(F5, [[0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, 1, 0, 0]])
    split = OscillatorData(OrthogonalSpace(G), Matrix.diagonal(F5, [1, 3, 4, 2]))
    split2 = scrambled_seed(split, [[1, 2, 0, 1], [0, 1, 3, 0], [1, 0, 1, 0], [0, 1, 0, 1]])
    repeated = from_lambda_tuple(Q, (3, 3))
    return {
        "definite-Q": (definite, scrambled_seed(
            definite, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]])),
        "split-F5": (split, OscillatorData(split2.space, split2.delta.matrix.scale(2))),
        "repeated-Q": (repeated, scrambled_seed(
            repeated, [[0, -1, 0, 1], [-1, 1, -1, -1], [1, -1, 0, 0], [-1, 0, -1, -1]])),
    }


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of construct/analyze stdout and of the JSON of a scrambled and a
# recovered algebra, frozen from the dense structure-tensor implementation;
# canon, spectral, classify-nilpotent and iso stdout frozen before the
# canonical-form code moved onto the shared chain and product helpers
FROZEN_SHA256 = {
    "analyze:mixed-F7": "e6710b170ecbdd05f857394eca3e08a035de42ae9a87a5f7f3a46c94bc357279",
    "analyze:mixed-Q": "e6710b170ecbdd05f857394eca3e08a035de42ae9a87a5f7f3a46c94bc357279",
    "analyze:n23": "06962a435ba8ae00ada1bee97cb86c9ca8dc87b5875987a7394068f6fdc8f5a1",
    "analyze:readme": "3d682722205b4511c2f4d08ec3116e12ca5df5d0426393e1e847a3edfce7a990",
    "canon:mixed-F7": "f2bccc668981d8698cab8afdd2d7074ace7b637d99930237a26478af3ceb568d",
    "canon:mixed-Q": "666f0589223f9464639a7190ef465ebf84fa98b9f321e2025276e4d0978ce4a5",
    "canon:n23": "5b7f0343fed7a347c795408ebd69c6708b7cf5ae28e3db5a39a2fe65796e1dc8",
    "canon:readme": "fa8d5981312f45eaf1df9c929b38acb03f60e6b47c9723716c55853ebc32a555",
    "classify-nilpotent:mixed-F7": "98e311fa20c6f2147771a199e39f6c2809e848fe9808805f0cb147b70862e8e7",
    "classify-nilpotent:mixed-Q": "98e311fa20c6f2147771a199e39f6c2809e848fe9808805f0cb147b70862e8e7",
    "classify-nilpotent:n23": "2603bc6d951528fd81cef7057f0995cced741db01393b0daef35822cd516f278",
    "classify-nilpotent:readme": "98e311fa20c6f2147771a199e39f6c2809e848fe9808805f0cb147b70862e8e7",
    "construct:mixed-F7": "757b305efc50fa5c864746c6cbb9b46d09bdb29a8ae03a2f883c4aef5174f00a",
    "construct:mixed-Q": "6d97af46aeb93de8a6e115930b96ea00d95017ecb2584ff9884b45a70ba97cce",
    "construct:n23": "744d7908e9a9e73532a202c1fa968c6eb951f84b20e59153e9514a33c4397cd8",
    "construct:readme": "da4a53dbf01f2020e0ab94ac4068c88e4d4e7cd34171a60ac58db39ffa0cbef4",
    "iso-verify:definite-Q": "b7c3fa0866ff5347314e90d4d5bd8ac32104cda2694bb41700c8328240329808",
    "iso-verify:split-F5": "b7c3fa0866ff5347314e90d4d5bd8ac32104cda2694bb41700c8328240329808",
    "iso:definite-Q": "ec4535dbe1874a8b2b8f8b2e346f8f1b2d03ab1120fdb92dd7b11f0eabf1c116",
    "iso:repeated-Q": "d724ddee1ca4529ad3731576d01460275acce2305a8306039e07f94710aef460",
    "iso:split-F5": "7c154f85718e103849503c132cf9625b6cfa61a34311b1af613b57f5f0e58680",
    "recovered": "fdc0fabfa4580facf7ee5553abe702f32e3bf60828573070b52d7db36140c261",
    "scrambled": "c5278dd4bac432419b926ad932dd876d2767b4bebd8e346c10481eada91edfb9",
    "spectral:mixed-F7": "ab85b615d1fc0a258404cdcf085807229be2b743b2a7de6229e1d4964b50848a",
    "spectral:mixed-Q": "ab85b615d1fc0a258404cdcf085807229be2b743b2a7de6229e1d4964b50848a",
    "spectral:n23": "ab85b615d1fc0a258404cdcf085807229be2b743b2a7de6229e1d4964b50848a",
    "spectral:readme": "7b257b2e3aee0ae19cdd7af1710a10d68823d8cc745486a07683b34bce952dc1",
}

# exit codes of the frozen runs that do not exit 0: only the readme seed is
# anisotropic, only n23 is nilpotent
FROZEN_FAILED_EXIT = {
    "classify-nilpotent:mixed-F7": 1,
    "classify-nilpotent:mixed-Q": 1,
    "classify-nilpotent:readme": 1,
    "spectral:mixed-F7": 1,
    "spectral:mixed-Q": 1,
    "spectral:n23": 1,
}


def test_frozen_output_bytes(tmp_path, capsys):
    seeds = {
        "readme": README_SEED,
        "mixed-Q": mixed_seed(Q).to_json(),
        "mixed-F7": mixed_seed(Field.parse("Fp:7")).to_json(),
        "n23": n23_seed().to_json(),
    }
    got, failed = {}, {}
    for name, doc in seeds.items():
        path = write(tmp_path, name + ".json", doc)
        for verb in ("construct", "analyze", "canon", "spectral", "classify-nilpotent"):
            code = main([verb, "--in", path])
            got[f"{verb}:{name}"] = _sha(capsys.readouterr().out)
            if code:
                failed[f"{verb}:{name}"] = code
    verdicts = {}
    for name, (d1, d2) in iso_pairs().items():
        paths = [write(tmp_path, f"{name}-{i}.json", d.to_json()) for i, d in enumerate((d1, d2))]
        assert main(["iso", "--in", paths[0], "--in", paths[1]]) == 0
        out = capsys.readouterr().out
        got[f"iso:{name}"] = _sha(out)
        verdicts[name] = json.loads(out)["verdict"]
        witness = json.loads(out)["witness"]
        if witness is not None:
            wpath = write(tmp_path, f"{name}-w.json", witness)
            assert main(["iso", "--in", paths[0], "--in", paths[1], "--in", wpath]) == 0
            got[f"iso-verify:{name}"] = _sha(capsys.readouterr().out)
    assert failed == FROZEN_FAILED_EXIT
    assert verdicts == {"definite-Q": "yes", "split-F5": "yes", "repeated-Q": "no"}
    Qs = scrambled_extension(Q, 11)
    got["scrambled"] = _sha(json.dumps(Qs.to_json(), sort_keys=True))
    rebuilt = build_double_extension(recover_double_extension(Qs))
    got["recovered"] = _sha(json.dumps(rebuilt.to_json(), sort_keys=True))
    assert got == FROZEN_SHA256


# --- fuzzed documents ---------------------------------------------------------

GOOD_FIELDS = ["Q", "Fp:3", "Fp:5", "Fp:7", "Fp:2305843009213693951"]
BAD_FIELDS = ["Fp:2", "Fp:9", "Fp:15", "Fp:1", "Fp:x", "R", 5, None, True]
fields = st.one_of(*[st.sampled_from(GOOD_FIELDS)] * 3, st.sampled_from(BAD_FIELDS))
scalars = st.one_of(
    st.integers(-3, 3).map(str),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(lambda t: f"{t[0]}/{t[1]}"),
    st.integers(-3, 3),
    st.integers(2**64, 2**65),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
    st.sampled_from(["", "abc", "1.5", "1e3", " 2 ", "0x1"]),
    st.lists(st.integers(0, 2), max_size=2),
)
shapes = st.one_of(st.integers(-1, 3), st.sampled_from([1.0, "2", None, True]))


@st.composite
def raw_matrices(draw):
    rows, cols = draw(shapes), draw(shapes)
    if draw(st.booleans()) and all(type(k) is int and k >= 0 for k in (rows, cols)):
        count = rows * cols
    else:
        count = draw(st.integers(0, 9))
    doc = {"rows": rows, "cols": cols, "entries": draw(st.lists(scalars, min_size=count,
                                                                 max_size=count))}
    if draw(st.integers(0, 9)) == 0:
        del doc[draw(st.sampled_from(sorted(doc)))]
    return doc


@st.composite
def skew_seeds(draw):
    """Diagonal Gram (a zero entry makes it singular) and a phi-skew delta.

    Cores stay below dimension 4, where the bounded isotropy search over Q
    takes seconds per form.
    """
    n = draw(st.integers(0, 3))
    g = draw(st.lists(st.sampled_from([1, 1, 2, -1, 3, 0]), min_size=n, max_size=n))
    delta = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a = draw(st.integers(-2, 2))
            delta[i][j] = str(a)
            # g_i delta_ij + g_j delta_ji = 0
            delta[j][i] = str(Fraction(-g[i] * a, g[j])) if g[j] else "0"
    gram = [str(g[i]) if i == j else "0" for i in range(n) for j in range(n)]
    return {
        "field": draw(fields),
        "gram": {"rows": n, "cols": n, "entries": gram},
        "delta": {"rows": n, "cols": n, "entries": [c for row in delta for c in row]},
    }


@st.composite
def raw_seeds(draw):
    return {"field": draw(fields), "gram": draw(raw_matrices()),
            "delta": draw(raw_matrices())}


seed_docs = st.one_of(skew_seeds(), skew_seeds(), skew_seeds(), raw_seeds(),
                      st.sampled_from([[], "abc", 3, None, {}]))
lambdas = st.one_of(st.lists(st.integers(1, 4).map(str), min_size=1, max_size=3),
                    st.lists(scalars, max_size=3), scalars)
lorentz_docs = st.one_of(
    st.fixed_dictionaries({"field": fields, "lambda": lambdas},
                          optional={"t": scalars, "s": scalars}),
    st.fixed_dictionaries({"lambda": lambdas}),
    st.fixed_dictionaries({"lambda": lambdas}),
    seed_docs,
)
witness_docs = st.one_of(
    st.fixed_dictionaries({"f": raw_matrices(), "z": st.lists(scalars, max_size=3),
                           "lambda": scalars, "mu": scalars, "nu": scalars}),
    seed_docs,
)


@st.composite
def invocations(draw):
    verb = draw(st.sampled_from(VERBS))
    if verb == "census":
        docs = []
    elif verb == "lorentz":
        docs = [draw(lorentz_docs)]
    elif verb == "iso":
        first = draw(seed_docs)
        docs = [first, draw(st.one_of(st.just(first), seed_docs))]
        if draw(st.booleans()):
            docs.append(draw(witness_docs))
    else:
        docs = [draw(seed_docs)]
    flags = []
    spec = fields.filter(lambda f: isinstance(f, str))
    field = draw(st.one_of(st.none(), st.none(), spec))
    if field is not None or verb == "census":
        flags += ["--field", field or "Fp:3"]
    if verb == "census":
        flags += ["--dim", str(draw(st.integers(-1, 3)))]
    return verb, docs, flags


@settings(max_examples=300, deadline=None)
@given(invocations())
def test_fuzzed_documents_exit_cleanly(invocation):
    # every verb ends with exit 0, 1 or 2 and one JSON document, never a traceback
    verb, docs, flags = invocation
    with tempfile.TemporaryDirectory() as tmp:
        argv = [verb] + flags
        for k, doc in enumerate(docs):
            path = os.path.join(tmp, f"{k}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            argv += ["--in", path]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    doc = json.loads(out.getvalue())
    assert doc["verb"] == verb and doc["version"] == __version__
    assert ("error" in doc) == (code == 1 or (code == 2 and "verdict" not in doc))
