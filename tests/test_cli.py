"""Command line round trips: verbs, exit codes, deterministic output."""

import json

import pytest

from quadlie import __version__
from quadlie.cli import main
from quadlie.exact_field import Field
from quadlie.linalg import Matrix
from quadlie.oscillator import IsoWitness, OscillatorData, from_lambda_tuple
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


def n23_doc(tmp_path):
    d = OscillatorData(
        OrthogonalSpace(Matrix(Q, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])),
        Matrix(Q, [[0, 0, 0], [1, 0, 0], [0, -1, 0]]),
    )
    return write(tmp_path, "n23.json", d.to_json())


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


def test_lorentz(tmp_path, capsys):
    path = write(tmp_path, "lor.json", {"field": "Q", "lambda": [5, 5]})
    code, doc = run(capsys, "lorentz", "--in", path)
    assert code == 0
    assert doc["lambda"] == ["1", "1"]
    assert doc["s_class"] == "1"


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
    ],
    ids=["canon-1/0", "witness-lambda-1/0", "lorentz-abc", "lorentz-int",
         "lorentz-s-x", "lorentz-1/0", "canon-field-int", "lorentz-not-object",
         "census-dim-negative"],
)
def test_malformed_input_exit(tmp_path, capsys, argv):
    d = OscillatorData(
        OrthogonalSpace(Matrix(Q, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])),
        Matrix(Q, [[0, 0, 0], [1, 0, 0], [0, -1, 0]]),
    )
    code, doc = run(capsys, *argv(tmp_path, d.to_json()))
    assert code == 1
    assert doc["error"]


def test_missing_input_exit(capsys):
    code, doc = run(capsys, "analyze")
    assert code == 1
    assert "--in" in doc["error"]


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
