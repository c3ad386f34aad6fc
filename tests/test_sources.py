"""Checks on the quadlie sources themselves, which are parsed, not imported.

Rational data becomes integers, and integers become rationals, in one
place: _fast.integer_image reads each Fraction's two slots, and
_fast.field_image builds Fractions by setting them; every kernel, the Lie
algebra layer and rational factoring go through the pair. A second reader
of as_integer_ratio or of the slots, or a second maker of bare Fractions,
elsewhere would be a second copy of those helpers. The slot layout itself
is checked here, so a Python whose Fraction keeps other slots fails these
tests instead of computing wrong.

Each certified object is certified once, by one routine. skewcanon checks
every pair through _certify, which needs no inverse, and the command line
reads pairs that canonical_pair has already verified: an inverse in
skewcanon, or a verify() call in cli, would be a second copy of a
certificate. The induced map of an isomorphism witness takes its delta*
row from z^T B_2 f and the intertwining condition, which its caller has
already checked, so _extended_matrix inverts nothing and needs no matvec.

Every product with a space's Gram in quadspace, skewcanon and oscillator
goes through OrthogonalSpace.times_gram, which skips it on a space whose
Gram is I: a product or matvec with .gram elsewhere in those modules, or a
name bound to .gram that could carry it into one, would multiply by I
again.

Row reduction is written once: _fast._reduce holds the one mod-p and the
one fraction-free row update, and fp_rref, fp_rank and fp_minpoly all
reach it. leading_minors' Bareiss elimination, without row exchanges, is a
different computation and keeps its own update.

Each subspace on the kernel and recovery paths comes out of one
reduction: kernel_basis reads the kernel's echelon basis off one rref and
does not reduce it again through Subspace._wrap, and recover_double_extension
reads the centre off the invariant form as (L^2)-perp instead of solving for
it through centre or _centralizer_mod.

Over Q the certificates compare rationals without Fraction.__eq__:
Matrix.__eq__, Matrix.is_symmetric, Subspace.__eq__ and the rebuild check
of Subspace.coords all reach _fast.same_rows, which reads the slots, and
poly_at_matrix forms no Matrix product: its Horner loop is one _fast
kernel on the integer image. The matrix Omega = A^T B of a seed is formed
once, when its SkewEndo checks skewness, and the double extension and
the Heisenberg certificate read it there; the isomorphism check takes
phi_2(z, z) off the row z^T B_2 it already formed, not through bilin.

A double extension is quadratic by Medina and Revoy's theorem once its
seed is certified: the seed checks its core regular and its map skew, and
build_double_extension wraps what it assembles. It reaches no
jacobi_check, invariance_check, rank or symmetry test, and no validating
QuadraticLieAlgebra or OrthogonalSpace constructor; test_oscillator runs
the direct checks on every extension it builds from its seed corpora.

Data is checked once, where it enters; what is built from certified data
goes through a trusted constructor. mu f is skew because f is, a census
root map because it holds c and -c in mirrored entries, and the delta of
a recovered seed because the presented form is invariant: scaled_map,
scaled_pair, skew_census and recover_double_extension reach no skew
check (no public SkewEndo, is_skew or _skew_check, and no OscillatorData
handed a map it would check). A (t, s) form is invariant because phi_delta
is, so phi_ts_form and phi_ts_isometry reach no invariance_check. _peel
reads the orthogonal rest of a block off the kernel of its span's rows
times the Gram, which needs no echelon form: it makes no Subspace._wrap.

The census builds one canonical pair per scaling class of components:
skew_census calls canonical_pair at one site, and scaled_pair, which gives
every other component its key, reaches no split, minimal polynomial or
canonical pair of its own. Neither pair certifies a block on its own: the
pair certificate covers every block.
"""

import ast
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "quadlie"


def _outside_fast(found):
    hits = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "_fast.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if found(node):
                hits.append(f"{path.name}:{node.lineno}")
    return hits


def test_only_fast_reads_as_integer_ratio():
    readers = _outside_fast(
        lambda node: isinstance(node, ast.Attribute) and node.attr == "as_integer_ratio"
    )
    assert not readers, f"as_integer_ratio outside _fast.py: {readers}"


def _bare_fraction(node):
    # object.__new__(Fraction), or any other __new__ handed Fraction
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__new__"
        and any(isinstance(a, ast.Name) and a.id == "Fraction" for a in node.args)
    )


def test_only_fast_touches_fraction_internals():
    slots = _outside_fast(
        lambda node: isinstance(node, ast.Attribute)
        and node.attr in ("_numerator", "_denominator")
    )
    assert not slots, f"Fraction slots read outside _fast.py: {slots}"
    makers = _outside_fast(_bare_fraction)
    assert not makers, f"bare Fractions made outside _fast.py: {makers}"


def test_fraction_keeps_the_slots_fast_sets():
    assert Fraction.__slots__ == ("_numerator", "_denominator")
    # and the guard above sees the call _fast makes
    assert _bare_fraction(ast.parse("object.__new__(Fraction)").body[0].value)


def _method_calls(name, method):
    tree = ast.parse((SRC / name).read_text())
    return [
        f"{name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == method
    ]


def test_certificates_have_one_copy():
    inverses = _method_calls("skewcanon.py", "inverse")
    assert not inverses, f"inverse() in skewcanon.py: {inverses}"
    verifies = _method_calls("cli.py", "verify")
    assert not verifies, f"verify() in cli.py: {verifies}"


def _defs(source):
    tree = ast.parse(source)
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def _functions(name):
    return _defs((SRC / name).read_text())


def _called_names(node):
    return [
        call.func.id
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
    ]


def _reached(root, name="skewcanon.py", defs=None):
    # every module-level function of the module that root reaches
    defs = defs or _functions(name)
    reached, todo = set(), [root]
    while todo:
        for name in _called_names(defs[todo.pop()]):
            if name not in reached:
                reached.add(name)
                if name in defs:
                    todo.append(name)
    return reached


def test_scaled_pair_builds_no_split():
    reached = _reached("scaled_pair")
    assert {"_assemble", "_emit_odd_block"} <= reached
    costly = reached & {"canonical_pair", "primary_split", "minimal_polynomial"}
    assert not costly, f"scaled_pair reaches {sorted(costly)}"
    # the pair certificate in _assemble is the only one either pair runs
    assert "_verify_block" not in reached | _reached("canonical_pair")


def test_census_builds_canonical_pairs_at_one_site():
    calls = _called_names(_functions("oscillator.py")["skew_census"])
    assert calls.count("canonical_pair") == 1
    assert calls.count("scaled_pair") == 1


def test_extended_matrix_needs_no_inverse():
    tree = _functions("oscillator.py")["_extended_matrix"]
    calls = {node.func.attr for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    assert not calls & {"inverse", "matvec"}, sorted(calls)


def _space_gram(node):
    # X.gram for X a space; block.gram is a CanonicalBlock's model Gram
    return (isinstance(node, ast.Attribute) and node.attr == "gram"
            and ast.unparse(node.value) != "block")


def _bound_values(value):
    # what a binding hands its names: the value, the items of a tuple or
    # list, or the element of a generator or comprehension
    if isinstance(value, (ast.Tuple, ast.List)):
        return value.elts
    if isinstance(value, (ast.GeneratorExp, ast.ListComp)):
        return [value.elt]
    return [value]


def _gram_use(node):
    # a product with a space's Gram, a matvec on it, or a name bound to it,
    # which could carry it into a product unseen
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.MatMult)):
        return _space_gram(node.left) or _space_gram(node.right)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr == "matvec" and _space_gram(node.func.value)
    if isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)):
        return any(_space_gram(v) for v in _bound_values(node.value))
    return False


def _gram_uses(tree):
    return sorted({
        (func.name, node.lineno)
        for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func) if _gram_use(node)
    })


def test_products_with_a_space_gram_only_in_times_gram():
    for name in ("quadspace.py", "skewcanon.py", "oscillator.py"):
        uses = _gram_uses(ast.parse((SRC / name).read_text()))
        outside = [f"{name}:{line} in {func}" for func, line in uses if func != "times_gram"]
        assert not outside, f"products with a space's Gram outside times_gram: {outside}"
        assert bool(uses) == (name == "quadspace.py")
    # and the walk sees each form it rules out
    for line in ("v = R * space.gram", "v = f.space.gram.matvec(y)", "G = cur.gram",
                 "B1, B2 = d1.space.gram, d2.space.gram",
                 "G1, G2 = (space.gram for space in spaces)"):
        assert _gram_uses(ast.parse(f"def f():\n    {line}\n")) == [("f", 2)]
    assert not _gram_uses(ast.parse("def f():\n    v = T * block.gram\n"))


def _row_update(node):
    # a comprehension over zip(row, row) whose entry subtracts a product:
    # "mod p" when the difference is reduced mod p, "exact division" when it
    # is divided exactly (Bareiss), "fraction-free" when it is left as it is
    if not (isinstance(node, ast.ListComp) and isinstance(node.generators[0].iter, ast.Call)
            and ast.unparse(node.generators[0].iter.func) == "zip"):
        return None
    elt = node.elt
    kind = "fraction-free"
    if isinstance(elt, ast.BinOp) and isinstance(elt.op, (ast.Mod, ast.FloorDiv)):
        kind = "mod p" if isinstance(elt.op, ast.Mod) else "exact division"
        elt = elt.left
    if (isinstance(elt, ast.BinOp) and isinstance(elt.op, ast.Sub)
            and isinstance(elt.right, ast.BinOp) and isinstance(elt.right.op, ast.Mult)):
        return kind
    return None


def _row_updates(tree):
    return sorted(
        (func.name, kind)
        for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func) if (kind := _row_update(node))
    )


def test_one_row_reduction_in_fast():
    tree = ast.parse((SRC / "_fast.py").read_text())
    defs = _functions("_fast.py")
    eliminations = [name for name in defs if name.startswith("_eliminate")]
    assert not eliminations, f"eliminations besides _reduce: {eliminations}"
    assert _row_updates(tree) == [
        ("_reduce", "fraction-free"), ("_reduce", "mod p"), ("leading_minors", "exact division")]
    for root in ("fp_rref", "fp_rank", "fp_minpoly"):
        assert "_reduce" in _reached(root, "_fast.py"), root
    # and the walk sees each update it rules out
    for line, kind in (("m[i] = [(a - f * b) % p for a, b in zip(m[i], prow)]", "mod p"),
                       ("row = [a * x - b * y for x, y in zip(m[i], prow)]", "fraction-free"),
                       ("m[i] = [(piv * a - f * b) // prev for a, b in zip(m[i], prow)]",
                        "exact division")):
        assert _row_updates(ast.parse(f"def f():\n    {line}\n")) == [("f", kind)]


def _one_reduction_faults(linalg_src, oscillator_src):
    """What breaks one reduction per subspace in the two sources."""
    faults = []
    kernel = _defs(linalg_src)["kernel_basis"]
    calls = [ast.unparse(node.func) for node in ast.walk(kernel) if isinstance(node, ast.Call)]
    rrefs = [c for c in calls if c.endswith(".rref")]
    if len(rrefs) != 1:
        faults.append(f"kernel_basis makes {len(rrefs)} rref calls")
    if "Subspace._wrap" in calls:
        faults.append("kernel_basis reduces its kernel again through Subspace._wrap")
    reached = _reached("recover_double_extension", defs=_defs(oscillator_src))
    solved = sorted(reached & {"centre", "_centralizer_mod"})
    if solved:
        faults.append(f"recover_double_extension solves for the centre: {solved}")
    return faults


def test_one_reduction_per_subspace():
    assert _one_reduction_faults((SRC / "linalg.py").read_text(),
                                 (SRC / "oscillator.py").read_text()) == []
    # and the check flags each fault it rules out
    two_reductions = (
        "def kernel_basis(A):\n"
        "    R, pivots, rank = A.rref()\n"
        "    return Subspace._wrap(A.field, A.ncols, [])\n"
    )
    no_rref = "def kernel_basis(A):\n    return Subspace._echelon_wrap(A.field, A.ncols, [])\n"
    solving = ("def recover_double_extension(Q):\n    Z = _centre_of(Q)\n"
               "def _centre_of(Q):\n    return centre(Q.algebra)\n")
    assert _one_reduction_faults(two_reductions, solving) == [
        "kernel_basis reduces its kernel again through Subspace._wrap",
        "recover_double_extension solves for the centre: ['centre']",
    ]
    assert _one_reduction_faults(no_rref, "def recover_double_extension(Q):\n    pass\n") == [
        "kernel_basis makes 0 rref calls"]


def _methods(source, cls):
    tree = ast.parse(source)
    (node,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls]
    return {f.name: f for f in node.body if isinstance(f, ast.FunctionDef)}


def _rational_path_faults(linalg_src):
    """Comparisons that skip _fast.same_rows, and Matrix products in
    poly_at_matrix, in a linalg source."""
    faults = []
    sites = [("Matrix", "__eq__"), ("Matrix", "is_symmetric"),
             ("Subspace", "__eq__"), ("Subspace", "coords")]
    for cls, name in sites:
        calls = {ast.unparse(node.func) for node in ast.walk(_methods(linalg_src, cls)[name])
                 if isinstance(node, ast.Call)}
        if "_fast.same_rows" not in calls:
            faults.append(f"{cls}.{name} does not reach _fast.same_rows")
    poly = _defs(linalg_src)["poly_at_matrix"]
    products = [node.lineno for node in ast.walk(poly)
                if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.MatMult))]
    if products:
        faults.append(f"poly_at_matrix forms products at {products}")
    return faults


def test_rational_comparisons_and_horner_stay_in_fast():
    assert _rational_path_faults((SRC / "linalg.py").read_text()) == []
    # and the check flags each fault it rules out
    old = (
        "class Matrix:\n"
        "    def __eq__(self, other):\n        return self.data == other.data\n"
        "    def is_symmetric(self):\n        return _fast.same_rows(self.data, self.data)\n"
        "class Subspace:\n"
        "    def __eq__(self, other):\n        return _fast.same_rows(self.basis, other.basis)\n"
        "    def coords(self, vecs):\n        return (C * S).data != vecs\n"
        "def poly_at_matrix(p, A):\n    acc = A.copy()\n    acc = acc * A\n"
    )
    assert _rational_path_faults(old) == [
        "Matrix.__eq__ does not reach _fast.same_rows",
        "Subspace.coords does not reach _fast.same_rows",
        "poly_at_matrix forms products at [13]",
    ]


def _method_calls_in(tree, method):
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == method]


def _omega_faults(oscillator_src):
    """Products of a seed's Omega, or of z^T B_2, formed again."""
    defs = _defs(oscillator_src)
    faults = [f"{name} forms A^T B again"
              for name in ("build_double_extension", "_heisenberg_certificate")
              if _method_calls_in(defs[name], "times_gram")]
    if _method_calls_in(defs["verify_iso_witness"], "bilin"):
        faults.append("verify_iso_witness forms z^T B_2 again through bilin")
    return faults


def test_omega_is_formed_once_per_seed():
    assert _omega_faults((SRC / "oscillator.py").read_text()) == []
    # and the check flags each fault it rules out
    again = (
        "def build_double_extension(data):\n"
        "    omega = data.space.times_gram(data.delta.matrix.transpose())\n"
        "def _heisenberg_certificate(data):\n    omega = data.delta.omega\n"
        "def verify_iso_witness(d1, d2, witness):\n"
        "    return d2.space.bilin(witness.z, witness.z)\n"
    )
    assert _omega_faults(again) == [
        "build_double_extension forms A^T B again",
        "verify_iso_witness forms z^T B_2 again through bilin",
    ]


def _extension_check_faults(oscillator_src):
    """The checks build_double_extension reaches in the source."""
    defs = _defs(oscillator_src)
    reached = _reached("build_double_extension", defs=defs) | {"build_double_extension"}
    faults = sorted(reached & {"jacobi_check", "invariance_check",
                               "QuadraticLieAlgebra", "OrthogonalSpace"})
    methods = {node.func.attr for name in reached & defs.keys()
               for node in ast.walk(defs[name])
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    return faults + sorted(methods & {"rank", "is_symmetric"})


def test_double_extensions_are_built_unchecked():
    assert _extension_check_faults((SRC / "oscillator.py").read_text()) == []
    # and the check flags each fault it rules out
    validating = ("def build_double_extension(data):\n"
                  "    return QuadraticLieAlgebra(L, OrthogonalSpace(G))\n")
    helper = ("def build_double_extension(data):\n    return _certified(data)\n"
              "def _certified(data):\n    jacobi_check(L)\n    invariance_check(L, S)\n"
              "    return G.rank(), G.is_symmetric()\n")
    assert _extension_check_faults(validating) == ["OrthogonalSpace", "QuadraticLieAlgebra"]
    assert _extension_check_faults(helper) == [
        "invariance_check", "jacobi_check", "is_symmetric", "rank"]


def _trusted_faults(skewcanon_src, oscillator_src):
    """Checks made again on data built from certified data."""
    defs = {**_defs(skewcanon_src), **_defs(oscillator_src)}
    faults = []
    for root in ("scaled_map", "scaled_pair", "skew_census", "recover_double_extension"):
        for name in sorted((_reached(root, defs=defs) | {root}) & defs.keys()):
            for call in ast.walk(defs[name]):
                if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)):
                    continue
                if call.func.id in ("SkewEndo", "is_skew", "_skew_check"):
                    faults.append(f"{root} checks skewness in {name}")
                elif call.func.id == "OscillatorData" and not (
                        ast.unparse(call.args[-1]).startswith("SkewEndo._wrap(")):
                    faults.append(f"{root} hands OscillatorData an unwrapped map in {name}")
    for root in ("phi_ts_form", "phi_ts_isometry"):
        if "invariance_check" in _reached(root, defs=defs):
            faults.append(f"{root} reaches invariance_check")
    peel = [ast.unparse(node.func) for node in ast.walk(defs["_peel"])
            if isinstance(node, ast.Call)]
    if "Subspace._wrap" in peel:
        faults.append("_peel reduces its span through Subspace._wrap")
    return faults


def test_data_built_from_certified_data_is_not_checked_again():
    assert _trusted_faults((SRC / "skewcanon.py").read_text(),
                           (SRC / "oscillator.py").read_text()) == []
    # and the check flags each fault it rules out
    skewcanon_src = (
        "def scaled_map(f, mu):\n    return SkewEndo(f.space, f.matrix.scale(mu))\n"
        "def scaled_pair(pair, mu):\n    return _assemble(pair, mu)\n"
        "def _assemble(pair, mu):\n    return is_skew(pair.endo.space, pair.endo.matrix)\n"
        "def _peel(space, parts, span):\n    U = Subspace._wrap(space.field, space.dim, span)\n"
    )
    oscillator_src = (
        "def skew_census(field, dim):\n    return _skew_check(space, M)\n"
        "def recover_double_extension(Q):\n    return OscillatorData(space, delta)\n"
        "def phi_ts_form(data, t, s):\n    return OrthogonalSpace._wrap(G)\n"
        "def phi_ts_isometry(data, ts1, ts2):\n    return _forms(data)\n"
        "def _forms(data):\n    return invariance_check(L, S)\n"
    )
    assert _trusted_faults(skewcanon_src, oscillator_src) == [
        "scaled_map checks skewness in scaled_map",
        "scaled_pair checks skewness in _assemble",
        "skew_census checks skewness in skew_census",
        "recover_double_extension hands OscillatorData an unwrapped map"
        " in recover_double_extension",
        "phi_ts_isometry reaches invariance_check",
        "_peel reduces its span through Subspace._wrap",
    ]
    wrapped = oscillator_src.replace("(space, delta)", "(space, SkewEndo._wrap(space, d, o))")
    assert not [f for f in _trusted_faults(skewcanon_src, wrapped) if "OscillatorData" in f]
