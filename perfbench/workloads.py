"""The workloads: inputs made from a seed, one operation, its check.

Every operation returns one certified answer from quadlie's public entry
points, and every answer is checked against what is known by construction,
re-multiplied with the plain arithmetic in exact.py wherever the check can
avoid trusting the code under test. quadlie's modules are imported when a
workload is set up (import time is part of the set-up figure) and looked up
by attribute at call time, so the tracer's wrappers are seen.
"""

import hashlib
import importlib
import itertools
import json
import os
import random
import shutil
import tempfile

import exact

# A check failure is (reason, known). known marks the one defect recorded at
# the commit that defined this benchmark: decide_isometric answers 'no' on
# some rational round trips with a repeated rotation scalar, such as (3, 3),
# because oscillator._definite_witness matches planes to norm cosets
# greedily. Only that verdict, with this reason, on such a seed is known;
# the benchmark proves each one wrong (the composed base change is an
# isometric isomorphism) and counts it as a failure; it does not skip it.
KNOWN_WRONG_NO = "plane norm classes differ at every admissible scale"


def _import_quadlie():
    names = ("exact_field", "linalg", "quadspace", "skewcanon", "liecore", "oscillator", "cli")
    return {n: importlib.import_module(f"quadlie.{n}") for n in names}


# ---------------------------------------------------------------------------
# census: exhaustive skew census, bucketed by canonical key

# sha256 of json.dumps(skew_census(F, n), sort_keys=True, indent=2) + "\n",
# frozen at the commit that defined this benchmark: the census document must
# stay byte-identical.
CENSUS_DIGESTS = {
    (3, 4): "853e5a8341305f2b0feed1e78cdce392cbf171f0b4b7dca4cb84ae2fb6ada545",
    (5, 3): "65d0ef3b8583668c4f87726c65a82173d5c039d95f16be3382f6a1994107d72f",
    (7, 3): "8213f3c0ef99172ee12faab21e32e09352090abfc8aa9a9049bd18c6c38bfd49",
}


class Census:
    """One operation is one skew_census call; the inputs are the three cases.

    The census is exhaustive, so the seed does not change the inputs. A run
    makes one pass over them per PASS_SECONDS of --seconds, at least one.
    Each enumerated map counts as one answer; latency is per call.
    """

    PASS_SECONDS = 10  # wall seconds of one pass on a 2-vCPU guest

    def __init__(self, cases, seconds):
        self.q = _import_quadlie()
        self.items = cases
        self.passes = max(1, int(seconds // self.PASS_SECONDS))
        self.rechecked = set()
        self.warmup = (3, 2)  # first-call costs without a full census case

    def units(self, case):
        p, n = case
        return p ** (n * (n - 1) // 2)

    def op(self, case):
        p, n = case
        return self.q["oscillator"].skew_census(self.q["exact_field"].Field.parse(f"Fp:{p}"), n)

    def check(self, case, doc):
        total = self.units(case)
        if doc["total"] != total or sum(doc["buckets"].values()) != total:
            return "bucket counts do not sum to p^(n(n-1)/2)", False
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        if hashlib.sha256(text.encode()).hexdigest() != CENSUS_DIGESTS[case]:
            return "census document differs from the frozen digest", False
        if case not in self.rechecked:
            # identical digests imply identical representatives: once per case
            q = self.q
            p, n = case
            F = q["exact_field"].Field.parse(f"Fp:{p}")
            space = q["quadspace"].OrthogonalSpace.standard(F, n)
            for key, rows in doc["representatives"].items():
                cp = q["skewcanon"].canonical_pair(
                    q["quadspace"].SkewEndo(space, q["linalg"].Matrix(F, rows))
                )
                res = tuple((r.kind, tuple(str(f) for f in r.factors), r.dim) for r in cp.residual)
                if repr((cp.block_signature(), res)) != key:
                    return "a representative does not re-canonicalize to its key", False
            self.rechecked.add(case)
        return None

    def close(self):
        pass


# ---------------------------------------------------------------------------
# roundtrip: recover a scrambled double extension, then decide and verify
# the isometry through the command line (acceptance criterion 7)


def _matrix_doc(rows):
    return {
        "rows": len(rows),
        "cols": len(rows[0]) if rows else 0,
        "entries": [str(c) for row in rows for c in row],
    }


class RoundItem:
    __slots__ = ("lams", "p", "doc", "d_path", "table", "gram", "P")

    def __init__(self, lams, p, doc, d_path, table, gram, P):
        self.lams, self.p, self.doc, self.d_path = lams, p, doc, d_path
        self.table, self.gram, self.P = table, gram, P


def _rational_seed(lams):
    """from_lambda_tuple: identity form, one rotation plane per scalar."""
    n = 2 * len(lams)
    delta = [[0] * n for _ in range(n)]
    for i, lam in enumerate(lams):
        delta[2 * i][2 * i + 1] = lam
        delta[2 * i + 1][2 * i] = -lam
    return lams, 0, exact.identity(n), delta


def _split_seed(rng):
    """A split invertible seed on a hyperbolic form over F5 (criterion 7)."""
    m = rng.choice((1, 2))
    diag = [rng.randrange(1, 5) for _ in range(m)]
    gram = [[0] * (2 * m) for _ in range(2 * m)]
    delta = [[0] * (2 * m) for _ in range(2 * m)]
    for i, a in enumerate(diag):
        gram[i][m + i] = gram[m + i][i] = 1
        delta[i][i] = a
        delta[m + i][m + i] = -a % 5
    return None, 5, gram, delta


class Roundtrip:
    """Half rational seeds from rotation tuples, half split F5 seeds.

    The inputs are SETS sets of 36 seeds, each set in its own shuffled
    order: the 18 rational tuples in their criterion-7 proportions (each
    single of {1, 2, 3} three times, each ordered pair once, repeats such
    as (3, 3) included) and 18 split F5 seeds drawn from a fixed stream as
    criterion 7 draws them. Each seed's extension is built and scrambled
    once, at set-up, with plain arithmetic; the seed draws the scrambles
    and the orders. A run makes one pass over the inputs per PASS_SECONDS
    of --seconds, at least one. The program receives only the scrambled
    algebra document and the seed document.
    """

    SETS = 5
    PASS_SECONDS = 22  # wall seconds of one pass on a 2-vCPU guest

    def __init__(self, seed, seconds, root):
        self.q = _import_quadlie()
        importlib.import_module("sympy.solvers.diophantine")  # lazy import in _norm_equation
        rng = random.Random(seed)
        fixed = random.Random(0)
        self.tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
        self.count = 0
        tuples = [(a,) for a in (1, 2, 3) for _ in range(3)]
        tuples += list(itertools.product((1, 2, 3), repeat=2))
        self.items = []
        for _ in range(self.SETS):
            seeds = [_rational_seed(lams) for lams in tuples]
            seeds += [_split_seed(fixed) for _ in tuples]
            rng.shuffle(seeds)
            self.items += [self._item(rng, *seed) for seed in seeds]
        self.passes = max(1, int(seconds // self.PASS_SECONDS))
        # a fixed rational item: the same warm-up work for every seed
        self.warmup = self._item(fixed, *_rational_seed((1, 2)))

    def _item(self, rng, lams, p, gram, delta):
        table, G = exact.extension_constants(gram, delta, p)
        dim = len(G)
        P, Pi = exact.random_invertible(rng, dim, p, span=2)
        cols = exact.transpose(P)
        brackets = []
        for i in range(dim):
            for j in range(i + 1, dim):
                v = exact.bracket(table, dim, cols[i], cols[j], p)
                v = [exact.norm(sum(Pi[r][s] * v[s] for s in range(dim)), p) for r in range(dim)]
                if any(v):
                    brackets.append({"i": i, "j": j, "v": [str(c) for c in v]})
        spec = f"Fp:{p}" if p else "Q"
        doc = {
            "field": spec,
            "algebra": {"dim": dim, "brackets": brackets},
            "gram": _matrix_doc(exact.matmul(exact.matmul(exact.transpose(P), G, p), P, p)),
        }
        self.count += 1
        d_path = os.path.join(self.tmp, f"seed{self.count}.json")
        with open(d_path, "w") as fh:
            json.dump({"field": spec, "gram": _matrix_doc(gram), "delta": _matrix_doc(delta)}, fh)
        return RoundItem(lams, p, doc, d_path, table, G, P)

    def units(self, item):
        return 1

    def _iso(self, paths, out):
        self.q["cli"].main(["iso"] + [a for path in paths for a in ("--in", path)] + ["--out", out])
        with open(out) as fh:
            return json.load(fh)

    def op(self, item):
        q = self.q
        algebra = q["liecore"].QuadraticLieAlgebra.from_json(item.doc)
        rec = q["oscillator"].recover_double_extension(algebra)
        rec_path = os.path.join(self.tmp, "recovered.json")
        with open(rec_path, "w") as fh:
            json.dump(rec.to_json(), fh)
        decide = self._iso([item.d_path, rec_path], os.path.join(self.tmp, "decide.json"))
        verify = None
        if decide["verdict"] == "yes":
            w_path = os.path.join(self.tmp, "witness.json")
            with open(w_path, "w") as fh:
                json.dump(decide["witness"], fh)
            verify = self._iso([item.d_path, rec_path, w_path], os.path.join(self.tmp, "verify.json"))
        return rec, decide, verify

    def check(self, item, out):
        rec, decide, verify = out
        p = item.p
        # the recovered seed must rebuild an algebra that P * U carries onto
        # the original extension, isometrically: then the true verdict is yes
        table, gram = exact.extension_constants(rec.space.gram.data, rec.delta.matrix.data, p)
        M = exact.matmul(item.P, rec.recovery["base_change"].data, p)
        if not exact.is_isometric_isomorphism(table, gram, item.table, item.gram, M, p):
            return "recovered base change is not an isometric isomorphism", False
        if decide["verdict"] != "yes":
            known = (
                decide["verdict"] == "no"
                and decide.get("reason") == KNOWN_WRONG_NO
                and p == 0
                and len(set(item.lams)) < len(item.lams)
            )
            return f"decide verdict {decide['verdict']}: {decide.get('reason')}", known
        if verify["verdict"] != "isometric-isomorphism":
            return f"verify verdict {verify['verdict']}: {verify.get('reason')}", False
        return None

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


def make(name, seed, seconds, root):
    """Set up a workload sized for a run of about `seconds`."""
    if name == "census":
        return Census(sorted(CENSUS_DIGESTS), seconds)
    if name == "roundtrip":
        return Roundtrip(seed, seconds, root)
    raise ValueError(f"unknown workload {name!r}")
