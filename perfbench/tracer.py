"""Outside-in tracing: wrap quadlie entry points without editing quadlie.

Spans nest and are timed with the wall clock (perf_counter), the cheapest
to read per call. Each timed span adds its duration to its name's inclusive time
(outermost instance only, so recursion is not counted twice) and its
duration minus the time its child spans cover to its self time. Count-only
wrappers skip the clock; they sit on the hottest calls (Field.of,
Matrix.__init__, LieAlgebra.bracket) to keep the overhead down, and their
time lands in the enclosing span's self time. Totals are kept in memory per
name and reported when the run ends.
"""

import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.enabled = False
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.distinct = defaultdict(set)
        self._stack = []
        self._depth = defaultdict(int)

    def counted(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            if self.enabled:
                calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def timed(self, name, fn, note=None):
        """Span wrapper; note(tracer, args) records extra counts per call."""
        stack, depth = self._stack, self._depth

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self.calls[name] += 1
            if note is not None:
                note(self, args)
            depth[name] += 1
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                depth[name] -= 1
                self.self_time[name] += dur - frame[0]
                if not depth[name]:
                    self.incl[name] += dur
                if stack:
                    stack[-1][0] += dur

        wrapper.__wrapped__ = fn
        return wrapper


def _note_matmul(tracer, args):
    # fp_matmul(a, n, k, b, k2, m, p): an n x k by k x m product
    tracer.counts["quadlie._fast.fp_matmul.mults"] += args[1] * args[2] * args[5]


def _note_census(tracer, args):
    # skew_census(field, dim): p^(dim(dim-1)/2) maps are enumerated
    field, dim = args[0], args[1]
    tracer.counts["oscillator.skew_census.maps"] += field.p ** (dim * (dim - 1) // 2)


def _note_canonical_pair(tracer, args):
    if tracer._depth["oscillator.skew_census"]:
        tracer.counts["oscillator.skew_census.canonical_pair_calls"] += 1


def _note_minpoly(tracer, args):
    A = args[0]
    tracer.distinct["linalg.minimal_polynomial"].add(
        (A.field.p, tuple(tuple(row) for row in A.data))
    )


def _rebind(fn, wrapper, undo):
    """Point every quadlie module global bound to fn at wrapper.

    Functions imported by name (from .linalg import minimal_polynomial)
    live on in each importing module, so patching only the defining module
    would leave most call sites untraced and their counts silently zero.
    """
    hits = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "quadlie" or modname.startswith("quadlie.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is fn:
                undo.append((mod, attr, fn))
                setattr(mod, attr, wrapper)
                hits += 1
    if not hits:
        raise RuntimeError(f"no module binds {fn.__qualname__}")


# (module, function, timed): untimed entries only count calls
FUNCTIONS = (
    ("quadlie._fast", "fp_rref", True),
    ("quadlie._fast", "fp_matmul", True),
    ("quadlie.linalg", "minimal_polynomial", True),
    ("quadlie.linalg", "poly_at_matrix", True),
    ("quadlie.linalg", "primary_component", False),
    ("quadlie.exact_field", "factor_poly", True),
    ("quadlie.skewcanon", "canonical_pair", True),
    ("quadlie.skewcanon", "primary_split", True),
    ("quadlie.skewcanon", "canonical_pair_zero", True),
    ("quadlie.skewcanon", "canonical_pair_nonzero", True),
    ("quadlie.skewcanon", "spectral_form", False),
    ("quadlie.liecore", "centre", True),
    ("quadlie.liecore", "is_solvable", True),
    ("quadlie.liecore", "bracket_span", True),
    ("quadlie.oscillator", "recover_double_extension", True),
    ("quadlie.oscillator", "build_double_extension", True),
    ("quadlie.oscillator", "decide_isometric", True),
    ("quadlie.oscillator", "verify_iso_witness", True),
    ("quadlie.oscillator", "skew_census", True),
    ("quadlie.quadspace", "isotropy_report", True),
    ("quadlie.cli", "main", True),
)

# (module, class, method, timed)
METHODS = (
    ("quadlie.exact_field", "Field", "of", False),
    ("quadlie.linalg", "Matrix", "__init__", False),
    ("quadlie.linalg", "Matrix", "__mul__", True),
    ("quadlie.linalg", "Matrix", "rref", True),
    ("quadlie.skewcanon", "CanonicalPair", "verify", True),
    ("quadlie.liecore", "LieAlgebra", "bracket", False),
)

NOTES = {
    "quadlie._fast.fp_matmul": _note_matmul,
    "linalg.minimal_polynomial": _note_minpoly,
    "oscillator.skew_census": _note_census,
    "skewcanon.canonical_pair": _note_canonical_pair,
}


def span_name(module, qualname):
    """Metric prefix: module path relative to the package, except _fast,
    whose leading underscore is not allowed to start a metric name."""
    short = module.split(".", 1)[1]
    return f"{module if short.startswith('_') else short}.{qualname}"


def install(tracer):
    """Wrap every traced entry point (the tracer starts disabled) and
    return a function that puts the originals back."""
    import importlib

    import sympy.solvers.diophantine  # noqa: F401  (oscillator imports it lazily)

    undo = []
    for modname, fname, timed in FUNCTIONS:
        fn = getattr(importlib.import_module(modname), fname)
        name = span_name(modname, fname)
        wrap = tracer.timed(name, fn, NOTES.get(name)) if timed else tracer.counted(name, fn)
        _rebind(fn, wrap, undo)
    for modname, cls_name, meth, timed in METHODS:
        cls = getattr(importlib.import_module(modname), cls_name)
        name = span_name(modname, f"{cls_name}.{meth}")
        fn = vars(cls)[meth]
        undo.append((cls, meth, fn))
        setattr(cls, meth, tracer.timed(name, fn) if timed else tracer.counted(name, fn))
    dmod = sys.modules["sympy.solvers.diophantine"]
    undo.append((dmod, "diophantine", dmod.diophantine))
    dmod.diophantine = tracer.timed("sympy.diophantine", dmod.diophantine)

    def restore():
        for obj, attr, fn in reversed(undo):
            setattr(obj, attr, fn)

    return restore
