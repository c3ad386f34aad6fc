"""Self-test of the benchmark itself, on the shortest runs (one pass each).

    python3 perfbench/selftest.py

Run from the repository root. Checks that every metric BENCHMARK.json names
is emitted with its unit, that every wrapped entry point is reached on the
workloads that run it, that traced call counts and the counts of operations
and failures repeat exactly, that a corrupted certificate is counted as a
failure without stopping the run, that the known wrong 'no' is excused only
on rational seeds with a repeated rotation scalar, and that the benchmark
exits non-zero without printing a result where the quadlie sources are
missing.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads

NONZERO = {
    "census": (
        "exact_field.Field.of.calls", "linalg.Matrix.__init__.calls",
        "quadlie._fast.fp_rref.calls", "quadlie._fast.fp_rref.self_s",
        "quadlie._fast.fp_matmul.calls", "quadlie._fast.fp_matmul.mults",
        "linalg.Matrix.__mul__.calls", "linalg.Matrix.rref.calls",
        "linalg.minimal_polynomial.calls", "linalg.poly_at_matrix.calls",
        "linalg.primary_component.calls", "exact_field.factor_poly.calls",
        "skewcanon.canonical_pair.calls", "skewcanon.primary_split.incl_s",
        "skewcanon.canonical_pair_zero.incl_s", "skewcanon.canonical_pair_nonzero.incl_s",
        "skewcanon.CanonicalPair.verify.calls",
        "oscillator.skew_census.canonical_pair_per_map",
    ),
    "roundtrip": (
        "liecore.LieAlgebra.bracket.calls", "liecore.centre.incl_s",
        "liecore.is_solvable.incl_s", "liecore.bracket_span.incl_s",
        "oscillator.recover_double_extension.incl_s",
        "oscillator.build_double_extension.incl_s", "oscillator.decide_isometric.incl_s",
        "oscillator.verify_iso_witness.incl_s", "quadspace.isotropy_report.calls",
        "skewcanon.spectral_form.calls", "exact_field.factor_poly.calls",
        "cli.main.calls", "cli.main.self_s", "sympy.diophantine.calls",
    ),
}


def args_for(workload, trace):
    return run.parse_args(["--workload", workload, "--seed", "7", "--seconds", "0",
                           "--trace", str(trace)])


def expect(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def same_units(metrics, declared):
    return {k: v["unit"] for k, v in metrics.items()} == {m["name"]: m["unit"] for m in declared}


def main():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in bench["workloads"]] == list(run.WORKLOADS) == list(NONZERO),
           "workloads match BENCHMARK.json")
    for workload in NONZERO:
        _, plain = run.run(args_for(workload, 0))
        expect(same_units(plain["metrics"], bench["end_to_end"]),
               f"{workload}: every end-to-end metric emitted with its unit")
        expect(all(v["value"] > 0 for v in plain["metrics"].values()),
               f"{workload}: end-to-end metrics are nonzero")
        expect(plain["correct"], f"{workload}: answers check out")
        traced = [run.run(args_for(workload, 1))[1] for _ in range(2)]
        expect(all((t["attempted"], t["failed"]) == (2 * plain["attempted"], 2 * plain["failed"])
                   for t in traced),
               f"{workload}: operations and failures repeat exactly (two passes each traced run)")
        traced = [t["metrics"] for t in traced]
        expect(same_units(traced[0], bench["per_layer"]),
               f"{workload}: every per-layer metric emitted with its unit")
        for name in NONZERO[workload]:
            expect(traced[0][name]["value"] > 0, f"{workload}: {name} > 0")
        expect(traced[0]["oscillator.skew_census.canonical_pair_per_map"]["value"]
               == (1.0 if workload == "census" else 0.0),
               f"{workload}: one canonical pair per enumerated map, none outside the census")
        calls = [{k: v["value"] for k, v in m.items() if k.endswith(".calls")} for m in traced]
        expect(calls[0] == calls[1], f"{workload}: traced call counts repeat exactly")

    def corrupt(out):
        U = out[0].recovery["base_change"].data
        U[0] = [0] * len(U[0])

    _, bad = run.run(args_for("roundtrip", 0), tamper=corrupt)
    expect(bad["attempted"] > 0 and bad["failed"] == bad["attempted"] and not bad["correct"],
           "a corrupted certificate is counted as failed and the run completes")

    wl, _ = run.setup(args_for("roundtrip", 0))
    try:
        for lams, p in (((3, 3), 0), ((1, 2), 0), ((1,), 0), (None, 5)):
            item = next(i for i in wl.items if i.lams == lams and i.p == p)
            rec, decide, verify = wl.op(item)
            decide = {"verdict": "no", "reason": workloads.KNOWN_WRONG_NO}
            failure = wl.check(item, (rec, decide, verify))
            expect(failure is not None and failure[1] == (lams == (3, 3)),
                   f"a wrong 'no' on seed {lams or 'split F5'} is "
                   + ("the known defect" if lams == (3, 3) else "an unknown failure"))
    finally:
        wl.close()

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as bare:
        shutil.copytree(run.HERE, Path(bare) / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        out = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", "--workload", "census",
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=bare, capture_output=True, text=True, timeout=180)
        expect(out.returncode != 0 and not out.stdout.strip(),
               "without the quadlie sources the benchmark exits non-zero and prints no result")
    print("selftest passed")


if __name__ == "__main__":
    main()
