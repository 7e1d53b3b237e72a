"""One timed pass of a workload, in a fresh interpreter.

    python3 perfbench/passrun.py WORKLOAD SEED MODE WORKDIR

MODE is ``plain`` (end-to-end timing), ``trace`` (spans and counters from
``tracing.Tracer``), ``profile`` (cProfile shares) or ``warmup`` (import
only, nothing timed).  The pass prints one JSON object on standard output:
set-up time, pass wall and CPU time, peak resident memory, and each query's
output in plain data for the parent's checks.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.

    VmHWM starts afresh at exec; ``ru_maxrss`` would also count the parent's
    memory at fork time.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _poly_data(p) -> list:
    return [[list(e), str(c)] for e, c in sorted(p.terms())]


def groebner_queries(seed: int, workdir: Path):
    from fractions import Fraction

    from leafconn.ideals import Ideal
    from leafconn.poly import Polynomial, VarContext

    queries = []
    for system in workloads.groebner_inputs(seed):
        ctx = VarContext(system["vars"])
        polys = [Polynomial(ctx, {tuple(e): Fraction(c) for e, c in p}) for p in system["polys"]]

        def run(ctx=ctx, polys=polys, order=system["order"]):
            # a fresh Ideal each pass: its basis cache starts empty
            return Ideal(ctx, polys, order).groebner_basis()

        queries.append((system["name"], run, lambda basis: [_poly_data(g) for g in basis]))
    return queries


def lie_queries(seed: int, workdir: Path):
    from leafconn import charclass, liealg

    inputs = workloads.lie_inputs(seed)
    algebras = {
        key: liealg.LieAlgebraFD.from_brackets(a["labels"], {(x, y): dict(c) for x, y, c in a["brackets"]})
        for key, a in inputs.items()
    }
    g9 = algebras["dim9"]
    trivial = liealg.LieModuleFD.trivial(g9)

    def homology_out(grades):
        return [[h.dimension, len(h.representatives)] for h in grades]

    def class_out(result):
        return {"zero": result.is_zero, "h1_dim": result.h1.dim, "text": str(result)}

    return [
        ("homology-dim9", lambda: liealg.homology(g9), homology_out),
        ("homology-dim10", lambda: liealg.homology(algebras["dim10"]), homology_out),
        ("cohomology-dim9", lambda: liealg.cohomology(g9, trivial), lambda dims: [d for _, d in dims]),
        ("charclass-centre", lambda: charclass.characteristic_class(charclass.LieIdeal(g9, inputs["dim9"]["centre"])), class_out),
        ("charclass-summand", lambda: charclass.characteristic_class(charclass.LieIdeal(g9, inputs["dim9"]["summand"])), class_out),
    ]


def spec_queries(seed: int, workdir: Path):
    from leafconn import cli

    queries = []
    for k in range(workloads.SPEC_FILES_PER_PASS):
        spec, out = workdir / f"spec{k}.spec", workdir / f"spec{k}.report"

        def run(spec=spec, out=out):
            return cli.main(["--spec", str(spec), "--out", str(out)])

        queries.append((f"spec{k}", run, lambda code: code))
    return queries


BUILDERS = {"groebner": groebner_queries, "lie_homology": lie_queries, "spec_batch": spec_queries}


def main() -> None:
    workload, seed, mode, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3], Path(sys.argv[4])
    sys.path.insert(0, str(ROOT / "src"))
    setup_start = time.perf_counter()
    import leafconn

    if Path(leafconn.__file__).resolve().parent != ROOT / "src" / "leafconn":
        raise SystemExit(f"imported leafconn from {leafconn.__file__}, not from this checkout")
    if mode == "warmup":
        print(json.dumps({}))
        return
    queries = BUILDERS[workload](seed, workdir)
    setup_s = time.perf_counter() - setup_start

    tracer = profiler = None
    if mode == "trace":
        tracer = tracing.Tracer()
        tracer.install(leafconn)
    elif mode == "profile":
        import cProfile

        profiler = cProfile.Profile()

    results = []
    cpu0 = time.process_time()
    wall0 = time.perf_counter_ns()
    if profiler is not None:
        profiler.enable()
    for qid, (name, run, _convert) in enumerate(queries):
        if tracer is not None:
            tracer.query = qid
        start = time.perf_counter()
        try:
            results.append((run(), None, time.perf_counter() - start))
        except Exception as exc:  # a failing query is counted, not fatal
            results.append((None, f"{type(exc).__name__}: {exc}", time.perf_counter() - start))
    if profiler is not None:
        profiler.disable()
    wall_ns = time.perf_counter_ns() - wall0
    cpu_s = time.process_time() - cpu0
    rss_mb = peak_rss_mb()

    out = {
        "setup_s": setup_s,
        "wall_s": wall_ns / 1e9,
        "cpu_s": cpu_s,
        "rss_mb": rss_mb,
        "queries": [
            {"name": name, "wall_s": dt, "error": err, "output": None if err else convert(value)}
            for (name, _run, convert), (value, err, dt) in zip(queries, results)
        ],
    }
    if tracer is not None:
        out["trace"] = tracer.summary(wall_ns)
        tracer.write_spans(workdir / "spans.jsonl")
    if profiler is not None:
        import pstats

        out["profile"] = tracing.profile_summary(pstats.Stats(profiler).stats)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
