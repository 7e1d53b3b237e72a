"""The leafconn benchmark: one workload, timed passes, checked outputs.

    python3 perfbench/run.py --workload groebner --seed 0 --seconds 40 --trace 0

Run from the root of a checkout.  Every pass is a fresh interpreter
(``passrun.py``) that imports leafconn from ``src/``, builds the workload's
inputs from the seed, and runs its queries one after another: a closed loop
with one client.  No result carries over from one pass to the next.  Passes
repeat until ``--seconds`` would be exceeded (at least three; a traced run
makes at least one of each kind).  Outputs of
every pass are checked against references that do not come from leafconn.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates plain
and traced passes, adds one profiled pass, and prints the per-layer metrics.
Human-readable lines come first; the last line is one JSON object.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
PASS_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "wall_s": "s",
    "wall_tail_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("ratio", "share", "density", "_frac")):
        return "ratio"
    return "count"


def run_pass(workload: str, seed: int, mode: str, workdir: Path) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, str(HERE / "passrun.py"), workload, str(seed), mode, str(workdir)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} pass of {workload} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Workload:
    """Inputs written before the passes and the checks run after each."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.workdir = workdir
        self._refs = None
        if name == "groebner":
            self.inputs = workloads.groebner_inputs(seed)
        elif name == "lie_homology":
            self.inputs = workloads.lie_inputs(seed)
        else:
            self.inputs = workloads.spec_inputs(seed)
            self.pins = checks.load_report_pins().get(str(seed))
            for k, doc in enumerate(self.inputs):
                (workdir / f"spec{k}.spec").write_text(doc["text"], encoding="utf-8")

    def check(self, result: dict) -> list:
        queries = result["queries"]
        if self.name == "groebner":
            if self._refs is None:
                self._refs = checks.groebner_references(self.inputs)
            return checks.check_groebner(self._refs, queries)
        if self.name == "lie_homology":
            return checks.check_lie(self.inputs, queries)
        reports = []
        for k in range(len(self.inputs)):
            path = self.workdir / f"spec{k}.report"
            reports.append(path.read_text(encoding="utf-8") if path.exists() else None)
            if path.exists():
                path.unlink()
        return checks.check_spec(self.inputs, queries, reports, self.pins)


def tail(samples: list[float]) -> tuple[float, str]:
    """The slowest pass, with the sample count.

    The highest percentile with at least ten samples beyond it needs more
    than 11 passes and lies below the median until 20; runs have about 5
    to 20 passes at the default length, so the tail is the maximum (p100).
    """
    return max(samples), f"p100 (slowest) of {len(samples)} passes"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "leafconn" / "__init__.py").is_file():
        print(f"error: no leafconn sources under {ROOT / 'src'}; run from a leafconn checkout", file=sys.stderr)
        return 2

    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        # byte-compiles leafconn so that set-up times do not include it
        run_pass(args.workload, args.seed, "warmup", workdir)
        workload = Workload(args.workload, args.seed, workdir)
        passes: dict[str, list[dict]] = {"plain": [], "trace": [], "profile": []}
        start = time.perf_counter()
        if args.trace:
            passes["profile"].append(run_pass(args.workload, args.seed, "profile", workdir))
            passes["profile"][0]["verdicts"] = workload.check(passes["profile"][0])
        cycle = ("plain", "trace") if args.trace else ("plain",)
        least = 1 if args.trace else MIN_PASSES
        durations = []
        for k in itertools.count():
            mode = cycle[k % len(cycle)]
            enough = len(passes["plain"]) >= least and len(passes["trace"]) >= least * bool(args.trace)
            if enough and k % len(cycle) == 0 and time.perf_counter() - start + len(cycle) * statistics.median(durations) > args.seconds:
                break
            t0 = time.perf_counter()
            result = run_pass(args.workload, args.seed, mode, workdir)
            durations.append(time.perf_counter() - t0)
            result["verdicts"] = workload.check(result)
            passes[mode].append(result)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    all_passes = [p for group in passes.values() for p in group]
    verdicts = [v for p in all_passes for v in p["verdicts"]]
    attempted = len(verdicts)
    failures = [v for v in verdicts if v is not None]
    plain = passes["plain"]
    correct = not failures

    for reason in sorted(set(failures)):
        print(f"FAILED: {reason}")
    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} plain passes"
          + (f", {len(passes['trace'])} traced, {len(passes['profile'])} profiled" if args.trace else ""))
    print(f"failed_frac = {len(failures) / attempted:.4f} ratio ({len(failures)} of {attempted} queries)")

    walls = [p["wall_s"] for p in plain]
    metrics: dict[str, tuple[float, str]] = {}
    if not args.trace:
        tail_value, tail_note = tail(walls)
        values = {
            "wall_s": statistics.median(walls),
            "wall_tail_s": tail_value,
            "cpu_s": statistics.median(p["cpu_s"] for p in plain),
            "setup_s": statistics.median(p["setup_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in plain),
        }
        for name, value in values.items():
            metrics[name] = (value, END_TO_END_UNITS[name])
        print(f"wall_tail_s is the {tail_note}; no percentile of so few passes has 10 samples beyond it")
    else:
        traced = passes["trace"]
        for p in traced:
            summary = p["trace"]
            if summary["balance_ns"] != 0 or not summary["nested"]:
                correct = False
                print("FAILED: span self times and time outside spans do not add up to the traced wall time")
        # report one whole traced pass (the median by wall time), so that the
        # layer self times and trace.outside_s add up to its trace.wall_s
        middle = sorted(traced, key=lambda p: p["wall_s"])[(len(traced) - 1) // 2]
        layer = dict(middle["trace"]["metrics"])
        layer.update(passes["profile"][0]["profile"])
        layer["trace.overhead_frac"] = statistics.median(p["wall_s"] for p in traced) / statistics.median(walls) - 1
        for name, value in layer.items():
            metrics[name] = (value, layer_unit(name))
        print(f"spans of the last traced pass: {(workdir / 'spans.jsonl').relative_to(ROOT)}")

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
