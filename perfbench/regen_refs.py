"""Regenerate the benchmark's committed reference data.

    python3 perfbench/regen_refs.py groebner   # needs sympy
    python3 perfbench/regen_refs.py reports    # runs leafconn from src/

``groebner`` writes ``data/groebner_refs.json``: the reduced bases from
``sympy.groebner(..., domain="QQ")`` for the named systems and for the
random systems of the default seed, keyed by a digest of the inputs.

``reports`` writes ``data/spec_reports.json``: the SHA-256 of each
spec_batch report for seeds 0..N-1, as the current leafconn prints them.
The benchmark requires later commits to print the same bytes, so run this
only when a report change is intended and say so in the change.
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

PINNED_SEEDS = 32


def regen_groebner() -> None:
    refs = {}
    for system in workloads.groebner_inputs(workloads.DEFAULT_SEED):
        refs[checks.system_digest(system)] = {"name": system["name"], "basis": checks.sympy_basis(system)}
        print(f"{system['name']}: {len(refs[checks.system_digest(system)]['basis'])} elements")
    (checks.DATA / "groebner_refs.json").write_text(json.dumps(refs, indent=1) + "\n")


def regen_reports() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    from leafconn.cli import run_document
    from leafconn.specfile import parse_spec_text

    pins = {}
    for seed in range(PINNED_SEEDS):
        digests = []
        for doc in workloads.spec_inputs(seed):
            report, code = run_document(parse_spec_text(doc["text"]), 3, "grevlex")
            failures = [v for v in checks.check_report(doc, report) if v]
            if code != 0 or failures:
                raise SystemExit(f"seed {seed}: exit code {code}, {failures}")
            digests.append(hashlib.sha256(report.encode()).hexdigest())
        pins[str(seed)] = digests
        print(f"seed {seed} pinned")
    (checks.DATA / "spec_reports.json").write_text(json.dumps(pins, indent=1) + "\n")


if __name__ == "__main__":
    checks.DATA.mkdir(exist_ok=True)
    {"groebner": regen_groebner, "reports": regen_reports}[sys.argv[1]]()
