"""The benchmark's own tests (not part of the package's test suite).

    python3 -m pytest perfbench

They run one traced and one profiled pass per workload (about a minute).
"""
from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Per-layer metrics that must be nonzero where the layer executes.
EXPECTED_NONZERO = {
    "groebner": [
        "ideals.buchberger.self_s", "ideals.normal_form_against.s", "ideals.normal_form_against.calls",
        "ideals.spair.reduced", "ideals.spair.useful_ratio", "ideals.basis_size", "ideals.coeff_bits_max",
        "poly.self_share", "fractions.self_share", "ideals.self_s",
    ],
    "lie_homology": [
        "linalg.rref.s", "linalg.rref.calls", "linalg.rref.cells", "linalg.rref.density", "linalg.rref.rank_ratio",
        "linalg.nullspace.s", "linalg.residue.s", "linalg.residue.calls", "linalg.self_share",
        "liealg.delta_matrix.s", "liealg.delta_matrix.calls", "liealg.delta_matrix.useful_ratio",
        "liealg.coboundary_matrix.s", "liealg.coboundary_matrix.calls", "liealg.homology.self_s",
        "liealg.cohomology.self_s", "liealg.self_share", "blade_sign.calls", "charclass.characteristic_class.s",
        "fractions.self_share", "linalg.self_s", "liealg.self_s", "charclass.self_s",
    ],
    "spec_batch": [
        "ideals.normal_form_against.s", "ideals.normal_form_against.calls", "ideals.Ideal.normal_form.calls",
        "poly.self_share", "fractions.self_share", "linalg.rref.s", "linalg.rref.calls", "linalg.nullspace.s",
        "linalg.residue.s", "linalg.residue.calls", "linalg.solve.s", "linalg.self_share",
        "liealg.delta_matrix.s", "liealg.coboundary_matrix.s", "liealg.homology.self_s", "liealg.self_share",
        "blade_sign.calls", "tensors.schouten_bracket.s", "tensors.schouten_bracket.calls",
        "poisson.jacobi_defect.s", "connection.flat_sections_at_point.s",
        "connection.covariant_derivative_multivector.s", "connection.quotient.useful_ratio",
        "derivations.der_I_basis.s", "charclass.characteristic_class.s", "specfile.parse_spec_text.s",
        "cli.run_document.self_s",
    ] + [f"{layer}.self_s" for layer in tracing.LAYERS],
}
NOT_RUN = {
    "groebner": ["linalg.rref.calls", "liealg.delta_matrix.calls", "tensors.schouten_bracket.calls", "blade_sign.calls"],
    "lie_homology": ["ideals.normal_form_against.calls", "poly.self_share", "tensors.schouten_bracket.calls"],
    "spec_batch": [],
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced and one profiled pass per workload, run once and shared."""
    cache = {}

    def get(name):
        if name not in cache:
            workdir = tmp_path_factory.mktemp(name)
            workload = run.Workload(name, workloads.DEFAULT_SEED, workdir)
            out = {}
            for mode in ("trace", "profile"):
                out[mode] = run.run_pass(name, workloads.DEFAULT_SEED, mode, workdir)
                out[mode]["verdicts"] = workload.check(out[mode])
            cache[name] = (workload, out)
        return cache[name]

    return get


@pytest.mark.parametrize("make", [workloads.groebner_inputs, workloads.lie_inputs, workloads.spec_inputs])
def test_inputs_are_deterministic_per_seed(make):
    assert make(3) == make(3)
    assert make(3) != make(4)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_outputs_pass_their_checks(traced, name):
    _workload, out = traced(name)
    for mode in ("trace", "profile"):
        assert out[mode]["verdicts"] and all(v is None for v in out[mode]["verdicts"]), out[mode]["verdicts"]


def _failed_frac(verdicts):
    return sum(v is not None for v in verdicts) / len(verdicts)


def test_groebner_flipped_coefficient_fails(traced):
    workload, out = traced("groebner")
    refs = checks.groebner_references(workload.inputs)
    queries = copy.deepcopy(out["trace"]["queries"])
    assert _failed_frac(checks.check_groebner(refs, queries)) == 0
    exp, coeff = queries[0]["output"][3][-1]
    queries[0]["output"][3][-1] = [exp, str(-checks.Fraction(coeff))]
    assert _failed_frac(checks.check_groebner(refs, queries)) > 0


def test_lie_changed_dimension_fails(traced):
    workload, out = traced("lie_homology")
    queries = copy.deepcopy(out["trace"]["queries"])
    assert _failed_frac(checks.check_lie(workload.inputs, queries)) == 0
    queries[1]["output"][3][0] += 1
    assert _failed_frac(checks.check_lie(workload.inputs, queries)) > 0
    queries = copy.deepcopy(out["trace"]["queries"])
    queries[3]["output"]["zero"] = True
    assert _failed_frac(checks.check_lie(workload.inputs, queries)) > 0


def test_spec_report_corruptions_fail():
    sys.path.insert(0, str(HERE.parent / "src"))
    from leafconn.cli import run_document
    from leafconn.specfile import parse_spec_text

    docs = workloads.spec_inputs(workloads.DEFAULT_SEED)
    reports = [run_document(parse_spec_text(d["text"]), 3, "grevlex")[0] for d in docs]
    queries = [{"name": f"spec{k}", "error": None, "output": 0} for k in range(len(docs))]
    pins = checks.load_report_pins()[str(workloads.DEFAULT_SEED)]
    assert _failed_frac(checks.check_spec(docs, queries, reports, pins)) == 0
    corruptions = [
        ("dims = ", lambda v: "2" + v[1:]),  # one Betti number changed
        ("basis_size = ", lambda v: str(int(v) + 1)),
        ("nonzero = ", lambda v: "no" if v == "yes" else "yes"),
        ("bracket = ", lambda v: v.replace("2*", "3*", 1) if "2*" in v else v.replace("3*", "2*", 1)),
    ]
    for key, change in corruptions:
        lines = reports[0].splitlines()
        k = next(i for i, line in enumerate(lines) if line.startswith(key) and line != key + "0")
        lines[k] = key + change(lines[k][len(key):])
        bad = reports[:]
        bad[0] = "\n".join(lines) + "\n"
        # independent checks alone catch it, without the pinned bytes
        assert _failed_frac(checks.check_spec(docs, queries, bad, None)) > 0, key
        assert _failed_frac(checks.check_spec(docs, queries, bad, pins)) > 0, key


def test_der_basis_check_rejects_non_preserving_field():
    gens = [(1, 1, 0, 0, 0)]
    good = {(0,): {(1, 0, 0, 0, 0): checks.Fraction(1)}}  # x1 d/dx1 scales x1*x2
    bad = {(0,): {(0, 0, 1, 0, 0): checks.Fraction(1)}}  # x3 d/dx1 sends x1*x2 to x2*x3
    assert checks.preserves_monomial_ideal(good, gens)
    assert not checks.preserves_monomial_ideal(bad, gens)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_trace_reports_every_layer_where_it_runs(traced, name):
    _workload, out = traced(name)
    summary = out["trace"]["trace"]
    assert summary["balance_ns"] == 0 and summary["nested"]
    metrics = dict(summary["metrics"], **out["profile"]["profile"])
    assert sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS) + metrics["trace.outside_s"] == pytest.approx(
        metrics["trace.wall_s"]
    )
    for metric in EXPECTED_NONZERO[name]:
        assert metrics[metric] > 0, metric
    for metric in NOT_RUN[name]:
        assert metrics[metric] == 0, metric


def test_benchmark_json_lists_what_the_run_prints():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert all(m["unit"] == run.END_TO_END_UNITS[m["name"]] for m in bench["end_to_end"])
    emitted = list(tracing.Tracer().summary(0)["metrics"]) + list(tracing.profile_summary({})) + ["trace.overhead_frac"]
    assert [m["name"] for m in bench["per_layer"]] == emitted
    assert all(m["unit"] == run.layer_unit(m["name"]) for m in bench["per_layer"])


def test_tail_is_the_slowest_pass():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "p100 (slowest) of 3 passes")
