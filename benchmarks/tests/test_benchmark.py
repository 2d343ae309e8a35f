"""Tests of the benchmark itself: toy-size runs, span arithmetic, failures.

Run from the repository root:  python3 -m pytest benchmarks/tests
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from spans import Span, Tracer, layer_table, per_layer_metrics, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _load_run_module():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _toy(workload, trace, out):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "2",
         "--seconds", "0.5", "--trace", str(trace), "--size", "toy", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_run_prints_every_metric_with_its_unit(workload, trace, section, tmp_path):
    proc, result = _toy(workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        assert list(tmp_path.glob("*-spans.jsonl"))


def test_end_to_end_metrics_are_positive(tmp_path):
    _, result = _toy("recon-fine", 0, tmp_path)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def _span(name, start, end, parent=None):
    return Span(name, float(start), float(end), parent=parent, run="r")


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("select.run_sweep", 0, 10),
        _span("pdip.reconstruct", 1, 4, parent=0),
        _span("pdip.reconstruct", 3, 6, parent=0),  # overlaps its sibling
        _span("geometry.assemble_system_matrix", 8, 12, parent=0),  # outlives the parent
        _span("qp.build_qp", 2, 3, parent=1),
        _span("pdip.pdip_solve", 3.5, 4, parent=1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.5, 3.0, 4.0, 1.0, 0.5])
    table = layer_table(spans, self_times(spans), {"r"})
    # pdip_solve sits inside a pdip span, so it adds self time but no total
    assert table["pdip"] == pytest.approx({"total_s": 6.0, "self_s": 5.0, "calls": 3})
    assert table["select"] == pytest.approx({"total_s": 10.0, "self_s": 3.0, "calls": 1})
    assert table["qp"]["total_s"] == pytest.approx(1.0)


def test_tracer_records_cg_backend_and_restores_attributes():
    sys.path.insert(0, str(ROOT / "src"))
    import scipy.sparse.linalg as spla
    import tvtomo as tv
    import tvtomo.select

    before = (tvtomo.select.reconstruct, tv.pdip.build_qp, spla.splu, spla.cg)
    geom = tv.ScanGeometry(num_angles=6, num_detector_pixels=12)
    tracer = Tracer()
    with tracer.recording("r"):
        A = tv.assemble_system_matrix(geom, 8)
        g = tv.forward_project(A, tv.render_phantom(tv.Phantom.disc(r=0.25), 8))
        _, report = tv.reconstruct(A, g, 0.1, config=tv.SolverConfig(backend="cg"))
    assert (tvtomo.select.reconstruct, tv.pdip.build_qp, spla.splu, spla.cg) == before

    selfs = self_times(tracer.spans)
    m = per_layer_metrics(tracer.spans, selfs, ["r"], ["r"], {})
    assert m["pdip.solves"]["value"] == 1
    assert m["pdip.outer_iters"]["value"] == report.iterations
    assert m["pdip.factors"]["value"] == report.iterations
    assert m["pdip.cg_calls"]["value"] == 2 * report.iterations
    assert m["pdip.cg_iters"]["value"] > 0
    # the preconditioner runs once per CG iteration plus once per call
    assert m["pdip.precond_applies"]["value"] == (
        m["pdip.cg_iters"]["value"] + m["pdip.cg_calls"]["value"])
    assert m["geometry.rays"]["value"] == geom.num_rays
    assert m["pdip.cg_s"]["value"] > m["pdip.precond_apply_s"]["value"] > 0


def test_failed_check_raises_fail_ratio_and_exit_code(tmp_path, capsys, monkeypatch):
    run = _load_run_module()
    monkeypatch.setattr(run, "load_reference",
                        lambda size, seed, workload: {"parallel_nnz": 1, "fan_nnz": 1})
    monkeypatch.setattr(Tracer, "install", lambda self: pytest.fail("untraced run traced"))
    code = run.main(["--workload", "assemble-rays", "--seed", "2", "--seconds", "0.1",
                     "--trace", "0", "--size", "toy", "--out", str(tmp_path)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 2
    ratio = next(line for line in lines if line.startswith("fail_ratio"))
    assert float(ratio.split()[1]) > 0


def test_missing_package_exits_nonzero_without_result(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "benchmarks" / f.name).write_text(f.read_text())
    (tmp_path / "benchmarks" / "reference.json").write_text("{}")
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "recon-fine", "--seed", "2",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
