"""Tests of the benchmark itself.

    python -m pytest bench/tests

The traced-run tests run the sparse_build workload twice in this process
(about two minutes, 2.6 GB peak); the others take seconds.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import child  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

TRACE_SEED = 5


@pytest.fixture(scope="module")
def traced_pair():
    """Two traced sparse_build steps with the same seed."""
    return [child.step("sparse_build", TRACE_SEED, True) for _ in range(2)]


def _names(section):
    return [m["name"] for m in SPEC[section]]


def test_end_to_end_names_match_spec(traced_pair):
    metrics = run._end_to_end(traced_pair, [s["setup_s"] for s in traced_pair])
    assert list(metrics) == _names("end_to_end")
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: run.unit(name) for name in metrics} == units


def test_per_layer_names_match_spec(traced_pair):
    metrics = traced_pair[0]["per_layer"]
    assert list(metrics) == _names("per_layer")
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: run.unit(name) for name in metrics} == units


def test_traced_counts_repeat_exactly(traced_pair):
    first, second = (t["per_layer"] for t in traced_pair)
    counted = [name for name in first
               if name.endswith((".calls", ".failed", "fft_points"))
               or (name.startswith("fft.") and name.endswith(".points"))]
    assert len(counted) > 20
    assert {n: first[n] for n in counted} == {n: second[n] for n in counted}
    assert first["check.assemble_iterate.failed"] in (0, 1)
    assert first["fft.4d.points"] > 0 and first["fft.3d.points"] > 0


def test_span_that_should_run_but_did_not_is_an_error():
    import tracing

    tracer = tracing.Tracer()
    tracer.fft = {rank: [1, 1, 1] for rank in tracing.FFT_RANKS}
    tracer.spans = [[f"fft.{rank}d", 0.0, 1.0, -1]
                    for rank in tracing.FFT_RANKS]
    tracer.spans += [[span.name, 0.0, 1.0, -1] for span in tracing.SPANS
                     if not span.verified_only]
    # an unverified step need not run the verified-only spans ...
    assert all(tracer.metrics(verified=False)[f"{span.name}.{field}"] == 0
               for span in tracing.SPANS if span.verified_only
               for field in span.fields)
    # ... but a verified step must, and every step runs the others
    with pytest.raises(RuntimeError, match="never ran"):
        tracer.metrics(verified=True)
    tracer.spans.pop()
    with pytest.raises(RuntimeError, match="never ran"):
        tracer.metrics(verified=False)


def test_sparse_build_outputs_pass_own_checks(traced_pair):
    for step in traced_pair:
        assert step["problems"] == []
        assert step["checks_attempted"] == ["assemble_iterate"]
    # the peak RSS is per process, so only the first step here is fresh
    assert traced_pair[0]["inputs_rss_mb"] < traced_pair[0]["peak_rss_mb"]


def test_typed_rejection_counts_and_other_errors_raise():
    import workloads
    from cilab.perturbations import CorrectorIdentityError

    def typed():
        raise CorrectorIdentityError("gate")

    def untyped():
        raise KeyError("bug")

    assert workloads._check(typed) == "CorrectorIdentityError: gate"
    assert workloads._check(lambda: None) is None
    with pytest.raises(KeyError):
        workloads._check(untyped)


def _run_snippet(code, cwd):
    return subprocess.run([sys.executable, "-c", code], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_untyped_error_in_workload_exits_nonzero():
    code = (
        f"import sys; sys.path[:0] = [{BENCH!r}, {os.path.join(ROOT, 'src')!r}]\n"
        "from cilab import mollify\n"
        "def boom(*a, **k): raise ValueError('injected')\n"
        "mollify.mollify = boom\n"
        "import child; child.main(['step', 'verified_step', '1', '0'])\n")
    proc = _run_snippet(code, ROOT)
    assert proc.returncode != 0
    assert "injected" in proc.stderr
    assert proc.stdout.strip() == ""


def test_failed_child_makes_command_exit_nonzero(capsys):
    code = run.main(["--workload", "no_such_workload", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert '"correct"' not in capsys.readouterr().out


def test_command_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sparse_build",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_spec_shape():
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert _names("workloads") == ["verified_step", "sparse_build"]
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
