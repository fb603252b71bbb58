"""Tests of the benchmark's own checks and tracer (no timing is asserted).

    python3 -m pytest perfbench -q
"""

import csv
import io
import json
import shutil
import sys
import time

import pytest

import run
import tracer
from workloads import WORKLOADS, check_output, read_reference

sys.path.insert(0, str(run.SRC))


def _gain_sweep_csv(corrupt_line: int | None = None) -> str:
    lines = ["tau,g,G2_closed_form,G2_simulated"]
    for tau in (0.05, 0.1):
        for i in range(25):
            g = 0.25 * i
            closed = 2.0 * g**4 / (1.0 + tau)
            simulated = closed * (1.0 + 1e-6) if len(lines) == corrupt_line else closed
            lines.append(f"{tau!r},{g!r},{closed!r},{simulated!r}")
    return "\n".join(lines) + "\n"


def _rewrite(text: str, line: int, column: int, transform) -> str:
    rows = list(csv.reader(io.StringIO(text)))
    rows[line][column] = transform(rows[line][column])
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def test_gain_sweep_oracle():
    gain = WORKLOADS["gain-sweep"]
    assert check_output(gain, _gain_sweep_csv(), None) == []
    assert check_output(gain, _gain_sweep_csv(corrupt_line=7), None)
    truncated = "\n".join(_gain_sweep_csv().splitlines()[:-1]) + "\n"
    assert check_output(gain, truncated, None)


@pytest.mark.parametrize("name, seed", [("fringes-dense", 0), ("sobol", 3), ("sobol", 19)])
def test_reference_comparison(name, seed):
    workload = WORKLOADS[name]
    cli_seed = workload.cli_seed(seed)
    text = read_reference(workload.reference_path(cli_seed))
    value_column = 3 if name == "sobol" else 2  # s1 or rate
    assert check_output(workload, text, cli_seed) == []
    # a few-ulp drift passes; a wrong value, a dropped row or another seed fails
    drifted = _rewrite(text, 5, value_column, lambda c: repr(float(c) * (1 + 4e-16)))
    assert check_output(workload, drifted, cli_seed) == []
    wrong = _rewrite(text, 5, value_column, lambda c: repr(float(c) * 1.001 + 1e-9))
    assert check_output(workload, wrong, cli_seed)
    assert check_output(workload, "\n".join(text.splitlines()[:-1]) + "\n", cli_seed)
    if name == "sobol":
        assert check_output(workload, text, (cli_seed + 1) % 16)
        assert check_output(workload, _rewrite(text, 1, -1, lambda c: "61439"), cli_seed)


def test_corrupted_csv_counts_as_failed_run(tmp_path, monkeypatch, capsys):
    """Drive run.main with stand-in children; the second run's CSV is corrupted."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    monkeypatch.setattr(run, "ROOT", tmp_path)
    runs = []

    def fake_spawn(options, report, deadline, cli_args=()):
        result = {"imported_at": 0.0, "setup_s": 0.15, "setup_wall_s": 0.2,
                  "qscissor_file": str(run.SRC)}
        if "--probe" in options:
            return {**result, "python": "3", "numpy": "2", "blas": "none"}, []
        out = run.Path(cli_args[cli_args.index("--out") + 1])
        runs.append(out)
        time.sleep(0.6)  # two runs fill the one-second measuring window
        (out / "gain-sweep.csv").write_text(_gain_sweep_csv(7 if len(runs) == 2 else None))
        (out / "gain-sweep.meta.json").write_text("{}\n")
        sampler = {"kernel_s": 0.03, "speed": 0.8, "samples": 150}
        report = {"exit_code": 0, "run_s": 3.0, "cpu_s": 3.0, "run": sampler}
        return {**result, **report, "peak_rss_mb": 36.0}, []

    monkeypatch.setattr(run, "_spawn", fake_spawn)
    assert run.main(["--workload", "gain-sweep", "--seed", "1", "--seconds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["attempted"] == 2 and result["failed"] == 1
    assert result["correct"] is False
    assert set(result["metrics"]) == {"run_s", "setup_s", "peak_rss_mb"}
    # the wall time minus the kernel's share, at the sampled host speed
    assert result["metrics"]["run_s"]["value"] == pytest.approx((3.0 - 0.03) * 0.8)


def test_summarize_self_time_and_misses():
    names = ["circuit.fock_transfer_matrix", "circuit.permanent"]
    spans = [
        [0, 0, 100, -1, 0],   # miss: contains a permanent
        [1, 10, 40, 0, 0],
        [1, 50, 70, 0, 0],
        [0, 200, 210, -1, 0],  # hit
    ]
    stats = tracer.summarize({"run_id": "t", "names": names, "spans": spans})
    ftm = stats["circuit.fock_transfer_matrix"]
    assert ftm["calls"] == 2 and ftm["misses"] == 1
    assert ftm["self_s"] == pytest.approx((100 - 50 + 10) * 1e-9)
    assert ftm["miss_s"] == pytest.approx(100e-9)
    assert stats["circuit.permanent"]["total_s"] == pytest.approx(50e-9)


def test_tracer_rebinds_every_importing_module():
    from qscissor import analysis, circuit, cli, fock, scissor

    saved = {m: dict(vars(m)) for k, m in sys.modules.items() if k.split(".")[0] == "qscissor"}
    try:
        t = tracer.Tracer()
        t.install()
        assert cli.fringe_scan is analysis.fringe_scan
        assert scissor.apply_mode_unitary is circuit.apply_mode_unitary
        assert analysis.project_pattern is fock.project_pattern
        assert circuit.apply_mode_unitary.__wrapped__ is saved[circuit]["apply_mode_unitary"]
        cli.fringe_scan(0.2, 2.0, (1, 1, 0), [0.0, 0.5, 1.0])
    finally:
        for module, attrs in saved.items():
            vars(module).update(attrs)
    stats = tracer.summarize({"run_id": "t", "names": t.names, "spans": t.spans})
    assert stats["analysis.fringe_scan"]["calls"] == 1
    assert stats["circuit.compile_circuit"]["calls"] == 3
    assert stats["fock.project_pattern"]["calls"] == 4  # one herald + three phases
    assert stats["scissor.heralded_amplify"]["calls"] == 1
