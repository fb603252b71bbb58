"""qscissor benchmark: cold-process CLI runs with end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program under test is the
checkout's own ``src/``.  Workloads are defined in ``workloads.py``.  Every
measured run is a fresh interpreter (``child.py``) that imports qscissor and
calls ``qscissor.cli.main`` once, because CLI users pay the package's cold
caches on every invocation.  Runs follow each other in a closed loop: one
client, one run at a time.  BLAS is pinned to one thread.

The host is shared and its speed drifts, so every child also times a fixed
reference kernel on its own core while it works (``refkernel.py``).
``run_s`` and ``setup_s`` are the measured wall times scaled by the host
speed those samples give: the seconds the same work takes on a host that
runs the kernels in their nominal times.  The unscaled medians are
printed too, and kept in ``result.json``.

An untraced invocation (``--trace 0``) starts full runs until ``--seconds``
have passed (at least two, so that two runs with the same seed can be
compared byte for byte), each after ``PROBES_PER_RUN`` import-only processes
that time the set-up.  It reports the median ``run_s``, ``setup_s`` and
``peak_rss_mb``.  A traced invocation (``--trace 1``) alternates untraced
and traced runs and reports the per-layer metrics of ``BENCHMARK.json``
from the traced runs' spans.

Every run's outputs are checked (``workloads.check_output``, exit code,
tracebacks, byte identity between runs).  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The line before it records the environment; details of every run go to
``.perfbench/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refkernel import (
    IMPORT_INTERVAL_S, NUMPY_NOMINAL_S, PYTHON_NOMINAL_S, RUN_INTERVAL_S, scaled,
)
from tracer import summarize
from workloads import WORKLOADS, check_output

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"
#: import-only processes timed before each untraced run, for setup_s; spread
#: through the invocation so that a slow spell of the host does not set it
PROBES_PER_RUN = 2
#: every child must have ended this long after the invocation started
DEADLINE_S = 165.0
#: per-layer stats that must repeat exactly between traced runs
COUNT_STATS = ("calls", "misses", "hit_ratio", "rows", "bytes")


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = BLAS_THREADS
    return env


def _spawn(
    options: list[str], report: Path, deadline: float, cli_args: tuple[str, ...] = ()
) -> tuple[dict | None, list[str]]:
    """Run child.py once; return its report (with setup_s) and any problems."""
    cmd = [sys.executable, str(HERE / "child.py"), *options, str(report), "--", *cli_args]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired:
        return None, ["timed out"]
    problems = []
    if proc.returncode != 0:
        problems.append(f"child exit code {proc.returncode}: {proc.stderr.strip()[-500:]}")
    elif "Traceback" in proc.stderr:
        problems.append("traceback on stderr")
    try:
        result = json.loads(report.read_text())
    except (OSError, ValueError):
        return None, problems or ["child wrote no report"]
    result["setup_wall_s"] = result["imported_at"] - spawned
    result["setup_s"] = scaled(result["setup_wall_s"], result["setup"]["kernel_s"],
                               result["setup"]["speed"])
    if not Path(result["qscissor_file"]).resolve().is_relative_to(SRC):
        problems.append(f"imported {result['qscissor_file']}, not the checkout's src/")
    return result, problems


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def _measure(workload, seed: int, index: int, traced: bool, run_dir: Path, deadline: float) -> dict:
    """One full run in a fresh process, with its output checks."""
    out = run_dir / f"run-{index:03d}"
    out.mkdir()
    options = []
    if traced:
        options = ["--spans", str(out / "spans.json"), "--run-id", f"{workload.name}-{seed}-{index}"]
    report, problems = _spawn(options, out / "report.json", deadline, workload.cli_args(out, seed))
    sample = {"index": index, "traced": traced, "problems": problems}
    if report is None:
        return sample
    sample.update({k: report[k] for k in ("setup_s", "setup_wall_s", "peak_rss_mb")})
    sample["wall_s"] = report["run_s"]
    sample["speed"] = report["run"]["speed"]
    sample["run_s"] = scaled(report["run_s"], report["run"]["kernel_s"], report["run"]["speed"])
    sample["cpu_s"] = scaled(report["cpu_s"], report["run"]["kernel_s"], report["run"]["speed"])
    if report["exit_code"] != 0:
        problems.append(f"cli exit code {report['exit_code']}")
    csv_path, meta_path = (out / name for name in workload.output_names())
    if not (csv_path.is_file() and meta_path.is_file()):
        problems.append("missing CSV or meta output")
        return sample
    sample["digest"] = _digest(csv_path, meta_path)
    sample["bytes"] = csv_path.stat().st_size + meta_path.stat().st_size
    problems += check_output(workload, csv_path.read_text(), workload.cli_seed(seed))
    if traced:
        with open(out / "spans.json") as fh:
            sample["stats"] = summarize(json.load(fh))
    return sample


def _mark_nondeterministic(samples: list[dict]) -> None:
    """Runs share a seed, so every run's CSV and meta bytes must match the first's."""
    digests = [s for s in samples if "digest" in s]
    for s in digests[1:]:
        if s["digest"] != digests[0]["digest"]:
            s["problems"].append(f"outputs differ from run {digests[0]['index']}")


def _layer_stat(sample: dict, function: str, stat: str) -> float:
    entry = sample["stats"][function]
    if stat == "rows":
        return entry["work"]
    if stat == "bytes":
        return sample["bytes"]
    if stat == "hit_ratio":
        return (entry["calls"] - entry["misses"]) / entry["calls"] if entry["calls"] else 0.0
    # span times are scaled to nominal host speed, as run_s is
    if stat == "rows_per_s":
        return entry["work"] / (entry["self_s"] * sample["speed"]) if entry["self_s"] > 0 else 0.0
    if stat.endswith("_s"):
        return entry[stat] * sample["speed"]
    return entry[stat]


def _median(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def _end_to_end(names, probes: list[dict], runs: list[dict]) -> dict[str, float]:
    values = {
        "run_s": _median(runs, "run_s"),
        "setup_s": _median(probes + runs, "setup_s"),
        "peak_rss_mb": _median(runs, "peak_rss_mb"),
    }
    return {name: values[name] for name in names}


def _per_layer(names, runs: list[dict], traced: list[dict]) -> tuple[dict[str, float], list[str]]:
    metrics, problems = {}, []
    for name in names:
        if name == "trace.overhead_s":
            metrics[name] = _median(traced, "run_s") - _median(runs, "run_s")
        elif name == "process.cpu_s":
            metrics[name] = _median(runs, "cpu_s")
        else:
            function, stat = name.rsplit(".", 1)
            values = [_layer_stat(s, function, stat) for s in traced]
            if stat not in COUNT_STATS:
                metrics[name] = statistics.median(values)
                continue
            if len(set(values)) > 1:
                problems.append(f"{name} differs between traced runs: {values}")
            metrics[name] = values[0]
    return metrics, problems


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _environment(probe: dict, args, workload) -> dict:
    sources = sorted((SRC / "qscissor").rglob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": probe["python"],
        "numpy": probe["numpy"],
        "blas": probe["blas"],
        "blas_threads": int(BLAS_THREADS),
        "git_commit": _git_commit(),
        "source_sha256": _digest(*sources),
        "workload": workload.name,
        "seed": args.seed,
        "cli_seed": workload.cli_seed(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "loadavg": os.getloadavg(),
        "reference_kernels": {
            "run": {"kernel": "numpy_kernel", "nominal_s": NUMPY_NOMINAL_S, "interval_s": RUN_INTERVAL_S},
            "setup": {"kernel": "python_kernel", "nominal_s": PYTHON_NOMINAL_S,
                      "interval_s": IMPORT_INTERVAL_S},
        },
    }


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 120:
        parser.error("--seconds must be 1..120")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills the running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload]
    if not (SRC / "qscissor" / "cli.py").is_file():
        print(f"error: {SRC / 'qscissor'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}

    started = time.monotonic()
    deadline = started + DEADLINE_S
    run_dir = ROOT / ".perfbench" / workload.name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    # an unmeasured probe warms the page cache and bytecode, and reports versions
    probe, problems = _spawn(["--probe"], run_dir / "probe.json", deadline)
    if probe is None or problems:
        print(f"error: qscissor does not import: {problems}", file=sys.stderr)
        return 1
    probes: list[dict] = []
    samples: list[dict] = []
    measure_from = time.monotonic()
    while True:
        runs = [s for s in samples if not s["traced"]]
        traced = [s for s in samples if s["traced"]]
        enough = len(runs) >= 2 and (len(traced) >= 2 or not args.trace)
        if enough and time.monotonic() - measure_from >= args.seconds:
            break
        for _ in range(0 if args.trace else PROBES_PER_RUN):
            report, problems = _spawn(["--probe"], run_dir / f"probe-{len(probes):03d}.json", deadline)
            if report is None or problems:
                print(f"error: import probe failed: {problems}", file=sys.stderr)
                return 1
            probes.append(report)
        sample = _measure(
            workload, args.seed, len(samples), bool(args.trace) and len(samples) % 2 == 1,
            run_dir, deadline,
        )
        samples.append(sample)
        if "run_s" not in sample:
            break  # a run that crashed or timed out ends the invocation

    _mark_nondeterministic(samples)
    failed = sum(1 for s in samples if s["problems"])
    good = [s for s in samples if not s["problems"]]
    runs = [s for s in good if not s["traced"]]
    traced = [s for s in good if s["traced"]]
    run_problems = []
    if not runs or (args.trace and not traced):
        run_problems.append("no run passed its checks")
        metrics = {}
    elif args.trace:
        metrics, run_problems = _per_layer(units, runs, traced)
    else:
        metrics = _end_to_end(units, probes, runs)

    env = _environment(probe, args, workload)
    details = {"environment": env, "probes": probes, "samples": samples,
               "run_problems": run_problems, "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps(details, indent=1, default=str))

    print(f"{workload.name}: {len(samples)} runs, {failed} failed, seed {args.seed}, "
          f"trace {args.trace}, {time.monotonic() - started:.1f} s")
    for s in samples:
        for problem in s["problems"]:
            print(f"  run {s['index']}: {problem}")
    for problem in run_problems:
        print(f"  {problem}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(f"  error_rate = {failed / len(samples):.6g} ({failed} of {len(samples)} runs)")
    if runs:
        print(f"  unscaled: run {_median(runs, 'wall_s'):.6g} s, "
              f"setup {_median(probes + runs, 'setup_wall_s'):.6g} s, "
              f"host speed {_median(runs, 'speed'):.4g} x nominal")
    print("env: " + json.dumps(env))
    print(json.dumps({
        "correct": failed == 0 and not run_problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
