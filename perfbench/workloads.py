"""The benchmark's workloads and the checks their outputs must pass.

Each workload is one ``qscissor`` CLI experiment with a config file from
``configs/``.  ``sobol`` is the only stochastic one; its CLI seed is the
benchmark seed modulo ``SOBOL_REFERENCE_SEEDS`` because a reference output
is stored for each of those seeds.

Numeric cells are compared with ``|actual - reference| <= RTOL * |reference|
+ ATOL``: a change that moves results by a few ulps passes, a wrong value
does not.  Reference files round floats to 13 significant digits (see
``record_reference.py``), far inside that tolerance.
"""

from __future__ import annotations

import csv
import io
import lzma
import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONFIG_DIR = HERE / "configs"
REFERENCE_DIR = HERE / "reference"

SOBOL_REFERENCE_SEEDS = 16
RTOL, ATOL = 1e-9, 1e-12
#: gain-sweep rows must agree with the package's closed-form oracle this well
ORACLE_RTOL = 1e-9
#: n_base * (dims + 2) = 3840 * 16 model evaluations per gain value
SOBOL_EVALUATIONS = 61440


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    rows: int

    @property
    def config(self) -> Path:
        return CONFIG_DIR / f"{self.name}.conf"

    def cli_seed(self, seed: int) -> int | None:
        """The seed passed to the CLI, or None for a deterministic experiment."""
        return seed % SOBOL_REFERENCE_SEEDS if self.experiment == "sobol" else None

    def cli_args(self, out_dir: Path, seed: int) -> list[str]:
        args = [self.experiment, "--config", str(self.config), "--out", str(out_dir)]
        cli_seed = self.cli_seed(seed)
        return args if cli_seed is None else [*args, "--seed", str(cli_seed)]

    def output_names(self) -> tuple[str, str]:
        return f"{self.experiment}.csv", f"{self.experiment}.meta.json"

    def reference_path(self, cli_seed: int | None) -> Path:
        if self.experiment == "sobol":
            return REFERENCE_DIR / f"sobol-seed-{cli_seed:02d}.csv"
        return REFERENCE_DIR / f"{self.name}.csv.xz"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sobol", "sobol", rows=42),
        Workload("gain-sweep", "gain-sweep", rows=50),
        Workload("fringes-dense", "fringes", rows=12003),
    )
}


def read_reference(path: Path) -> str:
    if path.suffix == ".xz":
        with lzma.open(path, "rt") as fh:
            return fh.read()
    return path.read_text()


def _as_float(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(actual: list[list[str]], reference: list[list[str]]) -> list[str]:
    """Cell-by-cell comparison; numbers within tolerance, text exactly."""
    problems = []
    if len(actual) != len(reference):
        return [f"{len(actual)} lines, reference has {len(reference)}"]
    for lineno, (row, ref_row) in enumerate(zip(actual, reference), start=1):
        if len(row) != len(ref_row):
            problems.append(f"line {lineno}: {len(row)} cells, reference has {len(ref_row)}")
            continue
        for cell, ref_cell in zip(row, ref_row):
            a, r = _as_float(cell), _as_float(ref_cell)
            if a is None or r is None:
                ok = cell == ref_cell
            else:
                ok = math.isfinite(a) and abs(a - r) <= RTOL * abs(r) + ATOL
            if not ok:
                problems.append(f"line {lineno}: {cell!r} differs from reference {ref_cell!r}")
                break
        if len(problems) >= 5:
            break
    return problems


def _check_gain_oracle(header: list[str], rows: list[list[str]]) -> list[str]:
    expected_header = ["tau", "g", "G2_closed_form", "G2_simulated"]
    if header != expected_header:
        return [f"header {header} is not {expected_header}"]
    grid = [(tau, 0.25 * i) for tau in (0.05, 0.1) for i in range(25)]
    problems = []
    for lineno, (row, (tau, g)) in enumerate(zip(rows, grid), start=2):
        try:
            row_tau, row_g, closed, simulated = (float(cell) for cell in row)
        except ValueError as exc:
            problems.append(f"line {lineno}: {exc}")
            continue
        if (row_tau, row_g) != (tau, g):
            problems.append(f"line {lineno}: (tau, g) = ({row_tau}, {row_g}), expected ({tau}, {g})")
        elif not (math.isfinite(simulated) and abs(simulated - closed) <= ORACLE_RTOL * abs(closed)):
            problems.append(f"line {lineno}: G2_simulated {simulated} vs closed form {closed}")
    return problems[:5]


def check_output(workload: Workload, csv_text: str, cli_seed: int | None) -> list[str]:
    """Every way the CSV of one run deviates from the expected output."""
    try:
        lines = list(csv.reader(io.StringIO(csv_text)))
    except csv.Error as exc:
        return [f"unreadable CSV: {exc}"]
    if not lines:
        return ["empty CSV"]
    header, rows = lines[0], lines[1:]
    problems = []
    if len(rows) != workload.rows:
        problems.append(f"{len(rows)} rows, expected {workload.rows}")
    if workload.experiment == "gain-sweep":
        problems += _check_gain_oracle(header, rows)
    else:
        reference = read_reference(workload.reference_path(cli_seed))
        problems += compare_csv(lines, list(csv.reader(io.StringIO(reference))))
    if workload.experiment == "sobol" and header[-1:] == ["evaluations"]:
        bad = [row[-1] for row in rows if row[-1:] != [str(SOBOL_EVALUATIONS)]]
        if bad:
            problems.append(f"evaluations {bad[0]!r}, expected {SOBOL_EVALUATIONS}")
    return problems
