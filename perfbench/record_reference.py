"""Record the reference outputs that workloads.check_output compares against.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/record_reference.py

It runs ``fringes-dense`` once and ``sobol`` for CLI seeds
0 .. SOBOL_REFERENCE_SEEDS-1 in this process, rounds every float to 13
significant digits and writes ``perfbench/reference/``.  ``gain-sweep`` needs
no file: the package's closed form is its reference.
"""

import csv
import io
import lzma
import os
import sys
import tempfile
from pathlib import Path

from workloads import REFERENCE_DIR, SOBOL_REFERENCE_SEEDS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _rounded(cell: str) -> str:
    try:
        value = float(cell)
    except ValueError:
        return cell
    return format(value, ".13g") if any(c in cell for c in ".eE") else cell


def _run(workload, seed: int) -> str:
    from qscissor import cli

    with tempfile.TemporaryDirectory() as out:
        if cli.main(workload.cli_args(Path(out), seed)) != 0:
            raise SystemExit(f"{workload.name} failed for seed {seed}")
        text = (Path(out) / workload.output_names()[0]).read_text()
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    for row in csv.reader(io.StringIO(text)):
        writer.writerow([_rounded(cell) for cell in row])
    return buffer.getvalue()


def main() -> int:
    # numpy is imported later, with qscissor, and reads these once
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    REFERENCE_DIR.mkdir(exist_ok=True)
    fringes = WORKLOADS["fringes-dense"]
    with lzma.open(fringes.reference_path(None), "wt", preset=9 | lzma.PRESET_EXTREME) as fh:
        fh.write(_run(fringes, 0))
    sobol = WORKLOADS["sobol"]
    for seed in range(SOBOL_REFERENCE_SEEDS):
        sobol.reference_path(seed).write_text(_run(sobol, seed))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
