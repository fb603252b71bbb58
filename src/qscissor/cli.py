"""Batch experiment runner.

Experiments are described by a flat key = value config file (grids written
as ``start:stop:step`` or comma lists, each held once as one float64 array)
and produce a CSV plus a JSON sidecar holding the resolved configuration,
where a ``start:stop:step`` grid appears as the rule that rebuilds its
values.  A run's rows are the product of its grids; its checks cost work in
proportion to grid points.  Outputs are byte identical for identical config
and seed: floats are written in shortest round-trip form and no timestamps
are recorded.  The CSV is written 1,024 rows at a time, each block joined
into one string (about 0.2 MiB for three numeric columns).  A column that
repeats its cells is passed as its values plus a row index; each value is
formatted once and held for the whole write (about 70 MiB for a 10^6-point
phase grid, beside its 8 MB array).  A failed write leaves neither file.

Exit codes: 0 success, 2 invalid configuration (messages carry the config
line number), 3 output I/O failure.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import itertools
import json
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, analysis, scissor, sensitivity
from .analysis import fringe_scan, hom_coincidence, negativity_curve
from .scissor import (
    SUCCESS_PATTERNS,
    measured_two_photon_gain,
    run_two_scissor,
    two_photon_gain,
)

SCHEMA_VERSION = 3

_MAX_SEED = 2**64 - 1

#: size limit, so memory stays bounded by the work a config asks for (an
#: explicit comma list is already bounded by the length of the config text)
_MAX_GRID_POINTS = 10**6  # points of one start:stop:step grid

class ConfigError(Exception):
    """Invalid configuration; carries one message per violated constraint."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def parse_config_text(text: str) -> dict[str, tuple[str, int]]:
    """Parse flat ``key = value`` lines, each ended by a line feed alone (a
    form feed or U+2028 is part of its line), into {key: (value, line)}."""
    entries: dict[str, tuple[str, int]] = {}
    problems = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value', got {raw!r}")
            continue
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            problems.append(f"line {lineno}: empty key")
            continue
        if key in entries:
            problems.append(
                f"line {lineno}: duplicate key {key!r} "
                f"(first set on line {entries[key][1]})"
            )
            continue
        entries[key] = (value, lineno)
    if problems:
        raise ConfigError(problems)
    return entries


def _parse_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{raw!r} is not a number")
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not a finite number")
    return value


def _parse_int(raw: str) -> int:
    try:
        return int(raw, 0)
    except ValueError:
        raise ValueError(f"{raw!r} is not an integer")


def _parse_seed(raw: str) -> int:
    seed = _parse_int(raw)
    if not 0 <= seed <= _MAX_SEED:
        raise ValueError(f"{seed} outside the u64 range [0, {_MAX_SEED}]")
    return seed


class _Grid(np.ndarray):
    """A ``start:stop:step`` grid's values; the meta records its ``rule``."""

    rule: dict


def _parse_grid(raw: str) -> np.ndarray:
    """'start:stop:step' (inclusive ends) or 'a, b, c' as a float64 array."""
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be start:stop:step, got {raw!r}")
        start, stop, step = (_parse_float(p) for p in parts)
        if step <= 0:
            raise ValueError(f"grid step must be positive, got {step}")
        if stop < start:
            raise ValueError(f"grid stop {stop} below start {start}")
        span = (stop - start) / step  # inf for a step far below the range
        if span + 1.0 > _MAX_GRID_POINTS:
            raise ValueError(f"grid has more than {_MAX_GRID_POINTS} points")
        points = int(math.floor(span + 1e-9)) + 1
        # in place on one array: the bits of start + np.arange(points) * step
        grid = np.arange(points, dtype=float).view(_Grid)
        grid *= step
        grid += start
        grid[-1] = min(grid[-1], stop)  # where rounding takes it past the stop
        grid.rule = {"points": points, "start": start, "step": step, "stop": stop}
        return grid
    values = [_parse_float(p.strip()) for p in raw.split(",") if p.strip()]
    if not values:
        raise ValueError(f"grid {raw!r} holds no values")
    return np.array(values)


def _parse_pattern(raw: str):
    raw = raw.strip().lower()
    if raw == "all":
        return list(SUCCESS_PATTERNS)
    cleaned = raw.replace(",", "").replace(" ", "").replace("(", "").replace(")", "")
    patterns = {_pattern_label(p): p for p in SUCCESS_PATTERNS}
    if cleaned in patterns:
        return [patterns[cleaned]]
    valid = ", ".join(patterns)
    raise ValueError(f"{raw!r} is not a herald pattern (one of {valid}, or 'all')")


def _parse_one_pattern(raw: str, experiment: str):
    """``_parse_pattern`` for an experiment that runs one herald pattern."""
    patterns = _parse_pattern(raw)
    if len(patterns) > 1:
        raise ValueError(f"{experiment} takes one herald pattern, got {len(patterns)}")
    return patterns


class Field(NamedTuple):
    parse: object
    default: str | None  # raw default value, None = required
    doc: str


_PHI_DEFAULT = "0:6.283185307179586:0.06283185307179587"
_GAIN_RANGE = f"0 or [{scissor._MIN_GAIN:g}, {scissor._MAX_GAIN:g}]"
_TAU_RANGE = f"[{scissor._MIN_TAU:g}, 1]"

SCHEMAS: dict[str, dict[str, Field]] = {
    "scissor": {
        "g": Field(
            _parse_grid, "0.5, 1, 2, 3", f"amplitude gain grid, each {_GAIN_RANGE}"
        ),
        "pattern": Field(_parse_pattern, "all", "herald pattern or 'all'"),
        "input_coeffs": Field(
            lambda raw: [_parse_float(p) for p in raw.split(",")],
            "1, 1, 1",
            "input Fock coefficients c0, c1, ... (up to 5)",
        ),
    },
    "gain-sweep": {
        "tau": Field(
            _parse_grid, "0.05, 0.1", f"channel transmissions in {_TAU_RANGE}"
        ),
        "g": Field(_parse_grid, "0:6:0.25", f"gain grid, each {_GAIN_RANGE}"),
        "pattern": Field(
            lambda raw: _parse_one_pattern(raw, "gain-sweep"), "110", "herald pattern"
        ),
    },
    "fringes": {
        "sigma": Field(_parse_float, None, "reference split ratio in (0, 1)"),
        "g": Field(_parse_float, None, f"amplitude gain, {_GAIN_RANGE}"),
        "pattern": Field(_parse_pattern, "all", "herald pattern or 'all'"),
        "phi": Field(_parse_grid, _PHI_DEFAULT, "recombination phase grid"),
    },
    "negativity": {
        "sigma": Field(_parse_grid, "0.1, 0.2, 0.5", "split ratios in (0, 1)"),
        "g": Field(_parse_grid, "0.5:4:0.025", f"gain grid, each {_GAIN_RANGE}"),
    },
    "hom": {
        "theta": Field(
            _parse_grid, "0:1.5707963267948966:0.007853981633974483",
            "wave-plate angle grid (radians)",
        ),
    },
    "sobol": {
        "g": Field(
            _parse_grid, "1, 2, 3",
            f"gain values in [{scissor._MIN_GAIN:g}, {scissor._MAX_GAIN:g}]",
        ),
        "tau": Field(_parse_float, "0.05", f"channel transmission in {_TAU_RANGE}"),
        "n_base": Field(_parse_int, "3840", "base sample count in [2, 100000]"),
        "seed": Field(_parse_seed, None, "RNG seed (required; may come from --seed)"),
        "loss_min": Field(_parse_float, "0", "lower loss-sampling bound"),
        "loss_max": Field(_parse_float, "0.5", "upper loss-sampling bound"),
        "pattern": Field(
            lambda raw: _parse_one_pattern(raw, "sobol"), "110", "herald pattern"
        ),
        "bootstrap": Field(
            _parse_int, "1000",
            "bootstrap resamples in [2, 100000]",
        ),
    },
}
EXPERIMENTS = tuple(SCHEMAS)


def _source(key: str, entries: dict[str, tuple[str, int]]) -> str:
    """Where a file key's value comes from: its config line, or its default."""
    return f"line {entries[key][1]}: {key}" if key in entries else f"default for {key}"


def resolve_config(
    experiment: str, entries: dict[str, tuple[str, int]], seed: int | None
) -> dict:
    """Validate raw entries against the experiment schema; resolve defaults.

    Collects *all* violations rather than stopping at the first.
    """
    problems = []
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; valid names: {', '.join(EXPERIMENTS)}"
        )
    schema = SCHEMAS[experiment]
    declared = entries.get("experiment")
    if declared is not None and declared[0] != experiment:
        problems.append(
            f"line {declared[1]}: config declares experiment = {declared[0]!r} "
            f"but {experiment!r} was requested"
        )

    resolved: dict = {}
    sources: dict[str, str] = {}  # where each resolved value came from
    for key, (raw, lineno) in entries.items():
        if key == "experiment":
            continue
        if key not in schema:
            problems.append(
                f"line {lineno}: unknown key {key!r} for experiment "
                f"{experiment!r} (valid: {', '.join(sorted(schema))})"
            )

    for key, field in schema.items():
        given = []
        if key in entries:
            given.append((entries[key][0], _source(key, entries)))
        if key == "seed" and seed is not None:
            given.append((str(seed), "--seed"))  # command line wins over the file
        if not given:
            if field.default is None:
                problems.append(f"missing required key {key!r} ({field.doc})")
                continue
            given.append((field.default, _source(key, entries)))
        for raw, where in given:
            try:
                resolved[key] = field.parse(raw)
                sources[key] = where
            except ValueError as exc:
                problems.append(f"{where}: {exc}")

    problems.extend(_semantic_checks(experiment, resolved, sources))
    if problems:
        raise ConfigError(problems)
    resolved["experiment"] = experiment
    return resolved


def _sobol_check(name: str):
    """``sensitivity``'s check ``name``, looked up when it runs: reading an
    attribute of that module runs its code, which only ``sobol`` needs."""
    return lambda value: getattr(sensitivity, name)(value)


#: the library's checks of each experiment's values, in reporting order.  A
#: check takes one value per argument: for a grid key, each grid point in
#: turn, or the whole grid for a check in ``_WHOLE_GRID_CHECKS``; for any
#: other key, its value; for a tuple of keys, the tuple of their values
_CHECKS = {
    "scissor": [
        (scissor._check_gain, "g"),
        (scissor._check_amplitudes, "input_coeffs"),
        (scissor._check_herald_weight, "input_coeffs", "g"),
    ],
    "gain-sweep": [
        (scissor._check_transmission, "tau"),
        (scissor._check_gain, "g"),
        (scissor._check_mixture_heralds, "tau", "g"),
    ],
    "fringes": [
        (analysis._check_split, "sigma"),
        (scissor._check_gain, "g"),
        (analysis._check_phases, "phi"),
    ],
    "negativity": [(analysis._check_split, "sigma"), (scissor._check_gain, "g")],
    "hom": [(analysis._check_angle, "theta")],
    "sobol": [
        (_sobol_check("_check_sweep_gain"), "g"),
        (scissor._check_transmission, "tau"),
        (_sobol_check("_check_n_base"), "n_base"),
        (_sobol_check("_check_resamples"), "bootstrap"),
        (_sobol_check("_check_loss_bound"), "loss_min"),
        (_sobol_check("_check_loss_bound"), "loss_max"),
        (_sobol_check("_check_loss_range"), ("loss_min", "loss_max")),
    ],
}
_WHOLE_GRID_CHECKS = (analysis._check_phases, scissor._check_mixture_heralds)
#: the keys a ``sobol`` run's ``ValueError`` is reported on: a limit the
#: library finds only in the design values it computes.  Every one can
#: underflow to 0.0 (the smallest g and tau with losses near 1), and the
#: sweep rejects a model output with no variance
_SOBOL_JOINT_KEYS = ("g", "tau", "loss_min", "loss_max")


def _semantic_checks(experiment: str, cfg: dict, sources: dict) -> list[str]:
    """The ``ValueError`` of each library check's first failure, reported on
    the source (config line, ``--seed`` or default) of each of its arguments.

    A check is skipped once one of its keys failed to parse or failed an
    earlier check, so one bad key does not hide problems elsewhere.
    """

    def keys(arg) -> tuple:
        return arg if isinstance(arg, tuple) else (arg,)

    def values(check, arg) -> list:
        if isinstance(arg, tuple):
            return [tuple(cfg[key] for key in arg)]
        if check in _WHOLE_GRID_CHECKS or schema[arg].parse is not _parse_grid:
            return [cfg[arg]]
        return cfg[arg].tolist()

    schema = SCHEMAS[experiment]
    problems, failed = [], set()
    for check, *arguments in _CHECKS[experiment]:
        named = {key for arg in arguments for key in keys(arg)}
        if not named <= cfg.keys() or named & failed:
            continue
        for point in itertools.product(*(values(check, arg) for arg in arguments)):
            try:
                check(*point)
            except ValueError as exc:
                for arg in arguments:
                    where = ", ".join(sources[key] for key in keys(arg))
                    problems.append(f"{where}: {exc}")
                failed |= named
                break
    # the CLI's own rule, which protects only the visibility fit of the test
    # oracles (tests/oracles.py); the library scans a grid of any length
    if experiment == "fringes" and "phi" in cfg and len(cfg["phi"]) < 4:
        problems.append(f"{sources['phi']}: grid needs at least 4 points")
    return problems


# ---------------------------------------------------------------------------
# experiment execution
# ---------------------------------------------------------------------------


def _pattern_label(pattern) -> str:
    return "".join(str(int(p)) for p in pattern)


#: a step within this of -pi is a pi step that rounding put on the far side
_PI_STEP_TOLERANCE = 1e-12


def _relative_phase(amplitude: complex, reference: complex) -> float:
    """Phase of ``amplitude / reference``, nan if either is 0.

    ``np.angle`` puts a negative-real ratio at +pi or -pi by the sign of a
    last-bit imaginary part; an angle that close to -pi is read 2 pi
    higher, so every pi step has the one value +pi.
    """
    if abs(amplitude) == 0 or abs(reference) == 0:
        return float("nan")
    phase = float(np.angle(amplitude / reference))
    return phase + 2.0 * math.pi if phase < -math.pi + _PI_STEP_TOLERANCE else phase


def _run_scissor(cfg: dict) -> tuple[list[str], list]:
    kept = range(scissor._RESOURCE_PHOTONS + 1)  # the output's photon numbers
    header = [
        "g", "pattern", "success_probability", "truncation_weight",
        *(f"out_abs{k}" for k in kept), *(f"rel_phase_{k - 1}{k}" for k in kept[1:]),
    ]
    gains, patterns = cfg["g"], cfg["pattern"]
    rows = []
    for g in gains.tolist():
        for pattern in patterns:
            outcome = run_two_scissor(cfg["input_coeffs"], g, pattern)
            c = outcome.output.tolist()  # Python complex; numpy divides them differently
            rows.append([
                outcome.success_probability, outcome.truncation_weight, *map(abs, c),
                *(_relative_phase(c[k], c[k - 1]) for k in kept[1:]),
            ])
    by_pattern = np.tile(np.arange(len(patterns)), len(gains))
    labels = ([_pattern_label(p) for p in patterns], by_pattern)
    computed = np.array(rows, dtype=float).T
    return header, [np.repeat(gains, len(patterns)), labels, *computed]


def _run_gain_sweep(cfg: dict) -> tuple[list[str], list]:
    header = ["tau", "g", "G2_closed_form", "G2_simulated"]
    taus, gains, pattern = cfg["tau"], cfg["g"], cfg["pattern"][0]
    closed = two_photon_gain(taus[:, None], gains)  # rows: each g at each tau
    simulated = measured_two_photon_gain(taus[:, None], gains, pattern)
    grid = [np.repeat(taus, len(gains)), np.tile(gains, len(taus))]
    return header, [*grid, closed.ravel(), simulated.ravel()]


def _run_fringes(cfg: dict) -> tuple[list[str], list]:
    phases = cfg["phi"]  # every scan shares the one grid
    scans = [fringe_scan(cfg["sigma"], cfg["g"], p, phases) for p in cfg["pattern"]]
    labels = [_pattern_label(scan.pattern) for scan in scans]
    return ["pattern", "phi", "rate"], [
        (labels, np.repeat(np.arange(len(scans)), len(phases))),
        (phases, np.tile(np.arange(len(phases)), len(scans))),
        np.concatenate([scan.values for scan in scans]),
    ]


def _run_negativity(cfg: dict) -> tuple[list[str], list]:
    splits, gains = cfg["sigma"], cfg["g"]
    rows = [p[1:] for s in splits.tolist() for p in negativity_curve(s, gains.tolist())]
    grid = [np.repeat(splits, len(gains)), np.tile(gains, len(splits))]
    return ["sigma", "g", "EN_pre", "EN_post"], [*grid, *np.array(rows, dtype=float).T]


def _run_hom(cfg: dict) -> tuple[list[str], list]:
    coincidence = [hom_coincidence(theta) for theta in cfg["theta"].tolist()]
    return ["theta", "coincidence"], [cfg["theta"], np.array(coincidence)]


def _run_sobol(cfg: dict) -> tuple[list[str], list]:
    entries = sensitivity.sensitivity_sweep(
        cfg["g"], tau=cfg["tau"], n_base=cfg["n_base"], seed=cfg["seed"],
        bounds=(cfg["loss_min"], cfg["loss_max"]), pattern=cfg["pattern"][0],
        bootstrap_resamples=cfg["bootstrap"],
    )
    header = ["g", "variable", "region", "s1", "ci95", "evaluations"]
    points = sensitivity.LOSS_POINTS
    by_entry = np.repeat(np.arange(len(entries)), len(points))
    by_point = np.tile(np.arange(len(points)), len(entries))
    return header, [
        (cfg["g"], by_entry),
        ([point.name for point in points], by_point),
        ([point.region for point in points], by_point),
        np.concatenate([entry.result.indices for entry in entries]),
        np.concatenate([entry.result.ci for entry in entries]),
        (np.array([entry.result.evaluations for entry in entries]), by_entry),
    ]


_RUNNERS = {
    "scissor": _run_scissor, "gain-sweep": _run_gain_sweep, "fringes": _run_fringes,
    "negativity": _run_negativity, "hom": _run_hom, "sobol": _run_sobol,
}

#: rows formatted at a time: the writer holds one block of cells and the block
#: joined into one string, about 0.2 MiB at three numeric columns
_BLOCK_ROWS = 1024


def _csv_cell(label, width: int) -> str:
    """``label`` as ``csv`` writes it in a row of ``width`` cells (numeric
    ``repr`` cells never need quoting); ``lineterminator=""`` would leave a
    line break unquoted."""
    label = str(label)
    if not label and width > 1:
        return label
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([label])
    return buffer.getvalue()[:-1]


def _row_count(column) -> int:
    return len(column[1]) if isinstance(column, tuple) else len(column)


def _formatted(values, width: int) -> np.ndarray:
    """The cells of an indexed column's ``values``, as an object array to
    gather from: numbers (an array) by ``repr`` of their Python items, never
    of numpy scalars, ``_BLOCK_ROWS`` values at a time; labels by
    ``_csv_cell``."""
    if not isinstance(values, np.ndarray):
        return np.array([_csv_cell(value, width) for value in values], dtype=object)
    cells = np.empty(len(values), dtype=object)
    for start in range(0, len(values), _BLOCK_ROWS):
        block = slice(start, start + _BLOCK_ROWS)
        cells[block] = list(map(repr, values[block].tolist()))
    return cells


def write_results(out_dir: Path, experiment: str, header, columns, cfg, config_text):
    """Write ``<experiment>.csv`` and ``.meta.json``, both or neither: each is
    staged under a temporary name and renamed once both are whole.

    A column is a float or int array, or an indexed pair ``(values, index)``
    whose row i holds ``values[index[i]]``: ``values`` is a numeric array or
    a list of labels, ``index`` an int array.  Each of an indexed column's
    ``values`` is formatted once per call; every other column is formatted
    ``_BLOCK_ROWS`` rows at a time.  Each block is written with one call, as
    one string: each row's cells joined by commas, each row ended by a line
    break."""
    rows = _row_count(columns[0])
    formatted = [
        _formatted(column[0], len(columns)) if isinstance(column, tuple) else None
        for column in columns
    ]
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / f"{experiment}{suffix}" for suffix in (".csv", ".meta.json")]
    staged = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in paths]
    placed = []
    try:
        with open(staged[0], "w", newline="\n") as fh:
            csv.writer(fh, lineterminator="\n").writerow(header)
            for start in range(0, rows, _BLOCK_ROWS):
                block = slice(start, start + _BLOCK_ROWS)
                # a generator, so no block's cells outlive its rows
                cells = (
                    map(repr, column[block].tolist())
                    if strings is None
                    else strings.take(column[1][block])
                    for column, strings in zip(columns, formatted)
                )
                fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
        meta = {
            "schema_version": SCHEMA_VERSION,
            "package_version": __version__,
            "experiment": experiment,
            "columns": list(header),
            "rows": rows,
            "resolved_config": _jsonable(cfg),
            "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
        }
        with open(staged[1], "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for temporary, path in zip(staged, paths):
            os.replace(temporary, path)
            placed.append(path)
    except BaseException:
        for path in staged + placed:
            with contextlib.suppress(OSError):
                os.unlink(path)
        raise
    return tuple(paths)


def _jsonable(value):
    if isinstance(value, _Grid):
        return value.rule
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


_HELP = f"""\
usage: qscissor <experiment|validate> --config PATH [--out DIR] [--seed N]

Run heralded-amplifier experiments from a config file.

  experiment     one of {', '.join(EXPERIMENTS)}, or 'validate'
  --config PATH  path to the config file
  --out DIR      output directory (default: current directory)
  --seed N       RNG seed override, written as the config's seed key
  -h, --help     show this help and exit
"""


class _Args(NamedTuple):
    command: str
    config: str
    out: str
    seed: int | None


def _read_argv(argv: list[str]) -> _Args | None:
    """The command and options of ``argv``, or None if it asks for help.

    The options may come in any order, before or after the command, each as
    ``--name value`` or ``--name=value``; a value given apart may not start
    with ``--``, and an option given twice keeps its last value.  Only the
    full option names are read.  The first problem raises a ``ConfigError``
    whose one message names the argument at fault; an unknown command is
    the last one checked.
    """
    command, options = None, {"--config": None, "--out": ".", "--seed": None}
    rest = iter(argv)
    for arg in rest:
        if not arg.startswith("-"):
            if command is not None:
                raise ConfigError(f"{arg}: unexpected argument after {command!r}")
            command = arg
            continue
        name, has_value, value = arg.partition("=")
        if name in ("-h", "--help"):
            return None
        if name not in options:
            valid = ", ".join(options)
            raise ConfigError(f"{name}: unknown option (valid: {valid}, -h, --help)")
        if not has_value:
            value = next(rest, None)
            if value is None or value.startswith("--"):
                raise ConfigError(f"{name}: expected a value")
        options[name] = value
    if command is None:
        raise ConfigError(
            f"experiment: missing (one of {', '.join(EXPERIMENTS)}, or 'validate')"
        )
    if not options["--config"]:
        why = "missing" if options["--config"] is None else "empty"
        raise ConfigError(f"--config: {why} (the path to the config file)")
    seed = options["--seed"]
    if seed is not None:
        try:
            seed = _parse_int(seed)
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from None
    if command != "validate" and command not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {command!r}; "
            f"valid names: {', '.join(EXPERIMENTS)}, validate"
        )
    return _Args(command, options["--config"], options["--out"], seed)


def _load_entries(path: str) -> tuple[dict, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except UnicodeDecodeError as exc:
        line = len(exc.object[: exc.start + 1].splitlines())  # read_text's lines
        raise ConfigError(f"line {line}: config {path} is not UTF-8 text: {exc.reason}")
    # drop a BOM here: "utf-8-sig" would read a file of b"\xef\xbb" as empty
    text = text.removeprefix("\ufeff")
    return parse_config_text(text), text


def _experiment_from(args: _Args, entries) -> str:
    if args.command != "validate":
        return args.command
    declared = entries.get("experiment")
    if declared is None:
        raise ConfigError(
            "validate needs an 'experiment' key in the config "
            f"(one of {', '.join(EXPERIMENTS)})"
        )
    return declared[0]


def main(argv=None) -> int:
    """Run the command line ``argv`` (default ``sys.argv[1:]``); return its
    exit code.

    The cyclic garbage collector is paused for the run and left as it was
    found: a run leaves almost no cyclic garbage, but a collection that the
    counts left by the import happen to trigger inside it can cost a large
    share of a short run.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(sys.argv[1:] if argv is None else argv)
    finally:
        if enabled:
            gc.enable()


def _main(argv: list[str]) -> int:
    try:
        args = _read_argv(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args is None:
        print(_HELP, end="")
        return 0

    try:
        entries, config_text = _load_entries(args.config)
        experiment = _experiment_from(args, entries)
        cfg = resolve_config(experiment, entries, args.seed)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2

    # resolve_config already rejected a seed key in a deterministic experiment's file
    if "seed" not in SCHEMAS[experiment] and args.seed is not None:
        print(
            f"note: experiment {experiment!r} is deterministic; ignoring seed",
            file=sys.stderr,
        )

    if args.command == "validate":
        print("ok")
        for key in sorted(cfg):
            print(f"{key} = {_jsonable(cfg[key])}")
        return 0

    try:
        header, columns = _RUNNERS[experiment](cfg)
    except ValueError as exc:
        if experiment != "sobol":
            raise
        for key in _SOBOL_JOINT_KEYS:
            print(f"error: {_source(key, entries)}: {exc}", file=sys.stderr)
        return 2
    try:
        csv_path, meta_path = write_results(
            Path(args.out), experiment, header, columns, cfg, config_text
        )
    except OSError as exc:
        print(f"error: cannot write results: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {csv_path} ({_row_count(columns[0])} rows) and {meta_path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
