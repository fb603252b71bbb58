"""Batch experiment runner.

Experiments are described by a flat key = value config file (grids written
as ``start:stop:step``, lists as comma-separated values) and produce a CSV
plus a JSON sidecar holding the fully resolved configuration.  Outputs are
byte identical for identical config and seed: floats are written in
shortest round-trip form and no timestamps are recorded.

Exit codes: 0 success, 2 invalid configuration (messages carry the config
line number), 3 output I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import fringe_scan, hom_coincidence, negativity_curve
from .fock import PureState
from .scissor import (
    SUCCESS_PATTERNS,
    measured_two_photon_gain,
    run_two_scissor,
    two_photon_gain,
)
from .sensitivity import default_loss_layout, sensitivity_sweep

SCHEMA_VERSION = 1

_MAX_SEED = 2**64 - 1

#: size limits, so memory stays bounded by the work a config asks for (an
#: explicit comma list is already bounded by the length of the config text)
_MAX_GRID_POINTS = 10**6  # points of one start:stop:step grid
_MAX_N_BASE = 10**5  # a Sobol sweep holds about 1.1 KB per base sample
_MAX_BOOTSTRAP = 10**5  # resamples; the result holds 8 B per index per resample

#: value limits, well inside where the arithmetic breaks: the closed forms
#: take g^4, which overflows above g = 1.2e77, and the gain model squares
#: tau, which turns subnormal below tau = 1.5e-154
_MAX_GAIN = 1e6
_MIN_TAU = 1e-100
#: smallest nonzero gain: the heralded two-photon weight goes as g^4 tau^2,
#: and (1e-25)^4 (1e-100)^2 = 1e-300 stays a normal float at the smallest tau
_MIN_GAIN = 1e-25

EXPERIMENTS = ("scissor", "gain-sweep", "fringes", "negativity", "hom", "sobol")

#: experiments whose outputs involve random sampling and need a seed
STOCHASTIC_EXPERIMENTS = ("sobol",)


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
    """Parse flat ``key = value`` lines into {key: (raw value, line number)}."""
    entries: dict[str, tuple[str, int]] = {}
    problems = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
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


def _parse_grid(raw: str) -> list[float]:
    """Grid syntax: 'start:stop:step' (inclusive ends) or 'a, b, c'."""
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
        count = int(math.floor(span + 1e-9)) + 1
        return [start + i * step for i in range(count)]
    return [_parse_float(p.strip()) for p in raw.split(",") if p.strip()]


def _parse_pattern(raw: str):
    raw = raw.strip().lower()
    if raw == "all":
        return list(SUCCESS_PATTERNS)
    cleaned = raw.replace(",", "").replace(" ", "").replace("(", "").replace(")", "")
    if len(cleaned) == 3 and set(cleaned) <= {"0", "1"}:
        pattern = tuple(int(c) for c in cleaned)
        if pattern in SUCCESS_PATTERNS:
            return [pattern]
    valid = ", ".join("".join(map(str, p)) for p in SUCCESS_PATTERNS)
    raise ValueError(f"{raw!r} is not a herald pattern (one of {valid}, or 'all')")


@dataclass
class Field:
    parse: object
    default: str | None  # raw default value, None = required
    doc: str


_PHI_DEFAULT = "0:6.283185307179586:0.06283185307179587"
_GAIN_RANGE = f"0 or [{_MIN_GAIN:g}, {_MAX_GAIN:g}]"

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
        "tau": Field(_parse_grid, "0.05, 0.1", "channel transmissions in [1e-100, 1]"),
        "g": Field(_parse_grid, "0:6:0.25", f"gain grid, each {_GAIN_RANGE}"),
        "pattern": Field(_parse_pattern, "110", "herald pattern"),
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
            _parse_grid, "1, 2, 3", f"gain values in [{_MIN_GAIN:g}, {_MAX_GAIN:g}]"
        ),
        "tau": Field(_parse_float, "0.05", "channel transmission in [1e-100, 1]"),
        "n_base": Field(_parse_int, "3840", "base sample count, >= 2"),
        "seed": Field(_parse_seed, None, "RNG seed (required; may come from --seed)"),
        "loss_min": Field(_parse_float, "0", "lower loss-sampling bound"),
        "loss_max": Field(_parse_float, "0.5", "upper loss-sampling bound"),
        "pattern": Field(_parse_pattern, "110", "herald pattern"),
        "bootstrap": Field(_parse_int, "1000", "bootstrap resamples, >= 2"),
    },
}


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
            raw, lineno = entries[key]
            given.append((raw, f"line {lineno}: {key}"))
        if key == "seed" and seed is not None:
            given.append((str(seed), "--seed"))  # command line wins over the file
        if not given:
            if field.default is None:
                problems.append(f"missing required key {key!r} ({field.doc})")
                continue
            given.append((field.default, f"default for {key}"))
        for raw, where in given:
            try:
                resolved[key] = field.parse(raw)
                sources[key] = where
            except ValueError as exc:
                problems.append(f"{where}: {exc}")

    # semantic checks run on whatever parsed, so one bad key does not hide
    # range violations elsewhere
    problems.extend(_semantic_checks(experiment, resolved, sources))
    if problems:
        raise ConfigError(problems)
    resolved["experiment"] = experiment
    return resolved


def _semantic_checks(experiment: str, cfg: dict, sources: dict) -> list[str]:
    """Range checks over whatever keys parsed successfully.

    ``sources`` maps each parsed key to where its value came from (its
    config line, ``--seed`` or the default); a problem with one key's value
    is reported there.
    """
    problems = []

    def problem(key, message):
        problems.append(f"{sources[key]}: {message}")

    def values(key) -> list:
        return cfg[key] if isinstance(cfg[key], list) else [cfg[key]]

    def check_range(key, lo, hi, open_lo=False, open_hi=False) -> bool:
        """Report the first value of ``key`` outside the range; True if any."""
        for v in values(key):
            if (v <= lo if open_lo else v < lo) or (v >= hi if open_hi else v > hi):
                left = "(" if open_lo else "["
                right = ")" if open_hi else "]"
                problem(key, f"{v} outside {left}{lo}, {hi}{right}")
                return True
        return False

    # g = 0 makes the sobol model identically 0, so its variance vanishes
    if "g" in cfg and not check_range(
        "g", 0.0, _MAX_GAIN, open_lo=experiment == "sobol"
    ):
        tiny = [v for v in values("g") if 0.0 < v < _MIN_GAIN]
        if tiny:
            problem("g", f"{tiny[0]} is below the smallest nonzero gain {_MIN_GAIN}")
    if "tau" in cfg and experiment in ("gain-sweep", "sobol"):
        if not check_range("tau", 0.0, 1.0, open_lo=True):
            check_range("tau", _MIN_TAU, 1.0)
    if experiment == "gain-sweep":
        if 0.0 in cfg.get("g", ()) and 1.0 in cfg.get("tau", ()):
            problem("g", "g = 0 keeps only the vacuum, which tau = 1 never holds")
    if "sigma" in cfg:
        check_range("sigma", 0.0, 1.0, open_lo=True, open_hi=True)
    if experiment == "fringes" and "phi" in cfg and len(cfg["phi"]) < 4:
        problem("phi", "grid needs at least 4 points")
    if experiment == "scissor" and "input_coeffs" in cfg:
        coeffs = cfg["input_coeffs"]
        if not 1 <= len(coeffs) <= 5:
            problem("input_coeffs", f"needs 1..5 entries, got {len(coeffs)}")
        elif not any(abs(c) > 0 for c in coeffs):
            problem("input_coeffs", "must not all be zero")
        elif not any(abs(c) > 0 for c in coeffs[:3]):
            problem("input_coeffs", "c0, c1, c2 are all zero: nothing can be heralded")
        elif coeffs[0] == 0 and 0.0 in cfg.get("g", ()):
            problem("g", "g = 0 keeps only c0, which input_coeffs sets to zero")
    if experiment in ("gain-sweep", "sobol") and len(cfg.get("pattern", ())) > 1:
        problem(
            "pattern",
            f"{experiment} takes one herald pattern, got {len(cfg['pattern'])}",
        )
    if experiment == "sobol":
        if cfg.get("n_base", 2) < 2:
            problem("n_base", f"{cfg['n_base']} is below 2")
        if cfg.get("n_base", 2) > _MAX_N_BASE:
            problem("n_base", f"{cfg['n_base']} is above the limit {_MAX_N_BASE}")
        if cfg.get("bootstrap", 2) < 2:
            problem("bootstrap", f"{cfg['bootstrap']} is below 2")
        if cfg.get("bootstrap", 2) > _MAX_BOOTSTRAP:
            problem(
                "bootstrap", f"{cfg['bootstrap']} is above the limit {_MAX_BOOTSTRAP}"
            )
        lo, hi = cfg.get("loss_min", 0.0), cfg.get("loss_max", 0.5)
        if not hi > lo:
            problems.append(f"loss range [{lo}, {hi}] is empty")
        if not (0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0):
            problems.append("loss bounds must lie in [0, 1]")
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


def _run_scissor(cfg: dict) -> tuple[list[str], list[list]]:
    coeffs = cfg["input_coeffs"]
    state = PureState(
        1, {(k,): c for k, c in enumerate(coeffs)}, cutoff=max(2, len(coeffs) - 1)
    ).normalized()
    header = [
        "g", "pattern", "success_probability", "truncation_weight",
        "out_abs0", "out_abs1", "out_abs2", "rel_phase_01", "rel_phase_12",
    ]
    rows = []
    for g in cfg["g"]:
        for pattern in cfg["pattern"]:
            outcome = run_two_scissor(state, g, pattern)
            out = outcome.output.components[0][1]
            c = [out.amplitude((k,)) for k in range(3)]
            rows.append(
                [
                    g, _pattern_label(pattern), outcome.success_probability,
                    outcome.truncation_weight,
                    abs(c[0]), abs(c[1]), abs(c[2]),
                    _relative_phase(c[1], c[0]), _relative_phase(c[2], c[1]),
                ]
            )
    return header, rows


def _run_gain_sweep(cfg: dict) -> tuple[list[str], list[list]]:
    header = ["tau", "g", "G2_closed_form", "G2_simulated"]
    pattern = cfg["pattern"][0]
    rows = []
    for tau in cfg["tau"]:
        for g in cfg["g"]:
            closed = two_photon_gain(tau, g)
            simulated = measured_two_photon_gain(tau, g, pattern)
            rows.append([tau, g, closed, simulated])
    return header, rows


def _run_fringes(cfg: dict) -> tuple[list[str], list[list]]:
    header = ["pattern", "phi", "rate"]
    rows = []
    for pattern in cfg["pattern"]:
        scan = fringe_scan(cfg["sigma"], cfg["g"], pattern, cfg["phi"])
        label = _pattern_label(pattern)
        rows.extend([label, phi, rate] for phi, rate in zip(scan.phases, scan.values))
    return header, rows


def _run_negativity(cfg: dict) -> tuple[list[str], list[list]]:
    header = ["sigma", "g", "EN_pre", "EN_post"]
    rows = []
    for sigma in cfg["sigma"]:
        for g, pre, post in negativity_curve(sigma, cfg["g"]):
            rows.append([sigma, g, pre, post])
    return header, rows


def _run_hom(cfg: dict) -> tuple[list[str], list[list]]:
    return ["theta", "coincidence"], [
        [theta, hom_coincidence(theta)] for theta in cfg["theta"]
    ]


def _run_sobol(cfg: dict) -> tuple[list[str], list[list]]:
    layout, entries = sensitivity_sweep(
        cfg["g"],
        tau=cfg["tau"],
        n_base=cfg["n_base"],
        seed=cfg["seed"],
        bounds=(cfg["loss_min"], cfg["loss_max"]),
        pattern=cfg["pattern"][0],
        bootstrap_resamples=cfg["bootstrap"],
    )
    header = ["g", "variable", "region", "s1", "ci95", "evaluations"]
    rows = []
    for entry in entries:
        for point, s, ci in zip(layout.points, entry.result.indices, entry.result.ci):
            rows.append(
                [entry.g, point.name, point.region, float(s), float(ci),
                 entry.result.evaluations]
            )
    return header, rows


_RUNNERS = {
    "scissor": _run_scissor,
    "gain-sweep": _run_gain_sweep,
    "fringes": _run_fringes,
    "negativity": _run_negativity,
    "hom": _run_hom,
    "sobol": _run_sobol,
}


def _format_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))  # shortest round-trip decimal form
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_results(out_dir: Path, experiment: str, header, rows, cfg, config_text):
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{experiment}.csv"
    with open(csv_path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])
    meta = {
        "schema_version": SCHEMA_VERSION,
        "package_version": __version__,
        "experiment": experiment,
        "columns": list(header),
        "rows": len(rows),
        "resolved_config": _jsonable(cfg),
        "config_sha256": hashlib.sha256(config_text.encode()).hexdigest(),
    }
    meta_path = out_dir / f"{experiment}.meta.json"
    with open(meta_path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, meta_path


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qscissor",
        description="Run heralded-amplifier experiments from a config file.",
    )
    parser.add_argument(
        "command",
        metavar="experiment",
        help=f"one of {', '.join(EXPERIMENTS)}, or 'validate'",
    )
    parser.add_argument("--config", required=True, help="path to the config file")
    parser.add_argument(
        "--out", default=".", help="output directory (default: current directory)"
    )
    parser.add_argument("--seed", type=int, default=None, help="RNG seed override")
    return parser


def _load_entries(path: str) -> tuple[dict, str]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return parse_config_text(text), text


def _experiment_from(args, entries) -> str:
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
    args = _build_parser().parse_args(argv)
    if args.command != "validate" and args.command not in EXPERIMENTS:
        print(
            f"error: unknown experiment {args.command!r}; "
            f"valid names: {', '.join(EXPERIMENTS)}, validate",
            file=sys.stderr,
        )
        return 2

    try:
        entries, config_text = _load_entries(args.config)
        experiment = _experiment_from(args, entries)
        cfg = resolve_config(experiment, entries, args.seed)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2

    if experiment not in STOCHASTIC_EXPERIMENTS and (
        args.seed is not None or "seed" in entries
    ):
        print(
            f"note: experiment {experiment!r} is deterministic; ignoring seed",
            file=sys.stderr,
        )

    if args.command == "validate":
        print("ok")
        for key in sorted(cfg):
            print(f"{key} = {_jsonable(cfg[key])}")
        return 0

    header, rows = _RUNNERS[experiment](cfg)
    try:
        csv_path, meta_path = write_results(
            Path(args.out), experiment, header, rows, cfg, config_text
        )
    except OSError as exc:
        print(f"error: cannot write results: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {csv_path} ({len(rows)} rows) and {meta_path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
