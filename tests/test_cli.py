import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qscissor
from qscissor.cli import ConfigError, main, parse_config_text, resolve_config
from qscissor.scissor import two_photon_gain


def write_config(tmp_path, text, name="config.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------


def test_parse_config_basic():
    entries = parse_config_text("a = 1\n# comment\nb = 2:4:1  # inline\n")
    assert entries["a"] == ("1", 1)
    assert entries["b"] == ("2:4:1", 3)


def test_parse_config_reports_bad_lines():
    with pytest.raises(ConfigError) as err:
        parse_config_text("a = 1\nnot a pair\na = 2\n")
    messages = "\n".join(err.value.problems)
    assert "line 2" in messages
    assert "duplicate" in messages and "line 3" in messages


def test_resolve_rejects_unknown_keys_with_line():
    entries = parse_config_text("tau = 0.05\nbogus = 1\n")
    with pytest.raises(ConfigError) as err:
        resolve_config("gain-sweep", entries, None)
    assert any("line 2" in p and "bogus" in p for p in err.value.problems)


def test_resolve_rejects_out_of_range_tau():
    entries = parse_config_text("tau = 1.2\n")
    with pytest.raises(ConfigError) as err:
        resolve_config("gain-sweep", entries, None)
    assert any("tau" in p and "(0.0, 1.0]" in p for p in err.value.problems)


def test_resolve_rejects_unknown_experiment():
    with pytest.raises(ConfigError) as err:
        resolve_config("teleport", {}, None)
    assert "valid names" in err.value.problems[0]


def test_resolve_collects_all_problems():
    entries = parse_config_text("tau = 1.2\ng = -1:2:1\nbogus = 3\n")
    with pytest.raises(ConfigError) as err:
        resolve_config("gain-sweep", entries, None)
    assert len(err.value.problems) >= 3


def test_sobol_requires_seed():
    entries = parse_config_text("n_base = 16\n")
    with pytest.raises(ConfigError) as err:
        resolve_config("sobol", entries, None)
    assert any("seed" in p for p in err.value.problems)
    cfg = resolve_config("sobol", entries, seed=7)
    assert cfg["seed"] == 7


def test_grid_expansion_inclusive():
    entries = parse_config_text("g = 0:1:0.25\ntau = 0.05\n")
    cfg = resolve_config("gain-sweep", entries, None)
    assert cfg["g"] == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])


# ---------------------------------------------------------------------------
# the validate command
# ---------------------------------------------------------------------------


def test_validate_ok_dumps_resolved_defaults(tmp_path, capsys):
    path = write_config(tmp_path, "experiment = gain-sweep\ntau = 0.1\n")
    assert main(["validate", "--config", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok")
    assert "pattern" in out and "g =" in out


def test_validate_reports_each_violation(tmp_path, capsys):
    path = write_config(
        tmp_path, "experiment = gain-sweep\ntau = 1.2\nmystery = 1\n"
    )
    assert main(["validate", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "tau" in err and "mystery" in err


def test_unknown_experiment_exit_code(tmp_path, capsys):
    path = write_config(tmp_path, "tau = 0.1\n")
    assert main(["teleport", "--config", path]) == 2
    assert "valid names" in capsys.readouterr().err


@pytest.mark.parametrize(
    "experiment,text,extra,code,message",
    [
        ("gain-sweep", "g = nan\n", [], 2, "line 1: g: 'nan' is not a finite"),
        ("fringes", "g = 1\nsigma = nan\n", [], 2, "line 2: sigma: 'nan'"),
        ("gain-sweep", "g = inf\ntau = 0.5\n", [], 2, "line 1: g: 'inf'"),
        ("gain-sweep", "g = 0:inf:1\n", [], 2, "line 1: g: 'inf'"),
        ("gain-sweep", "g = 1, -1e999\n", [], 2, "line 1: g: '-1e999'"),
        ("sobol", "n_base = 16\n", ["--seed", "-1"], 2, "--seed: -1 outside"),
        ("sobol", "seed = 3\n", ["--seed", "-1"], 2, "--seed: -1 outside"),
        ("sobol", "seed = -1\n", [], 2, "line 1: seed: -1 outside"),
        ("sobol", f"seed = {2**64}\n", [], 2, f"line 1: seed: {2**64} outside"),
        ("validate", f"experiment = sobol\nseed = {2**64 - 1}\n", [], 0, ""),
        # runners that take one herald pattern reject several
        ("gain-sweep", "pattern = all\n", [], 2,
         "line 1: pattern: gain-sweep takes one herald pattern, got 3"),
        ("sobol", "seed = 1\npattern = all\n", [], 2,
         "line 2: pattern: sobol takes one herald pattern, got 3"),
        # size limits: the oversized grids are rejected before they are built
        ("gain-sweep", "g = 0:1:1e-12\n", [], 2,
         "line 1: g: grid has more than 1000000 points"),
        ("hom", "theta = 0:1e308:1e-308\n", [], 2,
         "line 1: theta: grid has more than 1000000 points"),
        ("sobol", "seed = 1\nn_base = 100001\n", [], 2,
         "line 2: n_base: 100001 is above the limit 100000"),
        ("validate", "experiment = sobol\nseed = 1\nn_base = 100000\n", [], 0, ""),
        ("sobol", "g = 1\nn_base = 2\nseed = 1\nbootstrap = 1000000000000000\n", [],
         2, "line 4: bootstrap: 1000000000000000 is above the limit 100000"),
        # value limits: g^4 overflows, tau^2 turns subnormal or vanishes
        ("gain-sweep", "g = 1e100\n", [], 2,
         "line 1: g: 1e+100 outside [0.0, 1000000.0]"),
        ("negativity", "g = 1e200\n", [], 2,
         "line 1: g: 1e+200 outside [0.0, 1000000.0]"),
        ("gain-sweep", "tau = 1e-200\n", [], 2,
         "line 1: tau: 1e-200 outside [1e-100, 1.0]"),
        ("gain-sweep", "tau = 1e-160\ng = 6\n", [], 2,
         "line 1: tau: 1e-160 outside [1e-100, 1.0]"),
        ("sobol", "seed = 1\ntau = 1e-200\n", [], 2,
         "line 2: tau: 1e-200 outside [1e-100, 1.0]"),
        ("validate", "experiment = gain-sweep\ng = 1e6\ntau = 1e-100\n", [], 0, ""),
        ("validate", "experiment = sobol\nseed = 1\ng = 1e6\ntau = 1e-100\n", [],
         0, ""),
        # configurations whose herald, or whose sobol model, is identically zero
        ("sobol", "seed = 1\ng = 0\n", [], 2,
         "line 2: g: 0.0 outside (0.0, 1000000.0]"),
        ("gain-sweep", "tau = 1\ng = 0, 1\n", [], 2,
         "line 2: g: g = 0 keeps only the vacuum, which tau = 1 never holds"),
        ("scissor", "input_coeffs = 0, 0, 1\ng = 0, 1\n", [], 2,
         "line 2: g: g = 0 keeps only c0, which input_coeffs sets to zero"),
        ("scissor", "input_coeffs = 0, 0, 0, 1\n", [], 2,
         "line 1: input_coeffs: c0, c1, c2 are all zero: nothing can be heralded"),
        # g^4 tau^2 must stay a normal float: nonzero g has a lower bound
        ("sobol", "seed = 1\ng = 1e-300\n", [], 2,
         "line 2: g: 1e-300 is below the smallest nonzero gain 1e-25"),
        ("gain-sweep", "g = 0, 1e-300\n", [], 2,
         "line 1: g: 1e-300 is below the smallest nonzero gain 1e-25"),
        ("scissor", "g = 1e-300\n", [], 2,
         "line 1: g: 1e-300 is below the smallest nonzero gain 1e-25"),
    ],
)
def test_non_finite_values_and_bad_seeds_exit_2(
    tmp_path, capsys, experiment, text, extra, code, message
):
    path = write_config(tmp_path, text)
    argv = [experiment, "--config", path, "--out", str(tmp_path), *extra]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert message in err
    assert not list(tmp_path.glob("*.csv"))


def test_missing_config_file(tmp_path, capsys):
    assert main(["hom", "--config", str(tmp_path / "nope.txt")]) == 2
    assert "cannot read" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# experiment runs
# ---------------------------------------------------------------------------


def test_gain_sweep_outputs_match_closed_form(tmp_path):
    path = write_config(tmp_path, "tau = 0.05\ng = 1:3:1\n")
    assert main(["gain-sweep", "--config", path, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "gain-sweep.csv")
    assert rows[0] == ["tau", "g", "G2_closed_form", "G2_simulated"]
    for tau, g, closed, simulated in rows[1:]:
        expected = two_photon_gain(float(tau), float(g))
        assert float(closed) == pytest.approx(expected, rel=1e-12)
        assert float(simulated) == pytest.approx(expected, rel=1e-9)
    meta = json.loads((tmp_path / "gain-sweep.meta.json").read_text())
    assert meta["schema_version"] == 1
    assert meta["resolved_config"]["tau"] == [0.05]


def test_fringes_offsets_step_by_two_thirds(tmp_path):
    path = write_config(
        tmp_path,
        "sigma = 0.1\ng = 3\npattern = all\nphi = 0:6.3:0.1\n",
    )
    assert main(["fringes", "--config", path, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "fringes.csv")
    assert rows[0] == ["pattern", "phi", "rate"]
    by_pattern = {}
    for pattern, phi, rate in rows[1:]:
        by_pattern.setdefault(pattern, []).append((float(phi), float(rate)))
    assert set(by_pattern) == {"110", "101", "011"}
    # recover each fringe's phase offset and check the 2pi/3 spacing
    offsets = {}
    for pattern, data in by_pattern.items():
        phi = np.array([p for p, _ in data])
        rate = np.array([r for _, r in data])
        design = np.column_stack([np.ones_like(phi), np.cos(2 * phi), np.sin(2 * phi)])
        _, a, b = np.linalg.lstsq(design, rate, rcond=None)[0]
        offsets[pattern] = np.arctan2(-b, a)
    d1 = (offsets["101"] - offsets["110"]) % (2 * np.pi)
    d2 = (offsets["011"] - offsets["101"]) % (2 * np.pi)
    assert min(abs(d1 - 2 * np.pi / 3), abs(d1 - 4 * np.pi / 3)) < 1e-6
    assert min(abs(d2 - 2 * np.pi / 3), abs(d2 - 4 * np.pi / 3)) < 1e-6


def test_hom_and_negativity_run(tmp_path):
    path = write_config(tmp_path, "theta = 0:1.6:0.2\n")
    assert main(["hom", "--config", path, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "hom.csv")
    assert rows[0] == ["theta", "coincidence"]
    assert float(rows[1][1]) == pytest.approx(1.0)

    path = write_config(tmp_path, "sigma = 0.2\ng = 1:3:0.5\n", name="neg.txt")
    assert main(["negativity", "--config", path, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "negativity.csv")
    assert rows[0] == ["sigma", "g", "EN_pre", "EN_post"]
    # the pre-amplification negativity is constant along the curve
    pre = {row[2] for row in rows[1:]}
    assert len(pre) == 1


def test_scissor_experiment_reports_gain_ratios(tmp_path):
    path = write_config(
        tmp_path, "g = 2\npattern = 110\ninput_coeffs = 1, 1, 1\n"
    )
    assert main(["scissor", "--config", path, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "scissor.csv")
    header, row = rows[0], rows[1]
    record = dict(zip(header, row))
    assert float(record["out_abs1"]) / float(record["out_abs0"]) == pytest.approx(2.0)
    assert float(record["out_abs2"]) / float(record["out_abs0"]) == pytest.approx(4.0)
    assert float(record["truncation_weight"]) == 0.0


def test_scissor_keeps_tiny_heralded_amplitudes(tmp_path):
    # c0 = 1e-14 is the only heraldable amplitude: about 5e-17 after the herald
    path = write_config(tmp_path, "input_coeffs = 1e-14, 0, 0, 1\ng = 10\n")
    assert main(["scissor", "--config", path, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "scissor.csv")
    assert len(rows) == 1 + 3
    expected = (2.0 / 9.0) / (1.0 + 10.0**2) ** 2 * 1e-28
    for row in rows[1:]:
        record = dict(zip(rows[0], row))
        assert float(record["success_probability"]) == pytest.approx(
            expected, rel=1e-12, abs=0.0
        )
        assert float(record["out_abs0"]) == pytest.approx(1.0, rel=1e-12)


def test_scissor_pi_steps_read_plus_pi(tmp_path):
    # amplitude ratios -0.2727+6.4e-17j and -0.5556-1.1e-16j: both pi steps,
    # on either side of the branch cut of np.angle
    path = write_config(
        tmp_path, "input_coeffs = 0.66, -0.18, 0.1, 0\npattern = 110\ng = 1\n"
    )
    assert main(["scissor", "--config", path, "--out", str(tmp_path)]) == 0
    (row,) = read_csv(tmp_path / "scissor.csv")[1:]
    assert row[7:] == [repr(math.pi), repr(math.pi)]

    path = write_config(
        tmp_path,
        "input_coeffs = 0.3, -0.5, -0.4, 0.1\npattern = all\ng = 0.1:6:0.1\n",
        "grid.txt",
    )
    out = tmp_path / "grid"
    assert main(["scissor", "--config", path, "--out", str(out)]) == 0
    rows = read_csv(out / "scissor.csv")[1:]
    assert len(rows) == 60 * 3
    pi_cells = [cell for row in rows for cell in row[7:] if abs(float(cell)) > 3.0]
    # the 110 rows' c1/c0 step, one per gain; 101 and 011 add 2pi/3 or 4pi/3
    assert len(pi_cells) == 60
    assert set(pi_cells) == {repr(math.pi)}


def test_smallest_nonzero_gain_runs(tmp_path):
    path = write_config(tmp_path, "g = 1e-25\ntau = 1e-100\n")
    assert main(["gain-sweep", "--config", path, "--out", str(tmp_path)]) == 0
    (_, _, closed, simulated), = read_csv(tmp_path / "gain-sweep.csv")[1:]
    assert float(simulated) == pytest.approx(float(closed), rel=1e-9, abs=0.0)

    path = write_config(
        tmp_path, "g = 1e-25\nn_base = 16\nseed = 1\nbootstrap = 10\n", "s.txt"
    )
    assert main(["sobol", "--config", path, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "sobol.csv")[1:]
    assert len(rows) == 14
    assert all(math.isfinite(float(row[3])) for row in rows)


def test_sobol_experiment_counts_and_columns(tmp_path):
    path = write_config(
        tmp_path,
        "g = 2\nn_base = 64\nseed = 5\nbootstrap = 50\n",
    )
    assert main(["sobol", "--config", path, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "sobol.csv")
    assert rows[0] == ["g", "variable", "region", "s1", "ci95", "evaluations"]
    assert len(rows) == 1 + 14
    assert all(row[5] == str(64 * 16) for row in rows[1:])


def test_seed_warning_for_deterministic_experiment(tmp_path, capsys):
    path = write_config(tmp_path, "theta = 0:1.6:0.4\n")
    assert main(["hom", "--config", path, "--out", str(tmp_path), "--seed", "3"]) == 0
    assert "deterministic" in capsys.readouterr().err


def test_byte_identical_reruns(tmp_path):
    config = "g = 1, 2\nn_base = 32\nseed = 11\nbootstrap = 25\n"
    path = write_config(tmp_path, config)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["sobol", "--config", path, "--out", str(out_a)]) == 0
    assert main(["sobol", "--config", path, "--out", str(out_b)]) == 0
    assert (out_a / "sobol.csv").read_bytes() == (out_b / "sobol.csv").read_bytes()
    assert (out_a / "sobol.meta.json").read_bytes() == (
        out_b / "sobol.meta.json"
    ).read_bytes()


def test_console_module_entry_point(tmp_path):
    path = write_config(tmp_path, "theta = 0:1.6:0.4\n")
    # the child imports the package this test imported, installed or not
    source = str(Path(qscissor.__file__).parents[1])
    paths = [source, *filter(None, [os.environ.get("PYTHONPATH")])]
    result = subprocess.run(
        [sys.executable, "-m", "qscissor", "hom", "--config", path,
         "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "hom.csv").exists()
