import csv
import functools
import hashlib
import json
import lzma
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import qscissor
from oracles import expand_columns, write_rows
from qscissor import cli, fock, scissor, sensitivity
from qscissor.cli import ConfigError, main, parse_config_text, resolve_config
from qscissor.scissor import two_photon_gain

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def write_config(tmp_path, text, name="config.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run_module(tmp_path, *args, timeout=None):
    """``python -m qscissor *args --out tmp_path`` in a child that imports the
    package this test imported, installed or not, killed after ``timeout`` s."""
    source = str(Path(qscissor.__file__).parents[1])
    paths = [source, *filter(None, [os.environ.get("PYTHONPATH")])]
    return subprocess.run(
        [sys.executable, "-m", "qscissor", *args, "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
        timeout=timeout,
    )


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
    # the meta's resolved_config record: a start:stop:step grid as its rule
    lines = out.splitlines()
    assert "g = {'points': 25, 'start': 0.0, 'step': 0.25, 'stop': 6.0}" in lines
    assert "tau = [0.1]" in lines


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


#: a sobol config whose values each pass their own check, yet the smallest g
#: and tau with losses near 1 take every design value below the smallest float
JOINT_UNDERFLOW = (
    "seed = 1\ng = 1e-25\ntau = 1e-100\nloss_min = 0.99\nloss_max = 0.9999\n"
    "n_base = 16\nbootstrap = 2\n"
)


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
        # a comma list with no values is an empty grid, not a header-only run
        ("sobol", "seed = 1\ng = ,\n", [], 2, "line 2: g: grid ',' holds no values"),
        # the heralded weight of c0..c2, or the input's own norm, would underflow
        ("scissor", "input_coeffs = 0, 0, 1e-200, 1\ng = 1\n", [], 2,
         "line 1: input_coeffs: c0, c1, c2 too small to herald at g = 1.0"),
        ("scissor", "input_coeffs = 1e-170, 0, 0, 1\ng = 1\n", [], 2,
         "line 1: input_coeffs: c0, c1, c2 too small to herald at g = 1.0"),
        ("scissor", "input_coeffs = 1e-200, 1, 1\ng = 0, 1\n", [], 2,
         "line 1: input_coeffs: c0, c1, c2 too small to herald at g = 0.0"),
        ("scissor", "input_coeffs = 1e-150, 0, 0, 1\ng = 1e6\n", [], 2,
         "line 1: input_coeffs: c0, c1, c2 too small to herald at g = 1000000.0"),
        ("scissor", "input_coeffs = 1e-200\n", [], 2,
         "line 1: input_coeffs: max |c| = 1e-200 outside [1e-150, 1e+150]"),
        ("scissor", "input_coeffs = 1e200, 1e200\n", [], 2,
         "line 1: input_coeffs: max |c| = 1e+200 outside [1e-150, 1e+150]"),
        # a loss range names both of its lines, a bound only its own
        ("sobol", "seed = 1\nloss_min = 0.6\n", [], 2,
         "line 2: loss_min, default for loss_max: loss range [0.6, 0.5] is empty"),
        ("sobol", "seed = 1\nloss_max = 2\n", [], 2,
         "line 2: loss_max: 2.0 outside [0.0, 1.0]"),
        # every transmission 1 - loss rounds to 1.0: the model has no variance
        ("sobol", "seed = 3\nloss_max = 1e-17\n", [], 2,
         "default for loss_min, line 2: loss_max: loss range [0.0, 1e-17] is too "
         "narrow: every transmission 1 - loss rounds to 1.0"),
        ("sobol", "seed = 3\nloss_min = 0\nloss_max = 1e-300\n", [], 2,
         "line 2: loss_min, line 3: loss_max: loss range [0.0, 1e-300] is too narrow"),
        ("validate", "experiment = sobol\nseed = 3\nloss_max = 1e-16\n", [], 0, ""),
        # uniform's largest draw, lo + (hi - lo)(1 - 2^-53), rounds to loss 1:
        # a zero transmission that the amplifier-off ratio divides by
        ("sobol", "seed = 3\nloss_min = 0.9999999999999999\nloss_max = 1\n", [], 2,
         "line 2: loss_min, line 3: loss_max: loss range [0.9999999999999999, 1.0] "
         "reaches loss 1: a draw can round to loss 1.0, a zero transmission"),
        ("sobol", "seed = 3\nloss_min = 0.5\nloss_max = 1\n", [], 2,
         "line 2: loss_min, line 3: loss_max: loss range [0.5, 1.0] reaches loss 1"),
        ("validate", "experiment = sobol\nseed = 3\nloss_min = 0\nloss_max = 1\n", [],
         0, ""),
        # the library's phase-grid check, reported on the phi line
        ("fringes", "sigma = 0.2\ng = 2\nphi = 1, 0, 2, 3\n", [], 2,
         "line 3: phi: phase grid must be strictly increasing"),
        ("fringes", "sigma = 0.2\ng = 2\nphi = 0, 0, 1, 2\n", [], 2,
         "line 3: phi: phase grid must be strictly increasing"),
        # twice the phase or the angle must stay finite
        ("fringes", "sigma = 0.2\ng = 2\nphi = 0, 1, 2, 1e308\n", [], 2,
         "line 3: phi: phase grid must be 1-d, each phase in [-1e+307, 1e+307]"),
        ("hom", "theta = 0, 1e308\n", [], 2,
         "line 1: theta: 1e+308 outside [-1e+307, 1e+307]"),
        # a deterministic experiment's schema has no seed key
        ("hom", "seed = 3\n", [], 2, "line 1: unknown key 'seed'"),
        # a line ends at a line feed only: a form feed is part of the value
        ("hom", "theta = 0, 1\f2\n", [], 2, r"line 1: theta: '1\x0c2' is not a number"),
        ("hom", "theta = 0, 1\f\nbogus = 1\n", [], 2, "line 2: unknown key 'bogus'"),
        # each value inside its limit, but every design value underflows to 0.0
        ("sobol", JOINT_UNDERFLOW, [], 2,
         "line 5: loss_max: model output has zero variance over the sampled inputs"),
        ("sobol", "seed = 1\ng = 1e6\ntau = 1e-100\nloss_min = 0.9999999999999998\n"
         "loss_max = 0.9999999999999999\nn_base = 16\nbootstrap = 2\n", [], 2,
         "line 2: g: model output has zero variance over the sampled inputs"),
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


def test_sobol_design_underflow_exits_2_on_its_four_lines(tmp_path, capsys):
    path = write_config(tmp_path, JOINT_UNDERFLOW)
    assert main(["sobol", "--config", path, "--out", str(tmp_path)]) == 2
    why = (
        "model output has zero variance over the sampled inputs; "
        "first-order indices are undefined"
    )
    sources = ["line 2: g", "line 3: tau", "line 4: loss_min", "line 5: loss_max"]
    assert capsys.readouterr().err == "".join(f"error: {s}: {why}\n" for s in sources)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.txt"]
    # at the default gains the same losses run
    path = write_config(tmp_path, JOINT_UNDERFLOW.replace("g = 1e-25\n", ""))
    assert main(["sobol", "--config", path, "--out", str(tmp_path)]) == 0


def test_missing_config_file(tmp_path, capsys):
    assert main(["hom", "--config", str(tmp_path / "nope.txt")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_config_that_is_not_utf8_exits_2_on_its_line(tmp_path, capsys):
    path = tmp_path / "bad.conf"
    path.write_bytes(b"g = 1\xff\n")
    result = run_module(tmp_path, "scissor", "--config", str(path))
    assert result.returncode == 2
    assert "error: line 1: " in result.stderr
    assert "Traceback" not in result.stderr
    # a truncated multi-byte character, after two CRLF line ends
    path.write_bytes(b"g = 1\r\n\r\ninput_coeffs = 1, \xe2\x88\r\n")
    assert main(["scissor", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "error: line 3: " in capsys.readouterr().err
    # lines end as the parser's do: at \r too, never at a form feed
    path.write_bytes(b"g = 1\r\x0c\rinput_coeffs = 1, \xff\n")
    assert main(["scissor", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "error: line 3: " in capsys.readouterr().err
    # a byte-order mark cut off after two bytes is no mark, and not empty text
    path.write_bytes(b"\xef\xbb")
    assert main(["scissor", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "error: line 1: " in capsys.readouterr().err


def test_a_line_separator_in_a_comment_stays_in_the_comment(tmp_path):
    path = tmp_path / "sep.conf"
    path.write_bytes("theta = 0:1.6:0.4  # step\u2028seed = 3".encode())
    assert main(["hom", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert len(read_csv(tmp_path / "hom.csv")) == 1 + 5


def test_crlf_config_hashes_as_its_lf_text(tmp_path):
    path = tmp_path / "crlf.conf"
    path.write_bytes(b"theta = 0:1.6:0.4\r\n")
    assert main(["hom", "--config", str(path), "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "hom.meta.json").read_text())
    assert meta["config_sha256"] == hashlib.sha256(b"theta = 0:1.6:0.4\n").hexdigest()


def test_byte_order_mark_is_not_part_of_the_config(tmp_path, capsys):
    text = b"experiment = hom\ntheta = 0:1.6:0.4\n"
    outputs = {}
    for name, data in [("plain", text), ("bom", b"\xef\xbb\xbf" + text)]:
        (tmp_path / f"{name}.conf").write_bytes(data)
        config = ["--config", str(tmp_path / f"{name}.conf")]
        assert main(["validate", *config]) == 0
        assert "experiment = hom\n" in capsys.readouterr().out
        assert main(["hom", *config, "--out", str(tmp_path / name)]) == 0
        outputs[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
    assert sorted(outputs["bom"]) == ["hom.csv", "hom.meta.json"]
    assert outputs["bom"] == outputs["plain"]


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
    assert meta["schema_version"] == 3
    assert meta["resolved_config"]["tau"] == [0.05]
    assert meta["resolved_config"]["g"] == {
        "points": 3, "start": 1.0, "step": 1.0, "stop": 3.0
    }


#: sha256 of the gain-sweep CSV and meta, recorded from the dict-state
#: measurement before it was computed from photon-number weights
_GAIN_SWEEP_SHA256 = {
    "": (
        "f887ac726ef4f517f514fa7bc2105234f84b555ed16afb5a1cc49f1abefcfe3d",
        "2369e78d016c1150b6767cac38101efe8a521de4b97360c331f6af0d15daa1d9",
    ),
    "tau = 1e-100, 0.05, 1\ng = 1e-25, 1, 1e6\n": (
        "6496e5d9538152385180284700c828c549140793400d9502e2c98fb4a9bf11c8",
        "cdb808d7dc1585785250c444ed1c798bddbba0cb1a7b066a201872871a0b65ff",
    ),
}


@pytest.mark.parametrize("text", list(_GAIN_SWEEP_SHA256), ids=["default", "edges"])
def test_gain_sweep_bytes_are_pinned(tmp_path, text):
    path = write_config(tmp_path, text)
    assert main(["gain-sweep", "--config", path, "--out", str(tmp_path)]) == 0
    digests = tuple(
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("gain-sweep.csv", "gain-sweep.meta.json")
    )
    assert digests == _GAIN_SWEEP_SHA256[text]


def _count_calls(monkeypatch, owner, name) -> list:
    """Count the calls of ``owner.name`` through every qscissor module that
    holds it; returns the list that grows by one per call."""
    original, calls = getattr(owner, name), []

    @functools.wraps(original)
    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    for key, module in list(sys.modules.items()):
        if key.startswith("qscissor.") and module is not None:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


#: one small run of each experiment, and the rows of its CSV with the header
_RUNS = {
    "scissor": ("", 13),
    "gain-sweep": ("", 51),
    "fringes": ("sigma = 0.2\ng = 2\n", 304),
    "negativity": ("", 424),
    "hom": ("", 202),
    "sobol": ("n_base = 64\nbootstrap = 20\nseed = 5\n", 43),
}


@pytest.mark.parametrize("experiment", list(_RUNS))
def test_experiment_builds_no_state(tmp_path, monkeypatch, experiment):
    counts = {
        "PureState": _count_calls(monkeypatch, fock.PureState, "__init__"),
        "MixedState": _count_calls(monkeypatch, fock.MixedState, "__init__"),
        "heralded_amplify": _count_calls(monkeypatch, scissor, "heralded_amplify"),
    }
    runs = _count_calls(monkeypatch, scissor, "run_two_scissor")
    text, rows = _RUNS[experiment]
    path = write_config(tmp_path, text)
    assert main([experiment, "--config", path, "--out", str(tmp_path)]) == 0
    assert len(read_csv(tmp_path / f"{experiment}.csv")) == rows
    assert {name: len(calls) for name, calls in counts.items()} == dict.fromkeys(counts, 0)
    assert len(runs) == (rows - 1 if experiment == "scissor" else 0)
    # the counters do see the dict states and the dict-state amplifier
    state = fock.PureState(1, {(1,): 1.0}, cutoff=1)
    scissor.heralded_amplify(state, 0, 1.0, (1, 1, 0))
    fock.MixedState([(1.0, state)])
    assert all(counts.values())


#: sha256 of the scissor and fringes CSV and meta, recorded from the
#: dict-state runners before they held amplitude arrays
_DICT_STATE_SHA256 = {
    ("scissor", ""): (
        "b85d9b6e164418032fd823020a5146b469bd69441e7fc46fe1a65558ee96e518",
        "a37e02284e8b98a842b859ae8e1ab706a36ddfb5f50d763984ac4fc632d844d0",
    ),
    ("scissor", "g = 0, 1e-25, 1e6\ninput_coeffs = 1e150, -3e149, 2e149, 0, 1e149\n"): (
        "a88ef328cb43145d2894e038bce0345752cc90dbdc64f9a22e66cf85630fe166",
        "060e6a6cb2d2e61422e1c17df319e8184279a3967f4abf5808d57937054a0d1a",
    ),
    ("fringes", "sigma = 0.2\ng = 2\n"): (
        "e6bdb753f5da1db8bd9b946ecbdd3304f19a05c9e22af61bfd819fe55612cc4b",
        "c2b162a4cd656507973cbb59b84c5085566ccb65e55b8c6c6e6164ff20db8ad6",
    ),
    ("fringes", "sigma = 1e-12\ng = 1e6\npattern = all\nphi = 0:3.2:0.8\n"): (
        "579fd1659f83dae6ef7c5f7f6dea88056fbc9d365df7ba1b78f8ba2192f9111e",
        "a63dd9c21a4cc28ddb259aee5c7f3446e15d1cc56cfe81f3dfa41e406c14dc01",
    ),
}


@pytest.mark.parametrize(
    "experiment, text",
    list(_DICT_STATE_SHA256),
    ids=["scissor-default", "scissor-edges", "fringes-default", "fringes-edges"],
)
def test_scissor_and_fringes_bytes_are_pinned(tmp_path, experiment, text):
    path = write_config(tmp_path, text)
    assert main([experiment, "--config", path, "--out", str(tmp_path)]) == 0
    digests = tuple(
        hashlib.sha256((tmp_path / f"{experiment}{suffix}").read_bytes()).hexdigest()
        for suffix in (".csv", ".meta.json")
    )
    assert digests == _DICT_STATE_SHA256[experiment, text]


#: sha256 of the default hom CSV and meta, the same under the default,
#: Haswell, Sandybridge and Prescott BLAS kernels; the default negativity run
#: is not pinned, since its bytes move with the kernel
_HOM_SHA256 = (
    "cd96a37440e2309b5c747296e5803920fb814b2878135e8bf39dc6c5a17d5641",
    "9c6fb5b8b0a846ac30b06277587abe80e536b85c735294ca0bce4b2abeaad455",
)


def test_hom_bytes_are_pinned(tmp_path):
    path = write_config(tmp_path, "")
    assert main(["hom", "--config", path, "--out", str(tmp_path)]) == 0
    digests = tuple(
        hashlib.sha256((tmp_path / f"hom{suffix}").read_bytes()).hexdigest()
        for suffix in (".csv", ".meta.json")
    )
    assert digests == _HOM_SHA256


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


@pytest.mark.parametrize(
    "text,expected",
    [
        # each coefficient is below 1e-15, the three are equal after normalizing
        ("input_coeffs = 1e-16, 1e-16, 1e-16\ng = 1\n", [3**-0.5] * 3),
        # c0 is the only heraldable amplitude, 1e-150 of the input
        ("input_coeffs = 1e-150, 0, 0, 1\ng = 1\n", [1.0, 0.0, 0.0]),
    ],
)
def test_scissor_keeps_amplitudes_below_1e_15(tmp_path, text, expected):
    path = write_config(tmp_path, text)
    assert main(["scissor", "--config", path, "--out", str(tmp_path)]) == 0
    rows = read_csv(tmp_path / "scissor.csv")
    assert len(rows) == 1 + 3
    for row in rows[1:]:
        record = dict(zip(rows[0], row))
        assert float(record["success_probability"]) > 0.0
        out = [float(record[f"out_abs{k}"]) for k in range(3)]
        assert out == pytest.approx(expected, rel=1e-12)


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


def test_byte_identical_fringes_reruns(tmp_path):
    path = write_config(tmp_path, "sigma = 0.2\ng = 2\nphi = 0:6.3:0.05\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["fringes", "--config", path, "--out", str(out_a)]) == 0
    assert main(["fringes", "--config", path, "--out", str(out_b)]) == 0
    for name in ("fringes.csv", "fringes.meta.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_console_module_entry_point(tmp_path):
    path = write_config(tmp_path, "theta = 0:1.6:0.4\n")
    result = run_module(tmp_path, "hom", "--config", path)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "hom.csv").exists()


# ---------------------------------------------------------------------------
# result writing
# ---------------------------------------------------------------------------

_SMALL_CONFIGS = {
    # g = 0 leaves only c0, so both phase cells are nan; 110 has a pi step
    "scissor": "g = 0, 1e-25, 2\npattern = all\ninput_coeffs = 0.66, -0.18, 0.1, 0\n",
    "gain-sweep": "tau = 1e-100, 0.05, 1\ng = 1e-25, 1, 1e6\n",
    "fringes": "sigma = 0.2\ng = 2\nphi = 0:6.3:0.7\n",
    "negativity": "sigma = 0.1, 0.5\ng = 0:2:0.5\n",
    "hom": "theta = 0:1.6:0.2\n",
    "sobol": "g = 1, 2\nn_base = 16\nseed = 3\nbootstrap = 10\n",
}


@pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
def test_column_writer_matches_row_writer(tmp_path, experiment):
    text = _SMALL_CONFIGS[experiment]
    cfg = resolve_config(experiment, parse_config_text(text), None)
    header, columns = cli._RUNNERS[experiment](cfg)
    csv_path, meta_path = cli.write_results(
        tmp_path / "out", experiment, header, columns, cfg, text
    )
    expanded = expand_columns(columns)
    write_rows(tmp_path / "rows.csv", header, zip(*expanded))
    assert csv_path.read_bytes() == (tmp_path / "rows.csv").read_bytes()
    rows = len(read_csv(csv_path)) - 1
    assert rows == len(expanded[0]) == json.loads(meta_path.read_text())["rows"]


@pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
def test_every_grid_is_one_float64_array(experiment):
    cfg = resolve_config(experiment, parse_config_text(_SMALL_CONFIGS[experiment]), None)
    schema = cli.SCHEMAS[experiment]
    grids = [cfg[key] for key, field in schema.items() if field.parse is cli._parse_grid]
    assert grids and all(isinstance(grid, np.ndarray) for grid in grids)
    assert all(grid.dtype == np.float64 and grid.ndim == 1 for grid in grids)


@pytest.mark.parametrize("name", [*_SMALL_CONFIGS, "fringes-dense"])
def test_printed_meta_and_csv_row_counts_agree(tmp_path, capsys, name):
    if name == "fringes-dense":
        experiment = "fringes"
        text = (PERFBENCH / "configs" / "fringes-dense.conf").read_text()
    else:
        experiment, text = name, _SMALL_CONFIGS[name]
    path = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main([experiment, "--config", path, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    rows = len(read_csv(out / f"{experiment}.csv")) - 1
    meta = json.loads((out / f"{experiment}.meta.json").read_text())
    assert f" ({rows} rows) " in printed
    assert meta["rows"] == rows > 0


_PATTERNS = ["110", "101", "011"]


def _fringe_columns(rows):
    phases = np.linspace(0.0, 2.0 * np.pi, rows // 3)
    rates = 0.25 + 0.2 * np.cos(2.0 * phases)
    labels = (_PATTERNS, np.repeat(np.arange(3), len(phases)))
    return ["pattern", "phi", "rate"], [labels, np.tile(phases, 3), np.tile(rates, 3)]


def test_writer_memory_is_one_block(tmp_path):
    """Ten blocks of rows take the memory of one to write: the writer holds
    one block of formatted cells, never a row object per row."""
    peaks = []
    for rows in (cli._BLOCK_ROWS, 10 * cli._BLOCK_ROWS):
        header, columns = _fringe_columns(rows)
        phases = columns[1][: rows // 3].tolist()
        cfg = {"experiment": "fringes", "sigma": 0.2, "g": 2.0, "phi": phases}
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cli.write_results(tmp_path / str(rows), "fringes", header, columns, cfg, "")
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
    assert max(peaks) < 3 * 2**20, peaks
    assert peaks[1] - peaks[0] < 0.5 * 2**20, peaks
    assert peaks[1] < 0.5 * 2**20, peaks  # a block joined into one string: 0.21 MiB


def test_indexed_writer_memory_follows_distinct_values_not_rows(tmp_path):
    """With one fixed set of 4,001 indexed phases, ten blocks of rows take
    the memory of one: the writer holds each distinct value's cell once and
    gathers a block of them, never a cell per row."""
    phases = np.linspace(0.0, 2.0 * np.pi, 4001)
    peaks = []
    for rows in (cli._BLOCK_ROWS, 10 * cli._BLOCK_ROWS):
        index = np.arange(rows) % len(phases)
        columns = [
            (_PATTERNS, np.arange(rows) * len(_PATTERNS) // rows),
            (phases, index),
            0.25 + 0.2 * np.cos(2.0 * phases[index]),
        ]
        cfg = {"experiment": "fringes", "sigma": 0.2, "g": 2.0, "phi": phases.tolist()}
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cli.write_results(
                tmp_path / str(rows), "fringes", ["pattern", "phi", "rate"], columns,
                cfg, "",
            )
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 0.5 * 2**20, peaks


def test_indexed_values_are_formatted_a_block_at_a_time():
    """Formatting 2 x 10^5 indexed values holds their cells and one block of
    intermediates, not a Python float and a string list for every value."""
    values = np.linspace(0.0, 2.0 * np.pi, 200_000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cells = cli._formatted(values, 3)
        kept, peak = (size - before for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert cells.tolist() == list(map(repr, values.tolist()))
    assert peak - kept < 2**20, (peak, kept)  # all values at once: 6.1 MiB


def test_gain_sweep_memory_is_the_readme_model():
    """``_run_gain_sweep`` at 10^4 and 10^5 grid points, 500 gains at 20 and at
    200 taus, peaks at the README's a + b * rows traced above its grids, with
    slack 3 B per row on b and 16 KB on a (pricing row by row held 176 B a
    row; a list per gain or a copy of the grid per step would show), and
    keeps only its four float64 columns."""
    readme = (Path(qscissor.__file__).parents[2] / "README.md").read_text("utf-8")
    words = " ".join(readme.split())
    model = re.search(r"`gain-sweep` peaks at about ([\d.]+) KB \+ ([\d.]+) B per row", words)
    intercept, slope = float(model[1]) * 1e3, float(model[2])
    scissor._herald_table(), scissor._pair_separation()  # built once per process
    points, peaks = [], []
    for taus in (20, 200):
        cfg = resolve_config("gain-sweep", {}, None)
        cfg["tau"], cfg["g"] = np.linspace(0.05, 0.95, taus), np.linspace(0.0, 6.0, 500)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            _, columns = cli._run_gain_sweep(cfg)
            kept, peak = (size - before for size in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        points.append(taus * 500)
        peaks.append(peak)
        assert kept == pytest.approx(sum(column.nbytes for column in columns), abs=16e3)
    measured = (peaks[1] - peaks[0]) / (points[1] - points[0])
    assert measured == pytest.approx(slope, abs=3.0), peaks
    assert peaks[0] - measured * points[0] == pytest.approx(intercept, abs=16e3), peaks


_DOC_BOUNDS = {
    ("gain-sweep", "tau"): f"[{scissor._MIN_TAU:g}, 1]",
    ("sobol", "tau"): f"[{scissor._MIN_TAU:g}, 1]",
    ("sobol", "n_base"): f"[2, {sensitivity._MAX_N_BASE}]",
    ("sobol", "bootstrap"): f"[2, {sensitivity._MAX_BOOTSTRAP}]",
}


@pytest.mark.parametrize("experiment, key", _DOC_BOUNDS)
def test_schema_docs_state_the_library_bounds(experiment, key):
    assert _DOC_BOUNDS[experiment, key] in cli.SCHEMAS[experiment][key].doc


def test_fringes_dense_writer_matches_row_writer(tmp_path):
    """The benchmark's fringes config, more than two blocks and a partial last
    one, written byte for byte as the per-row reference writer writes it."""
    text = (PERFBENCH / "configs" / "fringes-dense.conf").read_text()
    cfg = resolve_config("fringes", parse_config_text(text), None)
    header, columns = cli._RUNNERS["fringes"](cfg)
    expanded = expand_columns(columns)
    rows = len(expanded[0])
    assert rows > 2 * cli._BLOCK_ROWS and rows % cli._BLOCK_ROWS
    csv_path, _ = cli.write_results(
        tmp_path / "out", "fringes", header, columns, cfg, text
    )
    write_rows(tmp_path / "rows.csv", header, zip(*expanded))
    assert csv_path.read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_fringes_dense_matches_benchmark_reference(tmp_path):
    """The benchmark's fringes workload against its stored reference, with the
    benchmark's own rule: labels exact, numbers within RTOL 1e-9 / ATOL 1e-12."""
    config = PERFBENCH / "configs" / "fringes-dense.conf"
    assert main(["fringes", "--config", str(config), "--out", str(tmp_path)]) == 0
    actual = read_csv(tmp_path / "fringes.csv")
    with lzma.open(PERFBENCH / "reference" / "fringes-dense.csv.xz", "rt") as fh:
        reference = list(csv.reader(fh))
    assert actual[0] == reference[0] == ["pattern", "phi", "rate"]
    assert len(actual) == len(reference) == 1 + 12003
    labels, *numbers = zip(*actual[1:])
    ref_labels, *ref_numbers = zip(*reference[1:])
    assert labels == ref_labels
    got, want = np.array(numbers, dtype=float), np.array(ref_numbers, dtype=float)
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want) + 1e-12)


def test_sobol_matches_benchmark_reference(tmp_path):
    """The benchmark's sobol workload at seed 5 against its stored reference,
    with the benchmark's own rule: labels exact, numbers within RTOL 1e-9 /
    ATOL 1e-12."""
    config = PERFBENCH / "configs" / "sobol.conf"
    args = ["sobol", "--config", str(config), "--out", str(tmp_path), "--seed", "5"]
    assert main(args) == 0
    actual = read_csv(tmp_path / "sobol.csv")
    reference = read_csv(PERFBENCH / "reference" / "sobol-seed-05.csv")
    header = ["g", "variable", "region", "s1", "ci95", "evaluations"]
    assert actual[0] == reference[0] == header
    assert len(actual) == len(reference) == 1 + 3 * 14
    body, ref_body = np.array(actual[1:]), np.array(reference[1:])
    labels, numbers = [1, 2], [0, 3, 4, 5]
    assert np.array_equal(body[:, labels], ref_body[:, labels])
    got, want = body[:, numbers].astype(float), ref_body[:, numbers].astype(float)
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want) + 1e-12)


@pytest.mark.parametrize(
    "experiment,text,key",
    [
        ("fringes", "sigma = 0.2\ng = 2\n", "phi"),  # the default 101 phases
        ("fringes", "sigma = 0.2\ng = 2\nphi = 0:6.3:0.1\n", "phi"),
        ("hom", "theta = 0.1:1.5:0.07\n", "theta"),
        ("negativity", "g = 0.5:4:0.025\n", "g"),
    ],
)
def test_grid_record_rebuilds_the_values(tmp_path, experiment, text, key):
    """The meta records a start:stop:step grid as points, start, step and
    stop, and start + i * step, the last clamped to stop, rebuilds every value
    the run used, bit for bit."""
    cfg = resolve_config(experiment, parse_config_text(text), None)
    path = write_config(tmp_path, text)
    assert main([experiment, "--config", path, "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / f"{experiment}.meta.json").read_text())
    record = meta["resolved_config"][key]
    assert sorted(record) == ["points", "start", "step", "stop"]
    assert rebuild_grid(record) == cfg[key].tolist()


def rebuild_grid(record):
    """The README's rule for the values of a schema-3 grid record."""
    values = [record["start"] + i * record["step"] for i in range(record["points"])]
    values[-1] = min(values[-1], record["stop"])
    return values


# each start a/100 with each step: the one case that overshot 1 before the
# last point was clamped is 0.09:1:0.07, which the examples below pin
GRID_STEPS = ("0.01", "0.03", "0.07", "0.1", "0.13", "0.3", "0.7")


@pytest.mark.parametrize("step", GRID_STEPS)
def test_no_grid_point_passes_its_stop(step):
    for a in range(100):
        raw = f"{a / 100}:1:{step}"
        values = cli._parse_grid(raw)
        assert all(v <= 1.0 for v in values), raw
        # the inclusive end: the last point is within a step of the stop
        assert values[-1] > 1.0 - float(step), raw
        assert rebuild_grid(cli._jsonable(values)) == values.tolist(), raw


@pytest.mark.parametrize(
    "experiment,text,key,last",
    [
        # 0.09 + 13 * 0.07 rounds to 1.0000000000000002 (g = 0 at tau = 1 is
        # rejected on its own, so the gains start at 1)
        ("gain-sweep", "tau = 0.09:1:0.07\ng = 1:3:1\n", "tau", 1.0),
        # 3 * 0.1 rounds to 0.30000000000000004
        ("fringes", "sigma = 0.2\ng = 2\nphi = 0:0.3:0.1\n", "phi", 0.3),
    ],
)
def test_overshooting_grid_ends_on_its_stop(tmp_path, experiment, text, key, last):
    cfg = resolve_config(experiment, parse_config_text(text), None)
    assert cfg[key][-1] == last
    path = write_config(tmp_path, text)
    assert main([experiment, "--config", path, "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / f"{experiment}.meta.json").read_text())
    assert meta["resolved_config"][key]["stop"] == last
    assert rebuild_grid(meta["resolved_config"][key]) == cfg[key].tolist()


def _random_grids(count, max_points, seed):
    """``start:stop:step`` texts whose stop is ``start + (points - 1) * step``
    as Python rounds it, so some last points land past their stop."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        start = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 3.0))
        step = float(10.0 ** rng.uniform(-6.0, 1.0))
        points = int(rng.integers(1, max_points + 1))
        yield f"{start!r}:{start + (points - 1) * step!r}:{step!r}"


def test_array_grid_is_the_readme_rule_bit_for_bit():
    defaults = [
        field.default
        for schema in cli.SCHEMAS.values()
        for field in schema.values()
        if field.parse is cli._parse_grid and ":" in field.default
    ]
    assert len(defaults) == 4
    fixed = [*defaults, "0.09:1:0.07", "0:6.283185307179586:6.2832e-06"]
    for raw in [*fixed, *_random_grids(300, 20_000, seed=26)]:
        grid = cli._parse_grid(raw)
        assert grid.dtype == np.float64, raw
        rebuilt = np.array(rebuild_grid(cli._jsonable(grid)))
        assert np.array_equal(grid.view(np.uint64), rebuilt.view(np.uint64)), raw


def test_grid_is_the_array_expression_bit_for_bit():
    """The grid built in place on one array is ``start + np.arange(points) *
    step`` with the last point clamped, bit for bit."""
    defaults = [
        field.default
        for schema in cli.SCHEMAS.values()
        for field in schema.values()
        if field.parse is cli._parse_grid and ":" in field.default
    ]
    fixed = [*defaults, "0.09:1:0.07", "0:6.283185307179586:6.2832e-06"]
    for raw in fixed:
        grid = cli._parse_grid(raw)
        rule = grid.rule
        expected = rule["start"] + np.arange(rule["points"]) * rule["step"]
        expected[-1] = min(expected[-1], rule["stop"])
        assert np.array_equal(grid.view(np.uint64), expected.view(np.uint64)), raw
    assert len(grid) == 999_998


def test_largest_grid_resolves_in_one_array():
    """The 999,998-point ``phi`` grid is built and checked with one 8 MB array
    and no other array of its length wider than a bool."""
    text = "sigma = 0.2\ng = 2\nphi = 0:6.283185307179586:6.2832e-06\n"
    entries = parse_config_text(text)
    tracemalloc.start()
    try:
        cfg = resolve_config("fringes", entries, None)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    grid = cfg["phi"].nbytes
    assert grid == 8 * 999_998
    assert kept < grid + 2**16 and peak < grid + 2**20 + 2**16, (kept, peak)


def test_validate_costs_grid_points_not_rows(tmp_path):
    """Two 10^5-point grids, 10^10 rows, validate well inside 10 s, and g = 0
    with tau = 1 is still found on both lines."""
    path = write_config(
        tmp_path, "experiment = gain-sweep\ntau = 0.00001:1:0.00001\ng = 1:100000:1\n"
    )
    result = run_module(tmp_path, "validate", "--config", path, timeout=10)
    assert result.returncode == 0 and result.stdout.startswith("ok\n"), result.stderr
    path = write_config(tmp_path, "tau = 0.00001:1:0.00001\ng = 0:99999:1\n")
    result = run_module(tmp_path, "gain-sweep", "--config", path, timeout=10)
    assert result.returncode == 2
    why = "g = 0 keeps only the vacuum, which tau = 1 never holds"
    assert result.stderr == f"error: line 1: tau: {why}\nerror: line 2: g: {why}\n"


def test_comma_lists_stay_lists_in_the_meta(tmp_path):
    path = write_config(tmp_path, "tau = 0.05, 0.1\ng = 0.5, 1, 2\n")
    assert main(["gain-sweep", "--config", path, "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "gain-sweep.meta.json").read_text())
    assert meta["resolved_config"]["tau"] == [0.05, 0.1]
    assert meta["resolved_config"]["g"] == [0.5, 1.0, 2.0]


def test_meta_of_the_largest_grid_stays_small(tmp_path):
    text = f"theta = 0:{cli._MAX_GRID_POINTS - 1}:1\n"
    cfg = resolve_config("hom", parse_config_text(text), None)
    assert len(cfg["theta"]) == cli._MAX_GRID_POINTS
    columns = [np.array([0.0]), np.array([1.0])]
    _, meta_path = cli.write_results(
        tmp_path, "hom", ["theta", "coincidence"], columns, cfg, text
    )
    assert meta_path.stat().st_size < 1024


def _fail_json_dump(*args, **kwargs):
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize(
    "failure", ["out-is-a-file", "meta-is-a-directory", "disk-full"]
)
def test_failed_write_exits_3_and_leaves_nothing(
    tmp_path, capsys, monkeypatch, failure
):
    path = write_config(tmp_path, "theta = 0:1.6:0.4\n")
    out = tmp_path / "out"
    if failure == "out-is-a-file":
        out.write_text("not a directory")
    else:
        out.mkdir()
    if failure == "meta-is-a-directory":
        (out / "hom.meta.json").mkdir()
    if failure == "disk-full":
        monkeypatch.setattr(cli.json, "dump", _fail_json_dump)
    before = sorted(tmp_path.rglob("*"))
    assert main(["hom", "--config", path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write results") and err.count("\n") == 1
    assert "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before
