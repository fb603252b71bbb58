"""Invariants checked as properties over generated inputs (hypothesis).

Every property runs a fixed, derandomized set of examples, so the suite
stays reproducible and fast.
"""

import cmath
import codecs
import contextlib
import functools
import io
import itertools
import math
import re
import string
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    amplitude,
    apply_loss,
    basis_enumerate,
    closed_form_mixture,
    density_matrix,
    dict_gain_measurement,
    dict_run_two_scissor,
    expand_columns,
    fourier_mixer,
    mixture_trace,
    normalized,
    write_rows,
)
from qscissor import cli, scissor
from qscissor.cli import (
    EXPERIMENTS,
    SCHEMAS,
    ConfigError,
    parse_config_text,
    resolve_config,
)
from qscissor.fock import MixedState, PureState
from qscissor.analysis import fringe_scan, negativity_curve
from qscissor.scissor import (
    _MAX_GAIN,
    _MIN_GAIN,
    _MIN_TAU,
    SUCCESS_PATTERNS,
    GainMeasurement,
    amplified_mixture_closed_form,
    heralded_amplify,
    measured_two_photon_gain,
    run_two_scissor,
    simulate_gain_measurement,
    two_photon_gain,
)
from qscissor.sensitivity import lossy_gain_model, sensitivity_sweep

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)

_UNIT = st.floats(-1.0, 1.0)
#: log-uniform gains over twelve decades, plus the amplifier switched off
_GAIN = st.just(0.0) | st.floats(-6.0, 6.0).map(lambda e: 10.0**e)
_COEFFICIENTS = st.lists(
    st.builds(complex, _UNIT, _UNIT), min_size=1, max_size=5
).filter(lambda cs: any(abs(c) > 1e-6 for c in cs))


@functools.cache
def _table_at(photons: int):
    """The amplifier's g = 1 herald amplitudes at resource photon number N:
    the shipped tritter at N = 2, the (N + 1)-mode Fourier mixer otherwise."""
    if photons == 2:
        return scissor._herald_table()
    return scissor._herald_amplitudes(photons, fourier_mixer(photons))


@PROPERTY
@given(
    coeffs=_COEFFICIENTS,
    g=_GAIN,
    pattern=st.sampled_from(SUCCESS_PATTERNS),
    photons=st.sampled_from([1, 2, 3, 4]),
)
@example(coeffs=[1.0, 1j], g=0.0, pattern=(1, 1, 0), photons=1)
@example(coeffs=[1.0], g=1e-6, pattern=(1, 0, 1), photons=3)
@example(coeffs=[0.6, 0.8], g=1e6, pattern=(0, 1, 1), photons=4)
def test_herald_probability_is_closed_form_prefactor(coeffs, g, pattern, photons):
    amplitudes = {(k,): c for k, c in enumerate(coeffs)}
    state = normalized(PureState(1, amplitudes, cutoff=max(2, len(coeffs) - 1)))
    c = [amplitude(state, (k,)) for k in range(3)]
    _, probability = heralded_amplify(state, 0, g, pattern)
    expected = (2.0 / 9.0) / (1.0 + g * g) ** 2
    expected *= sum(abs(g**k * c[k]) ** 2 for k in range(3))
    assert probability == pytest.approx(expected, rel=1e-12, abs=0.0)

    # at every N: |A_k(g)|^2 = (N! / (N+1)^N) g^2k / (1+g^2)^N, and each
    # pattern adds one phase per photon, the patterns' steps 2 pi / (N+1) apart
    table = _table_at(photons)
    assert len(table) == photons + 1
    k = np.arange(photons + 1)
    prefactor = math.factorial(photons) / (photons + 1) ** photons
    closed_form = prefactor * g ** (2 * k) / (1.0 + g * g) ** photons
    steps = []
    for amplitudes in table.values():
        heralded = amplitudes * scissor._gain_factor(g, photons - k, k)
        assert np.abs(heralded) ** 2 == pytest.approx(closed_form, rel=1e-12, abs=0.0)
        step = amplitudes[1:] / amplitudes[:-1]
        assert np.angle(step / step[0]) == pytest.approx(0.0, abs=1e-12)
        steps.append(np.angle(step[0]))
    spacing = np.sort((np.array(steps) - steps[0]) % (2.0 * np.pi))
    assert spacing == pytest.approx(2.0 * np.pi * k / (photons + 1), abs=1e-12)


@PROPERTY
@given(g=_GAIN, tau=st.floats(0.01, 1.0), pattern=st.sampled_from(SUCCESS_PATTERNS))
@example(g=1e-7, tau=0.05, pattern=(1, 1, 0))  # sqrt(1 - 1/(1 + g^2)) cancels
def test_measured_gain_is_two_photon_gain(g, tau, pattern):
    assume(g > 0.0 or tau < 1.0)  # g = 0 keeps only the vacuum, which tau = 1 lacks
    measured = measured_two_photon_gain(tau, g, pattern)
    assert measured == pytest.approx(two_photon_gain(tau, g), rel=1e-12, abs=0.0)


def _result(call):
    """What ``call()`` returns, or the type of the exception it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc)


def _dict_gain(tau, g, pattern) -> float:
    on = dict_gain_measurement(tau, g, True, pattern)
    return on.rho22_estimate / dict_gain_measurement(tau, g, False, pattern).rho22_estimate


#: log-uniform over the CLI's ranges, ends included
_CLI_TAU = st.just(1.0) | st.floats(-100.0, 0.0).map(lambda e: 10.0**e)
_CLI_GAIN = st.sampled_from([0.0, _MIN_GAIN, _MAX_GAIN]) | st.floats(-25.0, 6.0).map(
    lambda e: 10.0**e
)


@PROPERTY
@given(
    tau=_CLI_TAU,
    g=_CLI_GAIN,
    pattern=st.sampled_from(SUCCESS_PATTERNS),
    on=st.booleans(),
)
@example(tau=1.0, g=0.0, pattern=(1, 1, 0), on=True)  # nothing heralds
@example(tau=_MIN_TAU, g=_MIN_GAIN, pattern=(0, 1, 1), on=True)
@example(tau=_MIN_TAU, g=_MAX_GAIN, pattern=(1, 0, 1), on=False)
def test_gain_measurement_is_the_dict_path_to_the_bit(tau, g, pattern, on):
    assert _result(lambda: simulate_gain_measurement(tau, g, on, pattern)) == _result(
        lambda: dict_gain_measurement(tau, g, on, pattern)
    )
    assert _result(lambda: measured_two_photon_gain(tau, g, pattern)) == _result(
        lambda: _dict_gain(tau, g, pattern)
    )


#: a log grid over the CLI's ranges, ends included
_LOG_TAUS = np.logspace(-100, 0, 21)
_LOG_GAINS = np.array([0.0, *np.logspace(-25, 6, 31)])
#: the log grid's points that herald (all but g = 0 with tau = 1), flattened
#: into paired arrays that one broadcast call prices together
_HERALDING = (_LOG_TAUS[:, None] < 1.0) | (_LOG_GAINS > 0.0)
_LOG_TAU, _LOG_GAIN = (
    a[_HERALDING] for a in np.broadcast_arrays(_LOG_TAUS[:, None], _LOG_GAINS)
)


def test_gain_measurement_is_the_dict_path_on_a_log_grid():
    # a reordered product or sum moves the last bit of about 2% of these, which
    # the property's few examples can miss; one broadcast call over the points
    # that herald gives each point the same bits
    for pattern in SUCCESS_PATTERNS:
        on = simulate_gain_measurement(_LOG_TAU, _LOG_GAIN, True, pattern)
        measured = measured_two_photon_gain(_LOG_TAU, _LOG_GAIN, pattern)
        fields = [on.herald_probability, on.fourfold_probability, on.rho22_estimate]
        broadcast = zip(*fields, measured)
        for tau, g in itertools.product(_LOG_TAUS.tolist(), _LOG_GAINS.tolist()):
            expected = _result(lambda: dict_gain_measurement(tau, g, True, pattern))
            assert _result(
                lambda: simulate_gain_measurement(tau, g, True, pattern)
            ) == expected
            if tau < 1.0 or g > 0.0:
                *rates, gain = next(broadcast)
                off = dict_gain_measurement(tau, g, False, pattern)
                assert GainMeasurement(*rates) == expected
                assert gain == expected.rho22_estimate / off.rho22_estimate


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def test_closed_forms_are_the_oracle_on_a_log_grid():
    # the oracle's powers run on Python floats and its three weights are
    # summed as (r0 + r1) + r2; numpy's vectorized g**4, or r0 + (r1 + r2),
    # moves the last bit of a sixth of a 10^4-point g grid
    blocks = [  # [T, 1] x [G]: tau below 1 at every g, then tau = 1 at g > 0
        (_LOG_TAUS[:-1, None], _LOG_GAINS), (_LOG_TAUS[-1:, None], _LOG_GAINS[1:])
    ]
    for taus, gains in blocks:
        weights, normalization = amplified_mixture_closed_form(taus, gains)
        gain = two_photon_gain(taus, gains)
        assert weights.shape == (*gain.shape, 3) and normalization.shape == gain.shape
        for i, tau in enumerate(taus.ravel().tolist()):
            for j, g in enumerate(gains.tolist()):
                expected = closed_form_mixture(tau, g)
                assert _bits(weights[i, j]) == _bits(expected[0])
                assert _bits([normalization[i, j], gain[i, j]]) == _bits(expected[1:])
                for shape in [(), (1,)]:  # 0-d and one-element arrays
                    t, x = np.full(shape, tau), np.full(shape, g)
                    w, n = amplified_mixture_closed_form(t, x)
                    assert _bits(w) == _bits(expected[0])
                    assert _bits([n, two_photon_gain(t, x)]) == _bits(expected[1:])


def _scissor_bits(call):
    """``call()``'s outcome as bits, or the type of the exception it raises.

    The bits are those of the output amplitudes, of the relative phases the
    scissor CLI writes from them, of the success probability and of the
    truncation weight.  An amplitude's exact-zero part counts as 0.0 whatever
    its sign: a dict state adds each amplitude it stores to 0.0, which turns
    -0.0 into 0.0.
    """
    outcome = _result(call)
    if isinstance(outcome, type):
        return outcome
    if isinstance(outcome.output, MixedState):  # the dict path's one component
        ((_, state),) = outcome.output.components
        c = [amplitude(state, (k,)) for k in range(3)]
    else:
        c = outcome.output.tolist()
    floats = [part for z in c for part in ((0.0 + z).real, (0.0 + z).imag)]
    floats += [cli._relative_phase(c[1], c[0]), cli._relative_phase(c[2], c[1])]
    floats += [outcome.success_probability, outcome.truncation_weight]
    return [float(x).hex() for x in floats]


def _dict_scissor(coeffs, g, pattern):
    """The dict-state scissor run on ``coeffs`` as the scissor CLI ran it."""
    amplitudes = {(k,): c for k, c in enumerate(coeffs)}
    state = normalized(PureState(1, amplitudes, cutoff=max(2, len(coeffs) - 1)))
    return dict_run_two_scissor(state, g, pattern)


def _assert_scissor_is_the_dict_path(coeffs, g, pattern):
    assert _scissor_bits(lambda: run_two_scissor(coeffs, g, pattern)) == _scissor_bits(
        lambda: _dict_scissor(coeffs, g, pattern)
    )


@st.composite
def _scissor_inputs(draw):
    """1-5 complex coefficients, some of them zero, scaled so that max |c| is
    10^e for e in [-150, 150]."""
    coeffs = draw(
        st.lists(st.just(0j) | st.builds(complex, _UNIT, _UNIT), min_size=1, max_size=5)
    )
    size = max(map(abs, coeffs))
    scale = 10.0 ** draw(st.floats(-150.0, 150.0))
    return [c / size * scale for c in coeffs] if size else coeffs


@PROPERTY
@given(
    coeffs=_scissor_inputs(),
    g=_CLI_GAIN,
    pattern=st.sampled_from(SUCCESS_PATTERNS),
)
@example(coeffs=[0j, 0j], g=1.0, pattern=(1, 1, 0))  # the zero state
@example(coeffs=[0.0, 1.0], g=0.0, pattern=(1, 0, 1))  # nothing heralds
@example(coeffs=[1e-170, 0.0, 0.0, 1.0], g=1.0, pattern=(0, 1, 1))  # p underflows
@example(coeffs=[1e150, -3e149, 2e149, 0.0, 1e149], g=_MAX_GAIN, pattern=(1, 0, 1))
def test_scissor_is_the_dict_path_to_the_bit(coeffs, g, pattern):
    _assert_scissor_is_the_dict_path(coeffs, g, pattern)


def test_scissor_is_the_dict_path_on_a_log_grid():
    inputs = [[1.0], [1.0, 1.0, 1.0], [0.3, -0.5j, 0.2 + 0.1j, 0.0, -0.4],
              [0.0, 1e150, -3e149, 2e149], [1e-150, 0.0, -1e-150, 1e-150, 5e-151]]
    for coeffs in inputs:
        for g in [0.0, *np.logspace(-25, 6, 32).tolist()]:
            for pattern in SUCCESS_PATTERNS:
                _assert_scissor_is_the_dict_path(coeffs, g, pattern)


@PROPERTY
@given(g=_GAIN, tau=st.floats(0.01, 1.0), pattern=st.sampled_from(SUCCESS_PATTERNS))
def test_zero_loss_gain_model_is_two_photon_gain(g, tau, pattern):
    assume(g > 0.0 or tau < 1.0)
    measured = lossy_gain_model(g, tau, np.zeros(14), pattern=pattern)
    assert measured == pytest.approx(two_photon_gain(tau, g), rel=1e-12, abs=0.0)


_SWEEP = dict(
    tau=0.05, n_base=32, seed=5, bounds=(0.0, 0.5), pattern=(1, 1, 0),
    bootstrap_resamples=10,
)


@functools.lru_cache(maxsize=None)
def _single_gain_result(g: float) -> tuple[bytes, bytes]:
    (entry,) = sensitivity_sweep([g], **_SWEEP)
    return entry.result.indices.tobytes(), entry.result.ci.tobytes()


@PROPERTY
@given(
    gains=st.lists(
        _GAIN.filter(lambda g: g > 0.0) | st.sampled_from([_MIN_GAIN, _MAX_GAIN]),
        min_size=1,
        max_size=6,
    )
)
@example(gains=[_MIN_GAIN, 2.0, _MAX_GAIN, 2.0, _MIN_GAIN])
def test_sweep_entry_does_not_depend_on_its_grid(gains):
    entries = sensitivity_sweep(gains, **_SWEEP)
    assert [entry.g for entry in entries] == gains
    for entry in entries:
        result = entry.result.indices.tobytes(), entry.result.ci.tobytes()
        assert result == _single_gain_result(entry.g)


@st.composite
def _pure_states(draw):
    """Random pure states on 1-2 modes with total-photon cutoff <= 4."""
    modes, cutoff = draw(st.integers(1, 2)), draw(st.integers(0, 4))
    basis = basis_enumerate(modes, cutoff)
    parts = draw(st.lists(_UNIT, min_size=2 * len(basis), max_size=2 * len(basis)))
    amps = [complex(re, im) for re, im in zip(parts[::2], parts[1::2])]
    assume(any(abs(a) > 1e-3 for a in amps))
    return normalized(PureState(modes, dict(zip(basis, amps)), cutoff=cutoff))


@PROPERTY
@given(
    state=_pure_states(),
    mode=st.integers(0, 1),
    a=st.floats(0.0, 1.0),
    b=st.floats(0.0, 1.0),
)
def test_loss_oracle_preserves_trace_and_composes(state, mode, a, b):
    mode = min(mode, state.modes - 1)
    twice = apply_loss(apply_loss(state, mode, a), mode, b)
    once = apply_loss(state, mode, a * b)
    assert mixture_trace(twice) == pytest.approx(1.0, rel=0.0, abs=1e-12)
    assert mixture_trace(once) == pytest.approx(1.0, rel=0.0, abs=1e-12)
    assert np.max(np.abs(density_matrix(twice) - density_matrix(once))) <= 1e-12


#: an explicit alphabet: ASCII plus a few look-alikes of digits and blanks
_TEXT = st.text(alphabet=string.printable + "\u2212\u00a0\u0663\u221e", max_size=20)
_KEYS = sorted({key for schema in SCHEMAS.values() for key in schema} | {"experiment"})
_NUMBER = st.one_of(
    st.floats(-10.0, 10.0).map(repr),
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(["0", "-0", "nan", "inf", "-inf", "1e999", "1e-320", "x", ""]),
)
_STEP = st.one_of(
    st.floats(0.01, 10.0).map(repr), st.sampled_from(["0", "-1", "nan", "1e-300", "x"])
)
_VALUE = st.one_of(
    _NUMBER,
    st.lists(_NUMBER, max_size=5).map(", ".join),
    # grid steps stay coarse or invalid, so no valid grid holds many points
    st.tuples(_NUMBER, _NUMBER, _STEP).map(":".join),
    st.sampled_from(["all", "110", "(1, 0, 1)", "011", "200", *EXPERIMENTS]),
    _TEXT,
)
_ENTRIES = st.dictionaries(st.sampled_from(_KEYS), _VALUE, max_size=6)


@settings(PROPERTY, max_examples=100)
@given(
    experiment=st.sampled_from(EXPERIMENTS),
    entries=_ENTRIES,
    junk=st.lists(_TEXT, max_size=1),
    seed=st.none() | st.integers(-(2**70), 2**70),
)
def test_config_problems_raise_only_config_error(experiment, entries, junk, seed):
    lines = [f"{key} = {value}" for key, value in entries.items()] + junk
    try:
        resolve_config(experiment, parse_config_text("\n".join(lines)), seed)
    except ConfigError:
        pass


#: from below the smallest subnormal (read as 0) up to near overflow
_COEFF = st.just(0.0) | st.builds(
    lambda sign, exponent: sign * 10.0**exponent,
    st.sampled_from([-1.0, 1.0]),
    st.floats(-330.0, 305.0),
)


@settings(PROPERTY, max_examples=100)
@given(
    coeffs=st.lists(_COEFF, min_size=1, max_size=5),
    gains=st.lists(
        st.sampled_from([0.0, _MIN_GAIN, 1.0, _MAX_GAIN]) | st.floats(_MIN_GAIN, _MAX_GAIN),
        min_size=1,
        max_size=3,
    ),
)
@example(coeffs=[1e-16, 1e-16, 1e-16], gains=[1.0])
@example(coeffs=[1e-150, 0.0, 0.0, 1.0], gains=[1.0, _MAX_GAIN])
def test_validated_scissor_inputs_always_herald(coeffs, gains):
    text = f"input_coeffs = {', '.join(map(repr, coeffs))}\ng = {', '.join(map(repr, gains))}"
    try:
        cfg = resolve_config("scissor", parse_config_text(text), None)
    except ConfigError:
        return
    header, columns = cli._run_scissor(cfg)
    assert np.all(columns[header.index("success_probability")] > 0.0)


_SPECIAL_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16, 1e-5]

_CELLS = {
    "float": st.floats(),  # every float: nan, +-inf, -0.0, subnormals, huge, tiny
    "int": st.integers(-(2**63), 2**63 - 1),
    # csv quotes a cell holding a comma, a quote or a line break
    "label": st.text(string.ascii_letters + ' ,"\r\n\té', max_size=6),
}
#: the values an indexed column's index picks from
_VALUES = {**_CELLS, "float": st.sampled_from(_SPECIAL_FLOATS) | st.floats()}


@st.composite
def _columns(draw):
    """Plain float and int columns and indexed ``(values, index)`` columns of
    floats, ints or labels, whose indexes repeat, skip and reorder values."""
    kinds = ["float", "int", "indexed float", "indexed int", "indexed label"]
    rows = draw(st.integers(0, 9))
    columns = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)):
        cell = kind.split()[-1]
        if kind == cell:
            cells = draw(st.lists(_CELLS[cell], min_size=rows, max_size=rows))
            columns.append(np.array(cells, dtype=np.dtype(cell)))
            continue
        values = draw(st.lists(_VALUES[cell], min_size=1 if rows else 0, max_size=4))
        position = st.integers(0, max(len(values) - 1, 0))
        index = draw(st.lists(position, min_size=rows, max_size=rows))
        index = np.array(index, dtype=int)
        columns.append((values if cell == "label" else np.array(values, cell), index))
    return columns


def _labels(cells):
    """One label column, each row its own value."""
    return cells, np.arange(len(cells))


@settings(PROPERTY, max_examples=30)
@given(columns=_columns(), block=st.integers(1, 5))
@example(columns=[np.array(_SPECIAL_FLOATS)], block=3)
@example(columns=[np.array([0, -1, 2**63 - 1, -(2**63)])], block=2)
@example(
    columns=[_labels(["a,b", 'q"', "", "new\nline", "cr\r"]), np.arange(5.0) / 3],
    block=2,
)
# a lone empty cell is written quoted, and so is every empty cell of one
# column, but not in a wider row
@example(columns=[_labels([""])], block=1)
@example(columns=[_labels(["", "a", ""])], block=2)
@example(columns=[_labels(["", "x"]), np.array([1.0, 2.0])], block=1)
# one quoted label, gathered into every block
@example(columns=[(['a,"b\n'], np.zeros(3, int)), np.arange(3)], block=1)
# gathered by index, never by value: -0.0 and 0.0 stay apart
@example(columns=[(np.array([0.0, -0.0]), np.array([0, 1, 1, 0]))], block=3)
@example(columns=[(np.array([], float), np.array([], int))], block=1)
def test_column_writer_matches_row_writer(columns, block):
    header = [f"c{i}" for i in range(len(columns))]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        with mock.patch.object(cli, "_BLOCK_ROWS", block):
            cli.write_results(out / "out", "hom", header, columns, {}, "")
        write_rows(out / "rows.csv", header, zip(*expand_columns(columns)))
        assert (out / "out" / "hom.csv").read_bytes() == (out / "rows.csv").read_bytes()


# ---------------------------------------------------------------------------
# the CLI contract, end to end
# ---------------------------------------------------------------------------


def _next(x: float, toward: float) -> str:
    return repr(math.nextafter(x, toward))


#: (valid, invalid) values of each key: its limits, values just outside them
#: and ordinary ones
_KEY_VALUES = {
    "g": (["0", "-0", "1e-25", "1e6", "0.5", "2"],
          ["-1", _next(1e-25, 0), _next(1e6, math.inf)]),
    "tau": (["1e-100", "1", "0.05"], ["0", "-0", _next(1e-100, 0), _next(1.0, 2)]),
    "sigma": (["5e-324", "0.9999999999999999", "0.2"], ["0", "-0", "1"]),
    "phi": (["0", "1", "3.14", "6.28", "1e307", "-1e307"], ["1e308", "-1e308"]),
    "theta": (["0", "-0", "0.4", "1.57", "1e307", "-1e307"], ["1e308", "-1e308"]),
    "input_coeffs": (["0", "1", "-1", "0.5", "1e-150", "1e150"],
                     ["1e-200", _next(1e-150, 0), _next(1e150, math.inf)]),
    "n_base": (["2", "17", "64"], ["-1", "1", "100001"]),
    "bootstrap": (["2", "20"], ["0", "1", "100001"]),
    "loss_min": (["0", "-0", "1e-17", "0.25", "0.5", "0.9999999999999999"],
                 ["-5e-324", _next(1.0, 2)]),
    "loss_max": (["1", "0.9999999999999999", "0.5", "0.25", "1e-16"],
                 ["-5e-324", _next(1.0, 2)]),
    "seed": (["0", "5", str(2**64 - 1)], ["-1", str(2**64)]),
    "pattern": (["all", "110", "101", "011", "(0, 1, 1)"], ["200"]),
}
_SPECIAL_TEXTS = ["nan", "inf", "-inf", "-0"]
#: start:stop:step grids of 1 to 49 points
_GRIDS = st.builds(
    lambda start, step, points: f"{start!r}:{start + (points - 1) * step!r}:{step!r}",
    st.sampled_from([0.0, 1e-25, 0.5, 1.0, -1.0]),
    st.sampled_from([0.25, 0.5, 1e-6, 1e-25]),
    st.integers(1, 49),
)


#: valid sobol configs whose gain, transmission and loss range sit at their
#: limits together: each key's values, a loss range as one (min, max) pair
_SOBOL_JOINT = {
    "g": ["1e-25", "1e6"],
    "tau": ["1e-100", "1"],
    ("loss_min", "loss_max"): [
        ("0", "1e-16"), ("0", "0.9999999999999999"), ("0.99", "0.9999"),
        ("0.9999999999999998", "0.9999999999999999"),
    ],
    "n_base": ["2", "17"],
    "bootstrap": ["2", "20"],
    "seed": ["0", str(2**64 - 1)],
    "pattern": ["110", "101", "011"],
}


#: characters that ``str.splitlines`` ends a line at, but a config line holds
_SEPARATORS = st.sampled_from(
    ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)


#: byte sequences that are not UTF-8: a lone continuation byte, a byte no
#: sequence starts with, and a three-byte sequence cut off after two bytes
_NOT_UTF8 = st.sampled_from([b"\x80", b"\xff", b"\xe2\x82"])


@st.composite
def _config_lines(draw):
    """(experiment, config lines, extra argv) over every key of the schema,
    with values at and beyond the limits, and line separators other than a
    line feed in values and comments; the work stays small (n_base <= 64,
    bootstrap <= 20, grids of at most 49 points).  One draw in seven is a
    joint extreme instead: the lines of a valid sobol config from
    ``_SOBOL_JOINT``."""
    experiment = draw(st.sampled_from([*EXPERIMENTS, "joint"]))
    if experiment == "joint":
        lines = []
        for keys, values in _SOBOL_JOINT.items():
            value = draw(st.sampled_from(values))
            pairs = zip(keys, value) if isinstance(keys, tuple) else [(keys, value)]
            lines += [f"{key} = {v}" for key, v in pairs]
        return "sobol", draw(st.permutations(lines)), []
    schema = SCHEMAS[experiment]
    argv = draw(st.sampled_from([[], ["--seed", "3"], ["--seed", "-1"]]))
    rarely = st.sampled_from([False, False, False, True])
    lines = []
    for key, field in schema.items():
        required = field.default is None and not (key == "seed" and argv)
        if not required and draw(st.booleans()):
            continue
        valid, invalid = _KEY_VALUES[key]
        value = st.sampled_from(invalid + _SPECIAL_TEXTS if draw(rarely) else valid)
        if field.parse is cli._parse_grid or key == "input_coeffs":
            value = st.lists(value, min_size=1, max_size=6).map(", ".join) | _GRIDS
        text = draw(value)
        if draw(rarely):  # a separator inside the value
            cut = draw(st.integers(0, len(text)))
            text = text[:cut] + draw(_SEPARATORS) + text[cut:]
        if draw(rarely):  # a comment that would end in a key, were it cut there
            text += f"  # note{draw(_SEPARATORS)}seed = 3"
        lines.append(f"{key} = {text}")
    if lines and draw(rarely):
        lines.append(draw(st.sampled_from(lines)))  # a duplicated key
    if draw(rarely):
        lines.append("bogus = 1")  # an unknown key
    if draw(rarely):
        declared = draw(st.sampled_from([experiment, *EXPERIMENTS]))
        lines.append(f"experiment = {declared}")
    return experiment, draw(st.permutations(lines)), argv


@st.composite
def _config_texts(draw):
    """(experiment, config file contents, extra argv): ``_config_lines``, each
    ended by a line feed.  One file in eight starts with a byte-order mark,
    and one in eight holds a sequence of ``_NOT_UTF8`` on one drawn line, at
    any byte of it; that file's contents are bytes, not text."""
    experiment, lines, argv = draw(_config_lines())
    seldom = st.sampled_from([False] * 7 + [True])
    text = "\ufeff" * draw(seldom) + "".join(f"{line}\n" for line in lines)
    if not draw(seldom):
        return experiment, text, argv
    rows = [row.encode() for row in text.split("\n")]
    n = draw(st.integers(0, len(rows) - 1))
    cut = draw(st.integers(0, len(rows[n])))
    rows[n] = rows[n][:cut] + draw(_NOT_UTF8) + rows[n][cut:]
    return experiment, b"\n".join(rows), argv


def _main(experiment, data: bytes, argv, out: Path) -> tuple[int, str]:
    """``cli.main`` on a config file of ``data``, in-process: (exit code, stderr)."""
    out.mkdir()
    config = out / "config.txt"
    config.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([experiment, "--config", str(config), "--out", str(out), *argv])
    return code, err.getvalue()


def _outputs(out: Path) -> dict:
    """The files a run wrote into ``out``, by name."""
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "config.txt"}


@settings(PROPERTY, max_examples=120)
@given(case=_config_texts())
@example(case=("fringes", "sigma = 0.2\ng = 2\nphi = 1, 0, 2, 3\n", []))
@example(case=("fringes", "sigma = 0.2\ng = 2\nphi = 0, 0, 1, 2\n", []))
@example(case=("hom", "theta = 0, 1e308\n", []))
@example(case=("sobol", "seed = 3\nloss_max = 1e-17\n", []))
@example(case=("sobol", "seed = 3\nloss_min = 0.9999999999999999\nloss_max = 1\n", []))
@example(case=("hom", "theta = 0:1.6:0.4  # step\u2028seed = 3\n", []))
@example(case=("sobol", (
    "seed = 1\ng = 1e-25\ntau = 1e-100\nloss_min = 0.99\nloss_max = 0.9999\n"
    "n_base = 16\nbootstrap = 2\n"
), []))
def test_cli_keeps_its_contract(case):
    experiment, text, argv = case
    data = text if isinstance(text, bytes) else text.encode()
    # the lines (split at line feeds, which hold no drawn \r) that are not UTF-8
    garbled = [
        n for n, row in enumerate(data.split(b"\n"), 1)
        if row.decode(errors="ignore").encode() != row
    ]
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _main(experiment, data, argv, Path(tmp) / "first")
        assert code in (0, 2, 3), err
        where = r"error: (line \d+: |--seed: |default for )"
        for line in err.splitlines():
            assert line.startswith("note: ") or re.match(where, line), line
        lines = data.count(b"\n") + (not data.endswith(b"\n"))
        assert all(int(n) <= lines for n in re.findall(r"\bline (\d+)", err)), err
        outputs = _outputs(Path(tmp) / "first")
        if code != 0:
            assert not outputs
        if garbled:
            assert code == 2
            assert re.fullmatch(rf"error: line {garbled[0]}: .* is not UTF-8 text: .*\n", err)
            return
        # the same file without a byte-order mark, the run again otherwise
        bare = data.removeprefix(codecs.BOM_UTF8)
        if code == 0 or bare != data:
            again = _main(experiment, bare, argv, Path(tmp) / "again")
            assert again == (code, err)
            assert _outputs(Path(tmp) / "again") == outputs


# ---------------------------------------------------------------------------
# the library's numeric domain
# ---------------------------------------------------------------------------

#: numbers across every limit of the public entry points, and beyond them
_NUMBERS = st.sampled_from(
    [0.0, -0.0, 5e-324, 1e-300, _MIN_TAU, 1e-25, _MIN_GAIN, 1e-16, 0.05, 0.5,
     1.0 - 2**-53, 1.0, 1.0 + 2**-52, 2.0, _MAX_GAIN, 1e150, 1e200, 1e307, 1e308,
     1.7976931348623157e308, -1.0, math.nan, math.inf, -math.inf,
     math.nextafter(_MIN_TAU, 0.0), math.nextafter(_MIN_GAIN, 0.0),
     math.nextafter(_MAX_GAIN, math.inf)]
) | st.floats()
_LOSS = st.sampled_from([0.0, 0.5, 0.99, 1.0 - 2**-53, 1.0, -0.0, -5e-324, math.nan])


def _numbers_in(result) -> list:
    """Every number in a result: its fields, items and array entries."""
    if isinstance(result, (list, tuple)):
        return [x for item in result for x in _numbers_in(item)]
    return np.asarray(result).ravel().tolist()


_ENTRY_POINTS = {
    "run_two_scissor": lambda x, y, z, p: run_two_scissor([x, y], z, p),
    "two_photon_gain": lambda x, y, z, p: two_photon_gain(x, y),
    "amplified_mixture_closed_form": lambda x, y, z, p: (
        amplified_mixture_closed_form(x, y)
    ),
    "simulate_gain_measurement": lambda x, y, z, p: simulate_gain_measurement(
        x, y, z > 0.5, p
    ),
    "measured_two_photon_gain": lambda x, y, z, p: measured_two_photon_gain(x, y, p),
    "fringe_scan": lambda x, y, z, p: fringe_scan(x, y, p, [0.0, z]),
    "negativity_curve": lambda x, y, z, p: negativity_curve(x, [y, z]),
}


@settings(PROPERTY, max_examples=150)
@given(
    entry=st.sampled_from(sorted(_ENTRY_POINTS)),
    x=_NUMBERS,
    y=_NUMBERS,
    z=_NUMBERS,
    pattern=st.sampled_from(SUCCESS_PATTERNS),
)
@example(entry="run_two_scissor", x=1e308, y=1e308, z=1.0, pattern=(1, 1, 0))
@example(entry="fringe_scan", x=0.2, y=2.0, z=1e308, pattern=(1, 1, 0))
@example(entry="negativity_curve", x=0.5, y=1e300, z=1.0, pattern=(1, 1, 0))
@example(entry="simulate_gain_measurement", x=1e-120, y=1.0, z=1.0, pattern=(1, 1, 0))
@example(entry="measured_two_photon_gain", x=1e-300, y=1.0, z=1.0, pattern=(1, 1, 0))
@example(entry="two_photon_gain", x=0.5, y=1e200, z=1.0, pattern=(1, 1, 0))
@example(entry="two_photon_gain", x=1.0, y=0.0, z=1.0, pattern=(1, 1, 0))
def test_public_calls_return_finite_numbers_or_raise_value_error(
    entry, x, y, z, pattern
):
    try:
        result = _ENTRY_POINTS[entry](x, y, z, pattern)
    except ValueError:
        return
    assert all(cmath.isfinite(v) for v in _numbers_in(result)), result


#: the entry points that take tau and g as scalars or as broadcast arrays
_GRID_CALLS = {
    "two_photon_gain": lambda t, g, p: two_photon_gain(t, g),
    "amplified_mixture_closed_form": lambda t, g, p: amplified_mixture_closed_form(t, g),
    "simulate_gain_measurement-on": lambda t, g, p: simulate_gain_measurement(
        t, g, True, p
    ),
    "simulate_gain_measurement-off": lambda t, g, p: simulate_gain_measurement(
        t, g, False, p
    ),
    "measured_two_photon_gain": lambda t, g, p: measured_two_photon_gain(t, g, p),
}


def _at(result, i: int, j: int) -> list:
    """The numbers of a grid call's result at its point (i, j), in the order
    ``_numbers_in`` lists a scalar call's."""
    if isinstance(result, (list, tuple)):
        return [x for item in result for x in _at(item, i, j)]
    return np.asarray(result)[i, j].ravel().tolist()


@settings(PROPERTY, max_examples=100)
@given(
    entry=st.sampled_from(sorted(_GRID_CALLS)),
    taus=st.lists(_NUMBERS, min_size=1, max_size=3),
    gains=st.lists(_NUMBERS, min_size=1, max_size=3),
    pattern=st.sampled_from(SUCCESS_PATTERNS),
)
@example(entry="measured_two_photon_gain", taus=[0.5, math.nan], gains=[1.0],
         pattern=(1, 1, 0))  # NaN
@example(entry="two_photon_gain", taus=[0.5], gains=[2.0, math.inf],
         pattern=(1, 1, 0))  # inf
@example(entry="simulate_gain_measurement-on", taus=[0.05, 1.0], gains=[2.0, 0.0],
         pattern=(1, 0, 1))  # g = 0 with tau = 1, the grid's last point
@example(entry="amplified_mixture_closed_form", taus=[1.0, 0.5], gains=[0.0, -1.0],
         pattern=(1, 1, 0))  # two bad points: the first one's error
@example(entry="simulate_gain_measurement-off", taus=[0.05, 1.0], gains=[math.nan],
         pattern=(0, 1, 1))  # the amplifier off reads no g
@example(entry="measured_two_photon_gain", taus=[0.05, 1.0], gains=[0.5, 3.0],
         pattern=(0, 1, 1))
def test_grid_calls_raise_the_first_scalar_error_or_give_its_bits(
    entry, taus, gains, pattern
):
    # a [T, 1] x [G] grid holding a point outside the domain raises the
    # ValueError of the scalar call at its first such point (C order); else
    # each point has the bits of the scalar call, which returns Python floats
    call = _GRID_CALLS[entry]
    scalar = []
    for tau, g in itertools.product(taus, gains):
        try:
            scalar.append(call(tau, g, pattern))
        except ValueError as exc:
            scalar.append(str(exc))
    first_error = next((x for x in scalar if isinstance(x, str)), None)
    try:
        grid = call(np.array(taus)[:, None], np.array(gains), pattern)
    except ValueError as exc:
        assert str(exc) == first_error
        return
    assert first_error is None
    points = itertools.product(range(len(taus)), range(len(gains)))
    for (i, j), result in zip(points, scalar):
        returned = result if isinstance(result, tuple) else (result,)
        assert all(type(x) in (float, np.ndarray) for x in returned)  # weights: array
        assert _bits(_numbers_in(result)) == _bits(_at(grid, i, j))


#: points outside the (tau, g) domain: each bad tau, each bad g, both, and the
#: one point where the lossy input never heralds
_BAD_TAUS, _BAD_GAINS = (0.0, 2.0, math.nan), (-1.0, 1e-30, 2e6, math.nan)
_BAD_POINTS = (
    [(tau, 1.0) for tau in _BAD_TAUS]
    + [(0.5, g) for g in _BAD_GAINS]
    + list(itertools.product(_BAD_TAUS, _BAD_GAINS))
    + [(1.0, 0.0)]
)


@pytest.mark.parametrize("tau, g", _BAD_POINTS)
def test_every_gain_entry_point_checks_a_point_as_check_point_does(tau, g):
    # the scalar calls that read g raise ``scissor._check_point``'s message
    with pytest.raises(ValueError) as expected:
        scissor._check_point(tau, g)
    calls = {
        name: call for name, call in _GRID_CALLS.items() if not name.endswith("-off")
    }
    calls["lossy_gain_model"] = lambda t, x, p: lossy_gain_model(x, t, [0.0] * 14, p)
    for name, call in calls.items():
        with pytest.raises(ValueError) as raised:
            call(tau, g, (1, 1, 0))
        assert str(raised.value) == str(expected.value), name


@settings(PROPERTY, max_examples=40)
@given(
    g=_NUMBERS,
    tau=_NUMBERS,
    losses=st.lists(_LOSS, min_size=14, max_size=14),
    bounds=st.tuples(_LOSS, _LOSS),
    n_base=st.sampled_from([-1, 1, 2, 8, 10**5 + 1]),
    resamples=st.sampled_from([0, 1, 2, 4, 10**5 + 1]),
)
@example(g=0.0, tau=1.0, losses=[0.0] * 14, bounds=(0.0, 0.5), n_base=8, resamples=2)
@example(g=2.0, tau=0.05, losses=[1.0] * 14, bounds=(0.5, 1.0), n_base=8, resamples=2)
def test_loss_model_and_sweep_return_finite_numbers_or_raise_value_error(
    g, tau, losses, bounds, n_base, resamples
):
    calls = [
        lambda: lossy_gain_model(g, tau, losses, (1, 1, 0)),
        lambda: sensitivity_sweep(
            [g], tau, n_base=n_base, seed=0, bounds=bounds, pattern=(1, 1, 0),
            bootstrap_resamples=resamples,
        ),
    ]
    for call in calls:
        try:
            result = call()
        except ValueError:
            continue
        assert all(cmath.isfinite(v) for v in _numbers_in(result)), result
