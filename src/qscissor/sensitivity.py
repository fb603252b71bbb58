"""Loss-sensitivity model and variance-based (Sobol) analysis.

``lossy_gain_model`` evolves the gain-measurement experiment through the
full circuit with a pure-loss channel inserted at each of fourteen tagged
locations and returns the conditioned two-photon intensity ratio, i.e. the
gain an experimenter would actually measure.  ``first_order_indices``
estimates each location's first-order Sobol index S_i = V_i / Var(G) from
N (D + 2) model evaluations arranged in the usual Saltelli design.

The model is evaluated in batches.  Amplitudes are carried sample-last,
as [terms, samples] arrays per fixed-photon-number sector, so one pass
through the circuit prices a chunk of sampled loss vectors at once and
every gather copies contiguous rows.  Each Kraus branch of the three
in-mixer losses is precomposed into one map (a gather of the surviving
terms, then the second mixer half restricted to the rows the herald
pattern can fire on); the resource-arm loss is folded into the first mixer
half.  The engine keeps no basis layer and no circuit of its own: the
mixer halves and the gain splitter are the amplifier's
(``scissor._mixer_halves`` and ``scissor._resource_splitter``), their
sectors, row order and blocks come from ``circuit.fock_sectors`` and
``circuit.sector_transfer_blocks``, and what it builds per pattern sits in
LRU caches; the gain only scales the g = 1 resource stages.  The
amplifier-off configuration needs no circuit: its heralds are independent
of the input and cancel, leaving the closed form tau_off^2 / 2.

One evaluation runs in three stages: the resource-stage amplitudes (gain
and resource-arm loss), the Kraus-branch walk through the in-mixer losses,
which keeps the heralded |amplitude|^2 rows of each incoherent |a, b> start
apart, and the POVM sums, which weight start (a, b) by w_in[a] w_res[b] and
each row by its detector factors.  Only the losses on the resource arm
entering the mixer and inside the mixer (``_WALKED_ROLES``) enter the walk.
The input-beam losses and the resource loss before the gain splitter enter
linearly through the start weights, the detector efficiencies through
per-row factors, and the two counting-path losses only through closed-form
scalars.  A Saltelli hybrid differs from A in one column, so
``sensitivity_sweep`` walks A, B and the hybrids whose column is in the
walk (reusing A's amplitudes unless the column is the resource arm's);
every other hybrid recombines A's per-start rows with its own weights,
factors and scalars.  It walks the design in blocks of base rows and never
forms the hybrid matrices.  Per point the values are those
``lossy_gain_model`` returns on the full design.

The bootstrap prices blocks of resamples with one matmul of draw counts.
All reductions run in a fixed order, which makes the estimates bitwise
reproducible for a given seed.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .circuit import fock_sectors, sector_transfer_blocks
from .scissor import (
    _MODES,
    _OUT_MODE,
    _QFT_MODES,
    _RESOURCE_MODE,
    SUCCESS_PATTERNS,
    _check_gain,
    _gain_factor,
    _mixer_halves,
    _resource_splitter,
)

# ---------------------------------------------------------------------------
# loss layout
# ---------------------------------------------------------------------------

#: Roles a loss variable can play, i.e. where its channel sits in the setup.
LOSS_ROLES = (
    "input_post_prep",  # input beam right after preparation (both configs)
    "input_size_path",  # input path to the counting stage (amplifier off)
    "input_pre_qft",  # input arm entering the mixer (amplifier on)
    "ancilla_post_prep",  # resource beam before the gain splitter
    "ancilla_pre_qft",  # transmitted resource arm entering the mixer
    "output_post_amp",  # amplified output before the counting stage
    "qft_internal_0",  # between the two halves of the mixer, per mode
    "qft_internal_1",
    "qft_internal_2",
    "detector_0",  # herald detector efficiencies, per mixer output
    "detector_1",
    "detector_2",
)

#: Roles whose loss enters the Kraus-branch walk; ``ancilla_pre_qft`` also
#: sets the resource-stage amplitudes the walk starts from.  Every other
#: role only reweights the walk's per-start rows or sets a closed-form
#: scalar, so a Saltelli hybrid that changes it reuses its base row's walk.
_WALKED_ROLES = ("ancilla_pre_qft", "qft_internal_0", "qft_internal_1", "qft_internal_2")

#: Report regions, matching how the loss points group in the setup.
LOSS_REGIONS = (
    "post_prep",
    "size_measurement",
    "pre_qft",
    "within_qft",
    "detection",
)


@dataclass(frozen=True)
class LossPoint:
    name: str
    region: str
    role: str

    def __post_init__(self):
        if self.region not in LOSS_REGIONS:
            raise ValueError(f"unknown region {self.region!r}")
        if self.role not in LOSS_ROLES:
            raise ValueError(f"unknown role {self.role!r}")


@dataclass(frozen=True)
class LossLayout:
    """Ordered list of loss points; several points may share a role
    (their transmissions then compose multiplicatively)."""

    points: tuple

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))

    @property
    def dims(self) -> int:
        return len(self.points)

    def role_columns(self) -> dict[str, list[int]]:
        columns: dict[str, list[int]] = {}
        for i, point in enumerate(self.points):
            columns.setdefault(point.role, []).append(i)
        return columns


def default_loss_layout() -> LossLayout:
    """The fourteen-point layout used for the reported sensitivity analysis.

    Two post-preparation points (input and resource), two on the paths to
    the photon counting stage (input-side and output-side), four on the
    arms entering the mixer, three inside the mixer, three on the herald
    detectors.
    """
    return LossLayout(
        (
            LossPoint("L1", "post_prep", "input_post_prep"),
            LossPoint("L2", "size_measurement", "input_size_path"),
            LossPoint("L3", "pre_qft", "input_pre_qft"),
            LossPoint("L4", "post_prep", "ancilla_post_prep"),
            LossPoint("L5", "pre_qft", "ancilla_pre_qft"),
            LossPoint("L6", "size_measurement", "output_post_amp"),
            LossPoint("L7", "pre_qft", "input_pre_qft"),
            LossPoint("L8", "pre_qft", "ancilla_pre_qft"),
            LossPoint("L9", "within_qft", "qft_internal_0"),
            LossPoint("L10", "within_qft", "qft_internal_1"),
            LossPoint("L11", "within_qft", "qft_internal_2"),
            LossPoint("L12", "detection", "detector_0"),
            LossPoint("L13", "detection", "detector_1"),
            LossPoint("L14", "detection", "detector_2"),
        )
    )


# ---------------------------------------------------------------------------
# batched circuit engine
#
# Modes are the amplifier's layout from scissor.py: 0 = signal, 1 = resource,
# 2 = output, 3 = vacuum port.  The mixer acts on (0, 1, 3) and comes as
# the amplifier's two tritter halves, so losses can sit between them.
# Amplitude vectors are kept sector-local (fixed total photon number, rows
# of circuit.fock_sectors) and sample-last: [terms, ..., samples], so
# gathering terms copies contiguous rows.
# ---------------------------------------------------------------------------

_BEAM_PHOTONS = 2  # the input and the resource each start as |2>
_PHOTONS = 2 * _BEAM_PHOTONS
_CHUNK = 1024  # samples per pass: keeps its few [35, _CHUNK] complex arrays in cache
_STARTS = (_BEAM_PHOTONS + 1) ** 2  # incoherent |a, b> starts, a * 3 + b


def _lowered_index(total: int, src: np.ndarray, removed) -> np.ndarray:
    """Rows in sector ``total - sum(removed)`` of the rows ``src`` of sector
    ``total`` after ``removed[m]`` photons leave mode m."""
    sectors = fock_sectors(_MODES, _PHOTONS)
    lowered = sectors[total].occupations[src] - np.asarray(removed)
    index = sectors[total - int(np.sum(removed))].index
    return np.array([index[tuple(occ)] for occ in lowered.tolist()], dtype=int)


@dataclass
class _PatternPovm:
    """Per-sector data for heralding a detector pattern with inefficiency."""

    valid: np.ndarray  # term indices compatible with the pattern
    comb: np.ndarray  # product of C(n_m, p_m) over detector modes
    excess: np.ndarray  # photons lost at each detector mode, [n_valid, 3]
    out_is_two: np.ndarray  # bool: does the term leave 2 photons in the output


@functools.lru_cache(maxsize=None)  # keyed on the three success patterns
def _build_povm(pattern: tuple) -> tuple[_PatternPovm, ...]:
    out = []
    for sector in fock_sectors(_MODES, _PHOTONS):
        occs = sector.occupations
        valid, comb, excess, out2 = [], [], [], []
        for i, occ in enumerate(occs):
            detected = [occ[m] for m in _QFT_MODES]
            if any(n < p for n, p in zip(detected, pattern)):
                continue
            valid.append(i)
            comb.append(
                math.prod(math.comb(n, p) for n, p in zip(detected, pattern))
            )
            excess.append([n - p for n, p in zip(detected, pattern)])
            out2.append(occ[_OUT_MODE] == 2)
        out.append(
            _PatternPovm(
                np.array(valid, dtype=int),
                np.array(comb, dtype=float),
                np.array(excess, dtype=int).reshape(len(valid), len(_QFT_MODES)),
                np.array(out2, dtype=bool),
            )
        )
    return tuple(out)


#: (n0, n1, n3) photon numbers the mixer modes can hold, indexing the
#: per-chunk table of sqrt(t_0)^n0 sqrt(t_1)^n1 sqrt(t_3)^n3
_MIXER_POWERS = np.array(
    [p for p in itertools.product(range(_PHOTONS + 1), repeat=len(_QFT_MODES))
     if sum(p) <= _PHOTONS]
)
_MIXER_POWER_ROW = {tuple(p): i for i, p in enumerate(_MIXER_POWERS.tolist())}


@dataclass
class _MixerBranch:
    """One in-mixer Kraus branch: k_m photons lost at mixer mode m.

    Distinct source terms stay distinct after the removal, so the branch is
    a single gather of ``src`` scaled by the kept photons' transmission
    amplitudes; the lost photons' factor prod_m (1 - t_m)^k_m multiplies the
    heralded weight.  The destination columns, with their sqrt(C(n, k))
    factors, are folded into the second mixer half, kept only on the rows
    the pattern can herald.
    """

    lost: tuple  # (k0, k1, k3)
    src: np.ndarray  # surviving source terms in the starting sector
    power_rows: np.ndarray  # _MIXER_POWERS row of n_m - k_m per source term
    h2: np.ndarray  # [n_valid(end), n_src]
    end: int  # sector after the branch


@functools.lru_cache(maxsize=None)
def _mixer_blocks() -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Sector blocks of the mixer's two element halves on the engine modes."""
    return tuple(sector_transfer_blocks(half, _PHOTONS) for half in _mixer_halves())


@functools.lru_cache(maxsize=None)  # keyed on the three success patterns
def _mixer_branches(pattern: tuple) -> tuple[tuple[_MixerBranch, ...], ...]:
    """Heraldable in-mixer branches of ``pattern``, per starting sector."""
    povm = _build_povm(pattern)
    h2_blocks = _mixer_blocks()[1]
    out = []
    for total, sector in enumerate(fock_sectors(_MODES, _PHOTONS)):
        mixer_occ = sector.occupations[:, _QFT_MODES]
        branches = []
        for lost in itertools.product(range(total + 1), repeat=len(_QFT_MODES)):
            end = total - sum(lost)
            if end < 0 or povm[end].valid.size == 0:
                continue
            src = np.flatnonzero(np.all(mixer_occ >= lost, axis=1))
            removed = np.zeros(_MODES, dtype=int)
            removed[list(_QFT_MODES)] = lost
            dst = _lowered_index(total, src, removed)
            occ = mixer_occ[src].tolist()
            comb_sqrt = np.sqrt(
                [math.prod(math.comb(n, k) for n, k in zip(o, lost)) for o in occ]
            )
            kept = [tuple(n - k for n, k in zip(o, lost)) for o in occ]
            branches.append(
                _MixerBranch(
                    lost=lost,
                    src=src,
                    power_rows=np.array([_MIXER_POWER_ROW[p] for p in kept]),
                    h2=h2_blocks[end][np.ix_(povm[end].valid, dst)] * comb_sqrt,
                    end=end,
                )
            )
        out.append(tuple(branches))
    return tuple(out)


@dataclass
class _ResourceStage:
    """Every |a, b, 0, 0> start that reaches one sector of the first mixer
    half: through the g = 1 gain splitter, k resource photons lost, then
    the mixer half.  Start c enters the mixer as ``matrix[c] @ sqrt(t)^p``,
    p = 0, 1, 2 resource photons kept, times sqrt(1 - t)^k, t being the
    resource-arm transmission.  The sector fixes k = a + b - sector, so
    each (a, b) appears at most once per stage."""

    start: np.ndarray  # per start: a * 3 + b, its row in the walk's output
    b: np.ndarray
    k: np.ndarray
    reflected: np.ndarray  # [starts, 3]: j = b - k - p, or 0 if p > b - k
    matrix: np.ndarray  # [starts, d_mid, 3]


def _resource_stages(mixer: tuple) -> list:
    """Resource stages at g = 1 for every heraldable mixer sector.

    The splitter output does not depend on the sample, so the resource
    loss's lowering, the base vector and the first mixer half compose
    into one fixed matrix per start.
    """
    sectors = fock_sectors(_MODES, _PHOTONS)
    h1 = _mixer_blocks()[0]
    split_blocks = sector_transfer_blocks(_resource_splitter(), _PHOTONS)
    kept_photons = np.eye(_BEAM_PHOTONS + 1)
    starts = [[] for _ in range(_PHOTONS + 1)]
    for a in range(_BEAM_PHOTONS + 1):
        for b in range(_BEAM_PHOTONS + 1):
            total = a + b
            base = split_blocks[total][:, sectors[total].index[(a, b, 0, 0)]]
            n_res = sectors[total].occupations[:, _RESOURCE_MODE]
            for k in range(b + 1):
                mid = total - k
                if not mixer[mid]:
                    continue
                src = np.flatnonzero((base != 0.0) & (n_res >= k))
                removed = np.zeros(_MODES, dtype=int)
                removed[_RESOURCE_MODE] = k
                dst = _lowered_index(total, src, removed)
                comb_sqrt = np.sqrt([math.comb(int(n), k) for n in n_res[src]])
                columns = h1[mid][:, dst] * (base[src] * comb_sqrt)
                # gather the columns by the resource photons each term keeps
                matrix = columns @ kept_photons[n_res[src] - k]
                starts[mid].append((a, b, k, matrix))

    stages = [None] * (_PHOTONS + 1)
    for mid, group in enumerate(starts):
        if group:
            a, b, k, matrix = map(np.array, zip(*group))
            reflected = np.maximum((b - k)[:, None] - np.arange(_BEAM_PHOTONS + 1), 0)
            start = a * (_BEAM_PHOTONS + 1) + b
            stages[mid] = _ResourceStage(start, b, k, reflected, matrix)
    return stages


@functools.lru_cache(maxsize=None)  # keyed on the three success patterns
def _engine_context(pattern: tuple) -> tuple:
    """(resource stages, mixer branches, POVM) of ``pattern``, per sector."""
    mixer = _mixer_branches(pattern)
    return _resource_stages(mixer), mixer, _build_povm(pattern)


def _power_table(t: np.ndarray, max_power: int = _PHOTONS) -> np.ndarray:
    """[max_power + 1, samples] table of t^n."""
    table = np.empty((max_power + 1, t.shape[0]))
    table[0] = 1.0
    for n in range(1, max_power + 1):
        table[n] = table[n - 1] * t
    return table


def _resource_amplitudes(pattern, g, t_anc):
    """Per mixer sector, each start's [starts, d_mid, samples] amplitudes
    after the gain splitter at ``g``, the resource-arm loss ``t_anc`` (per
    sample) and the first mixer half; None where no start arrives."""
    s_anc = _power_table(np.sqrt(t_anc), _BEAM_PHOTONS)
    s_anc_m = _power_table(np.sqrt(1.0 - t_anc), _BEAM_PHOTONS)
    amplitudes = []
    for stage in _engine_context(pattern)[0]:
        if stage is None:
            amplitudes.append(None)
            continue
        split = _gain_factor(g, stage.b[:, None] - stage.reflected, stage.reflected)
        loss = s_anc * s_anc_m[stage.k][:, None, :]
        amplitudes.append(stage.matrix @ (loss * split[:, :, None]))
    return amplitudes


def _branch_walk(pattern, amplitudes, t_internal):
    """The Kraus-branch walk: heralded rows of every incoherent start.

    Takes the resource-stage ``amplitudes`` through every heraldable branch
    of the in-mixer losses ``t_internal`` (per-sample transmissions) and
    the second mixer half.  Returns, per sector, [_STARTS, n_valid, samples]
    sums of |amplitude|^2, row a * 3 + b holding the |a, b> start's share
    before its photon-number weight w_in[a] w_res[b] or any detector factor.
    """
    resource, mixer, povms = _engine_context(pattern)
    n = t_internal[0].shape[0]
    s_int = [_power_table(np.sqrt(t)) for t in t_internal]
    kept = s_int[0][_MIXER_POWERS[:, 0]] * s_int[1][_MIXER_POWERS[:, 1]]
    kept *= s_int[2][_MIXER_POWERS[:, 2]]
    lost = [_power_table(1.0 - t) for t in t_internal]

    heralded = [np.zeros((_STARTS, povm.valid.size, n)) for povm in povms]
    for stage, amp, branches in zip(resource, amplitudes, mixer):
        if stage is None:
            continue
        ends = {}  # the stage's rows per end sector, scattered once
        for branch in branches:
            picked = amp[:, branch.src]
            picked *= kept[branch.power_rows]
            final = branch.h2 @ picked
            weight = final.real**2 + final.imag**2
            k0, k1, k2 = branch.lost
            weight *= lost[0][k0] * lost[1][k1] * lost[2][k2]
            if branch.end in ends:
                ends[branch.end] += weight
            else:
                ends[branch.end] = weight
        for end, weight in ends.items():
            heralded[end][stage.start] += weight
    return heralded


def _povm_sums(pattern, heralded, w_in, w_res, t_detect):
    """(pattern probability, conditional rho_22 numerator), amplifier on.

    ``heralded`` is the walk's output; ``w_in`` / ``w_res`` are [3, samples]
    photon-number weights of the input and resource beams entering the
    circuit and ``t_detect`` the per-sample detector efficiencies.
    """
    n = w_in.shape[1]
    start_weight = (w_in[:, None, :] * w_res[None, :, :]).reshape(_STARTS, n)
    det_t = [_power_table(t) for t in t_detect]
    det_omt = [_power_table(1.0 - t) for t in t_detect]
    p_pattern = np.zeros(n)
    rho22 = np.zeros(n)
    for povm, rows in zip(_build_povm(pattern), heralded):
        factor = povm.comb[:, None] * det_omt[0][povm.excess[:, 0]]
        for m in (1, 2):
            factor *= det_omt[m][povm.excess[:, m]]
        weighted = np.einsum("svn,sn->vn", rows, start_weight) * factor
        p_pattern += weighted.sum(axis=0)
        rho22 += weighted[povm.out_is_two].sum(axis=0)
    common = math.prod(det_t[m][p] for m, p in enumerate(pattern))
    return common * p_pattern, common * rho22


def _pair_weights(transmission: np.ndarray) -> np.ndarray:
    """[3, samples] photon-number weights of |2> after a loss channel."""
    t = transmission
    return np.stack([(1.0 - t) ** 2, 2.0 * t * (1.0 - t), t * t])


def _role_transmission(tr: np.ndarray, columns: dict, role: str) -> np.ndarray:
    out = np.ones(tr.shape[1])
    for c in columns.get(role, []):
        out = out * tr[c]
    return out


def _transmissions(losses: np.ndarray) -> np.ndarray:
    """[dims, samples] transmissions of a [samples, dims] batch of losses."""
    return np.ascontiguousarray((1.0 - losses).T)


def _gain_from_walk(pattern, tau, roles: dict, heralded) -> np.ndarray:
    """The measured gain from the walk's rows and every role's transmission."""
    # amplifier on: input crosses its post-prep and pre-mixer losses, the
    # output crosses the post-amplification loss before being counted
    tau_on = tau * roles["input_post_prep"] * roles["input_pre_qft"]
    p2_on, rho22_on = _povm_sums(
        pattern,
        heralded,
        _pair_weights(tau_on),
        _pair_weights(roles["ancilla_post_prep"]),
        [roles[f"detector_{i}"] for i in range(3)],
    )
    ratio_on = 0.5 * roles["output_post_amp"] ** 2 * rho22_on / p2_on

    # amplifier off: the input goes straight to the counting stage, so the
    # heralds of the resource-only circuit are independent of it and cancel
    # exactly, leaving the input's own coincidence rate
    tau_off = tau * roles["input_post_prep"] * roles["input_size_path"]
    ratio_off = 0.5 * tau_off**2

    return ratio_on / ratio_off


def _mixer_transmissions(roles: dict) -> list:
    return [roles[f"qft_internal_{m}"] for m in range(3)]


def _evaluate_batch(
    g: float,
    tau: float,
    losses: np.ndarray,
    layout: LossLayout,
    pattern: tuple,
) -> np.ndarray:
    columns = layout.role_columns()
    tr = _transmissions(losses)
    roles = {role: _role_transmission(tr, columns, role) for role in LOSS_ROLES}
    amplitudes = _resource_amplitudes(pattern, g, roles["ancilla_pre_qft"])
    heralded = _branch_walk(pattern, amplitudes, _mixer_transmissions(roles))
    return _gain_from_walk(pattern, tau, roles, heralded)


def _check_model_arguments(g: float, tau: float, pattern) -> tuple:
    """Validate the gain, the channel and the pattern; return the pattern."""
    pattern = tuple(int(p) for p in pattern)
    if pattern not in SUCCESS_PATTERNS:
        raise ValueError(f"{pattern} is not a success pattern {SUCCESS_PATTERNS}")
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"transmission must be in (0, 1], got {tau}")
    _check_gain(g)
    return pattern


def _check_losses(arr: np.ndarray) -> None:
    if np.any(~((arr >= 0.0) & (arr <= 1.0))):  # NaN fails both
        raise ValueError("loss fractions must lie in [0, 1]")


def lossy_gain_model(
    g: float,
    tau: float,
    losses: Sequence[float] | np.ndarray,
    layout: LossLayout | None = None,
    pattern: Sequence[int] = (1, 1, 0),
) -> float | np.ndarray:
    """Measured two-photon gain with losses inserted across the setup.

    ``losses`` is either a single loss vector (length = layout size, each
    entry in [0, 1]) or a batch of them stacked along the first axis.  With
    all losses zero this reduces exactly to the closed-form gain N g^4.
    """
    if layout is None:
        layout = default_loss_layout()
    pattern = _check_model_arguments(g, tau, pattern)
    arr = np.asarray(losses, dtype=float)
    scalar = arr.ndim == 1
    if scalar:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != layout.dims:
        raise ValueError(
            f"loss vectors must have {layout.dims} entries, got shape {arr.shape}"
        )
    _check_losses(arr)
    out = np.empty(arr.shape[0])
    for start in range(0, arr.shape[0], _CHUNK):
        block = arr[start : start + _CHUNK]
        out[start : start + _CHUNK] = _evaluate_batch(
            g, tau, block, layout, pattern
        )
    return float(out[0]) if scalar else out


def make_gain_model(
    g: float,
    tau: float,
    layout: LossLayout | None = None,
    pattern: Sequence[int] = (1, 1, 0),
) -> Callable[[np.ndarray], np.ndarray]:
    """Batched loss -> gain callable for the sensitivity estimator."""

    def model(losses: np.ndarray) -> np.ndarray:
        return lossy_gain_model(g, tau, losses, layout=layout, pattern=pattern)

    return model


# ---------------------------------------------------------------------------
# Saltelli sampling and first-order index estimation
# ---------------------------------------------------------------------------

DEFAULT_LOSS_RANGE = (0.0, 0.5)

#: bytes of one block of bootstrap draw counts (float64 [resamples, n_base])
_BOOTSTRAP_BLOCK_BYTES = 4 << 20


def _base_samples(
    n_base: int, dims: int, seed: int, bounds: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """The design's base matrices A and B, each (n_base, dims)."""
    if n_base < 2:
        raise ValueError("need at least 2 base samples")
    if dims < 1:
        raise ValueError("need at least one input dimension")
    lo, hi = bounds
    if not hi > lo:
        raise ValueError(f"empty sampling range {bounds}")
    rng = np.random.default_rng(seed)
    a = rng.uniform(lo, hi, size=(n_base, dims))
    b = rng.uniform(lo, hi, size=(n_base, dims))
    return a, b


def saltelli_sample(
    n_base: int,
    dims: int,
    seed: int,
    bounds: tuple[float, float] = DEFAULT_LOSS_RANGE,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample matrices A, B and the column-swapped hybrids A_B^(i).

    A and B are independent uniform draws on ``bounds`` of shape
    (n_base, dims); the i-th hybrid equals A with column i replaced by B's.
    Evaluating a model on all of them costs n_base * (dims + 2) calls.
    Deterministic for a fixed seed.
    """
    a, b = _base_samples(n_base, dims, seed, bounds)
    hybrids = np.empty((dims, n_base, dims))
    for i in range(dims):
        hybrids[i] = a
        hybrids[i][:, i] = b[:, i]
    return a, b, hybrids


@dataclass
class SobolResult:
    """First-order indices with bootstrap confidence half-widths."""

    indices: np.ndarray
    ci: np.ndarray
    n_base: int
    evaluations: int


def _evaluate_model(model, points: np.ndarray, vectorized: bool) -> np.ndarray:
    if vectorized:
        return np.asarray(model(points), dtype=float)
    return np.array([float(model(p)) for p in points])


def first_order_indices(
    model: Callable,
    n_base: int,
    seed: int,
    dims: int = 14,
    bounds: tuple[float, float] = DEFAULT_LOSS_RANGE,
    vectorized: bool = False,
    bootstrap_resamples: int = 1000,
) -> SobolResult:
    """Estimate first-order Sobol indices of ``model`` by Saltelli sampling.

    The estimator is V_i = mean(f(B) * (f(A_B^i) - f(A))), normalized by the
    sample variance of all evaluations.  Confidence half-widths (95%) come
    from a paired bootstrap over sample rows.  Identical seeds give bitwise
    identical results.
    """
    a, b, hybrids = saltelli_sample(n_base, dims, seed, bounds)
    f_a = _evaluate_model(model, a, vectorized)
    f_b = _evaluate_model(model, b, vectorized)
    f_hyb = np.stack(
        [_evaluate_model(model, hybrids[i], vectorized) for i in range(dims)]
    )
    return _indices_from_values(f_a, f_b, f_hyb, seed, bootstrap_resamples)


def _indices_from_values(
    f_a: np.ndarray,
    f_b: np.ndarray,
    f_hyb: np.ndarray,
    seed: int,
    bootstrap_resamples: int,
) -> SobolResult:
    """The Saltelli et al. (2010) estimator on the design's model values:
    f(A) and f(B) of shape (n_base,), f(A_B^i) of shape (dims, n_base)."""
    dims, n_base = f_hyb.shape
    all_values = np.concatenate([f_a[None, :], f_b[None, :], f_hyb], axis=0)
    mean_all = float(all_values.mean())
    variance = float(np.var(all_values, ddof=1))
    if not np.isfinite(variance) or variance <= 0.0:
        raise ValueError(
            "model output has zero variance over the sampled inputs; "
            "first-order indices are undefined"
        )

    # evaluations are centered on the overall mean first: the estimator is
    # shift invariant in expectation, and centering removes most of the
    # mean-level sampling noise from the cross products
    diff = f_hyb - f_a[None, :]  # [dims, n], independent of the centering
    cross = (f_b - mean_all)[None, :] * diff
    indices = cross.mean(axis=1) / variance

    # paired bootstrap over rows.  A resample's sums are its per-row draw
    # counts times the per-row statistics, so a block of resamples costs one
    # matmul; the draws are the same rng.integers call per resample, in the
    # same order, as a resample-at-a-time loop
    rng = np.random.default_rng([int(seed), 0xB00])
    total = all_values.shape[0] * n_base
    stats = np.vstack(
        [
            f_b[None, :] * diff,
            diff,
            all_values.sum(axis=0),
            (all_values**2).sum(axis=0),
        ]
    ).T  # [n_base, 2 dims + 2]
    block = max(1, _BOOTSTRAP_BLOCK_BYTES // (8 * n_base))
    boot = np.zeros((bootstrap_resamples, dims))
    for start in range(0, bootstrap_resamples, block):
        counts = np.empty((min(block, bootstrap_resamples - start), n_base))
        for row in counts:
            draw = rng.integers(0, n_base, size=n_base)
            row[:] = np.bincount(draw, minlength=n_base)
        sums = counts @ stats
        mean_r = sums[:, 2 * dims] / total
        mean_sq_r = sums[:, 2 * dims + 1] / total
        var_r = (mean_sq_r - mean_r**2) * total / (total - 1)
        keep = ~(var_r <= 0.0)  # a degenerate resample contributes 0
        boot[start : start + counts.shape[0]][keep] = (
            sums[keep, :dims] / n_base
            - mean_r[keep, None] * (sums[keep, dims : 2 * dims] / n_base)
        ) / var_r[keep, None]
    ci = 1.96 * boot.std(axis=0, ddof=1)

    return SobolResult(
        indices=indices,
        ci=ci,
        n_base=n_base,
        evaluations=n_base * (dims + 2),
    )


@dataclass
class SweepEntry:
    g: float
    result: SobolResult


def _design_block(
    g: float,
    tau: float,
    a: np.ndarray,
    b: np.ndarray,
    layout: LossLayout,
    pattern: tuple,
) -> np.ndarray:
    """[dims + 2, rows]: f(A), f(B) and each f(A_B^i) on a block of base rows.

    A hybrid differs from A in one column, so it shares every role but that
    column's with A.  Only a column whose role is in ``_WALKED_ROLES`` needs
    the Kraus-branch walk; it reuses A's resource-stage amplitudes unless its
    role is the resource arm's.  Any other hybrid recombines A's heralded
    rows with its own weights, detector factors and scalars.
    """
    columns = layout.role_columns()
    tr_a, tr_b = _transmissions(a), _transmissions(b)
    roles_a = {role: _role_transmission(tr_a, columns, role) for role in LOSS_ROLES}
    amplitudes_a = _resource_amplitudes(pattern, g, roles_a["ancilla_pre_qft"])
    heralded_a = _branch_walk(pattern, amplitudes_a, _mixer_transmissions(roles_a))

    out = np.empty((layout.dims + 2, a.shape[0]))
    out[0] = _gain_from_walk(pattern, tau, roles_a, heralded_a)
    out[1] = _evaluate_batch(g, tau, b, layout, pattern)
    for i, point in enumerate(layout.points):
        tr = tr_a.copy()
        tr[i] = tr_b[i]
        roles = {**roles_a, point.role: _role_transmission(tr, columns, point.role)}
        heralded = heralded_a
        if point.role in _WALKED_ROLES:
            amplitudes = amplitudes_a
            if point.role == "ancilla_pre_qft":
                amplitudes = _resource_amplitudes(pattern, g, roles[point.role])
            heralded = _branch_walk(pattern, amplitudes, _mixer_transmissions(roles))
        out[2 + i] = _gain_from_walk(pattern, tau, roles, heralded)
    return out


def sensitivity_sweep(
    g_grid: Sequence[float],
    tau: float = 0.05,
    n_base: int = 3840,
    seed: int = 0,
    bounds: tuple[float, float] = DEFAULT_LOSS_RANGE,
    layout: LossLayout | None = None,
    pattern: Sequence[int] = (1, 1, 0),
    bootstrap_resamples: int = 1000,
) -> tuple[LossLayout, list[SweepEntry]]:
    """First-order indices of the loss model at each gain on the grid.

    The same seed (hence the same loss samples) is reused at every gain so
    the per-variable curves are directly comparable across g.  The values
    are those of ``first_order_indices`` on ``make_gain_model``; the design
    is evaluated in blocks of base rows without forming its hybrids.
    """
    if layout is None:
        layout = default_loss_layout()
    a, b = _base_samples(n_base, layout.dims, seed, bounds)
    _check_losses(a)
    _check_losses(b)
    entries = []
    for g in g_grid:
        g = float(g)
        pattern = _check_model_arguments(g, tau, pattern)
        values = np.empty((layout.dims + 2, n_base))
        for start in range(0, n_base, _CHUNK):
            rows = slice(start, start + _CHUNK)
            values[:, rows] = _design_block(g, tau, a[rows], b[rows], layout, pattern)
        result = _indices_from_values(
            values[0], values[1], values[2:], seed, bootstrap_resamples
        )
        entries.append(SweepEntry(g=g, result=result))
    return layout, entries
