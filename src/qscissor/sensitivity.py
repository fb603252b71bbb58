"""Loss-sensitivity model and variance-based (Sobol) analysis.

``lossy_gain_model`` evolves the gain-measurement experiment through the
full circuit with a pure-loss channel inserted at each of fourteen tagged
locations and returns the conditioned two-photon intensity ratio, i.e. the
gain an experimenter would actually measure.  ``first_order_indices``
estimates each location's first-order Sobol index S_i = V_i / Var(G) from
N (D + 2) model evaluations arranged in the usual Saltelli design.

The model is evaluated in batches.  Per-sample quantities are carried
sample-last, as [rows, samples] arrays, so one pass through the circuit
prices a chunk of sampled loss vectors at once.  Before |.|^2 every
heralded amplitude is linear in a few real monomials of the per-sample
transmissions, sqrt(t)^n for the photons n each loss lets through.
``_walk_matrix`` walks each |a, b> start through the g = 1 gain splitter,
the resource-arm loss, the first mixer half, the three in-mixer losses and
the second half, keeping each Kraus branch as sparse (sector row,
monomial, coefficient) terms.  The splitter and the halves are the
amplifier's (``scissor``) and act through their ``circuit`` sector blocks;
every loss is the one pure-loss step ``_lose``, whose branch k lowers the
loss's mode by k photons, scales by sqrt(C(n, k)) and gives the loss's
sqrt(t) the power n - k.  Kept on the rows the pattern can herald, the
branches form one fixed complex matrix per pattern, cached: one row per
start, branch and heraldable output, one column per monomial.  A walk
builds the chunk's monomials, takes one real matmul, squares, and weights
each row by its lost photons.  The output row a row ends on fixes the
resource photons the gain splitter reflected, so all its terms share one
(transmitted, reflected) splitter class and a gain scales its weight by
one factor: the walk runs at g = 1, and a gain is a sum over the six
classes.  The amplifier-off configuration needs no circuit.

One evaluation runs in two g-free stages: the Kraus-branch walk through
the gain splitter, the resource-arm loss and the in-mixer losses, and the
POVM sums, which weight each row by its start's w_in[a] w_res[b] and its
detector factors and add the rows per splitter class.  Only the losses on
the resource arm entering the mixer and inside it (``_WALKED_ROLES``)
enter the walk.  The input-beam losses and the resource loss before the
gain splitter enter through the start weights, the detector efficiencies
through per-row factors, and the two counting-path losses only through
closed-form scalars.  A Saltelli hybrid differs from A in one column, so
``sensitivity_sweep`` redoes for it only the stage that column's role
enters and takes the rest from A: it walks A, B and the hybrids whose
column is in the walk; a start-weight or detector hybrid sums A's rows
with its own start weights or detector factors, and a counting-path
hybrid keeps A's sums.  It walks the design in blocks of base rows, once
for all the gains that share a bootstrap pass, folds each point's sums
into every one of them, and never forms the hybrid matrices.  Per point
the values are those ``lossy_gain_model`` returns on the full design.

Each call of ``_design_values`` or ``lossy_gain_model`` makes one flat
buffer, freed before the bootstrap pass, and ``_chunks`` views it as each
chunk's ``_Work`` arrays: an array of a chunk's width is mapped fresh from
the system, so a walk that allocated its own would spend much of its time
in page faults.

The bootstrap prices blocks of resamples with one matmul of draw counts
per model.  The draws depend only on the seed, the number of base samples
and the number of resamples, so the sweep makes them once per group of
gains: consecutive gains whose bootstrap inputs fit one fixed budget share
a pass, which bounds its memory by the group, not by the grid.  The
estimator empties the group's list of design values as it reduces it, so
each gain's values are freed once its per-row statistics exist.  One helper
thread makes every draw of a pass, in order, a block ahead of the matmuls,
into one compact block of counts (uint16 up to 65,535 base samples: at
most 1 MiB, a quarter of the float64 block the matmuls copy it into); no
bit depends on the thread, and it ends with the pass.  All reductions run
in a fixed order, which makes the estimates bitwise reproducible for a
given seed, whichever gains share a pass.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import threading
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .circuit import fock_sectors, sector_rank, sector_transfer_blocks
from .scissor import (
    _MAX_GAIN,
    _MODES,
    _OUT_MODE,
    _QFT_MODES,
    _RESOURCE_MODE,
    _RESOURCE_PHOTONS,
    _check_gain,
    _check_pattern,
    _check_point,
    _check_transmission,
    _gain_factor,
    _mixer_halves,
    _resource_splitter,
)

# ---------------------------------------------------------------------------
# loss layout
# ---------------------------------------------------------------------------


class LossPoint(NamedTuple):
    """One sampled loss: its name, its report region and its role, i.e. where
    its channel sits in the setup."""

    name: str
    region: str
    role: str


#: The fourteen loss points of the reported sensitivity analysis, in design
#: column order.  Points that share a role compose multiplicatively.
LOSS_POINTS = (
    LossPoint("L1", "post_prep", "input_post_prep"),  # input beam after preparation
    LossPoint("L2", "size_measurement", "input_size_path"),  # input to counting (off)
    LossPoint("L3", "pre_qft", "input_pre_qft"),  # input arm entering the mixer (on)
    LossPoint("L4", "post_prep", "ancilla_post_prep"),  # resource before the splitter
    LossPoint("L5", "pre_qft", "ancilla_pre_qft"),  # resource arm entering the mixer
    LossPoint("L6", "size_measurement", "output_post_amp"),  # output to counting
    LossPoint("L7", "pre_qft", "input_pre_qft"),
    LossPoint("L8", "pre_qft", "ancilla_pre_qft"),
    LossPoint("L9", "within_qft", "qft_internal_0"),  # between the mixer halves
    LossPoint("L10", "within_qft", "qft_internal_1"),
    LossPoint("L11", "within_qft", "qft_internal_2"),
    LossPoint("L12", "detection", "detector_0"),  # herald detector efficiencies
    LossPoint("L13", "detection", "detector_1"),
    LossPoint("L14", "detection", "detector_2"),
)

#: Each role's design columns.
_ROLE_COLUMNS = {
    role: [i for i, point in enumerate(LOSS_POINTS) if point.role == role]
    for role in dict.fromkeys(point.role for point in LOSS_POINTS)
}

# Every role falls in exactly one of four classes, by the stage of one
# evaluation its loss enters; a Saltelli hybrid that changes one role redoes
# only that stage and the ones after it, and takes the rest from its base row.

#: Roles whose loss enters the Kraus-branch walk: the resource arm entering
#: the mixer and the three losses inside it.
_WALKED_ROLES = ("ancilla_pre_qft", "qft_internal_0", "qft_internal_1", "qft_internal_2")
#: Roles that set the photon-number weights of the walk's incoherent starts.
_START_WEIGHT_ROLES = ("input_post_prep", "input_pre_qft", "ancilla_post_prep")
#: Roles that set the per-row detector factors of the POVM sums.
_DETECTOR_ROLES = ("detector_0", "detector_1", "detector_2")
#: Roles that enter only the closed-form scalars of the measured ratio.
_SCALAR_ROLES = ("input_size_path", "output_post_amp")


# ---------------------------------------------------------------------------
# batched circuit engine, on the amplifier's modes (scissor's layout at N = 2:
# the mixer on 0, 1 and 3, as two tritter halves); tables are built sector by
# sector (rows of circuit.fock_sectors).  The loss model holds only at N = 2:
# its input and resource beams are |2> (``_pair_weights`` gives their three
# photon-number rows, which ``_start_weights`` reshapes to ``_STARTS`` rows
# only at N = 2), and its 14 loss points are the N = 2 layout.
# ---------------------------------------------------------------------------

_PHOTONS = 2 * _RESOURCE_PHOTONS  # the input and the resource each start as |2>
#: samples per pass; a chunk's working arrays (``_Work``), the largest the
#: walk's real [110, _CHUNK] matmul, take about 4 MB together
_CHUNK = 1024
_STARTS = (_RESOURCE_PHOTONS + 1) ** 2  # incoherent |a, b> starts, a * (N + 1) + b

#: Modes of the walked losses, one slot each in the order of ``_WALKED_ROLES``:
#: the resource arm entering the mixer, then the mixer modes between its halves.
_WALKED_MODES = (_RESOURCE_MODE, *_QFT_MODES)
#: A slot keeps at most _PHOTONS photons, so a monomial's powers fit one
#: base-_BASE digit per slot.
_BASE = _PHOTONS + 1
_COMB = np.array([[math.comb(n, k) for k in range(_BASE)] for n in range(_BASE)], float)


class _Branch(NamedTuple):
    """One Kraus branch of the walk from one |a, b, 0, 0> start.

    Its amplitude is a sum of terms, each a coefficient times one row of its
    sector times the monomial prod_s sqrt(t_s)^p_s of the walked slots'
    transmissions, keyed sum_s p_s _BASE^s.  Its |amplitude|^2 is weighted
    by the photons each slot lost, prod_s (1 - t_s)^k_s.
    """

    start: int  # a * (N + 1) + b
    lost: tuple  # k_s of the slots walked so far
    photons: int  # its sector
    rows: np.ndarray  # [terms]
    keys: np.ndarray  # [terms]
    coefs: np.ndarray  # [terms], complex


def _lose(branch: _Branch, slot: int, k: int) -> _Branch:
    """Kraus branch k of the pure loss at walked ``slot``.

    A term with n >= k photons on the slot's mode keeps n - k of them: its
    row is lowered by k, its coefficient gains sqrt(C(n, k)) and its key the
    power n - k of sqrt(t_slot).  The slot held no power before, so distinct
    terms stay distinct and need no summing.
    """
    mode = _WALKED_MODES[slot]
    occupations = fock_sectors(_MODES, _PHOTONS)[branch.photons][branch.rows]
    n = occupations[:, mode]
    keep = n >= k
    lowered, n = occupations[keep], n[keep]
    lowered[:, mode] -= k
    return _Branch(
        branch.start,
        branch.lost + (k,),
        branch.photons - k,
        sector_rank(lowered),
        branch.keys[keep] + (n - k) * _BASE**slot,
        branch.coefs[keep] * np.sqrt(_COMB[n, k]),
    )


def _evolve(branch: _Branch, blocks) -> _Branch:
    """``branch`` through the one of the sector ``blocks`` for its photon
    number; the rows of the result are that block's rows."""
    keys = np.flatnonzero(np.bincount(branch.keys))  # np.unique, faster on small keys
    column = np.searchsorted(keys, branch.keys)
    block = blocks[branch.photons]
    state = np.zeros((block.shape[1], keys.size), dtype=complex)
    state[branch.rows, column] = branch.coefs
    out = block @ state
    rows, columns = np.nonzero(out)
    return branch._replace(rows=rows, keys=keys[columns], coefs=out[rows, columns])


class _WalkMatrix(NamedTuple):
    """The heralded amplitudes of one pattern as one matrix over loss monomials.

    Before |.|^2 every heralded amplitude is linear in the per-sample
    monomials prod_s sqrt(t_s)^p_s, p_s the photons kept at walked slot s.
    A row is one Kraus branch of one start's walk at g = 1, ending on one
    row the pattern can herald; a column is one monomial some row uses.  A
    row's |amplitude|^2 is weighted by the photons it lost, prod_s
    (1 - t_s)^k_s, and at gain g by ``_gain_factor(g, n, j)**2``,
    (n, j) = (b - j, j) its splitter class, j the photons it reflected.
    """

    parts: np.ndarray  # [2, rows, columns]: real and imaginary parts
    kept: np.ndarray  # [columns, 4]: powers of sqrt(t_s) per walked slot
    lost: np.ndarray  # [kinds, 4]: powers of 1 - t_s per walked slot
    lost_kind: np.ndarray  # [rows]: each row's row of ``lost``
    start: np.ndarray  # [rows]: the row's |a, b> start, a * (N + 1) + b
    povm_row: np.ndarray  # [rows]: its row in the POVM rows of every sector
    detected: np.ndarray  # [povm rows, 6]: powers of t_m, then 1 - t_m per detector
    classes: np.ndarray  # [classes, 2]: (transmitted, reflected) splitter photons
    select: np.ndarray  # [2 classes, rows]: C(n, p) on the row's class, for p2,
    # then for rho22 on the rows that leave N photons in the output


@functools.lru_cache(maxsize=None)  # keyed on the three success patterns
def _walk_matrix(pattern: tuple) -> _WalkMatrix:
    """The read-only g-free ``_WalkMatrix`` of ``pattern``.

    Every |a, b, 0, 0> start crosses the g = 1 gain splitter, the
    resource-arm loss, the first mixer half, the three in-mixer losses and
    the second half, kept on the POVM rows: those with at least p_m photons
    at each detector m.  A branch is dropped once it holds fewer photons
    than the pattern heralds.
    """
    sectors = fock_sectors(_MODES, _PHOTONS)
    povm = [
        np.flatnonzero(np.all(sector[:, _QFT_MODES] >= pattern, axis=1))
        for sector in sectors
    ]
    first, second = (sector_transfer_blocks(half, _PHOTONS) for half in _mixer_halves())

    def lose(branches, slot):
        lost = (
            _lose(branch, slot, k)
            for branch in branches
            for k in range(branch.photons - sum(pattern) + 1)
        )
        return [branch for branch in lost if branch.rows.size]

    pairs = list(itertools.product(range(_RESOURCE_PHOTONS + 1), repeat=2))
    starts = np.zeros((_STARTS, _MODES), dtype=int)
    starts[:, :2] = pairs  # |a, b, 0, 0>, start a * (N + 1) + b
    rows = sector_rank(starts)[:, None]
    branches = [
        _Branch(s, (), a + b, rows[s], np.zeros(1, dtype=int), np.ones(1, dtype=complex))
        for s, (a, b) in enumerate(pairs)
    ]
    splitter = sector_transfer_blocks(_resource_splitter(_MODES), _PHOTONS)
    branches = [_evolve(branch, splitter) for branch in branches]
    branches = [_evolve(branch, first) for branch in lose(branches, 0)]
    for slot in range(1, len(_WALKED_MODES)):
        branches = lose(branches, slot)
    heralded = [block[rows] for block, rows in zip(second, povm)]
    branches = [_evolve(branch, heralded) for branch in branches]

    # one row per branch and POVM row it ends on, one column per monomial
    offsets = np.cumsum([0] + [rows.size for rows in povm])
    term_branch = np.repeat(np.arange(len(branches)), [b.rows.size for b in branches])
    term_row = np.concatenate([offsets[b.photons] + b.rows for b in branches])
    ids, row = np.unique(term_branch * offsets[-1] + term_row, return_inverse=True)
    row_branch, povm_row = np.divmod(ids, offsets[-1])
    keys = np.concatenate([b.keys for b in branches])
    keys, column = np.unique(keys, return_inverse=True)
    matrix = np.zeros((ids.size, keys.size), dtype=complex)
    matrix[row, column] = np.concatenate([b.coefs for b in branches])

    start = np.array([b.start for b in branches])[row_branch]
    lost, lost_kind = np.unique(
        np.array([b.lost for b in branches])[row_branch], axis=0, return_inverse=True
    )
    occupations = np.concatenate([s[r] for s, r in zip(sectors, povm)])
    detected = occupations[:, _QFT_MODES]
    comb = _COMB[detected, pattern].prod(axis=1)[povm_row]
    # the output mode holds the photons the gain splitter reflected
    reflected = occupations[povm_row, _OUT_MODE]
    full = reflected == _RESOURCE_PHOTONS  # the rows of rho22
    split = np.column_stack([start % (_RESOURCE_PHOTONS + 1) - reflected, reflected])
    classes, row_class = np.unique(split, axis=0, return_inverse=True)
    in_class = row_class.ravel() == np.arange(len(classes))[:, None]
    walk = _WalkMatrix(
        parts=np.stack([matrix.real, matrix.imag]),
        kept=keys[:, None] // _BASE ** np.arange(len(_WALKED_MODES)) % _BASE,
        lost=lost,
        lost_kind=lost_kind.ravel(),
        start=start,
        povm_row=povm_row,
        detected=np.column_stack(
            [np.tile(pattern, (len(occupations), 1)), detected - pattern]
        ),
        classes=classes,
        select=np.vstack([in_class * comb, in_class * (comb * full)]),
    )
    for value in walk:
        value.flags.writeable = False
    return walk


class _Work(NamedTuple):
    """The working arrays of one chunk of samples, each [rows, samples].

    Every walk, detector factor and POVM sum of a chunk writes its
    intermediates into these instead of fresh arrays; what a chunk still
    allocates holds at most 14 rows (transmissions, power tables, start
    weights, class sums).  Each is a C-contiguous view of one flat buffer
    (``_chunks``), so a partial last chunk gets exact-shape views too.  A
    field sized for its largest use serves smaller ones with its leading
    rows.
    """

    monomials: np.ndarray  # loss monomials of a walk or of the detector factors
    factor: np.ndarray  # one gathered power-table factor of those monomials
    amplitude: np.ndarray  # [2 rows]: the walk's real matmul, then its squares
    gather: np.ndarray  # each walk row's lost-photon weight
    povm: np.ndarray  # one point's POVM rows
    weight_a: np.ndarray  # A's walk weights
    weight: np.ndarray  # B's or a walked hybrid's
    detector_a: np.ndarray  # A's detector factors
    detector: np.ndarray  # B's or a detector hybrid's


def _chunks(pattern, samples: int):
    """Yield (slice, ``_Work``) for each chunk of up to ``_CHUNK`` of
    ``samples``; every chunk's working arrays view one buffer, released
    when the iteration ends."""
    walk = _walk_matrix(pattern)
    rows, columns = walk.parts.shape[1:]
    products = max(columns, len(walk.lost), len(walk.detected))
    # the rows of each field, in field order
    offsets = np.cumsum([0, products, products, 2 * rows] + [rows] * 6)
    buffer = np.empty(offsets[-1] * min(samples, _CHUNK))
    for start in range(0, samples, _CHUNK):
        n = min(_CHUNK, samples - start)
        fields = itertools.pairwise(offsets * n)
        yield slice(start, start + n), _Work(*(buffer[i:j].reshape(-1, n) for i, j in fields))


def _power_table(t: np.ndarray) -> np.ndarray:
    """[_PHOTONS + 1, samples] table of t^n."""
    table = np.empty((_PHOTONS + 1, t.shape[0]))
    table[0] = 1.0
    for n in range(1, _PHOTONS + 1):
        table[n] = table[n - 1] * t
    return table


def _monomials(tables: list, powers: np.ndarray, work: _Work) -> np.ndarray:
    """[len(powers), samples] in ``work.monomials``: prod_i
    tables[i][powers[:, i]].  Gathers run with mode="clip" because "raise"
    gathers through a fresh copy; every power indexes its table."""
    out, factor = work.monomials[: len(powers)], work.factor[: len(powers)]
    np.take(tables[0], powers[:, 0], axis=0, out=out, mode="clip")
    for table, power in zip(tables[1:], powers.T[1:]):
        out *= np.take(table, power, axis=0, out=factor, mode="clip")
    return out


def _branch_walk(pattern, roles: dict, work: _Work, out: np.ndarray) -> np.ndarray:
    """The Kraus-branch walk at g = 1: ``out`` [rows, samples] set to the
    |amplitude|^2 of every walk row times its lost photons' weight, for the
    per-sample transmissions of the walked ``roles``, as one product of the
    pattern's ``_WalkMatrix`` with the samples' loss monomials."""
    walk = _walk_matrix(pattern)
    t = [roles[role] for role in _WALKED_ROLES]
    monomials = _monomials([_power_table(np.sqrt(x)) for x in t], walk.kept, work)
    rows = walk.parts.shape[1]
    amplitude = np.matmul(walk.parts.reshape(2 * rows, -1), monomials, out=work.amplitude)
    amplitude *= amplitude
    np.add(amplitude[:rows], amplitude[rows:], out=out)
    lost = _monomials([_power_table(1.0 - x) for x in t], walk.lost, work)
    out *= np.take(lost, walk.lost_kind, axis=0, out=work.gather, mode="clip")
    return out


def _start_weights(tau, roles: dict) -> np.ndarray:
    """[_STARTS, samples] weights w_in[a] w_res[b] of the |a, b> starts.

    The input crosses the channel ``tau`` and its post-prep and pre-mixer
    losses, the resource its post-prep loss, each as a |2> beam.
    """
    w_in = _pair_weights(tau * roles["input_post_prep"] * roles["input_pre_qft"])
    w_res = _pair_weights(roles["ancilla_post_prep"])
    return (w_in[:, None, :] * w_res[None, :, :]).reshape(_STARTS, w_in.shape[1])


def _detector_factors(pattern, roles: dict, work: _Work, out: np.ndarray) -> np.ndarray:
    """``out`` [rows, samples] set to each walk row's detector factor
    prod_m t_m^p_m (1 - t_m)^e_m, p_m photons heralded and e_m lost at
    detector m (its count C(n, p) is in the walk's ``select``)."""
    walk = _walk_matrix(pattern)
    t_detect = [roles[role] for role in _DETECTOR_ROLES]
    tables = [_power_table(t) for t in t_detect]
    tables += [_power_table(1.0 - t) for t in t_detect]
    monomials = _monomials(tables, walk.detected, work)
    return np.take(monomials, walk.povm_row, axis=0, out=out, mode="clip")


def _povm_sums(pattern, weight, start_weight, detector, work: _Work) -> np.ndarray:
    """[2 classes, samples]: per splitter class, the g-free pattern
    probability, then the conditional rho_22 numerator, amplifier on."""
    walk = _walk_matrix(pattern)
    rows = np.take(start_weight, walk.start, axis=0, out=work.povm, mode="clip")
    np.multiply(weight, rows, out=rows)
    rows *= detector
    return walk.select @ rows


def _class_factors(pattern, gains) -> list:
    """Per gain, each splitter class's weight at that gain over g = 1."""
    classes = _walk_matrix(pattern).classes
    return [_gain_factor(g, classes[:, 0], classes[:, 1]) ** 2 for g in gains]


def _pair_weights(transmission: np.ndarray) -> np.ndarray:
    """[3, samples] photon-number weights of |2> after a loss channel."""
    t = transmission
    return np.stack([(1.0 - t) ** 2, 2.0 * t * (1.0 - t), t * t])


def _transmissions(losses: np.ndarray) -> np.ndarray:
    """[dims, samples] transmissions of a [samples, dims] batch of losses."""
    return np.ascontiguousarray((1.0 - losses).T)


def _measured_gains(tau, roles: dict, sums: np.ndarray, factors) -> list:
    """The measured gain at each of ``factors`` from one point's class sums
    and the scalars."""
    classes = sums.shape[0] // 2
    p2, rho22 = sums[:classes], sums[classes:]
    # amplifier on: the output crosses the post-amplification loss before
    # being counted
    scale = 0.5 * roles["output_post_amp"] ** 2

    # amplifier off: the input goes straight to the counting stage, so the
    # heralds of the resource-only circuit are independent of it and cancel
    # exactly, leaving the input's own coincidence rate
    tau_off = tau * roles["input_post_prep"] * roles["input_size_path"]
    ratio_off = 0.5 * tau_off**2

    return [scale * (f @ rho22) / (f @ p2) / ratio_off for f in factors]


def _stages(tau, tr: np.ndarray, pattern: tuple, work: _Work, weight, detector) -> tuple:
    """(roles, start weights, POVM sums) of a [dims, samples] block of
    transmissions; its walk weights go to ``weight`` and its detector
    factors to ``detector``; a role's transmission is the product of its
    columns'."""
    roles = {role: tr[columns].prod(axis=0) for role, columns in _ROLE_COLUMNS.items()}
    _branch_walk(pattern, roles, work, weight)
    start = _start_weights(tau, roles)
    _detector_factors(pattern, roles, work, detector)
    return roles, start, _povm_sums(pattern, weight, start, detector, work)


def _check_losses(arr: np.ndarray) -> None:
    # a loss of 1 at an input or a detector point zeroes a rate the gain divides by
    if np.any(~((arr >= 0.0) & (arr < 1.0))):  # NaN fails both
        raise ValueError("loss fractions must lie in [0, 1)")


def lossy_gain_model(
    g: float,
    tau: float,
    losses: Sequence[float] | np.ndarray,
    pattern: Sequence[int],
) -> float | np.ndarray:
    """Measured two-photon gain with losses inserted across the setup.

    ``losses`` is either a single loss vector (an entry in [0, 1) per point of
    ``LOSS_POINTS``) or a batch of them stacked along the first axis.  With
    all losses zero this reduces exactly to the closed-form gain.
    """
    pattern = _check_pattern(pattern)
    _check_point(tau, g)
    scalar = np.ndim(losses) == 1
    arr = np.atleast_2d(np.asarray(losses, dtype=float))
    if arr.ndim != 2 or arr.shape[1] != len(LOSS_POINTS):
        raise ValueError(
            f"loss vectors must have {len(LOSS_POINTS)} entries, got shape {arr.shape}"
        )
    _check_losses(arr)
    factors = _class_factors(pattern, [g])
    out = np.empty(arr.shape[0])
    for rows, work in _chunks(pattern, arr.shape[0]):
        tr = _transmissions(arr[rows])
        roles, _, sums = _stages(tau, tr, pattern, work, work.weight, work.detector)
        (out[rows],) = _measured_gains(tau, roles, sums, factors)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Saltelli sampling and first-order index estimation
# ---------------------------------------------------------------------------

#: bytes of one block of bootstrap draw counts (float64 [resamples, n_base]),
#: and of the bootstrap inputs the gains sharing one pass hold together
_BOOTSTRAP_BLOCK_BYTES = 4 << 20

#: size limits, so memory is bounded by the work asked for
_MAX_N_BASE = 10**5  # where a sweep peaks at 60 MB traced, 0.60 KB per base sample
#: resamples; a bootstrap pass holds 8 B per index per resample for each gain
#: it shares, and takes one gain at a time once that passes 4 MiB
_MAX_BOOTSTRAP = 10**5


def _check_n_base(n_base: int) -> None:
    if n_base < 2:
        raise ValueError(f"{n_base} is below 2")
    if n_base > _MAX_N_BASE:
        raise ValueError(f"{n_base} is above the limit {_MAX_N_BASE}")


def _check_resamples(bootstrap_resamples: int) -> None:
    if not bootstrap_resamples >= 2:
        raise ValueError(
            f"bootstrap_resamples must be at least 2, got {bootstrap_resamples}"
        )
    if bootstrap_resamples > _MAX_BOOTSTRAP:
        raise ValueError(f"{bootstrap_resamples} is above the limit {_MAX_BOOTSTRAP}")


def _check_sweep_gain(g: float) -> None:
    """A sweep's gain: at g = 0 the model is identically 0, with no variance."""
    if g <= 0.0:
        raise ValueError(f"{g} outside (0.0, {_MAX_GAIN}]")
    _check_gain(g)


def _check_loss_bound(loss: float) -> None:
    if not 0.0 <= loss <= 1.0:
        raise ValueError(f"{loss} outside [0.0, 1.0]")


def _check_loss_range(bounds: tuple[float, float]) -> None:
    """A sweep's loss range: uniform draws on it differ in transmission and
    never round to loss 1, a zero transmission the gain divides by."""
    lo, hi = bounds
    _check_loss_bound(lo)
    _check_loss_bound(hi)
    if not hi > lo:
        raise ValueError(f"loss range [{lo}, {hi}] is empty")
    if 1.0 - lo == 1.0 - hi:  # the model output would have no variance
        why = f"every transmission 1 - loss rounds to {1.0 - lo}"
        raise ValueError(f"loss range [{lo}, {hi}] is too narrow: {why}")
    if lo + (hi - lo) * (1.0 - 2.0**-53) == 1.0:  # uniform's largest draw
        why = "a draw can round to loss 1.0, a zero transmission"
        raise ValueError(f"loss range [{lo}, {hi}] reaches loss 1: {why}")


def _base_samples(
    n_base: int, dims: int, seed: int, bounds: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """The design's base matrices A and B, each (n_base, dims)."""
    _check_n_base(n_base)
    if dims < 1:
        raise ValueError("need at least one input dimension")
    lo, hi = bounds
    if not hi > lo:
        raise ValueError(f"empty sampling range {bounds}")
    try:
        seed = operator.index(seed)  # numpy raises ValueError if it is negative
    except TypeError:
        raise ValueError(f"seed {seed!r} is not an integer") from None
    rng = np.random.default_rng(seed)
    a = rng.uniform(lo, hi, size=(n_base, dims))
    b = rng.uniform(lo, hi, size=(n_base, dims))
    return a, b


def saltelli_sample(
    n_base: int,
    dims: int,
    seed: int,
    bounds: tuple[float, float],
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


class SobolResult(NamedTuple):
    """First-order indices with bootstrap confidence half-widths."""

    indices: np.ndarray
    ci: np.ndarray
    n_base: int
    evaluations: int


def first_order_indices(
    model: Callable,
    n_base: int,
    seed: int,
    dims: int,
    bounds: tuple[float, float],
    bootstrap_resamples: int,
) -> SobolResult:
    """Estimate first-order Sobol indices of ``model`` by Saltelli sampling.

    ``model`` is called on batches, mapping [n, dims] inputs to n outputs.  The
    estimator is V_i = mean(f(B) * (f(A_B^i) - f(A))), normalized by the
    sample variance of all evaluations.  Confidence half-widths (95%) come
    from a paired bootstrap over sample rows.  Identical seeds give bitwise
    identical results.
    """
    _check_resamples(bootstrap_resamples)
    a, b, hybrids = saltelli_sample(n_base, dims, seed, bounds)
    designs = [np.empty((dims + 2, n_base))]  # the list is the design's one holder
    for row, points in enumerate([a, b, *hybrids]):
        designs[0][row] = model(points)
    (result,) = _indices_from_values(designs, seed, bootstrap_resamples)
    return result


def _gains_per_group(n_base: int, dims: int, bootstrap_resamples: int) -> int:
    """How many gains share one bootstrap pass: as many as fit what each
    holds in ``_BOOTSTRAP_BLOCK_BYTES`` together, and at least one.  A gain
    holds its design values ([dims + 2, n_base]) until the group is
    evaluated, then its row statistics ([n_base, 2 dims + 2]) and resampled
    estimates ([resamples, dims]) through the pass."""
    held = 8 * (n_base * (2 * dims + 2) + bootstrap_resamples * dims)
    return max(1, _BOOTSTRAP_BLOCK_BYTES // held)


def _point_estimate(design: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first-order indices, [n_base, 2 dims + 2] per-row statistics) of one
    model's design values [f(A); f(B); f(A_B^1); ...; f(A_B^dims)]."""
    f_a, f_b, f_hyb = design[0], design[1], design[2:]
    dims = f_hyb.shape[0]
    # the statistics are built row by row into one [2 dims + 2, n] array,
    # whose transpose the bootstrap's matmul takes as it took the stacked rows.
    # No temporary as large as the design is made: rows [:dims + 2] hold
    # np.var's deviations and their squares, then the squares of the row
    # sums, and rows [:dims] the centered cross products, each before the
    # statistics overwrite them.  Each step is the one numpy's mean, var and
    # ** take, on a C-contiguous array of the same shape, so every bit is theirs
    stats = np.empty((2 * dims + 2, design.shape[1]))
    scratch = stats[: dims + 2]
    mean = design.sum(keepdims=True)
    mean /= design.size
    mean_all = float(mean[0, 0])  # design.mean()
    np.subtract(design, mean, out=scratch)
    scratch *= scratch
    variance = float(scratch.sum() / (design.size - 1))  # np.var(design, ddof=1)
    if not np.isfinite(variance) or variance <= 0.0:
        raise ValueError(
            "model output has zero variance over the sampled inputs; "
            "first-order indices are undefined"
        )

    np.multiply(design, design, out=scratch)  # design**2
    scratch.sum(axis=0, out=stats[2 * dims + 1])
    design.sum(axis=0, out=stats[2 * dims])
    diff = np.subtract(f_hyb, f_a[None, :], out=stats[dims : 2 * dims])
    # evaluations are centered on the overall mean first: the estimator is
    # shift invariant in expectation, and centering removes most of the
    # mean-level sampling noise from the cross products
    cross = np.multiply((f_b - mean_all)[None, :], diff, out=stats[:dims])
    indices = cross.mean(axis=1) / variance  # independent of the centering
    np.multiply(f_b[None, :], diff, out=stats[:dims])
    return indices, stats.T


def _draw_counts(rng: np.random.Generator, counts: np.ndarray) -> None:
    """Fill each row of ``counts`` [resamples, n_base] with one resample's
    per-row draw counts: one ``rng.integers`` call per row, in row order."""
    n_base = counts.shape[1]
    for row in counts:
        row[:] = np.bincount(rng.integers(0, n_base, size=n_base), minlength=n_base)


def _resample_indices(counts, stats, total: int, out: np.ndarray) -> None:
    """``out`` [resamples, dims] set to one model's first-order indices on
    each resample of ``counts`` [resamples, n_base], from its per-row
    ``stats``; a resample with no variance gets 0."""
    dims, n_base = out.shape[1], counts.shape[1]
    sums = counts @ stats
    mean_r = sums[:, 2 * dims] / total
    mean_sq_r = sums[:, 2 * dims + 1] / total
    var_r = (mean_sq_r - mean_r**2) * total / (total - 1)
    keep = ~(var_r <= 0.0)  # a degenerate resample contributes 0
    out[keep] = (
        sums[keep, :dims] / n_base
        - mean_r[keep, None] * (sums[keep, dims : 2 * dims] / n_base)
    ) / var_r[keep, None]


def _indices_from_values(
    designs: list[np.ndarray], seed: int, bootstrap_resamples: int
) -> list[SobolResult]:
    """The Saltelli et al. (2010) estimator on the design values of one or
    more models sampled on the same design.

    Each item of ``designs`` is one model's [f(A); f(B); f(A_B^1); ...;
    f(A_B^dims)], shape (dims + 2, n_base).  One bootstrap pass resamples
    all of them with the same draws, which depend only on the seed.  The
    list is emptied as it is reduced: a design the caller holds nowhere
    else is freed once its (larger) per-row statistics are built, as
    ``_gains_per_group`` counts.
    """
    estimates = []
    while designs:
        estimates.append(_point_estimate(designs.pop(0)))
    dims, n_base = estimates[0][0].shape[0], estimates[0][1].shape[0]

    # paired bootstrap over rows.  A resample's sums are its per-row draw
    # counts times the per-row statistics, so a block of resamples costs one
    # matmul per model; the draws are the same rng.integers call per
    # resample, in the same order, as a resample-at-a-time loop.  One helper
    # thread makes every draw, a block ahead of the matmuls (which release
    # the GIL), into one compact block of counts that the matmuls' float64
    # buffer copies; no bit depends on the thread
    rng = np.random.default_rng([int(seed), 0xB00])
    total = (dims + 2) * n_base
    block = max(1, _BOOTSTRAP_BLOCK_BYTES // (8 * n_base))
    starts = range(0, bootstrap_resamples, block)
    boots = [np.zeros((bootstrap_resamples, dims)) for _ in estimates]
    # one buffer for every block: a fresh one per block left the pass with
    # about 2 MB more resident memory than the evaluation before it
    buffer = np.empty((min(block, bootstrap_resamples), n_base))
    # the helper's block: the smallest type that holds a count, at most n_base
    drawn = np.empty(buffer.shape, dtype=np.min_scalar_type(n_base))
    full, free = threading.Semaphore(0), threading.Semaphore(1)
    stop, failed = threading.Event(), []

    def draw() -> None:
        try:
            for start in starts:
                free.acquire()
                if stop.is_set():
                    return
                _draw_counts(rng, drawn[: min(block, bootstrap_resamples - start)])
                full.release()
        except BaseException as exc:  # handed to the caller, which raises it
            failed.append(exc)
            full.release()

    helper = threading.Thread(target=draw, name="qscissor-bootstrap-draws")
    helper.start()
    try:
        for start in starts:
            full.acquire()
            if failed:
                raise failed[0]
            counts = buffer[: min(block, bootstrap_resamples - start)]
            np.copyto(counts, drawn[: counts.shape[0]])
            free.release()
            for (_, stats), boot in zip(estimates, boots):
                out = boot[start : start + len(counts)]
                _resample_indices(counts, stats, total, out)
    finally:
        stop.set()
        free.release()
        helper.join()

    return [
        SobolResult(
            indices=indices,
            ci=1.96 * boot.std(axis=0, ddof=1),
            n_base=n_base,
            evaluations=total,
        )
        for (indices, _), boot in zip(estimates, boots)
    ]


class SweepEntry(NamedTuple):
    g: float
    result: SobolResult


def _design_block(factors, tau, a, b, pattern: tuple, work: _Work, out: list) -> None:
    """Write f(A), f(B) and each f(A_B^i) on a block of base rows at each
    gain's class ``factors`` into that gain's [dims + 2, rows] of ``out``.

    A hybrid shares every role but its column's with A and redoes only the
    stage that role enters: the walk, the start weights or the detector
    factors; a scalar column takes A's POVM sums.  Each point's g-free sums
    are folded into every gain.
    """

    def record(point: int, values: list) -> None:
        for design, value in zip(out, values):
            design[point] = value

    tr_a, tr_b = _transmissions(a), _transmissions(b)
    roles_a, start_a, sums_a = _stages(
        tau, tr_a, pattern, work, work.weight_a, work.detector_a
    )
    record(0, _measured_gains(tau, roles_a, sums_a, factors))
    roles_b, _, sums_b = _stages(tau, tr_b, pattern, work, work.weight, work.detector)
    record(1, _measured_gains(tau, roles_b, sums_b, factors))
    for i, point in enumerate(LOSS_POINTS):
        # the role's columns as ``_stages`` multiplies them, column i from B
        columns = [(tr_b if c == i else tr_a)[c] for c in _ROLE_COLUMNS[point.role]]
        roles = {**roles_a, point.role: np.prod(columns, axis=0)}
        weight, start, detector = work.weight_a, start_a, work.detector_a
        if point.role in _WALKED_ROLES:
            weight = _branch_walk(pattern, roles, work, work.weight)
        elif point.role in _START_WEIGHT_ROLES:
            start = _start_weights(tau, roles)
        elif point.role in _DETECTOR_ROLES:
            detector = _detector_factors(pattern, roles, work, work.detector)
        sums = sums_a
        if point.role not in _SCALAR_ROLES:
            sums = _povm_sums(pattern, weight, start, detector, work)
        record(2 + i, _measured_gains(tau, roles, sums, factors))


def _design_values(gains, tau, a, b, pattern: tuple) -> list:
    """Per gain, [dims + 2, n_base]: the whole design's values."""
    factors = _class_factors(pattern, gains)
    values = [np.empty((len(LOSS_POINTS) + 2, a.shape[0])) for _ in gains]
    for rows, work in _chunks(pattern, a.shape[0]):
        out = [design[:, rows] for design in values]
        _design_block(factors, tau, a[rows], b[rows], pattern, work, out)
    return values


def sensitivity_sweep(
    g_grid: Sequence[float],
    tau: float,
    n_base: int,
    seed: int,
    bounds: tuple[float, float],
    pattern: Sequence[int],
    bootstrap_resamples: int,
) -> list[SweepEntry]:
    """First-order indices of the loss model at each gain on the grid, one
    per point of ``LOSS_POINTS``.

    The same seed (hence the same loss samples and bootstrap draws) is
    reused at every gain so the per-variable curves are directly comparable
    across g.  The values are those of ``first_order_indices`` on
    ``lossy_gain_model`` at each gain; the design is evaluated in blocks of base rows
    without forming its hybrids, and consecutive gains whose bootstrap
    inputs fit ``_BOOTSTRAP_BLOCK_BYTES`` share one bootstrap pass.
    """
    _check_resamples(bootstrap_resamples)
    gains = [float(g) for g in g_grid]
    if not gains:
        raise ValueError("the gain grid holds no values")
    for g in gains:
        _check_sweep_gain(g)
    _check_transmission(tau)
    pattern = _check_pattern(pattern)
    _check_loss_range(bounds)
    a, b = _base_samples(n_base, len(LOSS_POINTS), seed, bounds)
    group = _gains_per_group(n_base, len(LOSS_POINTS), bootstrap_resamples)
    entries = []
    for first in range(0, len(gains), group):
        grouped = gains[first : first + group]
        results = _indices_from_values(
            _design_values(grouped, tau, a, b, pattern),
            seed,
            bootstrap_resamples,
        )
        entries.extend(SweepEntry(g=g, result=r) for g, r in zip(grouped, results))
    return entries
