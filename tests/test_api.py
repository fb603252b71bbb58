import ast
import importlib
import inspect
import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qscissor

#: Every parameter with a default of a public callable, as "callable.parameter".
#: A new option changes this set, so it is added here on purpose or not at all.
OPTIONS = set()


def test_public_options_are_pinned():
    found = set()
    for name in qscissor.__all__:
        obj = getattr(qscissor, name)
        if callable(obj):
            found |= {
                f"{name}.{parameter.name}"
                for parameter in inspect.signature(obj).parameters.values()
                if parameter.default is not inspect.Parameter.empty
            }
    assert found == OPTIONS


#: Names taken out of the package, as "<module>.<name>": moved to the test
#: oracles, folded into ``project_pattern``, replaced by ``LOSS_POINTS`` or
#: by the arithmetic layout (``fock_sectors`` and ``sector_rank``), inlined
#: into their one caller, or deleted with a default or an option that no
#: caller set.
#: ``run_two_scissor`` stays, on amplitude arrays; its dict-state form is the
#: oracle ``dict_run_two_scissor``.
REMOVED = (
    "analysis.fit_visibility", "analysis.VisibilityFit",
    "scissor.ideal_scissor_transform", "scissor.herald_phase",
    "scissor.gain_to_transmittance", "fock.vacuum", "fock.inner_product",
    "fock.fidelity", "fock.project_photon_number", "fock.MixedState.trace",
    "fock.MixedState.normalized", "fock.MixedState.density_matrix",
    "sensitivity.make_gain_model", "sensitivity.LossLayout",
    "sensitivity.default_loss_layout", "sensitivity.LOSS_REGIONS",
    "sensitivity.LOSS_ROLES", "scissor.lossy_two_photon_input", "fock.fock_state",
    "fock.MixedState.photon_number_weights", "analysis.QutritPathState",
    "analysis.amplified_path_state", "fock.PureState.normalized",
    "fock.PureState.amplitude", "fock.PureState.total_photon_weight",
    "circuit.BeamSplitter.phase", "sensitivity.DEFAULT_LOSS_RANGE",
    "cli.STOCHASTIC_EXPERIMENTS", "fock.DEFAULT_CUTOFF", "fock.basis_dimension",
    "fock.PureState.to_vector", "fock.PureState.norm", "fock.MixedState.from_pure",
    "circuit._transfer", "circuit._TRANSFER_CACHE_SIZE", "fock.basis_enumerate",
    "fock._basis_layout", "circuit.FockSector",
)


@pytest.mark.parametrize("path", REMOVED)
def test_removed_names_are_gone(path):
    *owner, name = path.split(".")
    obj = importlib.import_module(f"qscissor.{owner[0]}")
    for attr in owner[1:]:
        obj = getattr(obj, attr)
    assert not hasattr(obj, name)
    assert not hasattr(qscissor, name) and name not in qscissor.__all__


#: Public functions and methods that none of the six experiments runs, each
#: with the reason it stays in the package.
NEVER_RUN = {
    "fock.tensor": "traced by the benchmark",
    "fock.project_pattern": "traced by the benchmark",
    "scissor.heralded_amplify": "traced by the benchmark",
    "scissor.pnr_coincidence_probability": "traced by the benchmark",
    "circuit.fock_transfer_matrix": "traced by the benchmark",
    "circuit.apply_mode_unitary": "traced by the benchmark",
    "sensitivity.saltelli_sample": "traced by the benchmark",
    "sensitivity.first_order_indices": "traced by the benchmark",
    "circuit.permanent": "the documented single-amplitude API",
    "circuit.fock_amplitude": "the documented single-amplitude API",
    "sensitivity.lossy_gain_model": "the public single-model entry",
}
#: The only reasons a public name may stay in the package unrun.
_REASONS = {
    "traced by the benchmark",
    "the documented single-amplitude API",
    "the public single-model entry",
}

#: Each cache in the package (an attribute with ``cache_info``), with the
#: experiment whose reuse it serves: a cache that no experiment hits keeps
#: memory for nothing, so it goes.
CACHES = {
    "circuit.fock_sectors": "sobol",
    "circuit._binomials": "hom",
    "circuit._sector_steps": "hom",
    "scissor._herald_table": "negativity",
    "scissor._coincidence_row": "fringes",
    "scissor._pair_separation": "gain-sweep",
    "sensitivity._walk_matrix": "sobol",
}

#: Runs all six experiments in one child, profiled from before the package
#: is imported and each from cleared caches.  Prints the public functions and
#: methods that never ran, and each cache's hits in each experiment.
_EXPERIMENT_RUN = r"""
import importlib, importlib.util, inspect, json, os, pkgutil, sys, tempfile
sys.path.insert(0, sys.argv[1])  # the package the test imported
root = os.path.dirname(importlib.util.find_spec("qscissor").origin) + os.sep
ran = set()

def record(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(root):
        ran.add(frame.f_code)

sys.setprofile(record)
from qscissor import cli

names = [m.name for m in pkgutil.iter_modules([root]) if m.name[0] != "_"]
modules = {name: importlib.import_module("qscissor." + name) for name in names}
caches = {
    f"{name}.{attr}": obj
    for name, module in modules.items()
    for attr, obj in vars(module).items()
    if hasattr(obj, "cache_info") and obj.__module__ == module.__name__
}
configs = {"scissor": "", "gain-sweep": "", "negativity": "", "hom": "",
           "fringes": "sigma = 0.2\ng = 2\n", "sobol": "n_base = 64\nbootstrap = 20\nseed = 5\n"}
hits = {name: {} for name in caches}  # cache -> {experiment: hits}
with tempfile.TemporaryDirectory() as tmp:
    for experiment, text in configs.items():
        for cache in caches.values():
            cache.cache_clear()
        config = os.path.join(tmp, experiment + ".conf")
        with open(config, "w") as fh:
            fh.write(text)
        assert cli.main([experiment, "--config", config, "--out", tmp]) == 0
        for name, cache in caches.items():
            hits[name][experiment] = cache.cache_info().hits
sys.setprofile(None)

never = []
for name, module in modules.items():
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        members = [(attr, obj)]
        if inspect.isclass(obj):
            members = [(f"{attr}.{m}", v) for m, v in vars(obj).items() if m[0] != "_"]
        for label, member in members:
            func = inspect.unwrap(getattr(member, "__func__", member))
            if inspect.isfunction(func) and func.__code__ not in ran:
                never.append(f"{name}.{label}")
print(json.dumps({"never": never, "hits": hits}))  # the last line
"""


@pytest.fixture(scope="module")
def experiment_run() -> dict:
    source = str(Path(qscissor.__file__).parents[1])
    child = subprocess.run(
        [sys.executable, "-c", _EXPERIMENT_RUN, source],
        capture_output=True, text=True, check=True,
    )
    return json.loads(child.stdout.splitlines()[-1])


def test_only_the_allowed_public_functions_never_run(experiment_run):
    assert set(experiment_run["never"]) == set(NEVER_RUN)


def test_every_cache_is_hit_in_its_experiment(experiment_run):
    hits = experiment_run["hits"]
    assert set(hits) == set(CACHES)
    unhit = [name for name, use in CACHES.items() if use not in hits[name]]
    assert unhit == []
    for name, experiment in CACHES.items():
        assert hits[name][experiment] >= 1, name


def _traced_layers() -> set:
    """``LAYERS`` of the benchmark's tracer, read from its source unimported."""
    tracer = Path(qscissor.__file__).parents[2] / "perfbench" / "tracer.py"
    for node in ast.parse(tracer.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]:
            return set(ast.literal_eval(node.value))
    raise AssertionError(f"{tracer} assigns no LAYERS")


def test_never_run_reasons_hold():
    # a name the tracer stops wrapping can then leave the package; a helper
    # that only such a name calls is inlined into it, not kept beside it
    layers = _traced_layers()
    for name, reason in NEVER_RUN.items():
        assert reason in _REASONS, name
        if reason == "traced by the benchmark":
            assert name in layers, name


def test_readme_entry_point_table_matches_the_signatures():
    # each `name(arg, ...)` cell of the domain table lists the function's
    # parameters, so the table cannot go stale when a signature changes
    readme = (Path(qscissor.__file__).parents[2] / "README.md").read_text("utf-8")
    section = readme.split("Each public entry point checks its own domain", 1)[1]
    rows = re.search(r"\n((?:\|.*\n)+)", section)[1].splitlines()[2:]
    cells = [re.findall(r"`(\w+)\(([^)]*)\)`", row.split("|")[1]) for row in rows]
    assert all(cells), rows
    for name, arguments in itertools.chain.from_iterable(cells):
        listed = [argument.strip() for argument in arguments.split(",")]
        assert listed == list(inspect.signature(getattr(qscissor, name)).parameters), name


#: The package's public names, as released: ``sensitivity``'s seven are
#: served lazily, so a name lost from the eager imports would not show at
#: import time.
PUBLIC = {
    "BeamSplitter", "FringeScan", "LOSS_POINTS", "LossPoint", "MixedState",
    "ModeUnitary", "PhaseShift", "PureState", "ScissorOutcome", "SobolResult",
    "SUCCESS_PATTERNS", "amplified_mixture_closed_form", "apply_mode_unitary",
    "beam_splitter_unitary", "compile_circuit", "first_order_indices",
    "fock_amplitude", "fringe_scan", "heralded_amplify", "hom_coincidence",
    "log_negativity", "lossy_gain_model", "measured_two_photon_gain",
    "negativity_curve", "path_entangled_state", "permanent", "run_two_scissor",
    "saltelli_sample", "sensitivity_sweep", "simulate_gain_measurement", "tensor",
    "tritter_elements", "two_photon_gain",
}
SENSITIVITY_NAMES = (
    "LOSS_POINTS", "LossPoint", "SobolResult", "first_order_indices",
    "lossy_gain_model", "saltelli_sample", "sensitivity_sweep",
)


def _child(script: str, *args: str) -> str:
    """The last line a fresh interpreter prints running ``script`` with the
    tested package first on its path (``sys.argv[1]``)."""
    source = str(Path(qscissor.__file__).parents[1])
    child = subprocess.run(
        [sys.executable, "-c", script, source, *args],
        capture_output=True, text=True, check=True,
    )
    return child.stdout.splitlines()[-1]


def test_public_namespace_is_unchanged():
    from qscissor import sensitivity

    assert len(qscissor.__all__) == len(PUBLIC) and set(qscissor.__all__) == PUBLIC
    for name in SENSITIVITY_NAMES:
        assert getattr(qscissor, name) is getattr(sensitivity, name), name
    assert PUBLIC <= set(dir(qscissor))
    with pytest.raises(AttributeError, match="no_such_name"):
        qscissor.no_such_name
    star = _child(
        "import sys; sys.path.insert(0, sys.argv[1]); from qscissor import *; "
        "print(sorted(k for k in globals() if not k.startswith('_') and k != 'sys'))"
    )
    assert ast.literal_eval(star) == sorted(PUBLIC)


#: Validates and runs each experiment in one child, ``sobol`` last, after a
#: fresh import, profiled throughout.  Prints, per step (the import, then
#: each ``validate`` and run), whether any code of ``sensitivity.py`` ran in it.
_SENSITIVITY_RUNS = r"""
import importlib.util, json, os, sys, tempfile
sys.path.insert(0, sys.argv[1])
root = os.path.dirname(importlib.util.find_spec("qscissor").origin)
target = os.path.join(root, "sensitivity.py")
ran = []

def record(frame, event, arg):
    if event == "call" and frame.f_code.co_filename == target:
        ran[-1][1] = True

configs = {"scissor": "g = 1\n", "gain-sweep": "g = 0:2:0.5\n", "negativity": "g = 1, 2\n",
           "hom": "theta = 0, 0.5\n", "fringes": "sigma = 0.2\ng = 2\nphi = 0:3:0.5\n",
           "sobol": "n_base = 16\nbootstrap = 4\nseed = 5\ng = 1\n"}
with tempfile.TemporaryDirectory() as tmp:
    def step(label, argv):
        ran.append([label, False])
        assert cli.main(argv) == 0, label

    sys.setprofile(record)
    ran.append(["import", False])
    from qscissor import cli
    for experiment, text in configs.items():
        config = os.path.join(tmp, experiment + ".conf")
        with open(config, "w") as fh:
            fh.write(f"experiment = {experiment}\n{text}")
        step("validate " + experiment, ["validate", "--config", config])
        step(experiment, [experiment, "--config", config, "--out", tmp])
    sys.setprofile(None)
print(json.dumps(dict(ran)))
"""


def test_sensitivity_code_runs_only_for_sobol():
    ran = json.loads(_child(_SENSITIVITY_RUNS))
    assert {label for label, used in ran.items() if used} == {"validate sobol", "sobol"}
    assert len(ran) == 13


_TRACED_GAIN_SWEEP = r"""
import importlib.util, json, os, sys, tempfile
sys.path.insert(0, sys.argv[1])
from qscissor import cli

spec = importlib.util.spec_from_file_location("tracer", sys.argv[2])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
tracer.Tracer().install()
with tempfile.TemporaryDirectory() as tmp:
    config = os.path.join(tmp, "gain-sweep.conf")
    with open(config, "w") as fh:
        fh.write("g = 0:2:0.5\n")
    code = cli.main(["gain-sweep", "--config", config, "--out", tmp])
from qscissor import sensitivity
print(json.dumps([code, hasattr(sensitivity.lossy_gain_model, "__wrapped__")]))
"""


def test_benchmark_tracer_installs_over_the_lazy_module():
    # the tracer looks each traced module up in sys.modules, so sensitivity
    # must be registered there by the package import, not only on first use
    tracer = Path(qscissor.__file__).parents[2] / "perfbench" / "tracer.py"
    assert json.loads(_child(_TRACED_GAIN_SWEEP, str(tracer))) == [0, True]


_FIRST_READS = r"""
import json, sys, threading
sys.path.insert(0, sys.argv[1])
sys.setswitchinterval(1e-6)
from qscissor import sensitivity
barrier, seen = threading.Barrier(8, timeout=10), []

def read():
    barrier.wait()
    try:
        seen.append(sensitivity.sensitivity_sweep.__name__)
    except AttributeError as exc:
        seen.append(repr(exc))

threads = [threading.Thread(target=read) for _ in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(10)
print(json.dumps([any(thread.is_alive() for thread in threads), seen]))
"""


def test_first_reads_from_many_threads_wait_for_the_whole_module():
    # eight threads read sensitivity at once before its code has run; each
    # must get the attribute, none a module that is still running
    alive, seen = json.loads(_child(_FIRST_READS))
    assert not alive and seen == ["sensitivity_sweep"] * 8
