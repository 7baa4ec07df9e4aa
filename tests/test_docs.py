"""Docs-and-policy gates: documented invariants cannot silently rot.

Six invariants, all cheap enough for tier-1:

* every symbol a ``repro.*`` module exports through ``__all__`` resolves
  and carries a docstring (modules, classes, functions — the public API
  surface the docs link into);
* every demo under ``examples/`` is referenced by name in the top-level
  ``README.md`` (an example nobody can find is an example that rots);
* the documentation files the README points at actually exist, and the
  ROADMAP keeps pointing at the versioned design docs it delegated its
  per-subsystem guides to;
* the engine's **dtype policy** holds at the source level: kernel
  forward/VJP bodies never hard-code ``np.float64`` (AST lint), which is
  what lets one kernel table serve both the float64 and float32
  execution backends;
* the **clock policy** holds at the source level: no ``repro`` module
  outside ``repro/obs/clock.py`` calls the stdlib clocks directly (AST
  lint), which is what keeps SLO/anomaly/health transition sequences
  replayable under ``FakeClock``;
* every admission-plane knob on ``GatewayConfig``
  (``ADMISSION_CONFIG_FIELDS``) exists and is documented in
  ``docs/ARCHITECTURE.md``.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent


def _walk_public_modules():
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        names.append(info.name)
    return sorted(names)


MODULES = _walk_public_modules()


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_symbol_has_a_docstring(module_name):
    module = importlib.import_module(module_name)
    assert (module.__doc__ or "").strip(), f"{module_name} has no docstring"
    exported = getattr(module, "__all__", None)
    if exported is None:
        return
    undocumented = []
    for name in exported:
        assert hasattr(module, name), (
            f"{module_name}.__all__ exports {name!r} but the module "
            "does not define it"
        )
        symbol = getattr(module, name)
        # Only objects that *can* carry their own docstring are held to
        # it: plain data exports (constants, precomputed tables) cannot.
        if not (inspect.isclass(symbol) or inspect.isroutine(symbol)
                or inspect.ismodule(symbol)):
            continue
        if not (getattr(symbol, "__doc__", None) or "").strip():
            undocumented.append(name)
    assert not undocumented, (
        f"{module_name} exports undocumented symbols: {undocumented}"
    )


def test_readme_references_every_example():
    readme = (REPO_ROOT / "README.md").read_text()
    missing = [
        example.name
        for example in sorted((REPO_ROOT / "examples").glob("*.py"))
        if example.name not in readme
    ]
    assert not missing, f"README.md never mentions examples: {missing}"


def test_documentation_files_exist():
    for relative in ("README.md", "docs/ARCHITECTURE.md",
                     "docs/streaming.md", "docs/observability.md",
                     "benchmarks/README.md"):
        path = REPO_ROOT / relative
        assert path.is_file(), f"missing documentation file: {relative}"
        assert path.read_text().strip(), f"{relative} is empty"


def test_readme_documents_the_test_matrix_and_benchmarks():
    readme = (REPO_ROOT / "README.md").read_text()
    for needle in ("-m slow", "pytest", "BENCH_"):
        assert needle in readme, f"README.md must mention {needle!r}"
    bench_readme = (REPO_ROOT / "benchmarks" / "README.md").read_text()
    missing = [
        artifact.name
        for artifact in sorted((REPO_ROOT / "benchmarks").glob("BENCH_*.json"))
        if artifact.name not in bench_readme
    ]
    assert not missing, (
        f"benchmarks/README.md never documents artifacts: {missing}"
    )


# Kernel-adjacent helpers that compute on kernel arrays and therefore
# fall under the same dtype policy as the ``_fw_*``/``_bw_*`` bodies
# themselves.
KERNEL_HELPERS = {
    "_scatter_rows", "_matmul_vjp_arrays", "_mul_operand_grad",
    "_expand_reduced_grad", "_softmax_dot", "_denom_floor", "_mask_like",
    "_im2col", "_conv_input_grad", "_block_weight", "_make_linear_act",
    "_relu_act", "_sigmoid_act",
}


def test_engine_kernels_never_hardcode_float64():
    """Dtype-policy lint (tier-1): kernels derive their working dtype
    from their input arrays.  A bare ``np.float64`` inside a kernel
    forward/VJP body would silently up-cast the float32 serving
    backend's arrays back to double precision."""
    source = (REPO_ROOT / "src" / "repro" / "nn" / "engine.py").read_text()
    tree = ast.parse(source)
    offenders = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        name = node.name
        if not (name.startswith(("_fw_", "_bw_"))
                or name in KERNEL_HELPERS):
            continue
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Attribute) and sub.attr == "float64"
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "np"):
                offenders.append(f"{name} (engine.py:{sub.lineno})")
    assert not offenders, (
        "np.float64 hard-coded inside kernel bodies (derive the dtype "
        f"from the input arrays instead): {sorted(set(offenders))}"
    )
    # The lint must actually be scanning something: if the kernel naming
    # convention changes this gate should fail loudly, not pass vacuously.
    scanned = [
        node.name for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith(("_fw_", "_bw_"))
    ]
    assert len(scanned) > 50, f"kernel scan looks vacuous: {len(scanned)}"


# Clock-policy lint.  Everything below repro/ must read time through
# repro.obs.clock (now()/wall_time()), which is what makes SLO burn
# rates, anomaly transitions and flight-recorder bundles replayable
# under a FakeClock.  A direct stdlib clock call is an untestable
# wall-clock dependency sneaking back in.
_FORBIDDEN_TIME_FUNCS = {"time", "perf_counter", "monotonic"}


def _clock_violations(tree, relative):
    offenders = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in _FORBIDDEN_TIME_FUNCS:
                    offenders.append(
                        f"{relative}:{node.lineno} imports "
                        f"time.{alias.name} directly"
                    )
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        # time.time() / time.perf_counter() / time.monotonic()
        if (isinstance(func, ast.Attribute)
                and func.attr in _FORBIDDEN_TIME_FUNCS
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"):
            offenders.append(
                f"{relative}:{node.lineno} calls time.{func.attr}()"
            )
        # datetime.now() / datetime.datetime.now() with no tz argument
        if (isinstance(func, ast.Attribute) and func.attr == "now"
                and not node.args and not node.keywords):
            root = func.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id == "datetime":
                offenders.append(
                    f"{relative}:{node.lineno} calls datetime.now() "
                    "with no tz"
                )
    return offenders


def test_repro_reads_time_only_through_the_obs_clock():
    """Clock-policy lint (tier-1): no ``repro`` module outside
    ``repro/obs/clock.py`` may call ``time.time``, ``time.perf_counter``,
    ``time.monotonic`` or argless ``datetime.now`` — inject
    :mod:`repro.obs.clock` instead, so every timestamped code path stays
    deterministic under ``FakeClock``."""
    package_root = REPO_ROOT / "src" / "repro"
    allowed = package_root / "obs" / "clock.py"
    offenders = []
    scanned = 0
    for path in sorted(package_root.rglob("*.py")):
        if path == allowed:
            continue
        scanned += 1
        relative = path.relative_to(REPO_ROOT)
        tree = ast.parse(path.read_text())
        offenders.extend(_clock_violations(tree, relative))
    assert not offenders, (
        "direct stdlib clock usage outside repro/obs/clock.py (read "
        f"time through repro.obs.clock instead): {offenders}"
    )
    # Vacuity guard: the walk must actually be covering the package.
    assert scanned > 50, f"clock lint looks vacuous: scanned {scanned} files"


def test_admission_config_fields_are_documented():
    """Docs gate (tier-1): every admission-plane knob on
    ``GatewayConfig`` (the ``ADMISSION_CONFIG_FIELDS`` registry) exists
    on the config dataclass and is named in ``docs/ARCHITECTURE.md`` —
    an undocumented admission knob is an undocumented SLO lever."""
    import dataclasses

    from repro.serving.admission import ADMISSION_CONFIG_FIELDS
    from repro.serving.gateway import GatewayConfig

    config_fields = {f.name for f in dataclasses.fields(GatewayConfig)}
    architecture = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
    missing_on_config = [
        name for name in ADMISSION_CONFIG_FIELDS
        if name not in config_fields
    ]
    assert not missing_on_config, (
        f"ADMISSION_CONFIG_FIELDS names unknown GatewayConfig fields: "
        f"{missing_on_config}"
    )
    undocumented = [
        name for name in ADMISSION_CONFIG_FIELDS
        if name not in architecture
    ]
    assert not undocumented, (
        "docs/ARCHITECTURE.md never mentions admission config fields: "
        f"{undocumented}"
    )
    # Vacuity guard: the registry must actually cover the knobs.
    assert len(ADMISSION_CONFIG_FIELDS) >= 4


def test_roadmap_points_at_versioned_design_docs():
    roadmap = (REPO_ROOT / "ROADMAP.md").read_text()
    for pointer in ("docs/ARCHITECTURE.md", "docs/streaming.md",
                    "docs/observability.md"):
        assert pointer in roadmap, (
            f"ROADMAP.md must point at {pointer} for the design guide "
            "it used to inline"
        )
