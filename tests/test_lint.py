"""Tree-wide lint guards the ruff config cannot express.

Deprecated names removed from the public API must not resurface — a
stray import of a long-dead alias compiles fine and only breaks users
downstream, so this sweep fails the build instead.
"""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWEEP_DIRS = ("src", "tests", "benchmarks", "examples")

#: Names that used to exist and were deliberately removed. Add an entry
#: here whenever an alias is retired so it can never quietly return.
DEPRECATED_NAMES = (
    "DiskFailure_",  # pre-1.0 alias of repro.faults.DiskFailure
)


def test_deprecated_names_do_not_resurface():
    this_file = Path(__file__).resolve()
    offenders = []
    for top in SWEEP_DIRS:
        base = ROOT / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            if path.resolve() == this_file:
                continue
            text = path.read_text(encoding="utf-8")
            for name in DEPRECATED_NAMES:
                if name in text:
                    offenders.append(f"{path.relative_to(ROOT)}: {name}")
    assert not offenders, (
        "deprecated names resurfaced (see tests/test_lint.py): "
        + ", ".join(offenders)
    )


#: Registry reads that copy every instrument for windowing. Only
#: ``RegistryMarks.capture`` may call them, so every windowed reading
#: (health monitor, saturation sampler, capacity attributor) differences
#: the same marks through ``Window`` instead of keeping its own copy.
WINDOW_CAPTURE_CALLS = ("counter_values(", "gauge_areas(")
WINDOW_CAPTURE_HOME = ROOT / "src" / "repro" / "obs" / "registry.py"


def test_registry_is_windowed_in_one_place():
    offenders = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        if path.resolve() == WINDOW_CAPTURE_HOME.resolve():
            continue
        text = path.read_text(encoding="utf-8")
        for call in WINDOW_CAPTURE_CALLS:
            if call in text:
                offenders.append(f"{path.relative_to(ROOT)}: {call}")
    assert not offenders, (
        "registry capture outside repro/obs/registry.py (use RegistryMarks "
        "and Window): " + ", ".join(offenders)
    )
