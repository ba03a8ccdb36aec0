"""simlint configuration: the ``[tool.simlint]`` pyproject section.

The defaults baked into :class:`LintConfig` mirror the section this
repository ships, so environments whose Python lacks ``tomllib``
(< 3.11) behave identically to configured ones.  Path-valued settings
are posix-style and relative to the directory holding ``pyproject.toml``
(the *project root*).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple

try:  # Python >= 3.11
    import tomllib
except ImportError:  # pragma: no cover - 3.9/3.10 fallback to defaults
    tomllib = None


@dataclass
class LintConfig:
    """Resolved simlint settings for one lint invocation."""

    #: Baseline file (relative to the project root); empty disables.
    baseline: str = ".simlint-baseline.json"
    #: Directory-name parts skipped entirely while walking.
    exclude: Tuple[str, ...] = ("__pycache__", ".git", "build", "dist",
                                ".venv", ".eggs")
    #: Paths allowed to read wall clocks (SIM002) — engine stats and
    #: the host-side observability layer (ledger/telemetry) only.
    wallclock_allow: Tuple[str, ...] = ("src/repro/engine/runner.py",
                                        "src/repro/engine/tasks.py",
                                        "src/repro/observe/ledger.py",
                                        "src/repro/observe/telemetry.py")
    #: Paths allowed to use pickle/eval-class serialization (SIM008).
    serialization_allow: Tuple[str, ...] = ("src/repro/serialization.py",)
    #: Paths where even ``except Exception`` is too broad (SIM007);
    #: bare ``except:`` is flagged everywhere regardless.
    strict_except_paths: Tuple[str, ...] = ("src/repro/engine",
                                            "src/repro/serialization.py")
    #: Aggregation-layer paths where ``sum()`` over float series is
    #: flagged (SIM010) — ``math.fsum`` is exact and order-independent.
    fsum_paths: Tuple[str, ...] = ("src/repro/harness",
                                   "src/repro/engine")
    #: Worker-process entry point for SIM012 reachability (the function
    #: ``ProcessPoolExecutor`` workers execute); dotted qualname.
    worker_entry: str = "repro.engine.tasks.execute_task"
    #: Fully-qualified module globals SIM012 sanctions — deliberately
    #: fork-local per-process state whose contents never reach results
    #: (the engine's per-worker compiled-trace memo is the seed entry).
    worker_state_allow: Tuple[str, ...] = (
        "repro.engine.tasks._CTRACE_MEMO",)
    #: Rule ids disabled globally.
    disable: Tuple[str, ...] = ()
    #: Directory containing pyproject.toml (None when none was found).
    project_root: Optional[Path] = None


def path_matches(relpath: str, patterns: Sequence[str]) -> bool:
    """True when ``relpath`` equals or lives under one of ``patterns``."""
    for pattern in patterns:
        pattern = pattern.rstrip("/")
        if relpath == pattern or relpath.startswith(pattern + "/"):
            return True
    return False


def find_project_root(start: Path) -> Optional[Path]:
    """Nearest ancestor of ``start`` containing a ``pyproject.toml``."""
    cur = start.resolve()
    if cur.is_file():
        cur = cur.parent
    for candidate in (cur, *cur.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return None


def _as_tuple(value: object, fallback: Tuple[str, ...]) -> Tuple[str, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(str(v) for v in value)
    return fallback


def load_config(start: Path) -> LintConfig:
    """Build a :class:`LintConfig` for a lint run anchored at ``start``.

    Reads ``[tool.simlint]`` from the nearest ``pyproject.toml`` when the
    interpreter ships ``tomllib``; otherwise (or when the section is
    absent) the shipped defaults apply.
    """
    root = find_project_root(Path(start))
    config = LintConfig(project_root=root)
    if root is None or tomllib is None:
        return config
    try:
        with open(root / "pyproject.toml", "rb") as f:
            data = tomllib.load(f)
    except (OSError, tomllib.TOMLDecodeError):
        return config
    section = data.get("tool", {}).get("simlint")
    if not isinstance(section, dict):
        return config
    config.baseline = str(section.get("baseline", config.baseline))
    config.exclude = _as_tuple(section.get("exclude"), config.exclude)
    config.wallclock_allow = _as_tuple(
        section.get("wallclock_allow"), config.wallclock_allow)
    config.serialization_allow = _as_tuple(
        section.get("serialization_allow"), config.serialization_allow)
    config.strict_except_paths = _as_tuple(
        section.get("strict_except_paths"), config.strict_except_paths)
    config.fsum_paths = _as_tuple(
        section.get("fsum_paths"), config.fsum_paths)
    config.worker_entry = str(
        section.get("worker_entry", config.worker_entry))
    config.worker_state_allow = _as_tuple(
        section.get("worker_state_allow"), config.worker_state_allow)
    config.disable = tuple(
        r.upper() for r in _as_tuple(section.get("disable"), config.disable))
    return config
