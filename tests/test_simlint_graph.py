"""Tests for the project call-graph resolver and SIM012 (worker-purity).

The resolver (:mod:`repro.analysis.graph`) is exercised on synthetic
multi-module projects — import styles, re-export chains, dispatch
tables, reachability chains — and SIM012 on the fixtures the issue
demands: a leaky module-global counter two call hops from the worker
entry point fires; the same counter allowlisted in
``worker_state_allow`` stays silent.  A final section sanity-checks the
real ``src/`` tree: the graph must see through the ``_EXECUTORS``
dispatch table, and SIM012 must fire on the trace memo the moment the
shipped allowlist is removed.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.config import load_config
from repro.analysis.core import run_lint
from repro.analysis.graph import ProjectGraph, module_name

SRC_ROOT = Path(__file__).resolve().parents[1] / "src"

LEAKY_TASKS = (
    "from . import stats\n"
    "\n"
    "\n"
    "def execute_task(payload):\n"
    "    return _run(payload)\n"
    "\n"
    "\n"
    "def _run(payload):\n"
    "    return stats.record(payload['kind'])\n"
)

LEAKY_STATS = (
    "_COUNTS = {}\n"
    "\n"
    "\n"
    "def record(kind):\n"
    "    _COUNTS[kind] = _COUNTS.get(kind, 0) + 1\n"
    "    return _COUNTS[kind]\n"
)


def make_project(tmp_path, files, simlint_toml=""):
    """A throwaway project: pyproject + src/ tree from a dict."""
    (tmp_path / "pyproject.toml").write_text(
        "[tool.simlint]\n" + simlint_toml)
    for rel, text in files.items():
        p = tmp_path / "src" / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(text)
    return tmp_path / "src"


def sim012(src, **kwargs):
    result = run_lint([src], config=load_config(src),
                      select=["SIM012"], **kwargs)
    assert result.parse_errors == []
    return result.new_findings


# ---------------------------------------------------------------------------
# module_name: path -> dotted module mapping
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("relpath,expected", [
    ("src/repro/engine/tasks.py", "repro.engine.tasks"),
    ("src/repro/__init__.py", "repro"),
    ("src/repro/analysis/__init__.py", "repro.analysis"),
    ("tools/helper.py", "tools.helper"),
    ("src/repro/__pycache__/tasks.cpython-311.py", None),
    ("src/repro/data.json", None),
    ("src/repro/not-a-module.py", None),
])
def test_module_name_mapping(relpath, expected):
    assert module_name(relpath) == expected


# ---------------------------------------------------------------------------
# Import resolution and call edges on synthetic projects
# ---------------------------------------------------------------------------

def test_graph_resolves_import_styles(tmp_path):
    src = make_project(tmp_path, {
        "app/__init__.py": "from .core import Engine\n",
        "app/core.py": (
            "class Engine:\n"
            "    def start(self):\n"
            "        return helper()\n"
            "\n"
            "\n"
            "def helper():\n"
            "    return 1\n"
        ),
        "app/uses.py": (
            "import app.core\n"
            "from app.core import helper as h\n"
            "from . import core\n"
            "\n"
            "\n"
            "def via_module():\n"
            "    return app.core.helper()\n"
            "\n"
            "\n"
            "def via_alias():\n"
            "    return h()\n"
            "\n"
            "\n"
            "def via_relative():\n"
            "    return core.helper()\n"
        ),
    })
    g = ProjectGraph.from_paths([src])
    assert set(g.modules) == {"app", "app.core", "app.uses"}
    helper = "app.core.helper"
    assert g.calls["app.uses.via_module"] == {helper}
    assert g.calls["app.uses.via_alias"] == {helper}
    assert g.calls["app.uses.via_relative"] == {helper}
    # Re-export chain: app.Engine -> app.core.Engine (the class).
    assert g.resolve("app.Engine") == "app.core.Engine"


def test_graph_sees_through_dispatch_tables(tmp_path):
    src = make_project(tmp_path, {
        "app/__init__.py": "",
        "app/tasks.py": (
            "def _run_a(p):\n"
            "    return 'a'\n"
            "\n"
            "\n"
            "def _run_b(p):\n"
            "    return 'b'\n"
            "\n"
            "\n"
            "_EXECUTORS = {'a': _run_a, 'b': _run_b}\n"
            "\n"
            "\n"
            "def execute_task(payload):\n"
            "    runner = _EXECUTORS[payload['kind']]\n"
            "    return runner(payload)\n"
        ),
    })
    g = ProjectGraph.from_paths([src])
    chains = g.reachable("app.tasks.execute_task")
    assert "app.tasks._run_a" in chains
    assert "app.tasks._run_b" in chains


def test_reachability_carries_shortest_chain_witness(tmp_path):
    src = make_project(tmp_path, {
        "app/__init__.py": "",
        "app/tasks.py": LEAKY_TASKS,
        "app/stats.py": LEAKY_STATS,
    })
    g = ProjectGraph.from_paths([src])
    chains = g.reachable("app.tasks.execute_task")
    assert chains["app.stats.record"] == (
        "app.tasks.execute_task", "app.tasks._run", "app.stats.record")
    # Unreachable entry point: empty map, not a crash.
    assert g.reachable("app.tasks.no_such_function") == {}


def test_graph_skips_pycache_trees(tmp_path):
    src = make_project(tmp_path, {
        "app/__init__.py": "",
        "app/mod.py": "def f():\n    return 0\n",
        "app/__pycache__/stale.py": "def ghost():\n    return 0\n",
    })
    g = ProjectGraph.from_paths([src])
    assert "app.mod" in g.modules
    assert not any("__pycache__" in m or "stale" in m for m in g.modules)
    assert "app.__pycache__.stale.ghost" not in g.functions


# ---------------------------------------------------------------------------
# SIM012 fixtures
# ---------------------------------------------------------------------------

SIM012_TOML = 'worker_entry = "app.tasks.execute_task"\n'


def test_sim012_fires_on_leaky_counter_two_hops_out(tmp_path):
    src = make_project(tmp_path, {
        "app/__init__.py": "",
        "app/tasks.py": LEAKY_TASKS,
        "app/stats.py": LEAKY_STATS,
    }, SIM012_TOML)
    findings = sim012(src)
    assert len(findings) == 1
    (f,) = findings
    assert f.rule == "SIM012"
    assert f.path.endswith("app/stats.py")
    assert "app.stats._COUNTS" in f.message
    assert "execute_task -> _run -> record" in f.message


def test_sim012_allowlist_silences_sanctioned_memo(tmp_path):
    src = make_project(tmp_path, {
        "app/__init__.py": "",
        "app/tasks.py": LEAKY_TASKS,
        "app/stats.py": LEAKY_STATS,
    }, SIM012_TOML + 'worker_state_allow = ["app.stats._COUNTS"]\n')
    assert sim012(src) == []


def test_sim012_flags_global_statement(tmp_path):
    src = make_project(tmp_path, {
        "app/__init__.py": "",
        "app/tasks.py": (
            "_CALLS = 0\n"
            "\n"
            "\n"
            "def execute_task(payload):\n"
            "    global _CALLS\n"
            "    _CALLS += 1\n"
            "    return _CALLS\n"
        ),
    }, SIM012_TOML)
    findings = sim012(src)
    assert any("`global _CALLS`" in f.message for f in findings)


def test_sim012_flags_mutator_methods_and_module_attrs(tmp_path):
    src = make_project(tmp_path, {
        "app/__init__.py": "",
        "app/state.py": "LIMIT = 4\nSEEN = []\n",
        "app/tasks.py": (
            "from . import state\n"
            "from .state import SEEN\n"
            "\n"
            "\n"
            "def execute_task(payload):\n"
            "    SEEN.append(payload['kind'])\n"
            "    state.LIMIT = 8\n"
            "    return len(SEEN)\n"
        ),
    }, SIM012_TOML)
    messages = [f.message for f in sim012(src)]
    assert any(".append() mutates `app.state.SEEN`" in m for m in messages)
    assert any("assigns attribute `app.state.LIMIT`" in m for m in messages)


def test_sim012_ignores_locals_shadowing_globals(tmp_path):
    src = make_project(tmp_path, {
        "app/__init__.py": "",
        "app/tasks.py": (
            "_MEMO = {}\n"
            "\n"
            "\n"
            "def execute_task(payload):\n"
            "    scratch = {}\n"
            "    scratch[payload['kind']] = 1\n"
            "    scratch.update(payload)\n"
            "    return scratch\n"
        ),
    }, SIM012_TOML)
    assert sim012(src) == []


def test_sim012_silent_when_entry_point_absent(tmp_path):
    src = make_project(tmp_path, {
        "app/__init__.py": "",
        "app/other.py": "_STATE = {}\n\n\ndef f():\n    _STATE['k'] = 1\n",
    }, SIM012_TOML)
    assert sim012(src) == []


# ---------------------------------------------------------------------------
# Real-tree sanity: the shipped engine
# ---------------------------------------------------------------------------

@pytest.mark.skipif(not SRC_ROOT.is_dir(), reason="source tree not present")
def test_real_tree_reaches_workers_through_executors_table():
    g = ProjectGraph.from_paths([SRC_ROOT])
    chains = g.reachable("repro.engine.tasks.execute_task")
    # The dispatch-table hop: _EXECUTORS[kind](payload) fans out.
    assert "repro.engine.tasks._build_compiled" in chains
    assert len(chains) > 50  # the worker touches half the simulator
    assert "repro.engine.tasks._CTRACE_MEMO" in g.mutable_globals


@pytest.mark.skipif(not SRC_ROOT.is_dir(), reason="source tree not present")
def test_real_tree_sim012_fires_without_the_shipped_allowlist():
    import dataclasses
    config = dataclasses.replace(load_config(SRC_ROOT),
                                 worker_state_allow=())
    result = run_lint([SRC_ROOT], config=config, select=["SIM012"],
                      use_baseline=False)
    memo_hits = [f for f in result.new_findings
                 if "repro.engine.tasks._CTRACE_MEMO" in f.message]
    assert memo_hits, ("the compiled-trace memo must be caught once "
                       "un-allowlisted")
    for f in memo_hits:
        assert "via" in f.message  # chain witness present
