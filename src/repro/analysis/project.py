"""Project rules: SIM006 cache-key completeness, SIM012 worker purity.

SIM006 checks the engine's result cache key semantically (see below).
SIM012 checks the *worker-purity* contract: no function that runs
inside a ``ProcessPoolExecutor`` worker may mutate module-global
mutable state, because each worker forks that state and then silently
diverges from its siblings and from the serial run — defeating the
engine's bit-identical guarantee in the one place per-file rules cannot
see.  It is powered by the project-wide call graph in
:mod:`repro.analysis.graph` and the ``worker_entry`` /
``worker_state_allow`` settings in ``[tool.simlint]``.

SIM006: cache-key completeness for the engine's result cache.

The disk cache (:mod:`repro.engine.cache`) is invalidated purely by key:
a result is reused whenever its task fingerprint matches, so any
generation-config field that the fingerprint does *not* consume lets two
different configurations alias the same cache entry — silently serving
one design's results as another's.  This rule closes that hole
mechanically:

* every field of every config dataclass (``GenerationConfig`` and its
  nested blocks, discovered via :func:`dataclasses.fields` so new fields
  are picked up automatically) is perturbed one at a time, and the
  perturbed config must produce a different
  :func:`repro.engine.tasks.task_fingerprint`;
* the same perturbation check runs over ``TraceSpec``;
* every shipped generation must survive a
  ``config_from_dict(config_to_dict(c)) == c`` round-trip, which catches
  a nested dataclass field added without a
  ``repro.serialization._NESTED_TYPES`` registration.

Unlike the SIM00x AST rules this one imports the live package: it is a
semantic contract check, triggered only when the scanned files include
the engine/config modules themselves.
"""

from __future__ import annotations

import ast
import dataclasses
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

from .config import LintConfig
from .core import FileContext, Finding, ProjectRule
from .graph import (MUTATOR_METHODS, ModuleInfo, MutableGlobal,
                    ProjectGraph, build_graph)

#: File suffixes whose presence in the scan scope activates the rule.
_TRIGGER_SUFFIXES = (
    "repro/engine/cache.py",
    "repro/engine/tasks.py",
    "repro/config.py",
)


def _perturbed(value: object) -> object:
    """A value provably different from ``value`` under JSON encoding."""
    if isinstance(value, bool):  # before int: bool is an int subclass
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 1.0
    if isinstance(value, str):
        return value + "~"
    if isinstance(value, tuple):
        if value and isinstance(value[0], (int, float)):
            return (value[0] + 1,) + value[1:]
        return value + (1,)
    return None


def iter_field_perturbations(config: object, prefix: str = ""
                             ) -> Iterator[Tuple[str, object]]:
    """Yield ``(field_path, variant)`` for every (nested) dataclass field.

    ``variant`` is a copy of ``config`` with exactly that one field
    changed.  ``None``-valued fields are skipped — callers cover them by
    also passing a base config where the field is populated (e.g. M3,
    whose L3/L1.5D-TLB exist).
    """
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        path = prefix + f.name
        if value is None:
            continue
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            for subpath, nested in iter_field_perturbations(value,
                                                           path + "."):
                yield subpath, dataclasses.replace(config, **{f.name: nested})
        else:
            new = _perturbed(value)
            if new is None:
                continue  # unsupported leaf type: reported by caller
            yield path, dataclasses.replace(config, **{f.name: new})


def uncovered_fields(configs: Sequence[object],
                     fingerprint: Callable[[object], str]) -> List[str]:
    """Field paths whose perturbation never changes the fingerprint.

    A field passes if, in at least one base config where it could be
    perturbed, the fingerprint changed; it fails if every perturbation
    left the fingerprint identical — i.e. the cache key does not consume
    it and two configs differing only there would alias cache entries.
    """
    covered: Dict[str, bool] = {}
    for config in configs:
        base = fingerprint(config)
        for path, variant in iter_field_perturbations(config):
            changed = fingerprint(variant) != base
            covered[path] = covered.get(path, False) or changed
    return sorted(path for path, ok in covered.items() if not ok)


class CacheKeyCompletenessRule(ProjectRule):
    """SIM006: every config/spec field must reach the task fingerprint."""

    id = "SIM006"
    name = "cache-key-completeness"
    severity = "error"
    description = ("a generation-config or trace-spec field is not "
                   "consumed by the engine cache fingerprint")

    def _anchor(self, ctxs: Sequence[FileContext],
                suffix: str, symbol: str) -> Tuple[str, int]:
        """Attribute findings to the definition they indict."""
        for ctx in ctxs:
            if ctx.relpath.endswith(suffix):
                for i, text in enumerate(ctx.lines, start=1):
                    if symbol in text:
                        return ctx.relpath, i
                return ctx.relpath, 1
        return suffix, 1

    def _finding_at(self, path: str, line: int, message: str) -> Finding:
        return Finding(rule=self.id, severity=self.severity, path=path,
                       line=line, col=0, message=message)

    def check_project(self, ctxs: Sequence[FileContext],
                      config: LintConfig) -> Iterable[Finding]:
        if not any(ctx.relpath.endswith(_TRIGGER_SUFFIXES) for ctx in ctxs):
            return []
        try:
            return list(self._check(ctxs))
        except Exception as exc:
            # Deliberately broad (legal outside strict_except_paths):
            # surface harness breakage as a finding rather than crashing
            # the whole lint run — the lint must stay usable mid-refactor.
            path, line = self._anchor(ctxs, "repro/engine/tasks.py",
                                      "def task_fingerprint")
            return [self._finding_at(
                path, line,
                f"SIM006 could not evaluate the engine fingerprint "
                f"({type(exc).__name__}: {exc})")]

    def _check(self, ctxs: Sequence[FileContext]) -> Iterator[Finding]:
        from .. import config as config_mod
        from ..engine.tasks import population_task, task_fingerprint
        from ..serialization import config_from_dict, config_to_dict
        from ..traces.spec import TraceSpec

        fp_path, fp_line = self._anchor(ctxs, "repro/engine/tasks.py",
                                        "def task_fingerprint")
        spec = TraceSpec("specint_like", 1, 1024)

        def config_fp(cfg: object) -> str:
            return task_fingerprint(population_task(cfg, spec))

        # M1 (baseline), M3 (L3 + L1.5D TLB populated) and M6 (every
        # late-generation feature on) jointly populate every Optional.
        bases = [config_mod.M1, config_mod.M3, config_mod.M6]
        for path in uncovered_fields(bases, config_fp):
            yield self._finding_at(
                fp_path, fp_line,
                f"generation-config field `{path}` does not change the "
                "engine task fingerprint: two configs differing only "
                "there would alias one cache entry")

        def spec_fp(s: object) -> str:
            return task_fingerprint(population_task(config_mod.M1, s))

        for path in uncovered_fields([spec], spec_fp):
            yield self._finding_at(
                fp_path, fp_line,
                f"trace-spec field `{path}` does not change the engine "
                "task fingerprint: two traces differing only there would "
                "alias one cache entry")

        ser_path, ser_line = self._anchor(ctxs, "repro/serialization.py",
                                          "_NESTED_TYPES")
        for name in config_mod.GENERATION_ORDER:
            cfg = config_mod.get_generation(name)
            rebuilt = config_from_dict(config_to_dict(cfg))
            if rebuilt != cfg:
                yield self._finding_at(
                    ser_path, ser_line,
                    f"config_from_dict(config_to_dict({name})) != {name}: "
                    "a nested config field is missing from "
                    "repro.serialization._NESTED_TYPES")


def _bound_names(target: ast.expr) -> Iterator[str]:
    """Names a binding target actually binds: plain names and
    destructuring tuples/lists/stars — *not* the root of a subscript or
    attribute target (``MEMO[k] = v`` binds nothing; it mutates)."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for el in target.elts:
            yield from _bound_names(el)
    elif isinstance(target, ast.Starred):
        yield from _bound_names(target.value)


class WorkerPurityRule(ProjectRule):
    """SIM012: no module-global mutable state in worker-reachable code.

    Walks every function the project call graph proves reachable from
    ``config.worker_entry`` (default
    ``repro.engine.tasks.execute_task``, the ``ProcessPoolExecutor``
    worker entry point) and flags:

    * mutation of a module-level mutable container — subscript writes
      (``MEMO[k] = v``, ``del MEMO[k]``, ``MEMO[k] += v``) and mutator
      method calls (``.append``/``.update``/``.popitem``/
      ``.move_to_end``/...), including globals imported from another
      module (``from .tasks import _CTRACE_MEMO``);
    * ``global NAME`` statements (rebinding module state from inside a
      worker is the same hazard in rebinding clothes);
    * attribute assignment on an imported module object
      (``tasks.LIMIT = 4`` monkey-patching).

    Sanctioned per-process state — deliberately fork-local memos whose
    contents never leak into results, like the engine's compiled-trace
    memo — is allowlisted by fully-qualified name via
    ``worker_state_allow`` in ``[tool.simlint]``.  Every finding carries
    the shortest call chain from the entry point as its witness.
    """

    id = "SIM012"
    name = "worker-purity"
    severity = "error"
    description = ("module-global mutable state mutated in code "
                   "reachable from the worker entry point")

    def check_project(self, ctxs: Sequence[FileContext],
                      config: LintConfig) -> Iterable[Finding]:
        graph = build_graph(ctxs)
        chains = graph.reachable(config.worker_entry)
        if not chains:
            return
        allow = set(config.worker_state_allow)
        for qualname in sorted(chains):
            fi = graph.functions.get(qualname)
            mod = graph.function_module(qualname)
            if fi is None or mod is None:
                continue
            yield from self._scan_function(graph, mod, fi.node,
                                           chains[qualname], allow)

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _chain_text(chain: Tuple[str, ...]) -> str:
        return " -> ".join(qn.rsplit(".", 1)[-1] for qn in chain)

    @staticmethod
    def _local_names(func: ast.AST) -> Set[str]:
        """Names bound locally (params + assignments) minus globals."""
        declared_global: Set[str] = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        local: Set[str] = set()
        args = func.args
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                  args.vararg, args.kwarg):
            if a is not None:
                local.add(a.arg)
        for node in ast.walk(func):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                targets = [node.target]
            elif isinstance(node, (ast.withitem,)):
                if node.optional_vars is not None:
                    targets = [node.optional_vars]
            elif isinstance(node, ast.comprehension):
                targets = [node.target]
            for t in targets:
                local.update(_bound_names(t))
        return local - declared_global

    @staticmethod
    def _global_for(graph: ProjectGraph, mod: ModuleInfo, name: str,
                    local_names: Set[str]) -> Optional[MutableGlobal]:
        """The mutable global ``name`` refers to in this scope, if any."""
        if name in local_names:
            return None
        target = mod.imports.get(name, f"{mod.name}.{name}")
        return graph.mutable_globals.get(target)

    def _scan_function(self, graph: ProjectGraph, mod: ModuleInfo,
                       func: ast.AST, chain: Tuple[str, ...],
                       allow: Set[str]) -> Iterator[Finding]:
        ctx = mod.ctx
        local_names = self._local_names(func)
        via = self._chain_text(chain)

        def root_global(expr: ast.AST) -> Optional[MutableGlobal]:
            if isinstance(expr, ast.Name):
                return self._global_for(graph, mod, expr.id, local_names)
            return None

        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                for name in node.names:
                    qn = mod.imports.get(name, f"{mod.name}.{name}")
                    if qn in allow:
                        continue
                    yield self.finding(
                        ctx, node,
                        f"`global {name}` inside worker-reachable code "
                        f"(via {via}) rebinds per-process module state; "
                        "thread state explicitly or allowlist it in "
                        "worker_state_allow")
                continue
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for t in targets:
                if isinstance(t, ast.Subscript):
                    g = root_global(t.value)
                    if g is not None and g.qualname not in allow:
                        yield self.finding(
                            ctx, node,
                            f"writes `{g.qualname}` ({g.kind}, module "
                            f"global) inside worker-reachable code (via "
                            f"{via}); workers fork then diverge this "
                            "state — pass it explicitly or allowlist "
                            "the sanctioned memo in worker_state_allow")
                elif isinstance(t, ast.Attribute) and \
                        isinstance(t.value, ast.Name) and \
                        t.value.id not in local_names:
                    owner = mod.imports.get(t.value.id)
                    if owner is not None and owner in graph.modules:
                        qn = f"{owner}.{t.attr}"
                        if qn not in allow:
                            yield self.finding(
                                ctx, node,
                                f"assigns attribute `{qn}` on module "
                                f"`{owner}` inside worker-reachable code "
                                f"(via {via}); monkey-patching module "
                                "state is fork-divergent")
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr in MUTATOR_METHODS:
                g = root_global(node.func.value)
                if g is not None and g.qualname not in allow:
                    yield self.finding(
                        ctx, node,
                        f".{node.func.attr}() mutates `{g.qualname}` "
                        f"({g.kind}, module global) inside worker-"
                        f"reachable code (via {via}); workers fork then "
                        "diverge this state — pass it explicitly or "
                        "allowlist the sanctioned memo in "
                        "worker_state_allow")


PROJECT_RULES = (CacheKeyCompletenessRule(), WorkerPurityRule())
