"""Project-wide symbol resolution, call graph, and worker reachability.

The SIM001-SIM011 rules see one file at a time.  The hazard they cannot
see is *cross-module*: a helper three imports away from
:func:`repro.engine.tasks.execute_task` mutating a module-level dict
means every ``ProcessPoolExecutor`` worker forks (then silently
diverges) that state — the exact failure mode the engine's bit-identical
parallel-vs-serial guarantee forbids.  Seeing it requires knowing which
functions actually run inside worker processes, which requires a
project-wide call graph.

This module builds that graph from the same :class:`FileContext`
objects a lint run already parsed (no second parse, no imports of the
live package):

* :func:`module_name` maps a scanned file's repo-relative path to its
  dotted module name (``src/repro/engine/tasks.py`` →
  ``repro.engine.tasks``);
* :class:`ModuleInfo` holds one module's symbol table — top-level
  functions, classes with their methods and inferred instance-attribute
  types, module-level **mutable globals** (dict/list/set/deque/...
  assignments), and an import map with relative imports resolved
  against the module's package;
* :class:`ProjectGraph` resolves dotted names across modules (following
  re-export chains like ``repro.core.GenerationSimulator`` →
  ``repro.core.simulator.GenerationSimulator``), extracts call edges
  per function (direct calls, constructor calls, ``self.method()``,
  methods on locals whose constructor was seen, methods on
  ``self.attr`` objects typed from ``__init__`` assignments), and
  answers reachability queries with the full call chain for
  diagnostics.

SIM012 (:class:`repro.analysis.project.WorkerPurityRule`) is the
consumer: it walks every function reachable from the configured worker
entry point and flags mutations of module-global mutable state.  The
graph is deliberately *best-effort and static*: unresolvable dynamic
dispatch (``table[key]()``, values returned from untyped calls) drops
edges rather than guessing, so the reachable set is a useful
under-approximation refined by the explicit ``worker_state_allow``
allowlist on the reporting side.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .config import LintConfig
from .core import FileContext

#: Calls whose result is a fresh mutable container (module-level
#: ``NAME = <one of these>`` makes NAME a tracked mutable global).
_MUTABLE_CALLS = frozenset({
    "dict", "list", "set", "bytearray",
    "collections.OrderedDict", "collections.defaultdict",
    "collections.deque", "collections.Counter",
    "OrderedDict", "defaultdict", "deque", "Counter",
})

#: Method names that mutate the container they are called on.
MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear", "sort",
    "reverse", "add", "discard", "update", "setdefault", "popitem",
    "move_to_end", "appendleft", "extendleft", "popleft", "rotate",
    "difference_update", "intersection_update", "symmetric_difference_update",
})


def module_name(relpath: str) -> Optional[str]:
    """Dotted module name for a repo-relative posix path, or None.

    A leading ``src/`` component (the setuptools package dir) is
    stripped; ``__init__.py`` names the package itself.  Files inside
    ``__pycache__`` (stale bytecode trees predating the .gitignore) are
    never modules and return None.
    """
    parts = list(Path(relpath).parts)
    if not parts or not parts[-1].endswith(".py"):
        return None
    if "__pycache__" in parts:
        return None
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if not parts:
        return None
    parts[-1] = parts[-1][:-3]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    if not parts or not all(p.isidentifier() for p in parts):
        return None
    return ".".join(parts)


@dataclass(frozen=True)
class MutableGlobal:
    """One module-level assignment of a mutable container."""

    qualname: str  # e.g. "repro.engine.tasks._CTRACE_MEMO"
    module: str
    name: str
    path: str
    line: int
    kind: str  # "dict", "list", "OrderedDict()", ...


@dataclass
class FunctionInfo:
    """One function or method, addressable by project-wide qualname."""

    qualname: str  # "pkg.mod.func" or "pkg.mod.Class.method"
    module: str
    node: ast.AST  # FunctionDef / AsyncFunctionDef
    class_name: Optional[str] = None  # local class name for methods


@dataclass
class ClassInfo:
    """One class: its methods and inferred instance-attribute types."""

    qualname: str
    module: str
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: instance attribute -> dotted constructor name as written
    #: (``self.frontend = BranchUnit(...)`` records ``frontend`` ->
    #: ``BranchUnit``); resolved lazily against the full graph.
    attr_ctors: Dict[str, str] = field(default_factory=dict)


class ModuleInfo:
    """Symbol table for one scanned module."""

    def __init__(self, name: str, ctx: FileContext) -> None:
        self.name = name
        self.ctx = ctx
        self.relpath = ctx.relpath
        self.is_package = Path(ctx.relpath).name == "__init__.py"
        #: alias -> fully-qualified dotted target; module-level and
        #: function-level imports merged (an over-approximation that is
        #: harmless for call resolution), relative imports resolved.
        self.imports: Dict[str, str] = self._collect_imports(ctx.tree)
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.mutable_globals: Dict[str, MutableGlobal] = {}
        self.global_names: Set[str] = set()
        #: Module-level dispatch tables: ``NAME = {"k": func, ...}`` (or
        #: a list/tuple of functions).  Subscripting one and calling the
        #: result is the registry idiom (``_EXECUTORS[kind](payload)``);
        #: the graph fans an edge out to every table entry.
        self.function_tables: Dict[str, List[str]] = {}
        self._collect_symbols(ctx.tree)

    # -- imports ------------------------------------------------------------

    def _package_parts(self) -> List[str]:
        parts = self.name.split(".")
        return parts if self.is_package else parts[:-1]

    def _collect_imports(self, tree: ast.Module) -> Dict[str, str]:
        out: Dict[str, str] = {}
        pkg = self._package_parts()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        out[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".")[0]
                        out[top] = top
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    # ``from ..x import y`` in package P: climb level-1
                    # packages up from P, then append the module path.
                    if node.level - 1 > len(pkg):
                        continue  # beyond the project root: unresolvable
                    base = pkg[:len(pkg) - (node.level - 1)] \
                        if node.level > 1 else list(pkg)
                    module = ".".join(
                        base + (node.module.split(".") if node.module
                                else []))
                else:
                    module = node.module or ""
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    target = f"{module}.{alias.name}" if module \
                        else alias.name
                    out[alias.asname or alias.name] = target
        return out

    # -- symbols ------------------------------------------------------------

    def _collect_symbols(self, tree: ast.Module) -> None:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qn = f"{self.name}.{node.name}"
                self.functions[node.name] = FunctionInfo(qn, self.name, node)
            elif isinstance(node, ast.ClassDef):
                self._collect_class(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                self._collect_global(node)
        # Every module-level binding (mutable or not) — the SIM012
        # ``global NAME`` check needs the full set.
        for node in tree.body:
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    self.global_names.add(t.id)

    def _collect_class(self, node: ast.ClassDef) -> None:
        info = ClassInfo(qualname=f"{self.name}.{node.name}",
                         module=self.name)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fi = FunctionInfo(f"{info.qualname}.{item.name}",
                                  self.name, item, class_name=node.name)
                info.methods[item.name] = fi
                for sub in ast.walk(item):
                    # ``self.attr = Ctor(...)`` types the attribute.
                    if isinstance(sub, ast.Assign) and \
                            isinstance(sub.value, ast.Call):
                        ctor = self.ctx.qualname(sub.value.func)
                        if ctor is None:
                            continue
                        for t in sub.targets:
                            if isinstance(t, ast.Attribute) and \
                                    isinstance(t.value, ast.Name) and \
                                    t.value.id == "self":
                                info.attr_ctors.setdefault(t.attr, ctor)
        self.classes[node.name] = info

    def _mutable_kind(self, value: ast.AST) -> Optional[str]:
        if isinstance(value, (ast.Dict, ast.DictComp)):
            return "dict"
        if isinstance(value, (ast.List, ast.ListComp)):
            return "list"
        if isinstance(value, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(value, ast.Call):
            qn = self.ctx.qualname(value.func)
            if qn is None:
                return None
            resolved = self.imports.get(qn.split(".")[0])
            if resolved is not None and "." in qn:
                qn = ".".join([resolved] + qn.split(".")[1:])
            if qn in _MUTABLE_CALLS or qn.split(".")[-1] in {
                    "OrderedDict", "defaultdict", "deque", "Counter"}:
                return f"{qn.split('.')[-1]}()"
            if qn in ("dict", "list", "set", "bytearray"):
                return qn
        return None

    def _collect_global(self, node: ast.AST) -> None:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        else:  # AnnAssign
            targets = [node.target]
            value = node.value
            if value is None:
                return
        kind = self._mutable_kind(value)
        if kind is not None:
            for t in targets:
                if isinstance(t, ast.Name):
                    self.mutable_globals[t.id] = MutableGlobal(
                        qualname=f"{self.name}.{t.id}", module=self.name,
                        name=t.id, path=self.relpath, line=node.lineno,
                        kind=kind)
        entries = self._table_entries(value)
        if entries:
            for t in targets:
                if isinstance(t, ast.Name):
                    self.function_tables[t.id] = entries

    def _table_entries(self, value: ast.AST) -> List[str]:
        """Written callee names when ``value`` is a literal of them."""
        if isinstance(value, ast.Dict):
            elements = value.values
        elif isinstance(value, (ast.List, ast.Tuple, ast.Set)):
            elements = value.elts
        else:
            return []
        names: List[str] = []
        for el in elements:
            if isinstance(el, (ast.Name, ast.Attribute)):
                written = self.ctx.qualname(el)
                if written is not None:
                    names.append(written)
        return names if len(names) == len(elements) and names else []


class ProjectGraph:
    """Modules, symbols and call edges for one scanned file set."""

    def __init__(self, modules: Dict[str, ModuleInfo]) -> None:
        self.modules = modules
        #: qualname -> FunctionInfo, every function and method.
        self.functions: Dict[str, FunctionInfo] = {}
        #: qualname -> ClassInfo.
        self.classes: Dict[str, ClassInfo] = {}
        #: qualname -> MutableGlobal, every module-level mutable.
        self.mutable_globals: Dict[str, MutableGlobal] = {}
        #: qualname -> entry names (as written in the owning module).
        self.function_tables: Dict[str, Tuple[str, List[str]]] = {}
        for mod in modules.values():
            for name, entries in mod.function_tables.items():
                self.function_tables[f"{mod.name}.{name}"] = (mod.name,
                                                              entries)
        for mod in modules.values():
            for fi in mod.functions.values():
                self.functions[fi.qualname] = fi
            for ci in mod.classes.values():
                self.classes[ci.qualname] = ci
                for fi in ci.methods.values():
                    self.functions[fi.qualname] = fi
            for g in mod.mutable_globals.values():
                self.mutable_globals[g.qualname] = g
        #: caller qualname -> callee qualnames (resolved edges only).
        self.calls: Dict[str, Set[str]] = {}
        for mod in modules.values():
            for fi in mod.functions.values():
                self.calls[fi.qualname] = self._edges(mod, fi)
            for ci in mod.classes.values():
                for fi in ci.methods.values():
                    self.calls[fi.qualname] = self._edges(mod, fi)

    # -- construction -------------------------------------------------------

    @classmethod
    def from_contexts(cls, ctxs: Sequence[FileContext]) -> "ProjectGraph":
        modules: Dict[str, ModuleInfo] = {}
        for ctx in ctxs:
            name = module_name(ctx.relpath)
            if name is None:
                continue
            modules[name] = ModuleInfo(name, ctx)
        return cls(modules)

    @classmethod
    def from_paths(cls, paths: Sequence, *,
                   config: Optional[LintConfig] = None) -> "ProjectGraph":
        """Parse and resolve a source tree directly (standalone use).

        Walks like the lint runner — ``config.exclude`` directory parts
        (``__pycache__`` above all) are skipped, unparsable files are
        dropped silently.
        """
        from .config import load_config
        from .core import _relpath, iter_python_files

        paths = [Path(p) for p in paths]
        if config is None:
            config = load_config(paths[0] if paths else Path.cwd())
        ctxs: List[FileContext] = []
        for path in iter_python_files(paths, config.exclude):
            rel = _relpath(path, config.project_root)
            try:
                ctxs.append(FileContext(path, rel,
                                        path.read_text(encoding="utf-8")))
            except (OSError, SyntaxError, ValueError):
                continue
        return cls.from_contexts(ctxs)

    # -- name resolution ----------------------------------------------------

    def resolve(self, dotted: str, _depth: int = 0) -> Optional[str]:
        """Project qualname (function or class) for a dotted name.

        Follows re-export chains (``from .simulator import X`` in an
        ``__init__``) up to a small depth bound, so
        ``repro.core.GenerationSimulator`` resolves to the class defined
        in ``repro.core.simulator``.
        """
        if _depth > 8:
            return None
        if dotted in self.functions or dotted in self.classes:
            return dotted
        # Longest module prefix owning the head of the remainder.
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            mod = self.modules.get(".".join(parts[:cut]))
            if mod is None:
                continue
            rest = parts[cut:]
            head = rest[0]
            if head in mod.functions and len(rest) == 1:
                return mod.functions[head].qualname
            if head in mod.classes:
                ci = mod.classes[head]
                if len(rest) == 1:
                    return ci.qualname
                if len(rest) == 2 and rest[1] in ci.methods:
                    return ci.methods[rest[1]].qualname
                return None
            if head in mod.imports:
                target = ".".join([mod.imports[head]] + rest[1:])
                return self.resolve(target, _depth + 1)
            return None
        return None

    def _resolve_local(self, mod: ModuleInfo, dotted: str) -> Optional[str]:
        """Resolve a name as written inside ``mod`` to a qualname."""
        head = dotted.split(".")[0]
        rest = dotted.split(".")[1:]
        if not rest:
            if head in mod.functions:
                return mod.functions[head].qualname
            if head in mod.classes:
                return mod.classes[head].qualname
        elif head in mod.classes and len(rest) == 1 and \
                rest[0] in mod.classes[head].methods:
            return mod.classes[head].methods[rest[0]].qualname
        if head in mod.imports:
            return self.resolve(".".join([mod.imports[head]] + rest))
        return self.resolve(dotted)

    # -- call edges ---------------------------------------------------------

    def _callable_edges(self, target: Optional[str]) -> Set[str]:
        """Edges implied by calling ``target`` (a resolved qualname)."""
        if target is None:
            return set()
        if target in self.functions:
            return {target}
        ci = self.classes.get(target)
        if ci is not None:  # constructor call
            out = set()
            if "__init__" in ci.methods:
                out.add(ci.methods["__init__"].qualname)
            if "__post_init__" in ci.methods:
                out.add(ci.methods["__post_init__"].qualname)
            return out
        return set()

    def _table_edges(self, mod: ModuleInfo, expr: ast.AST) -> Set[str]:
        """Edges from subscripting a dispatch table: every entry."""
        if not isinstance(expr, ast.Name):
            return set()
        owner_mod, entries = None, None
        if expr.id in mod.function_tables:
            owner_mod, entries = mod.name, mod.function_tables[expr.id]
        else:
            target = mod.imports.get(expr.id)
            if target in self.function_tables:
                owner_mod, entries = self.function_tables[target]
        if entries is None:
            return set()
        owner = self.modules.get(owner_mod, mod)
        out: Set[str] = set()
        for written in entries:
            out |= self._callable_edges(self._resolve_local(owner, written))
        return out

    def _edges(self, mod: ModuleInfo, fi: FunctionInfo) -> Set[str]:
        edges: Set[str] = set()
        cls = mod.classes.get(fi.class_name) if fi.class_name else None
        # Pre-pass: locals typed by a visible constructor call, and
        # locals holding a dispatch-table lookup.
        local_types: Dict[str, str] = {}
        local_dispatch: Dict[str, Set[str]] = {}
        for node in ast.walk(fi.node):
            if not isinstance(node, ast.Assign):
                continue
            if isinstance(node.value, ast.Call):
                written = mod.ctx.qualname(node.value.func)
                if written is None:
                    continue
                resolved = self._resolve_local(mod, written)
                if resolved in self.classes:
                    for t in node.targets:
                        if isinstance(t, ast.Name):
                            local_types[t.id] = resolved
            elif isinstance(node.value, ast.Subscript):
                fanout = self._table_edges(mod, node.value.value)
                if fanout:
                    for t in node.targets:
                        if isinstance(t, ast.Name):
                            local_dispatch[t.id] = fanout
        for node in ast.walk(fi.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Subscript):  # TABLE[key](...)
                edges |= self._table_edges(mod, func.value)
                continue
            if isinstance(func, ast.Name) and func.id in local_dispatch:
                edges |= local_dispatch[func.id]
                continue
            if isinstance(func, ast.Attribute) and \
                    isinstance(func.value, ast.Name):
                base = func.value.id
                if base == "self" and cls is not None:
                    m = cls.methods.get(func.attr)
                    if m is not None:
                        edges.add(m.qualname)
                        continue
                if base in local_types:
                    owner = self.classes.get(local_types[base])
                    if owner and func.attr in owner.methods:
                        edges.add(owner.methods[func.attr].qualname)
                        continue
            if isinstance(func, ast.Attribute) and \
                    isinstance(func.value, ast.Attribute) and \
                    isinstance(func.value.value, ast.Name) and \
                    func.value.value.id == "self" and cls is not None:
                # self.attr.method(): type the attr from __init__.
                ctor = cls.attr_ctors.get(func.value.attr)
                if ctor is not None:
                    owner_qn = self._resolve_local(mod, ctor)
                    owner = self.classes.get(owner_qn or "")
                    if owner and func.attr in owner.methods:
                        edges.add(owner.methods[func.attr].qualname)
                        continue
            written = mod.ctx.qualname(func)
            if written is None:
                continue
            edges |= self._callable_edges(self._resolve_local(mod, written))
        edges.discard(fi.qualname)
        return edges

    # -- reachability -------------------------------------------------------

    def reachable(self, entry: str) -> Dict[str, Tuple[str, ...]]:
        """Every function reachable from ``entry``, with its call chain.

        Returns ``{qualname: (entry, ..., qualname)}`` — the BFS chain
        is the shortest witness, used verbatim in SIM012 messages.
        Returns an empty dict when the entry is not in the graph.
        """
        start = self.resolve(entry)
        if start is None or start not in self.functions:
            return {}
        chains: Dict[str, Tuple[str, ...]] = {start: (start,)}
        queue: List[str] = [start]
        while queue:
            cur = queue.pop(0)
            for callee in sorted(self.calls.get(cur, ())):
                if callee not in chains:
                    chains[callee] = chains[cur] + (callee,)
                    queue.append(callee)
        return chains

    def function_module(self, qualname: str) -> Optional[ModuleInfo]:
        fi = self.functions.get(qualname)
        return self.modules.get(fi.module) if fi else None


def build_graph(ctxs: Iterable[FileContext]) -> ProjectGraph:
    """Convenience wrapper used by the SIM012 project rule."""
    return ProjectGraph.from_contexts(list(ctxs))
