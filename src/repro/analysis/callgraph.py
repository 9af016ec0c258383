"""Import graph, project symbol table, and call graph.

Built once per analysis run from the per-module facts
(:mod:`repro.analysis.symbols`); the RPR100-series checks consult it to
resolve a name used in one module to its definition in another —
following ``from .impl import thing`` re-export chains and top-level
``thing = other`` re-bindings (the ``__init__`` aliasing idiom) — and to
expand property reads into the fields those properties touch.

The import graph is deliberately tolerant: edges to modules outside the
analyzed set (numpy, stdlib) are kept as leaf names so the graph is
complete, but resolution only ever succeeds into analyzed modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .symbols import ModuleFacts


@dataclass(frozen=True)
class Definition:
    """A resolved definition site: ``module``-qualified ``qualname``."""

    module: str
    qualname: str
    kind: str            # "function" | "class" | "module" | "alias"

    @property
    def key(self) -> str:
        return f"{self.module}:{self.qualname}"


class ProjectGraph:
    """Symbol table + import graph + call graph over a facts set."""

    def __init__(self, modules: Iterable[ModuleFacts]) -> None:
        self.modules: dict[str, ModuleFacts] = {
            m.module: m for m in modules}
        #: module -> imported module names (analyzed or external).
        #: ``from pkg import submodule`` records ``pkg`` in the facts;
        #: promote the binding to a ``pkg.submodule`` edge when that
        #: submodule is part of the analyzed set.
        self.import_edges: dict[str, set[str]] = {}
        for name, m in self.modules.items():
            edges = set(m.imports)
            for binding in m.import_bindings.values():
                if ":" in binding:
                    target, attr = binding.split(":", 1)
                    candidate = f"{target}.{attr}"
                    if candidate in self.modules:
                        edges.add(candidate)
            self.import_edges[name] = edges
        self._definitions: dict[str, dict[str, Definition]] = {}
        self._resolving: set[tuple[str, str]] = set()
        for name, facts in self.modules.items():
            defs: dict[str, Definition] = {}
            for qual, fn in facts.functions.items():
                if "." not in qual:
                    defs[qual] = Definition(name, qual, "function")
            for cname in facts.classes:
                if "." not in cname:
                    defs[cname] = Definition(name, cname, "class")
            self._definitions[name] = defs
        #: simple function name -> every definition carrying it.
        self.functions_by_name: dict[str, list[tuple[str, str]]] = {}
        for name, facts in self.modules.items():
            for qual in facts.functions:
                simple = qual.rsplit(".", 1)[-1]
                self.functions_by_name.setdefault(simple, []).append(
                    (name, qual))

    # ------------------------------------------------------------------ #
    # Name resolution
    # ------------------------------------------------------------------ #
    def resolve(self, module: str, name: str,
                _depth: int = 0) -> Definition | None:
        """Resolve ``name`` as seen from ``module`` to its definition.

        Follows import bindings (``from .impl import thing``), package
        re-exports (``__init__`` importing from a submodule), and
        top-level alias re-bindings (``thing = other_thing``), with a
        depth limit so accidental cycles cannot hang the analyzer.
        """
        if _depth > 16:
            return None
        facts = self.modules.get(module)
        if facts is None:
            return None
        local = self._definitions.get(module, {}).get(name)
        if local is not None:
            return local
        alias = facts.aliases.get(name)
        if alias is not None and alias != name:
            return self.resolve(module, alias, _depth + 1)
        binding = facts.import_bindings.get(name)
        if binding is None:
            return None
        if ":" not in binding:
            if binding in self.modules:
                return Definition(binding, "", "module")
            return None
        target_module, attr = binding.split(":", 1)
        if target_module in self.modules:
            resolved = self.resolve(target_module, attr, _depth + 1)
            if resolved is not None:
                return resolved
        # `from pkg import submodule` where submodule is a module.
        candidate = f"{target_module}.{attr}"
        if candidate in self.modules:
            return Definition(candidate, "", "module")
        return None

    def resolve_dotted(self, module: str, dotted: str) -> Definition | None:
        """Resolve a dotted use like ``pkg.mod.func`` or ``alias.func``."""
        parts = dotted.split(".")
        head = self.resolve(module, parts[0])
        if head is None:
            return None
        for part in parts[1:]:
            if head.kind == "module":
                head = self.resolve(head.module, part)
                if head is None:
                    return None
            elif head.kind == "class":
                # method lookup on a resolved class
                facts = self.modules.get(head.module)
                if facts is None:
                    return None
                qual = f"{head.qualname}.{part}"
                if qual in facts.functions:
                    return Definition(head.module, qual, "function")
                return None
            else:
                return None
        return head

    # ------------------------------------------------------------------ #
    # Call graph
    # ------------------------------------------------------------------ #
    def call_edges(self) -> dict[str, set[str]]:
        """Resolved call graph: ``module:qualname`` -> callee keys.

        Unresolvable callees (externals, dynamic dispatch) are omitted;
        method calls through ``self`` resolve within the caller's class.
        """
        edges: dict[str, set[str]] = {}
        for name, facts in self.modules.items():
            for caller, callee_dotted, _line in facts.calls:
                caller_key = f"{name}:{caller}"
                target = self._resolve_callee(name, caller, callee_dotted)
                if target is not None:
                    edges.setdefault(caller_key, set()).add(target.key)
        return edges

    def _resolve_callee(self, module: str, caller: str,
                        dotted: str) -> Definition | None:
        facts = self.modules[module]
        if dotted.startswith("self."):
            attr = dotted.split(".", 1)[1]
            if "." in attr:
                return None
            if "." in caller:
                cls = caller.rsplit(".", 1)[0]
                qual = f"{cls}.{attr}"
                if qual in facts.functions:
                    return Definition(module, qual, "function")
            return None
        return self.resolve_dotted(module, dotted)

    # ------------------------------------------------------------------ #
    # Import cycles
    # ------------------------------------------------------------------ #
    def import_cycles(self) -> list[list[str]]:
        """Strongly-connected components (size > 1) of the import graph.

        Only edges between analyzed modules participate; a package and a
        submodule importing each other is the classic cycle this surfaces.
        Deterministic: components and their members are sorted.
        """
        graph = {
            name: sorted(t for t in targets if t in self.modules)
            for name, targets in self.import_edges.items()}
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        counter = [0]
        components: list[list[str]] = []

        def strongconnect(v: str) -> None:
            # Iterative Tarjan: recursion depth is unbounded on long
            # import chains.
            work = [(v, iter(graph.get(v, ())))]
            index[v] = low[v] = counter[0]
            counter[0] += 1
            stack.append(v)
            on_stack.add(v)
            while work:
                node, it = work[-1]
                advanced = False
                for w in it:
                    if w not in index:
                        index[w] = low[w] = counter[0]
                        counter[0] += 1
                        stack.append(w)
                        on_stack.add(w)
                        work.append((w, iter(graph.get(w, ()))))
                        advanced = True
                        break
                    if w in on_stack:
                        low[node] = min(low[node], index[w])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == node:
                            break
                    if len(comp) > 1:
                        components.append(sorted(comp))

        for v in sorted(graph):
            if v not in index:
                strongconnect(v)
        return sorted(components)

    # ------------------------------------------------------------------ #
    # Property expansion
    # ------------------------------------------------------------------ #
    def property_field_reads(self, module: str,
                             class_name: str) -> dict[str, set[str]]:
        """Per-property transitive ``self.X`` reads for one class.

        A property whose body reads another property is expanded until
        only non-property attribute names remain — exactly what RPR104
        needs to credit code that reads ``cfg.recovery_bandwidth`` with a
        read of ``recovery_bandwidth_bps``.
        """
        facts = self.modules.get(module)
        if facts is None:
            return {}
        cls = facts.classes.get(class_name)
        if cls is None:
            return {}
        direct: dict[str, set[str]] = {}
        for prop in cls.properties:
            fn = facts.functions.get(f"{class_name}.{prop}")
            direct[prop] = set(fn.self_reads) if fn is not None else set()
        resolved: dict[str, set[str]] = {}

        def expand(prop: str, seen: frozenset[str]) -> set[str]:
            if prop in resolved:
                return resolved[prop]
            out: set[str] = set()
            for attr in direct.get(prop, ()):
                if attr in direct:
                    if attr not in seen:
                        out |= expand(attr, seen | {attr})
                else:
                    out.add(attr)
            resolved[prop] = out
            return out

        for prop in direct:
            expand(prop, frozenset({prop}))
        return resolved


def build_graph(modules: Iterable[ModuleFacts]) -> ProjectGraph:
    return ProjectGraph(modules)


def reachable_modules(import_edges: Mapping[str, set[str]],
                      start: str) -> set[str]:
    """Modules transitively imported from ``start`` (``start`` included)."""
    seen = {start}
    frontier = [start]
    while frontier:
        current = frontier.pop()
        for target in import_edges.get(current, ()):
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    return seen
