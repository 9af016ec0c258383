"""Project symbol table over the per-module facts.

Built once per analysis run from the per-module facts
(:mod:`repro.analysis.symbols`); the RPR100-series checks consult it to
resolve a name used in one module to its definition in another —
following ``from .impl import thing`` re-export chains and top-level
``thing = other`` re-bindings (the ``__init__`` aliasing idiom) — and to
expand property reads into the fields those properties touch.
Resolution only ever succeeds into analyzed modules; a name imported
from numpy or the stdlib stays unresolved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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
    """Symbol table + import bindings over a facts set."""

    def __init__(self, modules: Iterable[ModuleFacts]) -> None:
        self.modules: dict[str, ModuleFacts] = {
            m.module: m for m in modules}
        self._definitions: dict[str, dict[str, Definition]] = {}
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

