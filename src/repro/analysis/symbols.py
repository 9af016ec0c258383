"""Per-module fact extraction for the whole-program analyzer.

The RPR100-series rules (unit flow, stream ownership, dead config)
cannot be checked one file at a time: they relate a ``SystemConfig``
field defined in ``config.py`` to attribute reads elsewhere, or a stream
literal in ``faults/`` to a consumer in ``reliability/``.  This module
is the *collect* half of the two-pass design: one AST walk per file
produces a :class:`ModuleFacts` record, and the *check* half
(:mod:`repro.analysis.project` and friends) runs over the aggregated
facts without ever re-reading a file.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from .base import dotted_name, suppressed_rules

#: Name suffixes that declare a dimension under the repo's base-unit
#: convention (see RPR006): sizes in bytes, durations in seconds,
#: bandwidths in bytes/second.  A dimension is an exponent vector over
#: (bytes, seconds): bytes = (1, 0), seconds = (0, 1), bps = (1, -1).
DIM_SUFFIXES: dict[str, tuple[int, int]] = {
    "_bytes": (1, 0),
    "_bps": (1, -1),
    "_bw": (1, -1),
    "_seconds": (0, 1),
    "_s": (0, 1),
}

#: Exact names that carry a dimension without a suffix.
DIM_NAMES: dict[str, tuple[int, int]] = {
    "nbytes": (1, 0),
}

#: ``repro.units`` constants and their dimensions.
UNIT_CONSTANT_DIMS: dict[str, tuple[int, int]] = {
    "KB": (1, 0), "MB": (1, 0), "GB": (1, 0), "TB": (1, 0), "PB": (1, 0),
    "SECOND": (0, 1), "MINUTE": (0, 1), "HOUR": (0, 1), "DAY": (0, 1),
    "MONTH": (0, 1), "YEAR": (0, 1),
}

DIMENSIONLESS: tuple[int, int] = (0, 0)


def name_dim(name: str) -> tuple[int, int] | None:
    """The dimension a variable/parameter/field name declares, if any."""
    exact = DIM_NAMES.get(name)
    if exact is not None:
        return exact
    lowered = name.lower()
    for suffix, dim in DIM_SUFFIXES.items():
        if lowered.endswith(suffix):
            return dim
    return None


# --------------------------------------------------------------------- #
# Dimension terms
# --------------------------------------------------------------------- #
# A *term* is the symbolic dimension of an expression, as a small dict
# tree:
#   {"k": "dim",  "e": [b, s]}          -- known exponents
#   {"k": "call", "n": "dotted.name"}   -- return dim of a call, resolved
#                                          against the global env later
#   {"k": "attr", "n": "attrname"}      -- dim of an attribute read,
#                                          resolved via field/property env
#   {"k": "op", "op": "mul"|"div", "l": term, "r": term}
# ``None`` means "no information" and poisons nothing: constraints
# containing it are simply never flagged.

Term = dict[str, Any]


def dim_term(e: tuple[int, int]) -> Term:
    return {"k": "dim", "e": [e[0], e[1]]}


@dataclass
class FunctionFacts:
    """Signature-level facts about one function or method."""

    qualname: str
    line: int
    #: positional+keyword parameter names in order, ``self``/``cls``
    #: dropped for methods.
    params: list[str] = field(default_factory=list)
    #: parameter name -> literal default (repr string), only for plain
    #: numeric/str/bool/None literals.
    param_defaults: dict[str, str] = field(default_factory=dict)
    #: decorator dotted names.
    decorators: list[str] = field(default_factory=list)
    #: symbolic dimension of each ``return`` expression.
    return_terms: list[Term] = field(default_factory=list)
    #: attribute names read via ``self.X`` (property expansion).
    self_reads: list[str] = field(default_factory=list)
    is_method: bool = False


@dataclass
class ClassFacts:
    """Facts about one class: bases, dataclass-style fields, methods."""

    name: str
    line: int
    bases: list[str] = field(default_factory=list)
    decorators: list[str] = field(default_factory=list)
    #: annotated class-level fields: name -> {"line", "default"} where
    #: default is a repr string for literal defaults, else "".
    fields: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: property-decorated method names.
    properties: list[str] = field(default_factory=list)


@dataclass
class ModuleFacts:
    """Everything the whole-program checks need to know about one file."""

    module: str
    path: str
    #: symbol bindings introduced by imports:
    #: local name -> "module" or "module:attr".
    import_bindings: dict[str, str] = field(default_factory=dict)
    #: top-level aliases: ``name = other_name`` re-bindings.
    aliases: dict[str, str] = field(default_factory=dict)
    functions: dict[str, FunctionFacts] = field(default_factory=dict)
    classes: dict[str, ClassFacts] = field(default_factory=dict)
    #: attribute name read anywhere in the module -> first line seen.
    attr_reads: dict[str, int] = field(default_factory=dict)
    #: RNG stream uses: [normalized stream name, api, line, col].
    stream_uses: list[list[Any]] = field(default_factory=list)
    #: unit-flow constraint records (see :mod:`.unitflow`).
    unit_constraints: list[dict[str, Any]] = field(default_factory=list)
    #: lines carrying a ``# repro: noqa`` directive:
    #: line -> sorted rule ids ("*" alone = suppress everything).
    noqa: dict[str, list[str]] = field(default_factory=dict)

    def suppressed(self, line: int, rule: str) -> bool:
        """Whether ``rule`` is noqa-suppressed on ``line``."""
        ids = self.noqa.get(str(line))
        if ids is None:
            return False
        return ids == ["*"] or rule in ids


# --------------------------------------------------------------------- #
# Module-name derivation
# --------------------------------------------------------------------- #
def module_name_for(path: Path, roots: Sequence[Path]) -> str:
    """Dotted module name of ``path`` relative to the analysis roots.

    ``src/repro/sim/rng.py`` under root ``src`` is ``repro.sim.rng``;
    ``__init__.py`` maps to its package.  A file under no root is named
    by its stem (fixtures passed directly).
    """
    resolved = path.resolve()
    for root in roots:
        root = root.resolve()
        try:
            rel = resolved.relative_to(root)
        except ValueError:
            continue
        parts = list(rel.parts)
        if not parts:
            continue
        parts[-1] = parts[-1][:-3] if parts[-1].endswith(".py") \
            else parts[-1]
        if parts[-1] == "__init__":
            parts.pop()
        if parts:
            return ".".join(parts)
        return root.name
    return path.stem


def resolve_relative_import(module: str, target: str | None,
                            level: int) -> str | None:
    """Absolute module named by ``from <target> import ...`` at ``level``.

    ``module`` is the importing module's dotted name.  Returns ``None``
    when the relative import climbs above the known package root.
    """
    if level == 0:
        return target
    parts = module.split(".")
    # level 1 = current package: drop the module's own last component.
    if len(parts) < level:
        return None
    base = parts[:len(parts) - level]
    if target:
        base.append(target)
    return ".".join(base) if base else None


# --------------------------------------------------------------------- #
# Collection
# --------------------------------------------------------------------- #
class _Collector(ast.NodeVisitor):
    """One-pass AST walk filling a :class:`ModuleFacts`."""

    STREAM_APIS = ("get", "bulk")

    def __init__(self, facts: ModuleFacts, is_package: bool) -> None:
        self.facts = facts
        self.is_package = is_package
        #: qualname stack ("" at module level).
        self._scope: list[str] = []
        #: per-function local dim environment.
        self._env: list[dict[str, tuple[int, int]]] = [{}]
        self._class_stack: list[ClassFacts] = []
        self._fn_stack: list[FunctionFacts] = []

    # -- scopes -------------------------------------------------------- #
    @property
    def qualname(self) -> str:
        return ".".join(self._scope)

    # -- imports ------------------------------------------------------- #
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            self.facts.import_bindings[local] = \
                alias.name if alias.asname else alias.name.split(".")[0]
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        # A relative import from a package's __init__ resolves against
        # the package itself, not its parent.
        base_module = self.facts.module
        if self.is_package:
            base_module += ".__init__"
        target = resolve_relative_import(base_module, node.module,
                                         node.level)
        if target is not None:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                self.facts.import_bindings[local] = \
                    f"{target}:{alias.name}"
        self.generic_visit(node)

    # -- definitions --------------------------------------------------- #
    def _literal_repr(self, node: ast.expr | None) -> str:
        if isinstance(node, ast.Constant) and isinstance(
                node.value, (int, float, str, bool, type(None))):
            return repr(node.value)
        if isinstance(node, ast.UnaryOp) \
                and isinstance(node.op, ast.USub) \
                and isinstance(node.operand, ast.Constant):
            return f"-{node.operand.value!r}"
        return ""

    def _handle_function(self, node: ast.FunctionDef
                         | ast.AsyncFunctionDef) -> None:
        in_class = bool(self._class_stack) \
            and len(self._scope) == len(self._class_stack)
        params = [a.arg for a in (*node.args.posonlyargs, *node.args.args,
                                  *node.args.kwonlyargs)]
        if in_class and params and params[0] in ("self", "cls"):
            params = params[1:]
        qual = ".".join([*self._scope, node.name])
        fn = FunctionFacts(qualname=qual, line=node.lineno, params=params,
                           is_method=in_class)
        fn.decorators = [d for d in
                         (dotted_name(dec) for dec in node.decorator_list)
                         if d is not None]
        pos = [*node.args.posonlyargs, *node.args.args]
        for arg, default in zip(reversed(pos),
                                reversed(node.args.defaults)):
            rep = self._literal_repr(default)
            if rep:
                fn.param_defaults[arg.arg] = rep
        for arg, default in zip(node.args.kwonlyargs,
                                node.args.kw_defaults):
            rep = self._literal_repr(default)
            if rep:
                fn.param_defaults[arg.arg] = rep
        self.facts.functions[qual] = fn
        if in_class:
            cls = self._class_stack[-1]
            if any(d in ("property", "cached_property", "functools."
                         "cached_property") for d in fn.decorators):
                cls.properties.append(node.name)

        self._scope.append(node.name)
        env: dict[str, tuple[int, int]] = {}
        for p in params:
            dim = name_dim(p)
            if dim is not None:
                env[p] = dim
        self._env.append(env)
        self._fn_stack.append(fn)
        for stmt in node.body:
            self.visit(stmt)
        self._fn_stack.pop()
        self._env.pop()
        self._scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._handle_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._handle_function(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        cls = ClassFacts(name=node.name, line=node.lineno)
        cls.bases = [b for b in (dotted_name(base) for base in node.bases)
                     if b is not None]
        cls.decorators = [d for d in
                          (dotted_name(dec)
                           for dec in node.decorator_list)
                          if d is not None]
        self.facts.classes[".".join([*self._scope, node.name])
                           if self._scope else node.name] = cls
        self._class_stack.append(cls)
        self._scope.append(node.name)
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) \
                    and isinstance(stmt.target, ast.Name):
                cls.fields[stmt.target.id] = {
                    "line": stmt.lineno,
                    "default": self._literal_repr(stmt.value),
                }
            self.visit(stmt)
        self._scope.pop()
        self._class_stack.pop()

    # -- expressions --------------------------------------------------- #
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            self.facts.attr_reads.setdefault(node.attr, node.lineno)
            if self._fn_stack and isinstance(node.value, ast.Name) \
                    and node.value.id == "self":
                self._fn_stack[-1].self_reads.append(node.attr)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        # RNG stream use: `<obj>.get/bulk("literal")`.
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in self.STREAM_APIS and node.args:
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                stream = arg.value
                if node.func.attr == "bulk":
                    stream = f"bulk-{stream}"
                receiver = dotted_name(node.func.value) or ""
                # `dict.get(...)`-style false positives are filtered by
                # requiring a stream-ish receiver or a known stream name
                # downstream; record the receiver for that decision.
                self.facts.stream_uses.append(
                    [stream, node.func.attr, node.lineno,
                     node.col_offset, receiver])
        self._record_call_args(node)
        self.generic_visit(node)

    # -- unit-flow constraint extraction ------------------------------- #
    def _term(self, node: ast.expr) -> Term | None:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return None
            if isinstance(node.value, (int, float)):
                return dim_term(DIMENSIONLESS)
            return None
        if isinstance(node, ast.Name):
            local = self._env[-1].get(node.id)
            if local is not None:
                return dim_term(local)
            if node.id in UNIT_CONSTANT_DIMS \
                    and self._binds_unit_constant(node.id):
                return dim_term(UNIT_CONSTANT_DIMS[node.id])
            dim = name_dim(node.id)
            if dim is not None:
                return dim_term(dim)
            return None
        if isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            if dotted is not None and dotted.startswith("units.") \
                    and node.attr in UNIT_CONSTANT_DIMS:
                return dim_term(UNIT_CONSTANT_DIMS[node.attr])
            dim = name_dim(node.attr)
            if dim is not None:
                return dim_term(dim)
            return {"k": "attr", "n": node.attr}
        if isinstance(node, ast.Call):
            callee = dotted_name(node.func)
            if callee is None:
                return None
            return {"k": "call", "n": callee}
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Mult):
                return self._binop_term(node, "mul")
            if isinstance(node.op, (ast.Div, ast.FloorDiv)):
                return self._binop_term(node, "div")
            if isinstance(node.op, (ast.Add, ast.Sub)):
                # checked separately; the result has the operands' dim.
                return self._term(node.left) or self._term(node.right)
            return None
        if isinstance(node, ast.UnaryOp):
            return self._term(node.operand)
        if isinstance(node, ast.IfExp):
            return self._term(node.body) or self._term(node.orelse)
        return None

    def _binds_unit_constant(self, name: str) -> bool:
        """``from ..units import DAY``-style binding is in scope."""
        bound = self.facts.import_bindings.get(name, "")
        return bound.endswith(f":{name}") and ".units" in bound \
            or bound == "units"

    def _binop_term(self, node: ast.BinOp, op: str) -> Term | None:
        left = self._term(node.left)
        right = self._term(node.right)
        if left is None and right is None:
            return None
        return {"k": "op", "op": op,
                "l": left if left is not None else dim_term(DIMENSIONLESS),
                "r": right if right is not None
                else dim_term(DIMENSIONLESS),
                "partial": left is None or right is None}

    def _constrain(self, record: dict[str, Any]) -> None:
        record["fn"] = self.qualname
        self.facts.unit_constraints.append(record)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, (ast.Add, ast.Sub)):
            left = self._term(node.left)
            right = self._term(node.right)
            if left is not None and right is not None:
                self._constrain({"kind": "binop", "op": "add",
                                 "l": left, "r": right,
                                 "line": node.lineno,
                                 "col": node.col_offset})
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        ops_ok = all(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE,
                                     ast.Eq, ast.NotEq))
                     for op in node.ops)
        if ops_ok:
            for a, b in zip(operands, operands[1:]):
                left = self._term(a)
                right = self._term(b)
                if left is not None and right is not None:
                    self._constrain({"kind": "binop", "op": "cmp",
                                     "l": left, "r": right,
                                     "line": node.lineno,
                                     "col": node.col_offset})
        self.generic_visit(node)

    def _handle_assign_target(self, target: ast.expr, value: ast.expr,
                              node: ast.stmt) -> None:
        tname: str | None = None
        if isinstance(target, ast.Name):
            tname = target.id
        elif isinstance(target, ast.Attribute):
            tname = target.attr
        if tname is None:
            return
        tdim = name_dim(tname)
        vterm = self._term(value)
        if tdim is not None and vterm is not None:
            self._constrain({"kind": "assign", "target": tname,
                             "tdim": [tdim[0], tdim[1]], "v": vterm,
                             "line": node.lineno,
                             "col": node.col_offset})
        if isinstance(target, ast.Name):
            if tdim is not None:
                self._env[-1][target.id] = tdim
            elif vterm is not None and vterm.get("k") == "dim":
                e = vterm["e"]
                if tuple(e) != DIMENSIONLESS:
                    self._env[-1][target.id] = (e[0], e[1])

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._handle_assign_target(target, node.value, node)
        if not self._scope and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and isinstance(node.value, ast.Name):
            # top-level `alias = original` re-binding (export aliasing).
            self.facts.aliases[node.targets[0].id] = node.value.id
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._handle_assign_target(node.target, node.value, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.op, (ast.Add, ast.Sub)):
            left: Term | None = None
            tname = None
            if isinstance(node.target, ast.Name):
                tname = node.target.id
            elif isinstance(node.target, ast.Attribute):
                tname = node.target.attr
            if tname is not None:
                dim = self._env[-1].get(tname) or name_dim(tname)
                if dim is not None:
                    left = dim_term(dim)
            right = self._term(node.value)
            if left is not None and right is not None:
                self._constrain({"kind": "binop", "op": "add",
                                 "l": left, "r": right,
                                 "line": node.lineno,
                                 "col": node.col_offset})
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        if self._fn_stack and node.value is not None:
            term = self._term(node.value)
            if term is not None:
                self._fn_stack[-1].return_terms.append(term)
        self.generic_visit(node)

    def _record_call_args(self, node: ast.Call) -> None:
        callee = dotted_name(node.func)
        if callee is None:
            return
        def informative(term: Term | None) -> bool:
            return term is not None and not (
                term.get("k") == "dim"
                and tuple(term["e"]) == DIMENSIONLESS)

        for i, arg in enumerate(node.args):
            term = self._term(arg)
            if informative(term):
                self._constrain({"kind": "callarg", "callee": callee,
                                 "pos": i, "param": None, "v": term,
                                 "line": arg.lineno,
                                 "col": arg.col_offset})
        for kw in node.keywords:
            if kw.arg is None:
                continue
            term = self._term(kw.value)
            if informative(term):
                self._constrain({"kind": "callarg", "callee": callee,
                                 "pos": None, "param": kw.arg, "v": term,
                                 "line": kw.value.lineno,
                                 "col": kw.value.col_offset})


def collect_facts(source: str, path: str | Path,
                  roots: Sequence[str | Path] = ()) -> ModuleFacts:
    """Collect :class:`ModuleFacts` for one module source.

    Raises on unparseable input — callers (the analysis driver) convert
    parse failures into RPR000 violations / internal-error reports.
    """
    path = Path(path)
    module = module_name_for(path, [Path(r) for r in roots])
    facts = ModuleFacts(module=module, path=str(path))
    tree = ast.parse(source, filename=str(path))
    collector = _Collector(facts, is_package=path.name == "__init__.py")
    collector.visit(tree)
    for i, line in enumerate(source.splitlines(), start=1):
        ids = suppressed_rules(line)
        if ids is not None:
            facts.noqa[str(i)] = sorted(ids) if ids else ["*"]
    return facts

