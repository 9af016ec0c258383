"""Parameterization rule (RPR010): no shadow copies of config defaults.

Definition sites stay legal: a dataclass field default (``x: float =
0.4``) or a function-parameter default (``def f(p=0.4)``) *is* the
parameter, not a copy of it.  Rationale in ``docs/ANALYSIS.md``; the
whole-program generalization by *name* is RPR104.
"""

from __future__ import annotations

import ast

from .base import FileContext, Rule, register

#: Float literal -> the configuration parameter it shadows.  Curated by
#: hand: only values that are (a) actual defaults of
#: ``SystemConfig`` knobs and (b) distinctive enough not
#: to collide with unrelated constants.
KNOWN_PARAMETER_DEFAULTS: dict[float, str] = {
    0.4: ("SystemConfig.smart_detection_probability (or "
          "target_utilization)"),
    0.01: "SystemConfig.smart_false_positive_rate",
    0.04: "SystemConfig.spare_reserve_fraction",
    30.0: "SystemConfig.detection_latency",
}

#: Directories where engine code consumes these parameters.
PARAM_GUARDED_DIRS = frozenset({"cluster", "reliability", "disks"})


@register
class HardcodedParameterDefault(Rule):
    """RPR010 — bare numeric literal shadows a configurable parameter."""

    id = "RPR010"
    summary = "bare copy of a config parameter default; plumb it instead"

    @classmethod
    def applies_to(cls, ctx: FileContext) -> bool:
        return bool(ctx.parts & PARAM_GUARDED_DIRS)

    def visit_Module(self, node: ast.Module) -> None:
        self._definition_sites: set[int] = set()
        for n in ast.walk(node):
            defaults: list[ast.expr | None] = []
            if isinstance(n, ast.AnnAssign) and n.value is not None:
                defaults.append(n.value)
            elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.Lambda)):
                defaults.extend(n.args.defaults)
                defaults.extend(n.args.kw_defaults)
            for default in defaults:
                if default is not None:
                    self._definition_sites.update(
                        id(c) for c in ast.walk(default))
        self.generic_visit(node)

    def visit_Constant(self, node: ast.Constant) -> None:
        v = node.value
        if not isinstance(v, float):
            return
        parameter = KNOWN_PARAMETER_DEFAULTS.get(v)
        if parameter is None or id(node) in self._definition_sites:
            return
        self.report(node, f"bare literal {v!r} shadows {parameter}; "
                          f"read the configured value instead")
