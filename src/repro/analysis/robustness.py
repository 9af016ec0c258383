"""Robustness rule (RPR009): no silent exception swallows in recovery.

An ``except`` handler in the recovery-critical packages must account for
the event or propagate it; rationale in ``docs/ANALYSIS.md``.
"""

from __future__ import annotations

import ast

from .base import FileContext, Rule, dotted_name, register

#: Directories where a swallowed exception can hide a degraded group.
GUARDED_DIRS = frozenset({"cluster", "reliability"})

#: A call whose dotted name contains one of these accounts for the event.
ACCOUNTING_TOKENS = ("stats", "trace", "record", "defer", "log", "warn",
                     "report")


@register
class SilentExceptionSwallow(Rule):
    """RPR009 — no silent exception swallows in ``cluster/`` or
    ``reliability/``."""

    id = "RPR009"
    summary = ("silent exception swallow in recovery code; count, trace, "
               "or propagate it")

    @classmethod
    def applies_to(cls, ctx: FileContext) -> bool:
        return bool(GUARDED_DIRS & ctx.parts)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _accounts(stmt: ast.stmt) -> bool:
        """Whether a statement records the event or propagates it."""
        for node in ast.walk(stmt):
            if isinstance(node, ast.Raise):
                return True
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name and any(tok in name.lower()
                                for tok in ACCOUNTING_TOKENS):
                    return True
        return False

    @staticmethod
    def _is_silent_stmt(stmt: ast.stmt) -> bool:
        """pass / continue / bare return / return None / docstring."""
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            return True
        if isinstance(stmt, ast.Return):
            return stmt.value is None or (
                isinstance(stmt.value, ast.Constant)
                and stmt.value.value is None)
        if isinstance(stmt, ast.Expr) \
                and isinstance(stmt.value, ast.Constant):
            return True     # stray docstring/comment expression
        return False

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if not any(self._accounts(s) for s in node.body) \
                and all(self._is_silent_stmt(s) for s in node.body):
            self.report(node, "exception swallowed with no stats/trace "
                              "accounting; the failure becomes invisible "
                              "(count it, defer it, or return a signal "
                              "value)")
        self.generic_visit(node)
