"""Determinism rules (RPR001–RPR004, RPR011).

Reject the common ways nondeterminism sneaks into simulation code; the
rationale for each rule is catalogued in ``docs/ANALYSIS.md``.
"""

from __future__ import annotations

import ast

from .base import FileContext, Rule, dotted_name, register


@register
class StdlibRandomImport(Rule):
    """RPR001 — the stdlib ``random`` module is banned in ``src/``."""

    id = "RPR001"
    summary = "stdlib `random` import; use repro.sim.rng.RandomStreams"

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root == "random":
                self.report(node, "import of stdlib `random`; draw from a "
                                  "named RandomStreams stream instead")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level == 0 and node.module is not None \
                and node.module.split(".")[0] == "random":
            self.report(node, "import from stdlib `random`; draw from a "
                              "named RandomStreams stream instead")
        self.generic_visit(node)


@register
class SeedlessDefaultRng(Rule):
    """RPR002 — ``np.random.default_rng()`` without a seed is banned."""

    id = "RPR002"
    summary = "seedless np.random.default_rng(); pass a seed or use " \
              "RandomStreams"

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name is not None and name.split(".")[-1] == "default_rng" \
                and not node.args and not node.keywords:
            self.report(node, "default_rng() without a seed is "
                              "nondeterministic; seed it or use "
                              "RandomStreams")
        self.generic_visit(node)


@register
class BuiltinHashCall(Rule):
    """RPR003 — builtin ``hash()`` is banned (process-salted)."""

    id = "RPR003"
    summary = "builtin hash() is process-salted; use stable_hash64"

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id == "hash":
            self.report(node, "builtin hash() is salted per process; use "
                              "repro.sim.rng.stable_hash64")
        self.generic_visit(node)


#: Directories whose code runs under the simulation clock.
SIM_DIRS = frozenset({"sim", "reliability", "placement"})

#: Directories the wall-clock ban extends to beyond :data:`SIM_DIRS` —
#: the model layer, the telemetry subsystem (whose metrics must be a
#: pure function of simulated time), and the forecast service.
WALL_CLOCK_GUARDED_DIRS = frozenset({"cluster", "faults", "telemetry",
                                     "service"})

#: Guarded files *allowed* to read the wall clock, with the justification
#: on record.  Keys are ``"<dir>/<basename>"`` path suffixes.  This is an
#: allowlist, not a suppression: unlike ``# repro: noqa`` it is reviewed
#: here, next to the rule, and a new wall-clock call anywhere else in a
#: guarded directory still fails.
WALL_CLOCK_ALLOWLIST: dict[str, str] = {
    # The HTTP server's request-latency histograms and refinement-queue
    # pacing measure *host* time by definition — no simulation clock
    # exists at the service layer.  Simulated time still never reaches
    # these calls: estimation math lives in reliability/, which stays
    # fully guarded.
    "service/app.py": "host-facing request latency and queue pacing",
}


def _allowlisted_wall_clock(ctx: FileContext) -> bool:
    suffix = "/".join(ctx.path.parts[-2:])
    return suffix in WALL_CLOCK_ALLOWLIST

#: Dotted-call suffixes that read the wall clock.
_WALL_CLOCK_CALLS = (
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
)


def _is_wall_clock_call(name: str) -> bool:
    return any(name == c or name.endswith("." + c)
               for c in _WALL_CLOCK_CALLS)


@register
class WallClockInSimCode(Rule):
    """RPR004 — no wall-clock reads inside simulation code."""

    id = "RPR004"
    summary = "wall-clock read in simulation code; use the engine clock"

    @classmethod
    def applies_to(cls, ctx: FileContext) -> bool:
        return bool(SIM_DIRS & ctx.parts)

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name is not None and _is_wall_clock_call(name):
            self.report(node, f"wall-clock call {name}() in simulation "
                              "code; use the simulator's `now`")
        self.generic_visit(node)


@register
class WallClockInObservedCode(Rule):
    """RPR011 — no wall-clock reads in model or telemetry code.

    A file under a :data:`SIM_DIRS` directory reports under RPR004
    only, so one call never fires two rules.
    Files in :data:`WALL_CLOCK_ALLOWLIST` are exempt with their
    justification on record next to the rule.
    """

    id = "RPR011"
    summary = "wall-clock read in model/telemetry code; use sim time"

    @classmethod
    def applies_to(cls, ctx: FileContext) -> bool:
        return bool(WALL_CLOCK_GUARDED_DIRS & ctx.parts) \
            and not (SIM_DIRS & ctx.parts) \
            and not _allowlisted_wall_clock(ctx)

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name is not None and _is_wall_clock_call(name):
            self.report(node, f"wall-clock call {name}() in model/"
                              "telemetry code; metrics must be a pure "
                              "function of simulated time")
        self.generic_visit(node)
