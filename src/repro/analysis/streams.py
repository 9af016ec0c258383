"""RPR102 — RNG stream ownership (whole-program determinism taint).

Every named random stream belongs to exactly one subsystem: the
``faults-*`` streams to :mod:`repro.faults`, the ``bulk-*`` streams to
the vectorized bulk-lifetime engine, ``targets`` to the flat-array
engine, and so on.  The discipline that keeps Monte-Carlo results
reproducible is that *only the owning subsystem consumes its streams*:
a stray ``streams.get("disk-failures")`` in experiment code would
advance the failure process's generator and silently shift every later
draw of the run.  Per-file linting cannot see this — the literal is
legal anywhere — so this check maps every consumption site in the
project against the ownership registry below.

Cross-subsystem consumption that is *by design* carries an
:data:`STREAM_ALLOWLIST` entry with its justification; anything else —
including a stream name missing from the registry entirely — is flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .base import Violation
from .callgraph import ProjectGraph

RULE_ID = "RPR102"
RULE_SUMMARY = ("RNG stream consumed outside its owning subsystem "
                "(determinism taint)")

#: Receiver spellings that mark a ``.get("...")`` call as a stream draw
#: rather than a dict/os.environ lookup.  ``.bulk(...)`` is a stream API
#: unconditionally.
_STREAM_RECEIVER_SUFFIXES = ("streams",)


@dataclass(frozen=True)
class StreamPolicy:
    """Ownership registry: stream name/prefix -> owner module prefixes."""

    #: exact stream name -> module prefixes allowed to consume it.
    owners: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: stream-name prefix (ending in ``-``) -> owner module prefixes.
    prefix_owners: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: (stream name, consuming module) -> justification for a sanctioned
    #: cross-subsystem consumption.
    allowlist: dict[tuple[str, str], str] = field(default_factory=dict)

    def owners_of(self, stream: str) -> tuple[str, ...] | None:
        exact = self.owners.get(stream)
        if exact is not None:
            return exact
        best: tuple[str, ...] | None = None
        best_len = -1
        for prefix, owners in self.prefix_owners.items():
            if stream.startswith(prefix) and len(prefix) > best_len:
                best, best_len = owners, len(prefix)
        return best

    def allowed(self, stream: str, module: str) -> bool:
        owners = self.owners_of(stream)
        if owners is None:
            return False
        if any(module == o or module.startswith(o + ".") for o in owners):
            return True
        return (stream, module) in self.allowlist


#: The repository's registry.  Owners are dotted module prefixes; every
#: allowlist entry names *why* the cross-subsystem consumption is sound.
REPRO_STREAM_POLICY = StreamPolicy(
    owners={
        "disk-failures": ("repro.reliability.simulation",),
        "targets": ("repro.reliability.simulation",),
        "migration": ("repro.reliability.simulation",),
        "table3-sample": ("repro.experiments.table3",),
        # Failure-domain injectors (golden-pinned streams; the faults-
        # prefix rule would cover them, the exact entries make the
        # ownership greppable next to their pins).
        "faults-domain-bursts": ("repro.faults",),
        "faults-domain-outages": ("repro.faults",),
        "faults-domain-stragglers": ("repro.faults",),
    },
    prefix_owners={
        "faults-": ("repro.faults",),
        # The bulk engine's dedicated stream family (failures, placement,
        # windows).  Only the vectorized lifetime may consume them: the
        # whole point of the separate family is that a bulk run with a
        # given seed never perturbs a DES run with the same seed.
        "bulk-": ("repro.reliability.bulk",),
    },
    allowlist={
        # Scenario wiring draws the latent-error injector's stream when
        # replaying scripted latent injections, so scripted and
        # process-driven latents are bit-identical for a given seed.
        ("faults-latent", "repro.reliability.scenarios"):
            "scripted latent injections must replay the injector stream",
    },
)


def _is_stream_use(api: str, receiver: str, stream: str,
                   policy: StreamPolicy) -> bool:
    if api == "bulk":
        return True
    if receiver.split(".")[-1] in _STREAM_RECEIVER_SUFFIXES:
        return True
    # `.get("faults-latent")` on an unrecognized receiver still counts
    # when the literal is a registered stream: renamed locals must not
    # dodge the check.
    return policy.owners_of(stream) is not None


def check_streams(graph: ProjectGraph,
                  policy: StreamPolicy = REPRO_STREAM_POLICY
                  ) -> list[Violation]:
    """Run RPR102 over every recorded stream use; sorted output."""
    violations: list[Violation] = []
    for facts in graph.modules.values():
        for stream, api, line, col, receiver in facts.stream_uses:
            if not _is_stream_use(api, receiver, stream, policy):
                continue
            owners = policy.owners_of(stream)
            if owners is None:
                message = (f"stream {stream!r} is not in the ownership "
                           f"registry; register it in "
                           f"repro.analysis.streams with an owner")
            elif policy.allowed(stream, facts.module):
                continue
            else:
                message = (f"stream {stream!r} owned by "
                           f"{'/'.join(owners)} is consumed from "
                           f"{facts.module}; draw it in the owning "
                           f"subsystem or add an allowlist entry")
            if not facts.suppressed(line, RULE_ID):
                violations.append(Violation(
                    path=facts.path, line=line, col=col, rule=RULE_ID,
                    message=message))
    return sorted(violations)
