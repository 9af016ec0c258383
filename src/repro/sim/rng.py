"""Named, reproducible random-number streams.

Every stochastic component of the simulator (failure times, placement,
target selection, workload) draws from its own named stream so that changing
how one component consumes randomness does not perturb the others — the
standard variance-reduction discipline for Monte-Carlo reliability studies.

Streams are derived from a root seed with ``numpy.random.SeedSequence`` and a
stable 64-bit hash of the stream name, so ``RandomStreams(seed).get("x")`` is
identical across processes and Python versions.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np


def stable_hash64(*parts: object) -> int:
    """A stable (non-salted) 64-bit hash of the given parts.

    Python's builtin ``hash`` is salted per-process for strings, so it cannot
    be used for reproducible stream derivation or placement.  This uses
    blake2b over the repr of each part.
    """
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


#: Stream kinds reserved for the bulk-lifetime engine
#: (:mod:`repro.reliability.bulk`).  ``failures`` draws every disk's
#: lifetime in one batch, ``placement`` draws group membership, and
#: ``windows`` draws the stochastic part of the repair windows
#: (traditional-mode queue positions).  This is a closed registry so the
#: golden-regression suite can pin every member: the bulk engine
#: deliberately does *not* share the DES's
#: ``disk-failures``/``targets`` streams — its draw order is batched, not
#: event-ordered, so sharing would silently perturb the DES pins.
BULK_STREAM_KINDS: tuple[str, ...] = ("failures", "placement", "windows")


def bulk_stream_name(kind: str) -> str:
    """The stream name for a bulk-engine stream ``kind`` (validated)."""
    if kind not in BULK_STREAM_KINDS:
        raise ValueError(f"unknown bulk stream kind {kind!r}; expected "
                         f"one of {BULK_STREAM_KINDS}")
    return f"bulk-{kind}"


@functools.lru_cache(maxsize=64)
def _stream_key(name: str) -> int:
    """``stable_hash64(name)``, memoized per stream name.

    The names are a small fixed set, while a bulk lifetime opens two or
    three fresh streams, so each name is hashed once per process.
    """
    return stable_hash64(name)


class RandomStreams:
    """Factory of independent named ``numpy.random.Generator`` streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._cache: dict[str, np.random.Generator] = {}

    def get(self, name: str) -> np.random.Generator:
        """Return the (cached) generator for ``name``."""
        gen = self._cache.get(name)
        if gen is None:
            ss = np.random.SeedSequence(entropy=self.seed,
                                        spawn_key=(_stream_key(name),))
            gen = np.random.Generator(np.random.PCG64(ss))
            self._cache[name] = gen
        return gen

    def bulk(self, kind: str) -> np.random.Generator:
        """A stream of the bulk-engine family (see :data:`BULK_STREAM_KINDS`).

        The bulk-lifetime engine draws whole batches (all lifetimes, all
        placements) instead of event-ordered scalars, so it owns its own
        stream family: enabling it can never perturb — and is never
        perturbed by — the DES's streams for the same seed.
        """
        return self.get(bulk_stream_name(kind))
