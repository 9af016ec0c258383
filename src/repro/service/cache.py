"""Content-addressed store of live Monte-Carlo evidence.

Keys are :func:`repro.config.config_digest` values, so *what* was asked
— not when, or in what field order — addresses the evidence.  An entry
stores raw counts (losses, trials) rather than a finished interval: the
Wilson CI is recomputed per request at whatever confidence the caller
asks, and background refinement just adds counts.

Persistence is an append-only JSONL journal: every update appends one
record, the newest record per digest wins at load (counts are cumulative
across refinement rounds, so replaying only the last record is exact),
and the file is compacted back to one line per digest when the journal
grows past a multiple of the live entry count.  The in-memory side is a
bounded LRU — eviction forgets the *fast path*, never the evidence,
which reloads from the journal on the next miss.

A crash can leave a torn last line.  Loading skips (and counts) lines
that yield no record, a missing journal is an empty one (any other
read error propagates), the first append after loading a torn tail starts
on a fresh line, and compaction writes a sibling file and renames it
over the journal, so a crash mid-compaction leaves the old journal
intact.
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path

from ..reliability.stats import (Proportion, empty_proportion,
                                 wilson_interval)

#: Schema tag on every journal record.
CACHE_SCHEMA = "repro.forecast-cache.v1"

#: In-memory LRU capacity (entries, not bytes — an entry is ~200 B).
DEFAULT_CAPACITY = 4096

#: Compact the journal when it holds this many times the live entries.
_COMPACT_FACTOR = 4


@dataclass(frozen=True)
class CacheEntry:
    """Accumulated live evidence for one config digest."""

    digest: str
    losses: int
    trials: int
    #: refinement rounds folded in so far (round ``i`` derives its seed
    #: schedule from ``(digest, i)``, so counts never double-count).
    rounds: int
    #: live engine the evidence came from ("bulk" or "des").
    engine: str

    def proportion(self, confidence: float = 0.95) -> Proportion:
        """The entry's Wilson interval at the requested confidence."""
        if self.trials <= 0:
            return empty_proportion(confidence)
        return wilson_interval(self.losses, self.trials, confidence)

    def merged(self, losses: int, trials: int) -> "CacheEntry":
        """This entry plus one more refinement round's counts."""
        return replace(self, losses=self.losses + losses,
                       trials=self.trials + trials,
                       rounds=self.rounds + 1)

    def to_record(self) -> dict:
        return {"schema": CACHE_SCHEMA, "digest": self.digest,
                "losses": self.losses, "trials": self.trials,
                "rounds": self.rounds, "engine": self.engine}

    @classmethod
    def from_record(cls, record: dict) -> "CacheEntry":
        """The entry a journal record holds; ``ValueError`` if none."""
        if not isinstance(record, dict) \
                or record.get("schema") != CACHE_SCHEMA:
            raise ValueError(f"not a {CACHE_SCHEMA} record")
        try:
            return cls(digest=str(record["digest"]),
                       losses=int(record["losses"]),
                       trials=int(record["trials"]),
                       rounds=int(record["rounds"]),
                       engine=str(record["engine"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed {CACHE_SCHEMA} record") from exc


class ForecastCache:
    """Bounded-LRU view over the append-only evidence journal."""

    def __init__(self, path: str | Path | None = None,
                 capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.path = Path(path) if path else None
        self.capacity = capacity
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()
        self._journal_lines = 0
        #: journal lines that yielded no record at the last full read
        #: (load or compaction).
        self.skipped_lines = 0
        #: the journal ends mid-line, so the next append starts a new one.
        self._torn_tail = False
        for entry in self._read_journal().values():
            self._remember(entry)

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def get(self, digest: str) -> CacheEntry | None:
        """The entry for ``digest`` (LRU-touched), or ``None``.

        An in-memory miss falls back to the journal: eviction bounds the
        hot set, not the evidence.
        """
        entry = self._entries.get(digest)
        if entry is not None:
            self._entries.move_to_end(digest)
            return entry
        entry = self._read_journal(digest).get(digest)
        if entry is not None:
            self._remember(entry)
        return entry

    def put(self, entry: CacheEntry) -> None:
        """Insert or replace the evidence for ``entry.digest``."""
        self._remember(entry)
        self._append(entry)

    def entries(self) -> list[CacheEntry]:
        """The resident entries, least recently used first."""
        return list(self._entries.values())

    # ------------------------------------------------------------------ #
    def _remember(self, entry: CacheEntry) -> None:
        self._entries[entry.digest] = entry
        self._entries.move_to_end(entry.digest)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def _read_journal(self, digest: str | None = None
                      ) -> dict[str, CacheEntry]:
        """Newest journal record per digest.

        With ``digest``, only lines containing it are parsed (the
        evicted-entry lookup).  A full read also records the line
        count, :attr:`skipped_lines` and whether the file ends mid-line.
        """
        latest: dict[str, CacheEntry] = {}
        if self.path is None:
            return latest
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return latest               # no evidence yet
        lines = skipped = 0
        for line in text.splitlines():
            if not line.strip() or (digest is not None
                                    and digest not in line):
                continue
            lines += 1
            try:
                entry = CacheEntry.from_record(json.loads(line))
            except ValueError:
                skipped += 1
                continue
            latest[entry.digest] = entry
        if digest is None:
            self._journal_lines = lines
            self.skipped_lines = skipped
            self._torn_tail = bool(text) and not text.endswith("\n")
        return latest

    def _append(self, entry: CacheEntry) -> None:
        if self.path is None:
            return
        line = json.dumps(entry.to_record(), sort_keys=True) + "\n"
        if self._torn_tail:
            line = "\n" + line
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(line)
        self._torn_tail = False
        self._journal_lines += 1
        if self._journal_lines > _COMPACT_FACTOR * max(len(self._entries),
                                                       1):
            self.compact()

    def compact(self) -> None:
        """Rewrite the journal to one (newest) record per digest.

        The records go to a sibling file that then replaces the journal,
        so a failure mid-write leaves the old journal as it was.
        """
        if self.path is None:
            return
        latest = self._read_journal()
        latest.update(self._entries)
        body = "".join(json.dumps(e.to_record(), sort_keys=True) + "\n"
                       for e in latest.values())
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(body, encoding="utf-8")
        os.replace(tmp, self.path)
        self._journal_lines = len(latest)
        self._torn_tail = False
