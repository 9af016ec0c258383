"""Fixture: RPR009 clean — the handler returns a signal value."""

UNREADABLE = "unknown-unreadable"


def read_head(path):
    try:
        return path.read_text()
    except OSError:
        return UNREADABLE
