"""Fixture: RPR009 — a swallowed error hides why a run id is unknown."""


def read_head(path):
    try:
        return path.read_text()
    except OSError:
        return None
