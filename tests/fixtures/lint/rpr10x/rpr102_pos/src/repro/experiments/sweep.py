"""RPR102 positive: a bulk-* stream drawn outside its subsystem.

``bulk-failures`` belongs to ``repro.reliability.bulk``; drawing it
from experiment code would shift every later lifetime draw of the
bulk engine.
"""


def draw_failures(streams):
    return streams.bulk("failures")
