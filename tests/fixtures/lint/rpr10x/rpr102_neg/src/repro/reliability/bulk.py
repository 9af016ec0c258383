"""RPR102 negative: the owning subsystem consumes its own stream."""


def draw_failures(streams):
    return streams.bulk("failures")
