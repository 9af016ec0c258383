"""Engine stand-in: reads both config fields."""


def run_fast(config):
    return (config.duration_s, config.orphan_knob)
