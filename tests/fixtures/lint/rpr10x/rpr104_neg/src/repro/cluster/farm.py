"""Model-code stand-in: reads both config fields, no re-defaults."""


def run_process(config):
    return (config.duration_s, config.orphan_knob)
