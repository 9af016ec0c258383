"""Engine stand-in: reads the live config field."""


def run_fast(config):
    return config.duration_s
