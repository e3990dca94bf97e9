"""The memory of samplers.exact_census_gnm does not grow with the number
of samples: each block of samples is counted into the class-sized counts
as it arrives, so nothing is held per sample.
"""
import tracemalloc

from degree_lab.samplers import exact_census_gnm

TRIALS = 10**6


def test_census_peaks_under_one_megabyte_at_a_million_samples():
    tracemalloc.start()
    try:
        report = exact_census_gnm(4, 3, TRIALS, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20, f"peak {peak} bytes at {TRIALS} samples"
    assert sum(report.counts) == report.trials == TRIALS
