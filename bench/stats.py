"""Order statistics used by the benchmark report."""

TAIL_BEYOND = 10


def tail_latency(samples, beyond=TAIL_BEYOND):
    """The highest percentile that still has at least ``beyond`` samples
    above it: the (beyond + 1)-th largest sample.

    Returns (value, percentile, sample_count).  The percentile is the share
    of samples at or below the returned value, 100 (N - beyond) / N.
    Needs at least beyond + 1 samples."""
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"need more than {beyond} samples for a tail, got {n}")
    ordered = sorted(samples)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, n
