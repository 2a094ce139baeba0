"""Shared test helper: the traced memory peak of one call."""

import tracemalloc


def traced_peak(fn, *args):
    """(fn(*args), the largest number of bytes allocated during the call and not freed before that moment).

    Measured with tracemalloc, started for the call alone, so the peak counts
    the call's scratch together with whatever it returns; numpy reports its
    array buffers to tracemalloc.
    """
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak
