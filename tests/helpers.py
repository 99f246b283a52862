"""Helpers shared by the test modules: a time budget and a raw code search."""

import signal
from contextlib import contextmanager


@contextmanager
def within(seconds):
    # a slow or hung search is interrupted, not waited for
    def expire(signum, frame):
        raise TimeoutError(f"over the {seconds}-s budget")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    except TimeoutError as exc:
        # raised afresh: the frame the alarm interrupted can carry no line
        # number, and pytest cannot format such a traceback
        raise TimeoutError(*exc.args) from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def brute_weight4_codes(length):
    """Every linear code of the given length whose nonzero words all have
    weight 4, found by growing generator sets word by word.  Returns a set
    of (dim, support_size) pairs keyed by the span itself, with no help
    from the library's canonical-form machinery.
    """
    pool = [w for w in range(1, 1 << length) if bin(w).count("1") == 4]
    found = {}

    def grow(span, start):
        key = frozenset(span)
        if key in found:
            return
        dim = len(span).bit_length() - 1
        support = 0
        for w in span:
            support |= w
        found[key] = (dim, bin(support).count("1"))
        for i in range(start, len(pool)):
            w = pool[i]
            if w in span:
                continue
            if all(bin(w ^ c).count("1") == 4 for c in span if w ^ c):
                grow(span | {w ^ c for c in span}, i + 1)

    for i, w in enumerate(pool):
        grow({0, w}, i + 1)
    return set(found.values())
