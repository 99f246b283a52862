"""Helpers shared by the test modules: a time budget, a fresh interpreter,
raw code searches and Latin-square-graph codes."""

import os
import random
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import nodalcodes
from nodalcodes.gf2 import make_code


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


def fresh_python(*argv, cwd=None):
    """Run python with argv in a new process that finds the package these
    tests import, with warnings as errors."""
    src = str(Path(nodalcodes.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", *argv], cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=60,
    )


def admissible_subspaces(length, weights):
    """Every subspace of GF(2)^length whose nonzero words all have weight 4
    (weights "4") or a weight divisible by 4 ("div4"), each as the set of
    its words.  Each subspace of dimension d + 1 is grown from one of
    dimension d by a word whose coset passes the rule, with no help from
    the library's canonical-form machinery.
    """
    def ok(h):
        return h == 4 if weights == "4" else h % 4 == 0

    pool = [w for w in range(1, 1 << length) if ok(bin(w).count("1"))]
    found, level = set(), {frozenset([0])}
    while level:
        found |= level
        grown = set()
        for span in level:
            for w in pool:
                if w not in span and all(ok(bin(w ^ c).count("1"))
                                         for c in span):
                    grown.add(span | {w ^ c for c in span})
        level = grown
    return found


def brute_weight4_codes(length):
    """(dim, support size) of every nonzero code of the given length whose
    nonzero words all have weight 4."""
    out = set()
    for span in admissible_subspaces(length, "4"):
        if len(span) > 1:
            support = 0
            for w in span:
                support |= w
            out.add((len(span).bit_length() - 1, bin(support).count("1")))
    return out


def latin_square_code(order, seed):
    """The code spanned by the adjacency rows of the Latin square graph of a
    seeded isotope of the cyclic square of the given order: one coordinate
    per cell, two cells joined when they share a row, a column or a symbol.
    Order 5 gives a [25,12] code."""
    rng = random.Random(seed)
    rows, cols, symbols = (rng.sample(range(order), order) for _ in range(3))
    cells = [(i, j, symbols[(rows[i] + cols[j]) % order])
             for i in range(order) for j in range(order)]
    words = [sum(1 << t for t, b in enumerate(cells)
                 if a != b and any(x == y for x, y in zip(a, b)))
             for a in cells]
    return make_code(words, order * order)
