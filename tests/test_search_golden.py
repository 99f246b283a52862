"""The canonical search's outputs on a fixed corpus of codes.

For each code, ``tests/golden/canonical_search.json`` holds the input, the
canonical form, witness and automorphism generators of its full search,
and the form and witness of two stopped searches: of a permuted copy
against the code's own form, and of the code against the form of another
code of the same length and dimension.  The corpus covers both sides of
the dual switch (2 dim > length).  Rewrite the golden with
``python tests/test_search_golden.py`` and read the diff before committing.
"""

import json
import random
from pathlib import Path

from nodalcodes import gf2
from nodalcodes.gf2 import de, make_code, permute, simplex

GOLDEN = Path(__file__).resolve().parent / "golden" / "canonical_search.json"


def shuffled(rng, code):
    images = list(range(code.length))
    rng.shuffle(images)
    return permute(code, images)


def random_code(rng, n, k):
    # k random words, so the dimension may come out below k
    return make_code([rng.getrandbits(n) for _ in range(k)], n)


def doubly_even(rng, n, k):
    # random words of weight 0 mod 4 meeting every earlier one evenly, at
    # most k of them out of a bounded number of draws
    gens, span = [], {0}
    for _ in range(400 * k):
        w = rng.getrandbits(n)
        if (w in span or bin(w).count("1") % 4
                or any(bin(w & g).count("1") % 2 for g in gens)):
            continue
        gens.append(w)
        span |= {s ^ w for s in span}
        if len(gens) == k:
            break
    return make_code(gens, n)


def corpus():
    """(name, code, permuted copy, other code of the same shape), about
    300 of them: random codes of length <= 16, doubly even codes, de(2..8)
    and simplex(3..4) with their duals, and padded, permuted copies."""
    rng = random.Random(2000)
    codes = {}
    for n in range(1, 17):
        for j in range(9):
            codes[f"random [{n}] #{j}"] = random_code(rng, n,
                                                       rng.randrange(n + 1))
    named = [(f"doubly even [{n}] #{k}", doubly_even(rng, n, k))
             for n in range(8, 17) for k in range(2, n // 2 + 1)]
    named += [(f"de({n})", de(n)) for n in range(2, 9)]
    named += [(f"simplex({r})", simplex(r)) for r in (3, 4)]
    for name, code in named:
        codes[name] = code
        codes[name + " dual"] = gf2._dual(code)
    for name, code in list(codes.items())[::5]:
        pad = rng.randrange(1, 4)
        codes[f"{name} padded {pad}"] = shuffled(
            rng, make_code(code.generators, code.length + pad))
    for name, code in codes.items():
        while True:
            other = random_code(rng, code.length, code.dim)
            if other.dim == code.dim:
                break
        yield name, code, shuffled(rng, code), other


def record(code, copy, other):
    search = gf2._canonical_search.__wrapped__
    form, witness, generators = search(code)
    stopped = [search(b, stop)[:2]
               for b, stop in ((copy, form), (code, search(other)[0]))]
    return {
        "code": [code.length, list(code.generators)],
        "form": list(form.generators),
        "witness": list(witness),
        "generators": [list(g) for g in generators],
        "stopped": [[list(f.generators), list(w)] for f, w in stopped],
    }


def dump(records):
    # one record per line, so a diff names the codes whose search changed
    lines = [f"{json.dumps(name)}: {json.dumps(rec)}"
             for name, rec in records.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_canonical_search_matches_golden():
    golden = json.loads(GOLDEN.read_text())
    codes = list(corpus())
    assert len(codes) >= 290
    assert {2 * code.dim > code.length for _, code, _, _ in codes} \
        == {False, True}
    got = {name: record(*rest) for name, *rest in codes}
    assert list(got) == list(golden)
    for name, rec in got.items():
        assert rec == golden[name], name


if __name__ == "__main__":
    GOLDEN.write_text(dump({name: record(*codes)
                            for name, *codes in corpus()}))
