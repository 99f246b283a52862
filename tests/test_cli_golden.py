"""Byte-for-byte JSON reports of the CLI on a fixed corpus.

Each case runs its argv lists in order in one fresh directory holding the
FILES below, with relative file names, and compares every run's exit code
and standard output with ``tests/golden/cli/<case>.json``.  Rewrite the goldens with
``python tests/test_cli_golden.py`` and read the diff before committing.

A case per command group (two for lattice), and four classify requests,
two that enumerate codes and two that do not, also run as
``python -m nodalcodes.cli`` in a fresh process, which must print the same
bytes and load only the layers its handler calls.
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from helpers import fresh_python
from nodalcodes.cli import _COMMANDS, run

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"

FILES = {
    "de3.code": "6 2\n110011\n001111\n",
    "de3-perm.code": "6 2\n101101\n011011\n",
    "bad.code": "8 x\n",
    "a2.lattice": '{"rank": 2, "doubled_gram": [[4, -2], [-2, 4]], '
                  '"scaling": "unscaled"}\n',
}

ENUMERATE_7 = ["code", "enumerate", "--length", "7", "--weights", "4",
               "--dim-min", "1", "--dim-max", "7"]

# demos/05_cli_tour.sh, then the README's command list with an ok case for
# each command that can derive a contradiction, then errors
CASES = {
    "tour-code-de": [["code", "de", "3", "--pretty"]],
    "tour-code-analyze": [["code", "analyze", "de3.code", "--pretty"]],
    "tour-lattice": [
        ["lattice", "build", "de3.code", "--scaling", "half",
         "--out", "de3.lattice"],
        ["lattice", "identify", "de3.lattice", "--pretty"],
    ],
    "tour-cover-invariants": [["cover", "invariants", "--chi", "1", "--k2",
                               "4", "--r", "1", "--m", "4", "--pretty"]],
    "tour-code-enumerate-cache": [
        ENUMERATE_7 + ["--cache", "cache", "--pretty"],
        ENUMERATE_7 + ["--cache", "cache", "--pretty"],
    ],
    "tour-classify-involution": [["classify", "involution", "--k2", "9",
                                  "--pretty"]],
    "code-de": [["code", "de", "3"]],
    "code-analyze": [["code", "analyze", "de3.code"]],
    "code-equiv": [["code", "equiv", "de3.code", "de3-perm.code"]],
    "code-enumerate-cache": [ENUMERATE_7 + ["--cache", "cache"]],
    "code-recognize-de": [["code", "recognize-de", "de3.code"]],
    "lattice-build": [["lattice", "build", "de3.code", "--scaling", "half",
                       "--out", "de3.lattice"]],
    "lattice-identify": [["lattice", "identify", "a2.lattice"]],
    "cover-invariants": [["cover", "invariants", "--chi", "1", "--k2", "4",
                          "--r", "1", "--m", "4"]],
    "bound-isotropic": [["bound", "isotropic", "--k", "8", "--rho", "10"]],
    "bound-miyaoka": [["bound", "miyaoka", "--k2", "0", "--c2", "12"]],
    "bound-min-m": [["bound", "min-m", "--r", "4"]],
    "classify-involution": [["classify", "involution", "--k2", "9"]],
    "classify-involution-8": [["classify", "involution", "--k2", "8"]],
    "classify-fibers": [["classify", "fibers", "--euler", "12", "--nodes",
                         "8"]],
    "classify-kr-pairs": [["classify", "kr-pairs"]],
    "classify-thm-mt": [["classify", "thm-mt", "--rho", "9"]],
    "classify-thm-mt-8": [["classify", "thm-mt", "--rho", "8"]],
    "classify-small-rho": [["classify", "small-rho", "--rho", "3"]],
    "solve-md": [["solve", "md"]],
    "pretty-first": [["--pretty", "solve", "md"]],
    "error-bad-code-file": [["code", "analyze", "bad.code"]],
    "error-missing-leaf": [["code"]],
    "error-unknown-group": [["frobnicate"]],
    "error-bad-value": [["code", "enumerate", "--length", "x", "--weights",
                         "4", "--dim-min", "1", "--dim-max", "3"]],
}


def record(case, workdir):
    """Run a case's argv lists in workdir; one {argv, exit, stdout} each."""
    for name, text in FILES.items():
        (workdir / name).write_text(text)
    runs = []
    for argv in CASES[case]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = run(argv)
        runs.append({"argv": argv, "exit": rc, "stdout": out.getvalue()})
    return runs


def dump(runs):
    return json.dumps(runs, indent=1) + "\n"


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert dump(record(case, tmp_path)) == \
        (GOLDEN / f"{case}.json").read_text()


def test_every_golden_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


def test_goldens_cover_every_command():
    # a new subcommand cannot land without a pinned ok report
    pinned = {
        json.loads(r["stdout"])["command"]
        for p in GOLDEN.glob("*.json") for r in json.loads(p.read_text())
        if json.loads(r["stdout"])["status"] == "ok"
    }
    assert pinned == set(_COMMANDS)


# a case per command group (two for lattice) and four classify requests,
# two that enumerate codes and two that do not, with the nodalcodes modules
# its request loads and whether it loads fractions; no request loads
# dataclasses
FRESH = {
    "code-de": ({"cli", "gf2"}, False),
    "lattice-build": ({"cli", "gf2", "lattices"}, False),
    "lattice-identify": ({"cli", "lattices"}, True),
    "cover-invariants": ({"cli", "covers"}, False),
    "bound-min-m": ({"cli", "covers"}, False),
    "classify-involution-8": ({"cli", "classify", "covers"}, False),
    "classify-fibers": ({"cli", "classify", "covers"}, False),
    "classify-thm-mt": ({"cli", "classify", "covers"}, False),
    "classify-thm-mt-8": ({"cli", "classify", "covers", "gf2"}, False),
    "classify-kr-pairs": ({"cli", "classify", "covers", "gf2"}, False),
    "classify-small-rho": ({"cli", "classify", "covers"}, False),
    "solve-md": ({"cli", "classify", "covers"}, False),
}

# runs cli.run on argv, discards its report and prints the modules it loaded
LOADED = """
import contextlib, io, json, sys
from nodalcodes import cli
with contextlib.redirect_stdout(io.StringIO()):
    cli.run(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("nodalcodes", "fractions",
                                               "dataclasses"))))
"""


def fresh(case, workdir, *runner):
    """A one-run case's argv, run by python with the runner in workdir."""
    for name, text in FILES.items():
        (workdir / name).write_text(text)
    (argv,) = CASES[case]
    return fresh_python(*runner, *argv, cwd=workdir)


@pytest.mark.parametrize("case", sorted(FRESH))
def test_fresh_process_matches_golden(case, tmp_path):
    # warnings are errors, so this also fails on runpy's "found in
    # sys.modules" warning, raised when importing the package has already
    # imported nodalcodes.cli
    (golden,) = json.loads((GOLDEN / f"{case}.json").read_text())
    proc = fresh(case, tmp_path, "-m", "nodalcodes.cli")
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (golden["exit"], golden["stdout"], "")


@pytest.mark.parametrize("case", sorted(FRESH))
def test_request_loads_only_its_layers(case, tmp_path):
    layers, fractions = FRESH[case]
    proc = fresh(case, tmp_path, "-c", LOADED)
    assert proc.stderr == ""
    loaded = set(json.loads(proc.stdout))
    assert loaded == ({"nodalcodes"} | {f"nodalcodes.{m}" for m in layers}
                      | ({"fractions"} if fractions else set()))


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            (GOLDEN / f"{case}.json").write_text(dump(record(case, Path(tmp))))
