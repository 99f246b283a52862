import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from helpers import latin_square_code, within
from hypothesis import given, settings
from hypothesis import strategies as st

from nodalcodes import __version__, gf2
from nodalcodes.cli import run
from nodalcodes.gf2 import de, format_code, permute, simplex


def invoke(capsys, *argv):
    rc = run(list(argv))
    out = capsys.readouterr().out
    return rc, json.loads(out)


def write_code(tmp_path, name, code):
    path = tmp_path / name
    path.write_text(format_code(code))
    return str(path)


def test_report_shape(capsys):
    rc, rep = invoke(capsys, "code", "de", "3")
    assert rc == 0
    assert set(rep) == {"command", "inputs", "outputs", "derivation",
                        "status"}
    assert rep["command"] == "code de"
    assert rep["status"] == "ok"
    assert rep["outputs"]["length"] == 6
    assert rep["outputs"]["dim"] == 2


def test_code_de_too_long_is_error(capsys):
    # 2n past the 32-coordinate limit is refused before any row is built
    rc, rep = invoke(capsys, "code", "de", "100000")
    assert rc == 1
    assert rep["status"] == "error"
    assert rep["inputs"] == {"n": 100000}
    assert rep["outputs"] == {}


def test_report_round_trips(capsys):
    rc, rep = invoke(capsys, "classify", "involution", "--k2", "8")
    assert rep == json.loads(json.dumps(rep))


def test_pretty_flag(capsys):
    rc = run(["--pretty", "solve", "md"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "\n  " in out
    json.loads(out)
    rc = run(["solve", "md", "--pretty"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "\n  " in out


def test_code_analyze(capsys, tmp_path):
    path = write_code(tmp_path, "c.txt", de(2))
    rc, rep = invoke(capsys, "code", "analyze", path)
    assert rc == 0
    out = rep["outputs"]
    assert out["dim"] == 1
    assert out["is_doubly_even"] is True
    assert out["de_n"] == 2
    assert out["reduced_length"] == 4


def test_code_equiv(capsys, tmp_path):
    a = de(3)
    b = permute(a, (5, 4, 3, 2, 1, 0))
    pa = write_code(tmp_path, "a.txt", a)
    pb = write_code(tmp_path, "b.txt", b)
    rc, rep = invoke(capsys, "code", "equiv", pa, pb)
    assert rc == 0
    assert rep["outputs"]["equivalent"] is True
    perm = rep["outputs"]["permutation"]
    assert sorted(perm) == list(range(6))
    assert permute(a, tuple(perm)) == b


def test_code_equiv_negative(capsys, tmp_path):
    pa = write_code(tmp_path, "a.txt", de(2))
    pb = write_code(tmp_path, "b.txt", simplex(2))
    rc, rep = invoke(capsys, "code", "equiv", pa, pb)
    assert rc == 0
    assert rep["outputs"]["equivalent"] is False
    assert rep["outputs"]["permutation"] is None


def test_code_recognize_de(capsys, tmp_path):
    path = write_code(tmp_path, "s.txt", simplex(3))
    rc, rep = invoke(capsys, "code", "recognize-de", path)
    assert rc == 0
    assert rep["outputs"] == {"n": None, "essentially_de": False}


def test_enumerate_cache_is_deterministic(capsys, tmp_path):
    args = ("code", "enumerate", "--length", "6", "--weights", "4",
            "--dim-min", "1", "--dim-max", "6",
            "--cache", str(tmp_path))
    rc, rep = invoke(capsys, *args)
    assert rc == 0
    cache_file = rep["outputs"]["cache_file"]
    first = Path(cache_file).read_bytes()
    assert first
    rc2, rep2 = invoke(capsys, *args)
    second = Path(cache_file).read_bytes()
    assert first == second
    assert rep["outputs"]["codes"] == rep2["outputs"]["codes"]
    stamp, *lines = first.decode().splitlines()
    assert json.loads(stamp) == {
        "algorithm": "enumerate_codes/aut-orbits/profile-refined-canonical",
        "count": rep["outputs"]["count"],
        "nodalcodes": __version__,
    }
    assert len(lines) == rep["outputs"]["count"]
    for line in lines:
        row = json.loads(line)
        assert set(row) == {"length", "dim", "generators",
                            "weight_enumerator"}


def test_enumerate_cache_hit_skips_recomputation(capsys, tmp_path,
                                                 monkeypatch):
    args = ("code", "enumerate", "--length", "8", "--weights", "div4",
            "--dim-min", "1", "--dim-max", "8",
            "--cache", str(tmp_path))
    rc, rep = invoke(capsys, *args)

    def refuse(*a):
        raise AssertionError("recomputed despite a valid cache file")

    monkeypatch.setattr(gf2, "enumerate_codes", refuse)
    rc2, rep2 = invoke(capsys, *args)
    assert rc2 == 0
    assert rep2 == rep


ENUMERATE_7 = ("code", "enumerate", "--length", "7", "--weights", "4",
               "--dim-min", "1", "--dim-max", "7")


def tamper_truncate(text):
    return text.splitlines(keepends=True)[0]


def tamper_drop_last(text):
    return "".join(text.splitlines(keepends=True)[:-1])


def tamper_garbage(text):
    return "\x00not a cache\n{]\n"


def tamper_repeat_line(text):
    stamp, first, *rest = text.splitlines(keepends=True)
    return stamp + first * (1 + len(rest))


def tamper_non_canonical(text):
    # same stamp and count, but the first code is not in canonical form
    stamp, first, *rest = text.splitlines(keepends=True)
    row = json.loads(first)
    row["generators"] = [g[::-1] for g in row["generators"]]
    line = json.dumps(row, sort_keys=True, separators=(",", ":"))
    return stamp + line + "\n" + "".join(rest)


def tamper_old_version(text):
    return text.replace(__version__, "0.0.0", 1)


@pytest.mark.parametrize("tamper", [
    tamper_truncate, tamper_drop_last, tamper_garbage, tamper_repeat_line,
    tamper_non_canonical, tamper_old_version,
])
def test_enumerate_bad_cache_is_recomputed(capsys, tmp_path, tamper):
    # a file that is not exactly what this version writes is a miss: the
    # report is recomputed and the file replaced
    rc, rep = invoke(capsys, *ENUMERATE_7, "--cache", str(tmp_path))
    path = rep["outputs"]["cache_file"]
    good = Path(path).read_text()
    assert rep["outputs"]["count"] == 3
    bad = tamper(good)
    assert bad != good
    with open(path, "w") as fh:
        fh.write(bad)
    rc2, rep2 = invoke(capsys, *ENUMERATE_7, "--cache", str(tmp_path))
    assert rc2 == 0
    assert rep2 == rep
    assert Path(path).read_text() == good
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "enumerate_len7_w4_dim1-7.jsonl"]


def test_lattice_build_and_identify(capsys, tmp_path):
    code_path = write_code(tmp_path, "de2.txt", de(2))
    lat_path = str(tmp_path / "lat.json")
    rc, rep = invoke(capsys, "lattice", "build", code_path,
                     "--scaling", "half", "--out", lat_path)
    assert rc == 0
    assert rep["outputs"]["rank"] == 4
    rc, rep = invoke(capsys, "lattice", "identify", lat_path)
    assert rc == 0
    out = rep["outputs"]
    assert out["root_count"] == 24
    assert out["components"] == ["D4"]
    assert out["discriminant"] == "4"


def test_cover_invariants_cli(capsys):
    rc, rep = invoke(capsys, "cover", "invariants", "--chi", "1",
                     "--k2", "4", "--r", "1", "--m", "4")
    assert rc == 0
    assert rep["outputs"]["contracted"]["K2"] == 8
    assert rep["outputs"]["cover"]["chi"] == 1
    assert rep["outputs"]["blowdowns"] == 4
    assert rep["derivation"]


def test_cover_invariants_non_integral_chi_is_error(capsys):
    rc, rep = invoke(capsys, "cover", "invariants", "--chi", "1",
                     "--k2", "4", "--r", "1", "--m", "2")
    assert rc == 1
    assert rep["status"] == "error"
    assert rep["outputs"] == {}
    assert rep["error"]


def test_cover_invariants_too_long_to_print_is_error(capsys):
    # chi of the 2^20000-sheeted cover has more digits than str() writes;
    # the report must still be one error report with the inputs
    rc, rep = invoke(capsys, "cover", "invariants", "--chi", "1",
                     "--k2", "0", "--r", "20000", "--m", "8")
    assert rc == 1
    assert rep["status"] == "error"
    assert rep["outputs"] == {}
    assert rep["inputs"]["r"] == 20000
    assert "digits" in rep["error"]


def test_bounds(capsys):
    rc, rep = invoke(capsys, "bound", "isotropic", "--k", "8",
                     "--rho", "10")
    assert (rc, rep["outputs"]["bound"]) == (0, 3)
    rc, rep = invoke(capsys, "bound", "miyaoka", "--k2", "0", "--c2", "12")
    assert (rc, rep["outputs"]["max_nodes"]) == (0, 8)
    assert rep["outputs"]["assumptions"]
    rc, rep = invoke(capsys, "bound", "min-m", "--r", "4")
    assert (rc, rep["outputs"]["min_m"]) == (0, 8)


def test_miyaoka_impossible_chern_numbers_is_error(capsys):
    rc, rep = invoke(capsys, "bound", "miyaoka", "--k2", "0", "--c2", "-5")
    assert rc == 1
    assert rep["status"] == "error"
    assert rep["outputs"] == {}
    assert rep["inputs"] == {"k2": 0, "c2": -5}
    assert "12" in rep["error"]


def test_classify_involution_9_contradiction(capsys):
    rc, rep = invoke(capsys, "classify", "involution", "--k2", "9")
    assert rc == 2
    assert rep["status"] == "contradiction"
    assert rep["derivation"][-1]["values"]["rho_Y"] == 8
    assert len(rep["outputs"]["cases"]) == 1


def test_classify_involution_8_ok(capsys):
    rc, rep = invoke(capsys, "classify", "involution", "--k2", "8")
    assert rc == 0
    assert rep["status"] == "ok"
    labels = [c["label"] for c in rep["outputs"]["cases"]]
    assert labels.count("contradiction") == 1
    assert len(labels) == 6


def test_classify_fibers(capsys):
    rc, rep = invoke(capsys, "classify", "fibers", "--euler", "12",
                     "--nodes", "8")
    assert rc == 0
    assert rep["outputs"]["multisets"] == [["I0star", "I0star"]]


def test_classify_kr_pairs(capsys):
    rc, rep = invoke(capsys, "classify", "kr-pairs")
    assert rc == 0
    assert rep["outputs"]["pairs"] == [
        [4, 1, 4], [6, 2, 6], [7, 3, 7], [8, 3, 7]
    ]


def test_classify_thm_mt(capsys):
    rc, rep = invoke(capsys, "classify", "thm-mt", "--rho", "9")
    assert rc == 2
    assert rep["status"] == "contradiction"
    rc, rep = invoke(capsys, "classify", "thm-mt", "--rho", "8")
    assert rc == 0
    assert rep["outputs"]["survives"] is True
    assert rep["outputs"]["attained_r"] == [3]
    rc, rep = invoke(capsys, "classify", "thm-mt", "--rho", "2")
    assert rc == 0


def test_classify_small_rho(capsys):
    rc, rep = invoke(capsys, "classify", "small-rho", "--rho", "3")
    assert rc == 0
    assert len(rep["outputs"]["cases"]) == 2


def test_solve_md_cli(capsys):
    rc, rep = invoke(capsys, "solve", "md")
    assert rc == 0
    assert rep["outputs"]["solutions"] == [
        {"m": 3, "d": 3, "genus": 5},
        {"m": 4, "d": 2, "genus": 3},
    ]
    assert rep["derivation"]


def test_missing_file_is_error(capsys, tmp_path):
    rc, rep = invoke(capsys, "code", "analyze",
                     str(tmp_path / "absent.txt"))
    assert rc == 1
    assert rep["status"] == "error"
    assert rep["outputs"] == {}
    assert "absent" in rep["error"]


def test_malformed_code_file_is_error(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a code\n")
    rc, rep = invoke(capsys, "code", "analyze", str(path))
    assert rc == 1
    assert rep["status"] == "error"


def test_error_report_keeps_inputs(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("8 x\n")
    rc = run(["code", "analyze", str(path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert len(out.splitlines()) == 1
    rep = json.loads(out)
    assert rep["status"] == "error"
    assert rep["inputs"] == {"file": str(path)}


def test_search_over_node_budget_is_error(capsys, tmp_path):
    # the canonical search of an order-5 Latin-square-graph code stops at
    # its node budget, and the request ends as one error report
    path = write_code(tmp_path, "latin5.txt", latin_square_code(5, 0))
    with within(30):
        rc = run(["code", "equiv", path, path])
    out = capsys.readouterr().out
    assert rc == 1
    assert len(out.splitlines()) == 1
    rep = json.loads(out)
    assert rep["status"] == "error"
    assert rep["inputs"] == {"a": path, "b": path}
    assert f"stopped at {gf2._SEARCH_NODE_BUDGET + 1} nodes" in rep["error"]


@pytest.mark.parametrize("rank", ["2", True, 2.0])
def test_lattice_non_integer_rank_is_error(capsys, tmp_path, rank):
    path = tmp_path / "lat.json"
    path.write_text(json.dumps({"rank": rank, "doubled_gram": [[4, 0], [0, 4]],
                                "scaling": "unscaled"}))
    rc, rep = invoke(capsys, "lattice", "identify", str(path))
    assert rc == 1
    assert rep["status"] == "error"
    assert rep["outputs"] == {}
    assert "rank" in rep["error"]


@pytest.mark.parametrize("gram", [[[4.7, 0], [0, "4"]], [[True, 0], [0, 4]]])
def test_lattice_non_integer_gram_is_error(capsys, tmp_path, gram):
    path = tmp_path / "lat.json"
    path.write_text(json.dumps({"rank": 2, "doubled_gram": gram,
                                "scaling": "unscaled"}))
    rc, rep = invoke(capsys, "lattice", "identify", str(path))
    assert rc == 1
    assert rep["status"] == "error"
    assert rep["outputs"] == {}
    assert "doubled_gram" in rep["error"]


def test_unknown_subcommand_is_error(capsys):
    rc, rep = invoke(capsys, "frobnicate")
    assert rc == 1
    assert rep["status"] == "error"
    assert rep["inputs"] == {"argv": ["frobnicate"]}


def test_missing_leaf_subcommand_is_error(capsys):
    rc, rep = invoke(capsys, "code")
    assert rc == 1
    assert rep["status"] == "error"
    assert rep["inputs"] == {"argv": ["code"]}


def test_code_file_round_trip_through_cli(capsys, tmp_path):
    # the on-disk format written here must be what analyze parses
    code = gf2.make_code(["1111"], 4)
    path = write_code(tmp_path, "c.txt", code)
    with open(path) as fh:
        assert fh.read() == "4 1\n1111\n"
    rc, rep = invoke(capsys, "code", "analyze", path)
    assert rc == 0
    assert rep["outputs"]["generators"] == ["1111"]


@pytest.mark.parametrize("argv", [
    ["code", "enumerate", "--length", "x", "--weights", "4",
     "--dim-min", "1", "--dim-max", "3"],
    # c2 is always 12 chi - K2, so there is no flag to repeat it
    ["cover", "invariants", "--chi", "1", "--k2", "4", "--c2", "8",
     "--r", "1", "--m", "4"],
], ids=["bad-value", "cover-c2"])
def test_usage_error_report_keeps_argv(capsys, argv):
    rc = run(argv)
    out = capsys.readouterr().out
    assert rc == 1
    assert len(out.splitlines()) == 1
    rep = json.loads(out)
    assert rep["status"] == "error"
    assert rep["inputs"] == {"argv": argv}


# --- the one-report contract under arbitrary files ---------------------------


def _small_header(text):
    # keep parseable headers at length <= 16 so no search runs long
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    try:
        return not lines or int(lines[0][0]) <= 16
    except ValueError:
        return True


@st.composite
def code_texts(draw):
    # a header and rows that mostly form a code, sometimes with a bad row
    # or a wrong count
    n = draw(st.integers(-1, 16))
    row = st.text("01", min_size=max(n, 0), max_size=max(n, 0))
    rows = draw(st.lists(row, max_size=max(n, 0) + 1))
    d = len(rows)
    if draw(st.booleans()):
        rows.append(draw(st.text("01x ", max_size=17)))
        d = draw(st.sampled_from([d, d + 1, -1]))
    return f"{n} {d}\n" + "\n".join(rows)


CODE_TEXT = (st.text(max_size=60) | code_texts()).filter(_small_header)

JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def lattice_texts(draw):
    # a symmetric integer matrix, not always positive definite, sometimes
    # with one field replaced by arbitrary JSON
    n = draw(st.integers(1, 6))
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            gram[i][j] = gram[j][i] = draw(
                st.integers(1, 8) if i == j else st.integers(-4, 4))
    payload = {"rank": n, "doubled_gram": gram,
               "scaling": draw(st.sampled_from(["unscaled", "half"]))}
    if draw(st.booleans()):
        payload[draw(st.sampled_from(sorted(payload)))] = draw(JSON_VALUE)
    return json.dumps(payload)


LATTICE_JSON = st.text(max_size=40) | JSON_VALUE.map(json.dumps) \
    | lattice_texts()


def one_report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run(argv)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1, out.getvalue()
    rep = json.loads(lines[0])
    assert rc == {"ok": 0, "error": 1}[rep["status"]], (rc, rep)
    return rep


@settings(deadline=None, max_examples=60)
@given(a=CODE_TEXT, b=CODE_TEXT)
def test_code_files_give_one_report(a, b):
    with tempfile.TemporaryDirectory() as tmp:
        pa, pb = Path(tmp, "a.code"), Path(tmp, "b.code")
        pa.write_text(a)
        pb.write_text(b)
        for argv in (["code", "analyze", str(pa)],
                     ["code", "recognize-de", str(pa)],
                     ["code", "equiv", str(pa), str(pb)],
                     ["lattice", "build", str(pa), "--scaling", "half"]):
            one_report(argv)


@settings(deadline=None, max_examples=60)
@given(text=LATTICE_JSON)
def test_lattice_files_give_one_report(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "x.lattice")
        path.write_text(text)
        one_report(["lattice", "identify", str(path)])
