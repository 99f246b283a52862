import contextlib
import io
import json
import tempfile
from itertools import product
from pathlib import Path

import pytest
from helpers import fresh_python, latin_square_code, within
from hypothesis import given, settings
from hypothesis import strategies as st

from nodalcodes import MAX_LENGTH, __version__, classify, covers, gf2
from nodalcodes.cli import _COMMANDS, _cache_lines, _plain, run
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


def test_help_is_argparse_usage(capsys):
    # the one output that is not a JSON report
    for argv in (["--help"], ["code", "equiv", "--help"]):
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: nodalcodes {' '.join(argv[:-1])}")


def test_pretty_flag(capsys):
    # --pretty at the top, group and leaf level: each parser takes it from
    # parents=[common], and the report is the compact one, indented
    for argv in (["--pretty", "solve", "md"], ["solve", "md", "--pretty"],
                 ["code", "--pretty", "de", "2"], ["solve", "--pretty", "md"]):
        rc = run(argv)
        out = capsys.readouterr().out
        assert rc == 0
        assert "\n  " in out
        compact = [a for a in argv if a != "--pretty"]
        assert (rc, json.loads(out)) == invoke(capsys, *compact), argv


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

    # each cached line is checked against its code's own weights once
    weigh, weighed = gf2.weight_enumerator, []

    def counting(code):
        weighed.append(code)
        return weigh(code)

    monkeypatch.setattr(gf2, "enumerate_codes", refuse)
    monkeypatch.setattr(gf2, "weight_enumerator", counting)
    rc2, rep2 = invoke(capsys, *args)
    assert rc2 == 0
    assert rep2 == rep
    assert len(weighed) == rep["outputs"]["count"]


ENUMERATE_7 = ("code", "enumerate", "--length", "7", "--weights", "4",
               "--dim-min", "1", "--dim-max", "7")


def test_enumerate_dimension_range_past_the_length(capsys):
    # a --dim-max far past the length answers at once, as --dim-max 7 does
    with within(1.0):
        rc, rep = invoke(capsys, *ENUMERATE_7[:-1], str(10**12))
    assert (rc, rep["status"], rep["outputs"]["count"]) == (0, "ok", 3)
    assert rep["outputs"]["codes"] == invoke(capsys, *ENUMERATE_7)[1][
        "outputs"]["codes"]


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


# arrays nested far past the recursion limit of the JSON decoder
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def restamped(text, line):
    # the file's stamp with its count set to 1, then the one line
    stamp = json.loads(text.splitlines()[0])
    stamp["count"] = 1
    return json.dumps(stamp, sort_keys=True, separators=(",", ":")) + \
        "\n" + line + "\n"


def tamper_deep_nesting(text):
    # arrays nested too deep to decode
    return restamped(text, DEEP_JSON)


def tamper_off_rule(text):
    # the code's own line, in canonical form, but the code has a word of
    # weight 2
    code = gf2.canonical_form(gf2.make_code(["1100000"], 7))[0]
    return restamped(text, _cache_lines([code])[0])


@pytest.mark.parametrize("tamper", [
    tamper_truncate, tamper_drop_last, tamper_garbage, tamper_repeat_line,
    tamper_non_canonical, tamper_old_version, tamper_deep_nesting,
    tamper_off_rule,
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


@pytest.mark.parametrize("length, dim_min, dim_max, error", [
    (40, 1, 2, "length out of range: 40"),
    (0, 1, 2, "length out of range: 0"),
    (8, 5, 2, "invalid dimension range: [5, 2]"),
], ids=["length-40", "length-0", "dims-5-2"])
def test_enumerate_planted_empty_cache_keeps_argument_checks(
        capsys, tmp_path, length, dim_min, dim_max, error):
    # a file holding only a current stamp with no codes, named after a
    # request the enumeration refuses, is no answer to that request
    name = f"enumerate_len{length}_w4_dim{dim_min}-{dim_max}.jsonl"
    (tmp_path / name).write_text(json.dumps(
        {"algorithm": "enumerate_codes/aut-orbits/profile-refined-canonical",
         "count": 0, "nodalcodes": __version__},
        sort_keys=True, separators=(",", ":")) + "\n")
    rc, rep = invoke(capsys, "code", "enumerate", "--length", str(length),
                     "--weights", "4", "--dim-min", str(dim_min),
                     "--dim-max", str(dim_max), "--cache", str(tmp_path))
    assert rc == 1
    assert rep["status"] == "error"
    assert rep["error"] == error


@pytest.mark.parametrize("planted", [False, True], ids=["miss", "planted"])
def test_enumerate_pool_over_budget_is_one_error_report(capsys, tmp_path,
                                                        planted):
    # a pool of about 10^9 words is refused at once, and a stamp-only
    # cache file under the request's name answers nothing
    if planted:
        (tmp_path / "enumerate_len32_wdiv4_dim0-1.jsonl").write_text(
            json.dumps({"algorithm": "enumerate_codes/aut-orbits/"
                                     "profile-refined-canonical",
                        "count": 0, "nodalcodes": __version__},
                       sort_keys=True, separators=(",", ":")) + "\n")
    argv = ["code", "enumerate", "--length", "32", "--weights", "div4",
            "--dim-min", "0", "--dim-max", "1", "--cache", str(tmp_path)]
    with within(0.5):
        rc = run(argv)
    out = capsys.readouterr().out
    assert rc == 1
    assert len(out.splitlines()) == 1
    rep = json.loads(out)
    assert rep["status"] == "error"
    assert rep["inputs"] == {"length": 32, "weights": "div4", "dim_min": 0,
                             "dim_max": 1, "cache": str(tmp_path)}
    assert rep["error"] == ("1073774591 admissible words of length 32 "
                            "exceed the pool budget of 8388608")


def test_enumerate_unwritable_cache_is_error(capsys, tmp_path):
    # the cache file's name taken by a directory: the new file cannot
    # replace it, the request ends as one error report, and the temporary
    # file is removed
    (tmp_path / "enumerate_len7_w4_dim1-7.jsonl").mkdir()
    rc = run([*ENUMERATE_7, "--cache", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert len(out.splitlines()) == 1
    assert json.loads(out)["status"] == "error"
    assert list(tmp_path.glob(".*.tmp")) == []


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
    # --chi has the most digits str() writes, so chi of the 256-sheeted
    # cover has more; the report must still be one error report with the
    # inputs
    chi = "9" * 4300
    rc, rep = invoke(capsys, "cover", "invariants", "--chi", chi,
                     "--k2", "0", "--r", "8", "--m", "8")
    assert rc == 1
    assert rep["status"] == "error"
    assert rep["outputs"] == {}
    assert rep["inputs"]["chi"] == int(chi)
    assert "digits" in rep["error"]


@pytest.mark.parametrize("r, m, message", [
    ("5", "2", "r = 5 exceeds m = 2"),
    ("100000000", "8", "r = 100000000 exceeds m = 8"),
    ("1", "33", "m = 33 exceeds the code length limit 32"),
], ids=["rank-above-length", "huge-rank", "too-many-curves"])
def test_cover_invariants_out_of_range_is_error(capsys, r, m, message):
    # a rank-r code of length m has r <= m <= 32; anything else ends at
    # once, before 2^r is computed
    with within(1):
        rc, rep = invoke(capsys, "cover", "invariants", "--chi", "1",
                         "--k2", "4", "--r", r, "--m", m)
    assert rc == 1
    assert rep["status"] == "error"
    assert rep["outputs"] == {}
    assert rep["inputs"]["r"] == int(r)
    assert rep["error"].startswith(message)


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


# --- the record's derivation is the report's trail ---------------------------


def trail_values(capsys, record, *argv):
    """The values of record's steps, once the report of argv is checked
    to carry them as its trail and nowhere else."""
    rc, rep = invoke(capsys, *argv)
    assert rc in (0, 2)
    assert rep["derivation"] == _plain(record.derivation)
    assert "derivation" not in rep["outputs"]
    return [step.values for step in record.derivation]


def test_cover_trail_is_the_records(capsys):
    # every valid (r, m) with m <= 8: r = 0 goes with m = 0, and chi is
    # integral when 2^r m is divisible by 8
    specs = [(r, m) for m in range(9) for r in range(min(m, 1), m + 1)
             if 2 ** r * m % 8 == 0]
    for chi, k2, (r, m) in product((1, 2), (0, 4, 8), specs):
        res = covers.cover_invariants(covers.SurfaceInvariants(chi=chi, K2=k2),
                                      covers.CoverSpec(r=r, m=m))
        assert trail_values(
            capsys, res, "cover", "invariants", "--chi", str(chi),
            "--k2", str(k2), "--r", str(r), "--m", str(m),
        ) == [{"chi": res.cover.chi, "K2": res.cover.K2},
              {"blowdowns": res.blowdowns, "K2": res.contracted.K2}]


def test_miyaoka_trail_is_the_records(capsys):
    for k2 in range(10):
        # Noether and Bogomolov-Miyaoka-Yau: 12 | K^2 + c2 and K^2 <= 3 c2
        for c2 in range(-k2 % 12, 40, 12):
            if k2 <= 3 * c2:
                nb = covers.miyaoka_max_nodes(k2, c2)
                assert trail_values(
                    capsys, nb, "bound", "miyaoka", "--k2", str(k2),
                    "--c2", str(c2),
                ) == [{"k2": k2, "c2": c2, "max_nodes": nb.max_nodes}]


def test_sweep_trail_is_the_records(capsys):
    for rho in range(2, 15):
        row = classify.saturated_node_sweep(rho)
        assert trail_values(
            capsys, row, "classify", "thm-mt", "--rho", str(rho),
        ) == [{"rho": row.rho, "r_min": row.r_min,
               "attained_r": row.attained_r}]


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
    assert rep["outputs"]["multisets"] == [{"I0star": 2}]


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


def test_search_over_node_budget_is_error(capsys, monkeypatch, tmp_path):
    # the canonical search of an order-5 Latin-square-graph code stops at
    # its node budget, here lowered, and the request ends as one error
    # report
    monkeypatch.setattr(gf2, "_SEARCH_NODE_BUDGET", 2000)
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


def test_lattice_over_root_rank_limit_is_error(capsys, tmp_path):
    path = tmp_path / "lat.json"
    path.write_text(json.dumps({
        "rank": 17, "scaling": "unscaled",
        "doubled_gram": [[4 * (i == j) for j in range(17)]
                         for i in range(17)]}))
    rc = run(["lattice", "identify", str(path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert len(out.splitlines()) == 1
    assert json.loads(out)["error"] == "rank 17 exceeds root-search limit 16"


def test_lattice_at_root_rank_limit_ends_in_its_error(capsys, tmp_path):
    # the doubled identity of rank 16 has 14,576 positive norm-2 vectors;
    # each is tested for simplicity against the simple roots found so far,
    # not against every positive vector, so the error comes in seconds
    path = tmp_path / "lat.json"
    path.write_text(json.dumps({
        "rank": 16, "scaling": "unscaled",
        "doubled_gram": [[int(i == j) for j in range(16)]
                         for i in range(16)]}))
    with within(4.0):
        rc, rep = invoke(capsys, "lattice", "identify", str(path))
    assert rc == 1
    assert rep["error"] == \
        "simple roots meet with product 1/2; not simply laced"


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


# the exit code of each report status
EXIT = {"ok": 0, "error": 1, "contradiction": 2}


def one_report(argv, statuses=("ok", "error")):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run(argv)
    lines = out.getvalue().splitlines()
    assert len(lines) == 1, out.getvalue()
    rep = json.loads(lines[0])
    assert rep["status"] in statuses, rep
    assert rc == EXIT[rep["status"]], (rc, rep)
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


# the documented range of each integer option of the subcommands that read
# only numbers; an unbounded end is cut short to keep each request small
NUMERIC_RANGES = {
    "cover invariants": {"--chi": (-2, 4), "--k2": (-9, 9),
                         "--r": (0, MAX_LENGTH), "--m": (0, MAX_LENGTH)},
    "bound isotropic": {"--k": (0, 40), "--rho": (1, 40)},
    "bound miyaoka": {"--k2": (0, 60), "--c2": (-12, 60)},
    "bound min-m": {"--r": (1, 8)},
    "classify fibers": {"--euler": (0, 600), "--nodes": (0, 200)},
    "classify small-rho": {"--rho": (2, 4)},
    "classify thm-mt": {"--rho": (2, 14)},
    "classify involution": {"--k2": (8, 9)},
    "classify kr-pairs": {},
    "solve md": {},
}


@st.composite
def numeric_requests(draw):
    # each option of a subcommand, read from its declaration, drawn across
    # its range and up to three past either end, or from its choices and
    # one tag past them; now and then one is left out.  Returns the argv
    # and the inputs its report keeps: the raw argv when the parse fails
    command = draw(st.sampled_from(sorted(NUMERIC_RANGES)))
    ranges = NUMERIC_RANGES[command]
    argv, parsed, usage_error = command.split(), {}, False
    for (flag,), kwargs in _COMMANDS[command][2]:
        name = flag.lstrip("-").replace("-", "_")
        if draw(st.integers(0, 7)) == 0:
            usage_error |= kwargs.get("required", False)
            parsed[name] = kwargs.get("default")
            continue
        if flag in ranges:
            lo, hi = ranges[flag]
            value = draw(st.integers(lo - 3, hi + 3))
        else:
            value = draw(st.sampled_from(kwargs["choices"] + ("none",)))
        usage_error |= "choices" in kwargs and value not in kwargs["choices"]
        argv += [flag, str(value)]
        parsed[name] = value
    return argv, {"argv": argv} if usage_error else parsed


@settings(deadline=None, max_examples=300)
@given(request=numeric_requests())
def test_numeric_requests_give_one_report(request):
    argv, inputs = request
    with within(1.0):
        rep = one_report(argv, statuses=tuple(EXIT))
    assert rep["command"] == " ".join(argv[:2])
    assert rep["inputs"] == inputs
    if rep["status"] == "error":
        assert rep["outputs"] == {} and rep["derivation"] == []
        assert rep["error"]


def test_deeply_nested_json_gives_one_report(tmp_path):
    # a fresh process, at the interpreter's own recursion limit: a lattice
    # file and a cache line nested too deep to decode end as one report
    # each, an error and a recomputed miss
    lattice = tmp_path / "deep.lattice"
    lattice.write_text(DEEP_JSON)
    proc = fresh_python("-m", "nodalcodes.cli", "lattice", "identify",
                        str(lattice))
    assert proc.returncode == 1 and proc.stderr == ""
    (line,) = proc.stdout.splitlines()
    rep = json.loads(line)
    assert rep["status"] == "error" and "not valid JSON" in rep["error"]

    argv = ("-m", "nodalcodes.cli", *ENUMERATE_7, "--cache", str(tmp_path))
    first = fresh_python(*argv)
    path = Path(json.loads(first.stdout)["outputs"]["cache_file"])
    good = path.read_text()
    path.write_text(tamper_deep_nesting(good))
    proc = fresh_python(*argv)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.splitlines() == first.stdout.splitlines()
    assert path.read_text() == good
