import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from sublattices import oracle
from sublattices.arith import partitions
from sublattices.census import cocyclic_count_prime_power, sublattice_count_prime_power
from sublattices.cli import main
from sublattices.enumeration import hnf_stream
from sublattices.forms import invariant_factors, invariant_factors_via_minors
from sublattices.polyalg import class_size_poly, poly_eval


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_fn_json(capsys):
    code, out, _ = run_cli(capsys, "count", "fn", "--n", "3", "--m", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == "1"
    assert doc["command"] == "count fn"
    assert doc["params"] == {"n": 3, "m": 4, "method": "closed"}
    assert doc["payload"] == {"value": "35"}


def test_count_fn_plain_and_csv(capsys):
    code, out, _ = run_cli(capsys, "count", "fn", "--n", "3", "--m", "4", "--format", "plain")
    assert code == 0 and out.strip() == "35"
    code, out, _ = run_cli(capsys, "count", "fn", "--n", "3", "--m", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "m,method,n,value"
    assert lines[1] == "4,closed,3,35"


def test_answer_past_the_int_str_digit_limit(capsys):
    # 2**20000 - 1 has 6021 digits, past the 4300 that Python converts by default
    want = 2**20000 - 1
    for what in ("fn", "cocyclic"):
        code, out, err = run_cli(capsys, "count", what, "--n", "20000", "--m", "2")
        assert (code, err) == (0, "")
        value = json.loads(out)["payload"]["value"]
        if hasattr(sys, "set_int_max_str_digits"):
            limit = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
            try:
                assert value == str(want)
            finally:
                sys.set_int_max_str_digits(limit)
            # the CLI puts Python's limit back for the rest of the process
            assert sys.get_int_max_str_digits() == limit
        else:
            assert value == str(want)


def test_count_fn_methods_agree(capsys):
    code, closed, _ = run_cli(
        capsys, "count", "fn", "--n", "3", "--m", "36", "--method", "closed", "--format", "plain"
    )
    assert code == 0
    code, rec, _ = run_cli(
        capsys, "count", "fn", "--n", "3", "--m", "36", "--method", "recursion", "--format", "plain"
    )
    assert code == 0
    assert closed == rec


def test_count_fn_recursion_refuses_unbounded_work(capsys):
    # the product of the first 15 primes has 8**15 ordered 8-tuples of divisors
    code, out, err = run_cli(
        capsys, "count", "fn", "--n", "8", "--m", "614889782588491410", "--method", "recursion"
    )
    assert code == 3 and out == ""
    assert f"predicted {8**15} divisor tuples exceeds the budget of 10000000" in err
    # the closed form answers the same scope at once
    code, out, _ = run_cli(capsys, "count", "fn", "--n", "8", "--m", "614889782588491410")
    assert code == 0 and json.loads(out)["payload"]["value"]


def test_count_other_subcommands(capsys):
    code, out, _ = run_cli(capsys, "count", "gn", "--n", "3", "--m", "8", "--format", "plain")
    assert code == 0 and out.strip() == "3"
    code, out, _ = run_cli(
        capsys, "count", "class", "--divisors", "1,1,4", "--format", "plain"
    )
    assert code == 0 and out.strip() == "28"
    code, out, _ = run_cli(capsys, "count", "class", "--divisors", "1,4", "--format", "plain")
    assert code == 0 and out.strip() == "6"
    code, out, _ = run_cli(
        capsys, "count", "cocyclic", "--n", "2", "--m", "12", "--format", "plain"
    )
    assert code == 0 and out.strip() == "24"
    code, out, _ = run_cli(
        capsys, "count", "cocyclic-cumulative", "--n", "2", "--max", "4", "--format", "plain"
    )
    assert code == 0 and out.strip() == "14"


def test_count_class_partition_form(capsys):
    code, out, _ = run_cli(
        capsys,
        "count", "class", "--n", "2", "--prime", "3", "--partition", "0,2",
        "--format", "plain",
    )
    assert code == 0 and out.strip() == "12"
    # both spellings of the same class agree
    code, other, _ = run_cli(capsys, "count", "class", "--divisors", "1,9", "--format", "plain")
    assert code == 0 and other == out


def test_count_class_validation(capsys):
    # chain and partition forms are mutually exclusive
    code, _, err = run_cli(
        capsys, "count", "class", "--divisors", "1,4", "--n", "2", "--prime", "2",
        "--partition", "0,2",
    )
    assert code == 2
    # partition form needs all three flags
    code, _, err = run_cli(capsys, "count", "class", "--n", "2", "--partition", "0,2")
    assert code == 2 and "prime" in err
    # non-prime p
    code, _, err = run_cli(
        capsys, "count", "class", "--n", "2", "--prime", "6", "--partition", "0,2"
    )
    assert code == 2 and "not prime" in err
    # partition length must match n
    code, _, err = run_cli(
        capsys, "count", "class", "--n", "3", "--prime", "2", "--partition", "0,2"
    )
    assert code == 2
    # decreasing partition
    code, _, err = run_cli(
        capsys, "count", "class", "--n", "2", "--prime", "2", "--partition", "2,0"
    )
    assert code == 2


def test_count_validation_exit_code(capsys):
    code, _, err = run_cli(capsys, "count", "fn", "--n", "0", "--m", "5")
    assert code == 2
    assert "error" in err
    code, _, err = run_cli(capsys, "count", "class", "--divisors", "2,3")
    assert code == 2
    assert "divide" in err


def test_count_cumulative_names_its_bound(capsys):
    # the command takes --max, not --m, and the refusal names --max, the
    # option the user gave, not the library's argument
    for bound in ("0", "-5"):
        with pytest.raises(SystemExit) as info:
            main(["count", "cocyclic-cumulative", "--n", "3", "--max", bound])
        captured = capsys.readouterr()
        assert info.value.code == 2 and captured.out == ""
        assert captured.err.endswith(f"error: argument --max: must be at least 1, got {bound}\n")
    # the dimension is checked by the CLI too, under its own option name,
    # not the library's "need n >= 1 and limit >= 1"
    for n in ("0", "-2"):
        with pytest.raises(SystemExit) as info:
            main(["count", "cocyclic-cumulative", "--n", n, "--max", "5"])
        captured = capsys.readouterr()
        assert info.value.code == 2 and captured.out == ""
        assert captured.err.endswith(f"error: argument --n: must be at least 1, got {n}\n")


def test_enumerate_lines(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "2", "--m", "2", "--with-snf")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert len(lines) == 3
    assert lines[0]["rows"] == [[1, 0], [0, 2]]
    assert lines[1]["rows"] == [[1, 1], [0, 2]]
    assert lines[2]["rows"] == [[2, 0], [0, 1]]
    assert all(line["snf"] == "1,2" for line in lines)
    assert all(line["schema_version"] == "1" for line in lines)


def test_enumerate_trivial_dimension(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "1", "--m", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["rows"] == [[7]]


def test_enumerate_limit_and_budget(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--m", "8", "--limit", "5")
    assert code == 0
    assert len(out.strip().splitlines()) == 5
    code, _, err = run_cli(capsys, "enumerate", "--n", "4", "--m", "32", "--budget", "100")
    assert code == 3
    assert "budget" in err
    # a limit under the budget rescues the stream
    code, out, _ = run_cli(
        capsys, "enumerate", "--n", "4", "--m", "32", "--budget", "100", "--limit", "10"
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 10
    code, out, err = run_cli(capsys, "enumerate", "--n", "2", "--m", "4", "--limit", "-1")
    assert code == 2
    assert out == "" and "--limit" in err


@pytest.mark.parametrize(
    "n, m", [(1, 1), (1, 12), (2, 12), (2, 16), (3, 12), (3, 27), (4, 6), (4, 8), (5, 4), (5, 6)]
)
def test_enumerate_lines_equal_json_dumps(capsys, n, m):
    # each line is the sorted-key json.dumps of its dict, whatever the Smith
    # route, and --limit cuts the same stream at any point, across write batches
    for with_snf in (False, True):
        expected = []
        for h in hnf_stream(n, m):
            line = {"schema_version": "1", "kind": "hnf", "n": n, "m": m,
                    "rows": [list(r) for r in h.rows]}
            if with_snf:
                line["snf"] = ",".join(map(str, invariant_factors(h.rows)))
            expected.append(json.dumps(line, sort_keys=True, separators=(",", ":")) + "\n")
        argv = ["enumerate", "--n", str(n), "--m", str(m)] + ["--with-snf"] * with_snf
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (0, "".join(expected), "")
        for limit in (0, 1, 255, 257, len(expected), len(expected) + 1):
            code, out, _ = run_cli(capsys, *argv, "--limit", str(limit))
            assert (code, out) == (0, "".join(expected[:limit]))


@pytest.mark.parametrize("n", [2, 3])
def test_enumerate_smith_shortcut_matches_elimination(capsys, n):
    # at a prime-power index, enumerate --with-snf takes each chain from the
    # closed forms in the entries' valuations; elimination is the check.
    # (3, 5**4) has 508 431 forms and takes seconds, so n = 3 stops at 5**3.
    for p in (2, 3, 5):
        for r in range(5 if n == 2 or p < 5 else 4):
            argv = ("enumerate", "--n", str(n), "--m", str(p**r), "--with-snf")
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            got = [json.loads(line)["snf"] for line in out.splitlines()]
            want = [",".join(map(str, invariant_factors(h.rows))) for h in hnf_stream(n, p**r)]
            assert got == want, (n, p, r)


@pytest.mark.parametrize("n", [2, 3])
def test_enumerate_composite_index_chains_match_minors(capsys, n):
    # at a composite index enumerate --with-snf takes each chain from the
    # closed form per prime; the minor gcds are the independent check, line by line
    for m in (12, 36, 48, 360 if n == 2 else 72):
        argv = ("enumerate", "--n", str(n), "--m", str(m), "--with-snf")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert [line["rows"] for line in lines] == [list(map(list, h.rows)) for h in hnf_stream(n, m)]
        for line in lines:
            assert line["snf"] == ",".join(map(str, invariant_factors_via_minors(line["rows"]))), line


def test_poly_class(capsys):
    code, out, _ = run_cli(
        capsys, "poly", "class", "--n", "3", "--partition", "0,1,1", "--eval", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["coefficients"] == ["1", "1", "1"]
    assert doc["payload"]["rendered"] == "T^2 + T + 1"
    assert doc["payload"]["value"] == "7"
    assert doc["params"]["eval"] == 2


def test_poly_class_two_by_two(capsys):
    code, out, _ = run_cli(
        capsys, "poly", "class", "--n", "2", "--partition", "0,2", "--format", "plain"
    )
    assert code == 0
    assert out.strip() == "T^2 + T"


def test_poly_class_partition_of_the_wrong_length(capsys):
    code, out, err = run_cli(capsys, "poly", "class", "--n", "3", "--partition", "0,2")
    assert code == 2 and out == ""
    assert "exactly n=3 parts, got 2" in err


def test_poly_fn_and_cocyclic(capsys):
    code, out, _ = run_cli(capsys, "poly", "fn", "--n", "2", "--r", "3", "--format", "plain")
    assert code == 0 and out.strip() == "T^3 + T^2 + T + 1"
    code, out, _ = run_cli(
        capsys, "poly", "cocyclic", "--n", "3", "--r", "2", "--format", "csv"
    )
    assert code == 0
    assert out.strip().splitlines()[0] == "degree,coefficient"
    code, out, _ = run_cli(capsys, "poly", "class", "--n", "2", "--partition", "junk")
    assert code == 2
    # with --eval, csv prints the table and then the value as a bare line
    fn_eval = ("poly", "fn", "--n", "2", "--r", "2", "--eval", "2", "--format")
    code, out, _ = run_cli(capsys, *fn_eval, "csv")
    assert code == 0 and out == "degree,coefficient\r\n0,1\r\n1,1\r\n2,1\r\n7\n"
    code, out, _ = run_cli(capsys, *fn_eval, "plain")
    assert code == 0 and out == "T^2 + T + 1\n7\n"


def test_poly_roundtrip_matches_count(capsys):
    # a polynomial answer evaluated at p must equal the direct count at p^r
    for n, p, r in [(2, 3, 2), (3, 2, 3), (4, 5, 1)]:
        code, out, _ = run_cli(
            capsys, "poly", "fn", "--n", str(n), "--r", str(r), "--eval", str(p)
        )
        assert code == 0
        via_poly = json.loads(out)["payload"]["value"]
        code, out, _ = run_cli(
            capsys, "count", "fn", "--n", str(n), "--m", str(p**r), "--format", "plain"
        )
        assert code == 0
        assert out.strip() == via_poly


def test_poly_leading_check(capsys):
    code, out, _ = run_cli(capsys, "poly", "leading-check", "--n", "3", "--r", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["payload"]["match"] is True
    assert doc["payload"]["degree"] == 8
    check = ("poly", "leading-check", "--n", "2", "--r", "2", "--format")
    code, out, _ = run_cli(capsys, *check, "plain")
    assert code == 0 and out == "ok degree 2, top coefficients [1, 1] vs [1, 1]\n"
    code, out, _ = run_cli(capsys, *check, "csv")
    assert code == 0 and out == "n,r,degree,difference_degree,match\r\n2,2,2,0,true\r\n"


def test_poly_cache_roundtrip(tmp_path, capsys):
    cache = tmp_path / "coeffs.json"
    code, out1, _ = run_cli(
        capsys, "poly", "class", "--n", "3", "--partition", "0,1,2", "--cache", str(cache)
    )
    assert code == 0
    assert cache.exists()
    stored = json.loads(cache.read_text())
    # the miss filled its level (3, 3) and nothing below it
    assert set(stored) == {"3:3:0,0,3", "3:3:0,1,2", "3:3:1,1,1"}
    # keys carry dimension and total as a prefix
    assert all(k.count(":") == 2 for k in stored)
    # a second run replaces it and must agree
    code, out2, _ = run_cli(
        capsys, "poly", "class", "--n", "3", "--partition", "0,1,2", "--cache", str(cache)
    )
    assert code == 0
    assert out1 == out2


def test_inputs_past_the_recursion_limit(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "count", "gn", "--n", "1", "--m", str(2**1100), "--format", "plain"
    )
    assert (code, out) == (0, "1\n")
    code, out, _ = run_cli(capsys, "count", "gn", "--n", "2000", "--m", "2", "--format", "plain")
    assert (code, out) == (0, "1\n")
    # one class, the cyclic one: 1 + T + ... + T^(n-1)
    code, out, _ = run_cli(capsys, "poly", "fn", "--n", "1500", "--r", "1")
    assert code == 0 and json.loads(out)["payload"]["coefficients"] == ["1"] * 1500
    part = ",".join(["0"] * 1199 + ["1"])
    code, out, _ = run_cli(capsys, "poly", "class", "--n", "1200", "--partition", part)
    assert code == 0 and json.loads(out)["payload"]["coefficients"] == ["1"] * 1200
    # a cache whose key has n = 2000 is written, then replaced without a warning
    cache = tmp_path / "coeffs.json"
    argv = ("poly", "fn", "--n", "2000", "--r", "1", "--cache", str(cache))
    code, cold, err = run_cli(capsys, *argv)
    assert code == 0 and "warning" not in err
    assert json.loads(cache.read_text()) == {"2000:1:" + "0," * 1999 + "1": [1] * 2000}
    code, warm, err = run_cli(capsys, *argv)
    assert (code, warm, err) == (0, cold, "")


def test_count_class_uses_cache(tmp_path, capsys):
    cache = tmp_path / "coeffs.json"
    code, out, _ = run_cli(
        capsys,
        "count", "class", "--n", "2", "--prime", "2", "--partition", "0,2",
        "--cache", str(cache), "--format", "plain",
    )
    assert code == 0 and out.strip() == "6"
    assert json.loads(cache.read_text())["2:2:0,2"] == [0, 1, 1]
    # chain form goes through the same cache
    code, out, _ = run_cli(
        capsys,
        "count", "class", "--divisors", "2,18", "--cache", str(cache), "--format", "plain",
    )
    assert code == 0 and out.strip() == "12"


def _level_file(*levels):
    """The cache file contents for the levels (n, k): every class of each."""
    return {
        f"{n}:{k}:{','.join(map(str, t))}": class_size_poly(t)
        for n, k in levels
        for t in partitions(n, k)
    }


def test_count_class_output_independent_of_cache(tmp_path, capsys):
    cases = [
        (("count", "class", "--divisors", "2,4,8"), [(3, 6)]),
        (("count", "class", "--divisors", "1,6,12"), [(3, 3), (3, 2)]),
        (("count", "class", "--n", "3", "--prime", "5", "--partition", "0,1,2"), [(3, 3)]),
        (("poly", "class", "--n", "3", "--partition", "0,1,2"), [(3, 3)]),
        (("poly", "fn", "--n", "3", "--r", "5"), [(3, 5)]),
    ]
    for i, (argv, levels) in enumerate(cases):
        code, bare, _ = run_cli(capsys, *argv)
        assert code == 0 and bare
        cache = tmp_path / f"coeffs{i}.json"
        for state in ("cold", "warm", "unparsable"):
            if state == "unparsable":
                cache.write_text("{not json")
            code, out, err = run_cli(capsys, *argv, "--cache", str(cache))
            assert (code, out, err) == (0, bare, ""), (argv, state)
            # exactly the command's levels, whatever was there before
            assert json.loads(cache.read_text()) == _level_file(*levels), (argv, state)


def test_cache_write_failure_warns_once(tmp_path, capsys):
    argv = ("poly", "fn", "--n", "3", "--r", "2")
    code, bare, _ = run_cli(capsys, *argv)
    assert code == 0
    (tmp_path / "dir").mkdir()
    for path in (tmp_path / "dir", tmp_path / "missing" / "coeffs.json"):
        code, out, err = run_cli(capsys, *argv, "--cache", str(path))
        assert (code, out) == (0, bare), path
        lines = err.splitlines()
        assert len(lines) == 1 and "could not write cache" in lines[0], err
        assert not list(tmp_path.rglob("*.cache")), path
    assert [p.name for p in tmp_path.iterdir()] == ["dir"]
    assert not list((tmp_path / "dir").iterdir())


def test_poly_cache_corrupted_recovers(tmp_path, capsys):
    cache = tmp_path / "coeffs.json"
    cache.write_text("{not json")
    code, out, err = run_cli(
        capsys, "poly", "class", "--n", "2", "--partition", "0,1", "--cache", str(cache)
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["payload"]["coefficients"] == ["1", "1"]
    # the unparsable file is replaced, unread, by this command's level (2, 1)
    assert json.loads(cache.read_text()) == {"2:1:0,1": [1, 1]}


def test_verify_refuses_minors_past_int64(capsys, monkeypatch):
    # refused up front with the int64 limit named, before any stdout
    monkeypatch.setattr(oracle, "_INT64_SAFE", 1)
    code, out, err = run_cli(capsys, "verify", "--n", "3", "--m", "12")
    assert code == 3
    assert out == ""
    assert "int64" in err and "the budget of 1\n" in err


def test_poly_cache_env_var(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "env_cache.json"
    monkeypatch.setenv("SUBLATTICE_CACHE", str(cache))
    code, _, _ = run_cli(capsys, "poly", "fn", "--n", "3", "--r", "2")
    assert code == 0
    assert cache.exists()
    stored = json.loads(cache.read_text())
    assert all(isinstance(v, list) for v in stored.values())


def test_verify_high_dimension_beyond_the_divisor_orders(capsys):
    # at (30, 4) only the top two minor orders can differ from 1: the
    # oracle answers without a table over all 29 orders
    code, out, err = run_cli(capsys, "verify", "--n", "30", "--m", "4", "--budget", str(10**18))
    assert code == 0 and err.startswith("elapsed")
    assert json.loads(out)["payload"]["all_match"] is True


def test_verify_refuses_before_the_formula_census(capsys):
    # 2**64 in dimension 8: the oracle's matrix count refuses it before the
    # formula census of its 116 263 classes is built
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "--n", "8", "--m", str(2**64))
    elapsed = time.perf_counter() - t0
    assert code == 3 and out == ""
    assert "predicted" in err
    assert elapsed < 1.0, elapsed


def test_far_up_inputs_answer_at_once(capsys):
    for n, r in [(3, 600), (4, 200)]:
        t0 = time.perf_counter()
        code, out, _ = run_cli(capsys, "poly", "fn", "--n", str(n), "--r", str(r))
        elapsed = time.perf_counter() - t0
        assert code == 0 and elapsed < 1.0, (n, r, elapsed)
        coeffs = [int(c) for c in json.loads(out)["payload"]["coefficients"]]
        for t in (2, 3):
            assert poly_eval(coeffs, t) == sublattice_count_prime_power(n, t, r), (n, r, t)
    # the cyclic class at 2**200, against its own closed form
    t0 = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "count", "class", "--n", "4", "--prime", "2", "--partition", "0,0,0,200",
        "--format", "plain",
    )
    elapsed = time.perf_counter() - t0
    assert code == 0 and elapsed < 1.0, elapsed
    assert int(out) == cocyclic_count_prime_power(4, 2, 200)


def test_verify_index_cli(capsys):
    code, out, err = run_cli(capsys, "verify", "--n", "2", "--m", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "verify index"
    assert doc["payload"]["all_match"] is True
    assert "elapsed" in err
    assert "elapsed" not in out


VERIFY_3_64 = (
    '{"command":"verify index","params":{"m":64,"n":3},"payload":{"all_match":true,'
    '"kind":"report","scope":"n=3 m=64","sections":[{"checks":[{"detail":"10795 vs 10795",'
    '"name":"count_closed_vs_recursion","ok":true},{"detail":"10795 vs 10795",'
    '"name":"count_vs_oracle_total","ok":true},{"detail":"expected 7, oracle 7, formula 7",'
    '"name":"class_count_vs_distinct_keys","ok":true},'
    '{"detail":"formula 7168, bruteforce 7168, census 7168",'
    '"name":"cocyclic_formula_vs_bruteforce","ok":true},'
    '{"detail":"","name":"smith_shortcut_agreement","ok":true}],"ok":true,"rows":['
    '{"class":"1,1,64","formula":"7168","match":true,"oracle":"7168"},'
    '{"class":"1,2,32","formula":"2688","match":true,"oracle":"2688"},'
    '{"class":"1,4,16","formula":"672","match":true,"oracle":"672"},'
    '{"class":"1,8,8","formula":"112","match":true,"oracle":"112"},'
    '{"class":"2,2,16","formula":"112","match":true,"oracle":"112"},'
    '{"class":"2,4,8","formula":"42","match":true,"oracle":"42"},'
    '{"class":"4,4,4","formula":"1","match":true,"oracle":"1"}],'
    '"scope":"n=3 m=64"}]},"schema_version":"1"}\n'
)


def test_verify_shortcut_check_output_pinned(capsys):
    # 10795 forms through both Smith routes; the report bytes are fixed
    code, out, _ = run_cli(capsys, "verify", "--n", "3", "--m", "64")
    assert code == 0
    assert out == VERIFY_3_64


def test_verify_rejects_zero_index(capsys):
    code, _, err = run_cli(capsys, "verify", "--n", "2", "--m", "0")
    assert code == 2
    assert "error" in err
    code, _, err = run_cli(capsys, "verify", "--n", "2", "--m", "6", "--jobs", "0")
    assert code == 2
    assert "jobs" in err


def test_verify_prime_powers_cli(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--n", "2", "--prime", "3", "--max-r", "2", "--format", "plain"
    )
    assert code == 0
    assert "all sections match" in out
    code, out, _ = run_cli(
        capsys, "verify", "--n", "2", "--prime", "2", "--max-r", "2", "--format", "plain"
    )
    assert code == 0 and out == "ok   n=2 m=2\nok   n=2 m=4\nall sections match\n"


def test_verify_argument_validation(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "suite", "--n", "2")
    assert code == 2
    code, _, err = run_cli(
        capsys, "verify", "--n", "2", "--m", "4", "--prime", "3", "--max-r", "2"
    )
    assert code == 2
    # --max-r only belongs to the prime-power ladder
    code, out, err = run_cli(capsys, "verify", "--n", "2", "--m", "4", "--max-r", "3")
    assert code == 2 and out == "" and "--max-r" in err
    code, out, err = run_cli(capsys, "verify", "suite", "--max-r", "3")
    assert code == 2 and out == "" and "scope" in err


def test_mismatch_exits_one_in_every_format(capsys, monkeypatch):
    # a disagreeing oracle row must reach stdout and the exit code alike
    def wrong(n, m, **kwargs):
        return oracle.SectionReport(f"n={n} m={m}", [oracle.ClassRow((1, m), 3, 2)])

    monkeypatch.setattr(oracle, "verify_index", wrong)
    scope = ("verify", "--n", "2", "--m", "4", "--format")
    code, out, _ = run_cli(capsys, *scope, "plain")
    assert code == 1 and out == "FAIL n=2 m=4\nMISMATCH found\n"
    code, out, _ = run_cli(capsys, *scope, "csv")
    assert code == 1
    assert out == (
        'section,kind,name,detail,ok\r\nn=2 m=4,class,"1,4",formula=3 oracle=2,false\r\n'
    )
    code, out, _ = run_cli(capsys, *scope, "json")
    assert code == 1 and json.loads(out)["payload"]["all_match"] is False
    report = {"degree": 2, "full_top": [1, 1], "cocyclic_top": [1, 2], "difference_degree": 1}
    monkeypatch.setattr("sublattices.polyalg.leading_terms_check", lambda n, r: (False, report))
    check = ("poly", "leading-check", "--n", "2", "--r", "2", "--format")
    code, out, _ = run_cli(capsys, *check, "plain")
    assert code == 1 and out == "FAIL degree 2, top coefficients [1, 1] vs [1, 2]\n"
    code, out, _ = run_cli(capsys, *check, "csv")
    assert code == 1 and out.endswith("\r\n2,2,2,1,false\r\n")
    code, out, _ = run_cli(capsys, *check, "json")
    assert code == 1 and json.loads(out)["payload"]["match"] is False


def test_arithmetic_error_inside_a_command_exits_one(capsys, monkeypatch):
    def broken(n, m):
        raise ArithmeticError("lost exactness")

    monkeypatch.setattr("sublattices.census.cocyclic_count", broken)
    code, out, err = run_cli(capsys, "count", "cocyclic", "--n", "3", "--m", "12")
    assert code == 1 and out == ""
    assert err == "error: internal inconsistency: lost exactness\n"


def test_enumerate_into_a_closed_pipe_exits_zero(capsys, monkeypatch):
    # a reader that went away, as under `| head`: the rest of the stream is
    # dropped, stdout is closed, and no traceback reaches stderr
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    pipe = ClosedPipe()
    monkeypatch.setattr(sys, "stdout", pipe)
    assert main(["enumerate", "--n", "3", "--m", "12"]) == 0
    assert pipe.closed
    assert capsys.readouterr().err == ""


def test_verify_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "--n", "2", "--m", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "section,kind,name,detail,ok"
    assert any(",class," in line for line in lines[1:])
    assert any(",check," in line for line in lines[1:])


def test_unknown_format_rejected():
    with pytest.raises(SystemExit) as info:
        main(["count", "fn", "--n", "2", "--m", "2", "--format", "xml"])
    assert info.value.code == 2


def test_module_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "sublattices",
         "count", "fn", "--n", "4", "--m", "2", "--format", "plain"],
        capture_output=True,
        text=True,
        env=dict(os.environ),
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "15"


def test_count_cumulative_refused_over_budget(capsys):
    # --max is the predicted number of sieved indices, refused up front
    code, out, err = run_cli(
        capsys, "count", "cocyclic-cumulative", "--n", "3", "--max", "1000000000"
    )
    assert code == 3 and out == ""
    assert err == (
        "error: count cocyclic-cumulative n=3 max=1000000000: predicted 1000000000"
        " indices exceeds the budget of 10000000\n"
    )
    code, out, err = run_cli(
        capsys, "count", "cocyclic-cumulative", "--n", "2", "--max", "50", "--budget", "49"
    )
    assert code == 3 and out == "" and "predicted 50 indices" in err
    # an explicit higher budget lets the same command run
    code, out, _ = run_cli(
        capsys, "count", "cocyclic-cumulative", "--n", "2", "--max", "4", "--budget", "4",
        "--format", "plain",
    )
    assert code == 0 and out.strip() == "14"


@pytest.mark.parametrize(
    "argv, code_at_zero",
    [
        (("enumerate", "--n", "2", "--m", "4", "--limit", "0"), 0),
        (("verify", "--n", "2", "--m", "4"), 3),
        (("count", "cocyclic-cumulative", "--n", "2", "--max", "1"), 3),
    ],
)
def test_negative_budget_is_invalid_input(capsys, argv, code_at_zero):
    # a budget below zero is a malformed option, not a refusal of the work
    with pytest.raises(SystemExit) as info:
        main([*argv, "--budget", "-1"])
    captured = capsys.readouterr()
    assert info.value.code == 2
    assert captured.out == "" and "--budget" in captured.err
    # zero stays a valid budget: it admits only work predicted at zero units
    assert run_cli(capsys, *argv, "--budget", "0")[0] == code_at_zero


HEAVY_MODULES = ("numpy", "concurrent.futures", "sublattices.oracle")
IMPORT_GUARD = """\
import contextlib, io, json, sys
import sublattices
import sublattices.cli
from sublattices.cli import main

def loaded():
    return [name for name in {heavy!r} if name in sys.modules]

report = {{"import": loaded()}}
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["count", "fn", "--n", "3", "--m", "4"],
                 ["poly", "fn", "--n", "4", "--r", "4"],
                 ["enumerate", "--n", "3", "--m", "12", "--with-snf"]):
        assert main(argv) == 0, argv
report["commands"] = loaded()
report["names"] = [name for name in sublattices.__all__ if name not in dir(sublattices)]
report["budget"] = sublattices.BudgetExceededError.__module__
report["after_budget"] = loaded()
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["verify", "--n", "2", "--m", "6"])
report["verify"] = [code, out.getvalue(), loaded()]
for name in sublattices.__all__:
    getattr(sublattices, name)
print(json.dumps(report))
"""
VERIFY_2_6 = (
    '{"command":"verify index","params":{"m":6,"n":2},"payload":{"all_match":true,'
    '"kind":"report","scope":"n=2 m=6","sections":[{"checks":[{"detail":"12 vs 12",'
    '"name":"count_closed_vs_recursion","ok":true},{"detail":"12 vs 12",'
    '"name":"count_vs_oracle_total","ok":true},{"detail":"expected 1, oracle 1, formula 1",'
    '"name":"class_count_vs_distinct_keys","ok":true},'
    '{"detail":"formula 12, bruteforce 12, census 12",'
    '"name":"cocyclic_formula_vs_bruteforce","ok":true},'
    '{"detail":"2 prime power factors","name":"multiplicative_split","ok":true},'
    '{"detail":"","name":"smith_shortcut_agreement","ok":true}],'
    '"ok":true,"rows":[{"class":"1,6","formula":"12","match":true,"oracle":"12"}],'
    '"scope":"n=2 m=6"}]},"schema_version":"1"}\n'
)


def test_only_the_oracle_loads_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD.format(heavy=HEAVY_MODULES)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["import"] == report["commands"] == report["after_budget"] == []
    assert report["names"] == []
    assert report["budget"] == "sublattices.enumeration"
    code, out, loaded = report["verify"]
    assert code == 0 and out == VERIFY_2_6
    # one worker never builds a process pool
    assert loaded == ["numpy", "sublattices.oracle"]


LEAN_GUARD = """\
import contextlib, io, json, sys
before = set(sys.modules)
import sublattices.cli
from sublattices.cli import main

report = {{}}
for fmt in ("json", "plain", "csv"):
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in {commands!r}:
            assert main([*argv, "--format", fmt]) == 0, argv
    report[fmt] = sorted(set(sys.modules) - before)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert main(["enumerate", "--n", "2", "--m", "2", "--with-snf"]) == 0
    assert main(["verify", "--n", "2", "--m", "6"]) == 0
report["heavy"] = out.getvalue().splitlines()
print(json.dumps(report))
"""
LEAN_COMMANDS = (
    ("count", "fn", "--n", "3", "--m", "36"),
    ("count", "class", "--divisors", "2,4,8"),
    ("poly", "fn", "--n", "4", "--r", "4"),
    ("poly", "class", "--n", "4", "--partition", "0,1,2,3"),
)


def test_count_and_poly_load_no_unused_module():
    # modules are diffed against the interpreter's own start-up, so whatever
    # site or .pth files import does not count
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", LEAN_GUARD.format(commands=LEAN_COMMANDS)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    unused = ("dataclasses", "csv", "tempfile", "numpy", "sublattices.forms", "sublattices.oracle")
    assert "sublattices.census" in report["json"]
    assert [name for name in unused if name in report["plain"]] == []
    # csv output loads csv, and nothing else of the list
    assert [name for name in unused if name in report["csv"]] == ["csv"]
    # the commands that do need forms and the oracle still run in that process
    enumerated, verified = report["heavy"][:3], report["heavy"][3:]
    assert [json.loads(line)["snf"] for line in enumerated] == ["1,2", "1,2", "1,2"]
    assert "\n".join(verified) + "\n" == VERIFY_2_6


COMMAND_GUARD = """\
import contextlib, io, json, sys
before = set(sys.modules)
import sublattices.cli
imported = sorted(set(sys.modules) - before)
with contextlib.redirect_stdout(io.StringIO()):
    code = sublattices.cli.main(sys.argv[1:])
print(json.dumps([code, imported, sorted(set(sys.modules) - before)]))
"""
COMPUTING_MODULES = (
    "numpy", "sublattices.census", "sublattices.forms", "sublattices.oracle", "sublattices.polyalg"
)


@pytest.mark.parametrize(
    "argv, unused",
    [
        (("count", "fn", "--n", "3", "--m", "36"), "sublattices.polyalg"),
        (("count", "gn", "--n", "3", "--m", "36"), "sublattices.polyalg"),
        (("count", "cocyclic", "--n", "3", "--m", "36"), "sublattices.polyalg"),
        (("count", "cocyclic-cumulative", "--n", "3", "--max", "100"), "sublattices.polyalg"),
        (("enumerate", "--n", "3", "--m", "12", "--with-snf"), "sublattices.polyalg"),
        (("poly", "class", "--n", "4", "--partition", "0,1,2,3", "--eval", "2"),
         "sublattices.census"),
        (("poly", "fn", "--n", "4", "--r", "4"), "sublattices.census"),
        (("poly", "cocyclic", "--n", "4", "--r", "4"), "sublattices.census"),
        (("poly", "leading-check", "--n", "4", "--r", "4"), "sublattices.census"),
        (("count", "class", "--divisors", "2,4,8"), "sublattices.polyalg"),
        (("count", "class", "--n", "4", "--prime", "2", "--partition", "0,1,2,3"),
         "sublattices.polyalg"),
    ],
)
def test_each_command_loads_only_what_it_runs(argv, unused):
    # a fresh process per command: importing the CLI loads no computing
    # module, and each command then loads only the modules its answer runs
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", COMMAND_GUARD, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(src)),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    code, imported, loaded = json.loads(proc.stdout)
    assert code == 0
    assert [name for name in COMPUTING_MODULES if name in imported] == []
    assert unused not in loaded
    assert "numpy" not in loaded and "sublattices.oracle" not in loaded
