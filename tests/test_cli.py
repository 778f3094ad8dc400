import argparse
import concurrent.futures
import functools
import hashlib
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import fqlab
import fqlab.bounds
import fqlab.cli as cli
import fqlab.euclid
import fqlab.field
import fqlab.geometry
from fqlab import VerificationFailed
from fqlab.cli import (
    CHECK_NAMES,
    SWEEP_FIELDS,
    build_parser,
    config_digest,
    derive_seed,
    emit,
    format_real,
    main,
    normalize_config,
    run_sweep,
)

SMALL_CONFIG = {
    "grid": [{"primes": [3, 7], "dims": [2]}],
    "generators": ["all", "random:1t"],
    "seeds": [1, 2],
    "checks": ["main", "remark", "variance", "mixing", "hinge", "spectrum"],
}


def caller() -> str:
    """The name of the function that called the function calling this."""
    return sys._getframe(2).f_code.co_name


# --- serialization ----------------------------------------------------------


def test_format_real_12_digits():
    assert format_real(1002.8306325798367) == "1002.83063258"
    assert format_real(648.0) == "648"
    assert format_real(-0.0) == "0"
    assert format_real(2.0) == "2"


def test_emit_jsonl_exact_bytes():
    rec = {
        "status": "ok", "f_value": 288, "lower_bound": Fraction(288),
        "upper_exact": 648.0, "holds": True, "error": None,
    }
    fields = ("status", "f_value", "lower_bound", "upper_exact", "holds", "error")
    line = emit([rec], "jsonl", fields)
    assert line == (
        '{"status":"ok","f_value":288,"lower_bound":"288/1",'
        '"upper_exact":648,"holds":true,"error":null}\n'
    )


def test_emit_reduces_rationals():
    out = emit([{"x": Fraction(36, 24)}], "jsonl", ("x",))
    assert out == '{"x":"3/2"}\n'


def test_emit_csv_header_only_when_empty():
    out = emit([], "csv", ("a", "b"))
    assert out == "a,b\n"
    assert emit([], "jsonl", ("a", "b")) == ""


def test_emit_csv_values():
    out = emit([{"a": True, "b": None, "c": Fraction(1, 3)}], "csv", ("a", "b", "c"))
    assert out == "a,b,c\ntrue,,1/3\n"


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_emit_rejects_unsupported_values(fmt):
    with pytest.raises(TypeError):
        emit([{"a": (1, 2)}], fmt, ("a",))


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_emit_formats_subclasses_by_their_base_type(fmt):
    # a numpy float64 is a float and a str subclass a str, found by their
    # method resolution order; a numpy int64 derives from no record type
    class Label(str):
        pass

    fields = ("x", "s")
    want = emit([{"x": 0.1 + 0.2, "s": "e=3"}], fmt, fields)
    assert emit([{"x": np.float64(0.1 + 0.2), "s": Label("e=3")}], fmt, fields) == want
    with pytest.raises(TypeError):
        emit([{"x": np.int64(3)}], fmt, ("x",))


def test_derive_seed_stable():
    assert derive_seed("x", 3, 2) == derive_seed("x", 3, 2)
    assert derive_seed("x", 3, 2) != derive_seed("x", 2, 3)


def test_config_digest_key_order_invariant():
    a = config_digest({"x": 1, "y": [2]})
    b = config_digest({"y": [2], "x": 1})
    assert a == b


# The parts of a seed: ints past 64 bits and negative ones, and non-ASCII
# strings, whose joined text is hashed as UTF-8.
SEED_PARTS = [
    (0,), (1, "main", 7, 2, 3), ("x", 3, 2), (2**70, -5, "random:0.5t"),
    ("über", "π→∞", 11), ("\U0001d53d", ""),
]


def _hashlib_values(config) -> tuple[list[int], str]:
    """derive_seed of each of SEED_PARTS and config_digest of config,
    computed with hashlib.sha256 as the two are defined."""
    seeds = [int.from_bytes(hashlib.sha256("|".join(map(str, parts)).encode()).digest()[:8],
                            "big") for parts in SEED_PARTS]
    text = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return seeds, hashlib.sha256(text.encode()).hexdigest()


def test_seeds_and_digests_equal_hashlib_sha256():
    # without hashlib's OpenSSL the digests are the same SHA-256: here the
    # interpreter's own module, and in a child interpreter that has neither
    # _sha2 nor _sha256, hashlib as the last fallback
    config = normalize_config(cli.DEFAULT_SWEEP_CONFIG)
    want = _hashlib_values(config)
    assert ([derive_seed(*parts) for parts in SEED_PARTS], config_digest(config)) == want
    src = str(Path(fqlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import json, sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "import hashlib\n"
        "import fqlab.cli as cli\n"
        "assert cli.sha256 is hashlib.sha256\n"
        f"seeds = [cli.derive_seed(*parts) for parts in {SEED_PARTS!r}]\n"
        f"print(json.dumps([seeds, cli.config_digest({config!r})]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert tuple(json.loads(proc.stdout)) == want


# --- single-instance commands -------------------------------------------------


def test_sphere_command(capsys):
    assert main(["sphere", "--q", "3", "--dim", "2"]) == 0
    out = capsys.readouterr().out
    assert "a=0 size=1" in out and "a=1 size=4" in out and "total=9" in out


def test_sphere_list_points(capsys):
    assert main(["sphere", "--q", "3", "--dim", "2", "--a", "1", "--list"]) == 0
    out = capsys.readouterr().out
    assert "0,1" in out and "2,0" in out


def test_sphere_prints_up_to_the_int_digit_limit(capsys):
    # 3**9000 has 4,295 decimal digits, inside Python's default limit of
    # 4,300 for printing an int
    assert main(["sphere", "--q", "3", "--dim", "9000"]) == 0
    assert f"(p**dim = {3**9000})" in capsys.readouterr().out


def test_sphere_refuses_sizes_past_the_int_digit_limit(monkeypatch, capsys):
    # 7**30 has 26 decimal digits: refused under a limit of 25, before any
    # sphere table, and printed under 26, under 0 (unlimited) and where
    # the interpreter has no limit
    digits = len(str(7**30))
    for limit, code in [(digits - 1, 2), (digits, 0), (0, 0), (None, 0)]:
        with monkeypatch.context() as m:
            if limit is None:
                m.delattr(sys, "get_int_max_str_digits")
            else:
                m.setattr(sys, "get_int_max_str_digits", lambda limit=limit: limit)
            if code:
                m.setattr(cli, "sphere_table", lambda *a: pytest.fail("sphere table built"))
            assert main(["sphere", "--q", "7", "--dim", "30"]) == code
        out, err = capsys.readouterr()
        if code:
            assert out == "" and err == (
                f"error: 7**30 has more than {digits - 1} decimal digits, Python's limit "
                "for printing an integer (sys.set_int_max_str_digits), so its sphere "
                "sizes cannot be printed\n")
        else:
            assert f"(p**dim = {7**30})" in out


def test_spectrum_command(capsys, tmp_path):
    out_file = tmp_path / "spec.jsonl"
    code = main(["spectrum", "--q", "3", "--dim", "2", "--out", str(out_file)])
    assert code == 0
    txt = capsys.readouterr().out
    assert "second=2" in txt
    recs = [json.loads(l) for l in out_file.read_text().splitlines()]
    assert [r["a"] for r in recs] == [1, 2]
    assert all(r["bound_ok"] for r in recs)
    assert recs[0]["valency"] == 4


def test_spectrum_verification_failure_exits_1(monkeypatch):
    def boom(s, worst, at):
        raise VerificationFailed("synthetic")

    monkeypatch.setattr(cli, "recheck_spectrum", boom)
    assert main(["spectrum", "--q", "3", "--dim", "2", "--a", "1"]) == 1


def test_spectrum_computes_each_eigenvalue_array_once(monkeypatch):
    # the ceiling test and the recheck share one spectrum summary per radius
    calls = Counter()
    summary = fqlab.euclid.SpectralSummary

    def counted(**fields):
        calls[fields["a"]] += 1
        return summary(**fields)

    monkeypatch.setattr(fqlab.euclid, "SpectralSummary", counted)
    assert main(["spectrum", "--q", "7", "--dim", "2"]) == 0
    assert calls == Counter(range(1, 7))


@pytest.mark.parametrize("p,dim", [(11, 2), (7, 3), (5, 4), (7, 2)])
def test_all_radii_build_one_class_table_and_enumerate_no_sphere(monkeypatch, p, dim):
    # the spectrum command rechecks every radius from one recheck of the
    # whole table, still without enumerating a sphere
    builds, enumerated, rechecks = Counter(), Counter(), Counter()
    build = fqlab.euclid._norm_class_table.__wrapped__
    recheck = cli.recheck_table

    def counted_build(F, dim):
        builds[F.p, dim] += 1
        return build(F, dim)

    def counted_sphere(F, dim, a, force=False):
        enumerated[a] += 1
        return []

    def counted_recheck(F, dim):
        rechecks[F.p, dim] += 1
        return recheck(F, dim)

    monkeypatch.setattr(
        fqlab.euclid, "_norm_class_table", functools.lru_cache(maxsize=16)(counted_build)
    )
    monkeypatch.setattr(fqlab.geometry, "sphere_points", counted_sphere)
    monkeypatch.setattr(cli, "sphere_points", counted_sphere)
    monkeypatch.setattr(cli, "recheck_table", counted_recheck)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        F = fqlab.make_field(p)
    spectra = fqlab.euclid.spectra(F, dim, range(1, p), force=False)
    assert sorted(spectra) == list(range(1, p))
    assert builds == Counter({(p, dim): 1})
    assert not enumerated and not rechecks
    argv = ["spectrum", "--q", str(p), "--dim", str(dim), "--allow-1mod4"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(argv) == 0
    assert builds == Counter({(p, dim): 1})
    assert rechecks == Counter({(p, dim): 1})  # one for all radii
    assert not enumerated


def test_fcount_gen(capsys):
    assert main(["fcount", "--q", "3", "--dim", "2", "--gen", "all"]) == 0
    out = capsys.readouterr().out
    assert "f=288" in out and "verdict: ok" in out


def test_fcount_points_file(tmp_path, capsys):
    pf = tmp_path / "pts.txt"
    pf.write_text("# anchor\n0,0\n0,1\n1,0\n")
    out_file = tmp_path / "rec.jsonl"
    code = main(["fcount", "--q", "3", "--points", str(pf), "--out", str(out_file)])
    assert code == 0
    line = out_file.read_text()
    assert '"f_value":8' in line
    assert '"delta_implied":"3/2"' in line


def test_fcount_record_matches_documented_bytes(tmp_path):
    out_file = tmp_path / "rec.jsonl"
    main(["fcount", "--q", "3", "--dim", "2", "--gen", "all", "--out", str(out_file)])
    line = out_file.read_text()
    assert '"f_value":288,"null_pair_count":0' in line
    assert '"lower_bound":"288/1"' in line


def test_fcount_needs_input(capsys):
    assert main(["fcount", "--q", "3", "--dim", "2"]) == 2


def test_fcount_rejects_both_input_sources(tmp_path, capsys):
    pf = tmp_path / "pts.txt"
    pf.write_text("0,0\n0,1\n")
    code = main(["fcount", "--q", "3", "--points", str(pf), "--gen", "all", "--dim", "2"])
    assert code == 2
    assert "mutually exclusive" in capsys.readouterr().err


# --- verify ---------------------------------------------------------------------


def test_verify_spectrum_check(capsys):
    code = main(["verify", "--q", "3", "--dim", "2", "--checks", "spectrum"])
    assert code == 0
    out = capsys.readouterr().out
    assert "3.4641" in out and "ok" in out


def test_verify_rejects_nonprime():
    assert main(["verify", "--q", "4", "--dim", "2"]) == 2


def test_verify_gates_1mod4(capsys):
    assert main(["verify", "--q", "13", "--dim", "2", "--checks", "spectrum"]) == 2
    err = capsys.readouterr().err
    assert "--allow-1mod4" in err


def test_verify_allows_1mod4_with_flag(capsys):
    code = main(["verify", "--q", "13", "--dim", "2", "--checks", "spectrum",
                 "--allow-1mod4"])
    assert code == 0


def test_verify_bad_check_name():
    assert main(["verify", "--q", "3", "--dim", "2", "--checks", "nope"]) == 2


def test_verify_restrict_radius(tmp_path):
    out_file = tmp_path / "v.jsonl"
    code = main(["verify", "--q", "7", "--dim", "2", "--a", "3",
                 "--checks", "variance,mixing", "--trials", "4",
                 "--seed", "9", "--out", str(out_file)])
    assert code == 0
    recs = [json.loads(l) for l in out_file.read_text().splitlines()]
    assert {r["a"] for r in recs} == {3}
    assert {r["check"] for r in recs} == {"variance", "mixing"}
    assert {r["lam_kind"] for r in recs} == {"exact", "ceiling"}
    assert all(r["holds"] for r in recs)


def _records(tmp_path, argv) -> list[str]:
    """The jsonl record lines of main(argv + --out), which must exit 0."""
    out = tmp_path / "r.jsonl"
    assert main(argv + ["--out", str(out)]) == 0
    return out.read_text().splitlines()


def test_one_radius_spectrum_records_equal_the_full_run(tmp_path, capsys):
    # the spectrum and verify records of one radius, asked for alone with
    # --a, are those of the run over every radius, float residuals included
    for p, dim in sorted({(p, dim) for p, dim, _ in GRID}):
        space = ["--q", str(p), "--dim", str(dim)]
        spectrum = _records(tmp_path, ["spectrum", *space])
        verify = _records(tmp_path, ["verify", *space, "--checks", "spectrum"])
        for a in range(1, p):
            assert _records(tmp_path, ["spectrum", *space, "--a", str(a)]) == [spectrum[a - 1]]
            assert _records(tmp_path, ["verify", *space, "--checks", "spectrum",
                                       "--a", str(a)]) == [verify[a - 1]]
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["--q", "3", "--dim", "2", "--trials", "4"],
    ["--q", "7", "--dim", "2", "--trials", "3", "--seed", "2"],
    ["--q", "7", "--dim", "3", "--trials", "2", "--a", "3"],
    ["--q", "11", "--dim", "2", "--trials", "5", "--a", "2", "--format", "csv"],
])
def test_verify_records_of_a_check_do_not_depend_on_the_others(tmp_path, capsys, argv):
    # each check draws from its own stream and is judged on its own, so
    # its records are the same asked for alone or with every other check
    every = _records(tmp_path, ["verify", *argv])
    header = every[:1] if "csv" in argv else []
    column = 1 if "csv" in argv else None
    for check in CHECK_NAMES:
        alone = _records(tmp_path, ["verify", *argv, "--checks", check])
        if column is None:
            mine = [line for line in every if json.loads(line)["check"] == check]
        else:
            mine = header + [line for line in every[1:] if line.split(",")[column] == check]
        assert alone == mine and len(alone) > len(header), check
    capsys.readouterr()


def test_verify_failure_exits_1_with_replay(monkeypatch, capsys):
    # a negative bound is unsatisfiable, forcing every hinge verdict false
    monkeypatch.setattr(cli, "hinge_bound", lambda n, k, lam, m: -1.0)
    code = main(["verify", "--q", "3", "--dim", "2", "--checks", "hinge",
                 "--trials", "3"])
    assert code == 1
    captured = capsys.readouterr()
    assert "replay: fqlab verify" in captured.err


def test_verify_replay_carries_flags(monkeypatch, capsys):
    # without --allow-1mod4 the replay would stop at the 1-mod-4 gate (exit 2)
    monkeypatch.setattr(cli, "hinge_bound", lambda n, k, lam, m: -1.0)
    argv = ["verify", "--q", "13", "--dim", "2", "--allow-1mod4", "--force",
            "--checks", "hinge", "--trials", "2"]
    assert main(argv) == 1
    replay = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("replay: fqlab ")]
    assert len(replay) == 1
    assert "--allow-1mod4" in replay[0] and "--force" in replay[0]
    assert main(shlex.split(replay[0].removeprefix("replay: fqlab "))) == 1


def test_verify_guardrail_exits_2(capsys):
    # the spectrum check reads the 103 x 103 table alone; a subset check
    # makes degree columns over all 1,092,727 vertices of F_103^3
    assert main(["verify", "--q", "103", "--dim", "3", "--a", "1", "--checks", "spectrum"]) == 0
    assert main(["verify", "--q", "103", "--dim", "3", "--a", "1", "--trials", "2",
                 "--checks", "spectrum,hinge"]) == 2
    assert "exceeds the spectrum guardrail" in capsys.readouterr().err


@pytest.mark.parametrize("check", ["variance", "mixing", "hinge"])
def test_verify_refuses_subset_checks_before_drawing(monkeypatch, capsys, check):
    # F_103^3 has 1,092,727 vertices: a subset check is refused before
    # its first set is drawn; under a guardrail of 100 vertices F_7^3 is
    # refused the same way, and --force draws and judges it as before
    drawn = []
    sample = random.Random.sample
    monkeypatch.setattr(random.Random, "sample",
                        lambda self, *args: drawn.append(args) or sample(self, *args))
    assert main(["verify", "--q", "103", "--dim", "3", "--a", "1", "--checks", check]) == 2
    assert "exceeds the spectrum guardrail" in capsys.readouterr().err
    argv = ["verify", "--q", "7", "--dim", "3", "--a", "1", "--checks", check, "--trials", "2"]
    monkeypatch.setattr(fqlab.euclid, "SPECTRUM_MAX", 100)
    assert main(argv) == 2
    assert "exceeds the spectrum guardrail 100;" in capsys.readouterr().err
    assert drawn == []
    assert main(argv + ["--force"]) == 0 and drawn


@pytest.mark.parametrize("force", [[], ["--force"]], ids=["", "force"])
@pytest.mark.parametrize("command,dim", [
    ("spectrum", 1300), ("spectrum", 700), ("verify", 1300), ("verify", 700),
])
def test_spaces_past_int64_ranks_are_refused_before_the_table(monkeypatch, capsys,
                                                              command, dim, force):
    # 3**1300 passes the float range and 3**700 the int64 class sizes; both
    # are refused, forced or not, before the norm-class table is begun
    built = []
    monkeypatch.setattr(fqlab.euclid, "_norm_class_table", lambda *args: built.append(args))
    argv = [command, "--q", "3", "--dim", str(dim), "--a", "1", *force]
    assert main(argv + (["--checks", "spectrum"] if command == "verify" else [])) == 2
    assert capsys.readouterr().err == (
        f"error: F_3^{dim} has 3**{dim} points, more than int64 ranks can name\n"
    )
    assert built == []


def test_verify_point_sets_stay_within_profile_guardrail(monkeypatch, tmp_path):
    # under a guardrail of 10**4 pairs the random rungs keep |E|**2 <=
    # 10**4, at most 100 points, and F_11^3 itself (1331 points) is judged
    # too: its complement is empty, so its profile costs p**2 = 121 pairs;
    # under 100 pairs it is left out
    out_file = tmp_path / "v.jsonl"
    argv = ["verify", "--q", "11", "--dim", "3", "--checks", "main,remark",
            "--trials", "3", "--out", str(out_file)]
    for limit, sizes in ((10**4, [1331, 1, 10, 100]), (100, [1, 3, 10])):
        monkeypatch.setattr(fqlab.bounds, "PROFILE_MAX_PAIRS", limit)
        assert main(argv) == 0
        recs = [json.loads(l) for l in out_file.read_text().splitlines()]
        assert [r["set_size"] for r in recs] == sizes * 2
        assert [r["trial"] for r in recs] == list(range(len(sizes))) * 2


def test_verify_judges_the_full_space_past_ten_thousand_points(capsys):
    # all of F_211^2 (44,521 points) takes the complement route at 44,521
    # pair-equivalents, so verify's ladder judges it beside its random
    # rungs of at most 10**4 points
    assert main(["verify", "--q", "211", "--dim", "2", "--checks", "main",
                 "--trials", "2"]) == 0
    assert "main      p=211 dim=2: 3 point sets  ok\n" in capsys.readouterr().out


def test_verify_builds_each_view_and_report_once(monkeypatch):
    calls, stacked, passes = Counter(), [], []

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    transforms, records = fqlab.euclid.set_transforms, cli._subset_records

    def tracked(p, dim, members):
        stacked.append([m.size for m in members])
        return transforms(p, dim, members)

    def traced(F, dim, spectra, check, a, args):
        passes.append((check, a))
        return records(F, dim, spectra, check, a, args)

    counted(cli, "recheck_table")
    counted(fqlab.euclid, "certified_columns")
    counted(cli, "check_main_theorem")
    monkeypatch.setattr(fqlab.euclid, "set_transforms", tracked)
    monkeypatch.setattr(cli, "_subset_records", traced)
    assert main(["verify", "--q", "3", "--dim", "2", "--trials", "2"]) == 0
    assert calls["recheck_table"] == 1  # one for both radii, for the spectrum check alone
    # one pass per (check, radius), in record order, each one stack of its
    # check's two trials, sizes 1 and 9, whose columns one inverse
    # transform makes
    assert passes == [(check, a) for check in ("variance", "mixing", "hinge") for a in (1, 2)]
    assert calls["certified_columns"] == 6 and stacked == [[1, 9]] * 6
    # F_3^2 and the size-1 subset, main and remark; the size-9 rung is F_3^2
    assert calls["check_main_theorem"] == 2


@pytest.mark.parametrize("force", [False, True])
def test_verify_holds_a_size_n_rung_as_the_full_set(monkeypatch, capsys, force):
    # the ladder of F_3^2 reaches all 9 points on its last rung, which is
    # F_3^2 itself: the same PointSet object, not a second copy of the
    # space, so the dedupe never compares the two element by element
    deduped, held, compared = [], [], []
    distinct, equal = cli._distinct_sets, np.array_equal
    post = fqlab.geometry.PointSet.__post_init__
    monkeypatch.setattr(cli, "_distinct_sets", lambda sets: deduped.extend(sets) or distinct(sets))
    monkeypatch.setattr(fqlab.geometry.PointSet, "__post_init__",
                        lambda E: post(E) or held.append(E.ranks))
    monkeypatch.setattr(np, "array_equal", lambda x, y: compared.append((x, y)) or equal(x, y))
    argv = ["verify", "--q", "3", "--dim", "2", "--checks", "main,remark", "--trials", "3"]
    assert main(argv + ["--force"] * force) == 0
    assert "main      p=3 dim=2: 4 point sets  ok\n" in capsys.readouterr().out
    assert [E.ranks.size for E in deduped] == [9, 1, 3, 9] and deduped[3] is deduped[0]
    assert [ranks.size for ranks in held] == [9, 1, 3]
    assert held[0] is deduped[0].ranks and not held[0].flags.writeable
    assert compared == []


def test_verify_refuses_records_past_the_guardrail(monkeypatch, capsys, tmp_path):
    # the guardrail counts verify's records from its arguments: per radius
    # one spectrum verdict and, per trial, two verdicts of each subset
    # column (hinge has two columns); main and remark per point set, here
    # the three rungs and F_7^2.  A run of exactly VERIFY_MAX_RECORDS
    # records runs, and one past it is refused before any work
    out = tmp_path / "v.jsonl"
    argv = ["verify", "--q", "7", "--dim", "2", "--trials", "3", "--out", str(out)]
    assert main(argv) == 0
    count = len(out.read_text().splitlines())
    assert count == 6 + 6 * 3 * 2 * (1 + 1 + 2) + 2 * 4
    monkeypatch.setattr(cli, "VERIFY_MAX_RECORDS", count)
    assert main(argv) == 0
    monkeypatch.setattr(cli, "VERIFY_MAX_RECORDS", count - 1)
    assert main(argv + ["--force"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(fqlab.euclid, "spectra", lambda *args: pytest.fail("work before refusal"))
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: {count} verify records exceed the record guardrail {count - 1}; "
        "pass --force to override\n"
    )


def test_verify_without_graph_checks_makes_no_transform(monkeypatch):
    made = []
    monkeypatch.setattr(cli, "recheck_table", lambda *args: made.append(args))
    monkeypatch.setattr(fqlab.euclid, "class_transform", lambda *args: made.append(args))
    assert main(["verify", "--q", "7", "--dim", "2", "--checks", "main,remark",
                 "--trials", "2"]) == 0
    assert made == []


def test_verify_rechecks_the_table_once_across_stacks(monkeypatch):
    # stacks of one set: the spectrum pass rechecks the whole table once,
    # for every radius, however many stacks the subset pass makes
    made, stacked = Counter(), []
    recheck, stack = cli.recheck_table, fqlab.euclid.set_transforms

    def counted(F, dim):
        made[F.p, dim] += 1
        return recheck(F, dim)

    def counted_stack(p, dim, members):
        stacked.append(len(members))
        return stack(p, dim, members)

    monkeypatch.setattr(cli, "recheck_table", counted)
    monkeypatch.setattr(fqlab.euclid, "set_transforms", counted_stack)
    monkeypatch.setattr(fqlab.euclid, "STACK_ELEMENTS", 1)
    assert main(["verify", "--q", "7", "--dim", "2", "--checks", "spectrum,variance,hinge",
                 "--trials", "3"]) == 0
    assert made == {(7, 2): 1}
    # one stack per set: 2 checks x 6 radii x 3 trials
    assert stacked == [1] * 2 * 6 * 3


def test_verify_counts_each_subset_once_for_both_lambdas(monkeypatch):
    calls = Counter()

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(cli, "_item_counts")
    counted(fqlab.euclid, "certified_columns")
    argv = ["verify", "--q", "7", "--dim", "2", "--a", "1",
            "--checks", "variance,mixing,hinge", "--trials", "3"]
    assert main(argv) == 0
    # one stack per check, and each of its 3 trials read off it once, then
    # judged under the exact and ceiling lambda
    assert calls == {"certified_columns": 3, "_item_counts": 9}


# every instance exercised by the batteries: 44 (p, dim, a)
GRID = [(p, 2, a) for p in (3, 7, 11, 19) for a in range(1, p)] + [
    (p, 3, a) for p in (3, 7) for a in range(1, p)
]


def verdicts_by_item(rows):
    """Each item's (a, column, lam_kind, lhs, rhs, holds) rows in the order
    they come, rhs as a record holds it, from rows of (a, i, column,
    lam_kind, lhs, rhs, holds)."""
    by_item = {}
    for a, i, column, lam_kind, lhs, rhs, holds in rows:
        by_item.setdefault(i, []).append((a, column, lam_kind, lhs, float(rhs), holds))
    return by_item


def verify_draws(p, dim, a, check, trials, seed=5):
    """The (B, C) of each trial of verify's check on radius a, from the
    check's seeded stream, as cli._subset_records draws them."""
    rng = random.Random(cli.derive_seed(seed, check, p, dim, a))
    return list(cli._subset_draws(p**dim, check, trials, rng))


# each verify record's column, by the label its detail starts with
DETAIL_COLUMNS = {"|B|": "variance", "e": "mixing", "hinges": "hinge", "degree-sum": "eq2"}


def record_row(r, i):
    """(a, i, column, lam_kind, lhs, rhs, holds) of the verify record r of
    item i."""
    column = DETAIL_COLUMNS[r["detail"].split("=")[0]]
    return r["a"], i, column, r["lam_kind"], r["lhs"], r["rhs"], r["holds"]


def record_verdicts(F, dim, spectra, radii, members, items):
    """The records of cli._subset_records on each radius in turn, check by
    check, the items of a check its trials: (members[row], C) of each of its
    items, in order, are the check's draws.  Rows of (a, i, column,
    lam_kind, lhs, rhs, holds), each record's shape checked on the way."""
    for check in ("variance", "mixing", "hinge"):
        mine = [i for i, item in enumerate(items) if item[0] == check]
        draws = [(members[items[i][1]], items[i][2]) for i in mine]
        args = argparse.Namespace(seed=5, trials=len(draws), force=False)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(cli, "_subset_draws", lambda n, c, trials, rng: iter(draws))
            for a in radii if mine else ():
                records, line = cli._subset_records(F, dim, spectra, check, a, args)
                assert line.startswith(f"{check:<8}  p={F.p} dim={dim} a={a}: {len(mine)} subsets")
                for r in records:
                    B, C = draws[r["trial"]]
                    assert (r["check"], r["a"], r["set_size"]) == (check, a, B.size)
                    assert r["c_size"] == (None if C is None else C.size)
                    assert type(r["holds"]) is bool and r["status"] == ("ok" if r["holds"] else "fail")
                    yield record_row(r, mine[r["trial"]])


def assert_pass_equals_the_per_verdict_route(F, dim, spectra, radii, members, items):
    got = verdicts_by_item(record_verdicts(F, dim, spectra, radii, members, items))
    want = verdicts_by_item(
        oracles.graph_rows_per_verdict(F, dim, spectra, radii, members, items, False)
    )
    assert got == want
    assert sorted(got) == list(range(len(items)))  # every item judged


def test_subset_verdicts_equal_the_per_verdict_route():
    # every verdict (radius, item, column, lambda kind, lhs, rhs, holds),
    # and each item's verdicts in the order verify records them: verify's
    # records of each check on each of the 44 instances, against the
    # oracle on the replayed draws, then every distinct draw of an
    # instance's space judged on every radius
    checks = ("variance", "mixing", "hinge")
    for p, dim in sorted({(p, dim) for p, dim, _ in GRID}):
        F = fqlab.make_field(p)
        spectra = fqlab.spectra(F, dim, range(1, p))
        args = argparse.Namespace(seed=5, trials=3, force=False)
        sets = []
        for a in range(1, p):
            for check in checks:
                draws = oracles.subset_draws_replay(p, dim, a, check, 3, 5)
                members = [oracles.vertex_array(p**dim, B) for B, _ in draws]
                items = [(check, row, None if C is None else oracles.vertex_array(p**dim, C))
                         for row, (_, C) in enumerate(draws)]
                records, _ = cli._subset_records(F, dim, spectra, check, a, args)
                got = verdicts_by_item(record_row(r, r["trial"]) for r in records)
                want = oracles.graph_rows_per_verdict(F, dim, spectra, [a], members, items, False)
                assert got == verdicts_by_item(want)
                sets += [m for m in members if not any(np.array_equal(m, s) for s in sets)]
        items = [(c, row, sets[row] if c == "mixing" else None)
                 for row in range(len(sets)) for c in checks]
        assert_pass_equals_the_per_verdict_route(F, dim, spectra, range(1, p), sets, items)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_subset_verdicts_equal_the_per_verdict_route_on_random_items(data):
    # any sets, items in any order with any mixing C sets, any radii,
    # and stacks of one to three sets, so the memo crosses stacks
    p, dim = data.draw(st.sampled_from([(3, 2), (7, 2), (11, 2), (3, 3), (7, 3)]))
    n = p**dim
    F = fqlab.make_field(p)
    subset = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    sets = data.draw(st.lists(subset, min_size=1, max_size=5))
    members = [oracles.vertex_array(n, B) for B in sets]
    item = st.tuples(
        st.sampled_from(["variance", "mixing", "hinge"]),
        st.integers(0, len(members) - 1),
        subset.map(lambda C: oracles.vertex_array(n, C)),
    ).map(lambda it: (it[0], it[1], it[2] if it[0] == "mixing" else None))
    items = data.draw(st.lists(item, min_size=1, max_size=8))
    radii = data.draw(st.lists(st.integers(1, p - 1), min_size=1, unique=True))
    spectra = fqlab.spectra(F, dim, range(1, p))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(fqlab.euclid, "STACK_ELEMENTS", n * data.draw(st.integers(1, 3)))
        assert_pass_equals_the_per_verdict_route(F, dim, spectra, radii, members, items)


def graph_row_counts(F, dim, members):
    """{(row, column, a): count numerator} of every set members[row]
    checked against itself in every radius a: its variance, mixing,
    hinge and eq2 counts, read by the oracles off the package's degree
    columns."""
    got = {}
    for start, G, deg in fqlab.degree_columns(F, dim, members, range(1, F.p)):
        stack = members[start:start + len(deg)]
        counts = {
            "variance": oracles.variance_check(deg),
            "mixing": [deviation for _, deviation in oracles.mixing_check(deg, stack)],
            "hinge": oracles.hinge_count(deg, stack),
            "eq2": oracles.degree_sum_check(deg, stack),
        }
        for column, values in counts.items():
            for row, count in enumerate(values, start):
                got[row, column, G.a] = count
    return got


def assert_profile_counts_equal_the_columns(F, dim, sets):
    """bounds.subset_counts of each rank set's profile equals the counts
    that its degree columns give in every radius, column for column."""
    n = F.p**dim
    members = [oracles.vertex_array(n, ranks) for ranks in sets]
    want = graph_row_counts(F, dim, members)
    for row, ranks in enumerate(members):
        prof = oracles.degree_profile(F, dim, fqlab.PointSet(ranks, p=F.p, dim=dim))
        got = fqlab.bounds.subset_counts(F, dim, prof)
        assert list(got) == ["variance", "mixing", "hinge", "eq2"]
        for column, values in got.items():
            assert all(type(v) is int for v in values)
            assert values == [want[row, column, a] for a in range(1, F.p)], (row, ranks.size, column)


def field_allowing_1mod4(p):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fqlab.make_field(p)


# the 44-instance grid's (p, dim), then p = 1 mod 4 and dims 4 and 5
PROFILE_GRID = sorted({(p, dim) for p, dim, _ in GRID}) + [
    (5, 2), (13, 2), (5, 3), (3, 4), (5, 4), (3, 5),
]


@pytest.mark.parametrize("p,dim", PROFILE_GRID)
def test_profile_counts_equal_the_degree_columns(p, dim):
    # empty, singleton and full-space sets, random sets from sparse to one
    # point short of F_p^dim (pairwise and complement profiles), the unit
    # sphere, and verify's draws on every radius
    F = field_allowing_1mod4(p)
    n = p**dim
    rng = np.random.default_rng(p * 10 + dim)
    sets = [np.zeros(0, dtype=np.int64), np.array([0]), np.array([n - 1]), np.arange(n)]
    sets += [rng.choice(n, size, replace=False) for size in (2, n // 5, n // 2, n - 1)]
    sets.append(fqlab.generate_point_set(F, dim, "sphere:1").ranks)
    for a in range(1, p):
        sets += [B for check in ("variance", "hinge") for B, _ in verify_draws(p, dim, a, check, 3)
                 if B.size < n]  # all of F_p^dim is in sets already
    assert_profile_counts_equal_the_columns(F, dim, sets)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_profile_counts_equal_the_degree_columns_on_random_sets(data):
    # any sets or their complements, each profile by the route the cost
    # model picks, or convolved when the convolution is made free
    p, dim = data.draw(st.sampled_from(PROFILE_GRID))
    n = p**dim
    F = field_allowing_1mod4(p)
    subset = st.lists(st.integers(0, n - 1), max_size=min(n, 60), unique=True)
    sets = []
    for ranks, dense in data.draw(st.lists(st.tuples(subset, st.booleans()), min_size=1, max_size=4)):
        ranks = np.array(ranks, dtype=np.int64)
        sets.append(np.setdiff1d(np.arange(n), ranks) if dense else ranks)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(fqlab.bounds, "PROFILE_FFT_RATIO", data.draw(st.sampled_from([0, 20])))
        assert_profile_counts_equal_the_columns(F, dim, sets)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_graph_oks_equal_the_verdicts_of_the_degree_columns(data):
    # under bounds scaled down so that some verdicts fail, each set's
    # flags from _judge_sets, read off its profile, equal those of its
    # verdicts in verify's subset pass: a column holds when every radius'
    # count holds under both lambdas, and the set when every column does
    p, dim = data.draw(st.sampled_from([(3, 2), (7, 2), (11, 2), (3, 3), (7, 3)]))
    n = p**dim
    F = fqlab.make_field(p)
    spectra = fqlab.spectra(F, dim, range(1, p))
    subset = st.lists(st.integers(0, n - 1), max_size=n, unique=True)
    sets = data.draw(st.lists(subset, min_size=1, max_size=4))
    members = [oracles.vertex_array(n, B) for B in sets]
    scale = data.draw(st.sampled_from([0, 0.3, 0.6, 0.9, 1]))
    checks = ("variance", "mixing", "hinge")
    items = [(c, row, B if c == "mixing" else None)
             for row, B in enumerate(members) for c in checks]
    with pytest.MonkeyPatch.context() as m:
        for name in ("variance_bound", "mixing_bound", "hinge_bound", "degree_sum_bound"):
            m.setattr(cli, name, lambda *args, fn=getattr(cli, name): fn(*args) * scale)
        want = [dict.fromkeys(["variance_ok", "mixing_ok", "hinge_ok", "eq2_ok"], True)
                for _ in members]
        for _, i, column, _, _, _, ok in record_verdicts(
            F, dim, spectra, range(1, p), members, items
        ):
            want[items[i][1]][f"{column}_ok"] &= ok
        sets = [fqlab.PointSet(B, p=p, dim=dim) for B in members]
        judged = cli._judge_sets(F, dim, spectra, sets, checks, False)
        assert [flags for _, flags, _ in judged] == want
        assert [holds for _, _, holds in judged] == [all(flags.values()) for flags in want]


@pytest.mark.parametrize("trials", [1, 3, 5, 60])
def test_verify_subset_draws_equal_the_drawing_loop(trials):
    # a variance or hinge set of all n ranks is taken without a draw; each
    # check's draws equal those of the loop that drew every set, and 60
    # trials in F_3^2 put several rungs at n = 9
    assert cli._spanning_sizes(9, 60).count(9) >= 2
    for p, dim, a in GRID:
        for check in ("variance", "mixing", "hinge"):
            got = [(B.tolist(), None if C is None else C.tolist())
                   for B, C in verify_draws(p, dim, a, check, trials)]
            assert got == oracles.subset_draws_replay(p, dim, a, check, trials, 5)


@pytest.mark.parametrize("trials", [1, 3, 60])
def test_verify_subset_draws_equal_the_vertex_array_route(trials):
    # each set drawn, sorted as an int64 rank array, is the vertex array
    # of the loop's draw, dtype included
    for p, dim, a in GRID:
        n = p**dim
        for check in ("variance", "mixing", "hinge"):
            got = verify_draws(p, dim, a, check, trials)
            want = oracles.subset_draws_replay(p, dim, a, check, trials, 5)
            assert len(got) == len(want)
            for (B, C), (want_B, want_C) in zip(got, want):
                assert B.dtype == np.int64 and np.array_equal(B, oracles.vertex_array(n, want_B))
                assert (C is None) == (want_C is None) == (check != "mixing")
                if C is not None:
                    assert C.dtype == np.int64 and np.array_equal(C, oracles.vertex_array(n, want_C))


@pytest.mark.parametrize("trials", [1, 3, 5, 60])
def test_verify_point_set_draws_equal_the_drawing_loop(trials):
    # a rung of all n ranks is taken without a draw, at the cap n and below it
    for p, dim in sorted({(p, dim) for p, dim, _ in GRID}):
        n = p**dim
        for cap in (n, max(1, n // 3)):
            got = [list(ranks) for ranks in cli._point_set_draws(p, dim, cap, trials, 5)]
            assert got == oracles.point_set_draws_replay(p, dim, cap, trials, 5)


def test_verify_takes_size_n_sets_without_drawing(monkeypatch):
    # F_3^2 with 60 trials: of the variance and hinge streams' 60 draws
    # each, the rungs at n = 9 draw nothing; mixing draws all of its own
    drawn = Counter()
    sample = random.Random.sample

    def counted(self, population, k):
        drawn[k == len(population)] += 1
        return sample(self, population, k)

    monkeypatch.setattr(random.Random, "sample", counted)
    for check in ("variance", "hinge"):
        verify_draws(3, 2, 1, check, 60)
    assert drawn[True] == 0 and drawn[False] == 2 * (60 - cli._spanning_sizes(9, 60).count(9))
    drawn.clear()
    verify_draws(3, 2, 1, "mixing", 60)
    assert drawn[True] >= cli._spanning_sizes(9, 60).count(9)
    drawn.clear()
    list(cli._point_set_draws(3, 2, 9, 60, 5))
    assert drawn[True] == 0


def _child_output(code: str) -> str:
    """The last line that code prints in a fresh interpreter, with this
    fqlab on its path, once it has exited 0."""
    src = str(Path(fqlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def _loaded_modules(argv) -> set[str]:
    """The names of the modules loaded once main(argv), in a fresh
    interpreter, has exited 0."""
    return set(_child_output(
        "import sys\n"
        "from fqlab.cli import main\n"
        f"assert main({list(argv)!r}) == 0\n"
        "print(*sys.modules)\n"
    ).split())


def test_importing_the_cli_generates_no_code():
    # with numpy and the stdlib modules fqlab uses loaded first, importing
    # fqlab.cli passes no source text to exec, eval or compile (imports
    # compile bytes): the records' methods come precompiled with
    # fqlab.record, where each @dataclass generated its own; one
    # make_dataclass after it shows the probe sees generated code
    counts = _child_output(
        "import argparse, builtins, fractions, json, pathlib, random\n"
        "import numpy\n"
        "calls = []\n"
        "def counting(run):\n"
        "    def counted(source, *args, **kwargs):\n"
        "        calls.append(isinstance(source, str))\n"
        "        return run(source, *args, **kwargs)\n"
        "    return counted\n"
        "for name in ('exec', 'eval', 'compile'):\n"
        "    setattr(builtins, name, counting(getattr(builtins, name)))\n"
        "import fqlab.cli\n"
        "on_import = sum(calls)\n"
        "import dataclasses\n"
        "dataclasses.make_dataclass('Twin', ['x'], frozen=True)\n"
        "print(on_import, sum(calls) - on_import)\n"
    ).split()
    assert int(counts[0]) == 0 and int(counts[1]) > 0


# Modules that no ordinary call runs: OpenSSL through hashlib, the process
# pool (which imports logging), the csv writer and dataclasses, whose
# decorator generates each class's methods at import.
UNUSED_MODULES = {"_hashlib", "hashlib", "concurrent.futures", "logging", "csv", "dataclasses"}


@pytest.mark.parametrize("argv,loaded", [
    (["fcount", "--q", "7", "--dim", "2", "--gen", "random:1t", "--out", "{tmp}/f.jsonl"], set()),
    (["verify", "--q", "7", "--dim", "2", "--trials", "3", "--out", "{tmp}/v.jsonl"], set()),
    (["sweep", "--default", "--jobs", "1", "--out", "{tmp}/r.jsonl"], set()),
    (["fcount", "--q", "3", "--dim", "2", "--gen", "all", "--format", "csv",
      "--out", "{tmp}/f.csv"], {"csv"}),
])
def test_a_cli_call_loads_no_openssl_pool_or_csv_writer(tmp_path, argv, loaded):
    # seeds and config digests take the interpreter's own SHA-256, sets are
    # deduped without a hash, records are fqlab.record subclasses, and the
    # pool and the csv writer are imported only where they run; --format
    # csv shows the probe sees the import
    assert UNUSED_MODULES & _loaded_modules([arg.format(tmp=tmp_path) for arg in argv]) == loaded


@pytest.mark.parametrize("argv,loaded", [
    (["--q", "59", "--dim", "2", "--gen", "all"], False),
    (["--q", "83", "--dim", "2", "--gen", "random:1t"], False),
    (["--q", "11", "--dim", "3", "--gen", "random:665"], True),
    (["--q", "7", "--dim", "2", "--gen", "all", "--checks", "main,spectrum,hinge"], False),
])
def test_fcount_default_checks_never_load_numpy_fft(argv, loaded):
    # with its default checks (main, remark) fcount builds its spectra from
    # the closed-form table and profiles these sets from the complement and
    # pairwise, so numpy.fft is never imported, nor by the spectrum recheck
    # or the subset counts; half of F_11^3 takes the convolution route,
    # which shows the probe can see the import
    assert ("numpy.fft" in _loaded_modules(["fcount", *argv])) is loaded


def test_sweep_and_spectrum_never_load_numpy_fft(tmp_path):
    # the benchmark's all-checks sweep and the spectrum of every radius of
    # F_83^3 recheck their tables from (norm, dot) counts
    out = tmp_path / "r.jsonl"
    assert "numpy.fft" not in _loaded_modules(
        ["sweep", "--config", str(SWEEP_ALLCHECKS), "--out", str(out)])
    assert len(out.read_text().splitlines()) == 180
    assert "numpy.fft" not in _loaded_modules(["spectrum", "--q", "83", "--dim", "3"])


# --- sweep ------------------------------------------------------------------------


def test_normalize_config_fills_canonical_order():
    cfg = normalize_config(SMALL_CONFIG)
    assert cfg["checks"] == ["spectrum", "variance", "mixing", "hinge", "main", "remark"]
    assert cfg["allow_1mod4"] is False


def test_normalize_config_rejects_unknown_keys():
    from fqlab import BadSpec

    with pytest.raises(BadSpec):
        normalize_config({**SMALL_CONFIG, "bogus": 1})


def test_normalize_config_rejects_empty_generators():
    from fqlab import BadSpec

    with pytest.raises(BadSpec):
        normalize_config({**SMALL_CONFIG, "generators": []})


def test_normalize_config_gates_1mod4():
    from fqlab import BadSpec

    cfg = {**SMALL_CONFIG, "grid": [{"primes": [13], "dims": [2]}]}
    with pytest.raises(BadSpec):
        normalize_config(cfg)
    cfg["allow_1mod4"] = True
    assert normalize_config(cfg)["grid"][0]["primes"] == [13]


def test_run_sweep_all_checks_pass():
    records, digest = run_sweep(SMALL_CONFIG, jobs=1)
    assert len(records) == 2 * 2 * 2  # (p) x (generators) x (seeds)
    assert all(r["status"] == "ok" for r in records)
    assert all(r["holds"] for r in records)
    assert all(r["spectrum_ok"] and r["variance_ok"] for r in records)
    assert all(r["mixing_ok"] and r["hinge_ok"] and r["eq2_ok"] for r in records)
    assert all(r["config_digest"] == digest for r in records)


def test_run_sweep_deterministic_across_jobs():
    r1, _ = run_sweep(SMALL_CONFIG, jobs=1)
    r2, _ = run_sweep(SMALL_CONFIG, jobs=2)
    assert emit(r1, "jsonl", SWEEP_FIELDS) == emit(r2, "jsonl", SWEEP_FIELDS)


def test_sweep_command_writes_sorted_records(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SMALL_CONFIG))
    out = tmp_path / "records.jsonl"
    code = main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", "1"])
    assert code == 0
    txt = capsys.readouterr().out
    assert "8 cells, 8 ok" in txt
    recs = [json.loads(l) for l in out.read_text().splitlines()]
    keys = [(r["p"], r["dim"], r["generator"], r["seed"]) for r in recs]
    assert keys == sorted(keys)
    assert list(recs[0].keys()) == list(SWEEP_FIELDS)


def test_sweep_rerun_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SMALL_CONFIG))
    out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    main(["sweep", "--config", str(cfg), "--out", str(out1), "--jobs", "1"])
    main(["sweep", "--config", str(cfg), "--out", str(out2), "--jobs", "2"])
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_csv_format(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_CONFIG, "checks": ["main"]}))
    out = tmp_path / "records.csv"
    main(["sweep", "--config", str(cfg), "--out", str(out), "--format", "csv",
          "--jobs", "1"])
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_FIELDS)
    assert len(lines) == 9


def test_sweep_show_config(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SMALL_CONFIG))
    assert main(["sweep", "--config", str(cfg), "--show-config"]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["seeds"] == [1, 2]


def test_sweep_bad_config_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_CONFIG, "generators": []}))
    out = tmp_path / "x.jsonl"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2


def test_sweep_fail_verdict_recorded(monkeypatch):
    # an unsatisfiable bound turns every hinge verdict false; cells still emit
    monkeypatch.setattr(cli, "hinge_bound", lambda n, k, lam, m: -1.0)
    cfg = {**SMALL_CONFIG, "checks": ["hinge"],
           "grid": [{"primes": [3], "dims": [2]}], "seeds": [1]}
    records, _ = run_sweep(cfg, jobs=1)
    assert len(records) == 2
    assert all(r["status"] == "fail" for r in records)
    assert all(r["holds"] is False for r in records)


def test_sweep_continues_past_error_cell(tmp_path, capsys):
    # random:100 is infeasible in F_3^2: that cell errors, the rest succeed
    cfg = {"grid": [{"primes": [3], "dims": [2]}],
           "generators": ["all", "random:100"], "seeds": [1], "checks": ["main"]}
    cfgf = tmp_path / "cfg.json"
    cfgf.write_text(json.dumps(cfg))
    out = tmp_path / "r.jsonl"
    code = main(["sweep", "--config", str(cfgf), "--out", str(out), "--jobs", "1"])
    assert code == 1
    recs = [json.loads(l) for l in out.read_text().splitlines()]
    by_gen = {r["generator"]: r for r in recs}
    assert by_gen["all"]["status"] == "ok"
    assert by_gen["random:100"]["status"] == "error"
    assert "100" in by_gen["random:100"]["error"]
    assert "replay:" in capsys.readouterr().err


def test_sweep_replay_carries_flags(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(cli, "hinge_bound", lambda n, k, lam, m: -1.0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**SMALL_CONFIG, "checks": ["hinge"], "allow_1mod4": True,
                               "grid": [{"primes": [13], "dims": [2]}], "seeds": [1]}))
    out = tmp_path / "r.jsonl"
    code = main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", "1",
                 "--force"])
    assert code == 1
    replay = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("replay: fqlab fcount")]
    assert replay
    assert all("--allow-1mod4" in line and "--force" in line for line in replay)


def test_sweep_one_table_alive_and_one_report_per_set(monkeypatch):
    rechecks, alive, peak, made = Counter(), [], [], Counter()
    recompute, gather = fqlab.euclid._recomputed_table, fqlab.euclid.class_transform
    gathers = Counter()

    def tracked(F, dim):
        table = recompute(F, dim)
        rechecks[F.p, dim] += 1
        alive.append(weakref.ref(table))
        peak.append(sum(ref() is not None for ref in alive))
        return table

    def counted_gather(p, dim, values, trivial):
        gathers[caller(), p, dim] += 1
        return gather(p, dim, values, trivial)

    def counted(module, name):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: made.update([name]) or fn(*a, **k))

    profiled, batches, reported = [], [], []
    profiles, report = cli.degree_profiles, cli.check_main_theorem

    def counted_profiles(F, dim, sets, force=False):
        batches.append((F.p, dim))
        profiled.extend((F.p, dim, E.ranks.tobytes()) for E in sets)
        return profiles(F, dim, sets, force=force)

    def counted_report(F, dim, prof, spectra):
        reported.append(prof)
        return report(F, dim, prof, spectra)

    monkeypatch.setattr(fqlab.euclid, "_recomputed_table", tracked)
    monkeypatch.setattr(fqlab.euclid, "class_transform", counted_gather)
    for name in ("set_transforms", "certified_columns"):
        counted(fqlab.euclid, name)
    monkeypatch.setattr(cli, "degree_profiles", counted_profiles)
    monkeypatch.setattr(cli, "check_main_theorem", counted_report)
    records, _ = run_sweep(SMALL_CONFIG, jobs=1)
    assert len(records) == 8 and all(r["holds"] for r in records)
    assert rechecks == {(3, 2): 1, (7, 2): 1}  # one recomputed table per (p, dim)
    assert max(peak) == 1
    # the subset checks read each set's profile and the recheck its
    # (norm, dot) counts: no set transform, no degree column, no gather
    assert made == {}
    assert gathers == {}
    # per p: "all" once for both seeds, and two distinct random sets, each
    # profiled once, in one batch per p, and its report made from that profile
    assert batches == [(3, 2), (7, 2)]
    assert len(profiled) == len(set(profiled)) == 6
    assert len(reported) == len({id(prof) for prof in reported}) == 6


def test_sweep_keeps_a_union_refusal_in_its_own_cells(monkeypatch):
    # a union is priced by its drawn size, in the group's one
    # degree_profiles call: under a guardrail of 200 pair-equivalents each
    # union of two draws of 10 points of F_7^2 (more than 14 points) is
    # refused in its own cells, and the sets profiled beside it hold
    monkeypatch.setattr(fqlab.bounds, "PROFILE_MAX_PAIRS", 200)
    config = {"grid": [{"primes": [7], "dims": [2]}],
              "generators": ["random:5", "random:10+random:10", "all"], "seeds": [1, 2, 3],
              "checks": ["main", "remark", "hinge"]}
    records, _ = run_sweep(config, jobs=1)
    assert len(records) == 9
    for r in records:
        if "+" in r["generator"]:
            with pytest.raises(fqlab.TooLarge) as refusal:
                fqlab.bounds.guard_profile(r["set_size"], 7, 2)
            assert (r["status"], r["error"], r["holds"]) == ("error", str(refusal.value), False)
            assert r["f_value"] is None and r["hinge_ok"] is None
        else:
            assert (r["status"], r["error"], r["holds"]) == ("ok", "", True)


@pytest.mark.parametrize("ratio", [0, fqlab.bounds.PROFILE_FFT_RATIO])
def test_sweep_profiles_each_set_once_per_group(monkeypatch, ratio):
    # the distinct sets of a (p, dim) are profiled in one degree_profiles
    # call, and each set's subset counts are read off its profile once; the
    # two random sets of a p, of one size, share one pairwise pass, and all
    # of F_p^2 needs none; a set transform or a degree column is made only
    # by a profile that convolves (all of them at a ratio of 0): one
    # one-row stack per set, one column per radius
    calls, made, stacks = Counter(), Counter(), []

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            made[name, caller()] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("degree_profiles", "subset_counts"):
        counted(cli, name)
    for name in ("set_transforms", "certified_columns"):
        counted(fqlab.euclid, name)
    counted(fqlab.bounds, "_convolved_profile")
    kernel = fqlab.bounds._pairwise_profile
    monkeypatch.setattr(fqlab.bounds, "_pairwise_profile",
                        lambda p, dim, stack, sums: stacks.append((p, stack.shape))
                        or kernel(p, dim, stack, sums))
    monkeypatch.setattr(fqlab.bounds, "PROFILE_FFT_RATIO", ratio)
    records, _ = run_sweep(SMALL_CONFIG, jobs=1)
    assert all(r["holds"] for r in records)
    # three distinct sets per p
    convolved = 6 if ratio == 0 else 0
    assert calls == {
        "degree_profiles": 2, "subset_counts": 6, **({
            "_convolved_profile": convolved, "set_transforms": convolved,
            "certified_columns": 3 * (3 - 1) + 3 * (7 - 1),
        } if convolved else {}),
    }
    assert stacks == ([] if convolved else [(3, (2, 5)), (7, (2, 19))])
    assert all(made[name, "degree_columns"] == calls[name]
               for name in ("set_transforms", "certified_columns"))


def test_sweep_hinge_and_degree_sum_counts_read_the_degree_profile(monkeypatch):
    # with B = E the hinge and degree-sum counts of radius a are the set's
    # degree profile's hinges[a] and pairs[a], and all four counts are
    # those of the set's degree columns
    seen = []
    counts = cli.subset_counts

    def recorded(F, dim, prof):
        got = counts(F, dim, prof)
        seen.append((F, dim, prof, got))
        return got

    monkeypatch.setattr(cli, "subset_counts", recorded)
    made = []  # (profile, its point set)
    profiles = cli.degree_profiles

    def profiled(F, dim, sets, force=False):
        got = profiles(F, dim, sets, force=force)
        made.extend(zip(got, sets))
        return got

    monkeypatch.setattr(cli, "degree_profiles", profiled)
    grid = [{"primes": [3, 7], "dims": [2]}, {"primes": [3], "dims": [3]}]
    run_sweep({**SMALL_CONFIG, "grid": grid}, jobs=1)
    assert {(F.p, dim) for F, dim, *_ in seen} == {(3, 2), (7, 2), (3, 3)}
    for F, dim, prof, got in seen:
        assert got["hinge"] == prof.hinges[1:].tolist()
        assert got["eq2"] == prof.pairs[1:].tolist()
        (E,) = [E for made_prof, E in made if made_prof is prof]
        members = [oracles.vertex_array(F.p**dim, E.ranks)]
        want = graph_row_counts(F, dim, members)
        for column, values in got.items():
            assert values == [want[0, column, a] for a in range(1, F.p)]


def test_sweep_rechecks_spectra_when_no_set_is_stacked(monkeypatch):
    # no subset check asked for: the spectrum check still rechecks the
    # whole table once per (p, dim); no set generated: no record reads the
    # recheck, so none is made; no stack is made either way
    made, stacked = Counter(), []
    recheck = cli.recheck_table

    def counted(F, dim):
        made[F.p] += 1
        return recheck(F, dim)

    monkeypatch.setattr(cli, "recheck_table", counted)
    monkeypatch.setattr(fqlab.euclid, "set_transforms", lambda *args: stacked.append(args))
    for checks, gen in ((["spectrum"], "all"), (["spectrum", "hinge"], "random:100")):
        made.clear()
        config = {**SMALL_CONFIG, "generators": [gen], "checks": checks}
        records, _ = run_sweep(config, jobs=1)
        if gen == "all":
            assert made == {3: 1, 7: 1}
            assert all(r["spectrum_ok"] and r["holds"] for r in records)
        else:
            assert made == {}
            assert all(r["status"] == "error" for r in records)
    assert stacked == []


def test_graph_checks_make_transforms_only_through_their_two_passes(monkeypatch, tmp_path):
    # spectrum, verify, sweep and fcount reach the set transforms, the
    # gathered transforms and the degree columns only through verify's
    # _subset_records pass (its degree_columns), and the table recheck only
    # through one _spectrum_rows pass: stubbed out, none is made;
    # unstubbed, the subset pass runs once per verify (check, radius) and never for
    # sweep or fcount, which read their subset counts off each set's
    # profile, and the spectrum pass once per spectrum command, verify,
    # sweep (p, dim) and fcount
    calls, passes, rechecks = Counter(), [], []

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name, caller()] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(cli, "recheck_table")
    for name in ("class_transform", "set_transforms", "certified_columns"):
        counted(fqlab.euclid, name)
    subset_records, spectrum_rows = cli._subset_records, cli._spectrum_rows

    def traced(F, dim, spectra, check, a, args):
        passes.append((F.p, dim, check, a))
        return subset_records(F, dim, spectra, check, a, args)

    def traced_spectrum(F, dim, spectra, radii):
        rechecks.append((F.p, dim, tuple(radii)))
        yield from spectrum_rows(F, dim, spectra, radii)

    out = tmp_path / "r.jsonl"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(SMALL_CONFIG))
    graph = "spectrum,variance,mixing,hinge"
    commands = (
        ["spectrum", "--q", "7", "--dim", "2", "--out", str(out)],
        ["verify", "--q", "7", "--dim", "2", "--trials", "2", "--checks", graph],
        ["sweep", "--config", str(cfg), "--out", str(out), "--jobs", "1"],
        ["fcount", "--q", "7", "--dim", "2", "--gen", "random:1t", "--checks", graph],
    )
    radii = tuple(range(1, 7))
    monkeypatch.setattr(cli, "_subset_records", lambda *args: ([], "stub"))
    monkeypatch.setattr(cli, "_spectrum_rows", lambda F, dim, spectra, radii: (
        (a, True, "") for a in radii
    ))
    for argv in commands:
        assert main(argv) == 0
    assert calls == {}
    monkeypatch.setattr(cli, "_subset_records", traced)
    monkeypatch.setattr(cli, "_spectrum_rows", traced_spectrum)
    for argv in commands:
        assert main(argv) == 0
    assert passes == [(7, 2, check, a) for check in ("variance", "mixing", "hinge") for a in radii]
    assert rechecks == (
        [(7, 2, radii)] + [(7, 2, radii)] + [(3, 2, (1, 2)), (7, 2, radii)] + [(7, 2, radii)]
    )
    # one table recheck per spectrum pass, and no gather for it; one stack
    # per verify (check, radius), one gather and one inverse per stack
    assert calls == {
        ("recheck_table", "_spectrum_rows"): 1 + 1 + 2 + 1,
        ("class_transform", "degree_columns"): 3 * 6,
        ("set_transforms", "degree_columns"): 3 * 6,
        ("certified_columns", "degree_columns"): 3 * 6,
    }


def test_sweep_computes_each_bound_once_per_size(monkeypatch):
    # a bound depends only on (column, n, k, lambda, set sizes): the two
    # random sets of one p share a size, and in F_p^2, p = 3 mod 4, every
    # radius has one valency and one second eigenvalue, so each bound and
    # its integer limit are computed once per (p, lambda, size), not once
    # per radius, set or verdict; each distinct set's counts are read off
    # its profile once
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    names = ("variance_bound", "mixing_bound", "hinge_bound", "degree_sum_bound")
    for name in names + ("bound_limit", "subset_counts"):
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    records, _ = run_sweep(SMALL_CONFIG, jobs=1)
    assert all(r["holds"] for r in records)
    sizes = {(r["p"], r["set_size"]) for r in records}
    assert len(sizes) == 4  # per p: F_p^2 and one size for both random sets
    assert calls == {
        # two sizes per p, each under two lambdas
        **{name: 2 * 2 * 2 for name in names},
        "bound_limit": 2 * 2 * 2 * len(names),
        # three distinct sets per p
        "subset_counts": 3 * 2,
    }


def test_forced_bound_failures_reach_the_sweep_records(monkeypatch):
    # every bound name stays patchable: an unsatisfiable bound fails its
    # own verdict column, through the exact threshold of -1.0
    for name, column in (
        ("variance_bound", "variance_ok"), ("mixing_bound", "mixing_ok"),
        ("hinge_bound", "hinge_ok"), ("degree_sum_bound", "eq2_ok"),
    ):
        with monkeypatch.context() as m:
            m.setattr(cli, name, lambda *args: -1.0)
            records, _ = run_sweep(SMALL_CONFIG, jobs=1)
        failed = {
            key for key in ("variance_ok", "mixing_ok", "hinge_ok", "eq2_ok")
            if not all(r[key] for r in records)
        }
        assert failed == {column}
        assert all(r["status"] == "fail" for r in records)


def test_sweep_replay_names_the_failed_columns(monkeypatch, tmp_path, capsys):
    # a cell that fails only graph checks replays as an fcount of those
    # checks on the cell's set, which fails the same way under the same
    # stubs and passes without them; the replay line also names the record
    # columns that failed, in record order
    cfg, out = tmp_path / "cfg.json", tmp_path / "r.jsonl"
    for stubs, checks, failed, replayed in (
        ({"variance_bound": -1.0}, ["variance", "main"], "variance_ok", "variance"),
        ({"variance_bound": -1.0, "degree_sum_bound": -1.0}, ["hinge", "variance"],
         "variance_ok,eq2_ok", "variance,hinge"),
        ({"within_bound": False}, ["spectrum", "mixing"], "spectrum_ok", "spectrum"),
    ):
        cfg.write_text(json.dumps({"grid": [{"primes": [7], "dims": [2]}],
                                   "generators": ["random:10"], "seeds": [1],
                                   "checks": checks}))
        with monkeypatch.context() as m:
            for name, value in stubs.items():
                m.setattr(cli, name, lambda *args, value=value: value)
            assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
            (replay,) = capsys.readouterr().err.splitlines()
            command, comment = replay.removeprefix("replay: fqlab ").split("  # ")
            assert comment == f"failed: {failed}"
            assert f" --checks {replayed}" in command
            assert main(shlex.split(command)) == 1
            assert "verdict: FAIL" in capsys.readouterr().out
        assert main(shlex.split(command)) == 0


def test_fcount_graph_checks_fill_the_sweep_cell_record(tmp_path, capsys):
    # fcount --checks judges its own set as the sweep judges the cell's:
    # the same verdict columns and holds, and one stdout line naming them;
    # the default checks leave stdout and the record as they were
    checks = list(CHECK_NAMES)
    cfg, out = tmp_path / "cfg.json", tmp_path / "r.jsonl"
    cfg.write_text(json.dumps({"grid": [{"primes": [7], "dims": [2]}],
                               "generators": ["random:1t", "sphere:2+box:2"],
                               "seeds": [4], "checks": checks}))
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    for cell in (json.loads(line) for line in out.read_text().splitlines()):
        fout = tmp_path / "f.jsonl"
        argv = ["fcount", "--q", "7", "--dim", "2", "--gen", cell["generator"],
                "--seed", str(cell["cell_seed"])]
        capsys.readouterr()
        assert main(argv + ["--checks", ",".join(checks), "--out", str(fout)]) == 0
        text = capsys.readouterr().out
        assert "graph checks: spectrum_ok=ok variance_ok=ok mixing_ok=ok hinge_ok=ok eq2_ok=ok\n" in text
        (rec,) = [json.loads(line) for line in fout.read_text().splitlines()]
        same = SWEEP_FIELDS[SWEEP_FIELDS.index("set_size"):SWEEP_FIELDS.index("holds") + 1]
        assert {k: rec[k] for k in same} == {k: cell[k] for k in same}
        assert main(argv + ["--out", str(fout)]) == 0
        assert "graph checks" not in capsys.readouterr().out
        (rec,) = [json.loads(line) for line in fout.read_text().splitlines()]
        assert rec["spectrum_ok"] is rec["variance_ok"] is rec["eq2_ok"] is None
    assert main(["fcount", "--q", "7", "--dim", "2", "--gen", "all", "--checks", "orbit"]) == 2


@pytest.mark.parametrize("p,dim", [(7, 2), (3, 3)])
def test_verify_fcount_and_sweep_judge_the_full_space_alike(tmp_path, p, dim):
    # verify's point-set ladder, fcount --gen all and a sweep's all cell
    # judge all of F_p^dim alike: verify's main record holds f against
    # upper_exact, its remark record delta_implied against the distance
    # count, each with the verdicts of the other two's records
    space = ["--q", str(p), "--dim", str(dim)]
    vout, fout = tmp_path / "v.jsonl", tmp_path / "f.jsonl"
    assert main(["verify", *space, "--checks", "main,remark", "--out", str(vout)]) == 0
    assert main(["fcount", *space, "--gen", "all", "--out", str(fout)]) == 0
    cell, _ = run_sweep({"grid": [{"primes": [p], "dims": [dim]}], "generators": ["all"],
                         "seeds": [1], "checks": ["main", "remark"]})
    full = [json.loads(line) for line in vout.read_text().splitlines()]
    full = [r for r in full if r["set_size"] == p**dim]
    assert {r["check"] for r in full} == {"main", "remark"}

    def as_record(x):  # a real as a record holds it
        return json.loads(format_real(float(x)))

    for rec in (json.loads(fout.read_text()), json.loads(emit(cell, "jsonl", SWEEP_FIELDS))):
        want = {
            "main": (as_record(rec["f_value"]), rec["upper_exact"],
                     rec["lower_ok"] and rec["upper_ok"] and rec["asym_ok"]),
            "remark": (as_record(Fraction(rec["delta_implied"])), rec["distance_count"],
                       rec["delta_ok"]),
        }
        assert rec["holds"] is (want["main"][2] and want["remark"][2])
        for r in full:
            assert (r["lhs"], r["rhs"], r["holds"]) == want[r["check"]], (r["check"], r["trial"])


SWEEP_ALLCHECKS = Path(__file__).resolve().parents[1] / "perfbench" / "sweep_allchecks.json"


@pytest.mark.parametrize("held", [1, 2])
def test_stack_boundaries_keep_the_records(monkeypatch, tmp_path, held):
    # STACK_ELEMENTS = 2 * 361 stacks two sets of the largest graphs
    # (F_19^2 and F_7^3), whose stacks are counted; 1 stacks one set of any
    # graph.  Only verify stacks sets; the sweep, which reads its subset
    # counts off each set's profile, keeps its records whatever the budget
    config = json.loads(SWEEP_ALLCHECKS.read_text())
    verify = ["verify", "--q", "7", "--dim", "3", "--trials", "3"]
    baseline = emit(run_sweep(config, jobs=1)[0], "jsonl", SWEEP_FIELDS)
    assert main(verify + ["--out", str(tmp_path / "v0.jsonl")]) == 0
    stack_sizes = Counter()
    stacked = fqlab.euclid.set_transforms

    def counted_stack(p, dim, members):
        if p**dim > 300:
            stack_sizes[len(members)] += 1
        return stacked(p, dim, members)

    monkeypatch.setattr(fqlab.euclid, "set_transforms", counted_stack)
    monkeypatch.setattr(fqlab.euclid, "STACK_ELEMENTS", 1 if held == 1 else 2 * 361)
    assert emit(run_sweep(config, jobs=1)[0], "jsonl", SWEEP_FIELDS) == baseline
    assert main(verify + ["--out", str(tmp_path / "v1.jsonl")]) == 0
    assert (tmp_path / "v1.jsonl").read_bytes() == (tmp_path / "v0.jsonl").read_bytes()
    assert max(stack_sizes) == held and stack_sizes[held] > 1


def counted_ffts(monkeypatch):
    """Count every call of a numpy.fft transform from now on, by name; the
    package reaches them all as attributes of np.fft."""
    made = Counter()
    for name in ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
                 "fftn", "ifftn", "rfftn", "irfftn"):
        fn = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *args, fn=fn, name=name, **kwargs: (
            made.update([name]) or fn(*args, **kwargs)
        ))
    return made


def test_dense_fcount_makes_no_sphere_transform(monkeypatch, capsys):
    # half of F_11^3 convolves: the set is transformed once, each radius'
    # sphere transform is gathered from the norm-class table, and each
    # column is one inverse, so no FFT of a sphere is taken; all of F_23^2
    # takes the complement route, with no FFT at all
    made, gathered = counted_ffts(monkeypatch), Counter()
    gather = fqlab.euclid.class_transform

    def counted_gather(p, dim, values, trivial):
        gathered[p, dim] += 1
        return gather(p, dim, values, trivial)

    monkeypatch.setattr(fqlab.euclid, "class_transform", counted_gather)
    assert main(["fcount", "--q", "11", "--dim", "3", "--gen", "random:665"]) == 0
    assert made == {"rfftn": 1, "irfftn": 10} and gathered == {(11, 3): 10}
    assert main(["fcount", "--q", "23", "--dim", "2", "--gen", "all"]) == 0
    assert f"f={529 * 22 * 24 * 24} " in capsys.readouterr().out
    assert made == {"rfftn": 1, "irfftn": 10} and gathered == {(11, 3): 10}


def test_sweep_and_spectrum_make_no_fft(monkeypatch, capsys):
    # the all-checks sweep reads its subset counts off each set's profile
    # and rechecks every radius of each (p, dim) from the (norm, dot)
    # counts, and the spectrum command does the same past the vertex
    # guardrail: no FFT is taken and no sphere transform gathered
    made, gathered = counted_ffts(monkeypatch), []
    monkeypatch.setattr(fqlab.euclid, "class_transform", lambda *args: gathered.append(args))
    records, _ = run_sweep(json.loads(SWEEP_ALLCHECKS.read_text()), jobs=1)
    assert len(records) == 180 and all(r["holds"] and r["spectrum_ok"] for r in records)
    assert main(["spectrum", "--q", "103", "--dim", "3"]) == 0
    assert capsys.readouterr().out.count("  ok\n") == 102
    assert made == {} and gathered == []


def test_only_spectrum_groups_eigenvalues_into_classes(monkeypatch, tmp_path):
    # the multiplicity classes are built when read: fcount, verify and
    # sweep never read them, spectrum once per radius for its text and its
    # record
    grouped = Counter()
    group = fqlab.euclid._group_classes

    def counted(values, counts, tol):
        grouped[len(values)] += 1
        return group(values, counts, tol)

    monkeypatch.setattr(fqlab.euclid, "_group_classes", counted)
    cfg, out = tmp_path / "cfg.json", tmp_path / "r.jsonl"
    cfg.write_text(json.dumps(SMALL_CONFIG))
    for argv in (
        ["fcount", "--q", "19", "--dim", "2", "--gen", "all"],
        ["fcount", "--q", "19", "--dim", "2", "--gen", "random:20"],
        ["verify", "--q", "7", "--dim", "2", "--trials", "2"],
        ["sweep", "--config", str(cfg), "--out", str(out), "--jobs", "1"],
    ):
        assert main(argv) == 0
    assert grouped == {}
    assert main(["spectrum", "--q", "7", "--dim", "2", "--out", str(out)]) == 0
    assert sum(grouped.values()) == 6


def test_fcount_profile_guardrail_message(monkeypatch, capsys):
    # the refusal gives the cost of the cheapest route: the complement's
    # for all of F_10007^2, the convolution's for half of F_83^3 (the
    # pairwise text is pinned below), each before the set is drawn
    def refused(*args):
        raise AssertionError("drawn")

    monkeypatch.setattr(random.Random, "sample", refused)
    monkeypatch.setattr(fqlab.geometry, "_atom_ranks", refused)
    for space, cost in (
        (["--q", "10007", "--dim", "2", "--gen", "all"],
         "|C|**2 + p**2 for the complement C of E = 100140049"),
        (["--q", "83", "--dim", "3", "--gen", "random:285000"],
         "20 p**4 for the convolution = 949166420"),
    ):
        assert main(["fcount", *space]) == 2
        assert capsys.readouterr().err == (
            f"error: {cost} exceeds the profile guardrail 100000000; "
            "pass --force to override\n"
        )


def test_fcount_prices_a_union_or_a_file_by_its_own_size(monkeypatch, tmp_path, capsys):
    # box:10 + line:0,10;1,0 is all of F_11^2 but 10 points, and a file of
    # all of F_7^2 but 3 points: both take the complement route.  Under a
    # guardrail of 300 the union's largest atom, 100 points, would cost
    # 21**2 + 11**2 = 562 even by its complement, but a union is drawn
    # first and priced by its own size, 10**2 + 11**2 = 221
    monkeypatch.setattr(fqlab.bounds, "PROFILE_MAX_PAIRS", 300)
    taken = []
    route = fqlab.bounds._complement_profile

    def recorded(F, dim, ranks, sums):
        taken.append(ranks.size)
        route(F, dim, ranks, sums)

    monkeypatch.setattr(fqlab.bounds, "_complement_profile", recorded)
    union = "box:10+line:0,10;1,0"
    drawn = fqlab.generate_point_set(fqlab.make_field(11), 2, union).ranks
    listed = np.setdiff1d(np.arange(49), [0, 22, 20])
    out = tmp_path / "near-all.txt"
    out.write_text("".join(f"{r % 7},{r // 7}\n" for r in listed))
    for p, source, ranks in ((11, ["--gen", union], drawn), (7, ["--points", str(out)], listed)):
        assert main(["fcount", "--q", str(p), "--dim", "2", *source]) == 0
        f = oracles.pairwise_profile_arith(p, 2, ranks)[0, 1:].sum()
        assert f"\nf={f} " in capsys.readouterr().out
    assert taken == [111, 46]


def test_fcount_refuses_the_profile_before_building_spectra(monkeypatch, capsys):
    # 13,778 points of F_83^3: |E|**2 is over the profile guardrail, so the
    # command exits 2 with the profile message and no norm-class table
    builds = Counter()
    build = fqlab.euclid._norm_class_table.__wrapped__

    def counted_build(F, dim):
        builds[F.p, dim] += 1
        return build(F, dim)

    monkeypatch.setattr(fqlab.euclid, "_norm_class_table", counted_build)
    assert main(["fcount", "--q", "83", "--dim", "3", "--gen", "random:2t"]) == 2
    assert capsys.readouterr().err == (
        "error: |E|**2 = 189833284 exceeds the profile guardrail 100000000; "
        "pass --force to override\n"
    )
    assert not builds
    assert main(["fcount", "--q", "7", "--dim", "2", "--gen", "random:2t"]) == 0
    assert builds == Counter({(7, 2): 1})


@pytest.mark.parametrize("dim,gen,size", [(14, "random:1t", 2178890), (13, "box:3", 3**13)])
def test_fcount_refuses_the_profile_before_drawing_the_set(monkeypatch, capsys, dim, gen, size):
    # 2.2 million random points of F_7^14, or a box of 1.6 million: the
    # atom's size alone is past the profile guardrail, so nothing is drawn
    def refused(*args):
        raise AssertionError("drawn")

    monkeypatch.setattr(random.Random, "sample", refused)
    monkeypatch.setattr(fqlab.geometry, "_atom_ranks", refused)
    assert main(["fcount", "--q", "7", "--dim", str(dim), "--gen", gen]) == 2
    assert capsys.readouterr().err == (
        f"error: |E|**2 = {size * size} exceeds the profile guardrail 100000000; "
        "pass --force to override\n"
    )


def test_sweep_refuses_the_profile_before_drawing_the_set(monkeypatch):
    # 2.2 million random points of F_7^14, or a box of 4.8 million: the
    # atom's size alone is past the profile guardrail, so each cell gets
    # the refusal and the size, and nothing is drawn
    def refused(*args):
        raise AssertionError("drawn")

    monkeypatch.setattr(random.Random, "sample", refused)
    monkeypatch.setattr(fqlab.geometry, "_atom_ranks", refused)
    config = {"grid": [{"primes": [7], "dims": [14]}], "generators": ["random:1t", "box:3"],
              "seeds": [1, 2], "checks": ["main"]}
    records, _ = run_sweep(config, jobs=1)
    assert [(r["generator"], r["status"], r["set_size"], r["error"], r["holds"])
            for r in records] == [
        (gen, "error", size,
         f"|E|**2 = {size * size} exceeds the profile guardrail 100000000; "
         "pass --force to override", False)
        for gen, size in [("box:3", 3**14)] * 2 + [("random:1t", 2178890)] * 2
    ]


def test_subset_only_sweep_refuses_the_profile_before_drawing_the_set(monkeypatch, tmp_path, capsys):
    # a subset check reads the set's profile, so with a guardrail of 100
    # pairs the 19 random points of F_7^2 are refused from the atom's size
    # before any draw, with the guard's own text; the 5-point cells run,
    # and under --force every cell runs
    monkeypatch.setattr(fqlab.bounds, "PROFILE_MAX_PAIRS", 100)
    draws = []
    draw = cli.generate_point_set
    monkeypatch.setattr(cli, "generate_point_set", lambda *a, **k: draws.append(a) or draw(*a, **k))
    cfg, out = tmp_path / "cfg.json", tmp_path / "r.jsonl"
    cfg.write_text(json.dumps({"grid": [{"primes": [7], "dims": [2]}],
                               "generators": ["random:1t", "random:5"], "seeds": [1, 2],
                               "checks": ["hinge"]}))
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    with pytest.raises(fqlab.TooLarge) as refusal:
        fqlab.bounds.guard_profile(19, 7, 2)
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(r["generator"], r["status"], r["set_size"], r["error"]) for r in records] == [
        ("random:1t", "error", 19, str(refusal.value))] * 2 + [("random:5", "ok", 5, "")] * 2
    assert len(draws) == 2
    capsys.readouterr()
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--force"]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert all(r["status"] == "ok" and r["hinge_ok"] and r["eq2_ok"] for r in records)
    assert len(draws) == 2 + 4


@pytest.mark.parametrize("gen", ["all", "random:1t", "box:1t", "sphere:1", "line:0,0;1,2",
                                 "sphere:1+random:3"])
def test_sweep_profile_refusal_records_the_drawn_sets_size(monkeypatch, gen):
    # with a guardrail of 10 pairs every set here is refused: one atom
    # before it is drawn, a union after, and the record holds the size and
    # the refusal of the drawn set's profile either way
    monkeypatch.setattr(fqlab.bounds, "PROFILE_MAX_PAIRS", 10)
    draws = []
    draw = cli.generate_point_set
    monkeypatch.setattr(cli, "generate_point_set", lambda *a, **k: draws.append(a) or draw(*a, **k))
    config = {"grid": [{"primes": [7], "dims": [2]}], "generators": [gen], "seeds": [1],
              "checks": ["main"]}
    (rec,), _ = run_sweep(config, jobs=1)
    assert len(draws) == ("+" in gen)
    F = fqlab.make_field(7)
    E = draw(F, 2, gen, seed=rec["cell_seed"])
    with pytest.raises(fqlab.TooLarge) as refusal:
        oracles.degree_profile(F, 2, E)
    assert (rec["status"], rec["set_size"], rec["error"]) == ("error", len(E), str(refusal.value))


def test_fcount_refuses_a_huge_table_without_o_p_work(monkeypatch, capsys):
    # p = 10,000,019: the table guardrail refuses the spectra before the
    # p-entry square-count table, the radii or any graph is made
    def refused(*args):
        raise AssertionError("O(p) work")

    monkeypatch.setattr(fqlab.field.PrimeField, "square_counts", property(refused))
    monkeypatch.setattr(fqlab.euclid, "euclid_graph", refused)
    tracemalloc.start()
    try:
        code = main(["fcount", "--q", "10000019", "--dim", "2", "--gen", "random:5"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and "exceeds the spectrum table guardrail" in capsys.readouterr().err
    assert peak < 2**20  # a list of the radii alone would take 80 MB


def test_fcount_sparse_set_past_the_vertex_guardrail(monkeypatch, capsys):
    # F_103^3 has 1,092,727 vertices, over SPECTRUM_MAX, but its spectra
    # and their recheck come from 103 x 103 tables and the 60-point
    # profile is pairwise; the subset checks read their counts off that
    # profile, so every check runs, and none makes a degree column
    assert main(["fcount", "--q", "103", "--dim", "3", "--gen", "random:60", "--seed", "1"]) == 0
    assert "verdict: ok" in capsys.readouterr().out
    assert main(["spectrum", "--q", "103", "--dim", "3", "--a", "1"]) == 0
    assert "  ok\n" in capsys.readouterr().out
    for module in (cli, fqlab.bounds):
        monkeypatch.setattr(module, "degree_columns", None)
    assert main(["fcount", "--q", "103", "--dim", "3", "--gen", "random:60", "--seed", "1",
                 "--checks", ",".join(CHECK_NAMES)]) == 0
    assert ("graph checks: spectrum_ok=ok variance_ok=ok mixing_ok=ok hinge_ok=ok eq2_ok=ok\n"
            in capsys.readouterr().out)


def test_sweep_past_the_vertex_guardrail_without_graph_checks(tmp_path, capsys):
    # main and remark never work over all of F_103^3, so the sweep runs and
    # each cell's f is the one fcount prints for its cell seed; nor do the
    # graph checks, which read each set's profile and the p x p tables, so
    # they hold on the same cells
    config = {"grid": [{"primes": [103], "dims": [3]}], "generators": ["random:50"],
              "seeds": [1, 2], "checks": ["main", "remark"]}
    cfg, out = tmp_path / "cfg.json", tmp_path / "r.jsonl"
    cfg.write_text(json.dumps(config))
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 2
    capsys.readouterr()
    for rec in records:
        assert main(["fcount", "--q", "103", "--dim", "3", "--gen", "random:50",
                     "--seed", str(rec["cell_seed"])]) == 0
        assert f"f={rec['f_value']} " in capsys.readouterr().out
    cfg.write_text(json.dumps({**config, "checks": list(CHECK_NAMES)}))
    assert main(["sweep", "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 0
    assert capsys.readouterr().err == ""
    checked = [json.loads(line) for line in out.read_text().splitlines()]
    assert [rec["set_size"] for rec in checked] == [50, 50]
    assert all(rec["holds"] and rec["spectrum_ok"] and rec["hinge_ok"] for rec in checked)


def test_closed_stdout_exits_quietly():
    src = str(Path(fqlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "fqlab", "sphere", "--q", "103", "--dim", "3", "--list"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline().startswith(b"a=0 ")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""


def test_sweep_asks_for_no_more_workers_than_groups(monkeypatch, tmp_path):
    # a process pool forks every worker it is given at its first submit,
    # so jobs past the default grid's six (p, dim) groups ask for six; the
    # stub pool records what it is asked for and maps in this process
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    want, _ = run_sweep(cli.DEFAULT_SWEEP_CONFIG, jobs=1)
    assert asked == []
    for jobs, workers in [(100000, 6), (6, 6), (2, 2)]:
        got, _ = run_sweep(cli.DEFAULT_SWEEP_CONFIG, jobs=jobs)
        assert asked.pop() == workers and got == want
    out = tmp_path / "r.jsonl"
    assert main(["sweep", "--default", "--jobs", "100000", "--out", str(out)]) == 0
    assert asked == [6]


def test_sweep_runs_serially_by_default():
    args = build_parser().parse_args(["sweep", "--default", "--out", "x"])
    assert args.jobs == 1


def test_sweep_generates_each_seed_free_set_once(monkeypatch):
    calls = Counter()
    inner = cli.generate_point_set

    def counted(F, dim, spec, seed=0, force=False):
        calls[F.p, spec.text] += 1
        return inner(F, dim, spec, seed=seed, force=force)

    monkeypatch.setattr(cli, "generate_point_set", counted)
    config = {
        "grid": [{"primes": [3, 7], "dims": [2]}],
        "generators": ["all", "sphere:1", "box:5", "line:0,0;1,1", "random:1t", "all+random:2"],
        "seeds": [1, 2, 3],
        "checks": ["main", "variance"],
    }
    records, _ = run_sweep(config, jobs=1)
    seeded = {"random:1t", "all+random:2"}
    assert calls == Counter({
        (p, gen): 3 if gen in seeded else 1 for p in (3, 7) for gen in config["generators"]
    })
    # box:5 does not fit F_3: every seed gets the same error record
    errors = [r for r in records if r["status"] == "error"]
    assert [(r["p"], r["generator"]) for r in errors] == [(3, "box:5")] * 3
    assert len({r["error"] for r in errors}) == 1


_RANKS_OF_F3 = st.lists(st.integers(0, 8), unique=True, max_size=9)


@settings(max_examples=200, deadline=None)
@given(pool=st.lists(_RANKS_OF_F3, min_size=1, max_size=5),
       picks=st.lists(st.tuples(st.integers(0, 4), st.booleans()), max_size=12))
@example(pool=[[0, 3], [1, 2], [3, 0]],
         picks=[(0, False), (1, False), (2, False), (0, True), (0, False), (1, True)])
def test_distinct_sets_match_the_sha256_grouping(pool, picks):
    # sets of F_3^2 drawn from a pool, each pick the pool's object itself or
    # a new set of the same ranks: exact repeats, the same object repeated,
    # and unequal sets of one size and rank sum, such as [0, 3], [1, 2] and
    # [3, 0], group as their digests do, each group kept as its first set
    PointSet = functools.partial(fqlab.geometry.PointSet, p=3, dim=2)
    made = [PointSet(ranks) for ranks in pool]
    sets = [made[i % len(pool)] if same else PointSet(pool[i % len(pool)]) for i, same in picks]
    distinct, index = cli._distinct_sets(sets)
    want_distinct, want_index = oracles.distinct_sets_sha256(sets)
    assert index == want_index
    assert len(distinct) == len(want_distinct)
    assert all(E is F for E, F in zip(distinct, want_distinct))


def test_broken_pipe_exits_1_in_process(monkeypatch, tmp_path):
    # stdout fails on write as a pipe whose reader left does: main exits 1
    # and points stdout's descriptor at devnull, so the final flush at exit
    # writes nowhere
    class ClosedPipe(io.TextIOBase):
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def fileno(self):
            return self.fd

    target = tmp_path / "stdout"
    with open(target, "wb") as handle:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(handle.fileno()))
        assert main(["sphere", "--q", "7", "--dim", "2"]) == 1
        os.write(handle.fileno(), b"lost")
    assert target.read_bytes() == b""


def test_broken_pipe_on_out_exits_1(monkeypatch, tmp_path):
    # --out naming a pipe whose reader left, such as /dev/stdout: exit 1 as
    # for stdout itself, not the exit 2 of a path that cannot be written
    def closed(path, data):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(Path, "write_bytes", closed)
    with open(tmp_path / "stdout", "w") as handle:
        monkeypatch.setattr(sys, "stdout", handle)
        assert main(["spectrum", "--q", "3", "--dim", "2", "--out", "/dev/stdout"]) == 1


def test_out_into_a_missing_directory_is_refused_before_any_work(monkeypatch, tmp_path, capsys):
    # the write would fail only after a sweep had run every group, or after
    # fcount had printed its whole report: the directory is checked first
    monkeypatch.setattr(cli, "_run_sweep_group", lambda task: pytest.fail("work before refusal"))
    out = tmp_path / "nodir" / "r.jsonl"
    for argv in (["sweep", "--default"], ["fcount", "--q", "3", "--dim", "2", "--gen", "all"]):
        assert main([*argv, "--out", str(out)]) == 2
        err = f"error: cannot write {out}: No such file or directory\n"
        assert capsys.readouterr() == ("", err)


# --- input rejections ---------------------------------------------------------

_CONFIG = {"grid": [{"primes": [3], "dims": [2]}], "generators": ["all"], "seeds": [1]}


def _config_case(config, fragment):
    """A sweep over config, written to c.json, refused with fragment."""
    return (["sweep", "--config", "{tmp}/c.json", "--out", "{tmp}/r.jsonl"],
            {"c.json": json.dumps(config)}, fragment)


def _fcount_case(*args, fragment, files=None):
    return ["fcount", "--q", "7", *args], files or {}, fragment


REJECTIONS = {
    "config not an object": _config_case([1, 2], "must be a JSON object"),
    "config grid block": _config_case(
        {**_CONFIG, "grid": [{"primes": [3], "dims": [2], "sizes": [1]}]}, "grid blocks must be"),
    "config primes": _config_case(
        {**_CONFIG, "grid": [{"primes": [3.0], "dims": [2]}]}, "primes must be integers"),
    "config dims": _config_case(
        {**_CONFIG, "grid": [{"primes": [3], "dims": [1]}]}, "dims must be integers >= 2"),
    "config seeds": _config_case({**_CONFIG, "seeds": ["1"]}, "seeds must be integers"),
    "config checks not a list": _config_case(
        {**_CONFIG, "checks": "main"}, "non-empty 'checks' list"),
    "config unknown checks": _config_case({**_CONFIG, "checks": ["bogus"]}, "unknown checks"),
    "config not json": (["sweep", "--config", "{tmp}/c.json", "--out", "{tmp}/r.jsonl"],
                        {"c.json": "{not json"}, "cannot parse config"),
    "sweep without out": (["sweep", "--default"], {}, "sweep needs --out"),
    "verify no trials": (["verify", "--q", "7", "--dim", "2", "--trials", "0"], {},
                         "--trials must be at least 1"),
    "verify radius q": (["verify", "--q", "7", "--dim", "2", "--a", "7"], {},
                        "radius must be a nonzero residue mod 7"),
    "fcount dim 1": _fcount_case("--dim", "1", "--gen", "all",
                                 fragment="dimension must be >= 2"),
    "verify dim 1": (["verify", "--q", "7", "--dim", "1"], {}, "dimension must be >= 2"),
    "spectrum dim 1": (["spectrum", "--q", "7", "--dim", "1"], {}, "dimension must be >= 2"),
    "fcount dim 0": _fcount_case("--dim", "0", "--gen", "all", fragment="dimension must be >= 1"),
    "gen without dim": _fcount_case("--gen", "all", fragment="--gen requires --dim"),
    "no checks": _fcount_case("--dim", "2", "--gen", "all", "--checks", ",",
                              fragment="no checks requested"),
    "random size": _fcount_case("--dim", "2", "--gen", "random:abc",
                                fragment="cannot parse random size 'abc'"),
    "random multiplier": _fcount_case("--dim", "2", "--gen", "random:-1t",
                                      fragment="multiplier must be positive"),
    "sphere radius": _fcount_case("--dim", "2", "--gen", "sphere:9",
                                  fragment="sphere radius 9 is not a residue mod 7"),
    "line zero direction": _fcount_case("--dim", "2", "--gen", "line:0,0;0,0",
                                        fragment="line direction must be nonzero"),
    "line lengths": _fcount_case("--dim", "2", "--gen", "line:0,0;1",
                                 fragment="dimension mismatch"),
    "line range": _fcount_case("--dim", "2", "--gen", "line:0,9;1,1",
                               fragment="line coordinates must be residues mod 7"),
    "empty points": _fcount_case("--points", "{tmp}/p.txt", files={"p.txt": "# none\n"},
                                 fragment="empty point list and no dimension given"),
    "points dimension": _fcount_case("--dim", "2", "--points", "{tmp}/p.txt",
                                     files={"p.txt": "1,2,3\n"},
                                     fragment="points have dimension 3, expected 2"),
    "points unparsable": _fcount_case("--points", "{tmp}/p.txt", files={"p.txt": "1,x\n"},
                                      fragment="line 1: cannot parse '1,x'"),
    "points missing": _fcount_case("--dim", "2", "--points", "{tmp}/none.txt",
                                   fragment="cannot read {tmp}/none.txt: No such file"),
    "points directory": _fcount_case("--dim", "2", "--points", "{tmp}",
                                     fragment="cannot read {tmp}: Is a directory"),
    "points not utf-8": _fcount_case("--dim", "2", "--points", "{tmp}/p.txt",
                                     files={"p.txt": b"0,\xff\n"},
                                     fragment="cannot read {tmp}/p.txt: 'utf-8' codec"),
    "config missing": (["sweep", "--config", "{tmp}/none.json", "--out", "{tmp}/r.jsonl"], {},
                       "cannot read {tmp}/none.json: No such file"),
    "config directory": (["sweep", "--config", "{tmp}", "--out", "{tmp}/r.jsonl"], {},
                         "cannot read {tmp}: Is a directory"),
    "config not utf-8": (["sweep", "--config", "{tmp}/c.json", "--out", "{tmp}/r.jsonl"],
                         {"c.json": b"\xff{}"}, "cannot read {tmp}/c.json: 'utf-8' codec"),
    "out directory missing": _fcount_case("--dim", "2", "--gen", "all",
                                          "--out", "{tmp}/none/r.jsonl",
                                          fragment="cannot write {tmp}/none/r.jsonl: No such file"),
    "config allow_1mod4 string": _config_case(
        {**_CONFIG, "grid": [{"primes": [5], "dims": [2]}], "allow_1mod4": "false"},
        "allow_1mod4 must be true or false"),
    "config primes bool": _config_case(
        {**_CONFIG, "grid": [{"primes": [True], "dims": [2]}]}, "primes must be integers"),
    "config seeds bool": _config_case({**_CONFIG, "seeds": [True]}, "seeds must be integers"),
    "sweep no jobs": (["sweep", "--default", "--out", "{tmp}/r.jsonl", "--jobs", "0"], {},
                      "--jobs must be at least 1"),
}


@pytest.mark.parametrize("argv,files,fragment", REJECTIONS.values(), ids=REJECTIONS)
def test_input_rejections_exit_2_with_one_error_line(tmp_path, capsys, argv, files, fragment):
    for name, text in files.items():
        (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert fragment.format(tmp=tmp_path) in err and "Traceback" not in err


def test_random_atom_past_the_enumeration_guardrail_draws_nothing(monkeypatch, capsys):
    # a random atom holds as many points as it draws, so it is refused, like
    # every other atom, before a single point is drawn
    drawn, sample = [], random.Random.sample

    def counted(self, population, k, **kwargs):
        drawn.append(k)
        return sample(self, population, k, **kwargs)

    monkeypatch.setattr(fqlab.geometry, "SPHERE_ENUM_MAX", 40)
    monkeypatch.setattr(random.Random, "sample", counted)
    assert main(["fcount", "--q", "7", "--dim", "2", "--gen", "random:41"]) == 2
    assert capsys.readouterr().err == (
        "error: 41 points exceed the enumeration guardrail 40; pass --force to override\n"
    )
    assert drawn == []
    assert main(["fcount", "--q", "7", "--dim", "2", "--gen", "random:40"]) == 0
    assert main(["fcount", "--q", "7", "--dim", "2", "--gen", "random:41", "--force"]) == 0
    assert drawn == [40, 41]


# --- the argument parser ------------------------------------------------------

PARSED = [
    (["sphere", "--q", "7", "--dim", "2"],
     dict(a=None, allow_1mod4=False, dim=2, force=False, list=False, q=7)),
    (["sphere", "--q", "13", "--dim", "3", "--a", "2", "--list", "--allow-1mod4", "--force"],
     dict(a=2, allow_1mod4=True, dim=3, force=True, list=True, q=13)),
    (["spectrum", "--q", "7", "--dim", "2"],
     dict(a=None, allow_1mod4=False, dim=2, force=False, format="jsonl", out=None, q=7)),
    (["spectrum", "--q", "7", "--dim", "3", "--a", "3", "--out", "s.csv", "--format", "csv"],
     dict(a=3, allow_1mod4=False, dim=3, force=False, format="csv", out="s.csv", q=7)),
    (["fcount", "--q", "7", "--gen", "all"],
     dict(allow_1mod4=False, checks="main,remark", dim=None, force=False, format="jsonl",
          gen="all", out=None, points=None, q=7, seed=0)),
    (["fcount", "--q", "7", "--dim", "2", "--points", "p.txt", "--seed", "3", "--checks", "main",
      "--out", "f.csv", "--format", "csv", "--force"],
     dict(allow_1mod4=False, checks="main", dim=2, force=True, format="csv", gen=None,
          out="f.csv", points="p.txt", q=7, seed=3)),
    (["verify", "--q", "7", "--dim", "2"],
     dict(a=None, allow_1mod4=False, checks="spectrum,variance,mixing,hinge,main,remark", dim=2,
          force=False, format="jsonl", out=None, q=7, seed=0, trials=20)),
    (["verify", "--q", "7", "--dim", "3", "--a", "1", "--checks", "hinge", "--trials", "3",
      "--seed", "4", "--out", "v.csv", "--format", "csv", "--allow-1mod4"],
     dict(a=1, allow_1mod4=True, checks="hinge", dim=3, force=False, format="csv", out="v.csv",
          q=7, seed=4, trials=3)),
    (["sweep", "--default"],
     dict(config=None, default=True, force=False, format="jsonl", jobs=1, out=None,
          show_config=False)),
    (["sweep", "--config", "c.json", "--out", "r.csv", "--format", "csv", "--jobs", "2",
      "--show-config", "--force"],
     dict(config="c.json", default=False, force=True, format="csv", jobs=2, out="r.csv",
          show_config=True)),
]


def command_route(argv):
    """argv parsed as main parses a call that names its command first:
    by that command's parser alone."""
    return cli._command_parser(argv[0]).parse_args(argv[1:])


@pytest.mark.parametrize("argv,want", PARSED, ids=[" ".join(argv) for argv, _ in PARSED])
def test_parser_namespaces(argv, want):
    # every subcommand's options, defaults included, one namespace each,
    # the same from the full parser and from the command's own
    args = build_parser().parse_args(argv)
    assert args.func is getattr(cli, f"cmd_{argv[0]}")
    assert {k: v for k, v in vars(args).items() if k != "func"} == {"command": argv[0], **want}
    assert command_route(argv) == args


@pytest.mark.parametrize("argv", [
    ["fcount", "--q", "7", "--gen", "all", "--format", "xml"],
    ["sphere", "--dim", "2"],
    ["verify", "--q", "7"],
    ["sweep", "--out", "r.jsonl"],
    ["sweep", "--default", "--config", "c.json", "--out", "r.jsonl"],
])
def test_parser_refusals(argv, capsys):
    # the same exit code and message from the full parser and the command's
    errors = []
    for parse in (build_parser().parse_args, command_route):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert "error:" in errors[0] and errors[0] == errors[1]


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_command_help_is_the_full_parsers(name, capsys):
    # byte for byte, against the full parser of the same interpreter: the
    # headings differ between Python versions
    texts = []
    for run in (lambda: build_parser().parse_args([name, "--help"]),
                lambda: main([name, "--help"])):
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 0
        texts.append(capsys.readouterr())
    assert texts[0].out.startswith(f"usage: fqlab {name} [-h]")
    assert texts[0] == texts[1]


def test_unrecognized_arguments_name_the_command(capsys):
    # the one message the command's own parser words differently: its
    # usage and prog, where the full parser gave the top-level ones
    argv = ["fcount", "--q", "7", "--dim", "2", "--gen", "all", "--bogus"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: fqlab fcount [-h] --q Q ")
    assert err.endswith("\nfqlab fcount: error: unrecognized arguments: --bogus\n")
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("\nfqlab: error: unrecognized arguments: --bogus\n")


def test_a_command_call_builds_one_parser(monkeypatch, capsys):
    made = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(["fcount", "--q", "7", "--dim", "2", "--gen", "all"]) == 0
    assert main(["sweep", "--default", "--show-config"]) == 0
    assert made == ["fqlab fcount", "fqlab sweep"]
    # no command first: the full parser, every command a subparser
    made.clear()
    capsys.readouterr()
    for argv, code in (([], 2), (["-h"], 0)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
    assert len(made) == 2 * (1 + len(cli.COMMANDS))
    assert "{sphere,spectrum,fcount,verify,sweep}" in capsys.readouterr().out


# --- a wrong norm-class row ---------------------------------------------------


@pytest.mark.parametrize("p,dim", [(11, 2), (7, 3), (19, 2)])
def test_swapped_norm_classes_refuse_subset_counts_and_fail_the_recheck(monkeypatch, capsys,
                                                                       p, dim):
    # radius 1's row with classes 1 and 2 swapped: the subset counts and a
    # dense set's profile gather their transform from that row, so their
    # degree columns leave the integers and the certificate refuses them
    # (exit 2); the recheck of the table from its (norm, dot) counts fails
    # the spectrum verdict (exit 1)
    build = fqlab.euclid._norm_class_table.__wrapped__

    def swapped(F, dim):
        values = build(F, dim).copy()
        values[1, [1, 2]] = values[1, [2, 1]]
        values.setflags(write=False)
        return values

    monkeypatch.setattr(fqlab.euclid, "_norm_class_table", functools.lru_cache()(swapped))
    space = ["--q", str(p), "--dim", str(dim)]
    subset = ["--trials", "3", "--checks", "variance,mixing,hinge"]
    assert main(["verify", *space, "--a", "1", *subset]) == 2
    assert "fails its certificate" in capsys.readouterr().err
    # 3t points, |E|**2 = 9 p**(dim+1), is below the cost model's cut, and
    # F_11^2 has no set past it, so the convolution route is pinned
    monkeypatch.setattr(fqlab.bounds, "PROFILE_FFT_RATIO", 0)
    assert main(["fcount", *space, "--gen", "random:3t"]) == 2
    assert "fails its certificate" in capsys.readouterr().err
    assert main(["spectrum", *space, "--a", "1"]) == 1
    assert re.search(r"a=1: check failed: .*at radius 1, norm class [12] exceeds",
                     capsys.readouterr().out)
    assert main(["verify", *space, "--a", "2", *subset]) == 0  # radius 2's row is intact
