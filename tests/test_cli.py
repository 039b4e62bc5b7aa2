"""Command-line interface: specs, exit codes, data files, worker independence."""

import argparse
import csv
import hashlib
import io
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roac0 import fourier
from roac0.cli import Reporter, _bp_planes, _default_jobs, load_circuit, load_corpus, main
from roac0.fourier import damped_mass_recursive
from roac0.prg import MC_BATCH_BITS, RestrictionPRG


def run(args):
    return main(list(args))


# -- circuit and corpus specs ---------------------------------------------------


def test_inline_expression_spec():
    c = load_circuit("(and x0 x1)")
    assert c.n == 2 and c.depth == 1


def test_generator_specs():
    assert load_circuit("tribes:m=2,w=2").n == 4
    assert load_circuit("and:k=5").n == 5
    assert load_circuit("or:k=3").n == 3
    assert load_circuit("rectribes:d=2,widths=2-2").depth == 2
    r = load_circuit("random:n=9,d=3,seed=4")
    assert r.n == 9 and r.is_read_once()


def test_circuit_file_spec(tmp_path):
    f = tmp_path / "c.txt"
    f.write_text("(or x0 (and x1 x2))\n")
    c = load_circuit(str(f))
    assert c.n == 3 and c.depth == 2


def test_corpus_spec_with_count_is_deterministic():
    a = load_corpus("random:n=8,d=2,count=5,seed=1")
    b = load_corpus("random:n=8,d=2,count=5,seed=1")
    assert len(a) == 5
    from roac0 import render

    assert [render(c) for c in a] == [render(c) for c in b]


def test_corpus_spec_single_circuit():
    out = load_corpus("(and x0 x1)")
    assert len(out) == 1 and out[0].n == 2


# -- exit codes -----------------------------------------------------------------


def test_describe_ok(capsys):
    assert run(["describe", "--circuit", "(and x0 x1)"]) == 0
    out = capsys.readouterr().out
    assert "f0=1/4" in out
    assert "[PASS] circuit is read-once" in out


def _write_deep_chain(tmp_path):
    # (and (or (nand (not (and ... x0)))) nested 1,200 deep
    heads = ("(and ", "(or ", "(nand ", "(not ")
    f = tmp_path / "deep.txt"
    f.write_text("".join(heads[i % 4] for i in range(1200)) + "x0" + ")" * 1200 + "\n")
    return str(f)


@pytest.mark.parametrize("args", [
    ["describe", "--circuit"],
    ["fourier", "--check", "--circuit"],
    ["bp", "--witnesses", "3", "--corpus"],
    ["prg", "--mode", "uniform", "--trials", "1000", "--circuit"],
    ["prg", "--mode", "smallbias", "--ell", "2", "--exhaustive", "--circuit"],
    ["shrink", "--p", "0.5", "--eps", "1/16", "--trials", "100", "--circuit"],
], ids=["describe", "fourier-check", "bp-witnesses", "prg-uniform", "prg-smallbias-exhaustive",
        "shrink"])
def test_deep_chain_runs_through_every_subcommand(tmp_path, args):
    assert run(args + [_write_deep_chain(tmp_path)]) == 0


def test_deep_chain_bound_overflow_exits_2(tmp_path, capsys):
    assert run(["bounds", "--corpus", _write_deep_chain(tmp_path)]) == 2
    assert "overflows a float" in capsys.readouterr().err


def test_deep_generated_and_chained_inputs(tmp_path):
    f = tmp_path / "and600.txt"
    f.write_text("".join(f"(and x{i} " for i in range(600)) + "x600" + ")" * 600)
    assert run(["bp", "--corpus", str(f), "--witnesses", "3"]) == 0
    assert run(["describe", "--circuit", "random:n=2000,d=1200,seed=1"]) == 0
    widths = "-".join(["2", "2"] + ["1"] * 1198)
    assert run(["describe", "--circuit", f"rectribes:d=1200,widths={widths}"]) == 0


def test_describe_tribes_acceptance(capsys):
    assert run(["describe", "--circuit", "tribes:m=2,w=2"]) == 0
    assert "f0=7/16" in capsys.readouterr().out


def test_missing_file_exits_2(capsys):
    assert run(["describe", "--circuit", "no_such_circuit.txt"]) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_expression_exits_2(capsys):
    assert run(["describe", "--circuit", "(and x0"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_repeated_variable_exits_2(capsys):
    # the expression parser enforces the read-once discipline itself
    assert run(["describe", "--circuit", "(and x0 x0)"]) == 2
    assert "more than one leaf" in capsys.readouterr().err


def test_failing_threshold_exits_1(tmp_path):
    code = run([
        "shrink", "--circuit", "tribes:m=2,w=2", "--p", "0.3",
        "--eps", "1/10", "--trials", "100", "--seed", "3",
        "--threshold", "-1", "--out", str(tmp_path),
    ])
    assert code == 1


@pytest.mark.parametrize("args", [
    ["bounds", "--corpus", "random:n=8,d=3,count=2", "--eps", "1/0"],
    ["bounds", "--corpus", "random:n=8,d=3,count=2", "--eps", "0"],
    ["shrink", "--circuit", "tribes:m=2,w=2", "--p", "0.3", "--eps", "1/0"],
    ["bp", "--corpus", "random:n=8,d=3", "--witnesses", "-1"],
    ["shrink", "--circuit", "(and x0 x1)", "--p", "0.5", "--eps", "1/16", "--trials", "10",
     "--threshold", "nan"],
    ["prg", "--circuit", "(and x0 x1)", "--mode", "uniform", "--trials", "10",
     "--max-error", "nan"],
    ["shrink", "--circuit", "tribes:m=8,w=4", "--p", "0.3", "--eps", "1/16",
     "--trials", "4194305"],
], ids=["bounds-eps-1/0", "bounds-eps-0", "shrink-eps-1/0", "bp-witnesses--1",
        "shrink-threshold-nan", "prg-max-error-nan", "shrink-trials-above-cap"])
def test_bad_numbers_exit_2(args, capsys):
    assert run(args) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["describe", "--circuit", "random:n=5,d"], "expected key=value, got 'd'"),
    (["describe", "--circuit", "rectribes:d=3"], "rectribes needs widths=a-b-c"),
    (["fourier", "--circuit", "and:k=25", "--check"], "--check needs n <= 24"),
], ids=["spec-without-value", "rectribes-without-widths", "fourier-check-above-cap"])
def test_bad_specs_exit_2_with_the_reason(argv, message, capsys):
    assert run(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_version_flag():
    with pytest.raises(SystemExit) as e:
        run(["--version"])
    assert e.value.code == 0


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        run(["bench"])  # timing lives in perfbench, not in the CLI
    assert e.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


# -- data files -----------------------------------------------------------------


def test_fourier_writes_levels_and_manifest(tmp_path):
    code = run([
        "fourier", "--circuit", "(and x0 x1)", "--p", "0.5", "--check",
        "--out", str(tmp_path),
    ])
    assert code == 0
    levels = (tmp_path / "levels.csv").read_text().splitlines()
    assert levels[0].startswith("k,abs_mass")
    assert len(levels) == 4  # header + levels 0..2
    man = json.loads((tmp_path / "run.json").read_text())
    assert man["tool"] == "roac0"
    assert sorted(man["files"]) == ["fourier.json", "levels.csv"]
    assert man["checks"]["failed"] == 0
    data = json.loads((tmp_path / "fourier.json").read_text())
    assert data["n"] == 2


def test_masses_past_the_float_range_read_inf(monkeypatch, tmp_path, capsys):
    # a full profile with a level mass above 2^1024 takes about a minute to
    # compute, so the masses are handed in directly
    huge, tiny = Fraction(2**1100, 3), Fraction(1, 2**1100)
    c = load_circuit("and:k=3")
    lp = fourier.LevelProfile(3, (Fraction(1, 8), Fraction(0), huge, tiny),
                              (Fraction(1, 8), Fraction(0), -huge, tiny))
    monkeypatch.setattr(fourier, "level_profile_recursive", lambda circuit: lp)
    assert run(["fourier", "--circuit", "and:k=3", "--p", "0.5", "--out", str(tmp_path)]) == 0
    assert "total mass inf over 3 levels" in capsys.readouterr().out
    rows = list(csv.reader((tmp_path / "levels.csv").read_text().splitlines()))
    assert rows[3] == ["2", str(huge), str(-huge), "inf", "-inf"]
    assert rows[4][3:] == ["0.0", "0.0"]
    # the float sum over the profile overflows; the exact fold gives the value
    data = json.loads((tmp_path / "fourier.json").read_text())
    assert data["damped"]["0.5"] == float(damped_mass_recursive(c, 0.5, exact=True))
    rep = fourier.check_growth_corollary(c)
    assert [row["k"] for row in rep["levels"]] == [2, 3]  # only the exactly-zero level is left out
    assert rep["levels"][0]["mass"] == math.inf
    assert rep["levels"][0]["kth_root"] == pytest.approx(2 ** ((1100 - math.log2(3)) / 2))
    assert rep["levels"][1]["mass"] == 0.0
    assert rep["levels"][1]["kth_root"] == pytest.approx(2 ** (-1100 / 3))
    assert rep["g"] == rep["levels"][0]["kth_root"]


def test_manifest_config_echoes_the_options(tmp_path):
    assert run([
        "prg", "--circuit", "and:k=3", "--mode", "restriction", "--a", "2",
        "--rounds", "3", "--trials", "100", "--max-error", "0.5", "--out", str(tmp_path),
    ]) == 0
    assert json.loads((tmp_path / "run.json").read_text())["config"] == {
        "command": "prg",
        "options": {
            "a": 2, "circuit": "and:k=3", "ell": None, "eps": None, "exhaustive": False,
            "max_error": 0.5, "mode": "restriction", "rounds": 3, "seed": 0, "trials": 100,
        },
    }


def test_shrink_writes_sizes(tmp_path):
    code = run([
        "shrink", "--circuit", "tribes:m=2,w=2", "--p", "0.3",
        "--eps", "1/10", "--trials", "50", "--seed", "3", "--out", str(tmp_path),
    ])
    assert code == 0
    rows = (tmp_path / "sizes.csv").read_text().splitlines()
    assert len(rows) == 51
    rep = json.loads((tmp_path / "shrink.json").read_text())
    assert rep["trials"] == 50 and "quantile_value" in rep


def test_shrink_data_files_pinned(tmp_path):
    args = ["shrink", "--circuit", "tribes:m=2,w=2", "--p", "0.3", "--eps", "1/10",
            "--trials", "400", "--seed", "11", "--out", str(tmp_path)]
    assert run(args) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("shrink.json", "sizes.csv")}
    assert digests == {
        "shrink.json": "474c131981252c9c7a05913e7271d8d3471bbafd5292e8900399be6c85bdbbd8",
        "sizes.csv": "36195e2547520f04ee394178610716feea243ec70458d1ec8b245c192abcac9b",
    }


@pytest.mark.parametrize("args, again, stages, files", [
    (["shrink", "--circuit", "tribes:m=2,w=2", "--p", "0.3", "--eps", "1/10",
      "--trials", "300", "--seed", "2"], [],
     [("experiment", 300), ("report", 300)], ("shrink.json", "sizes.csv")),
    (["prg", "--circuit", "(and x0 x1 x2)", "--mode", "smallbias", "--ell", "4",
      "--trials", "500"], [], [("prg", 500)], ("prg.json",)),
    (["prg", "--circuit", "(and x0 x1 x2)", "--mode", "smallbias", "--ell", "4",
      "--exhaustive"], [], [("prg", 256)], ("prg.json",)),
    # the second run of a corpus command uses two workers
    (["bounds", "--corpus", "random:n=10,d=3,count=5,seed=5", "--jobs", "1"],
     ["--jobs", "2"], [("bounds", 5)], ("bounds.csv", "bounds.json")),
    (["bp", "--corpus", "random:n=8,d=3,count=3,seed=6", "--witnesses", "2", "--jobs", "1"],
     ["--jobs", "2"], [("bp", 3)], ("bp.csv", "bp.json")),
    (["describe", "--circuit", "tribes:m=2,w=2"], [], [("describe", 4)], ("describe.json",)),
    (["fourier", "--circuit", "tribes:m=2,w=2", "--check"], [], [("fourier", 5), ("transform", 16)],
     ("fourier.json", "levels.csv")),
], ids=["shrink", "prg_mc", "prg_exhaustive", "bounds", "bp", "describe", "fourier"])
def test_stages_stay_out_of_data_files(tmp_path, args, again, stages, files):
    assert run(args + ["--out", str(tmp_path / "a")]) == 0
    assert run(args + again + ["--out", str(tmp_path / "b")]) == 0
    recorded = json.loads((tmp_path / "a" / "run.json").read_text())["stages"]
    assert [(s["name"], s["items"]) for s in recorded] == stages
    assert all(set(s) == {"name", "wall_s", "items", "rate"} for s in recorded)
    for name in files:
        text = (tmp_path / "a" / name).read_text()
        assert text == (tmp_path / "b" / name).read_text()
        assert not any(word in text for word in ("wall", "rate", "stage", "time"))


def test_add_csv_matches_per_cell_writer(tmp_path):
    # cells are written as they come: every subcommand's cells are already
    # plain ints, floats, bools and strings
    header = ["a", "b", "c", "d", "e", "f", "g"]
    rows = [
        (3, -5, 0.1, True, 7, 2.5, "x"),
        (-1, 2**31 - 1, 1e300, False, -2**70, 1e-320, None),
        (4, 255, 0.1, True, 0, float("inf"), "p"),
        [2**80, 0, float("nan"), bool(0), 10**20, -0.0, ""],
    ]
    # a 2-D integer array takes the whole-array path
    table = np.array([[-1, 2**31, -2**63], [0, 2**31 - 1, 2**63 - 1], [-2**31 - 1, 7, 2**40]],
                     dtype=np.int64)
    rep = Reporter(argparse.Namespace(command="test", out=str(tmp_path)))
    rep.add_csv("t.csv", header, rows)
    rep.add_csv("a.csv", header[:3], table)
    assert rep.finish() == 0
    for name, head, body in (("t.csv", header, rows), ("a.csv", header[:3], table.tolist())):
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(head)
        for row in body:
            w.writerow(row)
        assert (tmp_path / name).read_text() == buf.getvalue()


def _text(valid, odd, generated=st.nothing()):
    """Well-formed values about two times in three, the rest odd or generated."""
    return st.one_of(*[st.sampled_from(valid)] * 4, st.sampled_from(odd), generated)


_ODD_NUMBERS = ["nan", "inf", "-inf", "1/0", "0/0", "-0", "0", "1.5", "-1/10", "1e400", "abc", ""]
_SPECS = ["tribes:m=2,w=2", "and:k=3", "or:k=1", "(and x0 (or x1 x2))", "(nand x0 (not x1))",
          "random:n=6,d=2,seed=1", "rectribes:d=2,widths=2-2"]
_BAD_SPECS = ["1", "(and)", "tribes:m=2", "tribes:m=x,w=2", "tribes:m=0,w=2", "tribes:m=-1,w=2",
              "and:k=0", "(and x0", "(and x0 x0)", "rectribes:widths=2-a", "rectribes:d=3,widths=",
              "random:n=0,d=1", "random:n=3,d=-1", "random:n=2,d=1,seed=-3", "nosuch:k=1", ":"]


@settings(max_examples=200, deadline=None)
@given(
    spec=_text(_SPECS, _BAD_SPECS),
    p=_text(["0", "-0", "0.05", "0.3", "1"], _ODD_NUMBERS, st.floats().map(repr)),
    eps=_text(["1/10", "1/16", "1/4", "0.2", "1e-3"], _ODD_NUMBERS, st.fractions().map(str)),
    trials=st.integers(-2, 200),
    seed=st.one_of(st.integers(0, 2**64 + 5), st.integers(0, 99), st.integers(-3, -1) | st.just("x")),
    threshold=st.none() | _text(["0", "2", "-1", "inf", "nan"], _ODD_NUMBERS, st.floats().map(repr)),
)
def test_shrink_argv_never_tracebacks(spec, p, eps, trials, seed, threshold):
    # argparse exits 2 on text it cannot convert; any other exception fails here
    argv = ["shrink", "--circuit", spec, "--p", p, "--eps", eps,
            "--trials", str(trials), "--seed", str(seed)]
    if threshold is not None:
        argv += ["--threshold", threshold]
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    assert code in (0, 1, 2)


_CORPORA = ["random:n=6,d=2,count=3,seed=1", "random:n=5,d=3,count=2", "tribes:m=2,w=2",
            "(or x0 (and x1 x2))"]
_BAD_CORPORA = ["random:n=1,d=1,count=2", "random:n=5,d=0,count=2", "random:n=5,d=2,count=0",
                "random:n=5,d=2,count=x", "random:count=2"]
_FLOATS = ["0", "-0", "0.05", "0.3", "1"]


@st.composite
def _argv(draw):
    """argv for describe, fourier, bounds, bp or prg: small circuits, odd values mixed in."""
    spec = draw(_text(_SPECS, _BAD_SPECS))
    number = _text(_FLOATS, _ODD_NUMBERS, st.floats().map(repr))
    small_int = st.one_of(st.integers(-2, 6).map(str), st.sampled_from(["2**70", "x", ""]))
    command = draw(st.sampled_from(["describe", "fourier", "bounds", "bp", "prg"]))
    if command == "describe":
        return [command, "--circuit", spec]
    if command == "fourier":
        argv = [command, "--circuit", spec]
        for p in draw(st.lists(number, max_size=3)):
            argv += ["--p", p]
        return argv + (["--check"] if draw(st.booleans()) else [])
    if command in ("bounds", "bp"):
        argv = [command, "--corpus", draw(_text(_CORPORA + _SPECS, _BAD_CORPORA + _BAD_SPECS)),
                "--jobs", draw(st.sampled_from(["1", "0", "-1"]))]
        if command == "bp":
            return argv + ["--witnesses", draw(small_int), "--seed",
                           draw(st.one_of(st.integers(-3, 2**64 + 5).map(str), st.just("x")))]
        if draw(st.booleans()):
            argv += ["--eps", draw(_text(["1/1000", "1/10", "0.01"], _ODD_NUMBERS + ["1e-400"],
                                         st.fractions().map(str)))]
        return argv + (["--p", draw(number)] if draw(st.booleans()) else [])
    mode = draw(st.sampled_from(["smallbias", "restriction", "uniform", "other"]))
    argv = [command, "--circuit", spec, "--mode", mode, "--trials", draw(small_int),
            "--seed", draw(st.sampled_from(["0", "7", "-1", str(2**64)]))]
    for flag, values in (("--ell", ["1", "2", "4", "6", "0", "65", "-3", "x"]),
                         ("--a", ["0", "1", "2", "-1", "x", "40", "5000", "200000", "10**9"]),
                         ("--rounds", ["0", "1", "3", "-2", "x", "200000", str(2**64)]),
                         ("--eps", _FLOATS + _ODD_NUMBERS + ["1e-300", "5e-324"]),
                         ("--max-error", _FLOATS + _ODD_NUMBERS)):
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(values))]
    return argv + (["--exhaustive"] if draw(st.booleans()) else [])


@settings(max_examples=300, deadline=None)
@given(argv=_argv())
def test_argv_never_tracebacks(argv):
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    assert code in (0, 1, 2)
    if "--max-error" in argv and argv[argv.index("--max-error") + 1] == "nan":
        assert code == 2  # a gate that no error can fail or pass is a usage error


def test_prg_layout_over_one_batch_exits_2_at_once(capsys):
    # 1.4M seed bits; expanding seed by seed took 13 s before the check
    start = time.perf_counter()
    argv = ["prg", "--circuit", "(and x0 x1)", "--mode", "restriction", "--rounds", "100000"]
    assert run(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert "1400008 seed bits" in capsys.readouterr().err
    for a in ("40", "2000"):  # 2^40 rounds; 2^2000 rounds overflow a float
        assert run(["prg", "--circuit", "(and x0 x1)", "--mode", "restriction",
                    "--eps", "0.1", "--a", a]) == 2


def test_prg_layout_just_under_one_batch_runs(tmp_path):
    assert RestrictionPRG.standard(63, 1 / 63, a=7).seed_bits == 440_856 <= MC_BATCH_BITS
    argv = ["prg", "--circuit", "(and x0 x1)", "--mode", "restriction", "--a", "0",
            "--rounds", "131000", "--trials", "2", "--out", str(tmp_path)]
    assert run(argv) == 0
    assert json.loads((tmp_path / "prg.json").read_text())["seed_bits"] == 1_048_008


def test_restriction_eps_outside_unit_interval_exits_2(capsys):
    for eps in ("0", "-0", "1", "nan"):
        argv = ["prg", "--circuit", "(and x0 x1)", "--mode", "restriction", "--eps", eps]
        assert run(argv) == 2
        assert "bad parameters" in capsys.readouterr().err


def test_prg_uniform_exhaustive_error_is_zero(tmp_path, capsys):
    code = run([
        "prg", "--circuit", "(and x0 x1 x2)", "--mode", "uniform",
        "--exhaustive", "--out", str(tmp_path),
    ])
    assert code == 0
    data = json.loads((tmp_path / "prg.json").read_text())
    assert float(data["abs_error"]) == 0.0


def test_prg_max_error_gate_fails(tmp_path):
    code = run([
        "prg", "--circuit", "(and x0 x1)", "--mode", "smallbias", "--ell", "4",
        "--exhaustive", "--max-error", "-1", "--out", str(tmp_path),
    ])
    assert code == 1


def test_smallbias_mode_needs_ell():
    assert run(["prg", "--circuit", "(and x0 x1)", "--mode", "smallbias"]) == 2


# -- worker-count independence ----------------------------------------------------


def test_bounds_outputs_identical_across_jobs(tmp_path):
    spec = "random:n=10,d=3,count=12,seed=5"
    d1, d4 = tmp_path / "j1", tmp_path / "j4"
    assert run(["bounds", "--corpus", spec, "--jobs", "1", "--out", str(d1)]) == 0
    assert run(["bounds", "--corpus", spec, "--jobs", "4", "--out", str(d4)]) == 0
    for name in ("bounds.csv", "bounds.json"):
        assert (d1 / name).read_bytes() == (d4 / name).read_bytes()


def test_bounds_csv_pinned(tmp_path):
    args = ["bounds", "--corpus", "random:n=40,d=4,count=5,seed=2", "--eps", "1/1000",
            "--out", str(tmp_path)]
    assert run(args) == 0
    assert (tmp_path / "bounds.csv").read_text() == (
        "index,n,depth,lhs,rhs,slack,passed,p,eps\n"
        "0,5,1,0.0012341544030439943,0.03225,0.031015845596956006,True,0.007776690078822464,0.001\n"
        "1,12,3,1.0352246707780154e-07,0.143822265625,0.14382216210253293,True,"
        "1.8356184700527782e-07,0.001\n"
        "2,29,4,4.880457639632648e-10,0.49755655957758427,0.4975565590895385,True,"
        "5.616694372154248e-10,0.001\n"
        "3,34,3,1.0993866074259915e-07,0.2544761047572829,0.25447599481862215,True,"
        "1.4699927972736893e-07,0.001\n"
        "4,3,2,3.190845688494101e-05,0.376,0.37596809154311506,True,5.10519672072808e-05,0.001\n"
    )


def test_bounds_lhs_is_rounded_exact_damped_mass(tmp_path):
    spec = "random:n=64,d=4,count=60,seed=9"
    assert run(["bounds", "--corpus", spec, "--out", str(tmp_path)]) == 0
    rows = list(csv.DictReader(io.StringIO((tmp_path / "bounds.csv").read_text())))
    circuits = load_corpus(spec)
    assert len(rows) == len(circuits)
    for c, row in zip(circuits, rows):
        exact = damped_mass_recursive(c, float(row["p"]), exact=True)
        assert float(row["lhs"]) == float(exact)


def test_fourier_damped_masses_are_correctly_rounded(tmp_path):
    # a float sum over the profile misses the rounded exact value about half
    # the time; at n=2, d=1, seed=0 and p = 0.9 it read 0.6525000000000001
    ps = ["0.01", "0.1", "0.25", "0.5", "0.9", "1"]
    for n, d, seed in [(2, 1, 0)] + [(n, d, seed) for n in (3, 7, 12) for d in (1, 2, 3)
                                     for seed in range(3)]:
        spec = f"random:n={n},d={d},seed={seed}"
        args = ["fourier", "--circuit", spec, "--out", str(tmp_path)]
        assert run(args + [arg for p in ps for arg in ("--p", p)]) == 0
        damped = json.loads((tmp_path / "fourier.json").read_text())["damped"]
        lp = fourier.level_profile_recursive(load_circuit(spec))
        assert damped == {str(float(p)): float(fourier.damped_mass(lp, Fraction(float(p))))
                          for p in ps}


def test_bp_outputs_identical_across_jobs(tmp_path):
    spec = "random:n=9,d=3,count=8,seed=6"
    d1, d4 = tmp_path / "j1", tmp_path / "j4"
    args = ["bp", "--corpus", spec, "--witnesses", "5", "--seed", "2"]
    assert run(args + ["--jobs", "1", "--out", str(d1)]) == 0
    assert run(args + ["--jobs", "4", "--out", str(d4)]) == 0
    assert (d1 / "bp.csv").read_bytes() == (d4 / "bp.csv").read_bytes()


def test_bp_csv_pinned(tmp_path):
    args = ["bp", "--corpus", "random:n=12,d=4,count=6,seed=3", "--witnesses", "5",
            "--seed", "4", "--out", str(tmp_path)]
    assert run(args) == 0
    assert (tmp_path / "bp.csv").read_bytes() == (
        b"index,n,depth,width,length,width_ok,equivalent,witnesses_ok,witnesses\n"
        b"0,5,2,3,5,True,True,5,5\n1,12,1,2,12,True,True,5,5\n2,9,3,4,9,True,True,5,5\n"
        b"3,5,4,5,5,True,True,5,5\n4,8,2,3,8,True,True,5,5\n5,4,1,2,4,True,True,5,5\n"
    )


def test_bp_checks_sampled_inputs_above_14_variables(tmp_path):
    args = ["bp", "--corpus", "random:n=100,d=3", "--witnesses", "5", "--out", str(tmp_path)]
    assert run(args) == 0
    _, row = (tmp_path / "bp.csv").read_text().splitlines()
    assert row.split(",")[1:] == ["100", "3", "4", "100", "True", "True", "5", "5"]


def test_bp_planes_hold_the_checked_inputs():
    every = _bp_planes(5, seed=3)
    assert every.dtype == np.uint8 and every.shape == (5, 32)
    assert [sum(int(every[v, x]) << v for v in range(5)) for x in range(32)] == list(range(32))
    sampled = _bp_planes(100, seed=7)
    rng = random.Random(7 ^ 0xB9)
    xs = [rng.randrange(1 << 100) for _ in range(10_000)]
    assert sampled.dtype == np.uint8 and sampled.shape == (100, 10_000)
    for v in (0, 13, 14, 63, 64, 99):  # x14 and up vary too
        assert sampled[v].tolist() == [(x >> v) & 1 for x in xs]


def test_jobs_default_reads_environment(monkeypatch, tmp_path):
    monkeypatch.setenv("RO_AC0_JOBS", "3")
    assert _default_jobs() == 3
    monkeypatch.setenv("RO_AC0_JOBS", "junk")
    assert _default_jobs() == 1
    monkeypatch.delenv("RO_AC0_JOBS")
    assert _default_jobs() == 1
    # the parser is built once per process, so each call reads the variable
    # itself; a one-circuit corpus runs in this process whatever --jobs says
    for env in ("3", "2"):
        monkeypatch.setenv("RO_AC0_JOBS", env)
        out = tmp_path / f"jobs{env}"
        assert run(["bounds", "--corpus", "random:n=6,d=2,seed=1", "--out", str(out)]) == 0
        assert json.loads((out / "run.json").read_text())["config"]["options"]["jobs"] == int(env)


def test_calls_sharing_the_parser_stay_independent(tmp_path, capsys):
    prg = ["prg", "--circuit", "and:k=3", "--mode", "uniform", "--trials", "50"]
    assert run(prg + ["--max-error", "0.5", "--out", str(tmp_path / "gated")]) == 0
    assert run(prg + ["--out", str(tmp_path / "plain")]) == 0
    options = json.loads((tmp_path / "plain" / "run.json").read_text())["config"]["options"]
    assert options["max_error"] is None
    with pytest.raises(SystemExit) as e:
        run(["--version"])
    assert e.value.code == 0
    with pytest.raises(SystemExit) as e:
        run(["prg", "--circuit", "and:k=3"])  # --mode is required
    assert e.value.code == 2
    capsys.readouterr()
    assert run(prg + ["--out", str(tmp_path / "after")]) == 0
    assert "|E[F(G)] - E[F]|" in capsys.readouterr().out
    for name in ("plain", "after"):
        assert (tmp_path / name / "prg.json").read_bytes() == (
            tmp_path / "gated" / "prg.json").read_bytes()
