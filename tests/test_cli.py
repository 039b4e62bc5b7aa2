"""Command-line interface: specs, exit codes, data files, worker independence."""

import json
import random

import numpy as np
import pytest

from roac0.cli import _bp_planes, _default_jobs, load_circuit, load_corpus, main


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


def test_deeply_nested_circuit_is_a_usage_error(capsys):
    deep = "(and " * 1200 + "x0" + ")" * 1200
    assert run(["describe", "--circuit", deep]) == 2
    assert "nested too deeply" in capsys.readouterr().err


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


def test_version_flag():
    with pytest.raises(SystemExit) as e:
        run(["--version"])
    assert e.value.code == 0


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


def test_jobs_default_reads_environment(monkeypatch):
    monkeypatch.setenv("RO_AC0_JOBS", "3")
    assert _default_jobs() == 3
    monkeypatch.setenv("RO_AC0_JOBS", "junk")
    assert _default_jobs() == 1
    monkeypatch.delenv("RO_AC0_JOBS")
    assert _default_jobs() == 1
