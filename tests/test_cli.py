"""Subcommand behavior, exit codes, report schemas."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from corneralg.cli import EXIT_BROKEN_PIPE, main
from corneralg.io import encode_algebra, write_algebra
from corneralg.subalgebra import algebra_from_span


def eij(n, i, j):
    m = np.zeros((n, n), dtype=np.complex128)
    m[i, j] = 1.0
    return m


def run(capsys, *args):
    rc = main(list(args))
    out = capsys.readouterr().out
    return rc, out


@pytest.fixture
def jordan_file(tmp_path):
    alg = algebra_from_span([np.eye(4), eij(4, 0, 1) + eij(4, 2, 3)])
    path = tmp_path / "jordan.json"
    write_algebra(path, alg)
    return str(path)


# ---------------------------------------------------------------- round trip


@pytest.mark.parametrize(
    "tag,extra",
    [
        ("SCALAR", []),
        ("FULL", []),
        ("LR_UNITAL", ["--ranks", "2,2"]),
        ("EX1", ["--ranks", "1,1,2"]),
        ("EX2", []),
        ("EX3", []),
        ("AT", ["--t", "2"]),
    ],
)
def test_gen_classify_recovers_the_tag(tmp_path, capsys, tag, extra):
    path = str(tmp_path / "alg.json")
    rc, _ = run(capsys, "gen", "--family", tag, "--n", "4", "-o", path, *extra)
    assert rc == 0
    rc, out = run(capsys, "classify", path, "--trials", "120", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["compressible"] and doc["family"] == tag
    assert doc["seed"] == 0
    assert doc["similarity"] is not None


def test_gen_disguised_instance_still_classifies(tmp_path, capsys):
    path = str(tmp_path / "moved.json")
    rc, _ = run(capsys, "gen", "--family", "EX2", "--n", "5",
                "--disguise", "unitary", "--seed", "5", "-o", path)
    assert rc == 0
    rc, out = run(capsys, "classify", path, "--trials", "120", "--format", "json")
    assert rc == 0 and json.loads(out)["family"] == "EX2"


def test_gen_records_meta(tmp_path, capsys):
    path = tmp_path / "at.json"
    rc, _ = run(capsys, "gen", "--family", "AT", "--n", "4", "--t", "2,1",
                "--seed", "3", "-o", str(path))
    assert rc == 0
    meta = json.loads(path.read_text())["meta"]
    assert meta["family"] == "AT" and meta["t"] == [2.0, 1.0] and meta["seed"] == 3


# ---------------------------------------------------------------- verbs


def test_check_exit_codes_and_json(tmp_path, capsys, jordan_file):
    good = str(tmp_path / "ex2.json")
    run(capsys, "gen", "--family", "EX2", "--n", "4", "-o", good)
    rc, out = run(capsys, "check", good, "--trials", "40", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["consistent"] and doc["violations"] == [] and doc["seed"] == 0
    rc, out = run(capsys, "check", jordan_file, "--trials", "40", "--format", "json")
    assert rc == 1
    doc = json.loads(out)
    assert not doc["consistent"]
    assert doc["violations"][0]["residual"] > 1e-6
    assert len(doc["violations"][0]["witness"]) == 4


def test_check_text_names_a_catalog_violation_by_its_corner(tmp_path, capsys, jordan_file):
    # a catalog index is the corner's place in its entry's frame batch, not a trial
    rc, out = run(capsys, "check", jordan_file, "--trials", "0")
    assert rc == 1
    assert "violation: catalog:rank3-outer-pair (catalog corner 0)," in out
    d3 = str(tmp_path / "d3.json")
    run(capsys, "gen", "--family", "DIAGONAL", "--n", "3", "-o", d3)
    rc, out = run(capsys, "check", d3, "--trials", "40")
    assert rc == 1 and "violation: idempotent (trial " in out


def test_check_projection_mode(tmp_path, capsys):
    good = str(tmp_path / "ex2.json")
    run(capsys, "gen", "--family", "EX2", "--n", "4", "-o", good)
    rc, out = run(capsys, "check", good, "--mode", "projection", "--trials", "30")
    assert rc == 0 and "consistent: yes" in out


def test_witness_verb(tmp_path, capsys, jordan_file):
    rc, out = run(capsys, "witness", jordan_file, "--trials", "40", "--format", "json")
    assert rc == 1
    doc = json.loads(out)
    assert doc["found"] and doc["residual"] > 1e-6
    rc, out = run(capsys, "witness", jordan_file, "--trials", "40")
    assert rc == 1 and "violating idempotent" in out
    good = str(tmp_path / "ex2.json")
    run(capsys, "gen", "--family", "EX2", "--n", "4", "-o", good)
    rc, out = run(capsys, "witness", good, "--trials", "40")
    assert rc == 0 and "none found" in out


def test_classify_reports_witness_on_refutation(capsys, jordan_file):
    rc, out = run(capsys, "classify", jordan_file, "--format", "json")
    assert rc == 1
    doc = json.loads(out)
    assert not doc["compressible"] and doc["family"] is None
    assert doc["type_path"] == "split-defect"
    assert doc["witness"] is not None and doc["similarity"] is None
    rc, out = run(capsys, "classify", jordan_file)
    assert rc == 1 and "witness idempotent:" in out


def test_classify_reports_the_witness_source(tmp_path, capsys, jordan_file):
    rc, out = run(capsys, "classify", jordan_file, "--format", "json")
    assert rc == 1
    source = json.loads(out)["witness_source"]
    assert source == "catalog:rank3-outer-pair"
    rc, out = run(capsys, "classify", jordan_file)
    assert rc == 1 and f"witness idempotent: source {source}" in out
    path = str(tmp_path / "ex2.json")
    run(capsys, "gen", "--family", "EX2", "--n", "4", "-o", path)
    rc, out = run(capsys, "classify", path, "--trials", "30", "--format", "json")
    assert rc == 0 and json.loads(out)["witness_source"] is None


def test_structure_reports(tmp_path, capsys):
    t2 = tmp_path / "t2.json"
    write_algebra(t2, algebra_from_span([eij(2, 0, 0), eij(2, 0, 1), eij(2, 1, 1)]))
    rc, out = run(capsys, "structure", str(t2))
    assert rc == 0 and "radical dim: 1" in out
    ex2 = str(tmp_path / "ex2.json")
    run(capsys, "gen", "--family", "EX2", "--n", "4", "-o", ex2)
    rc, out = run(capsys, "structure", ex2, "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["block_sizes"] == [1, 1, 1, 1]
    assert sorted(map(len, doc["linkage_classes"])) == [1, 1, 2]
    assert doc["bd_dim"] == 3 and doc["radical_dim"] == 4
    assert len(doc["flag_unitary"]) == 4


# ---------------------------------------------------------------- errors


def test_input_errors_exit_2(tmp_path, capsys):
    rc, _ = run(capsys, "classify", str(tmp_path / "missing.json"))
    assert rc == 2
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    rc, _ = run(capsys, "check", str(bad))
    assert rc == 2
    good = tmp_path / "good.json"
    run(capsys, "gen", "--family", "DIAGONAL", "--n", "4", "-o", str(good))
    rc, _ = run(capsys, "check", str(good), "--trials", "-5")
    assert rc == 2
    rc, _ = run(capsys, "gen", "--family", "EX1", "--n", "4",
                "--ranks", "1,x", "-o", str(tmp_path / "o.json"))
    assert rc == 2
    rc, _ = run(capsys, "gen", "--family", "LR", "--n", "4",
                "-o", str(tmp_path / "o.json"))
    assert rc == 2  # LR requires ranks


def test_nonunital_and_small_n_are_input_errors(tmp_path, capsys):
    lr = str(tmp_path / "lr.json")
    rc, _ = run(capsys, "gen", "--family", "LR", "--n", "4", "--ranks", "2,2", "-o", lr)
    assert rc == 0
    rc, _ = run(capsys, "classify", lr)
    assert rc == 2
    d3 = str(tmp_path / "d3.json")
    run(capsys, "gen", "--family", "DIAGONAL", "--n", "3", "-o", d3)
    rc, _ = run(capsys, "classify", d3)
    assert rc == 2


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_tolerance_env_override(tmp_path, capsys, monkeypatch):
    loose = tmp_path / "loose.json"
    loose.write_text(
        encode_algebra(4, [np.eye(4), eij(4, 0, 1) + 1e-5 * eij(4, 1, 3), eij(4, 0, 2)])
    )
    rc, _ = run(capsys, "check", str(loose), "--trials", "20")
    assert rc == 2  # closure defect 1e-5 exceeds the default rel_eps
    monkeypatch.setenv("CORNERALG_TOL", "1e-3")
    rc, _ = run(capsys, "check", str(loose), "--trials", "20")
    assert rc != 2
    # NaN and infinity would pass every closure and span test
    for bad in ("-1", "abc", "nan", "inf"):
        monkeypatch.setenv("CORNERALG_TOL", bad)
        rc, _ = run(capsys, "check", str(loose))
        assert rc == 2, bad


# ---------------------------------------------------------------- entry point


@pytest.mark.parametrize("buffering", [1, -1])  # raises in the verb, or at the last flush
def test_a_reader_closing_stdout_early_ends_without_a_traceback(monkeypatch, jordan_file,
                                                                 buffering):
    # a pipe whose reader is gone: every write to it raises BrokenPipeError
    read_end, write_end = os.pipe()
    os.close(read_end)
    writer = open(write_end, "w", buffering=buffering)
    monkeypatch.setattr(sys, "stdout", writer)
    try:
        rc = main(["witness", jordan_file, "--trials", "40"])
        # stdout now points at os.devnull, so the interpreter's last flush succeeds
        print("after")
        writer.flush()
    finally:
        writer.close()
    assert rc == EXIT_BROKEN_PIPE


def test_module_entry_point(tmp_path):
    path = str(tmp_path / "scalar.json")
    rc = subprocess.run(
        [sys.executable, "-m", "corneralg.cli", "gen", "--family", "SCALAR",
         "--n", "4", "-o", path],
        capture_output=True,
    )
    assert rc.returncode == 0
    rc = subprocess.run(
        [sys.executable, "-m", "corneralg.cli", "classify", path, "--trials", "30"],
        capture_output=True,
        text=True,
    )
    assert rc.returncode == 0 and "compressible: yes" in rc.stdout
