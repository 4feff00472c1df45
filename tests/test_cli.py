"""Command-line surface: pipelines, formats, exit codes, determinism."""

import copy
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from conftest import construct_exact, fano, u23
from decompwidth import format_matroid
from decompwidth.cli import main
from decompwidth.kdecomp import Inner, serialize


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def u23_files(tmp_path):
    matroid_path = tmp_path / "u23.matroid"
    matroid_path.write_text(format_matroid(u23()))
    dw_path = tmp_path / "u23.dw"
    code, _, err = run(["construct", "--matroid", str(matroid_path), "-o", str(dw_path)])
    assert code == 0, err
    return str(matroid_path), str(dw_path)


def test_rank_subcommand(u23_files):
    _, dw = u23_files
    code, out, _ = run(["rank", dw, "--set", "0,2"])
    assert code == 0
    assert out.strip() == "2"
    code, out, _ = run(["rank", dw, "--set", ""])
    assert out.strip() == "0"


def test_tutte_eval_two_two(u23_files):
    _, dw = u23_files
    code, out, _ = run(["tutte-eval", dw, "--x", "2", "--y", "2"])
    assert code == 0
    assert out.strip() == "8"


def test_tutte_eval_rational_and_modular(u23_files):
    _, dw = u23_files
    code, out, _ = run(["tutte-eval", dw, "--x", "1/2", "--y=-3/2"])
    assert code == 0
    # T(x, y) = x^2 + x + y at (1/2, -3/2) = 1/4 + 1/2 - 3/2 = -3/4
    assert out.strip() == "-3/4"
    code, out, _ = run(["tutte-eval", dw, "--x", "2", "--y", "2", "--mod", "5"])
    assert out.strip() == "3"


def test_verify_accepts_constructed(u23_files):
    _, dw = u23_files
    code, out, _ = run(["verify", dw])
    assert code == 0
    assert out.strip() == "matroid"


def test_verify_rejects_mutation(tmp_path, u23_files):
    dec, _ = construct_exact(u23())
    mutated = copy.deepcopy(dec)
    for node in mutated.nodes.values():
        if isinstance(node, Inner):
            node.defect[1][1] += 2
            break
    path = tmp_path / "mutated.dw"
    path.write_text(serialize(mutated))
    code, out, _ = run(["verify", str(path)])
    assert code == 1
    assert out.startswith("not matroid:")
    assert "A={" in out and "B={" in out


ORPHAN_LEAF_DW = """dw version=1 n=3 K=1
leaf 0 elem=0 loop=0
leaf 1 elem=1 loop=0
leaf 2 elem=2 loop=0
inner 3 left=0 right=1 kv=2
phi 3 1 0 1 0
phi 3 0 1 1 0
phi 3 1 1 1 1
root 3
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["rank", "{dw}", "--set", "2"],
        ["rank", "{dw}", "--set", "0,1,2"],
        ["check", "{dw}", "--matroid", "{matroid}", "--exhaustive"],
        ["tutte-eval", "{dw}", "--x", "2", "--y", "2"],
    ],
)
def test_structure_defect_rejected(tmp_path, u23_files, argv):
    # leaf 2 hangs off no inner node, so the file defines no rank function
    matroid, _ = u23_files
    dw = tmp_path / "orphan.dw"
    dw.write_text(ORPHAN_LEAF_DW)
    code, out, err = run([a.format(dw=dw, matroid=matroid) for a in argv])
    assert code == 1
    assert out == ""
    assert err.startswith("not matroid: structure (tree at node 2: referenced 0 times")


def test_check_exhaustive(u23_files):
    matroid, dw = u23_files
    code, out, _ = run(["check", dw, "--matroid", matroid, "--exhaustive"])
    assert code == 0
    assert out.strip() == "ok 8 subsets"


def test_check_sampled(u23_files):
    matroid, dw = u23_files
    code, out, _ = run(["check", dw, "--matroid", matroid, "--samples", "50", "--seed", "4"])
    assert code == 0
    assert out.strip() == "ok 50 subsets"


def test_check_detects_mismatch(tmp_path, u23_files):
    matroid, _ = u23_files
    dec, _ = construct_exact(u23())
    broken = copy.deepcopy(dec)
    for node in broken.nodes.values():
        if isinstance(node, Inner):
            node.defect[1][1] += 1
            break
    path = tmp_path / "broken.dw"
    path.write_text(serialize(broken))
    code, out, _ = run(["check", str(path), "--matroid", matroid, "--exhaustive"])
    assert code == 1
    assert out.startswith("mismatch")


def test_tutte_whitney_and_xy_bases(u23_files):
    _, dw = u23_files
    code, out, _ = run(["tutte", dw])
    assert code == 0
    assert out.splitlines() == ["N 0 0 1", "N 1 1 3", "N 2 2 3", "N 3 2 1"]
    code, out, _ = run(["tutte", dw, "--basis", "xy"])
    assert out.splitlines() == ["t 0 1 1", "t 1 0 1", "t 2 0 1"]


def test_oracle_tutte_matches_tutte(u23_files):
    matroid, dw = u23_files
    _, from_dp, _ = run(["tutte", dw])
    _, from_brute, _ = run(["oracle-tutte", "--matroid", matroid])
    assert from_dp == from_brute


def test_bw_exact(tmp_path):
    path = tmp_path / "fano.matroid"
    path.write_text(format_matroid(fano()))
    code, out, _ = run(["bw", "--matroid", str(path), "--exact"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# width 2"
    assert lines[1].startswith("bd n=7")


def test_bw_greedy_default(tmp_path):
    path = tmp_path / "fano.matroid"
    path.write_text(format_matroid(fano()))
    code, out, _ = run(["bw", "--matroid", str(path)])
    assert code == 0
    assert out.splitlines()[0].startswith("# width ")


def test_construct_with_bd_file(tmp_path):
    matroid_path = tmp_path / "fano.matroid"
    matroid_path.write_text(format_matroid(fano()))
    bd_path = tmp_path / "fano.bd"
    code, out, _ = run(["bw", "--matroid", str(matroid_path), "--exact"])
    bd_path.write_text("\n".join(out.splitlines()[1:]) + "\n")
    dw_path = tmp_path / "fano.dw"
    code, _, err = run(
        ["construct", "--matroid", str(matroid_path), "--bd", str(bd_path), "-o", str(dw_path)]
    )
    assert code == 0, err
    code, out, _ = run(["check", str(dw_path), "--matroid", str(matroid_path), "--exhaustive"])
    assert code == 0
    assert out.strip() == "ok 128 subsets"


def test_construct_to_stdout(tmp_path):
    matroid_path = tmp_path / "u23.matroid"
    matroid_path.write_text(format_matroid(u23()))
    code, out, _ = run(["construct", "--matroid", str(matroid_path)])
    assert code == 0
    assert out.startswith("dw version=1 n=3")


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.matroid"
    bad.write_text("matroid linear q=2 rows=1 cols=2\n0 7\n")
    code, _, err = run(["oracle-tutte", "--matroid", str(bad)])
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize(
    "lineno,bad",
    [(2, "leaf x elem=0 loop=0"), (4, "inner x left=0 right=1 kv=1"), (5, "root x")],
)
def test_non_integer_node_id_exit_code(tmp_path, lineno, bad):
    lines = [
        "dw version=1 n=2 K=1",
        "leaf 0 elem=0 loop=0",
        "leaf 1 elem=1 loop=0",
        "inner 2 left=0 right=1 kv=1",
        "root 2",
    ]
    lines[lineno - 1] = bad
    path = tmp_path / "bad.dw"
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run(["verify", str(path)])
    assert code == 2
    assert f"line {lineno}" in err


def test_missing_file_exit_code():
    code, _, err = run(["verify", "/nonexistent/path.dw"])
    assert code == 2
    assert "error" in err


def test_usage_error_exit_code():
    code, _, _ = run(["rank"])  # missing required arguments
    assert code == 2
    code, _, _ = run(["no-such-command"])
    assert code == 2


def test_bad_rational_exit_code(u23_files):
    _, dw = u23_files
    code, _, err = run(["tutte-eval", dw, "--x", "2.5", "--y", "1"])
    assert code == 2
    assert "rational" in err


def test_set_outside_ground_set(u23_files):
    _, dw = u23_files
    code, _, err = run(["rank", dw, "--set", "0,9"])
    assert code == 2


def test_deterministic_output(u23_files):
    matroid, dw = u23_files
    first = run(["tutte", dw])
    second = run(["tutte", dw])
    assert first == second
    a = run(["construct", "--matroid", matroid])
    b = run(["construct", "--matroid", matroid])
    assert a == b
