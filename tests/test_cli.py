"""Command-line surface: pipelines, formats, exit codes, determinism."""

import copy
import functools
import io
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    GF2,
    c5_graphic,
    construct_exact,
    fano,
    loops_and_parallels,
    mk4_linear,
    parallel_coloop,
    rank_calls,
    u12,
    u23,
)
import decompwidth
from decompwidth import (
    MatroidInstance,
    construct,
    exact_branch_decomposition,
    format_branch_tree,
    format_matroid,
    greedy_branch_decomposition,
    root_tree,
)
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


@pytest.mark.parametrize(
    "point, message",
    [
        (["--x", "1/7", "--y", "2"], "error: x = 1/7 has no residue modulo 7"),
        (["--x", "2", "--y=-3/14"], "error: y = -3/14 has no residue modulo 7"),
    ],
    ids=["x", "y"],
)
def test_tutte_eval_point_without_residue(u23_files, point, message):
    _, dw = u23_files
    code, out, err = run(["tutte-eval", dw, *point, "--mod", "7"])
    assert code == 2
    assert out == ""
    assert err.strip() == message


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


# element 0's leaf is flagged non-loop, but defect[1][0] = defect[1][1] = 1
# makes it a loop of the matroid the tables describe
LOOP_FLAG_DW = """dw version=1 n=2 K=1
leaf 0 elem=0 loop=0
leaf 1 elem=1 loop=0
inner 2 left=0 right=1 kv=1
phi 2 1 0 0 1
phi 2 1 1 0 1
root 2
"""


def test_verify_notes_a_loop_flag_that_disagrees(tmp_path):
    path = tmp_path / "flag.dw"
    path.write_text(LOOP_FLAG_DW)
    code, out, err = run(["verify", str(path)])
    assert code == 0
    assert out == "matroid\n# note: loop flag of element 0 disagrees with its rank\n"
    assert err == ""


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


# every node is referenced once, but inner nodes 5 and 6 only reach each other
CYCLE_OFF_THE_ROOT_DW = """dw version=1 n=4 K=1
leaf 0 elem=0 loop=0
leaf 1 elem=1 loop=0
leaf 2 elem=2 loop=0
leaf 3 elem=3 loop=0
inner 4 left=0 right=1 kv=2
inner 5 left=6 right=2 kv=1
inner 6 left=5 right=3 kv=1
phi 4 1 0 1 0
phi 4 0 1 1 0
phi 4 1 1 1 1
root 4
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{dw}"],
        ["tutte", "{dw}"],
        ["tutte-eval", "{dw}", "--x", "2", "--y", "2"],
    ],
)
def test_unreachable_nodes_rejected(tmp_path, argv):
    dw = tmp_path / "cycle.dw"
    dw.write_text(CYCLE_OFF_THE_ROOT_DW)
    code, out, err = run([a.format(dw=dw) for a in argv])
    assert code == 1
    assert "structure (tree at node 2: not reachable from the root)" in out + err


def test_check_exhaustive(u23_files):
    matroid, dw = u23_files
    code, out, _ = run(["check", dw, "--matroid", matroid, "--exhaustive"])
    assert code == 0
    assert out.strip() == "ok 8 subsets"


@pytest.mark.parametrize("extra", [["--exhaustive"], ["--samples", "64"]], ids=["exhaustive", "samples"])
def test_every_subset_check_reads_one_rank_table(tmp_path, extra):
    m = MatroidInstance.linear(GF2, [[1, 0, 1, 1, 0, 1], [0, 1, 1, 0, 1, 1]])
    matroid_path = tmp_path / "six.matroid"
    matroid_path.write_text(format_matroid(m))
    dw_path = tmp_path / "six.dw"
    code, _, err = run(["construct", "--matroid", str(matroid_path), "-o", str(dw_path)])
    assert code == 0, err
    with rank_calls() as calls:
        code, out, _ = run(["check", str(dw_path), "--matroid", str(matroid_path), *extra])
    assert (code, out) == (0, "ok 64 subsets\n")
    assert calls == []


def test_check_sampled(u23_files):
    matroid, dw = u23_files
    # fewer samples than the 8 subsets of U_{2,3}, so they are drawn at random
    code, out, _ = run(["check", dw, "--matroid", matroid, "--samples", "5", "--seed", "4"])
    assert code == 0
    assert out.strip() == "ok 5 subsets"


@pytest.mark.parametrize(
    "matrix, samples, checked",
    [
        ([[1]], None, 2),
        ([[1, 1]], None, 4),
        ([[1, 1]], "4", 4),
        ([[1, 1]], "3", 3),
    ],
)
def test_check_counts_each_subset_once_when_samples_cover_them(tmp_path, matrix, samples, checked):
    # a 1-element matroid has 2 subsets; 1000 samples of them check nothing more
    matroid_path = tmp_path / "small.matroid"
    matroid_path.write_text(format_matroid(MatroidInstance.linear(GF2, matrix)))
    dw_path = tmp_path / "small.dw"
    code, _, err = run(["construct", "--matroid", str(matroid_path), "-o", str(dw_path)])
    assert code == 0, err
    extra = [] if samples is None else ["--samples", samples]
    code, out, _ = run(["check", str(dw_path), "--matroid", str(matroid_path), *extra])
    assert code == 0
    assert out == f"ok {checked} subsets\n"


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_check_refuses_samples_below_one(u23_files, samples):
    # checking no subset is not a pass
    matroid, dw = u23_files
    code, out, err = run(["check", dw, "--matroid", matroid, f"--samples={samples}"])
    assert code == 2
    assert out == ""
    assert err == f"error: --samples must be at least 1, got {samples}\n"


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


@pytest.mark.parametrize("command", ["tutte", "oracle-tutte", "bw"])
def test_closed_stdout_exits_1_without_a_traceback(u23_files, command):
    matroid, dw = u23_files
    argv = {"tutte": [dw], "oracle-tutte": ["--matroid", matroid], "bw": ["--matroid", matroid]}
    src = Path(decompwidth.__file__).resolve().parents[1]
    child = subprocess.Popen(
        [sys.executable, "-m", "decompwidth.cli", command, *argv[command]],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    with child:
        child.stdout.close()  # long before the interpreter has started and writes
        err = child.stderr.read()
    assert child.returncode == 1
    assert err == b""


def test_bw_exact(tmp_path):
    path = tmp_path / "fano.matroid"
    path.write_text(format_matroid(fano()))
    code, out, _ = run(["bw", "--matroid", str(path), "--exact"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# width 2"
    assert lines[1].startswith("bd n=7")
    # 11 GF(2) columns, past the 9 where the exact search used to stop: the
    # greedy reaches width 3 and the exact search 2
    rows = ["01001011010", "11110000000", "01000100011", "01100010101"]
    m = MatroidInstance.linear(GF2, [[int(x) for x in row] for row in rows])
    path.write_text(format_matroid(m))
    assert run(["bw", "--matroid", str(path), "--exact"])[1].splitlines()[0] == "# width 2"
    assert run(["bw", "--matroid", str(path)])[1].splitlines()[0] == "# width 3"
    # above 9 elements the default search stays the greedy
    dw_path = tmp_path / "out.dw"
    code, _, err = run(["construct", "--matroid", str(path), "-o", str(dw_path)])
    assert code == 0, err
    greedy_tree = root_tree(greedy_branch_decomposition(m)[0])
    assert dw_path.read_text() == serialize(construct(m, greedy_tree))
    # the rank table, and so the exact search, stops at 20 elements
    path.write_text(format_matroid(MatroidInstance.uniform(2, 21)))
    code, _, err = run(["bw", "--matroid", str(path), "--exact"])
    assert code == 2
    assert "n <= 20" in err


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


# CI's g12: a GF(3) 4 x 12 matrix; its first 9 columns are CI's g9
G12_ROWS = [
    "1 0 0 0 1 1 2 0 1 2 1 0",
    "0 1 0 0 1 2 1 1 0 0 2 1",
    "0 0 1 0 0 1 1 2 1 1 0 2",
    "0 0 0 1 0 0 0 1 2 1 1 1",
]


@pytest.mark.parametrize("cols, search", [(12, "greedy"), (9, "exact")])
def test_construct_bd_search_writes_what_bw_then_construct_writes(tmp_path, cols, search):
    matroid_path = tmp_path / "g.matroid"
    rows = [" ".join(row.split()[:cols]) for row in G12_ROWS]
    matroid_path.write_text(f"matroid linear q=3 rows=4 cols={cols}\n" + "\n".join(rows) + "\n")
    code, out, err = run(["bw", "--matroid", str(matroid_path)] + (["--exact"] if search == "exact" else []))
    assert code == 0, err
    bd_path = tmp_path / "g.bd"
    bd_path.write_text(out)
    via_bd, searched = tmp_path / "via_bd.dw", tmp_path / "searched.dw"
    code, _, err = run(["construct", "--matroid", str(matroid_path), "--bd", str(bd_path), "-o", str(via_bd)])
    assert code == 0, err
    code, _, err = run(["construct", "--matroid", str(matroid_path), "--bd-search", search, "-o", str(searched)])
    assert code == 0, err
    assert searched.read_bytes() == via_bd.read_bytes()


def test_construct_refuses_bd_with_bd_search(tmp_path):
    matroid_path = tmp_path / "u12.matroid"
    matroid_path.write_text(format_matroid(u12()))
    bd_path = tmp_path / "u12.bd"
    bd_path.write_text(format_branch_tree(greedy_branch_decomposition(u12())[0]))
    code, out, err = run(
        ["construct", "--matroid", str(matroid_path), "--bd", str(bd_path), "--bd-search", "greedy"]
    )
    assert (code, out) == (2, "")
    assert "not allowed with argument" in err


def test_bw_output_feeds_construct_on_two_elements(tmp_path):
    matroid_path = tmp_path / "u12.matroid"
    matroid_path.write_text(format_matroid(u12()))
    bd_path = tmp_path / "u12.bd"
    code, out, err = run(["bw", "--matroid", str(matroid_path)])
    assert code == 0, err
    bd_path.write_text(out)
    dw_path = tmp_path / "u12.dw"
    code, _, err = run(
        ["construct", "--matroid", str(matroid_path), "--bd", str(bd_path), "-o", str(dw_path)]
    )
    assert code == 0, err
    code, out, _ = run(["check", str(dw_path), "--matroid", str(matroid_path), "--exhaustive"])
    assert code == 0
    assert out.strip() == "ok 4 subsets"


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
    "header, message",
    [
        ("matroid linear q=2 rows=1 cols=1 extra=3", "unknown field 'extra' in a linear header"),
        ("matroid uniform r=2 n=3 r=1", "field r= given twice"),
        ("matroid graphic vertices=-1 edges=0", "vertices=-1 is negative"),
        ("matroid linear q=2 rows=-1 cols=1", "rows=-1 is negative"),
    ],
)
def test_matroid_header_with_a_bad_field_exits_2(tmp_path, header, message):
    bad = tmp_path / "bad.matroid"
    bad.write_text(header + "\n1\n")
    code, out, err = run(["bw", "--matroid", str(bad)])
    assert (code, out, err) == (2, "", f"error: line 1: {message}\n")


def test_matroid_over_a_huge_field_is_refused_at_once(tmp_path):
    bad = tmp_path / "huge.matroid"
    bad.write_text("matroid linear q=1000000000000000003 rows=1 cols=1\n1\n")
    code, out, err = run(["bw", "--matroid", str(bad)])
    assert (code, out) == (2, "")
    assert err.startswith("error: line 1: q=1000000000000000003 exceeds"), err


def test_matroid_without_rows_but_with_columns_is_refused(tmp_path):
    bad = tmp_path / "loops.matroid"
    bad.write_text("# two loops\nmatroid linear q=2 rows=0 cols=2\n")
    code, out, err = run(["construct", "--matroid", str(bad)])
    assert code == 2
    assert out == ""
    assert err == "error: line 2: rows=0 cannot hold cols=2; loops need a zero row\n"


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


def test_dw_header_bound_below_1_exits_2(tmp_path):
    # two leaves of palette 2 under a palette-1 root: width 1, not 0
    path = tmp_path / "zero.dw"
    path.write_text(
        "dw version=1 n=2 K=0\nleaf 0 elem=0 loop=0\nleaf 1 elem=1 loop=0\n"
        "inner 2 left=0 right=1 kv=1\nroot 2\n"
    )
    code, out, err = run(["verify", str(path)])
    assert (code, out, err) == (2, "", "error: line 1: K=0 must be >= 1\n")


def test_bd_parse_error_names_its_line(tmp_path, u23_files):
    matroid, _ = u23_files
    bd = tmp_path / "bad.bd"
    bd.write_text("bd n=x\n")
    code, out, err = run(["construct", "--matroid", matroid, "--bd", str(bd)])
    assert code == 2
    assert out == ""
    assert err == "error: line 1: bad integer in 'n=x'\n"


def test_bd_with_a_huge_declared_n_is_refused(tmp_path, u23_files):
    matroid, _ = u23_files
    bd = tmp_path / "huge.bd"
    # n = 10**6 first: a missing count check then fails this test in about
    # a second instead of letting the 10**12 run allocate until killed
    bd.write_text("bd n=1000000\n")
    code, _, err = run(["construct", "--matroid", matroid, "--bd", str(bd)])
    assert (code, err) == (2, "error: line 1: n=1000000 needs 999998 node lines, found 0\n")
    bd.write_text("bd n=1000000000000\n")
    code, out, err = run(["construct", "--matroid", matroid, "--bd", str(bd)])
    assert code == 2
    assert out == ""
    assert err == "error: line 1: n=1000000000000 needs 999999999998 node lines, found 0\n"


@pytest.mark.parametrize(
    "where, strerror",
    [("missing/u23.dw", "No such file or directory"), ("", "Is a directory")],
)
def test_construct_to_an_unwritable_path_exits_2_without_a_traceback(u23_files, tmp_path, where, strerror):
    matroid, _ = u23_files
    target = str(tmp_path / where)
    code, out, err = run(["construct", "--matroid", matroid, "-o", target])
    assert (code, out) == (2, "")
    assert err == f"error: cannot write {target}: {strerror}\n"


def test_missing_file_exit_code():
    code, _, err = run(["verify", "/nonexistent/path.dw"])
    assert code == 2
    assert "error" in err


def test_usage_error_exit_code():
    code, _, _ = run(["rank"])  # missing required arguments
    assert code == 2
    code, _, _ = run(["no-such-command"])
    assert code == 2


def test_main_calls_in_one_process_are_independent(u23_files):
    # a usage error must leave nothing behind that changes the next call
    _, dw = u23_files
    first = run(["rank", dw, "--set", "0,2"])
    usage = run(["rank", dw])
    assert first == run(["rank", dw, "--set", "0,2"])
    assert first[:2] == (0, "2\n")
    assert usage[0] == 2 and "--set" in usage[2]
    assert run(["rank", dw]) == usage


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


# ---------------------------------------------------------------------------
# defects of a file or an argument: exit status and message, exactly
# ---------------------------------------------------------------------------

TWO_ELEMENTS = "dw version=1 n=2 K=1\nleaf 0 elem=0 loop=0\nleaf 1 elem=1 loop=0\ninner 2 left=0 right=1 kv=1\nroot 2\n"
U23 = format_matroid(u23())


def run_on(tmp_path, files, argv):
    """``run`` with each argument that names a key of ``files`` replaced by
    the path of a file holding its text."""
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return run([str(tmp_path / arg) if arg in files else arg for arg in argv])


def parallel_class_files(n):
    """A matroid of n parallel GF(2) elements and its decomposition."""
    m = MatroidInstance.linear(GF2, [[1] * n])
    dec = construct(m, root_tree(greedy_branch_decomposition(m)[0]))
    return {"m.matroid": format_matroid(m), "m.dw": serialize(dec)}


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("root 2", "inner 2 left=0 right=1 kv=1\nroot 2", "line 5: duplicate node id 2"),
        ("root 2", "root 2\nroot 2", "line 6: duplicate root line"),
        ("leaf 1 elem=1", "leaf 1 elem=5", "line 3: leaf element 5 outside 0..1"),
        ("kv=1", "kv=0", "line 4: kv=0 must be >= 1"),
        ("right=1", "right=7", "line 4: child 7 is undefined"),
        ("root 2", "root 9", "line 5: root 9 is not a node"),
        ("dw version=1 n=2", "# a comment\ndw version=1 n=3", "line 2: header declares n=3 but file has 2 leaves"),
    ],
    ids=[
        "duplicate-node",
        "duplicate-root",
        "leaf-element",
        "kv-0",
        "undefined-child",
        "root-not-a-node",
        "leaf-count-after-a-comment",
    ],
)
def test_dw_defects_exit_2_naming_their_line(tmp_path, old, new, message):
    text = TWO_ELEMENTS.replace(old, new)
    assert run_on(tmp_path, {"bad.dw": text}, ["verify", "bad.dw"]) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "files, argv, status, message",
    [
        (
            {"bad.matroid": "matroid uniform r=1 n=2\n1\n"},
            ["bw", "--matroid", "bad.matroid"],
            2,
            "error: line 2: uniform matroids take no body lines",
        ),
        (
            {"u23.matroid": U23, "bad.bd": "bd n=3\nnode 1 L0 L1\nnode 4 1 L2\nroot 4\n"},
            ["construct", "--matroid", "u23.matroid", "--bd", "bad.bd"],
            2,
            "error: line 2: inner node id 1 collides with leaf ids",
        ),
        ({"m.dw": TWO_ELEMENTS}, ["rank", "m.dw", "--set", "0,x"], 2, "error: bad element 'x' in --set"),
        (
            {"u23.matroid": U23, "m.dw": TWO_ELEMENTS},
            ["check", "m.dw", "--matroid", "u23.matroid"],
            1,
            "mismatch: matroid has 3 elements, decomposition 2",
        ),
        (
            parallel_class_files(21),
            ["check", "m.dw", "--matroid", "m.matroid", "--exhaustive"],
            2,
            "error: exhaustive check limited to n <= 20",
        ),
    ],
    ids=["matroid-body", "bd-inner-id", "rank-set", "check-sizes", "check-exhaustive"],
)
def test_matroid_bd_and_argument_defects_exit_with_their_message(tmp_path, files, argv, status, message):
    assert run_on(tmp_path, files, argv) == (status, "", message + "\n")


# ---------------------------------------------------------------------------
# fuzzing: mutated files never escape main
# ---------------------------------------------------------------------------


@functools.cache
def fuzz_corpus():
    """(kind, text, companion) for small files the writers produce.

    The companion is the matroid a ``.bd`` tree is constructed against, or
    the rooted tree a matroid is constructed over.
    """
    out = []
    for m in (u12(), u23(), parallel_coloop(), loops_and_parallels(), mk4_linear(), fano()):
        tree, _ = exact_branch_decomposition(m)
        rooted = root_tree(tree)
        out.append(("dw", serialize(construct(m, rooted)), None))
        out.append(("bd", format_branch_tree(tree), format_matroid(m)))
        out.append(("bd", format_branch_tree(rooted), format_matroid(m)))
        out.append(("matroid", format_matroid(m), format_branch_tree(rooted)))
    out.append(("matroid", format_matroid(c5_graphic()), None))
    out.append(("matroid", format_matroid(MatroidInstance.uniform(2, 4)), None))
    return out


FUZZ_COMMANDS = {
    "dw": [
        ["verify", "{file}"],
        ["rank", "{file}", "--set", "0,1"],
        ["tutte", "{file}"],
        ["tutte-eval", "{file}", "--x", "2", "--y", "2"],
        ["tutte-eval", "{file}", "--x", "1", "--y", "1", "--mod", "7"],
    ],
    "bd": [["construct", "--matroid", "{companion}", "--bd", "{file}"]],
    "matroid": [
        ["oracle-tutte", "--matroid", "{file}"],
        ["construct", "--matroid", "{file}", "--bd", "{companion}"],
    ],
}

# drawn integers stay small: a declared palette of 10^8 makes the .dw parser
# allocate dense tables of that size, which is a separate problem
FUZZ_KEYS = (
    "n", "K", "elem", "loop", "left", "right", "kv", "q", "rows", "cols", "r", "vertices", "edges"
)
FUZZ_TOKENS = st.one_of(
    st.integers(-2, 9).map(str),
    st.sampled_from(
        ["x", "L", "Lx", "L9", "L-1", "=", "n=", "1.5", "#", "version=2", "dw", "root", "node"]
    ),
    st.builds("{}={}".format, st.sampled_from(FUZZ_KEYS), st.integers(-2, 9)),
)


@st.composite
def mutated(draw, text):
    """``text`` with one to three token or line edits."""
    lines = [line.split() for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            lines.append([])
        i = draw(st.integers(0, len(lines) - 1))
        line = lines[i]
        edit = draw(st.sampled_from(("replace", "insert", "drop", "delete", "duplicate", "swap")))
        if edit == "replace" and line:
            line[draw(st.integers(0, len(line) - 1))] = draw(FUZZ_TOKENS)
        elif edit == "insert":
            line.insert(draw(st.integers(0, len(line))), draw(FUZZ_TOKENS))
        elif edit == "drop" and line:
            del line[draw(st.integers(0, len(line) - 1))]
        elif edit == "delete":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(i, list(line))
        elif edit == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(" ".join(tokens) for tokens in lines) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_files_never_escape_main(data):
    kind, text, companion = data.draw(st.sampled_from(fuzz_corpus()))
    bad = data.draw(mutated(text))
    with tempfile.TemporaryDirectory() as tmp:
        path, other = Path(tmp, "input"), Path(tmp, "companion")
        path.write_text(bad)
        other.write_text(companion or "")
        for argv in FUZZ_COMMANDS[kind]:
            code, _, _ = run([a.format(file=path, companion=other) for a in argv])
            assert code in (0, 1, 2)
