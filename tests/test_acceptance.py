"""Acceptance criteria, one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -s`` to see the report lines.
"""

import gc
import io
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from conftest import (
    brute_axiom_check,
    c5_linear,
    construct_exact,
    fano,
    galois_number,
    label_mismatch,
    loop_coloop,
    loops_and_parallels,
    mk4_linear,
    mutate_tables,
    named_corpus,
    parallel_coloop,
    path_caterpillar_decomposition,
    random_gf2_instances,
    u12,
    u23,
)
from decompwidth import (
    brute_whitney,
    dw_width,
    eval_rank,
    evaluate,
    exact_branch_decomposition,
    to_tutte,
    verify,
    whitney_coefficients,
)
from decompwidth.cli import main as cli_main
from decompwidth.kdecomp import Inner, KDecomposition, Leaf, serialize
from decompwidth.verify import _submodularity_tables

MOD = 1000000007


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{criterion}: {detail}"


def width_cap(q, k):
    # decomposition-width bound for represented matroids of branch-width k
    return (q ** (k + 1) - q * (k + 1) + k) // (q - 1) ** 2


def test_criterion_1_exhaustive_rank_fidelity():
    started = time.perf_counter()
    checked_subsets = 0
    for name, m, oracle in named_corpus():
        dec, _ = construct_exact(m)
        for subset in range(1 << m.n):
            if eval_rank(dec, subset) != oracle.rank(subset):
                report("C1", False, f"{name}: rank mismatch on subset {subset:#x}")
        checked_subsets += 1 << m.n
    elapsed = time.perf_counter() - started
    report(
        "C1",
        elapsed < 30.0,
        f"{checked_subsets} subsets across {len(named_corpus())} instances, "
        f"all exact, in {elapsed:.2f}s (< 30s)",
    )


def test_criterion_2_width_bounds():
    lines = []
    ok = True
    for name, m, _ in named_corpus():
        tree, k = exact_branch_decomposition(m)
        dec, _ = construct_exact(m)
        observed = dw_width(dec)
        q = m.field.q
        k_eff = max(k, 1)  # the construction bound assumes branch-width >= 1
        if observed + 1 > galois_number(k_eff, q):
            ok = False
            lines.append(f"{name}: K+1={observed + 1} exceeds G_{q}({k_eff})")
        if k_eff <= 2:
            cap = width_cap(q, k_eff)
            if observed > cap:
                ok = False
                lines.append(f"{name}: K={observed} exceeds the k<=2 cap {cap}")
        else:
            cap = width_cap(q, k_eff)
            lines.append(
                f"info {name}: k={k}, K={observed}, width cap {cap} "
                f"{'holds' if observed <= cap else 'EXCEEDED'}, "
                f"subspace count {galois_number(k_eff, q)}"
            )
    for line in lines:
        print(f"  {line}")
    u23_k = dw_width(construct_exact(u23())[0])
    fano_k = dw_width(construct_exact(fano())[0])
    if u23_k > 1 or fano_k > 4:
        ok = False
    report("C2", ok, f"u23 K={u23_k} (<=1), fano K={fano_k} (<=4), all bounds hold")


def test_criterion_3_verification_soundness():
    for name, m, _ in named_corpus():
        dec, _ = construct_exact(m)
        if not verify(dec).is_matroid:
            report("C3", False, f"constructed decomposition for {name} rejected")

    rng = random.Random(20260810)
    small = [
        ("u12", u12()),
        ("u23", u23()),
        ("loop-coloop", loop_coloop()),
        ("parallel-coloop", parallel_coloop()),
        ("loops-parallels", loops_and_parallels()),
        ("c5", c5_linear()),
        ("mk4", mk4_linear()),
        ("fano", fano()),
    ] + random_gf2_instances(count=2)
    mutations = 0
    rejected = 0
    for name, m in small:
        base, _ = construct_exact(m)
        for _ in range(30):
            dec = mutate_tables(base, rng)
            result = verify(dec)
            table = [eval_rank(dec, s) for s in range(1 << dec.n)]
            brute = brute_axiom_check(table)
            if result.is_matroid != brute.valid:
                report(
                    "C3",
                    False,
                    f"{name}: verify={result.is_matroid} ({result.reason}) "
                    f"but brute={brute.valid} ({brute.kind})",
                )
            mutations += 1
            rejected += not result.is_matroid

    # the documented case submodularity alone cannot see: r{a}=r{b}=1, r{ab}=0
    mono_only = KDecomposition(
        2,
        {
            0: Leaf(0, False),
            1: Leaf(1, False),
            2: Inner((0, 1), 1, [[0, 0], [0, 0]], [[0, 0], [0, 2]]),
        },
        2,
    )
    result = verify(mono_only)
    brute = brute_axiom_check([eval_rank(mono_only, s) for s in range(4)])
    submod_root = _submodularity_tables(mono_only)[0]
    if result.is_matroid or brute.valid or result.reason != "monotonicity":
        report("C3", False, "monotonicity-only case not classified correctly")
    if any(v < 0 for v in submod_root.values()):
        report("C3", False, "monotonicity-only case wrongly flagged by the submodularity pass")
    mutations += 1
    rejected += 1
    report(
        "C3",
        mutations >= 200,
        f"{mutations} mutations (>= 200), verdicts agree with brute force on all; "
        f"{rejected} rejected, incl. the monotonicity-only case",
    )


def test_criterion_4_tutte_fidelity():
    rng = random.Random(4)
    points_checked = 0
    for name, m, oracle in named_corpus():
        if m.n > 14:
            continue
        dec, _ = construct_exact(m)
        ours = whitney_coefficients(dec, check=False)
        brute = brute_whitney(oracle)
        if ours.counts != brute.counts or ours.r != brute.r:
            report("C4", False, f"{name}: size/rank table differs from brute force")
        if evaluate(dec, 2, 2) != 1 << m.n:
            report("C4", False, f"{name}: T(2,2) != 2^n")
        poly = to_tutte(ours)
        for _ in range(25):
            x = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
            y = Fraction(rng.randint(-8, 8), rng.randint(1, 6))
            if evaluate(dec, x, y) != poly.evaluate(x, y):
                report("C4", False, f"{name}: point evaluation differs at ({x}, {y})")
            points_checked += 1
    fano_bases = evaluate(construct_exact(fano())[0], 1, 1)
    mk4_trees = evaluate(construct_exact(mk4_linear())[0], 1, 1)
    if (fano_bases, mk4_trees) != (28, 16):
        report("C4", False, f"basis counts ({fano_bases}, {mk4_trees}) != (28, 16)")
    report(
        "C4",
        True,
        f"tables match brute force on every instance; T(1,1): fano=28, mk4=16; "
        f"T(2,2)=2^n; {points_checked} random rational points agree exactly",
    )


def test_criterion_5_color_interchangeability():
    nodes_checked = 0
    for name, m, _ in named_corpus():
        if m.n > 8:
            continue
        # labels that are subtree ranks make same-colored subsets
        # interchangeable against the outside (see label_mismatch)
        dec, _ = construct_exact(m)
        mismatch = label_mismatch(dec, m)
        if mismatch is not None:
            subset, node_id = mismatch
            report("C5", False, f"{name} node {node_id}: label of {subset:#x} is not its rank")
        nodes_checked += len(dec.nodes)
    report("C5", True, f"{nodes_checked} nodes, zero counterexamples")


@pytest.fixture(scope="module")
def path_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("paths")
    files = {}
    for n in (10**4, 2 * 10**4, 4 * 10**4, 8 * 10**4):
        path = tmp / f"path{n}.dw"
        path.write_text(serialize(path_caterpillar_decomposition(n)))
        files[n] = str(path)
    return files


def test_criterion_6_evaluation_scaling(path_files):
    sizes = sorted(path_files)
    walls, cpus = [], []
    for n in sizes:
        best_wall = best_cpu = None
        for _ in range(2):  # best-of-2 damps scheduler and GC noise
            gc.collect()
            buf = io.StringIO()
            wall, cpu = time.perf_counter(), time.process_time()
            with redirect_stdout(buf):
                code = cli_main(
                    ["tutte-eval", path_files[n], "--x", "2", "--y", "3", "--mod", str(MOD)]
                )
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            if code != 0 or int(buf.getvalue()) != pow(2, n, MOD):
                report("C6", False, f"n={n}: wrong exit code or value")
            if wall >= 5.0:
                report("C6", False, f"n={n}: took {wall:.2f}s (>= 5s)")
            best_wall = wall if best_wall is None else min(best_wall, wall)
            best_cpu = cpu if best_cpu is None else min(best_cpu, cpu)
        walls.append(best_wall)
        cpus.append(best_cpu)
    # sizes double step to step, so a linear trend doubles the raw time;
    # the trend check compares per-element time, flagging anything
    # super-linear (a quadratic step would score 2.0).  It reads the CPU
    # time of this process, which other processes on the machine do not
    # inflate as they do the wall clock.
    ratios = [(cpus[i + 1] / cpus[i]) / 2 for i in range(len(cpus) - 1)]
    ok = all(r < 1.6 for r in ratios)
    report(
        "C6",
        ok,
        "wall/cpu times "
        + ", ".join(f"n={n}: {w:.2f}s/{c:.2f}s" for n, w, c in zip(sizes, walls, cpus))
        + "; per-element cpu ratios "
        + ", ".join(f"{r:.2f}" for r in ratios)
        + " (< 1.6)",
    )


def test_criterion_7_verification_scaling():
    dec = path_caterpillar_decomposition(10**4)
    k = dw_width(dec)
    started = time.perf_counter()
    result = verify(dec)
    elapsed = time.perf_counter() - started
    report(
        "C7",
        result.is_matroid and elapsed < 60.0 and k <= 2,
        f"n=10^4, K={k} (<= 2), verdict matroid in {elapsed:.2f}s (< 60s)",
    )
