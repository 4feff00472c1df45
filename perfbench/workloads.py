"""The benchmark workloads: instances, the timed pipeline and its checks.

Each workload is built from the workload seed, runs one fixed pipeline per
instance (``run``, which times each step through the ``timed`` callable it
is given), and checks every step's output without timing it (``check``).
The pipelines call the library through module attributes (``dw.construct``,
``dw.kdecomp.parse``, ``dw.cli.main``, ...) so that the traced run can wrap
them from outside; ``instrument`` installs those wrappers.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
import re
import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import decompwidth as dw
import decompwidth.cli  # noqa: F401  (binds dw.cli)
import generators as gen

POINT = (Fraction(3, 2), Fraction(5, 3))  # generic: x - 1 and y - 1 are nonzero
MODULUS = 2_147_483_647  # prime; x - 1 = 1/2 is invertible modulo it
RANK_SAMPLES = 48


@dataclass
class Case:
    instance: gen.Instance
    samples: list[tuple[int, int]]  # (subset, oracle rank), the full set last
    files: dict[str, Path] = field(default_factory=dict)
    oracle: dict = field(default_factory=dict)

    @property
    def size_class(self) -> str:
        return self.instance.size_class


def _case(instance: gen.Instance, seed: int) -> Case:
    m = instance.matroid()
    rng = random.Random(f"{seed}:samples:{instance.name}")
    subsets = [rng.getrandbits(m.n) for _ in range(RANK_SAMPLES)] + [m.full_set]
    return Case(instance, [(s, m.rank(s)) for s in subsets])


def _ranks_ok(dec, case: Case) -> bool:
    return dec.n == case.instance.n and all(
        dw.eval_rank(dec, s) == r for s, r in case.samples
    )


def _residue(value: Fraction, mod: int) -> int:
    return value.numerator * pow(value.denominator, -1, mod) % mod


def _cli_value(value: Fraction) -> str:
    # the CLI prints integers bare and other rationals as p/q
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def decomposition_counts(decs) -> dict[str, int]:
    """Work sizes of constructed decompositions."""
    cells = palettes = width = 0
    for dec in decs:
        width = max(width, dw.dw_width(dec))
        for node in dec.nodes.values():
            if isinstance(node, dw.Inner):
                cells += len(node.color) * len(node.color[0])
                palettes += node.palette
            else:
                palettes += 2
    return {"construct.table_cells": cells, "kdecomp.width": width, "kdecomp.palette_sum": palettes}


NO_TUTTE_COUNTS = {"tutte.whitney_cells": 0, "tutte.coeff_terms": 0, "tutte.coeff_max_bits": 0}


def tutte_counts(tables, polys) -> dict[str, int]:
    return {
        "tutte.whitney_cells": sum(len(t.counts) for t in tables),
        "tutte.coeff_terms": sum(len(p.coeffs) for p in polys),
        "tutte.coeff_max_bits": max(
            (abs(c).bit_length() for p in polys for c in p.coeffs.values()), default=0
        ),
    }


class Workload:
    name: str
    steps: tuple[str, ...]
    cases: list[Case]
    warm: list[Case]  # small cases run once during set-up

    def finish(self, case: Case, out: dict) -> None:
        """Collect outputs that ``run`` left on disk; not timed."""


class TuttePlanted(Workload):
    """construct -> serialize -> parse -> verify -> Whitney -> to_tutte ->
    exact evaluate, on banded GF(2) matrices and ladders over their planted
    caterpillars."""

    name = "tutte-planted"
    steps = ("construct", "serialize", "parse", "verify", "whitney", "to_tutte", "evaluate")
    banded_n, ladder_k = 20, 16

    def __init__(self, seed: int, workdir: Path):
        self.cases = [_case(i, seed) for i in gen.tutte_planted(seed, self.banded_n, self.ladder_k)]
        self.warm = [_case(i, seed) for i in gen.tutte_planted(seed, 6, 3)]

    def run(self, case: Case, out: dict, timed) -> None:
        m = case.instance.matroid()
        dec = out["construct"] = timed("construct", dw.construct, m, case.instance.tree)
        text = out["serialize"] = timed("serialize", dw.kdecomp.serialize, dec)
        parsed = out["parse"] = timed("parse", dw.kdecomp.parse, text)
        result = timed("verify", dw.verify, parsed)
        out["verify"] = (result.is_matroid, result.reason)
        table = out["whitney"] = timed("whitney", dw.whitney_coefficients, parsed, check=False)
        out["to_tutte"] = timed("to_tutte", dw.to_tutte, table)
        out["evaluate"] = timed("evaluate", dw.evaluate, parsed, *POINT)

    def check(self, case: Case, out: dict) -> list[str]:
        n, full_rank = case.instance.n, case.samples[-1][1]
        ok = {}
        dec = out.get("construct")
        ok["construct"] = dec is not None and _ranks_ok(dec, case)
        ok["serialize"] = isinstance(out.get("serialize"), str)
        ok["parse"] = "parse" in out and out["parse"] == dec
        ok["verify"] = out.get("verify") == (True, None)
        table = out.get("whitney")
        ok["whitney"] = table is not None and table.total() == 2**n and table.r == full_rank
        poly = out.get("to_tutte")
        ok["to_tutte"] = poly is not None and poly.evaluate(2, 2) == 2**n
        if poly is not None and case.instance.bases is not None:
            ok["to_tutte"] &= poly.evaluate(1, 1) == case.instance.bases
        ok["evaluate"] = poly is not None and out.get("evaluate") == poly.evaluate(*POINT)
        return [step for step in self.steps if not ok[step]]

    def work_counts(self, outs: list[dict]) -> dict:
        counts = decomposition_counts(out["construct"] for out in outs)
        counts.update(tutte_counts([o["whitney"] for o in outs], [o["to_tutte"] for o in outs]))
        counts["kdecomp.text_bytes"] = sum(len(o["serialize"]) for o in outs)
        counts["verify.accepted"] = len(outs)
        counts["verify.rejected"] = 0
        counts["branchdecomp.width_excess"] = 0
        return counts


class VerifyCli(Workload):
    """In-process CLI: construct --bd -o, verify, tutte-eval exact and --mod,
    and verify on a copy with one defect entry raised, on random rank-3
    GF(3) matrices over balanced rooted trees."""

    name = "verify-cli"
    steps = ("construct", "verify", "tutte_exact", "tutte_mod", "verify_mutant")
    n = 16

    def __init__(self, seed: int, workdir: Path):
        self.cases = [self._prepare(i, seed, workdir) for i in gen.verify_cli(seed, self.n)]
        warmdir = workdir / "warm"
        warmdir.mkdir(exist_ok=True)
        self.warm = [self._prepare(i, seed, warmdir) for i in gen.verify_cli(seed, 8)]

    @staticmethod
    def _prepare(instance: gen.Instance, seed: int, workdir: Path) -> Case:
        case = _case(instance, seed)
        m = instance.matroid()
        stem = workdir / instance.name
        files = case.files
        files["matroid"] = stem.with_suffix(".matroid")
        files["matroid"].write_text(dw.format_matroid(m), encoding="utf-8")
        files["bd"] = stem.with_suffix(".bd")
        files["bd"].write_text(dw.format_branch_tree(instance.tree), encoding="utf-8")
        files["dw"] = stem.with_suffix(".dw")
        dec = dw.construct(m, instance.tree)
        mutant = gen.raise_defect(dec, gen.mutation_site(dec, m, seed))
        files["mutant"] = stem.with_name(stem.name + "-mutant.dw")
        files["mutant"].write_text(dw.kdecomp.serialize(mutant), encoding="utf-8")
        exact = dw.to_tutte(dw.whitney_coefficients(dec, check=False)).evaluate(*POINT)
        case.oracle.update(exact=exact, mutant=mutant)
        return case

    @staticmethod
    def _cli(*argv) -> tuple[int, str, str]:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = dw.cli.main([str(a) for a in argv])
        return status, stdout.getvalue(), stderr.getvalue()

    def run(self, case: Case, out: dict, timed) -> None:
        f = case.files
        x, y = (f"{v.numerator}/{v.denominator}" for v in POINT)
        argv = {
            "construct": ("construct", "--matroid", f["matroid"], "--bd", f["bd"], "-o", f["dw"]),
            "verify": ("verify", f["dw"]),
            "tutte_exact": ("tutte-eval", f["dw"], "--x", x, "--y", y),
            "tutte_mod": ("tutte-eval", f["dw"], "--x", x, "--y", y, "--mod", MODULUS),
            "verify_mutant": ("verify", f["mutant"]),
        }
        for step in self.steps:
            out[step] = timed(step, self._cli, *argv[step])

    def finish(self, case: Case, out: dict) -> None:
        out["dw_text"] = case.files["dw"].read_text(encoding="utf-8")

    def check(self, case: Case, out: dict) -> list[str]:
        ok = dict.fromkeys(self.steps, False)
        if out.get("construct", (None,))[0] == 0:
            try:
                ok["construct"] = _ranks_ok(dw.kdecomp.parse(out["dw_text"]), case)
            except dw.ParseError:
                pass
        ok["verify"] = out.get("verify", (None,))[:2] == (0, "matroid\n")
        exact = case.oracle["exact"]
        ok["tutte_exact"] = out.get("tutte_exact", (None,))[:2] == (0, _cli_value(exact) + "\n")
        ok["tutte_mod"] = out.get("tutte_mod", (None,))[:2] == (0, f"{_residue(exact, MODULUS)}\n")
        mutant_run = out.get("verify_mutant")
        ok["verify_mutant"] = isinstance(mutant_run, tuple) and self._witness_replays(
            case.oracle["mutant"], *mutant_run
        )
        return [step for step in self.steps if not ok[step]]

    @staticmethod
    def _witness_replays(mutant, status: int, stdout: str, stderr: str) -> bool:
        """Exit 1 with witness sets A, B that violate the printed axiom."""
        found = re.fullmatch(
            r"not matroid: (submodularity|monotonicity) \(.*\)\nA=\{([\d,]*)\}\nB=\{([\d,]*)\}\n",
            stdout,
        )
        if status != 1 or not found:
            return False
        a, b = (sum(1 << int(e) for e in part.split(",") if e) for part in found.group(2, 3))

        def rank(subset: int) -> int:
            return dw.eval_rank(mutant, subset)

        if found.group(1) == "submodularity":
            return rank(a) + rank(b) < rank(a | b) + rank(a & b)
        return a & ~b == 0 and rank(a) > rank(b)

    def work_counts(self, outs: list[dict]) -> dict:
        counts = decomposition_counts(dw.kdecomp.parse(o["dw_text"]) for o in outs)
        counts.update(NO_TUTTE_COUNTS)
        counts["kdecomp.text_bytes"] = sum(len(o["dw_text"]) for o in outs)
        counts["verify.accepted"] = len(outs)
        counts["verify.rejected"] = len(outs)
        counts["branchdecomp.width_excess"] = 0
        return counts


class SearchShuffled(Workload):
    """search -> root_tree -> construct -> verify -> evaluate mod p, on
    column-shuffled banded GF(3) matrices (greedy search) and random n = 9
    matroids (exact search)."""

    name = "search-shuffled"
    steps = ("search", "root_tree", "construct", "verify", "evaluate")
    n, shuffles, smalls = 10, 4, 4

    def __init__(self, seed: int, workdir: Path):
        self.cases = [_case(i, seed) for i in gen.search_shuffled(seed, self.n, self.shuffles, self.smalls)]
        self.warm = [_case(i, seed) for i in gen.search_shuffled(seed, 4, 1, 1)]

    def run(self, case: Case, out: dict, timed) -> None:
        m = case.instance.matroid()
        search = dw.exact_branch_decomposition if m.n <= 9 else dw.greedy_branch_decomposition
        tree, _ = out["search"] = timed("search", search, m)
        rooted = out["root_tree"] = timed("root_tree", dw.root_tree, tree)
        dec = out["construct"] = timed("construct", dw.construct, m, rooted)
        result = timed("verify", dw.verify, dec)
        out["verify"] = (result.is_matroid, result.reason)
        out["evaluate"] = timed("evaluate", dw.evaluate, dec, *POINT, mod=MODULUS)

    def check(self, case: Case, out: dict) -> list[str]:
        ok = dict.fromkeys(self.steps, False)
        if "search" in out:
            tree, w = out["search"]
            ok["search"] = tree.n == case.instance.n and dw.width(case.instance.matroid(), tree) == w
        rooted = out.get("root_tree")
        ok["root_tree"] = rooted is not None and rooted.subtree_masks()[rooted.root] == (1 << case.instance.n) - 1
        dec = out.get("construct")
        ok["construct"] = dec is not None and _ranks_ok(dec, case)
        ok["verify"] = out.get("verify") == (True, None)
        if dec is not None and "evaluate" in out:
            ok["evaluate"] = out["evaluate"] == _residue(dw.evaluate(dec, *POINT), MODULUS)
        return [step for step in self.steps if not ok[step]]

    def work_counts(self, outs: list[dict]) -> dict:
        counts = decomposition_counts(o["construct"] for o in outs)
        counts.update(NO_TUTTE_COUNTS)
        counts["kdecomp.text_bytes"] = 0
        counts["verify.accepted"] = len(outs)
        counts["verify.rejected"] = 0
        # widths below the planted bound do not offset widths above it
        counts["branchdecomp.width_excess"] = sum(
            max(0, o["search"][1] - c.instance.planted_width)
            for c, o in zip(self.cases, outs)
            if c.instance.planted_width is not None
        )
        return counts


WORKLOADS = {w.name: w for w in (TuttePlanted, VerifyCli, SearchShuffled)}


def instrument(tracer) -> None:
    """Wrap each layer's public functions for the traced passes.

    The package re-exports ``construct`` and ``verify`` under the names of
    their modules, so the modules are looked up in ``sys.modules``.
    """
    module = importlib.import_module
    branchdecomp, construct, kdecomp, matroids, tutte, verify = (
        module(f"decompwidth.{name}")
        for name in ("branchdecomp", "construct", "kdecomp", "matroids", "tutte", "verify")
    )
    for owner, fnames in ((construct, ("rref", "hull", "intersect")), (matroids, ("rref",))):
        for fname in fnames:
            tracer.patch(owner, fname, tracer.counted("gf", getattr(owner, fname)))
    queried = weakref.WeakKeyDictionary()

    def repeat(m, subset) -> bool:
        seen = queried.setdefault(m, set())
        if subset in seen:
            return True
        seen.add(subset)
        return False

    cls = matroids.MatroidInstance
    tracer.patch(cls, "rank", tracer.counted("matroids.rank", cls.rank, hit=repeat))

    spans = [
        ("branchdecomp.greedy", branchdecomp, "greedy_branch_decomposition", (dw,)),
        ("branchdecomp.exact", branchdecomp, "exact_branch_decomposition", (dw,)),
        ("construct", construct, "construct", (dw, dw.cli)),
        ("kdecomp.serialize", kdecomp, "serialize", ()),
        ("kdecomp.parse", kdecomp, "parse", ()),
        ("verify", verify, "verify", (dw, dw.cli, tutte)),
        ("verify.witness", verify, "extract_witness", (dw, dw.cli)),
        ("tutte.whitney", tutte, "whitney_coefficients", (dw,)),
        ("tutte.to_tutte", tutte, "to_tutte", (dw,)),
    ]
    for name, home, fname, aliases in spans:
        wrapper = tracer.spanned(name, getattr(home, fname))
        for owner in (home, *aliases):
            tracer.patch(owner, fname, wrapper)
    evaluate = tracer.spanned(
        lambda *a, mod=None, **k: "tutte.evaluate_exact" if mod is None else "tutte.evaluate_mod",
        tutte.evaluate,
    )
    for owner in (tutte, dw):
        tracer.patch(owner, "evaluate", evaluate)
    main = tracer.spanned(lambda argv: "cli." + argv[0].replace("-", "_"), dw.cli.main)
    tracer.patch(dw.cli, "main", main)
