"""Command-line interface.

Exit status: 0 on success (including a "matroid" verdict and passing
checks), 1 when a verification or cross-check fails or standard output
closes early (as with ``| head``; no traceback), 2 on usage or parse
errors.  All output is deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import os
import random
import re
import sys
from fractions import Fraction

from . import branchdecomp, kdecomp, matroids, tutte
from .construct import construct
from .errors import ParseError
from .verify import extract_witness, verify

# the largest n whose search defaults to exact; asked for, the exact search
# runs to n = 20, at up to 3^n splits
_DEFAULT_EXACT_LIMIT = 9


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(0, f"cannot read {path}: {exc.strerror}") from None


def _load_matroid(path: str) -> matroids.MatroidInstance:
    return matroids.parse_matroid(_read(path))


def _load_decomposition(path: str) -> kdecomp.KDecomposition:
    return kdecomp.parse(_read(path))


def _reject_structure(dec: kdecomp.KDecomposition) -> bool:
    """Report the first structural defect on stderr; True when there is one."""
    defect = kdecomp.validate_structure(dec)
    if defect is not None:
        print(f"not matroid: structure ({defect})", file=sys.stderr)
    return defect is not None


def _parse_set(text: str, n: int) -> int:
    mask = 0
    if text.strip() == "":
        return 0
    for part in text.split(","):
        try:
            e = int(part)
        except ValueError:
            raise ValueError(f"bad element {part!r} in --set") from None
        if not 0 <= e < n:
            raise ValueError(f"element {e} outside 0..{n - 1}")
        mask |= 1 << e
    return mask


def _parse_rational(text: str) -> Fraction:
    # integers and p/q only; no decimal or float forms
    if not re.fullmatch(r"[+-]?\d+(/[1-9]\d*)?", text.strip()):
        raise ValueError(f"bad rational {text!r}; use an integer or p/q")
    return Fraction(text)


def _format_value(value) -> str:
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def _format_set(mask: int) -> str:
    return "{" + ",".join(str(e) for e in matroids.iter_elements(mask)) + "}"


def _pick_tree(m: matroids.MatroidInstance, mode: str | None):
    if mode is None:
        mode = "exact" if m.n <= _DEFAULT_EXACT_LIMIT else "greedy"
    if mode == "exact":
        return branchdecomp.exact_branch_decomposition(m)
    return branchdecomp.greedy_branch_decomposition(m)


def _cmd_construct(args) -> int:
    m = _load_matroid(args.matroid)
    if args.bd is not None:
        tree = branchdecomp.parse_branch_tree(_read(args.bd))
    else:
        tree, _ = _pick_tree(m, args.bd_search)
    if isinstance(tree, branchdecomp.BranchTree):
        tree = branchdecomp.root_tree(tree)
    dec = construct(m, tree)
    text = kdecomp.serialize(dec)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write {args.output}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args) -> int:
    dec = _load_decomposition(args.decomposition)
    result = verify(dec)
    if result:
        print("matroid")
        for e in result.loop_flag_mismatches:
            print(f"# note: loop flag of element {e} disagrees with its rank")
        return 0
    print(f"not matroid: {result.reason} ({result.detail})")
    if result.reason in ("submodularity", "monotonicity"):
        a, b = extract_witness(dec, result)
        print(f"A={_format_set(a)}")
        print(f"B={_format_set(b)}")
    return 1


def _cmd_rank(args) -> int:
    dec = _load_decomposition(args.decomposition)
    if _reject_structure(dec):
        return 1
    mask = _parse_set(args.set, dec.n)
    print(kdecomp.eval_rank(dec, mask))
    return 0


def _cmd_tutte(args) -> int:
    dec = _load_decomposition(args.decomposition)
    result = verify(dec)
    if not result:
        print(f"not matroid: {result.reason} ({result.detail})", file=sys.stderr)
        return 1
    table = tutte.whitney_coefficients(dec, check=False)
    if args.basis == "whitney":
        for (size, rank), count in sorted(table.counts.items()):
            print(f"N {size} {rank} {count}")
    else:
        poly = tutte.to_tutte(table)
        for (i, j), coeff in sorted(poly.coeffs.items()):
            print(f"t {i} {j} {coeff}")
    return 0


def _cmd_tutte_eval(args) -> int:
    dec = _load_decomposition(args.decomposition)
    if _reject_structure(dec):
        return 1
    x = _parse_rational(args.x)
    y = _parse_rational(args.y)
    value = tutte.evaluate(dec, x, y, mod=args.mod)
    print(_format_value(value))
    return 0


def _cmd_bw(args) -> int:
    m = _load_matroid(args.matroid)
    tree, w = _pick_tree(m, "exact" if args.exact else "greedy")
    print(f"# width {w}")
    sys.stdout.write(branchdecomp.format_branch_tree(tree))
    return 0


def _cmd_check(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    dec = _load_decomposition(args.decomposition)
    if _reject_structure(dec):
        return 1
    m = _load_matroid(args.matroid)
    if m.n != dec.n:
        print(f"mismatch: matroid has {m.n} elements, decomposition {dec.n}", file=sys.stderr)
        return 1
    if args.exhaustive and dec.n > matroids._FULL_TABLE_LIMIT:
        raise ValueError(f"exhaustive check limited to n <= {matroids._FULL_TABLE_LIMIT}")
    oracle = m.rank
    if args.exhaustive or 1 << dec.n <= args.samples:
        # sampling would repeat subsets: check each one once instead
        subsets = range(1 << dec.n)
        checked = 1 << dec.n
        if dec.n <= matroids._FULL_TABLE_LIMIT:
            oracle = matroids.rank_table(m).__getitem__
    else:
        rng = random.Random(args.seed)
        subsets = (rng.randrange(1 << dec.n) for _ in range(args.samples))
        checked = args.samples
    for subset in subsets:
        got = kdecomp.eval_rank(dec, subset)
        want = oracle(subset)
        if got != want:
            print(
                f"mismatch set={_format_set(subset)} decomposition={got} oracle={want}"
            )
            return 1
    print(f"ok {checked} subsets")
    return 0


def _cmd_oracle_tutte(args) -> int:
    m = _load_matroid(args.matroid)
    table = tutte.brute_whitney(m)
    for (size, rank), count in sorted(table.counts.items()):
        print(f"N {size} {rank} {count}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decompwidth",
        description="Matroid decompositions: build, verify, evaluate ranks and Tutte polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a decomposition from a represented matroid")
    p.add_argument("--matroid", required=True, help="matroid file (linear backend)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--bd", help="branch-decomposition file to use")
    group.add_argument(
        "--bd-search",
        choices=("exact", "greedy"),
        help=f"search strategy (default: exact for n <= {_DEFAULT_EXACT_LIMIT}, greedy beyond)",
    )
    p.add_argument("-o", "--output", help="output decomposition file (default: stdout)")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="decide whether a decomposition defines a matroid")
    p.add_argument("decomposition")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("rank", help="evaluate the rank of a subset")
    p.add_argument("decomposition")
    p.add_argument("--set", required=True, help="comma-separated elements, empty for {}")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("tutte", help="Tutte polynomial coefficients")
    p.add_argument("decomposition")
    p.add_argument("--basis", choices=("whitney", "xy"), default="whitney")
    p.set_defaults(func=_cmd_tutte)

    p = sub.add_parser("tutte-eval", help="evaluate the Tutte polynomial at a point")
    p.add_argument("decomposition")
    p.add_argument("--x", required=True, help="rational; use --x=-3/7 for negatives")
    p.add_argument("--y", required=True, help="rational")
    p.add_argument("--mod", type=int, help="compute the residue modulo this value")
    p.set_defaults(func=_cmd_tutte_eval)

    p = sub.add_parser("bw", help="search a branch decomposition and report its width")
    p.add_argument("--matroid", required=True)
    p.add_argument("--exact", action="store_true", help=f"exact search (n <= {matroids._FULL_TABLE_LIMIT})")
    p.set_defaults(func=_cmd_bw)

    p = sub.add_parser("check", help="compare decomposition ranks against the matroid oracle")
    p.add_argument("decomposition")
    p.add_argument("--matroid", required=True)
    p.add_argument("--exhaustive", action="store_true", help=f"all 2^n subsets (n <= {matroids._FULL_TABLE_LIMIT})")
    p.add_argument(
        "--samples",
        type=int,
        default=1000,
        help="random subsets when not exhaustive; every subset once when 2^n <= SAMPLES",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("oracle-tutte", help="brute-force size/rank table of a matroid")
    p.add_argument("--matroid", required=True)
    p.set_defaults(func=_cmd_oracle_tutte)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: drop what is still buffered, so exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
