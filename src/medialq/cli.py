"""Command-line surface: count, enumerate, export, verify, crosscheck, interpolate.

Exit codes: 0 on success/agreement, 1 on usage errors (including requests
outside the supported parameter range), 2 when an internal cross-check
disagrees -- so CI can tell a broken invocation from mathematics going wrong.
All numeric output is exact decimal integers.

Only what most commands share is imported here; a command that builds
tables imports `quasigroup`, and `crosscheck` imports `oracle` and `json`,
when it runs, so no command loads code it does not use.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from itertools import count, takewhile
from pathlib import Path

from .fp import Prime, _least_factor
from .enumeration import (
    MAX_COMPOSITE_ORDER,
    closed_form_cyclic,
    closed_form_order_p2,
    closed_form_zp2,
    count_composite,
    enumerate_blocks,
    enumerate_forms,
    factorize,
    group_label,
    interpolate_count_polynomial,
)
from .groups import Cyclic, ElemAbelianRank2, _matrix_entries

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2

# Bounds for the automatic enumeration cross-check in `count`.
MAX_ENUM_CYCLIC_ORDER = 300
MAX_ENUM_ZP2_PRIME = 11

# Bounds on what enumerate, export, crosscheck and verify accept, checked
# before any work.
MAX_ZP2_PRIME = 13
MAX_CYCLIC_ORDER = 1024
MAX_TABLE_ORDER = 81


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags by default; 2 is reserved
    # for verdict mismatches here, so usage errors are remapped to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _jobs(value: str) -> int:
    try:
        jobs = int(value)
    except ValueError:
        jobs = 0  # not an integer: refused below
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {value!r}")
    return jobs


def _build_parser() -> _Parser:
    parser = _Parser(prog="medialq", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group_args(p, groups):
        p.add_argument("--group", required=True, choices=groups)
        p.add_argument("--p", type=int, required=True)
        p.add_argument("--k", type=int, default=1)

    def add_jobs_arg(p):
        # --jobs is a cap on processes; no command starts a second one.
        p.add_argument(
            "--jobs", type=_jobs, default=1, metavar="N",
            help="at most N processes (N >= 1): this command runs in one at any N",
        )

    p_count = sub.add_parser("count", help="closed-form counts, cross-checked by enumeration where feasible")
    p_count.add_argument("--group", required=True, choices=["zp2", "cyclic", "order-p2", "n"])
    p_count.add_argument("--p", type=int)
    p_count.add_argument("--k", type=int, default=1)
    p_count.add_argument("--n", type=int)

    p_enum = sub.add_parser("enumerate", help="stream the representative triples")
    add_group_args(p_enum, ["zp2", "cyclic"])
    p_enum.add_argument("--tables", action="store_true", help="embed Cayley tables")
    p_enum.add_argument("--format", choices=["jsonl", "text"], default="jsonl")
    add_jobs_arg(p_enum)

    p_export = sub.add_parser("export", help="write one Cayley-table text file per representative")
    add_group_args(p_export, ["zp2", "cyclic"])
    p_export.add_argument("--out", required=True)
    add_jobs_arg(p_export)

    p_verify = sub.add_parser("verify", help="report Latin/medial/idempotent status of stored tables")
    p_verify.add_argument("--in", dest="infile", required=True)

    p_cross = sub.add_parser("crosscheck", help="validate the enumerator against the brute-force oracle")
    add_group_args(p_cross, ["zp2", "cyclic"])
    add_jobs_arg(p_cross)

    p_interp = sub.add_parser("interpolate", help="interpolate count polynomials from the first N primes")
    p_interp.add_argument("--series", required=True, choices=["zp2", "order-p2", "cyclic"])
    p_interp.add_argument("--k", type=int, default=1)
    p_interp.add_argument("--primes", type=int, required=True)

    return parser


def _prime(value) -> Prime:
    if value is None:
        raise UsageError("--p is required for this group")
    try:
        return Prime(value)
    except ValueError as exc:
        raise UsageError(str(exc))


def _no_exponent(args, where: str):
    # --k defaults to 1; any other value would be silently ignored here.
    if args.k != 1:
        raise UsageError(f"--k applies only to cyclic groups, not to {where}")


def _power_within(p: int, k: int, bound: int) -> bool:
    """Whether p^k <= bound; for p >= 2 any k of the bound's bit length or more exceeds it."""
    return p ** min(k, bound.bit_length()) <= bound


def _group(args):
    p = _prime(args.p)
    if args.group == "zp2":
        _no_exponent(args, "--group zp2")
        if p > MAX_ZP2_PRIME:
            raise UsageError(f"--group zp2 is supported up to the bound p <= {MAX_ZP2_PRIME}")
        return ElemAbelianRank2(p)
    if args.k < 1:
        raise UsageError("--k must be >= 1")
    if not _power_within(p, args.k, MAX_CYCLIC_ORDER):
        raise UsageError(f"--group cyclic is supported up to the bound p^k <= {MAX_CYCLIC_ORDER}")
    return Cyclic(p, args.k)


def _file_io(fn, *args, **kwargs):
    """fn(*args, **kwargs), with an OSError from the file system reported as a usage error."""
    try:
        return fn(*args, **kwargs)
    except OSError as exc:
        raise UsageError(str(exc))


def _check_table_order(n: int):
    if n > MAX_TABLE_ORDER:
        raise UsageError(f"tables of order {n} exceed the bound n <= {MAX_TABLE_ORDER}")


def _primes():
    """The primes in ascending order, without end, as ints."""
    return (n for n in count(2) if _least_factor(n) == n)


def _check_line(name: str, closed: int, enumerated) -> bool:
    if enumerated is None:
        print(f"{name} = {closed}  [closed form; enumeration skipped]")
        return True
    verdict = "match" if closed == enumerated else "MISMATCH"
    print(f"{name} = {closed}  enumerated {enumerated}  [{verdict}]")
    return closed == enumerated


def _cmd_count(args) -> int:
    if args.group != "cyclic":
        _no_exponent(args, f"--group {args.group}")
    if args.group == "n":
        if args.n is None:
            raise UsageError("--n is required with --group n")
        if args.p is not None:
            raise UsageError("--p does not apply to --group n, whose order is --n")
        total = count_composite(args.n)  # ValueError for exponents >= 3
        parts = " * ".join(
            f"mq({p}^{k})" if k > 1 else f"mq({p})" for p, k in factorize(args.n)
        )
        print(f"mq({args.n}) = {total}")
        if parts:
            print(f"  = {parts}")
        return EXIT_OK
    if args.n is not None:
        raise UsageError(f"--n applies only to --group n, not to --group {args.group}")

    p = _prime(args.p)
    ok = True
    if args.group == "cyclic":
        if not _power_within(p, args.k, MAX_COMPOSITE_ORDER):
            raise UsageError(f"--group cyclic is counted up to the bound p^k <= {MAX_COMPOSITE_ORDER}")
        G = Cyclic(p, args.k)
        closed = closed_form_cyclic(p, args.k)
        enumerated = enumerate_forms(G).total if G.order <= MAX_ENUM_CYCLIC_ORDER else None
        ok = _check_line(f"mq({G})", closed, enumerated)
    elif args.group == "zp2":
        G = ElemAbelianRank2(p)
        closed = closed_form_zp2(p)
        enumerated = enumerate_forms(G).total if p <= MAX_ENUM_ZP2_PRIME else None
        ok = _check_line(f"mq({G})", closed, enumerated)
    else:  # order-p2
        closed = closed_form_order_p2(p)
        print(f"mq({p}^2) = {closed}")
        if p <= MAX_ENUM_ZP2_PRIME:
            cyc = enumerate_forms(Cyclic(p, 2)).total
            vec = enumerate_forms(ElemAbelianRank2(p)).total
            ok = _check_line(f"  mq({Cyclic(p, 2)})", closed_form_cyclic(p, 2), cyc)
            ok = _check_line(f"  mq({ElemAbelianRank2(p)})", closed_form_zp2(p), vec) and ok
            verdict = "match" if cyc + vec == closed else "MISMATCH"
            print(f"sum check: {cyc} + {vec} = {cyc + vec}  [{verdict}]")
            ok = ok and cyc + vec == closed
        else:
            print("  [closed form; enumeration skipped]")
    return EXIT_OK if ok else EXIT_MISMATCH


def _pair(c) -> str:
    return f"{c[0]}, {c[1]}"


def _block_tables(G, block) -> list:
    """(case tag, table) of each triple of a block, in order, from its codes in one `_affine_cells` call; `check_pairs` has checked every pair."""
    from .quasigroup import CayleyTable, _affine_cells

    phi, psis, tags, cs = block
    rows = [(psi, tag, G.index(c)) for psi, tag, c_reps in zip(psis.tolist(), tags, cs) for c in c_reps]
    if not rows:  # `_affine_cells` reads its cs as rows of at least one pair
        return []
    cells = _affine_cells(G, [(phi, psi) for psi, _, _ in rows], [[c] for _, _, c in rows])
    return [(tag, CayleyTable(G.order, t)) for (_, tag, _), t in zip(rows, cells)]


def _render_block(G, block, text: bool, tables: bool) -> str:
    """The output lines of one phi block, one f-string per format, one line per triple.

    Each line holds the bytes that the text format, or `json.dumps` of the
    record `jsonl_record` in `tests/reference.py`, prints for its triple; the
    tests hold these templates to that reference.  phi and psi print from
    their codes.  The group label and the case tags need no JSON escapes.
    """
    phi, psis, tags, cs = block
    codes = [phi, *psis.tolist()]
    if isinstance(G, Cyclic):
        (shown, *psis_shown), element = codes, str
    else:
        (shown, *psis_shown), element = _matrix_entries(codes, G.p).tolist(), _pair
    rows = zip(psis_shown, tags, cs)
    if text:
        return "".join([
            f"{tag} phi={shown} psi={psi} c=[{element(c)}]\n"
            for psi, tag, c_reps in rows
            for c in c_reps
        ])
    head = f'{{"group": "{group_label(G)}", "phi": {shown}, "psi": '
    if tables:
        from .quasigroup import to_json

        made = iter(_block_tables(G, block))  # in the order of the lines
        return "".join([
            f'{head}{psi}, "c": [{element(c)}], "case_tag": "{tag}", '
            f'"table": {to_json(next(made)[1])}}}\n'
            for psi, tag, c_reps in rows
            for c in c_reps
        ])
    return "".join([
        f'{head}{psi}, "c": [{element(c)}], "case_tag": "{tag}"}}\n'
        for psi, tag, c_reps in rows
        for c in c_reps
    ])


def _cmd_enumerate(args) -> int:
    if args.tables and args.format == "text":
        raise UsageError("--tables needs --format jsonl: the text format prints no tables")
    G = _group(args)
    if args.tables:
        _check_table_order(G.order)
    text = args.format == "text"
    total = 0
    # One write per block: lines leave as their block is made, and no more
    # than one block's text is held at a time.
    for block in enumerate_blocks(G):
        lines = _render_block(G, block, text, args.tables)
        sys.stdout.write(lines)
        total += lines.count("\n")
    sys.stdout.flush()  # every line is out before the total is reported
    print(f"total: {total}", file=sys.stderr)
    return EXIT_OK


def _cmd_export(args) -> int:
    from .quasigroup import to_text

    G = _group(args)
    _check_table_order(G.order)
    out = Path(args.out)
    _file_io(out.mkdir, parents=True, exist_ok=True)
    total = 0
    for block in enumerate_blocks(G):
        for tag, table in _block_tables(G, block):
            _file_io((out / f"{total:04d}_{tag}.txt").write_text, to_text(table))
            total += 1
    print(f"wrote {total} tables to {out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .quasigroup import _iter_tables, count_idempotents, is_latin, is_medial

    path = Path(args.infile)
    # Only a regular file is opened: a FIFO would block, a device read without end.
    if not stat.S_ISREG(_file_io(path.stat).st_mode):
        raise UsageError(f"{path} is not a regular file")
    text = _file_io(path.read_text)
    for _ in _iter_tables(text, MAX_TABLE_ORDER):
        pass  # every error is raised before the first line, and no table is kept
    for i, t in enumerate(_iter_tables(text, MAX_TABLE_ORDER)):
        latin = "yes" if is_latin(t) else "no"
        medial = "yes" if is_medial(t) else "no"
        print(
            f"table {i}: order {t.n} latin={latin} medial={medial} "
            f"idempotents={count_idempotents(t)}"
        )
    return EXIT_OK


def _cmd_crosscheck(args) -> int:
    import json

    from .oracle import CLASSIFY_ORDER_CAP, all_affine_tables, assign_to_classes, classify

    G = _group(args)
    if G.order > CLASSIFY_ORDER_CAP:
        raise UsageError(
            f"group of order {G.order} exceeds the oracle cap {CLASSIFY_ORDER_CAP}"
        )
    rep_tables = [table for block in enumerate_blocks(G) for _, table in _block_tables(G, block)]
    tables = all_affine_tables(G)
    classes = classify(tables)
    print(f"affine forms over {G}: {len(tables)}")
    summary = {
        "group": group_label(G),
        "classes": len(classes),
        "class_sizes": [c.members for c in classes],
    }
    print(json.dumps(summary))
    print(f"enumerator representatives: {len(rep_tables)}")
    ok = len(classes) == len(rep_tables)
    if ok:
        try:
            assignment = assign_to_classes(classes, rep_tables)
            bijective = sorted(assignment) == list(range(len(classes)))
        except ValueError:
            bijective = False
        print(f"representative-to-class match: {'bijective' if bijective else 'BROKEN'}")
        ok = bijective
    verdict = "OK" if ok else "MISMATCH"
    print(f"{len(classes)} = {len(rep_tables)} {verdict}")
    return EXIT_OK if ok else EXIT_MISMATCH


def _cmd_interpolate(args) -> int:
    if args.primes < 1:
        raise UsageError("--primes must be >= 1")
    if args.series == "cyclic":
        if args.k < 1:
            raise UsageError("--k must be >= 1")
        name, bound = f"cyclic with k = {args.k}", f"p^k <= {MAX_ENUM_CYCLIC_ORDER}"
        supported = list(takewhile(lambda p: _power_within(p, args.k, MAX_ENUM_CYCLIC_ORDER), _primes()))
    else:
        _no_exponent(args, f"--series {args.series}")
        name, bound = args.series, f"p <= {MAX_ENUM_ZP2_PRIME}"
        supported = list(takewhile(lambda p: p <= MAX_ENUM_ZP2_PRIME, _primes()))
    if args.primes > len(supported):
        raise UsageError(
            f"series {name} is enumerated up to the bound {bound} ({len(supported)} primes)"
        )
    points = []
    for p in supported[: args.primes]:
        if args.series == "cyclic":
            total = enumerate_forms(Cyclic(p, args.k)).total
        else:
            total = enumerate_forms(ElemAbelianRank2(p)).total
            if args.series == "order-p2":
                total += enumerate_forms(Cyclic(p, 2)).total
        points.append((int(p), total))
    poly = interpolate_count_polynomial(points)
    print("points: " + " ".join(f"({x}, {y})" for x, y in points))
    print(f"f(x) = {poly}")
    print(f"coefficients: {'integer' if poly.is_integral else 'non-integer'}")
    return EXIT_OK


_HANDLERS = {
    "count": _cmd_count,
    "enumerate": _cmd_enumerate,
    "export": _cmd_export,
    "verify": _cmd_verify,
    "crosscheck": _cmd_crosscheck,
    "interpolate": _cmd_interpolate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()  # so that a closed stdout is reported here, not at exit
        return code
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError as exc:
        # The reader closed stdout, as `| head` does.  Output still buffered
        # would fail again when Python flushes stdout at exit, so it goes to
        # the null device instead.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: stdout was closed: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
