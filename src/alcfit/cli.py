"""Command-line front end.

    alcfit fit <manifest> [--ops ...] [--mode exact|approx] [--max-size N]
    alcfit encode <manifest> --max-size K [--emit-dimacs out.cnf | --stats]
    alcfit verify <manifest> <concept>
    alcfit dualize (<manifest> --out DIR | --concept TEXT) [--names A,B]
    alcfit gen <family> [params] --out DIR

Exit codes: 0 fitted, 10 approximate, 20 no fit within bound, 30 timed out,
64 usage error, 65 data/parse error, 69 solver backend unavailable or
failed.  An EncodingError is a bug, not a user error: it is not caught.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from pathlib import Path

from .concepts import (ConceptError, O_ALL, dualize_concept,
                       parse_concept, parse_operators, render_concept)
from .data import (DataError, Sample, dualize_sample,
                   interpretation_signature, load_sample, quotient,
                   save_sample)
from .encoder import encode_fitting
from .fitter import (APPROXIMATE, FITTED, NO_FIT_WITHIN_BOUND, TIMED_OUT,
                     FitConfig, FitResult, approx_fit, bisimilar_reason,
                     bounded_fit, encode_size, verify)
from .solver import SolverError, export_dimacs
from . import benchgen

USAGE_ERROR = 64
DATA_ERROR = 65
UNAVAILABLE = 69  # sysexits EX_UNAVAILABLE

_STATUS_EXIT = {FITTED: 0, APPROXIMATE: 10, NO_FIT_WITHIN_BOUND: 20,
                TIMED_OUT: 30}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit 64, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _ops_arg(text: str):
    try:
        return parse_operators(text)
    except ConceptError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_encoding_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ops", type=_ops_arg, default=O_ALL,
                   help="comma list of neg,and,or,exists,forall (default all)")
    p.add_argument("--max-size", type=int, default=12, metavar="K",
                   help="largest concept size to try (default 12)")
    p.add_argument("--no-typed", action="store_true",
                   help="disable the type-table semantic encoding")
    p.add_argument("--no-templates", action="store_true",
                   help="disable level-order symmetry breaking and "
                   "pattern bans")


def _add_solve_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=("exact", "approx"), default="exact")
    p.add_argument("--timeout", type=float, default=None, metavar="S",
                   help="wall-clock budget in seconds")
    p.add_argument("--seed", type=int, default=0,
                   help="solver seed; accepted but not yet passed to any "
                   "solver")
    p.add_argument("--backend", default="native",
                   help='"native" or "dimacs:<command>"')


def _config(args) -> FitConfig:
    return FitConfig(ops=args.ops, k_max=args.max_size,
                     budget=args.timeout, typed=not args.no_typed,
                     templates=not args.no_templates,
                     seed=args.seed, backend=args.backend)


def build_parser() -> _Parser:
    parser = _Parser(prog="alcfit",
                     description="Fit minimum-size description logic concepts "
                                 "to labeled examples via incremental SAT.")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="search for a minimum fitting concept")
    fit.add_argument("manifest")
    _add_encoding_flags(fit)
    _add_solve_flags(fit)
    run = fit.add_mutually_exclusive_group()
    run.add_argument("--report", metavar="PATH",
                     help="also write a JSON report to PATH")
    run.add_argument("--folds", type=int, default=0, metavar="N",
                     help="run N-fold cross-validation instead of one fit")

    enc = sub.add_parser("encode", help="export one size-k encoding as DIMACS")
    enc.add_argument("manifest")
    _add_encoding_flags(enc)
    out = enc.add_mutually_exclusive_group()
    out.add_argument("--emit-dimacs", metavar="PATH", default=None,
                     help="output file (default: stdout)")
    out.add_argument("--stats", action="store_true",
                     help="print variable, clause and per-group counts "
                     "instead of the DIMACS text")

    ver = sub.add_parser("verify", help="check whether a concept fits a sample")
    ver.add_argument("manifest")
    ver.add_argument("concept", help="concept in canonical text form")

    dua = sub.add_parser("dualize", help="dualize a concept or a sample")
    dua.add_argument("manifest", nargs="?", default=None)
    dua.add_argument("--concept", default=None, metavar="TEXT")
    dua.add_argument("--names", default=None, metavar="A,B",
                     help="concept names to complement (default: occurring)")
    dua.add_argument("--out", default=None, metavar="DIR")
    dua.add_argument("--stem", default="dual")

    gen = sub.add_parser("gen", help="generate benchmark instances")
    gen.add_argument("family",
                     choices=("hitting-set", "depth", "mostgeneral", "random"))
    gen.add_argument("--out", required=True, metavar="DIR")
    gen.add_argument("--stem", default=None)
    gen.add_argument("--sets", default=None,
                     help='hitting-set input, e.g. "1,3;2,4"')
    gen.add_argument("--k", type=int, default=1,
                     help="hitting set size bound (default 1)")
    gen.add_argument("--n", type=int, default=2,
                     help="depth/chain parameter (default 2)")
    gen.add_argument("--paths", default=None,
                     help="mostgeneral: comma list of r/s words whose path "
                          "examples join the negatives (default: all)")
    gen.add_argument("--elements", type=int, default=8)
    gen.add_argument("--names", type=int, default=2)
    gen.add_argument("--roles", type=int, default=2)
    gen.add_argument("--density", type=float, default=0.2)
    gen.add_argument("--pos", type=int, default=2)
    gen.add_argument("--neg", type=int, default=2)
    gen.add_argument("--seed", type=int, default=0)
    return parser


# ---------------------------------------------------------------------------
# fit

def _result_json(result: FitResult, sample: Sample) -> dict:
    payload = {
        "status": result.status,
        "reason": result.reason,
        "elements": len(sample.interp.domain),
        "classes": result.classes,
        "names": result.names,
        "concept": (render_concept(result.concept)
                    if result.concept is not None else None),
        "size": result.size,
        "coverage": result.coverage,
        "coverage_history": list(result.coverage_history),
        "per_k": [asdict(stat) for stat in result.per_k],
    }
    return payload


def _print_fit(result: FitResult, sample: Sample) -> None:
    for stat in result.per_k:
        extra = "" if stat.best_m is None else f" best-coverage={stat.best_m}"
        if stat.conflicts is not None:
            extra += f" conflicts={stat.conflicts}"
        print(f"k={stat.k} {stat.status} vars={stat.num_vars} "
              f"clauses={stat.num_clauses} time={stat.time:.3f}s{extra}")
    print(f"status: {result.status}")
    if result.reason is not None:
        print(f"reason: {result.reason}")
    if result.concept is not None:
        print(f"concept: {render_concept(result.concept)}")
        print(f"size: {result.size}")
        print(f"coverage: {result.coverage}/{sample.num_examples}")


def cmd_fit(args) -> int:
    cfg = _config(args)  # check the arguments before reading any input
    if args.folds and args.folds < 2:
        raise DataError("--folds needs at least 2")
    # the entry point is the mode
    run_fit = approx_fit if args.mode == "approx" else bounded_fit
    sample = load_sample(args.manifest)
    if args.folds:
        return _cross_validate(sample, cfg, run_fit, args.folds)
    result = run_fit(sample, cfg)
    _print_fit(result, sample)
    if args.report:
        Path(args.report).write_text(
            json.dumps(_result_json(result, sample), indent=2) + "\n",
            encoding="utf-8")
    return _STATUS_EXIT[result.status]


def _cross_validate(sample: Sample, cfg: FitConfig,
                    run_fit: Callable[[Sample, FitConfig], FitResult],
                    folds: int) -> int:
    if sample.num_examples < folds:
        raise DataError("fewer examples than folds")

    def held_out(i: int) -> Sample:
        # round-robin over positives then negatives, so no fold is empty
        # as long as there are at least `folds` examples
        offset = len(sample.positives)
        return Sample(sample.interp,
                      tuple(e for j, e in enumerate(sample.positives)
                            if j % folds == i),
                      tuple(e for j, e in enumerate(sample.negatives)
                            if (offset + j) % folds == i))

    def run_fold(i: int):
        test = held_out(i)
        train = Sample(sample.interp,
                       tuple(e for e in sample.positives
                             if e not in test.positives),
                       tuple(e for e in sample.negatives
                             if e not in test.negatives))
        result = run_fit(train, cfg)
        if result.concept is None:
            return result, None, 0, test.num_examples
        hits = verify(result.concept, test).coverage
        return result, result.size, hits, test.num_examples

    with ThreadPoolExecutor(max_workers=min(folds, 4)) as pool:
        rows = list(pool.map(run_fold, range(folds)))

    total_hits = total_examples = 0
    for i, (result, size, hits, count) in enumerate(rows):
        acc = hits / count if count else 1.0
        total_hits += hits
        total_examples += count
        print(f"fold {i}: status={result.status} size={size} "
              f"held-out={count} accuracy={acc:.3f}")
    overall = total_hits / total_examples if total_examples else 1.0
    print(f"folds: {folds}")
    print(f"accuracy: {overall:.3f}")
    return 0


# ---------------------------------------------------------------------------
# encode / verify / dualize / gen

def cmd_encode(args) -> int:
    k = args.max_size
    if k < 1:
        raise DataError("--max-size must be at least 1")
    sample = load_sample(args.manifest)
    q = quotient(sample)
    cnf, vm = encode_size(sample, k, args.ops, typed=not args.no_typed,
                          templates=not args.no_templates, quotient=q)
    cnf.absorb(encode_fitting(sample, vm))
    # the fitting units of a bisimilar pair contradict each other: say so
    reason = bisimilar_reason(sample, q)
    if args.stats:
        print(f"elements: {len(sample.interp.domain)}")
        print(f"classes: {len(vm.interp.domain)}")
        print(f"names: {len(vm.sigma.concept_names)} of "
              f"{len(sample.interp.concept_ext)}")
        if reason is not None:
            print(f"reason: {reason}")
        print(f"vars: {vm.num_vars}")
        print(f"clauses: {cnf.num_clauses}")
        for tag in sorted(cnf.groups):
            print(f"{tag}: {cnf.groups[tag]}")
        return 0
    if reason is not None:
        print(f"reason: {reason}", file=sys.stderr)
    # every literal is checked before the file is opened or a byte written
    text = export_dimacs(cnf, vm)
    if args.emit_dimacs:
        with open(args.emit_dimacs, "wb") as fh:
            fh.writelines(text)
        print(f"wrote {args.emit_dimacs}: {vm.num_vars} vars, "
              f"{cnf.num_clauses} clauses")
        return 0
    try:
        sys.stdout.flush()  # any text the stream holds goes first
        if hasattr(sys.stdout, "buffer"):
            sys.stdout.buffer.writelines(text)
        else:  # a text-only stream, such as a StringIO
            sys.stdout.writelines(piece.decode() for piece in text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone: what is left goes to the null device, so
        # that the flush at exit cannot raise
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
    return 0


def cmd_verify(args) -> int:
    concept = parse_concept(args.concept)
    sample = load_sample(args.manifest)
    report = verify(concept, sample)
    print(f"fits: {str(report.fits).lower()}")
    print(f"coverage: {report.coverage}/{sample.num_examples}")
    if report.misclassified:
        print("misclassified: " + " ".join(report.misclassified))
    return 0


def cmd_dualize(args) -> int:
    if (args.concept is None) == (args.manifest is None):
        raise DataError("dualize needs exactly one of: manifest, --concept")
    if args.concept is not None:
        print(render_concept(dualize_concept(parse_concept(args.concept))))
        return 0
    sample = load_sample(args.manifest)
    if args.names is not None:
        from .concepts import Signature
        sigma = Signature(frozenset(n for n in args.names.split(",") if n),
                          frozenset())
    else:
        sigma = interpretation_signature(sample.interp)
    dual = dualize_sample(sample, sigma)
    out = args.out or str(Path(args.manifest).parent)
    manifest = save_sample(dual, out, stem=args.stem)
    print(f"wrote {manifest}")
    return 0


def _parse_sets(text: str) -> list[set[int]]:
    try:
        return [{int(x) for x in part.split(",")} for part in text.split(";")]
    except ValueError as exc:
        raise DataError(f"cannot parse --sets {text!r}: {exc}") from exc


def cmd_gen(args) -> int:
    stem = args.stem or args.family.replace("-", "_")
    metadata: dict | None = None
    if args.family == "hitting-set":
        if not args.sets:
            raise DataError("gen hitting-set needs --sets")
        blocks, k_prime, metadata = benchgen.hitting_set_blocks(
            _parse_sets(args.sets), args.k)
    elif args.family == "depth":
        blocks = benchgen.depth_family_blocks(args.n)
        metadata = {"generator": "depth", "n": args.n,
                    "target": render_concept(
                        benchgen.depth_family_target(args.n))}
    elif args.family == "mostgeneral":
        words = args.paths.split(",") if args.paths else None
        blocks = benchgen.mostgeneral_blocks(args.n, words)
        metadata = {"generator": "mostgeneral", "n": args.n, "target": "A"}
    else:
        sample = benchgen.gen_random(args.elements, args.names, args.roles,
                                     args.density, args.pos, args.neg,
                                     args.seed)
        blocks = [("facts", sample.interp, sample.positives, sample.negatives)]
        metadata = {"generator": "random", "seed": args.seed,
                    "edge_density": args.density}
    manifest = benchgen.write_instance(args.out, stem, blocks, metadata)
    print(f"wrote {manifest}")
    return 0


_COMMANDS = {"fit": cmd_fit, "encode": cmd_encode, "verify": cmd_verify,
             "dualize": cmd_dualize, "gen": cmd_gen}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DataError, ConceptError, ValueError) as exc:
        print(f"alcfit: error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except OSError as exc:
        print(f"alcfit: error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except SolverError as exc:
        print(f"alcfit: error: {exc}", file=sys.stderr)
        return UNAVAILABLE


if __name__ == "__main__":
    sys.exit(main())
