"""Command line interface: run experiments, trace a demo session, self-test."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import acceptance
from .harness import (
    BUILTIN_EXPERIMENTS,
    CellError,
    ConfigError,
    emit_report,
    iter_experiment,
    parse_experiment,
    write_report,
)
from .protocol import SessionConfig, run_keyed_session
from .rearrange import ControlKey


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        if args.spec in BUILTIN_EXPERIMENTS:
            spec = BUILTIN_EXPERIMENTS[args.spec]()
        else:
            spec = parse_experiment(args.spec)
        overrides = {"seed": args.seed, "fmt": args.format, "out": args.out}
        spec = replace(spec, **{k: v for k, v in overrides.items() if v is not None})
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    rows, code = [], 0
    try:
        for row in iter_experiment(spec):
            rows.append(row)
    except CellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    try:
        if spec.out:
            write_report(rows, spec.out, spec.fmt)
            print(f"wrote {len(rows)} rows to {spec.out}")
        else:
            sys.stdout.write(emit_report(rows, spec.fmt))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    return code


def _cmd_demo(args: argparse.Namespace) -> int:
    cfg = SessionConfig(
        n_blocks=args.blocks,
        control_key=ControlKey.from_indices([0, 1, 2, 3]),
        check_fraction=0.25,
        seed=args.seed,
    )
    print(f"keyed session, {cfg.n_blocks} blocks of {cfg.block_size} pairs, seed {cfg.seed}")
    print(f"control key bits: {cfg.control_key.as_bit_string()} "
          f"(op indices {list(cfg.control_key.op_indices)})")
    transcript = run_keyed_session(cfg)
    size = cfg.block_size
    for block in transcript.blocks:
        pairs = transcript.records[block.index * size : (block.index + 1) * size]
        prepared = " ".join(p.prepared.name for p in pairs)
        measured = " ".join(p.measured.name for p in pairs)
        op = cfg.op_set[block.alice_op]
        print(f"block {block.index}: op E{block.alice_op} perm={op.perm}")
        print(f"  prepared: {prepared}")
        print(f"  measured: {measured}")
        flags = " ".join("chk" if p.checked else "key" for p in pairs)
        print(f"  usage:    {flags}")
    v = transcript.verdict
    print(f"check: {v.checked_count} pairs, error rate {v.measured_error_rate:.4f}, "
          f"{'accepted' if v.accepted else 'rejected'} at threshold {v.threshold}")
    if v.accepted:
        bits = "".join(str(b) for b in transcript.raw_key())
        print(f"raw key ({len(bits)} bits): {bits}")
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    del args
    results = acceptance.run_all(verbose=True)
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coreqkd",
        description="Simulator of order-rearrangement encrypted key distribution",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment spec (path or builtin name)")
    run.add_argument("spec", help=f"spec file path or one of {sorted(BUILTIN_EXPERIMENTS)}")
    run.add_argument("--seed", type=int, default=None, help="override the master seed")
    run.add_argument("--out", default=None, help="output path (default stdout)")
    run.add_argument("--format", choices=("csv", "jsonl"), default=None)
    run.set_defaults(func=_cmd_run)

    demo = sub.add_parser("demo", help="trace one small verbose session")
    demo.add_argument("--seed", type=int, default=7)
    demo.add_argument("--blocks", type=int, default=3)
    demo.set_defaults(func=_cmd_demo)

    selftest = sub.add_parser("selftest", help="run the acceptance suite")
    selftest.set_defaults(func=_cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
