"""Command-line front end.

Exit codes: 0 success/match, 1 mismatch or violated property, 2 usage or
parse errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bytecode import AsmError, assemble, disassemble_text
from .checkers import CHECKERS
from .fixtures import (_CHECKER_PARAMS, FixtureError, check_expectations,
                       ingest_official_tests, parse_fixture)
from .semantics import BudgetExhausted
from .traces import action_to_json
from .transaction import execute_transaction
from .words import address_to_hex, bytes_to_hex, hex_to_bytes

# a flag that sets a checker_params key is decoded by that key's codec
_decode_params = _CHECKER_PARAMS[0]


def cmd_run(args) -> int:
    fixture = parse_fixture(args.fixture)
    max_steps = _decode_params({"max_steps": args.max_steps}, "flags")["max_steps"]
    # open the trace file first, so an unwritable path fails before any output
    out = open(args.trace, "w") if args.trace not in (None, "", "-") else sys.stdout
    try:
        sigma, trace, receipt = execute_transaction(
            fixture.tx, fixture.header, fixture.pre, max_steps, fixture.ancestors)
        print(json.dumps(receipt.to_json(), indent=1))
        if args.trace:
            for action in trace:
                out.write(json.dumps(action_to_json(action)) + "\n")
    except BudgetExhausted as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        if out is not sys.stdout:
            out.close()
    if args.expect:
        problems = check_expectations(fixture, sigma, receipt)
        for p in problems:
            print(f"mismatch: {p}", file=sys.stderr)
        if problems:
            return 1
        print("expectations match")
    return 0


def _items(text):
    """A comma-separated flag as the JSON list its key holds. A plain decimal
    item is rewritten as 0x hex; anything else is left for the codec to judge."""
    return None if text is None else [hex(int(x)) if x.isascii() and x.isdecimal() else x
                                      for x in text.split(",")]


def cmd_check(args) -> int:
    if args.values is not None and args.component is None:
        raise ValueError("--values needs --component")
    fixture = parse_fixture(args.fixture)
    params = dict(fixture.checker_params)   # flags override the fixture's keys
    if args.component is not None:          # vary only this component
        values = params.get("components", {}).get(args.component, [])
        params["components"] = {args.component: values}
    flags = {"untrusted": _items(args.untrusted), "allowed": _items(args.allowed),
             "gas_values": _items(args.gas_values), "mode": args.mode,
             "max_steps": args.max_steps}
    if args.values is not None:
        flags["components"] = {args.component: _items(args.values)}
    params.update(_decode_params({k: v for k, v in flags.items() if v is not None}, "flags"))
    if args.variants is not None:
        if not params.get("untrusted"):
            raise ValueError("--variants needs an untrusted address (--untrusted or the fixture's)")
        # each file as the JSON a code_variants entry holds
        variants = [{"asm": p.read_text()} if p.suffix == ".easm" else p.read_text().strip()
                    for p in sorted(Path(args.variants).iterdir())
                    if p.suffix in (".hex", ".bin", ".easm")]
        if not variants:
            raise ValueError("no .hex/.easm variants in directory")
        params.update(_decode_params({"code_variants": {
            address_to_hex(a): variants for a in params["untrusted"]}}, "flags"))

    checker = CHECKERS.get(args.property)
    if checker is None:
        raise ValueError(f"unknown property {args.property!r}; choose from "
                         f"{', '.join(sorted(CHECKERS))}")
    fixture = fixture._replace(checker_params=params)
    verdict = checker(fixture.space()._replace(relaxed_gas=args.relaxed_gas),
                      fixture.contract(), params)
    print(json.dumps(verdict.to_json(), indent=1))
    if args.expect:
        want = fixture.expect.get("verdicts", {}).get(args.property)
        if want is None:
            print(f"mismatch: fixture declares no expected verdict for "
                  f"{args.property}", file=sys.stderr)
            return 1
        if verdict.result != want:
            print(f"mismatch: expected {want}, got {verdict.result}", file=sys.stderr)
            return 1
        print("expectations match")
        return 0
    return 1 if verdict.violated else 0


def cmd_asm(args) -> int:
    text = Path(args.source).read_text() if args.source != "-" else sys.stdin.read()
    code = assemble(text)
    out = bytes_to_hex(code)
    if args.output:
        Path(args.output).write_text(out + "\n")
    else:
        print(out)
    return 0


def cmd_disasm(args) -> int:
    src = args.code
    if not src.startswith("0x"):
        src = Path(src).read_text().strip()
    print(disassemble_text(hex_to_bytes(src)))
    return 0


def cmd_ingest(args) -> int:
    fixtures, skipped = ingest_official_tests(args.directory)
    for f in fixtures:
        print(f"ok      {f.name}")
    for src, reason in skipped:
        print(f"skipped {src}: {reason}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="evmsem")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a fixture transaction")
    p_run.add_argument("fixture")
    p_run.add_argument("--trace", metavar="FILE",
                       help="write the JSON-lines action trace (- for stdout)")
    p_run.add_argument("--expect", action="store_true",
                       help="compare against the fixture's expect section")
    p_run.add_argument("--max-steps", type=int, default=1_000_000)
    p_run.set_defaults(fn=cmd_run)

    p_check = sub.add_parser("check", help="run a security checker")
    p_check.add_argument("property")
    p_check.add_argument("fixture")
    p_check.add_argument("--untrusted", help="comma-separated addresses")
    p_check.add_argument("--allowed", help="comma-separated addresses")
    p_check.add_argument("--gas-values", help="comma-separated gas values")
    p_check.add_argument("--component",
                         help="transaction-environment component to vary")
    p_check.add_argument("--values", help="comma-separated component values")
    p_check.add_argument("--variants", metavar="DIR",
                         help="directory of .hex/.easm code variants")
    p_check.add_argument("--mode")
    p_check.add_argument("--relaxed-gas", action="store_true",
                         help="ignore the gas argument when comparing traces")
    p_check.add_argument("--expect", action="store_true")
    p_check.add_argument("--max-steps", type=int, default=None)
    p_check.set_defaults(fn=cmd_check)

    p_asm = sub.add_parser("asm", help="assemble a text program")
    p_asm.add_argument("source", help="assembly file (- for stdin)")
    p_asm.add_argument("-o", "--output")
    p_asm.set_defaults(fn=cmd_asm)

    p_dis = sub.add_parser("disasm", help="disassemble hex bytecode")
    p_dis.add_argument("code", help="0x-prefixed hex or a file containing it")
    p_dis.set_defaults(fn=cmd_disasm)

    p_ing = sub.add_parser("ingest", help="translate GeneralStateTest JSON")
    p_ing.add_argument("directory")
    p_ing.set_defaults(fn=cmd_ingest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (FixtureError, AsmError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
