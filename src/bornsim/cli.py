"""Command line interface.

    bornsim run <file-or-preset> [--format table|records]
    bornsim verify [--trials N] [--dims-limit D] [--seed S]
    bornsim presets

verify's batteries, shares and forks are in bornsim.verify, which cmd_verify
imports when it runs, so `run` and `presets` never load it.

main parses with one argparse parser per process, built on its first call,
so in-process callers (tests, benchmarks, library use) pay for it once.

Exit codes: 0 success, 1 verify property failure or stdout closed early
(as by `| head`, with nothing on stderr), 2 parse/usage error
(including a negative seed and a --dims-limit above verify.MAX_DIMS_LIMIT =
256), 3 numerical invariant violation (including a pointer setup whose state
exceeds pointer.POINTER_STATE_MAX_AMPS amplitudes, and a telepathy scenario
asking for more than signaling.MAX_SHOTS Monte Carlo shots).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .errors import BornsimError
from .presets import (OBSERVABLE_PRESET_DESCRIPTIONS, SCENARIO_PRESETS, STATE_PRESET_DESCRIPTIONS,
                      scenario_preset_text)
from .scenario import DEFAULT_SEED, ScenarioParseError, parse_scenario, run_scenario


def _render_records(records) -> str:
    return "\n".join(f"{k}={v}" for k, v in records)


def _render_table(records) -> str:
    body = records[3:]
    head = dict(records[:3])
    width = max((len(k) for k, _ in body), default=8)
    lines = [
        f"scenario {head['scenario']}  kind={head['kind']}  seed={head['seed']}",
        "-" * max(40, width + 18),
    ]
    lines += [f"{k:<{width}}  {v}" for k, v in body]
    return "\n".join(lines)


def cmd_run(args) -> int:
    name = args.scenario
    if os.path.isfile(name):
        try:
            with open(name, "r", encoding="utf-8-sig") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ScenarioParseError(f"cannot read {name}: {exc}")
        source = os.path.splitext(os.path.basename(name))[0]
    elif name in SCENARIO_PRESETS:
        text = scenario_preset_text(name)
        source = name
    else:
        print(f"parse error: no such file or preset: {name}", file=sys.stderr)
        return 2
    records = run_scenario(parse_scenario(text, source))
    if args.format == "records":
        print(_render_records(records))
    else:
        print(_render_table(records))
    return 0


def cmd_presets(args) -> int:
    print("states:")
    for name, desc in STATE_PRESET_DESCRIPTIONS.items():
        print(f"  {name:<18} {desc}")
    print("observables:")
    for name, desc in OBSERVABLE_PRESET_DESCRIPTIONS.items():
        print(f"  {name:<18} {desc}")
    print("scenarios:")
    for name, (desc, _) in SCENARIO_PRESETS.items():
        print(f"  {name:<18} {desc}")
    return 0


def cmd_verify(args) -> int:
    from .verify import run_verify

    return run_verify(args.trials, args.dims_limit, args.seed)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bornsim",
        description="Projective measurement simulator with pointer schemes "
        "and operational no-signaling tests.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario file or named preset")
    p_run.add_argument("scenario", help="path to a scenario file, or a preset name")
    p_run.add_argument(
        "--format", choices=("table", "records"), default="table",
        help="output style (records is line-oriented key=value)",
    )
    p_verify = sub.add_parser("verify", help="run the randomized property batteries")
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--dims-limit", type=int, default=6)
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_presets = sub.add_parser("presets", help="list named states, observables, scenarios")
    return parser


# argparse keeps no state between parse_args calls.  The parser holds no
# command function: main looks each one up when it runs, so a patched or
# traced cmd_* is the one called.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    command = {"run": cmd_run, "verify": cmd_verify, "presets": cmd_presets}[args.command]
    try:
        code = command(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Python's recipe: stdout to devnull, so the flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ScenarioParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except BornsimError as exc:
        print(f"invariant violation [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
