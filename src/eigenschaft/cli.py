"""Command line front end.

Machine-readable payloads (JSON or CSV) go to stdout; human diagnostics go
to stderr.  Exit codes: 0 success, 1 domain error (mathematically invalid
input), an input too large to allocate or a closed stdout, 2 usage error
(bad flags, unreadable or malformed files).

Each handler returns its payload, a dict from :mod:`serialize` or CSV
text, with its exit code.  :func:`main` lays a dict out as the pieces of
:func:`serialize.chunked_dumps` and writes stdout once, after every piece
is built, so a command that fails leaves stdout empty.

Angles on the command line are degrees; the library works in radians.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import serialize
from .dynamics import TwoLevelSystem, beat_trace, evolve_h2
from .errors import DomainError, EigenschaftError, SerializationError, ShapeError
from .interferometer import (
    InterferometerConfig,
    holographic_report,
    run_interferometer,
    uniform_sweep,
)
from .operators import (
    DiagSpec,
    EigenschaftOp,
    H2Params,
    build_from_diag,
    build_h2,
    build_kron_family,
    complement_family,
    from_projector_flip,
    hadamard,
    to_projectors,
    validate,
)
from .states import DensityMatrix, classify, decompose_state

_KRON_MEMBERS = {"ib": 0, "ai": 1, "ab": 2}


class UsageError(Exception):
    """Command-level usage problem; maps to exit code 2."""


def _csv(convert, noun: str):
    """The argument type of a comma-separated list of ``convert`` items."""
    def parse(text: str) -> list:
        try:
            return [convert(tok) for tok in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a comma-separated {noun} list: {text!r}")
    return parse


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be a nonnegative integer, got {text!r}")
    return seed


def _load_json(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path} is not UTF-8 text: {exc}")
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int of too many digits
        raise UsageError(f"{path} is not valid JSON: {exc}")
    except RecursionError:
        raise UsageError(f"{path} is nested too deeply to parse as JSON")


def _read_op(path: str):
    return serialize.op_from_dict(_load_json(path))


def _cmd_construct_h2(args) -> tuple[dict | str, int]:
    params = H2Params(
        gamma_angle=math.radians(args.gamma), delta_phi=math.radians(args.dphi)
    )
    return serialize.op_to_dict(build_h2(params)), 0


def _cmd_construct_diag(args) -> tuple[dict | str, int]:
    spec = DiagSpec(
        dim=args.dim,
        alphas=tuple(args.alphas),
        trace_sign=args.sign,
        phases=tuple(math.radians(p) for p in args.phases),
    )
    return serialize.op_to_dict(build_from_diag(spec)), 0


def _cmd_construct_kron(args) -> tuple[dict | str, int]:
    family = build_kron_family(_read_op(args.a), _read_op(args.b))
    if args.member is not None:
        op = family[_KRON_MEMBERS[args.member]]
        return serialize.op_to_dict(op), 0
    return serialize.family_to_dict(family), 0


def _cmd_construct_flip(args) -> tuple[dict | str, int]:
    ps = serialize.projector_set_from_dict(_load_json(args.projectors))
    op = from_projector_flip(ps, args.signs)
    return serialize.op_to_dict(op), 0


def _cmd_validate(args) -> tuple[dict | str, int]:
    """Residual report; ``--strict`` exits 1 unless ``EigenschaftOp`` admits it."""
    m = serialize.matrix_from_dict(_load_json(args.matrix))
    payload = serialize.validation_report_to_dict(validate(m))
    if args.strict:
        try:
            EigenschaftOp(m)
        except (DomainError, ShapeError) as exc:
            print(f"strict gate failed: {exc}", file=sys.stderr)
            return payload, 1
    return payload, 0


def _cmd_convert(args) -> tuple[dict | str, int]:
    if args.op is not None:
        decomposition = to_projectors(_read_op(args.op))
        return serialize.projector_decomposition_to_dict(decomposition), 0
    ps = serialize.projector_set_from_dict(_load_json(args.projectors))
    family = complement_family(ps, kind=args.family)
    return serialize.family_to_dict(family), 0


def _cmd_decompose(args) -> tuple[dict | str, int]:
    operator = serialize.matrix_from_dict(_load_json(args.op))
    state = serialize.state_from_dict(_load_json(args.state))
    dec = decompose_state(operator, state)
    return serialize.decomposition_to_dict(dec), 0


def _cmd_classify(args) -> tuple[dict | str, int]:
    rho = DensityMatrix(serialize.matrix_from_dict(_load_json(args.rho)))
    return serialize.classification_to_dict(classify(rho)), 0


def _cmd_evolve(args) -> tuple[dict | str, int]:
    system = TwoLevelSystem(
        omega1=args.omega1, omega2=args.omega2, h2=_read_op(args.op)
    )
    if args.time is not None:
        op = evolve_h2(system, args.time)
        return serialize.op_to_dict(op), 0
    samples = beat_trace(system, args.times)
    return serialize.beat_trace_csv(samples), 0


def _cmd_simulate(args) -> tuple[dict | str, int]:
    state = serialize.state_from_dict(_load_json(args.state))
    splitter = hadamard() if args.splitter is None else _read_op(args.splitter)
    cfg = InterferometerConfig(
        splitter=splitter,
        sweep_phases=uniform_sweep(args.phases),
        shot_noise_sigma=args.noise,
    )
    if args.fringes:
        fringe = run_interferometer(state, cfg, rng_seed=args.seed)
        return serialize.fringe_csv(fringe), 0
    report = holographic_report(state, cfg, seed=args.seed)
    return serialize.holographic_report_to_dict(report), 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser for every subcommand, built on the first call.

    The returned parser is shared by every later call in the process, so
    callers must not mutate it.
    """
    parser = argparse.ArgumentParser(
        prog="eigenschaft",
        description="Construct, validate, and exercise Hermitian involutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    construct = sub.add_parser(
        "construct", help="build an operator and print its JSON"
    )
    csub = construct.add_subparsers(dest="builder", required=True)

    h2 = csub.add_parser("h2", help="dimension-2 operator from angles (degrees)")
    h2.add_argument("--gamma", type=float, required=True, help="mixing angle, degrees")
    h2.add_argument("--dphi", type=float, required=True, help="relative phase, degrees")
    h2.set_defaults(handler=_cmd_construct_h2)

    diag = csub.add_parser(
        "diag", help="dimension-3/4 operator from its prescribed diagonal"
    )
    diag.add_argument("--dim", type=int, choices=(3, 4), required=True)
    diag.add_argument("--alphas", type=_csv(float, "number"), required=True,
                      help="comma-separated diagonal entries")
    diag.add_argument("--sign", type=int, choices=(1, -1), required=True,
                      help="trace sign branch, +1 or -1")
    diag.add_argument("--phases", type=_csv(float, "number"), required=True,
                      help="comma-separated free phases, degrees")
    diag.set_defaults(handler=_cmd_construct_diag)

    kron = csub.add_parser(
        "kron", help="dimension-4 family from two traceless dimension-2 operators"
    )
    kron.add_argument("--a", required=True, help="first operator JSON file")
    kron.add_argument("--b", required=True, help="second operator JSON file")
    kron.add_argument("--member", choices=sorted(_KRON_MEMBERS),
                      help="emit a single member (ib: I(x)B, ai: A(x)I, ab: A(x)B)")
    kron.set_defaults(handler=_cmd_construct_kron)

    flip = csub.add_parser(
        "flip", help="signed sum over a projector-set JSON file"
    )
    flip.add_argument("--projectors", required=True)
    flip.add_argument("--signs", type=_csv(int, "integer"), required=True,
                      help="comma-separated +1/-1 signs (use --signs=-1,... )")
    flip.set_defaults(handler=_cmd_construct_flip)

    val = sub.add_parser("validate", help="residual report for a matrix JSON")
    val.add_argument("matrix", nargs="?", default="-",
                     help="matrix JSON file, or - for stdin (default)")
    val.add_argument("--strict", action="store_true",
                     help="exit 1 unless the matrix passes the operator gate "
                          "(Hermitian involution with an admissible trace)")
    val.set_defaults(handler=_cmd_validate)

    conv = sub.add_parser(
        "convert",
        help="operator -> projectors (--op) or projectors -> family (--projectors)",
    )
    source = conv.add_mutually_exclusive_group(required=True)
    source.add_argument("--op", help="operator JSON file")
    source.add_argument("--projectors", help="projector-set JSON file")
    conv.add_argument("--family", choices=("flip", "traceless"), default="flip",
                      help="family kind for --projectors (default flip)")
    conv.set_defaults(handler=_cmd_convert)

    dec = sub.add_parser(
        "decompose", help="mean/dispersion split of a Hermitian operator on a state"
    )
    dec.add_argument("--op", required=True, help="Hermitian matrix JSON file")
    dec.add_argument("--state", required=True, help="state JSON file")
    dec.set_defaults(handler=_cmd_decompose)

    cls = sub.add_parser("classify", help="purity diagnostics of a density matrix")
    cls.add_argument("--rho", required=True, help="density matrix JSON file")
    cls.set_defaults(handler=_cmd_classify)

    evo = sub.add_parser("evolve", help="two-level evolution of a dimension-2 operator")
    evo.add_argument("--op", required=True, help="operator JSON file")
    evo.add_argument("--omega1", type=float, required=True)
    evo.add_argument("--omega2", type=float, required=True)
    when = evo.add_mutually_exclusive_group(required=True)
    when.add_argument("--time", type=float, help="single time: evolved operator JSON")
    when.add_argument("--times", type=_csv(float, "number"),
                      help="comma-separated times: beat-trace CSV")
    evo.set_defaults(handler=_cmd_evolve)

    sim = sub.add_parser(
        "simulate", help="phase-sweep interferometer run and state recovery"
    )
    sim.add_argument("--state", required=True, help="two-component state JSON file")
    sim.add_argument("--phases", type=int, required=True,
                     help="number of uniform sweep phases")
    sim.add_argument("--noise", type=float, default=0.0,
                     help="intensity noise sigma (default 0)")
    sim.add_argument("--seed", type=_seed, default=0, help="noise seed, >= 0")
    sim.add_argument("--splitter", help="operator JSON file (default: 50/50)")
    sim.add_argument("--fringes", action="store_true",
                     help="emit the fringe CSV instead of the recovery report")
    sim.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.handler(args)
        pieces = ([payload] if isinstance(payload, str)
                  else serialize.chunked_dumps(payload))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SerializationError as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return 2
    except EigenschaftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 1
    try:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # Point the descriptor at devnull, so the flush at exit cannot raise.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: stdout closed: {exc}", file=sys.stderr)
        return 1
    return code


def entry_point() -> None:
    raise SystemExit(main())
