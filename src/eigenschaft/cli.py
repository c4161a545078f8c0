"""Command line front end.

Machine-readable payloads (JSON or CSV) go to stdout; human diagnostics go
to stderr.  Exit codes: 0 success, 1 domain error (mathematically invalid
input), an input too large to allocate or a stdout that cannot be written,
2 usage error (bad flags, unreadable or malformed files, a closed stdin).

Each handler returns its payload, a dict from :mod:`serialize` or CSV
text, with ``None`` or the stderr line of a refusal that keeps its payload
(exit 1); no handler writes a stream.  :func:`main` lays a dict out as the
pieces of :func:`serialize.chunked_dumps` and writes stdout once, after
every piece is built, so a command that fails leaves stdout empty.  A
stderr line that cannot be written is dropped; the exit code stands.
:func:`main` returns the exit code and touches no file descriptor;
:func:`entry_point`, the console script, alone retires descriptors 1 and 2,
after help and argparse's usage lines too: a line it cannot write is
dropped, and the exit code is argparse's.

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
    H2Params,
    build_from_diag,
    build_h2,
    build_kron_family,
    check_operator,
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


#: The exit code and stderr prefix of each error a request raises; first match wins.
_ERRORS = ((UsageError, 2, "error: "), (SerializationError, 2, "malformed input: "),
           (EigenschaftError, 1, "error: "), (MemoryError, 1, "error: out of memory: "))


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
            if sys.stdin is None:  # Python's stdin when descriptor 0 is closed
                raise UsageError("cannot read -: stdin is closed")
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path} is not UTF-8 text: {exc}")
    except (OSError, ValueError) as exc:  # ValueError: a closed file object
        raise UsageError(f"cannot read {path}: {exc}")
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int of too many digits
        raise UsageError(f"{path} is not valid JSON: {exc}")
    except RecursionError:
        raise UsageError(f"{path} is nested too deeply to parse as JSON")


def _read_op(path: str):
    return serialize.op_from_dict(_load_json(path))


def _cmd_construct_h2(args) -> tuple[dict | str, str | None]:
    params = H2Params(
        gamma_angle=math.radians(args.gamma), delta_phi=math.radians(args.dphi)
    )
    return serialize.op_to_dict(build_h2(params)), None


def _cmd_construct_diag(args) -> tuple[dict | str, str | None]:
    spec = DiagSpec(
        dim=args.dim,
        alphas=tuple(args.alphas),
        trace_sign=args.sign,
        phases=tuple(math.radians(p) for p in args.phases),
    )
    return serialize.op_to_dict(build_from_diag(spec)), None


def _cmd_construct_kron(args) -> tuple[dict | str, str | None]:
    family = build_kron_family(_read_op(args.a), _read_op(args.b))
    if args.member is not None:
        op = family[_KRON_MEMBERS[args.member]]
        return serialize.op_to_dict(op), None
    return serialize.family_to_dict(family), None


def _cmd_construct_flip(args) -> tuple[dict | str, str | None]:
    ps = serialize.projector_set_from_dict(_load_json(args.projectors))
    return serialize.op_to_dict(from_projector_flip(ps, args.signs)), None


def _cmd_validate(args) -> tuple[dict | str, str | None]:
    """Residual report; ``--strict`` refuses it unless ``check_operator`` admits it."""
    r = validate(serialize.matrix_from_dict(_load_json(args.matrix)))
    payload = serialize.validation_report_to_dict(r)
    if args.strict:
        try:
            check_operator(dim=r.dim, hermiticity_residual=r.hermiticity_residual,
                           involution_residual=r.involution_residual, trace=r.trace,
                           trace_class=r.trace_class,
                           trace_class_distance=r.trace_class_distance)
        except (DomainError, ShapeError) as exc:
            return payload, f"strict gate failed: {exc}"
    return payload, None


def _cmd_convert(args) -> tuple[dict | str, str | None]:
    if args.op is not None:
        if args.family is not None:
            raise UsageError("argument --family: not allowed with argument --op")
        decomposition = to_projectors(_read_op(args.op))
        return serialize.projector_decomposition_to_dict(decomposition), None
    ps = serialize.projector_set_from_dict(_load_json(args.projectors))
    family = complement_family(ps, kind=args.family or "flip")
    return serialize.family_to_dict(family), None


def _cmd_decompose(args) -> tuple[dict | str, str | None]:
    operator = serialize.matrix_from_dict(_load_json(args.op))
    state = serialize.state_from_dict(_load_json(args.state))
    dec = decompose_state(operator, state)
    return serialize.decomposition_to_dict(dec), None


def _cmd_classify(args) -> tuple[dict | str, str | None]:
    rho = DensityMatrix(serialize.matrix_from_dict(_load_json(args.rho)))
    return serialize.classification_to_dict(classify(rho)), None


def _cmd_evolve(args) -> tuple[dict | str, str | None]:
    system = TwoLevelSystem(
        omega1=args.omega1, omega2=args.omega2, h2=_read_op(args.op)
    )
    if args.time is not None:
        op = evolve_h2(system, args.time)
        return serialize.op_to_dict(op), None
    samples = beat_trace(system, args.times)
    return serialize.beat_trace_csv(samples), None


def _cmd_simulate(args) -> tuple[dict | str, str | None]:
    state = serialize.state_from_dict(_load_json(args.state))
    splitter = hadamard() if args.splitter is None else _read_op(args.splitter)
    cfg = InterferometerConfig(
        splitter=splitter,
        sweep_phases=uniform_sweep(args.phases),
        shot_noise_sigma=args.noise,
    )
    if args.fringes:
        fringe = run_interferometer(state, cfg, rng_seed=args.seed)
        return serialize.fringe_csv(fringe), None
    report = holographic_report(state, cfg, seed=args.seed)
    return serialize.holographic_report_to_dict(report), None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser for every subcommand, built on the first call.

    The returned parser is shared by every later call in the process, so
    callers must not mutate it.  Its ``leaves`` map each command path,
    ``("simulate",)`` or ``("construct", "flip")``, to the parser
    ``add_parser`` returned for it.
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
    conv.add_argument("--family", choices=("flip", "traceless"),
                      help="family kind for --projectors only (default flip)")
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

    parser.leaves = {
        **{(name,): leaf for name, leaf in sub.choices.items() if leaf is not construct},
        **{("construct", name): leaf for name, leaf in csub.choices.items()},
    }
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse ``argv`` once, with the parser of the command its first words name.

    The top-level parser is reached only when no command owns ``argv``:
    an empty argv, a flag or an unknown name first, ``construct`` alone,
    or arguments the command leaves over.  It parses all of ``argv`` as
    before, so help, usage lines, messages and exit codes are its own.
    """
    parser = build_parser()
    for path in (tuple(argv[:2]), tuple(argv[:1])):
        leaf = parser.leaves.get(path)
        if leaf is not None:
            args, rest = leaf.parse_known_args(argv[len(path):])
            if not rest:
                return args
            break
    return parser.parse_args(argv)


def _say(line: str) -> None:
    """Write ``line`` to stderr; like argparse, drop it if stderr is None or fails."""
    try:
        sys.stderr.write(line + "\n")
    except (AttributeError, OSError, ValueError):
        pass


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        payload, refusal = args.handler(args)
        # A final newline of its own: unbuffered, a write cut short is silent,
        # so a later write must be there to fail.
        pieces = ([payload[:-1], payload[-1:]] if isinstance(payload, str)
                  else serialize.chunked_dumps(payload))
    except tuple(kind for kind, _, _ in _ERRORS) as exc:
        code, prefix = next((c, p) for kind, c, p in _ERRORS if isinstance(exc, kind))
        _say(prefix + (str(exc) or "allocation failed"))
        return code
    try:
        if sys.stdout is None:  # Python's stdout when descriptor 1 is closed
            raise OSError("stdout is closed")
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    except (OSError, ValueError) as exc:  # closed, a closed pipe, a full device, ...
        _say(f"error: cannot write stdout: {exc}")
        return 1
    if refusal is not None:
        _say(refusal)
        return 1
    return 0


def entry_point() -> None:
    try:
        code = main()
    except SystemExit as exc:  # argparse's help and usage errors
        code = exc.code
    try:  # help may still sit in stdout's buffer; a failure is dropped, as argparse's
        sys.stdout.flush()
    except (AttributeError, OSError, ValueError):
        pass
    # main wrote or dropped every line; keep the flush at exit from failing again.
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    os.dup2(1, 2)
    raise SystemExit(code)
