"""Command-line front end: every subcommand is a thin adapter over one
library operation, with JSON in and JSON out.

Exit codes: 0 success, 1 property violation (a suite report with
failures was emitted), 2 invalid input.

Only ``snf`` and ``suite`` take ``--ring``; every other input names its
own ring in its ``"ring"`` token.

A request passes through no generic layer it does not need.  Its argv
takes one of two paths.  A known subcommand's argv in the plain form
(``--option value`` pairs, each option spelled out in full and given
once, no value starting with ``-``) is read by ``_read_plain`` from the
subcommand parser's own actions, without argparse.  Any other argv
(``-h``, abbreviations, ``--opt=v``, repeated options, ``--``, a value
starting with ``-``, a bad value, a missing option, ``suite``'s
positional name, a missing or unknown command) goes whole to the
top-level parser's ``parse_args``, so every message and exit code is
argparse's.  Each handler returns its payload as library values, a dict
with str keys where it adds fields of its own, and ``jsonio._dumps``
writes its text straight from them.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys

from . import jsonio
from .complexes import cone, homology, homology_table, structure_maps, truncate_ge, truncate_le, truncation_splitting
from .errors import InvalidInputError, KoszulkitError
from .generators import GenParams
from .jsonio import chain_map_from_json, complex_from_json, matrix_from_json, presented_koszul_from_json
from .k0 import class_kos_isom
from .koszul import cellular_factorization, e_functor, kappa, resolve_in_kos1
from .matrices import snf
from .rings import ring_from_token
from .sfiltering import ed_decompose, excision_epi
from .suites import SUITES, run_suite


def _read_input(args) -> object:
    """The JSON document of ``--in`` or of stdin.  A file is read as bytes,
    unbuffered, and decoded here, with line ends translated as text mode
    would, so every error message reads as it would in text mode."""
    try:
        if args.infile:
            with open(args.infile, "rb", buffering=0) as handle:
                text = handle.read().decode("utf-8")
            if "\r" in text:
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            return json.loads(text)
        return json.load(sys.stdin)
    except ValueError as error:  # not UTF-8, not JSON, or an integer past Python's digit limit
        raise InvalidInputError(str(error)) from None


def _write_file(path: str, data: bytes):
    """Write ``data`` over the file at ``path`` in place, creating it with
    the permissions ``open(path, "w")`` would give, then cut a regular
    file that is longer to ``len(data)``.  Unlike ``open(path, "w")``,
    this does not truncate first, so the file system reuses the blocks
    of an existing file instead of freeing and reallocating them.  No
    fsync either way."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        status = os.fstat(fd)
        if stat.S_ISREG(status.st_mode) and status.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _write_output(args, payload: dict):
    text = jsonio._dumps(payload)
    if args.out:
        _write_file(args.out, (text + "\n").encode("utf-8"))
    else:
        print(text)


def _cmd_snf(args):
    cert = snf(matrix_from_json(ring_from_token(args.ring), _read_input(args)))
    return {**jsonio._LAYOUTS[type(cert)](cert), "verified": True}


def _cmd_homology(args):
    complex_ = complex_from_json(_read_input(args))
    if args.degree is not None:
        table = {args.degree: homology(complex_, args.degree)}
    else:
        table = homology_table(complex_)
    return {"homology": {str(n): module for n, module in table.items()}}


def _cmd_cone(args):
    built = cone(chain_map_from_json(_read_input(args)))
    return {"cone": built.complex, "inclusion": built.inclusion, "projection": built.projection}


def _cmd_cyl(args):
    return structure_maps(chain_map_from_json(_read_input(args)))


def _cmd_truncate(args):
    complex_ = complex_from_json(_read_input(args))
    truncate = truncate_ge if args.side == "ge" else truncate_le
    return truncate(complex_, args.degree)


def _cmd_split(args):
    splitting = truncation_splitting(complex_from_json(_read_input(args)), args.degree)
    triple = splitting.triple
    return {"upper": triple.left, "lower": triple.right, "incl": triple.mono, "proj": triple.epi,
            "u": splitting.u, "v": splitting.v, "identities_hold": True}


def _cmd_factorize(args):
    factorization = cellular_factorization(chain_map_from_json(_read_input(args)))
    return {
        "stages": list(factorization.stages),
        "subquotients": list(factorization.subquotients),
        "spherical_degrees": list(map(jsonio._integer, factorization.spherical_degrees)),
        "final": factorization.final,
        "composite_equals_input": True,
    }


def _cmd_kappa(args):
    result = kappa(complex_from_json(_read_input(args)))
    return {"retract": result.kos, "u": result.u, "v": result.v, "u_is_quasi_iso": True, "v_is_quasi_iso": True}


def _cmd_resolve(args):
    return resolve_in_kos1(presented_koszul_from_json(_read_input(args)))


def _cmd_efunctor(args):
    seq = e_functor(presented_koszul_from_json(_read_input(args)))
    return {"left": seq.left, "middle": seq.middle, "right": seq.right,
            "mono": {"1": seq.mono.degree1.matrix, "0": seq.mono.degree0.matrix},
            "epi": {"1": seq.epi.degree1.matrix, "0": seq.epi.degree0.matrix}}


def _cmd_excise(args):
    cert = excision_epi(chain_map_from_json(_read_input(args)))
    return {
        "target": cert.target,
        "q": cert.q,
        "retraction0": cert.retraction0,
        "sections": cert.sections,
        "kernel": cert.kernel,
        "kernel_inclusion": cert.kernel_inclusion,
        "verified": True,
    }


def _cmd_eddecompose(args):
    return ed_decompose(complex_from_json(_read_input(args)))


def _cmd_k0(args):
    return class_kos_isom(complex_from_json(_read_input(args)))


def _cmd_suite(args):
    params = GenParams(ring=ring_from_token(args.ring), seed=args.seed,
                       trials=args.trials)
    report = run_suite(args.name, params)
    payload = report.to_json()
    _write_output(args, payload)
    return None if report.ok else 1


_COMMANDS = {
    "snf": _cmd_snf,
    "homology": _cmd_homology,
    "cone": _cmd_cone,
    "cyl": _cmd_cyl,
    "truncate": _cmd_truncate,
    "split": _cmd_split,
    "factorize": _cmd_factorize,
    "kappa": _cmd_kappa,
    "resolve": _cmd_resolve,
    "efunctor": _cmd_efunctor,
    "excise": _cmd_excise,
    "eddecompose": _cmd_eddecompose,
    "k0": _cmd_k0,
}


@functools.cache
def _build_parser() -> tuple:
    """The one parser of the process and each subcommand's
    ``_plain_form`` by name; parsing leaves them unchanged."""
    parser = argparse.ArgumentParser(prog="koszulkit",
                                     description="Exact chain-complex calculator over a PID")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--in", dest="infile", default=None, help="input JSON file (default: stdin)")
        p.add_argument("--out", default=None, help="output JSON file (default: stdout)")

    for name in _COMMANDS:
        p = sub.add_parser(name)
        common(p)
        if name == "snf":
            p.add_argument("--ring", default="Z", help="Z or fpx:<p>")
        if name == "homology":
            p.add_argument("--degree", type=int, default=None)
        if name in ("truncate", "split"):
            p.add_argument("--degree", type=int, required=True)
        if name == "truncate":
            p.add_argument("--side", choices=("ge", "le"), required=True)

    p = sub.add_parser("suite")
    p.add_argument("name", choices=sorted(SUITES))
    common(p)
    p.add_argument("--ring", default="Z", help="Z or fpx:<p>")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)
    return parser, {name: _plain_form(p) for name, p in sub.choices.items()}


def _plain_form(sub: argparse.ArgumentParser) -> tuple:
    """What ``_read_plain`` needs of a subcommand's parser, taken from its
    own actions: each option that stores one value, by its full option
    string; the default of every destination that has one; and the
    destinations that must be given."""
    options, defaults, required = {}, {}, set()
    for action in sub._actions:
        if isinstance(action, argparse._StoreAction) and action.option_strings:
            options.update(dict.fromkeys(action.option_strings, action))
        if action.default is not argparse.SUPPRESS:
            defaults[action.dest] = action.default
        if action.required:
            required.add(action.dest)
    return options, defaults, required


def _read_plain(form: tuple, argv: list):
    """The namespace that the subcommand's parser gives for ``argv``, when
    ``argv`` has the plain form: ``--option value`` pairs only, each
    option spelled out in full and given once, no value starting with
    ``-``, each value of its option's type and among its choices, and
    every required option given.  None for any other ``argv``, which
    then takes argparse's own path and its messages."""
    options, defaults, required = form
    if len(argv) % 2:
        return None
    values = {}
    for option, text in zip(argv[::2], argv[1::2]):
        action = options.get(option)
        if action is None or action.dest in values or text[:1] == "-":
            return None
        value = text
        if action.type is not None:
            try:
                value = action.type(text)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    if not required.issubset(values):
        return None
    return argparse.Namespace(**{**defaults, **values})


def _parse(argv: list) -> argparse.Namespace:
    """The arguments as the two-level parse of ``_build_parser`` gives
    them, messages and exit codes included.  A known subcommand's
    arguments in the plain form are read by ``_read_plain`` without
    argparse; every other argv goes whole to the top-level parser."""
    parser, forms = _build_parser()
    form = forms.get(argv[0]) if argv else None
    args = None if form is None else _read_plain(form, argv[1:])
    if args is None:
        return parser.parse_args(argv)
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        if args.command == "suite":
            status = _cmd_suite(args)
            return 0 if status is None else status
        payload = _COMMANDS[args.command](args)
        _write_output(args, payload)
        return 0
    except (KoszulkitError, OSError) as error:
        print(f"koszulkit: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
