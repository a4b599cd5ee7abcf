"""Command-line front end: every subcommand is a thin adapter over one
library operation, with JSON in and JSON out.

Exit codes: 0 success, 1 property violation (a suite report with
failures was emitted), 2 invalid input.

Only ``snf`` and ``suite`` take ``--ring``; every other input names its
own ring in its ``"ring"`` token.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import jsonio
from .complexes import cone, homology, homology_table, structure_maps, truncate_ge, truncate_le, truncation_splitting
from .errors import InvalidInputError, KoszulkitError
from .generators import GenParams
from .jsonio import chain_map_from_json, complex_from_json, matrix_from_json, presented_koszul_from_json, value_to_json
from .k0 import class_kos_isom
from .koszul import cellular_factorization, e_functor, kappa, resolve_in_kos1
from .matrices import snf
from .rings import ring_from_token
from .sfiltering import ed_decompose, excision_epi
from .suites import SUITES, run_suite


def _read_input(args) -> object:
    try:
        if args.infile:
            with open(args.infile, "r", encoding="utf-8") as handle:
                return json.load(handle)
        return json.load(sys.stdin)
    except ValueError as error:  # not UTF-8, not JSON, or an integer past Python's digit limit
        raise InvalidInputError(str(error)) from None


def _write_output(args, payload: dict):
    text = jsonio._dumps(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _cmd_snf(args):
    mat = matrix_from_json(ring_from_token(args.ring), _read_input(args))
    cert = snf(mat)
    return {**value_to_json(cert), "verified": cert.verify(mat)}


def _cmd_homology(args):
    complex_ = complex_from_json(_read_input(args))
    if args.degree is not None:
        table = {args.degree: homology(complex_, args.degree)}
    else:
        table = homology_table(complex_)
    return value_to_json({"homology": table})


def _cmd_cone(args):
    built = cone(chain_map_from_json(_read_input(args)))
    return value_to_json({"cone": built.complex, "inclusion": built.inclusion, "projection": built.projection})


def _cmd_cyl(args):
    return value_to_json(structure_maps(chain_map_from_json(_read_input(args))))


def _cmd_truncate(args):
    complex_ = complex_from_json(_read_input(args))
    truncate = truncate_ge if args.side == "ge" else truncate_le
    return value_to_json(truncate(complex_, args.degree))


def _cmd_split(args):
    splitting = truncation_splitting(complex_from_json(_read_input(args)), args.degree)
    triple = splitting.triple
    return value_to_json({"upper": triple.upper, "lower": triple.lower, "incl": triple.incl, "proj": triple.proj,
                          "u": splitting.u, "v": splitting.v, "identities_hold": splitting.identities_hold()})


def _cmd_factorize(args):
    f = chain_map_from_json(_read_input(args))
    factorization = cellular_factorization(f)
    return value_to_json({
        "stages": factorization.stages,
        "subquotients": factorization.subquotients,
        "spherical_degrees": factorization.spherical_degrees,
        "final": factorization.final,
        "composite_equals_input": factorization.composite() == f,
    })


def _cmd_kappa(args):
    result = kappa(complex_from_json(_read_input(args)))
    return value_to_json({"retract": result.kos, "u": result.u, "v": result.v,
                          "u_is_quasi_iso": result.u_is_quasi_iso, "v_is_quasi_iso": result.v_is_quasi_iso})


def _cmd_resolve(args):
    return value_to_json(resolve_in_kos1(presented_koszul_from_json(_read_input(args))))


def _cmd_efunctor(args):
    seq = e_functor(presented_koszul_from_json(_read_input(args)))
    return value_to_json({"left": seq.left, "middle": seq.middle, "right": seq.right,
                          "mono": {1: seq.mono.degree1.matrix, 0: seq.mono.degree0.matrix},
                          "epi": {1: seq.epi.degree1.matrix, 0: seq.epi.degree0.matrix}})


def _cmd_excise(args):
    cert = excision_epi(chain_map_from_json(_read_input(args)))
    return value_to_json({
        "target": cert.target,
        "q": cert.q,
        "retraction0": cert.retraction0,
        "sections": cert.sections,
        "kernel": cert.kernel,
        "kernel_inclusion": cert.kernel_inclusion,
        "verified": cert.verifies(),
    })


def _cmd_eddecompose(args):
    return value_to_json(ed_decompose(complex_from_json(_read_input(args))))


def _cmd_k0(args):
    return value_to_json(class_kos_isom(complex_from_json(_read_input(args))))


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
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; ``parse_args`` leaves it unchanged."""
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
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
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
