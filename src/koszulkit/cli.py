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
from .jsonio import (
    chain_map_from_json,
    chain_map_to_json,
    complex_from_json,
    complex_to_json,
    fg_module_to_json,
    kappa_result_to_json,
    kos_class_to_json,
    matrix_from_json,
    matrix_to_json,
    presented_koszul_from_json,
    resolution_to_json,
    snf_certificate_to_json,
    triple_to_json,
)
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
    ring = ring_from_token(args.ring)
    mat = matrix_from_json(ring, _read_input(args))
    cert = snf(mat)
    payload = snf_certificate_to_json(cert)
    payload["verified"] = cert.verify(mat)
    return payload


def _cmd_homology(args):
    complex_ = complex_from_json(_read_input(args))
    if args.degree is not None:
        table = {args.degree: homology(complex_, args.degree)}
    else:
        table = homology_table(complex_)
    return {"homology": {str(n): fg_module_to_json(m) for n, m in table.items()}}


def _cmd_cone(args):
    f = chain_map_from_json(_read_input(args))
    built = cone(f)
    return {
        "cone": complex_to_json(built.complex),
        "inclusion": chain_map_to_json(built.inclusion),
        "projection": chain_map_to_json(built.projection),
    }


def _cmd_cyl(args):
    f = chain_map_from_json(_read_input(args))
    maps = structure_maps(f)
    return {
        "cylinder": complex_to_json(maps.cylinder),
        "j1": chain_map_to_json(maps.j1),
        "j2": chain_map_to_json(maps.j2),
        "p": chain_map_to_json(maps.p),
    }


def _cmd_truncate(args):
    complex_ = complex_from_json(_read_input(args))
    out = truncate_ge(complex_, args.degree) if args.side == "ge" else truncate_le(complex_, args.degree)
    return complex_to_json(out)


def _cmd_split(args):
    complex_ = complex_from_json(_read_input(args))
    splitting = truncation_splitting(complex_, args.degree)
    return {
        "upper": complex_to_json(splitting.triple.upper),
        "lower": complex_to_json(splitting.triple.lower),
        "incl": chain_map_to_json(splitting.triple.incl),
        "proj": chain_map_to_json(splitting.triple.proj),
        "u": chain_map_to_json(splitting.u),
        "v": chain_map_to_json(splitting.v),
        "identities_hold": splitting.identities_hold(),
    }


def _cmd_factorize(args):
    f = chain_map_from_json(_read_input(args))
    factorization = cellular_factorization(f)
    return {
        "stages": [chain_map_to_json(s) for s in factorization.stages],
        "subquotients": [complex_to_json(q) for q in factorization.subquotients],
        "spherical_degrees": list(factorization.spherical_degrees),
        "final": chain_map_to_json(factorization.final),
        "composite_equals_input": factorization.composite() == f,
    }


def _cmd_kappa(args):
    complex_ = complex_from_json(_read_input(args))
    return kappa_result_to_json(kappa(complex_))


def _cmd_resolve(args):
    target = presented_koszul_from_json(_read_input(args))
    return resolution_to_json(resolve_in_kos1(target))


def _cmd_efunctor(args):
    target = presented_koszul_from_json(_read_input(args))
    return triple_to_json(e_functor(target))


def _cmd_excise(args):
    mono = chain_map_from_json(_read_input(args))
    cert = excision_epi(mono)
    return {
        "target": complex_to_json(cert.target),
        "q": chain_map_to_json(cert.q),
        "retraction0": matrix_to_json(cert.retraction0),
        "sections": {str(n): matrix_to_json(m) for n, m in cert.sections.items()},
        "kernel": complex_to_json(cert.kernel),
        "kernel_inclusion": chain_map_to_json(cert.kernel_inclusion),
        "verified": cert.verifies(),
    }


def _cmd_eddecompose(args):
    complex_ = complex_from_json(_read_input(args))
    dec = ed_decompose(complex_)
    ring = complex_.ring
    return {
        "nonunit_part": complex_to_json(dec.nonunit_part),
        "unit_part": complex_to_json(dec.unit_part),
        "iso": chain_map_to_json(dec.iso),
        "divisors": [jsonio.element_to_json(ring, d) for d in dec.nonunit_divisors],
    }


def _cmd_k0(args):
    complex_ = complex_from_json(_read_input(args))
    return kos_class_to_json(class_kos_isom(complex_))


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
