import argparse
import contextlib
import errno
import io
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from koszulkit import jsonio, rings
from koszulkit.cli import _build_parser, _parse, _read_plain, main
from koszulkit.complexes import ChainMap, ComplexSes, direct_sum, kernel_image_sequences, two_term, zero_complex
from koszulkit.errors import HypothesisNotMetError, InvalidInputError
from koszulkit.jsonio import chain_map_from_json
from koszulkit.matrices import Matrix
from koszulkit.rings import ZZ, IntegerRing, ring_from_token
from koszulkit.sfiltering import idempotent_split

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_snf_command(tmp_path, capsys):
    path = write_json(tmp_path, "m.json", {"rows": 2, "cols": 2, "entries": [[2, 0], [0, 3]]})
    code, out, _ = run_cli(capsys, "snf", "--ring", "Z", "--in", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["divisors"] == [1, 6]
    assert payload["verified"] is True


def test_snf_large_entries_roundtrip(tmp_path, capsys):
    big = 2 ** 60
    path = write_json(tmp_path, "m.json",
                      {"rows": 1, "cols": 1, "entries": [[str(big)]]})
    code, out, _ = run_cli(capsys, "snf", "--ring", "Z", "--in", path)
    assert code == 0
    assert json.loads(out)["divisors"] == [str(big)]


def test_snf_entry_beyond_int_str_limit_roundtrips(tmp_path, capsys):
    # Python refuses int <-> str conversions past 4300 digits by default.
    big = -(10 ** 4999 + 7)
    literal = jsonio.value_to_json(big)
    assert len(literal) == 5001
    assert jsonio.element_from_json(ZZ, literal) == big
    path = write_json(tmp_path, "m.json", {"rows": 1, "cols": 1, "entries": [[literal]]})
    code, out, _ = run_cli(capsys, "snf", "--ring", "Z", "--in", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert jsonio.element_from_json(ZZ, payload["divisors"][0]) == -big
    assert jsonio.element_from_json(ZZ, payload["D"]["entries"][0][0]) == -big


def complex_payload():
    return {"ring": "Z", "ranks": {"1": 1, "0": 1},
            "differentials": {"1": {"rows": 1, "cols": 1, "entries": [[6]]}}}


def test_homology_command(tmp_path, capsys):
    path = write_json(tmp_path, "c.json", complex_payload())
    code, out, _ = run_cli(capsys, "homology", "--in", path)
    assert code == 0
    assert json.loads(out)["homology"]["0"] == {"free_rank": 0, "torsion": [6]}


@pytest.mark.parametrize("ring, entry", [
    ("Z", str(10 ** 24 + 7)),            # a 25-digit prime
    ("fpx:101", [3, 1, 0, 0, 0, 0, 1]),  # x^6 + x + 3, irreducible over F_101
], ids=["Z-25-digit-prime", "F101x-degree-6-irreducible"])
def test_homology_of_large_prime_needs_no_factoring(tmp_path, capsys, cpu_time_limit, call_log, ring, entry):
    payload = {"ring": ring, "ranks": {"1": 1, "0": 1},
               "differentials": {"1": {"rows": 1, "cols": 1, "entries": [[entry]]}}}
    path = write_json(tmp_path, "c.json", payload)
    ring_class = type(ring_from_token(ring))
    factored, tested = call_log(ring_class, "factor"), call_log(ring_class, "_is_irreducible")
    with cpu_time_limit(0.05):
        code, out, _ = run_cli(capsys, "homology", "--in", path)
    assert code == 0
    assert factored == [] and tested == []
    assert json.loads(out)["homology"] == {"0": {"free_rank": 0, "torsion": [entry]},
                                           "1": {"free_rank": 0, "torsion": []}}


def test_k0_of_large_prime_is_fast(tmp_path, capsys, cpu_time_limit, call_log):
    prime = 10 ** 24 + 7  # above the trial-division range, below the proof bound
    payload = {"ring": "Z", "ranks": {"1": 1, "0": 1},
               "differentials": {"1": {"rows": 1, "cols": 1, "entries": [[str(prime)]]}}}
    path = write_json(tmp_path, "c.json", payload)
    factored, tested = call_log(IntegerRing, "factor"), call_log(rings, "is_prime")
    rho, roots = call_log(rings, "_pollard_brent"), call_log(rings, "_perfect_power")
    with cpu_time_limit(0.05):
        code, out, _ = run_cli(capsys, "k0", "--in", path)
    assert code == 0
    # One factoring, which a single primality test ends: no root or rho step.
    assert factored == [(ZZ, prime)] and tested == [(prime,)]
    assert rho == [] and roots == []
    assert json.loads(out) == {"rank": 1, "torsion": [{"mult": 1, "prime": str(prime)}]}


def test_k0_command(tmp_path, capsys):
    path = write_json(tmp_path, "c.json", complex_payload())
    code, out, _ = run_cli(capsys, "k0", "--in", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 1
    assert payload["torsion"] == [{"mult": 1, "prime": 2}, {"mult": 1, "prime": 3}]


def test_truncate_and_split_commands(tmp_path, capsys):
    payload = {"ring": "Z", "ranks": {"2": 1, "1": 2, "0": 1},
               "differentials": {"2": {"rows": 2, "cols": 1, "entries": [[3], [0]]},
                                 "1": {"rows": 1, "cols": 2, "entries": [[0, 2]]}}}
    path = write_json(tmp_path, "c.json", payload)
    code, out, _ = run_cli(capsys, "truncate", "--in", path, "--degree", "0", "--side", "le")
    assert code == 0
    assert json.loads(out)["ranks"] == {"0": 1, "1": 1}
    code, out, _ = run_cli(capsys, "split", "--in", path, "--degree", "0")
    assert code == 0
    assert json.loads(out)["identities_hold"] is True


def test_reused_parser_keeps_no_parsed_state(tmp_path, capsys):
    payload = {"ring": "Z", "ranks": {"2": 1, "1": 2, "0": 1},
               "differentials": {"2": {"rows": 2, "cols": 1, "entries": [[3], [0]]},
                                 "1": {"rows": 1, "cols": 2, "entries": [[0, 2]]}}}
    path = write_json(tmp_path, "c.json", payload)
    calls = [("homology", "--in", path, "--degree", "0"),
             ("homology", "--in", path),
             ("truncate", "--in", path, "--degree", "0", "--side", "ge"),
             ("truncate", "--in", path, "--degree", "0", "--side", "le")]
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert fresh[0] != fresh[1] and fresh[2] != fresh[3]
    _build_parser.cache_clear()
    assert [run_cli(capsys, *argv) for argv in calls] == fresh


def test_parser_is_built_once(tmp_path, capsys):
    path = write_json(tmp_path, "c.json", complex_payload())
    _build_parser.cache_clear()
    for command in ("homology", "k0", "kappa", "homology"):
        assert run_cli(capsys, command, "--in", path)[0] == 0
    assert _build_parser.cache_info().misses == 1


def test_cone_cyl_commands(tmp_path, capsys):
    payload = {"source": complex_payload(), "target": complex_payload(),
               "components": {"1": {"rows": 1, "cols": 1, "entries": [[1]]},
                              "0": {"rows": 1, "cols": 1, "entries": [[1]]}}}
    path = write_json(tmp_path, "f.json", payload)
    code, out, _ = run_cli(capsys, "cone", "--in", path)
    assert code == 0
    assert json.loads(out)["cone"]["ranks"] == {"0": 1, "1": 2, "2": 1}
    code, out, _ = run_cli(capsys, "cyl", "--in", path)
    assert code == 0
    assert json.loads(out)["cylinder"]["ranks"] == {"0": 2, "1": 3, "2": 1}


def test_factorize_command(tmp_path, capsys):
    payload = {"source": {"ring": "Z", "ranks": {}, "differentials": {}},
               "target": complex_payload(), "components": {}}
    path = write_json(tmp_path, "f.json", payload)
    code, out, _ = run_cli(capsys, "factorize", "--in", path)
    assert code == 0
    result = json.loads(out)
    assert result["composite_equals_input"] is True
    assert result["spherical_degrees"] == [0]


def test_factorize_output_is_small_on_the_m7_request(tmp_path, capsys, cpu_time_limit):
    """The zero map into the sum of the copies k < 7 of [Z -2-> Z] in
    degrees k+1 and k factors through 7 stages of one pair of cells each,
    so the answer takes well under a second and 100 KB."""
    target = direct_sum(*(two_term(Matrix(ZZ, [[2]]), k + 1) for k in range(7))).complex
    path = write_json(tmp_path, "f.json", jsonio.value_to_json(ChainMap.zero(zero_complex(ZZ), target)))
    with cpu_time_limit(1):
        code, out, _ = run_cli(capsys, "factorize", "--in", path)
    assert code == 0
    assert len(out.encode()) < 100_000
    result = json.loads(out)
    assert result["composite_equals_input"] is True
    assert result["spherical_degrees"] == list(range(7))


def test_kappa_command(tmp_path, capsys):
    path = write_json(tmp_path, "c.json", complex_payload())
    code, out, _ = run_cli(capsys, "kappa", "--in", path)
    assert code == 0
    result = json.loads(out)
    assert result["u_is_quasi_iso"] and result["v_is_quasi_iso"]
    assert result["retract"]["ranks"] == {"0": 1, "1": 1}


def test_resolve_and_efunctor_commands(tmp_path, capsys):
    payload = {"ring": "Z", "ranks": {"1": 0, "0": 1},
               "differentials": {},
               "presentations": {"0": {"rows": 1, "cols": 1, "entries": [[2]]}}}
    path = write_json(tmp_path, "p.json", payload)
    code, out, _ = run_cli(capsys, "resolve", "--in", path)
    assert code == 0
    result = json.loads(out)
    assert result["cover"]["ranks"] == {"0": 1, "1": 1}
    assert result["cover"]["differentials"]["1"]["entries"] == [[2]]
    code, out, _ = run_cli(capsys, "efunctor", "--in", path)
    assert code == 0
    assert json.loads(out)["right"]["presentations"]["0"]["entries"] == [[2]]


def test_excise_and_eddecompose_commands(tmp_path, capsys):
    mono = {"source": {"ring": "Z", "ranks": {"1": 1, "0": 1},
                       "differentials": {"1": {"rows": 1, "cols": 1, "entries": [[1]]}}},
            "target": {"ring": "Z", "ranks": {"1": 2, "0": 2},
                       "differentials": {"1": {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 2]]}}},
            "components": {"1": {"rows": 2, "cols": 1, "entries": [[1], [0]]},
                           "0": {"rows": 2, "cols": 1, "entries": [[1], [0]]}}}
    path = write_json(tmp_path, "mono.json", mono)
    code, out, _ = run_cli(capsys, "excise", "--in", path)
    assert code == 0
    assert json.loads(out)["verified"] is True
    target = write_json(tmp_path, "w.json",
                        {"ring": "Z", "ranks": {"1": 2, "0": 2},
                         "differentials": {"1": {"rows": 2, "cols": 2, "entries": [[2, 1], [0, 3]]}}})
    code, out, _ = run_cli(capsys, "eddecompose", "--in", target)
    assert code == 0
    assert json.loads(out)["divisors"] == [6]


def test_excise_from_the_zero_complex(tmp_path, capsys):
    mono = {"source": {"ring": "Z", "ranks": {}, "differentials": {}},
            "target": {"ring": "Z", "ranks": {"1": 2, "0": 2},
                       "differentials": {"1": {"rows": 2, "cols": 2, "entries": [[1, 0], [0, 3]]}}},
            "components": {}}
    code, out, _ = run_cli(capsys, "excise", "--in", write_json(tmp_path, "mono.json", mono))
    assert code == 0
    result = json.loads(out)
    assert result["verified"] is True
    assert result["target"]["differentials"] == {"1": {"rows": 1, "cols": 1, "entries": [[1]]}}


def test_suite_command(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "suite", "cor3_8", "--ring", "Z",
                         "--seed", "4", "--trials", "4", "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["suite"] == "cor3_8" and report["failures"] == []


def test_suite_with_negative_trials_exits_2(capsys):
    code, out, err = run_cli(capsys, "suite", "cor3_8", "--trials", "-1")
    assert code == 2 and out == "" and "trials" in err


def test_python_dash_m_runs_the_cli_from_the_source_tree(tmp_path):
    path = write_json(tmp_path, "m.json", {"rows": 2, "cols": 2, "entries": [[2, 0], [0, 3]]})
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "koszulkit", "snf", "--in", path],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["divisors"] == [1, 6]
    bad = subprocess.run([sys.executable, "-m", "koszulkit", "snf", "--in", str(tmp_path / "missing.json")],
                         capture_output=True, text=True, env=env, timeout=60)
    assert bad.returncode == 2


def _outcome(capsys, call):
    """(exit code, stdout, stderr) of ``call()``, argparse's exits included."""
    try:
        code = call()
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_dash_m(argv):
    """(exit code, stdout, stderr) of ``python -m koszulkit`` on ``argv``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, COLUMNS="80",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "koszulkit", *argv], capture_output=True, text=True, env=env,
                          timeout=60)
    return done.returncode, done.stdout, done.stderr


@pytest.fixture(params=["in-process", "python-m"])
def cli(request, capsys, monkeypatch):
    """Runs the CLI on an argv, in process or as ``python -m koszulkit``,
    with help text wrapped at 80 columns either way."""
    monkeypatch.setenv("COLUMNS", "80")
    if request.param == "python-m":
        return _run_dash_m
    return lambda argv: _outcome(capsys, lambda: main(argv))


# The usage paths.  A known subcommand's arguments go to its own parser
# alone; every one of these must read as the two-level parse of the
# top-level parser reads it: exit code, stdout and stderr.
USAGE = {
    "no-command": [],
    "unknown-command": ["bogus"],
    "help": ["--help"],
    **{f"{name}-help": [name, "--help"] for name in _build_parser()[1]},
    "split-without-degree": ["split"],
    "truncate-side-x": ["truncate", "--degree", "0", "--side", "x"],
    "snf-ring-without-value": ["snf", "--ring"],
    "snf-bogus": ["snf", "--bogus"],
    "snf-after-double-dash": ["snf", "--", "x"],
}


@pytest.mark.parametrize("argv", USAGE.values(), ids=USAGE)
def test_usage_reads_as_the_two_level_parse(capsys, cli, argv):
    want = _outcome(capsys, lambda: _build_parser()[0].parse_args(argv))
    code, out, err = want
    assert (code, bool(out), bool(err)) in ((0, True, False), (2, False, True))
    assert cli(argv) == want


# The plain-form reader against argparse.  Each argv is a subcommand's
# own options in a random order, each with a value drawn for it, then
# up to two tokens put in anywhere: other options, abbreviations,
# ``--opt=v``, ``--``, ``-h``.  Values include negative, empty, non-int
# and out-of-choice ones.
def _plain_argvs():
    from hypothesis import strategies as st

    commands = _build_parser()[1]
    values = {
        "--degree": ["0", "7", " 2", "-1", "", "1.5", "x"],
        "--side": ["ge", "le", "x", "", "GE", "-1"],
        "--seed": ["0", "3", "-1", "", "x"],
        "--trials": ["1", "0", "-5", "", "x"],
    }
    others = ["a.json", "Z", "fpx:3", "", "-", "-1", "--in", "lemma2_4"]
    noise = ["-h", "--help", "--", "--i", "--deg", "--si", "--s", "--degree=1", "--side=ge", "--ring=Z",
             "--ring", "--degree", "--side", "--in", "--bogus", "x", "-1", "lemma2_4"]

    @st.composite
    def argvs(draw):
        name = draw(st.sampled_from(sorted(commands)))
        own = sorted(option for action in commands[name]._actions for option in action.option_strings
                     if option.startswith("--") and option != "--help")
        options = draw(st.permutations(own))
        options = options[:draw(st.integers(max(len(options) - 2, 0), len(options)))]
        argv = []
        for option in options:
            argv += [option, draw(st.sampled_from(values.get(option, others)))]
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
            argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(noise)))
        return name, argv
    return argvs()


def _argparse_reading(name, argv):
    """``parse_known_args`` of subcommand ``name`` on ``argv``, or None
    where argparse exits."""
    stream = io.StringIO()
    try:
        with contextlib.redirect_stdout(stream), contextlib.redirect_stderr(stream):
            return _build_parser()[1][name].parse_known_args(argv)
    except SystemExit:
        return None


def _check_plain_reader(name, argv):
    plain = _read_plain(_build_parser()[2][name], argv)
    reading = _argparse_reading(name, argv)
    if reading is None:
        assert plain is None, (name, argv)
    elif plain is not None:
        assert reading == (plain, []), (name, argv)
    return plain


try:
    from hypothesis import example, given, settings
except ImportError:
    @pytest.mark.skip(reason="needs hypothesis (the ``test`` extra)")
    def test_plain_reader_defers_or_agrees_with_argparse():
        pass
else:
    @settings(max_examples=600, deadline=None)
    @example(("truncate", ["--degree", "0", "--side", "x"]))
    @example(("truncate", ["--degree", "x", "--side", "ge"]))
    @example(("split", ["--in", "a.json"]))
    @example(("homology", ["--degree", "-1"]))
    @example(("snf", ["--ring", "Z", "--ring", "fpx:3"]))
    @example(("snf", ["--ring", ""]))
    @example(("suite", ["--seed", "1"]))
    @given(_plain_argvs())
    def test_plain_reader_defers_or_agrees_with_argparse(case):
        _check_plain_reader(*case)


# Requests of the plain form, as perfbench's cli-requests workload and
# most callers write them; each is read without argparse.
PLAIN_REQUESTS = [
    ("snf", ["--ring", "fpx:3", "--in", "a.json", "--out", "b.json"]),
    ("snf", ["--in", "a.json"]),
    ("homology", ["--in", "a.json", "--degree", "3", "--out", "b.json"]),
    ("truncate", ["--side", "le", "--degree", "0", "--in", "a.json"]),
    ("split", ["--degree", "2"]),
    ("k0", []),
    ("eddecompose", ["--out", ""]),
]


@pytest.mark.parametrize("name, argv", PLAIN_REQUESTS)
def test_plain_requests_skip_argparse(monkeypatch, name, argv):
    want = _argparse_reading(name, argv)
    assert _check_plain_reader(name, argv) is not None
    parsers = [_build_parser()[0], *_build_parser()[1].values()]
    for parser in parsers:
        monkeypatch.setattr(parser, "parse_known_args", None)
    assert _parse([name, *argv]) == argparse.Namespace(**vars(want[0]), command=name)


def test_unrecognized_arguments_are_reported_by_the_top_level_parser(cli):
    code, out, err = cli(["snf", "--bogus"])
    assert (code, out) == (2, "") and err.startswith("usage: koszulkit [-h]")
    assert err.endswith("\nkoszulkit: error: unrecognized arguments: --bogus\n")


# The input paths of ``--in``: the file's bytes (None: no file, "dir": a
# directory) and the stderr line, with {path} for the path.
BAD_INPUT = {
    "missing": (None, "koszulkit: [Errno 2] No such file or directory: '{path}'\n"),
    "directory": ("dir", "koszulkit: [Errno 21] Is a directory: '{path}'\n"),
    "not-utf-8": (b'{"ring": "\xff"}',
                  "koszulkit: 'utf-8' codec can't decode byte 0xff in position 10: invalid start byte\n"),
    "utf-8-bom": (b'\xef\xbb\xbf{"rows": 1, "cols": 1, "entries": [[4]]}',
                  "koszulkit: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)\n"),
    # Line ends count as text mode reads them: CRLF and a lone CR as one "\n".
    "crlf-unclosed": (b'{"rows": 1,\r\n "cols": 1,\r\n "entries": [[4]\r\n',
                      "koszulkit: Expecting ',' delimiter: line 4 column 1 (char 41)\n"),
    "cr-unclosed": (b'{"rows": 1,\r "cols": 1,\r "entries": [[4]\r',
                    "koszulkit: Expecting ',' delimiter: line 4 column 1 (char 41)\n"),
    "empty": (b"", "koszulkit: Expecting value: line 1 column 1 (char 0)\n"),
}


@pytest.mark.parametrize("data, message", BAD_INPUT.values(), ids=BAD_INPUT)
def test_unreadable_input_file_exits_2_with_the_text_mode_message(tmp_path, cli, data, message):
    path = tmp_path / "in.json"
    if data == "dir":
        path.mkdir()
    elif data is not None:
        path.write_bytes(data)
    assert cli(["snf", "--in", str(path)]) == (2, "", message.format(path=path))


def test_crlf_input_reads_as_lf_input(tmp_path, cli):
    lf, crlf = tmp_path / "lf.json", tmp_path / "crlf.json"
    lf.write_bytes(b'{"rows": 2,\n "cols": 2,\n "entries": [[2, 0],\n [0, 3]]}\n')
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    code, out, err = cli(["snf", "--in", str(crlf)])
    assert (code, err) == (0, "") and json.loads(out)["divisors"] == [1, 6]
    assert cli(["snf", "--in", str(lf)]) == (code, out, err)


def test_out_flag_writes_file(tmp_path, capsys):
    in_path = write_json(tmp_path, "m.json", {"rows": 1, "cols": 1, "entries": [[4]]})
    out_path = tmp_path / "res.json"
    code, out, _ = run_cli(capsys, "snf", "--in", in_path, "--out", str(out_path))
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["divisors"] == [4]


# The fixed requests of the wire pins: one or more of every subcommand.
WIRE_REQUESTS = json.loads((FIXTURES / "wire_requests.json").read_text())
each_wire_request = pytest.mark.parametrize("request_", WIRE_REQUESTS, ids=[r["label"] for r in WIRE_REQUESTS])


def wire_argv(tmp_path, request_) -> list:
    return [*request_["argv"], "--in", write_json(tmp_path, "in.json", request_["input"])]


@each_wire_request
def test_out_file_holds_the_stdout_text(tmp_path, capsys, request_):
    argv = wire_argv(tmp_path, request_)
    code, text, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    longer, shorter, new = tmp_path / "longer.json", tmp_path / "shorter.json", tmp_path / "new.json"
    longer.write_bytes(b"x" * (2 * len(text) + 4096))
    shorter.write_bytes(b"x" * 3)
    for dst in (longer, shorter, new):
        assert run_cli(capsys, *argv, "--out", str(dst)) == (0, "", "")
        assert dst.read_bytes() == text.encode()


@each_wire_request
def test_out_dev_null_exits_0(tmp_path, capsys, request_):
    assert run_cli(capsys, *wire_argv(tmp_path, request_), "--out", os.devnull) == (0, "", "")


def refuse_read_only_opens(monkeypatch):
    """Make ``os.open`` refuse to open a file without write bits for
    writing, as the kernel does for a process without the privilege to
    bypass file permissions."""
    real = os.open

    def open_(path, flags, *args, **kwargs):
        if flags & (os.O_WRONLY | os.O_RDWR) and os.path.isfile(path) and not os.stat(path).st_mode & 0o222:
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        return real(path, flags, *args, **kwargs)
    monkeypatch.setattr(os, "open", open_)


@each_wire_request
def test_unwritable_out_exits_2_and_keeps_its_bytes(tmp_path, capsys, monkeypatch, request_):
    argv = wire_argv(tmp_path, request_)
    locked, directory = tmp_path / "locked.json", tmp_path / "dir"
    locked.write_bytes(b"kept bytes")
    locked.chmod(0o444)
    directory.mkdir()
    if os.access(locked, os.W_OK):  # a privileged process opens it anyway
        refuse_read_only_opens(monkeypatch)
    for dst in (locked, directory):
        code, out, err = run_cli(capsys, *argv, "--out", str(dst))
        assert code == 2 and out == "" and err.startswith("koszulkit: ") and err.count("\n") == 1, dst
    assert locked.read_bytes() == b"kept bytes"
    assert list(directory.iterdir()) == []


@each_wire_request
@pytest.mark.parametrize("mask", [0o022, 0o077, 0o002])
def test_new_out_file_gets_the_mode_of_open(tmp_path, capsys, request_, mask):
    argv = wire_argv(tmp_path, request_)
    new, reference = tmp_path / "new.json", tmp_path / "reference.json"
    previous = os.umask(mask)
    try:
        code = main([*argv, "--out", str(new)])
        open(reference, "w").close()
    finally:
        os.umask(previous)
    assert code == 0
    assert stat.S_IMODE(new.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode) == 0o666 & ~mask


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "snf", "--in", str(path))
    assert code == 2 and err


@pytest.mark.parametrize("shape", [
    {"rows": 0, "cols": -3, "entries": []},
    {"rows": 1.5, "cols": 1, "entries": [[2]]},
    {"rows": True, "cols": 1, "entries": [[2]]},
    {"rows": 1, "cols": "1", "entries": [[2]]},
], ids=["negative", "float", "bool", "string"])
def test_bad_matrix_shape_exits_2(tmp_path, capsys, shape):
    path = write_json(tmp_path, "m.json", shape)
    code, out, err = run_cli(capsys, "snf", "--ring", "Z", "--in", path)
    assert code == 2 and out == "" and "shape" in err


# Requests whose JSON has the wrong shape, with a word of the refusal.
BAD_JSON = {
    "boolean-entry": (["snf"], {"rows": 1, "cols": 1, "entries": [[True]]}, "boolean"),
    "float-entry": (["snf"], {"rows": 1, "cols": 1, "entries": [[1.5]]}, "integer entry"),
    "string-polynomial": (["snf", "--ring", "fpx:3"], {"rows": 1, "cols": 1, "entries": [["x"]]}, "polynomial"),
    "matrix-list": (["snf"], [[1]], "object"),
    "matrix-without-entries": (["snf"], {"rows": 1, "cols": 1}, "needs rows"),
    "matrix-short": (["snf"], {"rows": 2, "cols": 1, "entries": [[1]]}, "number of rows"),
    "complex-without-ring": (["homology"], {"ranks": {"0": 1}}, "ring token"),
    "complex-list": (["homology"], [], "object"),
    "map-without-target": (["cone"], {"source": {"ring": "Z", "ranks": {}}}, "source and target"),
    "presented-list": (["resolve"], [], "object"),
    "presented-degree-2": (["resolve"], {"ring": "Z", "ranks": {"2": 1}}, "degrees 0 and 1"),
}


@pytest.mark.parametrize("argv, payload, word", BAD_JSON.values(), ids=BAD_JSON)
def test_bad_json_exits_2(tmp_path, capsys, argv, payload, word):
    path = write_json(tmp_path, "bad.json", payload)
    code, out, err = run_cli(capsys, *argv, "--in", path)
    assert code == 2 and out == "" and word in err


def test_input_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"rows": 1, "cols": 1, "entries": [[4]]})))
    code, out, _ = run_cli(capsys, "snf")
    assert code == 0 and json.loads(out)["divisors"] == [4]


@pytest.fixture
def matrix_sizes(call_log):
    """``matrix_sizes()`` is the entry count of every matrix built so far in
    the test, whatever the host's speed.  Every matrix goes through
    ``Matrix.__init__`` or ``Matrix._from_work``; the shared zero blocks
    are cleared first, since a cached block is returned without being built."""
    Matrix.zeros.cache_clear()
    public, computed = call_log(Matrix, "__init__"), call_log(Matrix, "_from_work")
    return lambda: ([len(rows) * len(rows[0]) if rows else 0 for _, _, rows in public]
                    + [rows * cols for _, rows, cols, _ in computed])


# Requests that name a rank or matrix dimension far above
# ``jsonio._MAX_COUNT``: each must be refused before anything of that
# size is built.
HUGE = 10 ** 30
HUGE_COMPLEX = {"ring": "Z", "ranks": {"0": HUGE}, "differentials": {}}
HUGE_PRESENTED = {"ring": "Z", "ranks": {"1": 1, "0": HUGE}}
HUGE_MAP = {"source": HUGE_COMPLEX, "target": {"ring": "Z", "ranks": {}, "differentials": {}}, "components": {}}
HUGE_REQUESTS = {
    "k0": (["k0"], HUGE_COMPLEX),
    "eddecompose": (["eddecompose"], HUGE_COMPLEX),
    "split": (["split", "--degree", "0"], HUGE_COMPLEX),
    "truncate-le": (["truncate", "--degree", "0", "--side", "le"], HUGE_COMPLEX),
    "homology": (["homology"], HUGE_COMPLEX),
    "snf": (["snf"], {"rows": 0, "cols": HUGE, "entries": []}),
    "resolve": (["resolve"], HUGE_PRESENTED),
    "efunctor": (["efunctor"], HUGE_PRESENTED),
    "cone": (["cone"], HUGE_MAP),
    "excise": (["excise"], HUGE_MAP),
    "cyl": (["cyl"], HUGE_MAP),
}


@pytest.mark.parametrize("argv, payload", HUGE_REQUESTS.values(), ids=HUGE_REQUESTS)
def test_huge_count_exits_2(tmp_path, capsys, cpu_time_limit, matrix_sizes, argv, payload):
    path = write_json(tmp_path, "huge.json", payload)
    with cpu_time_limit(0.05):
        code, out, err = run_cli(capsys, *argv, "--in", path)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("koszulkit: ") and "limit" in err
    assert max(matrix_sizes(), default=0) <= jsonio._MAX_COUNT


LIMIT = jsonio._MAX_COUNT
FREE_DEGREE_ONE = {
    "no-presentation": {"ring": "Z", "ranks": {"1": LIMIT, "0": LIMIT}},
    "presentation-without-columns": {
        "ring": "Z", "ranks": {"1": LIMIT, "0": LIMIT},
        "presentations": {"1": {"rows": LIMIT, "cols": 0, "entries": [[]] * LIMIT}}},
}


@pytest.mark.parametrize("command", ["resolve", "efunctor"])
def test_free_degree_one_without_a_boundary_exits_2_at_once(tmp_path, capsys, cpu_time_limit, matrix_sizes,
                                                            command):
    for name, request in FREE_DEGREE_ONE.items():
        path = write_json(tmp_path, f"{name}.json", request)
        with cpu_time_limit(0.05):
            code, out, err = run_cli(capsys, command, "--in", path)
        assert (code, out, err) == (2, "", "koszulkit: boundary map is not injective\n"), name
        # The zero boundary of LIMIT x LIMIT entries is refused unbuilt.
        assert max(matrix_sizes(), default=0) <= LIMIT, name


UNREADABLE = {
    "5000-digit-integer": b'{"ring": "Z", "ranks": {"0": ' + b"9" * 5000 + b"}}",
    "not-utf-8": b'{"ring": "\xff"}',
}


@pytest.mark.parametrize("data", UNREADABLE.values(), ids=UNREADABLE)
def test_input_that_python_cannot_read_as_json_exits_2(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    code, out, err = run_cli(capsys, "k0", "--in", str(path))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("koszulkit: ")


def test_count_limit_is_inclusive():
    limit = jsonio._MAX_COUNT
    assert jsonio.complex_from_json({"ring": "Z", "ranks": {"0": limit}}).rank(0) == limit
    with pytest.raises(InvalidInputError, match="limit"):
        jsonio.complex_from_json({"ring": "Z", "ranks": {"0": limit + 1}})


@pytest.mark.parametrize("rank", [1.5, True, "1", -1], ids=["float", "bool", "string", "negative"])
def test_bad_complex_rank_exits_2(tmp_path, capsys, rank):
    payload = complex_payload()
    payload["ranks"]["1"] = rank
    path = write_json(tmp_path, "c.json", payload)
    code, out, err = run_cli(capsys, "homology", "--in", path)
    assert code == 2 and out == "" and "rank" in err


@pytest.mark.parametrize("rank", [3.5, "3"], ids=["float", "string"])
def test_bad_presented_rank_exits_2(tmp_path, capsys, rank):
    payload = {"ring": "Z", "ranks": {"1": 0, "0": rank},
               "presentations": {"0": {"rows": 3, "cols": 3,
                                       "entries": [[2, 0, 0], [0, 3, 0], [0, 0, 5]]}}}
    path = write_json(tmp_path, "p.json", payload)
    code, out, err = run_cli(capsys, "resolve", "--in", path)
    assert code == 2 and out == "" and "rank" in err


@pytest.mark.parametrize("command", ["resolve", "efunctor"])
@pytest.mark.parametrize("table", [None, 1, True, ["1"], "x"], ids=["null", "int", "bool", "list", "string"])
def test_bad_presented_differentials_table_exits_2(tmp_path, capsys, command, table):
    # A string is refused too, not read as an empty table.
    payload = {"ring": "Z", "ranks": {"1": 1, "0": 1}, "differentials": table,
               "presentations": {"0": {"rows": 1, "cols": 1, "entries": [[2]]}}}
    path = write_json(tmp_path, "p.json", payload)
    code, out, err = run_cli(capsys, command, "--in", path)
    assert code == 2 and out == "" and "bad differentials table" in err


# Keys that name no degree of a presented complex [P1 -> P0]: its only
# differential is d_1, and its only presentations are those of P1 and P0.
STRAY_PRESENTED_KEYS = [("differentials", "2"), ("differentials", "0"), ("differentials", "01"),
                        ("presentations", "2"), ("presentations", "-1"), ("presentations", "01")]


@pytest.mark.parametrize("command", ["resolve", "efunctor"])
@pytest.mark.parametrize("table, key", STRAY_PRESENTED_KEYS, ids=[f"{t}-{k}" for t, k in STRAY_PRESENTED_KEYS])
def test_stray_presented_table_key_exits_2(tmp_path, capsys, command, table, key):
    one = {"rows": 1, "cols": 1, "entries": [[1]]}
    payload = {"ring": "Z", "ranks": {"1": 1, "0": 1},
               "differentials": {"1": {"rows": 1, "cols": 1, "entries": [[2]]}}, "presentations": {}}
    payload[table][key] = one
    path = write_json(tmp_path, "p.json", payload)
    code, out, err = run_cli(capsys, command, "--in", path)
    assert code == 2 and out == "" and "degree" in err


@pytest.mark.parametrize("command", ["resolve", "efunctor"])
def test_stray_presented_tables_are_not_ignored(tmp_path, capsys, command):
    payload = {"ring": "Z", "ranks": {"1": 1, "0": 1},
               "differentials": {"1": {"rows": 1, "cols": 1, "entries": [[2]]},
                                 "2": {"rows": 5, "cols": 5, "entries": "junk"}},
               "presentations": {"01": "junk"}}
    path = write_json(tmp_path, "p.json", payload)
    code, out, err = run_cli(capsys, command, "--in", path)
    assert code == 2 and out == "" and err


# Degree keys that Python's int() reads as the degree given here; only
# str(degree) itself is a degree key.
NON_CANONICAL_KEYS = [("1_0", 10), (" 1", 1), ("+1", 1), ("01", 1)]


def keyed_complex(key, degree, table):
    """[Z -6-> Z] in degrees (degree, degree - 1), keyed by ``key`` in ``table``."""
    top = {"ranks": str(degree), "differentials": str(degree), table: key}
    return {"ring": "Z", "ranks": {top["ranks"]: 1, str(degree - 1): 1},
            "differentials": {top["differentials"]: {"rows": 1, "cols": 1, "entries": [[6]]}}}


@pytest.mark.parametrize("table", ["ranks", "differentials"])
@pytest.mark.parametrize("key, degree", NON_CANONICAL_KEYS, ids=[k for k, _ in NON_CANONICAL_KEYS])
def test_non_canonical_complex_degree_key_exits_2(tmp_path, capsys, key, degree, table):
    path = write_json(tmp_path, "c.json", keyed_complex(key, degree, table))
    code, out, err = run_cli(capsys, "homology", "--in", path)
    assert code == 2 and out == "" and "degree key" in err


@pytest.mark.parametrize("key, degree", NON_CANONICAL_KEYS, ids=[k for k, _ in NON_CANONICAL_KEYS])
def test_non_canonical_chain_map_degree_key_exits_2(tmp_path, capsys, key, degree):
    complex_ = keyed_complex(str(degree), degree, "ranks")
    one = {"rows": 1, "cols": 1, "entries": [[1]]}
    payload = {"source": complex_, "target": complex_, "components": {key: one, str(degree - 1): one}}
    path = write_json(tmp_path, "f.json", payload)
    code, out, err = run_cli(capsys, "cone", "--in", path)
    assert code == 2 and out == "" and "degree key" in err


@pytest.mark.parametrize("literal", ["1_2", " +6 ", "+6", "6\n", "\u0666"],
                         ids=["underscore", "padded", "plus", "newline", "arabic-indic"])
def test_non_decimal_integer_string_exits_2(tmp_path, capsys, literal):
    path = write_json(tmp_path, "m.json", {"rows": 1, "cols": 1, "entries": [[literal]]})
    code, out, err = run_cli(capsys, "snf", "--ring", "Z", "--in", path)
    assert code == 2 and out == "" and "integer" in err


@pytest.mark.parametrize("token", ["fpx:3", "banana"])
def test_chain_map_target_reads_its_own_ring_token(tmp_path, capsys, token):
    # The target is valid over every ring, so only its token can refuse it.
    target = {"ring": token, "ranks": {"1": 1, "0": 1}, "differentials": {}}
    payload = {"source": complex_payload(), "target": target, "components": {}}
    path = write_json(tmp_path, "f.json", payload)
    code, out, err = run_cli(capsys, "cone", "--in", path)
    assert code == 2 and out == "" and "ring" in err


# Ring tokens that Python's int() reads as a characteristic; only
# "fpx:" + str(p) names F_p[x].
NON_CANONICAL_RING_TOKENS = ["fpx: 3", "fpx:+3", "fpx:03", "fpx:3_1"]


@pytest.mark.parametrize("token", NON_CANONICAL_RING_TOKENS)
def test_non_canonical_ring_token_exits_2(tmp_path, capsys, token):
    path = write_json(tmp_path, "m.json", {"rows": 1, "cols": 1, "entries": [[[1]]]})
    code, out, err = run_cli(capsys, "snf", "--ring", token, "--in", path)
    assert code == 2 and out == "" and "ring token" in err


def test_ring_token_beyond_the_digit_limit_exits_2_at_once(tmp_path, capsys, cpu_time_limit, call_log):
    # 2^9941 - 1 is a 2993-digit prime: proving it prime takes about half a minute.
    token = f"fpx:{2 ** 9941 - 1}"
    matrix = write_json(tmp_path, "m.json", {"rows": 1, "cols": 1, "entries": [[[1]]]})
    complex_ = write_json(tmp_path, "c.json", {"ring": token, "ranks": {"0": 1}})
    tested = call_log(rings, "is_prime")
    for argv in (["snf", "--ring", token, "--in", matrix], ["homology", "--in", complex_]):
        with cpu_time_limit(0.05):
            code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv[0]
        assert len(err.splitlines()) == 1 and err.startswith("koszulkit: "), argv[0]
        # Refused on its length, before any primality test of the characteristic.
        assert tested == [], argv[0]


@pytest.mark.parametrize("command", ["homology", "cone", "k0", "resolve"])
def test_ring_option_is_refused_where_the_input_names_its_ring(tmp_path, capsys, command):
    path = write_json(tmp_path, "c.json", complex_payload())
    with pytest.raises(SystemExit) as exit_:
        main([command, "--ring", "Z", "--in", path])
    assert exit_.value.code == 2
    assert "--ring" in capsys.readouterr().err


def test_decimal_integer_strings_parse():
    assert [jsonio.element_from_json(ZZ, s) for s in ("-12", "007", "-0")] == [-12, 7, 0]


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "snf", "--in", "/nonexistent/file.json")
    assert code == 2 and err


def test_fixture_bad_matrix_exits_2(capsys):
    code, _, err = run_cli(capsys, "snf", "--in", str(FIXTURES / "bad_matrix.json"))
    assert code == 2 and "matrix" in err


def test_fixture_non_injective_koszul_exits_2(capsys):
    code, _, err = run_cli(capsys, "k0", "--in", str(FIXTURES / "non_injective_koszul.json"))
    assert code == 2
    code, _, err = run_cli(capsys, "kappa", "--in", str(FIXTURES / "non_injective_koszul.json"))
    assert code == 2


def test_fixture_non_acyclic_mono_exits_2(capsys):
    code, _, err = run_cli(capsys, "excise", "--in", str(FIXTURES / "non_acyclic_mono.json"))
    assert code == 2 and "acyclic" in err


def test_fixture_non_idempotent(capsys):
    endo = chain_map_from_json(json.loads((FIXTURES / "non_idempotent_endo.json").read_text()))
    with pytest.raises(InvalidInputError):
        idempotent_split(endo)


def test_fixture_lemma36_hypothesis():
    payload = json.loads((FIXTURES / "lemma36_hypothesis.json").read_text())
    ses = ComplexSes(chain_map_from_json(payload["sub"]), chain_map_from_json(payload["quo"]))
    with pytest.raises(HypothesisNotMetError):
        kernel_image_sequences(ses, payload["degree"])
