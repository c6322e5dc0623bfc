"""Command-line interface: output literals, JSON schemas, CSV layout, the
cache, and exit codes.  Each test runs against an isolated cache directory.
"""

import json
import os
import shlex
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import aciring
from aciring import cache, cli
from aciring.cache import cache_dir
from aciring.cli import main
from aciring.errors import BoundTooSmall, DegreeCapExceeded, DimensionMismatch, FieldMismatch
from aciring.resolution import BettiTable
from aciring.verify import CheckRecord, VerificationReport

R4_TABLE_TEXT = (
    "       0  1   2   3  4\n"
    "total: 1  5  15  16  5\n"
    "    0: 1  -   -   -  -\n"
    "    1: -  5   -   -  -\n"
    "    2: -  -  15  16  5"
)


@pytest.fixture(autouse=True)
def isolated_cache(monkeypatch, tmp_path):
    monkeypatch.setenv("ACIRING_CACHE_DIR", str(tmp_path / "cache"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name: str) -> dict:
    path = resources.files("aciring").joinpath(f"schemas/{name}.schema.json")
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# hilbert
# ---------------------------------------------------------------------------


def test_hilbert_single_n_literals(capsys):
    assert run_cli(capsys, "hilbert", "--ring", "R", "--n", "5") == (0, "1 5 9 5\n", "")
    assert run_cli(capsys, "hilbert", "--ring", "A", "--n", "2") == (0, "1\n", "")
    assert run_cli(capsys, "hilbert", "--ring", "P", "--n", "3") == (0, "1 3 3 1\n", "")


def test_hilbert_range_text(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "--ring", "R", "--n-range", "2..4")
    assert code == 0
    assert out == "n=2: 1 2\nn=3: 1 3 2\nn=4: 1 4 5\n"


def test_hilbert_cross_check_text(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "--ring", "R", "--n", "5", "--cross-check")
    assert code == 0
    assert out == (
        "n=5 formula:  1 5 9 5\n"
        "n=5 quotient: 1 5 9 5\n"
        "n=5 match: yes\n"
    )


@pytest.mark.parametrize(
    "name, wrong, argv",
    [
        ("_hilbert_by_quotient", lambda *a, **k: [1, 2, 3], ["hilbert", "--ring", "R", "--n", "5"]),
        ("koszul_betti", lambda *a, **k: BettiTable(4, {(0, 0): 1, (1, 2): 4}), ["betti", "--ring", "R", "--n", "4"]),
    ],
    ids=["hilbert", "betti"],
)
def test_hilbert_cross_check_mismatch_fails(capsys, monkeypatch, name, wrong, argv):
    monkeypatch.setattr(cli, name, wrong)
    code, out, _ = run_cli(capsys, *argv, "--cross-check", "--no-cache")
    assert code == 1
    assert "match: NO" in out


def test_hilbert_json_matches_schema(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "--ring", "R", "--n", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("hilbert"))
    assert payload["results"] == [{"n": 5, "values": [1, 5, 9, 5]}]
    assert payload["ring"] == "R"
    assert payload["characteristic"] == 0


def test_hilbert_csv_layout(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "--ring", "R", "--n", "4", "--format", "csv")
    assert code == 0
    assert out == "n,i,value\n4,0,1\n4,1,4\n4,2,5\n"
    # a cross-check writes the formula values, one block of rows per n
    code, out, _ = run_cli(capsys, "hilbert", "--ring", "R", "--n-range", "2..3", "--cross-check", "--format", "csv")
    assert code == 0
    assert out == "n,i,value\n2,0,1\n2,1,2\n3,0,1\n3,1,3\n3,2,2\n"


def test_hilbert_quotient_method_agrees(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "--ring", "A", "--n", "5", "--method", "quotient")
    assert (code, out) == (0, "1 5 5 1\n")


# ---------------------------------------------------------------------------
# betti
# ---------------------------------------------------------------------------


def test_betti_text_table(capsys):
    code, out, _ = run_cli(capsys, "betti", "--ring", "R", "--n", "4")
    assert code == 0
    assert out == f"R, n = 4\n{R4_TABLE_TEXT}\n"


def test_betti_cross_check(capsys):
    code, out, _ = run_cli(capsys, "betti", "--ring", "A", "--n", "3", "--cross-check")
    assert code == 0
    table = (
        "       0  1  2  3\n"
        "total: 1  3  3  1\n"
        "    0: 1  2  1  -\n"
        "    1: -  1  2  1\n"
    )
    assert out == f"A, n = 3\nformula:\n{table}koszul:\n{table}match: yes\n"


def test_betti_json_matches_schema(capsys):
    code, out, _ = run_cli(capsys, "betti", "--ring", "A", "--n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("betti"))
    entries = {(e["i"], e["j"]): e["value"] for e in payload["results"][0]["entries"]}
    assert entries == {(0, 0): 1, (1, 2): 9, (2, 3): 16, (3, 4): 9, (4, 6): 1}


def test_betti_csv_single_n(capsys):
    code, out, _ = run_cli(capsys, "betti", "--ring", "R", "--n", "2", "--format", "csv")
    assert code == 0
    assert out == "i,j,value\n0,0,1\n1,2,3\n2,3,2\n"
    # a cross-check writes the formula table
    code, out, _ = run_cli(capsys, "betti", "--ring", "R", "--n", "2", "--cross-check", "--format", "csv")
    assert code == 0
    assert out == "i,j,value\n0,0,1\n1,2,3\n2,3,2\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["betti", "--ring", "R", "--n", "4", "--format", "json"],
        ["hilbert", "--ring", "A", "--n", "5", "--method", "quotient", "--format", "json"],
    ],
    ids=["betti", "hilbert"],
)
def test_char_zero_gives_the_rational_results(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--char", "0")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["characteristic"] == 0
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert payload["results"] == json.loads(out)["results"]


def test_betti_csv_refuses_ranges(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["betti", "--ring", "R", "--n-range", "2..3", "--format", "csv"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# sequence
# ---------------------------------------------------------------------------


def test_sequence_single_even_n(capsys):
    assert run_cli(capsys, "sequence", "rho", "--n", "4") == (0, "0 0 15 16 5\n", "")
    assert run_cli(capsys, "sequence", "gamma", "--n", "6") == (0, "0 14 85 132 85 14 0\n", "")


def test_sequence_range_keeps_even_part(capsys):
    code, out, _ = run_cli(capsys, "sequence", "rho", "--n-range", "3..6")
    assert code == 0
    assert out == "n=4: 0 0 15 16 5\nn=6: 0 0 14 105 132 70 14\n"


def test_sequence_single_odd_n_is_an_error(capsys):
    code, out, err = run_cli(capsys, "sequence", "rho", "--n", "5")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_sequence_csv_and_schema(capsys):
    code, out, _ = run_cli(capsys, "sequence", "rho", "--n", "2", "--format", "csv")
    assert code == 0
    assert out == "n,k,value\n2,0,0\n2,1,3\n2,2,2\n"
    code, out, _ = run_cli(capsys, "sequence", "rho", "--n-range", "2..4", "--format", "csv")
    assert code == 0
    assert out == "n,k,value\n2,0,0\n2,1,3\n2,2,2\n4,0,0\n4,1,0\n4,2,15\n4,3,16\n4,4,5\n"
    code, out, _ = run_cli(capsys, "sequence", "gamma", "--n", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("sequence"))
    assert payload["results"] == [{"n": 4, "values": [0, 9, 16, 9, 0]}]


# ---------------------------------------------------------------------------
# gorenstein
# ---------------------------------------------------------------------------


def test_gorenstein_text_fields(capsys):
    code, out, _ = run_cli(capsys, "gorenstein", "--n", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n = 4"
    assert lines[1] == "orbit generator: x1*x3 - x2*x3"
    assert lines[2] == "ideal generators (28):"
    assert "initial ideals match: yes" in lines
    assert "ballot sequences (5): (1,2), (1,3), (1,4), (2,3), (2,4)" in lines
    assert "hessian determinant i=0: 12" in lines
    assert "hessian determinant i=1: -48" in lines
    assert lines[-1] == "slp: true"


def test_gorenstein_json_matches_schema(capsys):
    code, out, _ = run_cli(capsys, "gorenstein", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("gorenstein"))
    result = payload["results"][0]
    assert result["orbit_generator"] == "x1 - x2"
    assert result["initial_ideals_match"] is True
    assert result["slp"] is True


def test_gorenstein_positive_characteristic_warns_on_one_line(capsys):
    code, out, err = run_cli(capsys, "gorenstein", "--n", "4", "--char", "7", "--no-cache")
    assert code == 0
    assert out.splitlines()[-1] == "slp: true"
    assert err == (
        "warning: the Hessian-determinant criterion applies in characteristic zero; "
        "using only the direct rank route over GF(7)\n"
    )


def test_gorenstein_refuses_csv(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gorenstein", "--n", "3", "--format", "csv"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_suite_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "sequences")
    assert code == 0
    assert all(line.startswith("PASS") for line in out.splitlines()[:-1])
    assert out.splitlines()[-1].endswith("checks passed")


def test_verify_json_matches_schema(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "hilbert", "--n-range", "2..4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema("verify"))
    assert payload["pass"] is True
    assert all(c["pass"] for c in payload["checks"])


def test_verify_failure_exits_one(capsys, monkeypatch):
    import aciring.cli as cli

    report = VerificationReport(
        "stub", [CheckRecord("stub-check", 2, "left", "right", False, 1.0)]
    )
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: report)
    code, out, _ = run_cli(capsys, "verify", "--suite", "hilbert")
    assert code == 1
    assert out.startswith("FAIL  stub-check")


# ---------------------------------------------------------------------------
# cache behaviour
# ---------------------------------------------------------------------------


def cache_files():
    d = cache_dir()
    return sorted(d.glob("*.json")) if d.is_dir() else []


def poison(path, values):
    """Replace the stored values and re-sign the entry, so it still reads as valid."""
    entry = json.loads(path.read_text())
    entry["payload"]["results"][0]["values"] = values
    entry["sha256"] = cache._digest(entry["payload"])
    path.write_text(json.dumps(entry))


def test_cache_hit_is_served_from_disk(capsys):
    run_cli(capsys, "hilbert", "--ring", "R", "--n", "5")
    files = cache_files()
    assert len(files) == 1
    # tamper with the stored payload: a second run must reflect the tampering,
    # which proves the answer came from the cache and not a recomputation
    poison(files[0], [9, 9, 9])
    code, out, _ = run_cli(capsys, "hilbert", "--ring", "R", "--n", "5")
    assert (code, out) == (0, "9 9 9\n")
    # --no-cache bypasses the poisoned entry
    code, out, _ = run_cli(capsys, "hilbert", "--ring", "R", "--n", "5", "--no-cache")
    assert (code, out) == (0, "1 5 9 5\n")


def test_cache_key_depends_on_characteristic(capsys):
    run_cli(capsys, "hilbert", "--ring", "R", "--n", "5", "--method", "quotient")
    files = cache_files()
    assert len(files) == 1
    poison(files[0], [9, 9, 9])
    # a different characteristic is a different key: fresh computation
    code, out, _ = run_cli(
        capsys, "hilbert", "--ring", "R", "--n", "5", "--method", "quotient", "--char", "11"
    )
    assert (code, out) == (0, "1 5 9 5\n")
    assert len(cache_files()) == 2


def test_cache_recovers_from_corruption(capsys):
    run_cli(capsys, "hilbert", "--ring", "R", "--n", "5")
    files = cache_files()
    files[0].write_text("{ this is not json")
    code, out, _ = run_cli(capsys, "hilbert", "--ring", "R", "--n", "5")
    assert (code, out) == (0, "1 5 9 5\n")
    # the corrupt entry was overwritten with a valid one
    assert json.loads(files[0].read_text())["payload"]["command"] == "hilbert"
    # valid JSON whose payload does not match its digest: a payload of the
    # wrong shape, and a changed number in an otherwise valid entry
    argv = ("hilbert", "--ring", "R", "--n", "4", "--method", "quotient")
    run_cli(capsys, *argv)
    (path,) = set(cache_files()) - set(files)
    path.write_text(json.dumps({"version": aciring.__version__, "payload": {"results": 3}}))
    assert run_cli(capsys, *argv)[:2] == (0, "1 4 5\n")
    entry = json.loads(path.read_text())
    entry["payload"]["results"][0]["values"] = [9, 9, 9]
    path.write_text(json.dumps(entry))
    assert run_cli(capsys, *argv)[:2] == (0, "1 4 5\n")
    # each was treated as a miss and overwritten
    assert json.loads(path.read_text())["payload"]["results"][0]["values"] == [1, 4, 5]


def test_cached_json_is_byte_identical(capsys):
    _, first, _ = run_cli(capsys, "betti", "--ring", "R", "--n", "3", "--format", "json")
    _, second, _ = run_cli(capsys, "betti", "--ring", "R", "--n", "3", "--format", "json")
    assert first == second


def test_cache_key_depends_on_package_sources(monkeypatch):
    key = cache.cache_key("hilbert", ns=[5])
    monkeypatch.setattr(cache, "_source_digest", lambda: "0" * 64)
    assert cache.cache_key("hilbert", ns=[5]) != key


def test_unwritable_cache_computes_without_it(capsys, monkeypatch, tmp_path):
    # the cache directory is a regular file: lookup misses, store fails, and
    # the command still answers
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    monkeypatch.setenv("ACIRING_CACHE_DIR", str(blocker))
    code, out, err = run_cli(capsys, "hilbert", "--ring", "R", "--n", "5")
    assert (code, out) == (0, "1 5 9 5\n")
    assert "not cached" in err
    assert blocker.read_text() == "not a directory"


# ---------------------------------------------------------------------------
# output destinations, usage errors, resource errors
# ---------------------------------------------------------------------------


def test_out_writes_file(capsys, tmp_path):
    target = tmp_path / "hilbert.txt"
    code, out, _ = run_cli(
        capsys, "hilbert", "--ring", "P", "--n", "3", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == "1 3 3 1\n"


def test_out_unwritable_exits_two(capsys, monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(cli, "rho_sequence", lambda n: calls.append(n) or [1])
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: calls.append(a))
    reasons = {tmp_path / "missing" / "x.txt": "No such file or directory", tmp_path: "Is a directory"}
    for target, reason in reasons.items():
        for argv in (["sequence", "rho", "--n", "4", "--no-cache"], ["verify", "--suite", "groebner"]):
            result = run_cli(capsys, *argv, "--out", str(target))
            assert result == (2, "", f"error: cannot write {target}: {reason}\n")
    assert calls == []

    def fail(args, parser):
        raise DegreeCapExceeded(1)

    # a computation that fails neither creates nor truncates the file
    monkeypatch.setitem(cli._DISPATCH, "hilbert", fail)
    fresh, old = tmp_path / "fresh.txt", tmp_path / "old.txt"
    old.write_text("kept\n")
    for target in (fresh, old):
        assert run_cli(capsys, "hilbert", "--ring", "P", "--n", "3", "--out", str(target))[0] == 3
    assert not fresh.exists() and old.read_text() == "kept\n"


def test_usage_errors_exit_two(capsys):
    for argv in (
        ["hilbert", "--ring", "R", "--n", "1"],
        ["hilbert", "--ring", "R", "--n-range", "4..2"],
        ["hilbert", "--ring", "R", "--n-range", "nope"],
        ["hilbert", "--ring", "R", "--n", "5", "--char", "10"],  # composite
        ["hilbert", "--ring", "R", "--n", "5", "--char", "5"],  # not > n
        ["hilbert", "--ring", "R", "--n", "5", "--char", "1"],  # not prime
        ["verify", "--suite", "hilbert", "--char", "5"],  # the suite's default range reaches n = 8
        # above fields.MAX_PRIME the int64/float64 mod-p kernels are inexact
        ["betti", "--ring", "A", "--n", "6", "--char", "2147483647", "--cross-check", "--no-cache"],
        ["sequence", "rho", "--n-range", "3..3"],  # no even n
        ["verify", "--suite", "ezd", "--n", "4"],  # the suite has no check at n = 4
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_degree_cap_exhaustion_exits_three(capsys):
    code, out, err = run_cli(
        capsys,
        "hilbert", "--ring", "R", "--n", "5", "--method", "quotient", "--degree-cap", "1",
        "--no-cache",
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error: resource cap exceeded")


def test_a_at_two_variables_with_a_cap_below_its_relations_exits_three(capsys):
    # A at n = 2 is P modulo (x1, x2): caps -1 and 0 lie below those
    # relations, so the Gröbner basis is not known complete there, as for R
    for cap in ("-1", "0"):
        argv = ["hilbert", "--ring", "A", "--n", "2", "--method", "quotient", "--degree-cap", cap, "--no-cache"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, ""), cap
        assert err.startswith("error: resource cap exceeded"), cap
    argv = ["hilbert", "--ring", "A", "--n", "2", "--method", "quotient", "--degree-cap", "1", "--no-cache"]
    assert run_cli(capsys, *argv) == (0, "1\n", "")


@pytest.mark.parametrize(
    "exc, code, message",
    [
        (DegreeCapExceeded(2, "asked about degree 3"), 3, "resource cap exceeded: asked about degree 3"),
        (MemoryError(), 3, "resource cap exceeded: out of memory"),
        (MemoryError("Unable to allocate 9.3 GiB"), 3, "resource cap exceeded: Unable to allocate 9.3 GiB"),
        (ValueError("no such ring"), 2, "no such ring"),
        (DimensionMismatch("3 vs 4 variables"), 4, "internal failure: DimensionMismatch: 3 vs 4 variables"),
        (FieldMismatch("QQ vs GF(7)"), 4, "internal failure: FieldMismatch: QQ vs GF(7)"),
        (BoundTooSmall("step 2"), 4, "internal failure: BoundTooSmall: step 2"),
        (AssertionError("negative Betti number"), 4, "internal failure: AssertionError: negative Betti number"),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None,
)
def test_failure_exit_codes(capsys, monkeypatch, exc, code, message):
    def fail(args, parser):
        raise exc

    monkeypatch.setitem(cli._DISPATCH, "hilbert", fail)
    assert run_cli(capsys, "hilbert", "--ring", "P", "--n", "3") == (code, "", f"error: {message}\n")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("aciring ")


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines() if line.startswith("aciring ")]
    assert len(lines) >= 8
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")


def test_public_names_resolve():
    assert len(aciring.__all__) == len(set(aciring.__all__))
    for name in aciring.__all__:
        assert hasattr(aciring, name), name


def test_module_entry_point(tmp_path):
    # A fresh interpreter with a minimal environment, importing the same
    # aciring tree as this session whether or not the package is installed.
    source_root = str(Path(aciring.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "aciring", "hilbert", "--ring", "P", "--n", "3"],
        capture_output=True,
        text=True,
        env={
            "PATH": "",
            "PYTHONPATH": pythonpath,
            "ACIRING_CACHE_DIR": str(tmp_path / "cache"),
        },
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 3 3 1\n"


def test_processes_sharing_one_cache(tmp_path):
    # Fresh interpreters on one cache directory: two started together, three
    # times, then three readers started while a writer runs (each takes a
    # few tenths of a second to import).  Every stdout equals the uncached
    # one, and each directory ends with one valid entry and no temp file.
    source_root = str(Path(aciring.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "aciring", "betti", "--ring", "A", "--n", "5", "--method", "koszul", "--format", "json"]

    def start(directory, *extra):
        env = {"PATH": "", "PYTHONPATH": pythonpath, "ACIRING_CACHE_DIR": str(directory)}
        return subprocess.Popen([*argv, *extra], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)

    def finish(proc):
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, "")
        return out

    def only_entry(directory):
        assert not list(directory.glob("*.tmp"))
        (path,) = directory.glob("*.json")
        entry = json.loads(path.read_text())
        assert entry["sha256"] == cache._digest(entry["payload"])
        return path

    want = finish(start(tmp_path / "unused", "--no-cache"))
    assert not (tmp_path / "unused").exists()
    for trial in range(3):
        directory = tmp_path / f"pair{trial}"
        assert [finish(proc) for proc in [start(directory), start(directory)]] == [want, want]
        only_entry(directory)
    directory = tmp_path / "readers"
    procs = [start(directory) for _ in range(4)]
    assert [finish(proc) for proc in procs] == [want] * 4
    # once the entry is there, a reader is served from it and leaves it as it is
    stored = only_entry(directory).stat()
    assert finish(start(directory)) == want
    assert only_entry(directory).stat().st_ino == stored.st_ino
