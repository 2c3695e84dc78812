import io
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from pracsim import cli
from pracsim.cli import EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, EXIT_VERIFY, _state_values, main
from pracsim.config import parse_file, resolve
from pracsim.engine import Engine
from pracsim.errors import ConfigError
from pracsim.oracle import ServiceLog, write_log


def test_gen_writes_text_to_stdout(capsys):
    code = main(["gen", "--generator", "sequential", "--length", "5"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["0 0", "0 1", "0 2", "0 3", "0 4"]


def test_gen_binary_file(tmp_path):
    out = tmp_path / "t.bin"
    code = main(["gen", "--generator", "sequential", "--length", "5", "--out", str(out)])
    assert code == EXIT_OK
    assert out.stat().st_size == 5 * 6


@pytest.mark.parametrize("source", ["set", "config"])
def test_gen_saves_in_the_configured_trace_format(tmp_path, source):
    """trace.format from --set or --config picks the format gen saves in,
    as --trace-format does."""
    gen = ["gen", "--generator", "uniform", "--length", "3", "--out"]
    flagged, configured = tmp_path / "flagged.dat", tmp_path / "configured.dat"
    assert main(gen + [str(flagged), "--trace-format", "binary"]) == EXIT_OK
    if source == "set":
        extra = ["--set", "trace.format=binary"]
    else:
        cfg = tmp_path / "gen.cfg"
        cfg.write_text("trace.format = binary\n")
        extra = ["--config", str(cfg)]
    assert main(gen + [str(configured)] + extra) == EXIT_OK
    assert flagged.stat().st_size == 3 * 6
    assert configured.read_bytes() == flagged.read_bytes()


def test_gen_is_seed_deterministic(capsys):
    argv = ["gen", "--generator", "uniform", "--length", "20", "--seed", "3"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    main(["gen", "--generator", "uniform", "--length", "20", "--seed", "4"])
    third = capsys.readouterr().out
    assert first == second
    assert first != third


def test_run_report_fields(tmp_path, capsys):
    code = main(
        [
            "run",
            "--generator",
            "sequential",
            "--length",
            "100",
            "--policy",
            "perrow",
            "--set",
            "mitigation.enabled=false",
        ]
    )
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["data_acts"] == 100
    assert report["counter_acts"] == 25
    assert report["normalized_acts"] == 0.25
    assert report["config"]["buffer.design"] == "perrow"


def test_pipeline_run_then_verify(tmp_path, capsys):
    trace_file = tmp_path / "seq.bin"
    log_file = tmp_path / "batches.csv"
    report_file = tmp_path / "report.json"
    state_file = tmp_path / "state.csv"
    assert (
        main(
            [
                "gen",
                "--generator",
                "sequential",
                "--length",
                "4096",
                "--out",
                str(trace_file),
            ]
        )
        == EXIT_OK
    )
    assert (
        main(
            [
                "run",
                "--trace",
                str(trace_file),
                "--policy",
                "perrow",
                "--set",
                "mitigation.enabled=false",
                "--log",
                str(log_file),
                "--dump-state",
                str(state_file),
                "--out",
                str(report_file),
            ]
        )
        == EXIT_OK
    )
    report = json.loads(report_file.read_text())
    assert report["counter_acts"] == 1024
    assert report["normalized_acts"] == 0.25
    code = main(
        [
            "verify",
            "--trace",
            str(trace_file),
            "--log",
            str(log_file),
            "--report",
            str(report_file),
            "--state",
            str(state_file),
            "--set",
            "mitigation.enabled=false",
        ]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "pass"


# A run, a usage error and a verify of that run, in one process.
GEN_ZIPF = ["--generator", "zipf", "--length", "3000", "--banks", "4", "--seed", "5"]
NO_MITIGATION = ["--set", "mitigation.enabled=false"]
PARSER_CALLS = [
    ["run", *GEN_ZIPF, *NO_MITIGATION, "--policy", "unified_fcfs", "--log", "log.csv",
     "--dump-state", "state.csv", "--out", "report.json"],
    ["run", *NO_MITIGATION, "--policy", "nosuch"],
    ["verify", *GEN_ZIPF, *NO_MITIGATION, "--log", "log.csv", "--report", "report.json",
     "--state", "state.csv"],
]  # fmt: skip


def _parser_calls(workdir, monkeypatch, capsys):
    """Exit code, stdout and stderr of each of ``PARSER_CALLS`` run in
    ``workdir``, then the bytes of the files they wrote."""
    monkeypatch.chdir(workdir)
    outcomes = []
    for argv in PARSER_CALLS:
        code = main(argv)
        outcomes.append((code, *capsys.readouterr()))
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return outcomes, files


def test_main_reuses_one_parser_with_the_results_of_a_fresh_one(
    tmp_path, monkeypatch, capsys
):
    """``main`` builds its parser once per process; a run, a usage error
    and a verify give the exit codes, output and files that a parser
    built afresh for each call gives."""
    (tmp_path / "kept").mkdir()
    (tmp_path / "fresh").mkdir()
    main(PARSER_CALLS[1])
    capsys.readouterr()
    kept = _parser_calls(tmp_path / "kept", monkeypatch, capsys)
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert kept == _parser_calls(tmp_path / "fresh", monkeypatch, capsys)
    assert [code for code, _, _ in kept[0]] == [EXIT_OK, EXIT_USAGE, EXIT_OK]
    assert kept[0][2][1] == "pass\n"
    assert "invalid choice: 'nosuch'" in kept[0][1][2]
    assert set(kept[1]) == {"log.csv", "report.json", "state.csv"}


def test_importing_the_cli_builds_no_parser():
    """A module that imports the CLI without calling ``main`` pays for no
    parser."""
    code = "import pracsim.cli as c; print(c._parser.cache_info().currsize)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "0\n"


def test_run_then_verify_under_repcount(tmp_path, capsys):
    """Verify takes its staleness bound from the same K-trigger limit the
    buffers flush at: K + 1 under repcount."""
    log, report = tmp_path / "r.csv", tmp_path / "r.json"
    gen = ["--generator", "hammer", "--hammer-gap", "0", "--length", "400"]
    k = ["--k-trigger", "repcount"]
    run = ["run", *gen, *k, "--policy", "perrow", "--log", str(log), "--out", str(report)]
    assert main(run) == EXIT_OK
    code = main(["verify", *gen, *k, "--log", str(log), "--report", str(report)])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "pass"


def test_verify_refuses_a_log_field_only_int_takes(tmp_path, capsys):
    """A valid zipf run's log with line 2 rewritten in Arabic-Indic
    digits, a plus sign and spaces is a located error, not a pass."""
    log, report = tmp_path / "r.csv", tmp_path / "r.json"
    gen = ["--generator", "zipf", "--length", "200"]
    assert main(["run", *gen, "--log", str(log), "--out", str(report)]) == EXIT_OK
    verify = ["verify", *gen, "--log", str(log), "--report", str(report), "--machine"]
    assert main(verify) == EXIT_OK
    capsys.readouterr()
    lines = log.read_text().split("\n")
    slot, bank, row_id, *rest = lines[1].split(",")
    arabic = "".join(chr(0x0660 + int(d)) for d in slot)
    lines[1] = ",".join([arabic, "+" + bank, f" {row_id} "] + rest)
    log.write_text("\n".join(lines))
    assert main(verify) == EXIT_RUNTIME
    assert "line 2: non-integer field" in json.loads(capsys.readouterr().err)["message"]


@pytest.mark.parametrize("field", ["+1", " 1", "1 ", "1_0", "\u0661", "-"])
def test_verify_state_takes_only_ascii_digits_and_a_minus(tmp_path, capsys, field):
    content = f"bank,row_id,byte_id,value\n0,0,3,1\n0,{field},0,1\n"
    message = verify_with_bad_file(tmp_path, capsys, "--state", content)
    assert message == f"state dump {tmp_path / 'bad'} line 3: non-integer field"


def test_verify_flags_bad_log(tmp_path, capsys):
    trace_file = tmp_path / "t.txt"
    trace_file.write_text("0 0\n0 1\n")
    log_file = tmp_path / "log.csv"
    log_file.write_text(
        "slot,bank,row_id,trigger,n_items,byte_ids\n0,0,0,m_ready,5,0,1,2,3,4\n"
    )
    code = main(["verify", "--trace", str(trace_file), "--log", str(log_file)])
    assert code == EXIT_VERIFY
    assert "rule 2" in capsys.readouterr().out


def test_verify_fails_a_state_dump_with_a_stray_counter(tmp_path, capsys):
    """A nonzero counter the trace never activated, appended to a run's
    dump, fails the final-state check as rule 4 at the drain slot."""
    log, state, report = tmp_path / "b.csv", tmp_path / "s.csv", tmp_path / "r.json"
    gen = ["--generator", "zipf", "--banks", "4", "--length", "3000", "--seed", "5"]
    off = ["--set", "mitigation.enabled=false"]
    run = ["run", *gen, *off, "--log", str(log), "--dump-state", str(state)]
    assert main(run + ["--out", str(report)]) == EXIT_OK
    verify = ["verify", *gen, *off, "--log", str(log), "--state", str(state)]
    verify += ["--report", str(report)]
    assert main(verify) == EXIT_OK
    assert capsys.readouterr().out == "pass\n"
    with open(state, "a", encoding="utf-8") as f:
        f.write("63,63,1023,9\n")
    assert main(verify) == EXIT_VERIFY
    assert capsys.readouterr().out == (
        "rule 4 violated at slot 3000: stored counter (63, 63, 1023) is 9, expected 0\n"
    )


def test_non_ascii_text_trace_is_a_located_trace_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(bytes([0x00, 0xF4, 0x1C, 0x00, 0x00, 0x00]))
    assert main(["run", "--set", f"trace.path={bad}", "--machine"]) == EXIT_RUNTIME
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "trace", "message": "line 1: non-ASCII byte 0xf4"}


@pytest.mark.parametrize("line", ["+3 4", "5_0 6"])
def test_analyze_refuses_a_trace_field_only_int_takes(tmp_path, capsys, line):
    """The text trace takes the log's digit rule: ASCII digits after an
    optional ``-``, so a ``+`` or ``_`` is a located error."""
    trace_file = tmp_path / "t.txt"
    trace_file.write_text(f"0 1\n{line}\n", encoding="utf-8")
    argv = ["analyze", "--set", "trace.format=text", "--trace", str(trace_file)]
    assert main(argv + ["--machine"]) == EXIT_RUNTIME
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "trace", "message": f"line 2: non-integer field in {line!r}"}


def test_gen_refuses_a_bank_the_binary_format_cannot_hold(tmp_path, capsys):
    """The first record whose bank overflows the u16 field is named, and
    the output file is not truncated."""
    out = tmp_path / "big.bin"
    out.write_bytes(b"kept")
    argv = ["gen", "--set", "geometry.banks=70000", "--banks", "70000"]
    argv += ["--generator", "uniform", "--length", "50", "--out", str(out), "--machine"]
    assert main(argv) == EXIT_RUNTIME
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "trace"
    assert err["message"].startswith("line ")
    assert "does not fit a binary record's u16 field" in err["message"]
    assert out.read_bytes() == b"kept"


def test_verify_unparseable_log_is_runtime_error(tmp_path, capsys):
    trace_file = tmp_path / "t.txt"
    trace_file.write_text("0 0\n")
    log_file = tmp_path / "log.csv"
    log_file.write_text("9999,0,0,drain,1,0\n")
    code = main(["verify", "--trace", str(trace_file), "--log", str(log_file)])
    assert code == EXIT_RUNTIME
    assert "error:" in capsys.readouterr().err


def test_verify_malformed_log_error_names_the_file(tmp_path, capsys):
    """A log the reader refuses is named as a non-UTF-8 one is, with the
    reader's own line and problem after it."""
    log_file = tmp_path / "bad.csv"
    log_file.write_text("slot,bank,row_id,trigger,n_items,byte_ids\n0,0,0,bogus,1,0\n")
    argv = ["verify", "--generator", "hammer", "--length", "10"]
    assert main(argv + ["--log", str(log_file), "--machine"]) == EXIT_RUNTIME
    assert json.loads(capsys.readouterr().err) == {
        "error": "log-format",
        "message": f"service log {log_file} line 2: unknown trigger 'bogus'",
    }


@pytest.mark.parametrize(
    "args, message",
    [(["--generator", "hammer", "--bank", "64"], "bank param 64 out of range [0, 64)"),
     (["--generator", "sequential", "--start-row", "65536"],
      "start_row 65536 out of range [0, 65536)"),
     (["--set", "trace.path=t.txt"], "gen needs generator settings, not trace.path")],
    ids=["bank", "start_row", "trace_path"],
)  # fmt: skip
def test_gen_refuses_settings_outside_the_geometry_or_a_trace_path(capsys, args, message):
    assert main(["gen", "--length", "5", *args, "--machine"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert (out, json.loads(err)) == ("", {"error": "config", "message": message})


def test_verify_refuses_a_geometry_whose_keys_overflow_int64(tmp_path, capsys):
    """2**58 banks of 65,536 rows are 2**74 counters: a located geometry
    error, not a traceback from the replay's key arithmetic."""
    trace_file, log_file = tmp_path / "t.txt", tmp_path / "l.csv"
    trace_file.write_text("0 0\n0 1\n")
    log_file.write_text("2,0,0,drain,1,0\n")
    argv = ["verify", "--trace", str(trace_file), "--log", str(log_file), "--machine"]
    assert main(argv + ["--set", f"geometry.banks={2**58}"]) == EXIT_USAGE
    assert json.loads(capsys.readouterr().err) == {
        "error": "geometry",
        "message": f"banks ({2**58}) times rows_per_bank (65536) must be below 2**63",
    }


def verify_with_bad_file(tmp_path, capsys, flag, content):
    """Run verify with one malformed input file; the JSON error it reports."""
    trace_file = tmp_path / "t.txt"
    trace_file.write_text("0 0\n")
    log_file = tmp_path / "log.csv"
    log_file.write_text("slot,bank,row_id,trigger,n_items,byte_ids\n")
    bad = tmp_path / "bad"
    bad.write_bytes(content if isinstance(content, bytes) else content.encode())
    argv = ["verify", "--trace", str(trace_file), "--log", str(log_file), "--machine"]
    assert main(argv + [flag, str(bad)]) == EXIT_RUNTIME
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "runtime"
    assert str(bad) in err["message"]
    return err["message"]


def test_verify_state_with_non_integer_field_is_runtime_error(tmp_path, capsys):
    message = verify_with_bad_file(
        tmp_path, capsys, "--state", "bank,row_id,byte_id,value\n0,1,x,3\n"
    )
    assert "line 2" in message


@pytest.mark.parametrize(
    "line, problem",
    [("64,0,0,1", "(64, 0, 0) is outside the geometry's (64, 64, 1024) counters"),
     ("0,64,0,1", "(0, 64, 0) is outside the geometry's (64, 64, 1024) counters"),
     ("0,0,-1,1", "(0, 0, -1) is outside the geometry's (64, 64, 1024) counters"),
     ("0,0,1024,300", "(0, 0, 1024) is outside the geometry's (64, 64, 1024) counters"),
     ("0,0,0,256", "(0, 0, 0) holds 256, outside [0, 255]"),
     ("1,0,0,-1", "(1, 0, 0) holds -1, outside [0, 255]"),
     ("0,0,0,99999999999999999999", "line 3: non-integer field")],
    ids=["bank", "row_id", "byte_id", "byte_id_and_value", "value", "negative", "huge"],
)  # fmt: skip
def test_verify_state_outside_the_geometry_or_a_byte_is_runtime_error(
    tmp_path, capsys, line, problem
):
    """Named by the first bad counter, not wrapped into the uint8 store; a
    field of more than 18 digits is no decimal field, named by its line."""
    content = f"bank,row_id,byte_id,value\n0,0,3,1\n{line}\n65,0,0,1\n"
    message = verify_with_bad_file(tmp_path, capsys, "--state", content)
    separator = " " if problem.startswith("line") else ": counter "
    assert message == f"state dump {tmp_path / 'bad'}{separator}{problem}"


@pytest.mark.parametrize(
    "line", ["9999999999999999999,0,1,1", "0,0,2,9999999999999999999"], ids=["bank", "value"]
)
def test_verify_state_names_a_19_digit_field_exactly(tmp_path, capsys, line):
    """A field in [2**63, 2**64) is the reader's located error on its
    line, not a value rounded through a float64 column to
    10000000000000000000 or 1e+19."""
    message = verify_with_bad_file(tmp_path, capsys, "--state", f"0,0,0,1\n{line}\n")
    assert message == f"state dump {tmp_path / 'bad'} line 2: non-integer field"


@pytest.mark.parametrize(
    "line, problem",
    [("999999999999999999,0,1,1",
      "counter (999999999999999999, 0, 1) is outside the geometry's (64, 64, 1024) counters"),
     ("0,0,-999999999999999999,1",
      "counter (0, 0, -999999999999999999) is outside the geometry's (64, 64, 1024) counters"),
     ("0,0,2,-999999999999999999", "counter (0, 0, 2) holds -999999999999999999, outside [0, 255]"),
     ("0,0,2,1000000000000000000", "line 3: non-integer field"),
     ("-1000000000000000000,0,2,1", "line 3: non-integer field"),
     ("0,0000000000000000000,2,1", "line 3: non-integer field")],
    ids=["bank_18", "byte_18", "value_18", "value_19", "bank_19", "row_id_19"],
)  # fmt: skip
def test_verify_state_reads_18_digits_and_no_more(tmp_path, capsys, line, problem):
    """A dump field of 18 digits after an optional ``-`` is read and then
    named out of range; one of 19 is the located error on its line, 10**18
    too, though it fits int64."""
    content = f"bank,row_id,byte_id,value\n0,0,3,1\n{line}\n"
    message = verify_with_bad_file(tmp_path, capsys, "--state", content)
    separator = " " if problem.startswith("line") else ": "
    assert message == f"state dump {tmp_path / 'bad'}{separator}{problem}"


@pytest.mark.parametrize(
    "flag, content, where",
    [("--log", b"slot,bank,row_id,trigger,n_items,byte_ids\r\n0,\xff", "service log {} line 2"),
     ("--state", b"bank,row_id,byte_id,value\r0,0,0,1\n\xe9,0,0,1\n", "state dump {} line 3"),
     ("--report", b'{"counter_acts":\n 1, "x": "\xc3"}', "report {} line 2")],
    ids=["log", "state", "report"],
)  # fmt: skip
def test_verify_non_utf8_file_is_runtime_error(tmp_path, capsys, flag, content, where):
    """The first bad byte is named with its line, line breaks counted as
    text mode reads them."""
    message = verify_with_bad_file(tmp_path, capsys, flag, content)
    byte = next(b for b in content if b >= 0x80)
    assert message == f"{where.format(tmp_path / 'bad')}: non-UTF-8 byte 0x{byte:02x}"


def test_verify_state_keeps_the_last_value_of_a_counter(tmp_path, capsys):
    """Counter (0, 0, 5) is listed as 7, then as its true count 2."""
    trace_file, log_file, state = tmp_path / "t.txt", tmp_path / "b.csv", tmp_path / "s"
    trace_file.write_text("0 5\n0 5\n")
    log_file.write_text("2,0,0,drain,1,5\n")
    argv = ["verify", "--trace", str(trace_file), "--log", str(log_file)]
    argv += ["--state", str(state), "--set", "mitigation.enabled=false"]
    state.write_text("0,0,5,7\n0,0,5,2\n1,0,0,4\n")
    assert main(argv) == EXIT_VERIFY
    assert capsys.readouterr().out == (
        "rule 4 violated at slot 2: stored counter (1, 0, 0) is 4, expected 0\n"
    )
    state.write_text("0,0,5,7\n0,0,5,2\n1,0,0,4\n1,0,0,0\n")
    assert main(argv) == EXIT_OK
    state.write_text("0,0,5,2\n1,0,0,0\n0,0,5,7\n")
    assert main(argv) == EXIT_VERIFY
    assert capsys.readouterr().out.endswith("stored counter (0, 0, 5) is 7, expected 2\n")


def _dump_values(tmp_path, lines):
    """The store ``_state_values`` builds from a dump of ``lines``."""
    path = tmp_path / "state.csv"
    path.write_text("bank,row_id,byte_id,value\n" + "".join(f"{x}\n" for x in lines))
    return _state_values(str(path), resolve().geometry)


def test_state_values_keep_the_last_value_of_a_repeated_counter(tmp_path):
    """Listed twice in a row, the keys do not strictly increase."""
    state = _dump_values(tmp_path, ["0,0,5,7", "0,0,5,2", "1,3,0,4"])
    assert (state[0, 0, 5], state[1, 3, 0], np.count_nonzero(state)) == (2, 4, 2)


def test_state_values_of_a_shuffled_dump_equal_those_of_the_dump(tmp_path):
    config = resolve(overrides={"trace.generator": "zipf", "trace.length": "3000"})
    engine = Engine(config)
    engine.run()
    buf = io.StringIO()
    engine.store.dump(buf)
    lines = buf.getvalue().splitlines()[1:]
    shuffled = random.Random(1).sample(lines, len(lines))
    assert shuffled != lines
    assert np.array_equal(_dump_values(tmp_path, lines), engine.store.values)
    assert np.array_equal(_dump_values(tmp_path, shuffled), engine.store.values)


def test_verify_refuses_the_final_state_of_a_mitigated_run(tmp_path, capsys):
    """Mitigations reset counters that the service log does not record, so
    a valid mitigated run's dump would fail rule 4; a final-state check is
    refused when the settings or the report enable mitigation, after the
    dump parses.  The replay of the log alone still passes."""
    trace_file = tmp_path / "hm.trace"
    log, state, report = tmp_path / "l.csv", tmp_path / "s.csv", tmp_path / "r.json"
    gen = ["gen", "--generator", "hammer", "--length", "3000", "--out", str(trace_file)]
    assert main(gen + ["--trace-format", "binary"]) == EXIT_OK
    trace = ["--trace", str(trace_file), "--trace-format", "binary"]
    run = ["run", *trace, "--set", "buffer.design=unified_approxmax", "--log", str(log)]
    assert main(run + ["--dump-state", str(state), "--out", str(report)]) == EXIT_OK
    verify = ["verify", *trace, "--log", str(log)]
    assert main(verify + ["--report", str(report)]) == EXIT_OK
    assert capsys.readouterr().out == "pass\n"
    refusal = (
        "error: cannot check the final state of a run with mitigation enabled: "
        "mitigations reset counters the service log does not record\n"
    )
    verify += ["--state", str(state)]
    off = ["--set", "mitigation.enabled=false"]
    for argv in (verify, verify + ["--report", str(report), *off]):
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == refusal


def test_verify_deeply_nested_report_is_runtime_error(tmp_path, capsys):
    """A report too deeply nested for the JSON reader is one located error
    object, not a traceback."""
    message = verify_with_bad_file(tmp_path, capsys, "--report", "[" * 200_000)
    assert message == f"report {tmp_path / 'bad'}: nested too deeply to read"


def test_verify_report_with_an_integer_longer_than_int_reads_is_runtime_error(
    tmp_path, capsys
):
    """An integer of more than 4,300 digits in a report is one located
    error object, not CPython's ValueError."""
    content = '{"counter_acts": 1' + "0" * 4300 + "}"
    message = verify_with_bad_file(tmp_path, capsys, "--report", content)
    assert message == f"report {tmp_path / 'bad'}: an integer has more than 4300 digits"


# A log and a state dump with one field of ``digits`` digits, and what
# each makes: more than 18 digits, 4,300 or more than ``int`` reads
# among them, is a located error.
LONG_FIELDS = [
    ("--log", 4301, EXIT_RUNTIME, "line 2: non-integer field"),
    ("--log", 4300, EXIT_RUNTIME, "line 2: non-integer field"),
    ("--state", 4301, EXIT_RUNTIME, "line 2: non-integer field"),
    ("--state", 4300, EXIT_RUNTIME, "line 2: non-integer field"),
]


@pytest.mark.parametrize(
    "flag, digits, code, problem", LONG_FIELDS, ids=["log", "log_4300", "state", "state_4300"]
)
def test_verify_field_longer_than_int_reads_is_a_located_error(
    tmp_path, capsys, flag, digits, code, problem
):
    """A log or state dump field of more than 18 digits, 4,300 or more
    than ``int`` reads included, is the reader's located error on its
    line under ``--machine``, as a non-decimal field is, not CPython's
    ValueError."""
    trace_file = tmp_path / "t.txt"
    trace_file.write_text("0 0\n")
    log_file = tmp_path / "log.csv"
    log_file.write_text("slot,bank,row_id,trigger,n_items,byte_ids\n")
    field = "1" + "0" * (digits - 1)
    bad = tmp_path / "bad"
    if flag == "--log":
        bad.write_text(f"slot,bank,row_id,trigger,n_items,byte_ids\n1,0,0,drain,1,{field}\n")
    else:
        bad.write_text(f"bank,row_id,byte_id,value\n0,0,0,{field}\n")
    argv = ["verify", "--trace", str(trace_file), "--log", str(log_file), "--machine"]
    assert main(argv + [flag, str(bad)]) == code
    out, err = capsys.readouterr()
    assert problem in (out if code == EXIT_VERIFY else json.loads(err)["message"])


def test_verify_truncated_report_is_runtime_error(tmp_path, capsys):
    message = verify_with_bad_file(tmp_path, capsys, "--report", '{"counter_acts": ')
    assert "line 1" in message


def test_verify_report_without_counter_acts_is_runtime_error(tmp_path, capsys):
    message = verify_with_bad_file(tmp_path, capsys, "--report", "{}")
    assert "counter_acts" in message


@pytest.mark.parametrize(
    "content, problem",
    [('{"counter_acts": 0, "config": []}', "config is not an object with a string cache.kind"),
     ('{"counter_acts": 0, "config": "x"}', "config is not an object with a string cache.kind"),
     ('{"counter_acts": 0, "config": 5}', "config is not an object with a string cache.kind"),
     ('{"counter_acts": 0, "config": null}', "config is not an object with a string cache.kind"),
     ('{"counter_acts": 0, "config": {"cache.kind": ["x"]}}',
      "config is not an object with a string cache.kind"),
     ('{"counter_acts": true}', "no integer counter_acts"),
     ('{"counter_acts": 0, "config": {"mitigation.enabled": "maybe"}}',
      "mitigation.enabled is not a bool"),
     ('{"counter_acts": 0, "config": {"mitigation.enabled": [true]}}',
      "mitigation.enabled is not a bool")],
    ids=["config_list", "config_string", "config_number", "config_null", "cache_kind_list",
         "counter_acts_bool", "mitigation_word", "mitigation_list"],
)  # fmt: skip
def test_verify_malformed_report_is_runtime_error(tmp_path, capsys, content, problem):
    """A report's config must be an object with a string cache.kind and a
    bool mitigation.enabled, and a boolean is not an integer counter_acts:
    each is a located error."""
    message = verify_with_bad_file(tmp_path, capsys, "--report", content)
    assert message == f"report {tmp_path / 'bad'}: {problem}"


def test_no_command_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_more_rfms_per_alert_than_a_bank_has_counters_runs(capsys):
    """An alert's extra refreshes stop once its bank is clean, so 10**20
    of them, past an index, give the report of 65,536, a bank's counter
    count, but for the config echo."""
    reports = []
    for rfms in ("65536", str(10**20)):
        argv = ["run", "--generator", "hammer", "--length", "2000"]
        assert main(argv + ["--set", f"mitigation.rfms_per_alert={rfms}"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["config"].pop("mitigation.rfms_per_alert") == rfms
        reports.append(report)
    assert reports[0] == reports[1]
    assert (reports[0]["alerts"], reports[0]["mitigations"]) == (35, 951)


@pytest.mark.parametrize("key", ["e_act", "e_col", "e_extra_rmw"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_energy_parameter_is_a_config_error(capsys, key, value):
    """A NaN or infinite energy cost is refused, not written into the
    report as NaN or Infinity, which JSON has no word for."""
    with pytest.raises(ConfigError, match=f"^{key} must be "):
        resolve(overrides={f"energy.{key}": value})
    assert main(["run", "--machine", "--set", f"energy.{key}={value}"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and json.loads(err)["error"] == "config"


def test_malformed_set_flag(capsys):
    assert main(["run", "--set", "oops"]) == EXIT_USAGE


def test_unknown_set_key(capsys):
    assert main(["run", "--set", "nosuch.key=1"]) == EXIT_USAGE


def test_machine_errors_are_json(capsys):
    code = main(["run", "--machine", "--set", "nosuch.key=1"])
    assert code == EXIT_USAGE
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "nosuch.key" in err["message"]


@pytest.mark.parametrize("command", ["run", "compare", "analyze", "verify"])
def test_an_empty_trace_is_a_trace_error_in_every_command(tmp_path, capsys, command):
    """No command simulates, analyzes or verifies an empty trace: each
    refuses it with the same error class and exit code, ``verify`` even
    against a log with no batches, which no run can write."""
    empty = tmp_path / "e.txt"
    empty.write_text("")
    log = tmp_path / "header.csv"
    with open(log, "w", encoding="utf-8") as f:
        write_log(ServiceLog(), f)
    argv = [command, "--trace", str(empty), "--machine"]
    if command == "verify":
        argv += ["--log", str(log)]
    assert main(argv) == EXIT_RUNTIME
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "trace" and "empty trace" in err["message"], err


def test_missing_trace_file_is_runtime_error(capsys):
    code = main(["run", "--trace", "/nonexistent/trace.txt"])
    assert code == EXIT_RUNTIME


def test_dump_config_round_trips(tmp_path):
    out = tmp_path / "resolved.cfg"
    code = main(
        [
            "run",
            "--dump-config",
            "--set",
            "buffer.capacity=32",
            "--policy",
            "unified_sorted",
            "--out",
            str(out),
        ]
    )
    assert code == EXIT_OK
    values = parse_file(str(out))
    assert values["buffer.capacity"] == "32"
    assert values["buffer.design"] == "unified_sorted"
    assert resolve(file_values=values) == resolve(
        overrides={"buffer.capacity": "32", "buffer.design": "unified_sorted"}
    )


def test_non_utf8_config_file_is_a_located_config_error(tmp_path, capsys):
    """A config file's first non-UTF-8 byte is named with its line, line
    breaks counted as text mode reads them, in one JSON error object."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"seed = 1\r\n# comment\rtrace.length = 5\xe9\n")
    assert main(["run", "--machine", "--config", str(cfg)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {
        "error": "config",
        "message": f"{cfg}:3: non-UTF-8 byte 0xe9",
    }


def test_config_file_drives_run(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "trace.generator = sequential\n"
        "trace.length = 100\n"
        "buffer.design = perrow\n"
        "mitigation.enabled = false\n"
    )
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["counter_acts"] == 25


def test_compare_csv_table(capsys):
    code = main(
        [
            "compare",
            "--generator",
            "sequential",
            "--length",
            "400",
            "--set",
            "mitigation.enabled=false",
        ]
    )
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("policy,data_acts,counter_acts,normalized_acts")
    assert len(lines) == 6
    chronus = lines[1].split(",")
    assert chronus[0] == "chronus"
    assert chronus[3] == "1.0"


def test_compare_json_format(capsys):
    code = main(
        [
            "compare",
            "--generator",
            "sequential",
            "--length",
            "200",
            "--policies",
            "perrow",
            "--format",
            "json",
            "--set",
            "mitigation.enabled=false",
        ]
    )
    assert code == EXIT_OK
    reports = json.loads(capsys.readouterr().out)
    assert [r["policy"] for r in reports] == ["chronus", "perrow"]


def test_analyze_reports_shape(capsys):
    code = main(["analyze", "--generator", "sequential", "--length", "128"])
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["events"] == 128
    assert out["banks_touched"] == 1
    assert out["skew_by_bank"] == {"0": 64.0}
    assert out["skew_max"] == 64.0
    assert out["window_locality"] == 64.0
    assert out["footprint"]["50"] == 64
    assert out["window_mode"] == "tumbling"


def test_analyze_window_flags(capsys):
    code = main(
        [
            "analyze",
            "--generator",
            "sequential",
            "--length",
            "128",
            "--window",
            "32",
            "--window-mode",
            "sliding",
        ]
    )
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["window"] == 32
    assert out["window_mode"] == "sliding"
    assert out["window_locality"] == 32.0


SHAPE_FIELDS = ("skew_by_bank", "skew_mean", "window_locality", "footprint")


@pytest.mark.parametrize(
    "gen, window",
    [
        (["--generator", "zipf", "--banks", "8", "--length", "4000"], []),
        (
            ["--generator", "hotset", "--hot-rows", "16", "--banks", "4", "--length", "3000"],
            ["32", "sliding"],
        ),
    ],
)
def test_analyze_agrees_with_run_report(capsys, gen, window):
    """Analyze and a run's report share one workload-shape pass."""
    ana, run = ["analyze", *gen], ["run", *gen]
    if window:
        ana += ["--window", window[0], "--window-mode", window[1]]
        run += ["--set", f"metrics.window={window[0]}"]
        run += ["--set", f"metrics.window_mode={window[1]}"]
    assert main(ana) == EXIT_OK
    shape = json.loads(capsys.readouterr().out)
    assert main(run) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert len(shape["skew_by_bank"]) > 1
    assert shape["window_locality"] is not None
    assert {f: shape[f] for f in SHAPE_FIELDS} == {f: report[f] for f in SHAPE_FIELDS}


def test_verify_refuses_cache_runs(tmp_path, capsys):
    """Cache hits never reach the service log, so replay of a cached run
    would report stored counters lagging; verify refuses instead."""
    log, report = tmp_path / "c.csv", tmp_path / "c.json"
    gen = ["--generator", "hotset", "--hot-rows", "48", "--length", "2000"]
    run = ["run", *gen, "--cache", "lru4way", "--log", str(log), "--out", str(report)]
    assert main(run) == EXIT_OK
    capsys.readouterr()
    code = main(["verify", *gen, "--log", str(log), "--report", str(report)])
    assert code == EXIT_USAGE
    assert "cache hits are not in the service log" in capsys.readouterr().err
    code = main(
        ["verify", *gen, "--log", str(log), "--set", "cache.kind=tinylfu", "--machine"]
    )
    assert code == EXIT_USAGE
    assert json.loads(capsys.readouterr().err)["error"] == "config"
