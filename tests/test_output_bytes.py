"""Pinned bytes of what the command line prints.

The resolved config, a default run's report and the ``compare`` tables
are each pinned by the sha256 of their stdout, and every type's
"bad value" error, with the error that wins among several bad values, by
its text.  The config schema, the report and the comparison table are
built from the fields of the settings and report classes, so a change
there that renames, reorders or retypes anything shows up here.
"""

import hashlib

import pytest

from pracsim.cli import EXIT_OK, EXIT_USAGE, main

SHORT = ["--length", "2000"]
LRU = ["--cache", "lru4way"]

# argv -> sha256 of stdout
STDOUT_DIGESTS = {
    "run --dump-config": (
        ["run", "--dump-config"],
        "c762d31207a9f859eaec9259454207c0bc14a2c167fe4475c52c9ff022122a1a",
    ),
    "run": (["run"], "00c969de214dd62b7c726c9b5b56a256b885f69515cd8326c46281c53b494e43"),
    "compare csv": (
        ["compare", *SHORT, "--format", "csv"],
        "7720fc32c60699c5ee9dbe44df5beca0473cda76512f017d2af06a27e63a9a8e",
    ),
    "compare json": (
        ["compare", *SHORT, "--format", "json"],
        "e1e63552f086b97c53b97a8496d88617b633a13fb6b996f991d7005832dc24e6",
    ),
    "compare csv lru4way": (
        ["compare", *SHORT, *LRU, "--format", "csv"],
        "d840dd6c8b21ab11e1de82ab6abee4855eb1515e80e2fabb5dcdc1c26bbb391c",
    ),
    "compare json lru4way": (
        ["compare", *SHORT, *LRU, "--format", "json"],
        "c15541428472d102934b91f0c24a868f8f5d9511bd60da4b3c63822d3f269763",
    ),
}


@pytest.mark.parametrize("name", sorted(STDOUT_DIGESTS))
def test_stdout_keeps_its_bytes(capsys, name):
    argv, digest = STDOUT_DIGESTS[name]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == digest, name


# --set values -> the one error ``run`` reports
CONFIG_ERRORS = {
    "int": (["geometry.banks=x"], "bad value 'x' for geometry.banks (expected int)"),
    "float": (["energy.e_act=x"], "bad value 'x' for energy.e_act (expected float)"),
    "bool": (
        ["mitigation.enabled=maybe"],
        "bad value 'maybe' for mitigation.enabled (expected bool)",
    ),
    "first key in schema order": (
        ["energy.e_act=x", "trace.zipf_shuffle=2", "geometry.banks=y"],
        "bad value 'y' for geometry.banks (expected int)",
    ),
    "geometry before cache": (
        ["cache.kind=lru4way", "cache.entries=3", "geometry.banks=0"],
        "banks must be at least 1",
    ),
    "buffer before energy": (
        ["energy.e_act=0", "buffer.m_batch=0"],
        "m_batch must be positive, got 0",
    ),
    "cache before energy": (
        ["energy.e_col=-1", "cache.kind=lru4way", "cache.entries=3"],
        "cache entries must be a positive multiple of 4, got 3",
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIG_ERRORS))
def test_config_error_keeps_its_text(capsys, name):
    values, message = CONFIG_ERRORS[name]
    argv = ["run"]
    for value in values:
        argv += ["--set", value]
    assert main(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")
