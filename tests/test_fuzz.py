"""Byte-mutation fuzzing of every CLI input: records, commit logs, graph
dumps and ``--project-ages`` files.

Each example damages a few bytes of a real input from ``demo/`` or
``tests/golden/`` and runs the commands that read it.  Whatever the bytes,
a command ends with exit code 0, 1 or 2 and raises nothing; a ``build`` in
non-strict mode accounts for every non-blank record line as parsed or
skipped.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from refgraph.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMO_RECORDS = REPO_ROOT / "demo" / "refactorings.jsonl"
SOURCES = {
    "records": DEMO_RECORDS,
    "commit-log": REPO_ROOT / "demo" / "commit_log_mpandroidchart.tsv",
    "dump": REPO_ROOT / "tests" / "golden" / "build" / "mpandroidchart" / "graph.json",
    "project-ages": REPO_ROOT / "demo" / "project_ages.json",
}

# Bytes that matter to one of the input grammars, plus arbitrary ones.
_chunk = st.sampled_from(
    [b"\x00", b"\t", b"\n", b"\r", b" ", b'"', b"\\", b",", b":", b"[", b"]", b"{", b"}",
     b"#", b"(", b")", b"<", b">", b".", b"0", b"9", b"e", b"-", b"\x80", b"\xc3", b"\xff"]
) | st.binary(min_size=1, max_size=4)
_mutations = st.lists(
    st.tuples(st.integers(0, 2**16), st.sampled_from(["replace", "insert", "delete"]), _chunk),
    min_size=1, max_size=6,
)


def _mutate(data: bytes, mutations) -> bytes:
    buf = bytearray(data)
    for position, kind, chunk in mutations:
        at = position % (len(buf) + 1)
        if kind == "insert":
            buf[at:at] = chunk
        elif kind == "delete":
            del buf[at : at + len(chunk)]
        else:
            buf[at : at + len(chunk)] = chunk
    return bytes(buf)


def _run(argv: list[str]) -> int:
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse
        assert exc.code == 2, argv
        return 2
    assert code in (0, 1, 2), argv
    return code


def _non_blank_lines(path: Path) -> int:
    """Record lines as the CLI reads them: universal newlines, bad bytes escaped, and a line blank only if it
    holds nothing but JSON whitespace."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        return sum(1 for line in handle if line.strip(" \t\r\n"))


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(sorted(SOURCES)), mutations=_mutations, strict=st.booleans())
@example(kind="records", mutations=[(0, "insert", b"\n")], strict=False)
def test_mutated_inputs_end_in_an_exit_code(kind, mutations, strict):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / SOURCES[kind].name
        path.write_bytes(_mutate(SOURCES[kind].read_bytes(), mutations))
        build_out = tmp / "build"
        strict_flag = ["--strict"] if strict else []
        if kind == "records":
            code = _run(["build", "--records", str(path), "--out", str(build_out), *strict_flag])
            if code == 0 and not strict:
                stages = json.loads((build_out / "run_log.json").read_text(encoding="utf-8"))["stages"]
                assert stages["parsed"] + stages["parse_skipped"] == _non_blank_lines(path)
            if code == 0:  # what the records left in the dumps must load again
                _run(["stats", "--graph", str(build_out), "--out", str(tmp / "stats")])
                _run(["export", "--graph", str(build_out), "--all", "--out", str(tmp / "dot")])
        elif kind == "commit-log":
            _run(["build", "--records", str(DEMO_RECORDS), "--commit-log", f"mpandroidchart={path}",
                  "--out", str(build_out), *strict_flag])
        elif kind == "dump":
            _run(["stats", "--graph", str(path), "--out", str(tmp / "stats")])
            _run(["export", "--graph", str(path), "--all", "--out", str(tmp / "dot")])
        else:
            _run(["stats", "--records", str(DEMO_RECORDS), "--project-ages", str(path),
                  "--out", str(tmp / "stats"), *strict_flag])
