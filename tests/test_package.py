from __future__ import annotations

import json
import os
import pickle
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

from refgraph.history import RestrictResult
from refgraph.ingest import DEFAULT_EXCLUDED_KEYWORDS, FilterConfig, ParseResult, RecordError
from refgraph.metrics import SpearmanResult, SubgraphMetrics

REPO_ROOT = Path(__file__).resolve().parent.parent


def _fresh_interpreter(code: str, *args: str) -> dict:
    """Run ``code`` in a new interpreter that imports refgraph from this
    checkout; it prints one JSON document, which is returned."""
    path = [str(REPO_ROOT / "src"), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, cwd=REPO_ROOT, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_package_loads_none_of_its_modules():
    # Each public name is imported from its own module; the package re-exports none, so cli.py compiles
    # before the layers are loaded rather than on top of them.
    code = (
        "import json, sys\n"
        "import refgraph\n"
        "print(json.dumps({'modules': sorted(name for name in sys.modules if name.startswith('refgraph')),\n"
        "                  'version': refgraph.__version__}))\n"
    )
    version = re.search(r'^version = "(.*)"$', (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.M)
    assert _fresh_interpreter(code) == {"modules": ["refgraph"], "version": version.group(1)}


# Modules that `build` never runs, each a few milliseconds or megabytes of every
# process's start-up: dataclasses (which imports inspect, ast and dis),
# statistics (stats only) and hashlib (OpenSSL, about 3 MB; no command needs it,
# as report.safe_name takes SHA-1 from the built-in _sha1 module).
UNUSED_BY_BUILD = ("dataclasses", "inspect", "statistics", "hashlib")


def test_importing_the_cli_loads_nothing_build_does_not_run():
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import refgraph.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    loaded = _fresh_interpreter(code)
    assert "refgraph.cli" in loaded
    assert [name for name in UNUSED_BY_BUILD if name in loaded] == []
    # the worker processes' machinery is imported when a command first forks
    assert [name for name in ("refgraph.workers", "pickle", "signal") if name in loaded] == []


def test_build_and_stats_run_without_hashlib(tmp_path):
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "from refgraph.cli import main\n"
        "demo, out = sys.argv[1:]\n"
        "codes = [\n"
        "    main(['build', '--records', demo + '/refactorings.jsonl', '--commit-log',\n"
        "          'mpandroidchart=' + demo + '/commit_log_mpandroidchart.tsv', '--out', out + '/build']),\n"
        "    main(['stats', '--graph', out + '/build', '--project-ages', demo + '/project_ages.json',\n"
        "          '--out', out + '/stats']),\n"
        "]\n"
        "print(json.dumps({'codes': codes, 'hashlib': 'hashlib' in set(sys.modules) - before}))\n"
    )
    result = _fresh_interpreter(code, str(REPO_ROOT / "demo"), str(tmp_path))
    assert result == {"codes": [0, 0], "hashlib": False}


def test_export_names_its_files_without_hashlib(tmp_path):
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "from refgraph.cli import main\n"
        "build, out = sys.argv[1:]\n"
        "codes = [main(['export', '--graph', build, '--all', '--out', out]), main(['export', 'com.', '--graph', build,"
        " '--out', out + '-selected'])]\n"
        "print(json.dumps({'codes': codes, 'hashlib': 'hashlib' in set(sys.modules) - before}))\n"
    )
    golden = REPO_ROOT / "tests" / "golden"
    result = _fresh_interpreter(code, str(golden / "build"), str(tmp_path / "export"))
    assert result == {"codes": [0, 0], "hashlib": False}
    written = sorted(path.relative_to(tmp_path / "export") for path in (tmp_path / "export").rglob("*.dot"))
    assert written == sorted(path.relative_to(golden / "export") for path in (golden / "export").rglob("*.dot"))
    for path in written:  # the file names are the SHA-1 digests hashlib gives
        assert (tmp_path / "export" / path).read_bytes() == (golden / "export" / path).read_bytes()


def test_every_module_is_below_the_compile_token_limit():
    # CPython 3.11's compile peak jumps between about 4090 and 4110 tokens of one module (README, "Start-up"),
    # and every command compiles the package from source when no bytecode is cached.
    counts = {}
    for path in sorted((REPO_ROOT / "src" / "refgraph").glob("*.py")):
        with open(path, "rb") as handle:
            counts[path.name] = sum(1 for _ in tokenize.tokenize(handle.readline))
    assert "cli.py" in counts
    assert {name: count for name, count in counts.items() if count >= 4096} == {}


def test_the_benchmark_trace_discovers_every_layer_span():
    # bench/child.py times the layer functions refgraph.cli imports; a span bench/run.py lists that the CLI
    # no longer imports would read 0 calls in every run, and CI's trace step would fail.
    code = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import child, run\n"
        "from refgraph import cli\n"
        "print(json.dumps(sorted(set(run.LAYER_SPANS) - set(child.discover(cli)))))\n"
    )
    assert _fresh_interpreter(code, str(REPO_ROOT / "bench")) == []


# The named-tuple result types: each with its fields in order and a value for
# each, the fields that have a default, and the repr of the example.
RESULT_TYPES = [
    (
        FilterConfig,
        {"excluded_package_keywords": ("a",), "drop_constructors": False},
        {"excluded_package_keywords": DEFAULT_EXCLUDED_KEYWORDS, "drop_constructors": True},
        "FilterConfig(excluded_package_keywords=('a',), drop_constructors=False)",
    ),
    (ParseResult, {"records": (), "issues": ()}, {}, "ParseResult(records=(), issues=())"),
    (
        RestrictResult,
        {"kept": (), "dropped": 2, "issues": ("y",)},
        {},
        "RestrictResult(kept=(), dropped=2, issues=('y',))",
    ),
    (
        SubgraphMetrics,
        {
            "subgraph_id": "a.B#m()",
            "n_vertices": 2,
            "n_edges": 1,
            "n_commits": 1,
            "age_days": 0.5,
            "type_counts": {"rename": 1},
            "n_developers": 1,
        },
        {},
        "SubgraphMetrics(subgraph_id='a.B#m()', n_vertices=2, n_edges=1, n_commits=1, age_days=0.5, "
        "type_counts={'rename': 1}, n_developers=1)",
    ),
    (SpearmanResult, {"rho": 0.5, "n": 3, "p_approx": 0.25}, {}, "SpearmanResult(rho=0.5, n=3, p_approx=0.25)"),
]


@pytest.mark.parametrize("cls, fields, defaults, text", RESULT_TYPES, ids=[case[0].__name__ for case in RESULT_TYPES])
def test_result_type_surface(cls, fields, defaults, text):
    value = cls(**fields)
    assert cls._fields == tuple(fields)
    assert cls._field_defaults == defaults
    if len(defaults) == len(fields):
        assert cls() == cls(*defaults.values())
    assert value == cls(*fields.values())
    assert repr(value) == text
    first = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(value, first, fields[first])
    assert value._replace(**{first: fields[first]}) == value


def test_record_error_surface():
    # A skipped or strict-mode bad record line: its fields, its text, and a pickle round trip, as a worker sends it.
    error = RecordError(3, "x")
    assert isinstance(error, ValueError)
    assert (error.line_no, error.message, str(error)) == (3, "x", "line 3: x")
    copy = pickle.loads(pickle.dumps(error))
    assert (type(copy), copy.line_no, copy.message, str(copy)) == (RecordError, 3, "x", "line 3: x")
