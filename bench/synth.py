"""Seeded synthetic refactoring corpora with planted ground truth.

Standard library only: nothing here imports ``refgraph``, so the truth the
oracle checks against is independent of the program under test.  The same
``(workload, seed, scale)`` always writes byte-identical input files.

Every planted subgraph has its own connected core (a random spanning tree
over vertices no other subgraph uses).  Every record the program is meant
to drop (package keyword, constructor, self-loop, malformed line,
off-branch commit, ambiguous commit prefix) hangs off a vertex of a planted
subgraph, towards a fresh vertex used nowhere else, so dropping it can
neither split a planted subgraph nor join two of them.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

WORKLOADS = ("wide-corpus", "deep-hotspots")

TYPES = (
    "rename", "move", "move_and_rename", "extract",
    "extract_and_move", "inline", "pull_up", "push_down",
)
TYPE_WEIGHTS = (25, 15, 8, 22, 10, 8, 7, 5)

KEYWORD = "package-keyword"
CONSTRUCTOR = "constructor"
SELF_LOOP = "self-loop"
EXCLUSION_REASONS = (KEYWORD, CONSTRUCTOR, SELF_LOOP)
TEST_SEGMENTS = ("test", "tests", "example", "examples", "sample", "samples")

MODULES = (
    "core", "io", "net", "util", "render", "data", "model", "service", "config", "cache",
    "parser", "ui", "auth", "db", "http", "event", "task", "metrics", "storage", "layout",
)
CLASS_WORDS = (
    "Order", "Chart", "Request", "Response", "Buffer", "Cache", "Client", "Config", "Entry",
    "Event", "Handler", "Index", "Layout", "Loader", "Manager", "Node", "Parser", "Query",
    "Reader", "Renderer", "Socket", "Store", "Stream", "Task", "Token", "Value", "Writer",
    "View", "Widget", "Filter",
)
CLASS_SUFFIXES = ("", "", "Impl", "Factory", "Composer", "Utils", "Helper", "Adapter", "Service", "Provider")
VERBS = (
    "get", "set", "compute", "build", "parse", "render", "load", "save", "find", "create",
    "update", "apply", "resolve", "handle", "merge", "validate", "convert", "read", "write", "reset",
)
NOUNS = (
    "Value", "Bounds", "Entries", "Item", "Range", "Header", "Body", "Path", "Key", "State",
    "Count", "Size", "Offset", "Label", "Color", "Width", "Node", "Data", "Text", "Index",
)
PLAIN_TYPES = ("int", "long", "String", "boolean", "double", "Object", "byte[]", "int[]", "String[]", "char[][]")
GENERIC_TYPES = (
    "Map<String, List<Integer>>", "List<Map<String, Object>>", "Set<? extends Number>",
    "Optional<T>", "Function<? super T, ? extends R>", "Map.Entry<K, V>",
    "Comparator<? super E>", "Iterable<? extends CharSequence>", "Callable<V>",
    "Supplier<List<String>>", "BiFunction<K, V, Map<K, V>>", "List<String>[]",
)
VARARGS = ("String...", "Object...", "int...", "Class<?>...")
FIRST_NAMES = (
    "Ana", "Bruno", "Chen", "Dana", "Emeka", "Farah", "Goran", "Hana", "Ivan", "Julia",
    "Kenji", "Lena", "Marco", "Nadia", "Omar", "Priya", "Quinn", "Rosa", "Sven", "Tariq",
)
LAST_NAMES = (
    "Almeida", "Berg", "Costa", "Dubois", "Eriksen", "Fischer", "Garcia", "Hoffmann",
    "Ito", "Jensen", "Kowalski", "Lopez", "Moreau", "Novak", "Okafor", "Petrov",
)

WIDE_PROJECTS = (
    "okhttp", "retrofit", "picasso", "mpandroidchart", "elasticsearch", "fresco", "glide",
    "guava", "jedis", "junit5", "netty", "rxjava", "spring-boot", "spring-framework",
    "hystrix", "eventbus", "leakcanary", "butterknife", "zxing", "lottie-android",
)
DEEP_PROJECTS = ("kafka", "hadoop", "cassandra", "lucene-solr")
ZIPF_EXPONENT = 1.3


@dataclass
class Planted:
    """One planted subgraph: its vertices and its distinct edges.

    ``edges`` maps ``(source, target, type, full commit hash)`` to the
    lowercased author email of that commit.
    """

    project: str
    vertices: list[str]
    edges: dict[tuple[str, str, str, str], str]


@dataclass
class Truth:
    """What a correct ``refgraph`` run must report for a corpus."""

    lines: int = 0
    malformed: int = 0
    excluded: dict[str, int] = field(default_factory=lambda: {r: 0 for r in EXCLUSION_REASONS})
    off_branch: int = 0
    ambiguous: int = 0
    subgraphs: list[Planted] = field(default_factory=list)
    selector: str | None = None  # export selector; None exports every subgraph
    min_commits: int = 2


@dataclass
class Corpus:
    truth: Truth
    commands: dict[str, list[str]]  # refgraph argv per command, paths relative to the work dir


@dataclass
class _Commit:
    hash: str
    timestamp: datetime
    author_name: str
    author_email: str  # as rendered in records and logs; case varies per commit


class _Project:
    """Name, commit and citation state for one project's records."""

    def __init__(self, rng: random.Random, name: str, n_commits: int, n_extra: int,
                 with_log: bool, generics: bool):
        self.rng = rng
        self.name = name
        self.with_log = with_log
        self.generics = generics
        self.slug = "".join(ch for ch in name if ch.isalnum())
        self.counter = 0
        self.lines: list[str] = []
        devs = []
        for _ in range(rng.randint(6, 16)):
            first, last = rng.choice(FIRST_NAMES), rng.choice(LAST_NAMES)
            devs.append((f"{first} {last}", f"{first}.{last}@{self.slug}.example"))
        start = datetime(2010, 1, 1, tzinfo=timezone.utc) + timedelta(days=rng.randint(0, 1500))
        span_s = rng.randint(3 * 365, 9 * 365) * 86400
        seconds = sorted(rng.randrange(span_s) for _ in range(n_commits + n_extra))
        commits = []
        for offset in seconds:
            name_, email = rng.choice(devs)
            if rng.random() < 0.2:
                email = email.lower()
            commits.append(_Commit(_random_hash(rng), start + timedelta(seconds=offset), name_, email))
        refactoring_idx = sorted(rng.sample(range(len(commits)), n_commits))
        self.commits = [commits[i] for i in refactoring_idx]  # commits that carry refactorings
        self.log = commits
        self.sorted_log = sorted(c.hash for c in commits)
        # Planted before any citation is made, so no citation can later turn ambiguous.
        self.ambiguous_prefixes = [self._plant_ambiguous_prefix() for _ in range(2)] if with_log else []

    # -- names ---------------------------------------------------------

    def _next(self) -> int:
        self.counter += 1
        return self.counter

    def _package(self, extra: str | None = None) -> str:
        parts = ["org", self.slug, self.rng.choice(MODULES)]
        if extra:
            parts.append(extra)
        return ".".join(parts)

    def _class(self) -> str:
        rng = self.rng
        name = rng.choice(CLASS_WORDS) + rng.choice(CLASS_SUFFIXES)
        if rng.random() < 0.08:
            name += rng.choice(("$", ".")) + rng.choice(CLASS_WORDS)
        return name

    def _params(self) -> str:
        rng = self.rng
        params = []
        for _ in range(rng.choice((0, 1, 1, 2, 2, 3))):
            if self.generics and rng.random() < 0.55:
                params.append(rng.choice(GENERIC_TYPES))
            else:
                params.append(rng.choice(PLAIN_TYPES))
        if self.generics and rng.random() < 0.1:
            params.append(rng.choice(VARARGS))
        return ", ".join(params)

    def vertex(self, method_prefix: str | None = None) -> str:
        """A fresh planted method signature, unique within the corpus."""
        method = method_prefix or self.rng.choice(VERBS) + self.rng.choice(NOUNS)
        return f"{self._package()}.{self._class()}#{method}{self._next()}({self._params()})"

    def test_vertex(self) -> str:
        segment = self.rng.choice(TEST_SEGMENTS)
        return f"{self._package(segment)}.{self.rng.choice(CLASS_WORDS)}Test#test{self.rng.choice(NOUNS)}{self._next()}()"

    def constructor_vertex(self) -> str:
        cls = self.rng.choice(CLASS_WORDS) + f"Part{self._next()}"
        method = "<init>" if self.rng.random() < 0.5 else cls
        return f"{self._package()}.{cls}#{method}({self._params()})"

    # -- commits -------------------------------------------------------

    def _prefix_matches(self, prefix: str) -> int:
        start = bisect.bisect_left(self.sorted_log, prefix)
        return sum(1 for h in self.sorted_log[start:start + 2] if h.startswith(prefix))

    def cite(self, commit: _Commit) -> str:
        """How a record names ``commit``: a unique 7-12 char prefix when the
        project has a commit log, else the full hash (always the same string,
        so the program sees one commit)."""
        if not self.with_log:
            return commit.hash
        length = self.rng.randint(7, 12)
        while self._prefix_matches(commit.hash[:length]) != 1:
            length += 1
        return commit.hash[:length]

    def off_branch_citation(self) -> str:
        while True:
            full = _random_hash(self.rng)
            prefix = full[: self.rng.randint(7, 12)]
            if self._prefix_matches(prefix) == 0:
                return prefix

    def _plant_ambiguous_prefix(self) -> str:
        """Add a log commit sharing a 9-char prefix with an existing one
        that carries no refactoring; return a 7-8 char prefix naming both."""
        carriers = {c.hash for c in self.commits}
        twin_of = self.rng.choice([c for c in self.log if c.hash not in carriers])
        twin_hash = twin_of.hash[:9] + _random_hash(self.rng)[9:]
        twin = _Commit(twin_hash, twin_of.timestamp + timedelta(minutes=7), twin_of.author_name, twin_of.author_email)
        self.log.append(twin)
        bisect.insort(self.sorted_log, twin_hash)
        return twin_hash[: self.rng.randint(7, 8)]

    # -- records -------------------------------------------------------

    def record(self, commit: _Commit, rtype: str, source: str, target: str, cited: str | None = None) -> str:
        return json.dumps(
            {
                "project": self.name,
                "commit": cited or self.cite(commit),
                "timestamp": commit.timestamp.strftime("%Y-%m-%dT%H:%M:%SZ"),
                "author_name": commit.author_name,
                "author_email": commit.author_email,
                "type": rtype,
                "source": source,
                "target": target,
            }
        )

    def rtype(self) -> str:
        return self.rng.choices(TYPES, weights=TYPE_WEIGHTS)[0]

    def log_text(self) -> str:
        lines = []
        for c in sorted(self.log, key=lambda c: (c.timestamp, c.hash), reverse=True):
            local = c.timestamp.astimezone(timezone(timedelta(hours=(int(c.hash[:2], 16) % 5) - 2)))
            lines.append(f"{c.hash}\t{local.isoformat()}\t{c.author_name}\t{c.author_email}\n")
        return "".join(lines)


def _random_hash(rng: random.Random) -> str:
    return f"{rng.getrandbits(160):040x}"


def _tree(p: _Project, vertices: list[str], commits: list[_Commit], planted: Planted) -> None:
    """Connect ``vertices`` by a random spanning tree; edge i uses commit i
    of ``commits`` (cycled), so every listed commit appears."""
    for j in range(1, len(vertices)):
        other = vertices[p.rng.randrange(j)]
        source, target = (other, vertices[j]) if p.rng.random() < 0.6 else (vertices[j], other)
        _edge(p, planted, source, target, p.rtype(), commits[(j - 1) % len(commits)])


def _edge(p: _Project, planted: Planted, source: str, target: str, rtype: str, commit: _Commit) -> str:
    planted.edges[(source, target, rtype, commit.hash)] = commit.author_email.strip().lower()
    line = p.record(commit, rtype, source, target)
    p.lines.append(line)
    return line


def _exclusions(p: _Project, truth: Truth, anchors: list[str], keyword: int, ctor: int, loops: int) -> None:
    rng = p.rng
    for _ in range(keyword):
        v, t = rng.choice(anchors), p.test_vertex()
        source, target = (v, t) if rng.random() < 0.5 else (t, v)
        p.lines.append(p.record(rng.choice(p.commits), p.rtype(), source, target))
    for _ in range(ctor):
        v, c = rng.choice(anchors), p.constructor_vertex()
        source, target = (v, c) if rng.random() < 0.5 else (c, v)
        p.lines.append(p.record(rng.choice(p.commits), p.rtype(), source, target))
    for _ in range(loops):
        v = rng.choice(anchors)
        p.lines.append(p.record(rng.choice(p.commits), p.rtype(), v, v))
    truth.excluded[KEYWORD] += keyword
    truth.excluded[CONSTRUCTOR] += ctor
    truth.excluded[SELF_LOOP] += loops


def _malformed(p: _Project, truth: Truth, anchors: list[str], count: int) -> None:
    rng = p.rng
    for i in range(count):
        v = rng.choice(anchors)
        line = p.record(rng.choice(p.commits), p.rtype(), v, p.vertex())
        data = json.loads(line)
        kind = i % 6
        if kind == 0:
            bad = line[: len(line) // 2]
        elif kind == 1:
            data["commit"] = "not-a-hash"
        elif kind == 2:
            data["type"] = "split_method"
        elif kind == 3:
            data["target"] = data["target"][:-1]  # drops the closing parenthesis
        elif kind == 4:
            del data["author_email"]
        else:
            data["author_email"] = "  "
        if kind != 0:
            bad = json.dumps(data)
        p.lines.append(bad)
    truth.malformed += count


def _history_drops(p: _Project, truth: Truth, anchors: list[str], off_branch: int, ambiguous: int) -> None:
    rng = p.rng
    off_commits = [p.off_branch_citation() for _ in range(max(1, off_branch // 8))]
    for _ in range(off_branch):
        commit = rng.choice(p.commits)  # metadata only; the cited hash is off-branch
        p.lines.append(p.record(commit, p.rtype(), rng.choice(anchors), p.vertex(), cited=rng.choice(off_commits)))
    for i in range(ambiguous):
        commit = rng.choice(p.commits)
        cited = p.ambiguous_prefixes[i % len(p.ambiguous_prefixes)]
        p.lines.append(p.record(commit, p.rtype(), rng.choice(anchors), p.vertex(), cited=cited))
    truth.off_branch += off_branch
    truth.ambiguous += ambiguous


# Subgraph sizes (edges) 1..10 and their shares in the wide corpus.
_WIDE_SIZE_WEIGHTS = (28, 20, 14, 10, 8, 6, 5, 4, 3, 2)


def _wide(rng: random.Random, scale: float, inputs: Path) -> tuple[Truth, dict[str, list[str]]]:
    truth = Truth()
    projects = []
    marker_pool: list[tuple[_Project, Planted]] = []
    token = "Xq" + "".join(rng.choice("ABCDEFGHJKMNPRSTUVWYZ") for _ in range(4))
    for index, name in enumerate(WIDE_PROJECTS):
        n_sub = max(20, round(1280 * scale))
        n_commits = max(6, round(260 * scale))
        p = _Project(rng, name, n_commits, 4 * n_commits, with_log=index % 2 == 0, generics=True)
        sizes = []
        for k, weight in enumerate(_WIDE_SIZE_WEIGHTS, start=1):
            sizes += [k] * max(1, round(n_sub * weight / 100))
        rng.shuffle(sizes)
        multi = set(rng.sample([i for i, k in enumerate(sizes) if k >= 2], round(0.2 * len(sizes))))
        anchors = []
        for i, k in enumerate(sizes):
            planted = Planted(name, [p.vertex() for _ in range(k + 1)], {})
            if i in multi:
                commits = rng.sample(p.commits, min(k, rng.choice((2, 2, 2, 3, 3, 4))))
                commits += [rng.choice(commits) for _ in range(k - len(commits))]
                rng.shuffle(commits)
            else:
                commits = [rng.choice(p.commits)]
            _tree(p, planted.vertices, commits, planted)
            truth.subgraphs.append(planted)
            marker_pool.append((p, planted))
            anchors.append(planted.vertices[0])
        planted_lines = len(p.lines)
        # A detector re-reporting an operation; with a log the duplicate may
        # cite the commit by another prefix, which must still collapse.
        for line in rng.sample(p.lines, round(0.02 * planted_lines)):
            data = json.loads(line)
            commit = next(c for c in p.commits if c.hash.startswith(data["commit"]))
            p.lines.append(p.record(commit, data["type"], data["source"], data["target"]))
        _exclusions(p, truth, anchors, keyword=round(0.115 * planted_lines),
                    ctor=round(0.005 * planted_lines), loops=round(0.003 * planted_lines))
        _malformed(p, truth, anchors, round(0.002 * planted_lines) + 1)
        if p.with_log:
            _history_drops(p, truth, anchors, off_branch=round(0.01 * planted_lines) + 1, ambiguous=3)
        projects.append(p)

    # The export selector: a vertex substring planted in a handful of subgraphs.
    for p, planted in rng.sample(marker_pool, 6):
        old = planted.vertices[-1]
        new = p.vertex(method_prefix="migrate" + token)
        planted.vertices[-1] = new
        planted.edges = {
            tuple(new if part == old else part for part in key[:2]) + key[2:]: email
            for key, email in planted.edges.items()
        }
        p.lines = [_swap_vertex(line, old, new) for line in p.lines]
    truth.selector = token

    _write_records(rng, projects, inputs, truth)
    ages = {p.name: round(rng.uniform(3.0, 15.0), 1) for p in projects}
    (inputs / "project_ages.json").write_text(json.dumps(ages, indent=2) + "\n", encoding="utf-8")
    build = ["build", "--records", "input/records.jsonl"]
    for p in projects:
        if p.with_log:
            log_rel = f"input/logs/{p.slug}.tsv"
            (inputs / "logs").mkdir(exist_ok=True)
            (inputs / "logs" / f"{p.slug}.tsv").write_text(p.log_text(), encoding="utf-8")
            build += ["--commit-log", f"{p.name}={log_rel}"]
    commands = {
        "build": build + ["--out", "out/build"],
        "stats": ["stats", "--graph", "out/build", "--project-ages", "input/project_ages.json", "--out", "out/stats"],
        "export": ["export", token, "--graph", "out/build", "--out", "out/export"],
    }
    return truth, commands


def _swap_vertex(line: str, old: str, new: str) -> str:
    if old not in line:
        return line
    try:
        data = json.loads(line)
    except json.JSONDecodeError:  # a truncated malformed line; it is dropped either way
        return line
    for key in ("source", "target"):
        if data.get(key) == old:
            data[key] = new
    return json.dumps(data)


def _deep(rng: random.Random, scale: float, inputs: Path) -> tuple[Truth, dict[str, list[str]]]:
    truth = Truth()
    projects = []
    for name in DEEP_PROJECTS:
        n_vertices = max(60, round(10000 * scale))
        n_clusters = max(6, round(300 * scale))
        n_commits = max(20, round(1500 * scale))
        p = _Project(rng, name, n_commits, 0, with_log=False, generics=False)
        # Zipf-like cluster sizes: a few giant hot spots and a long tail.
        weights = [i ** -ZIPF_EXPONENT for i in range(1, n_clusters + 1)]
        sizes = [max(2, int(n_vertices * w / sum(weights))) for w in weights]
        tail = range(n_clusters // 2, n_clusters)
        single = set(rng.sample(tail, len(tail) // 2))
        clusters = []
        for i, size in enumerate(sizes):
            planted = Planted(name, [p.vertex() for _ in range(size)], {})
            if i in single:
                window = [rng.choice(p.commits)]
            elif i < 3:  # the long-lived hot spots span the whole history
                window = p.commits
            else:
                width = min(len(p.commits), 2 + size // 2)
                start = rng.randrange(len(p.commits) - width + 1)
                window = p.commits[start:start + width]
            _tree(p, planted.vertices, rng.sample(window, len(window)), planted)
            truth.subgraphs.append(planted)
            clusters.append((planted, window))
        n_edges = round(1.84 * sum(sizes))
        cum = list(itertools.accumulate(sizes))  # extra edges land in clusters by size
        edge_lines = list(p.lines)
        while len(edge_lines) < n_edges:
            planted, window = rng.choices(clusters, cum_weights=cum)[0]
            source, target = rng.sample(planted.vertices, 2)
            rtype, commit = p.rtype(), rng.choice(window)
            if (source, target, rtype, commit.hash) not in planted.edges:
                edge_lines.append(_edge(p, planted, source, target, rtype, commit))
        # Exact duplicate lines: a quarter of the corpus.
        p.lines += [rng.choice(edge_lines) for _ in range(round(len(edge_lines) / 3))]
        anchors = [v for c, _ in clusters for v in c.vertices[:3]]
        distinct = len(edge_lines)
        _exclusions(p, truth, anchors, keyword=round(0.01 * distinct),
                    ctor=round(0.003 * distinct), loops=round(0.003 * distinct))
        _malformed(p, truth, anchors, round(0.002 * distinct) + 1)
        projects.append(p)
    _write_records(rng, projects, inputs, truth)
    commands = {
        "build": ["build", "--records", "input/records.jsonl", "--out", "out/build"],
        "stats": ["stats", "--records", "input/records.jsonl", "--out", "out/stats"],
        "export": ["export", "--graph", "out/build", "--all", "--out", "out/export"],
    }
    return truth, commands


def _write_records(rng: random.Random, projects: list[_Project], inputs: Path, truth: Truth) -> None:
    lines = []
    for p in projects:
        rng.shuffle(p.lines)
        lines += p.lines
    truth.lines = len(lines)
    (inputs / "records.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")


def generate(workload: str, seed: int, work_dir: Path, scale: float = 1.0) -> Corpus:
    """Write the inputs of ``workload`` under ``work_dir/input`` and return
    the planted truth plus the ``refgraph`` argv of each command.

    ``scale`` 1.0 gives about 100k record lines, 0.25 about 25k.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    rng = random.Random(f"refgraph-bench:{workload}:{seed}:{scale}")
    inputs = Path(work_dir) / "input"
    inputs.mkdir(parents=True, exist_ok=True)
    make = _wide if workload == "wide-corpus" else _deep
    truth, commands = make(rng, scale, inputs)
    return Corpus(truth, commands)
