"""Parse, validate, normalize, and filter method-level refactoring records.

Records arrive as UTF-8 JSON lines, one object per line, with exactly the
keys ``project``, ``commit``, ``timestamp``, ``author_name``,
``author_email``, ``type``, ``source`` and ``target``.  ``source`` and
``target`` are canonical method signature strings such as
``util.Foo#m(int, List<String>)``.  ``author_name`` is validated as a
string but not kept: developers are told apart by email.
"""

from __future__ import annotations

import functools
import io
import json
import os
import re
import stat
from datetime import datetime, timedelta
from typing import Iterable, NamedTuple

EDGE_KEYS = ("source", "target", "type", "commit", "timestamp", "author_email")
RECORD_KEYS = frozenset({"project", "author_name", *EDGE_KEYS})
JSON_WHITESPACE = " \t\r\n"  # a line of nothing else is blank, in a records file, commit log or dump

DEFAULT_EXCLUDED_KEYWORDS = ("test", "tests", "example", "examples", "sample", "samples")

#: Exclusion reasons reported by :func:`apply_filters`.
REASON_PACKAGE_KEYWORD = "package-keyword"
REASON_CONSTRUCTOR = "constructor"
REASON_SELF_LOOP = "self-loop"
FILTER_REASONS = (REASON_PACKAGE_KEYWORD, REASON_CONSTRUCTOR, REASON_SELF_LOOP)

_COMMIT_RE = re.compile(r"^[0-9a-f]{7,40}$")
_SURROGATE_RE = re.compile(r"[\ud800-\udfff]")  # the code points UTF-8 cannot encode
_UNPRINTABLE_RE = re.compile(r"[\x00-\x08\x0e-\x1b\x7f-\x84\x86-\x9f\ud800-\udfff]")  # non-whitespace C0/C1 controls, surrogates
_PARAM_SEPARATOR_RE = re.compile(r"\s*([,<>\[\]])\s*|([()])")
_NESTING_RE = re.compile(r"[.$]")
_TIMESTAMP_RE = re.compile(
    r"(\d{4})-(\d\d)-(\d\d)[Tt ](\d\d):(\d\d):(\d\d)(?:\.\d+)?"
    r"(?:[Zz]|([+-])([01]\d|2[0-3]):([0-5]\d))?",
    re.ASCII,
)


class SignatureError(ValueError):
    """A method signature string could not be parsed."""


class RecordError(ValueError):
    """A malformed record line, as :func:`parse_records` reports it or, in
    strict mode, raises it: ``line_no``, 1-based, and the defect, ``message``."""

    def __init__(self, line_no: int, message: str):
        super().__init__(line_no, message)
        self.line_no, self.message = line_no, message

    def __str__(self) -> str:
        return f"line {self.line_no}: {self.message}"


#: The eight method-level refactoring operations: a record's ``type`` is one
#: of these strings, the same object on every record.
REFACTORING_TYPES = (
    "rename", "move", "move_and_rename", "extract", "extract_and_move", "inline", "pull_up", "push_down",
)
_SHARED_TYPES = dict(zip(REFACTORING_TYPES, REFACTORING_TYPES))


class RefactoringRecord(NamedTuple):
    """One detected refactoring operation plus its commit metadata, and an
    edge of its project's graph.  ``source`` and ``target`` are canonical
    signatures, as :func:`parse_signature` returns them.

    The field order is the edge order: records sort by ``(source, target,
    type, commit)`` and then by ``(timestamp, author_email)``, so the first
    of several records naming one edge holds its smallest metadata.
    Equality and hash cover every field, ``project`` included."""

    source: str
    target: str
    type: str
    commit: str
    timestamp: str
    author_email: str
    project: str


class FilterConfig(NamedTuple):
    """Knobs for :func:`apply_filters`.

    Keyword matching is case-insensitive and applies to whole dot-separated
    package segments, so a keyword ``test`` drops ``com.app.test.util`` but
    not ``com.app.protest``.  Self-loops are always dropped, since
    :class:`~refgraph.graph.RefactoringGraph` assumes they are gone.
    """

    excluded_package_keywords: tuple[str, ...] = DEFAULT_EXCLUDED_KEYWORDS
    drop_constructors: bool = True


class ParseResult(NamedTuple):
    records: tuple[RefactoringRecord, ...]
    issues: tuple[RecordError, ...]


@functools.cache
def parse_timestamp(value: str) -> str:
    """Parse an RFC 3339 date-time into its canonical UTC string
    ``YYYY-MM-DDTHH:MM:SSZ`` at seconds precision, the year always four
    digits, so canonical strings sort in time order.

    Date and time are separated by ``T``, ``t`` or a space; a fractional
    second of any length is dropped; the offset is ``Z``, ``z`` or
    ``+HH:MM``/``-HH:MM``, and a missing offset means UTC.  The grammar is
    the same on every Python version, unlike ``datetime.fromisoformat``.

    Results are memoized per string for the life of the process (errors
    are not), so a timestamp shared by many lines is parsed once.  When
    ``value`` is already canonical, the result is ``value`` itself, not a copy.
    """
    match = _TIMESTAMP_RE.fullmatch(value.strip())
    if match is None:
        raise ValueError(f"invalid ISO-8601 timestamp: {value!r}")
    *parts, sign, hours, minutes = match.groups()
    try:
        parsed = datetime(*map(int, parts))
        if sign:
            offset = timedelta(hours=int(hours), minutes=int(minutes))
            parsed -= offset if sign == "+" else -offset
    except (OverflowError, ValueError):  # no such date, or out of datetime's range in UTC
        raise ValueError(f"invalid ISO-8601 timestamp: {value!r}") from None
    canonical = parsed.isoformat() + "Z"
    return value if canonical == value else canonical


@functools.cache
def normalize_commit(value: str) -> str:
    """Lowercase a commit hash and check it is 7-40 hex characters.

    Memoized per string for the life of the process (errors are not), and
    every spelling of one commit gives one shared string; a hash that is
    already normalized is that string itself, not a copy.
    """
    commit = value.strip().lower()
    if not _COMMIT_RE.match(commit):
        raise ValueError(f"invalid commit hash: {value!r}")
    return _shared(value if commit == value else commit)


@functools.cache
def _shared(value: str) -> str:
    """The first string seen equal to ``value``: one object per distinct
    commit, author email or project name, however many records name it."""
    return value


def require_strings(fields: dict, keys: Iterable[str]) -> None:
    """Check that each of ``keys`` holds a string UTF-8 can encode."""
    for key in keys:
        value = fields.get(key)
        if not isinstance(value, str):
            raise ValueError(f"field {key!r} is not a string")
        if not value.isascii() and _SURROGATE_RE.search(value):
            raise ValueError(f"field {key!r} is not valid UTF-8")


def parse_metadata(commit: str, timestamp: str, email: str) -> tuple[str, str, str]:
    """Normalize an edge's commit metadata into ``(commit, timestamp,
    author_email)``, fields four to six of :class:`RefactoringRecord`."""
    author_email = email.strip()
    if not author_email:
        raise ValueError("empty author_email")
    return normalize_commit(commit), parse_timestamp(timestamp), _shared(author_email)


def parse_edge_fields(fields: dict) -> tuple[str, str, str, str, str, str]:
    """Check the :data:`EDGE_KEYS` of a record or dump entry and normalize
    them into the first six fields of :class:`RefactoringRecord`, in order.

    Raises ValueError naming the first bad field; other keys are ignored.
    """
    require_strings(fields, EDGE_KEYS)
    kind = _SHARED_TYPES.get(fields["type"])
    if kind is None:
        raise ValueError(f"unknown refactoring type: {fields['type']!r}")
    return (
        parse_signature(fields["source"]),
        parse_signature(fields["target"]),
        kind,
        *parse_metadata(fields["commit"], fields["timestamp"], fields["author_email"]),
    )


def parse_signature(raw: str) -> str:
    """Parse a signature string like ``util.Foo#m(int, List<String>)`` into
    its canonical form ``package.ClassPath#method(params)``.

    The class path starts at the first dot-separated segment with an
    uppercase initial; everything before it is the package.  Parameters are
    split on top-level commas only, so commas inside generic type arguments
    are preserved.  Spacing inside a parameter is canonical, so
    ``Map<K,V>``, ``Map<K, V>`` and ``Map< K ,V >`` are one type: whitespace
    runs become one space, whitespace next to ``<``, ``>``, ``[`` and ``]``
    or before a varargs ``...`` is dropped, and nested commas are written
    ``, ``.  Whitespace next to a ``.`` or ``$`` of the class path is dropped
    too; an empty class path segment, whitespace inside a segment or the
    method name, or a control character that is not whitespace is an error.

    Results are memoized per string for the life of the process (errors
    are not): every record naming one signature shares one string.  When
    ``raw`` is already canonical, the result is ``raw`` itself, not a copy.
    """
    if not isinstance(raw, str):
        raise SignatureError(f"signature is not a string: {raw!r}")
    return _parse_signature(raw)


@functools.cache
def _parse_signature(raw: str) -> str:
    if not raw.isprintable() and (bad := _UNPRINTABLE_RE.search(raw)):  # a printable string holds neither
        problem = "invalid UTF-8" if bad.group() > "\x9f" else f"control character {bad.group()!r}"
        raise SignatureError(f"{problem} in signature: {raw!r}")
    text = raw.strip()
    if text.count("#") != 1:
        raise SignatureError(f"expected exactly one '#' in signature: {raw!r}")
    prefix, _, member = text.partition("#")
    prefix = prefix.strip()
    if not prefix:
        raise SignatureError(f"missing class path in signature: {raw!r}")
    member = member.strip()
    lparen = member.find("(")
    if lparen == -1 or not member.endswith(")"):
        raise SignatureError(f"missing parameter list in signature: {raw!r}")
    method = member[:lparen].strip()
    if not method:
        raise SignatureError(f"missing method name in signature: {raw!r}")
    try:
        params = _split_params(member[lparen + 1 : -1])
    except SignatureError as exc:  # the split is shared, so name this signature here
        raise SignatureError(f"{exc} in signature: {raw!r}") from None
    # Whitespace at either end of a class path segment or next to "$" is dropped;
    # no segment may be empty or hold whitespace. A prefix with none of these is as written.
    if " " in prefix or ".." in prefix or prefix[0] == "." or prefix[-1] == "." or not prefix.isprintable():
        segments = [segment.strip() for segment in prefix.split(".")]
        if not all(segments):
            raise SignatureError(f"empty class path segment in signature: {raw!r}")
        prefix = re.sub(r"\s*\$\s*", "$", ".".join(segments))
        if len(prefix.split()) > 1:
            raise SignatureError(f"whitespace inside a class path segment in signature: {raw!r}")
    if (" " in method or not method.isprintable()) and len(method.split()) > 1:
        raise SignatureError(f"whitespace inside the method name in signature: {raw!r}")
    canonical = f"{prefix}#{method}({', '.join(params)})"
    return raw if canonical == raw else canonical  # keep one string, the memo key, not an equal copy


@functools.cache
def _split_params(content: str) -> tuple[str, ...]:
    """Split on top-level commas and canonicalize each parameter's spacing.

    Memoized per parameter-list string (errors are not): many distinct
    signatures share one list, such as ``()`` or ``(int, String)``.
    """
    if "  " in content or not content.isprintable():  # a run of spaces, or a tab, newline, ...
        content = " ".join(content.split())
    content = content.replace(" ...", "...")  # varargs: "String ..." is "String..."
    # text, separator, paren, text, ...: the split drops whitespace around <>[] and commas
    parts = _PARAM_SEPARATOR_RE.split(content)
    if len(parts) == 1:
        content = content.strip()
        return (content,) if content else ()
    params = []
    current = parts[0]
    depth = 0
    pieces = iter(parts[1:])
    for separator, paren, text in zip(pieces, pieces, pieces):
        separator = separator or paren
        if separator == ",":
            if depth == 0:
                params.append(current.strip())
                current = text
                continue
            separator = ", "
        elif separator in "(<[":
            depth += 1
        else:
            depth -= 1
            if depth < 0:
                raise SignatureError("unbalanced brackets")
        current += separator + text
    if depth != 0:
        raise SignatureError("unbalanced brackets")
    params.append(current.strip())
    if not all(params):
        raise SignatureError("empty parameter")
    return tuple(params)


def signature_parts(signature: str) -> tuple[str, str, str]:
    """``(package, class path, method)`` of a canonical signature.  The
    class path starts at the first segment with an uppercase initial, or is
    the last segment if none has one."""
    prefix, _, member = signature.partition("#")
    method = member[: member.index("(")]
    segments = prefix.split(".")  # none is empty in a canonical signature
    for i, segment in enumerate(segments):
        if segment[0].isupper():
            return ".".join(segments[:i]), ".".join(segments[i:]), method
    return ".".join(segments[:-1]), segments[-1], method


# Not json.loads, which matches a whitespace regex before and after each value: it made load_graph 66 % slower
# (94 -> 157 ms over deep-hotspots' 18,128 edges), and decoding wide-corpus' 25,130 record lines 0.06 -> 0.09 s.
_raw_decode = json.JSONDecoder().raw_decode


def decode_json(text: str):
    """The value ``json.loads(text)`` gives, but for a leading U+FEFF, no value here; else ValueError
    ``invalid JSON: <defect>``, in json.loads' words (``nested too deeply`` for a RecursionError)."""
    text = text.lstrip(JSON_WHITESPACE)
    try:
        value, end = _raw_decode(text)
        if end == len(text) or not text[end:].strip(JSON_WHITESPACE):
            return value
        problem = "Extra data"
    except json.JSONDecodeError as exc:
        problem = exc.msg
    except RecursionError:
        problem = "nested too deeply"
    except ValueError as exc:  # an integer too long for int()
        problem = str(exc)
    raise ValueError(f"invalid JSON: {problem}")


def parse_record_line(line: str) -> RefactoringRecord:
    """Parse one JSON record line; raises ValueError with the defect named. A line holding undecodable
    bytes (lone surrogates, as decoding a file with ``errors="surrogateescape"`` leaves them) is invalid UTF-8.
    """
    if not line.isascii() and (bad := _SURROGATE_RE.search(line)):
        raise ValueError(f"invalid UTF-8 at column {bad.start() + 1}")
    data = decode_json(line)
    if not isinstance(data, dict):
        raise ValueError("record is not an object")
    keys = set(data)
    missing = RECORD_KEYS - keys
    extra = keys - RECORD_KEYS
    if missing:
        raise ValueError(f"missing keys: {', '.join(sorted(missing))}")
    if extra:
        raise ValueError(f"unexpected keys: {', '.join(sorted(extra))}")
    require_strings(data, ("project", "author_name"))
    project = data["project"].strip()
    if not project:
        raise ValueError("empty project name")
    return RefactoringRecord(*parse_edge_fields(data), _shared(project))


# Every memo of this module; a memo holds each distinct value it has seen.
_MEMOS = (parse_timestamp, normalize_commit, _shared, _parse_signature, _split_params)


def clear_caches() -> None:
    """Empty every memo of the parsers, for a long-running process that
    has finished with the values seen so far.  Outputs do not change."""
    for memo in _MEMOS:
        memo.cache_clear()


def record_ranges(path, parts: int) -> list[tuple[int, int | None]]:
    """Byte ranges ``(start, end)`` that cover the record file at ``path`` in
    order, at most ``parts`` of them, of about equal size; ``end`` is None for
    the last, which reads to the end of the file.  Every other range ends just
    after a ``\\n``, so none splits a line, a ``\\r\\n`` pair or a UTF-8
    sequence.  A file that is not a regular file, or that cannot be read
    here, is one range, and reading it reports the error in its turn."""
    cuts = [0]
    try:
        if parts > 1 and stat.S_ISREG(os.stat(path).st_mode):  # a pipe, say, cannot seek
            with open(path, "rb") as handle:
                size = os.fstat(handle.fileno()).st_size
                for part in range(1, parts):
                    handle.seek(max(size * part // parts, cuts[-1]))
                    # to just after the next \n; a line over 64 KiB long here gets no cut
                    if handle.readline(1 << 16).endswith(b"\n") and handle.tell() < size:
                        cuts.append(handle.tell())
    except OSError:
        pass
    return list(zip(cuts, [*cuts[1:], None]))


class _Range(io.RawIOBase):
    """The next ``size`` bytes of a binary file, which closing this closes."""

    def __init__(self, file, size: int):
        super().__init__()
        self._file, self._left = file, size

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._file.readinto(memoryview(buffer)[: self._left])
        self._left -= n
        return n

    def close(self) -> None:
        self._file.close()
        super().close()


def open_range(path, start: int, end: int | None) -> io.TextIOWrapper:
    """Bytes ``start`` to ``end`` (None: the end of the file) of the record
    file at ``path``, as lines decoded as in reading the whole file with
    ``open(path, encoding="utf-8-sig", errors="surrogateescape")``, given
    that ``start`` is 0 or just after a ``\\n``: universal newlines, and a
    byte-order mark skipped only at offset 0.  Undecodable bytes become lone
    surrogates, which :func:`parse_records` reports per line, so one bad
    line does not end the run.  Read a piece at a time."""
    handle = open(path, "rb")
    try:
        if start:
            handle.seek(start)
        return io.TextIOWrapper(handle if end is None else _Range(handle, end - start),
                                encoding="utf-8" if start else "utf-8-sig", errors="surrogateescape")
    except BaseException:
        handle.close()
        raise


def parse_records(lines: Iterable[str], strict: bool = False) -> ParseResult:
    """Parse a stream of record lines, collecting per-line errors.

    A blank line, holding nothing but JSON whitespace (space, tab, CR, LF),
    is ignored.  Any other line is parsed, so a line of other whitespace
    alone, such as a no-break space or a form feed, is malformed.  A
    malformed line is skipped and reported as a :class:`RecordError`; in
    strict mode the first one is raised instead.
    """
    records: list[RefactoringRecord] = []
    issues: list[RecordError] = []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip(JSON_WHITESPACE):
            continue
        try:
            records.append(parse_record_line(line))
        except ValueError as exc:  # SignatureError is a ValueError
            issue = RecordError(line_no, str(exc))
            if strict:
                raise issue from None
            issues.append(issue)
    return ParseResult(tuple(records), tuple(issues))


# Per-vertex verdicts of apply_filters, ordered like FILTER_REASONS: the
# smaller verdict of a record's two vertices is the first rule that fires.
_KEYWORD, _CONSTRUCTOR, _CLEAN = range(3)


def _verdict(signature: str, keywords: frozenset[str], drop_constructors: bool) -> int:
    package, class_path, method = signature_parts(signature)
    if keywords and any(seg.lower() in keywords for seg in package.split(".") if seg):
        return _KEYWORD
    # a constructor is named <init> or after its innermost class (nested with . or $)
    if drop_constructors and (method == "<init>" or method == _NESTING_RE.split(class_path)[-1]):
        return _CONSTRUCTOR
    return _CLEAN


def apply_filters(
    records: Iterable[RefactoringRecord],
    config: FilterConfig = FilterConfig(),
) -> tuple[list[RefactoringRecord], dict[str, int]]:
    """Drop excluded records; returns kept records plus counts per reason.

    A record matched by several rules is counted once, under the first rule
    that fires (package keyword, then constructor, then self-loop).  Kept
    order is the input order.  The keyword and constructor rules look at one
    vertex at a time, so each distinct vertex is judged once per call.
    """
    keywords = frozenset(k.lower() for k in config.excluded_package_keywords)
    drop_constructors = config.drop_constructors
    verdicts: dict[str, int] = {}  # by vertex
    report = {reason: 0 for reason in FILTER_REASONS}
    kept: list[RefactoringRecord] = []
    for record in records:
        source, target = record.source, record.target
        rule = verdicts.get(source)
        if rule is None:
            rule = verdicts[source] = _verdict(source, keywords, drop_constructors)
        other = verdicts.get(target)
        if other is None:
            other = verdicts[target] = _verdict(target, keywords, drop_constructors)
        if other < rule:
            rule = other
        if rule == _CLEAN:
            if source == target:
                report[REASON_SELF_LOOP] += 1
            else:
                kept.append(record)
        else:
            report[FILTER_REASONS[rule]] += 1
    return kept, report
