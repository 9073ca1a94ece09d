from __future__ import annotations

import codecs
import itertools
import json
import os
import pickle
import random
import re
import tempfile
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import corpus
import oracles
from refgraph import ingest
from refgraph.graph import build
from refgraph.ingest import (
    DEFAULT_EXCLUDED_KEYWORDS,
    REFACTORING_TYPES,
    FilterConfig,
    RecordError,
    SignatureError,
    apply_filters,
    clear_caches,
    decode_json,
    normalize_commit,
    parse_record_line,
    parse_records,
    parse_signature,
    parse_timestamp,
    signature_parts,
)

VALID_LINE = json.dumps(
    {
        "project": "demo",
        "commit": "c1a2b3c",
        "timestamp": "2019-01-01T00:00:00Z",
        "author_name": "Alice",
        "author_email": "a@x.org",
        "type": "move",
        "source": "util.Foo#m()",
        "target": "util.Bar#m()",
    }
)


class TestRefactoringType:
    def test_eight_values_round_trip(self):
        names = [
            "rename",
            "move",
            "move_and_rename",
            "extract",
            "extract_and_move",
            "inline",
            "pull_up",
            "push_down",
        ]
        assert REFACTORING_TYPES == tuple(names)
        for shared in REFACTORING_TYPES:
            # the line's own copy of the name parses to the one shared string
            record = parse_record_line(VALID_LINE.replace('"move"', json.dumps(shared)))
            assert record.type is shared

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown refactoring type: 'renamed'"):
            parse_record_line(VALID_LINE.replace('"move"', '"renamed"'))


class TestParseSignature:
    def test_plain_method(self):
        signature = parse_signature("util.Foo#m()")
        assert signature == "util.Foo#m()"
        assert signature_parts(signature) == ("util", "Foo", "m")

    def test_generic_params_not_split_on_inner_comma(self):
        assert parse_signature("a.b.C#f(int,List<String>)") == "a.b.C#f(int, List<String>)"

    def test_nested_generics_and_arrays(self):
        signature = parse_signature("a.C#f(Map<String,List<Integer>>,byte[])")
        assert signature == "a.C#f(Map<String, List<Integer>>, byte[])"
        assert parse_signature(signature) == signature

    def test_nested_class_via_dot(self):
        assert signature_parts(parse_signature("util.Outer.Inner#m()")) == ("util", "Outer.Inner", "m")

    def test_nested_class_via_dollar(self):
        assert signature_parts(parse_signature("util.Outer$Inner#m()")) == ("util", "Outer$Inner", "m")

    def test_no_package(self):
        signature = parse_signature("Foo#m(int)")
        assert signature == "Foo#m(int)"
        assert signature_parts(signature) == ("", "Foo", "m")

    @pytest.mark.parametrize("raw", ["p.A $B#m()", "p.A$ B#m()", "p.A \t$\n B#m()", " p . A $ B #m()"])
    def test_whitespace_next_to_a_dollar_is_dropped(self, raw):
        signature = parse_signature(raw)
        assert signature == "p.A$B#m()"
        assert signature_parts(signature) == ("p", "A$B", "m")

    @pytest.mark.parametrize("raw", [
        "p.A\x07B#m()",  # in the class path
        "\x00p.A#m()",
        "p.A#n\x00x()",  # in the method name
        "p.A#m\x7f()",
        "p.A#m(in\x1bt, long)",  # in a parameter
        "p.A#m(int, List<\x9fString>)",
        "p.A#m(int)\x08",  # at the end, where whitespace would be stripped
    ])
    def test_control_characters_other_than_whitespace_are_refused(self, raw):
        control = next(c for c in raw if ord(c) < 0x20 or 0x7F <= ord(c) <= 0x9F)
        with pytest.raises(SignatureError) as excinfo:
            parse_signature(raw)
        assert str(excinfo.value) == f"control character {control!r} in signature: {raw!r}"

    @pytest.mark.parametrize("space", ["\t", "\n", "\x0b", "\x0c", "\r", "\x1c", "\x1f", "\x85"])
    def test_control_characters_that_are_whitespace_are_whitespace(self, space):
        assert parse_signature(f"{space}p.{space}A#m({space}int,{space}long{space}){space}") == "p.A#m(int, long)"

    def test_whitespace_stripped(self):
        assert parse_signature("  util.Foo#m( int ,  Map<K, V> ) ") == "util.Foo#m(int, Map<K, V>)"
        assert parse_signature("com. test .Foo\t.Bar #m()") == "com.test.Foo.Bar#m()"

    def test_equality_is_canonical(self):
        assert parse_signature("a.B#m(int,long)") == parse_signature("a.B#m( int , long )")
        assert hash(parse_signature("a.B#m()")) == hash(parse_signature(" a.B#m() "))

    @pytest.mark.parametrize(
        "raw, params",
        [
            ("p.A#m(Map<K,V>)", ("Map<K, V>",)),
            ("p.A#m(Map<K, V>)", ("Map<K, V>",)),
            ("p.A#m(Map< K ,V >)", ("Map<K, V>",)),
            ("a.B#m(String [ ] , int)", ("String[]", "int")),
            ("a.B#m(Set<?  extends\tNumber>)", ("Set<? extends Number>",)),
            ("a.B#m(Map<K,List< V >>[],Map.Entry<K ,V>)", ("Map<K, List<V>>[]", "Map.Entry<K, V>")),
            ("a.B#m(Function<?  super T,\n? extends R>)", ("Function<? super T, ? extends R>",)),
            # whitespace before varargs' "..." is dropped, as it is after ">"
            ("a.B#m(String ...)", ("String...",)),
            ("a.B#m(int,\tString\n ...)", ("int", "String...")),
            ("a.B#m(Map<K, V> ...)", ("Map<K, V>...",)),
            ("a.B#m(int[] ...)", ("int[]...",)),
        ],
    )
    def test_parameter_spacing_is_canonical(self, raw, params):
        assert parse_signature(raw) == f"{raw.partition('(')[0]}({', '.join(params)})"

    @pytest.mark.parametrize(
        "bad",
        [
            "NoHash",
            "a.B#m#n()",
            "a.B#m",
            "a.B#(int)",
            "#m()",
            "a.B#m(int",
            "a.B#m(int))",
            "a.B#m(List<String)",
            "a.B#m(int,)",
            "a.B#m(\udc80)",  # a lone surrogate: UTF-8 cannot encode it
            "a.\ud800B#m()",
            # an empty class path segment, or whitespace inside a name
            ".B#m()",
            "a..B#B()",
            "p.A.#m()",
            "p. .A#m()",
            "p.A#m x()",
            "p.A x#m()",
            "p.A#m\nx()",
        ],
    )
    def test_malformed_signatures(self, bad):
        with pytest.raises(SignatureError, match="signature"):
            parse_signature(bad)

    def test_error_names_the_raw_string(self):
        with pytest.raises(SignatureError, match="NoHash"):
            parse_signature("NoHash")

    def test_one_string_parses_to_one_object(self):
        # Two equal strings that are distinct objects share one cached result.
        first = parse_signature("".join(["a.B#m(int, ", "List<String>)"]))
        assert parse_signature("".join(["a.B#m(int, List", "<String>)"])) is first

    @pytest.mark.parametrize("bad", ["NoHash", "a.B#m(List<String)", "a.B#m(int,)"])
    def test_errors_are_raised_on_every_call(self, bad):
        messages = []
        for _ in range(2):
            with pytest.raises(SignatureError) as excinfo:
                parse_signature(bad)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert repr(bad) in messages[0]

    @pytest.mark.parametrize("params", ["List<String", "int,", "Map<K, V>>", "int, , long"])
    def test_a_shared_bad_parameter_list_names_each_signature(self, params):
        # The parameter-list split is cached per list; its error must still
        # name the signature it came from, on every call.
        signatures = [f"a.B#m({params})", f"  x.y.Other#run({params})"]
        for _ in range(2):
            for raw in signatures:
                with pytest.raises(SignatureError) as excinfo:
                    parse_signature(raw)
                message = str(excinfo.value)
                assert message.endswith(f"in signature: {raw!r}")
                assert all(repr(other) not in message for other in signatures if other != raw)

    @pytest.mark.parametrize("raw", [["a.B#m()"], {}, None, 7])
    def test_non_string_is_a_signature_error(self, raw):
        with pytest.raises(SignatureError, match="signature is not a string"):
            parse_signature(raw)


_lower_seg = st.from_regex(r"[a-z][a-z0-9]{0,5}", fullmatch=True)
_package_seg = st.one_of(_lower_seg, st.sampled_from(DEFAULT_EXCLUDED_KEYWORDS))
_class_seg = st.from_regex(r"[A-Z][A-Za-z0-9]{0,5}(\$([A-Z][A-Za-z0-9]{0,3}|[0-9]{1,2})){0,2}", fullmatch=True)
_param = st.from_regex(
    r"[A-Za-z][A-Za-z0-9]{0,5}(<[A-Za-z][A-Za-z0-9]{0,3}(, [A-Za-z][A-Za-z0-9]{0,3})?>)?(\[\])?",
    fullmatch=True,
)


@st.composite
def canonical_signatures(draw) -> str:
    """Canonical signatures with package keywords, ``$`` nesting, varargs and constructors among them."""
    package = ".".join(draw(st.lists(_package_seg, max_size=3)))
    class_path = ".".join(draw(st.lists(_class_seg, min_size=1, max_size=2)))
    method = draw(st.one_of(st.from_regex(r"[a-z][A-Za-z0-9_]{0,7}", fullmatch=True),
                            st.just("<init>"), st.just(re.split(r"[.$]", class_path)[-1])))
    params = draw(st.lists(_param, max_size=3))
    if params and draw(st.booleans()):
        params[-1] += "..."
    prefix = f"{package}.{class_path}" if package else class_path
    return f"{prefix}#{method}({', '.join(params)})"


@given(canonical_signatures())
def test_parse_is_identity_on_canonical_forms(signature):
    assert parse_signature(signature) == signature


@given(canonical_signatures(), st.randoms(use_true_random=False))
def test_parse_ignores_spacing_around_brackets_and_commas(signature, rnd):
    head, _, params = signature.partition("(")
    noisy = re.sub(
        r"\s*([<>\[\],])\s*",
        lambda m: rnd.choice(["", " ", "\t", "  \n "]) + m.group(1) + rnd.choice(["", " ", "\t", "  \n "]),
        params,
    )
    assert parse_signature(f"{head}({noisy}") == signature


@given(canonical_signatures(), st.randoms(use_true_random=False))
def test_parse_ignores_spacing_around_class_path_dots(signature, rnd):
    prefix, _, member = signature.partition("#")
    noisy = ".".join(rnd.choice(["", " ", "\t"]) + segment + rnd.choice(["", " ", "\n"])
                     for segment in prefix.split("."))
    assert parse_signature(f"{noisy}#{member}") == signature


# Whitespace as str.strip and str.split see it, JSON's own among it.
_WHITESPACE = [" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"]
# The tokens of a canonical signature; the only space in one is the one after a comma.
_SIGNATURE_TOKEN = re.compile(r"<init>|\.\.\.|[.$#(),<>\[\]]|[^.$#(),<>\[\] ]+")


@settings(max_examples=300, deadline=None)
@given(canonical_signatures(), st.lists(st.text(st.sampled_from(_WHITESPACE), max_size=3), min_size=1, max_size=80))
@example("p.tests.Outer$Inner.In$1#<init>(Map<K, V>[], int...)", [" \t", "", "\xa0", "\n\u2028", "\x85", "\x1c"])
def test_whitespace_at_every_token_boundary_leaves_the_vertex_and_its_verdict(signature, spaces):
    # spaces[i], cycled, goes before the i-th token, and after the last.
    tokens = _SIGNATURE_TOKEN.findall(signature)
    assert "".join(tokens) == signature.replace(", ", ",")
    spaces = itertools.islice(itertools.cycle(spaces), len(tokens) + 1)
    noisy = next(spaces) + "".join(token + space for token, space in zip(tokens, spaces))
    assert parse_signature(signature) == signature  # a canonical string is a fixed point
    assert parse_signature(noisy) == signature
    verdicts = []
    for spelling in (signature, noisy):
        kept, excluded = apply_filters([parse_record_line(json.dumps(dict(json.loads(VALID_LINE), source=spelling)))])
        verdicts.append((len(kept), excluded))
    assert verdicts[0] == verdicts[1]


# Text near JSON: structure, quotes, escapes, numbers, the letters of its literals, JSON whitespace, a
# byte-order mark, and a no-break space, which is whitespace to str.strip but not to JSON.
_JSONISH = st.text(st.sampled_from(list('[]{}",:\\/0123456789-+.eEtrufalsnNaIiy \t\r\n\ufeff\xa0')), max_size=24)
# Most such text is no JSON, so JSON values are drawn too, as json.dumps writes them, with spacing around.
_JSON_VALUES = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
                            lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                                         max_size=3), max_leaves=6)
_SPACING = st.text(st.sampled_from(list(" \t\r\n\ufeff\xa0")), max_size=3)
_JSON_TEXT = _JSONISH | st.tuples(_SPACING, _JSON_VALUES, _SPACING).map(lambda t: t[0] + json.dumps(t[1]) + t[2])


@settings(max_examples=500, deadline=None)
@given(_JSON_TEXT)
@example("\ufeff{}")
@example(' {"a": [1, 2.5e3, true, null]}\r\n')
@example("[1] [2]")
@example("[" * 100_000)
@example("9" * 5000)
@example("NaN")
def test_decode_json_decodes_as_json_loads(text):
    try:
        expected = json.loads(text)
    except json.JSONDecodeError as exc:
        # json.loads names a leading U+FEFF a misread byte-order mark; to decode_json it is no value
        problem = "Expecting value" if text.startswith("\ufeff") else exc.msg
    except RecursionError:
        problem = "nested too deeply"
    except ValueError as exc:  # an integer too long for int()
        problem = str(exc)
    else:
        assert repr(decode_json(text)) == repr(expected)  # repr: NaN is not equal to itself
        return
    with pytest.raises(ValueError) as caught:
        decode_json(text)
    assert str(caught.value) == f"invalid JSON: {problem}"


# The timestamp grammar (RFC 3339 date-time) as plain literals: input -> UTC
# result, and inputs that must be rejected.  Several rejected forms are
# accepted by ``datetime.fromisoformat`` on Python 3.11+ but not on 3.10.
TIMESTAMPS_ACCEPTED = [
    ("2014-01-20T08:30:00Z", "2014-01-20T08:30:00Z"),
    ("2014-01-20t08:30:00z", "2014-01-20T08:30:00Z"),
    ("2014-01-20 08:30:00Z", "2014-01-20T08:30:00Z"),
    ("2014-01-20T08:30:00", "2014-01-20T08:30:00Z"),
    ("2014-01-20T08:30:00.5Z", "2014-01-20T08:30:00Z"),
    ("2014-01-20T08:30:00.999999999+02:00", "2014-01-20T06:30:00Z"),
    ("2014-01-20T08:30:00-05:30", "2014-01-20T14:00:00Z"),
    ("2014-01-20T23:30:00-01:00", "2014-01-21T00:30:00Z"),
    ("2014-01-20T08:30:00+00:00", "2014-01-20T08:30:00Z"),
    ("  2014-01-20T08:30:00Z\n", "2014-01-20T08:30:00Z"),
    ("2016-02-29T00:00:00+23:59", "2016-02-28T00:01:00Z"),
    ("0999-01-01T00:00:00Z", "0999-01-01T00:00:00Z"),
    ("0001-01-01T05:00:00+01:00", "0001-01-01T04:00:00Z"),
]
TIMESTAMPS_REJECTED = [
    "20140120T083000Z",
    "2014-W04-1T08:30:00Z",
    "2014-020T08:30:00Z",
    "2014-01-20 08:30:00+0200",
    "2014-01-20T08:30:00+02",
    "2014-01-20T08:30:00+24:00",
    "2014-01-20T08:30:00+02:60",
    "0001-01-01T00:00:00+01:00",
    "9999-12-31T23:59:59-01:00",
    "2014-01-20",
    "2014-01-20T08:30Z",
    "2014-01-20T08Z",
    "2014-01-20T08:30:00.Z",
    "2014-01-20T08:30:00,5Z",
    "2014-01-20T08:30:00ZZ",
    "2014-01-20T08:30:00 Z",
    "2014-01-20_08:30:00Z",
    "2014-02-30T08:30:00Z",
    "2014-01-20T24:00:00Z",
    "2014-01-20T08:60:00Z",
    "2014-01-20T08:30:60Z",
    "\u0662\u0660\u0661\u0664-01-20T08:30:00Z",
    "+2014-01-20T08:30:00Z",
    "yesterday",
    "",
]


class TestTimestamps:
    def test_z_suffix(self):
        assert parse_timestamp("2019-01-01T00:00:00Z") == "2019-01-01T00:00:00Z"

    def test_offset_converted_to_utc(self):
        assert parse_timestamp("2019-01-01T02:00:00+02:00") == "2019-01-01T00:00:00Z"

    def test_naive_assumed_utc_and_seconds_precision(self):
        assert parse_timestamp("2019-01-01T00:00:00.654321") == "2019-01-01T00:00:00Z"

    def test_garbage_rejected(self):
        with pytest.raises(ValueError, match="ISO-8601"):
            parse_timestamp("yesterday")

    @pytest.mark.parametrize("text, expected", TIMESTAMPS_ACCEPTED)
    def test_grammar_accepts(self, text, expected):
        assert parse_timestamp(text) == expected

    @pytest.mark.parametrize("text", TIMESTAMPS_REJECTED)
    def test_grammar_rejects(self, text):
        with pytest.raises(ValueError, match="invalid ISO-8601 timestamp"):
            parse_timestamp(text)

    def test_one_string_parses_to_one_object(self):
        first = parse_timestamp("".join(["2019-01-01T02:00:00", "+02:00"]))
        assert parse_timestamp("".join(["2019-01-01T02:00", ":00+02:00"])) is first

    def test_canonical_string_is_the_parsed_string(self):
        clear_caches()
        raw = "".join(["2019-01-01T00:00", ":00Z"])  # an object of its own, not a constant
        assert parse_timestamp(raw) is raw
        assert parse_timestamp("".join(["2019-01-01T00:00", ":00Z"])) is raw  # an equal string hits the memo

    @pytest.mark.parametrize("bad", ["yesterday", "2014-02-30T08:30:00Z", "0001-01-01T00:00:00+01:00"])
    def test_errors_are_raised_on_every_call(self, bad):
        messages = []
        for _ in range(2):
            with pytest.raises(ValueError) as excinfo:
                parse_timestamp(bad)
            messages.append(str(excinfo.value))
        assert messages == [f"invalid ISO-8601 timestamp: {bad!r}"] * 2


# An instant in UTC, seen from an offset of under a day either way, with
# any separator and a fractional second: RFC 3339 text across years 1-9999.
_INSTANTS = st.tuples(
    st.datetimes(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30, 23, 59, 59, 999999)),
    st.integers(-(24 * 60 - 1), 24 * 60 - 1),
    st.sampled_from("Tt "),
)


@given(st.lists(_INSTANTS, min_size=1, max_size=12))
@example([(datetime(999, 1, 1), 0, "T"), (datetime(1000, 1, 1), 0, "T"), (datetime(1, 1, 2), 60, "T")])
def test_canonical_timestamps_are_fixed_points_and_sort_in_time_order(instants):
    utcs = [utc.replace(microsecond=0) for utc, _, _ in instants]
    texts = [
        utc.replace(tzinfo=timezone.utc).astimezone(timezone(timedelta(minutes=minutes))).isoformat(sep)
        for utc, minutes, sep in instants
    ]
    canonical = [parse_timestamp(text) for text in texts]
    for utc, stamp in zip(utcs, canonical):
        # written field by field here, not by the library's formatting
        assert stamp == f"{utc.year:04}-{utc.month:02}-{utc.day:02}T{utc.hour:02}:{utc.minute:02}:{utc.second:02}Z"
        clear_caches()  # else an equal string parsed before is the memo's answer
        assert parse_timestamp(stamp) is stamp
    positions = range(len(instants))
    assert sorted(positions, key=canonical.__getitem__) == sorted(positions, key=utcs.__getitem__)

    # Copies of a few edges that differ only in timestamp: build keeps the
    # smallest string, the oracle the earliest datetime.
    pool = corpus.method_pool(6)
    records = [
        corpus.make_record(pool[i % 3], pool[3 + i % 3], commit=f"abcdef{i % 2}")._replace(timestamp=stamp)
        for i, stamp in enumerate(canonical)
    ]
    assert list(build(records).edges) == oracles.dedup_edges(records)
    assert list(build(records[::-1]).edges) == oracles.dedup_edges(records[::-1])


class TestNormalizeCommit:
    def test_lowercased(self):
        assert normalize_commit("ABCDEF1") == "abcdef1"

    @pytest.mark.parametrize("bad", ["abc123", "g" * 7, "a" * 41, ""])
    def test_invalid(self, bad):
        with pytest.raises(ValueError, match="commit"):
            normalize_commit(bad)

    def test_errors_are_raised_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ValueError, match=re.escape("invalid commit hash: 'XYZ1234'")):
                normalize_commit("XYZ1234")

    def test_a_normalized_hash_is_returned_itself(self):
        clear_caches()
        raw = "".join(["abcdef", "1234"])  # built at run time, so not a shared constant
        assert normalize_commit(raw) is raw
        assert normalize_commit(" ABCDEF1234 ") is raw


@given(st.one_of(st.text(alphabet="0123456789abcdefABCDEFg \t\n", max_size=44), st.text(max_size=44)))
@example("ABCDEF1")
@example(" abcdef1\n")
@example("abcdef")
def test_memoized_normalize_commit_matches_oracle(value):
    try:
        expected = oracles.normalize_commit(value)
    except ValueError as exc:
        for _ in range(2):
            with pytest.raises(ValueError) as excinfo:
                normalize_commit(value)
            assert str(excinfo.value) == str(exc)
        return
    first = normalize_commit(value)
    assert first == expected
    assert normalize_commit(value) is first
    assert normalize_commit(expected) is first  # every spelling of one hash is one string


class TestSharedStrings:
    """Each distinct commit, email and project is one object, and a
    canonical signature parses to itself."""

    @staticmethod
    def _distinct_objects(values) -> int:
        return len({id(value) for value in values})

    def test_records_share_each_distinct_value(self):
        lines = [
            json.dumps(
                {
                    "project": project,
                    "commit": commit,
                    "timestamp": "2019-01-01T00:00:00Z",
                    "author_name": "Dev",
                    "author_email": email,
                    "type": "move",
                    "source": f"org.app.util.Foo#m{i}()",
                    "target": f"org.app.io.Bar{i}#m(int)",
                }
            )
            for i, (project, commit, email) in enumerate(
                zip(
                    ["alpha", " alpha", "beta", "alpha ", "beta", "gamma"],
                    ["ABCDEF1", "abcdef1", " abcdef1 ", "1234567", "AbCdEf1", "1234567"],
                    ["a@x.org", "b@x.org", " a@x.org", "a@x.org", "b@x.org ", "c@x.org"],
                )
            )
        ]
        result = parse_records(lines)
        assert not result.issues
        records = result.records
        for name in ("project", "commit", "author_email"):
            values = [getattr(record, name) for record in records]
            assert self._distinct_objects(values) == len(set(values)) < len(values), name

    @pytest.mark.parametrize("signature", ["util.Foo#m()", "a.b.Foo.Inner#run(int, Map<K, V>[])", "Foo#m(String)"])
    def test_canonical_string_is_the_parsed_string(self, signature):
        clear_caches()
        raw = "".join(signature)  # an object of its own, not the parametrize constant
        assert parse_signature(raw) is raw
        assert parse_signature("".join(signature)) is raw  # an equal string hits the memo


def test_clear_caches_empties_every_memo():
    parse_records([VALID_LINE])
    memos = {value for value in vars(ingest).values() if hasattr(value, "cache_clear")}
    assert memos == set(ingest._MEMOS)
    assert all(memo.cache_info().currsize for memo in memos)
    clear_caches()
    assert not any(memo.cache_info().currsize for memo in memos)


class TestParseRecords:
    def test_single_valid_line(self):
        result = parse_records([VALID_LINE])
        assert len(result.records) == 1
        assert not result.issues
        record = result.records[0]
        assert record.source == "util.Foo#m()"
        assert record.target == "util.Bar#m()"
        assert record.type == "move"
        assert record.commit == "c1a2b3c"
        assert record.timestamp == "2019-01-01T00:00:00Z"
        assert record.author_email == "a@x.org"
        assert record.project == "demo"

    def test_empty_input(self):
        result = parse_records([])
        assert result.records == ()
        assert result.issues == ()

    def test_blank_lines_skipped(self):
        result = parse_records(["", "   ", VALID_LINE, "\n", " \t\r\n"])
        assert len(result.records) == 1
        assert not result.issues

    # Whitespace to str.strip but not to JSON: a line of it alone is a record line, and malformed.
    @pytest.mark.parametrize("space", ["\xa0", "\u2028", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85"])
    def test_a_line_of_other_whitespace_is_malformed(self, space):
        result = parse_records([VALID_LINE, f" {space}\t\n"])
        assert len(result.records) == 1
        assert [(issue.line_no, issue.message) for issue in result.issues] == [(2, "invalid JSON: Expecting value")]
        with pytest.raises(RecordError, match="^line 2: invalid JSON: Expecting value$"):
            parse_records([VALID_LINE, space], strict=True)

    def test_file_order_preserved(self):
        lines = [
            json.dumps(d)
            for d in corpus.DEMO_CORPUS
        ]
        result = parse_records(lines)
        assert [r.commit for r in result.records] == [d["commit"] for d in corpus.DEMO_CORPUS]

    def test_injected_corruptions_are_counted_with_line_numbers(self):
        # 100 generated lines; 5 have a corrupted type field at known slots.
        base = json.loads(VALID_LINE)
        corrupt_at = {4, 18, 42, 69, 91}  # 1-based line numbers
        lines = []
        for line_no in range(1, 101):
            entry = dict(base, commit=f"{line_no:07x}")
            if line_no in corrupt_at:
                entry["type"] = "refactorize"
            lines.append(json.dumps(entry))
        result = parse_records(lines)
        assert len(result.records) == 95
        assert len(result.issues) == 5
        assert {issue.line_no for issue in result.issues} == corrupt_at
        assert all("refactorize" in issue.message for issue in result.issues)

    @pytest.mark.parametrize(
        "mutate, expected",
        [
            (lambda d: d.pop("commit"), "missing keys"),
            (lambda d: d.update(extra="x"), "unexpected keys"),
            (lambda d: d.update(timestamp=123), "not a string"),
            (lambda d: d.update(author_email="  "), "author_email"),
            (lambda d: d.update(project=""), "project"),
            (lambda d: d.update(commit="zz"), "commit"),
            (lambda d: d.update(timestamp="not-a-date"), "ISO-8601"),
            (lambda d: d.update(source="NoHash"), "signature"),
        ],
    )
    def test_field_validation(self, mutate, expected):
        entry = json.loads(VALID_LINE)
        mutate(entry)
        result = parse_records([json.dumps(entry)])
        assert not result.records
        assert len(result.issues) == 1
        assert expected in result.issues[0].message

    @pytest.mark.parametrize(
        "mutate, expected",
        [
            (lambda d: d.pop("author_name"), "missing keys"),
            (lambda d: d.update(author_name=7), "not a string"),
        ],
    )
    def test_author_name_still_validated(self, mutate, expected):
        # author_name is not kept on the record, but it is still required and must be a string.
        entry = json.loads(VALID_LINE)
        mutate(entry)
        result = parse_records([json.dumps(entry)])
        assert not result.records
        assert len(result.issues) == 1
        assert expected in result.issues[0].message

    def test_not_json_and_not_object(self):
        result = parse_records(["{oops", '"a string"'])
        assert [i.line_no for i in result.issues] == [1, 2]

    def test_strict_mode_raises_with_line_number(self):
        with pytest.raises(RecordError, match="line 2"):
            parse_records([VALID_LINE, "{broken", VALID_LINE], strict=True)

    def test_deep_nesting_is_a_skipped_line(self):
        deep = "[" * 100_000
        result = parse_records([VALID_LINE, deep, VALID_LINE])
        assert len(result.records) == 2
        assert [(i.line_no, i.message) for i in result.issues] == [(2, "invalid JSON: nested too deeply")]
        with pytest.raises(RecordError, match="line 2: invalid JSON: nested too deeply"):
            parse_records([VALID_LINE, deep], strict=True)

    # Two lines json.loads names otherwise: int() refuses more than 4300 digits with a ValueError that
    # json.loads passes on as it is, and a byte-order mark is skipped only at the start of a file.
    @pytest.mark.parametrize("bad, message", [
        (VALID_LINE.replace('"2019-01-01T00:00:00Z"', "9" * 5000),
         "invalid JSON: Exceeds the limit (4300 digits) for integer string conversion: value has 5000 digits"),
        ("\ufeff" + VALID_LINE, "invalid JSON: Expecting value"),
    ], ids=["long-int", "byte-order-mark"])
    def test_a_json_defect_is_invalid_json(self, bad, message):
        result = parse_records([VALID_LINE, bad, VALID_LINE])
        assert len(result.records) == 2
        assert [(i.line_no, i.message[:len(message)]) for i in result.issues] == [(2, message)]

    def test_undecodable_bytes_are_a_skipped_line(self):
        # A file read with errors="surrogateescape" turns the byte 0xff into "\udcff".
        bad = VALID_LINE.replace("Alice", "Al\udcffce")
        result = parse_records([VALID_LINE, bad, VALID_LINE])
        assert len(result.records) == 2
        assert [i.line_no for i in result.issues] == [2]
        assert result.issues[0].message.startswith("invalid UTF-8")
        with pytest.raises(RecordError, match="line 1: invalid UTF-8"):
            parse_records([bad], strict=True)

    def test_strict_error_keeps_its_line_and_message_through_pickle(self):
        # A worker process pickles the error; the parent renumbers it by the lines before its range.
        with pytest.raises(RecordError) as caught:
            parse_records([VALID_LINE, "{broken"], strict=True)
        copy = pickle.loads(pickle.dumps(caught.value))
        assert (copy.line_no, copy.message, str(copy)) == (2, caught.value.message, str(caught.value))
        assert str(copy).startswith("line 2: invalid JSON")

    # One line of each kind of defect: the same RecordError, skipped or raised.
    @pytest.mark.parametrize("bad", [
        "{oops",
        '"a string"',
        "[" * 100_000,
        VALID_LINE.replace("Alice", "Al\udcffce"),
        VALID_LINE.replace('"author_name"', '"author"'),
        VALID_LINE.replace('"move"', '"refactorize"'),
        VALID_LINE.replace("util.Foo#m()", "util.Foo#m(Map<K, V)"),
        VALID_LINE.replace("2019-01-01T00:00:00Z", "2019-02-30T00:00:00Z"),
    ], ids=["not-json", "not-an-object", "deep", "undecodable", "keys", "type", "signature", "timestamp"])
    def test_a_bad_line_is_one_record_error_skipped_or_raised(self, bad):
        issues = parse_records([VALID_LINE, "", bad]).issues
        with pytest.raises(RecordError) as caught:
            parse_records([VALID_LINE, "", bad], strict=True)
        assert [type(issue) for issue in issues] == [RecordError] and type(caught.value) is RecordError
        assert (issues[0].line_no, issues[0].message) == (caught.value.line_no, caught.value.message)
        assert str(issues[0]) == str(caught.value) == f"line 3: {caught.value.message}"


# Bytes a record file may hold that a cut between ranges must not change the
# reading of: line ends of all three kinds, byte-order marks, a UTF-8
# sequence of each length, bytes UTF-8 cannot decode, blank lines.
_FILE_PIECES = st.sampled_from([
    b"\n", b"\r\n", b"\r", b"\r\r\n", codecs.BOM_UTF8, b"\xef\xbb", b"\xff", b"\xe2\x82", b"\xc3\xa9",
    "\u20ac".encode(), "\U0001f600".encode(), b"{}", b" ", b"a", b"bc",
])


@settings(max_examples=300, deadline=None)
@given(pieces=st.lists(_FILE_PIECES, max_size=40), parts=st.integers(1, 6))
@example(pieces=[codecs.BOM_UTF8, b"a", b"\r\n", codecs.BOM_UTF8, b"b", b"\n", b"\xff", b"\r"], parts=3)
def test_record_file_ranges_read_as_the_whole_file(pieces, parts):
    data = b"".join(pieces)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "records.jsonl")
        with open(path, "wb") as handle:
            handle.write(data)
        ranges = ingest.record_ranges(path, parts)
        with open(path, encoding="utf-8-sig", errors="surrogateescape") as handle:
            whole = list(handle)
        lines = []
        for start, end in ranges:
            with ingest.open_range(path, start, end) as handle:
                lines += list(handle)
    assert lines == whole
    # the ranges follow each other from offset 0, each but the last ending just after a \n
    assert 1 <= len(ranges) <= parts and ranges[0][0] == 0 and ranges[-1][1] is None
    for (_, end), (start, _) in zip(ranges, ranges[1:]):
        assert end == start and data[end - 1 : end] == b"\n" and end < len(data)


def test_a_file_that_cannot_be_cut_is_one_range(tmp_path):
    # Reading a file that is missing, or a pipe, reports or reads it as a whole, in its turn.
    assert ingest.record_ranges(tmp_path / "missing.jsonl", 4) == [(0, None)]
    read, write = os.pipe()
    try:
        os.write(write, b"a\r\nb\n")
        os.close(write)
        write = None
        assert ingest.record_ranges(f"/dev/fd/{read}", 4) == [(0, None)]
        with ingest.open_range(f"/dev/fd/{read}", 0, None) as handle:
            assert list(handle) == ["a\n", "b\n"]
    finally:
        os.close(read)
        if write is not None:
            os.close(write)


def _record(source: str, target: str):
    return corpus.make_record(parse_signature(source), parse_signature(target))


class TestApplyFilters:
    def test_package_keyword_drops_whole_segment_matches(self):
        kept, report = apply_filters([_record("com.app.tests.util.Helper#m()", "com.app.core.Api#m()")])
        assert not kept
        assert report["package-keyword"] == 1

    def test_keyword_matching_is_case_insensitive(self):
        kept, _ = apply_filters([_record("com.app.Tests.x.A#m()", "com.app.A#n()")])
        # "Tests" starts uppercase, so it is a class segment, not a package one.
        assert len(kept) == 1
        kept, report = apply_filters([_record("com.tESTS.a.A#m()", "com.app.A#n()")])
        assert not kept and report["package-keyword"] == 1
        config = FilterConfig(excluded_package_keywords=("TEST",))
        kept, report = apply_filters([_record("com.test.A#m()", "com.app.A#n()")], config)
        assert not kept and report["package-keyword"] == 1

    def test_keyword_segment_spelled_with_spaces_matches(self):
        kept, report = apply_filters([_record("com. test.Foo#m()", "com.app.A#n()")])
        assert not kept and report["package-keyword"] == 1

    def test_substring_does_not_match(self):
        kept, report = apply_filters([_record("com.protest.A#m()", "com.app.B#n()")])
        assert len(kept) == 1
        assert sum(report.values()) == 0

    def test_target_package_also_checked(self):
        _, report = apply_filters([_record("com.app.A#m()", "com.app.sample.B#n()")])
        assert report["package-keyword"] == 1

    @pytest.mark.parametrize(
        "source",
        ["a.Foo#Foo()", "a.Foo#<init>()", "a.Outer.Inner#Inner()", "a.Outer$Inner#Inner()"],
    )
    def test_constructors_dropped(self, source):
        kept, report = apply_filters([_record(source, "a.Bar#n()")])
        assert not kept
        assert report["constructor"] == 1

    def test_keep_constructors_config(self):
        config = FilterConfig(drop_constructors=False)
        kept, report = apply_filters([_record("a.Foo#Foo()", "a.Bar#n()")], config)
        assert len(kept) == 1
        assert sum(report.values()) == 0

    def test_self_loop_dropped(self):
        kept, report = apply_filters([_record("a.Foo#m()", "a.Foo#m()")])
        assert not kept
        assert report["self-loop"] == 1

    def test_first_matching_reason_wins(self):
        # Both a keyword package and a self-loop: counted once, as keyword.
        _, report = apply_filters([_record("a.tests.Foo#m()", "a.tests.Foo#m()")])
        assert report == {"package-keyword": 1, "constructor": 0, "self-loop": 0}

    def test_generated_violations_accounted(self):
        # 50 records, 7 built to violate one filter each.
        rng = random.Random(7)
        clean = [_record(f"a.b.C{i}#m{i}()", f"a.b.C{i}#n{i}()") for i in range(43)]
        violations = [
            _record("a.tests.A#m()", "a.b.B#n()"),
            _record("a.samples.A#m()", "a.b.B#n()"),
            _record("a.b.Example#m()", "x.examples.B#n()"),
            _record("a.b.Foo#Foo()", "a.b.B#n()"),
            _record("a.b.B#n()", "a.b.Foo#<init>()"),
            _record("a.b.Loop#m()", "a.b.Loop#m()"),
            _record("q.Self#go()", "q.Self#go()"),
        ]
        records = clean + violations
        rng.shuffle(records)
        kept, report = apply_filters(records)
        assert len(kept) == 43
        assert sum(report.values()) == 7
        assert report == {"package-keyword": 3, "constructor": 2, "self-loop": 2}

    def test_filtering_is_idempotent(self):
        rng = random.Random(11)
        records = corpus.random_records(rng, 200, pool_size=30)
        kept, _ = apply_filters(records)
        again, report = apply_filters(kept)
        assert again == kept
        assert sum(report.values()) == 0

    def test_default_keywords(self):
        assert DEFAULT_EXCLUDED_KEYWORDS == ("test", "tests", "example", "examples", "sample", "samples")


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a.b.C#m()", "a.tests.C#m()", "a.b.Foo#Foo()", "x.Y#z()"]),
            st.sampled_from(["a.b.C#m()", "d.e.F#n()", "x.sample.Y#z()"]),
        ),
        max_size=40,
    )
)
def test_kept_plus_report_equals_total(pairs):
    records = [_record(s, t) for s, t in pairs]
    kept, report = apply_filters(records)
    assert len(kept) + sum(report.values()) == len(records)


# Signatures chosen so the filter rules fire alone and in every combination:
# keyword packages in several cases, constructors of each kind, and plain ones.
_FILTER_SIGNATURES = [
    "a.b.C#m()", "d.e.F#n(int)", "x.Y#z()", "a.protest.C#m()",
    "a.tests.C#m()", "a.TEST.C#go()", "x.sample.Y#z()", "q.Examples.A#b()",
    "a.b.Foo#Foo()", "a.b.Foo#<init>(int)", "a.Outer$Inner#Inner()", "a.Outer.Inner#Inner()",
    "a.tests.Foo#Foo()", "x.sample.Y#<init>()",
    # shapes where a split of the canonical string could drift from the raw parse
    "Foo#Foo()", "a.b.c#c()", "a. tests .B#B()", "Foo.bar#bar()", "a.Outer$Mid.Inner#Inner()",
    " a.tests.C # m ( int ,String ) ",
]


@pytest.mark.parametrize(
    "raw, parts",
    [
        ("Foo#Foo()", ("", "Foo", "Foo")),
        ("a.b.c#c()", ("a.b", "c", "c")),
        ("Foo.bar#bar()", ("", "Foo.bar", "bar")),
        ("a.Outer$Mid.Inner#Inner()", ("a", "Outer$Mid.Inner", "Inner")),
        (" a.tests.C # m ( int ,String ) ", ("a.tests", "C", "m")),
        ("x.y.Z#<init>(Map<K,V>)", ("x.y", "Z", "<init>")),
    ],
)
def test_signature_parts_of_the_canonical_string_match_the_raw_parse(raw, parts):
    assert signature_parts(parse_signature(raw)) == parts


@given(
    pairs=st.lists(st.tuples(st.sampled_from(_FILTER_SIGNATURES), st.sampled_from(_FILTER_SIGNATURES)), max_size=60),
    keywords=st.lists(st.sampled_from(["test", "TESTS", "sample", "examples", "protest", ""]), max_size=4),
    drop_constructors=st.booleans(),
)
@example(  # source and target fire different rules, in both orders
    pairs=[("a.b.Foo#Foo()", "a.tests.C#m()"), ("a.tests.C#m()", "a.b.Foo#Foo()"),
           ("a.b.Foo#Foo()", "a.b.C#m()"), ("a.b.C#m()", "a.b.Foo#<init>(int)"),
           ("a.tests.Foo#Foo()", "a.tests.Foo#Foo()"), ("x.Y#z()", "x.Y#z()")],
    keywords=["tests"],
    drop_constructors=True,
)
def test_apply_filters_matches_the_per_record_oracle(pairs, keywords, drop_constructors):
    records = [
        corpus.make_record(parse_signature(s), parse_signature(t), commit=f"{i:07x}")
        for i, (s, t) in enumerate(pairs)
    ]
    config = FilterConfig(excluded_package_keywords=tuple(keywords), drop_constructors=drop_constructors)
    kept, report = apply_filters(records, config)
    expected_kept, expected_report = oracles.filter_records(records, keywords, drop_constructors)
    assert [r.commit for r in kept] == [r.commit for r in expected_kept]
    assert report == expected_report
