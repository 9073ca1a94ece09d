from __future__ import annotations

import json
import random
import re
from datetime import datetime, timezone

import pytest
from hypothesis import given
from hypothesis import strategies as st

import corpus
from refgraph.ingest import (
    DEFAULT_EXCLUDED_KEYWORDS,
    FilterConfig,
    RecordError,
    RefactoringType,
    SignatureError,
    apply_filters,
    format_timestamp,
    normalize_commit,
    parse_record_line,
    parse_records,
    parse_signature,
    parse_timestamp,
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
        assert len(RefactoringType) == 8
        for name in names:
            assert RefactoringType.from_string(name).value == name

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="renamed"):
            RefactoringType.from_string("renamed")


class TestParseSignature:
    def test_plain_method(self):
        ref = parse_signature("util.Foo#m()")
        assert ref.package == "util"
        assert ref.class_path == "Foo"
        assert ref.method == "m"
        assert ref.params == ()
        assert ref.canonical == "util.Foo#m()"

    def test_generic_params_not_split_on_inner_comma(self):
        ref = parse_signature("a.b.C#f(int, List<String>)")
        assert ref.params == ("int", "List<String>")

    def test_nested_generics_and_arrays(self):
        ref = parse_signature("a.C#f(Map<String, List<Integer>>, byte[])")
        assert ref.params == ("Map<String, List<Integer>>", "byte[]")
        assert parse_signature(ref.canonical) == ref

    def test_nested_class_via_dot(self):
        ref = parse_signature("util.Outer.Inner#m()")
        assert ref.package == "util"
        assert ref.class_path == "Outer.Inner"
        assert ref.class_simple_name == "Inner"

    def test_nested_class_via_dollar(self):
        ref = parse_signature("util.Outer$Inner#m()")
        assert ref.class_simple_name == "Inner"

    def test_no_package(self):
        ref = parse_signature("Foo#m(int)")
        assert ref.package == ""
        assert ref.canonical == "Foo#m(int)"

    def test_whitespace_stripped(self):
        ref = parse_signature("  util.Foo#m( int ,  Map<K, V> ) ")
        assert ref.params == ("int", "Map<K, V>")
        assert ref.canonical == "util.Foo#m(int, Map<K, V>)"

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
        ],
    )
    def test_parameter_spacing_is_canonical(self, raw, params):
        ref = parse_signature(raw)
        assert ref.params == params
        assert ref.canonical == f"{raw.partition('(')[0]}({', '.join(params)})"

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
        ],
    )
    def test_malformed_signatures(self, bad):
        with pytest.raises(SignatureError, match="signature"):
            parse_signature(bad)

    def test_error_names_the_raw_string(self):
        with pytest.raises(SignatureError, match="NoHash"):
            parse_signature("NoHash")


_lower_seg = st.from_regex(r"[a-z][a-z0-9]{0,5}", fullmatch=True)
_class_seg = st.from_regex(r"[A-Z][A-Za-z0-9]{0,5}", fullmatch=True)
_param = st.from_regex(
    r"[A-Za-z][A-Za-z0-9]{0,5}(<[A-Za-z][A-Za-z0-9]{0,3}(, [A-Za-z][A-Za-z0-9]{0,3})?>)?(\[\])?",
    fullmatch=True,
)


@st.composite
def canonical_signatures(draw) -> str:
    package = ".".join(draw(st.lists(_lower_seg, max_size=3)))
    class_path = ".".join(draw(st.lists(_class_seg, min_size=1, max_size=2)))
    method = draw(st.from_regex(r"[a-z][A-Za-z0-9_]{0,7}", fullmatch=True))
    params = draw(st.lists(_param, max_size=3))
    prefix = f"{package}.{class_path}" if package else class_path
    return f"{prefix}#{method}({', '.join(params)})"


@given(canonical_signatures())
def test_parse_is_identity_on_canonical_forms(signature):
    ref = parse_signature(signature)
    assert ref.canonical == signature
    assert parse_signature(ref.canonical) == ref


@given(canonical_signatures(), st.randoms(use_true_random=False))
def test_parse_ignores_spacing_around_brackets_and_commas(signature, rnd):
    head, _, params = signature.partition("(")
    noisy = re.sub(
        r"\s*([<>\[\],])\s*",
        lambda m: rnd.choice(["", " ", "\t", "  \n "]) + m.group(1) + rnd.choice(["", " ", "\t", "  \n "]),
        params,
    )
    assert parse_signature(f"{head}({noisy}").canonical == signature


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
        assert parse_timestamp("2019-01-01T00:00:00Z") == datetime(2019, 1, 1, tzinfo=timezone.utc)

    def test_offset_converted_to_utc(self):
        assert parse_timestamp("2019-01-01T02:00:00+02:00") == datetime(2019, 1, 1, tzinfo=timezone.utc)

    def test_naive_assumed_utc_and_seconds_precision(self):
        parsed = parse_timestamp("2019-01-01T00:00:00.654321")
        assert parsed == datetime(2019, 1, 1, tzinfo=timezone.utc)
        assert parsed.microsecond == 0

    def test_garbage_rejected(self):
        with pytest.raises(ValueError, match="ISO-8601"):
            parse_timestamp("yesterday")

    @pytest.mark.parametrize("text, expected", TIMESTAMPS_ACCEPTED)
    def test_grammar_accepts(self, text, expected):
        assert format_timestamp(parse_timestamp(text)) == expected

    @pytest.mark.parametrize("text", TIMESTAMPS_REJECTED)
    def test_grammar_rejects(self, text):
        with pytest.raises(ValueError, match="invalid ISO-8601 timestamp"):
            parse_timestamp(text)


class TestNormalizeCommit:
    def test_lowercased(self):
        assert normalize_commit("ABCDEF1") == "abcdef1"

    @pytest.mark.parametrize("bad", ["abc123", "g" * 7, "a" * 41, ""])
    def test_invalid(self, bad):
        with pytest.raises(ValueError, match="commit"):
            normalize_commit(bad)


class TestParseRecords:
    def test_single_valid_line(self):
        result = parse_records([VALID_LINE])
        assert len(result.records) == 1
        assert not result.issues
        record = result.records[0]
        assert record.source.canonical == "util.Foo#m()"
        assert record.target.canonical == "util.Bar#m()"
        assert record.rtype is RefactoringType.MOVE
        assert record.commit == "c1a2b3c"
        assert record.timestamp == datetime(2019, 1, 1, tzinfo=timezone.utc)
        assert record.author_email == "a@x.org"
        assert record.project == "demo"

    def test_empty_input(self):
        result = parse_records([])
        assert result.records == ()
        assert result.issues == ()

    def test_blank_lines_skipped(self):
        result = parse_records(["", "   ", VALID_LINE, "\n"])
        assert len(result.records) == 1
        assert not result.issues

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
