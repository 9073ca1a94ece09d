from __future__ import annotations

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats as scipy_stats

import corpus
from oracles import spearman_rho_oracle
from refgraph.graph import RefactoringGraph, build, partition
from refgraph.ingest import parse_signature
from refgraph.metrics import (
    CorrelationError,
    MetricsError,
    SubgraphMetrics,
    aggregate,
    correlate_corpus,
    measure,
    median,
    pct,
    quartiles,
    round_half_up,
    spearman,
)

STORY_METRICS = {
    # story: (vertices, edges, commits, age_days, distinct types, devs)
    "CHART_AXIS": (5, 4, 3, 15.0, 3, 1),
    "SELECTOR_DEDUPE": (6, 5, 2, 91.0, 2, 2),
    "BUILDER_RENAME_REVERT": (2, 2, 2, 6.0, 1, 1),
    "TIMEOUT_SETTER_CLEANUP": (8, 7, 3, 516.0, 3, 2),
}


class TestMeasure:
    @pytest.mark.parametrize("story", sorted(STORY_METRICS))
    def test_fixture_stories(self, story):
        vertices, edges, commits, age, types, devs = STORY_METRICS[story]
        metrics = measure(corpus.subgraph_of(getattr(corpus, f"{story}_RECORDS")))
        assert metrics.n_vertices == vertices
        assert metrics.n_edges == edges
        assert metrics.n_commits == commits
        assert metrics.age_days == age
        assert len(metrics.type_counts) == types
        assert metrics.n_developers == devs

    def test_composition_and_authorship_flags(self):
        chart = measure(corpus.subgraph_of(corpus.CHART_AXIS_RECORDS))
        assert len(chart.type_counts) > 1
        assert chart.n_developers == 1
        revert = measure(corpus.subgraph_of(corpus.BUILDER_RENAME_REVERT_RECORDS))
        assert len(revert.type_counts) == 1
        assert revert.n_developers == 1
        image = measure(corpus.subgraph_of(corpus.IMAGE_FETCH_EXTRACT_RECORDS))
        assert len(image.type_counts) == 1
        assert image.n_commits == 3
        assert image.n_developers > 1

    def test_type_counts_sum_to_edges(self):
        metrics = measure(corpus.subgraph_of(corpus.TIMEOUT_SETTER_CLEANUP_RECORDS))
        assert metrics.type_counts == {"extract": 3, "move": 1, "rename": 3}
        assert sum(metrics.type_counts.values()) == metrics.n_edges

    def test_zero_age_iff_single_timestamp(self):
        metrics = measure(corpus.subgraph_of(corpus.SINGLE_COMMIT_FANOUT_RECORDS))
        assert metrics.age_days == 0.0

    def test_developer_email_normalized(self):
        subgraph = corpus.subgraph_of(corpus.BUILDER_RENAME_REVERT_RECORDS)
        shouting = RefactoringGraph(
            e._replace(author_email=e.author_email.upper() + "  ") for e in subgraph.edges
        )
        assert measure(shouting).n_developers == 1

    def test_missing_email_names_the_edge(self):
        subgraph = corpus.subgraph_of(corpus.BUILDER_RENAME_REVERT_RECORDS)
        broken = RefactoringGraph((subgraph.edges[0], subgraph.edges[1]._replace(author_email=" ")))
        with pytest.raises(MetricsError, match="filterBefore"):
            measure(broken)

    def test_edgeless_graph_is_an_error(self):
        with pytest.raises(MetricsError, match="no edges"):
            measure(RefactoringGraph())

    def test_edge_order_invariance(self):
        subgraph = corpus.subgraph_of(corpus.DEMO_CORPUS[:4])
        rng = random.Random(1)
        for _ in range(5):
            edges = list(subgraph.edges)
            rng.shuffle(edges)
            permuted = RefactoringGraph(edges)
            assert measure(permuted) == measure(subgraph)

    def test_timestamp_translation_invariance(self):
        records = corpus.records_of(corpus.SELECTOR_DEDUPE_RECORDS)
        shifted = [r._replace(timestamp=corpus.shift_timestamp(r.timestamp, days=400, seconds=17)) for r in records]
        original = measure(partition(build(records))[0])
        translated = measure(partition(build(shifted))[0])
        assert translated == original


class TestRounding:
    def test_half_up(self):
        assert round_half_up(87.15, 1) == 87.2
        assert round_half_up(0.25, 1) == 0.3
        assert round_half_up(12.34, 1) == 12.3

    def test_pct(self):
        assert pct(1, 4) == 25.0
        assert pct(3, 4) == 75.0
        assert pct(0, 0) == 0.0

    def test_median_conventions(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([4.0, 1.0, 3.0, 2.0]) == 2.5

    def test_quartiles_leave_an_odd_median_out_of_both_halves(self):
        assert quartiles([1.0, 2.0, 3.0, 4.0]) == (1.5, 3.5)
        assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 4.5)
        assert quartiles([7.0]) == (7.0, 7.0)


class TestSpearman:
    def test_strictly_monotone_is_exact(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]).rho == 1.0
        assert spearman([1, 2, 3, 4], [40, 30, 20, 10]).rho == -1.0

    def test_tied_series_matches_oracle(self):
        xs, ys = [1, 2, 2, 3], [1, 3, 2, 4]
        result = spearman(xs, ys)
        # sqrt(0.9), frozen from the rank-then-Pearson oracle.
        assert result.rho == pytest.approx(0.9486832980505138, abs=1e-12)
        assert result.rho == pytest.approx(spearman_rho_oracle(xs, ys), abs=1e-12)
        assert result.rho == pytest.approx(scipy_stats.spearmanr(xs, ys).statistic, abs=1e-12)

    def test_p_value_is_the_normal_approximation(self):
        result = spearman([1, 2, 2, 3], [1, 3, 2, 4])
        expected = math.erfc(abs(result.rho) * math.sqrt(result.n - 1) / math.sqrt(2))
        assert result.p_approx == expected
        assert 0.0 <= result.p_approx <= 1.0

    def test_too_short(self):
        with pytest.raises(CorrelationError, match="at least 3"):
            spearman([1, 2], [3, 4])

    def test_length_mismatch(self):
        with pytest.raises(CorrelationError, match="equal length"):
            spearman([1, 2, 3], [1, 2])

    def test_constant_series(self):
        with pytest.raises(CorrelationError, match="constant series"):
            spearman([5, 5, 5, 5], [1, 2, 3, 4])
        with pytest.raises(CorrelationError, match="constant series"):
            spearman([1, 2, 3, 4], [7, 7, 7, 7])

    def test_random_tie_bearing_series_match_oracle(self):
        rng = random.Random(6)
        for _ in range(200):
            n = rng.randint(3, 50)
            xs = [rng.randint(0, 8) for _ in range(n)]
            ys = [rng.randint(0, 8) for _ in range(n)]
            if min(xs) == max(xs) or min(ys) == max(ys):
                continue
            assert spearman(xs, ys).rho == pytest.approx(spearman_rho_oracle(xs, ys), abs=1e-12)


@given(
    st.lists(
        st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
        min_size=3,
        max_size=30,
    )
)
def test_spearman_symmetry_and_rank_invariance(pairs):
    xs = [float(x) for x, _ in pairs]
    ys = [float(y) for _, y in pairs]
    if min(xs) == max(xs) or min(ys) == max(ys):
        return
    forward = spearman(xs, ys)
    assert forward.rho == spearman(ys, xs).rho
    # Any strictly increasing transformation preserves ranks exactly.
    assert spearman([3.0 * x + 7.0 for x in xs], ys).rho == forward.rho
    assert spearman(xs, [math.exp(y / 10.0) for y in ys]).rho == forward.rho
    assert -1.0 <= forward.rho <= 1.0


def _story_metrics_by_project():
    groups = {}
    for dicts in (
        corpus.CHART_AXIS_RECORDS,
        corpus.SELECTOR_DEDUPE_RECORDS,
        corpus.BUILDER_RENAME_REVERT_RECORDS,
        corpus.TIMEOUT_SETTER_CLEANUP_RECORDS,
    ):
        groups.setdefault(dicts[0]["project"], []).append(measure(corpus.subgraph_of(dicts)))
    return groups


def _grouped(metrics, projects):
    """Each project's metrics, projects in first-seen order."""
    groups = {}
    for project, metric in zip(projects, metrics):
        groups.setdefault(project, []).append(metric)
    return groups


class TestAggregate:
    def test_fixture_composition_and_authorship(self):
        groups = _story_metrics_by_project()
        stats = aggregate(groups, [])
        assert stats["composition"]["all"]["homogeneous"] == 1
        assert stats["composition"]["all"]["heterogeneous"] == 3
        assert stats["composition"]["all"]["homogeneous_pct"] == 25.0
        assert stats["composition"]["all"]["heterogeneous_pct"] == 75.0
        assert stats["authorship"]["all"]["single"] == 2
        assert stats["authorship"]["all"]["multiple"] == 2

    def test_fixture_type_frequency(self):
        groups = _story_metrics_by_project()
        stats = aggregate(groups, [])
        by_type = {row["type"]: row["count"] for row in stats["type_frequency"]}
        assert by_type == {"extract": 7, "rename": 6, "move": 3, "extract_and_move": 2}
        assert stats["n_edges"] == 18
        counts = [row["count"] for row in stats["type_frequency"]]
        assert counts == sorted(counts, reverse=True)

    def test_fixture_histograms(self):
        groups = _story_metrics_by_project()
        stats = aggregate(groups, [])
        assert dict(stats["histograms"]["vertices"]) == {2: 1, 5: 1, 6: 1, 8: 1}
        assert dict(stats["histograms"]["edges"]) == {2: 1, 4: 1, 5: 1, 7: 1}
        assert dict(stats["histograms"]["commits"]) == {2: 2, 3: 2}
        assert dict(stats["histograms"]["distinct_types_heterogeneous"]) == {2: 1, 3: 2}

    def test_project_order_is_first_seen(self):
        groups = _story_metrics_by_project()
        stats = aggregate(groups, [])
        assert stats["projects"] == ["mpandroidchart", "elasticsearch", "spring-framework", "okhttp"]
        assert [row["project"] for row in stats["composition"]["per_project"]] == stats["projects"]

    def test_single_subgraph_histograms(self):
        metrics = [measure(corpus.subgraph_of(corpus.CHART_AXIS_RECORDS))]
        stats = aggregate({"mpandroidchart": metrics}, [])
        for series in stats["histograms"].values():
            assert sum(dict(series).values()) in (0, 1)
        assert sum(dict(stats["histograms"]["vertices"]).values()) == 1

    def test_generated_corpus_totals(self):
        rng = random.Random(99)
        metrics = [_random_metrics(rng, i) for i in range(1000)]
        projects = [f"proj{rng.randrange(10)}" for _ in metrics]
        stats = aggregate(_grouped(metrics, projects), [])
        assert stats["n_subgraphs"] == 1000
        for name in ("vertices", "edges", "commits"):
            assert sum(dict(stats["histograms"][name]).values()) == 1000
        heterogeneous = sum(1 for m in metrics if len(m.type_counts) > 1)
        assert sum(dict(stats["histograms"]["distinct_types_heterogeneous"]).values()) == heterogeneous
        assert stats["composition"]["all"]["homogeneous"] + stats["composition"]["all"]["heterogeneous"] == 1000
        assert stats["authorship"]["all"]["single"] + stats["authorship"]["all"]["multiple"] == 1000

    def test_percentages_sum_to_100(self):
        rng = random.Random(123)
        metrics = [_random_metrics(rng, i) for i in range(137)]
        projects = [f"proj{rng.randrange(4)}" for _ in metrics]
        stats = aggregate(_grouped(metrics, projects), [])
        for row in stats["composition"]["per_project"] + [stats["composition"]["all"]]:
            assert abs(row["homogeneous_pct"] + row["heterogeneous_pct"] - 100.0) <= 0.1
        for row in stats["authorship"]["per_project"] + [stats["authorship"]["all"]]:
            assert abs(row["single_pct"] + row["multiple_pct"] - 100.0) <= 0.1
        assert abs(sum(r["pct"] for r in stats["type_frequency"]) - 100.0) <= 0.5

    def test_project_without_metrics_is_left_out(self):
        groups = {"empty": [], **_story_metrics_by_project()}
        stats = aggregate(groups, [("empty", 3, 3)])
        assert stats["projects"] == ["mpandroidchart", "elasticsearch", "spring-framework", "okhttp"]
        for table in ("composition", "authorship", "age_summary"):
            assert [row["project"] for row in stats[table]["per_project"]] == stats["projects"]
        assert [row["project"] for row in stats["subgraph_summary"]["per_project"]] == ["empty"]
        assert stats["n_subgraphs"] == 4

    def test_empty_corpus(self):
        stats = aggregate({}, [])
        assert stats["n_subgraphs"] == 0
        assert stats["projects"] == []
        assert stats["composition"]["all"]["homogeneous"] == 0
        assert stats["age_summary"]["all"]["median_days"] is None


def _random_metrics(rng: random.Random, index: int) -> SubgraphMetrics:
    n_edges = rng.randint(1, 12)
    types = rng.sample(
        ["rename", "move", "extract", "inline", "pull_up", "push_down"],
        k=rng.randint(1, min(4, n_edges)),
    )
    counts = {t: 1 for t in types}
    for _ in range(n_edges - len(types)):
        counts[rng.choice(types)] += 1
    n_devs = rng.randint(1, 5)
    return SubgraphMetrics(
        subgraph_id=f"sg{index}",
        n_vertices=rng.randint(2, 15),
        n_edges=n_edges,
        n_commits=rng.randint(1, 9),
        age_days=rng.random() * 900.0,
        type_counts=counts,
        n_developers=n_devs,
    )


class TestCorrelateCorpus:
    def test_identical_developer_counts_is_degenerate(self):
        rng = random.Random(55)
        metrics = [
            _random_metrics(rng, i)._replace(n_developers=2)
            for i in range(10)
        ]
        dev_commit, _ = correlate_corpus({"p": metrics})
        assert dev_commit["status"] != "ok"
        assert "constant series" in dev_commit["status"]
        assert dev_commit["rho"] is None

    def test_monotone_trend_detected(self):
        rng = random.Random(8)
        metrics = []
        for i in range(60):
            commits = i // 4 + 1
            devs = commits + rng.randint(0, 2)  # noisy increasing function
            metrics.append(_random_metrics(rng, i)._replace(n_commits=commits, n_developers=devs))
        dev_commit, _ = correlate_corpus({"p": metrics})
        assert dev_commit["status"] == "ok"
        assert dev_commit["rho"] > 0
        expected = spearman_rho_oracle(
            [float(m.n_commits) for m in metrics], [float(m.n_developers) for m in metrics]
        )
        assert dev_commit["rho"] == pytest.approx(expected, abs=1e-9)

    def test_ten_project_ages_match_oracle(self):
        rng = random.Random(21)
        metrics = []
        projects = []
        ages = {}
        for p in range(10):
            name = f"proj{p}"
            ages[name] = rng.uniform(1.0, 12.0)
            for i in range(rng.randint(2, 6)):
                metrics.append(_random_metrics(rng, p * 100 + i))
                projects.append(name)
        _, project_age = correlate_corpus(_grouped(metrics, projects), ages)
        assert project_age["status"] == "ok"
        assert project_age["n"] == 10
        medians = {}
        for name, metric in zip(projects, metrics):
            medians.setdefault(name, []).append(metric.age_days)
        xs = [ages[f"proj{p}"] for p in range(10)]
        ys = [median(medians[f"proj{p}"]) for p in range(10)]
        assert project_age["rho"] == pytest.approx(spearman_rho_oracle(xs, ys), abs=1e-9)

    def test_missing_age_map(self):
        groups = _story_metrics_by_project()
        _, project_age = correlate_corpus(groups)
        assert project_age["status"] == "no project ages provided"
        assert project_age["rho"] is None

    def test_fewer_than_three_projects(self):
        groups = _story_metrics_by_project()
        _, project_age = correlate_corpus(groups, {"mpandroidchart": 6.0, "okhttp": 7.0})
        assert project_age["status"] == "fewer than 3 projects"

    def test_demo_corpus_studies(self):
        groups = _story_metrics_by_project()
        dev_commit, project_age = correlate_corpus(groups, corpus.DEMO_PROJECT_AGES)
        # commits (3,2,2,3) vs developers (1,2,1,2) have orthogonal ranks.
        assert dev_commit["status"] == "ok"
        assert dev_commit["rho"] == pytest.approx(0.0, abs=1e-12)
        assert dev_commit["p_approx"] == pytest.approx(1.0, abs=1e-12)
        assert project_age["status"] == "ok"
        assert project_age["rho"] == pytest.approx(-0.4, abs=1e-12)
        assert project_age["rho"] == pytest.approx(
            spearman_rho_oracle([6.0, 9.0, 11.0, 7.0], [15.0, 91.0, 6.0, 516.0]), abs=1e-12
        )
