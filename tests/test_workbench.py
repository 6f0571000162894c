"""Tests for instance generators, reductions, JSON serialization, and the bench runner."""

import csv
import importlib
import json
import math
import pkgutil
from io import StringIO
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import divopt
from divopt.bench import CSV_HEADER, BenchRecord, records_to_csv, run_bench
from divopt.core import (
    DksInstance,
    GuardExceeded,
    InstanceError,
    MetricInstance,
    RngState,
    SetSystemInstance,
    SubmodularSpec,
    disp,
    validate_metric,
)
from divopt.dks import brute_force_subdks, den
from divopt.generators import (
    CoverageInstance,
    coverage_to_dcg,
    dks_to_dispersion,
    gen_planted_dks,
    gen_random_dks,
    gen_random_euclidean,
    gen_random_metric,
    gen_regular_coverage,
    gen_setsystem,
    gen_submodular,
    max_coverage_value,
)
from divopt.io import (
    dumps_instance,
    from_payload,
    load_instance,
    loads_instance,
    save_instance,
    to_payload,
)
from divopt.ranking import DCG_STANDARD, Ranking, dcg_value


class TestMetricGenerators:
    def test_euclidean_is_valid_and_deterministic(self):
        a = gen_random_euclidean(9, 3, seed=5)
        b = gen_random_euclidean(9, 3, seed=5)
        assert np.array_equal(a.dist, b.dist)
        assert np.array_equal(a.points, b.points)
        assert validate_metric(a).ok
        assert a.meta["generator"] == "random-euclidean"
        c = gen_random_euclidean(9, 3, seed=6)
        assert not np.array_equal(a.dist, c.dist)

    def test_range_metric_bounds(self):
        inst = gen_random_metric(10, seed=7)
        off = inst.dist[~np.eye(10, dtype=bool)]
        assert (off >= 1.0).all() and (off <= 2.0).all()
        assert validate_metric(inst).ok
        again = gen_random_metric(10, seed=7)
        assert np.array_equal(inst.dist, again.dist)


class TestDksGenerators:
    def test_planted_clique(self):
        inst = gen_planted_dks(10, 4, seed=3)
        planted = inst.meta["planted"]
        assert planted == sorted(planted) and len(planted) == 4
        for i, j in combinations(planted, 2):
            assert inst.weights[i, j] == 1.0
        others = [
            (i, j)
            for i, j in combinations(range(10), 2)
            if not {i, j} <= set(planted)
        ]
        assert all(inst.weights[i, j] <= 0.5 for i, j in others)
        assert den(planted, inst) == pytest.approx(1.0)

    def test_random_dks_bounds_and_forced(self):
        inst = gen_random_dks(8, 4, seed=9, forced_count=2)
        assert len(inst.forced) == 2
        assert inst.forced <= set(range(8))
        off = inst.weights[~np.eye(8, dtype=bool)]
        assert (off >= 0.0).all() and (off < 1.0).all()
        with pytest.raises(InstanceError):
            gen_random_dks(8, 4, seed=9, forced_count=5)


def per_pair(n, rng, draw):
    """Reference fill: one scalar draw per pair (i, j), i < j, row by row."""
    W = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            W[i, j] = W[j, i] = draw(rng)
    return W


class TestPairDraws:
    """The generators' vectorized upper-triangle fill draws the same doubles,
    in the same order, as one scalar draw per pair, and leaves the stream
    where that loop left it."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 301, 2**40])
    def test_generators_match_per_pair_loop(self, seed):
        for n in range(1, 13):
            want = per_pair(n, RngState(seed), lambda r: 1.0 + r.gen.random())
            assert gen_random_metric(n, seed).dist.tobytes() == want.tobytes()

            k = max(1, n // 2)
            rng = RngState(seed)
            want = per_pair(n, rng, lambda r: r.gen.random())
            forced = frozenset(int(v) for v in rng.gen.choice(n, size=k // 2, replace=False))
            inst = gen_random_dks(n, k, seed, forced_count=k // 2)
            assert inst.weights.tobytes() == want.tobytes()
            assert inst.forced == forced

            if n >= 2:
                k = min(n, 3)
                rng = RngState(seed)
                planted = sorted(int(v) for v in rng.gen.choice(n, size=k, replace=False))
                want = per_pair(n, rng, lambda r: 0.5 * r.gen.random())
                for i, j in combinations(planted, 2):
                    want[i, j] = want[j, i] = 1.0
                inst = gen_planted_dks(n, k, seed)
                assert inst.weights.tobytes() == want.tobytes()
                assert inst.meta["planted"] == planted


class TestDksToDispersion:
    def test_distances_and_meta(self):
        dks = gen_planted_dks(8, 3, seed=1)
        metric, p = dks_to_dispersion(dks)
        assert p == 3
        assert metric.meta["generator"] == "dks-to-dispersion"
        assert metric.meta["source_generator"] == "planted-dks"
        assert validate_metric(metric).ok
        off = ~np.eye(8, dtype=bool)
        assert np.allclose(metric.dist[off], 1.0 + dks.weights[off])
        assert (metric.dist.diagonal() == 0.0).all()

    def test_affine_identity_exhaustive(self):
        dks = gen_random_dks(8, 3, seed=2)
        metric, _ = dks_to_dispersion(dks)
        for size in range(2, 9):
            for T in combinations(range(8), size):
                pairs = size * (size - 1) / 2.0
                assert disp(T, metric) == pytest.approx(
                    pairs * (1.0 + den(T, dks)), rel=1e-12
                )

    def test_planted_team_hits_k_k_minus_one(self):
        dks = gen_planted_dks(9, 4, seed=4)
        metric, p = dks_to_dispersion(dks)
        assert disp(dks.meta["planted"], metric) == pytest.approx(float(p * (p - 1)))

    def test_forced_set_rejected(self):
        inst = gen_random_dks(6, 3, seed=5, forced_count=1)
        with pytest.raises(InstanceError):
            dks_to_dispersion(inst)


class TestCoverage:
    def test_planted_partition(self):
        cov = gen_regular_coverage(12, 3, seed=6, extra_sets=2)
        assert cov.universe == 12 and cov.k == 3 and len(cov.sets) == 5
        first = cov.sets[:3]
        assert all(len(s) == 4 for s in cov.sets)
        union = set().union(*first)
        assert union == set(range(12))
        assert sum(len(s) for s in first) == 12
        assert max_coverage_value(cov) == pytest.approx(12.0)

    def test_requires_divisibility(self):
        with pytest.raises(InstanceError):
            gen_regular_coverage(10, 3, seed=0)

    def test_unplanted_keeps_sizes(self):
        cov = gen_regular_coverage(12, 4, seed=8, planted=False)
        assert all(len(s) == 3 for s in cov.sets)
        assert not cov.meta["planted"]

    def test_validation(self):
        with pytest.raises(InstanceError):
            CoverageInstance(universe=3, sets=(frozenset({0, 5}),), k=1)
        with pytest.raises(InstanceError):
            CoverageInstance(universe=3, sets=(frozenset({0}),), k=2)
        with pytest.raises(InstanceError):
            CoverageInstance(
                universe=4,
                sets=(frozenset({0}), frozenset({1, 2})),
                k=1,
                regular=True,
            )

    def test_coverage_to_dcg_shape(self):
        cov = gen_regular_coverage(8, 2, seed=9, extra_sets=1)
        inst = coverage_to_dcg(cov)
        assert inst.n == 3
        assert inst.m == 8
        assert all(k == 1 for _, k in inst.sets)
        for item, (members, _) in enumerate(inst.sets):
            assert members == frozenset(
                j for j, s in enumerate(cov.sets) if item in s
            )

    def test_planted_ordering_value(self):
        cov = gen_regular_coverage(12, 3, seed=10, extra_sets=2)
        inst = coverage_to_dcg(cov)
        want = sum(4.0 / math.log2(i + 1) for i in range(1, 4))
        assert inst.meta["planted_dcg"] == pytest.approx(want)
        order = (0, 1, 2, 3, 4)
        r = Ranking.from_order(order, inst)
        assert dcg_value(r, inst, DCG_STANDARD) == pytest.approx(want)

    def test_uncovered_item_rejected(self):
        cov = CoverageInstance(universe=3, sets=(frozenset({0, 1}),), k=1)
        with pytest.raises(InstanceError):
            coverage_to_dcg(cov)

    def test_max_coverage_guard(self):
        cov = gen_regular_coverage(24, 12, seed=11, extra_sets=13)
        with pytest.raises(GuardExceeded):
            max_coverage_value(cov, guard=10)


class TestOtherGenerators:
    def test_setsystem_bounds(self):
        inst = gen_setsystem(9, 6, 3, seed=12)
        assert inst.n == 9 and inst.m == 6
        for members, k in inst.sets:
            assert 1 <= len(members) <= 4
            assert 1 <= k <= min(3, len(members))
        assert gen_setsystem(9, 6, 3, seed=12).sets == inst.sets

    def test_submodular_kinds(self):
        f = gen_submodular(5, "modular", seed=13)
        assert f.kind == "modular" and len(f.weights) == 5
        g = gen_submodular(5, "coverage", seed=13, universe=7)
        assert g.kind == "coverage" and g.universe == 7 and len(g.covers) == 5
        assert g.value(frozenset()) == 0.0
        assert g.value(frozenset(range(5))) >= g.value(frozenset({0}))
        with pytest.raises(InstanceError):
            gen_submodular(5, "antitone", seed=13)


def six_kinds():
    dks = gen_random_dks(6, 3, seed=20, forced_count=1)
    return [
        gen_random_euclidean(6, 2, seed=20),
        gen_setsystem(6, 4, 2, seed=20),
        dks,
        gen_submodular(6, "modular", seed=20),
        gen_submodular(6, "coverage", seed=20, universe=6),
        gen_regular_coverage(8, 2, seed=20, extra_sets=1),
    ]


GENERATOR_KINDS = {
    "euclidean": lambda n, seed: gen_random_euclidean(n, 1 + seed % 3, seed),
    "metric": lambda n, seed: gen_random_metric(n, seed),
    "planted-dks": lambda n, seed: gen_planted_dks(n + 1, 2, seed),
    "random-dks": lambda n, seed: gen_random_dks(n, n, seed, forced_count=n // 2),
    "coverage": lambda n, seed: gen_regular_coverage(
        2 * n, 2, seed, planted=seed % 2 == 0, extra_sets=n % 3
    ),
    "setsystem": lambda n, seed: gen_setsystem(n, n, 2, seed),
    "submodular-modular": lambda n, seed: gen_submodular(n, "modular", seed),
    "submodular-coverage": lambda n, seed: gen_submodular(n, "coverage", seed),
}


class TestSerialization:
    @pytest.mark.parametrize("kind", sorted(GENERATOR_KINDS))
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 9), seed=st.integers(0, 2**64 - 1))
    def test_dumps_is_byte_stable_for_every_generator(self, kind, n, seed):
        text = dumps_instance(GENERATOR_KINDS[kind](n, seed))
        assert dumps_instance(loads_instance(text)) == text
        assert dumps_instance(GENERATOR_KINDS[kind](n, seed)) == text

    def test_round_trip_is_byte_exact(self):
        for obj in six_kinds():
            text = dumps_instance(obj)
            back = loads_instance(text)
            assert dumps_instance(back) == text
            assert type(back) is type(obj)

    def test_payload_is_sorted_json(self):
        text = dumps_instance(gen_random_euclidean(4, 2, seed=21))
        payload = json.loads(text)
        assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert payload["kind"] == "metric"

    def test_dks_weights_as_sparse_triples(self):
        dks = gen_random_dks(5, 3, seed=22)
        payload = to_payload(dks)
        assert payload["kind"] == "dks"
        for i, j, w in payload["weights"]:
            assert i < j and w == dks.weights[i, j]
        back = from_payload(payload)
        assert np.array_equal(back.weights, dks.weights)
        assert back.forced == dks.forced

    def test_semantic_equality_after_round_trip(self):
        metric = gen_random_euclidean(5, 3, seed=23)
        back = loads_instance(dumps_instance(metric))
        assert np.array_equal(back.dist, metric.dist)
        assert np.array_equal(back.points, metric.points)
        assert back.meta == metric.meta
        system = gen_setsystem(5, 3, 2, seed=23)
        back2 = loads_instance(dumps_instance(system))
        assert back2.sets == system.sets

    def test_error_paths(self):
        with pytest.raises(InstanceError, match="kind"):
            from_payload({})
        with pytest.raises(InstanceError, match="kind"):
            from_payload({"kind": "wavelet"})
        with pytest.raises(InstanceError):
            from_payload({"kind": "metric", "n": 2})
        with pytest.raises(InstanceError):
            loads_instance("{not json")
        with pytest.raises(InstanceError):
            from_payload(
                {"kind": "dks", "n": 3, "k": 2, "forced": [], "weights": [[0, 1]]}
            )

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "inst.json"
        obj = gen_random_dks(5, 2, seed=24)
        save_instance(obj, path)
        back = load_instance(path)
        assert np.array_equal(back.weights, obj.weights)
        with pytest.raises(InstanceError, match="cannot read"):
            load_instance(tmp_path / "missing.json")


class TestBench:
    def write_fixtures(self, tmp_path):
        metric = gen_random_euclidean(7, 2, seed=30)
        save_instance(metric, tmp_path / "m.json")
        dks = gen_random_dks(7, 3, seed=30)
        save_instance(dks, tmp_path / "d.json")
        bonus = gen_submodular(7, "coverage", seed=30, universe=5)
        save_instance(bonus, tmp_path / "f.json")

    def test_runs_ratios_and_csv(self, tmp_path):
        self.write_fixtures(tmp_path)
        spec = {
            "instances": [{"id": "m", "path": "m.json", "p": 3}],
            "algorithms": [
                {"name": "qptas-dispersion", "epsilon": 0.5},
                {"name": "greedy-dispersion"},
                {"name": "brute-dispersion"},
            ],
            "seeds": [1, 2],
            "oracle": True,
        }
        report = run_bench(spec, tmp_path)
        # Randomized runs twice, deterministic entries once each.
        assert len(report.records) == 4
        names = [(r.algorithm, r.seed) for r in report.records]
        assert names == sorted(names)
        by_algo = {}
        for r in report.records:
            by_algo.setdefault(r.algorithm, []).append(r)
        assert len(by_algo["qptas-dispersion"]) == 2
        assert len(by_algo["greedy-dispersion"]) == 1
        brute = by_algo["brute-dispersion"][0]
        assert brute.oracle is None and brute.ratio is None
        for r in by_algo["qptas-dispersion"] + by_algo["greedy-dispersion"]:
            assert r.oracle == pytest.approx(brute.value)
            assert r.ratio == pytest.approx(r.value / brute.value)
            assert r.ratio <= 1.0 + 1e-9
        csv = records_to_csv(report.records)
        lines = csv.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert len(lines) == 5
        greedy_cells = lines[2].split(",")
        assert greedy_cells[0] == "m" and greedy_cells[3] == ""
        assert greedy_cells[7].count(".") == 1
        assert len(greedy_cells[7].split(".")[1]) == 3

    def test_csv_quotes_only_fields_that_need_it(self):
        ids = ["plain", "a,b", 'say "hi"', "cr\rid", "lf\nid"]
        records = [BenchRecord(i, "greedy-dispersion", 1, None, 2.5, 3.0, 2.5 / 3.0, 1.0)
                   for i in ids]
        text = records_to_csv(records)
        rows = list(csv.reader(StringIO(text)))
        assert rows[0] == CSV_HEADER.split(",")
        assert [len(r) for r in rows[1:]] == [8] * len(ids)
        assert [r[0] for r in rows[1:]] == ids
        # Fields with nothing to quote keep the plain comma-joined bytes.
        assert text.startswith(
            CSV_HEADER + "\nplain,greedy-dispersion,1,,2.5,3.0,0.8333333333333334,1.000\n"
        )

    def test_dks_lane_with_bonus(self, tmp_path):
        self.write_fixtures(tmp_path)
        spec = {
            "instances": [
                {"id": "d", "path": "d.json", "bonus": "f.json"}
            ],
            "algorithms": [
                {
                    "name": "submodular-dks",
                    "epsilon": 1.0,
                    "params": {"s": 1, "mode": "exact", "enum_cap": 1000000},
                },
                {"name": "brute-dks"},
            ],
            "seeds": [0],
            "oracle": True,
        }
        report = run_bench(spec, tmp_path)
        solver = next(r for r in report.records if r.algorithm == "submodular-dks")
        brute = next(r for r in report.records if r.algorithm == "brute-dks")
        dks = load_instance(tmp_path / "d.json")
        bonus = load_instance(tmp_path / "f.json")
        _, opt = brute_force_subdks(dks, bonus)
        assert brute.value == pytest.approx(opt)
        assert solver.ratio is not None and solver.ratio <= 1.0 + 1e-9

    def test_aggregates(self, tmp_path):
        self.write_fixtures(tmp_path)
        spec = {
            "instances": [{"id": "m", "path": "m.json", "p": 3}],
            "algorithms": [{"name": "qptas-dispersion", "epsilon": 0.5}],
            "seeds": [1, 2, 3],
            "oracle": True,
        }
        report = run_bench(spec, tmp_path)
        agg = report.aggregates()
        assert len(agg) == 1
        row = agg[0]
        assert row["runs"] == 3
        assert row["min_value"] <= row["mean_value"] <= row["max_value"]
        assert row["mean_ratio"] is not None

    def test_spec_validation(self, tmp_path):
        self.write_fixtures(tmp_path)
        good_inst = [{"id": "m", "path": "m.json", "p": 3}]
        with pytest.raises(InstanceError):
            run_bench({"instances": [], "algorithms": [], "seeds": [1]}, tmp_path)
        with pytest.raises(InstanceError):
            run_bench(
                {"instances": good_inst, "algorithms": [{"name": "annealer"}]},
                tmp_path,
            )
        with pytest.raises(InstanceError):
            run_bench(
                {"instances": good_inst, "algorithms": [{"name": "qptas-dispersion"}]},
                tmp_path,
            )
        with pytest.raises(InstanceError, match='"p"'):
            run_bench(
                {
                    "instances": [{"id": "m", "path": "m.json"}],
                    "algorithms": [{"name": "greedy-dispersion"}],
                },
                tmp_path,
            )
        with pytest.raises(InstanceError, match="bonus"):
            run_bench(
                {
                    "instances": [{"id": "m", "path": "m.json", "p": 3}],
                    "algorithms": [{"name": "diversify", "epsilon": 0.5}],
                },
                tmp_path,
            )

    @pytest.mark.parametrize(
        "instance, algorithm, seeds, key",
        [
            ({"p": "4"}, {}, [1], '"p"'),
            ({}, {}, ["x"], '"seeds"'),
            ({}, {"params": {"no_such_option": 1}}, [1], "no_such_option"),
            ({}, {"params": [1, 2]}, [1], '"params"'),
            ({"path": 5}, {}, [1], '"path"'),
            ({"bonus": 5}, {}, [1], '"bonus"'),
            ({}, {"params": {"enum_cap": "x"}}, [1], "enum_cap"),
            ({}, {"name": "ptas-dcg", "params": {"prefix_cap": 0}}, [1], "prefix_cap"),
            ({}, {"name": "ptas-dcg", "params": {"max_cut_rounds": -1}}, [1], "max_cut_rounds"),
        ],
        ids=["p-string", "seed-string", "unknown-param", "params-list", "path-int",
             "bonus-int", "param-mistyped", "prefix-cap-zero", "cut-rounds-negative"],
    )
    def test_malformed_spec_names_the_key(self, tmp_path, instance, algorithm, seeds, key):
        self.write_fixtures(tmp_path)
        spec = {
            "instances": [{"id": "m", "path": "m.json", "p": 3, **instance}],
            "algorithms": [{"name": "qptas-dispersion", "epsilon": 0.5, **algorithm}],
            "seeds": seeds,
        }
        with pytest.raises(InstanceError, match=key):
            run_bench(spec, tmp_path)


class TestPackageSurface:
    """``divopt.__all__`` is assembled from the modules' own ``__all__``."""

    ORDER = ("core", "lp", "ranking", "dks", "dispersion", "diversification",
             "generators", "io", "bench")

    def modules(self):
        return [importlib.import_module(f"divopt.{name}") for name in self.ORDER]

    def test_every_library_module_is_re_exported(self):
        found = {m.name for m in pkgutil.iter_modules(divopt.__path__)}
        assert found == {*self.ORDER, "cli"}

    def test_all_is_the_module_lists_in_order(self):
        names = divopt.__all__
        assert len(names) == len(set(names))
        assert names == [*chain.from_iterable(m.__all__ for m in self.modules()), "__version__"]

    def test_names_are_the_modules_objects(self):
        for module in self.modules():
            for name in module.__all__:
                assert getattr(divopt, name) is getattr(module, name), name

    def test_star_import_binds_every_name(self):
        ns: dict = {}
        exec("from divopt import *", ns)
        for name in divopt.__all__:
            assert ns[name] is getattr(divopt, name), name
