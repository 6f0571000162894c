"""Core types: RNG determinism, metric validation, objective helpers."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divopt import core
from divopt import (
    DksInstance,
    InstanceError,
    MetricInstance,
    RngState,
    SetSystemInstance,
    SubmodularSpec,
    derive_seed,
    disp,
    disp_cross,
    dive,
    validate_metric,
)
from divopt.core import as_value_oracle
from divopt.generators import CoverageInstance, max_coverage_value


def test_derive_seed_deterministic_and_key_sensitive():
    a = derive_seed(7, "pair", 3)
    assert a == derive_seed(7, "pair", 3)
    assert a != derive_seed(7, "pair", 4)
    assert a != derive_seed(8, "pair", 3)
    assert derive_seed(7, "x") != derive_seed(7, "y")


def test_rng_child_streams_are_reproducible():
    r1 = RngState(42).child("trial", 5)
    r2 = RngState(42).child("trial", 5)
    assert r1.seed == r2.seed
    assert np.array_equal(r1.gen.random(8), r2.gen.random(8))
    other = RngState(42).child("trial", 6)
    assert other.seed != r1.seed


def test_rng_child_independent_of_draw_order():
    parent = RngState(9)
    parent.gen.random(100)  # consuming the parent stream must not move children
    assert parent.child(1).seed == RngState(9).child(1).seed


def test_rng_rejects_bad_key_type():
    with pytest.raises(TypeError):
        derive_seed(1, 2.5)


def _metric(rows):
    D = np.array(rows, dtype=float)
    return MetricInstance(len(rows), D)


def test_validate_metric_accepts_valid_and_pseudometric():
    ok = _metric([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    assert validate_metric(ok).ok
    # zero off-diagonal distance is allowed
    pseudo = _metric([[0, 0, 1], [0, 0, 1], [1, 1, 0]])
    assert validate_metric(pseudo).ok


def test_validate_metric_reports_each_failure_kind():
    bad_diag = _metric([[0.5, 1], [1, 0]])
    rep = validate_metric(bad_diag)
    assert (rep.ok, rep.kind, rep.witness) == (False, "diagonal", (0,))

    asym = MetricInstance(2, np.array([[0.0, 1.0], [2.0, 0.0]]))
    rep = validate_metric(asym)
    assert (rep.kind, rep.witness) == ("symmetry", (0, 1))

    neg = _metric([[0, -1], [-1, 0]])
    assert validate_metric(neg).kind == "nonneg"

    tri = _metric([[0, 1, 9], [1, 0, 1], [9, 1, 0]])
    rep = validate_metric(tri)
    assert rep.kind == "triangle"
    i, j, k = rep.witness
    assert tri.d(i, k) > tri.d(i, j) + tri.d(j, k)

    inf = MetricInstance(2, np.array([[0.0, np.inf], [np.inf, 0.0]]))
    assert validate_metric(inf).kind == "finite"


def test_disp_and_cross_hand_values():
    inst = _metric([[0, 1, 2], [1, 0, 3], [2, 3, 0]])
    assert disp([0, 1, 2], inst) == pytest.approx(6.0)
    assert disp([0, 1], inst) == pytest.approx(1.0)
    assert disp([2], inst) == 0.0
    assert disp([], inst) == 0.0
    assert disp_cross([0], [1, 2], inst) == pytest.approx(3.0)
    assert disp_cross([0, 1], [2], inst) == pytest.approx(5.0)
    assert disp_cross([], [1], inst) == 0.0


def test_dive_combines_disp_and_bonus():
    inst = _metric([[0, 1], [1, 0]])
    f = SubmodularSpec(kind="modular", weights=(0.25, 0.5))
    assert dive([0, 1], inst, f) == pytest.approx(1.75)
    assert dive([0, 1], inst, None) == pytest.approx(1.0)


def test_submodular_modular_and_coverage_values():
    mod = SubmodularSpec(kind="modular", weights=(1.0, 2.0, 4.0))
    assert mod.value([]) == 0.0
    assert mod.value([0, 2]) == pytest.approx(5.0)
    assert mod.value([0, 0, 2]) == pytest.approx(5.0)  # set semantics
    assert mod.n == 3

    cov = SubmodularSpec(kind="coverage", universe=4, covers=({0, 1}, {1, 2}, {3}))
    assert cov.value([]) == 0.0
    assert cov.value([0]) == 2.0
    assert cov.value([0, 1]) == 3.0
    assert cov.value([0, 1, 2]) == 4.0

    wcov = SubmodularSpec(
        kind="coverage", universe=3, covers=({0}, {1, 2}), uweights=(0.5, 1.0, 2.0)
    )
    assert wcov.value([0]) == pytest.approx(0.5)
    assert wcov.value([1]) == pytest.approx(3.0)
    assert wcov.value([0, 1]) == pytest.approx(3.5)

    zero = SubmodularSpec(kind="modular", weights=(0.0,) * 5)
    assert zero.value([0, 1, 2, 3, 4]) == 0.0


def test_submodular_spec_validation():
    with pytest.raises(InstanceError):
        SubmodularSpec(kind="modular", weights=(-1.0,))
    with pytest.raises(InstanceError):
        SubmodularSpec(kind="coverage", universe=2, covers=({0, 5},))
    with pytest.raises(InstanceError):
        SubmodularSpec(kind="coverage", universe=2, covers=({0},), uweights=(1.0,))
    with pytest.raises(InstanceError):
        SubmodularSpec(kind="nonsense")


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    n=st.integers(1, 8),
    universe=st.integers(0, 12),
)
def test_coverage_batch_value_equals_value_bit_for_bit(data, n, universe):
    # Covers may be empty; the rows always include the empty set and the
    # whole ground set, plus drawn subsets.
    item = st.integers(0, universe - 1) if universe else st.nothing()
    covers = data.draw(st.lists(st.frozensets(item), min_size=n, max_size=n))
    spec = SubmodularSpec(kind="coverage", universe=universe, covers=tuple(covers))
    drawn = data.draw(st.lists(st.frozensets(st.integers(0, n - 1)), max_size=10))
    sets = [frozenset(), frozenset(range(n)), *drawn]
    M = np.zeros((len(sets), n))
    for row, S in enumerate(sets):
        M[row, list(S)] = 1.0
    assert spec.batchable
    got = spec.batch_value(M)
    assert [float(x).hex() for x in got] == [spec.value(S).hex() for S in sets]


def test_coverage_batch_value_spans_several_chunks():
    # 2,000,000 cells per block hold 5 rows of a 400,000-item universe.
    g = np.random.default_rng(3)
    covers = tuple(frozenset(g.choice(400_000, size=50, replace=False).tolist()) for _ in range(6))
    spec = SubmodularSpec(kind="coverage", universe=400_000, covers=covers)
    sets = [frozenset(np.flatnonzero(g.random(6) < 0.5).tolist()) for _ in range(12)]
    M = np.zeros((len(sets), 6))
    for row, S in enumerate(sets):
        M[row, list(S)] = 1.0
    assert spec.batch_value(M).tolist() == [spec.value(S) for S in sets]


def test_batch_value_refuses_sums_it_cannot_reproduce():
    specs = (
        SubmodularSpec(kind="modular", weights=(1.0, 2.0)),
        SubmodularSpec(kind="coverage", universe=2, covers=({0}, {1}), uweights=(0.5, 1.0)),
    )
    for spec in specs:
        assert not spec.batchable
        with pytest.raises(InstanceError):
            spec.batch_value(np.ones((1, 2)))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_submodular_spec_rejects_non_finite_weights(bad):
    with pytest.raises(InstanceError, match="finite"):
        SubmodularSpec(kind="modular", weights=(1.0, bad))
    with pytest.raises(InstanceError, match="finite"):
        SubmodularSpec(kind="coverage", universe=2, covers=({0}, {1}), uweights=(bad, 1.0))


def test_as_value_oracle_accepts_all_forms():
    assert as_value_oracle(None)(frozenset({1, 2})) == 0.0
    assert as_value_oracle(lambda S: float(len(S)))(frozenset({1, 2})) == 2.0
    spec = SubmodularSpec(kind="modular", weights=(1.0, 1.0))
    assert as_value_oracle(spec)(frozenset({0})) == 1.0
    with pytest.raises(InstanceError):
        as_value_oracle(42)


def test_setsystem_validation():
    good = SetSystemInstance(3, ((frozenset({0, 1}), 2),))
    assert good.m == 1
    with pytest.raises(InstanceError):
        SetSystemInstance(3, ((frozenset(), 1),))
    with pytest.raises(InstanceError):
        SetSystemInstance(3, ((frozenset({0, 7}), 1),))
    with pytest.raises(InstanceError):
        SetSystemInstance(3, ((frozenset({0, 1}), 3),))
    with pytest.raises(InstanceError):
        SetSystemInstance(3, ((frozenset({0, 1}), 0),))


def test_dks_instance_validation():
    W = np.array([[0.0, 0.5], [0.5, 0.0]])
    inst = DksInstance(2, W, forced=frozenset({0}), k=2)
    with pytest.raises(InstanceError):
        DksInstance(2, np.array([[0.0, 0.5], [0.4, 0.0]]), k=1)  # asymmetric
    with pytest.raises(InstanceError):
        DksInstance(2, np.array([[0.1, 0.5], [0.5, 0.0]]), k=1)  # diagonal
    with pytest.raises(InstanceError):
        DksInstance(2, np.array([[0.0, 1.5], [1.5, 0.0]]), k=1)  # range
    with pytest.raises(InstanceError):
        DksInstance(2, W, forced=frozenset({5}), k=2)  # forced id
    with pytest.raises(InstanceError):
        DksInstance(2, W, forced=frozenset({0, 1}), k=1)  # |forced| > k
    with pytest.raises(InstanceError):
        DksInstance(2, W, k=3)  # k > n


def test_guarded_argmax_refuses_before_scoring_and_keeps_the_first_maximum():
    scored = []

    def objective(c):
        scored.append(c)
        return {"a": 1.0, "b": 3.0, "c": 3.0, "d": 2.0}[c]

    with pytest.raises(core.GuardExceeded, match=r"refuses 4 letters \(guard 3\)"):
        core._guarded_argmax("abcd", 4, 3, objective, "letters")
    with pytest.raises(core.GuardExceeded, match=r"refuses over 10\^18 letters"):
        core._guarded_argmax("abcd", 10**5000, 3, objective, "letters")
    assert scored == []
    assert core._guarded_argmax("abcd", 4, 4, objective, "letters") == ("b", 3.0)
    assert scored == list("abcd")


def test_capped_comb_is_exact_up_to_the_cap_and_refuses_just_the_same_past_it():
    for n in range(40):
        for k in range(n + 1):
            assert core._capped_comb(n, k, 0) == math.comb(n, k)
    assert core._capped_comb(100, 50, 10**40) == math.comb(100, 50)
    for guard in (0, 10**25):
        assert max(guard, 10**18) < core._capped_comb(100, 50, guard) < math.comb(100, 50)


def test_oversized_maxcov_oracle_refuses_in_under_a_second():
    # C(10^6, 5 * 10^5) alone took about 9 s of big-integer work before the
    # guard compared it.
    cov = CoverageInstance(1, ((0,),) * 1_000_000, 500_000)
    t0 = time.perf_counter()
    with pytest.raises(core.GuardExceeded, match=r"refuses over 10\^18 subsets"):
        max_coverage_value(cov)
    assert time.perf_counter() - t0 < 1.0


def test_metric_instance_shape_check():
    with pytest.raises(InstanceError):
        MetricInstance(3, np.zeros((2, 2)))


def _weights_verdict(W):
    """'ok' or the message of the first failing check among symmetry/diagonal."""
    try:
        DksInstance(len(W), np.array(W, dtype=float), k=1)
    except InstanceError as exc:
        return str(exc)
    return "ok"


@pytest.mark.parametrize("a, b, d", [
    (0.5, 0.5, 0.0),
    (0.5, 0.5 + 1e-12, 0.0),  # asymmetric inside the tolerance
    (0.5, 0.5 + 1e-6, 0.0),
    (0.5, 0.5, 1e-12),  # diagonal inside the tolerance
    (0.5, 0.5, 1e-6),
    (0.5, 0.5, -0.0),
    (math.nan, math.nan, 0.0),
    (0.5, 0.5, math.nan),
    (math.inf, math.inf, 0.0),
    (-math.inf, 0.5, 0.0),
])
def test_dks_weight_checks_match_allclose(a, b, d):
    # The exact pre-tests only skip np.allclose; the verdict is the tolerance one.
    W = np.array([[d, a], [b, 0.0]])
    if not np.allclose(W, W.T, atol=1e-9):
        want = "weights must be symmetric"
    elif not np.allclose(np.diag(W), 0.0, atol=1e-9):
        want = "weights must have a zero diagonal"
    elif W.min() < -1e-9 or W.max() > 1.0 + 1e-9:
        want = "weights must lie in [0, 1]"
    else:
        want = "ok"
    assert _weights_verdict(W) == want


def test_rng_generator_is_built_on_first_use():
    rng = RngState(11).child("pair", 3)
    eager = np.random.Generator(np.random.PCG64(rng.seed))
    assert np.array_equal(rng.gen.random(5), eager.random(5))
    assert rng.gen is rng.gen  # one stream, not rebuilt per access
    assert np.array_equal(rng.gen.random(5), eager.random(5))


def test_rng_child_checks_keys_at_once_and_hashes_on_first_read(monkeypatch):
    with pytest.raises(TypeError):
        RngState(1).child(2.5)
    calls = []

    def counting(*args):
        calls.append(args)
        return derive_seed(*args)

    monkeypatch.setattr(core, "derive_seed", counting)
    kid = RngState(-5).child("pair", 2**40, -1)
    assert calls == []
    assert kid.seed == derive_seed(-5, "pair", 2**40, -1)
    kid.gen.random(3)
    grandchild = kid.child(7)
    assert len(calls) == 1
    assert grandchild.seed == derive_seed(kid.seed, 7)
