"""Shared instance types, validation, and deterministic RNG plumbing.

Ground sets are always ``range(n)``; ranking positions are 1-based to match
the usual DCG convention.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field
from itertools import combinations, islice
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "InstanceError",
    "GuardExceeded",
    "RngState",
    "derive_seed",
    "ValidationReport",
    "MetricInstance",
    "SetSystemInstance",
    "DksInstance",
    "SubmodularSpec",
    "validate_metric",
    "disp",
    "disp_cross",
    "dive",
]

TOL = 1e-9


class InstanceError(ValueError):
    """Raised when an instance or argument violates its documented contract."""


class GuardExceeded(RuntimeError):
    """Raised when a brute-force guard or enumeration budget refuses to run."""


BRUTE_GUARD = 1_000_000  # default oracle guard; 9! < BRUTE_GUARD < 10!


_PRINTABLE = 10**18  # larger counts print as "over 10^18"; str() fails past 4300 digits


def _capped_comb(n: int, k: int, guard: int) -> int:
    """C(n, k) for 0 <= k <= n, or, once the running product exceeds
    max(guard, 10^18), that product: a lower bound that refuses just the
    same, reached without the big-integer work of the exact count."""
    k = min(k, n - k)
    cap = max(guard, _PRINTABLE)
    count = 1
    for i in range(1, k + 1):
        count = count * (n - k + i) // i  # C(n - k + i, i), rising with i
        if count > cap:
            break
    return count


def _guarded_argmax(blocks: Iterable, count, guard: int, score: Callable, unit: str):
    """The first of the ``count`` candidates with the strictly largest value,
    and that value as a float.  ``blocks`` yields the candidates in blocks of
    a bounded size (lists, or arrays of rows) and ``score`` maps a block to
    its values.  Raises GuardExceeded, before drawing any block, when
    ``count`` exceeds ``guard``."""
    if count > guard:
        many = count if count < _PRINTABLE else "over 10^18"
        raise GuardExceeded(f"brute force refuses {many} {unit} (guard {guard})")
    best, best_val = None, -math.inf
    for block in blocks:
        vals = score(block)
        i = int(np.argmax(vals))  # the block's first maximum
        if best is None or vals[i] > best_val:
            best, best_val = block[i], vals[i]
    return best, float(best_val)


def _blocks(candidates: Iterable, size: int = 4096):
    """``candidates`` as lists of up to ``size``, for _guarded_argmax; lazy,
    so nothing is drawn before the guard."""
    it = iter(candidates)
    return iter(lambda: list(islice(it, size)), [])


def _each(objective: Callable) -> Callable:
    """_guarded_argmax's ``score`` for _blocks: ``objective`` per candidate."""
    return lambda block: [objective(c) for c in block]


# ---------------------------------------------------------------------------
# deterministic randomness


_MASK64 = (1 << 64) - 1


def _key_to_int(key) -> int:
    if isinstance(key, (int, np.integer)):
        return int(key) & _MASK64
    if isinstance(key, str):
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "little")
    raise TypeError(f"rng keys must be int or str, got {type(key)!r}")


def derive_seed(seed: int, *keys) -> int:
    """Stable 64-bit child seed from a parent seed and a tuple of keys."""
    ss = np.random.SeedSequence(
        entropy=int(seed) & _MASK64,
        spawn_key=tuple(_key_to_int(k) for k in keys),
    )
    words = ss.generate_state(2, np.uint32)
    return (int(words[0]) | (int(words[1]) << 32)) & _MASK64


class RngState:
    """A 64-bit seed plus the PCG64 generator it determines.

    All randomized solvers take one of these explicitly; identical seeds give
    identical draw sequences on every platform.  ``child(*keys)`` derives an
    independent stream for a sub-task, so per-task work is reproducible no
    matter how the surrounding loops are executed: the child seed is the
    first 64 bits of ``SeedSequence(entropy=seed, spawn_key=keys)`` and the
    child stream is ``PCG64`` seeded with it.  A child checks its keys at once
    but hashes its seed only when ``seed`` or ``gen`` is first read, since
    many child streams are never drawn from.  ``ptas_dcg`` takes one child
    per rounded prefix set and draws all of that set's trials from it in one
    call; every ordering of the set is scored against those trials.
    """

    __slots__ = ("_seed", "_gen", "_parent")

    def __init__(self, seed: int):
        self._seed = int(seed) & _MASK64
        self._gen = None
        self._parent = None

    @property
    def seed(self) -> int:
        if self._seed is None:
            self._seed = derive_seed(*self._parent)
        return self._seed

    @property
    def gen(self) -> np.random.Generator:
        """The stream's generator, built on first use."""
        if self._gen is None:
            self._gen = np.random.Generator(np.random.PCG64(self.seed))
        return self._gen

    def child(self, *keys) -> "RngState":
        kid = RngState.__new__(RngState)
        kid._seed, kid._gen = None, None
        kid._parent = (self.seed, *(_key_to_int(k) for k in keys))
        return kid

    def __repr__(self) -> str:
        return f"RngState(seed={self.seed})"


# ---------------------------------------------------------------------------
# instance types


@dataclass
class ValidationReport:
    ok: bool
    kind: str | None = None
    witness: tuple | None = None
    message: str = ""


@dataclass
class MetricInstance:
    """Finite (pseudo)metric given by a dense symmetric distance matrix.

    Zero off-diagonal distances are accepted; only symmetry, non-negativity,
    a zero diagonal, and the triangle inequality are required.
    """

    n: int
    dist: np.ndarray
    points: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.dist = np.asarray(self.dist, dtype=float)
        if self.dist.shape != (self.n, self.n):
            raise InstanceError(
                f"dist must be {self.n}x{self.n}, got {self.dist.shape}"
            )
        if self.points is not None:
            self.points = np.asarray(self.points, dtype=float)

    def d(self, i: int, j: int) -> float:
        return float(self.dist[i, j])


@dataclass(frozen=True)
class SetSystemInstance:
    """Coverage demands for ranking: each set S wants k_S of its members early."""

    n: int
    sets: tuple[tuple[frozenset, int], ...]
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.n < 0:
            raise InstanceError(f"n must be non-negative, got {self.n}")
        norm = []
        for idx, (members, k) in enumerate(self.sets):
            members = frozenset(int(e) for e in members)
            k = int(k)
            if not members:
                raise InstanceError(f"sets[{idx}]: members must be non-empty")
            if not members <= set(range(self.n)):
                raise InstanceError(f"sets[{idx}]: members outside range({self.n})")
            if not 1 <= k <= len(members):
                raise InstanceError(
                    f"sets[{idx}]: need 1 <= k <= |members|, got k={k}, |S|={len(members)}"
                )
            norm.append((members, k))
        object.__setattr__(self, "sets", tuple(norm))

    @property
    def m(self) -> int:
        return len(self.sets)


@dataclass
class DksInstance:
    """Edge-weighted graph plus a forced seed set and a target size k.

    ``weights`` is a dense symmetric matrix with zero diagonal and entries in
    [0, 1].  ``forced`` lists nodes that every candidate solution must contain.
    """

    n: int
    weights: np.ndarray
    forced: frozenset = frozenset()
    k: int = 0
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        self.forced = frozenset(int(v) for v in self.forced)
        if self.weights.shape != (self.n, self.n):
            raise InstanceError(
                f"weights must be {self.n}x{self.n}, got {self.weights.shape}"
            )
        # Exact tests first: instances built in the ball loop pass them, and
        # np.allclose then runs only where it can change the outcome.
        W = self.weights
        if not np.array_equal(W, W.T) and not np.allclose(W, W.T, atol=TOL):
            raise InstanceError("weights must be symmetric")
        if np.diag(W).any() and not np.allclose(np.diag(W), 0.0, atol=TOL):
            raise InstanceError("weights must have a zero diagonal")
        if W.min(initial=0.0) < -TOL or W.max(initial=0.0) > 1.0 + TOL:
            raise InstanceError("weights must lie in [0, 1]")
        if not self.forced <= set(range(self.n)):
            raise InstanceError("forced nodes outside range(n)")
        if not len(self.forced) <= self.k <= self.n:
            raise InstanceError(
                f"need |forced| <= k <= n, got |forced|={len(self.forced)}, k={self.k}, n={self.n}"
            )


@dataclass(frozen=True)
class SubmodularSpec:
    """Serializable monotone submodular function.

    kind "modular": value(S) = sum of per-element weights (all >= 0).
    kind "coverage": value(S) = total weight of universe items covered by S.
    Both are normalized (value of the empty set is 0), monotone, submodular.
    """

    kind: str
    weights: tuple = ()
    universe: int = 0
    covers: tuple = ()
    uweights: tuple | None = None

    def __post_init__(self):
        if self.kind == "modular":
            w = tuple(float(x) for x in self.weights)
            if not all(0.0 <= x < math.inf for x in w):
                raise InstanceError("modular weights must be finite and non-negative")
            object.__setattr__(self, "weights", w)
        elif self.kind == "coverage":
            covers = tuple(frozenset(int(i) for i in c) for c in self.covers)
            for idx, c in enumerate(covers):
                if not c <= set(range(self.universe)):
                    raise InstanceError(f"covers[{idx}] outside universe range")
            object.__setattr__(self, "covers", covers)
            if self.uweights is not None:
                uw = tuple(float(x) for x in self.uweights)
                if len(uw) != self.universe:
                    raise InstanceError("uweights length must equal universe size")
                if not all(0.0 <= x < math.inf for x in uw):
                    raise InstanceError("uweights must be finite and non-negative")
                object.__setattr__(self, "uweights", uw)
        else:
            raise InstanceError(f"unknown submodular kind {self.kind!r}")

    @property
    def n(self) -> int:
        if self.kind == "modular":
            return len(self.weights)
        return len(self.covers)

    def value(self, S: Iterable[int]) -> float:
        if self.kind == "modular":
            return float(sum(self.weights[e] for e in set(S)))
        covered = set()
        for e in set(S):
            covered |= self.covers[e]
        if self.uweights is None:
            return float(len(covered))
        return float(sum(self.uweights[i] for i in covered))

    @property
    def batchable(self) -> bool:
        """Whether ``batch_value`` applies: unweighted coverage, whose value
        is an integer count.  Modular and weighted sums follow set-iteration
        order, which a batch need not reproduce bit for bit."""
        return self.kind == "coverage" and self.uweights is None

    @functools.cached_property
    def incidence(self) -> np.ndarray:
        """Elements x items 0/1 matrix of the covers (coverage only).  Its
        columns are the universe items some cover holds, in order; an item
        no cover holds is never counted, so it gets no column."""
        items = sorted(set().union(*self.covers))
        col = {item: j for j, item in enumerate(items)}
        inc = np.zeros((len(self.covers), len(items)))
        for e, cover in enumerate(self.covers):
            inc[e, [col[i] for i in cover]] = 1.0
        return inc

    def batch_value(self, M: np.ndarray) -> np.ndarray:
        """``value`` of the set each 0/1 row of ``M`` (rows x n) marks, bit
        for bit: the count of items some marked element covers, as a float.

        Only for a ``batchable`` spec.  Rows go through the product in blocks
        of at most 2,000,000 rows x items cells.
        """
        if not self.batchable:
            raise InstanceError("batch_value needs an unweighted coverage spec")
        inc = self.incidence
        out = np.empty(len(M))
        chunk = max(1, 2_000_000 // max(1, inc.shape[1]))
        for start in range(0, len(M), chunk):
            out[start : start + chunk] = (M[start : start + chunk] @ inc > 0).sum(axis=1)
        return out


def as_value_oracle(f) -> Callable[[frozenset], float]:
    """Uniform callable view of a SubmodularSpec, a callable, or None (zero)."""
    if f is None:
        return lambda S: 0.0
    if isinstance(f, SubmodularSpec):
        return f.value
    if callable(f):
        return f
    raise InstanceError(f"expected SubmodularSpec, callable, or None, got {type(f)!r}")


# ---------------------------------------------------------------------------
# metric validation and dispersion sums


def validate_metric(inst: MetricInstance, tol: float = TOL) -> ValidationReport:
    """Check zero diagonal, symmetry, non-negativity, triangle inequality.

    Reports the first failing check with one witness tuple.  The triangle
    scan is vectorized per middle point j: d[i,k] <= d[i,j] + d[j,k] + tol.
    """
    D = inst.dist
    n = inst.n
    if not np.all(np.isfinite(D)):
        i, j = map(int, np.argwhere(~np.isfinite(D))[0])
        return ValidationReport(False, "finite", (i, j), f"dist[{i}][{j}] is not finite")
    diag = np.abs(np.diag(D))
    if diag.max(initial=0.0) > tol:
        i = int(np.argmax(diag))
        return ValidationReport(False, "diagonal", (i,), f"dist[{i}][{i}] = {D[i, i]} != 0")
    asym = np.abs(D - D.T)
    if asym.max(initial=0.0) > tol:
        i, j = map(int, np.argwhere(asym > tol)[0])
        return ValidationReport(
            False, "symmetry", (i, j), f"dist[{i}][{j}] != dist[{j}][{i}]"
        )
    if D.min(initial=0.0) < -tol:
        i, j = map(int, np.argwhere(D < -tol)[0])
        return ValidationReport(False, "nonneg", (i, j), f"dist[{i}][{j}] < 0")
    for j in range(n):
        slack = D - (D[:, j : j + 1] + D[j : j + 1, :])
        bad = np.argwhere(slack > tol)
        if len(bad):
            i, k = map(int, bad[0])
            return ValidationReport(
                False,
                "triangle",
                (i, j, k),
                f"dist[{i}][{k}] > dist[{i}][{j}] + dist[{j}][{k}]",
            )
    return ValidationReport(True, message="metric ok")


def disp(S: Iterable[int], inst: MetricInstance) -> float:
    """Sum of pairwise distances inside S."""
    idx = sorted(set(int(v) for v in S))
    if len(idx) < 2:
        return 0.0
    sub = inst.dist[np.ix_(idx, idx)]
    return float(sub.sum() / 2.0)


def disp_cross(A: Iterable[int], B: Iterable[int], inst: MetricInstance) -> float:
    """Sum of distances d(a, b) over a in A, b in B (sets taken as given)."""
    ia = sorted(set(int(v) for v in A))
    ib = sorted(set(int(v) for v in B))
    if not ia or not ib:
        return 0.0
    return float(inst.dist[np.ix_(ia, ib)].sum())


def dive(S: Iterable[int], inst: MetricInstance, f) -> float:
    """Diversification objective: disp(S) + f(S)."""
    oracle = as_value_oracle(f)
    S = frozenset(int(v) for v in S)
    return disp(S, inst) + float(oracle(S))
