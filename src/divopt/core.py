"""Shared instance types, validation, and deterministic RNG plumbing.

Ground sets are always ``range(n)``; ranking positions are 1-based to match
the usual DCG convention.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "InstanceError",
    "GuardExceeded",
    "RngState",
    "derive_seed",
    "child_uniforms",
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


# numpy's SeedSequence hash (a pool of four 32-bit words) and PCG64 seeding,
# restated over arrays so that many child streams are derived in one pass.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFFFFFF
_SHIFT = np.uint32(16)
_U64 = np.uint64


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count`` values of a SeedSequence hash-constant chain,
    ``c[0] = init`` and ``c[i + 1] = c[i] * mult mod 2^32``, as a (count, 1)
    uint32 column."""
    out = [init]
    for _ in range(count - 1):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


def _seed_state(entropy: np.ndarray, keys: np.ndarray, n_words: int) -> np.ndarray:
    """``SeedSequence(entropy=e, spawn_key=row).generate_state(n_words, np.uint32)``
    for every row, as a (B, n_words) uint32 array.

    ``entropy`` holds uint64 values, one per row or one for all; ``keys`` is
    (B, K) uint64.  Entropy fills the first pool words and is zero-padded to
    four (with no spawn key SeedSequence hashes zeros there instead, which is
    the same); each key then adds one word, or two from 2^32 on.  The pool is
    a (4, rows) array: the hash calls that read one source word, each with the
    next constant of the chain, run as one array operation.
    """
    # Key words packed to the left of each row, so that the j-th word of every
    # row meets the same hash constant; rows with fewer words stop early.
    B, K = keys.shape
    low, high = keys & np.uint64(_MASK32), keys >> np.uint64(32)
    count = 1 + (high > 0)
    end = np.cumsum(count, axis=1)
    packed = np.zeros((B, 2 * K), dtype=np.uint32)
    rows = np.arange(B)[:, None]
    packed[rows, end - count] = low
    r, c = np.nonzero(high)
    packed[r, end[r, c] - 1] = high[r, c]
    length = end[:, -1] if K else np.zeros(B, dtype=np.int64)
    key_words = int(length.max(initial=0))

    hc = _hash_constants(_INIT_A, _MULT_A, 4 + 12 + 4 * key_words + 1)
    used = 0

    def hashmix(value, calls):
        """``calls`` successive hashmix calls, the i-th on row i of ``value``."""
        nonlocal used
        value = (value ^ hc[used : used + calls]) * hc[used + 1 : used + calls + 1]
        used += calls
        return value ^ (value >> _SHIFT)

    def mix(x, y):
        r = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return r ^ (r >> _SHIFT)

    low, high = entropy & np.uint64(_MASK32), entropy >> np.uint64(32)
    zero = np.zeros_like(entropy, dtype=np.uint32)
    pool = hashmix(np.stack((low.astype(np.uint32), high.astype(np.uint32), zero, zero)), 4)
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], 3))
    for j in range(key_words):
        pool = np.where(j < length, mix(pool, hashmix(packed[:, j], 4)), pool)

    hc = _hash_constants(_INIT_B, _MULT_B, n_words + 1)
    value = (pool[np.arange(n_words) % 4] ^ hc[:-1]) * hc[1:]
    out = np.empty((B, n_words), dtype=np.uint32)
    out[:] = (value ^ (value >> _SHIFT)).T
    return out


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of each ``a * b`` (uint64 array times a 64-bit constant),
    from the four products of 32-bit halves."""
    a0, a1 = a & _U64(_MASK32), a >> _U64(32)
    b0, b1 = _U64(b & _MASK32), _U64(b >> 32)
    lo_lo, hi_lo, lo_hi = a0 * b0, a1 * b0, a0 * b1
    mid = (lo_lo >> _U64(32)) + (hi_lo & _U64(_MASK32)) + (lo_hi & _U64(_MASK32))
    return a1 * b1 + (hi_lo >> _U64(32)) + (lo_hi >> _U64(32)) + (mid >> _U64(32))


def _add128(a_hi, a_lo, b_hi, b_lo):
    """(a + b) mod 2^128 over (high, low) uint64 limbs."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


_MULT_HI, _MULT_LO = _PCG_MULT >> 64, _PCG_MULT & _MASK64


def _pcg_step(s_hi, s_lo, i_hi, i_lo):
    """PCG64's LCG step, ``(state * MULT + inc) mod 2^128``, over uint64 limbs."""
    hi = _mulhi64(s_lo, _MULT_LO) + s_hi * _U64(_MULT_LO) + s_lo * _U64(_MULT_HI)
    return _add128(hi, s_lo * _U64(_MULT_LO), i_hi, i_lo)


def child_uniforms(seed: int, keys, size: int) -> np.ndarray:
    """``RngState(seed).child(*row).gen.random(size)`` for every row of the
    (B, K) integer array ``keys``, as one (B, size) array, bit for bit.

    Keys are taken mod 2^64 as ``child`` takes them (pass uint64 for keys
    from 2^63 on).  The child seeds and PCG64 states of all rows are hashed
    at once, and all rows' PCG64 streams advance together: each 128-bit state
    and increment is held as (high, low) uint64 limbs, and each draw is one
    LCG step then the XSL-RR output (O'Neill 2014), ``rotr(hi ^ lo, hi >> 58)``,
    whose top 53 bits make the double.
    """
    keys = np.asarray(keys)
    if keys.dtype.kind not in "iu":
        raise TypeError(f"keys must be an integer array, got dtype {keys.dtype}")
    if keys.ndim != 2:
        raise ValueError(f"keys must be a (B, K) array, got shape {keys.shape}")
    keys = keys.astype(np.uint64)  # wraps negatives as child's & _MASK64 does
    parent = np.array([int(seed) & _MASK64], dtype=np.uint64)
    halves = _seed_state(parent, keys, 2).astype(np.uint64)
    seeds = halves[:, 0] | (halves[:, 1] << _U64(32))
    halves = _seed_state(seeds, keys[:, :0], 8).astype(np.uint64)
    s_hi, s_lo, i_hi, i_lo = (halves[:, 0::2] | (halves[:, 1::2] << _U64(32))).T
    # pcg64_set_seed: inc = 2 * initseq + 1; state = step(step(0) + initstate).
    i_hi, i_lo = (i_hi << _U64(1)) | (i_lo >> _U64(63)), (i_lo << _U64(1)) | _U64(1)
    s_hi, s_lo = _pcg_step(*_add128(s_hi, s_lo, i_hi, i_lo), i_hi, i_lo)
    bits = np.empty((len(keys), size), dtype=np.uint64)
    for t in range(size):
        s_hi, s_lo = _pcg_step(s_hi, s_lo, i_hi, i_lo)
        x, rot = s_hi ^ s_lo, s_hi >> _U64(58)
        bits[:, t] = (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))
    return (bits >> _U64(11)) * 2.0**-53


class RngState:
    """A 64-bit seed plus the PCG64 generator it determines.

    All randomized solvers take one of these explicitly; identical seeds give
    identical draw sequences on every platform.  ``child(*keys)`` derives an
    independent stream for a sub-task, so per-trial work is reproducible no
    matter how the surrounding loops are executed: the child seed is the
    first 64 bits of ``SeedSequence(entropy=seed, spawn_key=keys)`` and the
    child stream is ``PCG64`` seeded with it.  A child checks its keys at once
    but hashes its seed only when ``seed`` or ``gen`` is first read, since
    many child streams are never drawn from.  ``child_uniforms`` derives and
    draws from many children of one seed in one vectorized batch, with the
    same numbers; a differential test pins that batch to numpy's own
    SeedSequence and PCG64.
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

    def __bool__(self) -> bool:
        return self.ok


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
        if self.weights.min() < -TOL or self.weights.max() > 1.0 + TOL:
            raise InstanceError("weights must lie in [0, 1]")
        if not self.forced <= set(range(self.n)):
            raise InstanceError("forced nodes outside range(n)")
        if not len(self.forced) <= self.k <= self.n:
            raise InstanceError(
                f"need |forced| <= k <= n, got |forced|={len(self.forced)}, k={self.k}, n={self.n}"
            )

    def pair_weight(self, u: int, v: int) -> float:
        return float(self.weights[u, v])


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

    @classmethod
    def zero(cls, n: int) -> "SubmodularSpec":
        return cls(kind="modular", weights=(0.0,) * n)

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
