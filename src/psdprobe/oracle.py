"""Query-counted access to hidden symmetric matrices, plus instance generators.

The testers in this package never touch matrix entries directly.  They go
through a counted operator, which hides a symmetric matrix behind two query
types and counts every access.  Scalar queries:

  * mat_vec(v)      -> A @ v          (one ``mv`` query)
  * bilinear(x, y)  -> x^T A y        (one ``vmv`` query)
  * quad_form(x)    -> x^T A x        (one ``vmv`` query)

Block queries answer many queries whose positions are all fixed in advance.
Each is charged exactly what the loop of scalar queries it replaces costs:

  * mat_vecs(V)          -> A V                     (V.shape[1] ``mv``)
  * bilinear_block(X, Y) -> X^T A Y                 (X.cols * Y.cols ``vmv``)
  * sym_block(G)         -> G^T A G, upper triangle
                            mirrored to the lower   (k (k + 1) / 2 ``vmv``)
  * quad_forms(X, Y)     -> x_j^T A y_j per column  (X.cols ``vmv``; Y
                            defaults to X)

A fixed-direction handle answers scalar queries along directions that were
all fixed before any answer is read, from one product with the block:

  * directions(U)        -> a handle on the columns u_j of U (no charge;
                            the simulator forms A U once, uncounted)
  * handle.quad_form(j)  -> u_j^T A u_j                  (one ``vmv``)
  * handle.bilinear(j, y) -> u_j^T A y, as (A u_j)^T y   (one ``vmv``)

Block queries and ``directions`` reject non-finite blocks; scalar queries
and handle reads pass whatever they are given, so a diverging caller sees
its own non-finite values.

Ground-truth helpers (``dense``, ``eigenvalues``) bypass the counters and are
reserved for tests and for the experiment harness when it labels instances.

Generators produce the instance families used throughout the test suites:
rotated diagonal spectra, Wishart matrices, and spiked asymmetric embeddings.
All randomness comes from explicitly seeded counter-based Philox streams; there
is no module-level RNG state anywhere in this package.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

__all__ = [
    "MAX_DENSE_DIM",
    "CountedOperator",
    "DirectionBlock",
    "SymmetricOperator",
    "SpectrumInstance",
    "rng_from",
    "gen_rotated_diag",
    "gen_wishart",
    "gen_spiked_sym",
    "operator_from_descriptor",
]

# Dense backing is exact and fast at desk scale; refuse anything larger so a
# bad config fails loudly instead of swapping.
MAX_DENSE_DIM = 4096

SeedLike = Union[int, np.random.Generator]


def rng_from(seed: SeedLike, *stream: int) -> np.random.Generator:
    """Build a Generator on the Philox counter-based bit stream.

    ``stream`` extends the seed so callers can carve independent substreams
    out of one experiment seed (e.g. ``rng_from(seed, trial_index)``) without
    any shared state.  Passing an existing Generator returns it unchanged so
    internal helpers can accept either form.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    ss = np.random.SeedSequence([int(seed) & 0xFFFFFFFFFFFFFFFF, *map(int, stream)])
    return np.random.Generator(np.random.Philox(ss))


class CountedOperator:
    """Query counters and the block-query interface shared by all operators.

    Each block query checks its block (two-dimensional, ``dim`` rows, every
    entry finite), hands it to a subclass hook, and charges the counters
    what the equivalent scalar loop costs.  Counter increments are
    lock-guarded so independent trials may run the same process in parallel
    threads on distinct operator instances; a single operator is not meant
    to be shared between concurrent testers.
    """

    def __init__(self, dim: int):
        self._dim = dim
        self._mv = 0
        self._vmv = 0
        self._lock = threading.Lock()

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def mv_queries(self) -> int:
        return self._mv

    @property
    def vmv_queries(self) -> int:
        return self._vmv

    def _charge(self, mv: int, vmv: int) -> None:
        with self._lock:
            self._mv += mv
            self._vmv += vmv

    def _block(self, b, name: str) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.ndim != 2 or b.shape[0] != self._dim:
            raise ValueError(f"{name} expects a ({self._dim}, n) block, "
                             f"got shape {b.shape}")
        if not np.isfinite(b).all():
            raise ValueError(f"{name} block holds non-finite entries")
        return b

    def mat_vecs(self, v) -> np.ndarray:
        """A V, one ``mv`` query per column of V."""
        v = self._block(v, "mat_vecs")
        out = self._mat_vecs(v)
        self._charge(v.shape[1], 0)
        return out

    def bilinear_block(self, x, y) -> np.ndarray:
        """X^T A Y, one ``vmv`` query per entry of the result."""
        x = self._block(x, "bilinear_block")
        y = self._block(y, "bilinear_block")
        out = self._bilinear_block(x, y)
        self._charge(0, x.shape[1] * y.shape[1])
        return out

    def sym_block(self, g) -> np.ndarray:
        """G^T A G, one ``vmv`` query per entry on or above the diagonal.

        The lower triangle is a mirror of the upper one, so the result is
        exactly symmetric.
        """
        g = self._block(g, "sym_block")
        out = self._sym_block(g)
        k = g.shape[1]
        self._charge(0, k * (k + 1) // 2)
        return out

    def quad_forms(self, x, y=None) -> np.ndarray:
        """Column-wise x_j^T A y_j (y defaults to x), one ``vmv`` per column."""
        x = self._block(x, "quad_forms")
        if y is not None:
            y = self._block(y, "quad_forms")
            if y.shape != x.shape:
                raise ValueError(f"quad_forms blocks differ in shape: "
                                 f"{x.shape} vs {y.shape}")
        out = self._quad_forms(x, y)
        self._charge(0, x.shape[1])
        return out

    def directions(self, u) -> "DirectionBlock":
        """Handle for vmv queries along the columns of U; charges per read.

        The simulator forms A U once, uncounted: every direction is fixed
        before any answer is read, so the product reveals nothing a reader
        could not get from the same reads asked one at a time.
        """
        u = self._block(u, "directions")
        return DirectionBlock(self, u, self._mat_vecs(u))

    # Subclass hooks: answer an already checked block, without charging.
    def _unsupported(self, *blocks):
        raise NotImplementedError(
            f"{type(self).__name__} does not answer this block query")

    _mat_vecs = _bilinear_block = _sym_block = _quad_forms = _unsupported


class DirectionBlock:
    """Fixed directions u_j with their images A u_j, read one vmv at a time.

    Built by ``CountedOperator.directions``; each read charges the operator
    that built it one ``vmv`` query and costs at most O(dim) work.  The
    handle keeps no reference to U, so mutating U later changes no answer.
    """

    def __init__(self, owner: CountedOperator, u: np.ndarray, au: np.ndarray):
        self._owner = owner
        self._au = np.ascontiguousarray(au.T)
        self._quad = np.einsum("ij,ij->j", u, au)

    def quad_form(self, j: int) -> float:
        """One vmv query: u_j^T A u_j."""
        self._owner._charge(0, 1)
        return float(self._quad[j])

    def bilinear(self, j: int, y: np.ndarray) -> float:
        """One vmv query: u_j^T A y, answered as (A u_j)^T y."""
        self._owner._charge(0, 1)
        return float(self._au[j] @ y)


class SymmetricOperator(CountedOperator):
    """A hidden dense symmetric matrix reachable only through counted queries.

    A block query costs one BLAS-3 product with the backing matrix.
    """

    def __init__(self, matrix: np.ndarray, seed: Optional[int] = None,
                 validate: bool = True):
        a = np.array(matrix, dtype=float, copy=True)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"operator backing must be square, got {a.shape}")
        if a.shape[0] > MAX_DENSE_DIM:
            raise ValueError(
                f"dense backing capped at {MAX_DENSE_DIM}, got dim {a.shape[0]}")
        if not np.isfinite(a).all():
            raise ValueError("operator backing holds non-finite entries")
        if validate:
            scale = max(float(np.abs(a).max()), 1.0)
            asym = float(np.abs(a - a.T).max())
            if asym > 1e-9 * scale:
                raise ValueError(f"backing not symmetric (max asym {asym:.3e})")
        super().__init__(a.shape[0])
        # Exact symmetry from here on; generators may hand us tiny float skew.
        # Halving before adding keeps entries near the float maximum finite.
        a *= 0.5
        self._a = a + a.T
        self.seed = seed
        self._eigs: Optional[np.ndarray] = None

    def mat_vec(self, v: np.ndarray) -> np.ndarray:
        """One mv query: the full vector A @ v."""
        v = np.asarray(v, dtype=float)
        if v.shape != (self._dim,):
            raise ValueError(f"mat_vec expects shape ({self._dim},), got {v.shape}")
        with self._lock:
            self._mv += 1
        return self._a @ v

    def bilinear(self, x: np.ndarray, y: np.ndarray) -> float:
        """One vmv query: the scalar x^T A y."""
        with self._lock:
            self._vmv += 1
        return float(x @ (self._a @ y))

    def quad_form(self, x: np.ndarray) -> float:
        """One vmv query: the scalar x^T A x."""
        with self._lock:
            self._vmv += 1
        return float(x @ (self._a @ x))

    def _mat_vecs(self, v: np.ndarray) -> np.ndarray:
        return self._a @ v

    def _bilinear_block(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return x.T @ (self._a @ y)

    def _sym_block(self, g: np.ndarray) -> np.ndarray:
        upper = np.triu(g.T @ (self._a @ g))
        return upper + np.triu(upper, 1).T

    def _quad_forms(self, x: np.ndarray, y: Optional[np.ndarray]) -> np.ndarray:
        return np.einsum("ij,ij->j", x, self._a @ (x if y is None else y))

    # -- uncounted ground-truth access -------------------------------------

    def dense(self) -> np.ndarray:
        """Copy of the hidden matrix.  Test and labeling use only."""
        return self._a.copy()

    def eigenvalues(self) -> np.ndarray:
        """Ascending exact eigenvalues (uncounted; cached)."""
        if self._eigs is None:
            self._eigs = np.linalg.eigvalsh(self._a)
        return self._eigs.copy()

    def schatten_norm(self, p: float) -> float:
        """Uncounted Schatten p-norm of the hidden matrix."""
        w = np.abs(self.eigenvalues())
        if np.isinf(p):
            return float(w.max()) if w.size else 0.0
        return float((w ** p).sum() ** (1.0 / p))

    def __repr__(self) -> str:
        return (f"SymmetricOperator(dim={self._dim}, seed={self.seed}, "
                f"mv={self._mv}, vmv={self._vmv})")


@dataclass(frozen=True)
class SpectrumInstance:
    """A target spectrum plus the seed of the Haar rotation that hides it."""

    eigenvalues: tuple
    rotation_seed: int

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues",
                           tuple(float(v) for v in self.eigenvalues))
        if len(self.eigenvalues) == 0:
            raise ValueError("empty spectrum")


def _haar_orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    # QR of a Gaussian matrix is Haar only after fixing the signs of R's
    # diagonal; without the correction the distribution is biased.
    m = rng.standard_normal((d, d))
    q, r = np.linalg.qr(m)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs[np.newaxis, :]


def gen_rotated_diag(instance: SpectrumInstance) -> SymmetricOperator:
    """Hide a prescribed spectrum inside a Haar-rotated dense matrix.

    An isotropic spectrum commutes with any rotation, so that case returns
    the exact scaled identity rather than a numerically rotated copy.
    """
    lam = np.array(instance.eigenvalues, dtype=float)
    d = lam.size
    if d > MAX_DENSE_DIM:
        raise ValueError(f"spectrum length {d} exceeds dense cap {MAX_DENSE_DIM}")
    if np.ptp(lam) == 0.0:
        a = np.eye(d) * lam[0]
        return SymmetricOperator(a, seed=instance.rotation_seed, validate=False)
    s = _haar_orthogonal(d, rng_from(instance.rotation_seed, 0x0ACE))
    a = (s.T * lam) @ s
    return SymmetricOperator(a, seed=instance.rotation_seed, validate=False)


def gen_wishart(d: int, seed: int) -> SymmetricOperator:
    """PSD Wishart instance W = X X^T with X entries i.i.d. N(0, 1/d)."""
    rng = rng_from(seed, 0x0B15)
    x = rng.standard_normal((d, d)) / np.sqrt(d)
    return SymmetricOperator(x @ x.T, seed=seed, validate=False)


def gen_spiked_sym(d: int, s: float, shift: float, seed: int) -> SymmetricOperator:
    """Symmetric embedding of a spiked Gaussian, plus a diagonal shift.

    Returns the 2d x 2d matrix ``[[0, B], [B^T, 0]] + shift * I`` where
    ``B = G + s * u v^T`` with G, u, v standard Gaussian.  Its eigenvalues are
    ``shift +- sigma_i(B)``, so the shift controls how close the unspiked
    ensemble sits to the PSD boundary; pass ``shift ~ 2.1 * sqrt(d)`` to park
    it just above the bulk edge.
    """
    rng = rng_from(seed, 0x5717)
    g = rng.standard_normal((d, d))
    u = rng.standard_normal(d)
    v = rng.standard_normal(d)
    b = g + s * np.outer(u, v)
    a = np.zeros((2 * d, 2 * d))
    a[:d, d:] = b
    a[d:, :d] = b.T
    a[np.diag_indices_from(a)] = shift
    return SymmetricOperator(a, seed=seed, validate=False)


def operator_from_descriptor(desc: dict) -> SymmetricOperator:
    """Build an operator from a JSON-friendly instance descriptor.

    Expected shapes::

        {"kind": "rotated_diag", "eigenvalues": [...], "seed": 7}
        {"kind": "wishart", "dim": 64, "seed": 7}
        {"kind": "spiked", "dim": 64, "s": 1.0, "shift": 16.8, "seed": 7}

    Raises ValueError on unknown kinds or missing fields, which the CLI maps
    to its config-error exit code.
    """
    if not isinstance(desc, dict):
        raise ValueError(f"descriptor must be a dict, got {type(desc).__name__}")
    kind = desc.get("kind")
    try:
        if kind == "rotated_diag":
            return gen_rotated_diag(SpectrumInstance(
                eigenvalues=tuple(desc["eigenvalues"]),
                rotation_seed=int(desc["seed"])))
        if kind == "wishart":
            return gen_wishart(int(desc["dim"]), int(desc["seed"]))
        if kind == "spiked":
            return gen_spiked_sym(int(desc["dim"]), float(desc["s"]),
                                  float(desc["shift"]), int(desc["seed"]))
    except KeyError as exc:
        raise ValueError(f"descriptor for kind={kind!r} missing field {exc}") from exc
    raise ValueError(f"unknown instance kind {kind!r}")
