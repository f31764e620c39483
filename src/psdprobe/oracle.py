"""Query-counted access to hidden symmetric matrices, plus instance generators.

The testers in this package never touch matrix entries directly.  They go
through one counted operator class, ``SymmetricOperator``, which hides a
symmetric matrix, held dense or as its diagonal, behind two query types.
Every query is charged through its one ``_charge`` method.  Scalar queries:

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

A compressed handle serves the Oja descent (``vmv_testers._descend``) on
the form B = G^T A G of a (dim, m) map G fixed before any answer is read
(B = A when G is None), along directions that were all fixed before any
answer is read.  Step j of that descent reads two vmv queries,
t_j = u_j^T B u_j and s_j = u_j^T B x_{j-1}, where x_{j-1} has moved from a
start y along u_1 .. u_{j-1} only; so every answer of every step is a
linear function of the products below, and the descent solves its steps
from them:

  * compressed(G)          -> a handle on B (no charge; G, when given, is
                              checked like any block and copied)
  * comp.form()            -> forms B once, uncounted, when m < dim; a
                              no-op otherwise, so B is never larger than A
  * comp.lift(x)           -> G x, the vector of A's space x stands for
                              (x itself when G is None)
  * comp.directions(U)     -> a handle on the columns u_j of an (m, n) U
                              (no charge; the simulator forms U^T B from B
                              once it is formed, (G U)^T A before)
  * handle.gram()          -> U^T B U                  (no charge)
  * handle.against(y)      -> U^T B y                  (no charge)
  * handle.charge_steps(k) -> charges A the two ``vmv`` queries
                              (G u_j)^T A (G u_j) and (G u_j)^T A (G x_{j-1})
                              of each of the next k steps, at most one step
                              per direction

A query with a wrongly shaped vector or block raises ValueError before it
is charged.  Block queries, ``compressed`` and ``directions`` also reject
non-finite blocks; scalar queries and ``against`` pass non-finite values
through, so a diverging caller sees its own non-finite values.

Ground-truth helpers (``dense``, ``eigenvalues``) bypass the counters and
are reserved for tests and for the experiment harness, which labels every
instance from ``eigenvalues``: a diagonal backing's sorted entries, or
``eigvalsh`` of a dense one.

Generators build Wishart matrices and spiked asymmetric embeddings, which
``harness.instance_operator`` uses, and Haar-rotated diagonal spectra,
which only tests use (the harness builds every spectrum as a diagonal).
All randomness comes from explicitly seeded counter-based Philox streams; there
is no module-level RNG state anywhere in this package.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

__all__ = [
    "MAX_DENSE_DIM",
    "Compression",
    "DirectionBlock",
    "SymmetricOperator",
    "SpectrumInstance",
    "rng_from",
    "gen_rotated_diag",
    "gen_wishart",
    "gen_spiked_sym",
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


class SymmetricOperator:
    """A hidden symmetric matrix reachable only through counted queries.

    The backing is a square matrix, held dense (at most ``MAX_DENSE_DIM``
    rows), or a vector lam, held as itself and standing for diag(lam).
    Every query, scalar or block, and every step charged on a direction
    handle is charged through ``_charge``, the one place the counters are
    written, and every answer is read from ``_product``, the one product
    with the backing.
    Scalar queries check that their vectors have shape (dim,) and block
    queries that their blocks are (dim, n) and finite, both before any
    charge.  Operators are not thread-safe: the counters are plain
    integers, so use one operator per tester and never share one between
    concurrent testers.
    """

    def __init__(self, backing: np.ndarray, *, validate: bool = True):
        a = np.array(backing, dtype=float, copy=True)
        if not (a.ndim == 1 or a.ndim == 2 and a.shape[0] == a.shape[1]):
            raise ValueError(f"operator backing must be a vector or a square "
                             f"matrix, got shape {a.shape}")
        if a.shape[0] == 0:
            raise ValueError("operator backing is empty (dim 0)")
        if a.ndim == 2 and a.shape[0] > MAX_DENSE_DIM:
            raise ValueError(
                f"dense backing capped at {MAX_DENSE_DIM}, got dim {a.shape[0]}")
        if not np.isfinite(a).all():
            raise ValueError("operator backing holds non-finite entries")
        if a.ndim == 2 and validate:
            scale = max(float(np.abs(a).max()), 1.0)
            asym = float(np.abs(a - a.T).max())
            if asym > 1e-9 * scale:
                raise ValueError(f"backing not symmetric (max asym {asym:.3e})")
        if a.ndim == 2:
            # Exact symmetry from here on; generators may hand us tiny float
            # skew.  Halving first keeps entries near the float maximum finite.
            a *= 0.5
            a = a + a.T
        self._a = a
        self._dim = a.shape[0]
        self._mv = 0
        self._vmv = 0
        self._eigs: Optional[np.ndarray] = None

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
        self._mv += mv
        self._vmv += vmv

    def _product(self, v: np.ndarray, *, left: bool = False) -> np.ndarray:
        """A v for a (dim,) vector or (dim, n) block v, or v^T A when ``left``.

        A diagonal backing answers bit for bit as the dense diag(lam) does:
        C-ordered, as a BLAS product is, so later products sum in the same
        order, and +0.0 where lam_i v_i is zero, as a BLAS sum of zeros is.
        """
        if self._a.ndim == 2:
            return v.T @ self._a if left else self._a @ v
        lam = self._a if left or v.ndim == 1 else self._a[:, None]
        out = np.multiply(v.T if left else v, lam, order="C")
        out += 0.0  # -0.0 + 0.0 is +0.0; every other entry keeps its bits
        return out

    def _vector(self, v, name: str) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self._dim,):
            raise ValueError(f"{name} expects shape ({self._dim},), got {v.shape}")
        return v

    def mat_vec(self, v: np.ndarray) -> np.ndarray:
        """One mv query: the full vector A @ v."""
        v = self._vector(v, "mat_vec")
        self._charge(1, 0)
        return self._product(v)

    def bilinear(self, x: np.ndarray, y: np.ndarray) -> float:
        """One vmv query: the scalar x^T A y."""
        x = self._vector(x, "bilinear")
        y = self._vector(y, "bilinear")
        self._charge(0, 1)
        return float(x @ self._product(y))

    def quad_form(self, x: np.ndarray) -> float:
        """One vmv query: the scalar x^T A x."""
        x = self._vector(x, "quad_form")
        self._charge(0, 1)
        return float(x @ self._product(x))

    def mat_vecs(self, v) -> np.ndarray:
        """A V, one ``mv`` query per column of V."""
        v = _checked_block(v, self._dim, "mat_vecs")
        self._charge(v.shape[1], 0)
        return self._product(v)

    def bilinear_block(self, x, y) -> np.ndarray:
        """X^T A Y, one ``vmv`` query per entry of the result."""
        x = _checked_block(x, self._dim, "bilinear_block")
        y = _checked_block(y, self._dim, "bilinear_block")
        self._charge(0, x.shape[1] * y.shape[1])
        return x.T @ self._product(y)

    def sym_block(self, g) -> np.ndarray:
        """G^T A G, one ``vmv`` query per entry on or above the diagonal.

        The lower triangle is a mirror of the upper one, so the result is
        exactly symmetric.
        """
        g = _checked_block(g, self._dim, "sym_block")
        k = g.shape[1]
        self._charge(0, k * (k + 1) // 2)
        upper = np.triu(g.T @ self._product(g))
        return upper + np.triu(upper, 1).T

    def quad_forms(self, x, y=None) -> np.ndarray:
        """Column-wise x_j^T A y_j (y defaults to x), one ``vmv`` per column."""
        x = _checked_block(x, self._dim, "quad_forms")
        if y is None:
            y = x
        else:
            y = _checked_block(y, self._dim, "quad_forms")
            if y.shape != x.shape:
                raise ValueError(f"quad_forms blocks differ in shape: "
                                 f"{x.shape} vs {y.shape}")
        self._charge(0, x.shape[1])
        return np.einsum("ij,ij->j", x, self._product(y))

    def compressed(self, g) -> "Compression":
        """Handle on B = G^T A G for a (dim, m) map G, or on A itself when G
        is None; see ``Compression``."""
        return Compression(self, g)

    # -- uncounted ground-truth access -------------------------------------

    def dense(self) -> np.ndarray:
        """Copy of the hidden matrix (diag(lam) for a vector backing)."""
        return np.diag(self._a) if self._a.ndim == 1 else self._a.copy()

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues: a diagonal backing's entries sorted, or
        ``eigvalsh`` of a dense one (uncounted; cached, copied)."""
        if self._eigs is None:
            self._eigs = (np.sort(self._a) if self._a.ndim == 1
                          else np.linalg.eigvalsh(self._a))
        return self._eigs.copy()

    def __repr__(self) -> str:
        return (f"SymmetricOperator(dim={self._dim}, mv={self._mv}, "
                f"vmv={self._vmv})")


def _checked_block(b, rows: int, name: str) -> np.ndarray:
    """b as a float (rows, n) array; ValueError when misshaped or non-finite."""
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] != rows:
        raise ValueError(f"{name} expects a ({rows}, n) block, "
                         f"got shape {b.shape}")
    if not np.isfinite(b).all():
        raise ValueError(f"{name} block holds non-finite entries")
    return b


class Compression:
    """The m x m form B = G^T A G of an operator A, for the Oja descent.

    Built by ``SymmetricOperator.compressed``, which checks G like any
    block and keeps its own copy, so mutating G later changes no answer;
    G None means A itself, with m = dim.  ``form`` forms B once, uncounted,
    and symmetrizes it the way the backing is, but only when m < dim: B is
    then smaller than A.  Until it is formed, a direction handle on U reads
    its products on A at the images G U.  Building the handle and forming
    B charge nothing.  G is fixed before any answer is read and B depends
    on nothing else, so forming it reveals nothing a reader could not get
    from the same reads asked on A at images under G, and every step is
    charged to A as those queries.
    """

    def __init__(self, owner: SymmetricOperator, g):
        self.owner = owner
        self._g = (None if g is None
                   else np.array(_checked_block(g, owner.dim, "compressed")))
        self.dim = owner.dim if g is None else self._g.shape[1]
        self._b: Optional[np.ndarray] = None

    @property
    def formed(self) -> bool:
        """Whether B has been formed (by an earlier ``form`` call)."""
        return self._b is not None

    def form(self) -> None:
        """Form B, uncounted, unless it is formed already or m >= dim."""
        if self._b is None and self.dim < self.owner.dim:
            b = self._g.T @ self.owner._product(self._g)
            b *= 0.5
            self._b = b + b.T

    def lift(self, x: np.ndarray) -> np.ndarray:
        """G x, the vector of A's space that the m-space x stands for (x
        itself without G)."""
        return x if self._g is None else self._g @ x

    def directions(self, u) -> "DirectionBlock":
        """Descent handle on the columns of an (m, n) U, with B in A's place.

        U is checked like any block; each step charged on the returned
        handle costs A two ``vmv``.
        """
        u = _checked_block(u, self.dim, "directions")
        if self._b is not None:
            return DirectionBlock(self.owner, u.T @ self._b, u, None)
        images = self.lift(u)
        uta = self.owner._product(images, left=True)
        return DirectionBlock(self.owner, uta, images, self._g)


class DirectionBlock:
    """Fixed directions u_j of B's space, for one descent sweep.

    Built by ``Compression.directions`` from ``uta``, the rows w_j^T M of
    the images w_j of the u_j (w_j = u_j and M = B once B is formed,
    w_j = G u_j and M = A before), and ``g``, the G that maps B's space to
    M's (None when M is B).  ``gram`` and ``against`` hand the descent the
    products it solves its steps from, uncounted; the descent pays for the
    steps it takes through ``charge_steps``, two ``vmv`` per step, and never
    for more steps than the handle has directions.  ``against`` checks that
    y is an array of B's dimension; it leaves y's finiteness unchecked, so
    a diverging descent sees its own non-finite values.  The handle keeps
    no reference to U, so mutating U later changes no answer.
    """

    def __init__(self, owner: SymmetricOperator, uta: np.ndarray,
                 images: np.ndarray, g: Optional[np.ndarray]):
        self._owner = owner
        self._uta = uta
        self._g = g
        self._gram = uta @ images
        self._gram.flags.writeable = False
        self._steps_left = images.shape[1]
        self._y_shape = (images.shape[0] if g is None else g.shape[1],)

    def gram(self) -> np.ndarray:
        """The read-only (n, n) matrix of u_i^T B u_j, entry (i, j)."""
        return self._gram

    def against(self, y: np.ndarray) -> np.ndarray:
        """u_j^T B y for every direction j, answered as (W^T M) (G y), with
        G y read as y when M is B."""
        if getattr(y, "shape", None) != self._y_shape:
            raise ValueError(f"against expects an array of shape "
                             f"{self._y_shape}, got {np.shape(y)}")
        return self._uta @ (y if self._g is None else self._g @ y)

    def charge_steps(self, steps: int) -> None:
        """Charge the two vmv reads, t_j and s_j, of ``steps`` more steps."""
        if not 0 <= steps <= self._steps_left:
            raise ValueError(f"cannot charge {steps} steps on a handle with "
                             f"{self._steps_left} directions left")
        self._steps_left -= steps
        self._owner._charge(0, 2 * steps)


@dataclass(frozen=True)
class SpectrumInstance:
    """A target spectrum plus the seed of the Haar rotation that hides it."""

    eigenvalues: tuple
    rotation_seed: int

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues",
                           tuple(float(v) for v in self.eigenvalues))
        object.__setattr__(self, "rotation_seed", int(self.rotation_seed))
        if len(self.eigenvalues) == 0:
            raise ValueError("empty spectrum")


@functools.lru_cache(maxsize=4)
def _haar_orthogonal(d: int, rotation_seed: int) -> np.ndarray:
    """The seeded Haar orthogonal d x d matrix, memoized and read-only.

    QR of a Gaussian matrix is Haar only after fixing the signs of R's
    diagonal; without the correction the distribution is biased (Mezzadri,
    Notices AMS 2007).  The Gaussian dies with the QR call and the signs are
    fixed in place, so the factorization sets the peak memory.
    """
    q, r = np.linalg.qr(rng_from(rotation_seed, 0x0ACE).standard_normal((d, d)))
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q *= signs
    q.flags.writeable = False
    return q


def gen_rotated_diag(instance: SpectrumInstance) -> SymmetricOperator:
    """Hide a prescribed spectrum inside a Haar-rotated dense matrix.

    Tests use it to check that every tester reads a rotated spectrum as it
    reads the harness's diagonal one.  Every spectrum built with one
    rotation seed at one d shares one memoized Q, so only the first pays
    the QR.  An isotropic spectrum commutes with any rotation, so that case
    returns the exact scaled identity rather than a numerically rotated
    copy.
    """
    lam = np.array(instance.eigenvalues, dtype=float)
    d = lam.size
    if d > MAX_DENSE_DIM:
        raise ValueError(f"spectrum length {d} exceeds dense cap {MAX_DENSE_DIM}")
    if np.ptp(lam) == 0.0:
        a = np.eye(d) * lam[0]
    else:
        s = _haar_orthogonal(d, instance.rotation_seed)
        a = (s.T * lam) @ s
    return SymmetricOperator(a, validate=False)


def gen_wishart(d: int, seed: int) -> SymmetricOperator:
    """PSD Wishart instance W = X X^T with X entries i.i.d. N(0, 1/d)."""
    rng = rng_from(seed, 0x0B15)
    x = rng.standard_normal((d, d)) / np.sqrt(d)
    return SymmetricOperator(x @ x.T, validate=False)


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
    return SymmetricOperator(a, validate=False)
