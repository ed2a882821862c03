"""Decision-boundary covers of dense classifiers as semi-algebraic sets.

Two constructions:

* polynomial activation: exact symbolic composition of the layer maps into
  per-class logit polynomials, the equality/inequality cover pieces they
  induce, and the degree witness check;
* ReLU activation: a boundary piece as one affine map of free variables u
  onto the target layer, X = particular + basis @ u, found by solving the
  class-tie system on the last layer and back-substituting layer by layer,
  and one constraint system C u + c >= 0 on u.  Its rows keep every
  traversed pre-activation nonnegative (there ReLU is the identity, so the
  map is exact) and class j on top of every class it does not tie with.

Batch norm in inference mode is an affine map and is folded into the layer
affines, so both constructions agree with the network's own forward pass.

All operations are pure; solving or sampling for different class/index
pairs may run in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .mlp import Network, forward

__all__ = [
    "MultiPoly",
    "CoverDescriptor",
    "AffineSolution",
    "BoundaryPoint",
    "SamplingResult",
    "DegreeCheck",
    "CompositionCapError",
    "RankDeficiencyError",
    "compose_logit_polynomials",
    "poly_cover",
    "cover_descriptor",
    "degree_bound_check",
    "solve_relu_boundary",
    "sample_boundary",
    "verify_ambiguity",
    "cover_report",
]

RANK_TOLERANCE = 1e-8
POSITIVITY_TOLERANCE = 1e-9
# caps of ``compose_logit_polynomials``: the widest layer it composes
# through, the most affine maps, and the most monomials stored at once
WIDTH_CAP = 3
DEPTH_CAP = 4
MONOMIAL_CAP = 200_000


class CompositionCapError(ValueError):
    """Symbolic composition would exceed a size cap (``WIDTH_CAP``,
    ``DEPTH_CAP`` or ``MONOMIAL_CAP``)."""

    def __init__(self, message: str, monomial_count: int):
        super().__init__(message)
        self.monomial_count = monomial_count


class RankDeficiencyError(ValueError):
    """A pivot block is numerically singular; the construction assumes full
    row rank of every weight matrix."""

    def __init__(self, message: str, layer: int):
        super().__init__(message)
        self.layer = layer


# ---------------------------------------------------------------------------
# sparse multivariate polynomials
# ---------------------------------------------------------------------------


class MultiPoly:
    """Sparse polynomial: exponent tuple -> float coefficient.

    Exponent bookkeeping is exact; coefficients are doubles.  Zero
    coefficients are never stored.
    """

    __slots__ = ("n_vars", "terms")

    def __init__(self, n_vars: int, terms: Optional[dict[tuple[int, ...], float]] = None):
        self.n_vars = n_vars
        self.terms = {}
        if terms:
            for exp, coeff in terms.items():
                if coeff != 0.0:
                    self.terms[tuple(exp)] = float(coeff)

    @classmethod
    def zero(cls, n_vars: int) -> "MultiPoly":
        return cls(n_vars)

    @classmethod
    def constant(cls, n_vars: int, value: float) -> "MultiPoly":
        return cls(n_vars, {(0,) * n_vars: value})

    @classmethod
    def variable(cls, n_vars: int, index: int) -> "MultiPoly":
        exp = [0] * n_vars
        exp[index] = 1
        return cls(n_vars, {tuple(exp): 1.0})

    @property
    def degree(self) -> int:
        """Total degree; the zero polynomial reports 0."""
        return max((sum(e) for e in self.terms), default=0)

    def __len__(self) -> int:
        return len(self.terms)

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = MultiPoly.constant(self.n_vars, float(other))
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            new = out.get(exp, 0.0) + coeff
            if new == 0.0:
                out.pop(exp, None)
            else:
                out[exp] = new
        return MultiPoly(self.n_vars, out)

    def __sub__(self, other):
        return self + (other * -1.0)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            if other == 0.0:
                return MultiPoly.zero(self.n_vars)
            return MultiPoly(self.n_vars, {e: c * float(other) for e, c in self.terms.items()})
        out: dict[tuple[int, ...], float] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                new = out.get(exp, 0.0) + c1 * c2
                if new == 0.0:
                    out.pop(exp, None)
                else:
                    out[exp] = new
        return MultiPoly(self.n_vars, out)

    __rmul__ = __mul__

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at rows of ``points`` ((m, n_vars) -> (m,))."""
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        out = np.zeros(len(pts))
        for exp, coeff in self.terms.items():
            mono = np.ones(len(pts))
            for v, e in enumerate(exp):
                if e:
                    mono *= pts[:, v] ** e
            out += coeff * mono
        return out

    def __repr__(self):
        return f"MultiPoly({self.n_vars} vars, {len(self.terms)} terms, deg {self.degree})"


def _poly_of_activation(coeffs: Sequence[float], p: MultiPoly) -> MultiPoly:
    """Horner evaluation of the activation polynomial at a MultiPoly."""
    result = MultiPoly.constant(p.n_vars, float(coeffs[-1]))
    for c in reversed(coeffs[:-1]):
        result = result * p + float(c)
    return result


def _block_affines(net: Network):
    """Per hidden block: the raw affine (w, b) feeding the activation and
    the inference batch-norm affine (d, e) applied after it, identity when
    the block has no batch norm.  The block map is x -> d * act(w x + b) + e.
    """
    out = []
    for block in net.hidden:
        w, b = block.dense.weight, block.dense.bias
        if block.norm is not None:
            d = block.norm.gamma / np.sqrt(block.norm.running_var + block.norm.eps)
            e = block.norm.beta - d * block.norm.running_mean
        else:
            d = np.ones(w.shape[0])
            e = np.zeros(w.shape[0])
        out.append((w, b, d, e))
    return out


def compose_logit_polynomials(net: Network, from_layer: int = 0) -> list[MultiPoly]:
    """Exact symbolic logits of a polynomial-activation network as
    polynomials in the layer-``from_layer`` coordinates.

    Guarded against monomial explosion: widths above ``WIDTH_CAP``, more
    than ``DEPTH_CAP`` affine maps, or more than ``MONOMIAL_CAP`` stored
    monomials raise CompositionCapError naming the monomial count.
    """
    if net.activation.kind != "poly":
        raise ValueError("symbolic composition requires a polynomial activation")
    widths = net.widths
    if not 0 <= from_layer <= net.depth - 1:
        raise ValueError(f"from_layer must be in 0..{net.depth - 1}")
    span = widths[from_layer:]
    if max(span[:-1]) > WIDTH_CAP:
        raise CompositionCapError(
            f"widths {span} exceed the cap {WIDTH_CAP}", monomial_count=0
        )
    if len(span) - 1 > DEPTH_CAP:
        raise CompositionCapError(
            f"{len(span) - 1} affine maps exceed the depth cap {DEPTH_CAP}", monomial_count=0
        )

    n_vars = widths[from_layer]
    polys = [MultiPoly.variable(n_vars, i) for i in range(n_vars)]
    coeffs = net.activation.coeffs

    def affine(ps: list[MultiPoly], w: np.ndarray, b: np.ndarray) -> list[MultiPoly]:
        out = []
        for row in range(w.shape[0]):
            acc = MultiPoly.constant(n_vars, float(b[row]))
            for col in range(w.shape[1]):
                if w[row, col] != 0.0:
                    acc = acc + ps[col] * float(w[row, col])
            out.append(acc)
        total = sum(len(p) for p in out)
        if total > MONOMIAL_CAP:
            raise CompositionCapError(
                f"composition grew to {total} monomials (cap {MONOMIAL_CAP})",
                monomial_count=total,
            )
        return out

    for w, b, d, e in _block_affines(net)[from_layer:]:
        polys = affine(polys, w, b)
        polys = [_poly_of_activation(coeffs, p) for p in polys]
        polys = [p * float(dv) + float(ev) for p, dv, ev in zip(polys, d, e)]
    return affine(polys, net.output.weight, net.output.bias)


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverDescriptor:
    """One boundary piece of class j: logit ties with the indices in
    ``alphas`` (equalities) and dominates every other class (inequalities).
    Equality plus inequality counts always total n-1."""

    class_j: int
    alphas: tuple[int, ...]
    equalities: tuple[MultiPoly, ...]
    inequalities: tuple[MultiPoly, ...]


def _tie_classes(class_j: int, alphas: Iterable[int], n: int):
    """Checked, sorted ``alphas`` and the other classes, which class j must dominate."""
    if not 0 <= class_j < n:
        raise ValueError(f"class_j must be in 0..{n - 1}, got {class_j}")
    alphas = tuple(sorted(set(int(a) for a in alphas)))
    if class_j in alphas or not alphas or any(not 0 <= a < n for a in alphas):
        raise ValueError("alphas must be a nonempty set of class indices distinct from class_j")
    return alphas, [q for q in range(n) if q != class_j and q not in alphas]


def cover_descriptor(logits: Sequence[MultiPoly], class_j: int, alphas: Iterable[int]) -> CoverDescriptor:
    alphas, others = _tie_classes(class_j, alphas, len(logits))
    eqs = tuple(logits[class_j] - logits[a] for a in alphas)
    ineqs = tuple(logits[class_j] - logits[q] for q in others)
    return CoverDescriptor(class_j=class_j, alphas=alphas, equalities=eqs, inequalities=ineqs)


def poly_cover(logits: Sequence[MultiPoly], class_j: int) -> list[CoverDescriptor]:
    """The n-1 top-level cover pieces of the class-j boundary, one per
    rival class index."""
    n = len(logits)
    if n < 2:
        raise ValueError("need at least two classes")
    return [cover_descriptor(logits, class_j, (p,)) for p in range(n) if p != class_j]


@dataclass(frozen=True)
class DegreeCheck:
    ok: bool
    max_degree: int
    bound: int
    last_layer_flag: bool


def degree_bound_check(logits: Sequence[MultiPoly], r: int, depth: int, layer: int) -> DegreeCheck:
    """Compare the composed logit degrees against r * (depth - layer - 1).

    On the last layer the formula reads 0 while the affine logits have
    degree 1; that case is flagged instead of treated as a failure of the
    composition.
    """
    max_degree = max((p.degree for p in logits), default=0)
    bound = r * (depth - layer - 1)
    flagged = layer == depth - 1
    return DegreeCheck(ok=max_degree <= bound, max_degree=max_degree, bound=bound, last_layer_flag=flagged)


# ---------------------------------------------------------------------------
# ReLU boundary solve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineSolution:
    """One boundary piece, traced back to ``layer``: X^layer = particular +
    basis @ u, for the free vector u in the region where every row of
    constraint_matrix @ u + constraint_offset is nonnegative.  The rows
    keep each traversed ReLU on its identity branch, then class j on top
    of every class it does not tie with."""

    class_j: int
    alphas: tuple[int, ...]
    layer: int
    particular: np.ndarray
    basis: np.ndarray
    constraint_matrix: np.ndarray
    constraint_offset: np.ndarray

    @property
    def n_free(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class BoundaryPoint:
    layer: int
    coords: np.ndarray
    class_j: int
    alphas: tuple[int, ...]


@dataclass(frozen=True)
class SamplingResult:
    points: tuple[BoundaryPoint, ...]
    attempts: int

    @property
    def feasible(self) -> bool:
        return len(self.points) > 0


def _inverse_certifies(inv: np.ndarray) -> bool:
    """True when 1/||inv||_F, a lower bound on the smallest singular value
    of the block that ``inv`` inverts, is at least 2 * RANK_TOLERANCE.

    The bound holds for the exact inverse B^-1, since ||B^-1||_F >=
    ||B^-1||_2 = 1/sigma_min(B).  The computed inverse is off by about
    n * eps * cond(B) relative (Higham, *Accuracy and Stability of Numerical
    Algorithms*, chapter 14), and the SVD's smallest singular value by about
    eps * ||B||.  The factor 2 leaves room for both, so a certified block is
    one the SVD passes, unless cond(B) nears 1 / (n * eps) or ||B|| nears
    RANK_TOLERANCE / eps, where rounding alone decides either test.  The
    norm is taken of inv scaled to a largest entry of 1, which neither
    overflows nor warns; a non-finite inverse certifies nothing.
    """
    if not np.isfinite(inv).all():
        return False
    top = np.abs(inv).max(initial=0.0)
    return top > 0.0 and 2.0 * RANK_TOLERANCE * top * np.linalg.norm(inv / top) <= 1.0


def _pivot_columns(mat: np.ndarray, layer: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pivot/free column split by greedy column pivoting, and the inverse of
    the pivot block, which must be comfortably invertible.

    Each of ``rows`` steps takes the free column with the largest residual
    norm (the first one on a tie) and projects its direction out of every
    column.  On full-rank input this picks the pivot set of a
    column-pivoted QR (LAPACK ``dgeqp3``, Businger & Golub 1965); below
    full rank every block is singular, and the choice among rounding noise
    moves only the reported singular value.  The matrix is first scaled by
    the power of two that brings its largest entry near 1, which is exact
    and keeps the squared norms from overflowing or underflowing.

    The block is inverted once.  Its smallest singular value must be at
    least RANK_TOLERANCE; the inverse certifies that (``_inverse_certifies``)
    for all but nearly singular blocks, and only the others pay for an SVD,
    which decides and names the value in the RankDeficiencyError.
    """
    rows, cols = mat.shape
    if rows > cols:
        raise RankDeficiencyError(
            f"system at layer {layer} is overdetermined ({rows} equations, {cols} unknowns)",
            layer=layer,
        )
    r = np.ldexp(mat, -math.frexp(np.abs(mat).max(initial=0.0))[1])
    taken = np.zeros(cols, dtype=bool)
    for step in range(rows):
        norms = np.add.reduce(r * r, axis=0)
        norms[taken] = -1.0
        j = norms.argmax()
        taken[j] = True
        # a zero residual leaves nothing to project out; after the last
        # step nothing reads the residuals
        if norms[j] > 0 and step < rows - 1:
            q = r[:, j] / math.sqrt(norms[j])
            r -= q[:, None] * (q @ r)
    pivots = taken.nonzero()[0]
    block = mat[:, pivots]
    try:
        inv = np.linalg.inv(block)
    except np.linalg.LinAlgError:
        inv = None
    if rows and (inv is None or not _inverse_certifies(inv)):
        smallest_sv = np.linalg.svd(block, compute_uv=False)[-1]
        if smallest_sv < RANK_TOLERANCE:
            raise RankDeficiencyError(
                f"pivot block at layer {layer} is rank deficient "
                f"(smallest singular value {smallest_sv:.3e} < {RANK_TOLERANCE})",
                layer=layer,
            )
    if inv is None:
        # singular to the LU factorization only: fail as the inversion does
        inv = np.linalg.inv(block)
    return pivots, (~taken).nonzero()[0], inv


def _solve_affine_onto(
    mat: np.ndarray,
    rhs_part: np.ndarray,
    rhs_basis: np.ndarray,
    layer: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve mat @ x = rhs_part + rhs_basis @ u for x, introducing the
    non-pivot coordinates of x as new free variables appended to u.

    Returns (particular, basis) with x = particular + basis @ (u, new_free).
    """
    rows, cols = mat.shape
    old_free = rhs_basis.shape[1]
    pivots, free, inv = _pivot_columns(mat, layer)
    n_new = len(free)
    particular = np.zeros(cols)
    basis = np.zeros((cols, old_free + n_new))
    particular[pivots] = inv @ rhs_part
    basis[pivots, :old_free] = inv @ rhs_basis
    if n_new:
        basis[pivots, old_free:] = -inv @ mat[:, free]
        basis[free, old_free:] = np.eye(n_new)
    return particular, basis


def solve_relu_boundary(
    net: Network,
    class_j: int,
    alphas: Iterable[int],
    layer: int,
) -> AffineSolution:
    """Affine parameterization of the boundary piece where the class-j
    logit ties with the logits indexed by ``alphas``, traced back to
    ``layer``.

    The tie system on the last hidden layer uses the output weight-row and
    bias differences; each earlier layer is recovered by inverting the
    pivot block of its (batch-norm folded) affine map.  The constraint
    system holds one row per traversed pre-activation (equivalently, per
    layer output for batch-norm-free networks), keeping ReLU on its
    identity branch, from ``layer`` up, and then one row per class that
    class j must stay on top of.
    """
    if net.activation.kind != "relu":
        raise ValueError("boundary solve requires a ReLU network")
    alphas, others = _tie_classes(class_j, alphas, net.n_classes)
    depth = net.depth
    if not 1 <= layer <= depth - 1:
        raise ValueError(f"layer must be in 1..{depth - 1}, got {layer}")

    blocks = _block_affines(net)
    w_out, b_out = net.output.weight, net.output.bias

    tie_mat = w_out[class_j] - w_out[list(alphas)]
    tie_off = b_out[class_j] - b_out[list(alphas)]

    particular, basis = _solve_affine_onto(
        tie_mat, -tie_off, np.zeros((len(alphas), 0)), layer=depth - 1
    )
    solves = [(depth - 1, particular, basis)]  # ordered from layer l-1 down to ``layer``
    for k in range(depth - 2, layer - 1, -1):
        w, b, d, e = blocks[k]
        # on the identity branch of ReLU the block map is affine:
        # x -> d * (w x + b) + e
        particular, basis = _solve_affine_onto(d[:, None] * w, particular - (d * b + e), basis, layer=k)
        solves.append((k, particular, basis))

    # the last solve, ``layer``'s, spans every free variable
    n_free = basis.shape[1]
    rows, offsets = [], []
    has_norm = any(block.norm is not None for block in net.hidden)
    for k, x_part, x_basis in reversed(solves):
        # free variables introduced below a layer are zero columns of its basis
        x_basis = np.hstack([x_basis, np.zeros((len(x_basis), n_free - x_basis.shape[1]))])
        if not has_norm:
            rows.append(x_basis)
            offsets.append(x_part)
        elif k < depth - 1:
            # batch norm can shift layer outputs negative; the ReLU identity
            # regime is the nonnegativity of each pre-activation instead
            w, b, _, _ = blocks[k]
            rows.append(w @ x_basis)
            offsets.append(w @ x_part + b)
    # the loop ends on layer l-1, whose logits class j must keep on top
    for q in others:
        row = w_out[class_j] - w_out[q]
        rows.append(row @ x_basis)
        offsets.append(row @ x_part + (b_out[class_j] - b_out[q]))

    return AffineSolution(
        class_j=class_j,
        alphas=alphas,
        layer=layer,
        particular=particular,
        basis=basis,
        constraint_matrix=np.vstack(rows) if rows else np.zeros((0, n_free)),
        constraint_offset=np.hstack(offsets) if offsets else np.zeros(0),
    )


# Attempts are counted in batches of this many draws.
_BATCH = 256
# Most draws held at once after the first batch, a multiple of _BATCH: large
# budgets are drawn in blocks of this size.
_MAX_DRAW = 1 << 16


def _accepted(sol: AffineSolution, u: np.ndarray) -> np.ndarray:
    """Which rows of u keep every row of the constraint system at or above
    -POSITIVITY_TOLERANCE.

    The rows are tested _BATCH at a time in one stacked matmul: BLAS runs
    one small product per batch, the same product the batch-by-batch loop
    ran.  OpenBLAS splits one product over all the rows across threads once
    rows x constraint rows x free variables pass about half a million (for
    example 7744 x 12 x 6); on a two-core machine those calls took 1.7 to 16
    times as long, and now and then stalled for up to a second.
    """
    full = len(u) - len(u) % _BATCH
    mat, off = sol.constraint_matrix, sol.constraint_offset
    return np.concatenate([
        (part @ mat.T + off >= -POSITIVITY_TOLERANCE).all(axis=2).ravel()
        for part in (u[:full].reshape(full // _BATCH, _BATCH, u.shape[1]), u[None, full:])
    ])


def _box_infeasible(sol: AffineSolution, box: float) -> bool:
    """True when some row of the constraint system is below
    -POSITIVITY_TOLERANCE at every point of [0, box]^n_free, so that every
    draw fails it.

    The largest value of row (m, o) on the box is o + box * sum(max(m, 0)).
    A draw's computed value u @ m + o differs from the exact one by at most
    gamma_(n_free + 1) * (box * sum|m| + |o|), with gamma_k about k * eps / 2,
    whatever order the product sums in (Higham, *Accuracy and Stability of
    Numerical Algorithms*, section 3.1), and the bound computed here by as
    much again.  The margin, (n_free + 2) * 4 * eps * (box * sum|m| + |o|),
    is over four times their sum.  Draws are never above box, which must be
    positive and finite; any other box proves nothing.
    """
    if not 0.0 < box < np.inf:
        return False
    eps = np.finfo(np.float64).eps
    mat, off = sol.constraint_matrix, sol.constraint_offset
    top = off + box * np.maximum(mat, 0.0).sum(axis=1)
    margin = (sol.n_free + 2) * 4 * eps * (box * np.abs(mat).sum(axis=1) + np.abs(off))
    return bool(np.any(top + margin < -POSITIVITY_TOLERANCE))


def sample_boundary(
    sol: AffineSolution,
    count: int,
    box: float = 1.0,
    seed: int = 0,
    max_attempts: Optional[int] = None,
) -> SamplingResult:
    """Rejection-sample boundary points: free variables uniform in
    [0, box], kept when every row of the piece's constraint system is at
    least -1e-9.  The first ``count`` rows that pass, in draw order, become
    points; ``attempts`` counts the draws in whole batches of 256, up to the
    one holding the last point kept, or the whole budget when fewer than
    ``count`` pass.

    Finding nothing within the attempt budget is an infeasibility report,
    not an error; the region may genuinely be empty.  Before drawing, an
    interval bound checks each row's largest value over the box: when one
    row stays below the tolerance on the whole box (rounding included, see
    ``_box_infeasible``), every draw would fail it, so the region is
    reported empty after the whole budget without drawing.

    Otherwise one batch of 256 rows is drawn, and only when fewer than
    ``count`` of them pass is the rest of the budget drawn, in one more
    block (blocks of 65 536 rows past that).  This gives the same points
    and ``attempts`` as drawing and testing batch by batch: the generator
    yields the same stream however the draw is split, each row passes or
    fails on its own, and each point is computed from its own row.
    """
    if max_attempts is None:
        max_attempts = max(400 * count, 4000)
    rng = np.random.default_rng(seed)
    if count > 0 and max_attempts > 0 and _box_infeasible(sol, box):
        return SamplingResult(points=(), attempts=max_attempts)
    rows = np.zeros((0, sol.n_free))
    attempts = 0
    while attempts < max_attempts and len(rows) < count:
        m = min(_MAX_DRAW if attempts else _BATCH, max_attempts - attempts)
        u = rng.uniform(0.0, box, size=(m, sol.n_free))
        hits = np.flatnonzero(_accepted(sol, u))[: count - len(rows)]
        if len(rows) + len(hits) == count:
            # stop at the end of the batch that holds the last point kept
            m = min(m, (int(hits[-1]) // _BATCH + 1) * _BATCH)
        attempts += m
        rows = np.concatenate([rows, u[hits]])
    # one matrix-vector product per row, stacked: the 2-D rows @ basis.T
    # would be one matrix product, which BLAS may round differently
    coords = sol.particular + (sol.basis @ rows[:, :, None])[:, :, 0]
    points = tuple(
        BoundaryPoint(layer=sol.layer, coords=c, class_j=sol.class_j, alphas=sol.alphas)
        for c in coords
    )
    return SamplingResult(points=points, attempts=attempts)


def _worst_margins(net: Network, layer: int, class_j: int, alphas: Sequence[int],
                   coords: np.ndarray) -> np.ndarray:
    """The worst normalized margin of each row of ``coords``, a (P, n) array
    of points of one piece at ``layer``, as ``verify_ambiguity`` defines it.

    One forward of the (P, 1, n) stack gives every point the logits that a
    forward of the point alone gives, bit for bit (see ``mlp.forward``).
    """
    _, logits, _ = forward(net, coords[:, None, :], from_layer=layer)
    logits = logits[:, 0]
    scale = np.maximum(np.abs(logits).max(axis=1), 1e-12)[:, None]
    others = [q for q in range(net.n_classes) if q != class_j and q not in alphas]
    top = logits[:, class_j, None]
    margins = np.hstack([
        np.abs(top - logits[:, list(alphas)]) / scale,
        (logits[:, others] - top) / scale,
    ])
    # the largest margin, or 0 when none is positive; a NaN margin is skipped
    worst = np.fmax.reduce(margins, axis=1)
    return np.where(worst > 0.0, worst, 0.0)


def verify_ambiguity(net: Network, point: BoundaryPoint, tol: float = 1e-6) -> tuple[bool, float]:
    """Forward the point from its layer and check the logit ties.

    Passes when |logit_j - logit_a| <= tol * scale for every tied index
    and logit_j >= logit_q - tol * scale for every other class, with
    scale the largest |logit| (at least 1e-12).  Returns (ok, worst
    normalized margin), the worst margin 0 when every check holds with
    room.  This is the one-point case of the check ``cover_report`` runs
    on all of a piece's points in one forward.
    """
    coords = point.coords.reshape(1, -1)
    worst = float(_worst_margins(net, point.layer, point.class_j, point.alphas, coords)[0])
    return worst <= tol, worst


def cover_report(
    net: Network,
    layer: int,
    class_j: int,
    alpha_sets: Sequence[Iterable[int]],
    count: int = 20,
    box: float = 1.0,
    seed: int = 0,
    tol: float = 1e-6,
) -> str:
    """Plain-text cover verification: per (class, alpha-set) the equation
    count, free dimension, feasibility and worst forward-check margin."""
    lines = [f"boundary cover report: class {class_j}, layer {layer}"]
    for alphas in alpha_sets:
        alphas = tuple(sorted(set(int(a) for a in alphas)))
        tag = f"alphas={','.join(map(str, alphas))}"
        try:
            sol = solve_relu_boundary(net, class_j, alphas, layer)
        except RankDeficiencyError as exc:
            lines.append(f"{tag}: rank error at layer {exc.layer}: {exc}")
            continue
        result = sample_boundary(sol, count=count, box=box, seed=seed)
        if not result.feasible:
            lines.append(
                f"{tag}: equations={len(alphas)} free_dim={sol.n_free} "
                f"region empty after {result.attempts} attempts"
            )
            continue
        coords = np.stack([p.coords for p in result.points])
        margins = _worst_margins(net, layer, class_j, alphas, coords)
        n_ok = int(np.count_nonzero(margins <= tol))
        worst = float(margins.max())
        lines.append(
            f"{tag}: equations={len(alphas)} free_dim={sol.n_free} "
            f"points={len(result.points)} pass={n_ok}/{len(result.points)} "
            f"worst_margin={worst:.3e}"
        )
    return "\n".join(lines) + "\n"
