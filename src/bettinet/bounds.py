"""Closed-form upper bounds on per-layer Betti numbers of dense classifiers.

All arithmetic is exact over Python's arbitrary-precision integers: the
ReLU bounds grow like 3 to the sum of the hidden widths, far past any
machine word.  Empty sums are 0 and C(a, b) = 0 for b > a or b < 0, which
keeps the 2-class formulas well-defined.

Layer indexing: an architecture with widths [n_0, ..., n_l] has l affine
maps; layer i holds the inputs of affine map i (layer 0 is the data).  The
polynomial-activation bound is defined for 0 <= i <= l-1, the ReLU bound
for 1 <= i <= l-1.  With n = n_l classes, both bounds on b_k at layer i
build on the class sum

    A(s) = sum over p = 0..min(k, n-2) of C(n-1, p+1)(3^(s+n-2-p) - 1).

The ReLU bound is A(n_i + ... + n_(l-1)), a width sum without the class
count.  The polynomial bound, degree r, is A(0) + [k >= n-2], times
Milnor's factor d(2d-1)^(n_i - 1) with d = r(l-i-1) below layer l-1 (on
layer l-1 the logits are affine in the layer variables).  Both are
nondecreasing in n_i, as 3^(n_i) and (2d-1)^(n_i) are, so ``min_width_for``
binary-searches the free width.

Everything here is a pure function of immutable inputs and safe to
evaluate in parallel.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import combinations


__all__ = [
    "Activation",
    "ArchitectureSpec",
    "BoundReport",
    "WrongActivationError",
    "UnreachableTargetError",
    "binomial",
    "poly_layer_bound",
    "relu_layer_bound",
    "basu_bound",
    "milnor_bound",
    "mayer_vietoris_bound",
    "layer_bound_profile",
    "min_width_for",
    "log10_of_int",
]


class WrongActivationError(ValueError):
    """Bound formula applied to an architecture with the other activation."""


class UnreachableTargetError(ValueError):
    """No width up to the cap reaches the requested bound target."""

    def __init__(self, message: str, bound_at_cap: int, cap: int):
        super().__init__(message)
        self.bound_at_cap = bound_at_cap
        self.cap = cap


@dataclass(frozen=True)
class Activation:
    kind: str  # "relu" or "poly"
    degree: int = 1

    def __post_init__(self):
        if self.kind not in ("relu", "poly"):
            raise ValueError(f"unknown activation kind {self.kind!r}")
        if self.kind == "poly" and self.degree < 1:
            raise ValueError("polynomial degree must be >= 1")


@dataclass(frozen=True)
class ArchitectureSpec:
    """Dense classifier shape: widths n_0..n_l, n_l = class count."""

    widths: tuple[int, ...]
    activation: Activation

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if len(self.widths) < 2:
            raise ValueError("need at least input and output widths")
        if any(w < 1 for w in self.widths):
            raise ValueError("all widths must be >= 1")
        if self.widths[-1] < 2:
            raise ValueError("class count must be >= 2")

    @property
    def depth(self) -> int:
        """Number of affine maps l."""
        return len(self.widths) - 1

    @property
    def classes(self) -> int:
        return self.widths[-1]

    @property
    def non_increasing(self) -> bool:
        return all(a >= b for a, b in zip(self.widths, self.widths[1:]))


def binomial(a: int, b: int) -> int:
    """C(a, b), zero outside 0 <= b <= a."""
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def log10_of_int(x: int) -> float:
    """log10 of a nonnegative integer of any size; -inf for zero."""
    if x < 0:
        raise ValueError("negative count")
    if x == 0:
        return float("-inf")
    s = str(x)
    head = int(s[:15])
    return (len(s) - 15) + math.log10(head) if len(s) > 15 else math.log10(x)


def _layers(arch: ArchitectureSpec) -> range:
    """The layers with a bound: 1..l-1 for ReLU, 0..l-1 for a polynomial."""
    if arch.activation.kind == "relu" and arch.depth < 2:
        raise ValueError("a ReLU bound needs a hidden layer")
    return range(1 if arch.activation.kind == "relu" else 0, arch.depth)


def _check_layer(arch: ArchitectureSpec, layer: int):
    if layer not in _layers(arch):
        raise ValueError(f"layer must be in {_layers(arch).start}..{arch.depth - 1}, got {layer}")


def _check_bound_args(arch: ArchitectureSpec, kind: str, k: int, layer: int):
    """The checks of a layer bound of activation ``kind``; the warning
    names the bound's caller."""
    if arch.activation.kind != kind:
        name = {"relu": "ReLU", "poly": "polynomial"}[kind]
        raise WrongActivationError(f"{name} bound requires a {name}-activation architecture")
    _check_layer(arch, layer)
    if k < 0:
        raise ValueError("homology dimension must be >= 0")
    if not arch.non_increasing:
        warnings.warn(
            "bound formulas assume a non-increasing architecture; "
            f"widths {arch.widths} violate it and the value is only heuristic",
            stacklevel=3,
        )


def _class_sum(n: int, k: int, s: int) -> int:
    """Sum over p = 0..min(k, n-2) of C(n-1, p+1)(3^(s+n-2-p) - 1)."""
    return sum(binomial(n - 1, p + 1) * (3 ** (s + n - 2 - p) - 1) for p in range(min(k, n - 2) + 1))


def poly_layer_bound(arch: ArchitectureSpec, k: int, layer: int) -> int:
    """Upper bound on the k-th Betti number of the layer-``layer`` class
    pre-image closure, polynomial activation (formula in the module
    docstring)."""
    _check_bound_args(arch, "poly", k, layer)
    n, l = arch.classes, arch.depth
    # for k >= n-2 the formula sums p = 0..n-3 and adds 1; the p = n-2 term is 0
    base = _class_sum(n, k, 0) + (k >= n - 2)
    if layer == l - 1:
        return base
    return base * milnor_bound(arch.widths[layer], arch.activation.degree * (l - layer - 1))


def relu_layer_bound(arch: ArchitectureSpec, k: int, layer: int) -> int:
    """Upper bound on the k-th Betti number of the layer-``layer`` class
    pre-image closure, ReLU activation (formula in the module docstring)."""
    _check_bound_args(arch, "relu", k, layer)
    return _class_sum(arch.classes, k, sum(arch.widths[layer : arch.depth]))


def basu_bound(n_ineq: int, d: int, k: int) -> int:
    """Betti bound for a set cut out by n_ineq polynomial inequalities of
    degree <= d inside a degree-<= d variety in k variables: (3^n - 1)
    times ``milnor_bound(k, d)``."""
    if n_ineq < 1 or d < 1 or k < 1:
        raise ValueError("need n_ineq >= 1, d >= 1, k >= 1")
    return (3 ** n_ineq - 1) * milnor_bound(k, d)


def milnor_bound(k: int, d: int) -> int:
    """Maximum total Betti number of an algebraic set defined by degree-d
    polynomials in k variables: d (2d - 1)^(k-1)."""
    if k < 1 or d < 1:
        raise ValueError("need k >= 1, d >= 1")
    return d * (2 * d - 1) ** (k - 1)


def mayer_vietoris_bound(cover_betti: dict[frozenset, list[int]], k: int) -> int:
    """Union bound from a cover's intersection Betti numbers:
    sum over i + j = k of sum over |J| = j+1 of b_i(S_J).

    ``cover_betti`` maps index subsets J (any frozenset-able iterable) to
    per-dimension Betti lists.  Subsets of a required size that are absent
    are treated as empty (0) with a warning.
    """
    if k < 0:
        raise ValueError("homology dimension must be >= 0")
    table = {frozenset(key): list(val) for key, val in cover_betti.items()}
    indices = sorted({i for key in table for i in key})
    total = 0
    warned_missing = False
    for j in range(k + 1):
        i = k - j
        size = j + 1
        for subset in combinations(indices, size):
            bettis = table.get(frozenset(subset))
            if bettis is None:
                warned_missing = True
                continue
            if i < len(bettis):
                total += int(bettis[i])
    if warned_missing:
        warnings.warn("cover table is missing some index subsets; treated as empty", stacklevel=2)
    return total


@dataclass(frozen=True)
class BoundReport:
    """Per-layer bound table for one homology dimension."""

    arch: ArchitectureSpec
    k: int
    entries: dict[int, int]  # layer -> exact bound

    @property
    def non_increasing_in_layer(self) -> bool:
        vals = [self.entries[layer] for layer in sorted(self.entries)]
        return all(a >= b for a, b in zip(vals, vals[1:]))

    def records(self) -> list[str]:
        """Machine-readable lines ``layer,k,bound_exact,bound_log10``."""
        out = []
        for layer in sorted(self.entries):
            val = self.entries[layer]
            out.append(f"{layer},{self.k},{val},{log10_of_int(val):.6g}")
        return out

    def to_text(self) -> str:
        rows = [("layer", "k", "bound", "log10")]
        for layer in sorted(self.entries):
            val = self.entries[layer]
            shown = str(val) if val < 10**40 else f"~10^{log10_of_int(val):.3f}"
            rows.append((str(layer), str(self.k), shown, f"{log10_of_int(val):.4g}"))
        widths = [max(len(r[c]) for r in rows) for c in range(4)]
        lines = ["  ".join(r[c].rjust(widths[c]) for c in range(4)) for r in rows]
        note = "non-increasing across layers" if self.non_increasing_in_layer else "NOT monotone across layers"
        lines.append(f"# {note}")
        return "\n".join(lines) + "\n"


def _bound(arch: ArchitectureSpec, k: int, layer: int) -> int:
    """The layer bound of the architecture's activation."""
    bound = relu_layer_bound if arch.activation.kind == "relu" else poly_layer_bound
    return bound(arch, k, layer)


def layer_bound_profile(arch: ArchitectureSpec, k: int) -> BoundReport:
    """Bound for every admissible layer of the architecture."""
    return BoundReport(arch=arch, k=k, entries={i: _bound(arch, k, i) for i in _layers(arch)})


def _bound_with_width(arch: ArchitectureSpec, layer: int, k: int, width: int) -> int:
    widths = list(arch.widths)
    widths[layer] = width
    probe = ArchitectureSpec(widths=tuple(widths), activation=arch.activation)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return _bound(probe, k, layer)


def min_width_for(
    arch_template: ArchitectureSpec,
    layer: int,
    k: int,
    target: int,
    cap: int = 4096,
) -> int:
    """Smallest width at ``layer`` whose layer bound reaches ``target``.

    Both bounds are nondecreasing in the free width (see the module
    docstring), so a binary search over 1..cap finds it.  Raises
    UnreachableTargetError (carrying the bound at the cap) if the cap is
    insufficient.
    """
    if target < 0:
        raise ValueError("target must be nonnegative")
    _check_layer(arch_template, layer)
    at_cap = _bound_with_width(arch_template, layer, k, cap)
    if at_cap < target:
        raise UnreachableTargetError(
            f"target {target} unreachable with width cap {cap}: bound at cap is {at_cap}",
            bound_at_cap=at_cap,
            cap=cap,
        )
    lo, hi = 1, cap
    while lo < hi:
        mid = (lo + hi) // 2
        if _bound_with_width(arch_template, layer, k, mid) >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo
