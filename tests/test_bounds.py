import math
import warnings
from functools import reduce

import numpy as np
import pytest

from bettinet.bounds import (
    Activation,
    ArchitectureSpec,
    UnreachableTargetError,
    WrongActivationError,
    basu_bound,
    binomial,
    layer_bound_profile,
    log10_of_int,
    mayer_vietoris_bound,
    milnor_bound,
    min_width_for,
    poly_layer_bound,
    relu_layer_bound,
)


def poly_arch(widths, r=2):
    return ArchitectureSpec(tuple(widths), Activation("poly", r))


def relu_arch(widths):
    return ArchitectureSpec(tuple(widths), Activation("relu"))


# ---------------------------------------------------------------------------
# independent bignum oracle: same quantities via a different expression tree
# (Pascal-triangle binomials, product-by-reduce powers)
# ---------------------------------------------------------------------------


def pascal_binomial(a: int, b: int) -> int:
    if b < 0 or b > a:
        return 0
    row = [1]
    for _ in range(a):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[b]


def slow_pow(base: int, exp: int) -> int:
    return reduce(lambda acc, _: acc * base, range(exp), 1)


def oracle_poly_bound(widths, r, k, i):
    n = widths[-1]
    l = len(widths) - 1
    if k < n - 2:
        s = sum(pascal_binomial(n - 1, p + 1) * (slow_pow(3, n - 2 - p) - 1) for p in range(k + 1))
    else:
        s = sum(pascal_binomial(n - 1, p + 1) * (slow_pow(3, n - 2 - p) - 1) for p in range(n - 2)) + 1
    if i == l - 1:
        return s
    d = r * (l - i - 1)
    return s * d * slow_pow(2 * d - 1, widths[i] - 1)


def oracle_relu_bound(widths, k, i):
    n = widths[-1]
    l = len(widths) - 1
    total = sum(widths[i:l])
    return sum(
        pascal_binomial(n - 1, p + 1) * (slow_pow(3, total + n - 2 - p) - 1)
        for p in range(min(k, n - 2) + 1)
    )


# ---------------------------------------------------------------------------
# spot values
# ---------------------------------------------------------------------------


def test_poly_spot_values():
    assert poly_layer_bound(poly_arch([2, 2, 2, 2]), k=0, layer=1) == 6
    assert poly_layer_bound(poly_arch([3, 3, 3, 3]), k=0, layer=2) == 4
    assert poly_layer_bound(poly_arch([3, 3, 3, 3]), k=5, layer=2) == 5


def test_relu_spot_values():
    arch = relu_arch([2, 2, 2, 2])
    assert relu_layer_bound(arch, k=0, layer=1) == 80
    assert relu_layer_bound(arch, k=0, layer=2) == 8
    assert relu_layer_bound(arch, k=7, layer=2) == 8  # cap at n-2


def test_basu_spot_values():
    assert basu_bound(2, 2, 3) == 144
    assert basu_bound(1, 1, 1) == 2
    assert basu_bound(1, 1, 1) == (slow_pow(3, 1) - 1) * 1 * slow_pow(1, 0)


def test_milnor_spot_values():
    assert milnor_bound(1, 1) == 1
    assert milnor_bound(2, 3) == 15
    assert milnor_bound(4, 2) == 54


def test_wrong_activation_errors():
    with pytest.raises(WrongActivationError):
        poly_layer_bound(relu_arch([2, 2, 2]), 0, 1)
    with pytest.raises(WrongActivationError):
        relu_layer_bound(poly_arch([2, 2, 2]), 0, 1)


def test_bounds_match_independent_oracle():
    rng = np.random.default_rng(0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(150):
            l = int(rng.integers(2, 6))
            n = int(rng.integers(2, 6))
            widths = [int(w) for w in rng.integers(1, 9, size=l)] + [n]
            k = int(rng.integers(0, 6))
            r = int(rng.integers(1, 4))
            i_poly = int(rng.integers(0, l))
            i_relu = int(rng.integers(1, l))
            assert poly_layer_bound(poly_arch(widths, r), k, i_poly) == oracle_poly_bound(
                widths, r, k, i_poly
            )
            assert relu_layer_bound(relu_arch(widths), k, i_relu) == oracle_relu_bound(
                widths, k, i_relu
            )


def test_exactness_repeated_evaluation():
    arch = relu_arch([64, 64, 64, 64, 10])
    a = relu_layer_bound(arch, 1, 1)
    b = relu_layer_bound(arch, 1, 1)
    assert a == b
    assert a == oracle_relu_bound([64, 64, 64, 64, 10], 1, 1)


# ---------------------------------------------------------------------------
# monotonicity properties
# ---------------------------------------------------------------------------


def test_layer_monotonicity_500_random_equal_width_archs():
    rng = np.random.default_rng(1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # class count may exceed the hidden width
        for _ in range(500):
            l = int(rng.integers(2, 6))
            w = int(rng.integers(1, 9))
            n = int(rng.integers(2, 6))
            k = int(rng.integers(0, 5))
            widths = [w] * l + [n]
            if rng.random() < 0.5:
                arch = relu_arch(widths)
                vals = [relu_layer_bound(arch, k, i) for i in range(1, l)]
            else:
                arch = poly_arch(widths, int(rng.integers(1, 4)))
                vals = [poly_layer_bound(arch, k, i) for i in range(0, l)]
            assert all(vals[t] >= vals[t + 1] for t in range(len(vals) - 1))


def test_width_monotonicity_500_random_archs():
    rng = np.random.default_rng(2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(500):
            l = int(rng.integers(2, 6))
            n = int(rng.integers(2, 6))
            k = int(rng.integers(0, 5))
            widths = [int(w) for w in rng.integers(1, 9, size=l)] + [n]
            relu = rng.random() < 0.5
            layer = int(rng.integers(1, l)) if relu else int(rng.integers(0, l))
            bump_at = layer
            bumped = list(widths)
            bumped[bump_at] += int(rng.integers(1, 4))
            if relu:
                lo = relu_layer_bound(relu_arch(widths), k, layer)
                hi = relu_layer_bound(relu_arch(bumped), k, layer)
            else:
                r = int(rng.integers(1, 4))
                lo = poly_layer_bound(poly_arch(widths, r), k, layer)
                hi = poly_layer_bound(poly_arch(bumped, r), k, layer)
            assert hi >= lo


def test_branch_consistency_at_k_equals_n_minus_2():
    rng = np.random.default_rng(3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for _ in range(100):
            l = int(rng.integers(2, 5))
            n = int(rng.integers(3, 7))
            widths = [int(rng.integers(1, 6))] * l + [n]
            arch = poly_arch(widths, int(rng.integers(1, 4)))
            layer = int(rng.integers(0, l))
            at_boundary = poly_layer_bound(arch, n - 2, layer)
            below = poly_layer_bound(arch, n - 3, layer) if n >= 3 else 0
            assert at_boundary >= below


def test_non_increasing_violation_warns_not_raises():
    arch = relu_arch([2, 8, 2, 2])  # widths increase into the middle
    with pytest.warns(UserWarning):
        relu_layer_bound(arch, 0, 1)


# ---------------------------------------------------------------------------
# union cover bound
# ---------------------------------------------------------------------------


def test_mv_bound_disjoint_singletons():
    table = {frozenset([1]): [1], frozenset([2]): [1]}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the {1,2} entry is absent
        assert mayer_vietoris_bound(table, 0) == 2


def test_mv_bound_hollow_triangle_two_arcs():
    table = {
        frozenset([1]): [1, 0],
        frozenset([2]): [1, 0],
        frozenset([1, 2]): [2],
    }
    assert mayer_vietoris_bound(table, 1) == 2


def test_mv_bound_all_zero():
    table = {
        frozenset([1]): [0, 0],
        frozenset([2]): [0, 0],
        frozenset([1, 2]): [0, 0],
    }
    assert mayer_vietoris_bound(table, 1) == 0


def test_mv_bound_missing_subsets_warn():
    table = {frozenset([1]): [1, 1], frozenset([2]): [1, 0]}
    with pytest.warns(UserWarning):
        mayer_vietoris_bound(table, 1)


# ---------------------------------------------------------------------------
# profiles and width search
# ---------------------------------------------------------------------------


def test_layer_profile_relu_strictly_decreasing():
    report = layer_bound_profile(relu_arch([8, 8, 8, 8, 2]), 0)
    assert report.entries == {1: 3**24 - 1, 2: 3**16 - 1, 3: 3**8 - 1}
    assert report.non_increasing_in_layer


def test_layer_profile_poly_decreasing_and_records():
    report = layer_bound_profile(poly_arch([4, 4, 4, 4, 3], r=2), 0)
    vals = [report.entries[i] for i in sorted(report.entries)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    for line in report.records():
        layer, k, exact, log10 = line.split(",")
        assert int(exact) == report.entries[int(layer)]
        assert float(log10) == pytest.approx(math.log10(int(exact)), abs=1e-3)


def test_layer_profile_single_hidden_layer():
    report = layer_bound_profile(relu_arch([4, 4, 2]), 0)
    assert sorted(report.entries) == [1]


def test_min_width_examples():
    template = relu_arch([4, 1, 2])
    assert min_width_for(template, layer=1, k=0, target=8) == 2
    assert min_width_for(template, layer=1, k=0, target=1) == 1
    with pytest.raises(UnreachableTargetError) as err:
        min_width_for(template, layer=1, k=0, target=10**12, cap=4)
    assert err.value.bound_at_cap == 3**4 - 1


def _scan_case(rng, caps):
    """A random template, k and cap, and the oracle bound at each width
    1..cap of the free layer."""
    l = int(rng.integers(2, 5))
    n = int(rng.integers(2, 5))
    widths = [int(w) for w in rng.integers(1, 6, size=l)] + [n]
    k = int(rng.integers(0, 4))
    cap = int(rng.choice(caps))
    relu = rng.random() < 0.5
    r = int(rng.integers(1, 4))
    layer = int(rng.integers(1 if relu else 0, l))
    template = relu_arch(widths) if relu else poly_arch(widths, r)
    scan = []
    for w in range(1, cap + 1):
        probe = widths[:layer] + [w] + widths[layer + 1 :]
        scan.append(oracle_relu_bound(probe, k, layer) if relu else oracle_poly_bound(probe, r, k, layer))
    return template, layer, k, cap, scan


def _assert_min_width_is_the_scan(template, layer, k, cap, scan):
    for target in sorted({0, scan[0], scan[0] + 1, scan[len(scan) // 2], scan[-1], scan[-1] + 1}):
        reached = [w for w, b in enumerate(scan, start=1) if b >= target]
        if reached:
            assert min_width_for(template, layer, k, target, cap) == reached[0]
        else:
            with pytest.raises(UnreachableTargetError) as err:
                min_width_for(template, layer, k, target, cap)
            assert (err.value.bound_at_cap, err.value.cap) == (scan[-1], cap)


def test_min_width_is_the_first_width_of_a_linear_scan():
    rng = np.random.default_rng(5)
    kinds = set()
    for _ in range(300):
        template, layer, k, cap, scan = _scan_case(rng, caps=[4, 5, 8, 13, 32])
        kinds.add(template.activation.kind)
        _assert_min_width_is_the_scan(template, layer, k, cap, scan)
    assert kinds == {"relu", "poly"}


def test_min_width_below_a_cap_of_4_is_the_scan_too():
    rng = np.random.default_rng(6)
    for _ in range(100):
        _assert_min_width_is_the_scan(*_scan_case(rng, caps=[1, 2, 3]))


def test_binomial_conventions():
    assert binomial(5, 7) == 0
    assert binomial(5, -1) == 0
    assert binomial(5, 2) == 10
    assert binomial(5, 2) == pascal_binomial(5, 2)


def test_log10_of_huge_int():
    assert log10_of_int(3**5000) == pytest.approx(5000 * math.log10(3), rel=1e-12)
    assert log10_of_int(0) == float("-inf")
