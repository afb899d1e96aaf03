"""Adaptive Gauss-Legendre quadrature for smooth integrands.

Nodes and weights are generated on first use by Newton iteration on the
Legendre recurrence, correct to float precision for any order, which
beats copying a fixed-order table around.  An interval that has not met
its share of the tolerance after `_MAX_DEPTH` bisections raises DomainError.
"""

from __future__ import annotations

import math

from .errors import DomainError

__all__ = ["gauss_legendre_nodes", "integrate"]


def gauss_legendre_nodes(order: int) -> tuple[list[float], list[float]]:
    """Nodes and weights of the `order`-point rule on [-1, 1]."""
    if order < 2:
        raise ValueError("order must be at least 2")
    nodes: list[float] = []
    weights: list[float] = []
    for i in range(order):
        # Tricomi's approximation is close enough for Newton to converge
        # in a handful of steps.
        x = math.cos(math.pi * (i + 0.75) / (order + 0.5))
        derivative = 1.0
        for _ in range(100):
            p_prev, p = 1.0, x
            for k in range(2, order + 1):
                p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
            derivative = order * (x * p - p_prev) / (x * x - 1.0)
            step = p / derivative
            x -= step
            if abs(step) < 1e-15:
                break
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * derivative * derivative))
    return nodes, weights


_RULE: list[tuple[float, float]] = []  # the 16-point (node, weight) pairs, made on first use
_MAX_DEPTH = 40  # bisection levels; an unconverged interval this deep raises


def _panel(f, a: float, b: float) -> float:
    if not _RULE:
        _RULE.extend(zip(*gauss_legendre_nodes(16)))
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * math.fsum(w * f(mid + half * x) for x, w in _RULE)


def integrate(f, a: float, b: float, tolerance: float = 1e-12) -> float:
    """Integrate f over [a, b] by adaptive interval bisection.

    Each interval's 16-point estimate is accepted once splitting it in
    two moves the result by less than the interval's share of the
    tolerance; otherwise both halves recurse with half the budget each.
    """
    if a == b:
        return 0.0

    def recurse(lo: float, hi: float, whole: float, budget: float, depth: int) -> float:
        mid = 0.5 * (lo + hi)
        left = _panel(f, lo, mid)
        right = _panel(f, mid, hi)
        if abs(left + right - whole) <= budget:
            return left + right
        if depth >= _MAX_DEPTH:
            raise DomainError(f"quadrature missed the tolerance after {_MAX_DEPTH} bisections")
        return recurse(lo, mid, left, 0.5 * budget, depth + 1) + recurse(
            mid, hi, right, 0.5 * budget, depth + 1
        )

    return recurse(a, b, _panel(f, a, b), tolerance, 0)
