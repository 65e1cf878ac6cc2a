"""Reference values computed without domlab's solvers.

The MILPs (scipy's HiGHS) read only the graph's adjacency. They run outside
the timed region, once per distinct instance.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp


def _adjacency(g) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for v in range(g.n):
        for u in g.adj[v]:
            a[v, u] = 1.0
    return a


def _solve(cost, constraints, size: int) -> float:
    res = milp(cost, constraints=constraints, integrality=np.ones(size),
               bounds=Bounds(0, 1))
    if res.status != 0:
        raise RuntimeError(f"reference MILP did not solve: {res.message}")
    return res.fun


def gamma_milp(g, k: int, restrained: bool) -> int:
    """Minimum kTDS (kTRDS) size: min sum x with A x >= k, and, restrained,
    sum_{u in N(v)} x_u - k x_v <= deg(v) - k for every vertex v."""
    a = _adjacency(g)
    cons = [LinearConstraint(a, k, np.inf)]
    if restrained:
        cons.append(LinearConstraint(a - k * np.eye(g.n), -np.inf,
                                     a.sum(axis=1) - k))
    return round(_solve(np.ones(g.n), cons, g.n))


def domatic_milp(g, k: int, restrained: bool) -> int:
    """Maximum class count of a kTDP (kTRDP) as an assignment MILP.

    x[v, c] puts v in class c, y[c] marks class c used. Each class needs at
    least k + 1 vertices and supplies k neighbours to every vertex, so at
    most min(n // (k + 1), min_degree // k) classes can be used.
    """
    n = g.n
    a = _adjacency(g)
    deg = a.sum(axis=1)
    classes = max(1, min(n // (k + 1), int(deg.min()) // k))
    nx = n * classes
    size = nx + classes

    def x(v, c):
        return v * classes + c

    rows, lo, hi = [], [], []

    def row(coefs: dict, low: float, high: float) -> None:
        r = np.zeros(size)
        for idx, val in coefs.items():
            r[idx] += val
        rows.append(r)
        lo.append(low)
        hi.append(high)

    for v in range(n):
        row({x(v, c): 1.0 for c in range(classes)}, 1, 1)
        nbrs = np.flatnonzero(a[v])
        for c in range(classes):
            row({**{x(u, c): 1.0 for u in nbrs}, nx + c: -float(k)},
                0, np.inf)
            row({x(v, c): 1.0, nx + c: -1.0}, -np.inf, 0)
            if restrained:
                row({**{x(u, c): 1.0 for u in nbrs}, x(v, c): -float(k)},
                    -np.inf, deg[v] - k)
    for c in range(classes - 1):
        row({nx + c: 1.0, nx + c + 1: -1.0}, 0, np.inf)
    cost = np.zeros(size)
    cost[nx:] = -1.0
    return -round(_solve(cost, [LinearConstraint(np.array(rows), lo, hi)],
                         size))

