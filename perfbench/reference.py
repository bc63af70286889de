"""Reference optima from HiGHS (`scipy.optimize.milp`), independent of the
built-in solver.

HiGHS stops within its own feasibility and gap tolerances (about 1e-6 on
these models), so the reference objective is not HiGHS's reported value:
its binaries are rounded, checked against every all-binary row, and the
selection value is recomputed in closed form from the problem data.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize, sparse

from reqsel import DARS, PCBK, SBK, LinearModel, SelectionProblem

FEAS_EPS = 1e-9


def selection_value(p: SelectionProblem, method: str, x: np.ndarray) -> float:
    """Objective of a 0/1 selection: value, expected value or overall value."""
    values = np.array([r.value for r in p.requirements])
    expected = np.array([r.value * r.probability for r in p.requirements])
    if method == PCBK:
        return float(x @ values)
    if method == SBK:
        return float(x @ expected)
    if method != DARS:
        raise ValueError(f"no closed form for {method}")
    inf = p.influence.influence
    theta = ((np.abs(inf) + (1.0 - 2.0 * x)[None, :] * inf) / 2.0).max(axis=1)
    return float(x @ ((1.0 - theta) * expected))


def _milp_arrays(m: LinearModel):
    index = {v.name: i for i, v in enumerate(m.variables)}
    sign = -1.0 if m.objective_sense == "max" else 1.0
    c = np.zeros(len(index))
    for name, coef in m.objective.items():
        c[index[name]] = sign * coef
    rows, cols, data, lo, hi = [], [], [], [], []
    for r, con in enumerate(m.constraints):
        for name, coef in con.coeffs.items():
            rows.append(r)
            cols.append(index[name])
            data.append(coef)
        lo.append(-np.inf if con.relation == "<=" else con.rhs)
        hi.append(np.inf if con.relation == ">=" else con.rhs)
    a = sparse.csr_array((data, (rows, cols)), shape=(len(m.constraints), len(index)))
    integrality = np.array([v.kind == "binary" for v in m.variables], dtype=int)
    bounds = optimize.Bounds([v.lower for v in m.variables], [v.upper for v in m.variables])
    return c, optimize.LinearConstraint(a, lo, hi), integrality, bounds, index


def highs_optimum(m: LinearModel, p: SelectionProblem) -> float | None:
    """Optimal objective of `m` (built from `p`), or None when infeasible."""
    c, cons, integrality, bounds, index = _milp_arrays(m)
    res = optimize.milp(c, constraints=cons, integrality=integrality, bounds=bounds,
                        options={"mip_rel_gap": 0.0})
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not finish: {res.message}")
    xvals = np.rint(res.x)
    x = np.array([xvals[index[name]] for name in m.metadata["x_names"]])
    binary = {v.name for v in m.variables if v.kind == "binary"}
    for con in m.constraints:
        if not binary.issuperset(con.coeffs):
            continue
        act = sum(coef * xvals[index[name]] for name, coef in con.coeffs.items())
        over = {"<=": act - con.rhs, ">=": con.rhs - act, "=": abs(act - con.rhs)}[con.relation]
        if over > FEAS_EPS:
            raise RuntimeError(f"rounded HiGHS selection violates {con.name} by {over:.3g}")
    return selection_value(p, m.metadata["kind"], x)
