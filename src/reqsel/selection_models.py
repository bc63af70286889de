"""Compile a selection problem into solver-agnostic mixed 0/1 linear models.

Four single-objective knapsack-family models share the budget row:

  BK    maximize sum v_i x_i            (no precedence; estimated values)
  PCBK  BK plus the precedence rows
  SBK   PCBK with expected values       (objective sum E(v_i) x_i)
  DARS  the dependency-aware model: maximize sum E(v_i) (x_i - y_i) where
        y_i linearizes x_i * theta_i through auxiliary binaries g_i == x_i,
        penalty rows theta_i >= (|I(i,j)| + (1 - 2 x_j) I(i,j)) / 2, and
        linking rows; at the optimum y_i = x_i theta_i, so the objective
        equals the overall value of the selection.

The increase-decrease model instead adjusts the plain knapsack objective by
per-subset corrections (w_j - sum of member values) activated when the whole
subset is selected.

The budget row is either sum c_i x_i <= b (BUDGET_COST) or the price form
sum v_i x_i <= gamma (PRICE_VALUE); both are available on every model kind.

Warning: BK ignores precedence records by construction (it predates
precedence modelling); callers presenting precedence-bearing instances to BK
get a formally valid model that can propose infeasible selections.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import chain
from typing import IO, Sequence

import numpy as np

from .dependency_graph import (
    Conflicts,
    ExactlyOne,
    InfluenceMatrix,
    PrecedenceGraph,
    RequiresAll,
    RequiresAny,
)
from .errors import InputFormatError, ValidationError
from .valuation import Requirement

BUDGET_COST = "BUDGET_COST"
PRICE_VALUE = "PRICE_VALUE"

BK = "BK"
PCBK = "PCBK"
SBK = "SBK"
DARS = "DARS"
INCREASE_DECREASE = "INCREASE_DECREASE"

_METHODS = (BK, PCBK, SBK, DARS)

BINARY = "binary"
CONTINUOUS = "continuous"


@dataclass(frozen=True)
class SelectionProblem:
    requirements: tuple[Requirement, ...]
    budget: float
    constraint_mode: str = BUDGET_COST
    precedence: PrecedenceGraph | None = None
    influence: InfluenceMatrix | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "requirements", tuple(self.requirements))
        if not self.requirements:
            raise ValidationError("a selection problem needs at least one requirement")
        if self.budget < 0:
            raise ValidationError("budget must be non-negative")
        if self.constraint_mode not in (BUDGET_COST, PRICE_VALUE):
            raise ValidationError(f"unknown constraint mode {self.constraint_mode!r}")
        n = len(self.requirements)
        if self.precedence is None:
            object.__setattr__(self, "precedence", PrecedenceGraph.empty(n))
        elif self.precedence.n != n:
            raise ValidationError("precedence graph dimension does not match requirement count")
        if self.influence is not None and self.influence.n != n:
            raise ValidationError("influence matrix dimension does not match requirement count")

    @property
    def n(self) -> int:
        return len(self.requirements)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(r.id for r in self.requirements)


@dataclass(frozen=True)
class SubsetEstimate:
    """A requirement subset whose joint value w differs from the member sum."""

    members: tuple[int, ...]
    estimated_value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))
        if len(self.members) < 2:
            raise ValidationError("a subset estimate needs at least two members")
        if len(set(self.members)) != len(self.members):
            raise ValidationError("subset members must be distinct")


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str
    lower: float = 0.0
    upper: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in (BINARY, CONTINUOUS):
            raise ValidationError(f"variable {self.name}: unknown kind {self.kind!r}")
        if self.kind == BINARY and (self.lower, self.upper) != (0.0, 1.0):
            raise ValidationError(f"variable {self.name}: binary bounds must be [0, 1]")
        if self.lower > self.upper:
            raise ValidationError(f"variable {self.name}: empty bound interval")


@dataclass(frozen=True)
class LinearConstraint:
    name: str
    coeffs: dict[str, float]
    relation: str
    rhs: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", dict(self.coeffs))
        if self.relation not in ("<=", ">=", "="):
            raise ValidationError(f"constraint {self.name}: unknown relation {self.relation!r}")
        if not self.coeffs:
            raise ValidationError(f"constraint {self.name}: no coefficients")


@dataclass(frozen=True)
class LinearModel:
    variables: tuple[Variable, ...]
    objective_sense: str
    objective: dict[str, float]
    constraints: tuple[LinearConstraint, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "objective", dict(self.objective))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(self, "metadata", dict(self.metadata))
        if self.objective_sense not in ("max", "min"):
            raise ValidationError(f"unknown objective sense {self.objective_sense!r}")
        declared = {v.name for v in self.variables}
        if len(declared) != len(self.variables):
            raise ValidationError("duplicate variable names")
        for name in self.objective:
            if name not in declared:
                raise ValidationError(f"objective references undeclared variable {name!r}")
        seen_rows = set()
        for c in self.constraints:
            if c.name in seen_rows:
                raise ValidationError(f"duplicate constraint name {c.name!r}")
            seen_rows.add(c.name)
            for name in c.coeffs:
                if name not in declared:
                    raise ValidationError(f"constraint {c.name} references undeclared variable {name!r}")


def _budget_row(p: SelectionProblem, x_names: Sequence[str]) -> LinearConstraint:
    if p.constraint_mode == BUDGET_COST:
        coeffs = {x_names[i]: float(r.cost) for i, r in enumerate(p.requirements)}
        return LinearConstraint(name="budget", coeffs=coeffs, relation="<=", rhs=float(p.budget))
    coeffs = {x_names[i]: float(r.value) for i, r in enumerate(p.requirements)}
    return LinearConstraint(name="price", coeffs=coeffs, relation="<=", rhs=float(p.budget))


def _precedence_rows(p: SelectionProblem, x_names: Sequence[str]) -> list[LinearConstraint]:
    rows: list[LinearConstraint] = []
    for ordinal, rec in enumerate(p.precedence.constraints, start=1):
        if isinstance(rec, RequiresAll):
            rows.append(
                LinearConstraint(
                    name=f"prec{ordinal}_requires_all",
                    coeffs={x_names[rec.source]: 1.0, x_names[rec.target]: -1.0},
                    relation="<=",
                    rhs=0.0,
                )
            )
        elif isinstance(rec, RequiresAny):
            coeffs = {x_names[rec.source]: 1.0}
            coeffs.update({x_names[t]: -1.0 for t in rec.targets})
            rows.append(
                LinearConstraint(
                    name=f"prec{ordinal}_requires_any", coeffs=coeffs, relation="<=", rhs=0.0
                )
            )
        elif isinstance(rec, Conflicts):
            # the source model states conflicts twice (x_a <= 1 - x_b and
            # x_b <= 1 - x_a); both rows are kept verbatim
            pair = {x_names[rec.a]: 1.0, x_names[rec.b]: 1.0}
            rows.append(
                LinearConstraint(name=f"prec{ordinal}_conflict_ab", coeffs=dict(pair), relation="<=", rhs=1.0)
            )
            rows.append(
                LinearConstraint(name=f"prec{ordinal}_conflict_ba", coeffs=dict(pair), relation="<=", rhs=1.0)
            )
        elif isinstance(rec, ExactlyOne):
            rows.append(
                LinearConstraint(
                    name=f"prec{ordinal}_exactly_one",
                    coeffs={x_names[m]: 1.0 for m in rec.members},
                    relation="=",
                    rhs=1.0,
                )
            )
    return rows


def build_model(
    p: SelectionProblem,
    method: str,
    subsets: Sequence[SubsetEstimate] | None = None,
    simplify: bool = False,
) -> LinearModel:
    """Compile the instance for one of BK / PCBK / SBK / DARS.

    `subsets` routes to the increase-decrease builder for convenience when
    method == INCREASE_DECREASE. `simplify` (DARS only) substitutes g := x
    and drops the duplicating rows; by default the model keeps the auxiliary
    g variables verbatim.
    """
    if method == INCREASE_DECREASE:
        return build_increase_decrease(p, subsets or ())
    if method not in _METHODS:
        raise ValidationError(f"unknown model method {method!r}")
    n = p.n
    x_names = [f"x{i + 1}" for i in range(n)]
    variables = [Variable(name=name, kind=BINARY) for name in x_names]
    rows = [_budget_row(p, x_names)]

    if method != BK:
        rows.extend(_precedence_rows(p, x_names))

    values = [float(r.value) for r in p.requirements]
    expected = [float(r.expected_value) for r in p.requirements]
    metadata: dict = {
        "kind": method,
        "x_names": list(x_names),
        "requirement_ids": list(p.ids),
    }

    if method in (BK, PCBK):
        objective = {x_names[i]: values[i] for i in range(n)}
        return LinearModel(tuple(variables), "max", objective, tuple(rows), metadata)
    if method == SBK:
        objective = {x_names[i]: expected[i] for i in range(n)}
        return LinearModel(tuple(variables), "max", objective, tuple(rows), metadata)

    if p.influence is None:
        raise ValidationError("the dependency-aware model needs an influence matrix")
    thetas = [f"theta{i + 1}" for i in range(n)]
    ys = [f"y{i + 1}" for i in range(n)]
    gs = x_names if simplify else [f"g{i + 1}" for i in range(n)]
    if not simplify:
        variables.extend(Variable(name=name, kind=BINARY) for name in gs)
    variables.extend(Variable(name=name, kind=CONTINUOUS, lower=0.0, upper=1.0) for name in thetas)
    variables.extend(Variable(name=name, kind=CONTINUOUS, lower=0.0, upper=1.0) for name in ys)

    # InfluenceMatrix keeps a zero diagonal, so every nonzero is a pair i != j
    influence = p.influence.influence
    ii, jj = np.nonzero(influence)
    for i, j, w in zip(ii.tolist(), jj.tolist(), influence[ii, jj].tolist()):
        # theta_i >= (|I| + (1 - 2 x_j) I) / 2, rearranged onto the left
        rows.append(
            LinearConstraint(
                name=f"penalty_{x_names[i]}_{x_names[j]}",
                coeffs={thetas[i]: 1.0, x_names[j]: w},
                relation=">=",
                rhs=(abs(w) + w) / 2.0,
            )
        )
    for i in range(n):
        if not simplify:
            rows.append(
                LinearConstraint(
                    name=f"link_xg_{i + 1}",
                    coeffs={x_names[i]: 1.0, gs[i]: -1.0},
                    relation="<=",
                    rhs=0.0,
                )
            )
            rows.append(
                LinearConstraint(
                    name=f"link_gx_{i + 1}",
                    coeffs={gs[i]: 1.0, x_names[i]: -1.0},
                    relation="<=",
                    rhs=0.0,
                )
            )
        rows.append(
            LinearConstraint(
                name=f"link_yg_{i + 1}",
                coeffs={ys[i]: 1.0, gs[i]: -1.0},
                relation="<=",
                rhs=0.0,
            )
        )
        rows.append(
            LinearConstraint(
                name=f"link_ty_{i + 1}",
                coeffs={thetas[i]: 1.0, ys[i]: -1.0, gs[i]: 1.0},
                relation="<=",
                rhs=1.0,
            )
        )
    objective = {x_names[i]: expected[i] for i in range(n)}
    objective.update({ys[i]: -expected[i] for i in range(n)})
    metadata["simplified"] = simplify
    return LinearModel(tuple(variables), "max", objective, tuple(rows), metadata)


def build_increase_decrease(
    p: SelectionProblem, subsets: Sequence[SubsetEstimate]
) -> LinearModel:
    """Plain knapsack plus per-subset value adjustments.

    A binary y_j may be 1 only when every member of subset j is selected
    (n_j y_j <= sum of member x). The objective adds w_j - sum of member
    values, so positive adjustments are earned and negative ones charged;
    for a negative adjustment the optimizer would leave y_j at 0, so a
    completeness row forces y_j = 1 once the whole subset is selected.
    """
    n = p.n
    x_names = [f"x{i + 1}" for i in range(n)]
    variables = [Variable(name=name, kind=BINARY) for name in x_names]
    rows = [_budget_row(p, x_names)]
    values = [float(r.value) for r in p.requirements]
    objective = {x_names[i]: values[i] for i in range(n)}

    for j, subset in enumerate(subsets, start=1):
        for m in subset.members:
            if not 0 <= m < n:
                raise ValidationError(f"subset {j}: member index {m} out of range")
        y_name = f"y{j}"
        variables.append(Variable(name=y_name, kind=BINARY))
        size = len(subset.members)
        coeffs = {y_name: float(size)}
        coeffs.update({x_names[m]: -1.0 for m in subset.members})
        rows.append(
            LinearConstraint(name=f"subset{j}_active", coeffs=coeffs, relation="<=", rhs=0.0)
        )
        adjustment = subset.estimated_value - sum(values[m] for m in subset.members)
        if adjustment < 0:
            complete = {x_names[m]: 1.0 for m in subset.members}
            complete[y_name] = -1.0
            rows.append(
                LinearConstraint(
                    name=f"subset{j}_complete", coeffs=complete, relation="<=", rhs=float(size - 1)
                )
            )
        objective[y_name] = adjustment
    metadata = {
        "kind": INCREASE_DECREASE,
        "x_names": list(x_names),
        "requirement_ids": list(p.ids),
    }
    return LinearModel(tuple(variables), "max", objective, tuple(rows), metadata)


def _lp_number(value: float) -> str:
    text = f"{value:.12g}"
    return text


def _lp_terms(coeffs: dict[str, float], pos: dict[str, int], fallback: str) -> str:
    parts = []
    for name in sorted(coeffs, key=pos.__getitem__):
        coef = coeffs[name]
        if coef == 0.0:
            continue
        sign = "+" if coef >= 0 else "-"
        parts.append(f"{sign} {_lp_number(abs(coef))} {name}")
    if not parts:
        # LP grammar requires at least one term
        parts.append(f"+ 0 {fallback}")
    return " ".join(parts)


def export_lp(m: LinearModel, sink: IO[str]) -> None:
    """Write the model in the industry LP file format.

    Sections: Maximize/Minimize, Subject To, Bounds (continuous variables),
    Binary, End. Terms appear in variable declaration order, and zero terms
    are dropped. For a model whose binaries are declared before its
    continuous variables, as every builder here declares them, parse_lp of
    the output equals the model up to metadata and zero coefficients, and
    exporting that parsed model writes the same bytes again.
    """
    pos = {v.name: i for i, v in enumerate(m.variables)}
    first = m.variables[0].name
    sink.write("Maximize\n" if m.objective_sense == "max" else "Minimize\n")
    sink.write(f" obj: {_lp_terms(m.objective, pos, first)}\n")
    sink.write("Subject To\n")
    for c in m.constraints:
        sink.write(f" {c.name}: {_lp_terms(c.coeffs, pos, first)} {c.relation} {_lp_number(c.rhs)}\n")
    continuous = [v for v in m.variables if v.kind == CONTINUOUS]
    if continuous:
        sink.write("Bounds\n")
        for v in continuous:
            lo = "-inf" if math.isinf(v.lower) else _lp_number(v.lower)
            hi = "+inf" if math.isinf(v.upper) else _lp_number(v.upper)
            sink.write(f" {lo} <= {v.name} <= {hi}\n")
    binaries = [v for v in m.variables if v.kind == BINARY]
    if binaries:
        sink.write("Binary\n")
        for v in binaries:
            sink.write(f" {v.name}\n")
    sink.write("End\n")


_TOKEN = re.compile(r"<=|>=|=|[+-]|[A-Za-z_][A-Za-z0-9_]*|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")

_SECTION_STARTS = {
    "maximize": "objective",
    "minimize": "objective",
    "max": "objective",
    "min": "objective",
    "subject to": "constraints",
    "such that": "constraints",
    "st": "constraints",
    "s.t.": "constraints",
    "bounds": "bounds",
    "binary": "binary",
    "binaries": "binary",
    "general": "general",
    "end": "end",
}


def _parse_terms(tokens: list[str], where: str) -> dict[str, float]:
    coeffs: dict[str, float] = {}
    sign = 1.0
    pending: float | None = None
    for tok in tokens:
        if tok == "+":
            continue
        if tok == "-":
            sign = -sign
            continue
        try:
            number = float(tok)
        except ValueError:
            number = None
        if number is not None:
            if pending is not None:
                raise InputFormatError(f"{where}: two consecutive numbers")
            pending = number
            continue
        coef = sign * (pending if pending is not None else 1.0)
        coeffs[tok] = coeffs.get(tok, 0.0) + coef
        sign = 1.0
        pending = None
    if pending is not None:
        raise InputFormatError(f"{where}: dangling number without a variable")
    return coeffs


def parse_lp(source: IO[str]) -> LinearModel:
    """Minimal LP-format reader for files written by export_lp.

    Handles the objective, constraint rows `name: terms rel rhs`, simple
    one- and two-sided bounds (signed numbers, -inf, +inf), and
    Binary/General sections. Variables that appear in rows but in no
    Bounds/Binary section default to continuous [0, +inf). Variables are
    declared in Binary-section order, then Bounds-section order, then any
    other name by first appearance (objective first, then rows), which is
    the order export_lp wrote them in. The model carries
    no metadata beyond {"kind": "PARSED"}: the solver reads the roles of a
    DARS model's variables off the row shapes, so a parsed DARS file is
    searched like the model it was written from.
    """
    sense = "max"
    section = None
    objective_tokens: list[str] = []
    constraint_lines: list[tuple[str, list[str]]] = []
    bounds: dict[str, tuple[float, float]] = {}
    binaries: list[str] = []

    def parse_bound_token(text: str) -> float:
        lowered = text.lower().lstrip("+")
        if lowered in ("-inf", "-infinity"):
            return -math.inf
        if lowered in ("inf", "infinity"):
            return math.inf
        try:
            return float(text)
        except ValueError as exc:
            raise InputFormatError(f"bounds: bad number {text!r}") from exc

    for raw_line in source:
        line = raw_line.split("\\")[0].strip()
        if not line:
            continue
        lowered = line.lower()
        matched_section = _SECTION_STARTS.get(lowered)
        if matched_section is not None:
            section = matched_section
            if lowered in ("minimize", "min"):
                sense = "min"
            if section == "end":
                break
            continue
        if section == "objective":
            body = line.split(":", 1)[1] if ":" in line else line
            objective_tokens.extend(_TOKEN.findall(body))
        elif section == "constraints":
            if ":" in line:
                name, body = line.split(":", 1)
                constraint_lines.append((name.strip(), _TOKEN.findall(body)))
            else:
                if not constraint_lines:
                    raise InputFormatError("constraint continuation before any named row")
                constraint_lines[-1][1].extend(_TOKEN.findall(line))
        elif section == "bounds":
            tokens = []
            for tok in _TOKEN.findall(line):
                # a sign belongs to the number or infinity after it: -inf, +inf, -5
                if tokens and tokens[-1] in ("+", "-"):
                    tok = tokens.pop() + tok
                tokens.append(tok)
            if len(tokens) == 5 and tokens[1] == "<=" and tokens[3] == "<=":
                bounds[tokens[2]] = (parse_bound_token(tokens[0]), parse_bound_token(tokens[4]))
            elif len(tokens) == 3 and tokens[1] in ("<=", ">=", "="):
                name = tokens[0]
                value = parse_bound_token(tokens[2])
                lo, hi = bounds.get(name, (0.0, math.inf))
                if tokens[1] == "<=":
                    bounds[name] = (lo, value)
                elif tokens[1] == ">=":
                    bounds[name] = (value, hi)
                else:
                    bounds[name] = (value, value)
            else:
                raise InputFormatError(f"bounds: unsupported line {line!r}")
        elif section == "binary":
            binaries.extend(_TOKEN.findall(line))
        elif section == "general":
            raise InputFormatError("general integer variables are not supported")
        else:
            raise InputFormatError(f"content before any section header: {line!r}")

    objective = _parse_terms(objective_tokens, "objective")

    constraints: list[LinearConstraint] = []
    for row_name, tokens in constraint_lines:
        relation = None
        split_at = None
        for pos, tok in enumerate(tokens):
            if tok in ("<=", ">=", "="):
                relation = tok
                split_at = pos
                break
        if relation is None or split_at is None or split_at != len(tokens) - 2:
            raise InputFormatError(f"constraint {row_name}: expected `terms rel rhs`")
        coeffs = _parse_terms(tokens[:split_at], f"constraint {row_name}")
        try:
            rhs = float(tokens[-1])
        except ValueError as exc:
            raise InputFormatError(f"constraint {row_name}: bad right-hand side") from exc
        constraints.append(
            LinearConstraint(name=row_name, coeffs=coeffs, relation=relation, rhs=rhs)
        )

    binary_set = set(binaries)
    declared = chain(binaries, bounds, objective, chain.from_iterable(c.coeffs for c in constraints))
    variables = []
    for name in dict.fromkeys(declared):
        if name in binary_set:
            variables.append(Variable(name=name, kind=BINARY))
        else:
            lo, hi = bounds.get(name, (0.0, math.inf))
            variables.append(Variable(name=name, kind=CONTINUOUS, lower=lo, upper=hi))
    return LinearModel(
        tuple(variables), sense, objective, tuple(constraints), {"kind": "PARSED"}
    )
