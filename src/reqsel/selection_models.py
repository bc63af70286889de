"""Compile a selection problem into solver-agnostic mixed 0/1 linear models.

`build_model` compiles all four single-objective knapsack-family models.
Each starts from the x binaries and the budget row:

  BK    maximize sum v_i x_i            (no precedence; estimated values)
  PCBK  BK plus the precedence rows
  SBK   PCBK with expected values       (objective sum E(v_i) x_i)
  DARS  the dependency-aware model: maximize sum E(v_i) (x_i - y_i) where
        y_i linearizes x_i * theta_i through auxiliary binaries g_i == x_i,
        penalty rows theta_i >= (|I(i,j)| + (1 - 2 x_j) I(i,j)) / 2, and
        the link rows of `link_rows`; at the optimum y_i = x_i theta_i, so
        the objective equals the overall value of the selection. The model's
        metadata states this linearization ("links", "influence"), and the
        solver reads it from there.

The budget row is either sum c_i x_i <= b (BUDGET_COST) or the price form
sum v_i x_i <= gamma (PRICE_VALUE); both are available on every model kind.

Every model declares x1..xn first, in requirement order. They are its only
search binaries (a DARS model's g, theta and y only linearize the penalty),
and a solution's x holds the search binaries in declaration order, so x_i
is whether requirement i is selected.

Warning: BK ignores precedence records by construction (it predates
precedence modelling); callers presenting precedence-bearing instances to BK
get a formally valid model that can propose infeasible selections.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter
from typing import IO, Hashable, Iterable, Sequence

import numpy as np

from .dependency_graph import InfluenceMatrix, PrecedenceGraph
from .errors import InputFormatError, ValidationError
from .valuation import Requirement

BUDGET_COST = "BUDGET_COST"
PRICE_VALUE = "PRICE_VALUE"

BK = "BK"
PCBK = "PCBK"
SBK = "SBK"
DARS = "DARS"

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
        if not self.budget >= 0:
            raise ValidationError(f"budget must be non-negative, got {self.budget}")
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
        rows = self.constraints
        if len({c.name for c in rows}) == len(rows) and declared.issuperset(
            chain.from_iterable(map(attrgetter("coeffs"), rows))
        ):
            return
        # walk the rows only to report the first fault
        seen_rows = set()
        for c in rows:
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
    return [
        LinearConstraint(name=f"prec{ordinal}_{suffix}", coeffs=coeffs, relation=relation, rhs=rhs)
        for ordinal, rec in enumerate(p.precedence.constraints, start=1)
        for suffix, coeffs, relation, rhs in rec.rows(x_names)
    ]


def link_rows(x: Hashable, g: Hashable, theta: Hashable, y: Hashable) -> list[tuple]:
    """The rows that tie a requirement's theta, y and echo g to its x, as
    (name, coefficients, relation, rhs) over names or indices: the echo pair
    x - g <= 0 and g - x <= 0 when g is not x, then y - g <= 0 and
    theta - y + g <= 1, so that y = x theta at the optimum."""
    rows = []
    if g != x:
        rows += [("link_xg", {x: 1.0, g: -1.0}, "<=", 0.0), ("link_gx", {g: 1.0, x: -1.0}, "<=", 0.0)]
    rows.append(("link_yg", {y: 1.0, g: -1.0}, "<=", 0.0))
    rows.append(("link_ty", {theta: 1.0, y: -1.0, g: 1.0}, "<=", 1.0))
    return rows


def build_model(p: SelectionProblem, method: str, simplify: bool = False) -> LinearModel:
    """Compile the instance for one of BK / PCBK / SBK / DARS.

    Every model starts from the x binaries and the budget row; PCBK, SBK and
    DARS add the precedence rows. `simplify` (DARS only) substitutes g := x
    and drops the duplicating rows; by default the model keeps the auxiliary
    g variables verbatim.
    """
    if method not in _METHODS:
        raise ValidationError(f"unknown model method {method!r}")
    n = p.n
    x_names = [f"x{i + 1}" for i in range(n)]
    variables = [Variable(name=name, kind=BINARY) for name in x_names]
    rows = [_budget_row(p, x_names)]
    if method in (PCBK, SBK, DARS):
        rows.extend(_precedence_rows(p, x_names))
    if method in (SBK, DARS):
        weights = [float(r.expected_value) for r in p.requirements]
    else:
        weights = [float(r.value) for r in p.requirements]
    objective = dict(zip(x_names, weights))
    metadata = {"kind": method, "x_names": list(x_names), "requirement_ids": list(p.ids)}

    if method == DARS:
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
            rows.extend(
                LinearConstraint(f"{name}_{i + 1}", coeffs, relation, rhs)
                for name, coeffs, relation, rhs in link_rows(x_names[i], gs[i], thetas[i], ys[i])
            )
        objective.update({ys[i]: -weights[i] for i in range(n)})
        # the solver searches x alone and fills theta, y and g from these
        metadata["links"] = list(zip(x_names, gs, thetas, ys))
        metadata["influence"] = influence
    return LinearModel(tuple(variables), "max", objective, tuple(rows), metadata)


def _lp_number(value: float) -> str:
    return f"{value:.12g}"


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


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")
_TOKEN = re.compile(rf"<=|>=|=|[+-]|{_NAME.pattern}|(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")

_RELATIONS = frozenset(("<=", ">=", "="))
_NUMBER_START = frozenset("0123456789.")

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


def _tokens(text: str, section: str, row: str = "") -> list[str]:
    """The _TOKEN tokens of `text`, which must cover every non-blank character
    (an error names the section and the row)."""
    tokens = _TOKEN.findall(text)
    # most lines hold no blank but spaces: look closer only when that fails
    if len("".join(tokens)) + text.count(" ") != len(text):
        stray = _TOKEN.sub(" ", text).split()
        if stray:
            where = f"{section} {row}" if row else section
            raise InputFormatError(f"{where}: unexpected {stray[0]!r}")
    return tokens


def _name(token: str, section: str) -> str:
    if not _NAME.fullmatch(token):
        raise InputFormatError(f"{section}: {token!r} is not a variable name")
    return token


def _parse_terms(tokens: list[str], where: str) -> dict[str, float]:
    # every _TOKEN number starts with a digit or '.', so `inf` and `nan` are names
    coeffs: dict[str, float] = {}
    sign = 1.0
    pending: float | None = None
    for tok in tokens:
        first = tok[0]
        if first == "+":
            continue
        if first == "-":
            sign = -sign
            continue
        if first in _NUMBER_START:
            if pending is not None:
                raise InputFormatError(f"{where}: two consecutive numbers")
            pending = float(tok)
            continue
        coeffs[tok] = coeffs.get(tok, 0.0) + sign * (pending if pending is not None else 1.0)
        sign = 1.0
        pending = None
    if pending is not None:
        raise InputFormatError(f"{where}: dangling number without a variable")
    return coeffs


def _constraint(name: str, tokens: list[str]) -> LinearConstraint:
    """The row `name: terms rel rhs` from its tokens."""
    if len(tokens) > 2 and tokens[-2] in ("+", "-") and tokens[-3] in _RELATIONS:
        tokens[-2:] = [tokens[-2] + tokens[-1]]  # a signed right-hand side: >= -1
    if len(tokens) < 2 or tokens[-2] not in _RELATIONS or not _RELATIONS.isdisjoint(tokens[:-2]):
        raise InputFormatError(f"constraint {name}: expected `terms rel rhs`")
    coeffs = _parse_terms(tokens[:-2], f"constraint {name}")
    try:
        rhs = float(tokens[-1])
    except ValueError as exc:
        raise InputFormatError(f"constraint {name}: bad right-hand side") from exc
    return LinearConstraint(name, coeffs, tokens[-2], rhs)


def parse_lp(source: Iterable[str]) -> LinearModel:
    """Minimal LP-format reader for files written by export_lp.

    Handles the objective, constraint rows `name: terms rel rhs` with a
    signed or unsigned rhs, simple one- and two-sided bounds (signed
    numbers, -inf, +inf), and Binary/General sections. Reads `source`, any
    iterable of lines, in one pass and builds each row as soon as it ends, at
    the next row or section header. Any name matching [A-Za-z_][A-Za-z0-9_.]*
    is a variable, `inf` and `nan` too; a Binary-section token or the name
    slot of a Bounds line that is no such name is an error. A character that
    starts no name, number, sign or relation (`*` in `x1 * x2`, say) is an
    error naming its row or section. Variables that appear in rows but in no Bounds/Binary
    section default to continuous [0, +inf). Variables are declared in
    Binary-section order, then Bounds-section order, then any other name by
    first appearance (objective first, then rows), which is the order
    export_lp wrote them in.
    The model carries no metadata beyond {"kind": "PARSED"}. A parsed
    BK, PCBK or SBK file is all-binary and solves like the model it was
    written from; a parsed DARS file states no linearization, so `solve`
    rejects its theta and y.
    """
    sense = "max"
    section = None
    objective_tokens: list[str] = []
    row: tuple[str, list[str]] | None = None  # the constraint row being read
    constraints: list[LinearConstraint] = []
    bounds: dict[str, tuple[float, float]] = {}
    binaries: list[str] = []

    def parse_bound_token(text: str) -> float:
        try:
            # float reads inf, -inf, +inf and infinity in any case
            return float(text)
        except ValueError as exc:
            raise InputFormatError(f"bounds: bad number {text!r}") from exc

    for raw_line in source:
        line = raw_line.split("\\")[0].strip()
        if not line:
            continue
        head, colon, body = line.partition(":")
        # no section header holds a colon
        matched_section = None if colon else _SECTION_STARTS.get(line.lower())
        if matched_section is not None:
            if row is not None:
                constraints.append(_constraint(*row))
                row = None
            section = matched_section
            if line.lower() in ("minimize", "min"):
                sense = "min"
            if section == "end":
                break
            continue
        if section == "constraints":
            if colon:
                if row is not None:
                    constraints.append(_constraint(*row))
                name = head.strip()
                row = (name, _tokens(body, "constraint", name))
            elif row is None:
                raise InputFormatError("constraint continuation before any named row")
            else:
                row[1].extend(_tokens(line, "constraint", row[0]))
        elif section == "objective":
            objective_tokens.extend(_tokens(body if colon else line, "objective"))
        elif section == "bounds":
            tokens = []
            for tok in _tokens(line, "bounds"):
                # a sign belongs to the number or infinity after it: -inf, +inf, -5
                if tokens and tokens[-1] in ("+", "-"):
                    tok = tokens.pop() + tok
                tokens.append(tok)
            if len(tokens) == 5 and tokens[1] == "<=" and tokens[3] == "<=":
                name, lo_hi = tokens[2], (parse_bound_token(tokens[0]), parse_bound_token(tokens[4]))
            elif len(tokens) == 3 and tokens[1] in _RELATIONS:
                name, relation, text = tokens
                value = parse_bound_token(text)
                lo, hi = bounds.get(name, (0.0, math.inf))
                lo_hi = (lo if relation == "<=" else value, hi if relation == ">=" else value)
            else:
                raise InputFormatError(f"bounds: unsupported line {line!r}")
            bounds[_name(name, "bounds")] = lo_hi
        elif section == "binary":
            binaries.extend(_name(tok, "binary") for tok in _tokens(line, "binary"))
        elif section == "general":
            raise InputFormatError("general integer variables are not supported")
        else:
            raise InputFormatError(f"content before any section header: {line!r}")
    if row is not None:
        constraints.append(_constraint(*row))

    objective = _parse_terms(objective_tokens, "objective")
    binary_set = set(binaries)
    declared = chain(binaries, bounds, objective, chain.from_iterable(c.coeffs for c in constraints))
    variables = []
    for name in dict.fromkeys(declared):
        if name in binary_set:
            variables.append(Variable(name=name, kind=BINARY))
        else:
            lo, hi = bounds.get(name, (0.0, math.inf))
            variables.append(Variable(name=name, kind=CONTINUOUS, lower=lo, upper=hi))
    return LinearModel(tuple(variables), sense, objective, tuple(constraints), {"kind": "PARSED"})
