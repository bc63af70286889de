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
        metadata names this linearization ("links").

The budget row is either sum c_i x_i <= b (BUDGET_COST) or the price form
sum v_i x_i <= gamma (PRICE_VALUE); both are available on every model kind.

Every model declares x1..xn first, in requirement order, and states the
problem and method it was written from in its metadata ("problem", "kind").
The solver builds its search from those (the x binaries, `objective_weights`
and the rows of `core_rows`, which `build_model` writes too), not from its
rows: the model is the instance's export and verify view. A solution's x
holds the x binaries in order, so x_i is whether requirement i is selected.

A model keeps its rows by column in one immutable `RowStore`: row names,
relations and right-hand sides, a row-start pointer, and flat term-name and
coefficient sequences holding each row's terms in the order they were added.
`build_model` writes the DARS penalty rows in bulk from the nonzeros of I,
`parse_lp` appends a block of rows at a time, and `export_lp` and
`verify_solution` read the columns. `LinearModel.constraints` is
that store: indexing or iterating it builds a fresh `LinearConstraint` per
row, which suits tests and small models, not a hot path.

Warning: BK ignores precedence records by construction (it predates
precedence modelling); callers presenting precedence-bearing instances to BK
get a formally valid model that can propose infeasible selections.
"""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from itertools import chain, islice, repeat
from typing import IO, Hashable, Iterable, Iterator

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
        _check_row(self.name, self.relation, len(self.coeffs))


def _check_row(name: str, relation: str, nterms: int) -> None:
    if relation not in _RELATIONS:
        raise ValidationError(f"constraint {name}: unknown relation {relation!r}")
    if not nterms:
        raise ValidationError(f"constraint {name}: no coefficients")


@dataclass(frozen=True, eq=False, repr=False)
class RowStore(Sequence):
    """A model's rows by column.

    Row r is `names[r]: sum of coefs[k] * terms[k] over k in
    range(starts[r], starts[r + 1]) relations[r] rhs[r]`; a row names each
    variable at most once, keeps its terms in the order they were added,
    zero coefficients included, and holds at least one term. The columns are
    tuples. Read as a sequence, the store yields one new `LinearConstraint`
    per row and access (a slice gives a tuple of them); nothing is cached.
    It equals another store or a tuple holding the same rows. The
    constructor checks none of this: `build_model`, `parse_lp` and
    `RowStore.of` make stores that hold it.
    """

    names: tuple[str, ...] = ()
    relations: tuple[str, ...] = ()
    rhs: tuple[float, ...] = ()
    starts: tuple[int, ...] = (0,)
    terms: tuple[str, ...] = ()
    coefs: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, tuple(getattr(self, f.name)))

    @classmethod
    def of(cls, rows: Iterable[LinearConstraint]) -> RowStore:
        buf = _RowBuffer()
        for c in rows:
            buf.add(c.name, c.coeffs, c.coeffs.values(), c.relation, c.rhs)
        return buf.store()

    def _row(self, r: int) -> LinearConstraint:
        s, e = self.starts[r], self.starts[r + 1]
        coeffs = dict(zip(self.terms[s:e], self.coefs[s:e]))
        return LinearConstraint(self.names[r], coeffs, self.relations[r], self.rhs[r])

    def __len__(self) -> int:
        return len(self.names)

    def __getitem__(self, k):
        picked = range(len(self.names))[k]
        return tuple(map(self._row, picked)) if isinstance(k, slice) else self._row(picked)

    def __iter__(self):
        return map(self._row, range(len(self.names)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (RowStore, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"RowStore(<{len(self)} rows, {len(self.terms)} terms>)"


class _RowBuffer:
    """The growing columns of a RowStore, filled a row or a block at a time."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.relations: list[str] = []
        self.rhs: list[float] = []
        self.starts = [0]
        self.terms: list[str] = []
        self.coefs: list[float] = []

    def add(self, name: str, terms: Iterable[str], coefs: Iterable[float], relation: str, rhs: float) -> None:
        self.names.append(name)
        self.relations.append(relation)
        self.rhs.append(rhs)
        self.terms.extend(terms)
        self.coefs.extend(coefs)
        self.starts.append(len(self.terms))

    def add_rows(self, names, relations, rhs, terms, coefs, sizes: np.ndarray) -> None:
        """Rows of `sizes[r]` terms each; terms and coefs run row after row."""
        base = self.starts[-1]
        self.names.extend(names)
        self.relations.extend(relations)
        self.rhs.extend(rhs)
        self.terms.extend(terms)
        self.coefs.extend(coefs)
        self.starts.extend((base + np.cumsum(sizes)).tolist())

    def store(self) -> RowStore:
        return RowStore(self.names, self.relations, self.rhs, self.starts, self.terms, self.coefs)


@dataclass(frozen=True)
class LinearModel:
    """A mixed 0/1 linear model.

    `constraints` takes any iterable of LinearConstraint, or a RowStore, and
    holds a RowStore, so the rows read as a sequence of LinearConstraint views
    while the package's own readers use the columns.
    """

    variables: tuple[Variable, ...]
    objective_sense: str
    objective: dict[str, float]
    constraints: RowStore
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "objective", dict(self.objective))
        if not isinstance(self.constraints, RowStore):
            object.__setattr__(self, "constraints", RowStore.of(self.constraints))
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
        if len(set(rows.names)) == len(rows) and declared.issuperset(rows.terms):
            return
        # walk the rows only to report the first fault
        seen_rows = set()
        for r, row_name in enumerate(rows.names):
            if row_name in seen_rows:
                raise ValidationError(f"duplicate constraint name {row_name!r}")
            seen_rows.add(row_name)
            for name in rows.terms[rows.starts[r] : rows.starts[r + 1]]:
                if name not in declared:
                    raise ValidationError(f"constraint {row_name} references undeclared variable {name!r}")


def objective_weights(p: SelectionProblem, method: str) -> list[float]:
    """The objective coefficient of each x: its estimated value for BK and
    PCBK, its expected value for SBK and DARS (whose y terms subtract the
    penalty from it)."""
    if method in (SBK, DARS):
        return [float(r.expected_value) for r in p.requirements]
    return [float(r.value) for r in p.requirements]


def core_rows(p: SelectionProblem, method: str, x: Sequence[Hashable]) -> Iterator[tuple]:
    """The rows over x alone, as (name, coefficients, relation, rhs) over
    names or indices: the budget or price row first, then the precedence
    rows of each record in order (none for BK)."""
    weights = [float(r.cost if p.constraint_mode == BUDGET_COST else r.value) for r in p.requirements]
    name = "budget" if p.constraint_mode == BUDGET_COST else "price"
    yield name, dict(zip(x, weights)), "<=", float(p.budget)
    if method != BK:
        for ordinal, rec in enumerate(p.precedence.constraints, start=1):
            for suffix, coeffs, relation, rhs in rec.rows(x):
                yield f"prec{ordinal}_{suffix}", coeffs, relation, rhs


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
    rows = _RowBuffer()
    for name, coeffs, relation, rhs in core_rows(p, method, x_names):
        rows.add(name, coeffs, coeffs.values(), relation, rhs)
    weights = objective_weights(p, method)
    objective = dict(zip(x_names, weights))
    # the solver builds its search from the problem itself (see solver._Compiled)
    metadata = {"kind": method, "x_names": list(x_names), "problem": p}

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

        # one penalty row theta_i + I_ij x_j >= (|I_ij| + I_ij) / 2 per nonzero
        # of I, in row-major order; InfluenceMatrix keeps a zero diagonal, so
        # every nonzero is a pair i != j
        influence = p.influence.influence
        ii, jj = np.nonzero(influence)
        w = influence[ii, jj]
        x_col = np.array(x_names, dtype=object)
        terms = np.empty((len(w), 2), dtype=object)
        terms[:, 0] = np.array(thetas, dtype=object)[ii]
        terms[:, 1] = x_col[jj]
        coefs = np.ones((len(w), 2))
        coefs[:, 1] = w
        names = np.array([f"penalty_{x}_" for x in x_names], dtype=object)[ii] + x_col[jj]
        rows.add_rows(
            names.tolist(),
            [">="] * len(w),
            ((np.abs(w) + w) / 2.0).tolist(),
            terms.ravel().tolist(),
            coefs.ravel().tolist(),
            np.full(len(w), 2),
        )
        for i in range(n):
            for name, coeffs, relation, rhs in link_rows(x_names[i], gs[i], thetas[i], ys[i]):
                rows.add(f"{name}_{i + 1}", coeffs, coeffs.values(), relation, rhs)
        objective.update({ys[i]: -weights[i] for i in range(n)})
        # solve fills theta, y and g by these names
        metadata["links"] = list(zip(x_names, gs, thetas, ys))
    return LinearModel(tuple(variables), "max", objective, rows.store(), metadata)


def _lp_number(value: float) -> str:
    return f"{value:.12g}"


def _lp_numbers(values: Sequence[float], end: str = "") -> list[str]:
    """_lp_number of each value followed by `end`, formatted in one call."""
    return (f"%.12g{end}\0" * len(values) % tuple(values)).split("\0")[:-1]


def _lp_terms(coeffs: dict[str, float], pos: dict[str, int], fallback: str) -> str:
    parts = []
    for name in sorted(coeffs, key=pos.__getitem__):
        coef = coeffs[name]
        if not math.isfinite(coef):
            raise ValidationError(f"objective: coefficient {coef} of {name} is not finite")
        if coef == 0.0:
            continue
        sign = "+" if coef >= 0 else "-"
        parts.append(f"{sign} {_lp_number(abs(coef))} {name}")
    if not parts:
        # LP grammar requires at least one term
        parts.append(f"+ 0 {fallback}")
    return " ".join(parts)


def _row_lines(rows: RowStore, pos: dict[str, int], fallback: str) -> str:
    """The Subject To lines of `rows`: each `name: terms rel rhs` with its
    terms as _lp_terms writes them. Each distinct coefficient is formatted
    once, and the lines are laid out as one array of words joined by spaces."""
    nrows = len(rows)
    if not nrows:
        return ""
    coefs = np.array(rows.coefs, dtype=np.float64)
    row_of = np.repeat(np.arange(nrows), np.diff(rows.starts))
    bad = np.flatnonzero(~np.isfinite(coefs))
    if len(bad):
        k = bad[0]
        raise ValidationError(f"constraint {rows.names[row_of[k]]}: coefficient {coefs[k]} of {rows.terms[k]} is not finite")
    if not all(map(math.isfinite, rows.rhs)):
        r = next(r for r, rhs in enumerate(rows.rhs) if not math.isfinite(rhs))
        raise ValidationError(f"constraint {rows.names[r]}: right-hand side {rows.rhs[r]} is not finite")
    values, which = np.unique(coefs, return_inverse=True)
    signs = np.where(values >= 0, "+ ", "- ").astype(object)
    coef_words = (signs + np.array(_lp_numbers(np.abs(values).tolist()), dtype=object))[which]
    # each row's nonzero terms in declaration order
    key = row_of * len(pos) + np.fromiter(map(pos.__getitem__, rows.terms), np.int64, len(coefs))
    order = np.argsort(key)
    order = order[coefs[order] != 0.0]
    kept = np.bincount(row_of[order], minlength=nrows)
    # a row's words: `name:`, two per kept term (or `+ 0 fallback`), rel, rhs
    size = 3 + 2 * np.maximum(kept, 1)
    head = np.cumsum(size) - size
    words = np.empty(int(size.sum()), dtype=object)
    words[head] = np.array(rows.names, dtype=object) + ":"
    slot = head[row_of[order]] + 1 + 2 * (np.arange(len(order)) - (np.cumsum(kept) - kept)[row_of[order]])
    words[slot] = coef_words[order]
    words[slot + 1] = np.array(rows.terms, dtype=object)[order]
    empty = head[kept == 0]
    words[empty + 1] = "+ 0"
    words[empty + 2] = fallback
    words[head + size - 2] = rows.relations
    words[head + size - 1] = _lp_numbers(rows.rhs, "\n")
    return " " + " ".join(words.tolist())


def export_lp(m: LinearModel, sink: IO[str]) -> None:
    """Write the model in the industry LP file format.

    Sections: Maximize/Minimize, Subject To, Bounds (continuous variables),
    Binary, End. Terms appear in variable declaration order, and zero terms
    are dropped. For a model whose binaries are declared before its
    continuous variables, as every builder here declares them, parse_lp of
    the output equals the model up to metadata and zero coefficients, and
    exporting that parsed model writes the same bytes again. A coefficient
    or right-hand side that is infinite or NaN has no LP form: it raises
    ValidationError before anything is written.
    """
    pos = {v.name: i for i, v in enumerate(m.variables)}
    first = m.variables[0].name
    objective = _lp_terms(m.objective, pos, first)
    rows = _row_lines(m.constraints, pos, first)
    sink.write("Maximize\n" if m.objective_sense == "max" else "Minimize\n")
    sink.write(f" obj: {objective}\n")
    sink.write("Subject To\n")
    sink.write(rows)
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
# ASCII digits only: float() also reads the digits of other scripts
_NUMBER = re.compile(r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_TOKEN = re.compile(rf"<=|>=|=|[+-]|{_NAME.pattern}|{_NUMBER.pattern}")
# the characters of _NUMBER words joined by spaces, and a word that starts
# with none of the characters a _NUMBER starts with
_NUMBER_TEXT = re.compile(r"[0-9.eE+\- ]*")
_NOT_NUMBER_START = re.compile(r" [^0-9.]")

_RELATIONS = frozenset(("<=", ">=", "="))
_NUMBER_START = frozenset("0123456789.")

# the most lines parse_lp reads as one block of plain rows
_BLOCK = 4096

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
    for name, coef in coeffs.items():
        if not math.isfinite(coef):
            raise InputFormatError(f"{where}: coefficient {coef} of {name} is not finite")
    return coeffs


def _add_row(rows: _RowBuffer, name: str, tokens: list[str]) -> None:
    """Append the row `name: terms rel rhs` read from its tokens."""
    if len(tokens) > 2 and tokens[-2] in ("+", "-") and tokens[-3] in _RELATIONS:
        tokens[-2:] = [tokens[-2] + tokens[-1]]  # a signed right-hand side: >= -1
    if len(tokens) < 2 or tokens[-2] not in _RELATIONS or not _RELATIONS.isdisjoint(tokens[:-2]):
        raise InputFormatError(f"constraint {name}: expected `terms rel rhs`")
    coeffs = _parse_terms(tokens[:-2], f"constraint {name}")
    try:
        rhs = float(tokens[-1])
    except ValueError as exc:
        raise InputFormatError(f"constraint {name}: bad right-hand side") from exc
    if not math.isfinite(rhs):
        raise InputFormatError(f"constraint {name}: right-hand side {tokens[-1]!r} is not finite")
    _check_row(name, tokens[-2], len(coeffs))
    rows.add(name, coeffs, coeffs.values(), tokens[-2], rhs)


def _plain_numbers(words: list[str], signed: bool = False) -> np.ndarray | None:
    """The values of `words`, which hold no blank, if each is a finite
    _NUMBER (when `signed`, after an optional '-'), else None.

    A word of the characters [0-9.eE+-] that starts with a digit or '.' is a
    _NUMBER exactly when float() reads it, so two scans of the joined words
    and the conversion check them all."""
    text = " " + " ".join(words)
    if signed:
        text = text.replace(" -", " ")
    if not _NUMBER_TEXT.fullmatch(text) or _NOT_NUMBER_START.search(text):
        return None
    try:
        values = np.fromiter(map(float, words), np.float64, len(words))
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


def _plain_rows(lines: list[str], known: dict[str, int]) -> tuple | None:
    """The columns of `lines`, one row each, if every line is a row as
    export_lp writes it, else None.

    Such a line is ` name:`, then ` sign number term` per term, then ` rel
    rhs` and a newline, with single spaces and one colon: a sign is + or -,
    a number a finite nonzero _NUMBER, a term a _NAME named once in its row,
    rel one of _RELATIONS and rhs a finite -?_NUMBER. Its words are then its
    tokens, and the token reader would read the same row. `known` numbers
    the term names already matched against _NAME, in order; this adds the
    new ones."""
    text = "".join(lines)
    nlines = len(lines)
    size = np.fromiter(map(str.count, lines, repeat(" ")), np.intp, nlines)
    if not (
        text.startswith(" ")
        and text.endswith("\n")
        and text.count(":") == text.count("\n") == nlines
        and not (size % 3).any()
        and size.min() >= 6
    ):
        return None
    # line r holds the size[r] words after its spaces
    words = text.split(" ")
    word = np.fromiter(words, object, len(words))
    head = np.cumsum(size) - size + 1
    tail = head + size
    heads = " ".join(word[head].tolist()) + " "
    ends = " ".join(word[tail - 1].tolist())
    # every colon ends a name and every newline an rhs; a name holds no
    # blank, which the token reader would strip from it, and no comment
    if not (
        heads.count(": ") == nlines
        and heads.isprintable()
        and "\\" not in heads
        and ends.count("\n ") == nlines - 1
    ):
        return None
    relations = word[tail - 2].tolist()
    body = np.ones(len(word), dtype=bool)
    body[0] = False
    body[head] = body[tail - 2] = body[tail - 1] = False
    signs, numbers, terms = word[body].reshape(-1, 3).T
    negative = signs == "-"
    if not (negative | (signs == "+")).all() or not _RELATIONS.issuperset(relations):
        return None
    terms = terms.tolist()
    new = set(terms).difference(known)
    if not all(map(_NAME.fullmatch, new)):
        return None
    known.update(zip(new, range(len(known), len(known) + len(new))))
    values = _plain_numbers(numbers.tolist())
    rhs = _plain_numbers(ends[:-1].split("\n "), signed=True)
    if values is None or rhs is None or not values.all():
        return None
    # no term twice in a row
    terms_per_row = size // 3 - 1
    ids = np.fromiter(map(known.__getitem__, terms), np.intp, len(terms))
    key = np.repeat(np.arange(nlines) * len(known), terms_per_row) + ids
    key.sort()
    if (key[1:] == key[:-1]).any():
        return None
    coefs = np.where(negative, -values, values).tolist()
    # the model keeps one string per variable name
    terms = np.fromiter(known, object, len(known))[ids].tolist()
    return heads.split(": ")[:-1], relations, rhs.tolist(), terms, coefs, terms_per_row


def _starts_row(line: str) -> bool:
    """Whether a Subject To line starts a row: it holds one colon and no comment."""
    return line.count(":") == 1 and "\\" not in line


def _read_rows(rows: _RowBuffer, first: str, lines: Iterator[str], known: dict[str, int]) -> list[str]:
    """Read Subject To rows from the line `first` on, pulling more lines
    from `lines`, in blocks of up to _BLOCK rows of one line each, and
    return the lines read past the last block.

    A block ends only where the line after it starts a row, so it holds
    whole rows. A block of plain rows (see _plain_rows) is read at once,
    any other line by line through the token reader."""
    chunk = [first]
    while True:
        chunk += islice(lines, _BLOCK - len(chunk))
        n = len(chunk)
        ended = n < _BLOCK
        # as export_lp writes them, every line but the last is a plain row
        # and the last starts the next one
        columns = None if ended else _plain_rows(chunk[:-1], known)
        if columns is not None and _starts_row(chunk[-1]):
            rows.add_rows(*columns)
            chunk = chunk[-1:]
            continue
        starts = np.fromiter(map(_starts_row, chunk), bool, n)
        stop = n if starts.all() else int(np.argmin(starts))
        # the last row start before `stop` may go on past it
        cut = n if stop == n and ended else stop - 1
        block, chunk = chunk[:cut], chunk[cut:]
        columns = _plain_rows(block, known) if block else None
        if columns is not None:
            rows.add_rows(*columns)
        else:
            for line in block:
                head, _, body = line.strip().partition(":")
                name = head.strip()
                _add_row(rows, name, _tokens(body, "constraint", name))
        if stop < n or ended:
            return chunk


def parse_lp(source: Iterable[str]) -> LinearModel:
    """Minimal LP-format reader for files written by export_lp.

    Handles the objective, constraint rows `name: terms rel rhs` with a
    signed or unsigned rhs, simple one- and two-sided bounds (signed
    numbers, -inf, +inf), and Binary/General sections. Reads `source`, any
    iterable of lines, in one pass, and keeps at most one block of lines
    ahead. In the Subject To section a block is up to 4,096 consecutive
    rows of one line each, ending where the next line starts a row or a
    section. A block whose every line is laid out as export_lp writes a row
    (` name:`, then ` sign number name` per term, then ` rel rhs`, with
    single spaces, no zero coefficient and no name twice in a row) is read
    at once; any other block, and any row continued on a further line, is
    read token by token. Both readings give the same rows and errors.
    Any name matching [A-Za-z_][A-Za-z0-9_.]*
    is a variable, `inf` and `nan` too; a Binary-section token or the name
    slot of a Bounds line that is no such name is an error. A character that
    starts no name, number, sign or relation (`*` in `x1 * x2`, say) is an
    error naming its row or section, and so is a coefficient or right-hand
    side that is infinite or NaN (`<= inf`, `+ 1e400 x1`); bounds may be
    -inf and +inf. Variables that appear in rows but in no Bounds/Binary
    section default to continuous [0, +inf). Variables are declared in
    Binary-section order, then Bounds-section order, then any other name by
    first appearance (objective first, then rows), which is the order
    export_lp wrote them in.
    The model carries no metadata beyond {"kind": "PARSED"}. It is the
    export's verifier: it reads back what `export_lp` wrote, and exporting it
    writes the same bytes. No parsed file is solvable, since it states no
    selection problem; `solve` rejects it.
    """
    sense = "max"
    section = None
    objective_tokens: list[str] = []
    row: tuple[str, list[str]] | None = None  # the row the token reader is reading
    rows = _RowBuffer()
    known: dict[str, int] = {}  # the term names the block reader has checked
    bounds: dict[str, tuple[float, float]] = {}
    binaries: list[str] = []

    def parse_bound_token(text: str) -> float:
        try:
            # float reads inf, -inf, +inf and infinity in any case
            return float(text)
        except ValueError as exc:
            raise InputFormatError(f"bounds: bad number {text!r}") from exc

    lines = iter(source)
    ahead: list[str] = []  # lines read past the last block, last first
    while True:
        if ahead:
            raw_line = ahead.pop()
        else:
            raw_line = next(lines, None)
            if raw_line is None:
                break
            # a row starts: read on a block at a time (see _read_rows)
            if section == "constraints" and _starts_row(raw_line):
                if row is not None:
                    _add_row(rows, *row)
                    row = None
                ahead = _read_rows(rows, raw_line, lines, known)[::-1]
                continue
        line = raw_line.split("\\")[0].strip()
        if not line:
            continue
        head, colon, body = line.partition(":")
        # no section header holds a colon
        matched_section = None if colon else _SECTION_STARTS.get(line.lower())
        if matched_section is not None:
            if row is not None:
                _add_row(rows, *row)
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
                    _add_row(rows, *row)
                name = head.strip()
                row = name, _tokens(body, "constraint", name)
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
        _add_row(rows, *row)

    objective = _parse_terms(objective_tokens, "objective")
    binary_set = set(binaries)
    declared = chain(binaries, bounds, objective, rows.terms)
    variables = []
    for name in dict.fromkeys(declared):
        if name in binary_set:
            variables.append(Variable(name=name, kind=BINARY))
        else:
            lo, hi = bounds.get(name, (0.0, math.inf))
            variables.append(Variable(name=name, kind=CONTINUOUS, lower=lo, upper=hi))
    return LinearModel(tuple(variables), sense, objective, rows.store(), {"kind": "PARSED"})
