"""Expected value, dependency penalty, and overall value of a selection.

A requirement's expected value discounts its estimated value by the share of
users who actually want it: E(v_i) = p_i * v_i. A selection x then loses
value wherever it leaves an influence uncovered: the penalty

    theta_i = max over j != i of (|I(i, j)| + (1 - 2 x_j) * I(i, j)) / 2

picks the strongest positive influence that was ignored (x_j = 0) or
negative influence that was selected (x_j = 1); covered influences
contribute zero. The overall value of the selection is

    OV = sum_i x_i * (1 - theta_i) * E(v_i),

which is what the dependency-aware model maximizes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .dependency_graph import InfluenceMatrix
from .errors import InputFormatError, ValidationError, check_distinct, read_rows


@dataclass(frozen=True)
class Requirement:
    id: str
    cost: float
    value: float
    probability: float
    name: str = ""

    def __post_init__(self) -> None:
        if not 0 <= self.cost < math.inf:
            raise ValidationError(f"requirement {self.id}: cost must be finite and non-negative")
        if not 0 <= self.value < math.inf:
            raise ValidationError(f"requirement {self.id}: value must be finite and non-negative")
        if not 0.0 <= self.probability <= 1.0:
            raise ValidationError(f"requirement {self.id}: probability must lie in [0, 1]")

    @property
    def expected_value(self) -> float:
        return self.probability * self.value


@dataclass(frozen=True)
class SelectionEvaluation:
    selection: tuple[int, ...]
    theta: np.ndarray
    av: float
    ev: float
    ov: float


def _as_selection(x: Sequence[int] | np.ndarray, n: int) -> np.ndarray:
    vec = np.asarray(x)
    if vec.shape != (n,):
        raise ValidationError(f"selection vector has shape {vec.shape}, expected ({n},)")
    if not np.isin(vec, (0, 1)).all():
        raise ValidationError("selection vector must be binary")
    return vec.astype(np.float64)


def penalties(inf: InfluenceMatrix, x: Sequence[int] | np.ndarray) -> np.ndarray:
    """theta vector for all requirements, selected or not."""
    vec = _as_selection(x, inf.n)
    i_mat = inf.influence
    term = (np.abs(i_mat) + (1.0 - 2.0 * vec)[None, :] * i_mat) / 2.0
    return term.max(axis=1)


def evaluate_selection(
    reqs: Sequence[Requirement], inf: InfluenceMatrix, x: Sequence[int] | np.ndarray
) -> SelectionEvaluation:
    """Accumulated, expected, and overall value of the selection."""
    n = len(reqs)
    if inf.n != n:
        raise ValidationError(f"influence matrix is {inf.n}x{inf.n} but there are {n} requirements")
    vec = _as_selection(x, n)
    values = np.array([r.value for r in reqs])
    expected = np.array([r.expected_value for r in reqs])
    theta = penalties(inf, vec.astype(np.int64))
    return SelectionEvaluation(
        selection=tuple(int(v) for v in vec),
        theta=theta,
        av=float(vec @ values),
        ev=float(vec @ expected),
        ov=float(vec @ ((1.0 - theta) * expected)),
    )


def load_requirements(source: IO[str] | Iterable[str]) -> tuple[Requirement, ...]:
    """Parse `id,name,cost,value,probability` CSV rows.

    A header row is detected by a non-numeric cost cell. The line and
    repeated-id rules are those of `errors`.
    """
    records, _ = read_rows(source)
    if not records:
        raise InputFormatError("requirements CSV holds no data rows")

    def is_number(text: str) -> bool:
        try:
            float(text)
        except ValueError:
            return False
        return True

    if len(records[0][1]) >= 3 and not is_number(records[0][1][2]):
        records = records[1:]
        if not records:
            raise InputFormatError("requirements CSV holds a header but no data rows")

    reqs: list[Requirement] = []
    for lineno, record in records:
        if len(record) != 5:
            raise InputFormatError(f"line {lineno}: expected 5 fields (id,name,cost,value,probability)")
        rid, name, cost_s, value_s, prob_s = record
        try:
            cost, value, prob = float(cost_s), float(value_s), float(prob_s)
        except ValueError as exc:
            raise InputFormatError(f"line {lineno}: non-numeric cost/value/probability") from exc
        try:
            reqs.append(Requirement(id=rid, name=name, cost=cost, value=value, probability=prob))
        except ValidationError as exc:
            raise InputFormatError(f"line {lineno}: {exc}") from exc
    check_distinct([r.id for r in reqs], [lineno for lineno, _ in records], "requirements CSV")
    return tuple(reqs)


def save_requirements(reqs: Sequence[Requirement], sink: IO[str]) -> None:
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["id", "name", "cost", "value", "probability"])
    for r in reqs:
        writer.writerow([r.id, r.name, repr(float(r.cost)), repr(float(r.value)), repr(float(r.probability))])
