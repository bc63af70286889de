"""Bundled real-world dataset: 27 requirements of a commercial product.

Estimated values v are exact money units; expected values E were published
to two decimals, so the stored selection probability is p = E / v rather
than the independently rounded two-decimal p of the source table. That
keeps E(v_i) = p_i * v_i exact, the value sum at 342.00 and the expected
value sum at 232.99 on the nose, while every stored p still rounds back to
the published two-decimal figure.

Costs were not published (selection ran under a price constraint, price =
percent/100 * 342), so every cost is zero and the dataset is meant for
PRICE_VALUE mode. The published value dependency graph exists only as a
heatmap figure, so the bundle carries no VDG: a dependency-aware run on it
takes `--vdg` or `--influence`, and without either it has no dependencies.

Note the dataset's own quirk: r19 and r20 require both r2 and r6 while
exactly one of r2, r6 may be selected, so r19 and r20 are never selectable.
The constraints are kept verbatim from the source project.
"""

from __future__ import annotations

from .dependency_graph import (
    Conflicts,
    ExactlyOne,
    InfluenceMatrix,
    PrecedenceGraph,
    RequiresAll,
    RequiresAny,
)
from .selection_models import PRICE_VALUE, SelectionProblem
from .valuation import Requirement

# (id, estimated value v, expected value E); p is stored as E / v
_TABLE: tuple[tuple[str, float, float], ...] = (
    ("r1", 10.00, 9.43),
    ("r2", 20.00, 20.00),
    ("r3", 5.00, 1.85),
    ("r4", 17.00, 16.61),
    ("r5", 6.00, 5.28),
    ("r6", 20.00, 18.30),
    ("r7", 15.00, 12.36),
    ("r8", 9.00, 9.00),
    ("r9", 20.00, 19.43),
    ("r10", 16.00, 12.18),
    ("r11", 20.00, 11.36),
    ("r12", 12.00, 12.00),
    ("r13", 8.00, 6.09),
    ("r14", 14.00, 6.28),
    ("r15", 8.00, 4.64),
    ("r16", 10.00, 8.24),
    ("r17", 10.00, 1.19),
    ("r18", 15.00, 7.59),
    ("r19", 20.00, 13.41),
    ("r20", 20.00, 4.09),
    ("r21", 15.00, 2.05),
    ("r22", 20.00, 6.59),
    ("r23", 20.00, 17.61),
    ("r24", 1.00, 1.00),
    ("r25", 5.00, 1.19),
    ("r26", 1.00, 0.36),
    ("r27", 5.00, 4.86),
)

TOTAL_VALUE = 342.0
TOTAL_EXPECTED_VALUE = 232.99


def case_study_requirements() -> tuple[Requirement, ...]:
    return tuple(
        Requirement(id=rid, cost=0.0, value=v, probability=e / v) for rid, v, e in _TABLE
    )


def case_study_precedence() -> PrecedenceGraph:
    ix = {rid: i for i, (rid, _, _) in enumerate(_TABLE)}

    def i(rid: str) -> int:
        return ix[rid]

    constraints = (
        ExactlyOne(members=(i("r2"), i("r6"))),
        RequiresAny(source=i("r4"), targets=(i("r1"), i("r2"))),
        RequiresAny(source=i("r5"), targets=(i("r1"), i("r2"))),
        RequiresAny(source=i("r8"), targets=(i("r1"), i("r2"))),
        RequiresAll(source=i("r8"), target=i("r25")),
        Conflicts(a=i("r17"), b=i("r18")),
        RequiresAll(source=i("r19"), target=i("r2")),
        RequiresAll(source=i("r19"), target=i("r6")),
        RequiresAll(source=i("r20"), target=i("r2")),
        RequiresAll(source=i("r20"), target=i("r6")),
        RequiresAll(source=i("r26"), target=i("r27")),
        RequiresAll(source=i("r27"), target=i("r1")),
        RequiresAll(source=i("r27"), target=i("r6")),
    )
    return PrecedenceGraph(n=len(_TABLE), constraints=constraints)


def case_study_problem(
    percent: float = 100.0, influence: InfluenceMatrix | None = None
) -> SelectionProblem:
    """The selection instance at one price level (price = percent/100 * 342)."""
    return SelectionProblem(
        requirements=case_study_requirements(),
        budget=percent / 100.0 * TOTAL_VALUE,
        constraint_mode=PRICE_VALUE,
        precedence=case_study_precedence(),
        influence=influence,
    )
