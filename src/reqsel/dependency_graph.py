"""Signed fuzzy value dependency graph, precedence records, and influence
propagation.

A value dependency graph (VDG) has an edge (i -> j) when r_i's value depends
explicitly on the selection state of r_j, carrying a strength in (0, 1] and
a quality: `+` (selecting r_j helps r_i) or `-` (it hurts). A dependency
path transfers value like a chain of fuzzy implications: its strength is the
weakest edge on it and its quality is the product of edge signs (a missing
edge makes the quality non-specified, which absorbs everything).

All-pairs propagation takes, for every ordered pair, the strongest positive
path and the strongest negative path separately:

    pos(i, j) = sup over positive-quality paths i -> j of min edge strength
    neg(i, j) = sup over negative-quality paths of the same
    I(i, j)   = pos(i, j) - neg(i, j)

Both suprema come from one max-min transitive closure of the parity-expanded
state graph over 2n states (node, sign): a `+` edge (i -> j) preserves the
walk's sign, a `-` edge flips it. Removing a repeated-state cycle from a
walk never lowers its min strength, so suprema over walks equal suprema over
state-simple paths; the closure and the DFS oracle in tests/ both compute
the latter, which also settles how node revisits in the original graph are
treated (a node may be revisited when the accumulated sign differs).

The source method's single-pass interleaved Floyd-Warshall can
under-converge on cyclic graphs where positive and negative strengths feed
each other, because processing node k once cannot use both parities of k
as intermediates. `propagate_strengths` is the authoritative semantics; the
test suite keeps the single-pass version as an oracle.

Each precedence record states its own rules: `check(n)`, its weight
`pairs` in the precedence density, its model `rows(x)` over the x names,
and its constraints-JSON item `to_json(ids)`.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence, Union

import numpy as np

from .errors import InputFormatError, ValidationError, check_distinct, read_rows

POSITIVE = "+"
NEGATIVE = "-"


@dataclass(frozen=True)
class ValueDependencyGraph:
    """n nodes; edges map (i, j) -> (strength in (0, 1], quality in {+, -})."""

    n: int
    edges: dict[tuple[int, int], tuple[float, str]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError("graph needs at least one node")
        object.__setattr__(self, "edges", dict(self.edges))
        for (i, j), (strength, quality) in self.edges.items():
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValidationError(f"edge ({i}, {j}) out of range for n={self.n}")
            if i == j:
                raise ValidationError(f"self-edge on node {i} not allowed")
            if not 0.0 < strength <= 1.0:
                raise ValidationError(f"edge ({i}, {j}) strength {strength} outside (0, 1]")
            if quality not in (POSITIVE, NEGATIVE):
                raise ValidationError(f"edge ({i}, {j}) quality {quality!r} must be + or -")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def negative_edge_count(self) -> int:
        return sum(1 for _, q in self.edges.values() if q == NEGATIVE)


def _check_index(idx: int, n: int) -> None:
    if not 0 <= idx < n:
        raise ValidationError(f"requirement index {idx} out of range for n={n}")


PrecedenceRow = tuple[str, dict[str, float], str, float]


@dataclass(frozen=True)
class RequiresAll:
    """Selecting `source` requires selecting `target`."""

    source: int
    target: int
    pairs = 1

    def check(self, n: int) -> None:
        _check_index(self.source, n)
        _check_index(self.target, n)
        if self.source == self.target:
            raise ValidationError("a requirement cannot require itself")

    def rows(self, x: Sequence[str]) -> tuple[PrecedenceRow, ...]:
        return (("requires_all", {x[self.source]: 1.0, x[self.target]: -1.0}, "<=", 0.0),)

    def to_json(self, ids: Sequence[str]) -> dict:
        return {"type": "requires_all", "source": ids[self.source], "targets": [ids[self.target]]}


@dataclass(frozen=True)
class RequiresAny:
    """Selecting `source` requires selecting at least one target."""

    source: int
    targets: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(self.targets))

    @property
    def pairs(self) -> int:
        return len(self.targets)

    def check(self, n: int) -> None:
        _check_index(self.source, n)
        if not self.targets:
            raise ValidationError("requires-any needs a non-empty target set")
        for t in self.targets:
            _check_index(t, n)
        if self.source in self.targets:
            raise ValidationError("requires-any source cannot be its own target")
        if len(set(self.targets)) != len(self.targets):
            raise ValidationError("requires-any targets must be distinct")

    def rows(self, x: Sequence[str]) -> tuple[PrecedenceRow, ...]:
        coeffs = {x[self.source]: 1.0, **{x[t]: -1.0 for t in self.targets}}
        return (("requires_any", coeffs, "<=", 0.0),)

    def to_json(self, ids: Sequence[str]) -> dict:
        return {"type": "requires_any", "source": ids[self.source], "targets": [ids[t] for t in self.targets]}


@dataclass(frozen=True)
class Conflicts:
    """The two requirements cannot both be selected (unordered pair)."""

    a: int
    b: int
    pairs = 1

    def check(self, n: int) -> None:
        _check_index(self.a, n)
        _check_index(self.b, n)
        if self.a == self.b:
            raise ValidationError("a requirement cannot conflict with itself")

    def rows(self, x: Sequence[str]) -> tuple[PrecedenceRow, ...]:
        # the source model states conflicts twice (x_a <= 1 - x_b and
        # x_b <= 1 - x_a); both rows are kept verbatim
        pair = {x[self.a]: 1.0, x[self.b]: 1.0}
        return (("conflict_ab", pair, "<=", 1.0), ("conflict_ba", pair, "<=", 1.0))

    def to_json(self, ids: Sequence[str]) -> dict:
        return {"type": "conflicts", "source": ids[self.a], "targets": [ids[self.b]]}


@dataclass(frozen=True)
class ExactlyOne:
    """Exactly one member of the set must be selected."""

    members: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))

    @property
    def pairs(self) -> int:
        return len(self.members) * (len(self.members) - 1) // 2

    def check(self, n: int) -> None:
        if len(self.members) < 2:
            raise ValidationError("exactly-one needs at least two members")
        if len(set(self.members)) != len(self.members):
            raise ValidationError("exactly-one members must be distinct")
        for m in self.members:
            _check_index(m, n)

    def rows(self, x: Sequence[str]) -> tuple[PrecedenceRow, ...]:
        return (("exactly_one", {x[m]: 1.0 for m in self.members}, "=", 1.0),)

    def to_json(self, ids: Sequence[str]) -> dict:
        return {"type": "exactly_one", "targets": [ids[m] for m in self.members]}


_RECORD_TYPES = (RequiresAll, RequiresAny, Conflicts, ExactlyOne)
PrecedenceRecord = Union[_RECORD_TYPES]


@dataclass(frozen=True)
class PrecedenceGraph:
    n: int
    constraints: tuple[PrecedenceRecord, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError("precedence graph needs at least one node")
        object.__setattr__(self, "constraints", tuple(self.constraints))
        for rec in self.constraints:
            if not isinstance(rec, _RECORD_TYPES):
                raise ValidationError(f"unknown precedence record {rec!r}")
            rec.check(self.n)

    @classmethod
    def empty(cls, n: int) -> "PrecedenceGraph":
        return cls(n=n, constraints=())


@dataclass(frozen=True)
class InfluenceMatrix:
    """Strongest positive and negative propagated strengths per ordered pair,
    and their difference I = pos - neg."""

    pos: np.ndarray
    neg: np.ndarray
    influence: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        pos = np.asarray(self.pos, dtype=np.float64)
        neg = np.asarray(self.neg, dtype=np.float64)
        object.__setattr__(self, "pos", pos)
        object.__setattr__(self, "neg", neg)
        if pos.ndim != 2 or pos.shape[0] != pos.shape[1] or pos.shape != neg.shape:
            raise ValidationError("pos and neg must be square matrices of the same shape")
        for name, mat in (("pos", pos), ("neg", neg)):
            if not ((mat >= 0.0) & (mat <= 1.0)).all():
                raise ValidationError(f"{name} entries must lie in [0, 1]")
            if np.abs(np.diag(mat)).max(initial=0.0) != 0.0:
                raise ValidationError(f"{name} diagonal must be zero (no self-influence)")
        object.__setattr__(self, "influence", pos - neg)

    @property
    def n(self) -> int:
        return self.pos.shape[0]

    @classmethod
    def zeros(cls, n: int) -> "InfluenceMatrix":
        return cls(pos=np.zeros((n, n)), neg=np.zeros((n, n)))


def propagate_strengths(g: ValueDependencyGraph) -> InfluenceMatrix:
    """Max-min transitive closure on the parity-expanded state graph.

    States are [(0,+)..(n-1,+), (0,-)..(n-1,-)]; a positive edge connects
    equal parities, a negative edge opposite ones, so the expanded adjacency
    is [[P, N], [N, P]], and pos(i, j) / neg(i, j) are its (i,+) -> (j,+) and
    (i,+) -> (j,-) closure entries. Flipping every parity is an automorphism
    of that graph, so after both pivots (k,+) and (k,-) of a Floyd-Warshall
    sweep the matrix again has the block form [[A, B], [B, A]]: only the two
    n x n blocks A (pos) and B (neg) are kept. Pivot (k,+) updates them from
    column k of A and row k of A and B; pivot (k,-) needs column k of the new
    B and row (k,-) of the bottom blocks, which are vector updates of rows k
    of A and B. That is four outer-min and four max passes over n x n per
    node, O(4 n^3) in all against O(8 n^3) for the expanded closure. Max and
    min only select values, so the result does not depend on pivot order and
    equals the expanded closure bit for bit.

    The closure runs on strength ranks, not on the strengths: with the U
    distinct edge strengths sorted into `levels[1..U]` and `levels[0] = 0.0`
    for "no path", each block entry holds an index into `levels`. That map
    is strictly increasing and sends 0 to 0.0, so it commutes with max and
    min, and `levels[closure of ranks]` is the float64 closure bit for bit.
    The blocks take the smallest unsigned dtype that holds U (uint8 up to
    255 distinct strengths, uint16 up to 65,535, else uint32), which cuts
    the bytes each pass streams by 8x, 4x or 2x against float64.
    """
    levels, a, b = _rank_closure(g)
    return InfluenceMatrix(pos=levels[a], neg=levels[b])


def _rank_closure(g: ValueDependencyGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`levels` and the closed rank blocks A and B of propagate_strengths.

    A function of its own so that the pass buffer and the ranking arrays are
    freed before the caller builds the float64 matrices.
    """
    n = g.n
    strengths = np.fromiter((rho for rho, _ in g.edges.values()), np.float64, len(g.edges))
    distinct, rank = np.unique(strengths, return_inverse=True)
    levels = np.concatenate(([0.0], distinct))
    dtype = np.min_scalar_type(len(distinct))
    a = np.zeros((n, n), dtype=dtype)
    b = np.zeros((n, n), dtype=dtype)
    for ((i, j), (_, q)), r in zip(g.edges.items(), (rank + 1).tolist()):
        (a if q == POSITIVE else b)[i, j] = r
    tmp = np.empty((n, n), dtype=dtype)

    def relax(block: np.ndarray, col: np.ndarray, row: np.ndarray) -> None:
        np.minimum(col[:, None], row[None, :], out=tmp)
        np.maximum(block, tmp, out=block)

    for k in range(n):
        # pivot (k,+): column (k,+) and row (k,+) are left unchanged by it
        a_col, a_row, b_row = a[:, k].copy(), a[k].copy(), b[k].copy()
        bkk = b[k, k]
        relax(a, a_col, a_row)
        relax(b, a_col, b_row)
        # pivot (k,-): column (k,-) of the top half is column k of the new b;
        # row (k,-) of the bottom blocks after pivot (k,+) follows in closed form
        minus_col = b[:, k].copy()
        minus_left = np.maximum(b_row, np.minimum(bkk, a_row))
        minus_right = np.maximum(a_row, np.minimum(bkk, b_row))
        relax(a, minus_col, minus_left)
        relax(b, minus_col, minus_right)
    np.fill_diagonal(a, 0)
    np.fill_diagonal(b, 0)
    return levels, a, b


def vdl_nvdl(g: ValueDependencyGraph) -> tuple[float, float | None]:
    """Dependency density k/(n(n-1)) and negative share m/k (None if k=0)."""
    if g.n < 2:
        raise ValidationError("dependency level needs at least two nodes")
    k = g.edge_count
    vdl = k / (g.n * (g.n - 1))
    if k == 0:
        return vdl, None
    return vdl, g.negative_edge_count / k


def pdl_npdl(p: PrecedenceGraph) -> tuple[float, float | None]:
    """Precedence density over each record's `pairs` (one per required or
    conflicting pair, per member pair of exactly-one) and the conflicts share."""
    if p.n < 2:
        raise ValidationError("precedence level needs at least two nodes")
    k = sum(rec.pairs for rec in p.constraints)
    negative = sum(isinstance(rec, Conflicts) for rec in p.constraints)
    pdl = k / (p.n * (p.n - 1))
    if k == 0:
        return pdl, None
    return pdl, negative / k


def save_vdg(g: ValueDependencyGraph, sink: IO[str], ids: Sequence[str]) -> None:
    """Write `from,to,strength,quality` rows, quality in {+, -}.

    A `# nodes` comment records the full node universe so isolated nodes
    survive a round trip through the edge list.
    """
    if len(ids) != g.n:
        raise ValidationError("id list length does not match node count")
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["# nodes", *ids])
    writer.writerow(["from", "to", "strength", "quality"])
    for (i, j) in sorted(g.edges):
        rho, q = g.edges[(i, j)]
        writer.writerow([ids[i], ids[j], repr(float(rho)), q])


def load_vdg(
    source: IO[str] | Iterable[str], ids: Sequence[str] | None = None
) -> tuple[ValueDependencyGraph, tuple[str, ...]]:
    """Read a VDG CSV; returns the graph plus the node id order used.

    With `ids` given, nodes map onto that universe (unknown ids are errors).
    Without it, the last `# nodes` comment in the file supplies the universe;
    as a last resort nodes are the ids seen in edges, in first-appearance
    order. The line and repeated-id rules are those of `errors`.
    """
    rows, comments = read_rows(source)
    universe: list[str] | None = None
    for lineno, cells in comments:
        if cells[0].lower() == "# nodes" and len(cells) > 1:
            universe = cells[1:]
            check_distinct(universe, [lineno] * len(universe), "# nodes comment")
    if ids is None:
        ids = universe
    if rows and [c.lower() for c in rows[0][1]] == ["from", "to", "strength", "quality"]:
        rows = rows[1:]

    grow = ids is None
    index: dict[str, int] = {} if grow else {name: pos for pos, name in enumerate(ids)}
    edges: dict[tuple[int, int], tuple[float, str]] = {}
    for lineno, record in rows:
        if len(record) != 4:
            raise InputFormatError(f"line {lineno}: expected 4 fields, found {len(record)}")
        src, dst, strength_text, quality = record
        try:
            strength = float(strength_text)
        except ValueError as exc:
            raise InputFormatError(f"line {lineno}: strength {strength_text!r} is not a number") from exc
        if quality not in (POSITIVE, NEGATIVE):
            raise InputFormatError(f"line {lineno}: quality {quality!r} must be + or -")
        if not 0.0 < strength <= 1.0:
            raise InputFormatError(f"line {lineno}: strength {strength} outside (0, 1]")
        for name in (src, dst):
            if grow:
                index.setdefault(name, len(index))
            elif name not in index:
                raise InputFormatError(f"line {lineno}: unknown requirement id {name!r}")
        key = (index[src], index[dst])
        if key in edges:
            raise InputFormatError(f"line {lineno}: duplicate edge {src} -> {dst}")
        edges[key] = (strength, quality)
    if grow and not index:
        raise InputFormatError("VDG CSV holds no edges and no id universe was supplied")
    names = tuple(index) if grow else tuple(ids)
    return ValueDependencyGraph(n=len(names), edges=edges), names


# a tuple, so that `in` compares a list or object "type" instead of hashing it
_CONSTRAINT_TYPES = ("requires_all", "requires_any", "conflicts", "exactly_one")


def load_constraints(source: IO[str], ids: Sequence[str]) -> PrecedenceGraph:
    """Parse the constraints JSON array against a known id universe.

    Schema per item: {"type": ..., "source": id, "targets": [ids]} with type
    one of requires_all / requires_any / conflicts / exactly_one. A
    requires_all or conflicts item with several targets expands to one record
    per target; exactly_one takes its whole member set from "targets". The
    array may also arrive wrapped as {"records": [...]} so that generated
    files can carry metadata keys alongside. Each item is checked as it is
    read, so the first fault in file order is reported, with its record
    number.
    """
    try:
        data = json.load(source)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"constraints JSON malformed: {exc}") from exc
    if isinstance(data, dict) and isinstance(data.get("records"), list):
        data = data["records"]
    if not isinstance(data, list):
        raise InputFormatError("constraints JSON must be an array of records")
    index = {name: pos for pos, name in enumerate(ids)}

    def resolve(name: object, where: str) -> int:
        if not isinstance(name, str) or name not in index:
            raise InputFormatError(f"record {where}: unknown requirement id {name!r}")
        return index[name]

    records: list[PrecedenceRecord] = []
    for pos, item in enumerate(data):
        where = f"#{pos + 1}"
        if not isinstance(item, dict) or "type" not in item:
            raise InputFormatError(f"record {where}: expected an object with a \"type\" key")
        kind = item["type"]
        if kind not in _CONSTRAINT_TYPES:
            raise InputFormatError(f"record {where}: unknown type {kind!r}")
        targets = item.get("targets")
        if not isinstance(targets, list) or not targets:
            raise InputFormatError(f"record {where}: \"targets\" must be a non-empty array")
        target_idx = [resolve(t, where) for t in targets]
        if kind == "exactly_one":
            members = target_idx
            if "source" in item and item["source"] is not None:
                members = [resolve(item["source"], where), *target_idx]
            read: list[PrecedenceRecord] = [ExactlyOne(members=tuple(members))]
        else:
            source_idx = resolve(item.get("source"), where)
            if kind == "requires_all":
                read = [RequiresAll(source=source_idx, target=t) for t in target_idx]
            elif kind == "requires_any":
                read = [RequiresAny(source=source_idx, targets=tuple(target_idx))]
            else:
                read = [Conflicts(a=source_idx, b=t) for t in target_idx]
        try:
            for rec in read:
                rec.check(len(index))
        except ValidationError as exc:
            raise InputFormatError(f"record {where}: {exc}") from exc
        records.extend(read)
    try:
        return PrecedenceGraph(n=len(index), constraints=tuple(records))
    except ValidationError as exc:
        raise InputFormatError(f"constraints JSON invalid: {exc}") from exc


def save_constraints(p: PrecedenceGraph, sink: IO[str], ids: Sequence[str]) -> None:
    if len(ids) != p.n:
        raise ValidationError("id list length does not match node count")
    json.dump([rec.to_json(ids) for rec in p.constraints], sink, indent=2)
    sink.write("\n")


def save_influence_matrix(inf: InfluenceMatrix, sink: IO[str], ids: Sequence[str]) -> None:
    """Write the net influence matrix as `id,<id1>,...` CSV rows."""
    if len(ids) != inf.n:
        raise ValidationError("id list length does not match matrix dimension")
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(["id", *ids])
    for i, name in enumerate(ids):
        writer.writerow([name, *(repr(float(v)) for v in inf.influence[i])])


def load_influence_matrix(source: IO[str]) -> tuple[InfluenceMatrix, tuple[str, ...]]:
    """Read a net influence matrix written by save_influence_matrix.

    Only the net influence survives a round trip; the positive and negative
    parts are recovered as its positive and negative components, which yield
    identical penalties. The line and repeated-id rules are those of `errors`.
    """
    rows, _ = read_rows(source)
    if len(rows) < 2:
        raise InputFormatError("influence CSV needs a header row and one row per requirement")
    header_no, header = rows[0]
    if header[0] != "id":
        raise InputFormatError(f"line {header_no}: expected header starting with \"id\"")
    names = tuple(header[1:])
    n = len(names)
    check_distinct(names, [header_no] * n, "header")
    if len(rows) - 1 != n:
        raise InputFormatError(f"expected {n} matrix rows, found {len(rows) - 1}")
    matrix = np.zeros((n, n))
    for i, (lineno, cells) in enumerate(rows[1:]):
        if len(cells) != n + 1:
            raise InputFormatError(f"line {lineno}: expected {n + 1} columns, found {len(cells)}")
        if cells[0] != names[i]:
            raise InputFormatError(f"line {lineno}: row id {cells[0]!r} does not match header order")
        for j, cell in enumerate(cells[1:]):
            try:
                value = float(cell)
            except ValueError as exc:
                raise InputFormatError(f"line {lineno}: bad influence value {cell!r}") from exc
            if not -1.0 <= value <= 1.0:
                raise InputFormatError(f"line {lineno}: influence value {cell!r} outside [-1, 1]")
            matrix[i, j] = value
    try:
        inf = InfluenceMatrix(pos=np.clip(matrix, 0.0, None), neg=np.clip(-matrix, 0.0, None))
    except ValidationError as exc:
        raise InputFormatError(f"influence CSV invalid: {exc}") from exc
    return inf, names
