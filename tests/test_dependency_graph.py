import io
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    UNSPECIFIED,
    alg2_reference,
    brute_force_influence,
    combine_quality,
    expanded_closure,
    path_strength,
    reference_check_precedence,
    reference_pdl_npdl,
    reference_precedence_rows,
    reference_save_constraints,
)
from reqsel import (
    BK,
    DARS,
    PCBK,
    SBK,
    Conflicts,
    ExactlyOne,
    InfluenceMatrix,
    PrecedenceGraph,
    RequiresAll,
    RequiresAny,
    Requirement,
    SelectionProblem,
    ValidationError,
    ValueDependencyGraph,
    build_model,
    propagate_strengths,
)
from reqsel.dependency_graph import (
    NEGATIVE,
    POSITIVE,
    load_constraints,
    load_influence_matrix,
    load_vdg,
    pdl_npdl,
    save_constraints,
    save_influence_matrix,
    save_vdg,
    vdl_nvdl,
)
from reqsel.errors import InputFormatError

# Four requirements: value flows to r4 over two positive chains while a
# direct negative edge competes.
CHAIN_GRAPH = ValueDependencyGraph(
    n=4,
    edges={
        (0, 1): (0.4, POSITIVE),
        (1, 3): (0.3, POSITIVE),
        (0, 2): (0.8, POSITIVE),
        (2, 3): (0.8, POSITIVE),
        (0, 3): (0.1, NEGATIVE),
    },
)


def random_graph(n, density, negative_share, seed):
    rng = np.random.default_rng(seed)
    edges = {}
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                quality = NEGATIVE if rng.random() < negative_share else POSITIVE
                edges[(i, j)] = (float(1.0 - rng.random()), quality)
    return ValueDependencyGraph(n=n, edges=edges)


def assert_closure_exact(g):
    """propagate_strengths equals the expanded closure bit for bit, as float64
    holding only 0.0 and the graph's own edge strengths."""
    inf = propagate_strengths(g)
    pos, neg = expanded_closure(g)
    assert np.array_equal(inf.pos, pos)
    assert np.array_equal(inf.neg, neg)
    strengths = {0.0} | {rho for rho, _ in g.edges.values()}
    for block in (inf.pos, inf.neg):
        assert block.dtype == np.float64
        assert set(np.unique(block).tolist()) <= strengths
    return inf


class TestQualityAlgebra:
    def test_serial_composition(self):
        assert combine_quality(POSITIVE, POSITIVE) == POSITIVE
        assert combine_quality(POSITIVE, NEGATIVE) == NEGATIVE
        assert combine_quality(NEGATIVE, POSITIVE) == NEGATIVE
        assert combine_quality(NEGATIVE, NEGATIVE) == POSITIVE

    def test_unspecified_absorbs(self):
        for other in (POSITIVE, NEGATIVE, UNSPECIFIED):
            assert combine_quality(UNSPECIFIED, other) == UNSPECIFIED
            assert combine_quality(other, UNSPECIFIED) == UNSPECIFIED


class TestPathStrength:
    def test_weakest_edge_wins(self):
        assert path_strength(CHAIN_GRAPH, (0, 1, 3)) == (POSITIVE, 0.3)
        assert path_strength(CHAIN_GRAPH, (0, 2, 3)) == (POSITIVE, 0.8)

    def test_negative_edge_flips_quality(self):
        assert path_strength(CHAIN_GRAPH, (0, 3)) == (NEGATIVE, 0.1)

    def test_missing_edge_is_unspecified_zero(self):
        assert path_strength(CHAIN_GRAPH, (1, 2, 3)) == (UNSPECIFIED, 0.0)

    def test_short_path_rejected(self):
        with pytest.raises(ValidationError):
            path_strength(CHAIN_GRAPH, (2,))


class TestGraphValidation:
    def test_rejects_self_edge(self):
        with pytest.raises(ValidationError):
            ValueDependencyGraph(n=2, edges={(0, 0): (0.5, POSITIVE)})

    def test_rejects_zero_strength(self):
        with pytest.raises(ValidationError):
            ValueDependencyGraph(n=2, edges={(0, 1): (0.0, POSITIVE)})

    def test_rejects_strength_above_one(self):
        with pytest.raises(ValidationError):
            ValueDependencyGraph(n=2, edges={(0, 1): (1.1, POSITIVE)})

    def test_rejects_bad_quality(self):
        with pytest.raises(ValidationError):
            ValueDependencyGraph(n=2, edges={(0, 1): (0.5, "x")})

    def test_rejects_out_of_range_node(self):
        with pytest.raises(ValidationError):
            ValueDependencyGraph(n=2, edges={(0, 2): (0.5, POSITIVE)})

    def test_edge_counters(self):
        assert CHAIN_GRAPH.edge_count == 5
        assert CHAIN_GRAPH.negative_edge_count == 1


class TestPropagation:
    def test_chain_graph_exact(self):
        inf = propagate_strengths(CHAIN_GRAPH)
        assert inf.pos[0, 3] == 0.8
        assert inf.neg[0, 3] == 0.1
        assert inf.influence[0, 3] == pytest.approx(0.7, abs=1e-15)
        # one-hop facts
        assert inf.pos[0, 1] == 0.4
        assert inf.pos[0, 2] == 0.8
        assert inf.pos[1, 3] == 0.3
        # nothing flows backwards
        assert inf.pos[3, 0] == 0.0 and inf.neg[3, 0] == 0.0

    def test_single_negative_edge(self):
        g = ValueDependencyGraph(n=2, edges={(0, 1): (0.6, NEGATIVE)})
        inf = propagate_strengths(g)
        assert inf.pos[0, 1] == 0.0
        assert inf.neg[0, 1] == 0.6
        assert inf.influence[0, 1] == -0.6

    def test_two_negatives_make_a_positive(self):
        g = ValueDependencyGraph(
            n=3, edges={(0, 1): (0.5, NEGATIVE), (1, 2): (0.9, NEGATIVE)}
        )
        inf = propagate_strengths(g)
        assert inf.pos[0, 2] == 0.5
        assert inf.neg[0, 2] == 0.0

    def test_diagonal_stays_zero_even_on_cycles(self):
        g = ValueDependencyGraph(
            n=2, edges={(0, 1): (0.5, POSITIVE), (1, 0): (0.7, POSITIVE)}
        )
        inf = propagate_strengths(g)
        assert np.all(np.diag(inf.pos) == 0.0)
        assert np.all(np.diag(inf.neg) == 0.0)

    @pytest.mark.parametrize("seed", range(25))
    def test_matches_exhaustive_path_search(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 8))
        g = random_graph(n, float(rng.uniform(0.1, 0.5)), 0.3, seed + 1000)
        closure = propagate_strengths(g)
        brute = brute_force_influence(g, 2 * n)
        assert np.array_equal(closure.pos, brute.pos)
        assert np.array_equal(closure.neg, brute.neg)

    @pytest.mark.parametrize("seed", range(10))
    def test_single_pass_reference_never_exceeds_closure(self, seed):
        g = random_graph(6, 0.4, 0.4, seed)
        closure = propagate_strengths(g)
        reference = alg2_reference(g)
        assert np.all(reference.pos <= closure.pos + 1e-15)
        assert np.all(reference.neg <= closure.neg + 1e-15)

    @pytest.mark.parametrize("seed", range(10))
    def test_single_pass_reference_exact_on_dags(self, seed):
        rng = np.random.default_rng(seed)
        edges = {}
        for i in range(6):
            for j in range(i + 1, 6):
                if rng.random() < 0.5:
                    quality = NEGATIVE if rng.random() < 0.4 else POSITIVE
                    edges[(i, j)] = (float(1.0 - rng.random()), quality)
        g = ValueDependencyGraph(n=6, edges=edges)
        closure = propagate_strengths(g)
        reference = alg2_reference(g)
        assert np.array_equal(reference.pos, closure.pos)
        assert np.array_equal(reference.neg, closure.neg)

    def test_composition_cannot_beat_closure(self):
        # transitivity: chaining closure entries never exceeds the closure
        g = random_graph(7, 0.4, 0.3, 77)
        inf = propagate_strengths(g)
        for i in range(7):
            for j in range(7):
                if i == j:
                    continue
                for k in range(7):
                    if k in (i, j):
                        continue
                    assert min(inf.pos[i, k], inf.pos[k, j]) <= inf.pos[i, j]
                    assert min(inf.neg[i, k], inf.neg[k, j]) <= inf.pos[i, j]
                    assert min(inf.pos[i, k], inf.neg[k, j]) <= inf.neg[i, j]
                    assert min(inf.neg[i, k], inf.pos[k, j]) <= inf.neg[i, j]

    def test_adding_an_edge_is_monotone(self):
        g = random_graph(6, 0.3, 0.3, 5)
        before = propagate_strengths(g)
        extra = dict(g.edges)
        for i in range(6):
            for j in range(6):
                if i != j and (i, j) not in extra:
                    extra[(i, j)] = (0.45, POSITIVE)
                    break
            else:
                continue
            break
        after = propagate_strengths(ValueDependencyGraph(n=6, edges=extra))
        assert np.all(after.pos >= before.pos)
        assert np.all(after.neg >= before.neg)

    def test_strength_capped_by_strongest_outgoing_edge(self):
        g = random_graph(6, 0.4, 0.3, 13)
        inf = propagate_strengths(g)
        for i in range(6):
            outgoing = [rho for (a, _), (rho, _) in g.edges.items() if a == i]
            cap = max(outgoing, default=0.0)
            assert inf.pos[i].max() <= cap
            assert inf.neg[i].max() <= cap

    @pytest.mark.parametrize("seed", range(200))
    def test_block_closure_matches_expanded_closure(self, seed):
        # random signed graphs with n = 1..60, each threaded by a directed
        # cycle through every node whose edge signs are mixed
        rng = np.random.default_rng(seed)
        n = 1 + seed % 60
        g = random_graph(n, float(rng.uniform(0.0, 0.3)), float(rng.uniform(0.0, 0.7)), seed)
        edges = dict(g.edges)
        order = rng.permutation(n)
        if n > 1:
            for a, b in zip(order, np.roll(order, -1)):
                quality = NEGATIVE if rng.random() < 0.5 else POSITIVE
                edges[(int(a), int(b))] = (float(rng.choice([0.25, 0.5, 1.0 - rng.random()])), quality)
        g = ValueDependencyGraph(n=n, edges=edges)
        inf = propagate_strengths(g)
        pos, neg = expanded_closure(g)
        assert np.array_equal(inf.pos, pos)
        assert np.array_equal(inf.neg, neg)

    @pytest.mark.parametrize("seed", range(20))
    def test_tied_strengths_match_expanded_closure(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        edges = {}
        for i in range(n):
            for j in range(n):
                if i != j and rng.random() < 0.3:
                    quality = NEGATIVE if rng.random() < 0.4 else POSITIVE
                    edges[(i, j)] = (float(rng.choice([0.25, 0.5, 1.0])), quality)
        assert_closure_exact(ValueDependencyGraph(n=n, edges=edges))

    @pytest.mark.parametrize(
        "n, density, rank_dtype", [(40, 0.5, np.uint16), (300, 0.9, np.uint32)]
    )
    def test_many_distinct_strengths_match_expanded_closure(self, n, density, rank_dtype):
        # past 255 distinct strengths the ranks need uint16, past 65,535 uint32
        g = random_graph(n, density, 0.3, n)
        assert np.min_scalar_type(len({rho for rho, _ in g.edges.values()})) == rank_dtype
        assert_closure_exact(g)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_edgeless_graph_closes_to_zero(self, n):
        inf = assert_closure_exact(ValueDependencyGraph(n=n, edges={}))
        assert not inf.pos.any() and not inf.neg.any()

    def test_brute_force_guards(self):
        with pytest.raises(ValidationError):
            brute_force_influence(ValueDependencyGraph(n=11, edges={}), 4)
        with pytest.raises(ValidationError):
            brute_force_influence(CHAIN_GRAPH, 0)


class TestInfluenceMatrix:
    def test_net_influence_is_the_difference(self):
        inf = InfluenceMatrix(
            pos=np.array([[0.0, 0.8], [0.2, 0.0]]),
            neg=np.array([[0.0, 0.1], [0.0, 0.0]]),
        )
        assert inf.influence[0, 1] == pytest.approx(0.7)
        assert inf.influence[1, 0] == pytest.approx(0.2)

    def test_zeros_constructor(self):
        assert np.all(InfluenceMatrix.zeros(3).influence == 0.0)

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValidationError):
            InfluenceMatrix(pos=np.eye(2) * 0.5, neg=np.zeros((2, 2)))

    def test_rejects_out_of_range(self):
        for entry in (1.5, -0.5, np.nan, np.inf):
            with pytest.raises(ValidationError):
                InfluenceMatrix(pos=np.array([[0.0, entry], [0.0, 0.0]]), neg=np.zeros((2, 2)))
            with pytest.raises(ValidationError):
                InfluenceMatrix(pos=np.zeros((2, 2)), neg=np.array([[0.0, 0.0], [entry, 0.0]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            InfluenceMatrix(pos=np.zeros((2, 2)), neg=np.zeros((3, 3)))


class TestDependencyLevels:
    def test_chain_graph_plus_three_positives(self):
        edges = dict(CHAIN_GRAPH.edges)
        edges[(1, 0)] = (0.2, POSITIVE)
        edges[(2, 0)] = (0.2, POSITIVE)
        edges[(3, 0)] = (0.2, POSITIVE)
        g = ValueDependencyGraph(n=4, edges=edges)
        vdl, nvdl = vdl_nvdl(g)
        assert vdl == pytest.approx(8 / 12)
        assert nvdl == pytest.approx(0.125)

    def test_saturated_graph(self):
        edges = {
            (i, j): (1.0, POSITIVE) for i in range(3) for j in range(3) if i != j
        }
        vdl, nvdl = vdl_nvdl(ValueDependencyGraph(n=3, edges=edges))
        assert vdl == 1.0
        assert nvdl == 0.0

    def test_empty_graph(self):
        vdl, nvdl = vdl_nvdl(ValueDependencyGraph(n=5, edges={}))
        assert vdl == 0.0
        assert nvdl is None

    def test_needs_two_nodes(self):
        with pytest.raises(ValidationError):
            vdl_nvdl(ValueDependencyGraph(n=1, edges={}))


class TestPrecedenceLevels:
    def test_requires_all_counts_one(self):
        p = PrecedenceGraph(n=4, constraints=(RequiresAll(0, 1),))
        assert pdl_npdl(p) == (pytest.approx(1 / 12), 0.0)

    def test_mixed_records(self):
        p = PrecedenceGraph(
            n=4,
            constraints=(
                RequiresAny(source=0, targets=(1, 2)),
                Conflicts(2, 3),
            ),
        )
        pdl, npdl = pdl_npdl(p)
        assert pdl == pytest.approx(3 / 12)
        assert npdl == pytest.approx(1 / 3)

    def test_exactly_one_counts_member_pairs(self):
        p = PrecedenceGraph(n=4, constraints=(ExactlyOne(members=(0, 1, 2)),))
        pdl, npdl = pdl_npdl(p)
        assert pdl == pytest.approx(3 / 12)
        assert npdl == 0.0

    def test_empty(self):
        assert pdl_npdl(PrecedenceGraph.empty(6)) == (0.0, None)


class TestPrecedenceValidation:
    def test_self_requirement_rejected(self):
        with pytest.raises(ValidationError, match="cannot require itself"):
            PrecedenceGraph(n=3, constraints=(RequiresAll(1, 1),))

    def test_requires_any_needs_targets(self):
        with pytest.raises(ValidationError, match="non-empty target set"):
            PrecedenceGraph(n=3, constraints=(RequiresAny(source=0, targets=()),))

    def test_requires_any_source_not_a_target(self):
        with pytest.raises(ValidationError, match="source cannot be its own target"):
            PrecedenceGraph(n=3, constraints=(RequiresAny(source=0, targets=(0, 1)),))

    def test_self_conflict_rejected(self):
        with pytest.raises(ValidationError, match="cannot conflict with itself"):
            PrecedenceGraph(n=3, constraints=(Conflicts(2, 2),))

    def test_exactly_one_needs_two_members(self):
        with pytest.raises(ValidationError, match="at least two members"):
            PrecedenceGraph(n=3, constraints=(ExactlyOne(members=(1,)),))

    def test_out_of_range_index(self):
        with pytest.raises(ValidationError, match="index 3 out of range for n=3"):
            PrecedenceGraph(n=3, constraints=(Conflicts(0, 3),))

    def test_unknown_record_rejected(self):
        with pytest.raises(ValidationError, match=r"unknown precedence record \(0, 1\)"):
            PrecedenceGraph(n=3, constraints=((0, 1),))


def random_record(rng, n, faulty):
    """One precedence record over n requirements. A faulty draw takes
    indices from -1..n and set sizes from 0 up, without distinctness, so it
    may break several rules at once (or none); one in ten is no record."""
    kind = int(rng.integers(4))
    if not faulty:
        picks = rng.permutation(n).tolist()
        if kind == 0:
            return RequiresAll(source=picks[0], target=picks[1])
        if kind == 1:
            return RequiresAny(source=picks[0], targets=tuple(picks[1 : 1 + int(rng.integers(1, n))]))
        if kind == 2:
            return Conflicts(a=picks[0], b=picks[1])
        return ExactlyOne(members=tuple(picks[: int(rng.integers(2, n + 1))]))
    if rng.random() < 0.1:
        return (0, 1)

    def draw(size):
        return rng.integers(-1, n + 1, size=size).tolist()

    if kind == 0:
        return RequiresAll(*draw(2))
    if kind == 1:
        return RequiresAny(source=draw(1)[0], targets=tuple(draw(int(rng.integers(0, 4)))))
    if kind == 2:
        return Conflicts(*draw(2))
    return ExactlyOne(members=tuple(draw(int(rng.integers(0, 5)))))


def rule_message(check, *args):
    try:
        check(*args)
    except ValidationError as exc:
        return str(exc)
    return None


class TestRecordRulesMatchReference:
    """Each record's own check, pairs, rows and to_json against the per-kind
    dispatch in tests/oracles.py that they replaced."""

    def test_valid_graphs(self):
        rng = np.random.default_rng(19)
        kinds = set()
        for _ in range(2000):
            n = int(rng.integers(2, 13))
            records = [random_record(rng, n, faulty=False) for _ in range(int(rng.integers(0, 8)))]
            kinds.update(type(rec) for rec in records)
            p = PrecedenceGraph(n=n, constraints=records)
            assert pdl_npdl(p) == reference_pdl_npdl(p)

            ids = [f"r{i + 1}" for i in range(n)]
            got, want = io.StringIO(), io.StringIO()
            save_constraints(p, got, ids)
            reference_save_constraints(p, want, ids)
            assert got.getvalue() == want.getvalue()

            reqs = tuple(Requirement(id=name, cost=1.0, value=2.0, probability=0.5) for name in ids)
            problem = SelectionProblem(
                requirements=reqs, budget=float(n), precedence=p, influence=InfluenceMatrix.zeros(n)
            )
            x_names = [f"x{i + 1}" for i in range(n)]
            for method in (BK, PCBK, SBK, DARS):
                rows = build_model(problem, method).constraints
                expected = [] if method == BK else reference_precedence_rows(p, x_names)
                prec = rows[1 : 1 + len(expected)]
                assert [(c.name, list(c.coeffs.items()), c.relation, c.rhs) for c in prec] == [
                    (c.name, list(c.coeffs.items()), c.relation, c.rhs) for c in expected
                ]
                assert sum(c.name.startswith("prec") for c in rows) == len(expected)
        assert kinds == {RequiresAll, RequiresAny, Conflicts, ExactlyOne}

    def test_faulty_graphs_report_the_same_first_fault(self):
        rng = np.random.default_rng(20)
        templates = set()
        several = 0
        for _ in range(2000):
            n = int(rng.integers(2, 13))
            records = [random_record(rng, n, faulty=rng.random() < 0.4) for _ in range(int(rng.integers(1, 6)))]
            want = rule_message(reference_check_precedence, n, records)
            assert rule_message(PrecedenceGraph, n, records) == want
            if want is not None:
                templates.add(re.sub(r"-?\d+|\(.*\)", "#", want))
            faults = [rule_message(reference_check_precedence, n, [rec]) for rec in records]
            several += sum(f is not None for f in faults) > 1
        # every message of the four kinds and the unknown-record guard shows up
        assert len(templates) == 9, sorted(templates)
        assert several > 200


class TestVdgCsv:
    def test_round_trip_with_isolated_node(self):
        g = ValueDependencyGraph(n=3, edges={(0, 1): (0.25, NEGATIVE)})
        buf = io.StringIO()
        save_vdg(g, buf, ids=("a", "b", "c"))
        back, names = load_vdg(io.StringIO(buf.getvalue()))
        assert names == ("a", "b", "c")
        assert back.n == 3
        assert back.edges == g.edges

    def test_explicit_universe_overrides_file_order(self):
        text = "from,to,strength,quality\nb,a,0.5,+\n"
        g, names = load_vdg(io.StringIO(text), ids=("a", "b"))
        assert names == ("a", "b")
        assert g.edges == {(1, 0): (0.5, "+")}

    def test_first_appearance_order_without_universe(self):
        text = "from,to,strength,quality\nc,a,0.5,+\na,b,0.25,-\n"
        g, names = load_vdg(io.StringIO(text))
        assert names == ("c", "a", "b")
        assert g.edges == {(0, 1): (0.5, "+"), (1, 2): (0.25, "-")}

    def test_strengths_round_trip_exactly(self):
        g = random_graph(5, 0.5, 0.4, 99)
        buf = io.StringIO()
        save_vdg(g, buf, ids=("a", "b", "c", "d", "e"))
        back, _ = load_vdg(io.StringIO(buf.getvalue()))
        assert back.edges == g.edges

    def test_unknown_id_rejected(self):
        with pytest.raises(InputFormatError, match="unknown requirement id"):
            load_vdg(io.StringIO("a,zz,0.5,+\n"), ids=("a", "b"))

    def test_first_faulty_line_is_reported(self):
        # line 3 names an unknown id, line 4 has a bad strength
        text = "from,to,strength,quality\na,b,0.5,+\na,zz,0.5,+\nb,a,high,+\n"
        with pytest.raises(InputFormatError, match="line 3: unknown requirement id 'zz'"):
            load_vdg(io.StringIO(text), ids=("a", "b"))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(InputFormatError, match="duplicate edge"):
            load_vdg(io.StringIO("a,b,0.5,+\na,b,0.2,-\n"))

    def test_bad_strength_rejected(self):
        with pytest.raises(InputFormatError, match="not a number"):
            load_vdg(io.StringIO("a,b,high,+\n"))
        with pytest.raises(InputFormatError, match="outside"):
            load_vdg(io.StringIO("a,b,1.5,+\n"))

    def test_bad_quality_rejected(self):
        with pytest.raises(InputFormatError, match="quality"):
            load_vdg(io.StringIO("a,b,0.5,~\n"))

    def test_empty_file_without_universe_rejected(self):
        with pytest.raises(InputFormatError):
            load_vdg(io.StringIO("from,to,strength,quality\n"))

    def test_empty_edge_list_with_universe_comment(self):
        buf = io.StringIO()
        save_vdg(ValueDependencyGraph(n=2, edges={}), buf, ids=("x", "y"))
        g, names = load_vdg(io.StringIO(buf.getvalue()))
        assert names == ("x", "y")
        assert g.edge_count == 0

    def test_repeated_universe_id_rejected(self):
        # the edges of a repeated id would land on its last position and
        # leave an all-zero phantom node at the first
        text = "# nodes,a,b,a\nfrom,to,strength,quality\na,b,0.5,+\nb,a,0.25,-\n"
        with pytest.raises(InputFormatError, match="line 1: requirement id 'a' repeats"):
            load_vdg(io.StringIO(text))


class TestConstraintsJson:
    def make_graph(self):
        return PrecedenceGraph(
            n=5,
            constraints=(
                RequiresAll(source=0, target=1),
                RequiresAny(source=2, targets=(0, 1)),
                Conflicts(3, 4),
                ExactlyOne(members=(1, 4)),
            ),
        )

    def test_round_trip(self):
        ids = ("r1", "r2", "r3", "r4", "r5")
        p = self.make_graph()
        buf = io.StringIO()
        save_constraints(p, buf, ids)
        back = load_constraints(io.StringIO(buf.getvalue()), ids)
        assert back.constraints == p.constraints

    def test_records_wrapper_accepted(self):
        ids = ("r1", "r2")
        text = '{"note": "x", "records": [{"type": "conflicts", "source": "r1", "targets": ["r2"]}]}'
        p = load_constraints(io.StringIO(text), ids)
        assert p.constraints == (Conflicts(a=0, b=1),)

    def test_requires_all_expands_per_target(self):
        ids = ("r1", "r2", "r3")
        text = '[{"type": "requires_all", "source": "r1", "targets": ["r2", "r3"]}]'
        p = load_constraints(io.StringIO(text), ids)
        assert p.constraints == (
            RequiresAll(source=0, target=1),
            RequiresAll(source=0, target=2),
        )

    def test_exactly_one_merges_source_into_members(self):
        ids = ("r1", "r2", "r3")
        text = '[{"type": "exactly_one", "source": "r1", "targets": ["r2", "r3"]}]'
        p = load_constraints(io.StringIO(text), ids)
        assert p.constraints == (ExactlyOne(members=(0, 1, 2)),)

    def test_unknown_type_rejected(self):
        with pytest.raises(InputFormatError, match="unknown type"):
            load_constraints(
                io.StringIO('[{"type": "implies", "source": "r1", "targets": ["r2"]}]'),
                ("r1", "r2"),
            )

    @pytest.mark.parametrize("kind", [["requires_all"], {"of": "requires_all"}])
    def test_unhashable_type_rejected(self, kind):
        text = json.dumps([{"type": kind, "source": "r1", "targets": ["r2"]}])
        with pytest.raises(InputFormatError, match=re.escape(f"record #1: unknown type {kind!r}")):
            load_constraints(io.StringIO(text), ("r1", "r2"))

    @pytest.mark.parametrize(
        "item, message",
        [
            ({"type": "requires_any", "source": "r1", "targets": ["r2", "r2"]},
             "requires-any targets must be distinct"),
            ({"type": "requires_all", "source": "r1", "targets": ["r2", "r1"]},
             "a requirement cannot require itself"),
            ({"type": "exactly_one", "targets": ["r2"]}, "exactly-one needs at least two members"),
        ],
        ids=["requires-any-twice", "requires-all-itself", "exactly-one-alone"],
    )
    def test_rule_break_names_its_record(self, item, message):
        fine = {"type": "conflicts", "source": "r1", "targets": ["r2"]}
        text = json.dumps([fine, item])
        with pytest.raises(InputFormatError, match=re.escape(f"record #2: {message}")):
            load_constraints(io.StringIO(text), ("r1", "r2", "r3"))

    def test_first_fault_in_file_order_is_reported(self):
        text = json.dumps([
            {"type": "conflicts", "source": "r1", "targets": ["r1"]},
            {"type": "conflicts", "source": "r1", "targets": ["zz"]},
        ])
        with pytest.raises(InputFormatError, match="record #1: a requirement cannot conflict with itself"):
            load_constraints(io.StringIO(text), ("r1", "r2"))

    def test_empty_id_list_rejected(self):
        with pytest.raises(InputFormatError):
            load_constraints(io.StringIO("[]"), ())

    def test_unknown_id_rejected(self):
        with pytest.raises(InputFormatError, match="unknown requirement id"):
            load_constraints(
                io.StringIO('[{"type": "conflicts", "source": "r1", "targets": ["zz"]}]'),
                ("r1", "r2"),
            )

    def test_malformed_json_rejected(self):
        with pytest.raises(InputFormatError, match="malformed"):
            load_constraints(io.StringIO("{nope"), ("r1",))

    def test_non_array_rejected(self):
        with pytest.raises(InputFormatError, match="array"):
            load_constraints(io.StringIO('{"type": "conflicts"}'), ("r1",))


class TestInfluenceCsv:
    def test_net_matrix_round_trips_exactly(self):
        g = random_graph(5, 0.5, 0.4, 3)
        inf = propagate_strengths(g)
        buf = io.StringIO()
        save_influence_matrix(inf, buf, ids=("a", "b", "c", "d", "e"))
        back, names = load_influence_matrix(io.StringIO(buf.getvalue()))
        assert names == ("a", "b", "c", "d", "e")
        assert np.array_equal(back.influence, inf.influence)

    def test_split_into_positive_and_negative_parts(self):
        text = "id,a,b\na,0.0,-0.25\nb,0.5,0.0\n"
        inf, _ = load_influence_matrix(io.StringIO(text))
        assert inf.pos[1, 0] == 0.5 and inf.neg[1, 0] == 0.0
        assert inf.pos[0, 1] == 0.0 and inf.neg[0, 1] == 0.25

    def test_header_required(self):
        with pytest.raises(InputFormatError, match="header"):
            load_influence_matrix(io.StringIO("a,0.0,0.1\nb,0.1,0.0\n"))

    def test_row_order_must_match_header(self):
        text = "id,a,b\nb,0.0,0.1\na,0.1,0.0\n"
        with pytest.raises(InputFormatError, match="does not match"):
            load_influence_matrix(io.StringIO(text))

    def test_row_count_must_match(self):
        with pytest.raises(InputFormatError, match="matrix rows"):
            load_influence_matrix(io.StringIO("id,a,b\na,0.0,0.1\n"))

    def test_repeated_header_id_rejected(self):
        text = "# written by hand\nid,a,a\na,0.0,0.1\na,0.1,0.0\n"
        with pytest.raises(InputFormatError, match="line 2: requirement id 'a' repeats"):
            load_influence_matrix(io.StringIO(text))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_closure_equals_path_enumeration_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    g = random_graph(n, float(rng.uniform(0.1, 0.5)), float(rng.uniform(0, 0.6)), seed)
    closure = propagate_strengths(g)
    brute = brute_force_influence(g, 2 * n)
    assert np.array_equal(closure.pos, brute.pos)
    assert np.array_equal(closure.neg, brute.neg)
