"""Unit tests for the pretty printers."""

from repro.queries.parser import parse_cq, parse_ucq
from repro.queries.printer import (
    format_answer_bag,
    format_atom,
    format_bag_instance,
    format_query,
    format_set_instance,
    format_ucq,
)
from repro.relational.atoms import Atom
from repro.relational.instances import BagInstance, SetInstance
from repro.relational.terms import CanonicalConstant, Constant, Variable


class TestFormatting:
    def test_format_atom_with_and_without_multiplicity(self):
        atom = Atom("R", (Variable("x"), Constant("a")))
        assert format_atom(atom) == "R(x, a)"
        assert format_atom(atom, 3) == "R^3(x, a)"

    def test_format_query_round_trips_through_the_parser(self):
        query = parse_cq("q(x1, x2) <- R^2(x1, y1), P(x2, y1)")
        assert parse_cq(format_query(query)) == query

    def test_format_query_shows_canonical_constants(self):
        grounded = parse_cq("q(x1) <- R(x1, x1)").ground((CanonicalConstant("x1"),))
        assert "^x1" in format_query(grounded)

    def test_format_ucq_one_disjunct_per_line(self):
        ucq = parse_ucq("q(x) <- R(x, y); q(x) <- S(x)")
        assert format_ucq(ucq).count("\n") == 1

    def test_format_set_instance(self):
        instance = SetInstance([Atom("R", (Constant("a"), Constant("b")))])
        assert format_set_instance(instance) == "{R(a, b)}"

    def test_format_bag_instance(self):
        bag = BagInstance({Atom("R", (Constant("a"), Constant("b"))): 2})
        assert format_bag_instance(bag) == "{R^2(a, b)}"

    def test_format_answer_bag(self):
        rendered = format_answer_bag([((Constant("c1"), Constant("c2")), 10)])
        assert rendered == "{(c1, c2)^10}"


class TestParserRoundTrip:
    """``parse_cq(format_query(q)) == q`` for every query the workloads build."""

    @staticmethod
    def family_queries():
        from repro.workloads import scale

        pairs = [
            *scale.star_pair_family(12, seed=1),
            *scale.chain_pair_family(12, seed=1),
            *scale.acyclic_pair_family(12, seed=1),
            *(pair for _, pair in scale.mixed_pairs(24, seed=1)),
        ]
        return [query for pair in pairs for query in pair]

    def test_scale_families_round_trip(self):
        queries = self.family_queries()
        assert len(queries) == 120
        for query in queries:
            text = format_query(query)
            assert parse_cq(text) == query, text

    def test_star_centre_variables_are_marked(self):
        from repro.workloads import scale

        containee, _ = scale.star_pair_family(3, seed=1)[0]
        text = format_query(containee)
        assert "?c" in text
        assert parse_cq(text) == containee

    def test_variable_prefix_names_stay_bare(self):
        atom = Atom("R", (Variable("x1"), Variable("Y"), Variable("c"), Variable("l0")))
        assert format_atom(atom) == "R(x1, Y, ?c, ?l0)"

    def test_constants_that_would_read_as_variables_are_quoted(self):
        atom = Atom("R", (Constant("x"), Constant("a"), Constant("7"), Constant(7)))
        assert format_atom(atom) == "R('x', a, '7', 7)"
        query = parse_cq("q(x) <- R(x, 'y', \"it's\", '7', 7)")
        assert parse_cq(format_query(query)) == query
