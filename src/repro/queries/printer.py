"""Pretty printers for queries, instances and containment results.

The printers produce the notation used throughout the paper (datalog rules
with multiplicity superscripts, bags written as ``{fact^k, ...}``) so that
examples, CLI output and test failure messages read like the paper itself.
Terms print in the syntax of :mod:`repro.queries.parser`, so a printed
query parses back to itself.
"""

from __future__ import annotations

import re
from typing import Iterable

from repro.queries.cq import ConjunctiveQuery
from repro.queries.parser import DEFAULT_VARIABLE_PREFIXES
from repro.queries.ucq import UnionOfConjunctiveQueries
from repro.relational.atoms import Atom
from repro.relational.instances import BagInstance, SetInstance
from repro.relational.terms import Constant, Term, Variable

__all__ = [
    "format_term",
    "format_atom",
    "format_query",
    "format_ucq",
    "format_set_instance",
    "format_bag_instance",
    "format_answer_bag",
]


_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


def format_term(term: Term) -> str:
    """Render a term the way the paper writes it (canonical constants as ``^x``).

    Bare names are kept wherever the parser reads them back as the same
    term: a variable whose name does not start with one of the
    :data:`~repro.queries.parser.DEFAULT_VARIABLE_PREFIXES` letters gets
    the ``?`` variable marker, and a string constant that would otherwise
    parse as a variable (or as an integer) is quoted.
    """
    if isinstance(term, Variable):
        name = term.name
        if _IDENTIFIER.fullmatch(name) and name[0].lower() in DEFAULT_VARIABLE_PREFIXES:
            return name
        return f"?{name}"
    if isinstance(term, Constant) and isinstance(term.value, str):
        value = term.value
        if _IDENTIFIER.fullmatch(value) and value[0].lower() not in DEFAULT_VARIABLE_PREFIXES:
            return value
        quote = '"' if "'" in value else "'"
        return f"{quote}{value}{quote}"
    return str(term)


def format_atom(atom: Atom, multiplicity: int = 1) -> str:
    """Render ``R^k(t1, ..., tn)``, omitting the superscript when ``k == 1``."""
    args = ", ".join(format_term(term) for term in atom.terms)
    if multiplicity == 1:
        return f"{atom.relation}({args})"
    return f"{atom.relation}^{multiplicity}({args})"


def format_query(query: ConjunctiveQuery) -> str:
    """Render a CQ as a datalog rule with multiplicity superscripts."""
    head_args = ", ".join(format_term(variable) for variable in query.head)
    body = ", ".join(
        format_atom(atom, multiplicity) for atom, multiplicity in query.body.items()
    )
    return f"{query.name}({head_args}) <- {body}"


def format_ucq(ucq: UnionOfConjunctiveQueries) -> str:
    """Render a UCQ, one disjunct per line."""
    return "\n".join(format_query(query) for query in ucq)


def format_set_instance(instance: SetInstance) -> str:
    """Render a set instance as ``{fact, fact, ...}``."""
    return "{" + ", ".join(format_atom(fact) for fact in instance) + "}"


def format_bag_instance(bag: BagInstance) -> str:
    """Render a bag instance as ``{fact^k, ...}`` (the paper's ``I^µ``)."""
    return "{" + ", ".join(format_atom(fact, count) for fact, count in bag.items()) + "}"


def format_answer_bag(answers: Iterable[tuple[tuple[Term, ...], int]]) -> str:
    """Render a bag of answer tuples as ``{(c1, c2)^10, ...}``."""
    parts = []
    for answer_tuple, multiplicity in answers:
        rendered = ", ".join(format_term(term) for term in answer_tuple)
        parts.append(f"({rendered})^{multiplicity}")
    return "{" + ", ".join(parts) + "}"
