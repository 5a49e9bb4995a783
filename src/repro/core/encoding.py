"""Encoding a bag-containment instance as a monomial–polynomial inequality.

Definitions 3.2 and 3.3 of the paper associate

* the projection-free containee ``q1(x1)``, grounded on a probe tuple ``t``,
  with the monomial ``M_{q1(t)}(u)`` whose exponents are the body
  multiplicities of ``q1(t)``;
* the containing query ``q2(x2)`` with the polynomial ``P^{q2}_{q1(t)}(u)``
  obtained by summing, over every containment mapping ``h`` of ``q2`` into
  ``q1(t)``, the monomial of the image query ``h(q2)``.

The unknown ``u_i`` stands for the (unknown) multiplicity of the i-th atom
of ``body(q1(t))`` in a bag over the canonical instance ``I_{q1(t)}``.
Corollary 3.1 / Theorem 5.3 then reduce containment to the unsolvability of
the inequality ``P < M``.

:class:`MpiEncoding` bundles everything a caller could want to inspect:
the grounded containee, the ordered atom/unknown correspondence, both sides
of the inequality, the containment mappings that generated the polynomial,
and whether the probe tuple is unifiable with the head of the containing
query (condition (1) of Theorem 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.core.probe_tuples import most_general_probe_tuple
from repro.diophantine.inequalities import MonomialPolynomialInequality
from repro.diophantine.monomials import Monomial
from repro.diophantine.polynomials import Polynomial
from repro.evaluation.homomorphisms import containment_mappings_to_ground
from repro.exceptions import ContainmentError, UnificationError
from repro.queries.cq import ConjunctiveQuery
from repro.relational.atoms import Atom
from repro.relational.substitutions import Substitution, unify_tuples
from repro.relational.terms import Term

__all__ = [
    "MpiEncoding",
    "encode",
    "encode_many",
    "encode_most_general",
    "unknown_name_for_atom",
]


def unknown_name_for_atom(atom: Atom, index: int) -> str:
    """A readable unknown name ``u<i>[R(a,b)]`` for the i-th atom."""
    return f"u{index + 1}[{atom}]"


@dataclass(frozen=True)
class MpiEncoding:
    """The full Diophantine encoding of one (containee, containing, probe) triple."""

    containee: ConjunctiveQuery
    containing: ConjunctiveQuery
    probe: tuple[Term, ...]
    grounded_containee: ConjunctiveQuery
    atoms: tuple[Atom, ...]
    unknown_names: tuple[str, ...]
    monomial: Monomial
    polynomial: Polynomial
    inequality: MonomialPolynomialInequality
    mappings: tuple[Substitution, ...]
    probe_unifiable_with_containing: bool

    @property
    def dimension(self) -> int:
        """Number of unknowns (= distinct atoms of the grounded containee)."""
        return len(self.atoms)

    @property
    def num_mappings(self) -> int:
        """Number of containment mappings from the containing query into ``q1(t)``."""
        return len(self.mappings)

    def atom_index(self, atom: Atom) -> int:
        """Position of *atom* in the unknown order; raises ``ValueError`` if absent."""
        return self.atoms.index(atom)

    def describe(self) -> str:
        """A multi-line, human-readable description of the encoding."""
        lines = [
            f"containee : {self.containee}",
            f"containing: {self.containing}",
            f"probe     : ({', '.join(str(term) for term in self.probe)})",
            f"grounded  : {self.grounded_containee}",
            "unknowns  :",
        ]
        for name, atom in zip(self.unknown_names, self.atoms):
            lines.append(f"    {name} ~ multiplicity of {atom}")
        lines.append(f"monomial  M = {self.monomial.render(self.unknown_names)}")
        lines.append(f"polynomial P = {self.polynomial.render(self.unknown_names)}")
        lines.append(f"containment mappings: {self.num_mappings}")
        lines.append(
            "probe unifiable with containing head: "
            + ("yes" if self.probe_unifiable_with_containing else "no")
        )
        return "\n".join(lines)


def _image_exponents(
    image: ConjunctiveQuery, atoms: Sequence[Atom], containing: ConjunctiveQuery
) -> tuple[int, ...]:
    """Exponent vector of the monomial of an image query ``h(q2)``."""
    positions = {atom: index for index, atom in enumerate(atoms)}
    exponents = [0] * len(atoms)
    for atom, multiplicity in image.body.items():
        position = positions.get(atom)
        if position is None:
            raise ContainmentError(
                f"internal error: image atom {atom} of {containing.name} is not part of the "
                "grounded containee body"
            )
        exponents[position] = multiplicity
    return tuple(exponents)


def _encode_at_probe(
    containee: ConjunctiveQuery,
    containing: ConjunctiveQuery,
    probe_tuple: tuple[Term, ...],
) -> MpiEncoding:
    """The per-probe encoding body shared by :func:`encode` and :func:`encode_many`."""
    grounded = containee.ground(probe_tuple, name=f"{containee.name}(t)")
    atoms = grounded.body_atoms()
    unknown_names = tuple(unknown_name_for_atom(atom, index) for index, atom in enumerate(atoms))

    monomial = Monomial(1, tuple(grounded.body[atom] for atom in atoms))

    try:
        unify_tuples(containing.head, probe_tuple)
        unifiable = True
    except UnificationError:
        unifiable = False

    mappings: tuple[Substitution, ...] = ()
    image_monomials: list[Monomial] = []
    if unifiable:
        mappings = tuple(containment_mappings_to_ground(containing, grounded, probe_tuple))
        for mapping in mappings:
            image = containing.apply_substitution(mapping)
            image_monomials.append(Monomial(1, _image_exponents(image, atoms, containing)))

    polynomial = Polynomial(image_monomials, dimension=len(atoms))
    inequality = MonomialPolynomialInequality(polynomial, monomial)

    return MpiEncoding(
        containee=containee,
        containing=containing,
        probe=probe_tuple,
        grounded_containee=grounded,
        atoms=atoms,
        unknown_names=unknown_names,
        monomial=monomial,
        polynomial=polynomial,
        inequality=inequality,
        mappings=mappings,
        probe_unifiable_with_containing=unifiable,
    )


def encode(
    containee: ConjunctiveQuery,
    containing: ConjunctiveQuery,
    probe: Sequence[Term],
) -> MpiEncoding:
    """Build the MPI encoding of ``containee ⊑b containing`` at the probe tuple *probe*.

    The containee must be projection-free (the monomial of Definition 3.2
    only exists because the grounding homomorphism is unique in that case).
    """
    containee.require_projection_free()
    return _encode_at_probe(containee, containing, tuple(probe))


def encode_many(
    containee: ConjunctiveQuery,
    containing: ConjunctiveQuery,
    probes: Iterable[Sequence[Term]],
) -> Iterator[MpiEncoding]:
    """Encode one MPI per probe tuple, as :func:`encode` does for each.

    Every grounded containee is a different target, so each probe tuple
    compiles its own containing-side plan.  Lazy: a caller that stops at the
    first refuting probe never pays for the rest (the projection-freeness
    check still fails eagerly, at the call site).
    """
    containee.require_projection_free()

    def generate() -> Iterator[MpiEncoding]:
        for probe in probes:
            yield _encode_at_probe(containee, containing, tuple(probe))

    return generate()


def encode_most_general(
    containee: ConjunctiveQuery, containing: ConjunctiveQuery
) -> MpiEncoding:
    """The encoding at the most-general probe tuple ``t⋆`` (Theorem 5.3)."""
    return encode(containee, containing, most_general_probe_tuple(containee))
