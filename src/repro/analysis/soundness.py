"""Static soundness verification of compiled plans and generated code.

The engine bottoms out in machine-built artifacts: cost-ordered,
integer-compiled :class:`~repro.engine.interned.InternedPlan` step
programs and the ``exec``-synthesized nested-loop functions of
:mod:`repro.engine.codegen`.
Their correctness is exercised dynamically by the differential fuzz
harness; this module adds the complementary *static* guarantee — every
artifact can be proven well-formed before a single row is probed.

:func:`verify_plan` checks a compiled plan IR (either flavour) for

* **variable-binding safety** — every slot a key op or
  filter reads is bound before use, by the fixed contract or an earlier
  step's fresh ops;
* **signature/arity agreement** — each step's key/new op partition is
  exactly what its atom demands under the running bound set, so the
  compiled program answers the query body it claims to;
* **packed-key injectivity** — multi-position probe keys stay injective
  within the :class:`~repro.engine.interning.TermDictionary` bit budget
  (the bound is *computed* from the dictionary size and capacity, never
  assumed);
* **cost-order permutation validity** — the scheduled steps are a
  permutation of the deduplicated source atoms (reordering is the only
  freedom cost-based planning and mid-execution replanning have).

:func:`verify_generated` parses a ``compile_suffix`` / ``compile_static``
output into an AST and structurally checks the loop nest against the plan:
one loop (or filter gate) per step, nested in plan order, with the exact
probe-key expression, the per-signature counter ticks, the
duplicate-fresh-variable row checks, the mode's terminal, and nothing else
— only allowlisted names may appear, and no imports, attribute access or
foreign calls are tolerated.  The matcher is written from the *plan's*
specification (it re-derives entry slots, bind/check splits and key
expressions independently), so drift in either the emitter or the verifier
surfaces as a violation.

Both entry points return a list of :class:`Violation` records;
:mod:`repro.analysis.hooks` wraps them into raising checks that the engine
runs online behind ``Session(debug_verify_plans=True)``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.engine.generated import GeneratedPlan
from repro.engine.interned import InternedPlan, InternedStep
from repro.engine.interning import ID_BITS, TermDictionary
from repro.relational.atoms import Atom
from repro.relational.terms import Variable

__all__ = ["Violation", "verify_generated", "verify_plan"]

#: Generated-function modes the AST verifier knows how to match.
GENERATED_MODES = ("count", "exists", "collect", "static")


@dataclass(frozen=True)
class Violation:
    """One soundness defect established by the verifier."""

    code: str
    subject: str
    message: str

    def describe(self) -> str:
        return f"[{self.code}] {self.subject}: {self.message}"


def _dedup_atoms(source_atoms) -> tuple[Atom, ...] | None:
    """Normalise a source-side argument to deduplicated atoms (or ``None``).

    Accepts an iterable of atoms or a query-like object exposing
    ``body_atoms()`` — so tests can pass the query the plan was compiled
    for directly.
    """
    if source_atoms is None:
        return None
    body = getattr(source_atoms, "body_atoms", None)
    if callable(body):
        source_atoms = body()
    return tuple(dict.fromkeys(source_atoms))


# --------------------------------------------------------------------------- #
# Plan IR verification
# --------------------------------------------------------------------------- #
def verify_plan(
    plan,
    source_atoms=None,
    fixed_variables: Iterable[Variable] | None = None,
    dictionary: TermDictionary | None = None,
    include_chains: bool = True,
) -> list[Violation]:
    """Statically verify a compiled plan IR; returns all violations found.

    *plan* may be an :class:`InternedPlan` or a :class:`GeneratedPlan`.
    *source_atoms* (an atom iterable or a query exposing ``body_atoms()``)
    and *fixed_variables* tighten the check to the triple the plan was
    compiled for; *dictionary* enables the id and
    packed-key-budget checks for the integer plans (a
    :class:`GeneratedPlan` carries its own and needs neither).  With
    ``include_chains`` every already-compiled generated function is also
    AST-verified via :func:`verify_generated`.
    """
    if isinstance(plan, GeneratedPlan):
        return _verify_generated_plan(
            plan, _dedup_atoms(source_atoms), fixed_variables, include_chains
        )
    if isinstance(plan, InternedPlan):
        return _verify_interned_steps(
            plan,
            plan.static_steps,
            plan.steps,
            _dedup_atoms(source_atoms),
            fixed_variables,
            dictionary,
        )
    return [
        Violation(
            "unknown-plan",
            type(plan).__name__,
            "not an InternedPlan or GeneratedPlan",
        )
    ]


def _verify_interned_steps(
    plan: InternedPlan,
    static_steps: Sequence[InternedStep],
    dynamic_steps: Sequence[InternedStep],
    source: tuple[Atom, ...] | None,
    fixed_variables: Iterable[Variable] | None,
    dictionary: TermDictionary | None,
) -> list[Violation]:
    """The integer IR: slot layout, op streams and the packed-key budget."""
    out: list[Violation] = []

    # --- Slot layout: slot_of must invert slot_variables exactly. ----------
    slot_variables = plan.slot_variables
    if len(plan.slot_of) != len(slot_variables) or any(
        plan.slot_of.get(variable) != slot for slot, variable in enumerate(slot_variables)
    ):
        out.append(
            Violation("slot-layout", "plan", "slot_of is not the inverse of slot_variables")
        )
        return out
    if len(plan.self_ids) != len(slot_variables):
        out.append(Violation("slot-layout", "plan", "self_ids does not cover every slot"))
        return out
    if dictionary is not None:
        for slot, variable in enumerate(slot_variables):
            if dictionary.lookup(variable) != plan.self_ids[slot]:
                out.append(
                    Violation(
                        "slot-layout",
                        f"slot {slot}",
                        f"self id {plan.self_ids[slot]} is not the dictionary id of {variable}",
                    )
                )

    # --- Fixed contract. ----------------------------------------------------
    if fixed_variables is not None and frozenset(fixed_variables) != plan.fixed_variables:
        out.append(
            Violation(
                "fixed-mismatch",
                "plan",
                f"compiled for fixed set {sorted(map(str, plan.fixed_variables))}, "
                f"caller expects {sorted(map(str, frozenset(fixed_variables)))}",
            )
        )
    expected_fixed_slots = tuple(
        (variable, slot)
        for slot, variable in enumerate(slot_variables)
        if variable in plan.fixed_variables
    )
    if plan.fixed_slots != expected_fixed_slots:
        out.append(
            Violation("fixed-mismatch", "plan", "fixed_slots disagree with the fixed variables")
        )
    fixed_slot_numbers = {slot for _, slot in expected_fixed_slots}

    # --- Cost-order permutation validity. ------------------------------------
    scheduled = tuple(step.atom for step in static_steps) + tuple(
        step.atom for step in dynamic_steps
    )
    if len(set(scheduled)) != len(scheduled):
        out.append(Violation("order-permutation", "plan", "an atom is scheduled more than once"))
    if source is not None and (
        len(scheduled) != len(source) or set(scheduled) != set(source)
    ):
        out.append(
            Violation(
                "order-permutation",
                "plan",
                f"scheduled atoms {sorted(map(str, scheduled))} are not a permutation "
                f"of the source atoms {sorted(map(str, source))}",
            )
        )
    for atom in scheduled:
        for variable in atom.variables():
            if variable not in plan.slot_of:
                out.append(
                    Violation("slot-layout", str(atom), f"variable {variable} has no slot")
                )
                return out

    # --- Packed-key injectivity within the computed bit budget. --------------
    window = 1 << ID_BITS
    packs_keys = any(
        len(step.key_ops) >= 2 for step in (*static_steps, *dynamic_steps)
    )
    if dictionary is not None and packs_keys:
        if len(dictionary) > window:
            out.append(
                Violation(
                    "key-overflow",
                    "dictionary",
                    f"{len(dictionary)} interned ids exceed the {ID_BITS}-bit pack "
                    f"window ({window}); multi-position keys are no longer injective",
                )
            )
        elif dictionary.capacity > window:
            out.append(
                Violation(
                    "key-overflow",
                    "dictionary",
                    f"dictionary capacity {dictionary.capacity} exceeds the {ID_BITS}-bit "
                    f"pack window ({window}); the overflow guard fires too late to keep "
                    "multi-position keys injective",
                )
            )

    # --- Static filters: constants and fixed slots only, full signature. -----
    for number, step in enumerate(static_steps):
        subject = f"filter {number} ({step.atom})"
        if step.new_ops:
            out.append(Violation("static-binds", subject, "a static filter must bind no slots"))
        if len(step.key_ops) != step.atom.arity:
            out.append(
                Violation(
                    "arity-mismatch",
                    subject,
                    f"{len(step.key_ops)} key ops do not cover the arity-{step.atom.arity} atom",
                )
            )
        for op in step.key_ops:
            if op >= 0 and op not in fixed_slot_numbers:
                out.append(
                    Violation(
                        "unbound-read",
                        subject,
                        f"static key reads slot {op}, which no fixed binding covers",
                    )
                )
        _check_step_ops(step, set(plan.fixed_variables), plan, dictionary, subject, out)

    # --- Dynamic steps: binding-safe op streams in schedule order. -----------
    bound_variables: set[Variable] = set(plan.fixed_variables)
    bound_slots = set(fixed_slot_numbers)
    for number, step in enumerate(dynamic_steps):
        subject = f"step {number} ({step.atom})"
        if len(step.key_ops) + len(step.new_ops) != step.atom.arity:
            out.append(
                Violation(
                    "arity-mismatch",
                    subject,
                    f"{len(step.key_ops)} key ops + {len(step.new_ops)} fresh ops do not "
                    f"cover the arity-{step.atom.arity} atom",
                )
            )
            continue
        for op in step.key_ops:
            if op >= 0 and op not in bound_slots:
                out.append(
                    Violation(
                        "unbound-read",
                        subject,
                        f"key reads slot {op} before any earlier step binds it",
                    )
                )
        _check_step_ops(step, bound_variables, plan, dictionary, subject, out)
        bound_variables.update(step.atom.variables())
        bound_slots.update(slot for _, slot in step.new_ops)
        bound_slots.update(
            plan.slot_of[v] for v in step.atom.variables() if v in plan.slot_of
        )
    return out


def _check_step_ops(
    step: InternedStep,
    bound_variables: set[Variable],
    plan: InternedPlan,
    dictionary: TermDictionary | None,
    subject: str,
    out: list[Violation],
) -> None:
    """Recompute the expected op streams of *step* from its atom and compare.

    This is the signature-agreement core: under the bound set the schedule
    implies, each argument position must compile to exactly one key op
    (slot for a bound variable, ``-1 - id`` for a constant) or one fresh
    ``(position, slot)`` op — in position order, like the compiler emits.
    """
    expected_keys: list[int | None] = []  # None = constant with unknown id
    expected_new: list[tuple[int, int]] = []
    for position, term in enumerate(step.atom.terms):
        if isinstance(term, Variable):
            slot = plan.slot_of.get(term)
            if slot is None:
                return  # already reported as slot-layout
            if term in bound_variables:
                expected_keys.append(slot)
            else:
                expected_new.append((position, slot))
        elif dictionary is None:
            expected_keys.append(None)
        else:
            identifier = dictionary.lookup(term)
            if identifier is None:
                out.append(
                    Violation(
                        "constant-id",
                        subject,
                        f"constant {term!r} was never interned in the plan's dictionary",
                    )
                )
                return
            expected_keys.append(-1 - identifier)

    if tuple(expected_new) != tuple(step.new_ops):
        out.append(
            Violation(
                "signature-mismatch",
                subject,
                f"fresh ops {step.new_ops} should be {tuple(expected_new)} under the "
                "schedule's bound set",
            )
        )
    if len(expected_keys) != len(step.key_ops):
        out.append(
            Violation(
                "signature-mismatch",
                subject,
                f"{len(step.key_ops)} key ops where the atom demands {len(expected_keys)}",
            )
        )
        return
    for position, (expected, actual) in enumerate(zip(expected_keys, step.key_ops)):
        if expected is None:
            if actual >= 0:
                out.append(
                    Violation(
                        "signature-mismatch",
                        subject,
                        f"key op {position} reads slot {actual} where the atom holds a constant",
                    )
                )
        elif expected != actual:
            out.append(
                Violation(
                    "signature-mismatch",
                    subject,
                    f"key op {position} is {actual}, expected {expected}",
                )
            )


def _verify_generated_plan(
    plan: GeneratedPlan,
    source: tuple[Atom, ...] | None,
    fixed_variables: Iterable[Variable] | None,
    include_chains: bool,
) -> list[Violation]:
    """A generated plan: its base IR under the *current* (replanned) order."""
    base = plan.base
    out: list[Violation] = []

    # Replanning may permute everything after the driver-owned first step;
    # verify binding safety for the order that actually executes.
    dynamic = tuple(base.steps[:1]) + tuple(plan.suffix)
    suffix_atoms = tuple(step.atom for step in plan.suffix)
    original_atoms = tuple(step.atom for step in base.steps[1:])
    if len(suffix_atoms) != len(original_atoms) or set(suffix_atoms) != set(original_atoms):
        out.append(
            Violation(
                "order-permutation",
                "suffix",
                "the replanned suffix is not a permutation of the compiled suffix atoms",
            )
        )
    if len(plan.planned) != len(plan.suffix):
        out.append(
            Violation(
                "replan-state", "suffix", "planned cost baselines do not cover the suffix"
            )
        )

    out.extend(
        _verify_interned_steps(
            base, base.static_steps, dynamic, source, fixed_variables, plan.dictionary
        )
    )

    if include_chains:
        static_source = getattr(plan.static_chain, "__source__", None)
        if static_source is None:
            out.append(
                Violation("missing-source", "static chain", "compiled without __source__")
            )
        else:
            out.extend(verify_generated(static_source, plan, "static"))
        for mode, function in plan.chains.items():
            chain_source = getattr(function, "__source__", None)
            if chain_source is None:
                out.append(
                    Violation(
                        "missing-source", f"chain[{mode}]", "compiled without __source__"
                    )
                )
            else:
                out.extend(verify_generated(chain_source, plan, mode))
    return out


# --------------------------------------------------------------------------- #
# Generated-code verification
# --------------------------------------------------------------------------- #

#: Every identifier a generated function may mention.
_NAME_PATTERN = re.compile(r"^(?:binding|emit|len|total|_E|[BGC]\d+|v\d+|rows?\d+)$")

#: Call targets a generated function may invoke.
_CALL_PATTERN = re.compile(r"^(?:len|emit|G\d+)$")

#: The node types the emitter can produce — anything else is foreign code.
_ALLOWED_NODES = (
    ast.Module,
    ast.FunctionDef,
    ast.arguments,
    ast.arg,
    ast.Assign,
    ast.AugAssign,
    ast.For,
    ast.If,
    ast.Return,
    ast.Expr,
    ast.Continue,
    ast.Name,
    ast.Constant,
    ast.Call,
    ast.BinOp,
    ast.LShift,
    ast.BitOr,
    ast.Add,
    ast.Compare,
    ast.NotEq,
    ast.Subscript,
    ast.Tuple,
    ast.UnaryOp,
    ast.Not,
    ast.Load,
    ast.Store,
)


class _Mismatch(Exception):
    """Internal: the loop nest diverged from the plan (first difference wins)."""


def _split_new_ops(
    new_ops: Sequence[tuple[int, int]],
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """First-occurrence binds vs same-row duplicate checks (re-derived here)."""
    binds: list[tuple[int, int]] = []
    checks: list[tuple[int, int]] = []
    first_position: dict[int, int] = {}
    for position, slot in new_ops:
        seen = first_position.get(slot)
        if seen is None:
            first_position[slot] = position
            binds.append((position, slot))
        else:
            checks.append((seen, position))
    return binds, checks


def _entry_slots(steps: Sequence[InternedStep]) -> list[int]:
    """Slots a suffix reads from ``binding`` before any step assigns them."""
    assigned: set[int] = set()
    needed: set[int] = set()
    for step in steps:
        for op in step.key_ops:
            if op >= 0 and op not in assigned:
                needed.add(op)
        for _, slot in step.new_ops:
            assigned.add(slot)
    return sorted(needed)


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise _Mismatch(message)


def _dump(node: ast.AST) -> str:
    return ast.dump(node)


def _expected_dump(expression: str) -> str:
    return _dump(ast.parse(expression, mode="eval").body)


def _expected_store_dump(expression: str) -> str:
    """Dump of *expression* as an assignment target (outer context Store)."""
    node = ast.parse(expression, mode="eval").body
    node.ctx = ast.Store()
    return _dump(node)


def _probe_expression(step: InternedStep, index: int, static: bool) -> str:
    """The exact probe expression the plan demands for this step."""
    key_ops = step.key_ops
    if step.group is None or all(op < 0 for op in key_ops):
        return f"B{index}"
    reference = "binding[{op}]" if static else "v{op}"
    parts = [
        reference.format(op=op) if op >= 0 else str(-1 - op) for op in key_ops
    ]
    expression = parts[0]
    for part in parts[1:]:
        expression = f"({expression} << {ID_BITS} | {part})"
    return f"G{index}({expression}, _E)"


def _match_probe(statements: list[ast.stmt], step: InternedStep, index: int, static: bool) -> None:
    """Consume the probe assignment plus both counter ticks for step *index*."""
    _expect(len(statements) >= 3, f"step {index}: probe and counter ticks are missing")
    probe = statements[0]
    rows = f"rows{index}"
    _expect(
        isinstance(probe, ast.Assign)
        and len(probe.targets) == 1
        and _dump(probe.targets[0]) == _expected_store_dump(rows),
        f"step {index}: first statement must assign {rows}",
    )
    expected = _expected_dump(_probe_expression(step, index, static))
    _expect(
        _dump(probe.value) == expected,
        f"step {index}: probe expression disagrees with the plan's key ops",
    )
    for which, value in ((0, "1"), (1, f"len({rows})")):
        tick = statements[1 + which]
        _expect(
            isinstance(tick, ast.AugAssign)
            and isinstance(tick.op, ast.Add)
            and _dump(tick.target) == _expected_store_dump(f"C{index}[{which}]")
            and _dump(tick.value) == _expected_dump(value),
            f"step {index}: counter tick C{index}[{which}] is missing or wrong",
        )


def _match_terminal(statement: ast.stmt, mode: str, num_slots: int) -> None:
    if mode == "count":
        _expect(
            isinstance(statement, ast.AugAssign)
            and isinstance(statement.op, ast.Add)
            and isinstance(statement.target, ast.Name)
            and statement.target.id == "total"
            and _dump(statement.value) == _expected_dump("1"),
            "count terminal must be 'total += 1'",
        )
    elif mode == "exists":
        _expect(
            isinstance(statement, ast.Return)
            and statement.value is not None
            and _dump(statement.value) == _expected_dump("True"),
            "exists terminal must be 'return True'",
        )
    else:
        solution = ", ".join(f"v{slot}" for slot in range(num_slots))
        expected = f"emit(({solution},))" if num_slots else "emit(())"
        _expect(
            isinstance(statement, ast.Expr) and _dump(statement.value) == _expected_dump(expected),
            f"collect terminal must be {expected!r}",
        )


def _match_suffix_level(
    statements: list[ast.stmt],
    steps: Sequence[InternedStep],
    index: int,
    mode: str,
    num_slots: int,
) -> list[ast.stmt]:
    """Match step *index* (and, nested inside it, all later steps) at one
    indentation level; returns the statements left over at this level."""
    step = steps[index]
    last = index == len(steps) - 1
    rows = f"rows{index}"
    _match_probe(statements, step, index, static=False)
    rest = statements[3:]
    binds, checks = _split_new_ops(step.new_ops)

    # Terminal short-circuits on the innermost step.
    if last and mode == "count" and not checks:
        _expect(bool(rest), f"step {index}: missing count terminal")
        head, rest = rest[0], rest[1:]
        if binds:
            _expect(
                isinstance(head, ast.AugAssign)
                and isinstance(head.op, ast.Add)
                and isinstance(head.target, ast.Name)
                and head.target.id == "total"
                and _dump(head.value) == _expected_dump(f"len({rows})"),
                f"step {index}: innermost count step must collapse to 'total += len({rows})'",
            )
        else:
            _expect(
                isinstance(head, ast.If)
                and _dump(head.test) == _expected_dump(rows)
                and not head.orelse
                and len(head.body) == 1,
                f"step {index}: innermost count filter must gate on {rows}",
            )
            _match_terminal(head.body[0], "count", num_slots)
        return rest
    if last and mode == "exists" and not checks:
        _expect(bool(rest), f"step {index}: missing exists terminal")
        head, rest = rest[0], rest[1:]
        _expect(
            isinstance(head, ast.If)
            and _dump(head.test) == _expected_dump(rows)
            and not head.orelse
            and len(head.body) == 1,
            f"step {index}: innermost exists step must gate on {rows}",
        )
        _match_terminal(head.body[0], "exists", num_slots)
        return rest

    # The general nest: a filter gate or a candidate-row loop.
    _expect(bool(rest), f"step {index}: loop nest body is missing")
    head, rest = rest[0], rest[1:]
    if not step.new_ops:
        _expect(
            isinstance(head, ast.If)
            and _dump(head.test) == _expected_dump(rows)
            and not head.orelse,
            f"step {index}: filter step must gate on 'if {rows}:'",
        )
        inner = list(head.body)
    else:
        _expect(
            isinstance(head, ast.For)
            and isinstance(head.target, ast.Name)
            and head.target.id == f"row{index}"
            and _dump(head.iter) == _expected_dump(rows)
            and not head.orelse,
            f"step {index}: exactly one 'for row{index} in {rows}:' loop is required",
        )
        inner = list(head.body)
        for first, later in checks:
            _expect(bool(inner), f"step {index}: duplicate-variable check is missing")
            check, inner = inner[0], inner[1:]
            _expect(
                isinstance(check, ast.If)
                and _dump(check.test)
                == _expected_dump(f"row{index}[{first}] != row{index}[{later}]")
                and len(check.body) == 1
                and isinstance(check.body[0], ast.Continue)
                and not check.orelse,
                f"step {index}: duplicate-variable check for positions "
                f"({first}, {later}) is missing or wrong",
            )
        if not (last and mode != "collect"):
            for position, slot in binds:
                _expect(bool(inner), f"step {index}: bind of slot {slot} is missing")
                bind, inner = inner[0], inner[1:]
                _expect(
                    isinstance(bind, ast.Assign)
                    and len(bind.targets) == 1
                    and isinstance(bind.targets[0], ast.Name)
                    and bind.targets[0].id == f"v{slot}"
                    and _dump(bind.value) == _expected_dump(f"row{index}[{position}]"),
                    f"step {index}: bind 'v{slot} = row{index}[{position}]' is missing or wrong",
                )
    if last:
        _expect(len(inner) == 1, f"step {index}: terminal statement is missing or duplicated")
        _match_terminal(inner[0], mode, num_slots)
    else:
        leftover = _match_suffix_level(inner, steps, index + 1, mode, num_slots)
        _expect(
            not leftover,
            f"step {index}: unexpected statements after the nested step",
        )
    return rest


def _match_suffix_function(
    function: ast.FunctionDef,
    steps: Sequence[InternedStep],
    mode: str,
    num_slots: int,
) -> None:
    expected_args = ["binding", "emit"] if mode == "collect" else ["binding"]
    _expect(
        [argument.arg for argument in function.args.args] == expected_args
        and not function.args.posonlyargs
        and not function.args.kwonlyargs
        and function.args.vararg is None
        and function.args.kwarg is None
        and not function.args.defaults,
        f"signature must be _run({', '.join(expected_args)})",
    )
    body = list(function.body)

    entry = range(num_slots) if mode == "collect" else _entry_slots(steps)
    for slot in entry:
        _expect(bool(body), f"prologue load of slot {slot} is missing")
        load, body = body[0], body[1:]
        _expect(
            isinstance(load, ast.Assign)
            and len(load.targets) == 1
            and isinstance(load.targets[0], ast.Name)
            and load.targets[0].id == f"v{slot}"
            and _dump(load.value) == _expected_dump(f"binding[{slot}]"),
            f"prologue must load 'v{slot} = binding[{slot}]'",
        )
    if mode == "count":
        _expect(bool(body), "prologue 'total = 0' is missing")
        init, body = body[0], body[1:]
        _expect(
            isinstance(init, ast.Assign)
            and len(init.targets) == 1
            and isinstance(init.targets[0], ast.Name)
            and init.targets[0].id == "total"
            and _dump(init.value) == _expected_dump("0"),
            "prologue must initialise 'total = 0'",
        )

    if not steps:
        _expect(len(body) == 1, "an empty suffix must be a single terminal statement")
        statement = body[0]
        if mode == "count":
            _expect(
                isinstance(statement, ast.Return)
                and statement.value is not None
                and _dump(statement.value) == _expected_dump("1"),
                "empty count suffix must 'return 1'",
            )
        elif mode == "exists":
            _expect(
                isinstance(statement, ast.Return)
                and statement.value is not None
                and _dump(statement.value) == _expected_dump("True"),
                "empty exists suffix must 'return True'",
            )
        else:
            _match_terminal(statement, "collect", num_slots)
        return

    body = _match_suffix_level(body, steps, 0, mode, num_slots)
    if mode == "count":
        _expect(
            len(body) == 1
            and isinstance(body[0], ast.Return)
            and body[0].value is not None
            and _dump(body[0].value) == _expected_dump("total"),
            "count epilogue must be exactly 'return total'",
        )
    elif mode == "exists":
        _expect(
            len(body) == 1
            and isinstance(body[0], ast.Return)
            and body[0].value is not None
            and _dump(body[0].value) == _expected_dump("False"),
            "exists epilogue must be exactly 'return False'",
        )
    else:
        _expect(not body, "collect functions must end inside the loop nest")


def _match_static_function(function: ast.FunctionDef, steps: Sequence[InternedStep]) -> None:
    _expect(
        [argument.arg for argument in function.args.args] == ["binding"]
        and not function.args.posonlyargs
        and not function.args.kwonlyargs
        and function.args.vararg is None
        and function.args.kwarg is None
        and not function.args.defaults,
        "signature must be _run(binding)",
    )
    body = list(function.body)
    for index, step in enumerate(steps):
        _match_probe(body, step, index, static=True)
        body = body[3:]
        _expect(bool(body), f"filter {index}: early-return gate is missing")
        gate, body = body[0], body[1:]
        _expect(
            isinstance(gate, ast.If)
            and _dump(gate.test) == _expected_dump(f"not rows{index}")
            and len(gate.body) == 1
            and isinstance(gate.body[0], ast.Return)
            and gate.body[0].value is not None
            and _dump(gate.body[0].value) == _expected_dump("False")
            and not gate.orelse,
            f"filter {index}: must gate with 'if not rows{index}: return False'",
        )
    _expect(
        len(body) == 1
        and isinstance(body[0], ast.Return)
        and body[0].value is not None
        and _dump(body[0].value) == _expected_dump("True"),
        "static chain must end with exactly 'return True'",
    )


def _check_allowlist(
    tree: ast.Module, num_steps: int, num_slots: int, subject: str, out: list[Violation]
) -> None:
    """Only allowlisted node kinds, names and call targets may appear."""
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            out.append(
                Violation(
                    "illegal-node",
                    subject,
                    f"{type(node).__name__} nodes never occur in generated code",
                )
            )
            continue
        if isinstance(node, ast.Call):
            target = node.func
            if not isinstance(target, ast.Name) or not _CALL_PATTERN.match(target.id):
                out.append(
                    Violation(
                        "illegal-call",
                        subject,
                        "generated code may only call len(), emit() and the baked "
                        "G<step> index getters",
                    )
                )
        elif isinstance(node, ast.Name):
            if not _NAME_PATTERN.match(node.id):
                out.append(
                    Violation("illegal-name", subject, f"name {node.id!r} is not allowlisted")
                )
                continue
            head = node.id.rstrip("0123456789")
            if head in ("B", "G", "C", "row", "rows"):
                if int(node.id[len(head):]) >= num_steps:
                    out.append(
                        Violation(
                            "illegal-name",
                            subject,
                            f"{node.id!r} references a step beyond the plan's {num_steps}",
                        )
                    )
            elif head == "v" and int(node.id[1:]) >= num_slots:
                out.append(
                    Violation(
                        "illegal-name",
                        subject,
                        f"{node.id!r} references a slot beyond the plan's {num_slots}",
                    )
                )


def verify_generated(fn_source: str, plan: GeneratedPlan, mode: str) -> list[Violation]:
    """Structurally verify one generated function's source against its plan.

    *mode* is one of ``count`` / ``exists`` / ``collect`` (a
    ``compile_suffix`` output over the plan's current suffix) or ``static``
    (the ``compile_static`` output over the base plan's hoisted filters).
    Returns all violations found; an empty list certifies that the loop
    nest is exactly the one the plan demands.
    """
    subject = f"chain[{mode}]"
    if mode not in GENERATED_MODES:
        return [Violation("unknown-mode", subject, f"unknown generated mode {mode!r}")]
    if not isinstance(plan, GeneratedPlan):
        return [
            Violation(
                "unknown-plan", subject, "verify_generated needs the owning GeneratedPlan"
            )
        ]
    try:
        tree = ast.parse(fn_source)
    except SyntaxError as error:
        return [Violation("syntax-error", subject, f"source does not parse: {error}")]

    out: list[Violation] = []
    if len(tree.body) != 1 or not isinstance(tree.body[0], ast.FunctionDef):
        return [Violation("structure", subject, "source must define exactly one function")]
    function = tree.body[0]
    if function.name != "_run" or function.decorator_list or function.returns is not None:
        out.append(Violation("structure", subject, "function must be a plain 'def _run'"))

    steps: Sequence[InternedStep]
    if mode == "static":
        steps = tuple(plan.base.static_steps)
    else:
        steps = tuple(plan.suffix)
    num_slots = len(plan.base.slot_variables)

    _check_allowlist(tree, len(steps), num_slots, subject, out)
    try:
        if mode == "static":
            _match_static_function(function, steps)
        else:
            _match_suffix_function(function, steps, mode, num_slots)
    except _Mismatch as mismatch:
        out.append(Violation("structure", subject, str(mismatch)))
    return out
