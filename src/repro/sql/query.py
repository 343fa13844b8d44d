"""Continuous two-way equi-join queries and their rewritten forms.

Implements the query model of Section 3.2 and the rewriting vocabulary
of Chapter 4:

* a :class:`JoinQuery` is ``SELECT ... FROM R, S WHERE α = β`` with
  optional conjoined local equality filters (``AND S.C = 10``);
* queries are **type T1** when both ``α`` and ``β`` are single
  attributes (so the equality has a unique solution over the attribute
  domains) and **type T2** otherwise;
* a :class:`RewrittenQuery` is the select-project query produced when an
  incoming tuple triggers a query at a rewriter node: the triggering
  relation's attributes are replaced by values and the query is
  reindexed at the value level.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Optional

from ..errors import QueryError
from ..perf import PERF
from .expr import (
    AttrRef,
    Const,
    Expression,
    attributes_of,
    canonical_text,
    canonical_value,
    evaluate,
    is_single_attribute,
    linear_form,
    relations_of,
    substitute,
)

#: Labels for the two sides of a join condition.  The DAI algorithms
#: index a query once per side (``q_L`` / ``q_R`` in the paper).
LEFT = "left"
RIGHT = "right"


@dataclass(frozen=True, slots=True)
class LocalFilter:
    """A conjoined equality predicate over one relation (``A.Surname = 'Smith'``)."""

    attribute: str
    value: Any

    def holds(self, tuple_like) -> bool:
        """Test the predicate against a tuple of the filter's relation."""
        return tuple_like.value(self.attribute) == self.value

    def __str__(self) -> str:
        rendered = repr(self.value) if isinstance(self.value, str) else str(self.value)
        return f"{self.attribute}={rendered}"


@dataclass(frozen=True)
class QuerySide:
    """One side of the join: a relation, its join expression, filters.

    The classification helpers (``join_attributes``, ``linear_form`` and
    friends) are pure functions of the immutable fields but are consulted
    on *every* query trigger — hundreds of thousands of times per run —
    so they are ``cached_property``s.  ``cached_property`` stores into
    ``__dict__`` directly, which sidesteps the frozen ``__setattr__``,
    and dataclass equality/hash only look at declared fields, so the
    caches never leak into comparisons.
    """

    relation: str
    expr: Expression
    filters: tuple[LocalFilter, ...] = ()

    def __post_init__(self):
        referenced = relations_of(self.expr)
        if referenced - {self.relation}:
            raise QueryError(
                f"side expression {self.expr} references relations "
                f"{referenced - {self.relation}} outside {self.relation}"
            )
        if not referenced:
            raise QueryError(
                f"side expression {self.expr} references no attribute of "
                f"{self.relation}"
            )

    @cached_property
    def join_attributes(self) -> tuple[str, ...]:
        """Attributes of this relation appearing in the join expression,
        sorted for determinism."""
        return tuple(sorted(ref.attribute for ref in attributes_of(self.expr)))

    @cached_property
    def single_attribute(self) -> Optional[str]:
        """The attribute name if the expression is a bare attribute."""
        return self.expr.attribute if is_single_attribute(self.expr) else None

    @cached_property
    def _linear_form(self):
        """Memoized ``linear_form(self.expr)`` — the expression never changes."""
        return linear_form(self.expr)

    @cached_property
    def invertible_attribute(self) -> Optional[str]:
        """The attribute if the side is linear in exactly one attribute.

        This is the paper's full T1 criterion: ``a * X + b = v`` has the
        unique solution ``X = (v - b) / a``, so the side can be solved
        for the attribute value that satisfies the join condition.
        Bare attributes are the ``a = 1, b = 0`` special case.
        """
        form = self._linear_form
        return form[0].attribute if form is not None else None

    def solve_for_attribute(self, target_value: Any) -> Any:
        """The value this side's attribute must take so expr == target.

        Only valid when :attr:`invertible_attribute` is not None.
        """
        form = self._linear_form
        if form is None:
            raise QueryError(
                f"side expression {self.expr} is not invertible"
            )
        _, a, b = form
        if a == 1 and b == 0:
            # Identity: also covers non-numeric domains (string joins).
            return canonical_value(target_value)
        try:
            return canonical_value((target_value - b) / a)
        except TypeError as exc:
            raise QueryError(
                f"cannot solve {self.expr} = {target_value!r}: {exc}"
            ) from exc

    def accepts(self, tuple_like) -> bool:
        """True when a tuple satisfies every local filter of this side."""
        if not self.filters:  # the common case; skip the genexpr
            return True
        return all(f.holds(tuple_like) for f in self.filters)

    @cached_property
    def _signature(self) -> str:
        filters = ",".join(str(f) for f in sorted(self.filters, key=str))
        return f"{self.relation}:{canonical_text(self.expr)}[{filters}]"

    def signature(self) -> str:
        """Canonical text used for query grouping (Section 4.3.5)."""
        return self._signature


@dataclass(frozen=True, slots=True)
class Subscriber:
    """Identity of the node that posed a query (Section 4.6).

    ``ident`` is ``Id(n) = Hash(Key(n))`` and ``ip`` the address used
    for one-hop notification delivery while the subscriber is online.
    """

    key: str
    ident: int
    ip: str


@dataclass(frozen=True)
class JoinQuery:
    """A continuous two-way equi-join query.

    Built by the parser without subscription metadata; the engine binds
    ``key``, ``insertion_time`` and ``subscriber`` via
    :meth:`with_subscription` when the query enters the network.
    """

    select: tuple[AttrRef, ...]
    left: QuerySide
    right: QuerySide
    key: str = ""
    insertion_time: float = 0.0
    subscriber: Optional[Subscriber] = None

    def __post_init__(self):
        if self.left.relation == self.right.relation:
            raise QueryError(
                "self-joins are not supported (both sides reference "
                f"{self.left.relation})"
            )
        for ref in self.select:
            if ref.relation not in (self.left.relation, self.right.relation):
                raise QueryError(
                    f"select attribute {ref} references a relation outside "
                    f"the FROM clause"
                )

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    @property
    def query_type(self) -> str:
        """``"T1"`` or ``"T2"`` (Section 3.2).

        T1: each side involves a single attribute and the equality has
        a unique solution — i.e. both sides are linear in one attribute
        (bare attributes are the common special case).  Everything else
        (multi-attribute or non-linear sides) is T2 and can only be
        evaluated by DAI-V.
        """
        if self.left.invertible_attribute and self.right.invertible_attribute:
            return "T1"
        return "T2"

    # ------------------------------------------------------------------
    # Side access
    # ------------------------------------------------------------------
    def side(self, label: str) -> QuerySide:
        if label == LEFT:
            return self.left
        if label == RIGHT:
            return self.right
        raise QueryError(f"unknown side label {label!r}")

    def other_label(self, label: str) -> str:
        if label == LEFT:
            return RIGHT
        if label == RIGHT:
            return LEFT
        raise QueryError(f"unknown side label {label!r}")

    def side_for_relation(self, relation: str) -> str:
        """Which side (label) a relation sits on."""
        if relation == self.left.relation:
            return LEFT
        if relation == self.right.relation:
            return RIGHT
        raise QueryError(f"relation {relation} not part of query {self.key!r}")

    def index_attribute(self, label: str) -> str:
        """The attribute used to index this query on side ``label``.

        For T1 sides it is *the* join attribute; for T2 sides (DAI-V)
        one representative attribute is chosen deterministically —
        "the query will be indexed ... according to one of the
        attributes in the left part of the join condition" (§4.5).
        """
        side = self.side(label)
        single = side.single_attribute
        if single is not None:
            return single
        return side.join_attributes[0]

    # ------------------------------------------------------------------
    # Grouping
    # ------------------------------------------------------------------
    @cached_property
    def _rewrite_plans(self) -> dict:
        """Per-side :class:`RewritePlan`, built on first trigger."""
        return {LEFT: RewritePlan(self, LEFT), RIGHT: RewritePlan(self, RIGHT)}

    @cached_property
    def side_needed_attributes(self) -> dict[str, tuple[str, ...]]:
        """Per side: the attributes a DAI-V projection of that side must
        carry — select attributes of the side's relation, its
        join-expression attributes and its filter attributes (sorted).
        """
        result = {}
        for label in (LEFT, RIGHT):
            side = self.side(label)
            needed = {
                ref.attribute for ref in self.select if ref.relation == side.relation
            }
            needed.update(ref.attribute for ref in attributes_of(side.expr))
            needed.update(f.attribute for f in side.filters)
            result[label] = tuple(sorted(needed))
        return result

    @cached_property
    def _join_signature(self) -> str:
        return f"{self.left.signature()}={self.right.signature()}"

    def join_signature(self) -> str:
        """Canonical identity of the join condition, for grouping.

        "All queries that have equivalent join condition are grouped
        together at each rewriter and evaluator node" (Section 4.3.5).
        """
        return self._join_signature

    # ------------------------------------------------------------------
    # Subscription binding
    # ------------------------------------------------------------------
    def with_subscription(
        self, key: str, insertion_time: float, subscriber: Subscriber
    ) -> "JoinQuery":
        """Return a copy bound to a subscriber at submission time."""
        return replace(
            self, key=key, insertion_time=insertion_time, subscriber=subscriber
        )

    def __str__(self) -> str:
        select = ", ".join(str(ref) for ref in self.select)
        conjuncts = [f"{self.left.expr} = {self.right.expr}"]
        for side in (self.left, self.right):
            conjuncts.extend(f"{side.relation}.{f}" for f in side.filters)
        return (
            f"SELECT {select} FROM {self.left.relation}, {self.right.relation} "
            f"WHERE {' AND '.join(conjuncts)}"
        )


# ----------------------------------------------------------------------
# Select items of rewritten queries
# ----------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class BoundValue:
    """A select item already replaced by a value from the trigger tuple."""

    value: Any


@dataclass(frozen=True, slots=True)
class PendingAttr:
    """A select item still to be read from a matching dis-side tuple."""

    attribute: str


SelectItem = BoundValue | PendingAttr


@dataclass(slots=True, eq=False)
class RewrittenQuery:
    """A select-project query produced by rewriting a join query.

    One is allocated per (query, trigger tuple) pair — the hottest
    allocation of the simulator — so the class is slotted and skips the
    frozen machinery (a frozen dataclass pays ``object.__setattr__`` per
    field on *every* construction, ~8x slower).  Its ``select`` tuple is
    not its own: the queries of a group with the same select list share
    one per trigger (see :class:`TriggerBinding`).  Instances are
    immutable by convention: nothing mutates one after ``rewrite()``
    returns, and identity/equality is always taken on ``key`` (Section
    4.3.3), never on field-wise comparison.

    Example from Section 4.3.2: triggering
    ``SELECT R.A, S.B FROM R, S WHERE R.C = S.C`` with ``S(3, 4, 7)``
    yields ``SELECT R.A, 4 FROM R WHERE R.C = 7``, reindexed at
    ``Successor(Hash("R" + "C" + "7"))``.
    """

    #: ``Key(q') = Key(q) + v_1 + ... + v_l + valDA`` (Section 4.3.3).
    key: str
    original_key: str
    group_signature: str
    subscriber: Subscriber
    insertion_time: float
    #: The load-distributing relation whose tuples can satisfy this query.
    relation: str
    #: The dis-side join expression (over ``relation``).
    expr: Expression
    #: The value the dis-side *expression* must take (``valJC``).
    required_value: Any
    #: ``DisA`` — the level-1 VLQT key for SAI/DAI-Q/DAI-T; ``None``
    #: when the dis side is not invertible (T2, DAI-V only).
    dis_attribute: Optional[str]
    #: ``valDA`` — the solved value of ``DisA`` (equals
    #: ``required_value`` for bare-attribute sides); ``None`` when the
    #: dis side is not invertible.
    dis_value: Any
    filters: tuple[LocalFilter, ...]
    select: tuple[SelectItem, ...]
    #: ``pubT`` of the tuple that triggered the rewrite — "the time
    #: information is necessary when creating notifications".
    trigger_pub_time: float

    def matches(self, tuple_like, *, check_value: bool = True) -> bool:
        """Does a dis-relation tuple satisfy this rewritten query?

        Checks the local filters, the time semantics
        (``pubT >= insT(q)``) and — unless the caller already guarantees
        it through hash placement — the join-value equality.
        """
        if tuple_like.pub_time < self.insertion_time:
            return False
        if not all(f.holds(tuple_like) for f in self.filters):
            return False
        if check_value:
            try:
                if evaluate(self.expr, tuple_like) != self.required_value:
                    return False
            except QueryError:
                return False
        return True

    def result_row(self, tuple_like) -> tuple[Any, ...]:
        """Materialize the notification row from a matching tuple."""
        row = []
        for item in self.select:
            if isinstance(item, BoundValue):
                row.append(item.value)
            else:
                row.append(tuple_like.value(item.attribute))
        return tuple(row)

    @property
    def needed_attributes(self) -> tuple[str, ...]:
        """Dis-relation attributes required to evaluate and project.

        Determines the DAI-V projection: select attributes still
        pending, the join-expression attributes, and filter attributes.
        """
        needed = {item.attribute for item in self.select if isinstance(item, PendingAttr)}
        needed.update(ref.attribute for ref in attributes_of(self.expr))
        needed.update(f.attribute for f in self.filters)
        return tuple(sorted(needed))


class RewritePlan:
    """The trigger-independent skeleton of a rewrite (one per query side).

    ``rewrite()`` runs once per (query entry, trigger tuple) pair — by
    far the hottest application-level call of the simulator — yet most
    of what it computes depends only on the query: which side is the
    index side, whether the dis side is invertible (and its linear
    coefficients), which select items bind from the trigger versus stay
    pending.  A plan precomputes all of that once per query instance
    (built lazily via :attr:`JoinQuery._rewrite_plans`), so the per-trigger
    work shrinks to value lookups and one string join.
    """

    __slots__ = (
        "index_relation",
        "index_side",
        "index_expr",
        "index_attr",
        "dis_side",
        "dis_attribute",
        "dis_identity",
        "dis_a",
        "dis_b",
        "select_spec",
        "select_sig",
        "query_key",
        "group_signature",
        "subscriber",
        "insertion_time",
        "dis_relation",
        "dis_expr",
        "dis_filters",
        "pos_relation",
        "index_pos",
        "select_pos_spec",
    )

    def __init__(self, query: "JoinQuery", index_label: str):
        index_side = query.side(index_label)
        dis_side = query.side(query.other_label(index_label))
        self.index_relation = index_side.relation
        self.index_side = index_side
        self.index_expr = index_side.expr
        self.query_key = query.key
        self.group_signature = query.join_signature()
        self.subscriber = query.subscriber
        self.insertion_time = query.insertion_time
        self.dis_relation = dis_side.relation
        self.dis_expr = dis_side.expr
        self.dis_filters = dis_side.filters
        #: Bare-attribute fast path: substitution folds straight to the
        #: trigger's value of this attribute.
        self.index_attr = (
            self.index_expr.attribute if type(self.index_expr) is AttrRef else None
        )
        self.dis_side = dis_side
        self.dis_attribute = dis_side.invertible_attribute
        form = dis_side._linear_form
        if form is not None:
            _, self.dis_a, self.dis_b = form
            self.dis_identity = self.dis_a == 1 and self.dis_b == 0
        else:
            self.dis_a = self.dis_b = None
            self.dis_identity = False
        #: Per select item: the trigger attribute to bind, or the shared
        #: (immutable) ``PendingAttr`` to reuse verbatim.
        self.select_spec: tuple[tuple[Optional[str], Optional[PendingAttr]], ...] = tuple(
            (ref.attribute, None)
            if ref.relation == index_side.relation
            else (None, PendingAttr(ref.attribute))
            for ref in query.select
        )
        #: The select list as text: plans of one trigger relation with
        #: equal text bind equal select tuples (see :class:`TriggerBinding`).
        self.select_sig = ",".join(str(ref) for ref in query.select)
        #: Positional variants of :attr:`index_attr`/:attr:`select_spec`,
        #: bound lazily to the first trigger's ``Relation`` object so
        #: ``rewrite()`` can index ``trigger.values`` directly instead of
        #: going through ``DataTuple.value`` name lookups.
        self.pos_relation = None
        self.index_pos: Optional[int] = None
        self.select_pos_spec: tuple[tuple[Optional[int], Optional[PendingAttr]], ...] = ()

    def bind_positions(self, relation) -> None:
        """Resolve attribute names to positions in ``relation``.

        Called once per (plan, Relation object); re-bound if a trigger
        arrives with a distinct schema object of the same name.
        """
        positions = relation._positions
        if self.index_attr is not None:
            self.index_pos = positions[self.index_attr]
        self.select_pos_spec = tuple(
            (None, pending) if attribute is None else (positions[attribute], None)
            for attribute, pending in self.select_spec
        )
        self.pos_relation = relation


class TriggerBinding:
    """One trigger tuple bound to one index side of a query group.

    The queries of an ALQT group share their join condition (Section
    4.3.5: "similar queries are triggered in a single step"), so for one
    trigger tuple they take the same required value, the same dis value
    and — the paper's point — the same evaluator.  Those that also share
    their select list share the trigger-bound select tuple (with its
    ``BoundValue`` items) and the key suffix ``+v_1+...+v_l+valJC``.  A
    binding computes all of that once; :func:`rewrite` then pays per
    query only for its key and its :class:`RewrittenQuery`.

    Built from any query of the group; :func:`rewrite` trusts the
    caller that every query it is used with has the same join condition
    on the same index side.
    """

    __slots__ = ("trigger", "required_value", "dis_value", "value_suffix", "bound", "selects")

    def __init__(self, query: JoinQuery, index_label: str, trigger):
        plan = query._rewrite_plans[index_label]
        relation = trigger.relation
        if relation.name != plan.index_relation:
            raise QueryError(
                f"tuple of {relation.name} cannot trigger side "
                f"{index_label} ({plan.index_relation}) of query {query.key!r}"
            )
        if plan.pos_relation is not relation:
            plan.bind_positions(relation)

        if plan.index_pos is not None:
            value = trigger.values[plan.index_pos]
            required_value = value if type(value) is int else canonical_value(value)
        else:
            substituted = substitute(plan.index_expr, plan.index_relation, trigger)
            if not isinstance(substituted, Const):
                raise QueryError(
                    f"index-side expression {plan.index_expr} did not fold to a "
                    f"constant for tuple {trigger}"
                )
            required_value = canonical_value(substituted.value)

        if plan.dis_attribute is None:
            dis_value = None
        elif plan.dis_identity:
            # Identity linear form: already canonical (also covers strings).
            dis_value = required_value
        else:
            try:
                dis_value = canonical_value((required_value - plan.dis_b) / plan.dis_a)
            except TypeError as exc:
                raise QueryError(
                    f"cannot solve {plan.dis_side.expr} = {required_value!r}: {exc}"
                ) from exc

        self.trigger = trigger
        self.required_value = required_value
        self.dis_value = dis_value
        self.value_suffix = "+" + str(required_value)
        #: Per trigger attribute position: its ``BoundValue`` and key
        #: part, made when a select list first binds the position.
        self.bound: list[Optional[tuple[BoundValue, str]]] = [None] * len(trigger.values)
        #: ``select_sig`` -> (select tuple, key suffix after ``Key(q)``).
        self.selects: dict[str, tuple[tuple[SelectItem, ...], str]] = {}

    def bind_select(self, plan: RewritePlan) -> tuple[tuple[SelectItem, ...], str]:
        """Bind ``plan``'s select list to the trigger, once per select list."""
        trigger = self.trigger
        if plan.pos_relation is not trigger.relation:
            plan.bind_positions(trigger.relation)
        bound = self.bound
        select_items: list[SelectItem] = []
        key_parts: list[str] = []
        for bind_position, pending in plan.select_pos_spec:
            if bind_position is None:
                select_items.append(pending)
                continue
            pair = bound[bind_position]
            if pair is None:
                value = trigger.values[bind_position]
                pair = bound[bind_position] = (BoundValue(value), "+" + str(value))
            select_items.append(pair[0])
            key_parts.append(pair[1])
        key_parts.append(self.value_suffix)
        shared = (tuple(select_items), "".join(key_parts))
        self.selects[plan.select_sig] = shared
        return shared


def rewrite(
    query: JoinQuery,
    index_label: str,
    trigger,
    binding: Optional[TriggerBinding] = None,
) -> RewrittenQuery:
    """Rewrite ``query`` triggered by tuple ``trigger`` on side ``index_label``.

    Replaces every attribute of the index relation in the Select and
    Where clauses with the trigger tuple's values (Section 4.3.2),
    computes the value the remaining side must take, and forms the
    rewritten-query key.  The query-invariant parts come from the
    memoized :class:`RewritePlan`; what every query of the group shares
    for this trigger comes from ``binding`` — pass the one
    :class:`TriggerBinding` of ``trigger`` to every query of a group;
    without one, a binding is made for this query alone.
    """
    if PERF.enabled:
        PERF.count("sql.rewrites")
    plan = query._rewrite_plans[index_label]
    if binding is None:
        binding = TriggerBinding(query, index_label, trigger)
    shared = binding.selects.get(plan.select_sig)
    if shared is None:
        shared = binding.bind_select(plan)
    select, key_suffix = shared
    # Positional, in field order: keyword arguments would triple the
    # cost of the simulator's hottest allocation.
    return RewrittenQuery(
        plan.query_key + key_suffix,  # key
        plan.query_key,  # original_key
        plan.group_signature,
        plan.subscriber,
        plan.insertion_time,
        plan.dis_relation,  # relation
        plan.dis_expr,  # expr
        binding.required_value,
        plan.dis_attribute,
        binding.dis_value,
        plan.dis_filters,  # filters
        select,
        trigger.pub_time,  # trigger_pub_time
    )
