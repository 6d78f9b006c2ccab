"""Typed predicates: the one rule every prune level of every reader uses.

A predicate is one ``(column, op, literal)`` term or a list of them (a
conjunction). ``bind`` ties it to the Arrow types of one schema (a ``.oray``
stripe footer's, or an ORC file's) once, and each bound term then answers
the three questions a reader asks at every prune level:

- ``Term.may_match(stats)``: may any value in the stats' ``[min, max]``
  satisfy the term?
- ``Term.probe``: the value a bloom filter may be probed with, or None;
- ``Term.mask(array)`` / ``Bound.mask(table)``: which rows match exactly.

``Bound.may_match`` is the one walk over the terms at every prune level:
``.oray`` stripe and stride, ORC file, stripe and row group.

The rule:

- ops are ``==, !=, <, <=, >, >=``; anything else raises ``ValueError``;
- a numeric literal against a numeric column stays as it is and Arrow
  promotes it (``7.5`` against an int column matches nothing, it is never
  truncated); any other literal is cast to the column's type once (``"7"``
  becomes 7, ``7`` becomes ``"7"``, an ISO string or a ``date`` becomes a
  timestamp or date). A literal Arrow cannot cast or compare raises
  ``ValueError`` naming the column, its type and the literal;
- stats bounds are read by the column's type: timestamp and date bounds,
  stored as ``str(datetime)``, are parsed; string columns compare as
  strings; a bound that cannot be read counts as "may match";
- a bloom is probed only for ``==``, with the literal cast exactly to the
  column's type (``577.0`` probes an int column as 577, ``577.9`` never
  probes it); a float zero never probes, since ``-0.0 == 0.0`` but the
  two hash differently;
- nulls never match, and a term on a column the schema lacks matches no
  row (``Bound.empty``).
"""

from __future__ import annotations

import datetime as dt

import pyarrow as pa
import pyarrow.compute as pc

KERNELS = {"==": pc.equal, "!=": pc.not_equal, "<": pc.less,
           "<=": pc.less_equal, ">": pc.greater, ">=": pc.greater_equal}


def normalize_predicate(predicate) -> list[tuple]:
    """One (col, op, lit) triple or a list of them (a conjunction) → list of
    terms; raises ``ValueError`` for an unsupported op."""
    if predicate is None:
        return []
    if isinstance(predicate, tuple) and len(predicate) == 3 \
            and isinstance(predicate[1], str):
        predicate = [predicate]
    terms = [tuple(t) for t in predicate]
    for _, op, _ in terms:
        if op not in KERNELS:
            raise ValueError(f"unsupported predicate op {op!r}; "
                             f"use one of {', '.join(KERNELS)}")
    return terms


def _numeric(t: pa.DataType) -> bool:
    return pa.types.is_integer(t) or pa.types.is_floating(t) \
        or pa.types.is_decimal(t)


class Term:
    """One (col, op, lit) term bound to its column's Arrow type."""

    def __init__(self, col: str, op: str, lit, type_: pa.DataType):
        self.col, self.op, self.type = col, op, type_
        try:
            v = lit if isinstance(lit, pa.Scalar) else pa.scalar(lit)
            if v.type != type_ and not (_numeric(v.type) and _numeric(type_)):
                v = v.cast(type_)
            KERNELS[op](pa.array([], type_), v)  # the pair has a kernel
        except (pa.ArrowException, TypeError, ValueError, OverflowError):
            raise ValueError(f"predicate literal {lit!r} cannot be compared "
                             f"with column {col!r} of type {type_}") from None
        self.value = v
        # bounds parse: timestamps and dates are stored as str(datetime)
        self._parse = (dt.datetime.fromisoformat if pa.types.is_timestamp(type_)
                       else dt.date.fromisoformat if pa.types.is_date(type_)
                       else None)
        # Arrow compares int with float in float64: so do the stats
        self._float = pa.types.is_floating(type_) \
            or pa.types.is_floating(v.type)
        self._key = self.probe = None  # None: no stats prune, no probe
        try:  # as_py fails on timestamps outside datetime's year range
            key = v.as_py()
            self._key = float(key) if self._float and key is not None else key
            if op == "==" and v.is_valid:
                c = v.cast(type_)
                if c.as_py() == key and not (
                        pa.types.is_floating(type_) and key == 0):
                    self.probe = c
        except (pa.ArrowException, OverflowError, ValueError):
            pass

    def _read(self, bound):
        if self._parse is not None:
            if not isinstance(bound, str):  # e.g. the raw-epoch fallback
                raise TypeError(bound)
            return self._parse(bound)
        return float(bound) if self._float else bound

    def may_match(self, stats: dict | None) -> bool:
        """May any value in ``stats``' [min, max] satisfy the term? Missing
        or unreadable bounds answer True."""
        if not self.value.is_valid:
            return False  # a null literal matches nothing
        stats = stats or {}
        lo, hi = stats.get("min"), stats.get("max")
        if lo is None or hi is None:
            return True
        v, op = self._key, self.op
        try:
            lo, hi = self._read(lo), self._read(hi)
            if op == "==":
                return lo <= v <= hi
            if op == "!=":  # NaN rows (outside min/max) match != too
                return pa.types.is_floating(self.type) or not lo == hi == v
            if op == "<":
                return lo < v
            if op == "<=":
                return lo <= v
            if op == ">":
                return hi > v
            return hi >= v
        except (TypeError, ValueError):
            return True

    def mask(self, arr):
        """Exact comparison of a column of this term's type (null rows →
        null, which a filter drops)."""
        return KERNELS[self.op](arr, self.value)


class Bound:
    """A conjunction bound to one schema. ``empty`` is True when a term
    names a column the schema lacks: then no row matches."""

    def __init__(self, terms: list[Term], empty: bool):
        self.terms, self.empty = terms, empty

    def may_match(self, stats_of, may_contain=lambda term: True) -> bool:
        """May a unit (file, stripe, stride, row group) hold a match, by
        ``stats_of(col)`` (that column's stats dict, or None) and then, for
        terms with a ``probe``, by ``may_contain(term)`` (a bloom probe)?"""
        return not self.empty \
            and all(t.may_match(stats_of(t.col)) for t in self.terms) \
            and all(may_contain(t) for t in self.terms if t.probe is not None)

    def mask(self, table: pa.Table):
        if self.empty:
            return pa.repeat(False, table.num_rows)
        m = None
        for t in self.terms:
            tm = t.mask(table.column(t.col))
            m = tm if m is None else pc.and_kleene(m, tm)
        return m

    def filter(self, table: pa.Table) -> pa.Table:
        return table.filter(self.mask(table))


def bind(predicate, schema: pa.Schema) -> Bound:
    """Bind a predicate (raw or normalized) to ``schema``'s column types."""
    terms, empty = [], False
    for col, op, lit in normalize_predicate(predicate):
        if col in schema.names:
            terms.append(Term(col, op, lit, schema.field(col).type))
        else:
            empty = True
    return Bound(terms, empty)
