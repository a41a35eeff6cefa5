"""Core types and primitives for box-constrained optimal sample allocation.

The problem solved throughout this package: minimize

    f(x) = sum_w a_w**2 / x_w

over allocations x subject to sum_w x_w = n and 0 < x_w <= b_w. Stratified
SRSWOR with per-stratum sizes N_w and standard deviations S_w is the special
case a_w = N_w * S_w, b_w = N_w, where f (up to an additive constant) is the
design variance of the stratified mean estimator.

Solutions have a two-regime shape: a "take-all" subset V of strata pinned at
their upper bounds, and Neyman-proportional values a_w * s(V) elsewhere, where
s(V) is the budget-per-unit-a scale factor defined by :func:`s_of`. The optimal
V is characterized by a fixed-point condition checked by
:func:`is_optimal_takeall`.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Collection, Hashable, Iterable, Mapping, Sequence
from functools import cached_property
from itertools import chain, compress, count, repeat
from operator import and_, attrgetter, ge, gt, itemgetter, le, lt, mul, neg, truediv

Label = Hashable


class InfeasibleProblemError(ValueError):
    """Raised when the sample size exceeds the sum of the upper bounds."""


class InfeasibleSubsetError(ValueError):
    """Raised when a candidate take-all subset leaves no positive budget."""


# the largest finite float; an int at most this converts to a finite float
_FLOAT_MAX = sys.float_info.max


def _shown(value: float) -> str:
    # repr(value), but not for an int past the floats: its repr can run to
    # thousands of digits, and past sys.get_int_max_str_digits() it raises
    if isinstance(value, int) and not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        return "an int too large for a float"
    return repr(value)


class _DataclassFields:
    """The ``__dataclass_fields__`` of every record class, which the
    dataclasses functions (fields, replace, is_dataclass, asdict) read:
    built on first read from a dataclass made over the class's ``_types``
    and ``_defaults``, and kept in the class's own ``__dict__``, which a
    subclass does not read. Only callers of those functions read it, and
    they have imported dataclasses already."""

    def __get__(self, record: object, cls: type) -> dict:
        fields = vars(cls).get("_shadow_fields")
        if fields is None:
            from dataclasses import make_dataclass

            types, defaults = cls._types.items(), dict(cls._defaults)
            shadow = make_dataclass(cls.__name__, types, namespace=defaults, init=False, repr=False, eq=False)
            fields = cls._shadow_fields = shadow.__dataclass_fields__
        return fields


class _Record:
    """The one record base: a record that behaves as a frozen dataclass.
    A class's fields (``_types``, ``__match_args__``) are its base's, then
    the names its body annotates, with the values the body gives as
    defaults (``_defaults``). Records are equal, hashed and shown by class and fields,
    copied by ``__replace__``, and immutable, raising dataclasses'
    FrozenInstanceError; ``dataclasses`` is imported only when one of its
    functions reads a record, or on that error. The generic constructor
    takes fields by position, then by name, into the record's ``__dict__``;
    a class whose records validate writes its own. The records built many
    at a time are tuples of their fields instead (:class:`_TupleRecord`).

    A record may hold a field as columns in place of its value: ``_views``
    maps such a field to the function that builds the value from them. The
    first read of a field missing from ``__dict__`` builds it, keeps it in
    ``__dict__`` and returns it; so equality, repr, pickling and the
    dataclasses functions read it like any field."""

    __slots__ = ()
    __match_args__ = ()
    _types = _defaults = _views = {}
    __dataclass_fields__ = _DataclassFields()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        body = vars(cls)
        own = {name: kind for name, kind in body.get("__annotations__", {}).items() if name not in cls._types}
        cls._types = {**cls._types, **own}
        cls._defaults = {**cls._defaults, **{name: body[name] for name in own if name in body}}
        cls.__match_args__ = tuple(cls._types)
        if issubclass(cls, tuple):  # each field is read by its index
            for i, name in enumerate(cls.__match_args__):
                setattr(cls, name, property(itemgetter(i)))
        else:  # the field values as a tuple: every record has two fields or more
            cls._field_values = attrgetter(*cls.__match_args__)

    def __init__(self, *args: object, **kwargs: object) -> None:
        names, attrs = self.__match_args__, self.__dict__
        attrs.update(self._defaults)
        attrs.update(zip(names, args))
        attrs.update(kwargs)
        # too many fields by position, a name not among the rest, or a field left out with no default
        if len(args) > len(names) or not kwargs.keys() <= set(names[len(args) :]) or len(attrs) < len(names):
            given = f"{len(args)} by position and {tuple(kwargs)} by name"
            raise TypeError(f"{type(self).__name__}() takes the fields {names}; got {given}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._field_values(self) == other._field_values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._field_values(self))

    def __repr__(self) -> str:
        fields = ", ".join(map("{}={!r}".format, self.__match_args__, self._field_values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __replace__(self, /, **changes: object) -> _Record:
        return type(self)(**dict(zip(self.__match_args__, self._field_values(self)), **changes))

    def __getattr__(self, name: str) -> object:
        # only a name found neither in __dict__ nor on the class reaches here
        view = self._views.get(name)
        if view is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        value = self.__dict__[name] = view(self)
        return value

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError  # only on this error path

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


_tuple_new = tuple.__new__


class _TupleRecord(_Record, tuple):
    """The base of the records built many at a time: a record is a tuple of
    its fields, in field order, with no ``__dict__``. It is one allocation
    of the cyclic garbage collector, its fields are read by index, and a
    column of a field over many records is one C-level ``itemgetter`` pass.
    Each class builds its records in its own ``__new__``; copies and pickles
    go through it. A record equals only a record of its own class, and
    records are not ordered: tuple's equality and order, which read the
    items alone, do not apply."""

    __slots__ = ()
    __init__ = object.__init__  # __new__ builds the record
    _field_values = tuple
    __hash__ = tuple.__hash__  # the hash of the fields

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other: object) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def _unordered(self, other: object) -> bool:
        raise TypeError(f"{type(self).__name__} records are not ordered")

    __lt__ = __le__ = __gt__ = __ge__ = _unordered

    def __reduce__(self) -> tuple[type, tuple]:
        return type(self), tuple(self)


class Stratum(_TupleRecord):
    """One stratum: a label, a variability weight a, and an upper bound b.

    The one constructor checks that a, b and a/b are positive and finite
    in one chained compare. Values that fail it go through the three
    checks one at a time, and the first that fails raises the ValueError
    naming the stratum and the value. The record is then the tuple
    ``(label, a, b)``: it costs one Python frame and one allocation.

    SRSWOR strata are built with :meth:`survey` and also carry N and S; on a
    plain stratum both read None.
    """

    __slots__ = ()
    label: Label
    a: float
    b: float
    N = S = None

    def __new__(cls, label: Label, a: float, b: float) -> Stratum:
        # 0.0, not 0: a compare of two floats takes the interpreter's specialized path
        if not (0.0 < a <= _FLOAT_MAX and 0.0 < b <= _FLOAT_MAX and a / b <= _FLOAT_MAX):
            # one condition at a time, for the message; an int too large for a float fails as inf
            if not 0 < a <= _FLOAT_MAX:
                raise ValueError(f"stratum {label!r}: a must be positive and finite, got {_shown(a)}")
            if not 0 < b <= _FLOAT_MAX:
                raise ValueError(f"stratum {label!r}: b must be positive and finite, got {_shown(b)}")
            raise ValueError(f"stratum {label!r}: a/b overflows")
        return _tuple_new(cls, (label, a, b))

    @staticmethod
    def survey(label: Label, N: float, S: float) -> SurveyStratum:
        """The SRSWOR stratum of N units with standard deviation S: a = N * S, b = N."""
        try:
            a, b = N * S, float(N)
        except OverflowError:  # N or S is an int too large for a float
            name = "S" if -_FLOAT_MAX <= N <= _FLOAT_MAX else "N"
            raise ValueError(f"stratum {label!r}: {name} is too large for a float") from None
        return SurveyStratum(label, a, b, S)

    @property
    def c(self) -> float:
        """The take-all priority ratio a/b."""
        return self.a / self.b


class SurveyStratum(Stratum):
    """A stratum of an SRSWOR design: b = N units with standard deviation S.

    Built by :meth:`Stratum.survey`. N and S are checked first, so an error
    names the value as given: each must be positive and finite, and so must
    N * S. Then come the :class:`Stratum` checks, and a record whose b is
    not an integer or whose a is not b * S is rejected.
    The record is the tuple ``(label, a, b, S)``.
    """

    __slots__ = ()
    S: float

    def __new__(cls, label: Label, a: float, b: float, S: float) -> SurveyStratum:
        if not (0.0 < b <= _FLOAT_MAX and 0.0 < S <= _FLOAT_MAX and b * S <= _FLOAT_MAX):
            for name, value in (("N", b), ("S", S)):
                if not 0 < value <= _FLOAT_MAX:
                    raise ValueError(f"stratum {label!r}: {name} must be positive and finite, got {_shown(value)}")
            raise ValueError(f"stratum {label!r}: N * S overflows")
        Stratum.__new__(Stratum, label, a, b)  # the Stratum checks, on a record then dropped
        if b != int(b):
            raise ValueError(f"stratum {label!r}: N must be an integer, got {b!r}")
        if a != b * S:
            raise ValueError(f"stratum {label!r}: a = {a!r} is not N * S for S = {S!r}")
        return _tuple_new(cls, (label, a, b, S))

    @property
    def N(self) -> int:
        """The population size, b as an integer."""
        return int(self.b)


# the record columns, each read by one C-level pass over the records
_label_of, _a_of, _b_of, _S_of = map(itemgetter, range(4))


def _all_valid(a: list[float], b: list[float], S: list[float] | None, product: bool) -> bool:
    return (
        all(map(math.isfinite, a))
        and all(map(math.isfinite, b))
        and min(a, default=1.0) > 0
        and min(b, default=1.0) > 0
        and all(map(math.isfinite, map(truediv, a, b)))
        and (S is None or (all(map(float.is_integer, b)) and (not product or list(map(mul, b, S)) == a)))
    )


def _floats(values: Iterable[float], labels: tuple[Label, ...], name: str) -> list[float]:
    # values as floats; an int too large for a float raises the ValueError naming its stratum
    floats: list[float] = []
    try:
        floats.extend(map(float, values))
    except OverflowError:  # extend keeps the floats made before the value that failed
        if len(floats) >= len(labels):
            raise ValueError("strata columns must have equal lengths") from None
        raise ValueError(f"stratum {labels[len(floats)]!r}: {name} is too large for a float") from None
    return floats


def _check_distinct(labels: tuple[Label, ...]) -> None:
    if len(set(labels)) != len(labels):
        raise ValueError("stratum labels must be distinct")


class StrataColumns:
    """Strata held as columns: labels, a and b, and S for survey strata.

    The one representation the problem, the solvers and the file formats
    read. ``labels`` is a tuple, ``lists`` holds a and b as lists of floats,
    and ``S`` is a list of floats or None: every pass over a column is one
    C-level map, compress or fsum, which at K = 20 costs less than numpy's
    per-call overhead, and which needs no numpy. ``records`` is the one
    record view: :class:`Stratum` records (:class:`SurveyStratum` records
    when S is given), built on first use and then kept; built by
    :meth:`from_records` it is that exact tuple.

    Every stratum check is made here. The constructors check whole
    columns as the record constructors would; when a check fails they
    build the records in order, so the first rejected stratum raises its
    own record constructor's ValueError. Labels must be distinct, in
    every constructor.
    """

    def __init__(
        self, labels: Iterable[Label], a: Iterable[float], b: Iterable[float], S: Iterable[float] | None = None
    ) -> None:
        labels = tuple(labels)
        S = None if S is None else _floats(S, labels, "S")
        self.labels, self.lists, self.S = labels, (_floats(a, labels, "a"), _floats(b, labels, "b")), S
        self._records: tuple[Stratum, ...] | None = None
        self._check(product=S is not None)

    @classmethod
    def survey(cls, labels: Iterable[Label], N: Sequence[float], S: Sequence[float]) -> StrataColumns:
        """The SRSWOR strata of N units with standard deviation S, as columns:
        a = N * S and b = N, keeping S. The columns counterpart of
        :meth:`Stratum.survey`."""
        labels = tuple(labels)
        N, S = _floats(N, labels, "N"), _floats(S, labels, "S")
        self = cls._given(labels, list(map(mul, N, S)), N, S)
        self._check(product=False)  # a is b * S as formed here
        return self

    @classmethod
    def _given(cls, labels: tuple, a: list[float], b: list[float], S: list[float] | None = None) -> StrataColumns:
        """Unchecked columns over lists of floats that the caller hands over
        and that are kept, not copied."""
        self = cls.__new__(cls)
        self.labels, self.lists, self.S, self._records = labels, (a, b), S, None
        return self

    def _check(self, product: bool) -> None:
        K, (a, b), S = len(self.labels), self.lists, self.S
        if not K == len(a) == len(b) == (K if S is None else len(S)):
            raise ValueError("strata columns must have equal lengths")
        if not _all_valid(a, b, S, product):
            self.records  # built in order: the first rejected stratum's constructor raises
            raise AssertionError("a column check fails that every record passes")
        _check_distinct(self.labels)

    @classmethod
    def from_records(cls, records: Iterable[Stratum]) -> StrataColumns:
        """The columns of records already built; ``records`` is that tuple.
        The records are tuples of their fields, so each column is one
        C-level ``itemgetter`` pass over them; S is read only when every
        record is a :class:`SurveyStratum`. An item that is not a
        :class:`Stratum` raises TypeError: nothing else was checked."""
        records = tuple(records)
        kinds = set(map(type, records))
        for kind in kinds:
            if not issubclass(kind, Stratum):
                raise TypeError(f"strata must be Stratum records, got {kind.__name__!r}")
        survey = kinds and all(issubclass(kind, SurveyStratum) for kind in kinds)
        self = cls._given(
            tuple(map(_label_of, records)),
            list(map(_a_of, records)),
            list(map(_b_of, records)),
            list(map(_S_of, records)) if survey else None,
        )
        self._records = records
        _check_distinct(self.labels)
        return self

    @property
    def records(self) -> tuple[Stratum, ...]:
        if self._records is None:
            if self.S is None:
                self._records = tuple(map(Stratum, self.labels, *self.lists))
            else:
                self._records = tuple(map(SurveyStratum, self.labels, *self.lists, self.S))
        return self._records


def _total(values: list[float], name: str) -> float:
    try:
        return math.fsum(values)
    except OverflowError:
        raise ValueError(f"the sum of the {name} values overflows") from None


class AllocationProblem:
    """An allocation instance: strata in a fixed order plus the total sample size n.

    ``strata`` is a :class:`StrataColumns` or any iterable of
    :class:`Stratum` records. The problem holds the columns: ``labels`` and
    the a and b lists in ``columns.lists``, which the solvers and oracles
    read. ``strata`` is ``columns.records``: the tuple given, or for
    columns, records built once on first use.

    The strata are checked by :class:`StrataColumns`. Validation on
    construction: at least one stratum, sum(a) and sum(b) do not overflow,
    0 < n <= sum(b). The boundary case n == sum(b) is accepted; it
    is the trivial census where the only feasible (hence optimal) allocation
    is x = b (see :attr:`is_census`). n > sum(b) raises
    :class:`InfeasibleProblemError`. A problem is immutable.
    """

    def __init__(self, strata: StrataColumns | Iterable[Stratum], n: float) -> None:
        columns = strata if isinstance(strata, StrataColumns) else StrataColumns.from_records(strata)
        labels = columns.labels
        if not labels:
            raise ValueError("problem needs at least one stratum")
        if not 0 < n <= _FLOAT_MAX:  # a compare: an int too large for a float fails it too
            raise ValueError(f"n must be positive and finite, got {_shown(n)}")
        a, b = columns.lists
        self.__dict__.update(columns=columns, labels=labels, n=n, sum_a=_total(a, "a"), sum_b=_total(b, "b"))
        if n > self.sum_b:
            raise InfeasibleProblemError(f"n = {n} exceeds the total upper bound {self.sum_b}")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"AllocationProblem is immutable; cannot set {name!r}")

    @property
    def strata(self) -> tuple[Stratum, ...]:
        return self.columns.records

    @cached_property
    def by_label(self) -> dict[Label, Stratum]:
        return dict(zip(self.labels, self.strata))

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def is_census(self) -> bool:
        """True when n equals the total bound exactly, forcing x = b."""
        return self.n == self.sum_b


class IterationRecord(_TupleRecord):
    """One solver iteration: 1-based index r, the scale s(V_r), labels added.

    Like :class:`Stratum`, the tuple of its fields, built in one Python
    frame: the first read of a trace builds many.
    """

    __slots__ = ()
    r: int
    s_value: float
    added: tuple[Label, ...]

    def __new__(cls, r: int, s_value: float, added: tuple[Label, ...]) -> IterationRecord:
        return _tuple_new(cls, (r, s_value, added))


class AllocationResult(_Record):
    """A solved allocation.

    x maps labels to allocated values in the problem's stratum order. For
    continuous solvers, x_w == b_w on take_all and x_w == a_w * s_final
    elsewhere. Integer-valued solvers (see greedy_integer_optimal) have no
    continuous scale; they report s_final = 0.0 and an empty trace.

    algorithm names the solver: rna, sga, coma, bisection, greedy_integer or
    v_allocation. iterations is the 1-based count of solver iterations (r*
    for the recursive solvers, probe count for the multiplier search). trace
    holds per-iteration records for the recursive solvers and is empty for
    the oracle solvers.

    Every result the package builds (the solvers', see :func:`_v_result`, the
    oracles' and a parsed one) holds the answer as columns: the labels, x as
    a list in their order, V as positions among them, and a solver's trace
    as columns over those. The first read of ``x``, ``take_all`` or ``trace``
    builds it and keeps it; the public constructor, for callers outside the
    package, takes them built. :meth:`_columns` gives any result's columns.
    """

    x: dict[Label, float]
    take_all: frozenset
    s_final: float
    iterations: int
    trace: tuple[IterationRecord, ...]
    algorithm: str

    @classmethod
    def _from_columns(
        cls,
        labels: tuple[Label, ...],
        xs: list[float],
        v: Sequence[int],
        s_final: float,
        iterations: int,
        algorithm: str,
        trace: tuple[Sequence[float], Sequence[int]] | None = None,
    ) -> AllocationResult:
        """The one builder of the package's results, over columns that are
        kept, not copied: labels, x over them in that order, and V as
        distinct positions among them. The trace comes as two columns over
        v, in visiting order: each iteration's s, and where V's prefix of v
        ends after it (an end past len(v) slices to it); without them it is
        empty."""
        result = cls.__new__(cls)
        attrs = result.__dict__
        attrs.update(_labels=labels, _xs=xs, _v=v, s_final=s_final, iterations=iterations, algorithm=algorithm)
        if trace is None:
            attrs["trace"] = ()
        else:
            attrs["_trace_columns"] = trace
        return result

    def _x_view(self) -> dict[Label, float]:
        return dict(zip(self._labels, self._xs))

    def _take_all_view(self) -> frozenset:
        return frozenset(map(self._labels.__getitem__, self._v))

    def _trace_view(self) -> tuple[IterationRecord, ...]:
        # each iteration adds V's positions from the last end to its own, labels in position order
        (s_values, ends), idx, get = self._trace_columns, self._v, self._labels.__getitem__
        added = [tuple(map(get, sorted(idx[start:end]))) for start, end in zip(chain((0,), ends), ends)]
        return tuple(map(IterationRecord, count(1), s_values, added))

    _views = {"x": _x_view, "take_all": _take_all_view, "trace": _trace_view}

    def _columns(self) -> tuple[Collection[Label], Collection[float], Iterable[bool] | None]:
        """The result as columns: its labels, x over them in that order, and
        whether each is in V, as a list. A result built from x and take_all
        gives x's keys and values and an iterator of the flags, or None for
        them when take_all holds a label that x does not."""
        attrs = self.__dict__
        if "_xs" in attrs:
            labels = attrs["_labels"]
            on = [False] * len(labels)
            for i in attrs["_v"]:
                on[i] = True
            return labels, attrs["_xs"], on
        x, take_all = self.x, self.take_all
        return x.keys(), x.values(), map(take_all.__contains__, x) if x.keys() >= take_all else None

    def total(self) -> float:
        return math.fsum(self._columns()[1])


def _subset(problem: AllocationProblem, v: Iterable[Label]) -> list[int]:
    # the positions of the labels of V in the problem's columns, ascending
    vset = frozenset(v)
    idx = list(compress(range(problem.size), map(vset.__contains__, problem.labels)))
    if len(idx) != len(vset):
        unknown = vset.difference(problem.labels)
        raise ValueError(f"labels not in problem: {sorted(map(repr, unknown))}")
    return idx


def _s_terms(problem: AllocationProblem, idx: Sequence[int]) -> tuple[list[float], list[float]]:
    """s(V)'s budget and denominator terms, V the strata at positions idx:
    n and -b_w for w in V, and a_w for w off V. ``math.fsum`` rounds each
    list's exact sum once, whatever the order of idx. The denominator lists
    the a off V: the exact sum of every a and a negated copy of a_V, from
    K - |V| terms instead of K + |V|."""
    a, b = problem.columns.lists
    budget = [problem.n]
    free = [True] * len(a)
    for i in idx:
        budget.append(-b[i])
        free[i] = False
    return budget, list(compress(a, free))


def _exact_parts(values: list[float]) -> list[float]:
    """Floats whose exact sum is that of values: the correctly rounded sum,
    then the correctly rounded sum of each remainder, ending at the first
    0.0. Each part is at most half an ulp of the one before, so a few parts
    hold any sum: its rational form is a few Fractions, not one per value."""
    parts = [math.fsum(values)]
    while parts[-1]:
        parts.append(math.fsum([*values, *map(neg, parts)]))
    return parts


def _scale(problem: AllocationProblem, idx: Sequence[int]) -> float:
    # s(V) for V at positions idx, the quotient of the two correctly rounded
    # sums; the denominator, a sum of positive a, is 0 only for V = W: s(W) = 0
    budget, denom = map(math.fsum, _s_terms(problem, idx))
    return budget / denom if denom else 0.0


def s_of(problem: AllocationProblem, v: Iterable[Label]) -> float:
    """Scale factor s(V) = (n - sum_{w in V} b_w) / sum_{w not in V} a_w.

    Conventions: s(emptyset) = n / sum(a), s(W) = 0 for the full set W.
    The value may be negative when V overspends the budget; callers that
    need a feasible allocation must check the sign.
    """
    return _scale(problem, _subset(problem, v))


# The take-all test. With B = n - sum_V b and A = sum_{W\V} a, stratum w
# belongs to the optimal V exactly when a_w * B >= b_w * A, i.e. c_w >= A / B.
# Callers run a float filter first. B and A are each known to a relative
# 2**-44 (sums of floats, exact where subnormal). With r = min(A / B,
# _FLOAT_MAX), c_w >= hi = TAKE_HI * r + TINY or c_w <= lo = TAKE_LO * r - TINY
# decides, at every scale: each rounding of c_w, A / B and the products is off
# by a relative 2**-53 where normal, which the factors' 2**-40 cover, and by at
# most 2**-1075 where subnormal, which TINY (16 least subnormals) covers. The
# cap keeps lo finite where the rounded A / B overflows, as an exact A / B just
# below 2**1024 can with an exact a/b above it. Only a c_w strictly between lo
# and hi goes to :func:`take_all_members`, in rationals. Comparing c_w with a
# quotient, never forming c_w * s, keeps the filter free of overflow.
TAKE_LO = 1.0 - 2.0**-40
TAKE_HI = 1.0 + 2.0**-40
TINY = 2.0**-1070


def _thresholds(B: float, A: float) -> tuple[float, float]:
    """The float filter's thresholds (lo, hi) for s(V) = B / A."""
    ratio = min(A / B, _FLOAT_MAX)
    return TAKE_LO * ratio - TINY, TAKE_HI * ratio + TINY


def take_all_members(problem: AllocationProblem, v_idx: Sequence[int], candidates: Sequence[int]) -> list[bool]:
    """Which candidate strata w have c_w * s(V) >= 1, decided exactly.

    Strata are positions in the problem's columns: ``candidates`` lists the
    strata to decide and ``v_idx`` is the current V. Returns one flag per
    candidate, a_w * B >= b_w * A in rationals, where B and A are each the
    sum of the few floats that :func:`_exact_parts` gives for s(V)'s term
    lists. No float filter runs here: callers hand over only the strata
    that theirs leaves open.
    """
    from fractions import Fraction  # only here: it loads decimal, which no other path needs

    a, b = problem.columns.lists
    budget, denom = (sum(map(Fraction, _exact_parts(terms))) for terms in _s_terms(problem, v_idx))
    return [Fraction(a[i]) * budget >= Fraction(b[i]) * denom for i in candidates]


def _v_result(
    problem: AllocationProblem,
    idx: Sequence[int],
    s: float,
    algorithm: str,
    trace: tuple[Sequence[float], Sequence[int]] | None = None,
) -> AllocationResult:
    """The allocation induced by V, the strata at positions idx, with s =
    s(V) as :func:`_scale` gives it: b_w on V and a_w * s off V. The one
    result builder of the solvers and of :func:`v_allocation`. It keeps x
    as a list in problem order and V as idx, and the trace as two columns
    over idx, in visiting order (see :meth:`AllocationResult._from_columns`);
    without them, one iteration holds s and all of V."""
    if s <= 0 and not (len(idx) == problem.size and problem.is_census):
        raise InfeasibleSubsetError(f"s(V) = {s} is not positive")
    a, b = problem.columns.lists
    x = list(map(mul, a, repeat(s)))
    for i in idx:
        x[i] = b[i]
    s_values, ends = trace or ([s], [len(idx)])
    return AllocationResult._from_columns(problem.labels, x, idx, s, len(s_values), algorithm, (s_values, ends))


def v_allocation(problem: AllocationProblem, v: Iterable[Label]) -> AllocationResult:
    """Allocation induced by a take-all subset V: b_w on V, a_w * s(V) off V.

    Raises :class:`InfeasibleSubsetError` when s(V) <= 0 (V exhausts the
    budget). By construction sum(x) == n up to roundoff and the result is
    feasible whenever the fixed-point condition of :func:`is_optimal_takeall`
    holds for V.
    """
    idx = _subset(problem, v)
    return _v_result(problem, idx, _scale(problem, idx), "v_allocation")


def is_optimal_takeall(problem: AllocationProblem, v: Iterable[Label]) -> bool:
    """Fixed-point test for the optimal take-all set.

    V is optimal iff membership matches the threshold test everywhere:
    w in V exactly when c_w * s(V) >= 1, decided exactly (no tolerance) by
    the float filter and, in its near-tie band, :func:`take_all_members`.
    For the census problem (n == sum(b)) only V = W passes.
    """
    idx = _subset(problem, v)
    if problem.is_census:
        return len(idx) == problem.size
    B, A = map(math.fsum, _s_terms(problem, idx))
    if B <= 0 or not A:  # s(V) <= 0, and the full set at s(W) = 0
        return False
    K = problem.size
    c = list(map(truediv, *problem.columns.lists))
    lo, hi = _thresholds(B, A)
    flags = list(map(lt, repeat(lo), c))  # c_w > lo: in V unless the band's test says no
    if min(compress(c, flags), default=math.inf) < hi:  # the band is not empty
        band = list(compress(range(K), map(and_, flags, map(gt, repeat(hi), c))))
        for i, take in zip(band, take_all_members(problem, idx, band)):
            flags[i] = take
    return list(compress(range(K), flags)) == idx


def objective(problem: AllocationProblem, x: Mapping[Label, float]) -> float:
    """Objective value sum_w a_w**2 / x_w for a full positive allocation."""
    if set(x) != set(problem.labels):
        raise ValueError("allocation labels do not match the problem")
    terms = []
    for label, a in zip(problem.labels, problem.columns.lists[0]):
        xv = x[label]
        if not (xv > 0):
            raise ValueError(f"stratum {label!r}: allocation must be positive, got {xv!r}")
        terms.append(a * a / xv)
    return math.fsum(terms)


def srswor_variance(
    N: Mapping[Label, float],
    S: Mapping[Label, float],
    x: Mapping[Label, float],
) -> float:
    """Design variance of the stratified SRSWOR total under allocation x.

    Computes sum_w (N_w S_w)**2 / x_w - sum_w (N_w S_w)**2 / N_w, each sum
    correctly rounded. Requires 0 < x_w <= N_w, S_w >= 0 and a finite
    (N_w S_w)**2 for every stratum; equals 0 exactly at the census x = N.
    """
    if not (N.keys() == S.keys() == x.keys()):
        raise ValueError("N, S and x must cover the same labels")
    Nv = list(N.values())
    Sv = list(map(S.__getitem__, N))
    xv = list(map(x.__getitem__, N))
    # each check is False on nan
    if not (
        all(map(lt, repeat(0), Nv))
        and all(map(ge, Sv, repeat(0.0)))
        and all(map(lt, repeat(0), xv))
        and all(map(le, xv, Nv))
    ):
        # the first stratum that fails, for the message
        for w, Nw, Sw, xw in zip(N, Nv, Sv, xv):
            if not (Nw > 0):
                raise ValueError(f"stratum {w!r}: N must be positive")
            if not (Sw >= 0):
                raise ValueError(f"stratum {w!r}: S must be nonnegative")
            if not (0 < xw <= Nw):
                raise ValueError(f"stratum {w!r}: need 0 < x <= N, got x={xw!r}, N={Nw!r}")
    try:
        d2 = list(map(pow, map(mul, Nv, Sv), repeat(2)))
        variance = math.fsum(map(truediv, d2, xv)) - math.fsum(map(truediv, d2, Nv))
    except OverflowError:  # a square, or a sum, past the floats
        variance = math.inf
    if not math.isfinite(variance):  # sought only here: the checks above pass an infinite N or S
        for w, Nw, Sw in zip(N, Nv, Sv):
            if not math.isfinite(Nw * Sw * (Nw * Sw)):
                raise ValueError(f"stratum {w!r}: (N*S)**2 must be a finite float, got N={Nw!r}, S={Sw!r}")
    return variance
