"""Declarative SQL-style front end for Q1 and Q2 analytics queries.

The paper notes (Appendix IV) that Q1 and Q2 have a natural SQL surface
syntax in in-DBMS analytics products.  This module implements a small
dialect over the library's data stores so that examples and downstream
users can express analytics queries declaratively:

.. code-block:: sql

    -- Q1: mean-value query over a dNN subspace
    SELECT AVG(u) FROM sensors WITHIN 0.1 OF (0.3, 0.5);

    -- Q2: regression query over a dNN subspace, Manhattan ball
    SELECT REGRESSION(u) FROM sensors WITHIN 0.1 OF (0.3, 0.5) NORM 1;

    -- count of the selected subspace
    SELECT COUNT(*) FROM sensors WITHIN 0.1 OF (0.3, 0.5);

Statements compose into ``;``-separated multi-statement scripts
(:func:`parse_script`), and the optional ``NORM p`` clause selects the Lp
ball geometry of the selection operator (``NORM INF`` for the Chebyshev
norm).  Without the clause, the norm is resolved *per table* at execution
time from the registered model's configuration, so approximate answers are
always produced under the geometry the model was trained with.

A session can run statements in *exact* mode (against the
:class:`~repro.dbms.executor.ExactQueryEngine`), *model* mode (against a
trained :class:`~repro.core.model.LLMModel`; ``"approximate"`` is accepted
as a legacy alias) or *hybrid* mode — answered from the model with a
transparent per-query fallback to the exact engine when the model has no
overlapping prototypes — mirroring the system context of Figure 2 where
the model answers queries after training without touching the data.  The
heavy lifting lives in :class:`~repro.dbms.serving.AnalyticsService`;
:class:`AnalyticsSession` is the thin per-user façade over it.

Where objects are built
-----------------------
:func:`parse_script` scans a whole script with one regular-expression pass
into a :class:`StatementBatch` — kind and table codes plus ``centers``,
``radii`` and ``norms`` arrays, validated with array operations.  No
per-statement object is built while parsing or serving; the batch builds
one :class:`ParsedStatement` per statement on first access, for the
results handed back to the caller.  :func:`parse_statement` and
:meth:`ParsedStatement.to_query` remain the single-statement API.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Literal, Sequence

import numpy as np

from ..exceptions import ConfigurationError, InternalInvariantError, SQLSyntaxError
from ..queries.query import Query

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dbms.executor import ExactQueryEngine
    from .serving import AnalyticsService, StatementResult

__all__ = [
    "KINDS",
    "ParsedStatement",
    "StatementBatch",
    "parse_statement",
    "parse_script",
    "AnalyticsSession",
]

#: Grammar of one statement, shared by the single-statement and the script
#: scanner.  A center may not contain ``;`` (the statement separator).
_STATEMENT_BODY = r"""
    SELECT\s+
    (?P<projection>AVG\(\s*u\s*\)|REGRESSION\(\s*u\s*\)|COUNT\(\s*\*\s*\))
    \s+FROM\s+(?P<table>[A-Za-z_][A-Za-z0-9_]*)
    \s+WITHIN\s+(?P<radius>[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)
    \s+OF\s*\(\s*(?P<center>[^);]*)\s*\)
    (?:\s+NORM\s+(?P<norm>INF(?:INITY)?|[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?))?
"""

_STATEMENT_RE = re.compile(
    rf"^\s*{_STATEMENT_BODY}\s*;?\s*$", re.IGNORECASE | re.VERBOSE
)

#: Every statement of a script in one ``findall``.  A match fills a whole
#: ``;``-separated chunk: it starts at the text start or right after a
#: ``;`` and ends right before the next ``;`` or the text end, so a chunk
#: with anything besides one statement yields no match.
_SCRIPT_RE = re.compile(
    rf"(?:\A|(?<=;))\s*{_STATEMENT_BODY}\s*(?=;|\Z)", re.IGNORECASE | re.VERBOSE
)

#: ``--``-to-end-of-line comments stripped from scripts before parsing.
_COMMENT_RE = re.compile(r"--[^\n]*")

#: Statement kinds in the code order of :attr:`StatementBatch.kinds`.
KINDS: tuple[str, ...] = ("q1", "q2", "count")

#: Kind code by the projection's first letter (``AVG`` / ``REGRESSION`` /
#: ``COUNT``).
_KIND_CODES = {"A": 0, "a": 0, "R": 1, "r": 1, "C": 2, "c": 2}
_FIRST = operator.itemgetter(0)
_COMMAS = operator.methodcaller("count", ",")
#: Row checks mapped over plain float lists (NaN fails the first two).
_POSITIVE = (0.0).__lt__
_FINITE_ABOVE = math.inf.__gt__
_BELOW_ONE = (1.0).__gt__


@dataclass(frozen=True, slots=True)
class ParsedStatement:
    """Structured representation of one analytics statement.

    ``norm_order`` is the Lp order of an explicit ``NORM p`` clause, or
    ``None`` when the statement leaves the geometry to be resolved by the
    session (from the table's registered model, defaulting to Euclidean).
    """

    kind: Literal["q1", "q2", "count"]
    table: str
    center: tuple[float, ...]
    radius: float
    norm_order: float | None = None

    def to_query(self, norm_order: float | None = None) -> Query:
        """Build the library's query object from the parsed statement.

        The resolution precedence is: an explicit ``NORM p`` clause on the
        statement wins; otherwise the caller's per-table default
        (``norm_order`` argument) applies; otherwise the Euclidean norm.
        """
        if self.norm_order is not None:
            order = self.norm_order
        elif norm_order is not None:
            order = float(norm_order)
        else:
            order = 2.0
        return Query(
            center=np.asarray(self.center, dtype=float),
            radius=self.radius,
            norm_order=order,
        )


def parse_statement(sql: str) -> ParsedStatement:
    """Parse one statement of the analytics dialect.

    Raises
    ------
    SQLSyntaxError
        If the statement does not match the dialect grammar or has an
        invalid center/radius/norm (non-finite values included).
    """
    match = _STATEMENT_RE.match(sql)
    if match is None:
        raise SQLSyntaxError(
            "statement does not match 'SELECT AVG(u)|REGRESSION(u)|COUNT(*) "
            f"FROM <table> WITHIN <radius> OF (<center>) [NORM <p>]': {sql!r}"
        )
    projection, table, radius_text, center_text, norm_text = match.groups()
    try:
        center = tuple(map(float, center_text.split(",")))
    except ValueError:
        raise SQLSyntaxError(
            f"invalid center coordinates: {center_text.strip()!r}"
        ) from None
    radius = float(radius_text)
    norm_order = _norm_value(norm_text)
    invalid = _invalid_row(list(center), [len(center)], [radius], [norm_order])
    if invalid is not None:
        raise SQLSyntaxError(invalid[1])
    return ParsedStatement(
        KINDS[_KIND_CODES[projection[0]]],  # type: ignore[arg-type]
        table,
        center,
        radius,
        None if math.isnan(norm_order) else norm_order,
    )


def _norm_value(text: str | None) -> float:
    """The order of a ``NORM`` clause's text; NaN for an absent clause."""
    if not text:
        return math.nan
    return math.inf if text[:3].upper() == "INF" else float(text)


def _invalid_row(
    values: list[float], dims: list[int], radii: list[float], norms: list[float]
) -> tuple[int, str] | None:
    """The first row with an invalid value and what is wrong with it.

    ``values`` are the rows' centers, flat; an absent norm is NaN.
    """
    if (
        all(map(math.isfinite, values))
        and all(dims)
        and all(map(_POSITIVE, radii))
        and all(map(_FINITE_ABOVE, radii))
        and not any(map(_BELOW_ONE, norms))
    ):
        return None
    offset = 0
    for row, (width, radius, norm) in enumerate(zip(dims, radii, norms)):
        center = values[offset : offset + width]
        offset += width
        if not width:
            return row, "the query center cannot be empty"
        if not all(map(math.isfinite, center)):
            return row, f"query center must contain only finite values: {center}"
        if not 0.0 < radius < math.inf:
            return row, f"radius must be positive and finite, got {radius}"
        if norm < 1.0:
            return row, f"NORM order must be >= 1, got {norm}"
    return None


class StatementBatch(Sequence[ParsedStatement]):
    """A script's statements as validated columns — the serving input form.

    For ``m`` statements:

    * ``kinds`` — ``(m,)`` codes into :data:`KINDS`;
    * ``tables`` — ``(m,)`` codes into ``table_names`` (first appearance
      order);
    * ``centers`` — ``(m, d)``; when one script mixes dimensions, a row is
      NaN past its own width ``dims[i]``;
    * ``dims`` — ``(m,)`` center widths;
    * ``radii`` — ``(m,)``;
    * ``norms`` — ``(m,)`` orders of explicit ``NORM p`` clauses, NaN where
      the statement gave none.

    Every value is checked with array operations when the batch is built
    (finite centers, positive finite radii, norm orders >= 1), so invalid
    input fails as :class:`~repro.exceptions.SQLSyntaxError` on the
    caller's thread.  The batch is also a read-only sequence of
    :class:`ParsedStatement`: those objects are built on first access,
    one per statement, and kept — the serving layer touches them only for
    the results it hands back.
    """

    __slots__ = (
        "kinds", "tables", "table_names", "centers", "dims", "radii", "norms",
        "_statements",
    )

    def __init__(
        self,
        kinds: list[int],
        tables: Sequence[str],
        values: list[float],
        dims: list[int],
        radii: list[float],
        norms: list[float],
        statements: tuple[ParsedStatement, ...] | None = None,
    ) -> None:
        """Validate and assemble columns given as plain lists.

        ``values`` are the centers, flat; an absent norm is NaN.  Raises
        :class:`~repro.exceptions.SQLSyntaxError` naming the first row
        :func:`parse_statement` would reject by value.
        """
        count = len(radii)
        invalid = _invalid_row(values, dims, radii, norms)
        if invalid is not None:
            row, reason = invalid
            where = "" if count == 1 else f"statement {row + 1}: "
            what = "" if statements is None else f" ({statements[row]!r})"
            raise SQLSyntaxError(f"{where}{reason}{what}")
        width = max(dims, default=0)
        if min(dims, default=0) == width:
            centers = np.array(values, dtype=float).reshape(count, width)
        else:
            centers = np.full((count, width), np.nan)
            centers[np.arange(width) < np.array(dims)[:, np.newaxis]] = values
        names = {name: code for code, name in enumerate(dict.fromkeys(tables))}
        self.kinds = np.array(kinds, dtype=np.int8)
        self.tables = np.fromiter(map(names.__getitem__, tables), np.intp, count)
        self.table_names = tuple(names)
        self.centers = centers
        self.dims = np.array(dims, dtype=np.intp)
        self.radii = np.array(radii, dtype=float)
        self.norms = np.array(norms, dtype=float)
        self._statements = statements

    @classmethod
    def _scan(cls, matches: list[tuple[str, ...]]) -> "StatementBatch":
        """The batch of the script scanner's matches.

        Raises ``ValueError`` when a center does not parse and
        :class:`~repro.exceptions.SQLSyntaxError` when a value is invalid.
        """
        if not matches:
            return cls.from_statements(())
        projections, tables, radius_text, center_text, norm_text = zip(*matches)
        return cls(
            list(map(_KIND_CODES.__getitem__, map(_FIRST, projections))),
            tables,
            list(map(float, ",".join(center_text).split(","))),
            [commas + 1 for commas in map(_COMMAS, center_text)],
            list(map(float, radius_text)),
            list(map(_norm_value, norm_text)),
        )

    @classmethod
    def from_statements(
        cls, statements: Sequence[ParsedStatement]
    ) -> "StatementBatch":
        """The batch of existing statement objects (kept as its sequence).

        Raises :class:`~repro.exceptions.SQLSyntaxError` for an unknown
        kind or an invalid value.
        """
        statements = tuple(statements)
        try:
            return cls(
                [KINDS.index(s.kind) for s in statements],
                [s.table for s in statements],
                [float(v) for s in statements for v in s.center],
                [len(s.center) for s in statements],
                [float(s.radius) for s in statements],
                [
                    math.nan if s.norm_order is None else float(s.norm_order)
                    for s in statements
                ],
                statements,
            )
        except (TypeError, ValueError) as exc:
            raise SQLSyntaxError(f"malformed statement in batch: {exc}") from exc

    @property
    def statements(self) -> tuple[ParsedStatement, ...]:
        """The statement objects, built on first access."""
        if self._statements is None:
            rows = self.centers.tolist()
            dims = self.dims.tolist()
            if rows and min(dims) != max(dims):
                rows = [row[:width] for row, width in zip(rows, dims)]
            self._statements = tuple(
                map(
                    ParsedStatement,
                    [KINDS[code] for code in self.kinds.tolist()],
                    [self.table_names[code] for code in self.tables.tolist()],
                    map(tuple, rows),
                    self.radii.tolist(),
                    [None if math.isnan(n) else n for n in self.norms.tolist()],
                )
            )
        return self._statements

    def __len__(self) -> int:
        return int(self.radii.shape[0])

    def __getitem__(self, index):  # type: ignore[override]
        return self.statements[index]

    def __iter__(self) -> Iterator[ParsedStatement]:
        return iter(self.statements)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (StatementBatch, list, tuple)):
            return list(self.statements) == list(other)
        return NotImplemented

    def groups(self) -> list[tuple[str, str, list[int]]]:
        """``(table, kind, rows)`` per statement group, in first-appearance order.

        ``rows`` are the group's ascending statement positions.
        """
        keys = (self.tables * len(KINDS) + self.kinds).tolist()
        rows: dict[int, list[int]] = {}
        for position, key in enumerate(keys):
            rows.setdefault(key, []).append(position)
        return [
            (self.table_names[key // len(KINDS)], KINDS[key % len(KINDS)], group)
            for key, group in rows.items()
        ]

    def query_matrix(self, rows: Sequence[int] | np.ndarray) -> np.ndarray:
        """The ``(n, d + 1)`` ``[x, theta]`` matrix of rows of one dimension."""
        dims = self.dims[rows]
        width = int(dims[0]) if dims.size else 0
        if (dims != width).any():
            mixed = rows[int(np.flatnonzero(dims != width)[0])]
            raise SQLSyntaxError(
                f"statements of one group differ in center dimension: "
                f"{self.statements[rows[0]]!r} and {self.statements[mixed]!r}"
            )
        matrix = np.empty((len(rows), width + 1))
        matrix[:, :-1] = self.centers[rows, :width]
        matrix[:, -1] = self.radii[rows]
        return matrix


def parse_script(sql: str) -> StatementBatch:
    """Parse a ``;``-separated multi-statement script into a batch.

    ``--`` comments run to the end of their line; empty statements (e.g.
    produced by a trailing semicolon or blank lines) are skipped.  The
    whole script is scanned with one regular-expression pass; only when a
    statement fails is the script re-parsed statement by statement, to
    raise that statement's :class:`~repro.exceptions.SQLSyntaxError`
    (the one :func:`parse_statement` raises).
    """
    text = _COMMENT_RE.sub("", sql)
    matches = _SCRIPT_RE.findall(text)
    chunks = [chunk for chunk in text.split(";") if chunk.strip()]
    if len(matches) == len(chunks):
        try:
            return StatementBatch._scan(matches)
        except (SQLSyntaxError, ValueError):
            pass
    for chunk in chunks:
        parse_statement(chunk)
    raise InternalInvariantError(
        "the script scanner rejected a script whose every statement parses"
    )


class AnalyticsSession:
    """Execute analytics statements against exact engines and/or trained models.

    The session is a thin façade over
    :class:`~repro.dbms.serving.AnalyticsService` — one registry of
    per-table exact engines and trained models, shared batched execution
    paths, and serving statistics.  Multiple sessions can share one service
    (pass ``service=``), which is how a deployment serves many users from a
    single registry of trained models.  The shared backend may equally be a
    :class:`~repro.dbms.concurrent.ConcurrentAnalyticsService` — the façade
    only relies on the common ``execute`` / ``execute_script`` / registry
    surface, so sessions attach to the coalescing, caching concurrent
    front interchangeably (that is the intended many-users topology: one
    front, one session per user, statements coalescing across them).

    Parameters
    ----------
    engines:
        Mapping of table name to exact engine; used by exact execution and
        as the fallback tier of hybrid execution.
    models:
        Mapping of table name to trained LLM model (``predict_mean_batch``
        / ``predict_q2_batch`` interface); used by model-side execution.
    service:
        An existing :class:`~repro.dbms.serving.AnalyticsService` (or
        :class:`~repro.dbms.concurrent.ConcurrentAnalyticsService`) to
        attach to instead of building a private one (mutually exclusive
        with ``engines`` / ``models``).
    """

    def __init__(
        self,
        engines: "dict[str, ExactQueryEngine] | None" = None,
        models: dict[str, object] | None = None,
        *,
        service: "AnalyticsService | None" = None,
    ) -> None:
        if service is not None and (engines or models):
            raise ConfigurationError(
                "pass either an existing service or engines/models, not both"
            )
        if service is None:
            from .serving import AnalyticsService

            service = AnalyticsService(engines=engines, models=models)
        self._service = service

    @property
    def service(self) -> "AnalyticsService":
        """The underlying serving layer (registry, batch paths, statistics)."""
        return self._service

    def register_engine(self, table: str, engine: "ExactQueryEngine") -> None:
        """Attach an exact engine under a table name."""
        self._service.register_engine(table, engine)

    def register_model(self, table: str, model: object) -> None:
        """Attach a trained approximate model under a table name."""
        self._service.register_model(table, model)

    @property
    def tables(self) -> list[str]:
        """All table names known to the session."""
        return self._service.tables

    @staticmethod
    def _resolve_mode(mode: str) -> str:
        # "approximate" is the seed-era name for model-side execution.
        if mode == "approximate":
            return "model"
        if mode in ("exact", "model", "hybrid"):
            return mode
        raise SQLSyntaxError(f"unknown execution mode {mode!r}")

    def execute(
        self,
        sql: str,
        *,
        mode: Literal["exact", "approximate", "model", "hybrid"] = "exact",
    ):
        """Parse and run one statement.

        Returns
        -------
        float | int | list
            * Q1 returns the (exact or predicted) mean value,
            * Q2 returns a list of ``(intercept, slope)`` pairs — a single
              pair in exact mode (REG over the subspace), possibly several
              in model mode (the local linear models),
            * COUNT returns the subspace cardinality (served exactly).

        Raises
        ------
        EmptySubspaceError
            When an exact Q1/Q2 answer is undefined because the subspace
            selected no rows (including a hybrid fallback landing on an
            empty subspace).
        """
        return self._service.execute(sql, mode=self._resolve_mode(mode))

    def execute_script(
        self,
        script: str | Sequence[str],
        *,
        mode: Literal["exact", "approximate", "model", "hybrid"] = "exact",
        on_error: Literal["attach", "raise"] = "attach",
    ) -> "list[StatementResult]":
        """Run a multi-statement script through the batched serving layer.

        Statements are grouped by table and kind and answered through the
        batch engines; see
        :meth:`~repro.dbms.serving.AnalyticsService.execute_script`.  Both
        session entry points default to ``"exact"`` (the seed front end's
        contract); the service's own entry points default to ``"hybrid"``,
        the serving-native mode.  ``on_error`` controls runtime fault
        containment: ``"attach"`` (default) turns one group's engine/model
        failure into per-statement ``source="error"`` results while the
        rest of the script keeps serving; ``"raise"`` propagates the first
        group failure.
        """
        return self._service.execute_script(
            script, mode=self._resolve_mode(mode), on_error=on_error
        )
