"""Alternatives, comparison matrices, edits, and their CSV files.

A comparison matrix stores one signed value per compared (unordered) pair of
alternatives, in three arrays ``(i, j, r)``: alternative indices with
``i < j`` and the value oriented from ``i`` to ``j``, sorted by the pair key
``i * A + j`` (A alternatives) with no key repeated. Querying the opposite
orientation negates, so antisymmetry holds by construction and cannot
drift. A build validates whole arrays at once (ids, self pairs, finiteness,
duplicates, support). Matrices are immutable: the arrays are read-only and
edits return new matrices.
"""

from __future__ import annotations

import csv
import enum
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import EditError, InputError, MismatchError, ParameterError, SupportError
from .rootlaws import RootLaw

__all__ = [
    "AlternativeSet",
    "ComparisonMatrix",
    "ComparisonEdit",
    "EditKind",
    "read_comparisons_csv",
    "write_comparisons_csv",
    "read_scores_csv",
    "write_scores_csv",
]


@dataclass(frozen=True)
class AlternativeSet:
    """Ordered collection of unique alternative ids with a dense index."""

    ids: tuple[str, ...]

    def __post_init__(self):
        if len(self.ids) < 1:
            raise ParameterError("an alternative set needs at least one id")
        if len(set(self.ids)) != len(self.ids):
            dupes = sorted(i for i, n in Counter(self.ids).items() if n > 1)
            raise ParameterError(f"duplicate alternative ids: {dupes[:5]}")
        object.__setattr__(self, "ids", tuple(str(i) for i in self.ids))

    @classmethod
    def from_ids(cls, ids: Iterable[str]) -> "AlternativeSet":
        return cls(tuple(str(i) for i in ids))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {a: i for i, a in enumerate(self.ids)}

    def index_of(self, a: str) -> int:
        try:
            return self._index[a]
        except KeyError:
            raise MismatchError(f"unknown alternative id {a!r}") from None

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids)

    def __contains__(self, a) -> bool:
        return a in self._index


class EditKind(enum.Enum):
    ADD = "add"
    REMOVE = "remove"
    CHANGE = "change"


@dataclass(frozen=True)
class ComparisonEdit:
    """One elementary modification: add, remove, or change a single pair.

    ``pair`` is (a, b) by id; ``new_value`` is the value of the comparison
    oriented from a to b (required for ADD and CHANGE, forbidden for REMOVE).
    """

    kind: EditKind
    pair: tuple[str, str]
    new_value: float | None = None

    def __post_init__(self):
        if self.kind == EditKind.REMOVE:
            if self.new_value is not None:
                raise EditError("remove edits carry no value")
        elif self.new_value is None:
            raise EditError(f"{self.kind.value} edits require a value")


class ComparisonMatrix:
    """Antisymmetric sparse map from unordered pairs to comparison values.

    Storage is ``index_arrays = (i, j, r)``: int64 indices with ``i < j``,
    float64 values oriented from i to j, sorted by ``i * A + j``, unique,
    and read-only (``writeable=False``).

    Entries come either as ``entries`` (``(a, b, value)`` triples, by id)
    or as ``indices = (i, j, r)``: arrays
    of alternative indices and values oriented from i to j, in any order and
    orientation. Either way they are checked in input order, and the first
    faulty entry raises: an unknown id or index (MismatchError), a self pair
    or non-finite value (InputError), a pair already given
    (InputError) or, when ``law`` is attached, a value outside the law's
    support closure (SupportError). Edits are validated against the law too.

    ``rows`` gives each entry's source line, as the CSV reader does: errors
    then name the row.
    """

    def __init__(self, alternatives: AlternativeSet,
                 entries: Iterable[tuple[str, str, float]] = (),
                 law: RootLaw | None = None, *,
                 indices: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
                 rows: Sequence[int] | None = None):
        self.alternatives = alternatives
        self.law = law
        n_alts = len(alternatives)
        if indices is None:
            given = list(entries)
            index = alternatives._index
            i = np.fromiter((index.get(t[0], -1) for t in given), np.int64, len(given))
            j = np.fromiter((index.get(t[1], -1) for t in given), np.int64, len(given))
            r = np.fromiter((float(v) for _, _, v in given), np.float64, len(given))
        else:
            if entries != ():
                raise ParameterError("give either entries or indices, not both")
            i, j, r = (np.asarray(x, dtype=t).ravel()
                       for x, t in zip(indices, (np.int64, np.int64, np.float64)))
            if not i.size == j.size == r.size:
                raise ParameterError(
                    f"index arrays differ in length: {i.size}, {j.size}, {r.size}")
            given = None

        lo, hi = np.minimum(i, j), np.maximum(i, j)
        keys = lo * n_alts + hi
        order = np.argsort(keys, kind="stable")
        repeat = np.zeros(keys.size, dtype=bool)
        repeat[order[1:]] = keys[order[1:]] == keys[order[:-1]]
        checks = [("unknown", (lo < 0) | (hi >= n_alts)), ("self", i == j),
                  ("nonfinite", ~np.isfinite(r)), ("duplicate", repeat)]
        if law is not None:
            checks.append(("support", ~law.contains(r)))
        faulty = np.logical_or.reduce([mask for _, mask in checks])
        if faulty.any():
            k = int(np.argmax(faulty))
            kind = next(name for name, mask in checks if mask[k])
            raise self._fault(kind, k, i, j, r, keys, given, rows)

        self._set(lo[order], hi[order], np.where(i < j, r, -r)[order])

    def _fault(self, kind, k, i, j, r, keys, given, rows):
        """The error for entry k, naming the ids (or indices) it was given with."""
        if given is not None:
            a, b = given[k][0], given[k][1]
            if kind == "unknown":
                return MismatchError(
                    f"unknown alternative id {(b if a in self.alternatives else a)!r}")
        else:
            a, b = int(i[k]), int(j[k])
            if kind == "unknown":
                bad = b if 0 <= a < len(self.alternatives) else a
                return MismatchError(f"alternative index {bad} out of range")
            a, b = self.alternatives.ids[a], self.alternatives.ids[b]
        row = None if rows is None else int(rows[k])
        pair = f"pair ({a!r}, {b!r})"
        if kind == "self":
            return InputError(f"self comparison for {a!r}", row=row)
        if kind == "nonfinite":
            return InputError(f"non-finite comparison value for {pair}", row=row)
        if kind == "duplicate":
            first = np.argmax(keys == keys[k])
            where = "" if rows is None else f", first on row {int(rows[first])}"
            return InputError(f"duplicate comparison for {pair}{where}", row=row)
        return SupportError(f"value {float(r[k])!r} for {pair} outside the support "
                            f"of model {self.law.spec_string!r}", row=row)

    def _set(self, i: np.ndarray, j: np.ndarray, r: np.ndarray) -> None:
        """Store canonical sorted arrays; callers guarantee the invariants."""
        keys = i * len(self.alternatives) + j
        for arr in (i, j, r, keys):
            arr.flags.writeable = False
        self.index_arrays = (i, j, r)
        self._keys = keys

    def _locate(self, a: str, b: str) -> tuple[int, bool, bool]:
        """Sorted position of pair (a, b), whether it is stored there, and
        whether a comes first in canonical orientation."""
        ia, ib = self.alternatives.index_of(a), self.alternatives.index_of(b)
        key = min(ia, ib) * len(self.alternatives) + max(ia, ib)
        pos = int(np.searchsorted(self._keys, key))
        return pos, pos < self._keys.size and int(self._keys[pos]) == key, ia < ib

    # ------------------------------------------------------------------ queries

    @property
    def num_pairs(self) -> int:
        return int(self._keys.size)

    def has_pair(self, a: str, b: str) -> bool:
        return a != b and self._locate(a, b)[1]

    def value(self, a: str, b: str) -> float:
        """Comparison value oriented from a to b; negates the stored one if needed."""
        pos, found, forward = self._locate(a, b)
        if a == b:
            raise MismatchError(f"no self comparison for {a!r}")
        if not found:
            raise MismatchError(f"pair ({a!r}, {b!r}) not compared")
        stored = float(self.index_arrays[2][pos])
        return stored if forward else -stored

    def iter_entries(self) -> Iterator[tuple[str, str, float]]:
        ids = self.alternatives.ids
        i, j, r = self.index_arrays
        for a, b, v in zip(i.tolist(), j.tolist(), r.tolist()):
            yield ids[a], ids[b], v

    @cached_property
    def degrees(self) -> np.ndarray:
        i, j, _ = self.index_arrays
        n_alts = len(self.alternatives)
        return np.bincount(i, minlength=n_alts) + np.bincount(j, minlength=n_alts)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ComparisonMatrix)
                and self.alternatives == other.alternatives
                and np.array_equal(self._keys, other._keys)
                and np.array_equal(self.index_arrays[2], other.index_arrays[2]))

    def __hash__(self):
        # + 0.0 maps -0.0 to 0.0, which __eq__ treats as equal
        return hash((self.alternatives, self._keys.tobytes(),
                     (self.index_arrays[2] + 0.0).tobytes()))

    def __repr__(self):
        return (f"ComparisonMatrix(A={len(self.alternatives)}, "
                f"pairs={self.num_pairs})")

    # ------------------------------------------------------------------ edits

    def with_entries(self, entries) -> "ComparisonMatrix":
        return ComparisonMatrix(self.alternatives, entries, law=self.law)

    def apply_edit(self, edit: ComparisonEdit) -> "ComparisonMatrix":
        """Return a new matrix one elementary modification away.

        Only the edited entry is validated; the result is spliced from this
        matrix's arrays at the pair's sorted position.
        """
        a, b = edit.pair
        pos, present, forward = self._locate(a, b)
        if a == b:
            raise InputError(f"self comparison for {a!r}")
        value = 0.0 if edit.new_value is None else float(edit.new_value)
        if not np.isfinite(value):
            raise InputError(f"non-finite comparison value for pair ({a!r}, {b!r})")
        v = value if forward else -value
        if edit.kind == EditKind.ADD:
            if present:
                raise EditError(f"pair ({a!r}, {b!r}) already compared")
            return self._splice(pos, v, tuple(sorted(map(self.alternatives.index_of, (a, b)))))
        if not present:
            raise EditError(f"pair ({a!r}, {b!r}) not compared")
        return self._splice(pos, None if edit.kind == EditKind.REMOVE else v)

    def _splice(self, pos: int, value: float | None = None,
                pair: tuple[int, int] | None = None) -> "ComparisonMatrix":
        """A new matrix with sorted position ``pos`` removed (no value), its value
        replaced (no pair), or ``pair = (i, j)``, i < j, inserted there; the caller
        keeps the keys sorted. ``value`` is oriented from i to j: an unchanged one
        raises EditError, one outside the attached law's support SupportError."""
        if value is not None:
            self._check_value(pos, value, pair)
        i, j, r = self.index_arrays
        if value is None:
            i, j, r = (np.delete(x, pos) for x in (i, j, r))
        elif pair is None:
            r = r.copy()
            r[pos] = value
        else:
            i, j, r = (np.insert(x, pos, y) for x, y in zip((i, j, r), (*pair, value)))
        out = ComparisonMatrix.__new__(ComparisonMatrix)
        out.alternatives = self.alternatives
        out.law = self.law
        out._set(i, j, r)
        return out

    def _check_value(self, pos: int, value: float,
                     pair: tuple[int, int] | None = None) -> None:
        """The checks of a spliced ``value`` at sorted position ``pos`` (inserted
        as ``pair`` when given): EditError if it leaves the stored value
        unchanged, SupportError if it lies outside the attached law's support."""
        i, j, r = self.index_arrays
        a, b = (self.alternatives.ids[k] for k in (pair or (i[pos], j[pos])))
        if pair is None and r[pos] == value:
            raise EditError(f"change edit must alter the value of ({a!r}, {b!r})")
        if self.law is not None and not self.law.contains(value):
            raise SupportError(f"value {value!r} for pair ({a!r}, {b!r}) outside the "
                               f"support of model {self.law.spec_string!r}")

    def edit_distance(self, other: "ComparisonMatrix") -> int:
        """Number of elementary modifications separating the two matrices:
        pairs present on one side only, plus shared pairs whose values differ."""
        if self.alternatives != other.alternatives:
            raise MismatchError("edit distance requires a common alternative set")
        _, mine, theirs = np.intersect1d(self._keys, other._keys,
                                         assume_unique=True, return_indices=True)
        changed = np.count_nonzero(self.index_arrays[2][mine] != other.index_arrays[2][theirs])
        return self.num_pairs + other.num_pairs - 2 * mine.size + int(changed)


# ---------------------------------------------------------------------- CSV

_COMPARISON_HEADER = ["a", "b", "r"]
_SCORE_HEADER = ["a", "theta"]


def _csv_rows(path, header: list[str]) -> Iterator[tuple[int, list[str]]]:
    """(row number, fields) of a UTF-8 CSV after its checked header.

    Rows are numbered from 1 at the header; blank lines are skipped. Bytes
    that are not UTF-8 and errors of the csv module (such as a field over
    its size limit) raise InputError.
    """
    reader = None
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            head = next(reader, None)
            if head is None or [h.strip().lower() for h in head] != header:
                raise InputError(f"expected header {','.join(header)!r}, got {head!r}", row=1)
            for lineno, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != len(header):
                    raise InputError(f"expected {len(header)} fields, got {len(row)}", row=lineno)
                yield lineno, row
    except UnicodeDecodeError as exc:
        raise InputError(f"not UTF-8 text: {exc.reason}", row=_undecodable_row(path)) from None
    except csv.Error as exc:
        raise InputError(f"malformed CSV: {exc}",
                         row=None if reader is None else reader.line_num) from None


def _undecodable_row(path) -> int | None:
    """Line of a file's first byte that is not UTF-8.

    Decoding runs a buffer ahead of the csv reader, so the reader's own
    line count does not locate the byte.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1
    return None


def read_comparisons_csv(path, law: RootLaw | None = None) -> ComparisonMatrix:
    """Read a ``a,b,r`` CSV into a matrix over the sorted set of ids seen.

    Errors carry 1-based row numbers (the header is row 1). Duplicate
    unordered pairs are an error, not an aggregation.
    """
    lines: list[int] = []
    first: list[str] = []
    second: list[str] = []
    values: list[float] = []
    for lineno, (a, b, raw) in _csv_rows(path, _COMPARISON_HEADER):
        a, b, raw = a.strip(), b.strip(), raw.strip()
        if not a or not b:
            raise InputError("empty alternative id", row=lineno)
        if a == b:
            raise InputError(f"self comparison for {a!r}", row=lineno)
        try:
            values.append(float(raw))
        except ValueError:
            raise InputError(f"bad comparison value {raw!r}", row=lineno) from None
        lines.append(lineno)
        first.append(a)
        second.append(b)
    if not values:
        raise InputError("no comparison rows")
    alts = AlternativeSet.from_ids(sorted(set(first).union(second)))
    index = alts._index
    n = len(values)
    i = np.fromiter(map(index.__getitem__, first), np.int64, n)
    j = np.fromiter(map(index.__getitem__, second), np.int64, n)
    return ComparisonMatrix(alts, law=law, indices=(i, j, np.array(values)), rows=lines)


def _write_csv(path, header: list[str], rows: Iterable[Sequence]) -> None:
    """Write a UTF-8 CSV: the header, then the rows.

    Callers give floats as ``repr`` strings, so values read back exactly.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_comparisons_csv(matrix: ComparisonMatrix, path) -> None:
    """Write canonical-orientation rows sorted by (a, b) ids."""
    rows = sorted(matrix.iter_entries(), key=lambda t: (t[0], t[1]))
    _write_csv(path, _COMPARISON_HEADER, ((a, b, repr(v)) for a, b, v in rows))


def read_scores_csv(path):
    """Read an ``a,theta`` CSV of finite scores and unique ids; returns
    (AlternativeSet, values ndarray). A malformed row precedes a duplicate id."""
    rows: list[tuple[int, str, float]] = []
    for lineno, (a, raw) in _csv_rows(path, _SCORE_HEADER):
        a, raw = a.strip(), raw.strip()
        if not a:
            raise InputError("empty alternative id", row=lineno)
        try:
            value = float(raw)
        except ValueError:
            raise InputError(f"bad score value {raw!r}", row=lineno) from None
        if not np.isfinite(value):
            raise InputError(f"non-finite score value {raw!r}", row=lineno)
        rows.append((lineno, a, value))
    if not rows:
        raise InputError("no score rows")
    first: dict[str, int] = {}
    for line, a, _ in rows:
        if first.setdefault(a, line) != line:
            raise InputError(f"duplicate alternative id {a!r}, first on row {first[a]}", row=line)
    alts = AlternativeSet.from_ids([a for _, a, _ in rows])
    return alts, np.array([v for _, _, v in rows], dtype=float)


def write_scores_csv(alternatives: AlternativeSet, values, path) -> None:
    """Write ``a,theta`` rows sorted by id."""
    values = np.asarray(values, dtype=float)
    order = sorted(range(len(alternatives)), key=lambda i: alternatives.ids[i])
    _write_csv(path, _SCORE_HEADER,
               ((alternatives.ids[i], repr(float(values[i]))) for i in order))
