"""Comparison matrices: antisymmetry, edits, CSV I/O."""

import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gbtscore import (AlternativeSet, ComparisonEdit, ComparisonMatrix,
                      EditKind, Family, GbtError, InputError, MismatchError,
                      ParameterError, RootLaw, SupportError, EditError,
                      read_comparisons_csv, read_scores_csv,
                      write_comparisons_csv, write_scores_csv)

ABC = AlternativeSet.from_ids(["a", "b", "c", "d"])


def matrix(entries, law=None, alts=ABC):
    return ComparisonMatrix(alts, entries, law=law)


class TestAlternativeSet:
    def test_index_round_trip(self):
        assert ABC.index_of("c") == 2
        assert "c" in ABC and "z" not in ABC
        assert list(ABC) == ["a", "b", "c", "d"]

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ParameterError):
            AlternativeSet.from_ids(["x", "x"])
        with pytest.raises(ParameterError):
            AlternativeSet.from_ids([])

    def test_duplicate_ids_are_counted_in_one_pass(self):
        # one duplicate among 50k ids: a count per id took tens of seconds
        ids = [f"a{k}" for k in range(50_000)] + ["a7"]
        start = time.perf_counter()
        with pytest.raises(ParameterError, match=re.escape("duplicate alternative ids: ['a7']")):
            AlternativeSet.from_ids(ids)
        assert time.perf_counter() - start < 2.0

    def test_unknown_id(self):
        with pytest.raises(MismatchError):
            ABC.index_of("nope")


class TestMatrixBasics:
    def test_antisymmetric_query(self):
        m = matrix([("a", "b", 0.5)])
        assert m.value("a", "b") == 0.5
        assert m.value("b", "a") == -0.5

    def test_complete_graph_degrees(self):
        ids = [f"x{i}" for i in range(6)]
        alts = AlternativeSet.from_ids(ids)
        entries = [(ids[i], ids[j], 0.1) for i in range(6) for j in range(i + 1, 6)]
        m = ComparisonMatrix(alts, entries)
        assert m.degrees.tolist() == [5] * 6
        assert m.num_pairs == 15

    def test_duplicate_pair_rejected(self):
        with pytest.raises(InputError):
            matrix([("a", "b", 0.5), ("b", "a", -0.5)])

    def test_self_pair_rejected(self):
        with pytest.raises(InputError):
            matrix([("a", "a", 0.5)])

    def test_support_validation_with_law(self):
        matrix([("a", "b", 1.0)], law=RootLaw.uniform())
        with pytest.raises(SupportError):
            matrix([("a", "b", 1.5)], law=RootLaw.uniform())
        with pytest.raises(SupportError):
            matrix([("a", "b", 0.5)], law=RootLaw.poisson(1.0))
        matrix([("a", "b", -2.0)], law=RootLaw.poisson(1.0))

    def test_missing_pair_query(self):
        m = matrix([("a", "b", 0.5)])
        with pytest.raises(MismatchError):
            m.value("a", "c")


class TestEdits:
    def test_add_remove_change(self):
        m = matrix([("a", "b", 0.3)])
        added = m.apply_edit(ComparisonEdit(EditKind.ADD, ("c", "d"), 0.1))
        assert added.num_pairs == 2 and m.edit_distance(added) == 1
        removed = m.apply_edit(ComparisonEdit(EditKind.REMOVE, ("b", "a")))
        assert removed.num_pairs == 0 and m.edit_distance(removed) == 1
        changed = m.apply_edit(ComparisonEdit(EditKind.CHANGE, ("a", "b"), -0.2))
        assert changed.value("a", "b") == -0.2 and m.edit_distance(changed) == 1

    def test_edit_preconditions(self):
        m = matrix([("a", "b", 0.3)])
        with pytest.raises(EditError):
            m.apply_edit(ComparisonEdit(EditKind.ADD, ("a", "b"), 0.1))
        with pytest.raises(EditError):
            m.apply_edit(ComparisonEdit(EditKind.REMOVE, ("c", "d")))
        with pytest.raises(EditError):
            m.apply_edit(ComparisonEdit(EditKind.CHANGE, ("a", "b"), 0.3))  # no-op
        with pytest.raises(EditError):
            ComparisonEdit(EditKind.REMOVE, ("a", "b"), 0.5)
        with pytest.raises(EditError):
            ComparisonEdit(EditKind.ADD, ("a", "b"))

    def test_oriented_change(self):
        m = matrix([("a", "b", 0.3)])
        flipped = m.apply_edit(ComparisonEdit(EditKind.CHANGE, ("b", "a"), 0.4))
        assert flipped.value("a", "b") == -0.4

    def test_inverse_edit_restores_exactly(self):
        m = matrix([("a", "b", 0.3), ("b", "c", -0.7)])
        e = ComparisonEdit(EditKind.CHANGE, ("a", "b"), 0.9)
        back = m.apply_edit(e).apply_edit(ComparisonEdit(EditKind.CHANGE, ("a", "b"), 0.3))
        assert back == m
        gone = m.apply_edit(ComparisonEdit(EditKind.REMOVE, ("a", "b")))
        restored = gone.apply_edit(ComparisonEdit(EditKind.ADD, ("a", "b"), 0.3))
        assert restored == m

    def test_edit_respects_law(self):
        m = matrix([("a", "b", 0.3)], law=RootLaw.uniform())
        with pytest.raises(SupportError):
            m.apply_edit(ComparisonEdit(EditKind.CHANGE, ("a", "b"), 2.0))

    def test_immutability(self):
        m = matrix([("a", "b", 0.3)])
        m.apply_edit(ComparisonEdit(EditKind.ADD, ("c", "d"), 0.1))
        assert m.num_pairs == 1


class TestEditDistance:
    def test_identical_is_zero(self):
        m = matrix([("a", "b", 0.3)])
        assert m.edit_distance(m) == 0

    def test_one_changed_entry(self):
        m = matrix([("a", "b", 0.3), ("c", "d", 0.1)])
        m2 = matrix([("a", "b", 0.4), ("c", "d", 0.1)])
        assert m.edit_distance(m2) == 1

    def test_disjoint_domains(self):
        m = matrix([("a", "b", 0.3)])
        m2 = matrix([("c", "d", 0.1)])
        assert m.edit_distance(m2) == 2

    def test_requires_same_alternatives(self):
        other = ComparisonMatrix(AlternativeSet.from_ids(["a", "b"]), [("a", "b", 0.1)])
        with pytest.raises(MismatchError):
            matrix([("a", "b", 0.1)]).edit_distance(other)


@st.composite
def random_matrix(draw):
    pair_pool = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
    chosen = draw(st.lists(st.sampled_from(range(6)), unique=True, max_size=6))
    values = draw(st.lists(st.integers(-3, 3), min_size=len(chosen), max_size=len(chosen)))
    return matrix([(pair_pool[k][0], pair_pool[k][1], v / 3.0)
                   for k, v in zip(chosen, values)])


class TestEditDistanceMetric:
    @given(random_matrix(), random_matrix())
    @settings(max_examples=150, deadline=None)
    def test_symmetry_and_identity(self, m1, m2):
        assert m1.edit_distance(m2) == m2.edit_distance(m1)
        assert (m1.edit_distance(m2) == 0) == (m1 == m2)

    @given(random_matrix(), random_matrix(), random_matrix())
    @settings(max_examples=150, deadline=None)
    def test_triangle_inequality(self, m1, m2, m3):
        assert m1.edit_distance(m3) <= m1.edit_distance(m2) + m2.edit_distance(m3)

    @given(random_matrix())
    @settings(max_examples=80, deadline=None)
    def test_single_edit_distance_one(self, m):
        if m.num_pairs:
            a, b, v = next(m.iter_entries())
            new = v + 1.0
            assert m.edit_distance(
                m.apply_edit(ComparisonEdit(EditKind.CHANGE, (a, b), new))) == 1


class TestCsv:
    def test_round_trip(self, tmp_path):
        m = matrix([("a", "b", 0.5), ("b", "c", -0.25), ("a", "d", 1.0)])
        path = tmp_path / "comparisons.csv"
        write_comparisons_csv(m, path)
        again = read_comparisons_csv(path)
        assert again == m

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,z\n1,2,3\n")
        with pytest.raises(InputError) as err:
            read_comparisons_csv(path)
        assert err.value.row == 1

    def test_duplicate_rows_name_the_row(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("a,b,r\nx,y,0.5\nz,w,0.25\ny,x,-0.5\n")
        with pytest.raises(InputError) as err:
            read_comparisons_csv(path)
        assert err.value.row == 4
        assert "row 2" in str(err.value)

    def test_bad_value_names_the_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,r\nx,y,zero\n")
        with pytest.raises(InputError) as err:
            read_comparisons_csv(path)
        assert err.value.row == 2

    def test_out_of_support_names_the_row(self, tmp_path):
        path = tmp_path / "oos.csv"
        path.write_text("a,b,r\nx,y,0.5\nx,z,1.25\n")
        with pytest.raises(SupportError) as err:
            read_comparisons_csv(path, law=RootLaw.uniform())
        assert err.value.row == 3

    def test_rows_sorted_and_canonical(self, tmp_path):
        m = matrix([("d", "a", 0.5), ("c", "b", 0.25)])
        path = tmp_path / "sorted.csv"
        write_comparisons_csv(m, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "a,b,r"
        assert [l.split(",")[:2] for l in lines[1:]] == [["a", "d"], ["b", "c"]]
        assert float(lines[1].split(",")[2]) == -0.5

    def test_scores_round_trip(self, tmp_path):
        path = tmp_path / "scores.csv"
        write_scores_csv(ABC, np.array([0.25, -0.5, 0.125, 0.125]), path)
        alts, values = read_scores_csv(path)
        assert alts == ABC
        assert np.array_equal(values, [0.25, -0.5, 0.125, 0.125])

    def test_scores_duplicate_id_names_both_rows(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("a,theta\nu,0.5\nv,0.1\nu,0.2\n")
        with pytest.raises(InputError, match="duplicate alternative id 'u', first on row 2") as err:
            read_scores_csv(path)
        assert err.value.row == 4
        # a malformed row anywhere is still reported before the duplicate
        path.write_text("a,theta\nu,0.5\nu,0.2\nw,abc\n")
        with pytest.raises(InputError, match="bad score value") as err:
            read_scores_csv(path)
        assert err.value.row == 4

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,b,r\n")
        with pytest.raises(InputError):
            read_comparisons_csv(path)


# ---------------------------------------------------------------- dict reference
#
# The per-entry dict store that the array store replaced, kept as an oracle:
# canonicalize and validate one entry at a time, in input order.

def reference_contains(law, r):
    if not np.isfinite(r):
        return False
    if law.is_bounded:
        return abs(r) <= 1.0
    if law.family == Family.POISSON:
        return abs(r - round(r)) <= 1e-9
    return True


def reference_build(alts, entries, law):
    """Canonical {(i, j): r} of the entries, or the first entry's error."""
    store = {}
    for a, b, value in entries:
        value = float(value)
        ia, ib = alts.index_of(a), alts.index_of(b)
        if ia == ib:
            raise InputError(f"self comparison for {a!r}")
        if not np.isfinite(value):
            raise InputError("non-finite comparison value")
        key, v = ((ia, ib), value) if ia < ib else ((ib, ia), -value)
        if key in store:
            raise InputError("duplicate comparison")
        if law is not None and not (reference_contains(law, v) and reference_contains(law, -v)):
            raise SupportError("outside the support")
        store[key] = v
    return dict(sorted(store.items()))


def reference_arrays(store):
    keys = list(store)
    return (np.array([k[0] for k in keys], dtype=np.int64),
            np.array([k[1] for k in keys], dtype=np.int64),
            np.array(list(store.values()), dtype=np.float64))


def reference_edit_distance(mine, theirs):
    return (sum(1 for k in mine if k not in theirs) + sum(1 for k in theirs if k not in mine)
            + sum(1 for k, v in mine.items() if k in theirs and theirs[k] != v))


def outcome(fn):
    try:
        return fn()
    except GbtError as exc:
        return type(exc)


def same_arrays(got, want):
    return all(g.dtype == w.dtype and g.tobytes() == w.tobytes() for g, w in zip(got, want))


LAWS = (None, RootLaw.knary(5), RootLaw.uniform(), RootLaw.poisson(1.5), RootLaw.gaussian(1.0))


def value_in_support(law):
    if law is None or law.family == Family.GAUSSIAN:
        return st.floats(-5.0, 5.0)
    if law.family == Family.KNARY:
        return st.sampled_from(law.support_points().tolist())
    if law.family == Family.POISSON:
        return st.integers(-4, 4).map(float)
    return st.floats(-1.0, 1.0)


FAULTS = ("unknown", "self", "nonfinite", "duplicate", "support")


@st.composite
def build_case(draw):
    """(alternatives, entries, law): shuffled, partly flipped, maybe with faults."""
    n = draw(st.integers(2, 6))
    ids = [f"id{k}" for k in draw(st.permutations(range(n)))]
    alts = AlternativeSet.from_ids(ids)
    law = draw(st.sampled_from(LAWS))
    values = value_in_support(law)
    pool = [(x, y) for x in range(n) for y in range(x + 1, n)]
    entries = []
    for x, y in draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool))):
        v = draw(values)
        entries.append((ids[y], ids[x], -v) if draw(st.booleans()) else (ids[x], ids[y], v))
    for fault in draw(st.lists(st.sampled_from(FAULTS), max_size=2)):
        a, b = draw(st.sampled_from(pool))
        a, b = ids[a], ids[b]
        if fault == "unknown":
            bad = (a, "nobody", 0.0) if draw(st.booleans()) else ("nobody", b, 0.0)
        elif fault == "self":
            bad = (a, a, 0.0)
        elif fault == "nonfinite":
            bad = (a, b, draw(st.sampled_from([math.nan, math.inf, -math.inf])))
        elif fault == "duplicate" and entries:
            x, y, v = draw(st.sampled_from(entries))
            bad = (y, x, draw(values)) if draw(st.booleans()) else (x, y, v)
        elif fault == "support" and law is not None and law.family != Family.GAUSSIAN:
            outside = st.just(0.5) if law.family == Family.POISSON else st.sampled_from([1.5, -2.0])
            bad = (a, b, draw(outside))
        else:
            continue
        entries.insert(draw(st.integers(0, len(entries))), bad)
    return alts, entries, law


class TestAgainstDictReference:
    @given(build_case())
    @settings(max_examples=400, deadline=None)
    def test_build_matches_reference(self, case):
        alts, entries, law = case
        want = outcome(lambda: reference_arrays(reference_build(alts, entries, law)))
        got = outcome(lambda: ComparisonMatrix(alts, entries, law=law).index_arrays)
        if isinstance(want, type):
            assert got is want
        else:
            assert not isinstance(got, type) and same_arrays(got, want)

    @given(build_case())
    @settings(max_examples=200, deadline=None)
    def test_index_path_matches_reference(self, case):
        alts, triples, law = case
        # an unknown id becomes an out-of-range index
        index = {a: alts.index_of(a) for a in alts}
        i, j = ([index.get(t[k], len(alts)) for t in triples] for k in (0, 1))
        r = [v for _, _, v in triples]
        want = outcome(lambda: reference_arrays(reference_build(alts, triples, law)))
        got = outcome(lambda: ComparisonMatrix(alts, law=law, indices=(i, j, r)).index_arrays)
        if isinstance(want, type):
            assert got is want
        else:
            assert not isinstance(got, type) and same_arrays(got, want)

    @given(build_case(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_edit_chains_match_reference(self, case, data):
        alts, entries, law = case
        try:
            start = ComparisonMatrix(alts, entries, law=law)
        except GbtError:
            return
        store = reference_build(alts, entries, law)
        n = len(alts)
        values = value_in_support(law)
        change_only = data.draw(st.booleans())
        ordered_pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
        current, ref = start, dict(store)
        for _ in range(data.draw(st.integers(1, 6))):
            x, y = data.draw(st.sampled_from(ordered_pairs))
            key = (min(x, y), max(x, y))
            v = data.draw(values)
            stored = v if x < y else -v
            if key not in ref:
                if change_only:
                    continue
                edit = ComparisonEdit(EditKind.ADD, (alts.ids[x], alts.ids[y]), v)
                ref[key] = stored
            elif not change_only and data.draw(st.booleans()):
                edit = ComparisonEdit(EditKind.REMOVE, (alts.ids[x], alts.ids[y]))
                del ref[key]
            elif ref[key] != stored:
                edit = ComparisonEdit(EditKind.CHANGE, (alts.ids[x], alts.ids[y]), v)
                ref[key] = stored
            else:
                continue
            current = current.apply_edit(edit)
            ref = dict(sorted(ref.items()))
            assert same_arrays(current.index_arrays, reference_arrays(ref))
        assert start.edit_distance(current) == reference_edit_distance(store, ref)
        assert current.edit_distance(start) == reference_edit_distance(ref, store)

    def test_equal_matrices_hash_alike(self):
        # a flipped zero is stored as -0.0, which equals 0.0
        m = matrix([("b", "a", 0.0)])
        m2 = matrix([("a", "b", 0.0)])
        assert m == m2 and hash(m) == hash(m2)

    def test_index_arrays_are_read_only(self):
        m = matrix([("a", "b", 0.5), ("c", "d", 0.25)])
        for arr in m.index_arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
        edited = m.apply_edit(ComparisonEdit(EditKind.CHANGE, ("a", "b"), 0.75))
        assert m.value("a", "b") == 0.5 and edited.value("a", "b") == 0.75
        assert not any(arr.flags.writeable for arr in edited.index_arrays)


class TestCsvErrorPrecedence:
    def test_earlier_support_fault_wins_over_later_duplicate(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("a,b,r\nx,y,0.5\nx,z,1.5\ny,z,0.25\ny,x,0.5\n")
        with pytest.raises(SupportError) as err:
            read_comparisons_csv(path, law=RootLaw.uniform())
        assert err.value.row == 3

    def test_earlier_duplicate_wins_over_later_support_fault(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("a,b,r\nx,y,0.5\ny,x,0.5\ny,z,0.25\nx,z,1.5\n")
        with pytest.raises(InputError) as err:
            read_comparisons_csv(path, law=RootLaw.uniform())
        assert err.value.row == 3 and "row 2" in str(err.value)

    def test_triple_pair_names_second_occurrence(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("a,b,r\nx,y,0.5\nz,w,0.1\ny,x,0.5\nx,y,0.5\n")
        with pytest.raises(InputError) as err:
            read_comparisons_csv(path)
        assert err.value.row == 4 and "row 2" in str(err.value)

    def test_non_finite_is_an_input_error_in_row_order(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("a,b,r\nx,y,nan\nz,w,0.1\n")
        with pytest.raises(InputError) as err:
            read_comparisons_csv(path)
        assert err.value.row == 2 and "non-finite" in str(err.value)
        # the first faulty row is reported, whatever fault a later row has
        path.write_text("a,b,r\nx,y,nan\nz,w,0.1\nw,z,0.1\n")
        with pytest.raises(InputError) as err:
            read_comparisons_csv(path)
        assert err.value.row == 2 and "non-finite" in str(err.value)
        path.write_text("a,b,r\nz,w,0.1\nw,z,0.1\nx,y,-inf\n")
        with pytest.raises(InputError) as err:
            read_comparisons_csv(path)
        assert err.value.row == 3 and "duplicate" in str(err.value)

    def test_non_finite_with_law_is_not_a_support_fault(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("a,b,r\nx,y,0.5\nz,w,inf\nw,x,nan\n")
        for law in (RootLaw.gaussian(1.0), RootLaw.knary(3)):
            with pytest.raises(InputError) as err:
                read_comparisons_csv(path, law=law)
            assert err.value.row == 3 and "non-finite" in str(err.value)

    @pytest.mark.parametrize("reader,header", [(read_comparisons_csv, b"a,b,r\nx,y,0.5\n"),
                                               (read_scores_csv, b"a,theta\nx,0.5\n")])
    def test_decoding_and_csv_errors_are_input_errors(self, tmp_path, reader, header):
        path = tmp_path / "c.csv"
        path.write_bytes(header + b"\xff\xfe,z,0.1\n")
        with pytest.raises(InputError) as err:
            reader(path)
        assert err.value.row == 3
        path.write_bytes(header + b"q" * 131073 + b",z\n")
        with pytest.raises(InputError) as err:
            reader(path)
        assert err.value.row == 3


class TestValidationIsWholeArray:
    """Support checks run once per build, however many pairs there are."""

    @staticmethod
    def count_contains(monkeypatch):
        calls = []
        original = RootLaw.contains

        def counted(self, r):
            calls.append(np.size(r))
            return original(self, r)

        monkeypatch.setattr(RootLaw, "contains", counted)
        return calls

    @staticmethod
    def complete_graph(n):
        ids = [f"v{k:03d}" for k in range(n)]
        i, j = np.triu_indices(n, 1)
        r = np.linspace(-1.0, 1.0, i.size)
        return AlternativeSet.from_ids(ids), i, j, r

    @pytest.mark.parametrize("n", [15, 201])  # 105 and 20100 pairs
    def test_build_from_arrays(self, monkeypatch, n):
        alts, i, j, r = self.complete_graph(n)
        calls = self.count_contains(monkeypatch)
        m = ComparisonMatrix(alts, law=RootLaw.uniform(), indices=(j, i, -r))
        assert m.num_pairs == i.size
        assert len(calls) == 1

    @pytest.mark.parametrize("n", [15, 201])
    def test_build_from_csv(self, tmp_path, monkeypatch, n):
        alts, i, j, r = self.complete_graph(n)
        write_comparisons_csv(ComparisonMatrix(alts, indices=(i, j, r)), tmp_path / "c.csv")
        calls = self.count_contains(monkeypatch)
        m = read_comparisons_csv(tmp_path / "c.csv", law=RootLaw.uniform())
        assert m.num_pairs == i.size
        assert len(calls) == 1
