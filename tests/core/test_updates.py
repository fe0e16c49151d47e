"""The update algebra: construction, diffing, application."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Update, UpdateBatch, apply_updates, diff_answers


class TestUpdate:
    def test_signs(self):
        assert Update.positive(1, 2).is_positive
        assert not Update.negative(1, 2).is_positive

    def test_invalid_sign_rejected(self):
        with pytest.raises(ValueError):
            Update(1, 2, 0)

    def test_paper_notation(self):
        assert str(Update.positive(1, 5)) == "(Q1, +p5)"
        assert str(Update.negative(2, 7)) == "(Q2, -p7)"


class TestDiff:
    def test_identical_sets_produce_nothing(self):
        assert diff_answers(1, {1, 2}, {1, 2}) == []

    def test_pure_additions(self):
        updates = diff_answers(1, set(), {3, 1, 2})
        assert updates == [
            Update.positive(1, 1),
            Update.positive(1, 2),
            Update.positive(1, 3),
        ]

    def test_pure_removals(self):
        updates = diff_answers(1, {3, 1}, set())
        assert updates == [Update.negative(1, 1), Update.negative(1, 3)]

    def test_negatives_precede_positives(self):
        updates = diff_answers(9, {1}, {2})
        assert updates == [Update.negative(9, 1), Update.positive(9, 2)]


class TestApply:
    def test_round_trip(self):
        old, new = {1, 2, 3}, {2, 4}
        assert apply_updates(old, diff_answers(7, old, new)) == new

    def test_apply_does_not_mutate_input(self):
        answer = {1, 2}
        apply_updates(answer, [Update.negative(1, 1)])
        assert answer == {1, 2}

    def test_redundant_updates_are_idempotent(self):
        answer = apply_updates({1}, [Update.positive(9, 1), Update.negative(9, 5)])
        assert answer == {1}

    def test_order_matters_for_conflicts(self):
        ups = [Update.negative(1, 5), Update.positive(1, 5)]
        assert apply_updates({5}, ups) == {5}
        assert apply_updates({5}, list(reversed(ups))) == set()


updates_strategy = st.lists(
    st.builds(
        Update,
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=50),
        st.sampled_from([1, -1]),
    ),
    max_size=60,
)


class TestUpdateBatch:
    def test_push_materialises_lazily(self):
        batch = UpdateBatch()
        batch.push(1, 5, 1)
        batch.push(2, 7, -1)
        assert len(batch) == 2
        assert list(batch) == [Update.positive(1, 5), Update.negative(2, 7)]
        assert batch[1] == Update.negative(2, 7)
        assert batch[0:1] == [Update.positive(1, 5)]

    def test_equals_update_list(self):
        batch = UpdateBatch.from_updates([Update.positive(3, 9)])
        assert batch == [Update.positive(3, 9)]
        assert [Update.positive(3, 9)] == batch
        assert batch != [Update.negative(3, 9)]
        assert UpdateBatch() == []

    def test_extend_columns_splices_slices(self):
        batch = UpdateBatch()
        batch.extend_columns([1, 2], [10, 20], [1, -1])
        assert batch.to_list() == [
            Update.positive(1, 10),
            Update.negative(2, 20),
        ]

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError):
            UpdateBatch([1], [2, 3], [1])

    @given(updates_strategy)
    @settings(max_examples=200, deadline=None)
    def test_round_trip_is_identity(self, updates):
        """batch → materialized Update list → batch is the identity."""
        batch = UpdateBatch.from_updates(updates)
        materialized = batch.to_list()
        assert materialized == updates
        rebuilt = UpdateBatch.from_updates(materialized)
        assert rebuilt == batch
        assert rebuilt.qids == batch.qids
        assert rebuilt.oids == batch.oids
        assert rebuilt.signs == batch.signs

    @given(updates_strategy)
    @settings(max_examples=200, deadline=None)
    def test_fifo_order_preserved_per_qid(self, updates):
        batch = UpdateBatch.from_updates(updates)
        for qid in {u.qid for u in updates}:
            assert [u for u in batch if u.qid == qid] == [
                u for u in updates if u.qid == qid
            ]

    @given(updates_strategy, st.sets(st.integers(0, 50)))
    @settings(max_examples=200, deadline=None)
    def test_apply_updates_batch_matches_list(self, updates, answer):
        batch = UpdateBatch.from_updates(updates)
        assert apply_updates(answer, batch) == apply_updates(answer, updates)

    def test_diff_answers_into_batch(self):
        into = UpdateBatch()
        out = diff_answers(9, {1, 3}, {2, 3}, into=into)
        assert out is into
        assert into == [Update.negative(9, 1), Update.positive(9, 2)]
        # Appends after existing content, preserving FIFO.
        diff_answers(4, set(), {7}, into=into)
        assert into[-1] == Update.positive(4, 7)
