"""Property-based tests for the incrementally folded histories.

The central invariant: maintaining a fold incrementally (insert the newest
bit, drop the bit leaving the window) always equals recomputing the fold
from the full history — for any history length, fold width and outcome
sequence.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.bits import fold_bits, mask
from repro.core.config import TAGEConfig
from repro.core.tage import TAGEPredictor
from repro.histories.folded import FoldedHistory
from repro.histories.global_history import GlobalHistoryRegister


def _drive(fold: FoldedHistory, history: GlobalHistoryRegister, outcomes) -> None:
    """Feed outcomes through the fold exactly the way a predictor does."""
    for taken in outcomes:
        dropped = history.bit(fold.history_length - 1) if len(history) else 0
        fold.update(1 if taken else 0, dropped)
        history.push(taken)


class TestFoldedHistory:
    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1, max_value=14),
        st.lists(st.booleans(), max_size=400),
    )
    @settings(max_examples=60, deadline=None)
    def test_incremental_matches_recompute(self, history_length, width, outcomes):
        fold = FoldedHistory(history_length, width)
        history = GlobalHistoryRegister(capacity=max(256, history_length + 8))
        _drive(fold, history, outcomes)
        assert fold.value == fold.recompute(history)

    def test_fold_value_stays_in_width(self):
        fold = FoldedHistory(64, 10)
        history = GlobalHistoryRegister(capacity=128)
        _drive(fold, history, [True] * 200)
        assert 0 <= fold.value < 1 << 10

    def test_all_zero_history_folds_to_zero(self):
        fold = FoldedHistory(32, 8)
        history = GlobalHistoryRegister(capacity=64)
        _drive(fold, history, [False] * 100)
        assert fold.value == 0

    def test_checkpoint_restore(self):
        fold = FoldedHistory(20, 7)
        history = GlobalHistoryRegister(capacity=64)
        _drive(fold, history, [True, False, True, True])
        snapshot = fold.checkpoint()
        _drive(fold, history, [False, False])
        fold.restore(snapshot)
        assert fold.value == snapshot

    def test_old_bits_leave_the_window(self):
        """After pushing `history_length` zeros, earlier ones must not linger."""
        fold = FoldedHistory(8, 4)
        history = GlobalHistoryRegister(capacity=64)
        _drive(fold, history, [True] * 10)
        _drive(fold, history, [False] * 8)
        assert fold.value == 0


def _path_term(predictor: TAGEPredictor, table: int) -> int:
    """The path-history term of ``table``'s index, computed from scratch."""
    config = predictor.config
    width = config.table_log2_entries[table]
    path_length = min(config.history_lengths[table], config.path_history_bits)
    term = fold_bits(predictor.path_history.value & mask(path_length), path_length, width)
    rotation = table % width
    return ((term << rotation) | (term >> (width - rotation))) & mask(width)


def _drive_tage(config: TAGEConfig, branches) -> None:
    """Run ``branches`` through a TAGE predictor, checking its folds after each."""
    predictor = TAGEPredictor(config)
    for pc, taken in branches:
        info = predictor.predict(pc)
        predictor.update_history(pc, taken, info)
        predictor.update(pc, taken, info)
        for table in range(predictor.num_tables):
            length = config.history_lengths[table]
            tag_width = config.tag_widths[table]
            index_width = config.table_log2_entries[table]
            assert predictor._index_fold[table] == FoldedHistory(length, index_width).recompute(
                predictor.history
            ) ^ _path_term(predictor, table)
            for registers, width in (
                (predictor._tag_fold_1, tag_width),
                (predictor._tag_fold_2, tag_width - 1),
            ):
                assert registers[table] == FoldedHistory(length, width).recompute(
                    predictor.history
                )


class TestTAGEFoldRegisters:
    """TAGE runs the fold update inline over three plain int lists per
    predictor (index fold, tag fold 1, tag fold 2, one entry per table).
    After every branch each tag fold must equal the reference fold of the
    predictor's own global history at that table's length and width, and
    each index fold that reference fold XOR the table's path-history term.
    Odd PCs keep the path history live.
    """

    @given(
        st.lists(st.tuples(st.integers(0, 0xFFFF), st.booleans()), max_size=120),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=20, max_value=140),
        st.integers(min_value=3, max_value=9),
        st.integers(min_value=4, max_value=9),
    )
    @settings(max_examples=30, deadline=None)
    def test_inline_folds_match_recompute(
        self, branches, min_history, max_history, base_log2_entries, min_tag_width
    ):
        config = TAGEConfig.generate(
            num_tagged_tables=5,
            min_history=min_history,
            max_history=max_history,
            base_log2_entries=base_log2_entries,
            bimodal_log2_entries=6,
            min_tag_width=min_tag_width,
        )
        _drive_tage(config, branches)

    def test_folds_wider_than_the_step_tables(self):
        """17- to 18-bit tag folds step arithmetically, not by table lookup."""
        config = TAGEConfig.generate(
            num_tagged_tables=5,
            min_history=3,
            max_history=90,
            base_log2_entries=8,
            bimodal_log2_entries=6,
            min_tag_width=14,
            max_tag_width=24,
        )
        assert max(config.tag_widths) > 16
        rng = random.Random(5)
        _drive_tage(config, [(rng.randrange(1 << 16), rng.random() < 0.6) for _ in range(300)])
