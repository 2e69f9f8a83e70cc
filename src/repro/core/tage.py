"""The TAGE conditional branch predictor (Seznec & Michaud, 2006).

TAGE — TAgged GEometric history length — is the paper's main predictor
(Section 3).  A bimodal base table provides a default prediction; M
partially-tagged tables, indexed with geometrically increasing global
history lengths, provide the prediction of the *provider* component (the
hitting table with the longest history).  A handful of mechanisms around
this core account for most of its accuracy:

* the *alternate prediction* and the ``USE_ALT_ON_NA`` counter, which fall
  back to the next matching component when the provider entry is still
  weak (Section 3.1),
* allocation of up to ``max_allocations`` new entries on non-consecutive
  tables after a misprediction (Section 3.2.1),
* a single *useful* bit per entry protecting it from replacement, with a
  global reset driven by an 8-bit allocation success/failure monitor
  (Section 3.2.2).

The implementation exposes everything the rest of the paper needs: the
fetch-time prediction snapshot (for delayed-update scenarios [B]/[C]), the
provider entry identity (for the Immediate Update Mimicker) and the
provider counter value (for the Statistical Corrector).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from operator import getitem, lshift, xor
from typing import Sequence

import numpy as np

from repro.common.counters import SaturatingCounter
from repro.common.storage import StorageReport
from repro.core.config import TAGEConfig, make_reference_tage_config
from repro.histories.global_history import GlobalHistoryRegister, PathHistory
from repro.predictors.base import PredictionInfo, Predictor, UpdateStats
from repro.predictors.bimodal import BimodalPrediction, BimodalPredictor

__all__ = ["TAGEPrediction", "TAGEPredictor", "make_reference_tage"]


@dataclass
class TAGEPrediction(PredictionInfo):
    """Snapshot of one TAGE prediction.

    Besides the final direction, the snapshot records everything the
    retire-time update and the side predictors need:

    * the provider component and entry (``provider_table`` is 0 when the
      bimodal base provides, 1..M for tagged tables),
    * the alternate prediction,
    * the per-table indices, tags and useful bits computed at fetch time,
      so scenarios [B]/[C] can update and allocate without re-reading,
    * the base (bimodal) read.
    """

    tage_taken: bool = False
    provider_table: int = 0
    provider_index: int = 0
    provider_ctr: int = 0
    provider_taken: bool = False
    weak_provider: bool = False
    alt_table: int = 0
    alt_index: int = 0
    alt_taken: bool = False
    base_index: int = 0
    base_hysteresis_index: int = 0
    base_counter: int = 0
    indices: tuple[int, ...] = ()
    tags: tuple[int, ...] = ()
    useful_snapshot: tuple[int, ...] = ()

    def provider_entry(self) -> tuple[int, int]:
        """Identity of the entry that provided the prediction.

        Returns ``(table, index)`` where ``table`` is 0 for the bimodal
        base and 1..M for tagged tables.  This is the key the Immediate
        Update Mimicker associates with in-flight branches.
        """
        if self.provider_table > 0:
            return self.provider_table, self.provider_index
        return 0, self.base_index

    def provider_centered(self) -> int:
        """Centered counter value of the hitting component, ``2*ctr + 1``.

        The Statistical Corrector (Section 5.3) weighs the TAGE prediction
        by this value; for a bimodal provider the 2-bit counter is centered
        around its midpoint.
        """
        if self.provider_table > 0:
            return 2 * self.provider_ctr + 1
        return 2 * (self.base_counter - 2) + 1


#: Widest fold register stepped through a lookup table (2 bytes per
#: entry, two tables of ``2**width`` entries per width); wider registers
#: step arithmetically.
_FOLD_TABLE_MAX_WIDTH = 16


class _WideFoldStep:
    """Arithmetic stand-in for a fold-step table too large to build."""

    __slots__ = ("_top", "_mask", "_inserted")

    def __init__(self, width: int, inserted: int) -> None:
        self._top = width - 1
        self._mask = (1 << width) - 1
        self._inserted = inserted

    def __getitem__(self, value: int) -> int:
        return (((value << 1) & self._mask) | (value >> self._top)) ^ self._inserted


@lru_cache(maxsize=None)
def _fold_step_tables(width: int) -> tuple[Sequence[int], Sequence[int]]:
    """Rotate-left-by-one of every ``width``-bit fold value, then insert 0 / 1.

    ``_fold_step_tables(w)[bit][v]`` is the register ``v`` after one history
    step with outcome ``bit``, before the outgoing-bit correction.
    """
    if width > _FOLD_TABLE_MAX_WIDTH:
        return _WideFoldStep(width, 0), _WideFoldStep(width, 1)
    values = np.arange(1 << width, dtype=np.uint16)
    rotated = (values << 1) & np.uint16((1 << width) - 1) | (values >> (width - 1))
    return array("H", rotated.tobytes()), array("H", (rotated ^ 1).tobytes())


class TAGEPredictor(Predictor):
    """The TAGE predictor proper.

    Parameters
    ----------
    config:
        Predictor dimensioning; defaults to the paper's reference 64 KB
        configuration (:func:`repro.core.config.make_reference_tage_config`).

    The per-branch hot path is written flat: the table geometry is
    precomputed once, the three folded-history registers of every tagged
    table (the index fold and the two tag folds, see
    :class:`~repro.histories.folded.FoldedHistory` for the update rule)
    live in three plain int lists advanced inline by
    :meth:`update_history` (the index register also carries the table's
    path-history term), and :meth:`_keys` computes every table's index
    and tag in one pass from those registers and per-PC terms.
    """

    #: Bound on the memo of per-PC index and tag terms (cleared when full).
    _PC_MEMO_ENTRIES = 4096

    def __init__(self, config: TAGEConfig | None = None) -> None:
        self.config = config or make_reference_tage_config()
        cfg = self.config
        self.name = f"tage-{cfg.num_components}comp-{cfg.storage_kbits:.0f}Kbits"
        self.num_tables = cfg.num_tagged_tables

        self.base = BimodalPredictor(
            entries=1 << cfg.bimodal_log2_entries,
            hysteresis_sharing=cfg.bimodal_hysteresis_sharing,
        )
        self._ctr_lo = -(1 << (cfg.counter_bits - 1))
        self._ctr_hi = (1 << (cfg.counter_bits - 1)) - 1
        self._u_max = (1 << cfg.useful_bits) - 1
        sizes = [1 << width for width in cfg.table_log2_entries]
        self._ctr: list[list[int]] = [[0] * size for size in sizes]
        self._tags: list[list[int]] = [[0] * size for size in sizes]
        self._useful: list[list[int]] = [[0] * size for size in sizes]

        self.history = GlobalHistoryRegister(capacity=max(64, cfg.max_history + 8))
        self.path_history = PathHistory(width=cfg.path_history_bits)

        # Fold registers: an index fold and two tag folds per table.  One
        # step of a w-bit register over L history bits rotates it left by
        # one, XORs in the new outcome at bit 0 and, when the outcome
        # leaving the window is set, XORs bit ``L % w``.  The rotate-and-
        # insert part is a lookup in a per-width table shared by every
        # predictor (see _fold_step_tables).
        lengths = cfg.history_lengths
        index_widths = cfg.table_log2_entries
        tag_widths = cfg.tag_widths
        fold_widths = [
            (index_width, tag_width, max(1, tag_width - 1))
            for index_width, tag_width in zip(index_widths, tag_widths)
        ]
        self._drop_ages = [length - 1 for length in lengths]
        self._fold_steps = [
            [tuple(_fold_step_tables(width)[bit] for width in widths) for widths in fold_widths]
            for bit in (0, 1)
        ]
        self._fold_outpoints = [
            tuple(1 << (length % width) for width in widths)
            for length, widths in zip(lengths, fold_widths)
        ]
        self._tag_fold_1 = [0] * self.num_tables
        self._tag_fold_2 = [0] * self.num_tables
        # The index register of a table also carries its path-history
        # term: the fold of the newest ``P = min(L, path bits)`` path bits
        # to the index width, rotated left by ``table % width``.  That term
        # steps like any fold (the rotation commutes with the step), so it
        # shares the register; a path step XORs the new path bit in at the
        # rotation and the path bit leaving the window at ``(P + rotation)
        # % width``.  With every path bit 0 both corrections vanish.
        self._index_fold = [0] * self.num_tables
        self._path_steps = []
        for table, (length, width) in enumerate(zip(lengths, index_widths)):
            path_length = min(length, cfg.path_history_bits)
            rotation = table % width
            self._path_steps.append(
                (1 << rotation, path_length - 1, 1 << (path_length % width + rotation) % width)
            )
        self._index_widths = index_widths
        self._tag_masks = [(1 << width) - 1 for width in tag_widths]
        self._pc_memo: dict[int, tuple[list[int], list[int]]] = {}
        self._longest_first = range(self.num_tables - 1, -1, -1)

        #: Optional bank selector modelling the 4-way interleaved
        #: single-ported organisation of Section 4.3.  When set, the low
        #: index bits of every tagged table are replaced by the bank chosen
        #: by the selection rule, so a branch can map to up to four
        #: distinct entries depending on its neighbours — the source of the
        #: small accuracy loss the paper measures.
        self.bank_selector = None

        #: USE_ALT_ON_NA — positive means "trust the alternate prediction
        #: when the provider entry is weak" (Section 3.1).
        self.use_alt_on_na = SaturatingCounter(bits=cfg.use_alt_on_na_bits, signed=True, value=0)
        #: Allocation success/failure monitor; saturation triggers the
        #: global reset of every useful bit (Section 3.2.2).
        self.allocation_tick = SaturatingCounter(
            bits=cfg.allocation_tick_bits, signed=False, value=0
        )
        self.useful_resets = 0

    # -- index and tag computation -------------------------------------------

    def _pc_terms(self, pc: int) -> tuple[list[int], list[int]]:
        """The PC terms of every table's index and tag, memoised per PC."""
        pc_low = pc >> 2
        terms = (
            [
                (pc_low ^ (pc >> (2 + width)) ^ (pc >> (2 + 2 * width))) & ((1 << width) - 1)
                for width in self._index_widths
            ],
            [pc_low & tag_mask for tag_mask in self._tag_masks],
        )
        if len(self._pc_memo) >= self._PC_MEMO_ENTRIES:
            self._pc_memo.clear()
        self._pc_memo[pc] = terms
        return terms

    def _keys(self, pc: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Index and partial tag of ``pc`` in every tagged table, right now.

        Every term is already within its table's width (the folds by
        construction, the PC terms masked), so the XORs need no final mask.
        """
        index_terms, tag_terms = self._pc_memo.get(pc) or self._pc_terms(pc)
        indices = tuple(map(xor, index_terms, self._index_fold))
        selector = self.bank_selector
        if selector is not None:
            bank = selector.select(pc)
            keep = ~(selector.num_banks - 1)
            indices = tuple(
                (index & keep) | bank if width >= 2 else index
                for index, width in zip(indices, self._index_widths)
            )
        tag_history = map(xor, self._tag_fold_1, map(lshift, self._tag_fold_2, repeat(1)))
        tags = tuple(map(xor, tag_terms, tag_history))
        return indices, tags

    # -- Predictor interface -------------------------------------------------

    def predict(self, pc: int) -> TAGEPrediction:
        base_info = self.base.predict(pc)
        indices, tags = self._keys(pc)
        useful = tuple(map(getitem, self._useful, indices))

        # Provider: the hitting table with the longest history; alternate:
        # the next hitting table below it.
        provider = alternate = -1
        tag_tables = self._tags
        for table in self._longest_first:
            if tag_tables[table][indices[table]] == tags[table]:
                if provider < 0:
                    provider = table
                else:
                    alternate = table
                    break

        provider_table = 0
        provider_index = 0
        provider_ctr = 0
        provider_taken = base_info.taken
        weak_provider = False
        alt_table = 0
        alt_index = 0
        alt_taken = base_info.taken
        taken = base_info.taken

        if provider >= 0:
            provider_table = provider + 1
            provider_index = indices[provider]
            provider_ctr = self._ctr[provider][provider_index]
            provider_taken = provider_ctr >= 0
            weak_provider = provider_ctr == -1 or provider_ctr == 0
            if alternate >= 0:
                alt_table = alternate + 1
                alt_index = indices[alternate]
                alt_taken = self._ctr[alternate][alt_index] >= 0
            if weak_provider and self.use_alt_on_na.value >= 0:
                taken = alt_taken
            else:
                taken = provider_taken

        return TAGEPrediction(
            taken=taken,
            tage_taken=taken,
            provider_table=provider_table,
            provider_index=provider_index,
            provider_ctr=provider_ctr,
            provider_taken=provider_taken,
            weak_provider=weak_provider,
            alt_table=alt_table,
            alt_index=alt_index,
            alt_taken=alt_taken,
            base_index=base_info.index,
            base_hysteresis_index=base_info.hysteresis_index,
            base_counter=base_info.counter,
            indices=indices,
            tags=tags,
            useful_snapshot=useful,
        )

    def update_history(self, pc: int, taken: bool, info: PredictionInfo) -> None:
        bit = 1 if taken else 0
        index_fold = self._index_fold
        tag_fold_1 = self._tag_fold_1
        tag_fold_2 = self._tag_fold_2
        dropped = self.history.bits(self._drop_ages)
        for table, (step, step_1, step_2) in enumerate(self._fold_steps[bit]):
            if dropped[table]:
                out, out_1, out_2 = self._fold_outpoints[table]
                index_fold[table] = step[index_fold[table]] ^ out
                tag_fold_1[table] = step_1[tag_fold_1[table]] ^ out_1
                tag_fold_2[table] = step_2[tag_fold_2[table]] ^ out_2
            else:
                index_fold[table] = step[index_fold[table]]
                tag_fold_1[table] = step_1[tag_fold_1[table]]
                tag_fold_2[table] = step_2[tag_fold_2[table]]
        path = self.path_history.value
        pc_bit = pc & 1
        if path or pc_bit:
            for table, (insert, out_age, outpoint) in enumerate(self._path_steps):
                if pc_bit:
                    index_fold[table] ^= insert
                if path >> out_age & 1:
                    index_fold[table] ^= outpoint
        self.history.push(taken)
        self.path_history.push(pc)
        if self.bank_selector is not None:
            # The predicted branch becomes one of the "two previous
            # predictions" the bank-selection rule must avoid.
            self.bank_selector.advance(pc)

    def update(
        self, pc: int, taken: bool, info: PredictionInfo, reread: bool = True
    ) -> UpdateStats:
        if not isinstance(info, TAGEPrediction):
            raise TypeError("TAGE update needs the TAGEPrediction returned by predict()")
        stats = UpdateStats()
        mispredicted = info.tage_taken != taken
        provider = info.provider_table  # 0 = bimodal base

        # USE_ALT_ON_NA bookkeeping: learn whether the alternate prediction
        # beats a weak ("newly allocated") provider entry.
        if provider > 0 and info.weak_provider and info.provider_taken != info.alt_taken:
            self.use_alt_on_na.update(info.alt_taken == taken)

        if provider > 0:
            self._update_provider(info, taken, reread, stats)
        else:
            base_snapshot = BimodalPrediction(
                taken=info.base_counter >= 2,
                index=info.base_index,
                hysteresis_index=info.base_hysteresis_index,
                counter=info.base_counter,
            )
            stats.merge(self.base.update(pc, taken, base_snapshot, reread=reread))

        if mispredicted and provider < self.num_tables:
            self._allocate(info, taken, reread, stats)
        return stats

    # -- update helpers -------------------------------------------------------

    def _update_provider(
        self, info: TAGEPrediction, taken: bool, reread: bool, stats: UpdateStats
    ) -> None:
        """Update the provider entry's prediction counter and useful bit."""
        table = info.provider_table - 1
        index = info.provider_index
        counters = self._ctr[table]
        if reread:
            ctr = counters[index]
            stats.entry_reads += 1
        else:
            ctr = info.provider_ctr
        new_ctr = min(ctr + 1, self._ctr_hi) if taken else max(ctr - 1, self._ctr_lo)
        if new_ctr != counters[index]:
            counters[index] = new_ctr
            stats.entry_writes += 1
            stats.tables_written += 1

        # The useful bit is set when the provider was correct while the
        # alternate prediction was wrong (Section 3.2.2).
        if info.provider_taken != info.alt_taken and info.provider_taken == taken:
            if self._useful[table][index] != self._u_max:
                self._useful[table][index] = self._u_max
                stats.entry_writes += 1

    def _allocate(
        self, info: TAGEPrediction, taken: bool, reread: bool, stats: UpdateStats
    ) -> None:
        """Allocate up to ``max_allocations`` entries on non-consecutive tables."""
        cfg = self.config
        allocated = 0
        table = info.provider_table  # first candidate table (0-based == provider 1-based)
        while table < self.num_tables and allocated < cfg.max_allocations:
            index = info.indices[table]
            if reread:
                useful = self._useful[table][index]
                stats.entry_reads += 1
            else:
                useful = info.useful_snapshot[table]
            if useful == 0:
                self._tags[table][index] = info.tags[table]
                self._ctr[table][index] = 0 if taken else -1
                self._useful[table][index] = 0
                stats.entry_writes += 1
                stats.tables_written += 1
                stats.allocations += 1
                allocated += 1
                self.allocation_tick.decrement()
                table += 2  # non-consecutive tables (Section 3.2.1)
            else:
                self.allocation_tick.increment()
                table += 1

        if self.allocation_tick.value == self.allocation_tick.hi:
            self._reset_useful_bits()
            self.allocation_tick.set(0)

    def _reset_useful_bits(self) -> None:
        """Global reset of every useful bit (allocation-failure saturation)."""
        for useful in self._useful:
            useful[:] = [0] * len(useful)
        self.useful_resets += 1

    # -- reporting ------------------------------------------------------------

    def storage_report(self) -> StorageReport:
        cfg = self.config
        report = StorageReport(self.name)
        report.extend(self.base.storage_report(), prefix="bimodal ")
        for table in range(self.num_tables):
            entries = 1 << cfg.table_log2_entries[table]
            report.add(
                f"T{table + 1} entries (L={cfg.history_lengths[table]})",
                entries,
                cfg.entry_bits(table),
            )
        report.add("USE_ALT_ON_NA", 1, cfg.use_alt_on_na_bits)
        report.add("allocation tick counter", 1, cfg.allocation_tick_bits)
        report.add("path history", 1, cfg.path_history_bits)
        return report


def make_reference_tage() -> TAGEPredictor:
    """Build the paper's reference ~512 Kbit / 64 KByte-class TAGE predictor."""
    return TAGEPredictor(make_reference_tage_config())
