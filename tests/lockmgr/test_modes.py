"""Unit tests for lock modes, compatibility and the conversion lattice."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.lockmgr.modes import (
    LockMode,
    compatible,
    covers,
    escalation_target_mode,
    intent_mode_for_row,
    supremum,
)

MODES = list(LockMode)
mode_st = st.sampled_from(MODES)

#: The classic multi-granularity compatibility matrix (with DB2's U).
EXPECTED_COMPATIBLE = {
    ("IS", "IS"), ("IS", "IX"), ("IS", "S"), ("IS", "SIX"), ("IS", "U"),
    ("IX", "IS"), ("IX", "IX"),
    ("S", "IS"), ("S", "S"), ("S", "U"),
    ("SIX", "IS"),
    ("U", "IS"), ("U", "S"),
}


class TestCompatibility:
    @pytest.mark.parametrize("held", MODES)
    @pytest.mark.parametrize("requested", MODES)
    def test_matrix_matches_reference(self, held, requested):
        expected = (held.name, requested.name) in EXPECTED_COMPATIBLE
        assert compatible(held, requested) == expected

    @given(a=mode_st, b=mode_st)
    def test_symmetric(self, a, b):
        assert compatible(a, b) == compatible(b, a)

    def test_x_conflicts_with_everything(self):
        for mode in MODES:
            assert not compatible(LockMode.X, mode)

    def test_two_updaters_conflict(self):
        assert not compatible(LockMode.U, LockMode.U)

    def test_updater_tolerates_readers(self):
        assert compatible(LockMode.U, LockMode.S)


class TestSupremum:
    @given(a=mode_st)
    def test_idempotent(self, a):
        assert supremum(a, a) is a

    @given(a=mode_st, b=mode_st)
    def test_commutative(self, a, b):
        assert supremum(a, b) is supremum(b, a)

    @given(a=mode_st, b=mode_st, c=mode_st)
    def test_associative(self, a, b, c):
        assert supremum(supremum(a, b), c) is supremum(a, supremum(b, c))

    @given(a=mode_st, b=mode_st)
    def test_upper_bound(self, a, b):
        sup = supremum(a, b)
        assert covers(sup, a)
        assert covers(sup, b)

    def test_classic_conversions(self):
        assert supremum(LockMode.IX, LockMode.S) is LockMode.SIX
        assert supremum(LockMode.S, LockMode.IX) is LockMode.SIX
        assert supremum(LockMode.IS, LockMode.IX) is LockMode.IX
        assert supremum(LockMode.U, LockMode.X) is LockMode.X
        assert supremum(LockMode.U, LockMode.IX) is LockMode.X
        assert supremum(LockMode.S, LockMode.U) is LockMode.U

    @given(a=mode_st, b=mode_st)
    def test_x_absorbs(self, a, b):
        assert supremum(LockMode.X, a) is LockMode.X


class TestCovers:
    def test_x_covers_all(self):
        for mode in MODES:
            assert covers(LockMode.X, mode)

    def test_s_does_not_cover_x(self):
        assert not covers(LockMode.S, LockMode.X)

    def test_six_covers_s_and_ix(self):
        assert covers(LockMode.SIX, LockMode.S)
        assert covers(LockMode.SIX, LockMode.IX)
        assert not covers(LockMode.SIX, LockMode.U)

    @given(a=mode_st, b=mode_st)
    def test_covers_iff_supremum_is_self(self, a, b):
        assert covers(a, b) == (supremum(a, b) is a)


class TestIntentMapping:
    def test_read_needs_is(self):
        assert intent_mode_for_row(LockMode.S) is LockMode.IS

    def test_writes_need_ix(self):
        assert intent_mode_for_row(LockMode.X) is LockMode.IX
        assert intent_mode_for_row(LockMode.U) is LockMode.IX

    def test_every_mode_maps_as_the_read_write_split_says(self):
        for mode in LockMode:
            expected = LockMode.IS if mode in (LockMode.S, LockMode.IS) else LockMode.IX
            assert intent_mode_for_row(mode) is expected

    @pytest.mark.parametrize("bad", ["S", None, 2])
    def test_non_mode_raises_value_error(self, bad):
        with pytest.raises(ValueError, match="unsupported row lock mode"):
            intent_mode_for_row(bad)


class TestEscalationTarget:
    def test_read_only_escalates_to_s(self):
        assert escalation_target_mode([LockMode.S, LockMode.S]) is LockMode.S

    def test_any_write_escalates_to_x(self):
        assert escalation_target_mode([LockMode.S, LockMode.X]) is LockMode.X
        assert escalation_target_mode([LockMode.U]) is LockMode.X

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            escalation_target_mode([])


class TestMisc:
    def test_strength_ordering(self):
        assert LockMode.IS.strength < LockMode.IX.strength < LockMode.X.strength

    def test_intent_flags(self):
        assert LockMode.IS.is_intent and LockMode.IX.is_intent
        assert not LockMode.S.is_intent

    def test_write_flags(self):
        assert LockMode.X.is_write and LockMode.U.is_write and LockMode.IX.is_write
        assert not LockMode.S.is_write and not LockMode.IS.is_write
