"""User-side agent: carrier ordering, flag cursor, offset bookkeeping."""

import pytest

from carrieralloc import ProtocolError
from carrieralloc.ue import UeState, next_flag, order_carriers, record_rate


class TestOrderCarriers:
    def test_sorts_by_ascending_price(self):
        assert order_carriers({1: 0.9, 2: 0.4, 3: 0.7}) == (2, 3, 1)

    def test_tie_broken_by_ascending_id(self):
        assert order_carriers({2: 0.5, 1: 0.5}) == (1, 2)

    def test_singleton(self):
        assert order_carriers({7: 1.3}) == (7,)

    def test_output_is_permutation_of_input(self):
        prices = {11: 0.3, 4: 0.9, 8: 0.1, 2: 0.9}
        assert sorted(order_carriers(prices)) == sorted(prices)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            order_carriers({})

    def test_nonfinite_price_rejected(self):
        with pytest.raises(ValueError):
            order_carriers({1: float("nan")})

    @pytest.mark.parametrize("bad", [10**400, -10**400, True, False],
                             ids=["1e400", "-1e400", "True", "False"])
    def test_price_that_is_no_float_rejected(self, bad):
        # an int beyond the float range raised OverflowError; a bool passed
        with pytest.raises(ValueError, match="carrier 2"):
            order_carriers({1: 0.5, 2: bad})


class TestFlagWalk:
    def test_fresh_state_flags_cheapest(self):
        state = UeState(user_id=4, carrier_order=(2, 1))
        assert next_flag(state) == 2

    def test_advances_after_each_rate(self):
        state = UeState(user_id=4, carrier_order=(2, 1))
        record_rate(state, 2, 5.0)
        assert next_flag(state) == 1
        record_rate(state, 1, 3.2)
        assert next_flag(state) is None
        assert state.done

    def test_aggregate_is_sum_of_received(self):
        state = UeState(user_id=4, carrier_order=(2, 1))
        record_rate(state, 2, 5.0)
        record_rate(state, 1, 3.2)
        assert state.aggregated_rate == pytest.approx(8.2)

    def test_offset_accumulates_along_order(self):
        state = UeState(user_id=4, carrier_order=(2, 1))
        assert state.pending_offset == 0.0
        record_rate(state, 2, 5.0)
        assert state.pending_offset == 5.0

    def test_offset_before_any_rate_is_float_zero(self):
        offset = UeState(user_id=1, carrier_order=(2, 1)).pending_offset
        assert offset == 0.0 and type(offset) is float

    def test_single_carrier_user(self):
        state = UeState(user_id=3, carrier_order=(1,))
        assert state.pending_offset == 0.0
        record_rate(state, 1, 12.0)
        assert state.done
        assert state.aggregated_rate == 12.0

    def test_aggregate_undefined_until_done(self):
        state = UeState(user_id=4, carrier_order=(2, 1))
        assert state.aggregated_rate is None
        record_rate(state, 2, 5.0)
        assert state.aggregated_rate is None

    def test_offsets_nondecreasing_over_walk(self):
        state = UeState(user_id=9, carrier_order=(3, 1, 2))
        offsets = [state.pending_offset]
        for cid, rate in ((3, 2.0), (1, 0.0), (2, 4.0)):
            record_rate(state, cid, rate)
            offsets.append(state.pending_offset)
        assert offsets == sorted(offsets)

    def test_out_of_order_rate_rejected(self):
        state = UeState(user_id=4, carrier_order=(2, 1))
        with pytest.raises(ProtocolError, match="currently flags carrier 2"):
            record_rate(state, 1, 3.0)

    def test_rate_after_done_rejected(self):
        state = UeState(user_id=3, carrier_order=(1,))
        record_rate(state, 1, 12.0)
        with pytest.raises(ProtocolError, match="after completing"):
            record_rate(state, 1, 1.0)

    def test_negative_rate_rejected(self):
        state = UeState(user_id=3, carrier_order=(1,))
        with pytest.raises(ValueError):
            record_rate(state, 1, -1.0)
