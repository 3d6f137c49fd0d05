"""MAX_ORDER is accepted and MAX_ORDER + 1 refused at every public entry point."""

import pytest

from binwords import (
    MAX_ORDER,
    PRESETS,
    PrefixIndex,
    UnsupportedOrderError,
    count_avoiding,
    equivalent,
    find_power,
    is_power_free,
    lift_matrix,
    longest_avoiding,
    scan_fixed_point,
    scan_word,
    signature,
)

H = PRESETS["h"].morphism

ENTRY_POINTS = {
    "signature": lambda m: signature("0110", m),
    "equivalent": lambda m: equivalent("01", "10", m),
    "PrefixIndex": lambda m: PrefixIndex("0110", m),
    "find_power": lambda m: find_power("0101", m, 2),
    "is_power_free": lambda m: is_power_free("010", m, 2),
    "scan_word": lambda m: scan_word("0101", m, 2),
    "scan_fixed_point": lambda m: scan_fixed_point(H, 0, 9, m, 3),
    "longest_avoiding": lambda m: longest_avoiding(2, m, 2, 4),
    "count_avoiding": lambda m: count_avoiding(2, m, 2, 4),
    "lift_matrix": lambda m: lift_matrix(H, m),
}


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_cap_is_accepted(call):
    call(MAX_ORDER)


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_past_the_cap_is_refused(call):
    with pytest.raises(UnsupportedOrderError):
        call(MAX_ORDER + 1)
