"""Property tests: every strategy on random gain matrices and budgets.

Gain matrices have K <= 3 links and N <= 7 sub-channels (N need not be a
multiple of K), with zero gains mixed in; budgets are log-uniform over
1e-6 to 1e9 W per link. `optimal` must also pick the partition that the
enumeration oracle picks.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from multiband_alloc.allocators import (
    HIGH_SNR,
    OPTIMAL,
    STRATEGY_ORDER,
    allocate,
    exact_sum_rate,
    validate_allocation,
)
from multiband_alloc.channel import ChannelParams, realization_from_squared_gains
from multiband_alloc.errors import InfeasibleError
from oracles import optimal_by_enumeration

REL_TOL = 1e-12


@st.composite
def instances(draw):
    num_links = draw(st.integers(1, 3))
    num_subchannels = draw(st.integers(num_links, 7))
    gain = st.one_of(st.just(0.0), st.floats(1e-4, 1e4))
    gains = draw(
        st.lists(
            gain,
            min_size=num_links * num_subchannels,
            max_size=num_links * num_subchannels,
        )
    )
    # Hypothesis's own float draws cluster at the ends of a range and at
    # round values, so the exponents come from a seeded uniform draw.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    budgets = 10.0 ** rng.uniform(-6.0, 9.0, num_links)
    params = ChannelParams(
        num_links=num_links,
        num_subchannels=num_subchannels,
        total_bandwidth=float(num_subchannels),
        noise_psd=1.0,
        shadow_prob=0.0,
        power_budgets=tuple(budgets),
    )
    matrix = np.reshape(gains, (num_links, num_subchannels))
    return params, realization_from_squared_gains(params, matrix)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(instances())
def test_strategies_valid_and_bounded_by_optimal(instance):
    params, chan = instance
    rates = {}
    for tag in STRATEGY_ORDER:
        try:
            alloc = allocate(tag, params, chan)
        except InfeasibleError:
            assert tag == HIGH_SNR
            continue
        validate_allocation(params, alloc)
        rates[tag] = exact_sum_rate(params, chan, alloc).total_rate
        if tag == OPTIMAL:
            oracle = optimal_by_enumeration(params, chan)
            assert alloc.subchannels_of_link == oracle.subchannels_of_link
    # Relative slack with an absolute floor, as in the other sandwich checks:
    # the closed-form water level loses digits when 1/H dwarfs the budget,
    # which shifts optimal's rate by ~1e-17 bit/s at rates of ~1e-6 bit/s.
    slack = REL_TOL * max(1.0, rates[OPTIMAL])
    for tag, rate in rates.items():
        assert rate <= rates[OPTIMAL] + slack, tag
