"""high_snr's capacitated assignment against the replicated solve.

`allocators._high_snr_sets` solves ln H with each link's row at capacity
q (`assignment.solve_capacitated`) and keeps the sets only when the
solve's potentials certify them; every other draw takes the solve of the
matrix with each row copied q times. The sets must be the replicated
solve's, merged by link, on every draw: continuous, tie-heavy (integer
gains) and forbidden-cell (fully blocked shadowing) ones. The solve
counts show which path ran. When q > 1 and K divides N the core starts
from a column reduction rather than from zero potentials, so there it is
checked for an optimum proved by its own potentials, not for the zero
start's floats. The replicated references solve with the oracle loop
`oracles.hungarian_min`, not the package's.
"""

import math

import numpy as np
import pytest

from multiband_alloc import allocators
from multiband_alloc.allocators import HIGH_SNR, high_snr_cost_matrix
from multiband_alloc.assignment import CostMatrix, solve_capacitated
from multiband_alloc.channel import (
    ChannelParams,
    realization_from_squared_gains,
    sample_realization,
    trial_rng,
)
from multiband_alloc.errors import InfeasibleError
from multiband_alloc.harness import dump_instance
from oracles import (
    brute_force_assignment,
    hungarian_assignment,
    hungarian_min,
    replicate_rows,
    selection_value,
)

SHAPES = [(2, 4), (4, 8), (3, 9), (8, 32), (3, 3), (4, 4)]
SQUARE = [(2, 4), (4, 8), (8, 32), (16, 64)]
KINDS = ["continuous", "integer", "blocked"]


def params_for(num_links, num_subchannels, **overrides):
    """B/N = 1 and N0 = 1, so the normalized gains are the squared gains."""
    base = dict(
        num_links=num_links,
        num_subchannels=num_subchannels,
        total_bandwidth=float(num_subchannels),
        noise_psd=1.0,
        shadow_prob=0.0,
        power_budgets=(1.0,) * num_links,
    )
    base.update(overrides)
    return ChannelParams(**base)


def draw(kind, num_links, num_subchannels, seed):
    """One seeded draw: Rayleigh gains, integer gains in {0, 1, 2, 3}
    (ties everywhere, zeros forbidden), or Rayleigh gains with 30%
    shadowing at attenuation 0 (blocked cells forbidden)."""
    if kind == "blocked":
        params = params_for(num_links, num_subchannels, shadow_prob=0.3)
        return params, sample_realization(params, trial_rng(seed, 0))
    params = params_for(num_links, num_subchannels)
    rng = np.random.default_rng(seed)
    if kind == "continuous":
        gains = rng.exponential(size=(num_links, num_subchannels))
    else:
        gains = rng.integers(0, 4, size=(num_links, num_subchannels)).astype(float)
    return params, realization_from_squared_gains(params, gains)


def replicated_sets(params, chan):
    """Each link's sorted set from the replicated solve of ln H, after the
    check that every link has quota usable sub-channels."""
    quota = params.quota
    usable = (chan.normalized_gains > 0).sum(axis=1)
    for k, count in enumerate(usable.tolist()):
        if count < quota:
            raise InfeasibleError(f"link {k} has only {count} usable sub-channels; quota is {quota}")
    cost = replicate_rows(high_snr_cost_matrix(params, chan), quota)
    cols = hungarian_assignment(cost).column_of_row
    return [sorted(cols[k * quota : (k + 1) * quota]) for k in range(params.num_links)]


def outcome(select, params, chan):
    """`select(params, chan)`, or the message of the InfeasibleError it raises."""
    try:
        return select(params, chan)
    except InfeasibleError as exc:
        return f"infeasible: {exc}"


def selected_sets(params, chan):
    return allocators._high_snr_sets([params], chan, allocators.DEFAULT_PARTITION_GUARD)[0][0]


@pytest.fixture
def solves(monkeypatch):
    """Counts of the capacitated solves and of the replicated fallbacks.

    Both are `solve_capacitated` calls, and at quota 1 both have capacity
    1, so a solve counts as a fallback when it follows a failed
    certificate; a fallback must then be a capacity-1 solve of K * q rows.
    """
    calls = {"capacitated": 0, "replicated": 0}
    failed = []  # the K * q rows a fallback must solve, once per failed certificate
    certified = allocators._certified

    def counting_certified(costs, sets, *args):
        ok = certified(costs, sets, *args)
        if not ok:
            failed.append(sum(map(len, sets)))
        return ok

    def capacitated(costs, capacity):
        if failed:
            assert (len(costs), capacity) == (failed.pop(), 1)
            calls["replicated"] += 1
        else:
            calls["capacitated"] += 1
        return solve_capacitated(costs, capacity)

    monkeypatch.setattr(allocators, "_certified", counting_certified)
    monkeypatch.setattr(allocators, "solve_capacitated", capacitated)
    yield calls
    assert not failed  # every failed certificate was followed by its fallback


def owned_sets(owner, rows):
    sets = [[] for _ in range(rows)]
    for n, k in enumerate(owner):
        if k >= 0:
            sets[k].append(n)
    return sets


def random_costs(seed, kind):
    """A seeded rows x cols list of costs, about 20% of its cells forbidden
    (+inf). "normal" draws normal costs at a random scale with rows < cols;
    "square" the same with rows == cols; "integer" costs in {0, 1, 2} and
    "all_equal" one integer everywhere, rows <= cols, both tie-heavy."""
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 7))
    if kind == "square":
        cols = rows
    elif kind == "normal":
        cols = int(rng.integers(rows + 1, 10))
    else:
        cols = int(rng.integers(rows, 10))
    if kind in ("normal", "square"):
        values = rng.normal(size=(rows, cols)) * 10.0 ** rng.integers(-3, 4)
    elif kind == "integer":
        values = rng.integers(0, 3, size=(rows, cols)).astype(float)
    else:
        values = np.full((rows, cols), float(rng.integers(0, 3)))
    return rows, cols, np.where(rng.random((rows, cols)) < 0.2, np.inf, values).tolist()


def capacity_one_matches_the_oracle(kind):
    """Solve 200 seeded `random_costs(kind)` draws at capacity 1 and check
    each against `hungarian_min`: the same columns, the same potentials bit
    for bit, the same infeasibility message. Returns the infeasible count."""
    infeasible = 0
    for seed in range(200):
        rows, cols, costs = random_costs(4000 + seed, kind)
        try:
            columns, u, v = hungarian_min(costs)
        except InfeasibleError as exc:
            infeasible += 1
            with pytest.raises(InfeasibleError, match=f"^{exc}$"):
                solve_capacitated(costs, 1)
            continue
        owner, cap_u, cap_v = solve_capacitated(costs, 1)
        assert [owner.index(r) for r in range(rows)] == columns, (kind, seed)
        assert owner.count(-1) == cols - rows, (kind, seed)
        assert (cap_u, cap_v) == (u, v), (kind, seed)
    return infeasible


def assert_duals_prove(costs, owner, u, v):
    """Every column is owned, every allowed cell's reduced cost is >= 0 and
    every owned one's 0, up to rounding relative to the largest |cost|."""
    assert -1 not in owner
    tol = 1e-12 * max(abs(c) for row in costs for c in row if c < math.inf)
    for k, row in enumerate(costs):
        for n, c in enumerate(row):
            reduced = c - u[k] - v[n]
            assert reduced >= -tol
            if owner[n] == k:
                assert abs(reduced) <= tol


class TestCosts:
    def test_costs_are_math_log_bit_for_bit(self):
        params, chan = draw("blocked", 8, 32, seed=5)
        h = chan.normalized_gains
        assert (h == 0).any() and (h > 0).any()
        values = high_snr_cost_matrix(params, chan).values
        trace = allocators._high_snr_sets([params], chan, 1)[0][1]
        for k in range(8):
            for n in range(32):
                expected = math.log(h[k, n]) if h[k, n] > 0 else 0.0
                assert values[k, n].tobytes() == np.float64(expected).tobytes()
                assert trace.values[k, n].tobytes() == np.float64(expected).tobytes()


class TestDifferential:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("shape", SHAPES, ids=[f"k{k}_n{n}" for k, n in SHAPES])
    def test_sets_equal_the_replicated_solve(self, kind, shape):
        draws = 15 if shape == (8, 32) else 60
        for seed in range(draws):
            params, chan = draw(kind, *shape, seed=1000 + seed)
            expected = outcome(replicated_sets, params, chan)
            assert outcome(selected_sets, params, chan) == expected, seed

    def test_core_alone_matches_on_continuous_draws(self):
        # A continuous draw has a unique optimum, so the core needs no
        # certificate to agree.
        for seed in range(40):
            k_links, n_sub = SHAPES[seed % len(SHAPES)]
            params, chan = draw("continuous", k_links, n_sub, seed=2000 + seed)
            costs = allocators._high_snr_costs(chan.normalized_gains)
            owner, _, _ = solve_capacitated(costs, params.quota)
            assert owned_sets(owner, k_links) == replicated_sets(params, chan), seed

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("shape", [(2, 4), (4, 8), (3, 9)], ids=["k2_n4", "k4_n8", "k3_n9"])
    def test_optimum_matches_the_injection_oracle(self, kind, shape):
        for seed in range(4):
            params, chan = draw(kind, *shape, seed=3000 + seed)
            cost = replicate_rows(high_snr_cost_matrix(params, chan), params.quota)
            try:
                best = selection_value(cost, brute_force_assignment(cost))
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    selected_sets(params, chan)
                continue
            sets = selected_sets(params, chan)
            total = sum(cost.values[k * params.quota, n] for k, s in enumerate(sets) for n in s)
            assert total == pytest.approx(best, rel=1e-12, abs=1e-12)

    def test_capacity_one_is_the_square_core(self):
        # At capacity 1 the solve starts from zero potentials, and every
        # float operation is the oracle loop's: the same columns, the same
        # potentials bit for bit, the same infeasibility. Wide continuous
        # draws and tie-heavy ones (integer, all-equal) alike.
        for kind in ("normal", "integer", "all_equal"):
            assert capacity_one_matches_the_oracle(kind) < 100, kind

    def test_capacity_one_square_takes_the_core_columns(self):
        # A square matrix starts from zero potentials too, not from a column
        # reduction, so it takes the oracle loop's columns and potentials.
        infeasible = capacity_one_matches_the_oracle("square")
        # Most draws are feasible; 17 are not.
        assert 0 < infeasible < 100

    def test_near_float_max_costs(self):
        # Tree steps shift potentials by about 1e308; none may overflow.
        values = np.array(
            [[1.2e308, 1.0e308, 0.5e308, 0.9e308], [1.1e308, 0.9e308, 1.0e308, 0.2e308]]
        )
        owner, u, v = solve_capacitated((-values).tolist(), 2)
        assert all(map(math.isfinite, u + v))
        cols = hungarian_assignment(replicate_rows(CostMatrix(values, "maximize"), 2)).column_of_row
        assert owned_sets(owner, 2) == [sorted(cols[:2]), sorted(cols[2:])]

    def test_infeasible_keeps_its_message(self):
        # Both links may use only sub-channels 0 and 1: no two sets of two.
        params = params_for(2, 4)
        gains = np.array([[1.0, 2.0, 0.0, 0.0], [3.0, 1.0, 0.0, 0.0]])
        chan = realization_from_squared_gains(params, gains)
        with pytest.raises(InfeasibleError, match="^no complete assignment avoids the forbidden cells$"):
            selected_sets(params, chan)


class TestSquareStart:
    """Draws with q > 1 and K * q == N start `solve_capacitated` from the
    column reduction; the replicated solve starts from zero potentials."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("shape", SQUARE, ids=[f"k{k}_n{n}" for k, n in SQUARE])
    def test_core_matches_the_replicated_solve(self, kind, shape):
        draws = {4: 60, 8: 40, 32: 10, 64: 2}[shape[1]]
        for seed in range(draws):
            params, chan = draw(kind, *shape, seed=6000 + seed)
            costs = allocators._high_snr_costs(chan.normalized_gains)
            cost = replicate_rows(high_snr_cost_matrix(params, chan), params.quota)
            try:
                result = hungarian_assignment(cost)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    solve_capacitated(costs, params.quota)
                continue
            owner, u, v = solve_capacitated(costs, params.quota)
            sets = owned_sets(owner, params.num_links)
            assert [len(s) for s in sets] == [params.quota] * params.num_links
            assert_duals_prove(costs, owner, u, v)
            cols = result.column_of_row
            expected = [sorted(cols[k * params.quota : (k + 1) * params.quota]) for k in range(shape[0])]
            if kind == "continuous":
                assert sets == expected, seed
            else:
                # Ties: any optimum will do, at the replicated solve's value.
                total = sum(-costs[k][n] for k, s in enumerate(sets) for n in s)
                best = selection_value(cost, result)
                assert total == pytest.approx(best, rel=1e-12, abs=1e-12), seed

    def test_all_forbidden_column_keeps_its_message(self):
        # Every link has two usable sub-channels, but no link may use
        # sub-channel 3, so no choice owns all four.
        params = params_for(2, 4)
        gains = np.array([[1.0, 2.0, 3.0, 0.0], [3.0, 1.0, 2.0, 0.0]])
        chan = realization_from_squared_gains(params, gains)
        message = "^no complete assignment avoids the forbidden cells$"
        with pytest.raises(InfeasibleError, match=message):
            hungarian_assignment(replicate_rows(high_snr_cost_matrix(params, chan), 2))
        with pytest.raises(InfeasibleError, match=message):
            solve_capacitated(allocators._high_snr_costs(chan.normalized_gains), 2)
        with pytest.raises(InfeasibleError, match=message):
            selected_sets(params, chan)


class TestCertificate:
    @pytest.mark.parametrize("shape", SHAPES, ids=[f"k{k}_n{n}" for k, n in SHAPES])
    def test_integer_gains_fall_back(self, solves, shape):
        # Equal gains make equal ln H sums, so many of these draws have
        # several optima, which no certificate may pass. A draw with a
        # link short of usable sub-channels raises before any solve.
        solved = fallbacks = 0
        for seed in range(50):
            params, chan = draw("integer", *shape, seed=5000 + seed)
            expected = outcome(replicated_sets, params, chan)
            solves.update(capacitated=0, replicated=0)
            assert outcome(selected_sets, params, chan) == expected
            if solves["capacitated"]:
                solved += 1
                fallbacks += solves["replicated"]
                assert solves == {"capacitated": 1, "replicated": solves["replicated"]}
        assert solved >= 30
        assert fallbacks >= solved // 10

    def test_continuous_wide_draws_never_fall_back(self, solves):
        params = params_for(8, 32, shadow_prob=0.02, shadow_attenuation=1e-3)
        draws = 100
        for trial in range(draws):
            selected_sets(params, sample_realization(params, trial_rng(1001, trial)))
        assert solves == {"capacitated": draws, "replicated": 0}


class TestDump:
    def test_assignment_line_is_the_same_on_either_path(self, monkeypatch):
        # Each link's columns are printed sorted, link by link, so the
        # replicated fallback prints what the certified solve prints.
        params = params_for(4, 8, shadow_prob=0.02, shadow_attenuation=1e-3)
        certified = dump_instance(params, seed=2, strategy=HIGH_SNR)
        monkeypatch.setattr(allocators, "_certified", lambda *args: False)
        assert dump_instance(params, seed=2, strategy=HIGH_SNR) == certified
