"""high_snr's capacitated assignment against the replicated solve.

`allocators._high_snr_sets` makes one `assignment.solve_capacitated` call
per trial, on -ln H with each link's row at capacity q, and returns its
owners as the sets; nothing else runs. The reference is the matrix with
each row copied q times, solved by the oracle loop `oracles.hungarian_min`
rather than the package's. On continuous and forbidden-cell (fully
blocked shadowing) draws the optimum is unique, so the sets must be the
replicated solve's. Integer gains tie everywhere, and there at q > 1 the
two solves may pick different optima, so the capacitated sets are checked
for the replicated solve's optimum value instead (at q = 1 the two
solves are the same loop, and the sets still match). When q > 1 and K
divides N the core starts from a column reduction rather than from zero
potentials, so there it is checked for an optimum proved by its own
potentials, not for the zero start's floats. Which optimum ties get is
pinned by `golden/assignment_capacity_columns.txt`.
"""

import math

import numpy as np
import pytest

from multiband_alloc import allocators
from multiband_alloc.allocators import HIGH_SNR
from multiband_alloc.assignment import solve_capacitated
from multiband_alloc.channel import (
    ChannelParams,
    realization_from_squared_gains,
    sample_realization,
    trial_rng,
)
from multiband_alloc.errors import InfeasibleError
from multiband_alloc.harness import dump_instance
from oracles import brute_force_assignment, hungarian_min, replicate_rows, selection_value

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


def replicated_costs(params, chan):
    """high_snr's -ln H lists with every row copied quota times."""
    return replicate_rows(allocators._high_snr_costs(chan.normalized_gains), params.quota)


def replicated_sets(params, chan):
    """Each link's sorted set from the replicated solve of ln H, after the
    check that every link has quota usable sub-channels."""
    quota = params.quota
    usable = (chan.normalized_gains > 0).sum(axis=1)
    for k, count in enumerate(usable.tolist()):
        if count < quota:
            raise InfeasibleError(f"link {k} has only {count} usable sub-channels; quota is {quota}")
    cols, _, _ = hungarian_min(replicated_costs(params, chan))
    return [sorted(cols[k * quota : (k + 1) * quota]) for k in range(params.num_links)]


def outcome(select, params, chan):
    """`select(params, chan)`, or the message of the InfeasibleError it raises."""
    try:
        return select(params, chan)
    except InfeasibleError as exc:
        return f"infeasible: {exc}"


def ln_value(chan, sets):
    """The sum of ln H over every link's set: the objective both solves
    maximize."""
    h = chan.normalized_gains
    return sum(math.log(h[k, n]) for k, links in enumerate(sets) for n in links)


def selected_sets(params, chan):
    gains, budgets = chan.normalized_gains[None], np.array([params.power_budgets])
    return allocators._high_snr_sets(params, budgets, gains, allocators.DEFAULT_PARTITION_GUARD)[0]


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
        # The solved costs are -ln H, +inf on zero gains, and the dump of
        # the same draw prints ln H, 0 on zero gains.
        params, chan = draw("blocked", 8, 32, seed=5)
        h = chan.normalized_gains
        assert (h == 0).any() and (h > 0).any()
        costs = allocators._high_snr_costs(h)
        lines = dump_instance(params, seed=5, strategy=HIGH_SNR).splitlines()
        start = lines.index("cost_matrix (maximize, ln H; forbidden cells printed as 0):") + 1
        printed = [[float(x) for x in line.split()] for line in lines[start : start + 8]]
        for k in range(8):
            for n in range(32):
                expected = math.log(h[k, n]) if h[k, n] > 0 else 0.0
                cost = -expected if h[k, n] > 0 else math.inf
                assert np.float64(costs[k][n]).tobytes() == np.float64(cost).tobytes()
                assert np.float64(printed[k][n]).tobytes() == np.float64(expected).tobytes()


class TestDifferential:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("shape", SHAPES, ids=[f"k{k}_n{n}" for k, n in SHAPES])
    def test_sets_equal_the_replicated_solve(self, kind, shape):
        # Integer draws at q > 1 tie, so there only the optimum value must
        # match, with the tolerances of TestSquareStart.
        draws = 15 if shape == (8, 32) else 60
        for seed in range(draws):
            params, chan = draw(kind, *shape, seed=1000 + seed)
            expected = outcome(replicated_sets, params, chan)
            got = outcome(selected_sets, params, chan)
            if kind != "integer" or params.quota == 1 or isinstance(expected, str):
                assert got == expected, seed
            else:
                assert [len(s) for s in got] == [params.quota] * params.num_links, seed
                assert ln_value(chan, got) == pytest.approx(
                    ln_value(chan, expected), rel=1e-12, abs=1e-12
                ), seed

    def test_core_alone_matches_on_continuous_draws(self):
        # A continuous draw has a unique optimum, so the bare solve of the
        # costs agrees with the replicated one.
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
            costs = replicated_costs(params, chan)
            try:
                best = selection_value(costs, brute_force_assignment(costs))
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    selected_sets(params, chan)
                continue
            sets = selected_sets(params, chan)
            total = sum(costs[k * params.quota][n] for k, s in enumerate(sets) for n in s)
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
        cols, _, _ = hungarian_min(replicate_rows((-values).tolist(), 2))
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
            replicated = replicated_costs(params, chan)
            try:
                cols, _, _ = hungarian_min(replicated)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    solve_capacitated(costs, params.quota)
                continue
            owner, u, v = solve_capacitated(costs, params.quota)
            sets = owned_sets(owner, params.num_links)
            assert [len(s) for s in sets] == [params.quota] * params.num_links
            assert_duals_prove(costs, owner, u, v)
            expected = [sorted(cols[k * params.quota : (k + 1) * params.quota]) for k in range(shape[0])]
            if kind == "continuous":
                assert sets == expected, seed
            else:
                # Ties: any optimum will do, at the replicated solve's value.
                total = sum(-costs[k][n] for k, s in enumerate(sets) for n in s)
                best = -selection_value(replicated, cols)
                assert total == pytest.approx(best, rel=1e-12, abs=1e-12), seed

    def test_all_forbidden_column_keeps_its_message(self):
        # Every link has two usable sub-channels, but no link may use
        # sub-channel 3, so no choice owns all four.
        params = params_for(2, 4)
        gains = np.array([[1.0, 2.0, 3.0, 0.0], [3.0, 1.0, 2.0, 0.0]])
        chan = realization_from_squared_gains(params, gains)
        message = "^no complete assignment avoids the forbidden cells$"
        with pytest.raises(InfeasibleError, match=message):
            hungarian_min(replicated_costs(params, chan))
        with pytest.raises(InfeasibleError, match=message):
            solve_capacitated(allocators._high_snr_costs(chan.normalized_gains), 2)
        with pytest.raises(InfeasibleError, match=message):
            selected_sets(params, chan)


class TestOneSolve:
    @pytest.mark.parametrize("shape", SHAPES, ids=[f"k{k}_n{n}" for k, n in SHAPES])
    def test_one_capacitated_solve_per_trial(self, monkeypatch, shape):
        # Every draw kind: one solve of the trial's -ln H lists at capacity
        # q, whose sets every point of the grid repeats; a link short of
        # usable sub-channels raises before any solve.
        calls = []

        def recording(costs, capacity):
            calls.append((costs, capacity))
            return solve_capacitated(costs, capacity)

        def select(params, h):
            calls.clear()
            guard = allocators.DEFAULT_PARTITION_GUARD
            return allocators._high_snr_sets(params, np.ones((3, params.num_links)), h[None], guard)

        monkeypatch.setattr(allocators, "solve_capacitated", recording)
        for kind in KINDS:
            for seed in range(10):
                params, chan = draw(kind, *shape, seed=5000 + seed)
                h = chan.normalized_gains
                try:
                    selections = select(params, h)
                    assert selections == [selections[0]] * 3, (kind, seed)
                except InfeasibleError as exc:
                    if "usable sub-channels" in str(exc):
                        assert calls == [], (kind, seed)
                        continue
                assert calls == [(allocators._high_snr_costs(h), params.quota)], (kind, seed)
        params, chan = draw("continuous", *shape, seed=5000)
        h = chan.normalized_gains.copy()
        h[0] = 0.0
        with pytest.raises(InfeasibleError, match="^link 0 has only 0 usable sub-channels"):
            select(params, h)
        assert calls == []
