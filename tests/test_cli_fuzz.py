"""Every bad input exits with its code: a hypothesis fuzz of `cli.main`.

The argv of `sweep`, `dump` and `bench`, and sweep `--config` files, are
built from the `cli.FLAGS` rows. Each value is drawn by the flag's type
from one of these kinds: in range, out of range, 0, negative, nan and
+-inf, subnormal, 1e308, more than 4,300 digits, non-numeric and empty.
`cli.main` runs in process and must exit 0, 2, 3 or 4; a non-zero exit
prints exactly one `error:` line and no traceback, and exit 0 prints
nothing on stderr. A numpy `RuntimeWarning` fails the run, as everywhere
in the suite.

Every run stays cheap. Values that reach a solver are capped: at most 3
trials, 4 budget points, 2 repetitions, 2 workers and K, N of at most 4
and 8. The one exception is an instance over the partition guard, with
`optimal` alone, whose guard trips before any solve; its N goes up to
20,000, whose partition count has more digits than `str` prints. A grid
with too many points has 10**11 of them, past the grid bound, so it is
rejected before any array is built. `--out` names only paths under a
temporary directory.
"""

import contextlib
import io

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from multiband_alloc import cli, harness

EXIT_CODES = {0, 2, 3, 4}
SHORT_NAMES = tuple(cli.STRATEGY_SHORT)
# No shrinking: a failing run reports the argv it drew, and stays as cheap
# as a passing one.
FUZZ = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    phases=[Phase.generate],
    suppress_health_check=[HealthCheck.too_slow],
)
# Sweep flags whose defaults (200 trials, 7 budgets, every strategy) are
# above the caps, or reach a solver at K, N over the guard.
CAPPED = ("links", "subchannels", "budgets", "trials", "strategies")
# (K, N) over the default partition guard: C(40, 20) prints, C(20000,
# 10000) has 6,019 digits.
OVER_GUARD = [(2, 40), (2, 20000)]

NOT_FINITE = st.sampled_from(["nan", "inf", "-inf", "NaN", "+inf"])
NON_NUMERIC = st.sampled_from(["abc", "1.5.2", "0x10", "--", "1e", "two", "1 2", "½"])
EDGE = st.sampled_from(["0", "-0", "5e-324", "1e308", "-1e308", "9" * 4301, "-" + "1" * 4301, ""])


def ints(lo: int, hi: int, *, above=()):
    """(good, bad) text of an int flag: in [lo, hi]; or negative, any of
    `above` (out of range above), non-finite, 0, subnormal, 1e308, too many
    digits, non-numeric or empty."""
    bad = [st.integers(-(10**6), -1).map(str), NOT_FINITE, NON_NUMERIC, EDGE]
    if above:
        bad.append(st.sampled_from([str(v) for v in above]))
    return st.integers(lo, hi).map(str), st.one_of(bad)


def floats(lo: float, hi: float):
    """(good, bad) text of a float flag: in [lo, hi]; or above it,
    negative, non-finite, 0, subnormal, 1e308, too many digits,
    non-numeric or empty."""
    bad = st.one_of(
        st.floats(hi * 1.5, 1e300).map(repr),
        st.floats(-1e300, -1e-300).map(repr),
        NOT_FINITE,
        NON_NUMERIC,
        EDGE,
    )
    return st.floats(lo, hi).map(repr), bad


def names(choices):
    """(good, bad): a comma list of some of `choices`; or an unknown name,
    or blanks."""
    good = st.lists(st.sampled_from(choices), min_size=1, max_size=len(choices), unique=True)
    return good.map(",".join), st.sampled_from(["best", ",", " , ", "", "low,,high", "opt;maxsel"])


def one_of(good, bad):
    """(good, bad): one of the `good` values; or one of the `bad`."""
    return st.sampled_from(good), st.sampled_from(bad)


def budget_grid():
    """(good, bad): LO:HI:POINTS[spacing] with 0 <= LO < HI and 1 to 4
    points; or 10**11 points, or any parts."""
    spacing = st.sampled_from(["", "log", "lin"])
    lo, points = st.floats(1e-3, 10.0), ints(1, 4, above=[10**11])

    def grid(lo, step, points, spacing):
        return f"{lo!r}:{lo + step!r}:{points}{spacing}"

    good = st.builds(grid, lo, st.floats(0.5, 1e3), points[0], spacing)
    too_many = st.builds(grid, lo, st.floats(0.5, 1e3), st.just(10**11), spacing)
    part = st.one_of(*floats(1e-3, 1e3))
    parts = st.builds(
        lambda lo, hi, points, spacing, rest: ":".join([lo, hi, points + spacing, *rest]),
        part,
        part,
        st.one_of(*points),
        st.sampled_from(["", "log", "lin", "geo"]),
        st.lists(part, max_size=1),
    )
    return good, st.one_of(too_many, parts, st.sampled_from(["", "1:2", "1::3"]))


def out_path(tmp):
    """(good, bad): no --out or a file; or the directory itself, an empty
    path or a path in a directory that does not exist, all under `tmp`."""
    return one_of([None, str(tmp / "out.txt")], [str(tmp), "", str(tmp / "missing" / "out.txt")])


def draw_values(draw, specs: dict) -> dict:
    """One value per flag of `specs` ((good, bad) strategies by `cli.FLAGS`
    key): up to two flags, drawn at random, take a bad value. A good value
    parses as its flag's type and is one of its choices, if it has any."""
    bad = draw(st.sets(st.sampled_from(sorted(specs)), max_size=2))
    values = {name: draw(specs[name][name in bad]) for name in specs}
    for name, value in values.items():
        flag = cli.FLAGS[name]
        if name not in bad and value is not None:
            assert flag.choices is None or flag.type(value) in flag.choices
    return values


def sizes(over_guard: bool):
    """(good, bad) K and N: within the cap, or over the guard."""
    if over_guard:
        pair = st.sampled_from(OVER_GUARD)
        return (pair.map(lambda kn: str(kn[0])),) * 2, (pair.map(lambda kn: str(kn[1])),) * 2
    return ints(1, 4), ints(1, 8)


def guard(over_guard: bool):
    """(good, bad) partition guards; an instance over the guard keeps it
    at most the default, so that it trips."""
    return ints(1, 10**6) if over_guard else ints(1, 10**7, above=[10**4000])


def channel_specs(draw) -> tuple[bool, dict]:
    """Whether the instance is over the guard, and the specs of the
    channel flags that `sweep` and `dump` share."""
    over_guard = draw(st.integers(0, 5)) == 0
    links, subchannels = sizes(over_guard)
    return over_guard, {
        "links": links,
        "subchannels": subchannels,
        "bandwidth": floats(0.1, 100.0),
        "noise_psd": floats(1e-3, 10.0),
        "shadow_prob": floats(0.0, 1.0),
        "shadow_atten": floats(0.0, 1.0),
        "seed": ints(0, 2**32, above=[10**100]),
        "guard": guard(over_guard),
        "maxsel_power": one_of(list(cli.POWER_RULES), ["greedy", ""]),
    }


def sweep_values(draw, tmp) -> dict:
    """A value for each sweep flag, by `cli.FLAGS` key (None: left out)."""
    over_guard, specs = channel_specs(draw)
    specs |= {
        "budgets": budget_grid(),
        "trials": ints(1, 3),
        "strategies": (st.just("opt"),) * 2 if over_guard else names(SHORT_NAMES),
        "out": out_path(tmp),
        "score": one_of(list(harness.SCORE_MODES), ["approx", ""]),
        # A pool of 2 costs a process start each: one run in four.
        "workers": one_of(["1", "1", "1", "2"], ["0", "-1", "two", "", "1.5"]),
    }
    assert set(specs) == set(cli.SWEEP_FLAGS)
    return draw_values(draw, specs)


def argv_of(command: str, values: dict) -> list[str]:
    """`command` with `--flag=value` for every value that is not None, so
    a value that starts with "-" or is empty stays a value."""
    argv = [command]
    for name, value in values.items():
        if value is not None:
            argv.append(f"--{name.replace('_', '-')}={value}")
    return argv


def run(argv: list[str]) -> None:
    """Run `cli.main` in process and check its exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    stderr = err.getvalue()
    assert code in EXIT_CODES, (argv, code, stderr)
    assert "Traceback" not in stderr, (argv, stderr)
    if code == 0:
        assert stderr == "", (argv, stderr)
    else:
        errors = [line for line in stderr.splitlines() if "error:" in line]
        assert len(errors) == 1, (argv, code, stderr)


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(data=st.data())
def test_sweep(tmp, data):
    run(argv_of(cli.SWEEP, sweep_values(data.draw, tmp)))


@FUZZ
@given(data=st.data())
def test_sweep_config_file(tmp, data):
    # Each flag goes to the file, to argv, which overrides the file, or
    # nowhere, except that the capped flags are never left to their
    # defaults; the file may also hold a malformed or unknown line.
    values = sweep_values(data.draw, tmp)
    lines, flags = [], {}
    for name, value in values.items():
        where = data.draw(st.sampled_from(["file", "argv"] + ["none"] * (name not in CAPPED)))
        if value is None or where == "none":
            continue
        if where == "argv":
            flags[name] = value
        else:
            key = data.draw(st.sampled_from([name, name.replace("_", "-")]))
            lines.append(f"{key} = {value}")
    lines += data.draw(st.lists(st.sampled_from(["# note", "", "trials", "colour = red", "=1"]), max_size=1))
    config = tmp / "sweep.cfg"
    config.write_text("\n".join(lines) + "\n", encoding="utf-8")
    run(argv_of(cli.SWEEP, {**flags, "config": str(config)}))


@FUZZ
@given(data=st.data())
def test_dump(tmp, data):
    over_guard, specs = channel_specs(data.draw)
    strategy = ["opt"] if over_guard else list(SHORT_NAMES)
    specs |= {
        "budget": floats(0.0, 1e3),
        "strategy": one_of(strategy, [None, "best", ""]),
        "out": out_path(tmp),
    }
    assert set(specs) == {name for name, flag in cli.FLAGS.items() if cli.DUMP in flag.commands}
    run(argv_of(cli.DUMP, draw_values(data.draw, specs)))


@FUZZ
@given(data=st.data())
def test_bench(tmp, data):
    over_guard = data.draw(st.integers(0, 2)) == 0
    if over_guard:
        dims = (st.sampled_from(["2:40", "2:20000", "2:100000"]),) * 2
        methods = (st.just("optimal"),) * 2
    else:
        k, n = ints(1, 4), ints(1, 8)
        good_dims = st.lists(st.tuples(k[0], n[0]).map(":".join), min_size=1, max_size=3)
        bad_pair = st.one_of(st.tuples(k[1], n[0]), st.tuples(k[0], n[1])).map(":".join)
        malformed = st.sampled_from(["2", "2:4:6", "2x4", ",", ""])
        bad_dims = st.lists(st.one_of(bad_pair, malformed), min_size=1, max_size=2)
        dims = good_dims.map(",".join), bad_dims.map(",".join)
        methods = names(harness.BENCH_METHODS)
    specs = {
        "dims": dims,
        "methods": methods,
        "reps": ints(1, 2),
        "seed": ints(0, 2**32, above=[10**100]),
        "out": out_path(tmp),
        "guard": guard(over_guard),
    }
    assert set(specs) == {name for name, flag in cli.FLAGS.items() if cli.BENCH in flag.commands}
    run(argv_of(cli.BENCH, draw_values(data.draw, specs)))
