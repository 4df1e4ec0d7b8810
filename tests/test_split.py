"""The two-process split of path ensembles and of the field CSV.

Each test forces the split by lowering the minimum sizes (and by reporting
two CPUs, so the split also happens on a one-CPU machine) and compares with
the run that stays in one process.
"""

import builtins
import os
import time
from dataclasses import replace

import numpy as np
import pytest
from test_cli import write_config
from test_fbsde import _ENSEMBLES

from skofbsde import fbsde
from skofbsde import field as field_mod
from skofbsde.cli import main
from skofbsde.embed import strong_embed_on_W
from skofbsde.errors import ConfigError, ContractionError, DomainError
from skofbsde.field import load_field, save_field


@pytest.fixture
def forks(monkeypatch):
    """Count the forks of this process; ``split(on)`` forces the split on
    or off."""
    calls = []
    fork = os.fork

    def counted():
        calls.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def split(on: bool):
        minimum = 2 if on else 10**9
        monkeypatch.setattr(fbsde, "_SPLIT_MIN_PATHS", minimum)
        monkeypatch.setattr(field_mod, "_SPLIT_MIN_ROWS", minimum)

    split.calls = calls
    return split


def _equal(a, b):
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("routine", list(_ENSEMBLES))
def test_ensemble_split_is_bitwise_equal(case_small, monkeypatch, forks,
                                         routine):
    module, constant, run = _ENSEMBLES[routine]
    monkeypatch.setattr(module, constant, 5)     # 37 paths: halves of 18, 19
    results = []
    for on in (False, True):
        forks(on)
        res = run(case_small.value)
        results.append(res if isinstance(res, dict) else vars(res))
    assert len(forks.calls) == 1
    a, b = results
    assert a.keys() == b.keys()
    for key in a:
        assert _equal(a[key], b[key]), key


def test_clamp_counts_of_both_halves(case_small, forks):
    # the clamp hits and steps come back per path with the child's half
    c = case_small.value
    f = replace(c["field"], deriv_floor_eps=0.3)
    fractions = []
    for on in (False, True):
        forks(on)
        with pytest.warns(RuntimeWarning, match="clamp"):
            er = strong_embed_on_W(f, c["coeffs"], 37, 2048, seed=12)
        fractions.append(er.clamp_fraction)
    assert len(forks.calls) == 1
    assert fractions[0] > 0.0 and fractions[0] == fractions[1]


def test_map_blocks_split_runs_blocks_of_each_half(forks):
    forks(True)
    seen = []

    def fn(lo, hi):
        seen.append((lo, hi))       # the child's calls stay in the child
        return np.arange(lo, hi), np.full((hi - lo, 2), float(os.getpid()))

    idx, pid = fbsde.map_blocks(11, 4, fn)
    assert seen == [(0, 4), (4, 5)]
    assert idx.tolist() == list(range(11))
    assert set(pid[:5, 0]) == {os.getpid()}
    assert os.getpid() not in set(pid[5:, 0])


def test_child_exception_is_raised_again(forks):
    forks(True)

    def fn(lo, hi):
        if lo >= 8:
            raise DomainError(f"block [{lo}, {hi}) failed")
        return (np.arange(lo, hi),)

    with pytest.raises(DomainError) as info:
        fbsde.map_blocks(16, 2, fn)
    assert str(info.value) == "block [8, 10) failed"
    assert "in fn" in info.value.__notes__[0]       # the child's traceback

    # an exception with extra state keeps it
    def contraction(lo, hi):
        if lo:
            raise ContractionError("no contraction", residuals=[3.0, 2.5])
        return lo

    with pytest.raises(ContractionError) as info:
        fbsde.run_halves(4, contraction, 2)
    assert str(info.value) == "no contraction"
    assert info.value.residuals == [3.0, 2.5]

    # one that does not survive a pickle round trip keeps its text
    class TwoArgs(Exception):
        def __init__(self, a, b):
            super().__init__(f"{a} and {b}")

    def two_args(lo, hi):
        if lo:
            raise TwoArgs(1, 2)

    with pytest.raises(RuntimeError) as info:
        fbsde.run_halves(4, two_args, 2)
    assert str(info.value) == "TwoArgs: 1 and 2"


def test_child_without_result_is_an_error(forks):
    forks(True)

    def fn(lo, hi):
        if lo:
            os._exit(3)
        return lo

    with pytest.raises(RuntimeError, match=r"items \[2, 4\) ended without"):
        fbsde.run_halves(4, fn, 2)


def test_parent_failure_kills_the_child(forks):
    forks(True)

    def fn(lo, hi):
        if lo == 0:
            raise KeyError("parent half")
        time.sleep(60)

    t0 = time.monotonic()
    with pytest.raises(KeyError):
        fbsde.run_halves(4, fn, 2)
    assert time.monotonic() - t0 < 30


def test_no_split_below_the_minimum_or_on_one_cpu(forks, monkeypatch):
    forks(False)
    assert fbsde.run_halves(10**6, lambda lo, hi: (lo, hi), 10**6 + 1) == [
        (0, 10**6)]
    forks(True)
    assert fbsde.run_halves(1, lambda lo, hi: (lo, hi), 1) == [(0, 1)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert fbsde.run_halves(10, lambda lo, hi: (lo, hi), 2) == [(0, 10)]
    assert forks.calls == []


def test_field_split_is_bitwise_equal(tmp_path, case_small, forks):
    f = case_small.value["field"]
    paths = [str(tmp_path / f"{name}.csv") for name in ("one", "two")]
    for on, path in zip((False, True), paths):
        forks(on)
        save_field(f, path)
    assert len(forks.calls) == 1
    one, two = ((tmp_path / f"{name}.csv").read_bytes()
                for name in ("one", "two"))
    assert one == two
    assert sorted(os.listdir(tmp_path)) == ["one.csv", "one.json", "two.csv",
                                            "two.json"]
    loaded = []
    for on in (False, True):
        forks(on)
        loaded.append(load_field(paths[0]))
    assert len(forks.calls) == 2
    for name in ("u", "u1", "t_grid", "x1_grid", "x2_grid"):
        assert _equal(getattr(loaded[0], name), getattr(loaded[1], name))
    assert np.array_equal(loaded[1].u, f.u)


def _cut_mid_row(rows, k):
    return "".join(rows[:k]) + rows[k][: len(rows[k]) // 2]


def _drop_value(rows, k):
    rows[k] = rows[k].split(",", 1)[1]
    return "".join(rows)


def _set_value(rows, k, text):
    cells = rows[k].split(",")
    cells[3] = text
    rows[k] = ",".join(cells)
    return "".join(rows)


# corruptions in the upper half of the 65 x 65 rows (the split is at 2112)
_BROKEN = {
    "cut_mid_row": lambda rows: _cut_mid_row(rows, 3000),
    "cut_mid_first_upper_row": lambda rows: _cut_mid_row(rows, 2112),
    "last_row_missing": lambda rows: "".join(rows[:-1]),
    "extra_row": lambda rows: "".join(rows + rows[-1:]),
    "ragged_first_upper_row": lambda rows: _drop_value(rows, 2112),
    "ragged_row": lambda rows: _drop_value(rows, 3000),
    "text_cell": lambda rows: _set_value(rows, 3000, "abc"),
    "nan_cell": lambda rows: _set_value(rows, 3000, "nan"),
    "inf_cell": lambda rows: _set_value(rows, 2112, "-inf"),
}

# a part of each message; the row numbers count from the top of the file
_REFUSAL = {
    "cut_mid_row": "columns changed from 33 to 17 at row 3001",
    "cut_mid_first_upper_row": "columns changed from 33 to 17 at row 2113",
    "last_row_missing": "4224 x 33 values, expected 4225 x 33",
    "extra_row": "4226 x 33 values, expected 4225 x 33",
    "ragged_first_upper_row": "columns changed from 33 to 32 at row 2113",
    "ragged_row": "columns changed from 33 to 32 at row 3001",
    "text_cell": "could not convert string 'abc' to float64 at row 3000",
    "nan_cell": "has a non-finite value",
    "inf_cell": "has a non-finite value",
}


def _broken_field(tmp_path, f, breaker):
    """``f`` saved in one process, then broken by ``_BROKEN[breaker]``."""
    path = str(tmp_path / "field.csv")
    save_field(f, path)
    with open(path) as fh:
        text = _BROKEN[breaker](fh.read().splitlines(keepends=True))
    with open(path, "w") as fh:
        fh.write(text)
    return path


@pytest.mark.parametrize("breaker", list(_BROKEN))
def test_broken_upper_half_gives_the_one_process_message(tmp_path, case_small,
                                                         forks, breaker):
    forks(False)
    path = _broken_field(tmp_path, case_small.value["field"], breaker)
    messages = []
    for on in (False, True):
        forks(on)
        with pytest.raises(ConfigError) as info:
            load_field(path)
        messages.append(str(info.value))
    assert len(forks.calls) == 1
    assert messages[0] == messages[1]
    assert _REFUSAL[breaker] in messages[1]


def test_broken_upper_half_exits_1(tmp_path, case_small, forks, capsys):
    forks(False)
    cfg = write_config(tmp_path)
    path = _broken_field(tmp_path, case_small.value["field"], "nan_cell")
    forks(True)
    out = str(tmp_path / "out")
    assert main(["embed", "--config", cfg, "--field", path, "--out", out]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"config error: field file {path} has a non-finite value"]
    assert not os.path.exists(out)


@pytest.mark.parametrize("half", ["upper", "lower"])
def test_failed_save_leaves_no_temporary_file(tmp_path, case_small, forks,
                                              monkeypatch, half):
    forks(True)
    real_open = builtins.open

    def failing_open(name, mode="r", *args, **kwargs):
        fh = real_open(name, mode, *args, **kwargs)
        if "w" in mode and str(name).endswith(".part") == (half == "upper"):
            fh.write("0.5,")
            fh.close()
            raise OSError(28, "No space left on device")
        return fh

    monkeypatch.setattr(field_mod, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="No space left on device"):
        save_field(case_small.value["field"], str(tmp_path / "field.csv"))
    assert len(forks.calls) == 1
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".part")]
