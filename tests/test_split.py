"""The two-process split of path ensembles, of the field solve (by x2
columns), of the field CSV export and of the coupled derivative check.

Each test forces the split by lowering the minimum sizes (and by reporting
two CPUs, so the split also happens on a one-CPU machine) and compares with
the run that stays in one process; the ``forks`` fixture of ``conftest.py``
does both.
"""

import builtins
import os
import signal
import time
from dataclasses import replace

import numpy as np
import pytest
from test_fbsde import _ENSEMBLES

from skofbsde import embed, fbsde
from skofbsde import field as field_mod
from skofbsde.coeffs import ProcessCoefficients, TimeFunction
from skofbsde.embed import strong_embed_on_W
from skofbsde.errors import (ContractionError, CutoffActiveError,
                             DerivativeMismatchError, DomainError)
from skofbsde.field import (SolverConfig, derivative_fields, save_field,
                            solve_field)
from skofbsde.measure import TargetMeasure, make_g


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


def test_clamp_counts_of_both_halves(case_small, forks, monkeypatch):
    # the clamp hits and steps come back per path with the child's half
    c = case_small.value
    f = c["field"]
    monkeypatch.setattr(embed, "DERIV_FLOOR_EPS", 0.3)
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
    for on, name in ((False, "one"), (True, "two")):
        forks(on)
        save_field(f, str(tmp_path / f"{name}.csv"))
    assert len(forks.calls) == 1
    for ext in ("csv", "npy"):
        one, two = ((tmp_path / f"{name}.{ext}").read_bytes()
                    for name in ("one", "two"))
        assert one == two, ext
    assert sorted(os.listdir(tmp_path)) == [
        f"{name}.{ext}" for name in ("one", "two")
        for ext in ("csv", "json", "npy")]


class _Scaled:
    """A terminal function whose derivative is ``scale`` times the real
    one: a forced mismatch of one derivative chain."""

    def __init__(self, fn, scale):
        self.fn, self.scale = fn, scale

    def derivative(self, x):
        return self.scale * np.asarray(self.fn.derivative(x))


@pytest.mark.parametrize("wrong", ["none", "g", "delta", "both", "tie"])
def test_coupled_check_split_is_bitwise_equal(case_small, forks, wrong):
    # the v2 chain runs in the child: its worst value, and the tie rule
    # between the chains, give the one-process mismatch and location.
    # With both wrong, the v2 chain holds the worst value
    c = case_small.value
    g, delta, f0 = c["g"], c["delta"], c["field"]
    if wrong in ("g", "both"):
        g = _Scaled(g, 5.0)
    if wrong in ("delta", "both"):
        delta = _Scaled(delta, 10.0)
    if wrong == "tie":
        # an infinite u node at t = 0, which no coefficient reads, makes
        # u1 infinite at its two x1 neighbours and u2 at its two x2
        # neighbours: the chains tie at inf and the v1 chain names the
        # location, the lower x1 neighbour (9, 5), inner index (8, 5)
        u = f0.u.copy()
        u[0, 10, 5] = np.inf
        f0 = replace(f0, u=u)
    results = []
    for on in (False, True):
        forks(on)
        f = replace(f0, deriv_mismatch=None)
        try:
            derivative_fields(f, "coupled_system", g=g, delta=delta)
            results.append(f.deriv_mismatch)
        except DerivativeMismatchError as exc:
            results.append((exc.location, exc.discrepancy, str(exc)))
    assert len(forks.calls) == 1
    assert results[0] == results[1]
    assert isinstance(results[0], float) == (wrong == "none")
    if wrong == "tie":
        assert results[0][:2] == ((0, 8, 5), np.inf)


@pytest.mark.parametrize("half", ["upper", "lower"])
def test_failed_save_leaves_no_temporary_file(tmp_path, case_small, forks,
                                              monkeypatch, half):
    forks(True)
    real_open = builtins.open

    def failing_open(name, mode="r", *args, **kwargs):
        fh = real_open(name, mode, *args, **kwargs)
        if "w" in mode and str(name).endswith(".part") == (half == "upper"):
            fh.write(b"0.5,")
            fh.close()
            raise OSError(28, "No space left on device")
        return fh

    monkeypatch.setattr(field_mod, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="No space left on device"):
        save_field(case_small.value["field"], str(tmp_path / "field.csv"))
    assert len(forks.calls) == 1
    assert not [p for p in os.listdir(tmp_path) if p.endswith(".part")]


@pytest.mark.parametrize("nx2", [2, 3, 33])
def test_solve_split_is_bitwise_equal(case_small, forks, nx2):
    # odd nx2 splits the columns unevenly (1 + 2 and 16 + 17); two columns
    # stay in one process, since the top one reads the one below it
    c = case_small.value
    cfg = replace(c["cfg"], nx2=nx2)
    fields = []
    for on in (False, True):
        forks(on)
        fields.append(solve_field(c["g"], c["delta"], cfg))
    assert len(forks.calls) == (nx2 > 2)
    one, two = fields
    assert one.u.shape == (65, 65, nx2)
    assert one.u.tobytes() == two.u.tobytes()


def _failing_solve(case, monkeypatch):
    """(g, delta, cfg) of a solve that fails: the fixed point does not
    contract (the case of test_cli's test_contraction_failure_names_the_grid),
    or the cutoff binds, without drift (test_field's
    test_cutoff_must_be_passive) or with one.  The cutoff cases set the
    radius just above L_g, which the x1 stencil of the terminal layer
    reaches: both fail at t = 1, before any layer is solved.  A fork made
    later inherits the radius."""
    measure, alpha = {"contraction": (TargetMeasure.uniform(0.0, 2.0), 16.0),
                      "cutoff_u1": (TargetMeasure.normal(0.0, 1.0), 0.0),
                      "cutoff_z": (TargetMeasure.normal(0.0, 1.0), 1.0)}[case]
    g = make_g(measure)
    h = 2.0 if case == "cutoff_u1" else 1.05 * g.lipschitz**2
    coeffs = ProcessCoefficients(0.0, TimeFunction.const(alpha),
                                 TimeFunction.const(1.0), 1.0, h_target=h)
    cfg = SolverConfig.defaults(g.lipschitz, nt=64, nx1=65, nx2=33)
    if case != "contraction":
        monkeypatch.setattr(field_mod, "_cutoff",
                            lambda L_g: L_g * (1.0 + 1e-9))
    return g, coeffs.delayed_drift(), cfg


@pytest.mark.parametrize("case", ["contraction", "cutoff_u1", "cutoff_z"])
def test_solve_split_fails_as_one_process(forks, monkeypatch, case):
    # both halves stop together, on the residuals and max |z| of the whole
    # layer, so the message and the residuals are those of one process
    g, delta, cfg = _failing_solve(case, monkeypatch)
    errors = []
    for on in (False, True):
        forks(on)
        with pytest.raises((ContractionError, CutoffActiveError)) as info:
            solve_field(g, delta, cfg)
        errors.append((type(info.value), str(info.value),
                       getattr(info.value, "residuals", None)))
    assert len(forks.calls) == 1
    assert errors[0] == errors[1]
    kind, message, residuals = errors[0]
    if case == "contraction":
        assert kind is ContractionError and len(residuals) == 200
    else:
        assert kind is CutoffActiveError
        assert message == "cutoff not passive at t = 1: max |z| = 1 >= 1"


@pytest.mark.parametrize("half, end", [("upper", "exit"), ("upper", "raise"),
                                       ("lower", "raise")])
def test_solve_half_failure_ends_both(case_small, forks, monkeypatch, half,
                                      end):
    # one half ends mid-solve while the other waits for its message: the
    # waiting half returns, or is killed, and the child is reaped
    forks(True)
    c = case_small.value
    parent = os.getpid()
    real = field_mod.solve_banded
    calls = []

    def failing(diagonals, b):
        calls.append(1)
        if len(calls) == 100 and (os.getpid() != parent) == (half == "upper"):
            if end == "exit":
                os._exit(3)
            raise KeyError(f"{half} half")
        return real(diagonals, b)

    def hung(signum, frame):
        raise TimeoutError("a half waits for the other after 30 s")

    monkeypatch.setattr(field_mod, "solve_banded", failing)
    expected = ((RuntimeError, r"items \[16, 33\) ended without") if end == "exit"
                else (KeyError, f"{half} half"))
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        with pytest.raises(expected[0], match=expected[1]):
            solve_field(c["g"], c["delta"], c["cfg"])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(forks.calls) == 1
