"""The CSV float formatter against ``repr``, byte for byte.

``reference_rows`` is how ``save_field`` wrote its CSV before the vectorised
formatter, and the bytes every test here compares with.
"""

import glob
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from skofbsde import _floattext
from skofbsde._floattext import rows_text
from skofbsde.cli import RunConfig
from skofbsde.field import save_field, solve_field

ROOT = os.path.join(os.path.dirname(__file__), "..")


def reference_rows(block) -> bytes:
    return "".join(",".join(map(repr, row)) + "\n"
                   for row in block.tolist()).encode()


def assert_same_text(block):
    block = np.asarray(block, dtype=np.float64)
    if block.ndim == 1:
        block = block.reshape(1, -1)
    got, want = rows_text(block), reference_rows(block)
    if got != want:
        pairs = [(w, g) for w, g in zip(want.split(b","), got.split(b","))
                 if w != g]
        pytest.fail(f"{len(pairs)} values differ, first (repr, got): {pairs[:3]}")


def edge_values():
    values = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
              2.225073858507201e-308, 1.7976931348623157e308, 0.5, 1e-5,
              1e-4, 1e16, 1e15, 9.999999999999999e15, 9999999999999998.0,
              123456789.0, 0.1, 0.2, 0.3, 1 / 3, 2 / 3, math.pi, 1e-11,
              9.999999999999999e-12, 1e-10, math.inf, -math.inf, math.nan]
    values += [2.0**k for k in range(-1074, 1024, 7)]
    for k in range(-12, 18):
        for v in (10.0**k, float(f"1e{k}")):
            values += [v, math.nextafter(v, 0.0), math.nextafter(v, math.inf)]
    # the only values whose interval ends are integers
    values += [2.0**52 + k for k in range(200)] + [2.0**53 + 2 * k for k in range(200)]
    values += [9999999999999000.0 + 2 * k for k in range(500)]
    # exact ties: V = x 10^16 is n + 1/2 with both n and n + 1 in the interval
    values += [1.0 + (2 * j + 1) * 2.0**-17 for j in range(64)]
    return np.array(values + [-v for v in values])


def test_edge_values_match_repr():
    values = edge_values()
    for cols in (1, 3, 7):
        n = values.size // cols * cols
        assert_same_text(values[:n].reshape(-1, cols))
    for shape in ((0, 3), (2, 0), (0, 0)):
        assert_same_text(np.empty(shape))


def test_random_values_of_every_scale_match_repr():
    rng = np.random.default_rng(20140)
    bits = rng.integers(0, 2**64, size=(500, 64), dtype=np.uint64)
    assert_same_text(bits.view(np.float64))
    scaled = rng.standard_normal((500, 64)) * 10.0 ** rng.integers(-14, 19, (500, 64))
    assert_same_text(scaled)
    # short decimals and dyadic fractions have many trailing zero digits
    assert_same_text(np.round(rng.random((200, 33)) * 1000, rng.integers(0, 12)))
    assert_same_text(rng.integers(-2**20, 2**20, (200, 33)) / 2.0**rng.integers(0, 60))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=48),
       st.integers(1, 6))
def test_any_bit_pattern_matches_repr_property(patterns, cols):
    # every exponent, subnormals, NaN payloads and both infinities
    bits = np.array(patterns * cols, dtype=np.uint64).reshape(-1, cols)
    assert_same_text(bits.view(np.float64))


def test_repr_only_for_values_the_rule_leaves_open(monkeypatch):
    calls = []

    def counting(v):
        calls.append(v)
        return repr(v)

    monkeypatch.setattr(_floattext, "repr", counting, raising=False)
    # below 1e6 a value has too many fraction bits for V to be a half-integer
    rng = np.random.default_rng(5)
    decided = np.concatenate([
        rng.choice([-1.0, 1.0], 4000) * 10.0 ** rng.uniform(-10.9, 6.0, 4000),
        [2e-11, 9.999999999999e15, 0.1, 123456789.0, 1e15, -0.3]])
    assert_same_text(decided)
    assert calls == []
    ties = [1.0 + 2.0**-17, 1.0 + 3 * 2.0**-17]
    open_ = [0.0, -0.0, 5e-324, 2.0**-1030, 0.5, 1.0, 2.0**40, math.inf,
             -math.inf, math.nan, 1e16, 3e-12, 1e300] + ties
    assert_same_text(open_)
    assert len(calls) == len(open_)


@pytest.mark.parametrize("config", sorted(
    os.path.basename(p) for p in glob.glob(os.path.join(ROOT, "configs", "*.json"))))
def test_saved_csv_is_the_repr_text(tmp_path, forks, config):
    # a 64x65x33 field of each shipped config, saved in one process and split
    # between two: the CSV is the repr writer's, byte for byte
    path = os.path.join(ROOT, "configs", config)
    with open(path) as fh:
        raw = json.load(fh)
    raw["solver"] = {**raw.get("solver", {}), "nt": 64, "nx1": 65, "nx2": 33}
    cfg = RunConfig(raw, base_dir=os.path.dirname(path))
    f = solve_field(cfg.g, cfg.delta, cfg.solver)
    want = reference_rows(f.u.reshape(-1, f.u.shape[2]))
    for split in (False, True):
        forks(split)
        calls = len(forks.calls)
        out = tmp_path / f"split{int(split)}" / "field.csv"
        out.parent.mkdir()
        save_field(f, str(out))
        assert len(forks.calls) - calls == int(split)
        assert out.read_bytes() == want, config
