"""Span and count recording for one benchmark child process.

The tracer wraps public functions of the ``skofbsde`` modules from outside
the package: every module attribute bound to a wrapped function is replaced,
so a call is recorded at the name its caller uses (``embed.eval_field`` and
``fbsde.eval_field`` both land in the ``field.eval_field`` span).  Spans are
kept in memory as ``[id, parent, name, start_ns, end_ns]`` and written once,
when the process ends.  Clocks are ``time.monotonic_ns``, which is one
system-wide clock on Linux, so the spans of several processes line up.
"""

from __future__ import annotations

import collections
import functools
import json
import os
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: collections.Counter = collections.Counter()
        self.values: dict[str, float] = {}

    def open(self, name: str, start: int | None = None) -> list:
        rec = [len(self.spans), self.stack[-1] if self.stack else None, name,
               time.monotonic_ns() if start is None else start, 0]
        self.spans.append(rec)
        self.stack.append(rec[0])
        return rec

    def close(self, rec: list) -> None:
        rec[4] = time.monotonic_ns()
        self.stack.pop()

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][2] if self.stack else None

    def wrap(self, orig, name, after=None):
        """Wrapper recording a span per call; ``name`` may be a function of
        the call arguments and ``after(tracer, args, kwargs, result)`` adds
        counts once the call returned."""
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            rec = tracer.open(name(args, kwargs) if callable(name) else name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(rec)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result
        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       "values": self.values}, fh, separators=(",", ":"))


# -- count hooks --------------------------------------------------------------

def _arg(args, kwargs, pos, key, default=None):
    return args[pos] if len(args) > pos else kwargs.get(key, default)


_STRONG_SPANS = ("embed.strong", "embed.round_trip")


def _eval_points(t, a, k, res):
    n = int(np.broadcast(np.asarray(a[1]), np.asarray(a[2]),
                         np.asarray(a[3])).size)
    t.counts["field.eval_points"] += n
    # u1 lookups made directly by the strong embedding or the round trip are
    # the strong rule's active path-steps (path simulation sits in between
    # otherwise)
    if _arg(a, k, 4, "which", "u") == "u1" and t.current() in _STRONG_SPANS:
        t.counts["embed.strong_u1_points"] += n


def _phi_inv_points(t, a, k, res):
    t.counts["measure.phi_inv_points"] += int(np.size(a[0]))


def _clock_points(t, a, k, res):
    t.counts["coeffs.clock_H_inv_points"] += int(np.size(a[1]))


def _artifact_bytes(t, a, k, res):
    from skofbsde.field import sidecar_path
    path = a[1]
    t.counts["field.artifact_bytes"] += (os.path.getsize(path)
                                         + os.path.getsize(sidecar_path(path)))


def _block_paths(t, a, k, res):
    n = len(res)
    t.counts["fbsde.paths"] += n
    t.counts["fbsde.path_steps"] += n * int(_arg(a, k, 3, "n_steps"))


def _ensemble_paths(t, a, k, res):
    t.counts["fbsde.paths"] += res.n_paths
    t.counts["fbsde.path_steps"] += res.n_paths * res.n_steps


def _strong_result(t, a, k, res):
    t.counts["embed.guard_hits"] += sum(res.guard_counts.values())
    t.values["embed.clamp_fraction"] = max(
        t.values.get("embed.clamp_fraction", 0.0), float(res.clamp_fraction))


def _deriv_name(args, kwargs):
    method = _arg(args, kwargs, 1, "method", "finite_difference")
    return "field.deriv_check" if method == "coupled_system" else "field.fd_derivatives"


def _deriv_result(t, a, k, res):
    if res.deriv_mismatch is not None:
        t.values["field.deriv_mismatch"] = float(res.deriv_mismatch)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every skofbsde module in place."""
    from skofbsde import cli, coeffs, embed, fbsde, field, measure, verify
    modules = (cli, coeffs, embed, fbsde, field, measure, verify)

    functions = [
        (cli, "cmd_solve", "cli.solve", None),
        (cli, "cmd_embed", "cli.embed", None),
        (cli, "cmd_verify", "cli.verify", None),
        (measure, "make_g", "measure.make_g", None),
        (measure, "phi_inv", "measure.phi_inv", _phi_inv_points),
        (field, "solve_banded", "field.solve_banded", None),
        (field, "solve_field", "field.solve", None),
        (field, "derivative_fields", _deriv_name, _deriv_result),
        (field, "field_diagnostics", "field.diagnostics", None),
        (field, "save_field", "field.save", _artifact_bytes),
        (field, "load_field", "field.load", None),
        (field, "eval_field", "field.eval_field", _eval_points),
        (fbsde, "normal_increments", "fbsde.normal_increments", None),
        (fbsde, "simulate_block", "fbsde.simulate", _block_paths),
        (fbsde, "simulate_ensemble", "fbsde.simulate", _ensemble_paths),
        (fbsde, "backward_residual", "fbsde.backward_residual", None),
        (fbsde, "martingale_check", "fbsde.martingale_check", None),
        (embed, "weak_embed", "embed.weak_embed", None),
        (embed, "weak_embed_ensemble", "embed.weak", None),
        (embed, "strong_embed_on_W", "embed.strong", _strong_result),
        (embed, "coupled_round_trip", "embed.round_trip", None),
        (verify, "law_report", "verify.law_report", None),
        (verify, "histogram_csv", "verify.histogram", None),
    ]
    for home, attr, name, after in functions:
        orig = getattr(home, attr)
        wrapper = tracer.wrap(orig, name, after)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)

    methods = [
        (cli.RunConfig, "from_file", "cli.config", None),
        (coeffs.ProcessCoefficients, "__init__", "coeffs.build", None),
        (coeffs.ProcessCoefficients, "delayed_drift", "coeffs.build", None),
        (coeffs.ProcessCoefficients, "clock_H_inv", "coeffs.clock_H_inv",
         _clock_points),
        (coeffs.TimeFunction, "__call__", "coeffs.timefn", None),
        (measure.QuantileTransform, "__call__", "measure.g", None),
        (verify.OracleField, "validate", "verify.oracle_validate", None),
        (verify.OracleField, "__call__", "verify.oracle", None),
    ]
    for cls, attr, name, after in methods:
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(raw.__func__, name, after)))
        else:
            setattr(cls, attr, tracer.wrap(raw, name, after))
