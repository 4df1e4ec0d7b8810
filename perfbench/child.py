"""One benchmark process: a configuration set-up, a traced CLI step or the
library-API verification workload.

    python3 perfbench/child.py [--trace FILE] setup --config CFG
    python3 perfbench/child.py --trace FILE cli <skofbsde args>
    python3 perfbench/child.py [--trace ...] verification --config CFG \
        --seed S --steps N --ensemble N --ensemble-steps N --round-trip N \
        --subset N --out JSON

With ``--trace`` the skofbsde modules are wrapped by ``tracer.install`` and
the spans are written to FILE when the process ends; without it the child
runs the package untouched.  The untraced CLI workloads do not come through
here at all: they run ``python -m skofbsde.cli`` directly.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

# the verification workload follows the acceptance gate: Cole-Hopf oracle of
# the linear delayed drift with the shipped config's alpha
ORACLE_KAPPA = 0.25
ORACLE_X1_BOX = 2.0


def verification(args) -> dict:
    """Solve, cross-check and validate the field through the library API,
    then run the ensemble, backward-residual and round-trip checks."""
    import numpy as np
    from skofbsde import cli, embed, fbsde, field, verify
    cfg = cli.RunConfig.from_file(args.config)
    f = field.solve_field(cfg.g, cfg.delta, cfg.solver)
    field.derivative_fields(f, "coupled_system", g=cfg.g, delta=cfg.delta)
    mismatch = f.deriv_mismatch
    field.derivative_fields(f, "finite_difference")
    diag = field.field_diagnostics(f, cfg.g, cfg.delta)

    ens = fbsde.simulate_ensemble(f, args.ensemble, args.ensemble_steps,
                                  args.seed)
    mart = fbsde.martingale_check(ens)

    paths = fbsde.simulate_block(f, args.seed, range(args.subset), args.steps)
    resid = [fbsde.backward_residual(p) for p in paths]
    weak = [embed.weak_embed(p, cfg.coefficients, g=cfg.g) for p in paths]

    rt = embed.coupled_round_trip(f, cfg.coefficients, args.round_trip,
                                  args.steps, args.seed)

    oracle = verify.OracleField("linear_drift", cfg.g, kappa=ORACLE_KAPPA)
    oracle.validate()
    mask = np.abs(f.x1_grid) <= ORACLE_X1_BOX
    oracle_err = float(np.abs(f.u[0, mask, 0]
                              - oracle(0.0, f.x1_grid[mask], 0.0)).max())
    return {
        "tau_bound": embed.tau_bound(f, cfg.coefficients),
        "g_lipschitz": f.g_lipschitz,
        "diagnostics_passed": diag.all_passed,
        "deriv_mismatch": mismatch,
        "martingale_mean_passed": bool(mart.mean_passed.all()),
        "martingale_mean_Y": mart.mean_Y.tolist(),
        "martingale_band": mart.band.tolist(),
        "martingale_y0": mart.y0,
        "ensemble_z_abs_max_raw": ens.z_abs_max_raw.tolist(),
        "ensemble_Y_T": ens.Y_T.tolist(),
        "backward_residual": resid,
        "weak_stopped_value": [w.stopped_value for w in weak],
        "weak_identity_residual": [w.identity_residual for w in weak],
        "round_trip_tau_weak": rt["tau_weak"].tolist(),
        "round_trip_tau_strong": rt["tau_strong"].tolist(),
        "round_trip_dr": rt["dr"],
        "round_trip_mean_abs_diff": rt["mean_abs_diff"],
        "round_trip_max_abs_diff": rt["max_abs_diff"],
        "oracle_err": oracle_err,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--trace", default=None)
    sub = ap.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--config", required=True)
    p = sub.add_parser("cli")
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    p = sub.add_parser("verification")
    p.add_argument("--config", required=True)
    for name in ("seed", "steps", "ensemble", "ensemble-steps", "round-trip",
                 "subset"):
        p.add_argument(f"--{name}", type=int, required=True)
    p.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    t_import = time.monotonic_ns()
    from skofbsde import cli
    tracer = None
    if args.trace:
        from tracer import Tracer, install
        tracer = Tracer()
        tracer.close(tracer.open("cli.import", start=t_import))
        install(tracer)
        # the child's own code is benchmark orchestration, except cli.main
        rec = tracer.open("cli.main" if args.mode == "cli" else f"bench.{args.mode}")
    try:
        if args.mode == "setup":
            cli.RunConfig.from_file(args.config)
            rc = 0
        elif args.mode == "cli":
            rc = cli.main(args.cli_args)
        else:
            result = verification(args)
            with open(args.out, "w") as fh:
                json.dump(result, fh, sort_keys=True)
            rc = 0
    finally:
        if tracer is not None:
            tracer.close(rec)
            tracer.dump(args.trace)
    return rc


if __name__ == "__main__":
    sys.exit(main())
