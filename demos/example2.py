"""Benchmark walkthrough at fractional order 1.2.

Same plant as demos/example1.py, but the order now lies in (1, 2), where
the stable region |arg z| > alpha*pi/2 is a convex cone.  ``synth_observer``
and ``synth_output_feedback`` pose the conic-sector LMIs on the order-1.2
plant itself, with strict certificates, and return K and L on its own
state; the loops are verified and simulated on the plant at order 1.2.
The script also shows the order-lifting transform, an equivalent order-0.6
descriptor system of twice the dimension (k = 2), which gains sized for its
state still use: why the lifted pair can never be impulse-free in the
strict sense, and how the effective criterion accounts for the structural
rank deficit.

Run:  python3 demos/example2.py [output-dir]
"""

import json
import sys

import numpy as np

from sfos import (DescriptorSystem, SimConfig, analyze, lift, simulate,
                  synth_observer, synth_output_feedback)
from sfos.lifting import analyze_lifted_pair

ALPHA = 1.2

PLANT = DescriptorSystem(
    E=np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]]),
    A=np.array([[1.0, 1.0, -1.0], [2.0, -2.0, -1.0], [4.0, 1.0, -4.0]]),
    B=np.array([[1.0], [1.0], [1.0]]),
    C=np.array([[1.0, 0.0, 1.0]]),
    alpha=ALPHA)

X0 = np.array([-0.25, 2.0, 0.25])


def banner(text):
    print(f"\n=== {text} ===")


def main(out_dir="example2-out"):
    banner(f"Open-loop analysis (order {ALPHA})")
    report = analyze(PLANT)
    print(f"regular / impulse-free / stable: {report.regular} / "
          f"{report.impulse_free} / {report.stable}")
    print("-> same pencil as the order-0.6 case, but the stability sector "
          "|arg z| > alpha*pi/2 is now narrower, so stabilizing is harder.")

    banner("Order lifting (k = 2)")
    ls = lift(PLANT, 2)
    L = ls.lifted
    print(f"lifted dimensions: n = {L.n}, order = {L.alpha}")
    print(f"rank(E_lifted) = {L.r} vs k*rank(E) = {2 * PLANT.r}")
    lifted_report = analyze_lifted_pair(L.E, L.A, PLANT.r, 2, L.alpha)
    print(f"strict impulse-freeness: {lifted_report.strict.impulse_free} "
          "(structurally impossible: the lift adds n - rank(E) extra "
          "rank to E)")
    print(f"effective impulse-freeness: {lifted_report.effective_impulse_free}")

    banner("Synthesis on the order-1.2 plant")
    obs = synth_observer(PLANT, decay_shift_state=1.0,
                         decay_shift_injection=1.0)
    out = synth_output_feedback(PLANT, decay_shift=1.0)
    print(f"K (1x3, on the plant's own state): {np.round(obs.K, 4)}")
    print(f"L (3x1): {np.round(obs.L.ravel(), 4)}")
    print(f"F (static, order-independent): "
          f"{np.round(np.atleast_2d(out.F), 4)}")
    print("certificates:",
          {k: c.status for k, c in obs.certificates.items()},
          {k: c.status for k, c in out.certificates.items()})
    print("-> strictly Feasible certificates: the sector LMIs hold on the "
          "plant itself, and its loops are checked there, at order 1.2.")
    print(f"closed loops admissible: observer "
          f"{obs.closed_loop_report.admissible}, output "
          f"{out.closed_loop_report.admissible}")

    banner("Simulation (T = 20, h = 1e-3, stepped at order 1.2)")
    cfg = SimConfig(h=1e-3, T=20.0, x0=X0, xhat0=np.zeros(3),
                    gate_first_input=True)
    traj_obs = simulate(PLANT, obs, cfg)
    cfg_out = SimConfig(h=1e-3, T=20.0, x0=X0, gate_first_input=True)
    traj_out = simulate(PLANT, ("output", out.F), cfg_out)
    for name, traj in (("observer loop", traj_obs), ("output loop", traj_out)):
        s = traj.summary()
        print(f"{name}: ||x(T)||/||x(0)|| = {s['final_norm_ratio']:.4f}, "
              f"algebraic residual = {s['max_algebraic_residual']:.2e}")
    print("-> final-norm ratios are an order of magnitude below the "
          "order-0.6 runs of example1 at the same horizon: higher "
          "fractional order means faster convergence once stabilized.")

    import os
    os.makedirs(out_dir, exist_ok=True)
    traj_obs.to_csv(os.path.join(out_dir, "observer_loop.csv"))
    traj_out.to_csv(os.path.join(out_dir, "output_loop.csv"))
    with open(os.path.join(out_dir, "gains.json"), "w") as fh:
        json.dump({"K": obs.K.tolist(), "L": obs.L.tolist(),
                   "F": np.atleast_2d(out.F).tolist()}, fh, indent=2)
    print(f"\ntrajectories and gains written to {out_dir}/")


if __name__ == "__main__":
    main(*sys.argv[1:2])
