"""Compare the power-split searchers on one real allocation surface.

After the blocked pipeline fixes its beams and reflections, the secrecy
rate reduces to a closed-form scalar function of two numbers: eta (the
BS share of the power) and beta (the confidential-stream share of the BS
power).  That surface is cheap to evaluate in bulk, so it can be drawn —
and every searcher can be judged against the exhaustive optimum.

Run:  python3 demos/pa_search_comparison.py
"""

import time

import numpy as np

from airsdm import (
    BlockDesign,
    NoiseProfile,
    PaFactors,
    PaScalarContext,
    annealing_search,
    benchmark_scene,
    build_channels,
    dbm_to_watts,
    exhaustive_search,
    fixed_beta_search,
    fixed_eta_search,
    fixed_point_search,
    mrr_reflect,
    nsp_beamformers,
    pso_search,
)

cfg = benchmark_scene(irs1_pos=(95.0, 15.0, 5.0), irs2_pos=(115.0, 5.0, 5.0))
_, bch = build_channels(cfg)
p_s = dbm_to_watts(20.0)
noise_w = dbm_to_watts(-70.0)
noise = NoiseProfile(sigma2_irs=noise_w, sigma2_b=noise_w, sigma2_e=noise_w)

# one pipeline pass pins beams and reflections; the PA surface is what's left
d = BlockDesign(
    v_b=np.zeros(cfg.m_bs, dtype=complex),
    v_e=np.zeros(cfg.m_bs, dtype=complex),
    theta1=np.ones(cfg.n1, dtype=complex) / np.sqrt(cfg.n1),
    theta2=np.ones(cfg.n2, dtype=complex) / np.sqrt(cfg.n2),
    rho1=0.0, rho2=0.0, pa=PaFactors(0.5, 0.5, 0.8), p_s=p_s,
)
d.v_b, d.v_e, _ = nsp_beamformers(bch, d)
d.theta1, d.theta2, _ = mrr_reflect(bch, d)
surface = PaScalarContext(bch, d, noise)

print("secrecy rate over the (eta, beta) box, drawn at 30x14 resolution")
print("(rows: beta 0.99 at the top; columns: eta 0.01 -> 0.99; @ = best)\n")
etas = np.linspace(0.01, 0.99, 30)
betas = np.linspace(0.01, 0.99, 14)
E, B = np.meshgrid(etas, betas)
Z = surface(E, B)
shades = " .:-=+*#%"
lo, hi = Z.min(), Z.max()
for i in reversed(range(len(betas))):
    row = ""
    for j in range(len(etas)):
        t = (Z[i, j] - lo) / (hi - lo)
        row += "@" if Z[i, j] == hi else shades[int(t * (len(shades) - 1))]
    print("   " + row)
print(f"\n   range {lo:.4f} .. {hi:.4f} bits  "
      f"(ridge: push power to the BS, then almost all of it to the stream)")

print(f"\n{'searcher':>12}  {'eta':>5}  {'beta':>5}  {'SR bits':>9}  "
      f"{'evals':>6}  {'wall ms':>8}")
searchers = [
    ("exhaustive", exhaustive_search),
    ("PSO", pso_search),
    ("annealing", annealing_search),
    ("fixed eta", fixed_eta_search),
    ("fixed beta", fixed_beta_search),
    ("fixed both", fixed_point_search),
]
best = None
for name, fn in searchers:
    t0 = time.perf_counter()
    res = fn(surface, 11)
    ms = 1e3 * (time.perf_counter() - t0)
    print(f"{name:>12}  {res.point[0]:>5.2f}  {res.point[1]:>5.2f}  "
          f"{res.value:>9.4f}  {res.evaluations:>6d}  {ms:>8.1f}")
    if best is None:
        best = res.value
print(f"\nexhaustive search is the yardstick: its grid contains every fixed")
print(f"baseline, so nothing above can beat {best:.4f} bits on this grid —")
print(f"the stochastic searchers' job is matching it with ~3x fewer evals.")
