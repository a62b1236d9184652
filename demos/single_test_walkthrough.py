"""End-to-end walkthrough: simulate, fit, and test one dataset per model.

Model 1 is the scalar nonlinear regression with reciprocal-linear mean;
model 2 the random-intercept/slope mixed linear model.  For each we fit
the unrestricted and null-restricted maximum likelihood estimates and
report the standard statistics (LR, and the signed root r when the
interest parameter is scalar) next to their higher-order-adjusted
versions (r*, LR*, LR**).  The adjusted tests are the point of the
package: in small samples their null distributions track the asymptotic
references far better than the unadjusted ones.

Run:  python demos/single_test_walkthrough.py
"""

import numpy as np

from elliplrt import (
    EllipticalFamily,
    Hypothesis,
    Sampler,
    design_template,
    fit,
    mixed_model2,
    nonlinear_model1,
    run_test,
)
from elliplrt.montecarlo import NULL_THETA

rng = np.random.default_rng(7)

# ---------------------------------------------------------------------------
# Model 1 under Student-t(4) errors, n = 14
# ---------------------------------------------------------------------------
print("=" * 72)
print("Model 1: mu = 1/(1 + b0 + b1 x1 + b2 x2 + b3 x2^2), Student-t(4) errors")
print("=" * 72)
family = EllipticalFamily.student_t(4.0)
model = nonlinear_model1()
# y_i = mu_i + P_i s_i at the null setting, on a design of n = 14 drawn from rng
data = Sampler(model, NULL_THETA["model1"], design_template("model1", 14, rng), family).draw(rng)

result = fit(model, family, data)
print(f"\nMLE (converged={result.converged}, {result.iterations} iterations,"
      f" {result.evaluations} model evaluations, |score| = {result.score_norm:.2e})")
for name, val, se in zip(model.param_names, result.theta, result.stderr):
    print(f"  {name:8s} {val:10.5f}  (se {se:.5f})")

print("\nOne-sided test of b3 >= 0 against b3 < 0:")
rep = run_test(model, family, data, Hypothesis((3,), [0.0], "lower"))
print(f"  r  = {rep.r:7.3f}   p = {rep.p_r:.4f}")
print(f"  r* = {rep.r_star:7.3f}   p = {rep.p_r_star:.4f}   (gamma = {rep.gamma:.4f})")

print("\nTwo-sided test of (b2, b3) = (0, 0):")
rep2 = run_test(model, family, data, Hypothesis((2, 3), [0.0, 0.0], "two"))
print(f"  LR   = {rep2.LR:7.3f}   p = {rep2.p_LR:.4f}")
print(f"  LR*  = {rep2.LR_star:7.3f}   p = {rep2.p_LR_star:.4f}")
print(f"  LR** = {rep2.LR_star2:7.3f}   p = {rep2.p_LR_star2:.4f}   (rho = {rep2.rho:.4f})")

# ---------------------------------------------------------------------------
# Model 2 under normal errors, n = 16 units
# ---------------------------------------------------------------------------
print()
print("=" * 72)
print("Model 2: mu = X beta, Sigma = Z Delta Z' + sigma2 I, normal errors")
print("=" * 72)
family2 = EllipticalFamily.normal()
model2 = mixed_model2()
data2 = Sampler(model2, NULL_THETA["model2"], design_template("model2", 16, rng), family2).draw(rng)

result2 = fit(model2, family2, data2)
print(f"\nMLE (converged={result2.converged}, |score| = {result2.score_norm:.2e})")
print("(one draw of n = 16 units: the large random-effect variances leave")
print(" the fixed effects weakly identified, hence the wide standard errors)")
for name, val, se in zip(model2.param_names, result2.theta, result2.stderr):
    print(f"  {name:8s} {val:12.4f}  (se {se:.4f})")

print("\nTest of the group-effect block (b2, b3, b4) = 0 (q = 3):")
rep3 = run_test(model2, family2, data2, Hypothesis((2, 3, 4), [0.0, 0.0, 0.0], "two"))
print(f"  LR   = {rep3.LR:7.3f}   p = {rep3.p_LR:.4f}")
print(f"  LR*  = {rep3.LR_star:7.3f}   p = {rep3.p_LR_star:.4f}")
print(f"  LR** = {rep3.LR_star2:7.3f}   p = {rep3.p_LR_star2:.4f}   (rho = {rep3.rho:.4f})")
print("\nflags:", rep3.flags or "none")
print("\nThe signed-root and gamma fields exist only for scalar interest")
print("blocks; a q >= 2 report simply omits them.")
