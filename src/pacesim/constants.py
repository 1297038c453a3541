"""Implementation constants behind every runnable bound check.

The analytic statements being verified hide absolute constants; the checks
here use the fixed, auditable values below so every pass/fail is
reproducible.  Probabilistic checks get MC_SIGMA standard errors of slack,
sure (deterministic) inequalities get SURE_TOL.
"""

#: Multiplier on the additive n*v_cap*sqrt(T log(v_cap n T)) welfare slack.
WELFARE_BOUND_CONSTANT = 3.0

#: Multiplier on the dynamic-regret right-hand sides.
REGRET_BOUND_CONSTANT = 10.0

#: Multiplier on the projected-SGD regret bound D^2 P / eps + eps G^2 T.
SGD_BOUND_CONSTANT = 4.0

#: Standard-error slack for Monte Carlo pass criteria.
MC_SIGMA = 3.0

#: Tolerance of every sure inequality in money units (auction predicates,
#: pacing conformance, epoch and budget checks, verify's checkers), for
#: double-precision sums over horizons up to 1e6 rounds.
SURE_TOL = 1e-9

#: Two-sided 99% normal quantile for replication confidence intervals.
Z99 = 2.5758293035489004
