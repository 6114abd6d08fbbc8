"""Series analytics against their quadrature oracles.

Every analytic quantity of the two-parameter model ships as a series
expansion plus an independent adaptive-quadrature route; this script
prints them side by side so the agreement is visible.  The series is the
paper's binomial double series, summed as one power series in
u = 1 - exp(-lam*x) whose terms do not cancel.
"""

from pgduse import (
    ModelKind,
    PgduseParams,
    cf,
    cf_quadrature,
    kurtosis,
    mean,
    mgf,
    mgf_quadrature,
    raw_moment_quadrature,
    raw_moment_series,
    renyi_entropy,
    renyi_entropy_series,
    skewness,
    variance,
)

p = PgduseParams(lam=1.0, theta=2.0)

print("raw moments of PGDUSE(1, 2): series vs quadrature")
for r in (1, 2, 3, 4):
    s = raw_moment_series(p, r)
    q = raw_moment_quadrature(ModelKind.PGDUSE, p, r)
    print(f"  r={r}:  series={s:.12f}   quadrature={q:.12f}   rel gap={abs(s - q) / q:.2e}")

print("\nsummaries, each central moment one series about the mean at unit rate:")
print(f"  mean      = {mean(p):.8f}")
print(f"  variance  = {variance(p):.8f}")
print(f"  skewness  = {skewness(p):.8f}   at lam = 1e200: {skewness(PgduseParams(1e200, 2.0)):.8f}")
print(f"  kurtosis  = {kurtosis(p):.8f}")

print("\nmoment generating function (must be 1 at t = 0, finite for t < lam):")
for t in (-1.0, 0.0, 0.4):
    s = mgf(p, t)
    q = mgf_quadrature(p, t)
    print(f"  t={t:5.2f}:  series={s:.12f}   quadrature={q:.12f}")

print("\ncharacteristic function (complex; |cf| <= 1):")
for t in (0.0, 1.0, 2.5):
    s = cf(p, t)
    q = cf_quadrature(p, t)
    print(f"  t={t:4.1f}:  series={s:.9f}   quadrature={q:.9f}   |cf|={abs(s):.6f}")

print("\nRenyi entropy (quadrature is the primary definition):")
for delta in (0.5, 2.0, 3.0):
    q = renyi_entropy(ModelKind.PGDUSE, p, delta)
    s = renyi_entropy_series(p, delta)
    print(f"  delta={delta:3.1f}:  quadrature={q:.10f}   series={s:.10f}")

tiny = PgduseParams(1e-250, 2.0)
print(f"\nRenyi entropy at lam = 1e-250, delta = 2:  series={renyi_entropy_series(tiny, 2.0):.10f}"
      f"   quadrature={renyi_entropy(ModelKind.PGDUSE, tiny, 2.0):.10f}")

print("\nat theta = 50 the alternating binomial series loses every digit;")
print("the u-series keeps them, at a non-integer theta = 0.5 too:")
for theta in (0.5, 50.0):
    shape = PgduseParams(1.0, theta)
    s = raw_moment_series(shape, 2)
    q = raw_moment_quadrature(ModelKind.PGDUSE, shape, 2)
    print(f"  E[X**2] at theta={theta:4}:  series={s:.12f}  quadrature={q:.12f}  "
          f"rel gap={abs(s - q) / q:.2e}")

print("\neach sum sizes its window from its peak near term (theta + 1)/2,")
print("so the series reach theta of about 3850 with no option:")
far = PgduseParams(1.0, 1000.0)
s = mean(far)
q = raw_moment_quadrature(ModelKind.PGDUSE, far, 1)
print(f"  mean at theta=1000:  series={s:.12f}  quadrature={q:.12f}  rel gap={abs(s - q) / q:.2e}")
