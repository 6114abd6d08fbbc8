"""The ball-bearing benchmark: fit all five models and rank them.

Reproduces the published comparison on Lawless's 23 bearing failure
times: PGDUSE wins on every criterion (highest log-likelihood and
p-value, lowest AIC, BIC, and KS distance).  The footnotes document the
two places where the published table is internally inconsistent and this
package reports recomputed values instead.
"""

from pgduse import compare, fit_mle, load_dataset, ModelKind

data = load_dataset("lawless")
print(f"data: {data}")
print(f"mean failure time: {data.mean:.3f} million revolutions\n")

table = compare(data)

header = f"{'model':8s} {'params':34s} {'logL':>10s} {'AIC':>9s} {'BIC':>9s} {'KS':>8s} {'p':>8s}"
print(header)
print("-" * len(header))
for row in table.rows:
    params = ", ".join(f"{k}={v:.6g}" for k, v in row.param_dict().items())
    print(
        f"{row.kind.value:8s} {params:34s} {row.log_likelihood:10.4f}"
        f" {row.aic:9.4f} {row.bic:9.4f} {row.ks_d:8.5f} {row.p_value:8.5f}"
    )

print()
for note in table.footnotes:
    print(f"note: {note}")

best = table.best()
print(f"\nbest model by AIC: {best.kind.value} with params {best.param_dict()}")

print("\nthe exponential submodel has a closed-form estimate (n / sum):")
ed = fit_mle(ModelKind.ED, data)
print(f"  theta_hat = {ed.params.value:.10f} = {data.n} / {data.total}")
