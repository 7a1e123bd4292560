"""Is the relaxed model evaluation faithful to the discrete one?

Three checks, all on one toy masked sequence model: (1) one-hot fidelity is
exact by construction here, because discrete and relaxed evaluation share a
single code path; (2) mixture consistency compares relaxed conditionals on
blurred inputs against Monte Carlo averages of discrete conditionals, where
the model's nonlinearity makes agreement genuinely approximate; (3) library
ranking checks that a cheap relaxed score orders variant libraries the same
way as discrete pseudo-likelihoods. Plus temperature calibration against a
deliberately re-scaled reference.
"""

import numpy as np

from rss import MaskedSequenceModel, Rng, calibrate_temperature
from rss.verify import random_sequences, run_validation_suite

model = MaskedSequenceModel.random(length=32, vocab=20, width=16, rng=Rng(8002))

reports = run_validation_suite(model, seed=8001, n_sequences=50, n_libraries=20)
print("validation metrics:")
for name in sorted(reports):
    rep = reports[name]
    value = "undefined" if rep.value is None else f"{rep.value:.4g}"
    print(f"  {name:42s} {value:>10s}   (n={rep.sample_count})")

print("\nNote the exact zeros in the one-hot family: the relaxed path on exact")
print("one-hot rows IS the discrete path. Mixture JS grows with blur eps, and")
print("the library correlations stay high without being identically 1.")

# temperature calibration: a reference whose logits are half as sharp should
# calibrate to tau ~ 2
rng = Rng(77)
contexts = [
    (seq, rng.integer(32)) for seq in random_sequences(32, 20, 60, rng)
]
tau_self = calibrate_temperature(model, model, contexts)
tau_half = calibrate_temperature(model, model.scaled(0.5), contexts)
print(f"\ncalibrated tau against itself          : {tau_self:.4f} (expect 1)")
print(f"calibrated tau against half-sharp ref  : {tau_half:.4f} (expect 2)")
