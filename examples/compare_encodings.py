"""Deep-dive: why interleaving beats the basic twin encoding.

Sweeps the perturbation bound δ on a trained network and plots (as text)
how the certified bound degrades under four pipelines: exact, ITNE-LPR,
BTNE-LPR, and interval arithmetic (twin IBP).  Shows the key phenomenon:
BTNE's bound is *flat* in δ (it loses the perturbation constraint beyond
the input layer), while ITNE tracks the exact curve.

Run:
    python examples/compare_encodings.py
"""

import numpy as np

from repro.bounds import Box, get_propagator
from repro.certify import CertifierConfig, GlobalRobustnessCertifier, certify_exact_global
from repro.certify.comparisons import certify_global_btne_nd
from repro.data import load_auto_mpg
from repro.nn import Dense, Network, TrainConfig, train
from repro.utils import format_table


def main() -> None:
    rng = np.random.default_rng(2)
    x, y = load_auto_mpg(300, seed=2)
    net = Network(
        (7,),
        [Dense(7, 5, relu=True, rng=rng), Dense(5, 5, relu=True, rng=rng),
         Dense(5, 1, rng=rng)],
    )
    train(net, x, y, config=TrainConfig(epochs=60, batch_size=32))
    domain = Box.uniform(7, 0.0, 1.0)
    chain = net.to_affine_layers()

    rows = []
    for delta in (0.0005, 0.001, 0.002, 0.005, 0.01):
        exact = certify_exact_global(net, domain, delta)
        itne = GlobalRobustnessCertifier(
            net, CertifierConfig(window=2, refine_count=0)
        ).certify(domain, delta)
        btne = certify_global_btne_nd(net, domain, delta)
        ibp_eps = float(
            get_propagator("ibp")
            .propagate(chain, domain, delta)
            .output_variation_bounds()
            .max()
        )
        rows.append(
            [
                f"{delta:g}",
                f"{exact.epsilon:.5f}",
                f"{itne.epsilon:.5f}",
                f"{ibp_eps:.5f}",
                f"{btne.epsilon:.5f}",
            ]
        )

    print(format_table(
        ["δ", "exact ε", "ITNE-LPR ε̄", "twin-IBP ε̄", "BTNE-ND ε̄"],
        rows,
        title="Certified global robustness vs perturbation bound",
    ))
    print(
        "\nNote how BTNE-ND's column does not change with δ: once the "
        "hidden layers lose the distance variables, the bound degenerates "
        "to the difference of two independent output ranges.  Twin IBP is "
        "δ-aware but loose; ITNE-LPR follows the exact curve closely at a "
        "tiny fraction of the cost."
    )


if __name__ == "__main__":
    main()
