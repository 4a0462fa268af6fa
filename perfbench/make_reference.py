"""Recompute the committed references in ``reference.json``.

The references are independent of the timed code paths:

* ``alg1-mlp``: exact ε from the twin MILP (``certify_exact_global``);
* ``alg1-cnn``: a PGD under-approximation ε̲ per output (fixed seed);
* ``eps-queries``: exact local ε per query (``certify_local_exact``);
* ``acc-invariant``: the certified ē of the seed implementation.

Run from the repository root (takes a few minutes)::

    python3 perfbench/make_reference.py > perfbench/reference.json
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))


def _local_exact(center):
    from repro.bounds import Box
    from repro.certify import certify_local_exact
    from repro.zoo import get_network

    from workloads import EpsQueries

    network = get_network(5).network
    domain = Box.uniform(network.input_dim, 0.0, 1.0)
    return certify_local_exact(network, center, EpsQueries.DELTA, domain=domain).epsilon


def main() -> None:
    import multiprocessing

    from repro.bounds import Box
    from repro.certify import certify_exact_global, pgd_underapproximation
    from repro.data import load_digits
    from repro.zoo import get_network

    from workloads import EpsQueries

    ref: dict = {"alg1-mlp": {}}
    for i in (1, 2, 3):
        entry = get_network(i)
        box = Box.uniform(entry.network.input_dim, 0.0, 1.0)
        cert = certify_exact_global(entry.network, box, entry.delta)
        ref["alg1-mlp"][f"dnn{i}"] = [float(e) for e in cert.epsilons]

    entry = get_network(6, image_size=10)
    images, _ = load_digits(60, size=10, seed=123)
    under = pgd_underapproximation(
        entry.network, images, entry.delta, steps=30, clip_lo=0.0, clip_hi=1.0, seed=0
    )
    ref["alg1-cnn"] = {"dnn6": [float(e) for e in under.epsilons]}

    get_network(5)  # train once before the workers load it
    centers, _ = EpsQueries.draw()
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
        exact = list(pool.map(_local_exact, list(centers)))
    ref["eps-queries"] = {"exact": [float(e) for e in exact]}

    ref["acc-invariant"] = {"e_bar": 0.1318359375}
    json.dump(ref, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
