"""Benchmark — array-native vs per-neuron MILP model construction.

The encoders emit whole layers as COO blocks (``Model.add_linear_rows``).
The per-neuron side is the dict-based reference in
``tests/encoding/_reference.py``: ``row_dot`` folds every weight into a
coefficient dict per neuron, then every ReLU constraint copies that dict
again.  This bench measures the build-time ratio on the Table-1 MNIST
net (DNN-6) and verifies the two produce bit-identical standard-form
matrices (up to row order, which is canonicalized before comparison).

Run standalone (used by CI in smoke mode, no model training needed)::

    PYTHONPATH=src python -m benchmarks.bench_encoding --smoke

or as part of the benchmark suite::

    PYTHONPATH=src python -m pytest benchmarks/bench_encoding.py -s
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from benchmarks.conftest import write_bench_json
from repro.bounds import Box
from repro.encoding import encode_btne, encode_itne, encode_single_network
from repro.nn.affine import AffineLayer
from repro.utils import format_table
from tests.encoding._reference import reference_btne, reference_itne, reference_single


def tiny_chain(rng, depth=3, width=16, in_dim=8, out_dim=2):
    """Smoke-mode stand-in: one tiny random net, trains nothing."""
    dims = [in_dim] + [width] * (depth - 1) + [out_dim]
    return [
        AffineLayer(
            rng.standard_normal((dims[i + 1], dims[i])),
            0.1 * rng.standard_normal(dims[i + 1]),
            relu=i < depth - 1,
        )
        for i in range(depth)
    ]


def canonical_standard_form(model):
    """Dense standard form with (A|b) rows sorted lexicographically."""
    c, a_ub, b_ub, a_eq, b_eq, bounds, integrality = model.to_standard_form()

    def sort_rows(a, b):
        stacked = np.hstack([a, b[:, None]])
        return stacked[np.lexsort(stacked.T[::-1])]

    return c, sort_rows(a_ub, b_ub), sort_rows(a_eq, b_eq), np.array(bounds), integrality


def matrices_identical(model_a, model_b) -> bool:
    """Bit-identical standard forms (canonical row order)."""
    for part_a, part_b in zip(
        canonical_standard_form(model_a), canonical_standard_form(model_b)
    ):
        if part_a.shape != part_b.shape or not np.array_equal(part_a, part_b):
            return False
    return True


def _time_build(build, repeats: int) -> tuple[float, object]:
    best = float("inf")
    enc = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        enc = build()
        best = min(best, time.perf_counter() - t0)
    return best, enc


def bench_encoders(layers, box, delta, repeats=3):
    """Time block vs per-neuron reference construction for all three encoders.

    Returns:
        ``(rows, speedups, all_identical, stats)`` — display table rows,
        the raw per-encoder speedup ratios, the overall matrix-equality
        verdict, and the machine-readable per-encoder stats.
    """
    builders = {
        "single": (
            lambda: encode_single_network(layers, box),
            lambda: reference_single(layers, box),
        ),
        "itne": (
            lambda: encode_itne(layers, box, delta),
            lambda: reference_itne(layers, box, delta),
        ),
        "btne": (
            lambda: encode_btne(layers, box, delta),
            lambda: reference_btne(layers, box, delta),
        ),
    }
    rows = []
    speedups = {}
    stats = {}
    all_identical = True
    for name, (build, build_ref) in builders.items():
        t_vec, enc_vec = _time_build(build, repeats)
        t_ref, enc_ref = _time_build(build_ref, max(1, repeats - 2))
        same = matrices_identical(enc_vec.model, enc_ref.model)
        all_identical &= same
        speedups[name] = t_ref / t_vec
        stats[name] = {
            "vars": enc_vec.model.num_vars,
            "constraints": enc_vec.model.num_constrs,
            "per_neuron_ms": t_ref * 1e3,
            "block_ms": t_vec * 1e3,
            "speedup": speedups[name],
            "identical": same,
        }
        rows.append(
            [
                name,
                f"{enc_vec.model.num_vars}",
                f"{enc_vec.model.num_constrs}",
                f"{t_ref * 1e3:.1f}",
                f"{t_vec * 1e3:.1f}",
                f"{speedups[name]:.1f}x",
                "yes" if same else "NO",
            ]
        )
    return rows, speedups, all_identical, stats


def run(smoke: bool, emit=print, write_json=write_bench_json) -> tuple[float, bool]:
    """Execute the bench; returns (itne_speedup, matrices_identical)."""
    if smoke:
        layers = tiny_chain(np.random.default_rng(0))
        delta = 0.01
        label = "smoke: random 8-16-16-2 net"
        repeats = 5
    else:
        from repro.zoo import get_network

        entry = get_network(6, image_size=10)
        layers = entry.network.to_affine_layers()
        delta = entry.delta
        label = f"Table-1 DNN-6 ({entry.description})"
        repeats = 3
    box = Box.uniform(layers[0].in_dim, 0.0, 1.0)
    rows, speedups, identical, stats = bench_encoders(
        layers, box, delta, repeats=repeats
    )
    emit(
        format_table(
            ["encoder", "vars", "rows", "per-neuron ms", "block ms",
             "speedup", "identical"],
            rows,
            title=f"encoding construction: {label}",
        )
    )
    if write_json is not None:
        write_json(
            "encoding",
            {"label": label, "smoke": smoke, "repeats": repeats,
             "all_identical": identical, "encoders": stats},
        )
    return speedups["itne"], identical


def test_bench_encoding(report, json_report):
    """Benchmark-suite entry: MNIST-scale net, asserts the PR targets."""
    speedup, identical = run(smoke=False, emit=report, write_json=json_report)
    assert identical, "block and per-neuron reference encodings diverged"
    assert speedup >= 3.0, f"ITNE construction speedup {speedup}x < 3x floor"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="one tiny random net (CI mode; no model training)",
    )
    args = parser.parse_args(argv)
    speedup, identical = run(smoke=args.smoke)
    if not identical:
        print("FAIL: assembly paths produced different matrices", file=sys.stderr)
        return 1
    # The speedup target applies to the MNIST-scale run; in smoke mode
    # the matrices-identical check is the contract (tiny nets leave
    # little per-coefficient work to vectorize away).
    if not args.smoke and speedup < 5.0:
        print(f"FAIL: ITNE speedup {speedup:.1f}x below 5x target", file=sys.stderr)
        return 1
    print(f"OK (itne speedup {speedup:.1f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
