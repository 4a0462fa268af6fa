"""Model zoo: the trained networks of Table I (and the case-study CNN).

The paper evaluates 8 DNNs — five Auto MPG regressors (2 FC hidden
layers, 8..64 hidden neurons) and three digit classifiers (1..3 conv
layers + 1 FC hidden layer).  This module trains equivalents on the
synthetic datasets with fixed seeds and caches them under
``.models/`` so benchmarks and tests reuse identical weights.

Scale note: the paper's MNIST nets have 1.4k–5.8k hidden neurons and are
certified in hours on a workstation.  To keep the full benchmark suite
runnable in CI, the zoo's conv nets use a 14×14 canvas and reduced
channel counts (hundreds of hidden neurons); the certification code
paths (conv→affine materialization, per-neuron LP, refinement) are
identical, only wall-clock scale differs.  ``perfbench/README.md``
records the DNN-6 canvas sizes the benchmark runs and their cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.data import load_auto_mpg, load_digits, train_test_split
from repro.nn import (
    AvgPool2D,
    Conv2D,
    Dense,
    Flatten,
    Network,
    TrainConfig,
    load_network,
    save_network,
    train,
)
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.optimizers import Adam

DEFAULT_CACHE = Path(__file__).resolve().parents[2] / ".models"


@dataclass
class ZooEntry:
    """A Table I row: the trained network plus its metadata.

    Attributes:
        id: DNN id (1..8, matching Table I).
        network: Trained model.
        dataset: ``"auto_mpg"`` or ``"digits"``.
        delta: The perturbation bound the paper certifies this net at.
        description: Architecture summary string.
    """

    id: int
    network: Network
    dataset: str
    delta: float
    description: str

    @property
    def hidden_neurons(self) -> int:
        """Table I's 'Neurons' column."""
        return self.network.num_hidden_neurons()


# Auto MPG DNN-1..5: two FC hidden layers with these total hidden sizes.
AUTOMPG_HIDDEN = {1: 8, 2: 12, 3: 16, 4: 32, 5: 64}

# Digit DNN-6..8: number of conv layers (channel ramp) before the FC layer.
DIGIT_CONVS = {6: (4,), 7: (4, 8), 8: (4, 8, 8)}


def _automgp_layers(total_hidden: int, rng: np.random.Generator):
    h1 = total_hidden // 2
    h2 = total_hidden - h1
    return [
        Dense(7, h1, relu=True, rng=rng),
        Dense(h1, h2, relu=True, rng=rng),
        Dense(h2, 1, rng=rng),
    ]


def automgp_network(dnn_id: int, seed: int = 0, epochs: int = 80) -> Network:
    """Train an Auto MPG regressor matching Table I row ``dnn_id``."""
    if dnn_id not in AUTOMPG_HIDDEN:
        raise ValueError(f"Auto MPG ids are 1..5, got {dnn_id}")
    rng = np.random.default_rng(seed + dnn_id)
    x, y = load_auto_mpg(400, seed=seed)
    x_tr, y_tr, x_te, y_te = train_test_split(x, y, seed=seed)
    net = Network((7,), _automgp_layers(AUTOMPG_HIDDEN[dnn_id], rng))
    train(
        net,
        x_tr,
        y_tr,
        config=TrainConfig(epochs=epochs, batch_size=32, seed=seed),
        x_val=x_te,
        y_val=y_te,
    )
    return net


def digit_network(
    dnn_id: int, seed: int = 0, epochs: int = 25, image_size: int = 14
) -> Network:
    """Train a digit classifier matching Table I row ``dnn_id``."""
    if dnn_id not in DIGIT_CONVS:
        raise ValueError(f"digit ids are 6..8, got {dnn_id}")
    rng = np.random.default_rng(seed + dnn_id)
    x, y = load_digits(1500, size=image_size, seed=seed)
    x_tr, y_tr, x_te, y_te = train_test_split(x, y, seed=seed)

    layers = []
    in_ch = 1
    h = w = image_size
    for out_ch in DIGIT_CONVS[dnn_id]:
        layers.append(Conv2D(in_ch, out_ch, kernel_size=3, relu=True, rng=rng))
        h -= 2
        w -= 2
        if h % 2 == 0 and w % 2 == 0 and min(h, w) >= 6:
            layers.append(AvgPool2D(2))
            h //= 2
            w //= 2
        in_ch = out_ch
    layers.append(Flatten())
    layers.append(Dense(in_ch * h * w, 32, relu=True, rng=rng))
    layers.append(Dense(32, 10, rng=rng))
    net = Network((1, image_size, image_size), layers)

    train(
        net,
        x_tr,
        y_tr,
        loss=SoftmaxCrossEntropy(),
        optimizer=Adam(lr=2e-3),
        config=TrainConfig(epochs=epochs, batch_size=64, seed=seed),
    )
    acc = SoftmaxCrossEntropy.accuracy(net.forward(x_te), y_te)
    if acc < 0.5:
        raise RuntimeError(f"digit net {dnn_id} trained poorly (acc={acc:.2f})")
    return net


def get_network(
    dnn_id: int,
    cache_dir: str | Path | None = None,
    seed: int = 0,
    image_size: int = 14,
) -> ZooEntry:
    """Fetch a Table I network, training and caching it on first use.

    Args:
        dnn_id: 1..8 as in Table I.
        cache_dir: Where ``.npz`` snapshots live (default ``.models/``).
        seed: Training seed (part of the cache key).
        image_size: Canvas edge for the digit networks (6..8); smaller
            values shrink the conv layers for faster certification runs.

    Returns:
        The :class:`ZooEntry`.
    """
    cache = Path(cache_dir) if cache_dir is not None else DEFAULT_CACHE
    cache.mkdir(parents=True, exist_ok=True)
    suffix = f"_s{image_size}" if dnn_id in DIGIT_CONVS and image_size != 14 else ""
    path = cache / f"dnn{dnn_id}_seed{seed}{suffix}.npz"

    if dnn_id in AUTOMPG_HIDDEN:
        dataset, delta = "auto_mpg", 0.001
        describe = f"FC 7-{AUTOMPG_HIDDEN[dnn_id] // 2}-{AUTOMPG_HIDDEN[dnn_id] - AUTOMPG_HIDDEN[dnn_id] // 2}-1"
        builder = lambda: automgp_network(dnn_id, seed=seed)  # noqa: E731
    elif dnn_id in DIGIT_CONVS:
        dataset, delta = "digits", 2.0 / 255.0
        describe = f"Conv×{len(DIGIT_CONVS[dnn_id])} + FC 32-10"
        builder = lambda: digit_network(dnn_id, seed=seed, image_size=image_size)  # noqa: E731
    else:
        raise ValueError(f"unknown DNN id {dnn_id}")

    if path.exists():
        network = load_network(path)
    else:
        network = builder()
        save_network(network, path)
    return ZooEntry(dnn_id, network, dataset, delta, describe)
