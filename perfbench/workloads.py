"""The benchmark's workloads.

Each workload is a closed loop with one client: ``setup`` builds everything
the loop needs and runs one warm-up operation, ``op`` runs one operation and
returns its result, and ``check`` says whether that result is correct.

* ``train_rev32`` trains the desk network in reversible mode, the paper's
  mechanism: sequence interiors are recomputed during backward.
* ``train_stored32`` runs the same network, seed and data with every
  activation stored, so recompute is bypassed and the tape is larger.
* ``infer64`` runs the eval path, ``unet.forward_full_volume``, on volumes
  with 8x the voxels: forward convolution only, with no tape or backward.
"""

from pathlib import Path

import numpy as np

from revvolnet import memory_model, tape, training, unet
from revvolnet.tensor import Tensor
from revvolnet.verification import relative_error

ROOT = Path(__file__).resolve().parents[1]
SPEC = ROOT / "specs" / "desk_reversible.spec"
NET_SEED = 0  # network initialisation; the workload seed drives the data
GRAD_TOLERANCE = 1e-4  # acceptance criterion 2's relative bound

_CONFIG = training.TrainingConfig()


def _volumes(seed, count, edge, modalities):
    rng = np.random.default_rng(seed)
    return rng, [training.generate_synthetic(rng, size=edge, modalities=modalities)
                 for _ in range(count)]


class TrainWorkload:
    """One op = augment, standardize, forward, Dice loss, backprop, Adam."""

    edge = 32
    pool_size = 4

    def __init__(self, seed, stored):
        self.seed = seed
        self.stored = stored

    @property
    def input_shape(self):
        return (1, self.spec.in_channels) + (self.edge,) * 3

    def setup(self):
        self.spec = unet.load_spec(SPEC)
        self.network = unet.build(self.spec, seed=NET_SEED)
        self.params = list(self.network.parameters())
        self.rng, self.pool = _volumes(self.seed, self.pool_size, self.edge,
                                       self.spec.in_channels)
        self.adam = training.AdamState()
        self.step = 0
        return self.op()

    def op(self):
        vol = self.pool[self.step % len(self.pool)]
        self.step += 1
        image, masks = training.augment(vol.image, vol.masks, self.rng)
        x = Tensor(training.standardize(image)[None])
        for p in self.params:
            p.zero_grad()
        with tape.Tape() as t:
            pred = self.network.forward(x, stored_activations=self.stored)
            self.tape_nodes, self.tape_retained_bytes = len(t.nodes), t.retained_bytes
            loss = training.dice_loss(pred, masks[None], _CONFIG.epsilon_dice)
            tape.backprop(t, loss)
        training.adam_step(self.params, self.adam, _CONFIG.initial_lr,
                           _CONFIG.weight_decay)
        self.peak_grad_bytes = t.last_backward_stats["peak_grad_bytes"]
        return loss.item()

    def check(self, loss) -> bool:
        return bool(np.isfinite(loss))

    def loss(self, result) -> float:
        return result

    def model_bytes(self) -> int:
        if self.stored:
            return memory_model.estimate_nonreversible(
                self.network, self.input_shape).total_nonrev_bytes
        return memory_model.estimate_partially_reversible(
            self.network, self.input_shape).total_prev_bytes

    def extra_checks(self) -> dict:
        """Reversible and stored parameter gradients of the trained network
        on the first volume must agree.

        The check runs after training steps, not at initialisation: the
        initial stem has zero bias, so on the zero background of a
        standardized volume the first group norm's output sits within
        rounding of the LeakyReLU kink, and the two modes legitimately take
        different one-sided derivatives there (see README.md).
        """
        vol = self.pool[0]
        x = Tensor(training.standardize(vol.image)[None])
        grads = {}
        for stored in (False, True):
            for p in self.params:
                p.zero_grad()
            with tape.Tape() as t:
                pred = self.network.forward(x, stored_activations=stored)
                tape.backprop(t, training.dice_loss(pred, vol.masks[None]))
            grads[stored] = [p.grad.data.copy() for p in self.params]
        worst = max(relative_error(a, b) for a, b in zip(grads[False], grads[True]))
        return {"grad_rel_error": {"value": worst, "pass": worst <= GRAD_TOLERANCE}}


class InferWorkload:
    """One op = ``unet.forward_full_volume`` on one standardized volume."""

    edge = 64
    pool_size = 2

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)

    @property
    def input_shape(self):
        return (1, self.spec.in_channels) + (self.edge,) * 3

    def setup(self):
        self.spec = unet.load_spec(SPEC)
        prefix = self.workdir / "infer64"
        unet.save_checkpoint(unet.build(self.spec, seed=NET_SEED), prefix)
        self.network = unet.load_checkpoint(prefix)
        _, vols = _volumes(self.seed, self.pool_size, self.edge, self.spec.in_channels)
        self.pool = [(Tensor(training.standardize(v.image)[None]), v.masks[None])
                     for v in vols]
        self.step = 0
        return self.op()

    def op(self):
        x, self.target = self.pool[self.step % len(self.pool)]
        self.step += 1
        return unet.forward_full_volume(self.network, x)

    def check(self, pred) -> bool:
        p = pred.data
        expected = (1, self.spec.out_regions) + (self.edge,) * 3
        return (p.shape == expected and bool(np.isfinite(p).all())
                and float(p.min()) >= 0.0 and float(p.max()) <= 1.0)

    def loss(self, pred) -> float:
        """Soft Dice loss of the prediction against the volume's masks."""
        return training.dice_loss(pred, self.target).item()

    def model_bytes(self) -> int:
        # The model states training memory; for inference it is the
        # reversible-training figure at the same input shape.
        return memory_model.estimate_partially_reversible(
            self.network, self.input_shape).total_prev_bytes

    def extra_checks(self) -> dict:
        return {}


WORKLOADS = {
    "train_rev32": lambda seed, workdir: TrainWorkload(seed, stored=False),
    "train_stored32": lambda seed, workdir: TrainWorkload(seed, stored=True),
    "infer64": InferWorkload,
}
