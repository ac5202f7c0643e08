"""Training harness: Dice objective, Adam with L2 weight decay, stepped
learning-rate schedule, moving-average early stopping, preprocessing and
augmentation, synthetic nested-ellipsoid volumes, and the train/eval loops.

Region channels are ordered (whole, core, enhancing); the masks are nested,
whole >= core >= enhancing voxelwise.
"""

import csv
import logging
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import memtrack, tensorio
from .tape import Tape, backprop, record
from .tensor import ShapeError, Tensor
from .unet import forward_full_volume, parse_fields

log = logging.getLogger("revvolnet.training")

REGIONS = ("wt", "tc", "et")
TRAIN_FRACTION = 0.8  # share of the volumes split_dataset trains on
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainingConfig:
    initial_lr: float = 1e-4
    lr_drop_epochs: tuple = (250, 400, 550)
    lr_drop_factor: float = 5.0
    weight_decay: float = 1e-5
    batch_size: int = 1
    moving_average_window: int = 30
    patience: int = 60
    seed: int = 0
    epsilon_dice: float = 1e-5
    max_epochs: int = 600

    def __post_init__(self):
        self.lr_drop_epochs = tuple(int(e) for e in self.lr_drop_epochs)

    def validate(self):
        for name in ("initial_lr", "lr_drop_factor", "weight_decay",
                     "epsilon_dice"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("initial_lr", "lr_drop_factor", "batch_size",
                     "moving_average_window", "patience", "epsilon_dice",
                     "max_epochs"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be nonnegative, got {self.weight_decay}")
        if self.moving_average_window > self.patience:
            raise ValueError(
                f"moving_average_window ({self.moving_average_window}) must not "
                f"exceed patience ({self.patience})")
        return self


def parse_config_text(text: str) -> TrainingConfig:
    return parse_fields(TrainingConfig, text, "training config").validate()


def load_config(path) -> TrainingConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


# ---------------------------------------------------------------------------
# objective and metric


def dice_loss(pred: Tensor, target, epsilon: float = 1e-5) -> Tensor:
    """Unweighted sum over region channels of the soft Dice losses.

    Per region: 1 - (2 * sum(p*g) + eps) / (sum(p) + sum(g) + eps), with the
    sums running over batch and voxels. An empty prediction of an empty
    region therefore costs nothing.
    """
    tgt = target.data if isinstance(target, Tensor) else np.asarray(target, dtype=np.float32)
    if tgt.shape != pred.shape:
        raise ShapeError(
            f"dice_loss target shape {tuple(tgt.shape)} does not match "
            f"prediction shape {pred.shape}")
    eps = float(epsilon)
    axes = (0, 2, 3, 4)

    p64 = pred.data.astype(np.float64)
    g64 = tgt.astype(np.float64)
    inter = (p64 * g64).sum(axis=axes)
    psum = p64.sum(axis=axes)
    gsum = g64.sum(axis=axes)
    num = 2.0 * inter + eps
    den = psum + gsum + eps
    value = float((1.0 - num / den).sum())
    out = Tensor.scalar(value)

    num32 = num.astype(np.float32).reshape(1, -1, 1, 1, 1)
    den32 = den.astype(np.float32).reshape(1, -1, 1, 1, 1)

    def backward_fn(g, _inputs, _output):
        scale = g.reshape(())
        grad = -(2.0 * tgt * den32 - num32) / (den32 * den32)
        return (grad * scale,)

    return record("dice_loss", out, [pred], backward_fn)


def dice_score(pred_binary: np.ndarray, target_binary: np.ndarray) -> np.ndarray:
    """Hard Dice overlap per region channel; empty/empty counts as 1."""
    pred_binary = np.asarray(pred_binary)
    target_binary = np.asarray(target_binary)
    if pred_binary.shape != target_binary.shape:
        raise ShapeError(
            f"dice_score shapes differ: {pred_binary.shape} vs {target_binary.shape}")
    p = pred_binary.reshape(pred_binary.shape[0], -1) > 0.5
    g = target_binary.reshape(target_binary.shape[0], -1) > 0.5
    inter = (p & g).sum(axis=1)
    sizes = p.sum(axis=1) + g.sum(axis=1)
    out = np.ones(p.shape[0], dtype=np.float64)
    nonempty = sizes > 0
    out[nonempty] = 2.0 * inter[nonempty] / sizes[nonempty]
    return out


# ---------------------------------------------------------------------------
# preprocessing and augmentation


def standardize(image: np.ndarray) -> np.ndarray:
    """Zero mean / unit variance over each modality's nonzero voxels; zeros
    stay zero."""
    image = np.asarray(image, dtype=np.float32)
    out = image.copy()
    for m in range(image.shape[0]):
        values = image[m]
        mask = values != 0
        if not mask.any():
            log.warning("standardize: modality %s is all zero, left unchanged", m)
            continue
        mu = values[mask].mean(dtype=np.float64)
        sd = values[mask].std(dtype=np.float64)
        if sd == 0:
            log.warning("standardize: modality %s has zero variance, left unchanged", m)
            continue
        result = out[m]
        result[mask] = ((values[mask] - mu) / sd).astype(np.float32)
    return out


@dataclass
class AugmentDraw:
    flips: tuple = (False, False, False)
    shifts: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.float32))
    angle_deg: float = 0.0
    scale: float = 1.0


def draw_augment(rng, modalities: int) -> AugmentDraw:
    return AugmentDraw(
        flips=tuple(bool(b) for b in rng.random(3) < 0.5),
        shifts=rng.uniform(-0.1, 0.1, modalities).astype(np.float32),
        angle_deg=float(rng.uniform(-15.0, 15.0)),
        scale=float(rng.uniform(0.9, 1.1)),
    )


def _inplane_coords(h, w, angle_deg, scale):
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    th = math.radians(angle_deg)
    cos_t, sin_t = math.cos(th), math.sin(th)
    ys, xs = np.meshgrid(np.arange(h) - cy, np.arange(w) - cx, indexing="ij")
    src_y = (cos_t * ys + sin_t * xs) / scale + cy
    src_x = (-sin_t * ys + cos_t * xs) / scale + cx
    return src_y, src_x


def _resample_inplane(arr: np.ndarray, angle_deg: float, scale: float,
                      nearest: bool) -> np.ndarray:
    """Rotate/scale every axial (h, w) plane; out-of-bounds reads are zero."""
    h, w = arr.shape[-2:]
    src_y, src_x = _inplane_coords(h, w, angle_deg, scale)
    if nearest:
        iy = np.rint(src_y).astype(np.int64)
        ix = np.rint(src_x).astype(np.int64)
        valid = (iy >= 0) & (iy < h) & (ix >= 0) & (ix < w)
        iyc = np.clip(iy, 0, h - 1)
        ixc = np.clip(ix, 0, w - 1)
        out = arr[..., iyc, ixc]
        out[..., ~valid] = 0
        return np.ascontiguousarray(out)
    # Bilinear through a one-voxel zero border: far-out coordinates clamp
    # onto the border and read zeros.
    padded = np.pad(arr, [(0, 0)] * (arr.ndim - 2) + [(1, 1), (1, 1)])
    y = np.clip(src_y + 1.0, 0.0, h + 1.0)
    x = np.clip(src_x + 1.0, 0.0, w + 1.0)
    y0 = np.floor(y).astype(np.int64)
    x0 = np.floor(x).astype(np.int64)
    y0 = np.clip(y0, 0, h)
    x0 = np.clip(x0, 0, w)
    y1 = np.clip(y0 + 1, 0, h + 1)
    x1 = np.clip(x0 + 1, 0, w + 1)
    wy = (y - y0).astype(np.float32)
    wx = (x - x0).astype(np.float32)
    out = (padded[..., y0, x0] * (1 - wy) * (1 - wx)
           + padded[..., y0, x1] * (1 - wy) * wx
           + padded[..., y1, x0] * wy * (1 - wx)
           + padded[..., y1, x1] * wy * wx)
    return np.ascontiguousarray(out.astype(np.float32))


def apply_augment(image: np.ndarray, masks: np.ndarray, draw: AugmentDraw):
    """Apply one augmentation draw; the masks get the same geometric
    transform with nearest-neighbor sampling, which preserves nesting."""
    image = np.asarray(image, dtype=np.float32)
    masks = np.asarray(masks, dtype=np.float32)
    img = image.copy()
    msk = masks.copy()

    if np.any(draw.shifts):
        support = img != 0
        img = np.where(support, img + draw.shifts.reshape(-1, 1, 1, 1), img)

    flip_axes = [axis + 1 for axis, flip in enumerate(draw.flips) if flip]
    if flip_axes:
        img = np.flip(img, axis=flip_axes).copy()
        msk = np.flip(msk, axis=flip_axes).copy()

    if draw.angle_deg != 0.0 or draw.scale != 1.0:
        img = _resample_inplane(img, draw.angle_deg, draw.scale, nearest=False)
        msk = _resample_inplane(msk, draw.angle_deg, draw.scale, nearest=True)
    return img, msk


def augment(image: np.ndarray, masks: np.ndarray, rng):
    """Random flips, per-modality intensity shifts, and in-plane
    rotation/scaling; labels follow with nearest-neighbor semantics."""
    return apply_augment(image, masks, draw_augment(rng, image.shape[0]))


# ---------------------------------------------------------------------------
# optimizer, schedule, stopping


class AdamState:
    def __init__(self):
        self.t = 0
        self.moments = {}

    def slot(self, param):
        entry = self.moments.get(param.id)
        if entry is None:
            entry = (Tensor.zeros(param.shape), Tensor.zeros(param.shape))
            self.moments[param.id] = entry
        return entry


def adam_step(params, state: AdamState, lr: float, weight_decay: float = 0.0) -> None:
    """One Adam update; weight decay enters as a classic L2 gradient term."""
    state.t += 1
    b1 = np.float32(ADAM_BETA1)
    b2 = np.float32(ADAM_BETA2)
    c1 = np.float32(1.0 - ADAM_BETA1 ** state.t)
    c2 = np.float32(1.0 - ADAM_BETA2 ** state.t)
    lr32 = np.float32(lr)
    wd = np.float32(weight_decay)
    eps = np.float32(ADAM_EPS)
    for p in params:
        m, v = state.slot(p)
        g = p.grad.data
        if weight_decay:
            g = g + wd * p.value.data
        m.data *= b1
        m.data += (np.float32(1) - b1) * g
        v.data *= b2
        v.data += (np.float32(1) - b2) * (g * g)
        update = (m.data / c1) / (np.sqrt(v.data / c2) + eps)
        p.value.data -= lr32 * update


def train_step(network, params, state: AdamState, x: Tensor, target, lr: float,
               weight_decay: float, epsilon: float = 1e-5,
               stored_activations: bool = False):
    """One optimizer step: forward, Dice loss, backprop, Adam.

    Returns the loss value and the activation bytes the tape retained after
    the forward pass. A non-finite loss raises ``FloatingPointError`` before
    the update, so the parameters keep their values.
    """
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        pred = network.forward(x, stored_activations=stored_activations)
        retained = tape.retained_bytes
        loss = dice_loss(pred, target, epsilon)
        if not np.isfinite(loss.item()):
            raise FloatingPointError(f"non-finite training loss {loss.item()}")
        backprop(tape, loss)
    adam_step(params, state, lr, weight_decay)
    return loss.item(), retained


def lr_at(epoch: int, config: TrainingConfig) -> float:
    lr = config.initial_lr
    for drop in config.lr_drop_epochs:
        if epoch >= drop:
            lr /= config.lr_drop_factor
    return lr


def early_stop(history, window: int, patience: int) -> bool:
    """True once the ``window``-epoch moving average has set no new maximum
    during the last ``patience`` epochs."""
    if len(history) < window:
        return False
    values = np.asarray(history, dtype=np.float64)
    kernel = np.ones(window) / window
    ma = np.convolve(values, kernel, mode="valid")
    best = int(np.argmax(ma))  # first occurrence: ties are not an increase
    return (len(ma) - 1 - best) >= patience


def moving_average(history, window: int):
    if len(history) < window:
        return float("nan")
    return float(np.mean(history[-window:]))


# ---------------------------------------------------------------------------
# data


@dataclass
class LabeledVolume:
    image: np.ndarray  # (modalities, D, H, W) float32, zero outside the brain
    masks: np.ndarray  # (3, D, H, W) float32 in {0, 1}, nested wt >= tc >= et
    source: str = ""  # the image file it was loaded from, if any

    def check_nesting(self) -> bool:
        wt, tc, et = self.masks[0], self.masks[1], self.masks[2]
        return bool(np.all(wt >= tc) and np.all(tc >= et))


def generate_synthetic(rng, size: int = 32, modalities: int = 4) -> LabeledVolume:
    """Nested bright ellipsoids in an ellipsoidal brain with Gaussian noise.

    The three region masks share a center and use strictly shrinking radii,
    so nesting holds by construction; each nested region adds a positive
    intensity offset in every modality. The volume is a ``size``-edge cube.
    """
    shape = (size, size, size)
    grids = np.meshgrid(*[np.linspace(-1.0, 1.0, s) for s in shape], indexing="ij")

    def ellipsoid(center, radii):
        acc = np.zeros(shape, dtype=np.float64)
        for g, c, r in zip(grids, center, radii):
            acc += ((g - c) / r) ** 2
        return acc <= 1.0

    center = rng.uniform(-0.12, 0.12, 3)
    jitter = rng.uniform(0.9, 1.1, 3)
    brain = ellipsoid((0.0, 0.0, 0.0), np.full(3, 0.88))
    wt = ellipsoid(center, 0.50 * jitter)
    tc = ellipsoid(center, 0.30 * jitter)
    et = ellipsoid(center, 0.16 * jitter)
    wt &= brain
    tc &= wt
    et &= tc

    image = np.zeros((modalities,) + shape, dtype=np.float32)
    for m in range(modalities):
        base = rng.uniform(0.55, 0.95)
        level = base * brain.astype(np.float64)
        level += rng.uniform(0.15, 0.40) * wt
        level += rng.uniform(0.15, 0.40) * tc
        level += rng.uniform(0.15, 0.40) * et
        level += rng.normal(0.0, 0.05, shape) * brain
        image[m] = level.astype(np.float32)
    masks = np.stack([wt, tc, et]).astype(np.float32)
    return LabeledVolume(image=image, masks=masks)


def split_dataset(volumes, rng):
    """Deterministic seeded shuffle, then a ``TRAIN_FRACTION`` (80/20)
    train/validation split."""
    if not volumes:
        raise ValueError("dataset is empty")
    order = rng.permutation(len(volumes))
    cut = max(1, int(round(TRAIN_FRACTION * len(volumes))))
    if cut == len(volumes) and len(volumes) > 1:
        cut = len(volumes) - 1
    train = [volumes[i] for i in order[:cut]]
    val = [volumes[i] for i in order[cut:]]
    return train, val


def save_dataset(volumes, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    lines = []
    for i, vol in enumerate(volumes):
        img_name = f"case{i:03d}_image.rvt"
        msk_name = f"case{i:03d}_masks.rvt"
        tensorio.write_tensor(os.path.join(directory, img_name), vol.image[None])
        tensorio.write_tensor(os.path.join(directory, msk_name), vol.masks[None])
        lines.append(f"{img_name} {msk_name}")
    with open(os.path.join(directory, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_record(path) -> np.ndarray:
    try:
        return tensorio.read_tensor(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def load_dataset(directory):
    """Volumes listed in ``manifest.txt``, one ``IMAGE MASKS`` pair of file
    names per line. An image record is (1, M, D, H, W) and its masks record
    (1, 3, D, H, W) of binary, nested regions (wt >= tc >= et); anything
    else raises ``ValueError`` naming the file or the manifest line."""
    manifest = os.path.join(directory, "manifest.txt")
    volumes = []
    with open(manifest, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            names = line.split()
            if not names:
                continue
            if len(names) != 2:
                raise ValueError(
                    f"{manifest} line {lineno}: want two file names "
                    f"(image, masks), got {len(names)}")
            img_path, msk_path = (os.path.join(directory, n) for n in names)
            image, masks = _read_record(img_path), _read_record(msk_path)
            if image.shape[0] != 1:
                raise ValueError(
                    f"{img_path}: image record must be (1, M, D, H, W), "
                    f"got {image.shape}")
            want = (1, len(REGIONS)) + image.shape[2:]
            if masks.shape != want:
                raise ValueError(
                    f"{msk_path}: masks record must be {want} to match its "
                    f"image, got {masks.shape}")
            volume = LabeledVolume(image=image[0], masks=masks[0],
                                   source=img_path)
            if not np.isin(masks, (0, 1)).all():
                raise ValueError(f"{msk_path}: masks must be 0 or 1")
            if not volume.check_nesting():
                raise ValueError(
                    f"{msk_path}: masks must nest, {' >= '.join(REGIONS)}")
            volumes.append(volume)
    if not volumes:
        raise ValueError(f"dataset manifest {manifest} lists no volumes")
    return volumes


# ---------------------------------------------------------------------------
# loops


@dataclass
class EpochRow:
    epoch: int
    lr: float
    train_loss: float
    val_dice_wt: float
    val_dice_tc: float
    val_dice_et: float
    moving_avg: float
    stored_activation_bytes: int
    peak_bytes: int


CSV_COLUMNS = tuple(f.name for f in fields(EpochRow))


def write_metrics_csv(history, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in history:
            writer.writerow([getattr(row, col) for col in CSV_COLUMNS])


@dataclass
class TrainResult:
    history: list
    best_epoch: int
    best_val_dice: float
    best_params: list
    stopped_early: bool

    @property
    def epochs_run(self) -> int:
        return len(self.history)


def snapshot_params(network):
    return [p.value.data.copy() for p in network.parameters()]


def restore_params(network, snapshot) -> None:
    for p, data in zip(network.parameters(), snapshot):
        p.value.data[...] = data


def evaluate(network, volumes) -> dict:
    """Mean hard Dice per region over standardized volumes, thresholded at 0.5."""
    if not volumes:
        raise ValueError("evaluation dataset is empty")
    scores = []
    for vol in volumes:
        image = standardize(vol.image)
        pred = forward_full_volume(network, Tensor(image[None]))
        scores.append(dice_score(pred.data[0] >= 0.5, vol.masks))
    mean = np.mean(np.stack(scores), axis=0)
    return {region: float(val) for region, val in zip(REGIONS, mean)}


def train(network, config: TrainingConfig, dataset, stored_activations: bool = False,
          epoch_callback=None) -> TrainResult:
    """Epoch loop: augment, standardize, forward, Dice loss, backprop, Adam.

    Tracks the best validation checkpoint, applies the stepped learning-rate
    schedule, and stops early once the moving-average validation Dice
    plateaus. Deterministic for a fixed ``config.seed``. Raises
    ``FloatingPointError`` naming the epoch and batch when a loss is not finite.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    train_set, val_set = split_dataset(dataset, rng)
    if not val_set:
        raise ValueError(
            f"validation split is empty: training needs at least 2 volumes, "
            f"got {len(dataset)}")
    params = list(network.parameters())
    state = AdamState()
    history = []
    mean_dice_history = []
    best_epoch = -1
    best_val = -1.0
    best_params = snapshot_params(network)
    stopped = False

    for epoch in range(config.max_epochs):
        lr = lr_at(epoch, config)
        entry_live = memtrack.GLOBAL.reset_peak()
        losses = []
        retained = 0
        for start in range(0, len(train_set), config.batch_size):
            chunk = train_set[start:start + config.batch_size]
            images, targets = [], []
            for vol in chunk:
                image, masks = augment(vol.image, vol.masks, rng)
                images.append(standardize(image))
                targets.append(masks)
            shapes = {img.shape for img in images}
            if len(shapes) > 1:
                raise ShapeError(
                    f"batch_size={config.batch_size} needs equally shaped "
                    f"volumes, got {sorted(shapes)}")
            try:
                loss, retained = train_step(
                    network, params, state, Tensor(np.stack(images)),
                    np.stack(targets), lr, config.weight_decay,
                    config.epsilon_dice, stored_activations)
            except FloatingPointError as exc:
                raise FloatingPointError(
                    f"{exc} in epoch {epoch}, "
                    f"batch starting at training volume {start}") from None
            losses.append(loss)
        peak = memtrack.GLOBAL.peak_bytes - entry_live

        val = evaluate(network, val_set)
        mean_dice = float(np.mean([val[r] for r in REGIONS]))
        mean_dice_history.append(mean_dice)
        row = EpochRow(
            epoch=epoch,
            lr=lr,
            train_loss=float(np.mean(losses)),
            val_dice_wt=val["wt"],
            val_dice_tc=val["tc"],
            val_dice_et=val["et"],
            moving_avg=moving_average(mean_dice_history, config.moving_average_window),
            stored_activation_bytes=retained,
            peak_bytes=peak,
        )
        history.append(row)
        if mean_dice > best_val:
            best_val = mean_dice
            best_epoch = epoch
            best_params = snapshot_params(network)
        if epoch_callback is not None:
            epoch_callback(row)
        if early_stop(mean_dice_history, config.moving_average_window, config.patience):
            stopped = True
            break

    return TrainResult(history=history, best_epoch=best_epoch,
                       best_val_dice=best_val, best_params=best_params,
                       stopped_early=stopped)
