"""Builder for the partially reversible U-Net and its non-reversible twin.

One level loop builds both variants: an encoder and a decoder body per
resolution level, with max-pool / trilinear resampling in between. The
reversible body is a sequence of ``n`` coupled blocks, and 1x1x1
convolutions (``down*``, ``merge*``) change channels between levels. The
twin's body is a stack of ``2n`` full-width GN-LeakyReLU-Conv units whose
first unit changes the channel count. Every ``ConvUnit`` reads its kernel
size, group size, slope and epsilon from the spec.

Each reversible encoder level ends with one ``down`` step,
``ops.conv3d(pool=True)``: the ``down*`` conv of the max-pooled skip, each
slab pooling the planes it reads, so no pooled copy is formed, and the
tape keeps only the skip, which the merge reads anyway. Each reversible
decoder level starts with one ``merge`` step,
``ops.upsample_merge``: the ``merge*`` conv of the skip concatenated with
the upsampled coarser output, computed as ``W_s @ skip + up(W_u @ d) + b``.
It reads only the two sequence outputs, which the tape keeps anyway, so no
full-resolution concatenation is formed or retained; unrecorded, it writes
its output into the skip's buffer. The twin keeps its ``up*`` and ``cat*``
steps: its first GroupNorm normalises the concatenated tensor, so that
tensor must exist.

A network is stored as a flat list of steps, ``(kind, name, ...)`` tuples:

- ``conv``: a ``ConvLayer`` (``stem``, ``head``);
- ``seq`` / ``stack``: a level body with its path and level index;
- ``down``: the reversible encoder's transition, a ``ConvLayer`` and its
  level index: stores the level's skip, then convolves its max-pooling;
- ``pool``: the twin's, stores its level's skip, then max-pools;
- ``merge``: the reversible decoder's fused upsample and merge conv;
- ``upsample`` and ``concat_skip``: the twin decoder's two steps;
- ``sigmoid``: the output.

`_run_step` is the one function that interprets them. `Network.forward`
loops over it; the memory model's `Network.trace` is a recorded
stored-activation execution of the same steps on an empty batch, so the
model lists exactly the activations the executor records and marks the ones
its tape retains.
"""

import math
import os
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from . import ops, tensorio
from .reversible import ConvUnit, Module, ReversibleSequence, he_kernel, make_block
from .tensor import Parameter, ShapeError, Tensor
from . import tape as tape_mod


@dataclass
class ArchitectureSpec:
    levels: tuple
    encoder_blocks: int = 1
    decoder_blocks: int = 1
    reversible: bool = True
    in_channels: int = 4
    out_regions: int = 3
    kernel_size: int = 3
    group_size: int = 10
    stem_kernel_size: int = 1
    head_kernel_size: int = 1
    leaky_slope: float = 0.01
    norm_epsilon: float = 1e-5

    def __post_init__(self):
        self.levels = tuple(int(w) for w in self.levels)

    def validate(self):
        if len(self.levels) < 2:
            raise ValueError(f"levels must list at least 2 widths, got {self.levels}")
        for name in ("encoder_blocks", "decoder_blocks"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
            if not self.reversible and getattr(self, name) == 0:
                raise ValueError(f"{name} must be at least 1 when reversible=false: "
                                 f"a level needs a unit to change its channels")
        for name in ("in_channels", "out_regions", "kernel_size", "group_size",
                     "stem_kernel_size", "head_kernel_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
            # every convolution pads "same", which needs odd kernel extents
            if name.endswith("kernel_size") and getattr(self, name) % 2 == 0:
                raise ValueError(f"{name} must be odd, got {getattr(self, name)}")
        # a zero or negative epsilon divides by zero on a constant group
        if not (math.isfinite(self.norm_epsilon) and self.norm_epsilon > 0):
            raise ValueError(
                f"norm_epsilon must be finite and > 0, got {self.norm_epsilon}")
        if not math.isfinite(self.leaky_slope):
            raise ValueError(f"leaky_slope must be finite, got {self.leaky_slope}")
        for w in self.levels:
            if w <= 0:
                raise ValueError(f"levels entries must be positive, got {self.levels}")
            if self.reversible:
                if w % 2:
                    raise ValueError(
                        f"levels: reversible width {w} must be even")
                if (w // 2) % self.group_size:
                    raise ValueError(
                        f"levels: half width {w // 2} not divisible by "
                        f"group_size {self.group_size}")
            elif w % self.group_size:
                raise ValueError(
                    f"levels: width {w} not divisible by group_size {self.group_size}")
        return self

    def paired(self) -> "ArchitectureSpec":
        """The same-resolution twin with the reversible flag flipped."""
        return replace(self, reversible=not self.reversible)


_CONVERTERS = {
    tuple: lambda s: tuple(int(v) for v in s.split(",") if v.strip()),
    bool: lambda s: {"true": True, "false": False}[s.lower()],
}


def parse_fields(cls, text: str, what: str):
    """Build dataclass ``cls`` from ``key=value`` lines; ``#`` starts a comment.

    Each value is converted by its field's annotation: ``tuple`` takes
    comma-separated ints, ``bool`` takes true/false, and any other type is
    called on the text. Errors name the offending line, and every field without
    a default must be set, and none twice.
    """
    known = {f.name: f for f in fields(cls)}
    values, set_on = {}, {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in known:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if set_on.setdefault(key, lineno) != lineno:
            raise ValueError(f"line {lineno}: {key!r} already set on line {set_on[key]}")
        kind = known[key].type
        try:
            values[key] = _CONVERTERS.get(kind, kind)(val)
        except (ValueError, KeyError) as exc:
            raise ValueError(f"line {lineno}: bad value for {key}: {val!r}") from exc
    for f in known.values():
        if f.name not in values and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"{what} must set {f.name!r}")
    return cls(**values)


def parse_spec_text(text: str) -> ArchitectureSpec:
    return parse_fields(ArchitectureSpec, text, "architecture spec").validate()


def load_spec(path) -> ArchitectureSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec_text(fh.read())


def spec_to_text(spec: ArchitectureSpec) -> str:
    lines = []
    for f in fields(spec):
        value = getattr(spec, f.name)
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, tuple):
            value = ",".join(str(v) for v in value)
        lines.append(f"{f.name}={value}")
    return "\n".join(lines) + "\n"


class ConvLayer(Module):
    def __init__(self, in_ch, out_ch, k, rng, name):
        self.kernel = he_kernel(rng, out_ch, in_ch, k, name=f"{name}.kernel")
        self.bias = Parameter(np.zeros((1, out_ch, 1, 1, 1), dtype=np.float32),
                              id=f"{name}.bias")

    def forward(self, x):
        return ops.conv3d(x, self.kernel, self.bias)


class Stack(Module):
    """Twin level body: ConvUnits in order, two per reversible block.

    The first unit changes the channel count; the rest keep the level width.
    """

    def __init__(self, units):
        self.units = list(units)

    def forward(self, x):
        for unit in self.units:
            x = unit(x)
        return x


@dataclass
class TraceEntry:
    """One activation of the recorded stored-activation execution."""

    name: str
    kind: str  # input | nonrev | interior | boundary
    shape: tuple
    param_elems: int = 0
    inputs: tuple = ()
    saved: bool = False  # the tape retains it for some backward

    @property
    def out_elems(self) -> int:
        n = 1
        for e in self.shape:
            n *= e
        return n


def _run_step(step, x, skips, stored):
    """Execute one step of the list; the single interpreter of step kinds.

    A ``merge`` step pops its skip from ``skips``. With no tape recording,
    nothing reads that skip again, so the merge writes its output into the
    skip's buffer; under a tape the merge's backward reads the skip, so it
    gets a fresh output. A caller that keeps a skip's array across an
    unrecorded merge (as an earlier step's output) copies it first.
    """
    kind = step[0]
    if kind in ("conv", "stack"):
        return step[2](x)
    if kind == "seq":
        return step[2].forward_stored(x) if stored else step[2].forward(x)
    if kind == "down":
        skips[step[3]] = x
        return ops.conv3d(x, step[2].kernel, step[2].bias, pool=True)
    if kind == "pool":
        skips[step[2]] = x
        return ops.max_pool2(x)
    if kind == "upsample":
        return ops.upsample2(x)
    if kind == "concat_skip":
        return ops.concat_channels(skips.pop(step[2]), x)
    if kind == "merge":
        layer, skip = step[2], skips.pop(step[3])
        return ops.upsample_merge(skip, x, layer.kernel, layer.bias,
                                  consume_skip=tape_mod.current_tape() is None)
    if kind == "sigmoid":
        return ops.sigmoid(x)
    raise RuntimeError(f"unknown step kind {kind!r}")  # pragma: no cover


class Network(Module):
    """The steps of ``spec``'s network; its parameters are those of the
    steps' modules, in step order."""

    def __init__(self, spec: ArchitectureSpec, steps):
        self.spec = spec
        self.steps = steps

    def forward(self, x: Tensor, stored_activations: bool = False) -> Tensor:
        if x.shape[1] != self.spec.in_channels:
            raise ShapeError(
                f"network expects {self.spec.in_channels} input channels, "
                f"got shape {x.shape}"
            )
        skips = {}
        for step in self.steps:
            x = _run_step(step, x, skips, stored_activations)
        return x

    def trace(self, input_shape) -> list:
        """Every activation the stored-activation execution records.

        The steps run in stored mode on an empty batch under a tape, so no
        activation is allocated; each recorded node becomes one entry with
        the batch of ``input_shape``. Once the whole run is recorded, an
        entry is ``saved`` if the tape retains its node's output, that is if
        its own backward or a consumer's reads it. Sequence interiors are
        flagged so the memory model can collapse them for the partially
        reversible estimate. The input volume is never saved: the tape holds
        it as a leaf, outside its retained bytes.
        """
        input_shape = tuple(int(e) for e in input_shape)
        if len(input_shape) != 5:
            raise ShapeError(f"input shape must have 5 axes, got {input_shape}")
        check_divisible(self.spec, input_shape)
        entries = [TraceEntry("input", "input", input_shape)]
        index = {}  # tape node -> entry index
        x = Tensor(np.zeros((0,) + input_shape[1:], dtype=np.float32))
        skips = {}
        with tape_mod.Tape() as tape:
            for step in self.steps:
                first = len(tape.nodes)
                x = _run_step(step, x, skips, stored=True)
                nodes = tape.nodes[first:]
                for j, node in enumerate(nodes):
                    last = j == len(nodes) - 1
                    if step[0] != "seq":
                        kind = "nonrev"
                    else:
                        kind = "boundary" if last else "interior"
                    index[node] = len(entries)
                    entries.append(TraceEntry(
                        step[1] if last else f"{step[1]}.{node.name}", kind,
                        input_shape[:1] + node.out_shape[1:],
                        sum(p.element_count for p in node.params),
                        tuple(index[s[1]] if s[0] == "node" else 0
                              for s in node.input_slots)))
        for node, i in index.items():
            entries[i].saved = node.retained_out is not None
        return entries

    def sequences(self):
        """(path, level, step object) for every sequence or baseline stack."""
        out = []
        for step in self.steps:
            if step[0] in ("seq", "stack"):
                out.append((step[3], step[4], step[2]))
        return out


def build(spec: ArchitectureSpec, seed: int = 0) -> Network:
    """Construct the network described by ``spec`` with seeded initialization."""
    spec.validate()
    rng = np.random.default_rng(seed)
    widths = spec.levels
    unit_args = (rng, spec.kernel_size, spec.group_size, spec.leaky_slope,
                 spec.norm_epsilon)
    steps = [("conv", "stem", ConvLayer(spec.in_channels, widths[0],
                                        spec.stem_kernel_size, rng, "stem"))]

    def level(name, path, i, n_blocks, in_ch):
        width = widths[i]
        if spec.reversible:
            body = ReversibleSequence([make_block(width, *unit_args,
                                                  name=f"{name}.b{b}")
                                       for b in range(n_blocks)])
        else:
            body = Stack([ConvUnit(in_ch if u == 0 else width, width, *unit_args,
                                   name=f"{name}.u{u}")
                          for u in range(2 * n_blocks)])
        steps.append(("seq" if spec.reversible else "stack", name, body, path, i))
        return width

    ch = widths[0]
    for i in range(len(widths)):
        ch = level(f"enc{i}", "encoder", i, spec.encoder_blocks, ch)
        if i == len(widths) - 1:
            break
        if spec.reversible:
            # the 1x1x1 channel change of the pooled skip, in one op
            steps.append(("down", f"down{i}",
                          ConvLayer(ch, widths[i + 1], 1, rng, f"down{i}"), i))
            ch = widths[i + 1]
        else:
            # the twin leaves the channel change to the next level body
            steps.append(("pool", f"pool{i}", i))
    for i in range(len(widths) - 2, -1, -1):
        if spec.reversible:
            # the 1x1x1 merge conv of cat(skip, up(x)), in one op
            steps.append(("merge", f"merge{i}",
                          ConvLayer(widths[i] + ch, widths[i], 1, rng, f"merge{i}"),
                          i))
            ch = widths[i]
        else:
            steps += [("upsample", f"up{i}"), ("concat_skip", f"cat{i}", i)]
            ch += widths[i]
        ch = level(f"dec{i}", "decoder", i, spec.decoder_blocks, ch)

    steps.append(("conv", "head",
                  ConvLayer(widths[0], spec.out_regions, spec.head_kernel_size,
                            rng, "head")))
    steps.append(("sigmoid", "output"))
    return Network(spec, steps)


def parameter_count(network: Network) -> int:
    return sum(p.element_count for p in network.parameters())


def check_divisible(spec: ArchitectureSpec, shape) -> None:
    """Every spatial extent must survive the ``levels - 1`` halvings."""
    divisor = 2 ** (len(spec.levels) - 1)
    if any(e % divisor for e in shape[2:]):
        raise ShapeError(
            f"volume spatial extents {tuple(shape[2:])} must be divisible by "
            f"{divisor} (2^(levels-1))"
        )


def forward_full_volume(network: Network, volume: Tensor) -> Tensor:
    """Single-pass inference over a whole volume (no tape, no recording).

    Unrecorded, the steps that can work in place do: each reversible
    sequence couples in its input's buffer and each merge writes into its
    skip's, so at each resolution the decoder reuses the encoder's
    buffers. The caller's volume is only read, by the stem.
    The output equals ``network.forward`` under a tape bit for bit.
    """
    check_divisible(network.spec, volume.shape)
    with tape_mod.no_record():
        return network.forward(volume)


# -- checkpoints -------------------------------------------------------------


def save_checkpoint(network: Network, prefix) -> None:
    """Write ``prefix`` + ``.rvt``/``.manifest``/``.arch``.

    Each file is first written to a ``.tmp`` file beside it; only once all
    three are complete does ``os.replace`` move them into place. A save that
    fails leaves any earlier checkpoint at ``prefix`` whole and removes its
    temporary files.
    """
    prefix = str(prefix)
    params = list(network.parameters())
    texts = {".manifest": "".join(p.id + "\n" for p in params),
             ".arch": spec_to_text(network.spec)}
    temps = []
    try:
        for ext in (".rvt", ".manifest", ".arch"):
            temps.append(prefix + ext + ".tmp")
            with open(temps[-1], "wb") as fh:
                if ext == ".rvt":
                    for p in params:
                        tensorio.write_tensor(fh, p.value.data)
                else:
                    fh.write(texts[ext].encode("utf-8"))
        for tmp in temps:
            os.replace(tmp, tmp[:-len(".tmp")])
    except BaseException:
        for tmp in temps:
            if os.path.exists(tmp):
                os.remove(tmp)
        raise


def load_checkpoint(prefix) -> Network:
    """The network saved at ``prefix``; its ``.rvt`` must hold exactly one
    record per manifest entry, in order, of finite values, and nothing after
    the last."""
    prefix = str(prefix)
    spec = load_spec(prefix + ".arch")
    network = build(spec)
    with open(prefix + ".manifest", "r", encoding="utf-8") as fh:
        ids = [line.strip() for line in fh if line.strip()]
    params = list(network.parameters())
    if [p.id for p in params] != ids:
        raise ValueError("checkpoint manifest does not match the rebuilt network")
    with open(prefix + ".rvt", "rb") as fh:
        for p in params:
            data = tensorio.read_tensor(fh)
            if data.shape != p.value.shape:
                raise ShapeError(
                    f"checkpoint tensor for {p.id} has shape {data.shape}, "
                    f"expected {p.value.shape}")
            if not np.isfinite(data).all():
                raise ValueError(
                    f"{prefix}.rvt: checkpoint tensor for {p.id} holds a "
                    f"non-finite value")
            p.value.data[...] = data
        if fh.read(1):
            raise ValueError(
                f"{prefix}.rvt: bytes after the last parameter record")
    return network
