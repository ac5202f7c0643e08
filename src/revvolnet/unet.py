"""Builder for the partially reversible U-Net and its non-reversible twin.

The reversible variant runs one reversible sequence per resolution level in
the encoder and one per level in the decoder, with max-pool / trilinear
resampling and channel-adjusting 1x1x1 convolutions in between. The
non-reversible twin replaces every sequence with a full-width
GN-LeakyReLU-Conv-GN-LeakyReLU-Conv stack, drops the 1x1x1 transitions, and
lets the first 3x3x3 convolution of each stack perform the channel change.

A network is stored as a flat list of steps. The same list drives the
executor (`Network.forward`) and the symbolic shape walk (`Network.trace`)
used by the memory model, so the two cannot drift apart.
"""

from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from . import ops
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
        for name in ("in_channels", "out_regions", "kernel_size", "group_size",
                     "stem_kernel_size", "head_kernel_size"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.kernel_size % 2 == 0:
            raise ValueError(f"kernel_size must be odd, got {self.kernel_size}")
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
    a default must be set.
    """
    known = {f.name: f for f in fields(cls)}
    values = {}
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
    def __init__(self, in_ch, out_ch, k, rng, name, padding="same"):
        self.kernel = he_kernel(rng, out_ch, in_ch, k, name=f"{name}.kernel")
        self.bias = Parameter(np.zeros((1, out_ch, 1, 1, 1), dtype=np.float32),
                              id=f"{name}.bias")
        self.padding = padding if k > 1 else (0, 0, 0)

    def forward(self, x):
        return ops.conv3d(x, self.kernel, self.bias, padding=self.padding)


class Stack(Module):
    """Baseline replacement for one reversible block: two ConvUnits."""

    def __init__(self, units):
        self.units = list(units)

    def forward(self, x):
        for unit in self.units:
            x = unit(x)
        return x


@dataclass
class TraceEntry:
    """One activation-producing step of the symbolic shape walk."""

    name: str
    kind: str  # input | nonrev | interior | boundary
    shape: tuple
    param_elems: int = 0
    inputs: tuple = ()
    seq_half_elems: int = 0  # boundary entries: elements of one coupling half

    @property
    def out_elems(self) -> int:
        n = 1
        for e in self.shape:
            n *= e
        return n


class Network(Module):
    def __init__(self, spec: ArchitectureSpec, steps, registry):
        self.spec = spec
        self.steps = steps
        self.registry = registry  # ordered {param id: Parameter}

    def parameters(self):
        return iter(self.registry.values())

    # -- execution ---------------------------------------------------------

    def forward(self, x: Tensor, stored_activations: bool = False) -> Tensor:
        if x.shape[1] != self.spec.in_channels:
            raise ShapeError(
                f"network expects {self.spec.in_channels} input channels, "
                f"got shape {x.shape}"
            )
        skips = {}
        for step in self.steps:
            kind = step[0]
            if kind == "conv":
                x = step[2](x)
            elif kind == "seq":
                seq = step[2]
                x = seq.forward_stored(x) if stored_activations else seq.forward(x)
            elif kind == "stack":
                x = step[2](x)
            elif kind == "pool":
                x = ops.max_pool2(x)
            elif kind == "upsample":
                x = ops.upsample2(x)
            elif kind == "save_skip":
                skips[step[1]] = x
            elif kind == "concat_skip":
                x = ops.concat_channels(skips.pop(step[1]), x)
            elif kind == "sigmoid":
                x = ops.sigmoid(x)
            else:  # pragma: no cover
                raise RuntimeError(f"unknown step kind {kind!r}")
        return x

    # -- symbolic walk ------------------------------------------------------

    def trace(self, input_shape) -> list:
        """Per-activation shape walk of the stored-activation execution.

        Sequence interiors are flagged so the memory model can collapse them
        for the partially reversible estimate.
        """
        input_shape = tuple(int(e) for e in input_shape)
        if len(input_shape) != 5:
            raise ShapeError(f"input shape must have 5 axes, got {input_shape}")
        entries = [TraceEntry("input", "input", input_shape)]
        cur = 0
        skips = {}

        def emit(entry):
            entries.append(entry)
            return len(entries) - 1

        def conv_shape(shape, layer):
            out_ch = layer.kernel.value.shape[0]
            if layer.padding == "same":
                return shape[:1] + (out_ch,) + shape[2:]
            pd, ph, pw = layer.padding
            d, h, w = shape[2:]
            kd, kh, kw = layer.kernel.value.shape[2:]
            return shape[:1] + (out_ch, d + 2 * pd - kd + 1,
                                h + 2 * ph - kh + 1, w + 2 * pw - kw + 1)

        def unit_entries(prefix, unit, shape, src, kind):
            gn_params = unit.gamma.element_count + unit.beta.element_count
            i = emit(TraceEntry(f"{prefix}.gn", kind, shape, gn_params, (src,)))
            i = emit(TraceEntry(f"{prefix}.lrelu", kind, shape, 0, (i,)))
            out_ch = unit.kernel.value.shape[0]
            out_shape = shape[:1] + (out_ch,) + shape[2:]
            conv_params = unit.kernel.element_count + unit.bias.element_count
            i = emit(TraceEntry(f"{prefix}.conv", kind, out_shape, conv_params, (i,)))
            return i, out_shape

        for step in self.steps:
            kind = step[0]
            name = step[1]
            shape = entries[cur].shape
            if kind == "conv":
                layer = step[2]
                out_shape = conv_shape(shape, layer)
                params = layer.kernel.element_count + layer.bias.element_count
                cur = emit(TraceEntry(name, "nonrev", out_shape, params, (cur,)))
            elif kind == "seq":
                seq = step[2]
                half = shape[1] // 2
                half_shape = shape[:1] + (half,) + shape[2:]
                s1 = emit(TraceEntry(f"{name}.x1", "interior", half_shape, 0, (cur,)))
                s2 = emit(TraceEntry(f"{name}.x2", "interior", half_shape, 0, (cur,)))
                for bi, block in enumerate(seq.blocks):
                    f, _ = unit_entries(f"{name}.b{bi}.f", block.f, half_shape, s2,
                                        "interior")
                    s1 = emit(TraceEntry(f"{name}.b{bi}.y1", "interior", half_shape,
                                         0, (s1, f)))
                    g, _ = unit_entries(f"{name}.b{bi}.g", block.g, half_shape, s1,
                                        "interior")
                    s2 = emit(TraceEntry(f"{name}.b{bi}.y2", "interior", half_shape,
                                         0, (s2, g)))
                half_elems = 1
                for e in half_shape:
                    half_elems *= e
                cur = emit(TraceEntry(name, "boundary", shape, 0, (s1, s2),
                                      seq_half_elems=half_elems))
            elif kind == "stack":
                for ui, unit in enumerate(step[2].units):
                    cur, shape = unit_entries(f"{name}.u{ui}", unit, shape, cur,
                                              "nonrev")
            elif kind == "pool":
                d, h, w = shape[2:]
                if d % 2 or h % 2 or w % 2:
                    raise ShapeError(
                        f"{name}: spatial extents {shape[2:]} not divisible by 2")
                out_shape = shape[:2] + (d // 2, h // 2, w // 2)
                cur = emit(TraceEntry(name, "nonrev", out_shape, 0, (cur,)))
            elif kind == "upsample":
                d, h, w = shape[2:]
                out_shape = shape[:2] + (2 * d, 2 * h, 2 * w)
                cur = emit(TraceEntry(name, "nonrev", out_shape, 0, (cur,)))
            elif kind == "save_skip":
                skips[step[1]] = cur
            elif kind == "concat_skip":
                skip = skips.pop(step[1])
                skip_shape = entries[skip].shape
                out_shape = shape[:1] + (skip_shape[1] + shape[1],) + shape[2:]
                cur = emit(TraceEntry(name, "nonrev", out_shape, 0, (skip, cur)))
            elif kind == "sigmoid":
                cur = emit(TraceEntry(name, "nonrev", shape, 0, (cur,)))
        return entries

    # -- structure ----------------------------------------------------------

    def sequences(self):
        """(path, level, step object) for every sequence or baseline stack."""
        out = []
        for step in self.steps:
            if step[0] in ("seq", "stack"):
                out.append((step[3], step[4], step[2]))
        return out

    def output_shape(self, input_shape):
        return self.trace(input_shape)[-1].shape


def build(spec: ArchitectureSpec, seed: int = 0) -> Network:
    """Construct the network described by ``spec`` with seeded initialization."""
    spec.validate()
    rng = np.random.default_rng(seed)
    widths = spec.levels
    nl = len(widths)
    steps = []

    def seq_for(level, n_blocks, path):
        width = widths[level]
        blocks = [
            make_block(width, rng, spec.kernel_size, spec.group_size,
                       spec.leaky_slope, name=f"{path}{level}.b{i}")
            for i in range(n_blocks)
        ]
        return ReversibleSequence(blocks)

    def stack_for(level, in_ch, path):
        width = widths[level]
        u1 = ConvUnit(in_ch, width, rng, spec.kernel_size, spec.group_size,
                      spec.leaky_slope, spec.norm_epsilon, name=f"{path}{level}.u0")
        u2 = ConvUnit(width, width, rng, spec.kernel_size, spec.group_size,
                      spec.leaky_slope, spec.norm_epsilon, name=f"{path}{level}.u1")
        return Stack([u1, u2])

    steps.append(("conv", "stem",
                  ConvLayer(spec.in_channels, widths[0], spec.stem_kernel_size,
                            rng, "stem")))

    if spec.reversible:
        for i in range(nl):
            steps.append(("seq", f"enc{i}", seq_for(i, spec.encoder_blocks, "enc"),
                          "encoder", i))
            if i < nl - 1:
                steps.append(("save_skip", i))
                steps.append(("pool", f"pool{i}"))
                steps.append(("conv", f"down{i}",
                              ConvLayer(widths[i], widths[i + 1], 1, rng, f"down{i}")))
        for i in range(nl - 2, -1, -1):
            steps.append(("upsample", f"up{i}"))
            steps.append(("concat_skip", i))
            steps.append(("conv", f"merge{i}",
                          ConvLayer(widths[i] + widths[i + 1], widths[i], 1, rng,
                                    f"merge{i}")))
            steps.append(("seq", f"dec{i}", seq_for(i, spec.decoder_blocks, "dec"),
                          "decoder", i))
    else:
        for i in range(nl):
            if i > 0:
                steps.append(("save_skip", i - 1))
                steps.append(("pool", f"pool{i - 1}"))
            in_ch = widths[i] if i == 0 else widths[i - 1]
            steps.append(("stack", f"enc{i}", stack_for(i, in_ch, "enc"),
                          "encoder", i))
        for i in range(nl - 2, -1, -1):
            steps.append(("upsample", f"up{i}"))
            steps.append(("concat_skip", i))
            steps.append(("stack", f"dec{i}",
                          stack_for(i, widths[i] + widths[i + 1], "dec"),
                          "decoder", i))

    steps.append(("conv", "head",
                  ConvLayer(widths[0], spec.out_regions, spec.head_kernel_size,
                            rng, "head")))
    steps.append(("sigmoid", "output"))

    registry = {}
    for step in steps:
        obj = step[2] if len(step) > 2 else None
        if isinstance(obj, Module):
            for p in obj.parameters():
                registry[p.id] = p
    return Network(spec, steps, registry)


def parameter_count(network: Network) -> int:
    return sum(p.element_count for p in network.parameters())


def forward_full_volume(network: Network, volume: Tensor) -> Tensor:
    """Single-pass inference over a whole volume (no tape, no recording)."""
    divisor = 2 ** (len(network.spec.levels) - 1)
    bad = [e for e in volume.shape[2:] if e % divisor]
    if bad:
        raise ShapeError(
            f"volume spatial extents {volume.shape[2:]} must be divisible by "
            f"{divisor} (2^(levels-1))"
        )
    with tape_mod.no_record():
        return network.forward(volume)


# -- checkpoints -------------------------------------------------------------


def save_checkpoint(network: Network, prefix) -> None:
    from . import tensorio

    prefix = str(prefix)
    with open(prefix + ".rvt", "wb") as fh:
        for p in network.parameters():
            tensorio.write_tensor(fh, p.value.data)
    with open(prefix + ".manifest", "w", encoding="utf-8") as fh:
        for p in network.parameters():
            fh.write(p.id + "\n")
    with open(prefix + ".arch", "w", encoding="utf-8") as fh:
        fh.write(spec_to_text(network.spec))


def load_checkpoint(prefix, seed: int = 0) -> Network:
    from . import tensorio

    prefix = str(prefix)
    spec = load_spec(prefix + ".arch")
    network = build(spec, seed=seed)
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
            p.value.data[...] = data
    return network
