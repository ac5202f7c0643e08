# Imported first: the CLI module pins BLAS to REVVOLNET_THREADS (default 1)
# as it loads, which must happen before numpy loads. One thread gives the
# tests the CLI's deterministic reduction order and stable step timings.
import revvolnet.cli  # noqa: F401

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from revvolnet.unet import ArchitectureSpec  # noqa: E402


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def randn5(rng, shape, scale=0.1):
    return (np.asarray(rng.standard_normal(shape)) * scale).astype(np.float32)


def closed_form_count(spec: ArchitectureSpec) -> int:
    """Independent per-layer parameter table, written from the architecture
    definition rather than from the builder."""
    L = spec.levels
    k3 = spec.kernel_size ** 3
    total = spec.in_channels * L[0] * spec.stem_kernel_size ** 3 + L[0]  # stem

    def conv(cin, cout, kcubed=k3):
        return cin * cout * kcubed + cout

    def gn(c):
        return 2 * c

    if spec.reversible:
        def block(c):
            half = c // 2
            return 2 * (gn(half) + conv(half, half))

        for i, width in enumerate(L):
            total += spec.encoder_blocks * block(width)
            if i < len(L) - 1:
                total += conv(width, L[i + 1], 1)  # post-pool 1x1x1
        for i in range(len(L) - 2, -1, -1):
            total += conv(L[i] + L[i + 1], L[i], 1)  # post-concat 1x1x1
            total += spec.decoder_blocks * block(L[i])
    else:
        def stack(cin, width, n_blocks):
            # two full-width units per block; only the first changes channels
            return (gn(cin) + conv(cin, width)
                    + (2 * n_blocks - 1) * (gn(width) + conv(width, width)))

        for i, width in enumerate(L):
            total += stack(L[i - 1] if i else L[0], width, spec.encoder_blocks)
        for i in range(len(L) - 2, -1, -1):
            total += stack(L[i] + L[i + 1], L[i], spec.decoder_blocks)
    total += L[0] * spec.out_regions * spec.head_kernel_size ** 3 + spec.out_regions
    return total
