"""Synthetic streaming applications used as the held-out validation set.

Five generated programs from the signal-processing, linear-algebra and
sorting domains.  Unlike the microbenchmarks they mix instruction groups,
data patterns and instruction-memory positions within one program and
communicate across the mesh, so a model fitted on isolating sweeps is
genuinely extrapolating.  Generation is deterministic in the seed.
"""

from __future__ import annotations

import random

from .refsim import BundleOp, DATA_PATTERNS, Program, RecvOp, SendOp
from .sysconfig import InstructionDef, InstructionGroup, SystemConfig, \
    enumerate_instruction_groups

_ADDR_RANGE = 800   # word addresses drawn from the low imem region
_SIZE_STEP = 4


def _group_pools(isa: list[InstructionDef],
                 config: SystemConfig) -> dict[str, list[InstructionGroup]]:
    groups = enumerate_instruction_groups(isa, config.vliw_slots)
    pools: dict[str, list[InstructionGroup]] = {
        "compute": [], "mem": [], "branch": [], "any": groups}
    for g in groups:
        classes = {s.iclass for s in g.slots if s is not None}
        if classes & {"LOAD", "STORE"}:
            pools["mem"].append(g)
        elif classes & {"BRANCH"}:
            pools["branch"].append(g)
        else:
            pools["compute"].append(g)
    for name in ("compute", "mem", "branch"):
        if not pools[name]:
            pools[name] = groups
    return pools


class _AppBuilder:
    """Accumulates per-CPU op streams with seeded random block contents."""

    def __init__(self, config: SystemConfig, pools: dict, seed: int) -> None:
        self.config = config
        self.pools = pools
        self.rng = random.Random(seed)
        self.ops: dict[int, list] = {}

    def _addr(self, group: InstructionGroup) -> int:
        hi = min(_ADDR_RANGE, self.config.last_bundle_addr(group))
        return self.rng.randrange(0, hi)

    def block(self, cpu: int, length: int, pool: str = "compute",
              mem_every: int = 0) -> None:
        """A basic block: `length` bundles at varied addresses, one pattern."""
        pattern = self.rng.choice(DATA_PATTERNS)
        lst = self.ops.setdefault(cpu, [])
        for i in range(length):
            use_mem = mem_every and (i % mem_every == mem_every - 1)
            group = self.rng.choice(self.pools["mem" if use_mem else pool])
            lst.append(BundleOp(group=group, addr=self._addr(group), pattern=pattern))

    def transfer(self, src: int, dst: int, size: int) -> None:
        size = max(_SIZE_STEP, min(1024, (size // _SIZE_STEP) * _SIZE_STEP))
        self.ops.setdefault(src, []).append(SendOp(dst_cpu=dst, size_bytes=size))
        self.ops.setdefault(dst, []).append(RecvOp(src_cpu=src, size_bytes=size))

    def program(self) -> Program:
        return Program.from_dict(self.ops)


def filter_chain(config: SystemConfig, pools: dict, seed: int = 0) -> Program:
    """Pipeline of filter stages, each forwarding a frame to the next CPU."""
    b = _AppBuilder(config, pools, seed)
    stages = min(config.n_cpus, 6)
    frames = 4
    for _ in range(frames):
        for stage in range(stages):
            b.block(stage, 28, pool="compute", mem_every=4)
            if stage + 1 < stages:
                b.transfer(stage, stage + 1, 256)
    return b.program()


def matmul_tiles(config: SystemConfig, pools: dict, seed: int = 0) -> Program:
    """Workers multiply tiles (load + multiply heavy) and stream partial
    results to an accumulator CPU."""
    b = _AppBuilder(config, pools, seed + 1)
    workers = list(range(1, min(config.n_cpus, 8)))
    if not workers:
        workers = [0]
    acc = 0
    for tile in range(3):
        for w in workers:
            b.block(w, 36, pool="compute", mem_every=3)
            if w != acc:
                b.transfer(w, acc, 128 + 64 * tile)
        b.block(acc, 12, pool="compute", mem_every=6)
    return b.program()


def sorting_network(config: SystemConfig, pools: dict, seed: int = 0) -> Program:
    """Odd-even compare/exchange stages with neighbor exchanges."""
    b = _AppBuilder(config, pools, seed + 2)
    lanes = min(config.n_cpus, 8)
    for stage in range(6):
        lo = stage % 2
        for i in range(lo, lanes - 1, 2):
            b.block(i, 16, pool="branch", mem_every=4)
            b.block(i + 1, 16, pool="branch", mem_every=4)
            b.transfer(i, i + 1, 64)
            b.transfer(i + 1, i, 64)
    if lanes == 1:
        b.block(0, 48, pool="branch", mem_every=4)
    return b.program()


def fft_butterfly(config: SystemConfig, pools: dict, seed: int = 0) -> Program:
    """Butterfly exchange pattern: partner distance doubles per stage."""
    b = _AppBuilder(config, pools, seed + 3)
    n = 1 << (min(config.n_cpus, 8).bit_length() - 1)   # largest power of 2 <= that
    stage = 1
    while stage < n:
        for cpu in range(n):
            partner = cpu ^ stage
            b.block(cpu, 24, pool="compute", mem_every=5)
            if partner > cpu:
                b.transfer(cpu, partner, 96)
                b.transfer(partner, cpu, 96)
        stage *= 2
    if n == 1:
        b.block(0, 64, pool="compute", mem_every=5)
    return b.program()


def reduction_tree(config: SystemConfig, pools: dict, seed: int = 0) -> Program:
    """Binary reduction: leaves compute partial sums pushed up to the root."""
    b = _AppBuilder(config, pools, seed + 4)
    width = 1 << (min(config.n_cpus, 8).bit_length() - 1)   # largest power of 2 <= that
    while width > 1:
        for i in range(width):
            b.block(i, 20, pool="compute", mem_every=4)
        for i in range(0, width, 2):
            b.transfer(i + 1, i, 48)
        width //= 2
    b.block(0, 24, pool="compute", mem_every=4)
    return b.program()


def synthetic_applications(config: SystemConfig, isa,
                           seed: int = 0) -> list[tuple[str, Program]]:
    """The five held-out applications, deterministically generated."""
    pools = _group_pools(isa, config)
    return [
        ("app/filter-chain", filter_chain(config, pools, seed)),
        ("app/matmul-tiles", matmul_tiles(config, pools, seed)),
        ("app/sorting-network", sorting_network(config, pools, seed)),
        ("app/fft-butterfly", fft_butterfly(config, pools, seed)),
        ("app/reduction-tree", reduction_tree(config, pools, seed)),
    ]
