"""Ablation B (ours): checker cost versus lattice height.

The typing rules only ever compare, join, and meet labels, so the cost of
checking a fixed program should grow slowly with the size of the lattice
(a chain orders its labels by rank, so every operation is O(1) and
construction is linear in the height).  The benchmark separates the two
costs and reports both series.
"""

from __future__ import annotations

import time

import pytest

from repro.frontend.parser import parse_program
from repro.ifc import check_ifc
from repro.lattice import ChainLattice
from repro.synth import chain_pipeline_program

HEIGHTS = [2, 4, 8, 16, 32]


@pytest.mark.parametrize("height", HEIGHTS)
def test_checking_under_taller_chains(benchmark, height):
    lattice = ChainLattice.of_height(height)
    program = parse_program(chain_pipeline_program(lattice.levels, rounds=4))
    result = benchmark(check_ifc, program, lattice)
    assert result.ok


@pytest.mark.parametrize("height", HEIGHTS)
def test_lattice_construction(benchmark, height):
    lattice = benchmark(ChainLattice.of_height, height)
    assert len(list(lattice.labels())) == height


def _median(fn, repetitions: int = 7) -> float:
    samples = []
    for _ in range(repetitions):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) * 1000.0)
    samples.sort()
    return samples[len(samples) // 2]


def test_lattice_size_series(benchmark, record_table):
    lines = [
        "Ablation B: IFC checking time vs lattice height (chain lattices)",
        f"{'height':>8} {'construct (ms)':>16} {'check height-matched program (ms)':>36}",
    ]

    def measure_series():
        measured = {}
        for height in HEIGHTS:
            lattice = ChainLattice.of_height(height)
            matched_program = parse_program(
                chain_pipeline_program(lattice.levels, rounds=4)
            )
            construct_ms = _median(lambda h=height: ChainLattice.of_height(h))
            matched_ms = _median(lambda: check_ifc(matched_program, lattice))
            measured[height] = (construct_ms, matched_ms)
        return measured

    series = benchmark.pedantic(measure_series, rounds=1, iterations=1)
    check_times = {}
    for height in HEIGHTS:
        construct_ms, matched_ms = series[height]
        check_times[height] = matched_ms
        lines.append(f"{height:>8} {construct_ms:>16.2f} {matched_ms:>36.2f}")
    record_table("ablation_lattice_size.txt", "\n".join(lines))

    # Shape: label operations are rank comparisons, so a 16x taller lattice on a
    # proportionally larger program must stay well under quadratic blow-up.
    assert check_times[32] < check_times[2] * 100
