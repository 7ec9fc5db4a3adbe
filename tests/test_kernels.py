import numpy as np
import pytest

from folnersys import (
    Bitmask, ComponentCongruence, Congruence, FolnerSpec, GroupSpec,
    RotationSet, pair_correlation_fft, pair_correlation_naive,
)

Z = GroupSpec("Z")
FZ = FolnerSpec(Z, "interval", start=0)


def test_evens_pair_correlation():
    evens = Congruence(0, 2)
    expected = {-2: 500, -1: 0, 0: 500, 1: 0, 2: 500}
    assert pair_correlation_naive(evens, FZ, 1000, 2) == expected
    assert pair_correlation_fft(evens, FZ, 1000, 2) == expected


def test_kernels_agree_random_bitmasks():
    rng = np.random.default_rng(7)
    for _ in range(20):
        N = int(rng.integers(16, 512))
        H = int(rng.integers(1, 6))
        bits = rng.integers(0, 2, size=N + 2 * H + 40)
        E = Bitmask(-H - 20, bits)
        f = FolnerSpec(Z, "interval", start=0)
        naive = pair_correlation_naive(E, f, N, H)
        assert pair_correlation_fft(E, f, N, H) == naive


def test_kernels_agree_rotation():
    r = RotationSet("golden", "1/2")
    naive = pair_correlation_naive(r, FZ, 2048, 4)
    assert pair_correlation_fft(r, FZ, 2048, 4) == naive


def test_box_kernels_agree():
    g2 = GroupSpec("Zd", 2)
    f = FolnerSpec(g2, "box", anchor=(0, 0))
    E = ComponentCongruence(g2, [(0, 2), (1, 3)])
    naive = pair_correlation_naive(E, f, 32, 2)
    fast = pair_correlation_fft(E, f, 32, 2)
    assert fast == naive
    assert fast[(0, 0)] == sum(
        1 for a in range(32) for b in range(32) if a % 2 == 0 and b % 3 == 1
    )


def test_nonabelian_rejected():
    fh = FolnerSpec(GroupSpec("H3"), "heisenberg_box")
    e = ComponentCongruence(GroupSpec("H3"), [(0, 2), None, None])
    with pytest.raises(ValueError, match="pair correlation needs an interval or box window"):
        pair_correlation_fft(e, fh, 4, 1)
