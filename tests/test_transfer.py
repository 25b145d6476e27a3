"""The envelope's batched cell-weight setup against the per-cell loop it replaced.

`apply_power` evaluates every cell's weight once per bin edge, batched over
cells.  The oracle below is the per-cell setup: each cell's weight on the
bins' right ends (lower bounds), on their left ends (upper bounds), and
once more at r = 0 for the final step.  The two must agree bit for bit.
"""

import numpy as np
import pytest

from cfshrink import _transfer
from cfshrink import rounding as rd
from cfshrink.ivec import dn, ipow_neg, up
from cfshrink.pressure import _sup_seed


def _cell_weight(A1, A2, c, t):
    """Weight enclosure of one cell (A1, A2) at the exact points c; A2 = 0 is infinite."""
    if A1 == A2:
        a = float(A1)
        return ipow_neg(dn(a + c), up(a + c), t)
    return _transfer._cell_sum(A1, A2 if A2 else None, c, t)


def _oracle_weights(layout, t):
    """Per cell: (lo on the bins, hi on the bins, lo at 0, hi at 0)."""
    zero = np.zeros(1)
    out = []
    for A1, A2 in layout.cells:
        w_lo = _cell_weight(A1, A2, layout.r_hi, t)[0]  # weight decreasing in r
        w_hi = _cell_weight(A1, A2, layout.r_lo, t)[1]
        z_lo, z_hi = _cell_weight(A1, A2, zero, t)
        out.append((w_lo, w_hi, z_lo[0], z_hi[0]))
    return out


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _check_against_oracle(layout, t):
    e_lo, e_hi = _transfer._cell_weights(layout, t, layout.edges)
    z_lo, z_hi = _transfer._cell_weights(layout, t, np.zeros(1))  # the n = 1 path
    for k, (w_lo, w_hi, o_lo, o_hi) in enumerate(_oracle_weights(layout, t)):
        cell = layout.cells[k]
        assert _same_bits(e_lo[k, 1:], w_lo), cell
        assert _same_bits(e_hi[k, :-1], w_hi), cell
        assert _same_bits(e_lo[k, 0], o_lo) and _same_bits(e_hi[k, 0], o_hi), cell
        assert _same_bits(z_lo[k, 0], o_lo) and _same_bits(z_hi[k, 0], o_hi), cell


@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("amax", [None, 5, 20, 100])
def test_edge_weights_match_per_cell_oracle(level, amax):
    ts = (1.02, 1.5, 2.2) if level < 2 else (1.5,)
    if amax is not None:
        ts += (0.7,)
    for t in ts:
        _check_against_oracle(_transfer.make_layout(level, amax), t)


def test_edge_weights_match_oracle_level3_subset():
    full = _transfer.make_layout(3)
    cells = full.cells[:2] + full.cells[254:258] + full.cells[-3:]
    layout = _transfer.Layout(full.nbins, cells, None)
    for t in (1.1, 1.9):
        _check_against_oracle(layout, t)


def test_edge_weights_do_not_depend_on_chunking(monkeypatch):
    layout = _transfer.make_layout(1)
    ref = _transfer._cell_weights(layout, 1.6, layout.edges)
    for chunk in (1, 100, 3000, 10**7):
        monkeypatch.setattr(_transfer, "_CHUNK", chunk)
        got = _transfer._cell_weights(layout, 1.6, layout.edges)
        assert _same_bits(got[0], ref[0]) and _same_bits(got[1], ref[1])


# apply_power results of the per-cell setup with np.nextafter rounding,
# as float.hex: (level, amax, n, t, seeded) -> (lo, hi).  The seed is the
# pressure sup seed at x = 0.3.
PARENT_FLOATS = {
    (0, None, 1, 1.6, False): ("0x1.2493e529de98cp+1", "0x1.249439b3aa5f0p+1"),
    (0, None, 2, 1.3, False): ("0x1.ba62aae7a0bdbp+3", "0x1.bb6c7c8fcdd5fp+3"),
    (1, None, 3, 1.6, False): ("0x1.b1dc211622047p+2", "0x1.b2b6eb4724527p+2"),
    (2, None, 2, 2.2, False): ("0x1.e98178d3f8550p-1", "0x1.e9aafd4d271d2p-1"),
    (1, 5, 3, 1.3, False): ("0x1.b0660151000ddp+1", "0x1.b1125fbe7dbcfp+1"),
    (1, 20, 1, 1.3, False): ("0x1.4ae2d8cdf924bp+1", "0x1.4ae2d8cdf92bbp+1"),
    (2, 20, 2, 1.6, False): ("0x1.4f248c46c0194p+1", "0x1.4f368ca0fd1f4p+1"),
    (0, 5, 3, 2.2, True): ("0x1.66eb62aa0b205p-2", "0x1.6c26cbe6709afp-2"),
    (1, 20, 3, 1.6, True): ("0x1.949bd35b9e844p+1", "0x1.9576705a91bc1p+1"),
    (2, 20, 2, 1.3, True): ("0x1.1edf37aa31497p+2", "0x1.1ef1bc54fce94p+2"),
}


@pytest.mark.parametrize("key", sorted(PARENT_FLOATS, key=repr))
def test_apply_power_keeps_parent_floats(key):
    level, amax, n, t, seeded = key
    layout = _transfer.make_layout(level, amax)
    seed = _sup_seed(layout, rd.enclose(0.3), t) if seeded else None
    lo, hi = _transfer.apply_power(n, t, layout, seed=seed)
    assert (float(lo).hex(), float(hi).hex()) == PARENT_FLOATS[key]


def test_make_layout_needs_dyadic_bins(monkeypatch):
    monkeypatch.setattr(_transfer, "_LEVELS", [(1000, 32, 12)])
    with pytest.raises(ValueError, match="power of 2"):
        _transfer.make_layout(0)
