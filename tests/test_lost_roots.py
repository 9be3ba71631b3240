"""Wells on which a scan function that changes sign at the poles of f lost roots.

The solver once scanned G = Re(conj(Den)*Delta), which carries an extra sign
change at every zero of Den.  When a pole of f and a root shared a scan cell
the two sign changes cancelled and the root was lost, at the default grid of
4096 points per pi as well as at coarse grids.  Every well here lost a root
that way; each is checked against the 50-digit oracle of `mp_oracle`.
"""

import functools
import json

import pytest

from quatwell import cli
from quatwell.quantization import QuantizationProblem, find_bound_states

from . import mp_oracle


@functools.lru_cache(maxsize=None)
def _oracle(kappa_c, kappa_q):
    return tuple(float(x) for x in mp_oracle.roots(kappa_c, kappa_q))


def _assert_matches_oracle(xs, kappa_c, kappa_q, count):
    want = _oracle(kappa_c, kappa_q)
    assert len(want) == count
    assert len(xs) == count
    assert max(abs(got - ref) for got, ref in zip(xs, want)) < 1e-10


# (kappa_c, kappa_q, state count, top root)
WELLS = {
    # the top root, x_max - 3.3e-4, shared its cell with a pole of f
    "top-root": (32.67880930797408, 14.442175348073128, 11, 32.98577),
    # the only root: none was found
    "single-root": (1.5352316007457731, 0.8839334581772771, 1, 1.5754533803428),
    # the top root, 3.0e-5 below x_max, is missed by the step-1e-4 oracle too
    "weakly-bound-top": (26.500208124745672, 11.083868219729691, 9, 26.700640135795247),
}


@pytest.mark.parametrize("name", [pytest.param(name, id=f"{name}-default")
                                  for name in sorted(WELLS)])
def test_no_root_lost(name):
    kappa_c, kappa_q, count, top = WELLS[name]
    states = find_bound_states(QuantizationProblem(kappa_c, kappa_q)).states
    assert all(not st.flags for st in states)
    _assert_matches_oracle([st.x for st in states], kappa_c, kappa_q, count)
    assert states[-1].x == pytest.approx(top, abs=1e-5)


# the two wells on which `solve --grid 64` disagreed with the benchmark's
# reference: (kappa_c, kappa_q, a, state count)
COARSE_WELLS = {
    # the weakly bound top root x ~ 48.70 shared its cell with the zero of
    # Den next to x_max
    "deep": (46.44674201872046, 31.508523176223125, 1.2697078231736256, 16),
    # the only root, x ~ 1.5387, lies between a pole of f and x_max
    "shallow": (1.264, 1.329, 0.862, 1),
}


@pytest.mark.parametrize("grid", [["--grid", "64"], []], ids=["grid64", "default"])
@pytest.mark.parametrize("name", sorted(COARSE_WELLS))
def test_cli_solve_finds_every_root(name, grid, capsys):
    kappa_c, kappa_q, a, count = COARSE_WELLS[name]
    code = cli.main(["solve", *grid, "--kappa-c", repr(kappa_c),
                     "--kappa-q", repr(kappa_q), "--a", repr(a)])
    assert code == 0
    states = json.loads(capsys.readouterr().out)["results"]
    assert all(not st["flags"] for st in states)
    _assert_matches_oracle([st["x"] for st in states], kappa_c, kappa_q, count)
