"""Seeded search trajectories, pinned bit for bit.

The Python search hands the objective each point as a list of floats,
computed as ``x + t * d`` in the same IEEE order as before; these tests pin
what the optimizer and the engine saw and found before that change, so any
change to the visited points, their order or their bits fails here.

* :data:`TRAJECTORIES`: a recording objective on a fixed 2-D function under
  Powell and basin hopping -- the number of points it saw, the sha256 of
  their hex forms in order, ``nfev``, and the hex of ``x`` and ``fun``.
* :data:`PINNED`: seed-0 ``CoverMe(n_start=20, n_iter=5)`` runs under
  ``penalty-specialized`` -- the covered branches, ``evaluations``, the
  memo hits and misses summed over the starts, and the generated inputs.
  The same runs under ``penalty-native`` (the fused C search, when a C
  compiler is present) give the same branches, ``evaluations`` and inputs,
  recorded before native starts ran their first local search themselves.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.config import CoverMeConfig
from repro.core.coverme import CoverMe
from repro.engine import worker as worker_module
from repro.experiments.runner import instrument_case
from repro.fdlibm.suite import get_case
from repro.instrument.native.cache import cc_available
from repro.optimize.basinhopping import basinhopping
from repro.optimize.local.powell import powell
from repro.optimize.memo import BitPatternMemo


def valley(x) -> float:
    """A curved 2-D valley, NaN far out along the first axis."""
    a, b = float(x[0]), float(x[1])
    if a > 1.0e6:
        return float("nan")
    return (a - 3.0) ** 2 + 10.0 * (b + 1.0) ** 2 + (a * b + 2.5) ** 2


class Recorder:
    """``valley`` that records the hex of every point it is called with."""

    def __init__(self):
        self.points: list[str] = []

    def __call__(self, x) -> float:
        self.points.append(" ".join(float(v).hex() for v in x))
        return valley(x)


#: (points seen, sha256 of the points' hex lines, x as hex, fun as hex).
TRAJECTORIES = {
    'powell': (
        1038,
        '20dd5ccb05171f828539b059e402f0cc477391093669a6be6ce03baaf7a3b8e3',
        ('0x1.69e886c8abb67p+1', '-0x1.e5a8f81d0d86fp-1'),
        '0x1.6e052db288880p-4',
    ),
    'basinhopping': (
        4781,
        '8a4d38dfdf834f5bf3b285c97c5aa247184bc577ee0f0a9ed0e979e9a9986b8d',
        ('0x1.69e886c185edbp+1', '-0x1.e5a8f81cbef7ap-1'),
        '0x1.6e052db28887ep-4',
    ),
}

#: name -> (sorted covered branches, evaluations, memo hits, memo misses,
#: generated inputs as hex, one string per input vector).
PINNED = {
    'ieee754_remainder': (
        (
            '0F', '1F', '2T', '3F', '4F', '7F', '7T', '8F', '8T',
        ),
        42296, 2500, 42256,
        (
            '-0x1.c9ae119a9965fp+2 -0x1.a31859ce8d16dp+3',
            '0x1.8c12c92514ef9p+3 -0x1.94c426bc374efp+3',
            '0x1.428742cd45bfdp+1 -0x1.be6807dd7ffc3p+3',
            '-0x1.7565e54f69810p+0 -0x1.23ce80b4b9738p-1',
            '0x1.2d5bcc6fe6258p-1 -0x1.e758bbfcdf346p+3',
            '0x1.7d9ba361a3cdcp+3 -0x1.6e5871f749151p+1',
            '0x1.fc4d0ff49f0bcp+1 0x1.487e503370199p+1',
            '-0x1.e5c1d90de169ap+3 -0x1.14d4fd812e8c4p+2',
        ),
    ),
    'ieee754_hypot': (
        (
            '0F', '0T', '10F', '1F', '1T', '2F', '6F', '9F', '9T',
        ),
        6928, 468, 6888,
        (
            '-0x1.c9ae119a9965fp+2 -0x1.a31859ce8d16dp+3',
            '0x1.8c12c92514ef9p+3 -0x1.94c426bc374efp+3',
            '0x1.428742cd45bfdp+1 -0x1.be6807dd7ffc3p+3',
            '-0x1.7565e54f69810p+0 -0x1.23ce80b4b9738p-1',
            '0x1.2d5bcc6fe6258p-1 -0x1.e758bbfcdf346p+3',
            '0x1.7d9ba361a3cdcp+3 -0x1.6e5871f749151p+1',
            '0x1.fc4d0ff49f0bcp+1 0x1.487e503370199p+1',
            '-0x1.e5c1d90de169ap+3 -0x1.14d4fd812e8c4p+2',
            '0x1.5ae281cb5f7aep+3 -0x1.cd6df11800000p-63',
            '0x1.5900d883e0000p-60 0x1.7003870b6399cp+1',
            '-0x1.2a83e56a60000p-57 0x1.02bd88032cb29p+4',
            '0x1.3be93f36a0000p-59 0x1.033aff1e69680p+4',
        ),
    ),
    'fdlibm_cbrt': (
        (
            '0F', '1F', '2F',
        ),
        23999, 2239, 23959,
        (
            '-0x1.c9ae119a9965fp+2', '0x1.8c12c92514ef9p+3',
            '0x1.428742cd45bfdp+1', '-0x1.7565e54f69810p+0',
            '0x1.2d5bcc6fe6258p-1', '0x1.7d9ba361a3cdcp+3',
            '0x1.fc4d0ff49f0bcp+1', '-0x1.e5c1d90de169ap+3',
        ),
    ),
    'fdlibm_tanh': (
        (
            '0F', '0T', '1F', '1T', '2F', '2T', '3F', '3T', '4F', '4T',
            '5F', '5T',
        ),
        2863, 83, 2825,
        (
            '-0x1.c9ae119a9965fp+2', '0x1.8c12c92514ef9p+3',
            '0x1.428742cd45bfdp+1', '-0x1.7565e54f69810p+0',
            '0x1.2d5bcc6fe6258p-1', '0x1.7d9ba361a3cdcp+3',
            '0x1.fc4d0ff49f0bcp+1', '-0x1.e5c1d90de169ap+3',
            '0x1.69130019cc000p-56', '-0x1.7c5550470c4f7p+4',
            '0x1.cd9cf5e5bc000p-58', '-0x1.83cea38dd0000p-58',
            '-0x1.a03b14a3c095cp+6', '-0x1.a4d305b8d0000p-56',
            '0x1.33e4bc7f80000p-59', '0x1.88d9d2ea10000p-56', 'inf', 'inf',
            '-inf',
        ),
    ),
}


def _check_trajectory(name, recorder, result):
    count, sha, x, fun = TRAJECTORIES[name]
    assert len(recorder.points) == count == result.nfev
    assert hashlib.sha256("\n".join(recorder.points).encode()).hexdigest() == sha
    assert tuple(float(v).hex() for v in result.x) == x
    assert float(result.fun).hex() == fun


def test_powell_trajectory_is_pinned():
    recorder = Recorder()
    result = powell(recorder, np.array([0.5, -7.25]))
    _check_trajectory("powell", recorder, result)


def test_basinhopping_trajectory_is_pinned():
    recorder = Recorder()
    result = basinhopping(recorder, np.array([0.5, -7.25]), n_iter=4, rng=np.random.default_rng(5))
    _check_trajectory("basinhopping", recorder, result)


def test_powell_passes_the_objective_a_list_of_floats():
    seen = []

    def objective(x):
        seen.append(x)
        return valley(x)

    powell(objective, np.array([0.5, -7.25]), max_iterations=2)
    assert seen and all(type(x) is list and len(x) == 2 for x in seen)
    assert all(type(v) is float for x in seen for v in x)


@pytest.mark.parametrize("name", list(PINNED))
def test_seeded_specialized_result_is_pinned(name, monkeypatch):
    memos = []

    class CountingMemo(BitPatternMemo):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            memos.append(self)

    monkeypatch.setattr(worker_module, "BitPatternMemo", CountingMemo)
    program = instrument_case(get_case(name))
    config = CoverMeConfig(n_start=20, n_iter=5, seed=0, eval_profile="penalty-specialized")
    result = CoverMe(program, config).run()
    covered, evaluations, hits, misses, inputs = PINNED[name]
    assert tuple(sorted(str(branch) for branch in result.covered)) == covered
    assert result.evaluations == evaluations
    assert (sum(m.hits for m in memos), sum(m.misses for m in memos)) == (hits, misses)
    assert tuple(" ".join(v.hex() for v in x) for x in result.inputs) == inputs


@pytest.mark.parametrize("name", list(PINNED))
def test_seeded_native_result_is_pinned(name, monkeypatch):
    memos = []

    class CountingMemo(BitPatternMemo):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            memos.append(self)

    monkeypatch.setattr(worker_module, "BitPatternMemo", CountingMemo)
    program = instrument_case(get_case(name))
    config = CoverMeConfig(n_start=20, n_iter=5, seed=0, eval_profile="penalty-native")
    result = CoverMe(program, config).run()
    covered, evaluations, _hits, _misses, inputs = PINNED[name]
    assert tuple(sorted(str(branch) for branch in result.covered)) == covered
    assert result.evaluations == evaluations
    assert tuple(" ".join(v.hex() for v in x) for x in result.inputs) == inputs
    if cc_available():
        assert memos == []  # every start took the fused search
