"""The C-library Bessel leaves (:mod:`repro.fdlibm.bessel`) and the seeded
search results of the four Bessel ports that read them.

No branch, branch distance or covered bit reads a leaf, so a seeded
``CoverMe`` run on ``ieee754_j0``/``y0``/``j1``/``y1`` finds the same inputs
in the same number of evaluations whichever library computes the leaves:
:data:`PINNED` holds the results taken while the leaves came from
``scipy.special``.
"""

from __future__ import annotations

import math

import pytest

from repro.core.config import CoverMeConfig
from repro.core.coverme import CoverMe
from repro.experiments.runner import instrument_case
from repro.fdlibm import bessel
from repro.fdlibm.suite import get_case

INF = float("inf")
NAN = float("nan")

#: Correctly rounded values (mpmath at 40 digits).
REFERENCE = {
    "j0": {0.5: 0.9384698072408129, 1.0: 0.7651976865579666,
           2.5: -0.048383776468198, 7.0: 0.3000792705195556,
           30.0: -0.08636798358104021},
    "j1": {0.5: 0.2422684576748739, 1.0: 0.4400505857449335,
           2.5: 0.49709410246427405, 7.0: -0.004682823482345833,
           30.0: -0.11875106261662294},
    "y0": {0.5: -0.44451873350670656, 1.0: 0.08825696421567696,
           2.5: 0.4980703596152319, 7.0: -0.025949743967209265,
           30.0: -0.11729573168666403},
    "y1": {0.5: -1.471472392670243, 1.0: -0.7812128213002887,
           2.5: 0.1459181379667858, 7.0: -0.30266723702418485,
           30.0: 0.08442557066174723},
}

LEAVES = sorted(REFERENCE)


class TestLeaves:
    @pytest.mark.parametrize("name", LEAVES)
    def test_reference_values(self, name):
        leaf = getattr(bessel, name)
        for x, expected in REFERENCE[name].items():
            assert leaf(x) == pytest.approx(expected, rel=1e-14, abs=0.0), x

    @pytest.mark.parametrize("name", LEAVES)
    def test_nan_in_gives_nan_out(self, name):
        assert math.isnan(getattr(bessel, name)(NAN))

    def test_first_kind_vanishes_at_infinity(self):
        assert bessel.j0(INF) == 0.0
        assert bessel.j0(-INF) == 0.0
        assert bessel.j1(INF) == 0.0

    def test_second_kind_is_finite_just_above_zero(self):
        for tiny in (5e-324, 1e-300, 2.0 ** -60):
            assert math.isfinite(bessel.y0(tiny)) and bessel.y0(tiny) < 0.0
        assert math.isfinite(bessel.y1(1e-300)) and bessel.y1(1e-300) < 0.0


#: Seed-0 ``CoverMe(n_start=20, n_iter=5)`` result of each Bessel entry:
#: (sorted covered branches, evaluations, generated inputs as hex).
PINNED = {
    "ieee754_j0": (
        (
            '0F', '0T', '1F', '1T', '2T', '3F', '3T', '4F', '4T', '5F', '5T', '6T',
            '7F', '8F', '8T'
        ),
        3468,
        (
            '-0x1.c9ae119a9965fp+2', '0x1.8c12c92514ef9p+3', '0x1.428742cd45bfdp+1',
            '-0x1.7565e54f69810p+0', '0x1.2d5bcc6fe6258p-1', '0x1.7d9ba361a3cdcp+3',
            '0x1.fc4d0ff49f0bcp+1', '-0x1.e5c1d90de169ap+3', '-0x1.1978f46658167p+132',
            '-0x1.1978f46658167p+132', '-0x1.d7a2122886000p-16',
            '0x1.774bf08875734p+130', '0x1.774bf08875734p+130',
            '-0x1.1978f46658167p+132', '-0x1.1978f46658167p+132',
            '0x1.774bf08875734p+130', 'inf', '-inf', 'inf'
        ),
    ),
    "ieee754_y0": (
        (
            '0F', '0T', '1F', '2F', '2T', '3F', '3T', '4T', '5F', '5T', '6F', '6T',
            '7F', '7T'
        ),
        9778,
        (
            '-0x1.c9ae119a9965fp+2', '0x1.8c12c92514ef9p+3', '0x1.428742cd45bfdp+1',
            '-0x1.7565e54f69810p+0', '0x1.2d5bcc6fe6258p-1', '0x1.7d9ba361a3cdcp+3',
            '0x1.fc4d0ff49f0bcp+1', '-0x1.e5c1d90de169ap+3', '-inf', '-inf',
            '0x1.f536fff800000p-28', '0x1.774bf08875734p+130', '0x1.774bf08875734p+130',
            '-inf', '-inf', '0x1.774bf08875734p+130'
        ),
    ),
    "ieee754_j1": (
        (
            '0F', '0T', '1F', '1T', '2T', '3F', '3T', '4F', '4T', '5F', '5T', '6F',
            '6T', '7T'
        ),
        4206,
        (
            '-0x1.c9ae119a9965fp+2', '0x1.8c12c92514ef9p+3', '0x1.428742cd45bfdp+1',
            '-0x1.7565e54f69810p+0', '0x1.2d5bcc6fe6258p-1', '0x1.7d9ba361a3cdcp+3',
            '0x1.fc4d0ff49f0bcp+1', '-0x1.e5c1d90de169ap+3', '-0x1.1978f46658167p+132',
            '-0x1.1978f46658167p+132', '-0x1.63e8c6a800000p-28',
            '0x1.774bf08875734p+130', '0x1.774bf08875734p+130',
            '-0x1.1978f46658167p+132', '-0x1.1978f46658167p+132',
            '0x1.774bf08875734p+130', 'inf', '-inf', 'inf'
        ),
    ),
    "ieee754_y1": (
        (
            '0F', '0T', '1F', '2F', '2T', '3F', '3T', '4T', '5F', '5T', '6F', '6T',
            '7F', '7T'
        ),
        10018,
        (
            '-0x1.c9ae119a9965fp+2', '0x1.8c12c92514ef9p+3', '0x1.428742cd45bfdp+1',
            '-0x1.7565e54f69810p+0', '0x1.2d5bcc6fe6258p-1', '0x1.7d9ba361a3cdcp+3',
            '0x1.fc4d0ff49f0bcp+1', '-0x1.e5c1d90de169ap+3', '-inf', '-inf',
            '0x1.090f33e409800p-56', '0x1.774bf08875734p+130', '0x1.774bf08875734p+130',
            '-inf', '-inf', '0x1.774bf08875734p+130'
        ),
    ),
}


@pytest.mark.parametrize("tier", ["full-trace", "penalty-specialized", "penalty-native"])
@pytest.mark.parametrize("name", sorted(PINNED))
def test_seeded_result_is_pinned(name, tier):
    program = instrument_case(get_case(name))
    config = CoverMeConfig(n_start=20, n_iter=5, seed=0, eval_profile=tier)
    result = CoverMe(program, config).run()
    covered, evaluations, inputs = PINNED[name]
    assert tuple(sorted(str(branch) for branch in result.covered)) == covered
    assert result.evaluations == evaluations
    assert tuple(x.hex() for (x,) in result.inputs) == inputs
