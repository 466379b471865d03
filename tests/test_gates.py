"""Every ``verify`` gate holds on the benchmark's model pools.

The models come from ``benchmarks/inputs.py``, loaded read-only: the 32
``verify-sweep`` models at seed 1 and the ``cli-batch`` model.  Only the
MRL round trip and the identity of an infinite-mean component may fail,
and they must fail by name, so a gate miss shows up here before it moves
the benchmark's ``pass_rate``.
"""

import pytest

from bivquant import cli, models

from conftest import bench_inputs


def _pool():
    inputs = bench_inputs()
    verify = inputs.draw_pool(inputs.VERIFY_LAYOUT, 1, "verify-sweep")
    (batch,) = inputs.draw_pool(inputs.CLI_LAYOUT, 1, "cli-batch", inputs.CLI_RANGES)
    return {**{f"verify-sweep-{i:02d}": spec for i, spec in enumerate(verify)}, "cli-batch": batch}


POOL = _pool()


@pytest.mark.parametrize("name", list(POOL))
def test_every_gate_holds(name):
    model = models.model_from_dict(POOL[name])
    infinite = {
        "first": not model.marginal_x.has_finite_mean,
        "second": not model.marginal_y.has_finite_mean,
    }
    for check, max_res, tol, passed, note, _ in cli._verification_checks(model, None):
        component = check.rsplit("-", 1)[1]
        if infinite[component] and check.startswith(("mrl-roundtrip", "identity")):
            assert not passed and max_res is None and "infinite mean" in note, check
        else:
            assert passed, (check, max_res, tol)
