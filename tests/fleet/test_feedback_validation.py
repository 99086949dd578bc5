"""``/v1/feedback`` validates its counts once, for server and router.

``true_cardinality`` and ``estimate`` must be JSON numbers, not
booleans, that convert to a finite float >= 0, and the statement must
be one the model can estimate.  Anything else is a 400 that reaches no
monitor: the count of the ``serve.qerror`` histogram stays put.  0 stays valid — an empty result, floored to 1 by the
paper's convention.  Both an :class:`EstimationServer` and a fleet
:class:`RouterServer` over two in-process workers are driven; the
in-process workers record into the one global registry.
"""

from __future__ import annotations

import math

import pytest

from repro import obs
from repro.fleet import RouterServer
from repro.serve import EstimationServer, ServeClient, ServeClientError

from .conftest import make_service

#: An integer too large for any float.
HUGE = 10 ** 400

BAD_BODIES = {
    "huge-true-cardinality": {"true_cardinality": HUGE},
    "huge-estimate": {"true_cardinality": 5, "estimate": HUGE},
    "negative": {"true_cardinality": -5},
    "false": {"true_cardinality": False},
    "true": {"true_cardinality": True},
    "minus-infinity": {"true_cardinality": -math.inf},
    "infinity": {"true_cardinality": math.inf},
    "nan": {"true_cardinality": math.nan},
    "string": {"true_cardinality": "5"},
    "missing": {},
    "negative-estimate": {"true_cardinality": 5, "estimate": -3},
    "boolean-estimate": {"true_cardinality": 5, "estimate": True},
    "nan-estimate": {"true_cardinality": 5, "estimate": math.nan},
}


@pytest.fixture(params=["server", "router"])
def served(request, fleet_estimator, local_fleet):
    """The URL of a server, or of a router over two workers."""
    if request.param == "server":
        server = EstimationServer(make_service(fleet_estimator)).start()
    else:
        _, router = local_fleet(workers=2)
        server = RouterServer(router).start()
    yield server.url
    server.stop()


def _observations() -> int:
    snapshot = obs.get_registry().snapshot()["serve.qerror"]
    return sum(series["count"] for series in snapshot["series"])


@pytest.mark.parametrize("body", list(BAD_BODIES.values()),
                         ids=list(BAD_BODIES))
def test_bad_count_is_400_and_unrecorded(served, fleet_sqls, body):
    url = served
    before = _observations()
    with ServeClient(url) as client:
        with pytest.raises(ServeClientError) as excinfo:
            client.post_json("/v1/feedback", {"sql": fleet_sqls[0], **body})
    assert excinfo.value.status == 400, excinfo.value
    assert _observations() == before


@pytest.mark.parametrize("sql", [
    "SELECT count(*) FROM forest WHERE A1 > 5 OR A1 < 2",
    "SELECT count(*) FROM forest WHERE nosuchcol > 3",
], ids=["disjunction", "unknown-attribute"])
def test_rejected_statement_is_400_and_unrecorded(served, sql):
    before = _observations()
    with ServeClient(served) as client:
        with pytest.raises(ServeClientError) as excinfo:
            client.feedback(sql, 500, estimate=3)
    assert excinfo.value.status == 400, excinfo.value
    assert _observations() == before


def test_zero_true_cardinality_is_recorded(served, fleet_sqls):
    url = served
    before = _observations()
    with ServeClient(url) as client:
        response = client.post_json(
            "/v1/feedback", {"sql": fleet_sqls[0], "true_cardinality": 0,
                             "estimate": 4})
    assert response["qerror"] == 4.0
    assert _observations() == before + 1
