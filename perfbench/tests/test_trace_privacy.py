"""The trace must not reveal what a client retrieved.

Run with: python3 -m pytest perfbench/tests
"""

import gzip
import itertools
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import pytest  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from pirlab.groups import RandomKey  # noqa: E402

SHAPE = (3, 3, 2)
# every target under every key, the all-zero key (empty answer at server 0) included
REQUESTS = [
    (k, RandomKey(digits, SHAPE[0]))
    for k in range(SHAPE[1])
    for digits in itertools.product(range(SHAPE[0]), repeat=SHAPE[1] - 1)
]


@pytest.fixture(scope="module")
def tracer():
    wl = workloads.Wire("privacy-probe", SHAPE, trace_ops=len(REQUESTS))
    inputs = wl.inputs(seed=5, workdir=None)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.root("setup"):
            state = wl.setup(inputs)
        try:
            for request in REQUESTS:
                with tracer.root("op"):
                    output = wl.op(inputs, state, request)
                assert wl.check(inputs, state, request, output) is None
        finally:
            wl.teardown(state)
    finally:
        tracer.uninstall()
    return tracer


def test_span_records_hold_only_the_schema(tracer, tmp_path):
    path = tmp_path / "spans.csv.gz"
    n = tracer.write_spans(path)
    with gzip.open(path, "rt", encoding="ascii") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    assert tuple(rows[0]) == tracing.SPAN_FIELDS
    assert len(rows) == n + 1
    for row in rows[1:]:
        assert len(row) == len(tracing.SPAN_FIELDS)
        record = dict(zip(tracing.SPAN_FIELDS, row))
        assert record["name"] in tracing.SPAN_NAMES
        assert record["side"] in tracing.SIDES
        assert record["scope"] in tracing.SCOPES


def test_client_side_spans_are_the_same_for_every_target_and_key(tracer):
    spans = list(tracer.spans())
    retrievals = [s for s in spans if s[1] == "net.client_retrieve"]
    assert len(retrievals) == len(REQUESTS)
    signatures = set()
    for retrieval in retrievals:
        rid = retrieval[0]
        client = sorted(
            (name, parent == rid, size)
            for _id, name, side, _scope, _t0, _t1, parent, span_rid, size in spans
            if span_rid == rid and side == "client"
        )
        signatures.add(tuple(client))
    assert len(signatures) == 1, "client-side spans differ between retrievals"


def test_no_client_side_counter_moves_during_retrievals(tracer):
    op = tracing.SCOPES.index("op")
    for name in tracing.COUNTER_NAMES:
        assert tracer.counter(name, tracing.CLIENT, op) == 0, name
    # the server side did count, so the counters were live
    assert tracer.counter("net.connections_opened", tracing.SERVER, op) == 3 * len(REQUESTS)
