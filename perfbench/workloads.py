"""The benchmark's four workloads.

Each workload builds its inputs (from the seed, where it takes one), sets
the system up, runs one operation at a time and checks every output.  The
library is only ever called through its public module attributes, so the
traced run can wrap those names where the callers look them up.

Why these four: `verify-nary` is the exhaustive verifier at the ROADMAP's
target shape and never touches `net`; `transform` is the only one where
`symmetry` and `codefile` do most of the work, and the memory-heavy one;
`wire-narrow` makes connection handling, the codec and thread hand-offs
dominate (answer arithmetic is trivial at K = 3); `wire-wide` makes the
server's answer arithmetic dominate (K = 1000, m = 256).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import threading
from fractions import Fraction

from pirlab import analysis, cli, codefile, nary, net
from pirlab.groups import MessageSet, RandomKey

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _golden(name: str) -> str:
    with open(os.path.join(GOLDEN, name), encoding="ascii") as fh:
        return fh.read()


def _call_cli(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class Workload:
    name = ""
    seeded = False
    setup_reps = 201  # set-up is repeated and its median reported
    trace_ops = 1  # operations in each pass of the traced run
    collect_between_ops = True  # full GC before each (untimed) operation

    def inputs(self, seed: int, workdir: str) -> dict:
        raise NotImplementedError

    def setup(self, inputs: dict):
        raise NotImplementedError

    def teardown(self, state) -> None:
        pass

    def request(self, inputs: dict):
        return None

    def op(self, inputs: dict, state, request):
        raise NotImplementedError

    def check(self, inputs: dict, state, request, output) -> str | None:
        """None when the output is right, else what is wrong with it."""
        raise NotImplementedError


class VerifyNary(Workload):
    name = "verify-nary"
    shape = (3, 4, 2)

    def inputs(self, seed, workdir):
        return {
            "workdir": workdir,
            "text": _golden("verify-nary-3-4.txt"),
            "jsonl": _golden("verify-nary-3-4.jsonl"),
        }

    def setup(self, inputs):
        return nary.export_decomposable(nary.make_nary(*self.shape))

    def op(self, inputs, state, request):
        out = os.path.join(inputs["workdir"], "verify.jsonl")
        rc, text = _call_cli(["verify", "nary", "3", "4", "--out", out])
        return rc, text, out

    def check(self, inputs, state, request, output):
        rc, text, out = output
        with open(out, encoding="ascii") as fh:
            jsonl = fh.read()
        os.remove(out)
        if rc != 0:
            return f"verify exited {rc}"
        if text != inputs["text"]:
            return "verify text differs from the golden output"
        if jsonl != inputs["jsonl"]:
            return "verify JSONL records differ from the golden output"
        return None


class Transform(Workload):
    name = "transform"
    shape = (2, 3, 2)

    def inputs(self, seed, workdir):
        return {
            "workdir": workdir,
            "stdout": _golden("transform-stdout.txt"),
            "sha256": _golden("transform.sha256").strip(),
        }

    def setup(self, inputs):
        return nary.export_decomposable(nary.make_nary(*self.shape))

    def op(self, inputs, state, request):
        out = os.path.join(inputs["workdir"], "transform.pircode")
        rc, text = _call_cli(["symmetrize", "message", "nary", "2", "3", "--out", out])
        return rc, text, out, codefile.load(out)

    def check(self, inputs, state, request, output):
        rc, text, out, code = output
        with open(out, "rb") as fh:
            data = fh.read()
        os.remove(out)
        if rc != 0:
            return f"symmetrize exited {rc}"
        if text != inputs["stdout"].replace("{out}", out):
            return "symmetrize output differs from the golden output"
        if hashlib.sha256(data).hexdigest() != inputs["sha256"]:
            return "code file SHA-256 differs from the golden digest"
        if codefile.emit(code).encode("ascii") != data:
            return "re-emitting the loaded code changes its bytes"
        if not analysis.rate(code) == analysis.capacity(2, 3) == Fraction(4, 7):
            return "loaded code's rate is not capacity(2,3) = 4/7"
        if not analysis.verify_privacy(code).passed:
            return "loaded code fails verify_privacy"
        return None


class Wire(Workload):
    """Retrievals from in-process loopback servers, one in flight at a time.

    One closed-loop client: with two, the median latency of `wire-narrow`
    ranged 4.5-9.0 ms between runs on a shared 2-CPU host, against 2.6-2.8 ms
    with one in the same period.
    """

    seeded = True
    setup_reps = 51
    collect_between_ops = False

    def __init__(self, name, shape, trace_ops):
        self.name = name
        self.shape = shape
        self.trace_ops = trace_ops

    def inputs(self, seed, workdir):
        n, k, m = self.shape
        rng = random.Random(seed)
        rows = [[rng.randrange(m) for _ in range(n - 1)] for _ in range(k)]
        return {
            "code": nary.make_nary(n, k, m),
            "msgs": MessageSet.from_values(rows, m),
            "rng": rng,  # continues into the request stream
        }

    def setup(self, inputs):
        servers = []
        try:
            for n in range(self.shape[0]):
                servers.append(net.PirServer(n).start())
            for server in servers:
                net.setup_endpoint(server.address, inputs["code"], inputs["msgs"])
        except BaseException:
            self.teardown(servers)
            raise
        return servers

    def teardown(self, state):
        # each stop waits out its server's poll interval; overlap the waits
        stoppers = [threading.Thread(target=server.stop) for server in state]
        for stopper in stoppers:
            stopper.start()
        for stopper in stoppers:
            stopper.join()

    def request(self, inputs):
        n, k, _m = self.shape
        rng = inputs["rng"]
        return rng.randrange(k), RandomKey(tuple(rng.choices(range(n), k=k - 1)), n)

    def op(self, inputs, state, request):
        k, key = request
        endpoints = [server.address for server in state]
        return net.client_retrieve(inputs["code"], endpoints, k, key=key)

    def check(self, inputs, state, request, output):
        k, _key = request
        if output.values != inputs["msgs"][k].values:
            return f"retrieval of message {k} recovered wrong symbols"
        return None

    def expected_answer_symbols(self, inputs) -> Fraction | None:
        """Exact expected ANSWER symbols per retrieval, where the code is
        small enough to tabulate."""
        n, k, _m = self.shape
        if n ** (k - 1) > 4096:
            return None
        export = nary.export_decomposable(inputs["code"])
        return sum(analysis.expected_answer_lengths(export), Fraction(0))


WORKLOADS = {
    w.name: w
    for w in (
        VerifyNary(),
        Transform(),
        Wire(
            "wire-narrow",
            (3, 3, 2),
            trace_ops=1000,
        ),
        Wire(
            "wire-wide",
            (3, 1000, 256),
            trace_ops=200,
        ),
    )
}
