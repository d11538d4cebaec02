#!/usr/bin/env python3
"""Soak-test the wire protocol on loopback servers.

Starts one TCP server per database fragment, installs a random database,
then hammers the cluster with seeded retrievals — every recovered message
is checked against the locally stored one, and the observed mean download
is compared with the exact expectation.  Exits nonzero on any mismatch.
"""

import argparse
import random
import time
from fractions import Fraction

from pirlab.groups import MessageSet
from pirlab.nary import answer_length, make_nary, query_vector, random_key
from pirlab.net import PirServer, client_retrieve, setup_endpoint


def expected_download(code) -> Fraction:
    """Exact mean ANSWER symbols per retrieval.

    Every answer is one symbol except server 0's answer to the all-zero
    query, which is empty and is sent under exactly one of the N^(K-1) keys.
    """
    return code.n_servers - Fraction(1, code.n_servers ** (code.n_messages - 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--servers", type=int, default=3)
    parser.add_argument("--messages", type=int, default=3)
    parser.add_argument("--modulus", type=int, default=2)
    parser.add_argument("--rounds", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    code = make_nary(args.servers, args.messages, args.modulus)
    rng = random.Random(args.seed)
    msgs = MessageSet.from_values(
        [
            [rng.randrange(args.modulus) for _ in range(code.params.msg_len)]
            for _ in range(args.messages)
        ],
        args.modulus,
    )

    servers = [PirServer(n).start() for n in range(args.servers)]
    endpoints = [srv.address for srv in servers]
    try:
        for srv in servers:
            setup_endpoint(srv.address, code, msgs)
            print(f"server {srv.server_index} on {srv.address[0]}:{srv.address[1]}")

        failures = 0
        downloaded = 0
        t0 = time.perf_counter()
        for i in range(args.rounds):
            k = rng.randrange(args.messages)
            key = random_key(code, rng)
            got = client_retrieve(code, endpoints, k, key=key)
            downloaded += sum(
                answer_length(code, n, query_vector(code, n, k, key))
                for n in range(args.servers)
            )
            if got != msgs[k]:
                failures += 1
                print(f"round {i}: MISMATCH for message {k}: {got.values}")
        elapsed = time.perf_counter() - t0

        expected = expected_download(code)
        observed = Fraction(downloaded, args.rounds)
        print(
            f"{args.rounds} retrievals in {elapsed:.2f}s "
            f"({args.rounds / elapsed:.0f}/s), {failures} failures"
        )
        print(f"download/round: observed {float(observed):.4f}, expected {float(expected):.4f}")
        return 1 if failures else 0
    finally:
        for srv in servers:
            srv.stop()


if __name__ == "__main__":
    raise SystemExit(main())
