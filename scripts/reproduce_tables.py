#!/usr/bin/env python3
"""Reproduce the reference tables and the headline metrics grid.

Prints, for a grid of (servers, messages) shapes: capacity, achieved rate,
message size, upload cost, and expected download.  Then renders the full
query/answer tables for the small reference shapes and the length-equalized
variants, the same artifacts `pirlab demo` and `pirlab symmetrize` expose.

Everything here is deterministic; there are no seeds to vary.
"""

import argparse
from fractions import Fraction

from pirlab.analysis import (
    capacity,
    expected_answer_lengths,
    message_size_bits,
    rate,
    upload_cost_bits,
    verify_correctness,
    verify_privacy,
)
from pirlab.cli import render_table
from pirlab.model import builtin_table1
from pirlab.nary import answer_table, export_decomposable, make_nary
from pirlab.symmetry import variety_symmetrize


def metrics_grid(max_servers: int, max_messages: int) -> None:
    print("shape      capacity   rate       message-bits  upload-bits  E[download]")
    for n in range(2, max_servers + 1):
        for k in range(1, max_messages + 1):
            code = export_decomposable(make_nary(n, k))
            cap = capacity(n, k)
            r = rate(code)
            up = upload_cost_bits(code)
            down = sum(expected_answer_lengths(code), Fraction(0))
            marker = "" if r == cap else "   <-- RATE GAP"
            print(
                f"N={n} K={k}   {str(cap):<10} {str(r):<10} "
                f"{message_size_bits(code):<13.4f} {up.total_bits:<12.4f} {down}{marker}"
            )
    print()


def print_table(title: str, rows_per_server) -> None:
    print(title)
    print("\n".join(render_table(rows_per_server)))
    print()


def decomposable_rows(code):
    return [
        [
            (code.query_label(n, qi), f"{code.answer_length(n, qi)} sym")
            for qi in range(code.query_count(n))
        ]
        for n in range(code.params.n_servers)
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-servers", type=int, default=4)
    parser.add_argument("--max-messages", type=int, default=3)
    args = parser.parse_args()

    metrics_grid(args.max_servers, args.max_messages)

    for n, k in [(2, 2), (3, 3)]:
        code = make_nary(n, k)
        print_table(
            f"digit-vector code N={n} K={k} (subscript 0 is the padded dummy):",
            answer_table(code),
        )

    base = builtin_table1()
    sym = variety_symmetrize(base)
    print_table(
        "two-server reference code after length equalization "
        f"(keys {', '.join(sym.keys)}):",
        decomposable_rows(sym),
    )
    ok = verify_correctness(sym).passed and verify_privacy(sym).passed
    print(f"equalized code re-verifies: {'yes' if ok else 'NO'}; rate {rate(sym)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
