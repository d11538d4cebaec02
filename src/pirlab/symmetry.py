"""Symmetrization transforms over table-driven codes.

All transforms are mechanical re-wirings of an existing code: they permute
server or message roles, or space-share several such variants over a longer
message.  The combined key draws one key per block independently, except in
variety symmetrization, where it orders the base keys.  None of them change
the rate, and the output of every transform is a full code the
verifier can re-check from scratch.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import replace

from .analysis import (
    DEFAULT_CAP,
    EnumerationCapExceeded,
    _check_permutation,
    require_within_cap,
    verify_privacy,
)
from .groups import CodeParams
from .model import AnswerFunction, DecomposableCode, digits_label, lift_table


def _inverse(perm: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(inv)


def server_permute(code: DecomposableCode, perm) -> DecomposableCode:
    """Relabel servers: new server n plays old server perm[n]."""
    N = code.params.n_servers
    perm = _check_permutation(perm, N)
    inv = _inverse(perm)
    varieties = tuple(code.varieties[perm[n]] for n in range(N))
    query_map = {
        entry: tuple(per_server[perm[n]] for n in range(N))
        for entry, per_server in code.query_map.items()
    }

    def reconstruct(k: int, f: int, answers) -> tuple[int, ...]:
        return code.reconstruct(k, f, tuple(answers[inv[j]] for j in range(N)))

    return DecomposableCode(
        code.params, varieties, code.keys, query_map, reconstruct if code.reconstruct else None
    )


def message_permute(code: DecomposableCode, perm) -> DecomposableCode:
    """Relabel messages: new message t plays old message inv[t].

    Component tables move with their message; requesting t in the new code
    runs the old code's machinery for request inv[t].
    """
    K = code.params.n_messages
    perm = _check_permutation(perm, K)
    inv = _inverse(perm)
    varieties = tuple(
        tuple(
            AnswerFunction(
                v.label,
                tuple(tuple(row[inv[t]] for t in range(K)) for row in v.tables),
            )
            for v in per_server
        )
        for per_server in code.varieties
    )
    query_map = {
        (k, f): code.query_map[(inv[k], f)]
        for k in range(K)
        for f in range(len(code.keys))
    }

    def reconstruct(k: int, f: int, answers) -> tuple[int, ...]:
        return code.reconstruct(inv[k], f, answers)

    return DecomposableCode(
        code.params, varieties, code.keys, query_map, reconstruct if code.reconstruct else None
    )


def _assemble(blocks, keys, query_combos, cap: int) -> DecomposableCode:
    """Run `blocks` side by side over disjoint slices of one longer message.

    `keys` yields one (per-block key indices, label) pair per combined key;
    `query_combos` yields, server by server, that server's per-block
    query-index tuples in output order.  Each combined query answers with its
    blocks' rows, lifted to the combined slice, and reconstruction splits the
    answers per block.  With the shape charged, the lifted entries are charged
    while the combos are indexed, before any table is lifted or key listed.
    """
    first = blocks[0].params
    N, K, m = first.n_servers, first.n_messages, first.msg_modulus
    # where each block's slice starts, then the combined message length
    *prefixes, total_len = itertools.accumulate((b.params.msg_len for b in blocks), initial=0)
    table_size = m**total_len

    entries = 0
    index_of: list[dict[tuple[int, ...], int]] = []
    for n, combos in enumerate(query_combos):
        lengths = [[v.length for v in b.varieties[n]] for b in blocks]
        lookup: dict[tuple[int, ...], int] = {}
        for combo in combos:
            lookup[combo] = len(lookup)
            entries += K * table_size * sum(map(operator.getitem, lengths, combo))
            require_within_cap(entries, cap)
        index_of.append(lookup)

    @functools.cache
    def lift(table, block_index: int) -> tuple[int, ...]:
        return lift_table(table, m, prefixes[block_index], total_len)

    varieties = []
    for n, lookup in enumerate(index_of):
        # each block's rows per query, lifted once and shared by every combo
        lifted = [
            [tuple(tuple(lift(t, i) for t in row) for row in v.tables) for v in b.varieties[n]]
            for i, b in enumerate(blocks)
        ]
        labels = [[v.label for v in b.varieties[n]] for b in blocks]
        per_server = []
        for combo in lookup:
            rows = tuple(itertools.chain.from_iterable(map(operator.getitem, lifted, combo)))
            label = "|".join(map(operator.getitem, labels, combo))
            per_server.append(AnswerFunction(label, rows))
        varieties.append(tuple(per_server))

    key_combos, key_labels = zip(*keys)
    query_map = {}
    for k in range(K):
        block_maps = [[b.query_map[(k, f)] for f in range(len(b.keys))] for b in blocks]
        for fi, fc in enumerate(key_combos):
            # zip the blocks' query tuples into each server's combo
            combos = zip(*map(operator.getitem, block_maps, fc))
            query_map[(k, fi)] = tuple(map(operator.getitem, index_of, combos))

    def reconstruct(k: int, fi: int, answers) -> tuple[int, ...]:
        values: list[int] = []
        # each block answers the next slice of every server's answer, in block order
        offsets = [0] * N
        for b, f in zip(blocks, key_combos[fi]):
            queries = b.query_map[(k, f)]
            ends = [offsets[n] + b.answer_length(n, queries[n]) for n in range(N)]
            block_answers = tuple(answers[n][offsets[n] : ends[n]] for n in range(N))
            offsets = ends
            values.extend(b.reconstruct(k, f, block_answers))
        return tuple(values)

    params = replace(first, msg_len=total_len)
    decoder = reconstruct if all(b.reconstruct for b in blocks) else None
    return DecomposableCode(params, tuple(varieties), key_labels, query_map, decoder)


def space_share(blocks, cap: int = DEFAULT_CAP) -> DecomposableCode:
    """Run several codes side by side over disjoint slices of one message.

    All blocks must agree on servers, message count, and both alphabets.
    The combined key picks one block key per block independently; queries,
    answers, and reconstruction are per-block concatenations.
    """
    blocks = tuple(blocks)
    if not blocks:
        raise ValueError("space sharing needs at least one block")
    first = blocks[0].params
    if any(replace(b.params, msg_len=first.msg_len) != first for b in blocks):
        raise ValueError("blocks must agree on servers, messages, and alphabets")

    require_within_cap(math.prod(len(b.keys) for b in blocks), cap)
    require_within_cap(first.msg_modulus ** sum(b.params.msg_len for b in blocks), cap)
    keys = (
        (fc, "|".join(b.keys[f] for b, f in zip(blocks, fc)))
        for fc in itertools.product(*(range(len(b.keys)) for b in blocks))
    )
    query_combos = (
        itertools.product(*(range(b.query_count(n)) for b in blocks))
        for n in range(first.n_servers)
    )
    return _assemble(blocks, keys, query_combos, cap)


def _product_within_cap(factors, cap: int) -> int:
    """The product of `factors`, or a refusal as soon as the running product
    passes the cap, "at least" that product if factors remain: 524288! or
    19683^3628800 in full takes seconds, and the running product passes a
    cap of c after about log2(c) factors of 2 or more."""
    product = 1
    for factor in factors:
        if product > cap:
            raise EnumerationCapExceeded(product, cap, at_least=True)
        product *= factor
    require_within_cap(product, cap)
    return product


def require_shape_within_cap(
    transform: str, params: CodeParams, n_keys: int, cap: int = DEFAULT_CAP
) -> None:
    """Refuse the "server", "message" or "variety" symmetrization of a code
    of this shape with `n_keys` keys, before anything is built, by its block
    count (which bounds the powers after it), its combined key count and the
    m^(total L) entries of a lifted table, each a running product."""
    if transform == "server":
        blocks = params.n_servers  # one per cyclic rotation
    elif transform == "message":
        blocks = _product_within_cap(range(2, params.n_messages + 1), cap)  # K! relabelings
    else:
        blocks = n_keys  # one per base key
    require_within_cap(blocks, cap)
    if transform == "variety":
        _product_within_cap(range(2, n_keys + 1), cap)  # a variety key orders the base keys
    else:  # one key per block, and a power of one key is the one factor 1
        _product_within_cap(itertools.repeat(n_keys, blocks if n_keys > 1 else 1), cap)
    _product_within_cap(itertools.repeat(params.msg_modulus, params.msg_len * blocks), cap)


def server_symmetrize(code: DecomposableCode, cap: int = DEFAULT_CAP) -> DecomposableCode:
    """Space-share the N cyclic server rotations of a code.

    Every server ends up with the same query count (the product of all the
    original counts) and the same expected answer length.
    """
    N = code.params.n_servers
    require_shape_within_cap("server", code.params, len(code.keys), cap)
    blocks = [server_permute(code, [(n + i) % N for n in range(N)]) for i in range(N)]
    return space_share(blocks, cap)


def message_symmetrize(code: DecomposableCode, cap: int = DEFAULT_CAP) -> DecomposableCode:
    """Space-share all K! message relabelings of a code."""
    K = code.params.n_messages
    require_shape_within_cap("message", code.params, len(code.keys), cap)
    blocks = [message_permute(code, perm) for perm in itertools.permutations(range(K))]
    return space_share(blocks, cap)


def _distinct_orderings(items: tuple[int, ...]):
    """Yield the distinct orderings of a sorted tuple in lexicographic order."""
    if not items:
        yield ()
    for i, first in enumerate(items):
        if i == 0 or first != items[i - 1]:
            for rest in _distinct_orderings(items[:i] + items[i + 1 :]):
                yield (first,) + rest


def variety_symmetrize(code: DecomposableCode, cap: int = DEFAULT_CAP) -> DecomposableCode:
    """Equalize per-key answer lengths by running one block per base key.

    The new key orders the base keys uniformly at random (|F|! keys); block i
    encodes slice i of the longer message under base key order[i].  Each
    server then answers every base query a fixed number of times -- however
    the base keys are ordered -- so all its answer lengths coincide.

    Refuses bases whose query distribution depends on the request (the
    block multiset would leak the request).
    """
    p = code.params
    B = len(code.keys)

    privacy = verify_privacy(code)
    if not privacy.passed:
        raise ValueError(f"{privacy.witness.detail}; variety symmetrization needs a private base code")
    require_shape_within_cap("variety", p, B, cap)
    base_seq = [tuple(sorted(code.query_map[(0, f)][n] for f in range(B))) for n in range(p.n_servers)]

    keys = ((order, digits_label(order)) for order in itertools.permutations(range(B)))
    query_combos = (_distinct_orderings(seq) for seq in base_seq)
    return _assemble((code,) * B, keys, query_combos, cap)
