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
from dataclasses import dataclass
from typing import Callable, Optional

from .analysis import DEFAULT_CAP, _require_within_cap
from .groups import CodeParams
from .model import AnswerFunction, ComponentTable, DecomposableCode, digits_label


@dataclass(frozen=True, eq=False)
class SpaceShareCode(DecomposableCode):
    """A product code: each block handles its own slice of a longer message.

    ``blocks`` records the constituent codes with a short descriptor of how
    each was derived; equality stays structural, like the base class.
    """

    blocks: tuple[tuple[DecomposableCode, str], ...] = ()


def _check_permutation(perm, size: int) -> tuple[int, ...]:
    perm = tuple(perm)
    if sorted(perm) != list(range(size)):
        raise ValueError(f"{perm} is not a permutation of 0..{size - 1}")
    return perm


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
    base_reconstruct = code.reconstruct
    reconstruct: Optional[Callable] = None
    if base_reconstruct is not None:

        def reconstruct(k: int, f: int, answers) -> tuple[int, ...]:
            return base_reconstruct(k, f, tuple(answers[inv[j]] for j in range(N)))

    return DecomposableCode(code.params, varieties, code.keys, query_map, reconstruct)


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
    base_reconstruct = code.reconstruct
    reconstruct: Optional[Callable] = None
    if base_reconstruct is not None:

        def reconstruct(k: int, f: int, answers) -> tuple[int, ...]:
            return base_reconstruct(inv[k], f, answers)

    return DecomposableCode(code.params, varieties, code.keys, query_map, reconstruct)


def _lift_table(
    table: ComponentTable, prefix_len: int, total_len: int
) -> ComponentTable:
    """View a block's table as a table over the combined message slice."""
    m = table.msg_modulus
    block_size = m**table.msg_len
    step = m ** (total_len - prefix_len - table.msg_len)
    values = tuple(
        table.values[(r // step) % block_size] for r in range(m**total_len)
    )
    return ComponentTable(values, m, total_len, table.ans_modulus)


def _assemble(blocks, labels, keys, query_combos, cap: int) -> SpaceShareCode:
    """Run `blocks` side by side over disjoint slices of one longer message.

    `keys` yields one (per-block key indices, label) pair per combined key;
    `query_combos` yields, server by server, that server's per-block
    query-index tuples in output order.  Each combined query answers with its
    blocks' rows, lifted to the combined slice, and reconstruction splits the
    answers per block.  The enumeration cap is checked while the combos are
    indexed, before any table is lifted or any key is listed.
    """
    first = blocks[0].params
    N, K, m, y = first.n_servers, first.n_messages, first.msg_modulus, first.ans_modulus
    # where each block's slice starts, then the combined message length
    *prefixes, total_len = itertools.accumulate((b.params.msg_len for b in blocks), initial=0)
    table_size = m**total_len
    _require_within_cap(table_size, cap)

    entries = 0
    index_of: list[dict[tuple[int, ...], int]] = []
    for n, combos in enumerate(query_combos):
        lookup: dict[tuple[int, ...], int] = {}
        for combo in combos:
            lookup[combo] = len(lookup)
            length = sum(b.answer_length(n, qi) for b, qi in zip(blocks, combo))
            entries += K * table_size * length
            _require_within_cap(entries, cap)
        index_of.append(lookup)

    @functools.cache
    def lift(table: ComponentTable, block_index: int) -> ComponentTable:
        return _lift_table(table, prefixes[block_index], total_len)

    varieties = []
    for n, lookup in enumerate(index_of):
        per_server = []
        for combo in lookup:
            rows = []
            for i, b in enumerate(blocks):
                for row in b.varieties[n][combo[i]].tables:
                    rows.append(tuple(lift(row[k], i) for k in range(K)))
            label = "|".join(b.query_label(n, combo[i]) for i, b in enumerate(blocks))
            per_server.append(AnswerFunction(label, tuple(rows)))
        varieties.append(tuple(per_server))

    key_combos, key_labels = zip(*keys)

    def block_queries(k: int, fc: tuple[int, ...], n: int) -> tuple[int, ...]:
        return tuple(b.query_map[(k, fc[i])][n] for i, b in enumerate(blocks))

    query_map = {
        (k, fi): tuple(index_of[n][block_queries(k, fc, n)] for n in range(N))
        for k in range(K)
        for fi, fc in enumerate(key_combos)
    }

    reconstruct: Optional[Callable] = None
    if all(b.reconstruct is not None for b in blocks):

        def reconstruct(k: int, fi: int, answers) -> tuple[int, ...]:
            fc = key_combos[fi]
            values: list[int] = []
            # per-server split points follow the block order of the combo
            combos = [block_queries(k, fc, n) for n in range(N)]
            offsets = [0] * N
            for i, b in enumerate(blocks):
                ends = [offsets[n] + b.answer_length(n, combos[n][i]) for n in range(N)]
                block_answers = tuple(answers[n][offsets[n] : ends[n]] for n in range(N))
                offsets = ends
                values.extend(b.reconstruct(k, fc[i], block_answers))
            return tuple(values)

    return SpaceShareCode(
        CodeParams(N, K, total_len, m, y),
        tuple(varieties),
        key_labels,
        query_map,
        reconstruct,
        tuple(zip(blocks, labels)),
    )


def space_share(
    blocks, labels=None, cap: int = DEFAULT_CAP
) -> SpaceShareCode:
    """Run several codes side by side over disjoint slices of one message.

    All blocks must agree on servers, message count, and both alphabets.
    The combined key picks one block key per block independently; queries,
    answers, and reconstruction are per-block concatenations.
    """
    blocks = tuple(blocks)
    if not blocks:
        raise ValueError("space sharing needs at least one block")
    if labels is None:
        labels = tuple(f"block{i}" for i in range(len(blocks)))
    labels = tuple(labels)
    if len(labels) != len(blocks):
        raise ValueError("need exactly one label per block")
    first = blocks[0].params
    for b in blocks[1:]:
        p = b.params
        if (
            p.n_servers != first.n_servers
            or p.n_messages != first.n_messages
            or p.msg_modulus != first.msg_modulus
            or p.ans_modulus != first.ans_modulus
        ):
            raise ValueError("blocks must agree on servers, messages, and alphabets")

    _require_within_cap(math.prod(len(b.keys) for b in blocks), cap)
    keys = (
        (fc, "|".join(b.keys[f] for b, f in zip(blocks, fc)))
        for fc in itertools.product(*(range(len(b.keys)) for b in blocks))
    )
    query_combos = (
        itertools.product(*(range(b.query_count(n)) for b in blocks))
        for n in range(first.n_servers)
    )
    return _assemble(blocks, labels, keys, query_combos, cap)


def server_symmetrize(code: DecomposableCode, cap: int = DEFAULT_CAP) -> SpaceShareCode:
    """Space-share the N cyclic server rotations of a code.

    Every server ends up with the same query count (the product of all the
    original counts) and the same expected answer length.
    """
    N = code.params.n_servers
    shifts = [tuple((n + i) % N for n in range(N)) for i in range(N)]
    blocks = [server_permute(code, shift) for shift in shifts]
    labels = [f"shift{i}" for i in range(N)]
    return space_share(blocks, labels, cap)


def message_symmetrize(code: DecomposableCode, cap: int = DEFAULT_CAP) -> SpaceShareCode:
    """Space-share all K! message relabelings of a code."""
    K = code.params.n_messages
    _require_within_cap(math.factorial(K), cap)
    perms = list(itertools.permutations(range(K)))
    blocks = [message_permute(code, perm) for perm in perms]
    labels = [f"perm{digits_label(perm)}" for perm in perms]
    return space_share(blocks, labels, cap)


def _distinct_orderings(items: tuple[int, ...]):
    """Yield the distinct orderings of a sorted tuple in lexicographic order."""
    if not items:
        yield ()
    for i, first in enumerate(items):
        if i == 0 or first != items[i - 1]:
            for rest in _distinct_orderings(items[:i] + items[i + 1 :]):
                yield (first,) + rest


def variety_symmetrize(code: DecomposableCode, cap: int = DEFAULT_CAP) -> SpaceShareCode:
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

    base_seq = []
    for n in range(p.n_servers):
        reference = code.query_pmf(n, 0)
        if any(code.query_pmf(n, k) != reference for k in range(1, p.n_messages)):
            raise ValueError(
                f"server {n} query composition depends on the request; "
                "variety symmetrization needs a private base code"
            )
        base_seq.append(tuple(sorted(code.query_map[(0, f)][n] for f in range(B))))

    _require_within_cap(math.factorial(B), cap)
    keys = ((order, digits_label(order)) for order in itertools.permutations(range(B)))
    query_combos = (_distinct_orderings(seq) for seq in base_seq)
    labels = [f"slice{i}" for i in range(B)]
    return _assemble((code,) * B, labels, keys, query_combos, cap)
