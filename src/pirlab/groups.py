"""The value containers shared by every code.

Every alphabet in this package is an additive group Z_m, and a symbol is a
plain int in 0..m-1: the modulus is held once, in `CodeParams`, or beside
the values in `Message` and `MessageSet`.  Message symbols and answer
symbols may live in different groups (moduli m and y).

All types here are immutable, so they are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Symbol:
    """An element of Z_modulus.  The package builds none: symbols are ints.

    Kept only because `perfbench/tracing.py` patches its `__post_init__`.
    """

    value: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        if not 0 <= self.value < self.modulus:
            raise ValueError(f"value {self.value} outside Z_{self.modulus}")


@dataclass(frozen=True)
class CodeParams:
    """Shape of a retrieval code.

    n_servers servers each store all n_messages messages; a message is
    msg_len symbols over Z_msg_modulus; answer symbols live in Z_ans_modulus.
    """

    n_servers: int
    n_messages: int
    msg_len: int
    msg_modulus: int
    ans_modulus: int

    def __post_init__(self) -> None:
        if self.n_servers < 2:
            # a single server always learns which message it served
            raise ValueError("n_servers must be >= 2")
        if self.n_messages < 1:
            raise ValueError("n_messages must be >= 1")
        if self.msg_len < 1:
            raise ValueError("msg_len must be >= 1")
        if self.msg_modulus < 2:
            raise ValueError("msg_modulus must be >= 2")
        if self.ans_modulus < 2:
            raise ValueError("ans_modulus must be >= 2")


@dataclass(frozen=True)
class Message:
    """One stored message: a non-empty vector of symbols in Z_modulus."""

    values: tuple[int, ...]
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        if not self.values:
            raise ValueError("a message has at least one symbol")
        if min(self.values) < 0 or max(self.values) >= self.modulus:
            raise ValueError(f"message symbols must lie in 0..{self.modulus - 1}")


@dataclass(frozen=True)
class MessageSet:
    """The full replicated database: K equal-length messages over Z_modulus."""

    values: tuple[tuple[int, ...], ...]
    modulus: int

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("a message set has at least one message")
        for row in self.values:
            Message(row, self.modulus)  # checks the row's symbols
        if any(len(row) != len(self.values[0]) for row in self.values):
            raise ValueError("all messages must share one length")

    @classmethod
    def from_values(cls, rows, modulus: int) -> "MessageSet":
        return cls(tuple(tuple(row) for row in rows), modulus)

    @property
    def msg_len(self) -> int:
        return len(self.values[0])

    def __getitem__(self, k: int) -> Message:
        return Message(self.values[k], self.modulus)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class QueryVector:
    """A query: one base-N digit per message.

    The digit sum mod N names the server the query may be sent to; that
    attachment is checked wherever a query meets a concrete server.
    """

    digits: tuple[int, ...]
    base: int

    def __post_init__(self) -> None:
        if self.base < 2:
            raise ValueError("digit base must be >= 2")
        if not self.digits:
            raise ValueError("a query carries at least one digit")
        if min(self.digits) < 0 or max(self.digits) >= self.base:
            raise ValueError(f"query digits must lie in 0..{self.base - 1}")

    @property
    def server(self) -> int:
        return sum(self.digits) % self.base

    def label(self) -> str:
        return digits_label(self.digits)


@dataclass(frozen=True)
class RandomKey:
    """The user's private randomness: K-1 base-N digits (empty when K = 1)."""

    digits: tuple[int, ...]
    base: int

    def __post_init__(self) -> None:
        if self.base < 2:
            raise ValueError("digit base must be >= 2")
        if self.digits and (min(self.digits) < 0 or max(self.digits) >= self.base):
            raise ValueError(f"key digits must lie in 0..{self.base - 1}")

    def label(self) -> str:
        return digits_label(self.digits)


def digits_label(digits) -> str:
    """Compact human-readable label for a digit vector; '-' when empty."""
    seq = tuple(digits)
    if not seq:
        return "-"
    if all(0 <= d < 10 for d in seq):
        return "".join(str(d) for d in seq)
    return ",".join(str(d) for d in seq)
