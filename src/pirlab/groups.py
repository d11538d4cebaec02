"""Cyclic-group symbol arithmetic and the value containers shared by every code.

Every alphabet in this package is an additive group Z_m.  Message symbols and
answer symbols may live in different groups (moduli m and y); combining symbols
from different groups is always a hard error, never a silent coercion.

All types here are immutable, so they are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass


class ModulusMismatchError(ValueError):
    """Two symbols from different alphabets were combined."""


@dataclass(frozen=True)
class Symbol:
    """An element of Z_modulus."""

    value: int
    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        if not 0 <= self.value < self.modulus:
            raise ValueError(f"value {self.value} outside Z_{self.modulus}")

    def __add__(self, other: "Symbol") -> "Symbol":
        return mod_add(self, other)

    def __sub__(self, other: "Symbol") -> "Symbol":
        return mod_sub(self, other)


def mod_add(a: Symbol, b: Symbol) -> Symbol:
    """Group addition; both operands must share a modulus."""
    if a.modulus != b.modulus:
        raise ModulusMismatchError(
            f"cannot add a Z_{a.modulus} symbol and a Z_{b.modulus} symbol"
        )
    return Symbol((a.value + b.value) % a.modulus, a.modulus)


def mod_sub(a: Symbol, b: Symbol) -> Symbol:
    """Group subtraction (a plus the inverse of b)."""
    if a.modulus != b.modulus:
        raise ModulusMismatchError(
            f"cannot subtract a Z_{b.modulus} symbol from a Z_{a.modulus} symbol"
        )
    return Symbol((a.value - b.value) % a.modulus, a.modulus)


def zero(modulus: int) -> Symbol:
    """The group identity of Z_modulus."""
    return Symbol(0, modulus)


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
    """One stored message: a fixed-length vector of same-modulus symbols."""

    symbols: tuple[Symbol, ...]

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ValueError("a message has at least one symbol")
        mod = self.symbols[0].modulus
        if any(s.modulus != mod for s in self.symbols):
            raise ModulusMismatchError("message symbols must share one modulus")

    @classmethod
    def from_values(cls, values, modulus: int) -> "Message":
        return cls(tuple(Symbol(v, modulus) for v in values))

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(s.value for s in self.symbols)

    @property
    def modulus(self) -> int:
        return self.symbols[0].modulus

    def __len__(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True)
class MessageSet:
    """The full replicated database: K equal-shape messages."""

    messages: tuple[Message, ...]

    def __post_init__(self) -> None:
        if not self.messages:
            raise ValueError("a message set has at least one message")
        first = self.messages[0]
        for msg in self.messages[1:]:
            if len(msg) != len(first) or msg.modulus != first.modulus:
                raise ValueError("all messages must share length and modulus")

    @classmethod
    def from_values(cls, rows, modulus: int) -> "MessageSet":
        return cls(tuple(Message.from_values(row, modulus) for row in rows))

    @property
    def values(self) -> tuple[tuple[int, ...], ...]:
        return tuple(m.values for m in self.messages)

    @property
    def msg_len(self) -> int:
        return len(self.messages[0])

    @property
    def modulus(self) -> int:
        return self.messages[0].modulus

    def __getitem__(self, k: int) -> Message:
        return self.messages[k]

    def __len__(self) -> int:
        return len(self.messages)


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


@dataclass(frozen=True)
class AnswerVector:
    """One server's reply: zero or more same-modulus symbols."""

    symbols: tuple[Symbol, ...]

    def __post_init__(self) -> None:
        if self.symbols:
            mod = self.symbols[0].modulus
            if any(s.modulus != mod for s in self.symbols):
                raise ModulusMismatchError("answer symbols must share one modulus")

    @classmethod
    def from_values(cls, values, modulus: int) -> "AnswerVector":
        return cls(tuple(Symbol(v, modulus) for v in values))

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(s.value for s in self.symbols)

    def __len__(self) -> int:
        return len(self.symbols)


EMPTY_ANSWER = AnswerVector(())


def digits_label(digits) -> str:
    """Compact human-readable label for a digit vector; '-' when empty."""
    seq = tuple(digits)
    if not seq:
        return "-"
    if all(0 <= d < 10 for d in seq):
        return "".join(str(d) for d in seq)
    return ",".join(str(d) for d in seq)
