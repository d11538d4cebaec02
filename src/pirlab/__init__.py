"""Private information retrieval laboratory.

Replicated-storage retrieval codes with information-theoretic privacy:
a capacity-achieving digit-vector construction, a table-driven code model
with exact correctness/privacy verifiers, symmetrization transforms, and a
small TCP wire protocol for running the code against live servers.
"""

from .analysis import (
    DEFAULT_CAP,
    EnumerationCapExceeded,
    VerificationReport,
    Witness,
    capacity,
    check_lemma1_equality,
    check_lemma2_equality,
    check_P1,
    check_P2,
    check_P3,
    entropy_bits,
    message_size_bits,
    rate,
    upload_cost_bits,
    verify,
    verify_correctness,
    verify_privacy,
)
from .groups import CodeParams, Message, MessageSet, RandomKey
from .model import (
    DecomposableCode,
    builtin_sunjafar22,
    builtin_table1,
    is_uniformly_decomposable,
)
from .nary import NaryCode, export_decomposable, make_nary, retrieve
from .symmetry import (
    message_permute,
    message_symmetrize,
    server_permute,
    server_symmetrize,
    space_share,
    variety_symmetrize,
)

__version__ = "0.1.0"

__all__ = [
    "CodeParams",
    "DecomposableCode",
    "DEFAULT_CAP",
    "EnumerationCapExceeded",
    "Message",
    "MessageSet",
    "NaryCode",
    "RandomKey",
    "VerificationReport",
    "Witness",
    "builtin_sunjafar22",
    "builtin_table1",
    "capacity",
    "check_lemma1_equality",
    "check_lemma2_equality",
    "check_P1",
    "check_P2",
    "check_P3",
    "entropy_bits",
    "export_decomposable",
    "is_uniformly_decomposable",
    "make_nary",
    "message_permute",
    "message_size_bits",
    "message_symmetrize",
    "rate",
    "retrieve",
    "server_permute",
    "server_symmetrize",
    "space_share",
    "upload_cost_bits",
    "variety_symmetrize",
    "verify",
    "verify_correctness",
    "verify_privacy",
]
