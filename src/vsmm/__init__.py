"""Two-party secure computation toolkit for sparse matrix multiplication.

Provides fixed-point additive secret sharing over Z_2^64, a trusted-dealer
offline phase, oblivious permutation / selection-multiplication primitives,
secure sparse matrix multiplication built from a permutation-based matrix
decomposition, and an end-to-end secure two-layer GCN trainer.
"""

from .ring import FRAC_BITS, encode_fixed, decode_fixed, share_secret, reconstruct, truncate_share

__all__ = [
    "FRAC_BITS",
    "encode_fixed",
    "decode_fixed",
    "share_secret",
    "reconstruct",
    "truncate_share",
]
