"""SHA-256 through the OpenSSL that `cryptography` already links for
Ed25519. `hashlib` would map a second libcrypto into the process (about
3.6 MB resident) for the same digest, so no module of the package imports
it."""

from __future__ import annotations

from cryptography.hazmat.primitives import hashes


def sha256(data: bytes) -> bytes:
    """The 32-byte SHA-256 digest of data: `hashlib.sha256(data).digest()`
    without `hashlib`."""
    h = hashes.Hash(hashes.SHA256())
    h.update(data)
    return h.finalize()
