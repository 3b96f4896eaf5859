"""The package hashes through one OpenSSL, the one `cryptography` links."""

import hashlib     # the reference digest; no module of the package imports it

import pytest

from valencelab.digest import sha256


@pytest.mark.parametrize("data", [
    b"", b"abc", b"vl-nonce" + bytes(range(256)), b"7:e001", b"\0" * 4096])
def test_sha256_equals_hashlib(data):
    assert sha256(data) == hashlib.sha256(data).digest()
