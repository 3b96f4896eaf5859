"""The package hashes through one OpenSSL, the one `cryptography` links."""

import hashlib     # the reference digest; no module of the package imports it
import os
import subprocess
import sys
from pathlib import Path

import pytest

import valencelab
from valencelab.digest import sha256


@pytest.mark.parametrize("data", [
    b"", b"abc", b"vl-nonce" + bytes(range(256)), b"7:e001", b"\0" * 4096])
def test_sha256_equals_hashlib(data):
    assert sha256(data) == hashlib.sha256(data).digest()


def test_importing_the_cli_loads_no_hashlib():
    src = str(Path(valencelab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, valencelab.cli; "
            "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"
