"""Every case of ``golden_cli.json`` shows the bytes it showed when the file was made.

A change that moves CLI output on purpose rewrites the file with
``PYTHONPATH=src python tests/golden.py``, which prints the cases it changed.
"""

import json

import pytest

import golden


def test_cli_output_matches_golden_digests():
    recorded = json.loads(golden.GOLDEN.read_text())
    drift = golden.fingerprint_drift(recorded["fingerprint"])
    if drift:
        pytest.skip(f"golden digests were made on another platform: {drift}")
    fresh = golden.digests(recorded)
    differ = [case for case, digest in recorded["cases"].items() if fresh[case] != digest]
    assert not differ, f"{len(differ)} of {len(fresh)} cases differ:\n" + "\n".join(differ)
