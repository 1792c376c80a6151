"""Every shipped example runs, in-process, and prints what it printed.

Each script is executed as ``__main__`` with :mod:`runpy`, the way
``python examples/<name>.py`` runs it.  Deterministic examples have
their stdout pinned; ``real_workloads`` times real kernels on the host,
so only its content is checked.
"""

import hashlib
import pathlib
import runpy

import pytest

EXAMPLES = sorted((pathlib.Path(__file__).parent.parent / "examples").glob("*.py"))

#: sha256 of each deterministic example's stdout.  Rule: a digest may
#: change only in a change whose CHANGES.md entry names the example and
#: why its output moved.
STDOUT_SHA256 = {
    "docker_provision": "c976625fb6e1976a8f616656dd3c2b3aded8c0f8b9988c6128a70243a3bed3ff",
    "hybrid_client": "966bedebfb1c9decf836fbdb528984984dbe54bcea4838559e29bfeb147b8d3b",
    "iot_multitenant": "1961937b5fe82e552e23ba208c0b1b8726357494446f1b3f38e4b0c716829757",
    "live_migration": "58b2473d8fecf35d0abc12d4e8f0fd72f89d61e3868d20f5b9a0068420d9b1a6",
    "offload_decision": "cca84acdd41175278ae1626713becd2570a6ca2b2ee95b88d549aefa8caf632c",
    "qos_rebalancing": "2f150eeee13146bce6489f65049e632f3d264b99ae2cadcdc2f1328cddced395",
    "quickstart": "80331c0a04b95723ca3e0dc209e1c6eb54fe72e16a0790be8278ac53e478c018",
    "security_demo": "b1f4629535673026f60c32d9217eab1e70673d7d74d17df8e25bddade6c1f8db",
    "trace_replay": "0d410ddd2cc41bf879b393dd8b2360ddef8f354b3b5b1abba3e6293ae4d7be47",
}


def test_every_example_is_covered():
    names = {path.stem for path in EXAMPLES}
    assert names == set(STDOUT_SHA256) | {"real_workloads"}


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    out = capsys.readouterr().out
    if path.stem == "real_workloads":
        assert "INFECTED" in out and "(PASS)" in out
        return
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[path.stem]
