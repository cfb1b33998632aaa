"""Importing ``repro`` loads no networking or mail stack.

Every process that imports the package pays for what its imports pull in:
the campaign pool's workers, the CLIs and the benchmark. One stray import
such as ``xml.sax.saxutils`` drags in ``urllib.request``, ``http.client``,
``email`` and ``ssl``, several MiB of resident memory that no simulation
uses. The check runs in a fresh interpreter, because this test process has
already imported whatever other tests import.
"""

from __future__ import annotations

import os
import subprocess
import sys

#: Modules that must stay out of a process that only imports ``repro``.
FORBIDDEN = ("xml.sax", "urllib.request", "http.client", "email", "ssl")

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_PROBE = f"""
import sys
import repro, repro.campaign.registry, repro.campaign.runner
print(",".join(name for name in {FORBIDDEN!r} if name in sys.modules))
"""


def test_importing_repro_loads_no_network_stack():
    env = dict(os.environ, PYTHONPATH=_SRC)
    completed = subprocess.run([sys.executable, "-c", _PROBE], env=env,
                               capture_output=True, text=True, timeout=60)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == ""
