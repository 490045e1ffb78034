"""The scheduling seam: only the kernel touches its queues.

Components schedule through ``Simulator.schedule`` and
``Simulator.call_at_now``.  The event-entry format, the sequence
counter and the timing-wheel geometry are private to
``repro/sim/kernel.py``, so the kernel can change them in one file.
"""

import os
import re

import repro

_SRC = os.path.dirname(os.path.abspath(repro.__file__))
_KERNEL = os.path.join(_SRC, "sim", "kernel.py")

#: Kernel internals no other module may name.
_PRIVATE = re.compile(
    r"\._seq\b|\._ring\b|\._wheel\b|\._wheel_count\b"
    r"|\bWHEEL_MASK\b|\bWHEEL_SLOTS\b"
)


def test_only_the_kernel_touches_its_queues():
    offenders = []
    for root, _, files in os.walk(_SRC):
        for fname in sorted(files):
            path = os.path.join(root, fname)
            if not fname.endswith(".py") or path == _KERNEL:
                continue
            with open(path, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, 1):
                    if _PRIVATE.search(line):
                        offenders.append(
                            f"{os.path.relpath(path, _SRC)}:{lineno}: "
                            f"{line.strip()}")
    assert not offenders, "\n".join(offenders)
