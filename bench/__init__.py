"""The repo's one end-to-end benchmark (see ``bench/README.md``).

``python3 -m bench run --workload W --seed N --seconds S --trace 0|1`` drives a
sharded, replicated trader and the Fig. 6 cascade over real loopback TCP
from a separate load-generator process and prints every metric by name.
"""

import os
import sys

#: Repository root: the benchmark runs from a bare checkout, so it puts
#: ``src`` on the path itself instead of relying on ``PYTHONPATH``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if os.path.isdir(os.path.join(SRC, "repro")) and SRC not in sys.path:
    sys.path.insert(0, SRC)
