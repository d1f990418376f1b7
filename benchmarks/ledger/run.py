"""The command ``BENCHMARK.json`` names: ``python3 benchmarks/ledger/run.py``.

The driver starts it from the checkout root with
``--workload W --seed N --seconds T --trace 0|1`` and no ``PYTHONPATH``;
this shim puts the checkout on ``sys.path`` and hands over to
``python -m benchmarks.ledger run``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.ledger.__main__ import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["run"] + sys.argv[1:]))
