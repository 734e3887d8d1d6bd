"""Record every operation's expected output fields in perfbench/expected.json.

Run only at a commit whose outputs are trusted; the values then serve as the
reference that every later run is checked against:

    python3 perfbench/record_expected.py
"""

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def main():
    expected = {}
    for w in WORKLOADS:
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", w,
               "--seed", "0", "--record", "--spawned-at",
               str(time.clock_gettime_ns(time.CLOCK_MONOTONIC))]
        out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True,
                             text=True, check=True).stdout
        expected.update(json.loads(out.splitlines()[-1])["summaries"])
    (HERE / "expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(expected)} operations")


if __name__ == "__main__":
    main()
