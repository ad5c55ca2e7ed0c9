"""Record the expected stdout of every benchmark call into expected.json.

Usage, from the root of a checkout of the reference revision:

    python3 perfbench/record_expected.py

Each call is run once per argv its seed can produce.  Byte-checked calls
store the sha256 and length of their stdout; calls that take the seed store
the verdict of their seed-0 output.  Expected exit codes are not recorded:
they are the documented contract in workloads.py.  A call whose exit code
breaks that contract at this revision is listed on stderr.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import BENCH, ENTRY, OUT, child_env, run_call
from workloads import SEED, WORKLOADS, verdict


def main() -> int:
    env = child_env()
    OUT.mkdir(exist_ok=True)
    expected = {}
    for calls in WORKLOADS.values():
        for call in calls:
            for argv in call.variants():
                argv = tuple("0" if a == SEED else a for a in argv)
                code, stdout, _, _ = run_call([sys.executable, "-c", ENTRY, *argv], env)
                if code != call.exit:
                    print(f"{' '.join(argv)}: exit {code}, contract {call.exit}", file=sys.stderr)
                if call.seeded:
                    expected[call.key(argv)] = {"verdict": verdict(stdout)}
                else:
                    expected[call.key(argv)] = {
                        "bytes": len(stdout),
                        "sha256": hashlib.sha256(stdout).hexdigest(),
                    }
    text = json.dumps(expected, indent=1, sort_keys=True) + "\n"
    (BENCH / "expected.json").write_text(text)
    print(f"recorded {len(expected)} expected outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
