"""Record the stdout digests of the seed-independent CLI commands.

    python3 bench/golden.py

Writes ``bench/golden.json``, which the gate compares canonical stdout
against.  Run it only at a commit whose outputs are known to be right.
"""

from __future__ import annotations

import hashlib
import json

from gate import GOLDEN_PATH
from run import SRC
from workloads import README_IDEAL, _cli_call, load_engine


def main() -> None:
    engine = load_engine(SRC)
    commands = [["compute", "--ideal", README_IDEAL]]
    commands += [["repro", example] for example in sorted(engine.fixtures.FIXTURES)]
    digests = {}
    for argv in commands:
        code, out, _ = _cli_call(engine, argv)()
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited {code}; not recording")
        digests[" ".join(argv)] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN_PATH.name}")


if __name__ == "__main__":
    main()
