"""Store the expected exit code and stdout digest of every corpus command.

The stored values are the byte-exact outputs of the commit the benchmark was
defined on; a later commit must reproduce them. Rerun this only when an
output change is intended, and say so where that change is recorded:

    python3 bench/freeze_corpus.py
"""

from __future__ import annotations

import hashlib
import json
import sys

from workloads import CORPUS, SRC

sys.path.insert(0, str(SRC))

from lieforge.cli import run  # noqa: E402


def main() -> None:
    spec = json.loads(CORPUS.read_text(encoding="utf-8"))
    for entry in spec["commands"]:
        for mode, prefix in (("text", []), ("json", ["--output", "json"])):
            text, code = run(prefix + entry["argv"])
            entry[mode] = {"code": code, "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
    lines = ",\n".join("  " + json.dumps(entry, ensure_ascii=False) for entry in spec["commands"])
    CORPUS.write_text('{"commands": [\n' + lines + "\n]}\n", encoding="utf-8")
    print(f"froze {2 * len(spec['commands'])} runs into {CORPUS.name}")


if __name__ == "__main__":
    main()
