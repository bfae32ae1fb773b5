"""Fixed reference work that shares no code with chartqa.

The benchmark runs it before every chartqa command. The host's speed
drifts by tens of percent over minutes, and the reference slows down with
it, so command time divided by reference time is steadier across runs than
either alone. The work mixes what chartqa's commands spend their time on:
interpreter start, a libyaml parse, regular-expression substitution and
gzip compression.
"""

import gzip
import re

import yaml

LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
DOCUMENT = "\n".join(
    f"key{i}:\n  name: value-{i}\n  list: [1, 2, {i}]\n  quoted: 'text {{{{ .Values.x{i} }}}}'"
    for i in range(200)
)
DIRECTIVE = re.compile(r"\{\{.*?\}\}")


def main() -> int:
    total = 0
    for _ in range(25):
        doc = yaml.load(DOCUMENT, Loader=LOADER)
        total += sum(len(DIRECTIVE.sub("x", str(v))) for v in doc.values())
        total += len(gzip.compress(DOCUMENT.encode("utf-8"), mtime=0))
    print(total)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
