"""Inputs made from the benchmark's ``--seed``.

Everything random here comes from ``random.Random`` seeded with a string
built from the seed, which is stable across processes whatever
``PYTHONHASHSEED`` is.  The seed drives:

* which fuzz-grammar programs ``compile-cold`` and ``serve-mixed`` use
  (``tests/fuzz/gen.py``, itself deterministic per program seed);
* the order of operations inside each round of every workload;
* which statement each ``serve-mixed`` edit changes.

It does not reach the kernels' own inputs: ``Benchmark.paper_env()`` and
``small_env()`` fix their own generator seeds.
"""

from __future__ import annotations

import random
import re
from typing import Dict, List, Sequence, Tuple

#: pipeline label (as in ``Benchmark.expected_levels``) -> AnalysisConfig factory name
PIPELINES: Tuple[Tuple[str, str], ...] = (
    ("Cetus", "classical"),
    ("Cetus+BaseAlgo", "base_algorithm"),
    ("Cetus+NewAlgo", "new_algorithm"),
)

#: the daemon's name for the new pipeline (its default)
SERVE_PIPELINE = "new"

_IDENT = re.compile(r"\b([A-Za-z_]\w*)\b(?!\s*\()")


def rng_for(seed: int, stream: str) -> random.Random:
    return random.Random(f"perfbench/{stream}/{seed}")


def fuzz_programs(seed: int, count: int) -> list:
    """``count`` distinct fuzz-grammar programs picked by ``seed``."""
    from tests.fuzz.gen import generate

    rng = rng_for(seed, "fuzz")
    out, seen = [], set()
    while len(out) < count:
        fp = generate(rng.randrange(10**9))
        if fp.source not in seen:
            seen.add(fp.source)
            out.append(fp)
    return out


def rename(source: str, suffix: str) -> str:
    """Append ``suffix`` to every variable of ``source``.

    Keywords and called functions (``sqrt``, ``fabs``) keep their names.
    """
    from repro.lang.lexer import KEYWORDS

    return _IDENT.sub(lambda m: m.group(1) if m.group(1) in KEYWORDS else m.group(1) + suffix, source)


def edit_sites(source: str) -> List[int]:
    """Lines that end a statement inside a loop nest.

    These are indented lines ending in ``;`` that are not loop or branch
    headers: a whole assignment, or the last line of one that spans lines.
    """
    sites = []
    for i, line in enumerate(source.split("\n")):
        text = line.strip()
        if not line[:1].isspace() or not text.endswith(";"):
            continue
        if text.startswith(("for", "if", "while", "{", "}")):
            continue
        sites.append(i)
    return sites


def edit(source: str, line: int, semantic: bool, k: int) -> str:
    """One single-statement edit of ``source`` at ``line``.

    A semantic edit adds ``k`` to the statement's value; a formatting-only
    edit re-indents the statement and pads its ``;`` (``k`` picks the
    padding), which leaves the parsed program unchanged.
    """
    lines = source.split("\n")
    body = lines[line].rstrip()[:-1]
    if semantic:
        lines[line] = f"{body} + {k};"
    else:
        lines[line] = " " * (1 + k % 5) + body + " " * (1 + k // 5 % 7) + ";"
    return "\n".join(lines)


class Traffic:
    """The ``serve-mixed`` request stream, one round at a time.

    A round is 20 requests in a seeded order:

    * 12 warm re-submissions, one per registry kernel (60%);
    * 5 single-statement edits (25%): 3 semantic and 2 formatting-only,
      on kernels taken in turn so every kernel is edited equally often;
    * 3 never-seen programs (15%): 1 registry kernel with its variables
      renamed (kernels in turn) and 2 fuzz-grammar programs.

    Every edited, renamed or fuzz text is new to the daemon, so those
    requests miss the reply cache.
    """

    WARM, EDIT, COLD = "warm", "edit", "cold"

    def __init__(self, seed: int, kernels: Sequence[Tuple[str, str]]):
        self.kernels = list(kernels)  # (name, source)
        self.sites = {name: edit_sites(src) for name, src in self.kernels}
        self.rng = rng_for(seed, "traffic")
        self.fuzz_rng = rng_for(seed, "serve-fuzz")
        self.round = 0
        self._edits = 0
        self._seen: set = set(src for _, src in self.kernels)

    def _fresh_fuzz(self) -> str:
        from tests.fuzz.gen import generate

        while True:
            src = generate(self.fuzz_rng.randrange(10**9)).source
            if src not in self._seen:
                self._seen.add(src)
                return src

    def _fresh_edit(self, name: str, src: str, semantic: bool) -> str:
        while True:
            self._edits += 1
            text = edit(src, self.rng.choice(self.sites[name]), semantic, self._edits)
            if text not in self._seen:
                self._seen.add(text)
                return text

    def next_round(self) -> List[Dict[str, object]]:
        r, n = self.round, len(self.kernels)
        self.round += 1
        reqs: List[Dict[str, object]] = []
        for name, src in self.kernels:
            reqs.append({"cls": self.WARM, "kernel": name, "kind": "warm", "source": src})
        for j in range(5):
            name, src = self.kernels[(5 * r + j) % n]
            semantic = j < 3
            reqs.append({
                "cls": self.EDIT,
                "kernel": name,
                "kind": "semantic" if semantic else "format",
                "source": self._fresh_edit(name, src, semantic),
            })
        name, src = self.kernels[r % n]
        reqs.append({"cls": self.COLD, "kernel": name, "kind": "renamed", "source": rename(src, f"_r{r}")})
        for _ in range(2):
            reqs.append({"cls": self.COLD, "kernel": None, "kind": "fuzz", "source": self._fresh_fuzz()})
        self.rng.shuffle(reqs)
        for k, req in enumerate(reqs):
            req["rid"] = f"{r}.{k}"
        return reqs
