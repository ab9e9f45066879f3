"""Grammar-based program generator for the crash-free fuzz gate.

Generates small mini-C programs in the subscripted-subscript dialect the
analysis consumes, together with an environment that makes them *safe to
execute*: every array is pre-allocated, every generated subscript is
provably in range, and no division by zero can occur.  The generator's job
is NOT to produce race-free programs — scatter loops through randomly
filled index arrays are deliberately racy — the *compiler's* job is to
refuse to parallelize those.  The fuzz gate therefore checks two things:

1. analysis and parallelization never raise (fail-soft engine), and
2. every loop the pipeline marks parallel passes the dynamic race check
   (soundness).

Programs mix the paper's idioms (counter fills, affine fills, monotonic
recurrences, gather/scatter consumers) with ineligible constructs (while
loops, breaks, non-unit steps) that must take the conservative path.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Dict, List, Tuple

import numpy as np


@dataclasses.dataclass
class FuzzProgram:
    """One generated program plus an environment it can run in."""

    seed: int
    source: str
    env: Dict[str, Any]

    def fresh_env(self) -> Dict[str, Any]:
        """Independent copy (arrays are mutated by execution)."""
        return {
            k: (v.copy() if isinstance(v, np.ndarray) else v)
            for k, v in self.env.items()
        }


class _Gen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.n = rng.randint(6, 12)
        self.bound = 4 * self.n + 8  # every array has this many elements
        self.index_arrays: List[str] = []  # values always within [0, bound)
        self.data_arrays: List[str] = []
        self.scalars: List[str] = []
        self.counter = 0
        self.env: Dict[str, Any] = {"n": self.n}

    # -- name & value helpers ---------------------------------------------

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def new_index_array(self, prefilled: bool) -> str:
        name = self.fresh("idx")
        self.index_arrays.append(name)
        vals = (
            [self.rng.randrange(self.n) for _ in range(self.bound)]
            if prefilled
            else [0] * self.bound
        )
        self.env[name] = np.array(vals, dtype=np.int64)
        return name

    def new_data_array(self) -> str:
        name = self.fresh("a")
        self.data_arrays.append(name)
        self.env[name] = np.array(
            [self.rng.randrange(-9, 10) for _ in range(self.bound)], dtype=np.int64
        )
        return name

    def new_scalar(self, value: int) -> str:
        name = self.fresh("s")
        self.scalars.append(name)
        self.env[name] = value
        return name

    def any_index_array(self) -> str:
        if self.index_arrays and self.rng.random() < 0.8:
            return self.rng.choice(self.index_arrays)
        return self.new_index_array(prefilled=True)

    def any_data_array(self) -> str:
        if self.data_arrays and self.rng.random() < 0.8:
            return self.rng.choice(self.data_arrays)
        return self.new_data_array()

    def ub(self) -> str:
        """Loop upper bound: symbolic ``n`` or its literal value."""
        return "n" if self.rng.random() < 0.7 else str(self.n)

    # -- expressions --------------------------------------------------------

    def subscript(self, idx_var: str) -> str:
        """An in-range subscript expression using loop index ``idx_var``."""
        r = self.rng.random()
        if r < 0.40:
            return idx_var
        if r < 0.60:
            return f"{idx_var} + {self.rng.randint(1, 3)}"
        if r < 0.85:
            return f"{self.any_index_array()}[{idx_var}]"
        return str(self.rng.randrange(self.n))

    def value_expr(self, idx_var: str, depth: int = 0) -> str:
        """A side-effect-free integer expression (safe to evaluate)."""
        r = self.rng.random()
        if depth >= 2 or r < 0.35:
            leaf = self.rng.random()
            if leaf < 0.3:
                return idx_var
            if leaf < 0.5 and self.scalars:
                return self.rng.choice(self.scalars)
            if leaf < 0.75:
                return str(self.rng.randint(0, 9))
            return f"{self.any_data_array()}[{self.subscript(idx_var)}]"
        op = self.rng.choice(["+", "+", "-", "*"])
        lhs = self.value_expr(idx_var, depth + 1)
        rhs = self.value_expr(idx_var, depth + 1)
        if self.rng.random() < 0.1:
            return f"({lhs} {op} {rhs}) / {self.rng.randint(1, 4)}"
        return f"({lhs} {op} {rhs})"

    # -- program segments ---------------------------------------------------

    def seg_affine_fill(self) -> str:
        arr = self.new_index_array(prefilled=False)
        c0 = self.rng.choice([1, 2])
        c1 = self.rng.randint(0, 3)
        i = self.fresh("i")
        # c0*i + c1 <= 2*(n-1) + 3 < 4n + 8, so the values stay index-safe
        return (
            f"for ({i} = 0; {i} < {self.ub()}; {i}++) "
            f"{arr}[{i}] = {c0} * {i} + {c1};"
        )

    def seg_counter_fill(self) -> str:
        arr = self.new_index_array(prefilled=False)
        data = self.any_data_array()
        k = self.new_scalar(0)
        self.env[k] = 0
        i = self.fresh("i")
        store = i if self.rng.random() < 0.5 else k
        return (
            f"{k} = 0;\n"
            f"for ({i} = 0; {i} < {self.ub()}; {i}++) {{\n"
            f"  if ({data}[{i}] > {self.rng.randint(-3, 3)}) {{\n"
            f"    {arr}[{k}] = {store};\n"
            f"    {k} = {k} + 1;\n"
            f"  }}\n"
            f"}}"
        )

    def seg_recurrence_fill(self) -> str:
        arr = self.new_index_array(prefilled=False)
        d = self.rng.choice([0, 1])
        i = self.fresh("i")
        return (
            f"{arr}[0] = 0;\n"
            f"for ({i} = 1; {i} < {self.ub()}; {i}++) "
            f"{arr}[{i}] = {arr}[{i} - 1] + {d};"
        )

    def seg_scatter(self) -> str:
        idx = self.any_index_array()
        dst = self.any_data_array()
        i = self.fresh("i")
        return (
            f"for ({i} = 0; {i} < {self.ub()}; {i}++) "
            f"{dst}[{idx}[{i}]] = {self.value_expr(i)};"
        )

    def seg_gather(self) -> str:
        idx = self.any_index_array()
        srcv = self.any_data_array()
        dst = self.new_data_array()
        i = self.fresh("i")
        return (
            f"for ({i} = 0; {i} < {self.ub()}; {i}++) "
            f"{dst}[{i}] = {srcv}[{idx}[{i}]] + {self.value_expr(i)};"
        )

    def seg_plain(self) -> str:
        dst = self.any_data_array()
        i = self.fresh("i")
        return (
            f"for ({i} = 0; {i} < {self.ub()}; {i}++) "
            f"{dst}[{self.subscript(i)}] = {self.value_expr(i)};"
        )

    def seg_reduction(self) -> str:
        acc = self.new_scalar(0)
        src = self.any_data_array()
        i = self.fresh("i")
        return (
            f"{acc} = 0;\n"
            f"for ({i} = 0; {i} < {self.ub()}; {i}++) "
            f"{acc} = {acc} + {src}[{i}];"
        )

    def seg_nested(self) -> str:
        dst = self.any_data_array()
        src = self.any_data_array()
        i, j = self.fresh("i"), self.fresh("j")
        return (
            f"for ({i} = 0; {i} < {self.ub()}; {i}++) {{\n"
            f"  for ({j} = 0; {j} < {self.ub()}; {j}++) {{\n"
            f"    {dst}[{i}] = {dst}[{i}] + {src}[{j}];\n"
            f"  }}\n"
            f"}}"
        )

    def seg_guarded_elementwise(self) -> str:
        """``if``-guarded elementwise body: the masked vectorization tier.

        Mixes short-circuit conjunctions/disjunctions, effectful and
        side-effect-free guarded right-hand sides, and optional else
        branches.
        """
        dst = self.any_data_array()
        src = self.any_data_array()
        i = self.fresh("i")
        c = self.rng.randint(-3, 3)
        cond = f"{src}[{i}] > {c}"
        r = self.rng.random()
        if r < 0.3:
            cond = f"{cond} && {self.any_data_array()}[{i}] < {self.rng.randint(4, 9)}"
        elif r < 0.5:
            cond = f"{cond} || {self.any_data_array()}[{i}] == {self.rng.randint(0, 3)}"
        then = f"{dst}[{i}] = {self.value_expr(i)};"
        if self.rng.random() < 0.4:
            acc = self.new_scalar(0)
            then = f"{{ {then} {acc} = {acc} + {self.value_expr(i, 2)}; }}"
        els = ""
        if self.rng.random() < 0.5:
            els = f"\n  else {dst}[{i}] = {self.value_expr(i, 2)};"
        return (
            f"for ({i} = 0; {i} < {self.ub()}; {i}++) {{\n"
            f"  if ({cond}) {then}{els}\n"
            f"}}"
        )

    def seg_csr_nest(self) -> str:
        """CSR-shaped nest over a monotonic row pointer: the segmented tier.

        The row pointer is built nondecreasing (empty rows included) so
        the inner ``rp[i] .. rp[i+1]`` ranges tile a prefix of the data
        arrays; zero-trip rows are common by construction.
        """
        rp = self.fresh("rp")
        vals = [0]
        for _ in range(self.n):
            vals.append(min(vals[-1] + self.rng.randint(0, 3), self.bound - 1))
        vals += [vals[-1]] * (self.bound - len(vals))
        self.env[rp] = np.array(vals, dtype=np.int64)
        self.index_arrays.append(rp)
        data = self.any_data_array()
        dst = self.new_data_array()
        i, j = self.fresh("i"), self.fresh("j")
        t = self.new_scalar(0)
        body = f"{t} = {t} + {data}[{j}];"
        if self.rng.random() < 0.3:
            body = f"{t} = {t} + {data}[{j}] * {self.any_data_array()}[{i}];"
        return (
            f"for ({i} = 0; {i} < {self.ub()}; {i}++) {{\n"
            f"  {t} = 0;\n"
            f"  for ({j} = {rp}[{i}]; {j} < {rp}[{i} + 1]; {j}++) {{\n"
            f"    {body}\n"
            f"  }}\n"
            f"  {dst}[{i}] = {t};\n"
            f"}}"
        )

    def seg_fusable_pair(self) -> str:
        """Adjacent producer/consumer loops over the same iteration space.

        The producer fills ``t[i]`` elementwise; the consumer reads
        ``t[j]`` at the same offset.  This is exactly the shape the
        fusion pass targets, so the fuzz gate exercises propose → check
        → fuse → execute on random bodies (checker-accepted fused loops
        must stay race-free and output-equivalent).  The shared symbolic
        bound keeps the headers fingerprint-equal.
        """
        t = self.new_data_array()
        dst = self.new_data_array()
        ub = self.ub()
        i, j = self.fresh("i"), self.fresh("j")
        prod_rhs = self.value_expr(i, depth=1)
        cons = f"{dst}[{j}] = {t}[{j}] + {self.value_expr(j, 2)};"
        if self.rng.random() < 0.3:
            acc = self.new_scalar(0)
            cons = f"{acc} = {acc} + {t}[{j}];"
        parts = [
            f"for ({i} = 0; {i} < {ub}; {i}++) {t}[{i}] = {prod_rhs};",
            f"for ({j} = 0; {j} < {ub}; {j}++) {cons}",
        ]
        if self.rng.random() < 0.3:
            k = self.fresh("k")
            parts.append(
                f"for ({k} = 0; {k} < {ub}; {k}++) "
                f"{self.new_data_array()}[{k}] = {dst}[{k}] * 2;"
            )
        return "\n".join(parts)

    def seg_almost_monotonic_scatter(self) -> str:
        """Env-provided index array that is monotone except (maybe) one spot.

        The array arrives through the environment, so the static analysis
        can prove nothing about it and the scatter consumer lands in the
        speculative inspector-executor tier: a dispatch-time monotonicity
        scan decides between the compiled-parallel and serial arms.  Half
        the time the fill is genuinely strictly increasing (inspector
        passes, parallel arm); otherwise exactly one position violates
        monotonicity (inspector fails, serial arm).  Either way every
        value stays in ``[0, bound)`` so execution is safe, and the race
        check validates whichever arm actually ran.
        """
        idx = self.fresh("idx")
        self.index_arrays.append(idx)
        # the inspector scans the whole array, so a strictly increasing
        # fill over [0, bound) has to be exactly 0..bound-1
        vals = list(range(self.bound))
        if self.rng.random() < 0.5:
            # violate exactly one interior position (stay nonnegative)
            p = self.rng.randint(1, self.bound - 1)
            vals[p] = max(vals[p - 1] - self.rng.randint(1, 2), 0)
        self.env[idx] = np.array(vals, dtype=np.int64)
        dst = self.any_data_array()
        srcv = self.any_data_array()
        i = self.fresh("i")
        return (
            f"for ({i} = 0; {i} < {self.ub()}; {i}++) "
            f"{dst}[{idx}[{i}]] = {dst}[{idx}[{i}]] + {srcv}[{i}];"
        )

    def seg_while(self) -> str:
        # ineligible construct: the analysis must fall back conservatively
        dst = self.any_data_array()
        j = self.new_scalar(0)
        step = self.rng.choice([1, 2, 3])
        return (
            f"{j} = 0;\n"
            f"while ({j} < {self.ub()}) {{\n"
            f"  {dst}[{j}] = {j};\n"
            f"  {j} = {j} + {step};\n"
            f"}}"
        )

    def seg_break(self) -> str:
        dst = self.any_data_array()
        i = self.fresh("i")
        return (
            f"for ({i} = 0; {i} < {self.ub()}; {i}++) {{\n"
            f"  {dst}[{i}] = {self.value_expr(i)};\n"
            f"  if ({dst}[{i}] > {self.rng.randint(20, 60)}) break;\n"
            f"}}"
        )

    SEGMENTS = (
        ("affine_fill", 3),
        ("counter_fill", 3),
        ("recurrence_fill", 2),
        ("scatter", 3),
        ("gather", 3),
        ("plain", 3),
        ("reduction", 1),
        ("nested", 2),
        ("guarded_elementwise", 3),
        ("csr_nest", 3),
        ("fusable_pair", 3),
        ("almost_monotonic_scatter", 2),
        ("while", 1),
        ("break", 1),
    )

    def program(self) -> str:
        names = [name for name, w in self.SEGMENTS for _ in range(w)]
        parts = []
        for _ in range(self.rng.randint(2, 5)):
            seg = getattr(self, "seg_" + self.rng.choice(names))
            parts.append(seg())
        return "\n".join(parts) + "\n"


def generate(seed: int) -> FuzzProgram:
    """Deterministically generate one safe-to-execute fuzz program."""
    g = _Gen(random.Random(seed))
    src = g.program()
    return FuzzProgram(seed=seed, source=src, env=g.env)


def corpus(count: int, base_seed: int = 0) -> List[FuzzProgram]:
    """The fixed fuzz corpus: seeds ``base_seed .. base_seed+count-1``."""
    return [generate(base_seed + k) for k in range(count)]


# --------------------------------------------------------------------------
# known-racy productions (negative corpus for the static classifier)
# --------------------------------------------------------------------------


def racy_corpus(count: int = 12, base_seed: int = 10_000) -> List[FuzzProgram]:
    """Deterministic programs whose candidate loop is *known racy*.

    Each program's final loop carries a genuine cross-iteration conflict:
    an overlapping scatter through a non-injective index array, a
    loop-invariant store, or a cross-chunk accumulation that is not a
    recognized privatizable reduction.  The static chunk-race classifier
    must answer ``overlapping`` or ``unknown`` for these — never
    ``chunk-disjoint`` (that is the negative half of the agreement gate).
    """
    out: List[FuzzProgram] = []
    for k in range(count):
        rng = random.Random(base_seed + k)
        n = rng.randint(6, 12)
        shape = k % 4
        if shape == 0:
            # overlapping scatter: random (non-injective) index array
            idx = [rng.randrange(max(2, n // 2)) for _ in range(n)]
            src = f"for (i = 0; i < n; i++) a[idx[i]] = a[idx[i]] + i;\n"
            env = {
                "n": n,
                "idx": np.array(idx, dtype=np.int64),
                "a": np.zeros(n, dtype=np.int64),
            }
        elif shape == 1:
            # non-injective index array built in-program (MA, not SMA)
            src = (
                "for (i = 0; i < n; i++) idx[i] = i / 2;\n"
                "for (j = 0; j < n; j++) a[idx[j]] = j;\n"
            )
            env = {
                "n": n,
                "idx": np.zeros(n, dtype=np.int64),
                "a": np.zeros(n, dtype=np.int64),
            }
        elif shape == 2:
            # cross-chunk accumulation into one element, no privatization
            src = f"for (i = 0; i < n; i++) acc[0] = acc[0] + a[i] * {rng.randint(1, 3)};\n"
            env = {
                "n": n,
                "acc": np.zeros(1, dtype=np.int64),
                "a": np.arange(n, dtype=np.int64),
            }
        else:
            # loop-invariant store: every iteration writes the same cell
            c = rng.randrange(n)
            src = f"for (i = 0; i < n; i++) a[{c}] = i;\n"
            env = {"n": n, "a": np.zeros(n, dtype=np.int64)}
        out.append(FuzzProgram(seed=base_seed + k, source=src, env=env))
    return out


# --------------------------------------------------------------------------
# dense rectangular nests (the flat-axis lowering's differential corpus)
# --------------------------------------------------------------------------


class _DenseGen:
    """Rectangular 2-D/3-D nests over integer arrays, sized so every
    subscript stays in range: offset, strided and permuted subscripts,
    linearized ``a[i*W + j]`` reads, read-modify-write stores, inner
    additive reductions and recurrences, with symbolic or literal bounds."""

    LEVELS = ("i", "j", "k")
    EXTENTS = ("n", "m", "p")

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.env: Dict[str, Any] = {}
        self.counter = 0
        for name in self.EXTENTS:
            # an occasional zero-trip or negative-trip level
            self.env[name] = rng.choice([0, -2] if rng.random() < 0.08 else range(3, 8))

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def term(self, lv: str, lb: int) -> Tuple[str, int]:
        """An affine subscript in level ``lv`` and the largest value it takes."""
        top = max(self.env[self.EXTENTS[self.LEVELS.index(lv)]], lb + 1) - 1
        coef = self.rng.choice([1, 1, 1, 2, 3])
        off = self.rng.choice([0, 0, 1, 2, -lb])
        text = lv if coef == 1 else f"{coef} * {lv}"
        if off:
            text = f"{text} + {off}" if off > 0 else f"{text} - {-off}"
        return text, coef * top + off

    def array(self, levels: List[str], lbs: Dict[str, int], out: bool) -> str:
        """A fresh array access over ``levels`` (possibly permuted, maybe
        with a loop-invariant extra axis); allocates the array."""
        name = self.fresh("o" if out else "a")
        order = list(levels)
        self.rng.shuffle(order)
        subs, shape = [], []
        for lv in order:
            text, top = self.term(lv, lbs[lv])
            subs.append(text)
            shape.append(top + 1 + self.rng.randint(0, 2))
        if self.rng.random() < 0.2:
            c, pos = self.rng.randint(0, 2), self.rng.randint(0, len(subs))
            subs.insert(pos, str(c))
            shape.insert(pos, c + 1)
        if out:
            self.env[name] = np.zeros(shape, dtype=np.int64)
        else:
            self.env[name] = np.array(
                [self.rng.randrange(-9, 10) for _ in range(int(np.prod(shape)))],
                dtype=np.int64,
            ).reshape(shape)
        return f"{name}[" + "][".join(subs) + "]"

    def linear(self, levels: List[str], lbs: Dict[str, int]) -> str:
        """A linearized read ``a[i*W + j]`` spanning the two innermost levels."""
        outer, inner = levels[-2], levels[-1]
        w = max(self.env[self.EXTENTS[self.LEVELS.index(inner)]], 1) + self.rng.randint(0, 2)
        top_o = max(self.env[self.EXTENTS[self.LEVELS.index(outer)]], lbs[outer] + 1)
        name = self.fresh("l")
        self.env[name] = np.array(
            [self.rng.randrange(-9, 10) for _ in range(top_o * w + w)], dtype=np.int64
        )
        return f"{name}[{outer} * {w} + {inner}]"

    def value(self, levels: List[str], lbs: Dict[str, int]) -> str:
        parts = []
        for _ in range(self.rng.randint(1, 3)):
            r = self.rng.random()
            if r < 0.55:
                parts.append(self.array(levels, lbs, out=False))
            elif r < 0.7 and len(levels) >= 2:
                parts.append(self.linear(levels, lbs))
            elif r < 0.85:
                parts.append(f"{self.rng.choice(levels)} * {self.rng.randint(1, 4)}")
            else:
                parts.append(str(self.rng.randint(-5, 5)))
        expr = parts[0]
        for p in parts[1:]:
            expr = f"({expr} {self.rng.choice(['+', '-', '*'])} {p})"
        return expr

    def recurrence(self) -> str:
        """A nest ``r[..v + d..] = r[..v..] + value`` over an initialized
        array: a dependence carried by one level ``v`` (an inner one under
        a parallel outer loop, or the outer one), forward or backward."""
        levels, lbs, heads = self.heads()
        carried = self.rng.choice(levels)
        d = self.rng.randint(1, 2) * self.rng.choice([1, -1])
        name = self.fresh("r")
        order = list(levels)
        self.rng.shuffle(order)
        dst, src, shape = [], [], []
        for lv in order:
            if lv == carried:
                top = max(self.env[self.EXTENTS[self.LEVELS.index(lv)]], lbs[lv] + 1) - 1
                dst.append(f"{lv} + {d}" if d > 0 else lv)
                src.append(lv if d > 0 else f"{lv} + {-d}")
                shape.append(top + 1 + abs(d))
            else:
                text, top = self.term(lv, lbs[lv])
                dst.append(text)
                src.append(text)
                shape.append(top + 1)
        self.env[name] = np.array(
            [self.rng.randrange(-9, 10) for _ in range(int(np.prod(shape)))], dtype=np.int64
        ).reshape(shape)
        value = self.value(levels, lbs)
        stmt = f"{name}[{']['.join(dst)}] = {name}[{']['.join(src)}] + {value};"
        return "\n".join(heads) + " {\n" + stmt + "\n}\n"

    def heads(self) -> Tuple[List[str], Dict[str, int], List[str]]:
        """Levels, lower bounds and ``for`` headers of a fresh 2-D/3-D nest."""
        depth = self.rng.choice([2, 2, 3])
        levels = list(self.LEVELS[:depth])
        lbs = {lv: self.rng.choice([0, 0, 1]) for lv in levels}
        heads = []
        for lv, ext in zip(levels, self.EXTENTS):
            ub = ext if self.rng.random() < 0.75 else str(max(self.env[ext], 0))
            heads.append(f"for ({lv} = {lbs[lv]}; {lv} < {ub}; {lv}++)")
        return levels, lbs, heads

    def nest(self) -> str:
        levels, lbs, heads = self.heads()
        r = self.rng.random()
        if r < 0.3:
            # inner additive reduction into a store over the outer levels
            t = self.fresh("t")
            self.env[t] = 0
            body = (
                "{\n"
                f"    {t} = 0;\n"
                f"    {heads[-1]}\n"
                f"        {t} = {t} + {self.value(levels, lbs)};\n"
                f"    {self.array(levels[:-1], lbs, out=True)} = {t};\n"
                "}"
            )
            return "\n".join(heads[:-1]) + "\n" + body + "\n"
        out = self.array(levels, lbs, out=True)
        stmts = [f"{out} = {self.value(levels, lbs)};"]
        if self.rng.random() < 0.35:
            stmts.append(f"{out} = {out} + {self.value(levels, lbs)};")
        if self.rng.random() < 0.25:
            stmts.append(f"{self.array(levels, lbs, out=True)} = {out} * 2;")
        return "\n".join(heads) + " {\n" + "\n".join(stmts) + "\n}\n"


def dense_corpus(
    count: int = 60, base_seed: int = 20_000, recurrences: int = 20
) -> List[FuzzProgram]:
    """Deterministic dense-nest programs for the compiled backends' differential
    test: one to three rectangular nests each, integer data only, so every
    backend must reproduce the interpreter's final state exactly.  The
    ``count`` vectorizable programs come first, then ``recurrences``
    programs of one or two nests with a dependence carried by one level
    (:meth:`_DenseGen.recurrence`)."""
    out: List[FuzzProgram] = []
    for k in range(count):
        g = _DenseGen(random.Random(base_seed + k))
        src = "".join(g.nest() for _ in range(g.rng.randint(1, 3)))
        out.append(FuzzProgram(seed=base_seed + k, source=src, env=g.env))
    for k in range(recurrences):
        seed = base_seed + count + k
        g = _DenseGen(random.Random(seed))
        src = "".join(g.recurrence() for _ in range(g.rng.randint(1, 2)))
        out.append(FuzzProgram(seed=seed, source=src, env=g.env))
    return out


# --------------------------------------------------------------------------
# sparse nests (the segmented windows' and row gathers' differential corpus)
# --------------------------------------------------------------------------


class _SparseGen:
    """CSR nests over monotone, gapped, overlapping, reversed and empty
    row windows; windows reached through increasing, permuted or repeated
    row lists; linearized ``W[e*k + t]`` reads whose trip count matches
    ``k`` or not; and change-detection fills (the paper's Figure 11), one
    of them feeding a certified column consumer.  Integer data only; every
    subscript is in range, except negative rows, which wrap the same way
    on every backend."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.env: Dict[str, Any] = {}
        self.counter = 0

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def ints(self, size: int, lo: int = -9, hi: int = 9) -> np.ndarray:
        return np.array([self.rng.randint(lo, hi) for _ in range(size)], dtype=np.int64)

    def array(self, prefix: str, values) -> str:
        name = self.fresh(prefix)
        self.env[name] = np.array(values, dtype=np.int64)
        return name

    def scalar(self, prefix: str, value: int = 0) -> str:
        name = self.fresh(prefix)
        self.env[name] = value
        return name

    def pointer(self, rows: int) -> List[int]:
        """A row pointer of ``rows + 1`` entries: nondecreasing, all equal
        (every row empty) or with a dip (a reversed window)."""
        shape = self.rng.choice(["monotone", "monotone", "reversed", "empty"])
        rp = [self.rng.randint(0, 2)]
        for _ in range(rows):
            step = 0 if shape == "empty" else self.rng.randint(0, 3)
            if shape == "reversed" and self.rng.random() < 0.3:
                step = -min(rp[-1], self.rng.randint(1, 3))
            rp.append(rp[-1] + step)
        return rp

    def csr(self) -> str:
        """``y[i] = sum val[c*j + off] * x[col[j]]`` over row windows."""
        rows = self.rng.randint(3, 8)
        i, j = self.fresh("i"), self.fresh("j")
        if self.rng.random() < 0.6:
            rp = self.pointer(rows)
            name = self.array("rp", rp)
            lo, hi, top = f"{name}[{i}]", f"{name}[{i} + 1]", max(rp)
        else:
            # separate bounds arrays: gaps between windows, or overlaps
            gapped = self.rng.random() < 0.5
            los, his, at = [], [], 0
            for _ in range(rows):
                at = at + self.rng.randint(0, 2) if gapped else max(at - self.rng.randint(0, 2), 0)
                w = self.rng.randint(0, 3)
                los.append(at)
                his.append(at + w)
                at += w
            lo, hi = f"{self.array('lo', los)}[{i}]", f"{self.array('hi', his)}[{i}]"
            top = max(his)
        c, off = self.rng.choice([(1, 0), (1, 0), (2, 0), (1, 1), (3, 2)])
        sub = j if c == 1 else f"{c} * {j}"
        sub = f"{sub} + {off}" if off else sub
        val = self.array("v", self.ints(c * top + off + 1))
        x = self.array("x", self.ints(rows))
        col = self.array("c", self.ints(top + 1, 0, rows - 1))
        t = self.scalar("t")
        y = self.array("y", [0] * rows)
        return (
            f"for ({i} = 0; {i} < {rows}; {i}++) {{\n"
            f"  {t} = 0;\n"
            f"  for ({j} = {lo}; {j} < {hi}; {j}++)\n"
            f"    {t} = {t} + {val}[{sub}] * {x}[{col}[{j}]];\n"
            f"  {y}[{i}] = {t};\n"
            f"}}\n"
        )

    def row_list(self) -> str:
        """Windows of a monotone row pointer reached through a row list."""
        nrows = self.rng.randint(3, 7)
        rp = [0]
        for _ in range(nrows):
            rp.append(rp[-1] + self.rng.randint(0, 3))
        kind = self.rng.choice(["increasing", "permuted", "repeated"])
        if kind == "increasing":
            rows = sorted(self.rng.sample(range(nrows), self.rng.randint(1, nrows)))
        elif kind == "permuted":
            rows = list(range(nrows))
            self.rng.shuffle(rows)
        else:
            rows = sorted(self.rng.randrange(nrows) for _ in range(nrows))
        ptr = self.array("rp", rp)
        lst = self.array("rows", rows)
        val = self.array("v", self.ints(rp[-1] + 1))
        z = self.array("z", [0] * len(rows))
        i, j, m, t = self.fresh("i"), self.fresh("j"), self.scalar("m"), self.scalar("t")
        return (
            f"for ({i} = 0; {i} < {len(rows)}; {i}++) {{\n"
            f"  {m} = {lst}[{i}];\n"
            f"  {t} = 0;\n"
            f"  for ({j} = {ptr}[{m}]; {j} < {ptr}[{m} + 1]; {j}++)\n"
            f"    {t} = {t} + {val}[{j}] * 2;\n"
            f"  {z}[{i}] = {t};\n"
            f"}}\n"
        )

    def row_gather(self) -> str:
        """``y[i] = sum W[e[i]*k + t] * v[t]`` over ``t < T``, ``T == k``
        mostly; ``W`` sometimes ends in a partial row, ``e`` sometimes
        holds negative rows."""
        k = self.rng.randint(2, 5)
        trips = k if self.rng.random() < 0.7 else k + self.rng.choice([-1, 1])
        wrows = self.rng.randint(2, 6)
        extra = self.rng.randint(1, k - 1) if self.rng.random() < 0.2 else 0
        low = -(wrows - 1) if self.rng.random() < 0.3 else 0
        n = self.rng.randint(2, 7)
        e = self.array("e", self.ints(n, low, wrows - 2))
        w = self.array("W", self.ints(wrows * k + extra))
        v = self.array("v", self.ints(trips))
        y = self.array("y", [0] * n)
        i, t, s = self.fresh("i"), self.fresh("t"), self.scalar("s")
        read = self.rng.choice(
            [f"{e}[{i}] * {k} + {t}", f"{t} + {e}[{i}] * {k}", f"{k} * {e}[{i}] + {t}"]
        )
        return (
            f"for ({i} = 0; {i} < {n}; {i}++) {{\n"
            f"  {s} = 0;\n"
            f"  for ({t} = 0; {t} < {trips}; {t}++)\n"
            f"    {s} = {s} + {w}[{read}] * {v}[{t}];\n"
            f"  {y}[{i}] = {s};\n"
            f"}}\n"
        )

    def change_fill(self) -> str:
        """``if (v[i] != r) { first[h] = i; h = h + 1; r = v[i]; }``."""
        n = self.rng.randint(0, 10)
        runs: List[int] = []
        while len(runs) < n:
            runs += [self.rng.randint(-3, 3)] * self.rng.randint(1, 3)
        v = self.array("v", runs[:n])
        first = self.array("first", [-1] * (n + 1))
        h, r = self.scalar("h"), self.scalar("r", self.rng.randint(-3, 3))
        i = self.fresh("i")
        cond = f"{v}[{i}] != {r}" if self.rng.random() < 0.5 else f"{r} != {v}[{i}]"
        return (
            f"{h} = 0;\n"
            f"for ({i} = 0; {i} < {n}; {i}++) {{\n"
            f"  if ({cond}) {{\n"
            f"    {first}[{h}] = {i};\n"
            f"    {h} = {h} + 1;\n"
            f"    {r} = {v}[{i}];\n"
            f"  }}\n"
            f"}}\n"
        )

    def columns(self) -> str:
        """Figure 11's ``col_ptr`` fill from a sorted column stream, then a
        Figure 10 consumer over the columns' windows that reads and
        writes the same array."""
        nc = self.rng.randint(2, 6)
        counts = [self.rng.randint(1 if self.rng.random() < 0.8 else 0, 3) for _ in range(nc)]
        cols = [c for c, m in enumerate(counts) for _ in range(m)] or [0]
        nnz = len(cols)
        cv = self.array("cv", cols)
        cp = self.array("cp", [0] * (nc + 2))
        p = self.array("p", self.ints(nnz))
        q = self.array("q", self.ints(nnz))
        h, r = self.scalar("h"), self.scalar("r")
        i, c, ind = self.fresh("i"), self.fresh("c"), self.fresh("ind")
        return (
            f"{h} = 1; {cp}[0] = 0; {r} = {cv}[0];\n"
            f"for ({i} = 0; {i} < {nnz}; {i}++) {{\n"
            f"  if ({cv}[{i}] != {r}) {{\n"
            f"    {cp}[{h}] = {i};\n"
            f"    {h} = {h} + 1;\n"
            f"    {r} = {cv}[{i}];\n"
            f"  }}\n"
            f"}}\n"
            f"{cp}[{nc}] = {nnz};\n"
            f"for ({c} = 0; {c} < {nc}; {c}++) {{\n"
            f"  for ({ind} = {cp}[{c}]; {ind} < {cp}[{c} + 1]; {ind}++) {{\n"
            f"    {p}[{ind}] = {p}[{ind}] * 2 + {q}[{ind}] + {c};\n"
            f"  }}\n"
            f"}}\n"
        )

    SEGMENTS = ("csr", "csr", "row_list", "row_gather", "change_fill", "columns")

    def program(self) -> str:
        parts = [getattr(self, self.rng.choice(self.SEGMENTS))() for _ in range(self.rng.randint(1, 3))]
        return "".join(parts)


def sparse_corpus(count: int = 80, base_seed: int = 30_000) -> List[FuzzProgram]:
    """Deterministic sparse-nest programs for the compiled backends'
    differential test (:class:`_SparseGen`): integer data, so every
    backend must reproduce the interpreter's final state exactly."""
    out: List[FuzzProgram] = []
    for k in range(count):
        g = _SparseGen(random.Random(base_seed + k))
        out.append(FuzzProgram(seed=base_seed + k, source=g.program(), env=g.env))
    return out
