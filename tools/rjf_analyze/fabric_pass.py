"""Fabric synthesizability + determinism pass (legacy fabric_lint rules).

This is tools/fabric_lint.py's rule set, verbatim in behaviour, hosted on
the suite's shared lexer: the cycle-accurate FPGA model in src/fpga stands
in for RTL, so everything in it must be expressible as fixed-point fabric
logic, and everything in the deterministic subsystems (src/fpga,
src/core/sweep+campaign+scenario, src/fault, src/dsp/simd, the telemetry
transport src/obs/event_ring) must stay bit-reproducible across runs and
thread counts.

Scopes are a property of the directory, not of allow-tags: src/fpga gets
both the fabric rules (float-in-datapath, raw-cast, overflow-multiply)
and the deterministic rules; the other subsystems get only the
deterministic rules. The SIMD DSP kernels are HOST-side vector code — the
soft-Viterbi and FFT kernels are float by design — so exempting them from
float-in-datapath does not loosen the fabric scope one line.

Rule table (DESIGN.md section 11):

  float-in-datapath   float/double types or floating literals in src/fpga.
  raw-cast            static_cast/reinterpret_cast to a sized integer type
                      in src/fpga outside hw_int.h.
  overflow-multiply   a narrowing integer cast applied directly to a `*`
                      expression (the static_cast<uint32_t>(a * b) idiom).
  static-state        thread_local or mutable static data in deterministic
                      subsystems (the PR 3 thread_local cache bug class).
  unordered-iteration std::unordered_{map,set}: iteration order is
                      implementation-defined nondeterminism.
  wall-clock-or-rand  wall clocks or ambient randomness; time and entropy
                      must come in through explicit seeds/parameters.

Escape hatch: `// rjf-analyze: allow(fabric.<rule>)` on the offending
line.
"""

from __future__ import annotations

import pathlib
import re
import tempfile

from base import Pass, PassResult
from lexer import SourceFile

# ---------------------------------------------------------------------------
# Rule matchers (identical to the fabric_lint.py originals)

FLOAT_RE = re.compile(
    r"\b(float|double)\b"
    r"|\b\d+\.\d*(e[+-]?\d+)?f?\b"
    r"|\b\d+e[+-]?\d+f?\b",
    re.IGNORECASE,
)

SIZED_INT = r"(std::)?(u?int(8|16|32|64)_t|__u?int128(_t)?|unsigned\s+__int128)"
RAW_CAST_RE = re.compile(
    r"\b(static_cast|reinterpret_cast)\s*<\s*" + SIZED_INT + r"\s*>"
)
# A narrowing cast whose operand expression contains a multiply at the top
# parenthesis level: static_cast<uint32_t>(a * b).
OVERFLOW_MUL_RE = re.compile(
    r"\bstatic_cast\s*<\s*(std::)?u?int(8|16|32)_t\s*>\s*\([^()]*\*[^()]*\)"
)

UNORDERED_RE = re.compile(r"\bstd::unordered_(map|set|multimap|multiset)\b")

WALLCLOCK_RE = re.compile(
    r"\b(steady_clock|system_clock|high_resolution_clock)\b"
    r"|\bstd::rand\b|\bsrand\s*\(|\brandom_device\b"
)

# `\bstatic\b` does not match inside static_assert/static_cast (underscore
# is a word character), so those need no special-casing.
STATIC_KW_RE = re.compile(r"\bstatic\b\s*(inline\b\s*)?(?P<rest>.*)$")
THREAD_LOCAL_RE = re.compile(r"\bthread_local\b")


def _is_mutable_static(code: str) -> bool:
    """Match static data declarations (namespace-scope or function-local),
    not static member functions or static const/constexpr tables."""
    if THREAD_LOCAL_RE.search(code):
        return True
    m = STATIC_KW_RE.search(code)
    if not m:
        return False
    rest = m.group("rest")
    if re.match(r"(const\b|constexpr\b|consteval\b)", rest):
        return False
    # A '(' before any '=' means a function declaration/definition.
    eq = rest.find("=")
    par = rest.find("(")
    if par != -1 and (eq == -1 or par < eq):
        return False
    return True


class Rule:
    def __init__(self, rid, scope, matcher, message):
        self.rid = rid
        self.scope = scope  # 'fpga' | 'deterministic'
        self.matcher = matcher  # callable(code_line) -> bool
        self.message = message


RULES = [
    Rule(
        "float-in-datapath",
        "fpga",
        lambda code: FLOAT_RE.search(code) is not None,
        "float/double in fabric datapath code (convert at the host boundary,"
        " core/fabric_units.h)",
    ),
    Rule(
        "raw-cast",
        "fpga",
        lambda code: RAW_CAST_RE.search(code) is not None,
        "raw arithmetic cast outside hw_int.h (use hw::UInt/Int"
        " wrap/truncate/sat/narrow)",
    ),
    Rule(
        "overflow-multiply",
        "fpga",
        lambda code: OVERFLOW_MUL_RE.search(code) is not None,
        "narrowing cast wrapped around a multiply: the product is computed"
        " at the unwidened type (UB for signed operands); square/multiply in"
        " the exact widened hw type, then wrap/truncate",
    ),
    Rule(
        "static-state",
        "deterministic",
        _is_mutable_static,
        "thread_local/mutable static state in a deterministic subsystem",
    ),
    Rule(
        "unordered-iteration",
        "deterministic",
        lambda code: UNORDERED_RE.search(code) is not None,
        "unordered container in a deterministic subsystem (iteration order"
        " is implementation-defined)",
    ),
    Rule(
        "wall-clock-or-rand",
        "deterministic",
        lambda code: WALLCLOCK_RE.search(code) is not None,
        "wall clock or ambient randomness in a deterministic subsystem"
        " (inject time/seeds explicitly)",
    ),
]

# Files whose entire purpose is to confine the raw-cast machinery.
CAST_EXEMPT = {"hw_int.h"}


def scoped_files(root: pathlib.Path):
    """Yield (path, scopes) for every file the pass covers."""
    fpga = sorted((root / "src" / "fpga").glob("**/*"))
    fault = sorted((root / "src" / "fault").glob("**/*"))
    sweep = [root / "src" / "core" / "sweep.h", root / "src" / "core" / "sweep.cpp",
             root / "src" / "core" / "campaign.h", root / "src" / "core" / "campaign.cpp",
             root / "src" / "core" / "scenario.h", root / "src" / "core" / "scenario.cpp"]
    # Host-side SIMD kernels: float vector math is their whole job, so only
    # the deterministic scope applies (see the module docstring).
    simd = sorted((root / "src" / "dsp" / "simd").glob("**/*"))
    # Telemetry transport: the SPSC ring must stay free of hidden state and
    # ambient time/entropy or traces stop being byte-reproducible.
    obs = [root / "src" / "obs" / "event_ring.h",
           root / "src" / "obs" / "event_ring.cpp"]
    seen = {}
    for p in fpga:
        if p.suffix in (".h", ".cpp"):
            seen.setdefault(p, set()).update({"fpga", "deterministic"})
    for p in fault + sweep + simd + obs:
        if p.suffix in (".h", ".cpp") and p.exists():
            seen.setdefault(p, set()).add("deterministic")
    return sorted(seen.items())


class FabricPass(Pass):
    pass_id = "fabric"
    title = "fabric synthesizability + determinism (legacy fabric_lint)"

    def rules(self):
        return {r.rid: r.message for r in RULES}

    def _lint_source(self, sf: SourceFile, scopes) -> list:
        """(lineno, rid, message) findings for one lexed file."""
        out = []
        exempt_casts = sf.path.name in CAST_EXEMPT
        for lineno, code, _raw in sf.lines():
            # A narrowing cast of a multiply is also a raw cast; report only
            # the more specific overflow-multiply diagnosis for that line.
            mul_hit = OVERFLOW_MUL_RE.search(code) is not None
            for rule in RULES:
                if rule.scope not in scopes:
                    continue
                if rule.rid in ("raw-cast", "overflow-multiply") and exempt_casts:
                    continue
                if rule.rid == "raw-cast" and mul_hit:
                    continue
                if not rule.matcher(code):
                    continue
                if sf.allowed(lineno, self.pass_id, rule.rid):
                    continue
                out.append((lineno, rule.rid, rule.message))
        return out

    def run(self, ctx):
        result = PassResult(self.pass_id)
        if not (ctx.root / "src" / "fpga").is_dir():
            result.errors.append(f"no src/fpga under {ctx.root}")
            return result
        for path, scopes in scoped_files(ctx.root):
            sf = ctx.files.get(path)
            result.files_scanned += 1
            for lineno, rid, message in self._lint_source(sf, scopes):
                result.add(sf.rel, lineno, rid, message)
        result.stats = {"rules": len(RULES)}
        return result

    # -----------------------------------------------------------------------
    # Self-test: seed exactly one violation per rule, check detection and the
    # allow-tag escape hatch — the original fabric_lint contract, including
    # the simd scope-boundary case.

    SEEDS = {
        "float-in-datapath": ("src/fpga/seed_float.cpp", "double gain = 0.5;\n"),
        "raw-cast": (
            "src/fpga/seed_cast.cpp",
            "std::uint32_t f(long v) { return static_cast<std::uint32_t>(v); }\n",
        ),
        "overflow-multiply": (
            "src/fpga/seed_mul.cpp",
            "std::uint32_t sq(int re) { return static_cast<std::uint32_t>(re * re); }\n",
        ),
        "static-state": (
            "src/fault/seed_static.cpp",
            "int next_id() { static int counter = 0; return ++counter; }\n",
        ),
        "unordered-iteration": (
            "src/core/sweep.h",
            "#include <unordered_map>\nstd::unordered_map<int, int> trials;\n",
        ),
        "wall-clock-or-rand": (
            "src/fault/seed_clock.cpp",
            "auto t0() { return std::chrono::steady_clock::now(); }\n",
        ),
    }

    def _run_tree(self, root: pathlib.Path):
        found = []
        for path, scopes in scoped_files(root):
            sf = SourceFile(path, root)
            for lineno, rid, _msg in self._lint_source(sf, scopes):
                found.append((sf.rel, lineno, rid))
        return found

    def self_test(self) -> int:
        with tempfile.TemporaryDirectory() as td:
            root = pathlib.Path(td).resolve()
            for _rid, (rel, body) in self.SEEDS.items():
                p = root / rel
                p.parent.mkdir(parents=True, exist_ok=True)
                # Appending keeps one file per seed even when two share a path.
                with open(p, "a", encoding="utf-8") as f:
                    f.write(body)
            found = self._run_tree(root)
            got = {(rel, rid) for rel, _, rid in found}
            want = {(seed_rel, rid) for rid, (seed_rel, _) in self.SEEDS.items()}
            if got != want:
                print("fabric pass self-test FAILED")
                print("  expected:", sorted(want))
                print("  got:     ", sorted(got))
                return 1
            per_rule = {}
            for _, _, rid in found:
                per_rule[rid] = per_rule.get(rid, 0) + 1
            if any(c != 1 for c in per_rule.values()) or len(per_rule) != len(RULES):
                print("fabric pass self-test FAILED: expected exactly one"
                      " violation per rule, got", per_rule)
                return 1

            # Tag every seeded line and assert full suppression.
            for rid, (rel, _) in sorted(self.SEEDS.items()):
                p = root / rel
                tag = f"  // rjf-analyze: allow(fabric.{rid})"
                tagged = [
                    line + tag if line.strip() else line
                    for line in p.read_text(encoding="utf-8").splitlines()
                ]
                p.write_text("\n".join(tagged) + "\n", encoding="utf-8")
            residue = self._run_tree(root)
            if residue:
                print("fabric pass self-test FAILED: allow-tags did not"
                      " suppress:")
                for rel, lineno, rid in residue:
                    print(f"  {rel}:{lineno}: [{rid}]")
                return 1

        # Scope-boundary case (second tree): src/dsp/simd is
        # deterministic-only, so a float there must NOT fire while a wall
        # clock in the same file must — and the identical float line in
        # src/fpga must still fire.
        with tempfile.TemporaryDirectory() as td:
            root = pathlib.Path(td).resolve()
            simd_rel = "src/dsp/simd/seed_kernel.cpp"
            fpga_rel = "src/fpga/seed_boundary.cpp"
            for rel, body in (
                (simd_rel,
                 "float gain = 0.5f;\n"
                 "auto t0() { return std::chrono::steady_clock::now(); }\n"),
                (fpga_rel, "float gain = 0.5f;\n"),
            ):
                p = root / rel
                p.parent.mkdir(parents=True, exist_ok=True)
                p.write_text(body, encoding="utf-8")
            got = {(rel, rid) for rel, _, rid in self._run_tree(root)}
            want = {(simd_rel, "wall-clock-or-rand"),
                    (fpga_rel, "float-in-datapath")}
            if got != want:
                print("fabric pass self-test FAILED (simd scope boundary)")
                print("  expected:", sorted(want))
                print("  got:     ", sorted(got))
                return 1

        print(f"fabric pass self-test OK: {len(RULES)} rules seeded, caught,"
              " and suppressed via allow-tags; simd scope boundary holds")
        return 0
