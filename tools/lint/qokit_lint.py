#!/usr/bin/env python3
"""qokit_lint: machine-checked project invariants.

Compilers prove what they can see; these are the repo-wide contracts they
cannot. Run by ctest (`lint_invariants`) and every CI leg; exits nonzero
with file:line findings. `--self-test` proves each rule still fires on a
seeded violation (and stays quiet on a seeded non-violation), so the
linter going dark is itself a test failure.

Rules
-----
raw-sync
    No raw std::mutex / std::condition_variable (or their lock adapters)
    outside src/common/sync.hpp. Everything goes through the annotated
    qokit::Mutex / CondVar / MutexLock wrappers so clang -Wthread-safety
    can prove lock discipline; a raw primitive is invisible to the
    analysis. std::once_flag / std::call_once stay allowed: call_once is
    its own complete discipline with nothing left to annotate.

hot-transcendental
    No libm transcendental (sin/cos/exp/...) inside an amplitude-sized
    loop in src/pipeline/ or src/fur/. Per-amplitude trig belongs in the
    dispatched src/simd/ kernels (vectorized sincos4 / table gather);
    a stray std::cos in a 2^n loop silently forfeits the paper's headline
    optimization. Per-layer angle setup (O(p) or O(n) loops) is fine and
    not flagged -- the heuristic keys on amplitude-loop bounds
    (.size(), n_amps, dim, 1ull << n, ...).

kernel-alloc
    No heap allocation in the SIMD kernel translation units
    (src/simd/kernels_*.cpp) or the kernel bodies they share
    (src/simd/vec_kernels.hpp): no new/malloc, no std::vector (growth or
    otherwise). Kernels run inside the batch engine's zero-steady-state-
    allocation contract (pinned by test_batch_scratch); an allocation here
    bypasses the instrumented AlignedAllocator and the pinning test both.

simd-flags
    Extended-ISA compile flags (-mavx2/-mfma/-mavx512*/-march) may appear
    in CMake files only inside a set_source_files_properties command that
    names a src/simd/ file, and <immintrin.h>-style intrinsic headers or
    target attributes may appear only under src/simd/. Anything else can
    make the base binary emit illegal instructions on plain x86-64 --
    exactly the bug class the runtime CPUID dispatch exists to prevent.

float-accum
    No float-typed accumulators in reduction code under src/simd/ or
    src/pipeline/. The mixed-precision contract (DESIGN.md "Mixed
    precision") narrows amplitudes to float32 but keeps every reduction
    -- norms, expectations, overlaps, sampler CDFs -- in double: a float
    accumulator over 2^n terms loses ~n/2 bits and silently breaks the
    pinned f32 error budget. The rule flags accumulator-named float
    declarations (acc/sum/total/norm/dot/cdf/...); per-element float
    temporaries (re/im/amp loads) are fine -- widen at the `+=`.

pipeline-geometry
    No bare geometry literals (tile_log2/group_qubits/chunk_log2 assigned
    a numeric constant) in src/pipeline/ outside geometry.hpp. The tiling
    knobs live in pipeline::Geometry, whose defaults() is the one site
    that spells them out, so the fixed geometry make_simulator hands every
    simulator is the one every plan runs; a scattered literal would
    silently override it.
    Tests and perfbench/ may pin literals freely -- the rule scopes to
    src/pipeline/ only.

os-mapping
    mmap / munmap / madvise (and mremap / posix_madvise) are called only
    in src/common/aligned.hpp. AlignedAllocator is the one place that
    maps 2^n buffers from the OS, counts them (the live-bytes leak check
    that LeakSanitizer cannot do for mapped blocks) and fixes their page
    advice by buffer kind: huge pages for the streamed diagonals, small
    ones for states, whose strided passes alias on 2 MiB pages. A
    mapping made anywhere else escapes both the counters and the policy.

Suppression: append `// qokit-lint: allow(<rule>) -- <reason>` to the
flagged line. Reasons are mandatory by convention and reviewed.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import Iterable, List, NamedTuple


class Finding(NamedTuple):
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


ALLOW_RE = re.compile(r"//\s*qokit-lint:\s*allow\(([a-z0-9-]+)\)")

SOURCE_EXTS = (".hpp", ".cpp", ".h", ".cc", ".cxx")

# ------------------------------------------------------------- raw-sync
RAW_SYNC_RE = re.compile(
    r"std::(mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(_any)?|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)\b"
)
RAW_SYNC_EXEMPT = ("common/sync.hpp",)

# --------------------------------------------------- hot-transcendental
HOT_DIRS = ("pipeline/", "fur/")
TRANSCENDENTAL_RE = re.compile(
    r"(?<![\w:])(?:std::)?(sin|cos|tan|asin|acos|atan|atan2|sincos|"
    r"exp|exp2|expm1|log|log2|log10|log1p|pow|tanh|sinh|cosh)\s*\("
)
# Loop bounds that smell like "once per amplitude" rather than "once per
# layer/qubit/weight": container sizes, amplitude counts, 2^n shifts.
# Schedule-shaped containers (p entries, not 2^n) are exempt receivers of
# .size() -- a per-layer loop computing cos(beta_l) is the sanctioned
# pattern, not a hot-path violation.
AMPLITUDE_BOUND_RE = re.compile(
    r"(\w+)\.size\(\)|\bn_amps\b|\bnum_amps\b|\bdim\b|\bn_states\b|"
    r"1ull?\s*<<|u?int64_t\{1\}\s*<<|\bsize\b\s*;|\bmask\b\s*;"
)
SCHEDULE_RECEIVERS = frozenset({
    "gammas", "betas", "angles", "schedule", "schedules", "params",
    "layers", "terms", "bounds",
})


def amplitude_sized(header: str) -> bool:
    for m in AMPLITUDE_BOUND_RE.finditer(header):
        receiver = m.group(1)
        if receiver is not None and receiver in SCHEDULE_RECEIVERS:
            continue
        return True
    return False

# --------------------------------------------------------- kernel-alloc
KERNEL_TU_RE = re.compile(r"simd/(kernels_[^/]*\.cpp|vec_kernels\.hpp)$")
KERNEL_ALLOC_RE = re.compile(
    r"(?<![\w.])new\b(?!\s*\()|\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\(|"
    r"std::vector\b|\bpush_back\s*\(|\bemplace_back\s*\(|"
    r"\.resize\s*\(|\.reserve\s*\(|std::string\b|std::deque\b|std::map\b|"
    r"std::unordered_map\b"
)

# ---------------------------------------------------------- float-accum
# A float (or complex<float>) declaration whose name smells like a
# running reduction variable. Matches `float acc = 0`, `cfloat dot{};`,
# `std::complex<float> sum(...)`; does not match pointers (`float* acc`
# has no space before the identifier), doubles, or per-element
# temporaries with non-accumulator names.
FLOAT_ACCUM_DIRS = ("simd/", "pipeline/")
FLOAT_ACCUM_RE = re.compile(
    r"(?<![\w:<])(?:float|cfloat|std::complex<float>)\s+"
    r"(\w*(?:acc|sum|total|norm|dot|cdf|red)\w*)\s*[=({]"
)

# ----------------------------------------------- pipeline-geometry
# A geometry knob assigned a numeric literal. Clamp calls
# (std::clamp(x, 2, 30)) and defaults-struct reads don't match -- only a
# literal landing directly in a tile_log2/group_qubits/chunk_log2 slot,
# via `=` assignment or designated initializer.
GEOMETRY_LITERAL_RE = re.compile(
    r"\b(tile_log2|group_qubits|chunk_log2)\s*=\s*[+-]?\d"
)
GEOMETRY_DIR = "src/pipeline/"
GEOMETRY_EXEMPT = "src/pipeline/geometry.hpp"  # Geometry::defaults()

# ----------------------------------------------------------- os-mapping
# A call of an OS mapping or page-advice function, qualified with `::` or
# not; member functions (`x.mmap(`) and other namespaces' names do not
# match.
OS_MAPPING_RE = re.compile(
    r"(?<![\w.>:])(?:::)?\b(mmap|mmap64|munmap|mremap|madvise|"
    r"posix_madvise)\s*\("
)
OS_MAPPING_HOME = "src/common/aligned.hpp"

# ----------------------------------------------------------- simd-flags
ISA_FLAG_RE = re.compile(r"-m(avx2|avx512[a-z0-9]*|fma)\b|-march=")
INTRIN_HEADER_RE = re.compile(
    r'#\s*include\s*[<"](?:x86|imm|e?mm|xmm|avx)intrin\.h[>"]'
)
TARGET_ATTR_RE = re.compile(
    r'#\s*pragma\s+GCC\s+target|__attribute__\s*\(\s*\(\s*target'
)
SIMD_DIR = "simd/"
CMAKE_COMMAND_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*\(")


def strip_comments(text: str) -> str:
    """Blank out comments and string/char literals, preserving line
    structure so findings keep their line numbers. Suppression markers are
    matched against the raw line, not this."""
    out: List[str] = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            elif c == "\n":  # unterminated (raw string etc.); bail to code
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def enclosing_loops_per_line(code: str) -> List[List[str]]:
    """For each line of comment-stripped code, the headers of the
    `for`/`while` loops enclosing it (innermost last). Handles multi-line
    headers and brace-less single-statement bodies."""
    lines = code.split("\n")
    n_lines = len(lines)
    per_line: List[List[str]] = [[] for _ in range(n_lines)]
    # Brace stack: each entry is a loop header or None (plain block).
    stack: List[str] = []
    # A loop header whose ')' has closed but whose body hasn't started.
    pending: str | None = None
    # Stack of (header,) for brace-less bodies, popped at ';'.
    braceless: List[str] = []
    collecting: str | None = None
    paren_depth = 0

    i = 0
    line_no = 0
    n = len(code)
    while i < n:
        c = code[i]
        if c == "\n":
            line_no += 1
            i += 1
            continue
        # Record enclosure lazily: per_line is filled from the active
        # stacks the first time we see a non-space char on the line.
        if not per_line[line_no] and not c.isspace():
            per_line[line_no] = stack_headers(stack) + braceless[:]
        if collecting is not None:
            collecting += c
            if c == "(":
                paren_depth += 1
            elif c == ")":
                paren_depth -= 1
                if paren_depth == 0:
                    pending = collecting
                    collecting = None
            i += 1
            continue
        m = re.match(r"(for|while)\s*\(", code[i:])
        if m:
            collecting = m.group(0)
            paren_depth = 1
            i += m.end()
            continue
        if c == "{":
            stack.append(pending if pending is not None else "")
            if pending is not None:
                pending = None
            braceless = []
        elif c == "}":
            if stack:
                stack.pop()
        elif c == ";":
            if braceless:
                braceless.pop()
            pending = None
        elif not c.isspace():
            if pending is not None:
                # Statement begins without '{': brace-less loop body.
                braceless.append(pending)
                pending = None
        i += 1
    return per_line


def stack_headers(stack: List[str]) -> List[str]:
    return [h for h in stack if h]


def allowed(raw_line: str, rule: str) -> bool:
    m = ALLOW_RE.search(raw_line)
    return bool(m) and m.group(1) == rule


def scan_source(rel: str, text: str) -> List[Finding]:
    findings: List[Finding] = []
    raw_lines = text.split("\n")
    code = strip_comments(text)
    code_lines = code.split("\n")

    def emit(line_idx: int, rule: str, message: str) -> None:
        if not allowed(raw_lines[line_idx], rule):
            findings.append(Finding(rel, line_idx + 1, rule, message))

    # raw-sync
    if not any(rel.endswith(e) for e in RAW_SYNC_EXEMPT):
        for idx, line in enumerate(code_lines):
            m = RAW_SYNC_RE.search(line)
            if m:
                emit(
                    idx,
                    "raw-sync",
                    f"raw std::{m.group(1)}; use the annotated wrappers in "
                    "common/sync.hpp (Mutex/CondVar/MutexLock) so clang "
                    "-Wthread-safety can check the lock discipline",
                )

    # hot-transcendental
    if any(f"/{d}" in f"/{rel}" for d in HOT_DIRS):
        loops = enclosing_loops_per_line(code)
        for idx, line in enumerate(code_lines):
            m = TRANSCENDENTAL_RE.search(line)
            if not m:
                continue
            hot = [h for h in loops[idx] if amplitude_sized(h)]
            if hot:
                emit(
                    idx,
                    "hot-transcendental",
                    f"{m.group(1)}() inside an amplitude-sized loop "
                    f"({hot[-1].strip()[:60]}...); per-amplitude "
                    "transcendentals belong in the dispatched src/simd/ "
                    "kernels",
                )

    # kernel-alloc
    if KERNEL_TU_RE.search(rel):
        for idx, line in enumerate(code_lines):
            m = KERNEL_ALLOC_RE.search(line)
            if m:
                emit(
                    idx,
                    "kernel-alloc",
                    f"heap allocation ('{m.group(0).strip()}') in a SIMD "
                    "kernel translation unit; kernels must honor the "
                    "zero-steady-state-allocation contract",
                )

    # float-accum
    if any(f"/{d}" in f"/{rel}" for d in FLOAT_ACCUM_DIRS):
        for idx, line in enumerate(code_lines):
            m = FLOAT_ACCUM_RE.search(line)
            if m:
                emit(
                    idx,
                    "float-accum",
                    f"float-typed accumulator '{m.group(1)}'; reductions "
                    "accumulate in double regardless of amplitude "
                    "precision -- widen per element and keep the running "
                    "variable double (see DESIGN.md, Mixed precision)",
                )

    # pipeline-geometry
    if rel.startswith(GEOMETRY_DIR) and rel != GEOMETRY_EXEMPT:
        for idx, line in enumerate(code_lines):
            m = GEOMETRY_LITERAL_RE.search(line)
            if m:
                emit(
                    idx,
                    "pipeline-geometry",
                    f"bare geometry literal ('{m.group(0).strip()}') in "
                    "src/pipeline/; the tiling knobs are spelled out only "
                    "in geometry.hpp (pipeline::Geometry::defaults) so "
                    "the fixed geometry is the one every plan runs",
                )

    # os-mapping
    if rel != OS_MAPPING_HOME:
        for idx, line in enumerate(code_lines):
            m = OS_MAPPING_RE.search(line)
            if m:
                emit(
                    idx,
                    "os-mapping",
                    f"{m.group(1)}() outside {OS_MAPPING_HOME}; 2^n "
                    "buffers come from AlignedAllocator, which counts "
                    "every mapped block and picks its page advice by "
                    "buffer kind",
                )

    # simd-flags: intrinsic headers / target attributes outside src/simd/
    if SIMD_DIR not in rel:
        for idx, line in enumerate(code_lines):
            if INTRIN_HEADER_RE.search(line) or TARGET_ATTR_RE.search(line):
                emit(
                    idx,
                    "simd-flags",
                    "intrinsics header / target attribute outside "
                    "src/simd/; arch-specific code goes behind the "
                    "runtime-dispatched kernel layer",
                )
    return findings


def cmake_commands(text: str) -> Iterable[tuple[int, str, str]]:
    """Yield (1-based start line, command name, full argument text) for
    each top-level command invocation in a CMake listfile."""
    # Strip CMake comments, preserving newlines.
    stripped = "\n".join(l.split("#", 1)[0] for l in text.split("\n"))
    for m in CMAKE_COMMAND_RE.finditer(stripped):
        depth = 1
        j = m.end()
        while j < len(stripped) and depth:
            if stripped[j] == "(":
                depth += 1
            elif stripped[j] == ")":
                depth -= 1
            j += 1
        yield (
            stripped.count("\n", 0, m.start()) + 1,
            m.group(1).lower(),
            stripped[m.end() : j - 1],
        )


def scan_cmake(rel: str, text: str) -> List[Finding]:
    findings: List[Finding] = []
    raw_lines = text.split("\n")
    for start_line, name, args in cmake_commands(text):
        m = ISA_FLAG_RE.search(args)
        if not m:
            continue
        flag_line = start_line + args.count("\n", 0, m.start())
        if allowed(raw_lines[flag_line - 1], "simd-flags"):
            continue
        if name == "set_source_files_properties" and "src/simd/" in args:
            continue  # the sanctioned isolation: per-file ISA flags
        findings.append(
            Finding(
                rel,
                flag_line,
                "simd-flags",
                f"extended-ISA flag '{m.group(0)}' outside a "
                "set_source_files_properties command scoped to src/simd/; "
                "global ISA flags break the runtime-dispatch portability "
                "contract",
            )
        )
    return findings


def scan_tree(root: str) -> List[Finding]:
    findings: List[Finding] = []
    src_root = os.path.join(root, "src")
    for dirpath, _dirnames, filenames in sorted(os.walk(src_root)):
        for fn in sorted(filenames):
            if not fn.endswith(SOURCE_EXTS):
                continue
            full = os.path.join(dirpath, fn)
            rel = os.path.relpath(full, root)
            with open(full, encoding="utf-8", errors="replace") as f:
                findings.extend(scan_source(rel, f.read()))
    for cmake_rel in ["CMakeLists.txt"]:
        full = os.path.join(root, cmake_rel)
        if os.path.exists(full):
            with open(full, encoding="utf-8", errors="replace") as f:
                findings.extend(scan_cmake(cmake_rel, f.read()))
    cmake_dir = os.path.join(root, "cmake")
    if os.path.isdir(cmake_dir):
        for fn in sorted(os.listdir(cmake_dir)):
            if fn.endswith(".cmake") or fn == "CMakeLists.txt":
                with open(
                    os.path.join(cmake_dir, fn), encoding="utf-8",
                    errors="replace",
                ) as f:
                    findings.extend(scan_cmake(f"cmake/{fn}", f.read()))
    return findings


# -------------------------------------------------------------- self-test
SELF_TEST_CASES = [
    # (description, path, content, expected rule or None)
    (
        "seeded raw std::mutex must be flagged",
        "src/serve/bad_queue.hpp",
        "#include <mutex>\nclass Q { std::mutex mu_; };\n",
        "raw-sync",
    ),
    (
        "seeded raw condition_variable must be flagged",
        "src/obs/bad.cpp",
        "#include <condition_variable>\nstd::condition_variable cv;\n",
        "raw-sync",
    ),
    (
        "annotated wrappers must pass",
        "src/serve/good_queue.hpp",
        '#include "common/sync.hpp"\n'
        "class Q { qokit::Mutex mu_; qokit::CondVar cv_; };\n",
        None,
    ),
    (
        "std::once_flag stays allowed",
        "src/diagonal/good.cpp",
        "#include <mutex>\nstd::once_flag f;\n",
        None,
    ),
    (
        "sync.hpp itself is exempt",
        "src/common/sync.hpp",
        "class Mutex { std::mutex mu_; };\n",
        None,
    ),
    (
        "comment mentions are not findings",
        "src/serve/commented.hpp",
        "// replaces the old std::mutex member\nint x;\n",
        None,
    ),
    (
        "transcendental in an amplitude loop must be flagged",
        "src/pipeline/bad_loop.cpp",
        "void f(double* amp, unsigned long n_amps, double g) {\n"
        "  for (unsigned long i = 0; i < n_amps; ++i)\n"
        "    amp[i] *= std::cos(g * i);\n"
        "}\n",
        "hot-transcendental",
    ),
    (
        "transcendental over sv.size() must be flagged",
        "src/fur/bad_mixer.cpp",
        "void f(StateVector& sv, double b) {\n"
        "  for (std::size_t i = 0; i < sv.size(); ++i) {\n"
        "    sv[i] *= std::sin(b);\n"
        "  }\n"
        "}\n",
        "hot-transcendental",
    ),
    (
        "per-layer schedule loop (gammas.size()) stays allowed",
        "src/fur/good_layers.cpp",
        "void f(const std::vector<double>& gammas, StateVector& h) {\n"
        "  for (std::size_t l = 0; l < gammas.size(); ++l) {\n"
        "    const double c = std::cos(gammas[l]);\n"
        "    h[0] *= c;\n"
        "  }\n"
        "}\n",
        None,
    ),
    (
        "per-layer angle setup stays allowed",
        "src/fur/good_mixer.cpp",
        "void f(double beta, int num_qubits, cdouble* table) {\n"
        "  const double c = std::cos(beta);\n"
        "  for (int w = 0; w <= num_qubits; ++w)\n"
        "    table[w] = cdouble(std::cos(-beta * w), c);\n"
        "}\n",
        None,
    ),
    (
        "vector growth in a kernel TU must be flagged",
        "src/simd/kernels_scalar.cpp",
        "#include <vector>\n"
        "void k() { std::vector<double> v; v.push_back(1.0); }\n",
        "kernel-alloc",
    ),
    (
        "allocation in the shared vector kernel bodies must be flagged",
        "src/simd/vec_kernels.hpp",
        "inline double* k(unsigned long n) { return new double[n]; }\n",
        "kernel-alloc",
    ),
    (
        "allocation-free kernel TU passes",
        "src/simd/kernels_avx2.cpp",
        "void k(double* a, unsigned long n) {\n"
        "  for (unsigned long i = 0; i < n; ++i) a[i] *= 2.0;\n"
        "}\n",
        None,
    ),
    (
        "intrinsics header outside src/simd/ must be flagged",
        "src/pipeline/bad_intrin.cpp",
        "#include <immintrin.h>\n",
        "simd-flags",
    ),
    (
        "suppression marker silences with the right rule",
        "src/serve/suppressed.hpp",
        "std::mutex legacy_mu;  "
        "// qokit-lint: allow(raw-sync) -- self-test fixture\n",
        None,
    ),
    (
        "suppression marker for the wrong rule does not silence",
        "src/serve/wrong_marker.hpp",
        "std::mutex legacy_mu;  "
        "// qokit-lint: allow(kernel-alloc) -- wrong rule\n",
        "raw-sync",
    ),
    (
        "float accumulator in a SIMD kernel must be flagged",
        "src/simd/kernels_scalar.cpp",
        "double n(const cfloat* a, unsigned long n) {\n"
        "  float acc = 0.0f;\n"
        "  for (unsigned long i = 0; i < n; ++i)\n"
        "    acc += a[i].real() * a[i].real();\n"
        "  return acc;\n"
        "}\n",
        "float-accum",
    ),
    (
        "complex<float> running sum in src/pipeline/ must be flagged",
        "src/pipeline/bad_sum.cpp",
        "cfloat f(const cfloat* a, unsigned long n) {\n"
        "  std::complex<float> sum{};\n"
        "  for (unsigned long i = 0; i < n; ++i) sum += a[i];\n"
        "  return sum;\n"
        "}\n",
        "float-accum",
    ),
    (
        "double accumulator over float amplitudes passes",
        "src/simd/kernels_avx2.cpp",
        "double n(const cfloat* a, unsigned long n) {\n"
        "  double acc = 0.0;\n"
        "  for (unsigned long i = 0; i < n; ++i) {\n"
        "    const float re = a[i].real();\n"
        "    acc += static_cast<double>(re) * re;\n"
        "  }\n"
        "  return acc;\n"
        "}\n",
        None,
    ),
    (
        "float accumulators outside simd/pipeline are not this rule's "
        "business",
        "src/fur/float_misc.cpp",
        "float f() { float total = 0.0f; return total; }\n",
        None,
    ),
    (
        "float-accum suppression marker silences",
        "src/pipeline/legacy_sum.cpp",
        "float partial_sum = 0.0f;  "
        "// qokit-lint: allow(float-accum) -- self-test fixture\n",
        None,
    ),
    (
        "bare geometry literal in src/pipeline/ must be flagged",
        "src/pipeline/bad_geom.cpp",
        "void f(FurConfig& cfg) { cfg.geometry.tile_log2 = 16; }\n",
        "pipeline-geometry",
    ),
    (
        "designated-initializer geometry literal must be flagged",
        "src/pipeline/bad_geom_init.cpp",
        "FurConfig cfg{.geometry = {.group_qubits = 6}};\n",
        "pipeline-geometry",
    ),
    (
        "geometry.hpp itself (the one defaults site) is exempt",
        "src/pipeline/geometry.hpp",
        "struct Geometry { int tile_log2 = 16; };\n",
        None,
    ),
    (
        "geometry literals outside src/pipeline/ are fine",
        "tests/test_pipeline_geom.cpp",
        "opts.geometry.tile_log2 = 4;\n",
        None,
    ),
    (
        "mmap outside aligned.hpp must be flagged",
        "src/diagonal/bad_map.cpp",
        "void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,\n"
        "                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);\n",
        "os-mapping",
    ),
    (
        "page advice outside aligned.hpp must be flagged",
        "src/statevector/bad_advice.cpp",
        "void f(void* p, unsigned long n) {\n"
        "  madvise(p, n, MADV_HUGEPAGE);\n"
        "}\n",
        "os-mapping",
    ),
    (
        "aligned.hpp itself (the one mapping site) is exempt",
        "src/common/aligned.hpp",
        "void* p = ::mmap(nullptr, n, PROT_READ, MAP_PRIVATE, -1, 0);\n"
        "::madvise(p, n, MADV_NOHUGEPAGE);\n::munmap(p, n);\n",
        None,
    ),
    (
        "comment mentions and member calls are not mappings",
        "src/serve/map_words.cpp",
        "// freed blocks go back through munmap(), not the heap\n"
        "file.mmap(4096);\n",
        None,
    ),
]

SELF_TEST_CMAKE_CASES = [
    (
        "global -mavx2 must be flagged",
        "CMakeLists.txt",
        'add_compile_options(-Wall -mavx2)\n',
        "simd-flags",
    ),
    (
        "per-file ISA isolation on src/simd/ passes",
        "CMakeLists.txt",
        "set_source_files_properties(\n"
        "  ${DIR}/src/simd/kernels_avx2.cpp\n"
        '  PROPERTIES COMPILE_OPTIONS "-mavx2;-mfma")\n',
        None,
    ),
    (
        "-march on a non-simd file must be flagged",
        "cmake/extra.cmake",
        "set_source_files_properties(src/fur/mixers.cpp\n"
        '  PROPERTIES COMPILE_OPTIONS "-march=native")\n',
        "simd-flags",
    ),
]


def self_test() -> int:
    failures = 0
    for desc, path, content, expected in SELF_TEST_CASES:
        got = scan_source(path, content)
        failures += check_case(desc, got, expected)
    for desc, path, content, expected in SELF_TEST_CMAKE_CASES:
        got = scan_cmake(path, content)
        failures += check_case(desc, got, expected)
    total = len(SELF_TEST_CASES) + len(SELF_TEST_CMAKE_CASES)
    if failures:
        print(f"qokit_lint --self-test: {failures}/{total} cases FAILED")
        return 1
    print(f"qokit_lint --self-test: {total} cases passed "
          "(every rule fires on its seeded violation)")
    return 0


def check_case(desc: str, got: List[Finding], expected: str | None) -> int:
    rules = {f.rule for f in got}
    if expected is None:
        if got:
            print(f"SELF-TEST FAIL: {desc}: unexpected findings: "
                  + "; ".join(map(str, got)))
            return 1
        return 0
    if expected not in rules:
        print(f"SELF-TEST FAIL: {desc}: expected a [{expected}] finding, "
              f"got {sorted(rules) or 'none'}")
        return 1
    return 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--root", default=".",
                        help="repository root (contains src/)")
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule fires on seeded violations")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    findings = scan_tree(args.root)
    for f in findings:
        print(f)
    if findings:
        print(f"qokit_lint: {len(findings)} finding(s)")
        return 1
    print("qokit_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
