#!/usr/bin/env python3
"""Project-specific lint for spinsim.

Eight checks, each encoding a repo invariant the compiler cannot see:

  rng-determinism   No ambient/unseeded randomness outside src/core/random*:
                    std::random_device, rand()/srand(), and time()-derived
                    seeds break the bit-reproducibility contract every
                    conformance and baseline test relies on. All randomness
                    must flow through spinsim::Rng with an explicit seed.

  raw-double-energy Energy/power-returning public APIs in src/ headers must
                    use the Quantity types (Energy, Power, EnergyPerQuery,
                    ...), not raw double. A double named *_j / *_w /
                    *energy* / *power* in a signature or struct field is a
                    unit bug waiting to happen — the whole point of
                    core/units.hpp.

  bare-lock         No bare .lock()/.unlock() on mutexes where a
                    std::lock_guard / std::scoped_lock / std::unique_lock
                    belongs; a throw between the pair leaks the mutex.
                    (condition_variable wait protocols use unique_lock and
                    pass the linter by construction.)

  sleep-in-tests    No std::this_thread::sleep_for in tests/: timing-based
                    synchronization is flaky under load. Tests synchronize
                    on futures, condition variables, or drain().

  bare-clock        No bare std::chrono clock reads (steady_clock::now()
                    and friends, or aliasing a chrono clock type) outside
                    src/core/clock* — time must flow through the injected
                    core/clock.hpp Clock so deadlines, breaker cooldowns
                    and scrub scheduling stay testable with a FakeClock.
                    Wall-clock bench pacing earns an explicit lint:allow.

  raw-mutex         No raw std synchronization primitives (std::mutex,
                    std::condition_variable, std::shared_mutex, their
                    guards, or their headers) in src/ outside
                    src/core/sync* — locking flows through the annotated
                    spinsim::Mutex/CondVar wrappers so clang Thread
                    Safety Analysis and the lock-rank registry see every
                    acquisition. A raw mutex is invisible to both.

  atomic-memory-order
                    Every std::atomic operation in src/ must spell out
                    its memory order (.load(std::memory_order_...) etc.).
                    A bare .load()/.store()/.fetch_add() silently means
                    seq_cst, which both hides the intended protocol from
                    reviewers and costs fences the hot paths measured in
                    BENCH_recognition.json cannot afford.

  service-downcast  No dynamic_cast under src/service/: the service reaches
                    shard engines only through the AssociativeEngine
                    interface and its hooks (maintain, leaf_counters,
                    adapt_to_load). A downcast into a tier, a leaf cache or
                    a decorator ties the service to one backend and keeps
                    pointers into engines it does not own.

Usage: tools/lint/spinsim_lint.py [--root DIR]
Exit status: 0 clean, 1 violations found.

Suppressing a finding: append  // lint:allow(<check>) <reason>  to the
line. Suppressions are themselves counted and printed, so an audit sees
every grandfathered site.
"""

import argparse
import re
import sys
from pathlib import Path

CPP_GLOBS = ("*.cpp", "*.hpp", "*.h", "*.cc")
SCANNED_DIRS = ("src", "tests", "bench", "examples", "tools")

ALLOW_RE = re.compile(r"//\s*lint:allow\((?P<check>[a-z-]+)\)")


def strip_comments_and_strings(line: str) -> str:
    """Removes // comments and string/char literal bodies (keeps quotes)."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c in "\"'":
            quote = c
            out.append(c)
            i += 1
            while i < n and line[i] != quote:
                if line[i] == "\\":
                    i += 1
                i += 1
            if i < n:
                out.append(quote)
            i += 1
            continue
        out.append(c)
        i += 1
    return "".join(out)


class Finding:
    def __init__(self, check, path, lineno, line, message):
        self.check = check
        self.path = path
        self.lineno = lineno
        self.line = line.strip()
        self.message = message

    def __str__(self):
        return (f"{self.path}:{self.lineno}: [{self.check}] {self.message}\n"
                f"    {self.line}")


# --- check: rng-determinism ----------------------------------------------

RNG_PATTERNS = [
    (re.compile(r"\bstd::random_device\b"), "std::random_device is nondeterministic"),
    (re.compile(r"(?<![\w:])s?rand\s*\("), "rand()/srand() bypass spinsim::Rng"),
    (re.compile(r"(?<![\w:.])time\s*\(\s*(nullptr|NULL|0)?\s*\)"),
     "wall-clock seeding breaks reproducibility"),
]


def check_rng(root, path, rel, lines, findings, suppressed):
    if rel.parts[:2] == ("src", "core") and rel.name.startswith("random"):
        return  # the one sanctioned randomness implementation site
    for lineno, raw in enumerate(lines, 1):
        code = strip_comments_and_strings(raw)
        for pattern, why in RNG_PATTERNS:
            if pattern.search(code):
                record(findings, suppressed, raw, "rng-determinism",
                       Finding("rng-determinism", rel, lineno, raw, why))


# --- check: raw-double-energy --------------------------------------------

# Declaration-ish lines in src/ headers where a raw double carries an
# energy/power quantity: `double energy...`, `double ..._j = `, function
# returns `double ...energy...()` etc.
ENERGY_NAME = r"[A-Za-z_]*(?:energy|power|watt|joule)[A-Za-z_]*|[A-Za-z_]+_[jw]\b"
RAW_DOUBLE_RE = re.compile(
    r"\bdouble\s+(?P<name>" + ENERGY_NAME + r")\s*(?:=|;|\()")


def check_raw_double(root, path, rel, lines, findings, suppressed):
    if rel.parts[0] != "src" or rel.suffix not in (".hpp", ".h"):
        return
    if rel == Path("src/core/units.hpp"):
        return  # the conversion layer itself manipulates raw doubles
    for lineno, raw in enumerate(lines, 1):
        code = strip_comments_and_strings(raw)
        m = RAW_DOUBLE_RE.search(code)
        if m:
            record(findings, suppressed, raw, "raw-double-energy",
                   Finding("raw-double-energy", rel, lineno, raw,
                           f"'{m.group('name')}' should be a Quantity type "
                           "(Energy/Power/EnergyPerQuery from core/units.hpp)"))


# --- check: bare-lock -----------------------------------------------------

BARE_LOCK_RE = re.compile(r"\b(?P<obj>[A-Za-z_][\w.\->]*)\s*\.\s*(?:un)?lock\s*\(\s*\)")
# unique_lock/scoped objects legitimately expose .lock()/.unlock(); only
# direct mutex member access is flagged.
MUTEXISH = re.compile(r"(?:^|_|\b)(?:mutex|mtx|mu)(?:_|\b)", re.IGNORECASE)


def check_bare_lock(root, path, rel, lines, findings, suppressed):
    for lineno, raw in enumerate(lines, 1):
        code = strip_comments_and_strings(raw)
        for m in BARE_LOCK_RE.finditer(code):
            if MUTEXISH.search(m.group("obj")):
                record(findings, suppressed, raw, "bare-lock",
                       Finding("bare-lock", rel, lineno, raw,
                               "use std::lock_guard/std::scoped_lock instead of "
                               "bare mutex lock()/unlock()"))


# --- check: sleep-in-tests ------------------------------------------------

SLEEP_RE = re.compile(r"\bsleep_for\s*\(|\bsleep_until\s*\(")


def check_sleep(root, path, rel, lines, findings, suppressed):
    if rel.parts[0] != "tests":
        return
    for lineno, raw in enumerate(lines, 1):
        code = strip_comments_and_strings(raw)
        if SLEEP_RE.search(code):
            record(findings, suppressed, raw, "sleep-in-tests",
                   Finding("sleep-in-tests", rel, lineno, raw,
                           "tests must synchronize on futures/cv/drain(), "
                           "not wall-clock sleeps"))


# --- check: bare-clock ----------------------------------------------------

CLOCK_NOW_RE = re.compile(
    r"\b(?:steady_clock|system_clock|high_resolution_clock)\s*::\s*now\s*\(")
CLOCK_ALIAS_RE = re.compile(
    r"=\s*std::chrono::(?:steady_clock|system_clock|high_resolution_clock)\b")


def check_bare_clock(root, path, rel, lines, findings, suppressed):
    if rel.parts[:2] == ("src", "core") and rel.name.startswith("clock"):
        return  # the one sanctioned raw-clock site (SteadyClock itself)
    for lineno, raw in enumerate(lines, 1):
        code = strip_comments_and_strings(raw)
        if CLOCK_NOW_RE.search(code):
            record(findings, suppressed, raw, "bare-clock",
                   Finding("bare-clock", rel, lineno, raw,
                           "read time through the injected core/clock.hpp "
                           "Clock, not a raw chrono clock"))
        elif CLOCK_ALIAS_RE.search(code):
            record(findings, suppressed, raw, "bare-clock",
                   Finding("bare-clock", rel, lineno, raw,
                           "aliasing a raw chrono clock bypasses the "
                           "core/clock.hpp injection seam"))


# --- check: raw-mutex -----------------------------------------------------

RAW_MUTEX_TYPE_RE = re.compile(
    r"\bstd::(?:mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|condition_variable(?:_any)?|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock)\b")
RAW_MUTEX_INCLUDE_RE = re.compile(
    r"#\s*include\s*<(?:mutex|shared_mutex|condition_variable)>")


def check_raw_mutex(root, path, rel, lines, findings, suppressed):
    if rel.parts[0] != "src":
        return
    if rel.parts[:2] == ("src", "core") and rel.name.startswith("sync"):
        return  # the one sanctioned wrapper site (spinsim::Mutex itself)
    for lineno, raw in enumerate(lines, 1):
        code = strip_comments_and_strings(raw)
        if RAW_MUTEX_TYPE_RE.search(code) or RAW_MUTEX_INCLUDE_RE.search(code):
            record(findings, suppressed, raw, "raw-mutex",
                   Finding("raw-mutex", rel, lineno, raw,
                           "use the annotated spinsim::Mutex/CondVar wrappers "
                           "from core/sync.hpp, not raw std primitives"))


# --- check: atomic-memory-order -------------------------------------------

ATOMIC_OP_RE = re.compile(
    r"\.\s*(?:load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*\(")


def check_atomic_order(root, path, rel, lines, findings, suppressed):
    if rel.parts[0] != "src":
        return
    for lineno, raw in enumerate(lines, 1):
        code = strip_comments_and_strings(raw)
        if not ATOMIC_OP_RE.search(code):
            continue
        # The order argument may sit on the continuation line when the
        # call wraps; accept either.
        next_code = (strip_comments_and_strings(lines[lineno])
                     if lineno < len(lines) else "")
        if "memory_order" in code or "memory_order" in next_code:
            continue
        record(findings, suppressed, raw, "atomic-memory-order",
               Finding("atomic-memory-order", rel, lineno, raw,
                       "spell out the memory order — implicit seq_cst hides "
                       "the protocol and costs fences on hot paths"))


# --- check: service-downcast ---------------------------------------------

DOWNCAST_RE = re.compile(r"\bdynamic_cast\s*<")


def check_service_downcast(root, path, rel, lines, findings, suppressed):
    if rel.parts[:2] != ("src", "service"):
        return
    for lineno, raw in enumerate(lines, 1):
        code = strip_comments_and_strings(raw)
        if DOWNCAST_RE.search(code):
            record(findings, suppressed, raw, "service-downcast",
                   Finding("service-downcast", rel, lineno, raw,
                           "reach shard engines through AssociativeEngine "
                           "hooks, not by downcasting to a backend"))


# --------------------------------------------------------------------------

def record(findings, suppressed, raw_line, check, finding):
    m = ALLOW_RE.search(raw_line)
    if m and m.group("check") == check:
        suppressed.append(finding)
    else:
        findings.append(finding)


CHECKS = [check_rng, check_raw_double, check_bare_lock, check_sleep,
          check_bare_clock, check_raw_mutex, check_atomic_order,
          check_service_downcast]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels above this script)")
    args = parser.parse_args()
    root = Path(args.root) if args.root else Path(__file__).resolve().parents[2]

    findings, suppressed = [], []
    scanned = 0
    for top in SCANNED_DIRS:
        base = root / top
        if not base.is_dir():
            continue
        for glob in CPP_GLOBS:
            for path in sorted(base.rglob(glob)):
                rel = path.relative_to(root)
                lines = path.read_text(encoding="utf-8").splitlines()
                scanned += 1
                for check in CHECKS:
                    check(root, path, rel, lines, findings, suppressed)

    for f in findings:
        print(f)
    for f in suppressed:
        print(f"note: suppressed [{f.check}] at {f.path}:{f.lineno}")
    status = "FAIL" if findings else "OK"
    print(f"spinsim-lint: {status} — {scanned} files, "
          f"{len(findings)} violation(s), {len(suppressed)} suppression(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
