#!/usr/bin/env python3
"""BTrimDB custom lint: project-specific rules clang-tidy cannot express.

Rules (each scans src/ only; tests and benches may take shortcuts):

  raw-new-delete     Raw `new` / `delete` outside the allowlist. Owning
                     allocations must go through std::make_unique or the
                     fragment allocator; the allowlist covers the two
                     legitimate patterns (private-constructor factories that
                     wrap the result in a unique_ptr on the same line, and
                     the fragment allocator's internal block management).

  lock-guard-spinlock  `std::lock_guard<SpinLock>` instead of SpinLockGuard.
                     std::lock_guard is invisible to clang's thread-safety
                     analysis; SpinLockGuard (common/spinlock.h) carries the
                     capability annotations.

  nodiscard-status   The Status / Result class definitions must keep their
                     class-level [[nodiscard]] attribute — that is what turns
                     every ignored Status-returning call into a compiler
                     warning, in every translation unit, with no lint run.

  unannotated-lock-member  A SpinLock / RwSpinLock / Mutex member whose name
                     never appears inside a BTRIM_* thread-safety annotation
                     in the same file. Every lock must either guard something
                     (BTRIM_GUARDED_BY / BTRIM_REQUIRES / ...) or be declared
                     a serialization-only lock in the allowlist below.

  direct-lock-call   Direct .lock()/.unlock()/.lock_shared()/... calls on a
                     lock object instead of going through a scoped guard.
                     Guards keep acquire/release balanced on every path and
                     are what the thread-safety analysis and the lock-order
                     validator see. Allowlisted files implement the guards
                     themselves or transfer latch ownership (buffer cache).

  raw-std-sync       Raw std::mutex / std::condition_variable members or
                     std::lock_guard<std::mutex> / std::unique_lock guards
                     outside common/mutex.h. All mutexes in src/ must be the
                     annotated btrim::Mutex so thread-safety analysis and the
                     lock-order validator cover them.

Exit status: 0 when clean, 1 when any finding is reported.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

# file (relative to repo root) -> substring that must appear on the flagged
# line for the finding to be suppressed.
RAW_NEW_ALLOWLIST = {
    # Private-constructor factories: `new` is wrapped into a unique_ptr in
    # the same expression, so ownership never exists as a raw pointer.
    "src/page/device.cc": "unique_ptr",
    "src/wal/log.cc": "unique_ptr",
    "src/txn/transaction.cc": "unique_ptr",
    "src/engine/database.cc": "unique_ptr",
    # The fragment allocator IS the owner: raw new[]/delete[] of arena
    # blocks is its job.
    "src/alloc/fragment_allocator.cc": "",
    # The lock-order validator must outlive every static-destruction-order
    # lock use, so its process singletons are intentionally leaked.
    "src/common/lock_order.cc": "leaked singleton",
    # DenseArray / DenseDirectory (the B+Tree version table, the buffer
    # cache's page table, the RID map) are CAS-published chunk tables:
    # losers of the publication race delete their chunk, the owner deletes
    # the winners in its destructor. No unique_ptr fits an atomic
    # publication slot.
    "src/common/dense_directory.h": "lock-free chunk table",
    # The epoch manager is a leaked process singleton (it must outlive
    # every thread's exit hook) and its per-thread records join a lock-free
    # list forever — freeing one would race MinActive scans.
    "src/index/epoch.cc": "leaked singleton",
}

# Serialization-only locks: nothing is GUARDED_BY them — they exist to make
# one activity mutually exclusive with itself (one drainer per GC shard, one
# ILM tick at a time, ...) or to park condition-variable waiters. Keyed by
# file -> member names exempt from unannotated-lock-member in that file.
SERIALIZATION_ONLY_LOCKS = {
    # checkpoint_mu_ makes checkpoints mutually exclusive with each other;
    # the snapshot/stash state they protect is guarded by ckpt_.stash_mu.
    "src/engine/database.h": {"file_mu_", "ilm_tick_mu_", "gc_pass_mu_",
                              "checkpoint_mu_"},
    "src/ilm/partition_state.h": {"pack_mu"},
    "src/imrs/gc.h": {"drain_mu"},
    "src/txn/transaction.h": {"gate_mu_"},
    # Structure locks guarding page/tree topology rather than any single
    # member (the guarded pages live behind the buffer cache).
    "src/page/buffer_cache.h": {"latch"},
    # The stripe mutex guards LockEntry::holders / upgrading_txn, but those
    # live in a *different* object (entries in the stripe's map), which the
    # thread-safety analysis cannot express; the guard relationship is
    # documented on the members and checked by the lock-order validator.
    "src/txn/lock_manager.h": {"mu"},
}

# Files allowed to call .lock()/.unlock()/... directly: the lock and guard
# implementations themselves, the validator, and the two latch-ownership
# transfer sites (PageGuard hand-off, paranoid try-lock probe).
DIRECT_LOCK_CALL_ALLOWLIST = {
    "src/common/spinlock.h",
    "src/common/mutex.h",
    "src/common/lock_order.cc",
    "src/page/buffer_cache.cc",
    "src/engine/validate.cc",
}

# Files allowed to use raw standard-library synchronization primitives: the
# annotated wrapper itself and the validator (which must sit below every
# instrumented lock and so cannot use one).
RAW_STD_SYNC_ALLOWLIST = {
    "src/common/mutex.h",
    "src/common/lock_order.cc",
}

NEW_RE = re.compile(r"\bnew\b")
# Placement new constructs into already-owned memory (the fragment
# allocator's row/version blocks) — not an allocation. nothrow-new is.
PLACEMENT_NEW_RE = re.compile(r"\bnew\s*\((?!\s*std::nothrow)")
# `delete` as the expression keyword; `= delete` (deleted members) is fine.
DELETE_RE = re.compile(r"(?<![=\w])\s*\bdelete\b(\s*\[\s*\])?\s+[\w(*]")
LOCK_GUARD_RE = re.compile(r"std::lock_guard<\s*(SpinLock|RwSpinLock|Mutex)\s*>")
COMMENT_RE = re.compile(r"^\s*(//|/\*|\*|#)")

# Lock-typed member declaration: `[mutable] SpinLock|RwSpinLock|Mutex name`
# possibly followed by an initializer. Matches declarations only (line starts
# with optional qualifiers then the type), not uses.
LOCK_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:SpinLock|RwSpinLock|Mutex)\s+(\w+)\s*(?:\{|;|=)")
# Any BTRIM_* annotation and its argument list (one level of parens).
ANNOTATION_ARGS_RE = re.compile(r"BTRIM_[A-Z_]+\(([^)]*)\)")
# Direct acquire/release call on a lock object.
DIRECT_LOCK_CALL_RE = re.compile(
    r"\.\s*(?:lock|unlock|try_lock|lock_shared|unlock_shared|"
    r"try_lock_shared)\s*\(")
# Raw standard-library synchronization primitives.
RAW_STD_SYNC_RE = re.compile(
    r"std::lock_guard<\s*std::mutex\s*>|std::unique_lock\b|"
    r"std::(?:mutex|timed_mutex|recursive_mutex|shared_mutex)\s+\w|"
    r"std::condition_variable\w*\s+\w")


def strip_strings(line: str) -> str:
    """Blank out string/char literals so words inside them don't match."""
    return re.sub(r'"(?:[^"\\]|\\.)*"|\'(?:[^\'\\]|\\.)*\'', '""', line)


def strip_trailing_comment(line: str) -> str:
    return line.split("//", 1)[0]


def lint_file(path: Path, findings: list) -> None:
    rel = path.relative_to(REPO).as_posix()
    text = path.read_text(encoding="utf-8", errors="replace")

    # Identifiers appearing inside any BTRIM_* annotation argument list in
    # this file: a lock named there guards something (or is required by a
    # function) and counts as annotated.
    annotated_names = set()
    for m in ANNOTATION_ARGS_RE.finditer(text):
        annotated_names.update(re.findall(r"[A-Za-z_]\w*", m.group(1)))
    serialization_only = SERIALIZATION_ONLY_LOCKS.get(rel, set())

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        if COMMENT_RE.match(raw_line):
            continue
        line = strip_trailing_comment(strip_strings(raw_line))

        member = LOCK_MEMBER_RE.match(line)
        if member:
            name = member.group(1)
            if name not in annotated_names and name not in serialization_only:
                findings.append(
                    (rel, lineno, "unannotated-lock-member",
                     f"lock member `{name}` is never referenced by a BTRIM_* "
                     "annotation; add BTRIM_GUARDED_BY users or declare it "
                     "serialization-only in tools/btrim_lint.py: "
                     + raw_line.strip()))

        if (DIRECT_LOCK_CALL_RE.search(line)
                and rel not in DIRECT_LOCK_CALL_ALLOWLIST):
            findings.append(
                (rel, lineno, "direct-lock-call",
                 "direct lock()/unlock() call bypasses the scoped guards "
                 "(and the lock-order validator hooks); use "
                 "MutexGuard/SpinLockGuard/RwSpinLock*Guard: "
                 + raw_line.strip()))

        if RAW_STD_SYNC_RE.search(line) and rel not in RAW_STD_SYNC_ALLOWLIST:
            findings.append(
                (rel, lineno, "raw-std-sync",
                 "raw std synchronization primitive outside common/mutex.h; "
                 "use btrim::Mutex / MutexGuard / CondVar so thread-safety "
                 "analysis and the lock-order validator see it: "
                 + raw_line.strip()))

        allocating_new = NEW_RE.search(line) and not PLACEMENT_NEW_RE.search(line)
        if allocating_new or DELETE_RE.search(line):
            allowed = RAW_NEW_ALLOWLIST.get(rel)
            # Match against the raw line so a justification comment
            # (e.g. "// leaked singleton") can satisfy the allowlist.
            if allowed is None or (allowed and allowed not in raw_line):
                findings.append(
                    (rel, lineno, "raw-new-delete",
                     "raw new/delete outside the allowlist; use "
                     "std::make_unique or the fragment allocator: "
                     + raw_line.strip()))

        if LOCK_GUARD_RE.search(line):
            findings.append(
                (rel, lineno, "lock-guard-spinlock",
                 "std::lock_guard over a spinlock defeats thread-safety "
                 "analysis; use SpinLockGuard: " + raw_line.strip()))


def check_nodiscard(findings: list) -> None:
    status_h = SRC / "common" / "status.h"
    text = status_h.read_text(encoding="utf-8")
    for cls in ("class [[nodiscard]] Status", "class [[nodiscard]] Result"):
        if cls not in text:
            findings.append(
            ("src/common/status.h", 1, "nodiscard-status",
             f"expected `{cls}` — the class-level [[nodiscard]] makes "
             "ignoring any Status/Result return a compiler warning"))


def main() -> int:
    findings = []
    for path in sorted(SRC.rglob("*.cc")) + sorted(SRC.rglob("*.h")):
        lint_file(path, findings)
    check_nodiscard(findings)

    for rel, lineno, rule, msg in findings:
        print(f"{rel}:{lineno}: [{rule}] {msg}")
    if findings:
        print(f"btrim_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("btrim_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
