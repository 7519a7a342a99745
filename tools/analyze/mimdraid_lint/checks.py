"""The mimdraid lint checks.

Every check has an ID, a one-line rationale, and honors suppression comments
of the form

    // mdl-ok(MDL00X): <reason>

on the finding line or the line directly above it. A suppression without a
reason is itself reported (MDL000).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from cpp_ast import Function, Stmt, extract_functions, parse_block
from lexer import LexedFile, Token


@dataclass(frozen=True)
class Finding:
    path: str
    line: int
    check: str
    message: str


CHECKS = {
    "MDL001": "Completion callbacks (DoneFn-family) must be invoked or "
              "forwarded exactly once on every path; a dropped callback "
              "hangs the request, a double invoke corrupts caller state.",
    "MDL002": "Results of Simulator::Cancel and [[nodiscard]] I/O APIs "
              "(Lookup) must not be silently dropped; a swallowed status "
              "hides lost events and data loss.",
    "MDL003": "Microsecond quantities (*_us) must not mix with bare numeric "
              "literals in arithmetic or comparisons; wrap literals in "
              "SimTime()/SimDuration() so the dimension stays visible.",
    "MDL004": "No function-local static mutable state in bench/ or src/: "
              "the parallel sweep engine re-enters these paths and hidden "
              "cross-run state breaks run-to-run reproducibility.",
    "MDL005": "Observer objects (TraceCollector, InvariantAuditor, "
              "StatsRegistry) are borrowed, never owned: storing them in "
              "owning smart pointers or new-ing them inverts the documented "
              "lifetime contract.",
    "MDL006": "Binding a container's .top() by value copies the whole "
              "element — for event/command queues that means deep-copying "
              "the stored callback closure on every pop. Bind a const "
              "reference (or move the element out) instead.",
    "MDL007": "Reading one representative disk's parameters (disks_[0], "
              ".front(), a single shared DriveParams member) assumes an "
              "identical-disk fleet; per-slot parameters now come from "
              "FleetSpec, so index by the slot actually involved.",
}

# MDL001: parameter types that denote a completion callback.
_CALLBACK_TYPES = {"DoneFn", "IoDoneFn", "CommandDoneFn"}
# MDL002: must-use call names (Simulator::Cancel + [[nodiscard]] APIs).
_MUST_USE_CALLS = {"Cancel", "Lookup"}
# MDL003: operators where a raw literal next to *_us loses the dimension.
_US_OPS = {"+", "-", "<", ">", "<=", ">=", "==", "!=", "+=", "-="}
# MDL005: borrowed observer types.
_OBSERVER_TYPES = {"TraceCollector", "InvariantAuditor", "StatsRegistry"}

_SUPPRESS_RE = re.compile(r"mdl-ok\((MDL\d{3})\)\s*:\s*(\S.*)?")


def _suppressed(lf: LexedFile, line: int, check: str) -> bool:
    for probe in (line, line - 1):
        for m in _SUPPRESS_RE.finditer(lf.comment_on(probe)):
            if m.group(1) == check and m.group(2):
                return True
    return False


def check_suppression_format(lf: LexedFile) -> list[Finding]:
    """MDL000: every mdl-ok must name a check and give a reason."""
    out = []
    for line, bodies in sorted(lf.comments.items()):
        for body in bodies:
            if "mdl-ok" not in body:
                continue
            m = _SUPPRESS_RE.search(body)
            if not m or not m.group(2):
                out.append(Finding(
                    lf.path, line, "MDL000",
                    "malformed suppression: use "
                    "`mdl-ok(MDLxxx): reason`"))
    return out


# --- MDL001 ---------------------------------------------------------------


def _param_callbacks(params: list[Token]) -> list[str]:
    """Names of parameters whose type is a completion-callback type."""
    names: list[str] = []
    depth = 0
    group: list[Token] = []
    groups: list[list[Token]] = []
    for t in params:
        if t.kind == "punct" and t.text in "(<[{":
            depth += 1
        elif t.kind == "punct" and t.text in ")>]}":
            depth -= 1
        elif t.kind == "punct" and t.text == "," and depth == 0:
            groups.append(group)
            group = []
            continue
        group.append(t)
    if group:
        groups.append(group)
    for g in groups:
        type_hit = any(t.kind == "id" and t.text in _CALLBACK_TYPES
                       for t in g)
        if not type_hit:
            continue
        ids = [t.text for t in g if t.kind == "id"]
        if ids and ids[-1] not in _CALLBACK_TYPES:
            names.append(ids[-1])
    return names


def _mentions(stmts: list[Stmt], name: str) -> bool:
    for s in stmts:
        if any(t.kind == "id" and t.text == name for t in s.tokens):
            return True
        if _mentions(s.then, name) or _mentions(s.els, name):
            return True
    return False


def _stmt_mentions(s: Stmt, name: str) -> bool:
    return (any(t.kind == "id" and t.text == name for t in s.tokens)
            or _mentions(s.then, name) or _mentions(s.els, name))


def _direct_invoke(s: Stmt, name: str) -> bool:
    """Statement is a plain `name(...)` / `std::move(name)(...)` call."""
    toks = s.tokens
    if len(toks) >= 2 and toks[0].kind == "id" and toks[0].text == name \
            and toks[1].kind == "punct" and toks[1].text == "(":
        return True
    texts = [t.text for t in toks[:8]]
    if texts[:6] == ["std", "::", "move", "(", name, ")"]:
        return True
    return False


def _walk_paths(stmts: list[Stmt], name: str, used: bool,
                out: list[tuple[int, str]]) -> bool:
    """Scan a statement list; returns `used` at fallthrough.

    Conservative for false positives: any mention of the callback (call,
    move, capture, pass-through) counts as use. Flags (a) a `return` reached
    with the callback provably untouched on every path so far, and (b) two
    direct sequential invocations in one straight-line block.
    """
    invoked_in_block = False
    for s in stmts:
        if s.kind == "return":
            ret_mentions = any(t.kind == "id" and t.text == name
                               for t in s.tokens)
            if not used and not ret_mentions:
                out.append((s.line,
                            f"'{name}' can be dropped: this return is "
                            f"reachable with the callback never invoked "
                            f"or forwarded"))
            return True  # path ends; report as used to avoid cascades
        if s.kind in {"if", "loop", "switch", "block"}:
            _walk_paths(s.then, name, used or _stmt_hits_cond(s, name), out)
            if s.els:
                _walk_paths(s.els, name, used or _stmt_hits_cond(s, name),
                            out)
            if _stmt_mentions(s, name):
                used = True
            invoked_in_block = False
            continue
        if _direct_invoke(s, name):
            if invoked_in_block:
                out.append((s.line,
                            f"'{name}' is invoked twice on the same "
                            f"straight-line path"))
            invoked_in_block = True
            used = True
            continue
        if any(t.kind == "id" and t.text == name for t in s.tokens):
            used = True
    return used


def _stmt_hits_cond(s: Stmt, name: str) -> bool:
    return any(t.kind == "id" and t.text == name for t in s.tokens)


def check_callback_paths(lf: LexedFile) -> list[Finding]:
    out: list[Finding] = []
    for fn in extract_functions(lf):
        cbs = _param_callbacks(fn.params)
        if not cbs:
            continue
        stmts = parse_block(fn.body)
        for name in cbs:
            hits: list[tuple[int, str]] = []
            used = _walk_paths(stmts, name, False, hits)
            if not used and not _mentions(stmts, name) and fn.body:
                hits.append((fn.line,
                             f"'{name}' is never invoked or forwarded in "
                             f"'{fn.name or '<lambda>'}'"))
            for line, msg in hits:
                if not _suppressed(lf, line, "MDL001"):
                    out.append(Finding(lf.path, line, "MDL001", msg))
    return out


# --- MDL002 ---------------------------------------------------------------


def check_dropped_status(lf: LexedFile) -> list[Finding]:
    out: list[Finding] = []
    toks = lf.tokens
    n = len(toks)
    i = 0
    while i < n:
        # Statement start: beginning of file or after ; { }
        if i > 0 and not (toks[i - 1].kind == "punct"
                          and toks[i - 1].text in ";{}"):
            i += 1
            continue
        j = i
        voided = False
        if j + 2 < n and toks[j].text == "(" and toks[j + 1].text == "void" \
                and toks[j + 2].text == ")":
            voided = True
            j += 3
        # Member chain: id ((. | -> | ::) id)*
        if not (j < n and toks[j].kind == "id"):
            i += 1
            continue
        last_name = toks[j].text
        k = j + 1
        while k + 1 < n and toks[k].kind == "punct" \
                and toks[k].text in {".", "->", "::"} \
                and toks[k + 1].kind == "id":
            last_name = toks[k + 1].text
            k += 2
        if last_name not in _MUST_USE_CALLS or not (
                k < n and toks[k].kind == "punct" and toks[k].text == "("):
            i += 1
            continue
        # Skip the argument list; require `;` right after.
        depth = 0
        m = k
        while m < n:
            if toks[m].kind == "punct":
                if toks[m].text == "(":
                    depth += 1
                elif toks[m].text == ")":
                    depth -= 1
                    if depth == 0:
                        break
            m += 1
        if not (m + 1 < n and toks[m + 1].kind == "punct"
                and toks[m + 1].text == ";"):
            i += 1
            continue
        line = toks[j].line
        if voided:
            if not _suppressed(lf, line, "MDL002"):
                out.append(Finding(
                    lf.path, line, "MDL002",
                    f"result of '{last_name}' discarded via (void) without "
                    f"an mdl-ok(MDL002) rationale"))
        else:
            if not _suppressed(lf, line, "MDL002"):
                out.append(Finding(
                    lf.path, line, "MDL002",
                    f"result of '{last_name}' is silently dropped"))
        i = m + 2
    return out


# --- MDL003 ---------------------------------------------------------------


def _is_bare_int(t: Token) -> bool:
    if t.kind != "num":
        return False
    body = t.text.replace("'", "")
    if "." in body or "x" in body.lower() or "e" in body.lower():
        return False
    digits = body.rstrip("uUlL")
    return digits.isdigit() and digits != "0"


def check_unit_mixing(lf: LexedFile) -> list[Finding]:
    out: list[Finding] = []
    toks = lf.tokens
    for i in range(len(toks) - 2):
        a, op, b = toks[i], toks[i + 1], toks[i + 2]
        if not (op.kind == "punct" and op.text in _US_OPS):
            continue
        hit = None
        if a.kind == "id" and a.text.endswith("_us") and _is_bare_int(b):
            hit = (a.text, b.text)
        elif b.kind == "id" and b.text.endswith("_us") and _is_bare_int(a):
            hit = (b.text, a.text)
        if hit and not _suppressed(lf, op.line, "MDL003"):
            out.append(Finding(
                lf.path, op.line, "MDL003",
                f"'{hit[0]}' {op.text} bare literal {hit[1]}: wrap the "
                f"literal in SimTime()/SimDuration() to keep the unit"))
    return out


# --- MDL004 ---------------------------------------------------------------


def check_local_static(lf: LexedFile) -> list[Finding]:
    if not (lf.path.startswith("bench/") or lf.path.startswith("src/")
            or "lint_fixture" in lf.path):
        return []
    out: list[Finding] = []
    seen: set[int] = set()
    for fn in extract_functions(lf):
        for i, t in enumerate(fn.body):
            if not (t.kind == "id" and t.text == "static"):
                continue
            nxt = fn.body[i + 1] if i + 1 < len(fn.body) else None
            if nxt is not None and nxt.kind == "id" \
                    and nxt.text in {"const", "constexpr", "assert"}:
                continue
            if t.line in seen or _suppressed(lf, t.line, "MDL004"):
                continue
            seen.add(t.line)
            out.append(Finding(
                lf.path, t.line, "MDL004",
                "function-local static mutable state: hoist it into the "
                "fixture/rig object so parallel sweeps stay independent"))
    return out


# --- MDL005 ---------------------------------------------------------------


def check_owned_observers(lf: LexedFile) -> list[Finding]:
    if lf.path.startswith("src/obs/"):
        return []
    out: list[Finding] = []
    toks = lf.tokens
    for i, t in enumerate(toks):
        if t.kind == "id" and t.text in {"unique_ptr", "shared_ptr"}:
            j = i + 1
            if j < len(toks) and toks[j].text == "<":
                k = j + 1
                if k < len(toks) and toks[k].text == "mimdraid":
                    k += 2  # skip `mimdraid ::`
                if k < len(toks) and toks[k].kind == "id" \
                        and toks[k].text in _OBSERVER_TYPES \
                        and not _suppressed(lf, t.line, "MDL005"):
                    out.append(Finding(
                        lf.path, t.line, "MDL005",
                        f"'{toks[k].text}' held in an owning smart pointer; "
                        f"observers are borrowed via raw pointer"))
        if t.kind == "id" and t.text == "new":
            k = i + 1
            if k < len(toks) and toks[k].text == "mimdraid":
                k += 2
            if k < len(toks) and toks[k].kind == "id" \
                    and toks[k].text in _OBSERVER_TYPES \
                    and not _suppressed(lf, t.line, "MDL005"):
                out.append(Finding(
                    lf.path, t.line, "MDL005",
                    f"'{toks[k].text}' heap-allocated with new; observers "
                    f"are created by the harness and borrowed"))
    return out


# --- MDL006 ---------------------------------------------------------------


def check_top_copy(lf: LexedFile) -> list[Finding]:
    """MDL006: `T x = q.top()` copies the queue head by value.

    The motivating bug: the event loop did `Event ev = heap_.top()`, copying
    a std::function closure (and its heap allocation) on every single event
    pop. Only initializations/assignments without a `&` on the left-hand
    side are flagged; `const auto& e = q.top()` and in-place uses
    (`q.top().at <= deadline`) pass. Scoped to src/ like MDL004 — tests may
    copy freely.
    """
    if not (lf.path.startswith("src/") or "lint_fixture" in lf.path):
        return []
    out: list[Finding] = []
    toks = lf.tokens
    for i, t in enumerate(toks):
        if not (t.kind == "id" and t.text == "top"):
            continue
        if i + 2 >= len(toks) or toks[i + 1].text != "("                 or toks[i + 2].text != ")":
            continue
        if i == 0 or toks[i - 1].text not in {".", "->"}:
            continue
        # Walk back to the statement start; remember the nearest plain `=`.
        j = i - 1
        start = 0
        eq = None
        while j >= 0:
            txt = toks[j].text
            if txt in {";", "{", "}"}:
                start = j + 1
                break
            if txt == "=" and eq is None:
                eq = j
            j -= 1
        if eq is None:
            continue  # used in place, not bound to a name
        lhs = toks[start:eq]
        if not lhs or any(t2.text == "&" for t2 in lhs):
            continue  # reference binding is the recommended form
        if any(t2.text in {"return", "("} for t2 in lhs):
            continue  # not a simple declaration/assignment target
        if _suppressed(lf, t.line, "MDL006"):
            continue
        out.append(Finding(
            lf.path, t.line, "MDL006",
            "queue head copied by value: bind `const auto&` (or move the "
            "element out) instead of copying .top() — a by-value bind "
            "deep-copies any stored callback closure"))
    return out


# --- MDL007 ---------------------------------------------------------------


_DISKISH_RE = re.compile(r"(?i)(disk|drive)")
# Exact type names whose single-member form hides per-slot variation.
_SHARED_PARAM_TYPES = {"DriveParams", "DiskParams"}


def check_representative_disk(lf: LexedFile) -> list[Finding]:
    """MDL007: representative-disk reads in heterogeneous-fleet code.

    The motivating refactor: MimdRaid used `disks_[0]->layout()` to size and
    place data for *every* column, which silently mis-models a fleet with
    mixed drive generations. Flagged (in src/ only — tests may pin disk 0
    deliberately):

      * a disk/drive-named container indexed with literal 0, followed by
        member access (`disks_[0]->geometry()`);
      * `.front()` on such a container, followed by member access;
      * a class storing one shared `DriveParams`/`DiskParams` member
        (`DriveParams params_;`) instead of per-slot parameters.

    Indexing by a variable (`disks_[slot]`) and whole-container iteration
    pass; `ModelDiskParams` (the analytic aggregate) is a distinct type and
    is not matched.
    """
    if not (lf.path.startswith("src/") or "lint_fixture" in lf.path):
        return []
    out: list[Finding] = []
    toks = lf.tokens
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        # Shared parameter member: `DriveParams name_ ;`
        if t.text in _SHARED_PARAM_TYPES and i + 2 < n \
                and toks[i + 1].kind == "id" \
                and toks[i + 1].text.endswith("_") \
                and toks[i + 2].text == ";" \
                and not _suppressed(lf, t.line, "MDL007"):
            out.append(Finding(
                lf.path, t.line, "MDL007",
                f"single shared '{t.text}' member "
                f"'{toks[i + 1].text}': per-slot parameters live in "
                f"FleetSpec — store the generation per slot"))
            continue
        if not _DISKISH_RE.search(t.text):
            continue
        # `disks_[0]` followed by member access.
        if i + 4 < n and toks[i + 1].text == "[" \
                and toks[i + 2].kind == "num" \
                and toks[i + 2].text.replace("'", "").rstrip("uUlL") == "0" \
                and toks[i + 3].text == "]" \
                and toks[i + 4].text in {".", "->"}:
            if not _suppressed(lf, t.line, "MDL007"):
                out.append(Finding(
                    lf.path, t.line, "MDL007",
                    f"'{t.text}[0]' treated as a representative disk; "
                    f"fleets are heterogeneous — use the slot's own "
                    f"parameters"))
            continue
        # `disks_.front().xxx` / `disks_->front()->xxx`.
        if i + 5 < n and toks[i + 1].text in {".", "->"} \
                and toks[i + 2].kind == "id" and toks[i + 2].text == "front" \
                and toks[i + 3].text == "(" and toks[i + 4].text == ")" \
                and toks[i + 5].text in {".", "->"}:
            if not _suppressed(lf, t.line, "MDL007"):
                out.append(Finding(
                    lf.path, t.line, "MDL007",
                    f"'{t.text}.front()' treated as a representative disk; "
                    f"fleets are heterogeneous — use the slot's own "
                    f"parameters"))
    return out


ALL_CHECKS = [
    check_suppression_format,
    check_callback_paths,
    check_dropped_status,
    check_unit_mixing,
    check_local_static,
    check_owned_observers,
    check_top_copy,
    check_representative_disk,
]


def run_checks(lf: LexedFile) -> list[Finding]:
    out: list[Finding] = []
    for chk in ALL_CHECKS:
        out.extend(chk(lf))
    out.sort(key=lambda f: (f.path, f.line, f.check))
    return out
