"""Compare two hodgecheck JSON reports record by record.

    python3 tools/compare_reports.py PARENT CHANGE

Applies the rule a change that keeps results must meet: the same records
(matched by their labels and their order among records with equal labels),
each with the same status, and every lhs and rhs within REL_MOVE relative
of the parent's.  So must every term in extra.terms of a record whose
right side is a sum of named terms (TERMS): a change cannot move one term
while the sum holds.  So must every element of the eigenvalue lists in
extra of a spectral record (SPECTRA), each list compared element by
element, so that a change cannot drop or move one eigenvalue, such as the
middle copy of a double one, while lhs and rhs hold; lists of different
lengths are a problem.  A worst-sample record (WORST_SAMPLE) reports the
sample with the largest error, so its lhs/rhs jump to another sample when
roundoff moves; for it the test is instead that rel_err stays at most
max(parent rel_err, WORST_FLOOR).  Non-numeric values ("inf", "nan",
null) must be equal.

Prints one line per problem and a summary line on stdout; exits 0 when
there is no problem, 1 when there is one and 2 when a report cannot be
read.  Every record whose lhs, rhs, rel_err, a term or an eigenvalue moved
at all, within the rule or not, also gets one informational "moved:" line
on stderr, which leaves the exit code alone.  Uses the standard library
only.
"""

from __future__ import annotations

import json
import sys

REL_MOVE = 1e-12
WORST_FLOOR = 1e-13
WORST_SAMPLE = ("variance_identity", "hodge_decomposition", "intertwining")
TERMS = ("decomposition_identity", "green_identity", "h1_identity")
SPECTRA = {"eigen_spectrum": ("spectral.eigenvalues",),
           "gap_lower_bound": ("eigenvalues",),
           "semiclassical_sweep": ("lambda1",),
           "duality_spectrum": ("direct_levels", "dual_levels", "direct_extrapolated",
                                "dual_extrapolated")}
LABELS = ("check_id", "kind", "domain", "potential", "p", "b", "N", "h_param",
          "quad_order", "mesh_h")


def _keyed(records) -> dict:
    """Records by (labels, occurrence among records with those labels)."""
    out, seen = {}, {}
    for rec in records:
        labels = tuple(json.dumps(rec.get(k)) for k in LABELS)
        seen[labels] = seen.get(labels, -1) + 1
        out[labels + (seen[labels],)] = rec
    return out


def _number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _moved(old, new, rel) -> bool:
    if not (_number(old) and _number(new)):
        return old != new
    return abs(new - old) > rel * max(abs(old), abs(new))


def _terms(rec) -> dict:
    """extra.terms of a TERMS record, keyed "terms.<name>"; {} otherwise."""
    if rec["check_id"] not in TERMS:
        return {}
    terms = (rec.get("extra") or {}).get("terms") or {}
    return {f"terms.{k}": v for k, v in terms.items()}


def _elements(name, value) -> dict:
    """value keyed name, or for a (nested) list each element keyed
    name[i] (name[i][j], ...)."""
    if not isinstance(value, list):
        return {name: value}
    out = {}
    for i, v in enumerate(value):
        out.update(_elements(f"{name}[{i}]", v))
    return out


def _spectra(rec) -> dict:
    """The elements of the SPECTRA lists of rec's extra that it holds, keyed
    by path and index ("spectral.eigenvalues[2]"); {} for other records."""
    out = {}
    for path in SPECTRA.get(rec["check_id"], ()):
        value = rec.get("extra")
        for key in path.split("."):
            value = value.get(key) if isinstance(value, dict) else None
        if value is not None:
            out.update(_elements(path, value))
    return out


def compare(parent: dict, change: dict) -> tuple[list[str], list[str]]:
    """Problem lines, empty when the change keeps the parent's results, and
    one "moved:" line per record in both reports whose lhs, rhs, rel_err, a
    term or an eigenvalue is not exactly the parent's."""
    old, new = _keyed(parent["records"]), _keyed(change["records"])
    problems, moves = [], []
    for key in old.keys() | new.keys():
        rec = old.get(key) or new[key]
        name = (f"{rec['check_id']} p={rec.get('p')} b={rec.get('b')} N={rec.get('N')} "
                f"h_param={rec.get('h_param')} quad_order={rec.get('quad_order')} #{key[-1]}")
        if key not in new:
            problems.append(f"{name}: disappears")
            continue
        if key not in old:
            problems.append(f"{name}: appears")
            continue
        a, b = old[key], new[key]
        ta, tb = _terms(a), _terms(b)
        values = {side: (a[side], b[side]) for side in ("lhs", "rhs", "rel_err")}
        values.update({t: (ta.get(t), tb.get(t)) for t in sorted(ta.keys() | tb.keys())})
        sa, sb = _spectra(a), _spectra(b)
        values.update({e: (sa.get(e), sb.get(e)) for e in [*sa, *(e for e in sb if e not in sa)]})
        shifts = [f"{side} {x!r} -> {y!r}" for side, (x, y) in values.items()
                  if _moved(x, y, 0.0)]
        if shifts:
            moves.append(f"moved: {name}: " + ", ".join(shifts))
        if a["status"] != b["status"]:
            problems.append(f"{name}: status {a['status']} -> {b['status']}")
        if a["check_id"] in WORST_SAMPLE:
            ra, rb = a["rel_err"], b["rel_err"]
            if not (_number(ra) and _number(rb)):
                if ra != rb:
                    problems.append(f"{name}: rel_err {ra} -> {rb}")
            elif rb > max(ra, WORST_FLOOR):
                problems.append(f"{name}: rel_err rises {ra!r} -> {rb!r}")
            continue
        for side, (x, y) in values.items():
            if side != "rel_err" and _moved(x, y, REL_MOVE):
                problems.append(f"{name}: {side} {x!r} -> {y!r}")
    return sorted(problems), sorted(moves)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    try:
        reports = []
        for path in argv:
            with open(path) as f:
                reports.append(json.load(f))
        problems, moves = compare(*reports)
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"cannot compare reports: {e!r}", file=sys.stderr)
        return 2
    for line in moves:
        print(line, file=sys.stderr)
    for line in problems:
        print(line)
    print(f"{len(reports[0]['records'])} -> {len(reports[1]['records'])} records, "
          f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
