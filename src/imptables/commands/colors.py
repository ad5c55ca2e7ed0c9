"""``imptables colors``: root-split color classes, with convolutions in
classical mode."""

from ..cli import Result, _render, _setting


def run(args) -> Result:
    from ..logic import color_class_counts, semantics_from_radix

    sem = semantics_from_radix(_setting("--semantics", args.semantics, default=3))
    n = _setting("--n", args.n, default=4, floor=2, why=" (a root split is needed)")
    budget = _setting("--budget", args.budget, "IMPTABLES_BUDGET", sem.brute_budget, 0)
    classes = color_class_counts(n, sem, budget=budget)
    # Imported only now: a call over its budget stops above without compiling it.
    from ..series import SERIES_VALUES, closed_form

    by_value = {value: closed_form(name, n) for name, value in SERIES_VALUES[sem.name].items()}
    products = {
        (a, b): (by_value[a] * by_value[b]).coefficient(n)
        for a in sem.values
        for b in sem.values
    }
    keys = sorted(classes, reverse=True)
    agree = all(classes[k] == products[k] for k in keys)
    total = sum(classes.values())
    # Only the classical products are shown; the three-valued ones are checked.
    shown = sem.radix == 2
    rows = [(a, b, classes[a, b], products[a, b] if shown else None) for a, b in keys]
    if args.format == "csv":
        lines = ["left,right,count" + (",convolution" if shown else "")]
        lines += [",".join(map(str, row if shown else row[:3])) for row in rows]
    else:
        lines = [f"root-split color classes, n={n} [{sem.name}]"]
        lines += [
            f"left={a} right={b}: {count}" + (f" (convolution {conv})" if shown else "")
            for a, b, count, conv in rows
        ]
        lines.append(f"total {total}")
        if shown or not agree:
            lines.append("classes match convolutions" if agree else "MISMATCH with convolutions")
    payload = {
        "n": n,
        "semantics": sem.name,
        "classes": [dict(zip(("left", "right", "count", "convolution"), row)) for row in rows],
        "total": total,
        "agree": agree,
    }
    return (0 if agree else 1), _render(args.format, payload, lines)
