"""``imptables verify``: brute force vs recurrence vs closed form, per n."""

from collections.abc import Iterator

from ..cli import Result, _render, _setting
from ..series import SERIES_VALUES, closed_form


def _verify_rows(n_max: int, sem, names: dict[str, int], limit: int) -> list[dict]:
    """One row per n: each path's count of every value, as {name: count} of
    ``names`` ({series name: value}), and whether the paths agree."""
    from ..logic import brute_counts
    from ..recurrences import counts_by_recurrence

    table = counts_by_recurrence(n_max, sem)
    closed = {name: closed_form(name, n_max) for name in names}
    rows = []
    for n in range(1, n_max + 1):
        tallies = table.row(n)
        recurrence = {name: tallies[value] for name, value in names.items()}
        closed_row = {name: closed[name].coefficient(n) for name in names}
        brute_row = None
        if n <= limit:
            counts = brute_counts(n, sem, budget=limit)
            brute_row = {name: getattr(counts, name) for name in names}
        agree = closed_row == recurrence and brute_row in (None, recurrence)
        rows.append(
            {
                "n": n,
                "brute": brute_row,
                "recurrence": recurrence,
                "closed": closed_row,
                "agree": agree,
            }
        )
    return rows


def run(args) -> Result:
    from ..logic import semantics_from_radix

    sem = semantics_from_radix(_setting("--semantics", args.semantics, default=3))
    n_max = _setting("--n", args.n, default=7 if sem.radix == 3 else 9, floor=1)
    limit = _setting("--budget", args.budget, "IMPTABLES_BUDGET", sem.brute_budget, 0)
    names = SERIES_VALUES[sem.name]
    rows = _verify_rows(n_max, sem, names, limit)
    all_agree = all(row["agree"] for row in rows)

    def lines() -> Iterator[str]:
        # Made as they are written; the rows and the verdict are final above.
        if args.format == "csv":
            yield ",".join(["n", *names, "g"])
            for row in rows:
                values = [row["recurrence"][k] for k in names]
                yield ",".join(map(str, [row["n"], *values, sum(values)]))
            return
        yield f"{sem.name} three-way agreement, n <= {n_max} (brute budget {limit})"
        for row in rows:
            parts = [
                f"{path} skipped"
                if row[path] is None
                else f"{path} " + " ".join(f"{k}={row[path][k]}" for k in names)
                for path in ("brute", "recurrence", "closed")
            ]
            verdict = "ok" if row["agree"] else "MISMATCH"
            yield f"n={row['n']}: " + " | ".join(parts) + f" -> {verdict}"
        yield "all paths agree" if all_agree else "paths disagree"

    payload = {"semantics": sem.name, "n_max": n_max, "agree": all_agree, "rows": rows}
    return (0 if all_agree else 1), _render(args.format, payload, lines())
