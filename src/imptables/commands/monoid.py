"""``imptables monoid``: the algebraic verification suites."""

import argparse

from ..cli import Result, _render, _setting


def _parse_tamper(raw: str | None) -> tuple[str, int, int] | None:
    if raw is None:
        return None
    parts = raw.split(":")
    if len(parts) != 3:
        raise ValueError(f"--tamper takes NAME:INDEX:DELTA (e.g. t:3:1), got {raw!r}")
    name, index_text, delta_text = parts
    try:
        index, delta = int(index_text), int(delta_text)
    except ValueError:
        raise ValueError(f"--tamper index and delta must be integers, got {raw!r}")
    return (name, index, delta)


def _witness_json(witness) -> dict | None:
    """A witness with integral sides as ints and fractional ones as strings."""
    if witness is None:
        return None
    lhs, rhs = (
        int(v) if getattr(v, "denominator", 1) == 1 else str(v)
        for v in (witness.lhs, witness.rhs)
    )
    return {"n": witness.n, "lhs": lhs, "rhs": rhs, "context": witness.context}


def run(args: argparse.Namespace) -> Result:
    from ..monoid import DEFAULT_K_MAX, DEFAULT_ORDER, DEFAULT_SEED, run_all

    order = _setting("--order", args.order, "IMPTABLES_ORDER", DEFAULT_ORDER, 2)
    seed = _setting("--seed", args.seed, "IMPTABLES_SEED", DEFAULT_SEED)
    k_max = _setting("--kmax", args.kmax, default=DEFAULT_K_MAX, floor=2)
    tamper = _parse_tamper(args.tamper)
    if tamper is not None and not 0 <= tamper[1] <= order:
        raise ValueError(f"--tamper index {tamper[1]} outside orders 0..{order}")
    reports = run_all(order=order, k_max=k_max, seed=seed, tamper=tamper)
    all_ok = all(r.verified for r in reports)
    lines = [r.summary_line() for r in reports]
    if tamper is not None:
        name, index, delta = tamper
        lines.insert(0, f"tamper applied: {name} coefficient {index} shifted by {delta}")
    lines.append("all claims verified" if all_ok else "counterexample found")
    payload = {
        "order": order,
        "k_max": k_max,
        "seed": seed,
        "tamper": list(tamper) if tamper else None,
        "verified": all_ok,
        "reports": [
            {
                "claim": r.claim,
                "detail": r.detail,
                "order": r.order,
                "verified": r.verified,
                "witness": _witness_json(r.witness),
            }
            for r in reports
        ],
    }
    return (0 if all_ok else 1), _render(args.format, payload, lines)
