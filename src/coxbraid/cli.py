"""Command line front end.

Thin argparse wrappers around the library: verification sweeps from the
check registry, strand removal counts, Garside normal forms, simple
dual braid embeddings, SVG rendering and basis expansions.  Every
verdict printed here is the unmodified result of a library call.

Exit codes: 0 pass, 1 fail, 2 usage error, 3 resource limit, 4 integrity
error (an internal contradiction, never a verdict).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .coxeter import CoxeterGroup, IntegrityError, ResourceError, coxeter_group, coxeter_group_of
from .verify import CHECKS, Report, budget_guard, run_check, type_for


def _parse_letters(text: str) -> tuple[int, ...]:
    """Accept "[-1,2,1]", "-1,2,1" or "-1 2 1"."""
    body = text.strip().strip("[]").replace(",", " ")
    if not body.strip():
        return ()
    try:
        return tuple(int(tok) for tok in body.split())
    except ValueError:
        raise ValueError(f"cannot parse word {text!r}") from None


def _group_from_args(args: argparse.Namespace) -> CoxeterGroup:
    ctype = type_for(args.type, args.rank, args.m)
    for note in budget_guard(ctype, False, args.budget):
        print(f"warning: {note}", file=sys.stderr)
    return coxeter_group_of(ctype)


def _emit(data: dict, path: str | None) -> None:
    text = json.dumps(data, indent=2)
    if path is None or path == "-":
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _add_group_flags(parser: argparse.ArgumentParser, default_type: str | None = None) -> None:
    parser.add_argument("--type", default=default_type, required=default_type is None,
                        help="family: A, B, D, I2 or I2(m), H3 or F4")
    parser.add_argument("--rank", type=int, help="rank for families A, B, D")
    parser.add_argument("--m", type=int, help="parameter for the dihedral family")
    parser.add_argument("--budget", type=int,
                        help="raise the default size limits (expect long runtimes)")


def cmd_verify(args: argparse.Namespace) -> int:
    report = run_check(
        args.theorem_id,
        args.type,
        rank=args.rank,
        m=args.m,
        coxeter=_parse_letters(args.coxeter) if args.coxeter else None,
        budget=args.budget,
    )
    if args.json:
        _emit(report.to_json(), args.json)
    if args.json != "-":
        print(report.summary())
        shown = 0
        for item in report.items:
            if not item["ok"]:
                print(f"  FAIL {item['item']}")
                shown += 1
                if shown >= 20:
                    print("  ... further failures suppressed")
                    break
    for note in report.notes:
        print(f"note: {note}", file=sys.stderr)
    if report.evidence_only:
        return 0
    return 0 if report.passed else 1


def cmd_count(args: argparse.Namespace) -> int:
    from .mikado import count_mikado_A, count_mikado_B

    family = args.type.upper()
    if family == "A":
        count = count_mikado_A(args.n)
    elif family == "B":
        count = count_mikado_B(args.n)
    else:
        raise ValueError("count supports families A and B")
    _emit({"type": family, "n": args.n, "count": count}, args.json)
    return 0


def cmd_normal_form(args: argparse.Namespace) -> int:
    from .garside import BraidWord, delta_normal_form

    group = _group_from_args(args)
    b = BraidWord(group, _parse_letters(args.word))
    nf = delta_normal_form(b)
    data = {
        "group": group.type.to_json(),
        "word": list(b.letters),
        **nf.to_json(),
    }
    _emit(data, args.json)
    return 0


def cmd_embed(args: argparse.Namespace) -> int:
    from .dual import dual_monoid
    from .garside import delta_normal_form, is_rational_permutation

    group = _group_from_args(args)
    ordering = _parse_letters(args.coxeter)
    c = group.from_word(ordering)
    dm = dual_monoid(c, ordering)
    x = group.from_word(_parse_letters(args.divisor))
    if not dm.contains(x):
        raise ValueError("element does not divide the Coxeter element")
    b = dm.embed(x)
    data = {
        "group": group.type.to_json(),
        "coxeter_element": list(ordering),
        "divisor": list(x.reduced_word()),
        "letters": list(b.letters),
        "rational": is_rational_permutation(b),
        "normal_form": delta_normal_form(b).to_json(),
    }
    _emit(data, args.json)
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    from .render import render_svg

    if args.input == "-":
        payload = json.load(sys.stdin)
    else:
        with open(args.input, encoding="utf-8") as fh:
            payload = json.load(fh)
    kind = payload.get("kind")
    if kind == "wiring":
        from .garside import BraidWord
        from .mikado import wiring_from_square_free

        group = coxeter_group("A", payload["rank"])
        obj = wiring_from_square_free(BraidWord(group, tuple(payload["letters"])))
    elif kind == "ncp":
        from .dual import ncp_encode

        group = coxeter_group_of(type_for(payload["family"], payload.get("rank"), payload.get("m")))
        ordering = tuple(payload["coxeter"])
        c = group.from_word(ordering)
        x = group.from_word(tuple(payload["divisor"]))
        obj = ncp_encode(x, c)
    else:
        raise ValueError("input kind must be 'wiring' or 'ncp'")
    out = render_svg(obj, args.out)
    print(json.dumps({"out": out}))
    return 0


def cmd_expand(args: argparse.Namespace) -> int:
    from .garside import BraidWord, word_key

    group = _group_from_args(args)
    b = BraidWord(group, _parse_letters(args.word))
    if args.basis == "C":
        from .hecke import braid_image_a, kl_table

        coeffs = kl_table(group).expand_in_C(braid_image_a(b))
        verdict = {"positive": all(p.is_nonneg() for p in coeffs.values())}
    else:
        from .tl import expand_in_b, omega

        coeffs = expand_in_b(omega(b))
        verdict = {"sign_positive": all(
            (p * ((-1) ** w.length())).is_nonneg() for w, p in coeffs.items()
        )}
    data = {
        "group": group.type.to_json(),
        "word": list(b.letters),
        "basis": args.basis,
        "coefficients": {
            word_key(w): str(p)
            for w, p in sorted(coeffs.items(), key=lambda kv: kv[0].id)
        },
        **verdict,
    }
    _emit(data, args.json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxbraid",
        description="exact verification sweeps for braid monoids of finite Coxeter groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a named verification sweep")
    p.add_argument("theorem_id", choices=sorted(CHECKS), metavar="theorem-id",
                   help="one of: " + ", ".join(CHECKS))
    _add_group_flags(p)
    p.add_argument("--coxeter", help="restrict to one standard Coxeter element, e.g. 2,1,3")
    p.add_argument("--json", help="write the full report as JSON to a path, or - for stdout")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("count", help="count strand removable braids")
    p.add_argument("--type", required=True, help="A or B")
    p.add_argument("--n", type=int, required=True, help="strand parameter")
    p.add_argument("--json", help="write JSON to a path instead of stdout")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("normal-form", help="Garside normal form of a braid word")
    p.add_argument("word", help="letters, e.g. [-1,2,1]")
    _add_group_flags(p)
    p.add_argument("--json", help="write JSON to a path instead of stdout")
    p.set_defaults(fn=cmd_normal_form)

    p = sub.add_parser("embed", help="embed a divisor of a Coxeter element as a braid")
    _add_group_flags(p)
    p.add_argument("--coxeter", required=True, help="generator ordering, e.g. 1,2,3")
    p.add_argument("--divisor", required=True, help="reduced word of the divisor")
    p.add_argument("--json", help="write JSON to a path instead of stdout")
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("render", help="render a wiring diagram or partition as SVG")
    p.add_argument("--input", required=True, help="JSON description, or - for stdin")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("expand", help="expand a braid image in a canonical basis")
    p.add_argument("--basis", choices=("C", "TL"), required=True)
    p.add_argument("--word", required=True, help="braid letters, e.g. [1,2,-1]")
    _add_group_flags(p)
    p.add_argument("--json", help="write JSON to a path instead of stdout")
    p.set_defaults(fn=cmd_expand)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except IntegrityError as exc:
        print(f"integrity error: {exc}", file=sys.stderr)
        if getattr(args, "json", None):
            _emit({"error": "IntegrityError", "message": str(exc)}, args.json)
        return 4
    except ResourceError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
